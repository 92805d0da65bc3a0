//! **Burner Newton-solve comparison**: dense LU vs the analytic
//! sparse-Jacobian path (`microphysics::sparse`) the `Burner` runs on, on
//! the iso7 and aprox13 networks — the §VI sparse-Jacobian ablation.
//!
//! The paper's §VI: "we can straightforwardly replace the dense linear
//! system with a sparse linear system. We know what the sparsity pattern
//! is … it is even possible to write the exact sequence of operations
//! needed for the linear solve." `SparseLu` compiles exactly that
//! operation sequence from the network's declared pattern (symbolic
//! factorization with min-degree ordering, once per network); this bench
//! measures what it buys per Newton solve and per complete burn.
//!
//! Emits `BENCH_burner.json` at the workspace root. Pass `--test` for the
//! CI smoke mode (tiny sample counts; the JSON is still written).

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{write_metrics_json, MetricPoint};
use exastro_microphysics::{
    BdfErrorKind, BdfStats, BurnFaultConfig, BurnerConfig, Composition, DenseLu, Eos, Network,
    OffloadOptions, RetryLadder, SparseLu, StellarEos, ZoneBurn,
};
use exastro_parallel::LANES;
use std::sync::Mutex;
use std::time::Instant;

/// CI smoke mode: the vendored criterion shim ignores CLI arguments, so
/// the bench itself honours `--test`.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// ½C½O fuel where the network carries oxygen, pure carbon where not.
fn co_fuel(net: &Network) -> Vec<f64> {
    let mut x = vec![0.0; net.nspec()];
    match net.species().iter().position(|s| s.name == "o16") {
        Some(o16) => {
            x[net.index_of("c12")] = 0.5;
            x[o16] = 0.5;
        }
        None => x[net.index_of("c12")] = 1.0,
    }
    x
}

/// A representative burner Jacobian at detonation conditions (the species
/// block; the burner's temperature row stays zero, which is inside the
/// declared pattern, so it exercises the same slot schedule).
fn newton_matrix(net: &Network) -> Vec<f64> {
    let n = net.nspec();
    let m = n + 1;
    let x = co_fuel(net);
    let mut y = vec![0.0; m];
    exastro_microphysics::mass_to_molar(net.species(), &x, &mut y[..n]);
    y[n] = 2.8e9;
    let mut jac = vec![0.0; m * m];
    net.jac(5e7, 2.8e9, &y[..n], &mut jac);
    jac
}

/// The wall time in ns of one call of `f`, timed `inner` calls at a time.
fn one_call_ns(inner: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..inner {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / inner as f64
}

/// Median over `samples` of [`one_call_ns`].
fn call_ns(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    median((0..samples).map(|_| one_call_ns(inner, &mut f)).collect())
}

/// Median wall time in ns of one Newton linear-algebra cycle (one factor
/// of I − γJ + two back-solves, VODE's typical per-step ratio) — the
/// isolated quantity the sparse path targets. `cycle` factors the Jacobian
/// at the given γ and solves in place for the two right-hand sides.
fn newton_cycle_ns(
    m: usize,
    samples: usize,
    mut cycle: impl FnMut(f64, &mut [f64], &mut [f64]),
) -> f64 {
    let gamma = 1e-9; // keeps I − γJ strongly diagonally dominant
    call_ns(samples, 64, || {
        let mut b1 = vec![1.0; m];
        let mut b2 = vec![0.5; m];
        cycle(gamma, &mut b1, &mut b2);
        std::hint::black_box((&b1, &b2));
    })
}

/// The three evaluations a burner lane-step is made of besides the linear
/// algebra, each on its own at detonation conditions: the network's RHS,
/// its Jacobian, and the thermodynamics the self-heating term needs (mean
/// composition from the abundances plus one EOS call), and the RHS again
/// per lane of one [`LANES`]-lane rate stage and abundance stage. Each
/// call of the returned closure times one sample of each, as `[ydot, jac,
/// eos, ydot_lanes]` ns.
fn lane_step_parts_ns<'a>(net: &'a Network, eos: &'a StellarEos) -> impl FnMut() -> [f64; 4] + 'a {
    use std::hint::black_box;
    let n = net.nspec();
    let m = n + 1;
    let x = co_fuel(net);
    let mut y = vec![0.0; n];
    exastro_microphysics::mass_to_molar(net.species(), &x, &mut y);
    let (rho, t) = (5e7, 2.8e9);
    let mut ydot = vec![0.0; n];
    let mut jac = vec![0.0; m * m];
    let mut xs = vec![0.0; n];
    // Four zones a degree apart.
    let rows: Vec<[f64; LANES]> = y.iter().map(|&v| [v; LANES]).collect();
    let temps: [f64; LANES] = std::array::from_fn(|l| t + l as f64);
    let mut ydot_rows = vec![[0.0; LANES]; n];
    let mut lam = vec![[0.0; LANES]; net.reactions().len()];
    move || {
        let ydot_ns = one_call_ns(256, || {
            net.ydot(black_box(rho), black_box(t), black_box(&y), &mut ydot);
            black_box(&ydot);
        });
        let jac_ns = one_call_ns(256, || {
            net.jac(black_box(rho), black_box(t), black_box(&y), &mut jac);
            black_box(&jac);
        });
        let eos_ns = one_call_ns(256, || {
            exastro_microphysics::molar_to_mass(net.species(), black_box(&y), &mut xs);
            let comp = Composition::from_mass_fractions(net.species(), &xs);
            black_box(eos.eval_rt(black_box(rho), black_box(t), &comp).cv);
        });
        let ydot_lanes_ns = one_call_ns(64, || {
            let rho = black_box([rho; LANES]);
            net.rates_lanes(rho, black_box(temps), &mut lam, None);
            net.ydot_from_rates(rho, &lam, black_box(&rows), &mut ydot_rows);
            black_box(&ydot_rows);
        }) / LANES as f64;
        [ydot_ns, jac_ns, eos_ns, ydot_lanes_ns]
    }
}

/// Which Newton solver a [`burn_once`] integrates with.
enum Solve {
    Dense,
    Sparse,
}

/// Burn the network once; returns the final T and the integrator's
/// statistics. `Sparse` is the burner's direct rung. The burner's only
/// dense integrator is the offload rung, so `Dense` is that rung configured
/// at the direct rung's options and reached by one injected failure (which
/// costs no integrator work).
fn burn_once(net: &Network, eos: &StellarEos, solve: Solve) -> (f64, BdfStats) {
    let mut cfg = BurnerConfig {
        ladder: RetryLadder::none(),
        ..Default::default()
    };
    if let Solve::Dense = solve {
        cfg.ladder.offload = Some(OffloadOptions {
            rtol: cfg.bdf.rtol,
            atol: cfg.bdf.atol[0],
            max_order: cfg.bdf.max_order,
            max_steps: cfg.bdf.max_steps,
        });
        cfg.faults = Some(BurnFaultConfig {
            seed: 0,
            rate: 1.0,
            rungs_to_fail: 1,
            error: BdfErrorKind::MaxSteps,
        });
    }
    let out = cfg
        .build(net, eos)
        .burn_zone(0, 5e7, 2.8e9, &co_fuel(net), 1e-7)
        .expect("burn")
        .outcome;
    (out.t, out.stats)
}

/// A field of detonation-adjacent zones with a deterministic ±2% spread in
/// (ρ, T) so every SIMD lane carries distinct state and the shared batch
/// controller has real work to arbitrate.
fn zone_set(x0: &[f64], count: usize) -> Vec<ZoneBurn<'_>> {
    (0..count)
        .map(|i| {
            let f = (i as f64 * 0.37).sin() * 0.02;
            ZoneBurn {
                zone: i as u64,
                rho: 5e7 * (1.0 + f),
                t0: 2.8e9 * (1.0 - f),
                x0,
            }
        })
        .collect()
}

/// Aggregate throughput (zones/µs) of the retry ladder (every zone a batch
/// of one lane) and of the batched SoA path at each lane width, over the
/// same zone field: one row a round, the ladder first. Both sides are
/// `burn_all` sweeps — the ladder is the sweep at width 1 — measured from
/// inside a pool task, where a sweep drains inline on one thread: the
/// speedup is lanes alone, with neither the thread count nor the load
/// balance of a short chunk list in it (pooled, best-of-3
/// `batch_speedup_w8` read 1.41–2.16 on a 2-vCPU host, inline 1.64–1.82).
/// One *round* measures every configuration back-to-back before the next
/// round starts, every other round in reverse order, so a machine-load
/// transient degrades the scalar and batched numbers of that round
/// together: a speedup is the median over rounds of each round's ratio,
/// not a ratio of two best-ofs, which pairs numbers from different rounds
/// (best-of ratios read 1.78–2.49 at one commit on a 2-vCPU host).
fn throughput_sweep(
    net: &Network,
    eos: &StellarEos,
    widths: &[usize],
    zones: &[ZoneBurn],
    dt: f64,
    samples: usize,
) -> Vec<Vec<f64>> {
    let burners: Vec<_> = std::iter::once(&1)
        .chain(widths)
        .map(|&width| {
            BurnerConfig {
                batch_width: width,
                ..Default::default()
            }
            .build(net, eos)
        })
        .collect();
    let rounds = Mutex::new(Vec::with_capacity(samples));
    // A two-task region keeps the team busy; task 0 is the measurement.
    exastro_parallel::par_index_each(2, 2, |task| {
        if task != 0 {
            return;
        }
        let mut rounds = rounds.lock().expect("one task takes the lock");
        for round in 0..samples {
            let mut tp = vec![0.0; burners.len()];
            let mut order: Vec<usize> = (0..burners.len()).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for c in order {
                let start = Instant::now();
                let recs = burners[c].burn_all(zones, dt);
                let us = start.elapsed().as_secs_f64() * 1e6;
                for rec in &recs {
                    assert!(rec.is_ok(), "burn failed");
                }
                std::hint::black_box(&recs);
                tp[c] = zones.len() as f64 / us;
            }
            rounds.push(tp);
        }
    });
    rounds.into_inner().expect("the measurement did not panic")
}

/// The median of `v` (the mean of the middle two for an even count).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

fn bench(c: &mut Criterion) {
    let smoke = test_mode();
    let samples = if smoke { 3 } else { 25 };
    let eos = StellarEos;
    let iso7 = Network::iso7();
    let aprox13 = Network::aprox13();
    let nets: [(&str, &Network); 2] = [("iso7", &iso7), ("aprox13", &aprox13)];

    let mut metrics: Vec<MetricPoint> = Vec::new();
    // One reaction (cburn2) against nine and fifteen: the temperature
    // factors are shared, so n reactions must cost well under n times one
    // (`{net}/ydot_over_cburn2`; tier-1 gates aprox13's). The networks are
    // timed in interleaved rounds, one sample of every part of every
    // network a round, and each ratio is the median over rounds of one
    // round's ratio, so a load transient that lands on a round moves both
    // of its sides.
    println!("=== burner lane-step parts: RHS, Jacobian, EOS (ns per call) ===");
    let cburn2 = Network::cburn2();
    let part_nets: [(&str, &Network); 3] =
        [("cburn2", &cburn2), ("iso7", &iso7), ("aprox13", &aprox13)];
    let mut parts: Vec<_> = part_nets
        .iter()
        .map(|&(_, net)| lane_step_parts_ns(net, &eos))
        .collect();
    let rounds: Vec<Vec<[f64; 4]>> = (0..if smoke { 15 } else { 101 })
        .map(|_| parts.iter_mut().map(|sample| sample()).collect())
        .collect();
    for (k, (name, _)) in part_nets.into_iter().enumerate() {
        let over_rounds =
            |f: &dyn Fn(&[[f64; 4]]) -> f64| median(rounds.iter().map(|r| f(r)).collect());
        let [ydot_ns, jac_ns, eos_ns, ydot_lanes_ns] =
            std::array::from_fn(|j| over_rounds(&|r| r[k][j]));
        let lanes_ratio = over_rounds(&|r| r[k][3] / r[k][0]);
        let over_cburn2 = over_rounds(&|r| r[k][0] / r[0][0]);
        println!(
            "{name}: ydot {ydot_ns:.0} ns, jac {jac_ns:.0} ns, eos {eos_ns:.0} ns, \
             ydot in {LANES} lanes {ydot_lanes_ns:.0} ns a lane ({lanes_ratio:.2}x)"
        );
        for (what, ns) in [
            ("ydot_ns", ydot_ns),
            ("jac_ns", jac_ns),
            ("eos_ns", eos_ns),
            ("ydot_lanes_ns", ydot_lanes_ns),
        ] {
            metrics.push(MetricPoint::measured(&format!("{name}/{what}"), ns, "ns"));
        }
        // Per-round ratios: machine speed cancels (tier-1 gates aprox13's).
        metrics.push(MetricPoint::measured(
            &format!("{name}/ydot_lanes_ratio"),
            lanes_ratio,
            "x",
        ));
        metrics.push(MetricPoint::measured(
            &format!("{name}/ydot_over_cburn2"),
            over_cburn2,
            "x",
        ));
    }

    println!("=== burner Newton-solve: dense vs analytic sparse (§VI) ===");
    for (name, net) in nets {
        let m = net.nspec() + 1;
        let csr = net.sparsity();
        let lu = SparseLu::compile(&csr);
        println!(
            "{name}: {m}×{m}, {} pattern nnz ({:.0}% empty), {} fill-in under min-degree",
            csr.nnz(),
            csr.empty_fraction() * 100.0,
            lu.fill_in()
        );
        metrics.push(MetricPoint::measured(
            &format!("{name}/pattern_nnz"),
            csr.nnz() as f64,
            "entries",
        ));
        metrics.push(MetricPoint::measured(
            &format!("{name}/fill_in"),
            lu.fill_in() as f64,
            "entries",
        ));

        // Isolated Newton cycle: factor + 2 solves on both LUs.
        let jac = newton_matrix(net);
        let mut mat = vec![0.0; m * m];
        let dense_ns = newton_cycle_ns(m, samples, |gamma, b1, b2| {
            for r in 0..m {
                for c in 0..m {
                    mat[r * m + c] = -gamma * jac[r * m + c];
                }
                mat[r * m + r] += 1.0;
            }
            let dense = DenseLu::factor(&mat, m).expect("factor");
            dense.solve(b1);
            dense.solve(b2);
        });
        let (mut vals, mut scratch) = (vec![0.0; lu.nnz_filled()], vec![0.0; m]);
        let sparse_ns = newton_cycle_ns(m, samples, |gamma, b1, b2| {
            lu.factor_newton(&jac, gamma, &mut vals).expect("factor");
            lu.solve(&vals, b1, &mut scratch);
            lu.solve(&vals, b2, &mut scratch);
        });
        let speedup = dense_ns / sparse_ns;
        println!(
            "{name}: Newton cycle dense {dense_ns:.0} ns, sparse {sparse_ns:.0} ns \
             → {speedup:.2}× speedup"
        );
        metrics.push(MetricPoint::measured(
            &format!("{name}/dense_newton_cycle"),
            dense_ns,
            "ns",
        ));
        metrics.push(MetricPoint::measured(
            &format!("{name}/sparse_newton_cycle"),
            sparse_ns,
            "ns",
        ));
        metrics.push(MetricPoint::measured(
            &format!("{name}/newton_solve_speedup"),
            speedup,
            "x",
        ));

        // Complete burns end-to-end: same physics, integrator-attributed
        // linear-algebra time from BdfStats::solve_ns.
        let (td, dense) = burn_once(net, &eos, Solve::Dense);
        let (ts, sparse) = burn_once(net, &eos, Solve::Sparse);
        let (solve_d, solve_s) = (dense.solve_ns, sparse.solve_ns);
        println!(
            "{name}: burn ΔT = {:.2e} K ({} vs {} Newton iters); \
             in-burn solve time {solve_d} ns dense, {solve_s} ns sparse",
            (td - ts).abs(),
            dense.newton_iters,
            sparse.newton_iters
        );
        metrics.push(MetricPoint::measured(
            &format!("{name}/burn_delta_t"),
            (td - ts).abs(),
            "K",
        ));
        metrics.push(MetricPoint::measured(
            &format!("{name}/burn_solve_ns_dense"),
            solve_d as f64,
            "ns",
        ));
        metrics.push(MetricPoint::measured(
            &format!("{name}/burn_solve_ns_sparse"),
            solve_s as f64,
            "ns",
        ));
        // The Jacobian reuse a lone lane gets (1.7 while every step attempt
        // of the ladder re-evaluated it).
        let jac_per_step = sparse.jac_evals as f64 / sparse.steps as f64;
        println!(
            "{name}: width 1: {} Jacobians over {} steps ({jac_per_step:.3} a step)",
            sparse.jac_evals, sparse.steps
        );
        metrics.push(MetricPoint::measured(
            &format!("{name}/w1_jac_evals_per_step"),
            jac_per_step,
            "count",
        ));
    }

    // Batched SoA throughput: aggregate zones/µs over a perturbed zone
    // field, width 1 (the ladder) vs SIMD lane widths. The paper's batching
    // argument: one Nordsieck history and one amortized Jacobian per
    // batch turns the per-zone Newton loop into lane-inner SIMD sweeps.
    // Smoke sweeps are an eighth as long, so their median needs more rounds
    // to settle: tier-1 holds `batch_speedup_w8` within 15% of its baseline,
    // which seven rounds missed in 3 of 12 runs on a 2-vCPU host.
    let zone_count = if smoke { 32 } else { 256 };
    let throughput_samples = if smoke { 21 } else { 5 };
    let burn_dt = 1e-7;
    let widths = [4usize, 8, 16];
    println!("=== batched SoA burner: aggregate zones/µs ({zone_count} zones) ===");
    for (name, net) in nets {
        let fuel = co_fuel(net);
        let zones = zone_set(&fuel, zone_count);
        let rounds = throughput_sweep(net, &eos, &widths, &zones, burn_dt, throughput_samples);
        let best = |c: usize| rounds.iter().map(|r| r[c]).fold(0.0, f64::max);
        let scalar = best(0);
        metrics.push(MetricPoint::measured(
            &format!("{name}/zones_per_us_scalar"),
            scalar,
            "zones/us",
        ));
        print!("{name}: scalar {scalar:.4} zones/µs");
        for (c, &width) in (1..).zip(&widths) {
            let tp = best(c);
            let speedup = median(rounds.iter().map(|r| r[c] / r[0]).collect());
            print!(", w{width} {tp:.4} ({speedup:.2}×)");
            metrics.push(MetricPoint::measured(
                &format!("{name}/zones_per_us_batch{width}"),
                tp,
                "zones/us",
            ));
            metrics.push(MetricPoint::measured(
                &format!("{name}/batch_speedup_w{width}"),
                speedup,
                "x",
            ));
        }
        println!();
    }

    let path = write_metrics_json("burner", &metrics).expect("write BENCH_burner.json");
    println!("wrote {}\n", path.display());

    let mut g = c.benchmark_group("burner");
    g.sample_size(if smoke { 2 } else { 15 });
    for (name, net) in nets {
        g.bench_function(format!("{name}/dense"), |b| {
            b.iter(|| std::hint::black_box(burn_once(net, &eos, Solve::Dense)))
        });
        g.bench_function(format!("{name}/sparse"), |b| {
            b.iter(|| std::hint::black_box(burn_once(net, &eos, Solve::Sparse)))
        });
        let fuel = co_fuel(net);
        let zones = zone_set(&fuel, if smoke { 8 } else { 64 });
        let batched = BurnerConfig::default().build(net, &eos);
        g.bench_function(format!("{name}/batch8"), |b| {
            b.iter(|| std::hint::black_box(batched.burn_all(&zones, 1e-7)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
