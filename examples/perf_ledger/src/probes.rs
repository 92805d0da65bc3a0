//! The traced pass's layer probes. All spans are recorded by the harness,
//! around calls into each layer's public functions:
//!
//! * before every third op, a *shadow step* — the step's own sequence of
//!   layer calls replayed on a clone of the live state — so the op itself
//!   runs exactly as in the untraced pass;
//! * once per traced run, fixed-fixture probes of the layers no driver
//!   step reaches directly (task graph, pool, checkpoint I/O, rank pool).
//!
//! `per_layer` then turns spans and the ops' own reports into the declared
//! `<layer>.<metric>` values.

use crate::ledger::{paired_overhead, round_spread, Round, Tracer};
use crate::metrics::{median, percentile, ratio, PER_LAYER};
use crate::workloads::{BubbleRun, BurnField, CastroRun, Layers, ServiceRun, Workload};
use exastro::amr::{BcSpec, BoxArray, DistStrategy, DistributionMapping, Geometry, MultiFab};
use exastro::castro::{
    burn_state, init_sedov, snapshot_level, Gravity, GravityMode, SedovParams, StateLayout,
};
use exastro::machine::{sedov_workload, Machine, RankPool};
use exastro::maestro::LmLayout;
use exastro::microphysics::{CBurn2, GammaLaw, Network};
use exastro::parallel::{ArenaStats, PoolStats, TaskGraph, WorkerPool};
use exastro::resilience::{CheckpointManager, Clock};
use exastro::service::PriorityClass;
use std::collections::BTreeMap;
use std::path::Path;

/// Spans whose sum is the shadow step of each driver.
const CASTRO_STEP: &str = "castro.shadow_step";
const MAESTRO_STEP: &str = "maestro.shadow_step";
/// Note: BDF steps a shadow burn took (pairs with its span's time).
const SHADOW_BDF_STEPS: &str = "microphysics.shadow_bdf_steps";

pub fn shadow(w: &dyn Workload, tr: &mut Tracer) {
    match w.layers() {
        Layers::Castro(run) => shadow_castro(run, tr),
        Layers::Maestro(run) => shadow_maestro(run, tr),
        Layers::Burn(run) => shadow_burn(run, tr),
        Layers::Service(run) => shadow_service(run, tr),
    }
}

/// Ghost exchange, physical boundaries and reductions on a clone.
fn amr_probes(state: &MultiFab, geom: &Geometry, bc: &BcSpec, comp: usize, tr: &mut Tracer) {
    let mut g = tr.span("amr.clone_ms", |_| state.clone()).0;
    let (trace, ms) = tr.span("amr.fill_boundary_ms", |_| g.fill_boundary(geom));
    let bytes = (trace.network_bytes() + trace.local_bytes) as f64;
    tr.notes
        .push(("amr.exchange_gb_per_s", ratio(bytes, ms * 1e6)));
    tr.span("amr.post_wait_ms", |_| {
        let pending = g.post_fill_boundary(geom);
        pending.wait(&mut g)
    });
    tr.span("amr.fill_physical_bc_ms", |_| g.fill_physical_bc(geom, bc));
    tr.span("amr.reduce_ms", |_| (g.max(comp), g.sum(comp)));
}

fn shadow_castro(run: &CastroRun, tr: &mut Tracer) {
    let c = &run.castro;
    let geom = &run.geom;
    amr_probes(&run.state, geom, &c.bc, StateLayout::RHO, tr);
    // The transactional driver snapshots the state inside the step; the
    // plain one does not, so there the clone stays outside the shadow.
    let mut early = (!run.transactional).then(|| run.state.clone());
    tr.span(CASTRO_STEP, |tr| {
        let mut s = early
            .take()
            .unwrap_or_else(|| tr.span("amr.clone_ms", |_| run.state.clone()).0);
        let dt = tr
            .span("castro.estimate_dt_ms", |_| c.estimate_dt(&s, geom))
            .0;
        let burn_half = |s: &mut MultiFab, tr: &mut Tracer| {
            if let Some(opts) = &c.burn {
                let (stats, _) = tr.span("microphysics.burn_state_ms", |_| {
                    burn_state(s, 0.5 * dt, c.net, c.eos, &c.layout, opts, &c.ex, geom)
                });
                let steps = stats.map_or(0, |b| b.total_steps);
                tr.notes.push((SHADOW_BDF_STEPS, steps as f64));
            }
        };
        burn_half(&mut s, tr);
        tr.span("castro.hydro_advance_ms", |_| {
            c.hydro.advance(
                &mut s,
                dt,
                geom,
                &c.layout,
                c.eos,
                c.net.species(),
                &c.bc,
                &c.ex,
                c.arena.as_ref(),
            )
        });
        if c.gravity.mode != GravityMode::Off {
            tr.span("castro.gravity_ms", |_| {
                let field = c.gravity.solve(&s, geom);
                Gravity::apply_source(&mut s, &field, dt, &c.ex);
            });
        }
        tr.span("castro.sync_temperature_ms", |_| c.sync_temperature(&mut s));
        burn_half(&mut s, tr);
        tr.span("castro.validate_ms", |_| {
            c.validate_state(&s, c.recovery.species_tol).is_ok()
        });
        tr.span("amr.reduce_ms", |_| {
            (s.max(StateLayout::TEMP), s.max(StateLayout::RHO))
        });
    });
}

fn shadow_maestro(run: &BubbleRun, tr: &mut Tracer) {
    let m = &run.maestro;
    let geom = &run.geom;
    amr_probes(&run.state, geom, &m.bc(), LmLayout::TEMP, tr);
    let dt = run.next_dt();
    // The whole step without reactions, on its own clone: the share the
    // burner owns is what the real step costs beyond this.
    let mut s = run.state.clone();
    tr.span("maestro.step_noburn_ms", |_| {
        run.noburn.advance(&mut s, geom, dt).is_ok()
    });
    // The parts of the step the driver exposes, in step order. Advection
    // and the reactions are private to `advance`; they are what
    // `maestro.unattributed_frac` and `maestro.react_share` account for.
    let mut s = run.state.clone();
    tr.span(MAESTRO_STEP, |tr| {
        tr.span("maestro.estimate_dt_ms", |_| m.estimate_dt(&s, geom));
        tr.span("maestro.enforce_density_ms", |_| {
            m.enforce_density(&mut s, geom)
        });
        tr.span("solvers.project_ms", |_| m.project(&mut s, geom, dt));
        tr.span("maestro.enforce_density_ms", |_| {
            m.enforce_density(&mut s, geom)
        });
        tr.span("maestro.validate_ms", |_| {
            m.validate_state(&s, m.recovery.species_tol).is_ok()
        });
        tr.span("amr.reduce_ms", |_| {
            (
                s.max(LmLayout::TEMP),
                s.max(LmLayout::W),
                s.min(LmLayout::W),
            )
        });
    });
}

fn shadow_burn(run: &BurnField, tr: &mut Tracer) {
    // The op is the burn sweep itself; only the mesh-side costs of a
    // sweep's surroundings are probed here.
    amr_probes(
        &run.state,
        &run.geom,
        &BcSpec::outflow(),
        StateLayout::TEMP,
        tr,
    );
}

fn shadow_service(run: &ServiceRun, tr: &mut Tracer) {
    tr.span("service.report_ms", |_| run.svc.report());
}

// ------------------------------------------------------ fixed fixtures

/// Probes that do not depend on the workload: run once per traced run.
pub fn fixed_probes(tr: &mut Tracer, scratch: &Path) {
    let pool = WorkerPool::global();
    // 2 048 no-op tasks as 8 chains of 256 keep the ready queue shallow:
    // the worst case for wake-up cost.
    let mut g = TaskGraph::new();
    for _ in 0..8 {
        let mut prev = g.add_task();
        for _ in 0..255 {
            prev = g.add_task_after(&[prev]);
        }
    }
    g.run(pool, 4, |_| {}).expect("acyclic");
    for _ in 0..5 {
        tr.span("parallel.graph_run", |_| g.run(pool, 4, |_| {}).is_ok());
    }
    for _ in 0..200 {
        tr.span("parallel.pool_region", |_| {
            pool.run(2, 2, &|tasks| while tasks.next_task().is_some() {})
        });
    }

    let machine = Machine::summit();
    let step = sedov_workload(&machine, 2, 64, 32, 16);
    for _ in 0..20 {
        tr.span("machine.simulate_step", |_| machine.simulate_step(&step));
    }
    let mut ranks = RankPool::new(&machine, 2);
    for _ in 0..200 {
        tr.span("machine.lease_release", |_| {
            let lease = ranks.try_lease(6).expect("free pool");
            ranks.release(lease);
        });
    }

    // Checkpoint write / verify / restore of a 48³ Sedov state, reads
    // beside writes so a write-side gain that costs restore shows.
    let geom = Geometry::cube(48, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), 24, 8);
    let dm = DistributionMapping::new(&ba, 6, DistStrategy::Sfc);
    let eos = GammaLaw::monatomic();
    let layout = StateLayout::new(CBurn2::new().nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    init_sedov(&mut state, &geom, &layout, &eos, &SedovParams::default());
    let mgr = CheckpointManager::new(scratch.join("ckpt")).expect("checkpoint root");
    for step in 1..=3 {
        let clock = Clock {
            step,
            time: 0.0,
            dt: 0.0,
        };
        let snap = snapshot_level(&geom, &state, clock, &layout);
        tr.notes
            .push(("resilience.ckpt_mb", snap.payload_bytes() as f64 / 1e6));
        tr.span("resilience.digest_ms", |_| snap.digest());
        let dir = tr
            .span("resilience.ckpt_write_ms", |_| mgr.write(&snap))
            .0
            .expect("checkpoint write");
        tr.span("resilience.ckpt_verify_ms", |_| {
            CheckpointManager::verify(&dir).is_ok()
        });
        tr.span("resilience.ckpt_restore_ms", |_| mgr.restore(&dir).is_ok());
    }
}

// ------------------------------------------------------------- metrics

/// Library counters read around a plain round.
pub struct Deltas {
    /// Pool statistics before and after the round.
    pub pool: (PoolStats, PoolStats),
    pub arena: Option<ArenaStats>,
}

pub fn arena_stats(w: &dyn Workload) -> Option<ArenaStats> {
    match w.layers() {
        Layers::Castro(run) => Some(run.castro.arena.stats()),
        _ => None,
    }
}

/// For each probed op, 1 − (shadow step ÷ the op that followed); median.
fn unattributed(tr: &Tracer, shadow: &str, extra: f64) -> f64 {
    let fracs: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == shadow)
        .filter_map(|s| {
            let op = tr
                .spans
                .iter()
                .find(|o| o.name == "op" && o.round == s.round && o.op == s.op)?;
            let step = (s.end_ns - s.start_ns) as f64;
            Some(1.0 - (step + extra * 1e6) / (op.end_ns - op.start_ns) as f64)
        })
        .collect();
    median(&fracs)
}

/// Every declared per-layer metric, from the traced rounds (`traced`), the
/// untraced rounds beside them, and the round run under `Telemetry`.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    w: &dyn Workload,
    tr: &Tracer,
    untraced: &[&Round],
    traced: &[&Round],
    telemetry: &[&Round],
    deltas: &Deltas,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let note = |name: &str| {
        median(
            &tr.notes
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect::<Vec<_>>(),
        )
    };
    // Spans named after a declared `_ms` metric are that metric.
    for (name, unit, _) in PER_LAYER {
        if unit == "ms" && !tr.durations(name).is_empty() {
            m.insert(name, tr.median_ms(name));
        }
    }
    let all: Vec<&Round> = untraced.iter().chain(traced).copied().collect();
    let ops: Vec<f64> = all.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    let nops = traced.iter().map(|r| r.reports.len()).sum::<usize>().max(1) as f64;
    let count = |k: &str| {
        traced
            .iter()
            .map(|r| r.counts.get(k).copied().unwrap_or(0))
            .sum::<u64>() as f64
    };

    // parallel
    m.insert(
        "parallel.graph_us_per_task",
        tr.median_ms("parallel.graph_run") * 1e3 / 2048.0,
    );
    m.insert(
        "parallel.pool_region_us",
        tr.median_ms("parallel.pool_region") * 1e3,
    );
    let (p0, p1) = deltas.pool;
    let regions = (p1.regions - p0.regions) as f64;
    m.insert(
        "parallel.pooled_region_frac",
        ratio((p1.pooled_regions - p0.pooled_regions) as f64, regions),
    );
    let plain_ops = untraced.last().map_or(0, |r| r.op_ms.len());
    m.insert("parallel.regions_per_op", ratio(regions, plain_ops as f64));
    if let Some(a) = deltas.arena {
        m.insert(
            "parallel.arena_hit_rate",
            ratio(a.pool_hits as f64, a.allocs as f64),
        );
        m.insert("parallel.arena_peak_mb", a.bytes_peak as f64 / 1e6);
    }

    // amr
    m.insert("amr.msgs_per_op", count("msgs") / nops);
    m.insert("amr.net_bytes_per_op", count("net_bytes") / nops);
    m.insert("amr.local_mb_per_op", count("local_bytes") / nops / 1e6);
    m.insert("amr.exchange_gb_per_s", note("amr.exchange_gb_per_s"));

    // microphysics: ratios of the ops' own burner counts
    let burned = count("zones_burned");
    let steps = count("bdf_steps");
    // Burner time beside the BDF steps it bought: the sweep itself, the
    // shadow burns, or (low-Mach, where reactions are private to the
    // step) what the step costs beyond its no-burn twin.
    let (burn_ms, burn_steps): (f64, f64) = match w.layers() {
        Layers::Burn(_) => {
            m.insert("microphysics.burn_state_ms", median(&ops));
            (traced.iter().flat_map(|r| r.op_ms.iter()).sum(), steps)
        }
        Layers::Maestro(_) => {
            let react = median(&ops) - m["maestro.step_noburn_ms"];
            (react.max(0.0), steps / nops)
        }
        _ => (
            tr.durations("microphysics.burn_state_ms").iter().sum(),
            tr.notes
                .iter()
                .filter(|(n, _)| *n == SHADOW_BDF_STEPS)
                .map(|(_, v)| v)
                .sum(),
        ),
    };
    m.insert(
        "microphysics.us_per_bdf_step",
        ratio(burn_ms * 1e3, burn_steps),
    );
    m.insert(
        "microphysics.burn_us_per_zone",
        ratio(m["microphysics.us_per_bdf_step"] * steps, burned),
    );
    m.insert("microphysics.bdf_steps_per_zone", ratio(steps, burned));
    m.insert(
        "microphysics.newton_iters_per_step",
        ratio(count("newton_iters"), steps),
    );
    let max_steps = traced
        .iter()
        .flat_map(|r| r.reports.iter())
        .map(|r| r.burn.max_steps)
        .max()
        .unwrap_or(0) as f64;
    m.insert(
        "microphysics.max_over_mean_steps",
        ratio(max_steps, ratio(steps, burned)),
    );
    m.insert("microphysics.zones_burned_per_op", burned / nops);
    m.insert(
        "microphysics.zones_skipped_frac",
        ratio(count("zones_skipped"), count("zones_skipped") + burned),
    );
    m.insert(
        "microphysics.retries_per_kzone",
        ratio(1e3 * count("burn_retries"), burned),
    );
    let recovered: u64 = traced
        .iter()
        .flat_map(|r| r.reports.iter())
        .map(|r| r.burn.recovered)
        .sum();
    m.insert(
        "microphysics.recovered_frac",
        ratio(recovered as f64, burned),
    );

    match w.layers() {
        Layers::Castro(run) => {
            m.insert("castro.step_ms_p50", median(&ops));
            m.insert("castro.step_ms_p80", percentile(&ops, 0.8));
            m.insert(
                "castro.hydro_ns_per_zone",
                m["castro.hydro_advance_ms"] * 1e6 / run.zones() as f64,
            );
            m.insert("castro.step_rejections", count("step_rejections"));
            m.insert(
                "castro.unattributed_frac",
                unattributed(tr, CASTRO_STEP, 0.0),
            );
        }
        Layers::Maestro(_) => {
            let step = median(&ops);
            m.insert("maestro.step_ms_p50", step);
            m.insert("maestro.step_ms_p80", percentile(&ops, 0.8));
            let react = (step - m["maestro.step_noburn_ms"]).max(0.0);
            m.insert("maestro.react_share", ratio(react, step));
            // Two enforce_density calls per step; the span median is one.
            m.insert(
                "maestro.unattributed_frac",
                unattributed(tr, MAESTRO_STEP, react),
            );
            m.insert("solvers.vcycles_per_op", count("vcycles") / nops);
            m.insert(
                "solvers.ms_per_vcycle",
                ratio(m["solvers.project_ms"], count("vcycles") / nops),
            );
            m.insert("solvers.allreduces_per_op", count("allreduces") / nops);
            let reps: Vec<_> = traced.iter().flat_map(|r| r.reports.iter()).collect();
            m.insert(
                "solvers.residual_reduction",
                median(
                    &reps
                        .iter()
                        .map(|r| ratio(r.res, r.res0))
                        .collect::<Vec<_>>(),
                ),
            );
            m.insert(
                "solvers.converged_frac",
                ratio(
                    reps.iter().filter(|r| r.mg_converged).count() as f64,
                    reps.len() as f64,
                ),
            );
        }
        Layers::Burn(_) => {}
        Layers::Service(run) => {
            m.insert("service.tick_ms_p50", median(&ops));
            m.insert("service.tick_ms_p80", percentile(&ops, 0.8));
            let submits: Vec<f64> = run.submit_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
            m.insert("service.submit_us", median(&submits));
            if let Some(rep) = &run.report {
                let jobs = rep.jobs.len() as f64;
                let wall = traced.last().map_or(0.0, |r| r.wall_s());
                m.insert("service.jobs_per_s", ratio(rep.completed as f64, wall));
                let high: Vec<f64> = rep
                    .jobs
                    .iter()
                    .filter(|j| j.priority == PriorityClass::High)
                    .map(|j| j.latency_s * 1e3)
                    .collect();
                m.insert("service.high_job_ms_p50", median(&high));
                let waits: Vec<f64> = rep
                    .queue_wait_by_class
                    .iter()
                    .filter(|c| c.class == PriorityClass::Normal)
                    .map(|c| c.p50_s * 1e3)
                    .collect();
                m.insert("service.queue_wait_ms_p50", median(&waits));
                m.insert("service.rank_utilization", rep.rank_utilization);
                m.insert("service.preemptions", rep.preemptions as f64);
                m.insert(
                    "service.ticks_per_job",
                    ratio(traced.last().map_or(0, |r| r.op_ms.len()) as f64, jobs),
                );
                m.insert("service.failed_jobs", (rep.failed + rep.quarantined) as f64);
            }
        }
    }

    // resilience, machine
    m.insert("resilience.ckpt_mb", note("resilience.ckpt_mb"));
    m.insert(
        "resilience.ckpt_write_mb_per_s",
        ratio(m["resilience.ckpt_mb"] * 1e3, m["resilience.ckpt_write_ms"]),
    );
    m.insert(
        "machine.simulate_step_us",
        tr.median_ms("machine.simulate_step") * 1e3,
    );
    m.insert(
        "machine.lease_release_us",
        tr.median_ms("machine.lease_release") * 1e3,
    );

    // telemetry, ledger, host
    m.insert(
        "telemetry.enabled_overhead_frac",
        paired_overhead(telemetry, untraced),
    );
    m.insert(
        "ledger.trace_overhead_frac",
        paired_overhead(traced, untraced),
    );
    let calib: Vec<f64> = all
        .iter()
        .flat_map(|r| r.calib_ms.iter().copied())
        .collect();
    m.insert("host.calib_ms", median(&calib));
    m.insert("host.round_spread", round_spread(&all));
    m
}
