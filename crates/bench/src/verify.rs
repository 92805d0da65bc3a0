//! The verification ladder's burn rung: the BDF integrator and the burner
//! held to references, not to their own earlier bits. A re-pinned digest
//! says only "different from yesterday"; these rows say how far from right.
//!
//! * **BDF rows.** Robertson's problem to t = 40 and an igniting aprox13
//!   zone, at rtol 10⁻⁴ … 10⁻¹⁰, through the sparse and the dense lane
//!   solver, alone and as lane 0 of four perturbed neighbours: the error
//!   against a run of the same integrator at rtol 10⁻¹², with the steps,
//!   rejections and Jacobians it took.
//! * **Burn rows.** One 16³ bubble reaction half-step and one 8³ aprox13
//!   sweep with an igniting centre, each at [`BurnerConfig::default`]
//!   against the same burn at rtol 10⁻¹², atol 10⁻¹⁶: the integrator's own
//!   weighted error `max |Δyᵢ| / (rtol·|yᵢ| + atol)` over molar abundances
//!   and temperature, `|ΔT|/T` and the relative error of the released
//!   energy, the last two in units of rtol. Inside the tolerance the burn
//!   asked for, each is ≤ 1; the igniting sweep's global error is not
//!   (EXPERIMENTS "The verification ladder's burn rung").
//! * **Invariance row.** The same aprox13 field burned as one 8³ box and
//!   as eight 4³ boxes: how many zones differ in their bits, and by how
//!   much. A zone's answer can depend on its chunk-mates (ROADMAP item
//!   3), so this row is recorded, not gated.
//!
//! `tests/pins/bdf_accuracy.rs` and `tests/rate_stage_count.rs` assert on
//! these fixtures; `benches/verify.rs` writes them to `BENCH_verify.json`,
//! which `ci/perf_gate.py` holds to `ci/baselines/BENCH_verify.json`.

use crate::MetricPoint;
use exastro_amr::{
    BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab,
};
use exastro_maestro::{bubble_maestro, init_bubble, BubbleParams, LmLayout};
use exastro_microphysics::{
    mass_to_molar, BatchWorkspace, BdfErrorKind, BdfIntegrator, BdfOptions, BdfStats,
    BurnFaultConfig, BurnStats, BurnerConfig, CsrPattern, LaneStatus, Network, OdeSystem,
    OffloadOptions, RecoveredBurn, RetryLadder, SparseLu, StellarEos, ZoneBurn,
};
use std::sync::Arc;

/// The tolerances every BDF case is run at.
pub const RTOLS: [f64; 4] = [1e-4, 1e-6, 1e-8, 1e-10];
/// The rtol of the BDF rows' reference runs.
pub const REFERENCE_RTOL: f64 = 1e-12;

/// The error a burn_cell row may show, in units of its rtol, at each of
/// [`RTOLS`].
pub const BURN_CELL_CAP: [f64; 4] = [100.0; 4];
/// On Robertson the error falls like rtol^½, not like rtol (2.4, 17, 124
/// and 1160 rtol at worst; the scalar loop this integrator replaced read
/// 6.5, 42, 304 and 2182), so 100·rtol does not hold at 10⁻⁸ and below. A
/// finding, recorded in EXPERIMENTS, not a target: the two tight caps are
/// the measured worst row × 1.6.
pub const ROBERTSON_CAP: [f64; 4] = [100.0, 100.0, 200.0, 2000.0];

/// The burn rows' reference: the same burn at these tolerances.
const BURN_REFERENCE: (f64, f64) = (1e-12, 1e-16);

/// Which lane solver a BDF case factors its Newton matrices with.
#[derive(Clone, Copy, Debug)]
pub enum Solver {
    /// The pattern-compiled batched replay ([`BdfIntegrator::sparse`]).
    Sparse,
    /// Pivoted dense LU a lane at a time ([`BdfIntegrator::new`]).
    Dense,
}

/// A BDF case: the lane solver and the batch width (the row is lane 0).
pub type Case = (Solver, usize);

/// Every BDF case, each at every rtol. burn_cell runs the first three:
/// the burner has no dense chunk to measure.
pub const CASES: [Case; 4] = [
    (Solver::Sparse, 1),
    (Solver::Sparse, 4),
    (Solver::Dense, 1),
    (Solver::Dense, 4),
];

/// A case's label in the rung's rows, e.g. `sparse_w4`.
pub fn case_label(case: Case) -> String {
    let solver = match case.0 {
        Solver::Sparse => "sparse",
        Solver::Dense => "dense",
    };
    format!("{solver}_w{}", case.1)
}

/// One row of a BDF case: the error against the reference at `rtol`, and
/// what lane 0 spent.
#[derive(Clone, Copy, Debug)]
pub struct BdfRow {
    /// The rtol the row was run at.
    pub rtol: f64,
    /// The error against the reference run.
    pub error: f64,
    /// Lane 0's steps, rejections, Jacobians, ….
    pub stats: BdfStats,
}

impl BdfRow {
    /// The error in units of the row's rtol.
    pub fn error_over_rtol(&self) -> f64 {
        self.error / self.rtol
    }
}

/// The largest ratio of a row's error to the error of the row before it,
/// one rtol looser: below 1 exactly when the error falls strictly with
/// rtol.
pub fn worst_fall(rows: &[BdfRow]) -> f64 {
    rows.windows(2)
        .map(|w| w[1].error / w[0].error)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Robertson's problem with its two slow rates scaled by `k`.
struct Robertson {
    /// The scale of the two slow rates.
    k: f64,
}

impl OdeSystem for Robertson {
    fn dim(&self) -> usize {
        3
    }
    fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
        d[0] = -0.04 * self.k * y[0] + 1e4 * y[1] * y[2];
        d[2] = 3e7 * self.k * y[1] * y[1];
        d[1] = -d[0] - d[2];
    }
    fn jac(&self, _t: f64, y: &[f64], j: &mut [f64]) {
        j[0] = -0.04 * self.k;
        j[1] = 1e4 * y[2];
        j[2] = 1e4 * y[1];
        j[6] = 0.0;
        j[7] = 6e7 * self.k * y[1];
        j[8] = 0.0;
        j[3] = -j[0] - j[6];
        j[4] = -j[1] - j[7];
        j[5] = -j[2] - j[8];
    }
}

/// Lane 0 (the unperturbed problem) of `width` Robertson lanes at t = 40.
pub fn robertson(solver: Solver, width: usize, rtol: f64) -> ([f64; 3], BdfStats) {
    // The tolerances of `robertson_standard_checkpoint`, scaled with rtol.
    let opts = BdfOptions::builder()
        .rtol(rtol)
        .atol_vec(vec![rtol * 1e-4, rtol * 1e-6, rtol * 1e-4])
        .build()
        .expect("Robertson's tolerances are valid");
    let integ = match solver {
        Solver::Dense => BdfIntegrator::new(opts),
        Solver::Sparse => {
            let all_but_two = (0..3).flat_map(|r| (0..3).map(move |c| (r, c)));
            let pattern = CsrPattern::new(3, all_but_two.filter(|&e| e != (2, 0)).collect());
            BdfIntegrator::sparse(opts, Arc::new(SparseLu::compile(&pattern)))
        }
    };
    let lanes: Vec<Robertson> = (0..width)
        .map(|l| Robertson {
            k: 1.0 + 0.05 * l as f64,
        })
        .collect();
    let mut y = vec![0.0; 3 * width];
    y[..width].fill(1.0);
    let mut ws = BatchWorkspace::default();
    let report = &integ.integrate_lanes(&lanes, 0.0, 40.0, &mut y, &mut ws)[0];
    assert_eq!(report.status, LaneStatus::Completed);
    ([y[0], y[width], y[2 * width]], report.stats)
}

/// The largest relative error of a component.
pub fn rel_err(y: &[f64], reference: &[f64]) -> f64 {
    y.iter()
        .zip(reference)
        .map(|(a, r)| ((a - r) / r).abs())
        .fold(0.0, f64::max)
}

/// A Robertson case's rows against `reference`.
pub fn robertson_rows(case: Case, reference: &[f64; 3]) -> [BdfRow; 4] {
    RTOLS.map(|rtol| {
        let (y, stats) = robertson(case.0, case.1, rtol);
        BdfRow {
            rtol,
            error: rel_err(&y, reference),
            stats,
        }
    })
}

/// The igniting zone of EXPERIMENTS "One integrator": ½C½O at ρ = 5·10⁷,
/// T = 2.8·10⁹ burned for 5·10⁻⁷ s, through the burner — sparse alone is
/// the direct rung, sparse at width 4 a chunk whose hottest zone it is,
/// dense the offload rung at the direct rung's options (the one place the
/// burner is dense, and always alone: there is no dense chunk to measure).
/// `atol` is the burner's 10⁻¹² until rtol needs less: a looser one leaves
/// abundances negative enough to fail the burner's own validation.
pub fn burn_cell(net: &Network, solver: Solver, width: usize, rtol: f64) -> RecoveredBurn {
    let bdf = BdfOptions::builder()
        .rtol(rtol)
        .atol((rtol * 1e-4).min(1e-12))
        .build()
        .expect("burn_cell's tolerances are valid");
    let mut x0 = vec![0.0; net.nspec()];
    x0[net.index_of("c12")] = 0.5;
    x0[net.index_of("o16")] = 0.5;
    let zones: Vec<ZoneBurn> = (0..width)
        .map(|l| ZoneBurn {
            zone: l as u64,
            rho: 5e7 * (1.0 + 1e-3 * l as f64),
            t0: 2.8e9 * (1.0 - 1e-3 * l as f64),
            x0: &x0,
        })
        .collect();
    let mut cfg = BurnerConfig {
        ladder: RetryLadder::none(),
        batch_width: width,
        bdf,
        ..Default::default()
    };
    if let Solver::Dense = solver {
        cfg.ladder.offload = Some(OffloadOptions {
            rtol,
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
    let rec = cfg
        .build(net, &StellarEos)
        .burn_all(&zones, 5e-7)
        .swap_remove(0)
        .expect("the zone burns");
    // Sparse: inside the chunk (or on the direct rung), no ladder.
    assert_eq!(rec.retries, matches!(solver, Solver::Dense) as u32);
    rec
}

/// A burn_cell zone's state: mass fractions, then temperature.
pub fn burn_cell_state(rec: &RecoveredBurn) -> Vec<f64> {
    let mut y = rec.outcome.x.clone();
    y.push(rec.outcome.t);
    y
}

/// burn_cell's error: mass fractions compared absolutely (they sum to
/// one), the temperature relatively.
fn burn_cell_err(y: &[f64], reference: &[f64]) -> f64 {
    let n = y.len() - 1;
    let (t, t_ref) = (y[n], reference[n]);
    y[..n]
        .iter()
        .zip(&reference[..n])
        .map(|(a, r)| (a - r).abs())
        .fold(((t - t_ref) / t_ref).abs(), f64::max)
}

/// A burn_cell case's rows against `reference` ([`burn_cell_state`]).
pub fn burn_cell_rows(net: &Network, case: Case, reference: &[f64]) -> [BdfRow; 4] {
    RTOLS.map(|rtol| {
        let rec = burn_cell(net, case.0, case.1, rtol);
        BdfRow {
            rtol,
            error: burn_cell_err(&burn_cell_state(&rec), reference),
            stats: rec.outcome.stats,
        }
    })
}

/// A burned field, zone by zone in domain order, as the integrator holds
/// it: each zone's molar abundances and then its temperature; and the
/// sweep's statistics (its `energy_released` is Σ ρ·e_nuc over the burned
/// zones).
struct BurnedField {
    /// `dim` values a zone.
    y: Vec<f64>,
    /// Values a zone: `nspec + 1`.
    dim: usize,
    /// The sweep's statistics.
    stats: BurnStats,
}

impl BurnedField {
    /// Read the mass fractions `x_comps` and the temperature `t_comp` of
    /// every zone of `geom`'s domain from `state`.
    fn read(
        net: &Network,
        state: &MultiFab,
        geom: &Geometry,
        x_comps: impl Fn(usize) -> usize,
        t_comp: usize,
        stats: BurnStats,
    ) -> Self {
        let n = net.nspec();
        let mut x = vec![0.0; n];
        let mut y = Vec::new();
        for iv in geom.domain().iter() {
            for (s, xs) in x.iter_mut().enumerate() {
                *xs = state.value_at(iv, x_comps(s));
            }
            let at = y.len();
            y.resize(at + n, 0.0);
            mass_to_molar(net.species(), &x, &mut y[at..]);
            y.push(state.value_at(iv, t_comp));
        }
        BurnedField {
            y,
            dim: n + 1,
            stats,
        }
    }
}

/// The 16³ low-Mach bubble of `tests/pins/bubble_step.rs` (eight 8³ boxes
/// on two ranks) and the dt of its first step.
pub fn bubble_16(net: &Network) -> (MultiFab, LmLayout, Geometry, f64) {
    let geom = Geometry::new(
        IndexBox::cube(16),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
    let eos = StellarEos;
    let layout = LmLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        &eos,
        net,
        &BubbleParams::default(),
    );
    let dt = bubble_maestro(&eos, net, base)
        .estimate_dt(&state, &geom)
        .min(4e-3);
    (state, layout, geom, dt)
}

/// The first Strang half of a bubble step, burned as `Maestro::advance`
/// burns it but through `cfg`'s burner.
pub fn burn_bubble_half_step(
    net: &Network,
    cfg: &BurnerConfig,
    state: &mut MultiFab,
    layout: &LmLayout,
    dt: f64,
) -> BurnStats {
    cfg.build(net, &StellarEos)
        .burn_multifab(
            state,
            0.5 * dt,
            |arr, z, x| {
                let t = arr.at_zone(z, LmLayout::TEMP);
                if t < 1e8 {
                    return None;
                }
                let rho = arr.at_zone(z, LmLayout::RHO).max(1e-12);
                for (s, xi) in x.iter_mut().enumerate() {
                    *xi = arr.at_zone(z, layout.spec(s)).clamp(0.0, 1.0);
                }
                Some((rho, t))
            },
            |arr, z, rho, out| {
                arr.set_zone(z, LmLayout::TEMP, out.t);
                for s in 0..layout.nspec {
                    arr.set_zone(z, layout.spec(s), out.x[s]);
                }
                rho * out.enuc
            },
        )
        .expect("the bubble burns")
}

/// The bubble's half-step through `cfg`.
fn bubble_field(cfg: &BurnerConfig) -> BurnedField {
    let net = Network::cburn2();
    let (mut state, layout, geom, dt) = bubble_16(&net);
    let stats = burn_bubble_half_step(&net, cfg, &mut state, &layout, dt);
    let x = |s| layout.spec(s);
    BurnedField::read(&net, &state, &geom, x, LmLayout::TEMP, stats)
}

/// Components of the aprox13 field: density, temperature, then the mass
/// fractions.
const FIELD_RHO: usize = 0;
const FIELD_TEMP: usize = 1;
const FIELD_X: usize = 2;

/// `perf_ledger`'s `burn_field` field without its seeded jitter: an 8³
/// box of ½C½O at ρ ≈ 5·10⁷ whose temperature peaks at 2.8·10⁹ K in the
/// centre and falls to ~4·10⁸ at the rim, cut into boxes of `box_size`.
/// Without jitter its temperatures tie in octant-symmetric groups of 8,
/// 24 or 48 zones, which fill whole chunks of the sorted sweep at the
/// default width: here the decomposition cannot change a chunk's zones.
fn aprox13_field(net: &Network, box_size: i32) -> (MultiFab, Geometry) {
    let n = 8;
    let geom = Geometry::cube(n, 8e7, false);
    let ba = BoxArray::decompose(geom.domain(), box_size, box_size);
    let dm = DistributionMapping::all_local(&ba);
    let mut state = MultiFab::new(ba, dm, FIELD_X + net.nspec(), 0);
    let mut x = vec![0.0; net.nspec()];
    x[net.index_of("c12")] = 0.5;
    x[net.index_of("o16")] = 0.5;
    let half = 0.5 * geom.prob_length(0);
    let centre = geom.prob_lo()[0] + half;
    for f in 0..state.nfabs() {
        for iv in state.valid_box(f).iter() {
            let p = geom.cell_center(iv);
            let r2: f64 = p.iter().map(|c| ((c - centre) / half).powi(2)).sum();
            let fab = state.fab_mut(f);
            fab.set(iv, FIELD_RHO, 5e7 * (1.0 - 0.3 * r2));
            fab.set(iv, FIELD_TEMP, 4e8 + 2.4e9 * (-3.0 * r2).exp());
            for (s, xs) in x.iter().enumerate() {
                fab.set(iv, FIELD_X + s, *xs);
            }
        }
    }
    (state, geom)
}

/// The aprox13 field in boxes of `box_size`, burned for `burn_field`'s
/// 8·10⁻⁷ s through `cfg`'s burner.
fn aprox13_sweep(cfg: &BurnerConfig, box_size: i32) -> BurnedField {
    let net = Network::aprox13();
    let (mut state, geom) = aprox13_field(&net, box_size);
    let nspec = net.nspec();
    let stats = cfg
        .build(&net, &StellarEos)
        .burn_multifab(
            &mut state,
            8e-7,
            |arr, z, x| {
                for (s, xi) in x.iter_mut().enumerate() {
                    *xi = arr.at_zone(z, FIELD_X + s);
                }
                Some((arr.at_zone(z, FIELD_RHO), arr.at_zone(z, FIELD_TEMP)))
            },
            |arr, z, rho, out| {
                arr.set_zone(z, FIELD_TEMP, out.t);
                for s in 0..nspec {
                    arr.set_zone(z, FIELD_X + s, out.x[s]);
                }
                rho * out.enuc
            },
        )
        .expect("the aprox13 field burns");
    BurnedField::read(&net, &state, &geom, |s| FIELD_X + s, FIELD_TEMP, stats)
}

/// A burn row: how far a burn at `cfg` lands from the same burn at
/// [`BURN_REFERENCE`]'s tolerances.
#[derive(Clone, Copy, Debug)]
struct BurnRow {
    /// `max |Δyᵢ| / (rtol·|yᵢ| + atol)` over every zone and component, at
    /// `cfg`'s tolerances: ≤ 1 is inside them.
    weighted_error: f64,
    /// `max |ΔT|/T` over the zones, in units of rtol.
    t_error: f64,
    /// The relative error of Σ ρ·e_nuc, in units of rtol. A quiescent
    /// zone's e_nuc is a difference of binding energies in the last bits
    /// of its abundances, so on the bubble this is roundoff, not error.
    energy_error: f64,
    /// BDF steps a burned zone took at `cfg`.
    steps_per_zone: f64,
}

/// Burn `field` at `cfg` and at the reference tolerances and compare.
fn burn_row(cfg: &BurnerConfig, field: impl Fn(&BurnerConfig) -> BurnedField) -> BurnRow {
    let (rtol, atol) = (cfg.bdf.rtol, cfg.bdf.atol[0]);
    let reference = BurnerConfig {
        bdf: BdfOptions::builder()
            .rtol(BURN_REFERENCE.0)
            .atol(BURN_REFERENCE.1)
            .build()
            .expect("the reference tolerances are valid"),
        ..cfg.clone()
    };
    let (got, want) = (field(cfg), field(&reference));
    let dim = got.dim;
    let mut row = BurnRow {
        weighted_error: 0.0,
        t_error: 0.0,
        energy_error: 0.0,
        steps_per_zone: got.stats.total_steps as f64 / got.stats.zones as f64,
    };
    for (a, r) in got.y.chunks_exact(dim).zip(want.y.chunks_exact(dim)) {
        for (ai, ri) in a.iter().zip(r) {
            let w = (ai - ri).abs() / (rtol * ri.abs() + atol);
            row.weighted_error = row.weighted_error.max(w);
        }
        let (t, t_ref) = (a[dim - 1], r[dim - 1]);
        row.t_error = row.t_error.max(((t - t_ref) / t_ref).abs() / rtol);
    }
    let (e, e_ref) = (got.stats.energy_released, want.stats.energy_released);
    row.energy_error = ((e - e_ref) / e_ref).abs() / rtol;
    row
}

/// The bubble half-step's burn row at [`BurnerConfig::default`].
fn bubble_row() -> BurnRow {
    burn_row(&BurnerConfig::default(), bubble_field)
}

/// The aprox13 sweep's burn row at [`BurnerConfig::default`], one 8³ box.
fn aprox13_sweep_row() -> BurnRow {
    burn_row(&BurnerConfig::default(), |cfg| aprox13_sweep(cfg, 8))
}

/// Item 1(vii): the aprox13 field burned as one 8³ box and as eight 4³
/// boxes at [`BurnerConfig::default`].
#[derive(Clone, Copy, Debug)]
struct Invariance {
    /// Zones whose mass fractions or temperature differ in any bit.
    zones_differ: u64,
    /// The largest relative difference of any value.
    max_rel_diff: f64,
}

/// Burn the aprox13 field on one box and on eight and compare.
fn decomposition_row() -> Invariance {
    let cfg = BurnerConfig::default();
    let (one, eight) = (aprox13_sweep(&cfg, 8), aprox13_sweep(&cfg, 4));
    let dim = one.dim;
    let mut row = Invariance {
        zones_differ: 0,
        max_rel_diff: 0.0,
    };
    for (a, b) in one.y.chunks_exact(dim).zip(eight.y.chunks_exact(dim)) {
        if a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
            row.zones_differ += 1;
        }
        for (x, y) in a.iter().zip(b) {
            if x != y {
                row.max_rel_diff = row.max_rel_diff.max(((x - y) / y).abs());
            }
        }
    }
    row
}

/// Every row of the rung, as `BENCH_verify.json` metrics.
pub fn rung() -> Vec<MetricPoint> {
    let mut out = Vec::new();
    let mut bdf = |what: &str, case: Case, rows: &[BdfRow]| {
        let name = format!("{what}/{}", case_label(case));
        for r in rows {
            let at = format!("{name}/rtol{:.0e}", r.rtol);
            out.extend([
                MetricPoint::measured(&format!("{at}/error"), r.error_over_rtol(), "rtol"),
                MetricPoint::measured(&format!("{at}/steps"), r.stats.steps as f64, "count"),
                MetricPoint::measured(&format!("{at}/rejected"), r.stats.rejected as f64, "count"),
                MetricPoint::measured(
                    &format!("{at}/jacobians"),
                    r.stats.jac_evals as f64,
                    "count",
                ),
            ]);
        }
        out.push(MetricPoint::measured(
            &format!("{name}/worst_fall"),
            worst_fall(rows),
            "x",
        ));
    };
    let (reference, _) = robertson(Solver::Sparse, 1, REFERENCE_RTOL);
    for case in CASES {
        bdf("robertson", case, &robertson_rows(case, &reference));
    }
    let net = Network::aprox13();
    let reference = burn_cell_state(&burn_cell(&net, Solver::Sparse, 1, REFERENCE_RTOL));
    for case in &CASES[..3] {
        bdf("burn_cell", *case, &burn_cell_rows(&net, *case, &reference));
    }
    for (what, row) in [
        ("bubble", bubble_row()),
        ("aprox13_sweep", aprox13_sweep_row()),
    ] {
        out.extend([
            MetricPoint::measured(&format!("{what}/weighted_error"), row.weighted_error, "tol"),
            MetricPoint::measured(&format!("{what}/t_error"), row.t_error, "rtol"),
            MetricPoint::measured(&format!("{what}/energy_error"), row.energy_error, "rtol"),
            MetricPoint::measured(
                &format!("{what}/bdf_steps_per_zone"),
                row.steps_per_zone,
                "count",
            ),
        ]);
    }
    let inv = decomposition_row();
    out.extend([
        MetricPoint::measured(
            "decomposition/zones_differ",
            inv.zones_differ as f64,
            "zones",
        ),
        MetricPoint::measured("decomposition/max_rel_diff", inv.max_rel_diff, "x"),
    ]);
    out
}
