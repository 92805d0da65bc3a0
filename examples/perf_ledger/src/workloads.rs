//! The six workloads. Each builds its inputs from the seed, calls the
//! library the way a user does (default knobs, only physics parameters
//! set), and exposes one *op* — a driver step, a burn sweep or a scheduler
//! tick — that the harness times. A round is a fixed number of ops started
//! from the same post-warm-up state, so every round does identical work.

use exastro::amr::{
    BoxArray, CommTrace, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab,
};
use exastro::castro::{
    burn_state, init_collision, init_sedov, measure_shock_radius, sedov_shock_radius, BurnOptions,
    BurnStats, Castro, CollisionParams, Floors, Gravity, GravityMode, SedovParams, StateLayout,
};
use exastro::maestro::{bubble_maestro, init_bubble, BubbleParams, LmLayout, Maestro};
use exastro::microphysics::{Aprox13, CBurn2, Composition, Eos, GammaLaw, Network, StellarEos};
use exastro::parallel::ExecSpace;
use exastro::service::{JobOutcome, JobSpec, PriorityClass, Service, ServiceConfig, ServiceReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "sedov_smallbox",
    "sedov_bigbox",
    "burn_field",
    "bubble_lowmach",
    "wd_collision",
    "service_backlog",
];

/// Untimed ops before the first round: they start the global pool, fill
/// the scratch arena and touch every lazily built table.
pub const WARMUP_OPS: usize = 3;

/// splitmix64: the seed stream every workload draws its perturbations from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[1 - amp, 1 + amp]`.
    pub fn jitter(&mut self, amp: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + amp * (2.0 * u - 1.0)
    }
}

/// What one op did, as far as the library reports it. Everything here but
/// the wall time is deterministic and must repeat exactly across rounds.
#[derive(Clone, Debug, Default)]
pub struct OpReport {
    /// Zone-updates the op performed (the numerator of zones/µs).
    pub zone_updates: u64,
    /// Ghost-exchange traffic of the op.
    pub comm: CommTrace,
    /// Burner statistics (both Strang halves for a driver step).
    pub burn: BurnStats,
    /// Step attempts the transactional driver rejected.
    pub rejections: u64,
    /// Multigrid V-cycles, all-reduces and residuals of the projection.
    pub vcycles: u64,
    pub allreduces: u64,
    pub res0: f64,
    pub res: f64,
    pub mg_converged: bool,
}

/// Deterministic counts of a round, by name; compared across rounds.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn add_counts(c: &mut Counts, r: &OpReport) {
    let mut add = |k, v| *c.entry(k).or_insert(0) += v;
    add("zone_updates", r.zone_updates);
    add("msgs", r.comm.messages.len() as u64);
    add("net_bytes", r.comm.network_bytes());
    add("local_bytes", r.comm.local_bytes);
    add("zones_burned", r.burn.zones);
    add("zones_skipped", r.burn.skipped);
    add("bdf_steps", r.burn.total_steps);
    add("newton_iters", r.burn.newton_iters);
    add("burn_retries", r.burn.retries);
    add("step_rejections", r.rejections);
    add("vcycles", r.vcycles);
    add("allreduces", r.allreduces);
}

/// One output scalar and how it is checked.
pub struct Scalar {
    pub name: &'static str,
    pub value: f64,
    /// Relative tolerance against `reference.json` (seeds 1 and 2 only).
    pub ref_tol: Option<f64>,
    /// Seed-independent acceptance interval, checked on every seed.
    pub range: Option<(f64, f64)>,
}

pub trait Workload {
    /// Return to the post-warm-up state.
    fn begin_round(&mut self);
    /// Whether the round's work is finished.
    fn round_done(&self) -> bool;
    /// One timed op.
    fn op(&mut self) -> Result<OpReport, String>;
    /// Untimed bookkeeping once the round's clock has stopped: counts the
    /// library only reports at the end, and its own verdict on the round.
    fn end_round(&mut self) -> Result<OpReport, String> {
        Ok(OpReport::default())
    }
    /// Output scalars of the round just finished.
    fn outputs(&self) -> Vec<Scalar>;
    /// The driver behind the op, for the traced pass's layer probes.
    fn layers(&self) -> Layers<'_>;
}

/// What the traced pass may probe between ops.
pub enum Layers<'a> {
    Castro(&'a CastroRun),
    Maestro(&'a BubbleRun),
    Burn(&'a BurnField),
    Service(&'a ServiceRun),
}

fn leak<T>(v: T) -> &'static T {
    // The drivers borrow their EOS and network; the workload lives as long
    // as the process, so the borrow is made 'static once.
    Box::leak(Box::new(v))
}

// ---------------------------------------------------------------- castro

enum CastroCheck {
    Sedov {
        params: SedovParams,
        mass0: f64,
        energy0: f64,
    },
    Collision,
}

/// A single-level Castro run: both Sedov workloads and the WD collision.
pub struct CastroRun {
    pub castro: Castro<'static>,
    pub geom: Geometry,
    pub state: MultiFab,
    pub time: f64,
    start: (MultiFab, f64),
    steps: usize,
    done: usize,
    pub transactional: bool,
    check: CastroCheck,
    last_max_temp: f64,
}

impl CastroRun {
    fn finish_setup(&mut self, warmup: usize) {
        for _ in 0..warmup {
            self.op().expect("warm-up step");
        }
        self.start = (self.state.clone(), self.time);
    }

    pub fn zones(&self) -> u64 {
        self.geom.domain().num_zones() as u64
    }
}

impl Workload for CastroRun {
    fn begin_round(&mut self) {
        self.state = self.start.0.clone();
        self.time = self.start.1;
        self.done = 0;
    }

    fn round_done(&self) -> bool {
        self.done >= self.steps
    }

    fn op(&mut self) -> Result<OpReport, String> {
        let dt = self.castro.estimate_dt(&self.state, &self.geom);
        let (stats, dt_taken, rejections) = if self.transactional {
            let (stats, taken) = self
                .castro
                .advance_level_safe(&mut self.state, &self.geom, dt)
                .map_err(|e| e.to_string())?;
            // Each rejection cuts dt by the recovery policy's factor.
            let cut = self.castro.recovery.dt_cut;
            let rej = if taken < dt && cut > 0.0 && cut < 1.0 {
                ((taken / dt).ln() / cut.ln()).round() as u64
            } else {
                0
            };
            (stats, taken, rej)
        } else {
            let (stats, _fluxes) = self
                .castro
                .advance_level(&mut self.state, &self.geom, dt)
                .map_err(|e| e.to_string())?;
            (stats, dt, 0)
        };
        self.time += dt_taken;
        self.done += 1;
        self.last_max_temp = stats.max_temp;
        Ok(OpReport {
            zone_updates: self.zones(),
            comm: stats.comm,
            burn: stats.burn,
            rejections,
            ..Default::default()
        })
    }

    fn outputs(&self) -> Vec<Scalar> {
        let mass = self.castro.total_mass(&self.state, &self.geom);
        let energy = self.castro.total_energy(&self.state, &self.geom);
        match &self.check {
            CastroCheck::Sedov {
                params,
                mass0,
                energy0,
            } => {
                let r = measure_shock_radius(&self.state, &self.geom, params);
                let r_true = sedov_shock_radius(params, self.time);
                vec![
                    Scalar {
                        name: "mass_drift",
                        value: mass / mass0 - 1.0,
                        ref_tol: None,
                        range: Some((-1e-9, 1e-9)),
                    },
                    Scalar {
                        name: "energy_drift",
                        value: energy / energy0 - 1.0,
                        ref_tol: None,
                        range: Some((-1e-9, 1e-9)),
                    },
                    Scalar {
                        name: "shock_radius_over_analytic",
                        value: r / r_true,
                        ref_tol: Some(1e-6),
                        range: Some((0.85, 1.15)),
                    },
                    Scalar {
                        name: "total_energy",
                        value: energy,
                        ref_tol: Some(1e-9),
                        range: None,
                    },
                ]
            }
            CastroCheck::Collision => vec![
                Scalar {
                    name: "t_max",
                    value: self.last_max_temp,
                    ref_tol: Some(1e-3),
                    range: Some((1e8, 2e10)),
                },
                Scalar {
                    name: "total_mass",
                    value: mass,
                    ref_tol: Some(1e-6),
                    range: None,
                },
            ],
        }
    }

    fn layers(&self) -> Layers<'_> {
        Layers::Castro(self)
    }
}

/// Sedov blast on an `n`³ unit cube cut into `max_grid`³ boxes spread over
/// 6 simulated ranks; hydro only. The seed scales the blast energy.
fn sedov(n: i32, max_grid: i32, steps: usize, rng: &mut Rng) -> CastroRun {
    let geom = Geometry::cube(n, 1.0, false);
    let ba = BoxArray::decompose(geom.domain(), max_grid, 8);
    let dm = DistributionMapping::new(&ba, 6, DistStrategy::Sfc);
    let eos = leak(GammaLaw::monatomic());
    let net = leak(CBurn2::new());
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    let params = SedovParams {
        energy: rng.jitter(0.02),
        ..Default::default()
    };
    init_sedov(&mut state, &geom, &layout, eos, &params);
    let mut castro = Castro::new(eos, net);
    castro.hydro.cfl = 0.4;
    castro.hydro.floors = Floors::dimensionless();
    let mass0 = castro.total_mass(&state, &geom);
    let energy0 = castro.total_energy(&state, &geom);
    let mut run = CastroRun {
        castro,
        geom,
        start: (state.clone(), 0.0),
        state,
        time: 0.0,
        steps,
        done: 0,
        transactional: false,
        check: CastroCheck::Sedov {
            params,
            mass0,
            energy0,
        },
        last_max_temp: 0.0,
    };
    run.finish_setup(WARMUP_OPS);
    run
}

/// The Fig. 4 science case at 16³: two white dwarfs approach head-on,
/// Strang-split carbon burning, monopole gravity, transactional stepping.
/// The seed perturbs the stars' temperature.
fn wd_collision(steps: usize, rng: &mut Rng) -> CastroRun {
    let params = CollisionParams {
        v_approach: 6e8,
        separation: 3.0,
        t_wd: CollisionParams::default().t_wd * rng.jitter(0.02),
        ..Default::default()
    };
    let half_width = 2.5 * params.radius;
    let geom = Geometry::new(
        IndexBox::cube(16),
        [-half_width; 3],
        [half_width; 3],
        [false; 3],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::all_local(&ba);
    let eos = leak(StellarEos);
    let net = leak(CBurn2::new());
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 2);
    init_collision(&mut state, &geom, &layout, eos, net, &params);
    let mut castro = Castro::new(eos, net);
    castro.hydro.cfl = 0.2;
    castro.gravity = Gravity {
        mode: GravityMode::Monopole,
        n_bins: 256,
    };
    castro.burn = Some(BurnOptions {
        min_temp: 8e8,
        min_dens: 1e4,
        ..Default::default()
    });
    let mut run = CastroRun {
        castro,
        geom,
        start: (state.clone(), 0.0),
        state,
        time: 0.0,
        steps,
        done: 0,
        transactional: true,
        check: CastroCheck::Collision,
        last_max_temp: 0.0,
    };
    // The stars take six cheap steps to touch; rounds start at contact,
    // where the burner, the EOS re-sync and the snapshot all carry weight.
    run.finish_setup(2 * WARMUP_OPS);
    run
}

// ------------------------------------------------------------ burn_field

/// `castro::burn_state` on one 8³ box of ½C½O fuel with a hot centre:
/// aprox13 + the stellar EOS, every zone above the burn cut-offs.
pub struct BurnField {
    pub net: &'static Aprox13,
    pub eos: &'static StellarEos,
    pub layout: StateLayout,
    pub opts: BurnOptions,
    pub geom: Geometry,
    pub state: MultiFab,
    pub dt: f64,
    start: MultiFab,
    sweeps: usize,
    done: usize,
    energy_released: f64,
}

impl Workload for BurnField {
    fn begin_round(&mut self) {
        self.energy_released = 0.0;
        self.done = 0;
    }

    fn round_done(&self) -> bool {
        self.done >= self.sweeps
    }

    fn op(&mut self) -> Result<OpReport, String> {
        // Every sweep burns the same cold field, so every op is the same
        // work: the spread of zone costs (igniting centre, quiescent rim)
        // is the property under test, and it burns away within one sweep.
        self.state = self.start.clone();
        let burn = burn_state(
            &mut self.state,
            self.dt,
            self.net,
            self.eos,
            &self.layout,
            &self.opts,
            &ExecSpace::Serial,
            &self.geom,
        )
        .map_err(|f| format!("{} zone(s) failed all retries", f.len()))?;
        self.energy_released += burn.energy_released;
        self.done += 1;
        Ok(OpReport {
            zone_updates: burn.zones,
            burn,
            ..Default::default()
        })
    }

    fn outputs(&self) -> Vec<Scalar> {
        let mut drift: f64 = 0.0;
        for (i, vb) in self.state.iter_boxes() {
            let fab = self.state.fab(i);
            for iv in vb.iter() {
                let rho = fab.get(iv, StateLayout::RHO);
                let xsum: f64 = (0..self.layout.nspec)
                    .map(|s| fab.get(iv, self.layout.spec(s)) / rho)
                    .sum();
                drift = drift.max((xsum - 1.0).abs());
            }
        }
        vec![
            Scalar {
                name: "max_species_drift",
                value: drift,
                ref_tol: None,
                range: Some((0.0, 1e-6)),
            },
            Scalar {
                name: "energy_released",
                value: self.energy_released,
                ref_tol: Some(1e-6),
                range: Some((1e20, 1e60)),
            },
            Scalar {
                name: "t_max",
                value: self.state.max(StateLayout::TEMP),
                ref_tol: Some(1e-6),
                range: Some((1e9, 2e10)),
            },
        ]
    }

    fn layers(&self) -> Layers<'_> {
        Layers::Burn(self)
    }
}

fn burn_field(sweeps: usize, rng: &mut Rng) -> BurnField {
    let n = 8;
    let geom = Geometry::cube(n, 8e7, false);
    let ba = BoxArray::decompose(geom.domain(), n, n);
    let dm = DistributionMapping::all_local(&ba);
    let net = leak(Aprox13::new());
    let eos = leak(StellarEos);
    let layout = StateLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 0);
    let mut x = vec![0.0; net.nspec()];
    x[net.index_of("c12")] = 0.5;
    x[net.index_of("o16")] = 0.5;
    let comp = Composition::from_mass_fractions(net.species(), &x);
    let half = 0.5 * geom.prob_length(0);
    let centre = geom.prob_lo()[0] + half;
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let p = geom.cell_center(iv);
            let r2: f64 = p.iter().map(|c| ((c - centre) / half).powi(2)).sum();
            let rho = 5e7 * (1.0 - 0.3 * r2) * rng.jitter(0.0002);
            let t = (4e8 + 2.4e9 * (-3.0 * r2).exp()) * rng.jitter(0.0002);
            let e = eos.eval_rt(rho, t, &comp).e;
            let fab = state.fab_mut(i);
            fab.set(iv, StateLayout::RHO, rho);
            for d in 0..3 {
                fab.set(iv, StateLayout::MX + d, 0.0);
            }
            fab.set(iv, StateLayout::EDEN, rho * e);
            fab.set(iv, StateLayout::EINT, rho * e);
            fab.set(iv, StateLayout::TEMP, t);
            for (s, xs) in x.iter().enumerate() {
                fab.set(iv, layout.spec(s), rho * xs);
            }
        }
    }
    let mut run = BurnField {
        net,
        eos,
        layout,
        opts: BurnOptions::default(),
        geom,
        start: state.clone(),
        state,
        dt: 8e-7,
        sweeps,
        done: 0,
        energy_released: 0.0,
    };
    for _ in 0..WARMUP_OPS {
        run.op().expect("warm-up sweep");
    }
    run
}

// -------------------------------------------------------- bubble_lowmach

/// MAESTROeX reacting bubble, 24³ in 12³ boxes (the set-up of
/// `examples/reacting_bubble.rs`). The seed scales the bubble's peak
/// temperature.
pub struct BubbleRun {
    pub maestro: Maestro<'static>,
    /// The same driver with reactions off, for the traced pass.
    pub noburn: Maestro<'static>,
    pub layout: LmLayout,
    pub geom: Geometry,
    pub state: MultiFab,
    start: MultiFab,
    steps: usize,
    done: usize,
    last_max_temp: f64,
}

impl BubbleRun {
    pub fn zones(&self) -> u64 {
        self.geom.domain().num_zones() as u64
    }

    /// The step a user's loop takes: CFL estimate capped as in the example.
    pub fn next_dt(&self) -> f64 {
        self.maestro.estimate_dt(&self.state, &self.geom).min(4e-3)
    }
}

impl Workload for BubbleRun {
    fn begin_round(&mut self) {
        self.state = self.start.clone();
        self.done = 0;
    }

    fn round_done(&self) -> bool {
        self.done >= self.steps
    }

    fn op(&mut self) -> Result<OpReport, String> {
        let dt = self.next_dt();
        let stats = self
            .maestro
            .advance(&mut self.state, &self.geom, dt)
            .map_err(|e| e.to_string())?;
        self.last_max_temp = stats.max_temp;
        self.done += 1;
        let mut r = OpReport {
            zone_updates: self.zones(),
            comm: stats.comm,
            ..Default::default()
        };
        r.burn.total_steps = stats.burn_steps;
        r.burn.newton_iters = stats.burn_newton_iters;
        r.burn.retries = stats.burn_retries;
        r.burn.recovered = stats.burn_recovered;
        if let Some(p) = stats.projection {
            r.vcycles = p.cycles as u64;
            r.allreduces = p.allreduces;
            r.res0 = p.res0;
            r.res = p.res;
            r.mg_converged = p.converged;
        }
        Ok(r)
    }

    fn outputs(&self) -> Vec<Scalar> {
        let ash = self.state.max(self.layout.spec(1));
        vec![
            Scalar {
                name: "t_max",
                value: self.last_max_temp,
                ref_tol: Some(1e-3),
                range: Some((6e8, 5e9)),
            },
            Scalar {
                name: "max_ash",
                value: ash,
                ref_tol: Some(1e-3),
                range: Some((0.0, 1.0)),
            },
        ]
    }

    fn layers(&self) -> Layers<'_> {
        Layers::Maestro(self)
    }
}

fn bubble_lowmach(steps: usize, rng: &mut Rng) -> BubbleRun {
    let geom = Geometry::new(
        IndexBox::cube(24),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 12, 4);
    let dm = DistributionMapping::new(&ba, 1, DistStrategy::Sfc);
    let eos = leak(StellarEos);
    let net = leak(CBurn2::new());
    let layout = LmLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
    let defaults = BubbleParams::default();
    let params = BubbleParams {
        t_bubble: defaults.t_ambient + (defaults.t_bubble - defaults.t_ambient) * rng.jitter(0.02),
        ..defaults
    };
    let base = init_bubble(&mut state, &geom, &layout, eos, net, &params);
    let mut noburn = bubble_maestro(eos, net, base.clone());
    noburn.do_burn = false;
    let mut run = BubbleRun {
        maestro: bubble_maestro(eos, net, base),
        noburn,
        layout,
        geom,
        start: state.clone(),
        state,
        steps,
        done: 0,
        last_max_temp: 0.0,
    };
    for _ in 0..WARMUP_OPS {
        run.op().expect("warm-up step");
    }
    run.start = run.state.clone();
    run
}

// ------------------------------------------------------- service_backlog

/// The multi-tenant service under a queued backlog: Sedov jobs queued up
/// front, three ticks, then a wave of High jobs that checkpoint-preempt
/// their way on; ticked until idle. One op is one `tick()`; a round is one
/// campaign on a fresh `Service`.
pub struct ServiceRun {
    scratch: PathBuf,
    specs: Vec<JobSpec>,
    high_wave: usize,
    pub svc: Service,
    campaign: u64,
    ticks: usize,
    busy: bool,
    pub submit_ns: Vec<u64>,
    pub report: Option<ServiceReport>,
}

fn service_config(scratch: &Path, campaign: u64, jobs: usize) -> ServiceConfig {
    ServiceConfig {
        nodes: 2,
        queue_bound: jobs + 8,
        ckpt_root: scratch.join(format!("campaign{campaign}")),
        ..Default::default()
    }
}

impl ServiceRun {
    fn submit(&mut self, spec: JobSpec) {
        let t0 = std::time::Instant::now();
        self.svc
            .submit(spec)
            .expect("queue bound covers the campaign");
        self.submit_ns.push(t0.elapsed().as_nanos() as u64);
    }
}

impl Workload for ServiceRun {
    fn begin_round(&mut self) {
        self.campaign += 1;
        let jobs = self.specs.len() + self.high_wave;
        self.svc = Service::new(service_config(&self.scratch, self.campaign, jobs));
        self.ticks = 0;
        self.busy = true;
        self.submit_ns.clear();
        for spec in self.specs.clone() {
            self.submit(spec);
        }
    }

    fn round_done(&self) -> bool {
        !self.busy
    }

    fn op(&mut self) -> Result<OpReport, String> {
        if self.ticks == 3 {
            for _ in 0..self.high_wave {
                self.submit(JobSpec {
                    priority: PriorityClass::High,
                    resolution: 16,
                    steps: 2,
                    ..Default::default()
                });
            }
        }
        self.busy = self.svc.tick();
        self.ticks += 1;
        Ok(OpReport::default())
    }

    fn end_round(&mut self) -> Result<OpReport, String> {
        let report = self.svc.report();
        let _ = std::fs::remove_dir_all(self.scratch.join(format!("campaign{}", self.campaign)));
        let zone_updates = report.jobs.iter().map(|j| j.zones * j.steps_done).sum();
        let bad = report
            .jobs
            .iter()
            .filter(|j| {
                !matches!(j.outcome, JobOutcome::Completed) || j.steps_done != j.steps_requested
            })
            .count();
        let preemptions = report.preemptions;
        self.report = Some(report);
        if bad > 0 {
            return Err(format!(
                "{bad} job(s) did not complete every requested step"
            ));
        }
        Ok(OpReport {
            zone_updates,
            rejections: preemptions,
            ..Default::default()
        })
    }

    fn outputs(&self) -> Vec<Scalar> {
        let rep = self.report.as_ref().expect("round finished");
        let total = (self.specs.len() + self.high_wave) as f64;
        vec![
            Scalar {
                name: "jobs_completed",
                value: rep.completed as f64,
                ref_tol: None,
                range: Some((total, total)),
            },
            Scalar {
                name: "preemptions",
                value: rep.preemptions as f64,
                ref_tol: Some(0.0),
                range: Some((1.0, 1e6)),
            },
        ]
    }

    fn layers(&self) -> Layers<'_> {
        Layers::Service(self)
    }
}

fn service_backlog(backlog: usize, high_wave: usize, rng: &mut Rng, scratch: &Path) -> ServiceRun {
    // Class (Batch:Normal = 1:2) and step count go by position; the seed
    // shuffles the submission order.
    let mut specs: Vec<JobSpec> = (0..backlog)
        .map(|i| JobSpec {
            resolution: 16,
            steps: 3 + (i as u64 % 2),
            priority: if i % 3 == 0 {
                PriorityClass::Batch
            } else {
                PriorityClass::Normal
            },
            ..Default::default()
        })
        .collect();
    for i in (1..specs.len()).rev() {
        specs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let scratch = scratch.join("service");
    // Warm-up: a three-job campaign starts the pool and the checkpoint tree.
    let mut warm = Service::new(service_config(&scratch, 0, WARMUP_OPS));
    for spec in &specs[..WARMUP_OPS] {
        warm.submit(spec.clone()).expect("warm-up admits");
    }
    assert!(warm.run_until_idle(1000), "warm-up campaign drains");
    let _ = std::fs::remove_dir_all(scratch.join("campaign0"));
    ServiceRun {
        scratch,
        specs,
        high_wave,
        svc: warm,
        campaign: 0,
        ticks: 0,
        busy: false,
        submit_ns: Vec::new(),
        report: None,
    }
}

/// Build a workload by name; the counts are ops per round. Rounds are
/// short — 0.3 to 0.6 s on this host — because the timing metrics keep the
/// minimum over rounds of every op: the more often each op is revisited,
/// the likelier one visit falls in a quiet moment of the host.
pub fn build(name: &str, seed: u64, scratch: &Path) -> Option<Box<dyn Workload>> {
    let mut rng = Rng::new(seed);
    Some(match name {
        "sedov_smallbox" => Box::new(sedov(32, 8, 4, &mut rng)),
        "sedov_bigbox" => Box::new(sedov(48, 24, 3, &mut rng)),
        "burn_field" => Box::new(burn_field(3, &mut rng)),
        "bubble_lowmach" => Box::new(bubble_lowmach(3, &mut rng)),
        "wd_collision" => Box::new(wd_collision(4, &mut rng)),
        "service_backlog" => Box::new(service_backlog(8, 2, &mut rng, scratch)),
        _ => return None,
    })
}
