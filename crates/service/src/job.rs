//! One admitted job: its physics state, driver glue, and checkpoint
//! lifecycle.
//!
//! A [`Job`] owns everything a simulation needs (EOS, network, state,
//! geometry, base state for low-Mach runs) and is advanced in *slices* —
//! a few steps per scheduling quantum — by a driver built fresh per slice
//! borrowing the job's physics. The per-job [`StepRecorder`] travels into
//! and back out of each transient driver, so step ordinals and the run
//! clock stay continuous across slices, preemptions, and resumes.

use std::path::PathBuf;
use std::sync::Arc;

use exastro_amr::{BcSpec, BoxArray, CoordSys, Geometry, IndexBox, MultiFab};
use exastro_castro::{
    init_collision, init_sedov, snapshot_level, Castro, CollisionParams, Floors, Gravity,
    GravityMode, SedovParams, StateLayout,
};
use exastro_maestro::{
    bubble_maestro, init_bubble, restore_base_state, snapshot_run, BaseState, BubbleParams,
    LmLayout, Maestro,
};
use exastro_microphysics::{Composition, Eos, GammaLaw, Network, StellarEos};
use exastro_resilience::snapshot::{digest_multifab, Clock, Snapshot};
use exastro_resilience::stepper::Stepper;
use exastro_resilience::CheckpointManager;
use exastro_telemetry::{JsonlSink, MemorySink, MultiSink, Sink, StepMetrics, StepRecorder};

use crate::spec::{JobId, JobSpec, Scenario};
use exastro_castro::BurnOptions;

/// A structured checkpoint-lifecycle error. Once leases can be revoked
/// mid-slice, "resume with no checkpoint on disk" is a *reachable* state,
/// not a scheduler bug — it must be a contained, matchable error rather
/// than a panic or a stringly-typed one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// Resume was asked for before any checkpoint was ever written.
    NoCheckpoint,
    /// The per-job checkpoint directory could not be created or opened.
    CheckpointInit(String),
    /// A scheduled or eviction checkpoint failed to write.
    CheckpointWrite(String),
    /// The newest intact checkpoint could not be restored.
    Restore(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::NoCheckpoint => {
                write!(f, "no checkpoint exists for this job (never written)")
            }
            JobError::CheckpointInit(why) => write!(f, "checkpoint root: {why}"),
            JobError::CheckpointWrite(why) => write!(f, "checkpoint write: {why}"),
            JobError::Restore(why) => write!(f, "restore: {why}"),
        }
    }
}

impl std::error::Error for JobError {}

/// How a slice of execution ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SliceStatus {
    /// The job ran its quantum and has steps left.
    Ran,
    /// The job reached its requested step count.
    Finished,
    /// The driver reported an unrecoverable error; the job is dead.
    Failed(String),
}

/// Scenario-specific physics payload.
pub(crate) enum Physics {
    /// Compressible (Castro) scenarios.
    Castro(StateLayout),
    /// Low-Mach (MAESTROeX) scenarios, which carry a 1-D base state.
    Maestro { layout: LmLayout, base: BaseState },
}

/// One admitted job and everything needed to advance, checkpoint, and
/// resume it.
pub(crate) struct Job {
    pub id: JobId,
    pub spec: JobSpec,
    pub geom: Geometry,
    pub state: MultiFab,
    pub physics: Physics,
    pub clock: Clock,
    eos: Box<dyn Eos + Send + Sync>,
    net: Box<dyn Network + Send + Sync>,
    /// Persistent per-job recorder: ordinals continue across slices.
    recorder: StepRecorder,
    /// In-memory copy of every step record, aggregated into the report.
    pub memory: Arc<MemorySink<StepMetrics>>,
    /// Lazily created per-job checkpoint directory manager.
    ckpt: Option<CheckpointManager>,
    ckpt_dir: PathBuf,
    /// Steps between scheduled checkpoints (the Young/Daly cadence).
    pub ckpt_every: u64,
    /// Ranks this job leases while running.
    pub ranks_needed: usize,
    /// Modeled machine time one step costs, microseconds.
    pub step_sim_us: f64,
    /// Modeled machine time consumed so far, microseconds.
    pub sim_us: f64,
    /// Weighted fair-share virtual time (sim-us received / weight).
    pub vtime: f64,
    /// Times this job has been checkpointed off the machine.
    pub preemptions: u32,
    /// Times this job has been re-admitted from checkpoint after its
    /// ranks died underneath it.
    pub recoveries: u32,
    /// Times this job has been checkpoint-migrated off a straggling node.
    pub migrations: u32,
    /// Wall-clock submit instant (job latency measurement).
    pub submitted_at: std::time::Instant,
    /// Wall-clock instant of the latest queue entry (admission or any
    /// requeue) — per-class queue-latency measurement.
    pub queued_at: std::time::Instant,
    /// Scheduling rounds the job has been overtaken while queued.
    pub bypassed: u32,
    /// Scheduling rounds the job's gang has exceeded in-service capacity.
    pub capacity_waits: u64,
    /// Recovery backoff: the job may not place before this tick.
    pub eligible_at_tick: u64,
    /// Step the newest checkpoint holds (lost-work accounting).
    pub last_ckpt_step: u64,
    /// Whether any checkpoint was ever written (guards resume).
    pub ckpt_written: bool,
    /// Sim clock when the job's ranks died (MTTR measurement); cleared
    /// when it gets back onto the machine.
    pub failed_at_sim_us: Option<f64>,
    /// True between a preemption and the matching resume: the field data
    /// lives only in the checkpoint, not in memory.
    evicted: bool,
}

/// Per-scenario dt cap (numerical hygiene for the violent first steps;
/// mirrors what the standalone examples use).
fn dt_cap(s: Scenario) -> f64 {
    match s {
        Scenario::SedovBlast => 2e-3,
        Scenario::ReactingBubble => 4e-3,
        Scenario::WdCollision => f64::INFINITY,
        Scenario::XrbFlame => f64::INFINITY,
    }
}

/// Initialize an accreted helium layer igniting at its base: an
/// X-ray-burst flame column. Plane-parallel, hot (`3×10⁸ K`) below a
/// tanh interface, cool (`10⁸ K`) above, pure helium fuel.
fn init_xrb(
    state: &mut MultiFab,
    geom: &Geometry,
    layout: &StateLayout,
    eos: &dyn Eos,
    net: &dyn Network,
) {
    let ihe = net
        .species()
        .iter()
        .position(|s| s.name == "he4")
        .expect("xrb_flame needs he4 (validated at submit)");
    let mut x = vec![0.0; layout.nspec];
    x[ihe] = 1.0;
    let comp = Composition::from_mass_fractions(net.species(), &x);
    let zlo = geom.prob_lo()[2];
    let height = geom.prob_length(2);
    for i in 0..state.nfabs() {
        let vb = state.valid_box(i);
        for iv in vb.iter() {
            let z = (geom.cell_center(iv)[2] - zlo) / height;
            // Hot ignition layer at the base, tanh edge at z = 0.2.
            let hot = 0.5 * (1.0 - ((z - 0.2) / 0.08).tanh());
            let t = 1e8 + 2e8 * hot;
            let rho = 5e5 * (1.0 - 0.4 * z);
            let r = eos.eval_rt(rho, t, &comp);
            let fab = state.fab_mut(i);
            fab.set(iv, StateLayout::RHO, rho);
            fab.set(iv, StateLayout::MX, 0.0);
            fab.set(iv, StateLayout::MY, 0.0);
            fab.set(iv, StateLayout::MZ, 0.0);
            fab.set(iv, StateLayout::EDEN, rho * r.e);
            fab.set(iv, StateLayout::EINT, rho * r.e);
            fab.set(iv, StateLayout::TEMP, t);
            for (s, xs) in x.iter().enumerate() {
                fab.set(iv, layout.spec(s), rho * xs);
            }
        }
    }
}

impl Job {
    /// Build the job's initial condition and telemetry plumbing.
    ///
    /// `jsonl_dir`, when set, receives a `job-NNNN.steps.jsonl` stream;
    /// step records always also land in the in-memory sink for the
    /// service report.
    pub(crate) fn build(
        id: JobId,
        spec: JobSpec,
        ranks_needed: usize,
        ckpt_root: &std::path::Path,
        jsonl_dir: Option<&std::path::Path>,
    ) -> Result<Job, String> {
        let n = spec.resolution;
        let net = spec.network.build();
        let (eos, geom, state, physics): (Box<dyn Eos + Send + Sync>, Geometry, MultiFab, Physics) =
            match spec.scenario {
                Scenario::SedovBlast => {
                    let eos = GammaLaw::monatomic();
                    let layout = StateLayout::new(net.nspec());
                    let geom = Geometry::cube(n, 1.0, false);
                    let ba = BoxArray::decompose(geom.domain(), 12, 4);
                    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
                    init_sedov(&mut state, &geom, &layout, &eos, &SedovParams::default());
                    (Box::new(eos), geom, state, Physics::Castro(layout))
                }
                Scenario::WdCollision => {
                    let eos = StellarEos;
                    let layout = StateLayout::new(net.nspec());
                    let params = CollisionParams {
                        v_approach: 6e8,
                        separation: 3.0,
                        ..Default::default()
                    };
                    let half_width = 2.5 * params.radius;
                    let geom = Geometry::new(
                        IndexBox::cube(n),
                        [-half_width; 3],
                        [half_width; 3],
                        [false; 3],
                        CoordSys::Cartesian,
                    );
                    let ba = BoxArray::decompose(geom.domain(), 12, 4);
                    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
                    init_collision(&mut state, &geom, &layout, &eos, &*net, &params);
                    (Box::new(eos), geom, state, Physics::Castro(layout))
                }
                Scenario::XrbFlame => {
                    let eos = StellarEos;
                    let layout = StateLayout::new(net.nspec());
                    // A 2×10³ cm column of the neutron-star envelope.
                    let geom = Geometry::new(
                        IndexBox::cube(n),
                        [0.0; 3],
                        [2e3; 3],
                        [true, true, false],
                        CoordSys::Cartesian,
                    );
                    let ba = BoxArray::decompose(geom.domain(), 12, 4);
                    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
                    init_xrb(&mut state, &geom, &layout, &eos, &*net);
                    (Box::new(eos), geom, state, Physics::Castro(layout))
                }
                Scenario::ReactingBubble => {
                    let eos = StellarEos;
                    let layout = LmLayout::new(net.nspec());
                    let geom = Geometry::new(
                        IndexBox::cube(n),
                        [0.0; 3],
                        [3.6e7; 3],
                        [true, true, false],
                        CoordSys::Cartesian,
                    );
                    let ba = BoxArray::decompose(geom.domain(), 12, 4);
                    let mut state = MultiFab::local(ba, layout.ncomp(), 1);
                    let base = init_bubble(
                        &mut state,
                        &geom,
                        &layout,
                        &eos,
                        &*net,
                        &BubbleParams::default(),
                    );
                    (
                        Box::new(eos),
                        geom,
                        state,
                        Physics::Maestro { layout, base },
                    )
                }
            };

        // Telemetry: in-memory always (feeds the report), JSONL when asked.
        let memory = Arc::new(MemorySink::new());
        let mut recorder = StepRecorder::new();
        let mut sinks: Vec<Arc<dyn Sink<StepMetrics>>> = vec![memory.clone()];
        if let Some(dir) = jsonl_dir {
            let path = dir.join(format!("{id}.steps.jsonl"));
            let sink =
                JsonlSink::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
            sinks.push(Arc::new(sink));
        }
        recorder.attach_sink(Arc::new(MultiSink::new(sinks)));

        Ok(Job {
            ckpt_dir: ckpt_root.join(id.to_string()),
            id,
            spec,
            geom,
            state,
            physics,
            clock: Clock::default(),
            eos,
            net,
            recorder,
            memory,
            ckpt: None,
            ckpt_every: 0, // set by the scheduler (Young/Daly)
            ranks_needed,
            step_sim_us: 0.0,
            sim_us: 0.0,
            vtime: 0.0,
            preemptions: 0,
            recoveries: 0,
            migrations: 0,
            submitted_at: std::time::Instant::now(),
            queued_at: std::time::Instant::now(),
            bypassed: 0,
            capacity_waits: 0,
            eligible_at_tick: 0,
            last_ckpt_step: 0,
            ckpt_written: false,
            failed_at_sim_us: None,
            evicted: false,
        })
    }

    /// CRC32 of the job's conserved state (bit-exactness probe).
    pub(crate) fn state_digest(&self) -> u32 {
        digest_multifab(&self.state)
    }

    /// Zones in the job's domain.
    pub(crate) fn zones(&self) -> u64 {
        let s = self.geom.domain().size();
        (s.x() as u64) * (s.y() as u64) * (s.z() as u64)
    }

    /// Advance up to `quantum` steps. Checkpoints on the job's cadence.
    pub(crate) fn run_slice(&mut self, quantum: u64) -> SliceStatus {
        for _ in 0..quantum {
            if self.clock.step >= self.spec.steps {
                return SliceStatus::Finished;
            }
            if let Err(why) = self.step_once() {
                return SliceStatus::Failed(why);
            }
            self.sim_us += self.step_sim_us;
            if self.ckpt_every > 0 && self.clock.step.is_multiple_of(self.ckpt_every) {
                if let Err(why) = self.checkpoint() {
                    return SliceStatus::Failed(why.to_string());
                }
            }
        }
        if self.clock.step >= self.spec.steps {
            SliceStatus::Finished
        } else {
            SliceStatus::Ran
        }
    }

    fn step_once(&mut self) -> Result<(), String> {
        let cap = dt_cap(self.spec.scenario);
        let recorder = std::mem::take(&mut self.recorder);
        let mut drv = build_stepper(&self.spec, &self.physics, &*self.eos, &*self.net, recorder);
        let dt = drv.estimate_dt(&self.state, &self.geom).min(cap);
        let result = drv.step(&mut self.state, &self.geom, dt);
        self.recorder = drv.take_recorder();
        let outcome = result.map_err(|e| e.to_string())?;
        self.clock.step += 1;
        self.clock.time += outcome.dt_taken;
        self.clock.dt = outcome.dt_taken;
        Ok(())
    }

    fn snapshot(&self) -> Snapshot {
        match &self.physics {
            Physics::Castro(layout) => snapshot_level(&self.geom, &self.state, self.clock, layout),
            Physics::Maestro { layout, base } => {
                snapshot_run(&self.geom, &self.state, base, self.clock, layout)
            }
        }
    }

    fn manager(&mut self) -> Result<&CheckpointManager, JobError> {
        if self.ckpt.is_none() {
            let mgr = CheckpointManager::new(&self.ckpt_dir)
                .map_err(|e| JobError::CheckpointInit(format!("{}: {e}", self.ckpt_dir.display())))?
                .keep_last(2);
            self.ckpt = Some(mgr);
        }
        self.ckpt.as_ref().ok_or(JobError::NoCheckpoint)
    }

    /// Write a durable checkpoint of the current state and charge its
    /// payload to the job's own step records.
    pub(crate) fn checkpoint(&mut self) -> Result<(), JobError> {
        let snap = self.snapshot();
        let step = self.clock.step;
        self.manager()?
            .write(&snap)
            .map_err(|e| JobError::CheckpointWrite(e.to_string()))?;
        self.recorder.charge_checkpoint(snap.payload_bytes());
        self.ckpt_written = true;
        self.last_ckpt_step = step;
        Ok(())
    }

    /// Checkpoint bytes one snapshot of this job carries (Young/Daly `C`).
    pub(crate) fn checkpoint_bytes(&self) -> u64 {
        self.snapshot().payload_bytes()
    }

    /// Drop the in-memory field data, leaving only the checkpoint (if
    /// any) behind. The stub state makes a "resume" that forgot to
    /// restore fail loudly instead of silently reusing old memory — an
    /// evicted job must carry no rank-local state.
    fn drop_field_data(&mut self) {
        self.state = MultiFab::local(BoxArray::decompose(IndexBox::cube(1), 1, 1), 1, 0);
        self.evicted = true;
    }

    /// Evict the job from the machine: checkpoint, then drop the
    /// in-memory field data. The job is now resumable from disk only —
    /// which is the point: a migrated job must carry no rank-local state.
    pub(crate) fn preempt(&mut self) -> Result<(), JobError> {
        self.checkpoint()?;
        self.preemptions += 1;
        self.drop_field_data();
        Ok(())
    }

    /// Checkpoint-migrate off a straggling node: identical mechanics to
    /// [`Job::preempt`] but charged to the migration budget, not the
    /// preemption-immunity budget — mitigating a slow node must not eat
    /// the job's protection against priority churn.
    pub(crate) fn migrate(&mut self) -> Result<(), JobError> {
        self.checkpoint()?;
        self.migrations += 1;
        self.drop_field_data();
        Ok(())
    }

    /// Fail over after the job's ranks died: the in-memory state is gone
    /// with the node, so *discard* it (no checkpoint write — there is
    /// nothing trustworthy to write) and mark the job resumable from its
    /// last durable checkpoint only.
    pub(crate) fn fail_over(&mut self) {
        self.recoveries += 1;
        self.drop_field_data();
    }

    /// Restore state from the newest intact checkpoint (after preemption,
    /// possibly onto different ranks — the state travels on disk).
    /// [`JobError::NoCheckpoint`] when none was ever written — reachable
    /// when a lease is revoked before the first cadence point.
    pub(crate) fn resume(&mut self) -> Result<(), JobError> {
        if !self.ckpt_written {
            return Err(JobError::NoCheckpoint);
        }
        let snap = self
            .manager()?
            .resume()
            .map_err(|e| JobError::Restore(e.to_string()))?;
        if let Physics::Maestro { base, .. } = &mut self.physics {
            *base = restore_base_state(&snap)
                .ok_or_else(|| JobError::Restore("checkpoint missing base state".into()))?;
        }
        let lvl = &snap.levels[0];
        self.geom = lvl.geom.clone();
        self.state = lvl.state.clone();
        self.clock = snap.clock;
        self.evicted = false;
        Ok(())
    }

    /// Whether the job's field data lives only in its checkpoint (true
    /// between a preemption and the matching resume).
    pub(crate) fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// Flush the job's telemetry stream. Best-effort: a full disk must
    /// not fail job retirement, so any deferred IO error is dropped here
    /// (the per-job JSONL sink keeps it sticky for callers that ask).
    pub(crate) fn flush_telemetry(&self) {
        self.recorder.flush().ok();
    }
}

/// Build the per-slice transactional driver for `physics` behind the
/// driver-agnostic [`Stepper`] contract. A free function over split-out
/// borrows rather than a `&self` method: the returned driver captures only
/// `eos` and `net`, leaving `&mut job.state` free for the step itself.
fn build_stepper<'a>(
    spec: &JobSpec,
    physics: &Physics,
    eos: &'a (dyn Eos + Send + Sync),
    net: &'a (dyn Network + Send + Sync),
    recorder: StepRecorder,
) -> Box<dyn Stepper + 'a> {
    match physics {
        Physics::Castro(_) => {
            let mut drv = Castro::new(eos, net);
            configure_castro(spec, &mut drv);
            drv.telemetry = recorder;
            Box::new(drv)
        }
        Physics::Maestro { base, .. } => Box::new(Maestro {
            burn_faults: spec.burn_faults.clone(),
            telemetry: recorder,
            ..bubble_maestro(eos, net, base.clone())
        }),
    }
}

/// Scenario-specific Castro configuration (CFL, floors, gravity,
/// burning) -- shared by every Castro-family scenario the service runs.
fn configure_castro(spec: &JobSpec, drv: &mut Castro<'_>) {
    match spec.scenario {
        Scenario::SedovBlast => {
            drv.hydro.cfl = 0.4;
            drv.hydro.floors = Floors::dimensionless();
            drv.bc = BcSpec::outflow();
            // Burning only matters here when a fault drill asks for
            // it: zero thresholds make every zone eligible, so the
            // injected faults actually fire.
            if spec.burn_faults.is_some() {
                drv.burn = Some(BurnOptions {
                    min_temp: 0.0,
                    min_dens: 0.0,
                    faults: spec.burn_faults.clone(),
                    ..Default::default()
                });
            }
        }
        Scenario::WdCollision => {
            drv.hydro.cfl = 0.2;
            drv.gravity = Gravity {
                mode: GravityMode::Monopole,
                n_bins: 256,
            };
            drv.bc = BcSpec::outflow();
            drv.burn = Some(BurnOptions {
                min_temp: 5e8,
                min_dens: 1e4,
                faults: spec.burn_faults.clone(),
                ..Default::default()
            });
        }
        Scenario::XrbFlame => {
            drv.bc = BcSpec::outflow();
            drv.burn = Some(BurnOptions {
                min_temp: 1.5e8,
                min_dens: 1e2,
                faults: spec.burn_faults.clone(),
                ..Default::default()
            });
        }
        Scenario::ReactingBubble => unreachable!("bubble runs on maestro"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    /// The satellite fix: resume before any checkpoint exists is a
    /// contained, matchable [`JobError::NoCheckpoint`], not a panic —
    /// reachable once leases can be revoked before the first cadence
    /// point.
    #[test]
    fn resume_without_checkpoint_is_a_contained_error() {
        let dir = std::env::temp_dir().join(format!("exastro_job_nockpt_{}", std::process::id()));
        let mut job = Job::build(JobId(0), JobSpec::default(), 6, &dir, None).unwrap();
        assert_eq!(job.resume().unwrap_err(), JobError::NoCheckpoint);
        // Once a checkpoint exists, the same call restores bit-exactly.
        let digest = job.state_digest();
        job.checkpoint().unwrap();
        job.fail_over();
        assert!(job.is_evicted());
        assert_ne!(job.state_digest(), digest, "evicted state must be a stub");
        job.resume().unwrap();
        assert_eq!(job.state_digest(), digest);
        assert_eq!(job.recoveries, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A MAESTROeX job's base state — three `nz`-long columns and two
    /// scalars — travels as `Aux_*.bin` arrays: after a preemption it must
    /// come back from disk bit for bit, not survive in memory.
    #[test]
    fn a_preempted_bubble_gets_its_base_state_back_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("exastro_job_base_{}", std::process::id()));
        let spec = JobSpec {
            scenario: Scenario::ReactingBubble,
            resolution: 8,
            steps: 2,
            ..Default::default()
        };
        let mut job = Job::build(JobId(0), spec, 6, &dir, None).unwrap();
        assert!(matches!(job.run_slice(1), SliceStatus::Ran));
        let base_bits = |job: &Job| match &job.physics {
            Physics::Maestro { base, .. } => {
                [&base.rho0, &base.p0, &base.t0, &vec![base.grav, base.dz]]
                    .map(|col| col.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
            }
            Physics::Castro(_) => unreachable!("the bubble runs on maestro"),
        };
        let (want, digest) = (base_bits(&job), job.state_digest());
        assert_eq!(want[0].len(), 8);
        job.preempt().unwrap();
        if let Physics::Maestro { base, .. } = &mut job.physics {
            base.rho0.fill(0.0);
            base.p0.fill(0.0);
            base.t0.fill(0.0);
            (base.grav, base.dz) = (0.0, 0.0);
        }
        job.resume().unwrap();
        assert_eq!(base_bits(&job), want);
        assert_eq!(job.state_digest(), digest);
        assert!(matches!(job.run_slice(1), SliceStatus::Finished));
        let _ = std::fs::remove_dir_all(dir);
    }
}
