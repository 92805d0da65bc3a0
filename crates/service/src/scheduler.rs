//! The multi-tenant scheduler: bounded admission, weighted fair share,
//! gang placement on the rank pool, checkpoint-based preemption, and —
//! when a [`NodeFaultConfig`] is armed — self-healing against the
//! cluster failing underneath the jobs.
//!
//! One [`Service::tick`] is a scheduling quantum:
//!
//! 1. **Account** rank-seconds leased since the last tick (utilization).
//! 2. **Place** waiting jobs in fair-share order (lowest virtual time
//!    first; class weight, then submit order break ties). A job that
//!    cannot fit is skipped — but only `BYPASS_LIMIT` (8) times: after
//!    that the queue head *reserves* the pool (no later job may jump it),
//!    which bounds waiting time and kills starvation.
//!    Jobs backing off after a recovery sit out; jobs whose gang exceeds
//!    *in-service* capacity wait for repairs (and quarantine after
//!    [`ServiceConfig::capacity_patience`] rounds) instead of wedging
//!    the queue — graceful degradation.
//! 3. **Preempt** when the best waiting job outranks (strictly) the
//!    weakest running job and the pool cannot fit it: victims are
//!    checkpointed via [`exastro_resilience::CheckpointManager`],
//!    evicted, and requeued; the freed ranks go to the high job. A job
//!    is preempted at most `MAX_PREEMPTIONS` (2) times, then becomes
//!    immune (no preemption livelock).
//! 4. **Run** every placed job one slice (`SLICE_STEPS`, 2) concurrently on
//!    the worker pool; a resumed job restores from its newest intact
//!    checkpoint first — generally onto *different* ranks, which is safe
//!    because restarts are bit-exact. The slowest gang member sets each
//!    job's observed step cost (stragglers multiply it), and the tick's
//!    simulated-time advance drives the fault model.
//! 5. **Heal** (fault model armed): advance [`NodeFaultModel`], fail
//!    ranks whose nodes died, revoke compromised leases
//!    ([`exastro_machine::RankPool::revoke_failed`]), fail the slice,
//!    and re-admit each victim from its last checkpoint with bounded
//!    exponential backoff (`RECOVERY_BACKOFF_BASE << (k−1)` ticks, at most
//!    [`ServiceConfig::recovery_backoff_max`]); a job that burns
//!    [`ServiceConfig::quarantine_limit`] recoveries is circuit-broken
//!    into [`JobOutcome::Quarantined`]. Jobs observing ≥
//!    `STRAGGLER_MIGRATE_FACTOR` (2)× their modeled step cost are
//!    checkpoint-migrated onto healthy ranks, at most `MAX_MIGRATIONS`
//!    (2) times each.
//! 6. **Retire** finished and failed jobs (release ranks, final record).

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use exastro_machine::{
    sedov_workload, FaultEvent, Machine, NodeFaultConfig, NodeFaultModel, RankLease, RankPool,
};
use exastro_parallel::par_each_mut;
use exastro_resilience::interval::{suggest_cadence_steps, JobProfile};
use exastro_telemetry::{NullSink, Sink};

use crate::events::{Event, EventKind, ServiceLog};
use crate::job::{Job, SliceStatus};
use crate::report::{ClassQueueWait, JobOutcome, JobRecord, ServiceReport};
use crate::spec::{JobId, JobSpec, PriorityClass, SubmitError};

/// Steps each running job advances per scheduling tick.
const SLICE_STEPS: u64 = 2;
/// Times one job may be preempted before it becomes immune.
const MAX_PREEMPTIONS: u32 = 2;
/// Times a queued job may be overtaken before it reserves the pool.
const BYPASS_LIMIT: u32 = 8;
/// Observed/modeled step-cost ratio at which a running job is
/// checkpoint-migrated off its straggling node.
const STRAGGLER_MIGRATE_FACTOR: f64 = 2.0;
/// Times one job may be straggler-migrated before it rides it out.
const MAX_MIGRATIONS: u32 = 2;
/// Recovery backoff after a node failure, ticks: the `k`-th recovery waits
/// `min(RECOVERY_BACKOFF_BASE << (k-1), recovery_backoff_max)`.
const RECOVERY_BACKOFF_BASE: u64 = 1;

/// Service knobs. Defaults give a one-node pool with a small queue and
/// *no* fault injection — the shape the examples and tests use;
/// production sizing scales `nodes` and `queue_bound` up and arms
/// `faults` with the fleet's measured MTBF.
pub struct ServiceConfig {
    /// The modeled machine supplying ranks and checkpoint pricing.
    pub machine: Machine,
    /// Nodes in the rank pool (`nodes × gpus_per_node` ranks).
    pub nodes: usize,
    /// Admission queue bound; submits beyond it get backpressure.
    pub queue_bound: usize,
    /// Directory for per-job `job-NNNN.steps.jsonl` streams (`None`
    /// keeps telemetry in memory only).
    pub jsonl_dir: Option<PathBuf>,
    /// Root directory for per-job checkpoint trees.
    pub ckpt_root: PathBuf,
    /// Whole-machine fault injection (`None` = the immortal cluster).
    /// Armed with a finite node MTBF, it is also the failure rate the
    /// Young/Daly cadence prices; otherwise the cadence assumes
    /// [`JobProfile::default`]'s 10-year per-node MTBF.
    pub faults: Option<NodeFaultConfig>,
    /// Upper bound on the recovery backoff after a node failure, ticks.
    pub recovery_backoff_max: u64,
    /// Circuit breaker: recoveries a job may burn before it is
    /// quarantined instead of re-admitted.
    pub quarantine_limit: u32,
    /// Rounds a job may wait for its gang to fit *in-service* capacity
    /// (shrunk by dead nodes) before it is quarantined.
    pub capacity_patience: u64,
    /// Simulated time an idle tick (nothing running) advances, µs —
    /// keeps the fault model's clock moving while the queue backs off.
    pub idle_tick_sim_us: f64,
    /// Where the cluster event log goes (`None` = discard). Arm with an
    /// [`exastro_telemetry::MemorySink`] to reconcile the log against the
    /// report, or an [`exastro_telemetry::JsonlSink`] to stream
    /// `exastro.event.v1` JSONL for post-mortems.
    pub events: Option<Arc<dyn Sink<Event>>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            machine: Machine::summit(),
            nodes: 1,
            queue_bound: 64,
            jsonl_dir: None,
            ckpt_root: std::env::temp_dir().join(format!("exastro_service_{}", std::process::id())),
            faults: None,
            recovery_backoff_max: 16,
            quarantine_limit: 3,
            capacity_patience: 200,
            idle_tick_sim_us: 1e6,
            events: None,
        }
    }
}

struct Running {
    job: Job,
    lease: RankLease,
    status: SliceStatus,
    /// Max fault-model slowdown over the lease's nodes this tick.
    slow: f64,
    /// Steps the job actually advanced this tick.
    steps_ran: u64,
    /// Set when a node under this lease died: the slice is void and the
    /// lease must be surrendered through `revoke_failed`.
    doomed: bool,
}

/// The long-running job service.
pub struct Service {
    cfg: ServiceConfig,
    pool: RankPool,
    fault_model: Option<NodeFaultModel>,
    queue: VecDeque<Job>,
    running: Vec<Running>,
    records: Vec<JobRecord>,
    /// The id of the next admitted job; ids are in submit order.
    next_id: u64,
    started_at: Instant,
    last_tick: Instant,
    /// Σ (tick wall seconds × ranks leased) — utilization numerator.
    leased_rank_seconds: f64,
    /// Simulated-time clock driving the fault model, µs. Advances by the
    /// slowest running gang's observed slice cost each tick.
    sim_clock_us: f64,
    tick_no: u64,
    queue_peak: usize,
    /// The event log, and the tally of it the report reads.
    log: ServiceLog,
}

impl Service {
    /// A service over `cfg`'s machine and knobs.
    pub fn new(cfg: ServiceConfig) -> Service {
        let pool = RankPool::new(&cfg.machine, cfg.nodes);
        let fault_model = cfg
            .faults
            .clone()
            .map(|f| NodeFaultModel::new(f, cfg.nodes));
        let now = Instant::now();
        let sink = cfg.events.clone().unwrap_or_else(|| Arc::new(NullSink));
        Service {
            pool,
            fault_model,
            log: ServiceLog::new(sink),
            cfg,
            queue: VecDeque::new(),
            running: Vec::new(),
            records: Vec::new(),
            next_id: 0,
            started_at: now,
            last_tick: now,
            leased_rank_seconds: 0.0,
            sim_clock_us: 0.0,
            tick_no: 0,
            queue_peak: 0,
        }
    }

    /// Total ranks in the pool.
    pub fn total_ranks(&self) -> usize {
        self.pool.total()
    }

    /// Ranks currently in service (total minus dead-and-unrepaired).
    pub fn ranks_in_service(&self) -> usize {
        self.pool.in_service()
    }

    /// Jobs waiting for placement.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently on the machine.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Simulated seconds the service has advanced (the fault model's
    /// clock; 0 until the first tick).
    pub fn sim_clock_s(&self) -> f64 {
        self.sim_clock_us * 1e-6
    }

    /// Log a refused submission's `Reject` event; returns `why` for the
    /// error.
    fn reject(&mut self, class: PriorityClass, why: String) -> String {
        self.log.record(Event {
            class: Some(class),
            detail: why.clone(),
            ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Reject)
        });
        why
    }

    /// Submit a job. `Err(QueueFull)` is backpressure — the spec was not
    /// admitted and the caller should retry later; `Err(InvalidSpec)`
    /// means the spec can never run here, or its telemetry files could
    /// not be created. Every refusal is counted in the report and logged.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let class = spec.priority;
        if let Err(why) = spec.validate() {
            return Err(SubmitError::InvalidSpec(self.reject(class, why)));
        }
        let ranks_needed = spec.nodes.checked_mul(self.pool.gpus_per_node());
        let Some(ranks_needed) = ranks_needed.filter(|&r| r <= self.pool.total()) else {
            let why = format!(
                "job wants {} node(s) but the pool has {} ranks",
                spec.nodes,
                self.pool.total()
            );
            return Err(SubmitError::InvalidSpec(self.reject(class, why)));
        };
        let bound = self.cfg.queue_bound;
        if self.queue.len() >= bound {
            self.reject(class, format!("queue full (bound {bound})"));
            return Err(SubmitError::QueueFull { bound });
        }
        if let Some(dir) = &self.cfg.jsonl_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                let why = format!("jsonl dir: {e}");
                return Err(SubmitError::InvalidSpec(self.reject(class, why)));
            }
        }
        // The id is taken only once the job is built: a refused
        // submission leaves no gap in the ids.
        let id = JobId(self.next_id);
        let built = Job::build(
            id,
            spec,
            ranks_needed,
            &self.cfg.ckpt_root,
            self.cfg.jsonl_dir.as_deref(),
        );
        let mut job = match built {
            Ok(job) => job,
            Err(why) => return Err(SubmitError::InvalidSpec(self.reject(class, why))),
        };
        self.next_id += 1;

        // Price one step of this job on the modeled machine (the same
        // workload builder the weak-scaling figures use) and derive the
        // Young/Daly checkpoint cadence from it. When fault injection is
        // armed with a finite MTBF, *that* is the failure rate the cadence
        // must price, not the nominal fleet MTBF.
        let wl = sedov_workload(
            &self.cfg.machine,
            job.spec.nodes,
            job.spec.resolution,
            12,
            4,
        );
        job.step_sim_us = self.cfg.machine.simulate_step(&wl).total_us;
        let mtbf = self
            .cfg
            .faults
            .as_ref()
            .map(|f| f.node_mtbf_s)
            .filter(|m| m.is_finite())
            .unwrap_or(JobProfile::default().per_node_mtbf_s);
        let profile = JobProfile {
            nodes: job.spec.nodes,
            checkpoint_bytes: job.checkpoint_bytes(),
            per_node_mtbf_s: mtbf,
            step_wall_s: job.step_sim_us * 1e-6,
        };
        job.ckpt_every = suggest_cadence_steps(&self.cfg.machine, &profile);
        self.log.record(Event {
            job: Some(id),
            class: Some(job.spec.priority),
            detail: format!(
                "{} x {} @ {}^3 on {} node(s), {} step(s)",
                job.spec.scenario.name(),
                job.spec.network.name(),
                job.spec.resolution,
                job.spec.nodes,
                job.spec.steps
            ),
            ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Admit)
        });
        self.queue.push_back(job);
        self.queue_peak = self.queue_peak.max(self.queue.len());
        Ok(id)
    }

    /// Fair-share ordering key for a waiting job: lowest virtual time
    /// first; heavier class, then earlier submission (lower id) break ties.
    fn share_key(job: &Job) -> (f64, f64, JobId) {
        (job.vtime, -job.spec.priority.weight(), job.id)
    }

    /// One scheduling quantum. Returns `false` once the service is idle
    /// (nothing queued, nothing running).
    pub fn tick(&mut self) -> bool {
        // 1. Utilization accounting for the interval just elapsed.
        let now = Instant::now();
        let dt = now.duration_since(self.last_tick).as_secs_f64();
        self.last_tick = now;
        self.leased_rank_seconds += dt * self.pool.leased() as f64;
        self.tick_no += 1;

        self.place_queued();
        self.preempt_for_priority();
        self.run_slices();
        self.advance_faults();
        self.recover_failed();
        self.mitigate_stragglers();
        self.retire();

        !self.queue.is_empty() || !self.running.is_empty()
    }

    /// Drive ticks until idle or `max_ticks`; returns true if idle.
    pub fn run_until_idle(&mut self, max_ticks: usize) -> bool {
        for _ in 0..max_ticks {
            if !self.tick() {
                return true;
            }
        }
        !self.tick()
    }

    /// Nodes currently straggling (empty without a fault model).
    fn slow_nodes(&self) -> Vec<usize> {
        self.fault_model
            .as_ref()
            .map(|f| f.straggling_nodes())
            .unwrap_or_default()
    }

    fn place_queued(&mut self) {
        // Sort a view of queue indices by fair-share key.
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by(|&a, &b| {
            let ka = Self::share_key(&self.queue[a]);
            let kb = Self::share_key(&self.queue[b]);
            ka.0.total_cmp(&kb.0)
                .then(ka.1.total_cmp(&kb.1))
                .then(ka.2.cmp(&kb.2))
        });
        let avoid = self.slow_nodes();
        let mut placed: Vec<(usize, RankLease)> = Vec::new();
        let mut quarantine: Vec<usize> = Vec::new();
        let mut blocked_reserver = false;
        for &qi in &order {
            if self.queue[qi].eligible_at_tick > self.tick_no {
                // Backing off after a recovery: sits out, neither places
                // nor reserves, and does not accrue bypasses.
                continue;
            }
            if self.queue[qi].ranks_needed > self.pool.in_service() {
                // Graceful degradation: the gang no longer fits the
                // surviving machine. Wait for repairs without wedging the
                // queue (no reservation), quarantine once patience runs
                // out so the job does not wait forever on a node that
                // will never come back.
                let job = &mut self.queue[qi];
                job.capacity_waits += 1;
                if job.capacity_waits > self.cfg.capacity_patience {
                    quarantine.push(qi);
                }
                continue;
            }
            if blocked_reserver {
                // A starving job ahead of us has reserved the pool.
                continue;
            }
            let need = self.queue[qi].ranks_needed;
            if let Some(lease) = self.pool.try_lease_avoiding(need, &avoid) {
                placed.push((qi, lease));
            } else {
                let job = &mut self.queue[qi];
                job.bypassed += 1;
                if job.bypassed > BYPASS_LIMIT {
                    // Starvation guard: nobody may overtake this job
                    // anymore until it places.
                    blocked_reserver = true;
                }
            }
        }
        // Pull placed and quarantined jobs out of the queue (descending
        // index so the remaining indices stay valid; queue order is
        // preserved). The two sets are disjoint by construction.
        enum Act {
            Place(RankLease),
            Quarantine,
        }
        let mut acts: Vec<(usize, Act)> = placed
            .into_iter()
            .map(|(qi, l)| (qi, Act::Place(l)))
            .chain(quarantine.into_iter().map(|qi| (qi, Act::Quarantine)))
            .collect();
        acts.sort_by_key(|a| std::cmp::Reverse(a.0));
        for (qi, act) in acts {
            let job = self.queue.remove(qi).expect("acted index in queue");
            match act {
                Act::Place(lease) => self.start(job, lease),
                Act::Quarantine => {
                    let why = format!(
                        "capacity: gang wants {} ranks but only {} of {} are in service \
                         after node failures ({} round(s) waited)",
                        job.ranks_needed,
                        self.pool.in_service(),
                        self.pool.total(),
                        job.capacity_waits
                    );
                    self.finish(job, JobOutcome::Quarantined(why));
                }
            }
        }
    }

    /// When the best waiting job strictly outranks the weakest running
    /// job and cannot fit, checkpoint victims off the machine until it
    /// fits (or no eligible victims remain).
    fn preempt_for_priority(&mut self) {
        loop {
            // Highest-class waiting job that is not placeable right now.
            // Backing-off jobs and gangs beyond in-service capacity are
            // not candidates: preempting victims for a job that cannot
            // start anyway just thrashes checkpoints.
            let Some(qi) = (0..self.queue.len())
                .filter(|&i| {
                    let j = &self.queue[i];
                    j.eligible_at_tick <= self.tick_no && j.ranks_needed <= self.pool.in_service()
                })
                .max_by_key(|&i| {
                    let j = &self.queue[i];
                    (j.spec.priority, std::cmp::Reverse(j.id))
                })
            else {
                return;
            };
            let need = self.queue[qi].ranks_needed;
            let class = self.queue[qi].spec.priority;
            if self.pool.available() >= need {
                // Fits without violence; the next place_queued gets it.
                return;
            }
            // Victims: strictly lower class, not preemption-immune;
            // weakest class first, then youngest (least sunk work).
            let mut victims: Vec<usize> = (0..self.running.len())
                .filter(|&i| {
                    let j = &self.running[i].job;
                    j.spec.priority < class && j.preemptions < MAX_PREEMPTIONS
                })
                .collect();
            victims.sort_by_key(|&i| {
                let j = &self.running[i].job;
                (j.spec.priority, std::cmp::Reverse(j.id))
            });
            let mut freed = self.pool.available();
            let mut chosen: Vec<usize> = Vec::new();
            for &vi in &victims {
                if freed >= need {
                    break;
                }
                freed += self.running[vi].lease.len();
                chosen.push(vi);
            }
            if freed < need || chosen.is_empty() {
                return; // not enough preemptible capacity — wait it out
            }
            // Evict chosen victims (checkpoint → release → requeue),
            // highest index first so removals do not shift the others.
            chosen.sort_unstable_by(|a, b| b.cmp(a));
            for vi in chosen {
                let mut r = self.running.swap_remove(vi);
                match r.job.preempt() {
                    Ok(()) => {
                        self.log.record(Event {
                            job: Some(r.job.id),
                            class: Some(r.job.spec.priority),
                            step: Some(r.job.clock.step),
                            detail: format!("checkpointed off for class {class:?}"),
                            ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Preempt)
                        });
                        self.pool.release(r.lease);
                        self.requeue(r.job);
                    }
                    Err(why) => {
                        // A job we cannot checkpoint cannot be moved;
                        // fail it rather than lose its state silently.
                        self.pool.release(r.lease);
                        self.finish(r.job, JobOutcome::Failed(format!("preempt: {why}")));
                    }
                }
            }
            // Give the high job its ranks immediately.
            if let Some(lease) = self.pool.try_lease(need) {
                let job = self.queue.remove(qi).expect("high job in queue");
                self.start(job, lease);
            }
        }
    }

    fn start(&mut self, mut job: Job, lease: RankLease) {
        self.log.record(Event {
            job: Some(job.id),
            class: Some(job.spec.priority),
            ranks: lease.ranks().to_vec(),
            ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Lease)
        });
        if job.is_evicted() {
            if let Err(why) = job.resume() {
                self.pool.release(lease);
                self.finish(job, JobOutcome::Failed(format!("resume: {why}")));
                return;
            }
        } else if self.fault_model.is_some() && !job.ckpt_written {
            // Chaos armed: guarantee resumability *before* the first
            // step, so a node that dies ahead of the first cadence point
            // still leaves a fail-over target. (Without a fault model
            // this write is dead weight — skip it.)
            if let Err(why) = job.checkpoint() {
                self.pool.release(lease);
                self.finish(
                    job,
                    JobOutcome::Failed(format!("initial checkpoint: {why}")),
                );
                return;
            }
            self.log.record(Event {
                job: Some(job.id),
                step: Some(job.last_ckpt_step),
                detail: "initial (pre-step resumability guarantee)".into(),
                ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Checkpoint)
            });
        }
        if let Some(died_at) = job.failed_at_sim_us.take() {
            // Back on the machine after a node failure: MTTR is the sim
            // time from rank death to renewed placement.
            self.log.record(Event {
                job: Some(job.id),
                class: Some(job.spec.priority),
                step: Some(job.clock.step),
                mttr_s: Some((self.sim_clock_us - died_at).max(0.0) * 1e-6),
                ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Recover)
            });
        }
        self.log.record(Event {
            job: Some(job.id),
            class: Some(job.spec.priority),
            step: Some(job.clock.step),
            queue_wait_s: Some(job.queued_at.elapsed().as_secs_f64()),
            ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Start)
        });
        job.bypassed = 0;
        job.capacity_waits = 0;
        self.running.push(Running {
            job,
            lease,
            status: SliceStatus::Ran,
            slow: 1.0,
            steps_ran: 0,
            doomed: false,
        });
    }

    fn run_slices(&mut self) {
        if self.running.is_empty() {
            // Nothing on the machine: simulated time still flows (the
            // fault model must keep aging while the queue backs off).
            if !self.queue.is_empty() && self.fault_model.is_some() {
                self.sim_clock_us += self.cfg.idle_tick_sim_us;
            }
            return;
        }
        // Observed slowdown per gang: the slowest leased node sets the
        // pace (gangs are bulk-synchronous).
        if let Some(fm) = &self.fault_model {
            let g = self.pool.gpus_per_node();
            for r in &mut self.running {
                r.slow = r
                    .lease
                    .ranks()
                    .iter()
                    .map(|&rank| fm.slowdown(rank / g))
                    .fold(1.0, f64::max);
            }
        }
        // Concurrent slices on the worker pool: one task per running job.
        let prev_ckpt: Vec<u64> = self.running.iter().map(|r| r.job.last_ckpt_step).collect();
        par_each_mut(&mut self.running, |_, r| {
            let before = r.job.clock.step;
            r.status = r.job.run_slice(SLICE_STEPS);
            r.steps_ran = r.job.clock.step - before;
        });
        for (r, &prev) in self.running.iter().zip(&prev_ckpt) {
            if r.job.last_ckpt_step > prev {
                self.log.record(Event {
                    job: Some(r.job.id),
                    step: Some(r.job.last_ckpt_step),
                    detail: format!("cadence (every {} step(s))", r.job.ckpt_every),
                    ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Checkpoint)
                });
            }
        }
        // Fair-share accounting (serial: needs &mut self bookkeeping),
        // and the tick's simulated-time advance: the slices above ran
        // concurrently, so the slowest gang's observed cost is the wall.
        let mut tick_sim_us = 0.0f64;
        for r in &mut self.running {
            tick_sim_us = tick_sim_us.max(r.steps_ran as f64 * r.job.step_sim_us * r.slow);
            if r.status != SliceStatus::Ran {
                continue;
            }
            let w = r.job.spec.priority.weight();
            r.job.vtime += SLICE_STEPS as f64 * r.job.step_sim_us / w;
        }
        if tick_sim_us <= 0.0 && self.fault_model.is_some() {
            tick_sim_us = self.cfg.idle_tick_sim_us;
        }
        self.sim_clock_us += tick_sim_us;
    }

    /// Advance the fault model to the current sim time and apply what it
    /// injected: dead nodes leave the pool (dooming the leases over
    /// them), repaired nodes return.
    fn advance_faults(&mut self) {
        let Some(fm) = &mut self.fault_model else {
            return;
        };
        let g = self.pool.gpus_per_node();
        let now_s = self.sim_clock_us * 1e-6;
        for ev in fm.advance(now_s) {
            match ev {
                FaultEvent::NodeKilled { node, at_s } => {
                    self.pool.fail_node(node);
                    // Health monitor: the kill surfaces at the end of the
                    // scheduling window in which it happened.
                    self.log.record(Event {
                        node: Some(node),
                        detail: format!("killed at sim t={at_s:.3}s, detected this tick"),
                        ..Event::new(self.sim_clock_us, self.tick_no, EventKind::NodeFail)
                    });
                    for r in &mut self.running {
                        if r.lease.ranks().iter().any(|&rank| rank / g == node) {
                            r.doomed = true;
                        }
                    }
                }
                FaultEvent::NodeRepaired { node, .. } => {
                    self.pool.repair_node(node);
                    self.log.record(Event {
                        node: Some(node),
                        ..Event::new(self.sim_clock_us, self.tick_no, EventKind::NodeRepair)
                    });
                }
                // Stragglers change *speed*, not membership; run_slices
                // queries the model each tick.
                FaultEvent::StragglerBegan { .. } | FaultEvent::StragglerEnded { .. } => {}
            }
        }
    }

    /// The recovery ladder's cluster rung: every doomed job surrenders
    /// its lease (`revoke_failed` — surviving ranks return to the pool),
    /// discards its slice, and is either re-admitted from its last
    /// checkpoint under exponential backoff or circuit-broken into
    /// quarantine.
    fn recover_failed(&mut self) {
        let mut i = 0;
        while i < self.running.len() {
            if !self.running[i].doomed {
                i += 1;
                continue;
            }
            let mut r = self.running.swap_remove(i);
            let dead = self.pool.revoke_failed(r.lease);
            self.log.record(Event {
                job: Some(r.job.id),
                class: Some(r.job.spec.priority),
                step: Some(r.job.clock.step),
                ranks: dead.clone(),
                lost_steps: Some(r.job.clock.step.saturating_sub(r.job.last_ckpt_step)),
                ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Revoke)
            });
            r.job.fail_over();
            if r.job.recoveries >= self.cfg.quarantine_limit {
                let why = format!(
                    "recovery budget exhausted: {} node-failure recoveries \
                     (limit {}); last failure killed rank(s) {:?}",
                    r.job.recoveries, self.cfg.quarantine_limit, dead
                );
                self.finish(r.job, JobOutcome::Quarantined(why));
                continue;
            }
            // Bounded exponential backoff before the next placement try.
            let k = r.job.recoveries.max(1);
            let backoff = RECOVERY_BACKOFF_BASE
                .saturating_mul(1u64 << (k - 1).min(16))
                .min(self.cfg.recovery_backoff_max);
            r.job.eligible_at_tick = self.tick_no + backoff;
            r.job.failed_at_sim_us = Some(self.sim_clock_us);
            self.requeue(r.job);
        }
    }

    /// Straggler mitigation: a gang observing ≥ N× its modeled step cost
    /// is checkpoint-migrated off the slow node — but only when enough
    /// healthy ranks are actually free to take it (otherwise migrating
    /// just parks the job behind the same stragglers).
    fn mitigate_stragglers(&mut self) {
        if self.fault_model.is_none() {
            return;
        }
        let slow_nodes = self.slow_nodes();
        if slow_nodes.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.running.len() {
            let r = &self.running[i];
            let movable = r.status == SliceStatus::Ran
                && !r.doomed
                && r.slow >= STRAGGLER_MIGRATE_FACTOR
                && r.job.migrations < MAX_MIGRATIONS
                && self.pool.free_outside(&slow_nodes) >= r.job.ranks_needed;
            if !movable {
                i += 1;
                continue;
            }
            let mut r = self.running.swap_remove(i);
            match r.job.migrate() {
                Ok(()) => {
                    self.log.record(Event {
                        job: Some(r.job.id),
                        class: Some(r.job.spec.priority),
                        step: Some(r.job.clock.step),
                        detail: format!("observed {:.1}x modeled step cost", r.slow),
                        ..Event::new(self.sim_clock_us, self.tick_no, EventKind::Migrate)
                    });
                    self.pool.release(r.lease);
                    self.requeue(r.job);
                }
                Err(why) => {
                    self.pool.release(r.lease);
                    self.finish(r.job, JobOutcome::Failed(format!("migrate: {why}")));
                }
            }
        }
    }

    fn retire(&mut self) {
        let mut i = 0;
        while i < self.running.len() {
            match &self.running[i].status {
                SliceStatus::Ran => i += 1,
                SliceStatus::Finished => {
                    let r = self.running.swap_remove(i);
                    self.pool.release(r.lease);
                    self.finish(r.job, JobOutcome::Completed);
                }
                SliceStatus::Failed(why) => {
                    let why = why.clone();
                    let r = self.running.swap_remove(i);
                    self.pool.release(r.lease);
                    self.finish(r.job, JobOutcome::Failed(why));
                }
            }
        }
    }

    /// Put an evicted or failed-over job back in the queue.
    fn requeue(&mut self, mut job: Job) {
        job.queued_at = Instant::now();
        self.queue.push_back(job);
        self.queue_peak = self.queue_peak.max(self.queue.len());
    }

    fn finish(&mut self, job: Job, outcome: JobOutcome) {
        job.flush_telemetry();
        let latency_s = job.submitted_at.elapsed().as_secs_f64();
        let deadline_met = job.spec.deadline_s.map(|d| latency_s <= d);
        let (kind, detail) = match &outcome {
            JobOutcome::Completed => (EventKind::Complete, String::new()),
            JobOutcome::Failed(why) => (EventKind::Fail, why.clone()),
            JobOutcome::Quarantined(why) => (EventKind::Quarantine, why.clone()),
        };
        self.log.record(Event {
            job: Some(job.id),
            class: Some(job.spec.priority),
            step: Some(job.clock.step),
            latency_s: Some(latency_s),
            deadline_s: job.spec.deadline_s,
            detail,
            ..Event::new(self.sim_clock_us, self.tick_no, kind)
        });
        let steps = job.memory.snapshot();
        self.records.push(JobRecord {
            id: job.id,
            scenario: job.spec.scenario,
            network: job.spec.network,
            priority: job.spec.priority,
            resolution: job.spec.resolution,
            nodes: job.spec.nodes,
            ranks: job.ranks_needed,
            steps_done: job.clock.step,
            steps_requested: job.spec.steps,
            outcome,
            preemptions: job.preemptions,
            recoveries: job.recoveries,
            migrations: job.migrations,
            latency_s,
            deadline_met,
            ckpt_every: job.ckpt_every,
            final_digest: job.state_digest(),
            sim_us: job.sim_us,
            zones: job.zones(),
            step_records: steps.len() as u64,
        });
    }

    /// The service-level summary: every count and SLO metric is the
    /// event log's tally; latency percentiles come from the terminal job
    /// records, utilization and queue peak from the pool and queue.
    pub fn report(&self) -> ServiceReport {
        let tally = self.log.tally();
        let completed = tally.count(EventKind::Complete) as usize;
        let wall_s = self.started_at.elapsed().as_secs_f64();
        let mut latencies: Vec<f64> = self
            .records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Completed))
            .map(|r| r.latency_s)
            .collect();
        sort_total(&mut latencies);
        let utilization = if wall_s > 0.0 && self.pool.total() > 0 {
            self.leased_rank_seconds / (wall_s * self.pool.total() as f64)
        } else {
            0.0
        };
        let deadline_hit_rate =
            (tally.deadlined > 0).then(|| tally.deadlines_met as f64 / tally.deadlined as f64);
        let queue_wait_by_class = [
            PriorityClass::Batch,
            PriorityClass::Normal,
            PriorityClass::High,
        ]
        .iter()
        .filter_map(|&class| {
            let mut waits: Vec<f64> = tally
                .queue_waits
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, w)| w)
                .collect();
            if waits.is_empty() {
                return None;
            }
            sort_total(&mut waits);
            Some(ClassQueueWait {
                class,
                samples: waits.len(),
                p50_s: percentile(&waits, 0.50),
                p99_s: percentile(&waits, 0.99),
            })
        })
        .collect();
        ServiceReport {
            wall_s,
            submitted: tally.count(EventKind::Admit) + tally.count(EventKind::Reject),
            rejected: tally.count(EventKind::Reject),
            completed,
            failed: tally.count(EventKind::Fail) as usize,
            quarantined: tally.count(EventKind::Quarantine) as usize,
            preemptions: tally.count(EventKind::Preempt),
            node_failures: tally.count(EventKind::NodeFail),
            lease_revocations: tally.count(EventKind::Revoke),
            recoveries: tally.count(EventKind::Recover),
            straggler_migrations: tally.count(EventKind::Migrate),
            queue_depth: self.queue.len(),
            queue_peak: self.queue_peak,
            queue_bound: self.cfg.queue_bound,
            running: self.running.len(),
            total_ranks: self.pool.total(),
            ranks_in_service: self.pool.in_service(),
            rank_utilization: utilization,
            jobs_per_hour: if wall_s > 0.0 {
                completed as f64 * 3600.0 / wall_s
            } else {
                0.0
            },
            latency_p50_s: percentile(&latencies, 0.50),
            latency_p99_s: percentile(&latencies, 0.99),
            deadline_hit_rate,
            queue_wait_by_class,
            mttr_s: tally.mttr_s.clone(),
            jobs: self.records.clone(),
        }
    }

    /// Surface any deferred event-sink IO error (e.g. the JSONL stream
    /// hit a full disk mid-run).
    pub fn flush_events(&self) -> std::io::Result<()> {
        self.log.flush()
    }
}

/// Total-order ascending sort for latency samples. `total_cmp` (not
/// `partial_cmp().unwrap()`) so a NaN — e.g. from a poisoned wall-clock
/// reading — sorts to the end instead of panicking the report path.
fn sort_total(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_sort_survives_nan() {
        // Regression: the report path used partial_cmp().unwrap(), which
        // panics the whole service summary on a single NaN sample.
        let mut v = vec![3.0, f64::NAN, 1.0, 2.0, f64::NAN];
        sort_total(&mut v);
        assert_eq!(&v[..3], &[1.0, 2.0, 3.0]);
        assert!(v[3].is_nan() && v[4].is_nan(), "NaNs sort last: {v:?}");
        // Percentiles over the finite prefix stay sane.
        assert_eq!(percentile(&v[..3], 0.50), 2.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
