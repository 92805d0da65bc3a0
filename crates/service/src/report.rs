//! Service-level and per-job summaries.

use crate::spec::{JobId, NetChoice, PriorityClass, Scenario};
use exastro_telemetry::json;

/// How a job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran all requested steps.
    Completed,
    /// Died on an unrecoverable driver error (the message says why).
    Failed(String),
    /// Circuit-broken by the scheduler: the job exhausted its recovery
    /// budget (or waited out degraded capacity) and was parked with a
    /// structured reason instead of looping through the machine forever.
    Quarantined(String),
}

/// Terminal record of one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Service-assigned id.
    pub id: JobId,
    /// Scenario the job ran.
    pub scenario: Scenario,
    /// Network it burned with.
    pub network: NetChoice,
    /// Deadline/priority class.
    pub priority: PriorityClass,
    /// Zones per side.
    pub resolution: i32,
    /// Nodes requested.
    pub nodes: usize,
    /// Ranks leased while running.
    pub ranks: usize,
    /// Steps actually completed.
    pub steps_done: u64,
    /// Steps the spec asked for.
    pub steps_requested: u64,
    /// Completed, failed (with reason), or quarantined (with reason).
    pub outcome: JobOutcome,
    /// Times the job was checkpointed off the machine for a higher class.
    pub preemptions: u32,
    /// Times the job was re-admitted from checkpoint after its ranks died.
    pub recoveries: u32,
    /// Times the job was checkpoint-migrated off a straggling node.
    pub migrations: u32,
    /// Submit → terminal wall seconds.
    pub latency_s: f64,
    /// Whether the soft deadline was met (when one was set).
    pub deadline_met: Option<bool>,
    /// Checkpoint cadence used, steps (the service's Young/Daly value).
    pub ckpt_every: u64,
    /// CRC32 of the final conserved state (bit-exactness probe).
    pub final_digest: u32,
    /// Modeled machine microseconds consumed.
    pub sim_us: f64,
    /// Zones in the job's domain.
    pub zones: u64,
    /// Step-metrics records captured for this job.
    pub step_records: u64,
}

/// Per-class queue-latency SLO: wall seconds from queue entry (admission
/// or requeue) to placement, nearest-rank percentiles.
#[derive(Clone, Debug)]
pub struct ClassQueueWait {
    /// The priority class the samples belong to.
    pub class: PriorityClass,
    /// Placements measured.
    pub samples: usize,
    /// Median queue wait, seconds.
    pub p50_s: f64,
    /// 99th-percentile queue wait, seconds.
    pub p99_s: f64,
}

/// Point-in-time service summary (see [`crate::Service::report`]).
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Wall seconds since the service started.
    pub wall_s: f64,
    /// Jobs ever submitted (admitted or not).
    pub submitted: u64,
    /// Submissions refused (backpressure or invalid spec).
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: usize,
    /// Jobs that died on a driver error.
    pub failed: usize,
    /// Jobs circuit-broken into quarantine.
    pub quarantined: usize,
    /// Preemption events (checkpoint → requeue → resume elsewhere).
    pub preemptions: u64,
    /// Node-kill events the fault model injected under the service.
    pub node_failures: u64,
    /// Leases surrendered because their ranks died.
    pub lease_revocations: u64,
    /// Successful re-admissions from checkpoint after a node failure.
    pub recoveries: u64,
    /// Checkpoint-migrations off straggling nodes.
    pub straggler_migrations: u64,
    /// Jobs waiting right now.
    pub queue_depth: usize,
    /// Deepest the queue ever got.
    pub queue_peak: usize,
    /// The configured admission bound.
    pub queue_bound: usize,
    /// Jobs on the machine right now.
    pub running: usize,
    /// Ranks in the pool.
    pub total_ranks: usize,
    /// Ranks currently in service (total minus dead-and-unrepaired).
    pub ranks_in_service: usize,
    /// Leased rank-seconds over available rank-seconds, 0..1.
    pub rank_utilization: f64,
    /// Completed jobs per hour of service wall time.
    pub jobs_per_hour: f64,
    /// Median completed-job latency, seconds.
    pub latency_p50_s: f64,
    /// 99th-percentile completed-job latency, seconds.
    pub latency_p99_s: f64,
    /// Fraction of deadlined jobs that met their deadline (`None` when no
    /// terminal job carried one) — the headline SLO.
    pub deadline_hit_rate: Option<f64>,
    /// Queue-latency percentiles per priority class (classes with no
    /// placements are omitted).
    pub queue_wait_by_class: Vec<ClassQueueWait>,
    /// Time-to-recovery series: simulated seconds from each rank death to
    /// the job's renewed placement, in occurrence order.
    pub mttr_s: Vec<f64>,
    /// Terminal records, in completion order.
    pub jobs: Vec<JobRecord>,
}

impl ServiceReport {
    /// Hand-rolled JSON rendering (the workspace is registry-free: no
    /// serde). Failed jobs carry an `"error"` key, quarantined jobs a
    /// `"reason"` key; CI schema-checks both.
    pub fn to_json(&self) -> String {
        let r = self;
        let mut s = String::from("{\n");
        s += &format!("  \"wall_s\": {},\n", json::num(r.wall_s));
        s += &format!("  \"submitted\": {},\n", r.submitted);
        s += &format!("  \"rejected\": {},\n", r.rejected);
        s += &format!("  \"completed\": {},\n", r.completed);
        s += &format!("  \"failed\": {},\n", r.failed);
        s += &format!("  \"quarantined\": {},\n", r.quarantined);
        s += &format!("  \"preemptions\": {},\n", r.preemptions);
        s += &format!("  \"node_failures\": {},\n", r.node_failures);
        s += &format!("  \"lease_revocations\": {},\n", r.lease_revocations);
        s += &format!("  \"recoveries\": {},\n", r.recoveries);
        s += &format!("  \"straggler_migrations\": {},\n", r.straggler_migrations);
        s += &format!("  \"queue_peak\": {},\n", r.queue_peak);
        s += &format!("  \"queue_bound\": {},\n", r.queue_bound);
        s += &format!("  \"total_ranks\": {},\n", r.total_ranks);
        s += &format!("  \"ranks_in_service\": {},\n", r.ranks_in_service);
        s += &format!(
            "  \"rank_utilization\": {},\n",
            json::num(r.rank_utilization)
        );
        s += &format!("  \"jobs_per_hour\": {},\n", json::num(r.jobs_per_hour));
        s += &format!("  \"latency_p50_s\": {},\n", json::num(r.latency_p50_s));
        s += &format!("  \"latency_p99_s\": {},\n", json::num(r.latency_p99_s));
        s += &format!(
            "  \"deadline_hit_rate\": {},\n",
            json::num(r.deadline_hit_rate.unwrap_or(f64::NAN))
        );
        s += "  \"queue_wait_by_class\": [\n";
        for (i, q) in r.queue_wait_by_class.iter().enumerate() {
            s += &format!(
                "    {{\"class\": \"{}\", \"samples\": {}, \"p50_s\": {}, \"p99_s\": {}}}{}\n",
                q.class.name(),
                q.samples,
                json::num(q.p50_s),
                json::num(q.p99_s),
                if i + 1 < r.queue_wait_by_class.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        s += "  ],\n";
        let mttr: Vec<String> = r.mttr_s.iter().map(|&v| json::num(v)).collect();
        s += &format!("  \"mttr_s\": [{}],\n", mttr.join(", "));
        s += "  \"jobs\": [\n";
        for (i, j) in r.jobs.iter().enumerate() {
            s += "    {";
            s += &format!("\"id\": \"{}\", ", j.id);
            s += &format!("\"scenario\": \"{}\", ", j.scenario.name());
            s += &format!("\"network\": \"{}\", ", j.network.name());
            s += &format!("\"priority\": \"{}\", ", j.priority.name());
            s += &format!("\"resolution\": {}, ", j.resolution);
            s += &format!("\"nodes\": {}, ", j.nodes);
            s += &format!("\"ranks\": {}, ", j.ranks);
            s += &format!("\"steps_done\": {}, ", j.steps_done);
            s += &format!("\"steps_requested\": {}, ", j.steps_requested);
            match &j.outcome {
                JobOutcome::Completed => s += "\"outcome\": \"completed\", ",
                JobOutcome::Failed(why) => {
                    s += &format!(
                        "\"outcome\": \"failed\", \"error\": \"{}\", ",
                        json::escape(why)
                    );
                }
                JobOutcome::Quarantined(why) => {
                    s += &format!(
                        "\"outcome\": \"quarantined\", \"reason\": \"{}\", ",
                        json::escape(why)
                    );
                }
            }
            s += &format!("\"preemptions\": {}, ", j.preemptions);
            s += &format!("\"recoveries\": {}, ", j.recoveries);
            s += &format!("\"migrations\": {}, ", j.migrations);
            s += &format!("\"latency_s\": {}, ", json::num(j.latency_s));
            s += &format!(
                "\"deadline_met\": {}, ",
                match j.deadline_met {
                    Some(b) => b.to_string(),
                    None => "null".into(),
                }
            );
            s += &format!("\"ckpt_every\": {}, ", j.ckpt_every);
            s += &format!("\"final_digest\": {}, ", j.final_digest);
            s += &format!("\"sim_us\": {}, ", json::num(j.sim_us));
            s += &format!("\"zones\": {}, ", j.zones);
            s += &format!("\"step_records\": {}", j.step_records);
            s += if i + 1 < r.jobs.len() { "},\n" } else { "}\n" };
        }
        s += "  ]\n}\n";
        s
    }
}

impl std::fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "service: {:.2}s wall | {} submitted ({} rejected) | {} completed, {} failed, \
             {} quarantined | {} preemption(s)",
            self.wall_s,
            self.submitted,
            self.rejected,
            self.completed,
            self.failed,
            self.quarantined,
            self.preemptions
        )?;
        writeln!(
            f,
            "queue: depth {} (peak {}, bound {}) | running {} | {} ranks at {:.1}% utilization",
            self.queue_depth,
            self.queue_peak,
            self.queue_bound,
            self.running,
            self.total_ranks,
            100.0 * self.rank_utilization
        )?;
        if self.node_failures > 0 || self.total_ranks != self.ranks_in_service {
            writeln!(
                f,
                "chaos: {} node failure(s) | {} lease revocation(s) | {} recovery(ies) | \
                 {} straggler migration(s) | {}/{} ranks in service",
                self.node_failures,
                self.lease_revocations,
                self.recoveries,
                self.straggler_migrations,
                self.ranks_in_service,
                self.total_ranks
            )?;
        }
        writeln!(
            f,
            "throughput: {:.1} jobs/hour | latency p50 {:.3}s p99 {:.3}s",
            self.jobs_per_hour, self.latency_p50_s, self.latency_p99_s
        )?;
        if let Some(rate) = self.deadline_hit_rate {
            writeln!(f, "slo: deadline hit rate {:.1}%", 100.0 * rate)?;
        }
        for q in &self.queue_wait_by_class {
            writeln!(
                f,
                "slo: queue wait [{}] p50 {:.3}s p99 {:.3}s over {} placement(s)",
                q.class.name(),
                q.p50_s,
                q.p99_s,
                q.samples
            )?;
        }
        writeln!(
            f,
            "{:>9} {:>16} {:>12} {:>7} {:>6} {:>6} {:>6} {:>5} {:>7} {:>9} {:>11}",
            "job",
            "scenario",
            "net",
            "class",
            "res",
            "steps",
            "preempt",
            "recov",
            "ckpt",
            "latency",
            "outcome"
        )?;
        for r in &self.jobs {
            let outcome = match &r.outcome {
                JobOutcome::Completed => "ok",
                JobOutcome::Failed(_) => "FAILED",
                JobOutcome::Quarantined(_) => "QUARANTINED",
            };
            writeln!(
                f,
                "{:>9} {:>16} {:>12} {:>7} {:>6} {:>6} {:>7} {:>5} {:>7} {:>8.3}s {:>11}",
                r.id.to_string(),
                r.scenario.name(),
                r.network.name(),
                r.priority.name(),
                r.resolution,
                r.steps_done,
                r.preemptions,
                r.recoveries,
                r.ckpt_every,
                r.latency_s,
                outcome
            )?;
        }
        Ok(())
    }
}
