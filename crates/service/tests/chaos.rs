//! Chaos tests: the service under a cluster that fails underneath it.
//!
//! The acceptance bar (ISSUE 8): a run with ≥3 injected node crashes and
//! ≥1 straggler completes every non-quarantined job with a final digest
//! bit-identical to an uninterrupted run; quarantine is a circuit
//! breaker with a structured reason, never a hang; and the fairness
//! invariants of the perfect-cluster scheduler survive random failure
//! schedules.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use exastro_machine::NodeFaultConfig;
use exastro_service::{
    JobOutcome, JobSpec, NetChoice, PriorityClass, Scenario, Service, ServiceConfig, SubmitError,
};

fn base_cfg(tag: &str, nodes: usize) -> ServiceConfig {
    ServiceConfig {
        nodes,
        ckpt_root: std::env::temp_dir().join(format!("exastro_chaos_{tag}_{}", std::process::id())),
        ..Default::default()
    }
}

/// Run one job alone on an uncontended, fault-free service and return its
/// final digest — the ground truth every chaos-ridden run must reproduce.
fn solo_digest(tag: &str, spec: JobSpec) -> u32 {
    let mut svc = Service::new(base_cfg(tag, spec.nodes));
    let id = svc.submit(spec).expect("solo submit");
    assert!(svc.run_until_idle(10_000), "solo run must drain");
    let report = svc.report();
    let rec = report.jobs.iter().find(|r| r.id == id).expect("record");
    assert_eq!(rec.outcome, JobOutcome::Completed, "solo run must complete");
    rec.final_digest
}

/// Process-wide digest cache for the proptest (the solo ground truth for
/// a given spec shape never changes).
fn cached_solo_digest(scenario_idx: usize, steps: u64) -> u32 {
    static CACHE: OnceLock<Mutex<HashMap<(usize, u64), u32>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(d) = cache.lock().unwrap().get(&(scenario_idx, steps)) {
        return *d;
    }
    let spec = JobSpec {
        scenario: [Scenario::SedovBlast, Scenario::ReactingBubble][scenario_idx],
        resolution: 8,
        steps,
        ..Default::default()
    };
    let d = solo_digest(&format!("cache_{scenario_idx}_{steps}"), spec);
    cache.lock().unwrap().insert((scenario_idx, steps), d);
    d
}

/// The tentpole acceptance test: a mixed tenant population on a 4-node
/// pool while the fault model kills nodes (with repair) and throws a
/// straggler wave. Every job must complete with the solo digest; the run
/// must actually have seen ≥3 node crashes, lease revocations with
/// checkpoint recoveries, and ≥1 straggler migration.
#[test]
fn chaos_recovery_is_bit_exact() {
    let tenants = [
        JobSpec {
            scenario: Scenario::SedovBlast,
            resolution: 12,
            steps: 10,
            priority: PriorityClass::Batch,
            ..Default::default()
        },
        JobSpec {
            scenario: Scenario::XrbFlame,
            network: NetChoice::TripleAlpha,
            resolution: 8,
            steps: 8,
            ..Default::default()
        },
        JobSpec {
            scenario: Scenario::ReactingBubble,
            resolution: 12,
            steps: 6,
            ..Default::default()
        },
        JobSpec {
            scenario: Scenario::SedovBlast,
            resolution: 8,
            steps: 12,
            ..Default::default()
        },
        JobSpec {
            scenario: Scenario::SedovBlast,
            resolution: 12,
            steps: 6,
            priority: PriorityClass::High,
            ..Default::default()
        },
        JobSpec {
            scenario: Scenario::ReactingBubble,
            resolution: 8,
            steps: 8,
            priority: PriorityClass::Batch,
            ..Default::default()
        },
    ];
    let want: Vec<u32> = tenants
        .iter()
        .enumerate()
        .map(|(i, s)| solo_digest(&format!("solo{i}"), s.clone()))
        .collect();

    // Five nodes for six 1-node gangs: enough headroom that a straggler
    // migration can actually find free healthy ranks to move into.
    let mut cfg = base_cfg("storm", 5);
    cfg.quarantine_limit = 10; // generous: this run must *complete*, the
                               // circuit breaker has its own test below
    cfg.idle_tick_sim_us = 2_000.0; // keep backoff windows on the same
                                    // timescale as the ~1.8 ms steps
    cfg.faults = Some(NodeFaultConfig {
        seed: 0xC4A05,
        node_mtbf_s: 0.025,
        repair_s: Some(0.020),
        straggler_mtbf_s: 0.030,
        straggler_factor: 4.0,
        straggler_duration_s: 0.050,
    });
    let mut svc = Service::new(cfg);
    let ids: Vec<_> = tenants
        .iter()
        .map(|s| svc.submit(s.clone()).expect("tenant admits"))
        .collect();
    assert!(
        svc.run_until_idle(100_000),
        "chaos run must drain, not wedge"
    );

    let report = svc.report();
    assert!(
        report.node_failures >= 3,
        "the storm must inject >=3 node crashes, got {}",
        report.node_failures
    );
    assert!(
        report.lease_revocations >= 1 && report.recoveries >= 1,
        "crashes must revoke leases and recover from checkpoint \
         (revocations {}, recoveries {})",
        report.lease_revocations,
        report.recoveries
    );
    assert!(
        report.straggler_migrations >= 1,
        "the straggler wave must force >=1 checkpoint-migration, got {}",
        report.straggler_migrations
    );
    for (id, want) in ids.iter().zip(&want) {
        let rec = report.jobs.iter().find(|r| r.id == *id).expect("record");
        match &rec.outcome {
            JobOutcome::Completed => {
                assert_eq!(rec.steps_done, rec.steps_requested, "{id:?}");
                assert_eq!(
                    rec.final_digest, *want,
                    "{id:?}: recovery must be bit-identical to the \
                     uninterrupted run"
                );
            }
            JobOutcome::Quarantined(reason) => {
                assert!(!reason.is_empty(), "{id:?}: quarantine needs a reason");
            }
            JobOutcome::Failed(why) => {
                panic!("{id:?} must complete or quarantine under chaos, not fail: {why}")
            }
        }
    }
    assert!(
        report.completed >= 5,
        "with repair enabled nearly all jobs must finish, got {} of 6",
        report.completed
    );
}

/// The circuit breaker: on a machine whose single node dies faster than
/// any job can finish (and always comes right back, so capacity is never
/// the blocker), a job burns its recovery budget and is quarantined with
/// a structured reason instead of cycling through the machine forever.
#[test]
fn poison_job_is_quarantined_not_looped() {
    let mut cfg = base_cfg("poison", 1);
    cfg.quarantine_limit = 3;
    cfg.recovery_backoff_max = 2;
    cfg.idle_tick_sim_us = 1_000.0;
    cfg.faults = Some(NodeFaultConfig {
        seed: 99,
        node_mtbf_s: 0.002, // dies roughly every slice
        repair_s: Some(0.0005),
        ..Default::default()
    });
    let mut svc = Service::new(cfg);
    let id = svc
        .submit(JobSpec {
            resolution: 8,
            steps: 40,
            ..Default::default()
        })
        .unwrap();
    assert!(
        svc.run_until_idle(100_000),
        "the breaker must trip and the service go idle, not spin forever"
    );
    let report = svc.report();
    let rec = report.jobs.iter().find(|r| r.id == id).expect("record");
    match &rec.outcome {
        JobOutcome::Quarantined(reason) => {
            assert!(
                reason.contains("recovery budget") || reason.contains("capacity"),
                "reason must be structured, got: {reason}"
            );
        }
        other => panic!("poison job must be quarantined, got {other:?}"),
    }
    assert_eq!(report.quarantined, 1);
    assert!(report.recoveries >= 1 || report.node_failures >= 1);
}

/// Graceful degradation: when the dead node never comes back and the
/// only gang no longer fits the surviving machine, the job re-queues and
/// is eventually quarantined for capacity — the scheduler itself never
/// wedges (run_until_idle returns, the queue drains).
#[test]
fn dead_capacity_quarantines_instead_of_wedging() {
    let mut cfg = base_cfg("shrink", 2);
    cfg.capacity_patience = 30;
    cfg.idle_tick_sim_us = 5_000.0;
    cfg.faults = Some(NodeFaultConfig {
        seed: 7,
        node_mtbf_s: 0.004,
        repair_s: None, // dead is dead
        ..Default::default()
    });
    let mut svc = Service::new(cfg);
    // A 2-node gang: once either node dies it can never fit again.
    let big = svc
        .submit(JobSpec {
            resolution: 8,
            nodes: 2,
            steps: 200,
            ..Default::default()
        })
        .unwrap();
    assert!(svc.run_until_idle(100_000), "shrunken service must go idle");
    let report = svc.report();
    assert!(report.node_failures >= 1, "the pool must actually shrink");
    let rec = report.jobs.iter().find(|r| r.id == big).expect("record");
    match &rec.outcome {
        JobOutcome::Quarantined(reason) => {
            assert!(
                reason.contains("capacity") || reason.contains("recovery budget"),
                "unexpected reason: {reason}"
            );
        }
        JobOutcome::Completed => panic!("200 steps cannot finish before both nodes die"),
        JobOutcome::Failed(why) => panic!("must quarantine, not fail: {why}"),
    }
    assert!(
        report.ranks_in_service < report.total_ranks,
        "report must expose the shrunken pool"
    );
}

mod chaos_fairness {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The PR 7 fairness/liveness invariants under random node-failure
        /// schedules: the queue bound holds, the scheduler never
        /// deadlocks, and every admitted job either completes bit-exactly
        /// (vs the fault-free solo ground truth) or is quarantined with a
        /// structured reason.
        #[test]
        fn every_job_completes_bit_exact_or_quarantines(
            seed in 0u64..1_000_000,
            mtbf_ms in 5u64..80,
            repairs in 0u64..2,
            scenarios in prop::collection::vec(0..2usize, 1..8),
            classes in prop::collection::vec(0..3usize, 1..8),
            steps in prop::collection::vec(1u64..4, 1..8),
        ) {
            let mut cfg = base_cfg(&format!("fair{seed}_{mtbf_ms}"), 2);
            cfg.queue_bound = 4;
            cfg.idle_tick_sim_us = 2_000.0;
            cfg.capacity_patience = 50;
            cfg.faults = Some(NodeFaultConfig {
                seed,
                node_mtbf_s: mtbf_ms as f64 * 1e-3,
                repair_s: (repairs == 1).then_some(0.01),
                straggler_mtbf_s: 0.05,
                straggler_factor: 3.0,
                straggler_duration_s: 0.02,
            });
            let mut svc = Service::new(cfg);
            let mut admitted = Vec::new();
            let n = scenarios.len().min(classes.len()).min(steps.len());
            for i in 0..n {
                let spec = JobSpec {
                    scenario: [Scenario::SedovBlast, Scenario::ReactingBubble][scenarios[i]],
                    priority: [
                        PriorityClass::Batch,
                        PriorityClass::Normal,
                        PriorityClass::High,
                    ][classes[i]],
                    resolution: 8,
                    steps: steps[i],
                    ..Default::default()
                };
                match svc.submit(spec) {
                    Ok(id) => admitted.push((id, scenarios[i], steps[i])),
                    Err(SubmitError::QueueFull { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
                prop_assert!(svc.queue_depth() <= 4, "queue exceeded its bound");
                if i % 2 == 1 {
                    svc.tick();
                }
            }
            prop_assert!(
                svc.run_until_idle(50_000),
                "service deadlocked under the failure schedule"
            );
            let report = svc.report();
            // Every admitted job must reach a terminal state, and chaos
            // must never surface as a driver-level Failed outcome.
            prop_assert_eq!(
                report.completed + report.failed + report.quarantined,
                admitted.len()
            );
            prop_assert_eq!(report.failed, 0);
            for (id, scenario_idx, steps) in admitted {
                let rec = report.jobs.iter().find(|r| r.id == id);
                prop_assert!(rec.is_some(), "admitted job vanished");
                let rec = rec.unwrap();
                match &rec.outcome {
                    JobOutcome::Completed => {
                        prop_assert_eq!(rec.steps_done, rec.steps_requested);
                        // Digest must match the fault-free ground truth.
                        prop_assert_eq!(
                            rec.final_digest,
                            cached_solo_digest(scenario_idx, steps)
                        );
                    }
                    JobOutcome::Quarantined(reason) => {
                        prop_assert!(!reason.is_empty());
                    }
                    JobOutcome::Failed(why) => {
                        return Err(TestCaseError::fail(format!("job failed: {why}")));
                    }
                }
            }
        }
    }
}
