//! End-to-end service tests: preemption/migration bit-exactness, failure
//! isolation, and scheduler liveness.

use std::sync::Arc;

use exastro_service::{
    Event, EventKind, JobOutcome, JobSpec, NetChoice, PriorityClass, Scenario, Service,
    ServiceConfig, SubmitError,
};
use exastro_telemetry::MemorySink;

fn test_cfg(tag: &str, nodes: usize) -> ServiceConfig {
    ServiceConfig {
        nodes,
        ckpt_root: std::env::temp_dir().join(format!("exastro_svc_{tag}_{}", std::process::id())),
        ..Default::default()
    }
}

/// Run one job alone on an uncontended service and return its final digest.
fn solo_digest(tag: &str, spec: JobSpec) -> u32 {
    let mut svc = Service::new(test_cfg(tag, 1));
    let id = svc.submit(spec).expect("solo submit");
    assert!(svc.run_until_idle(10_000), "solo run must drain");
    let report = svc.report();
    let rec = report.jobs.iter().find(|r| r.id == id).expect("record");
    assert_eq!(rec.outcome, JobOutcome::Completed, "solo run must complete");
    assert_eq!(rec.steps_done, rec.steps_requested);
    rec.final_digest
}

/// The tentpole acceptance test: a high-priority arrival preempts two
/// running low-priority jobs (checkpoint → requeue), which later resume —
/// generally on different ranks — and finish with states bit-identical to
/// uninterrupted runs of the same specs.
#[test]
fn preempt_migrate_resume_is_bit_exact_castro() {
    let spec_a = JobSpec {
        scenario: Scenario::SedovBlast,
        resolution: 12,
        steps: 10,
        priority: PriorityClass::Batch,
        ..Default::default()
    };
    let spec_c = JobSpec {
        scenario: Scenario::XrbFlame,
        network: NetChoice::TripleAlpha,
        resolution: 8,
        steps: 8,
        priority: PriorityClass::Batch,
        ..Default::default()
    };
    let want_a = solo_digest("solo_a", spec_a.clone());
    let want_c = solo_digest("solo_c", spec_c.clone());

    // Two nodes: A and C fill the pool; the 2-node High job must evict both.
    let mut svc = Service::new(test_cfg("contended", 2));
    let id_a = svc.submit(spec_a).unwrap();
    let id_c = svc.submit(spec_c).unwrap();
    svc.tick(); // place A and C, run their first slice
    assert_eq!(svc.running_count(), 2);
    let id_b = svc
        .submit(JobSpec {
            scenario: Scenario::SedovBlast,
            resolution: 12,
            nodes: 2,
            steps: 4,
            priority: PriorityClass::High,
            ..Default::default()
        })
        .unwrap();
    assert!(svc.run_until_idle(10_000), "contended run must drain");

    let report = svc.report();
    assert!(
        report.preemptions >= 2,
        "both low jobs must have been checkpointed off the machine, got {}",
        report.preemptions
    );
    let rec = |id| report.jobs.iter().find(|r| r.id == id).expect("record");
    for (id, want) in [(id_a, want_a), (id_c, want_c)] {
        let r = rec(id);
        assert_eq!(r.outcome, JobOutcome::Completed);
        assert!(r.preemptions >= 1, "{id:?} should have been preempted");
        assert_eq!(
            r.final_digest, want,
            "preempted+migrated job must end bit-identical to the solo run"
        );
    }
    assert_eq!(rec(id_b).outcome, JobOutcome::Completed);
    assert_eq!(rec(id_b).preemptions, 0, "High is never a victim here");
}

/// Same bit-exactness guarantee through the low-Mach (MAESTROeX) path,
/// whose checkpoints carry a 1-D base state alongside the field data.
#[test]
fn preempt_migrate_resume_is_bit_exact_maestro() {
    let spec = JobSpec {
        scenario: Scenario::ReactingBubble,
        resolution: 12,
        steps: 8,
        priority: PriorityClass::Batch,
        ..Default::default()
    };
    let want = solo_digest("solo_lm", spec.clone());

    let mut svc = Service::new(test_cfg("contended_lm", 1));
    let id = svc.submit(spec).unwrap();
    svc.tick(); // bubble starts on the full (one-node) pool
    let high = svc
        .submit(JobSpec {
            steps: 2,
            priority: PriorityClass::High,
            ..Default::default()
        })
        .unwrap();
    assert!(svc.run_until_idle(10_000));

    let report = svc.report();
    let r = report.jobs.iter().find(|r| r.id == id).unwrap();
    assert_eq!(r.outcome, JobOutcome::Completed);
    assert!(r.preemptions >= 1, "bubble must have been evicted");
    assert_eq!(r.final_digest, want, "low-Mach restart must be bit-exact");
    let h = report.jobs.iter().find(|r| r.id == high).unwrap();
    assert_eq!(h.outcome, JobOutcome::Completed);
}

/// Driver-level job failure (an unrecoverable burn) marks that job failed
/// and leaves every co-tenant untouched, for either physics: both drivers
/// fail through the one transactional step, so both reasons read alike.
#[test]
fn unrecoverable_burn_fails_only_that_job() {
    use exastro_microphysics::{BdfErrorKind, BurnFaultConfig};

    let mut svc = Service::new(test_cfg("blast_radius", 1));
    let fatal = Some(BurnFaultConfig {
        seed: 7,
        rate: 1.0,
        rungs_to_fail: 99, // deeper than the retry ladder: fatal
        error: BdfErrorKind::MaxSteps,
    });
    let doomed_castro = svc
        .submit(JobSpec {
            burn_faults: fatal.clone(),
            ..Default::default()
        })
        .unwrap();
    let doomed_maestro = svc
        .submit(JobSpec {
            scenario: Scenario::ReactingBubble,
            steps: 3,
            burn_faults: fatal,
            ..Default::default()
        })
        .unwrap();
    let bystander_a = svc.submit(JobSpec::default()).unwrap();
    let bystander_b = svc
        .submit(JobSpec {
            scenario: Scenario::ReactingBubble,
            steps: 3,
            ..Default::default()
        })
        .unwrap();
    assert!(svc.run_until_idle(10_000));

    let report = svc.report();
    assert_eq!(report.failed, 2);
    assert_eq!(report.completed, 2);
    let rec = |id| report.jobs.iter().find(|r| r.id == id).expect("record");
    for doomed in [doomed_castro, doomed_maestro] {
        let JobOutcome::Failed(reason) = &rec(doomed).outcome else {
            panic!("job {doomed:?} did not fail: {:?}", rec(doomed).outcome);
        };
        assert!(reason.contains("step unrecoverable after"), "{reason}");
        assert!(
            reason.contains("burn zone(s) failed all retries"),
            "{reason}"
        );
    }
    assert_eq!(rec(bystander_a).outcome, JobOutcome::Completed);
    assert_eq!(rec(bystander_b).outcome, JobOutcome::Completed);
}

/// Backpressure: the admission queue refuses, never buffers past its bound.
#[test]
fn queue_bound_is_backpressure_not_buffering() {
    let mut cfg = test_cfg("bound", 1);
    cfg.queue_bound = 3;
    let mut svc = Service::new(cfg);
    let mut admitted = 0;
    let mut refused = 0;
    for _ in 0..8 {
        match svc.submit(JobSpec {
            steps: 1,
            ..Default::default()
        }) {
            Ok(_) => admitted += 1,
            Err(SubmitError::QueueFull { bound }) => {
                assert_eq!(bound, 3);
                refused += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
        assert!(svc.queue_depth() <= 3, "queue grew past its bound");
    }
    assert_eq!(admitted, 3);
    assert_eq!(refused, 5);
    assert!(svc.run_until_idle(10_000));
    assert_eq!(svc.report().completed, 3);
}

/// Oversized (or overflowing), incompatible and badly-deadlined specs
/// are rejected outright, not queued.
#[test]
fn impossible_specs_are_rejected_at_submit() {
    let mut svc = Service::new(test_cfg("reject", 1));
    assert!(matches!(
        svc.submit(JobSpec {
            nodes: 5, // pool only has one node
            ..Default::default()
        }),
        Err(SubmitError::InvalidSpec(_))
    ));
    assert!(matches!(
        svc.submit(JobSpec {
            scenario: Scenario::XrbFlame,
            network: NetChoice::CBurn2, // no he4
            ..Default::default()
        }),
        Err(SubmitError::InvalidSpec(_))
    ));
    assert!(matches!(
        svc.submit(JobSpec {
            nodes: usize::MAX, // nodes x gpus_per_node overflows
            ..Default::default()
        }),
        Err(SubmitError::InvalidSpec(_))
    ));
    for deadline_s in [f64::NAN, -1.0] {
        assert!(matches!(
            svc.submit(JobSpec {
                deadline_s: Some(deadline_s),
                ..Default::default()
            }),
            Err(SubmitError::InvalidSpec(_))
        ));
    }
    assert_eq!(svc.queue_depth(), 0);
    let report = svc.report();
    assert_eq!(report.submitted, 5);
    assert_eq!(report.rejected, 5);
}

/// A submission whose telemetry files cannot be created is refused like
/// any other: counted in the report, logged as one `reject` event, and
/// it takes no job id.
#[test]
fn a_submission_that_fails_on_io_is_counted_logged_and_takes_no_id() {
    let dir = std::env::temp_dir().join(format!("exastro_svc_io_reject_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl_dir = dir.join("streams");
    std::fs::write(&jsonl_dir, b"a regular file, not a directory").unwrap();
    let memory = Arc::new(MemorySink::<Event>::new());
    let mut svc = Service::new(ServiceConfig {
        jsonl_dir: Some(jsonl_dir.clone()),
        events: Some(memory.clone()),
        ..test_cfg("io_reject", 1)
    });
    let spec = JobSpec {
        resolution: 8,
        steps: 1,
        ..Default::default()
    };
    let kinds = |m: &MemorySink<Event>| m.snapshot().iter().map(|e| e.kind).collect::<Vec<_>>();

    // The stream directory cannot be created.
    assert!(matches!(
        svc.submit(spec.clone()),
        Err(SubmitError::InvalidSpec(_))
    ));
    assert_eq!(svc.report().rejected, 1);
    assert_eq!(kinds(&memory), vec![EventKind::Reject]);

    // The directory exists, but the job's own stream file cannot be made.
    std::fs::remove_file(&jsonl_dir).unwrap();
    let stream = jsonl_dir.join("job-0000.steps.jsonl");
    std::fs::create_dir_all(&stream).unwrap();
    assert!(matches!(
        svc.submit(spec.clone()),
        Err(SubmitError::InvalidSpec(_))
    ));
    assert_eq!(svc.report().rejected, 2);
    assert_eq!(kinds(&memory), vec![EventKind::Reject; 2]);

    std::fs::remove_dir(&stream).unwrap();
    let id = svc.submit(spec).expect("admit once the files can be made");
    assert_eq!(id.to_string(), "job-0000");
    assert!(svc.run_until_idle(1_000));
    let report = svc.report();
    assert_eq!(report.submitted, report.rejected + report.jobs.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// After `MAX_PREEMPTIONS` (2) evictions a job is immune: a third
/// higher-class arrival waits for it to finish instead of evicting it, and
/// the twice-preempted job still ends bit-identical to its solo run.
#[test]
fn a_job_preempted_twice_is_immune_to_the_third_arrival() {
    let batch = JobSpec {
        resolution: 8,
        steps: 20,
        priority: PriorityClass::Batch,
        ..Default::default()
    };
    let high = JobSpec {
        resolution: 8,
        steps: 2,
        priority: PriorityClass::High,
        ..Default::default()
    };
    let want = solo_digest("immune_solo", batch.clone());

    let memory = Arc::new(MemorySink::<Event>::new());
    let mut svc = Service::new(ServiceConfig {
        events: Some(memory.clone()),
        ..test_cfg("immune", 1)
    });
    let id_batch = svc.submit(batch).unwrap();
    svc.tick(); // the batch job takes the only node
    let mut highs = Vec::new();
    for _ in 0..3 {
        highs.push(svc.submit(high.clone()).unwrap());
        // One tick for the arrival (it evicts the batch job or waits), one
        // for the batch job to get the node back.
        svc.tick();
        svc.tick();
    }
    assert!(svc.run_until_idle(10_000));

    let report = svc.report();
    let rec = |id| report.jobs.iter().find(|r| r.id == id).expect("record");
    assert_eq!(rec(id_batch).outcome, JobOutcome::Completed);
    assert_eq!(rec(id_batch).preemptions, 2);
    assert_eq!(rec(id_batch).final_digest, want);
    for &h in &highs {
        assert_eq!(rec(h).outcome, JobOutcome::Completed);
    }
    let log = memory.snapshot();
    let at = |kind, id| {
        log.iter()
            .position(|e| e.kind == kind && e.job == Some(id))
            .expect("event logged")
    };
    assert!(
        at(EventKind::Start, highs[2]) > at(EventKind::Complete, id_batch),
        "the third arrival must wait for the immune job to finish"
    );
    assert!(at(EventKind::Complete, highs[1]) < at(EventKind::Complete, id_batch));
}

/// Sum of the `checkpoint_bytes` column of a `steps.jsonl` file.
fn charged_checkpoint_bytes(path: &std::path::Path) -> u64 {
    let text = std::fs::read_to_string(path).expect("steps.jsonl written");
    text.lines()
        .map(|line| {
            let (_, rest) = line
                .split_once("\"checkpoint_bytes\": ")
                .expect("checkpoint_bytes column");
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().expect("an integer")
        })
        .sum()
}

/// A job's step records charge the payload of its own checkpoints and no
/// other job's: a 2-node High arrival evicts an 8³ and a 16³ Batch Sedov
/// job, each writes one eviction checkpoint (9 components × 8 bytes a
/// zone) and no scheduled one, and the High job writes none.
#[test]
fn each_job_is_charged_only_its_own_checkpoint_bytes() {
    let dir = std::env::temp_dir().join(format!("exastro_svc_ckpt_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut svc = Service::new(ServiceConfig {
        jsonl_dir: Some(dir.clone()),
        ..test_cfg("ckpt_bytes", 2)
    });
    let batch = |resolution| JobSpec {
        resolution,
        steps: 6,
        priority: PriorityClass::Batch,
        ..Default::default()
    };
    let small = svc.submit(batch(8)).unwrap();
    let big = svc.submit(batch(16)).unwrap();
    svc.tick(); // both victims take one node each
    assert_eq!(svc.running_count(), 2);
    let high = svc
        .submit(JobSpec {
            resolution: 8,
            nodes: 2,
            priority: PriorityClass::High,
            ..Default::default()
        })
        .unwrap();
    assert!(svc.run_until_idle(10_000));

    let report = svc.report();
    for (id, preemptions, payload) in [(small, 1, 36_864), (big, 1, 294_912), (high, 0, 0)] {
        let rec = report.jobs.iter().find(|r| r.id == id).expect("record");
        assert_eq!(rec.outcome, JobOutcome::Completed, "{id}");
        assert_eq!(rec.preemptions, preemptions, "{id}");
        assert!(
            rec.steps_done < rec.ckpt_every,
            "{id}: no scheduled checkpoint"
        );
        let path = dir.join(format!("{id}.steps.jsonl"));
        assert_eq!(charged_checkpoint_bytes(&path), payload, "{id}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

mod fairness {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Liveness + fairness under random mixes: the queue never exceeds
        /// its bound, every admitted job terminates (no starvation — the
        /// bypass guard bounds waiting), and completed jobs ran exactly the
        /// steps they asked for.
        #[test]
        fn every_admitted_job_terminates(
            scenarios in prop::collection::vec(0..2usize, 1..10),
            classes in prop::collection::vec(0..3usize, 1..10),
            steps in prop::collection::vec(1u64..5, 1..10),
        ) {
            let mut cfg = test_cfg("fair", 1);
            cfg.queue_bound = 4;
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
                    Ok(id) => admitted.push(id),
                    Err(SubmitError::QueueFull { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                }
                prop_assert!(svc.queue_depth() <= 4, "queue exceeded its bound");
                // Interleave scheduling with submission (arrivals mid-flight).
                if i % 2 == 1 {
                    svc.tick();
                }
            }
            prop_assert!(svc.run_until_idle(50_000), "service failed to drain");
            let report = svc.report();
            // Every admitted job must reach a terminal state.
            prop_assert_eq!(report.completed + report.failed, admitted.len());
            for id in admitted {
                let rec = report.jobs.iter().find(|r| r.id == id);
                prop_assert!(rec.is_some(), "admitted job vanished");
                let rec = rec.unwrap();
                if rec.outcome == JobOutcome::Completed {
                    prop_assert_eq!(rec.steps_done, rec.steps_requested);
                }
            }
        }
    }
}
