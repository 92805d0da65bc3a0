//! The cluster event log as the source of truth: a chaos run streams
//! `exastro.event.v1` events, and this suite proves every count and SLO
//! metric in the report — per-job recovery timeline, deadline hit rate,
//! queue-latency percentiles, MTTR series — is reproduced *exactly* from
//! the log alone (same floats, same order), while the JSONL rendering
//! stays schema-valid line by line.

use std::sync::Arc;

use exastro_machine::NodeFaultConfig;
use exastro_service::{Event, EventKind, JobSpec, PriorityClass, Scenario, Service, ServiceConfig};
use exastro_telemetry::{JsonlSink, MemorySink, MultiSink};

/// Nearest-rank percentile over an ascending sort — the report's rule,
/// reimplemented independently so the reconciliation is a real check.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[test]
fn report_slo_metrics_reproduce_exactly_from_the_event_log() {
    let dir = std::env::temp_dir().join(format!("exastro_events_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl_path = dir.join("events.jsonl");
    // One event stream into both the in-memory log (reconciliation) and
    // the JSONL file (schema check).
    let memory = Arc::new(MemorySink::<Event>::new());
    let jsonl = JsonlSink::create(&jsonl_path).expect("event log file");
    let tee = MultiSink::new(vec![memory.clone(), Arc::new(jsonl)]);

    let mut cfg = ServiceConfig {
        nodes: 3,
        ckpt_root: dir.join("ckpt"),
        events: Some(Arc::new(tee)),
        quarantine_limit: 10,
        idle_tick_sim_us: 2_000.0,
        ..Default::default()
    };
    cfg.faults = Some(NodeFaultConfig {
        seed: 0xE7E47,
        node_mtbf_s: 0.006,
        repair_s: Some(0.004),
        ..Default::default()
    });
    let mut svc = Service::new(cfg);

    // Deadlined tenants on both sides of the SLO: an impossible 0-second
    // deadline (always missed) plus generous ones (met), so the hit rate
    // is a real fraction, not a degenerate 0 or 1.
    let specs = [
        JobSpec {
            scenario: Scenario::SedovBlast,
            resolution: 8,
            steps: 10,
            deadline_s: Some(0.0),
            ..Default::default()
        },
        JobSpec {
            scenario: Scenario::SedovBlast,
            resolution: 8,
            steps: 4,
            priority: PriorityClass::High,
            deadline_s: Some(3600.0),
            ..Default::default()
        },
        JobSpec {
            scenario: Scenario::ReactingBubble,
            resolution: 8,
            steps: 4,
            priority: PriorityClass::Batch,
            deadline_s: Some(3600.0),
            ..Default::default()
        },
    ];
    // One refusal, so the log holds a reject the report must count.
    assert!(svc
        .submit(JobSpec {
            steps: 0,
            ..Default::default()
        })
        .is_err());
    let ids: Vec<_> = specs
        .iter()
        .map(|s| svc.submit(s.clone()).expect("admit"))
        .collect();
    assert!(svc.run_until_idle(100_000), "chaos run must drain");
    svc.flush_events().expect("event log IO must be clean");
    let report = svc.report();
    let log = memory.snapshot();

    // --- Structural invariants of the stream itself. ---
    assert!(
        log.windows(2).all(|w| w[0].sim_us <= w[1].sim_us),
        "event timestamps must be nondecreasing"
    );
    for id in &ids {
        assert!(
            log.iter()
                .any(|e| e.kind == EventKind::Admit && e.job == Some(*id)),
            "{id:?} has no admit event"
        );
        let terminal = log
            .iter()
            .filter(|e| {
                e.job == Some(*id)
                    && matches!(
                        e.kind,
                        EventKind::Complete | EventKind::Fail | EventKind::Quarantine
                    )
            })
            .count();
        assert_eq!(terminal, 1, "{id:?} must have exactly one terminal event");
    }

    // --- Per-job recovery timeline: the record's recovery count is the
    // job's revoke-event count, and every recover event replays an entire
    // revoke -> (backoff) -> recover arc in order. ---
    let mut recoveries_seen = 0u64;
    for rec in &report.jobs {
        let revokes: Vec<&exastro_service::Event> = log
            .iter()
            .filter(|e| e.kind == EventKind::Revoke && e.job == Some(rec.id))
            .collect();
        assert_eq!(
            revokes.len() as u32,
            rec.recoveries,
            "{:?}: revoke events must equal the record's recovery count",
            rec.id
        );
        let recovers: Vec<&exastro_service::Event> = log
            .iter()
            .filter(|e| e.kind == EventKind::Recover && e.job == Some(rec.id))
            .collect();
        recoveries_seen += recovers.len() as u64;
        for (rv, rc) in revokes.iter().zip(&recovers) {
            assert!(
                rv.sim_us <= rc.sim_us,
                "{:?}: recovery precedes its revocation",
                rec.id
            );
            assert!(rv.lost_steps.is_some(), "revoke must price lost work");
            assert!(rc.mttr_s.is_some(), "recover must carry its MTTR");
        }
    }
    assert_eq!(
        recoveries_seen, report.recoveries,
        "recover events must equal the service recovery counter"
    );
    assert!(
        report.recoveries >= 1,
        "the chaos schedule must actually exercise recovery"
    );

    // --- Every count in the report is the log's count of its kind. ---
    use EventKind::*;
    let counts: [(&str, u64, &[EventKind]); 10] = [
        ("submitted", report.submitted, &[Admit, Reject]),
        ("rejected", report.rejected, &[Reject]),
        ("preemptions", report.preemptions, &[Preempt]),
        ("node_failures", report.node_failures, &[NodeFail]),
        ("lease_revocations", report.lease_revocations, &[Revoke]),
        ("recoveries", report.recoveries, &[Recover]),
        (
            "straggler_migrations",
            report.straggler_migrations,
            &[Migrate],
        ),
        ("completed", report.completed as u64, &[Complete]),
        ("failed", report.failed as u64, &[Fail]),
        ("quarantined", report.quarantined as u64, &[Quarantine]),
    ];
    for (key, in_report, kinds) in counts {
        let in_log = log.iter().filter(|e| kinds.contains(&e.kind)).count();
        assert_eq!(in_report, in_log as u64, "{key}: report vs log");
    }
    assert_eq!(report.rejected, 1, "the invalid spec is logged as a reject");
    assert_eq!(report.submitted, 1 + ids.len() as u64);

    // --- MTTR series: bit-for-bit the recover events' mttr_s, in order. ---
    let log_mttr: Vec<f64> = log
        .iter()
        .filter(|e| e.kind == EventKind::Recover)
        .map(|e| e.mttr_s.expect("recover carries mttr_s"))
        .collect();
    assert_eq!(
        log_mttr, report.mttr_s,
        "MTTR series must reproduce exactly"
    );

    // --- Deadline hit rate: recomputed from complete events alone. ---
    let verdicts: Vec<bool> = log
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Complete | EventKind::Fail | EventKind::Quarantine
            )
        })
        .filter_map(|e| {
            let d = e.deadline_s?;
            Some(e.latency_s.expect("terminal events carry latency") <= d)
        })
        .collect();
    let log_rate = (!verdicts.is_empty())
        .then(|| verdicts.iter().filter(|&&m| m).count() as f64 / verdicts.len() as f64);
    assert_eq!(
        log_rate, report.deadline_hit_rate,
        "deadline hit rate must reproduce exactly from the log"
    );
    let rate = report.deadline_hit_rate.expect("deadlined jobs ran");
    assert!(rate < 1.0, "the 0-second deadline must be missed");

    // --- Queue-latency percentiles per class, from start events alone. ---
    for q in &report.queue_wait_by_class {
        let mut waits: Vec<f64> = log
            .iter()
            .filter(|e| e.kind == EventKind::Start && e.class == Some(q.class))
            .map(|e| e.queue_wait_s.expect("start carries queue_wait_s"))
            .collect();
        assert_eq!(waits.len(), q.samples);
        waits.sort_by(f64::total_cmp);
        assert_eq!(percentile(&waits, 0.50), q.p50_s, "{:?} p50", q.class);
        assert_eq!(percentile(&waits, 0.99), q.p99_s, "{:?} p99", q.class);
    }
    assert!(
        !report.queue_wait_by_class.is_empty(),
        "placements must produce queue-wait samples"
    );

    // --- The JSONL rendering is schema-valid line by line. ---
    let text = std::fs::read_to_string(&jsonl_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), log.len(), "one line per event");
    for line in &lines {
        assert!(
            line.starts_with("{\"schema\": \"exastro.event.v1\""),
            "bad schema header: {line}"
        );
        for key in ["\"sim_us\": ", "\"tick\": ", "\"kind\": \""] {
            assert!(line.contains(key), "missing {key}: {line}");
        }
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.matches('[').count(), line.matches(']').count());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Without a fault model or deadlines, the log still carries the full
/// admit → lease → start → complete lifecycle and the report degrades
/// gracefully (no hit rate, empty MTTR series).
#[test]
fn fault_free_log_has_the_plain_lifecycle() {
    let dir = std::env::temp_dir().join(format!("exastro_events_plain_{}", std::process::id()));
    let memory = Arc::new(MemorySink::<Event>::new());
    let mut svc = Service::new(ServiceConfig {
        ckpt_root: dir.clone(),
        events: Some(memory.clone()),
        ..Default::default()
    });
    let id = svc
        .submit(JobSpec {
            resolution: 8,
            steps: 2,
            ..Default::default()
        })
        .expect("admit");
    assert!(svc.run_until_idle(10_000));
    let report = svc.report();
    let kinds: Vec<EventKind> = memory
        .snapshot()
        .iter()
        .filter(|e| e.job == Some(id) || e.kind == EventKind::Admit)
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        kinds,
        vec![
            EventKind::Admit,
            EventKind::Lease,
            EventKind::Start,
            EventKind::Complete
        ]
    );
    assert_eq!(report.deadline_hit_rate, None);
    assert!(report.mttr_s.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
