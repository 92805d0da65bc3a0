//! Chaos drill: the self-healing service under seeded node kills and a
//! straggler wave.
//!
//! Boots the service on a five-node slice of the modeled machine with
//! the deterministic `NodeFaultModel` armed (MTBF-driven node crashes
//! with repair, plus transient stragglers), submits a mixed tenant
//! population, and lets the cluster fail underneath it. Every tenant's
//! final digest is checked in-process against a fault-free solo run of
//! the same spec: recoveries must be visible in the report and **zero**
//! digests may be corrupted.
//!
//! ```sh
//! cargo run --release --example chaos
//! # machine-readable report (CI schema-checks it):
//! cargo run --release --example chaos -- --report /tmp/chaos_report.json
//! # plus the cluster event log (exastro.event.v1 JSONL, one line per
//! # admit/lease/start/preempt/checkpoint/node-fail/revoke/recover/...):
//! cargo run --release --example chaos -- --events /tmp/chaos_events.jsonl
//! ```

use std::sync::Arc;

use exastro::machine::NodeFaultConfig;
use exastro::service::{
    Event, JobOutcome, JobSpec, NetChoice, PriorityClass, Scenario, Service, ServiceConfig,
};
use exastro::telemetry::JsonlSink;

/// `--report <path> --events <path>` (both optional, any order).
struct Cli {
    report: Option<String>,
    events: Option<String>,
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli {
        report: None,
        events: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--report" => cli.report = Some(args.next().expect("--report needs a path")),
            "--events" => cli.events = Some(args.next().expect("--events needs a path")),
            other => {
                eprintln!(
                    "unknown argument {other}; usage: chaos [--report out.json] \
                     [--events events.jsonl]"
                );
                std::process::exit(2);
            }
        }
    }
    cli
}

fn base_cfg(tag: &str, nodes: usize) -> ServiceConfig {
    ServiceConfig {
        nodes,
        ckpt_root: std::env::temp_dir()
            .join(format!("exastro_chaos_demo_{tag}_{}", std::process::id())),
        ..Default::default()
    }
}

/// Fault-free ground truth for one spec.
fn solo_digest(tag: &str, spec: JobSpec) -> u32 {
    let mut svc = Service::new(base_cfg(tag, spec.nodes));
    let id = svc.submit(spec).expect("solo submit");
    assert!(svc.run_until_idle(10_000), "solo run must drain");
    let report = svc.report();
    let rec = report.jobs.iter().find(|r| r.id == id).expect("record");
    assert_eq!(rec.outcome, JobOutcome::Completed, "solo run must complete");
    rec.final_digest
}

fn main() {
    let cli = parse_cli();

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
    println!(
        "computing fault-free ground-truth digests for {} tenants...",
        tenants.len()
    );
    let want: Vec<u32> = tenants
        .iter()
        .enumerate()
        .map(|(i, s)| solo_digest(&format!("solo{i}"), s.clone()))
        .collect();

    // The same seeded storm the integration test proves out: node MTBF a
    // couple dozen job-steps, repairs shortly after, straggler episodes
    // at 4× step cost.
    let mut cfg = base_cfg("storm", 5);
    cfg.quarantine_limit = 10;
    cfg.idle_tick_sim_us = 2_000.0;
    cfg.faults = Some(NodeFaultConfig {
        seed: 0xC4A05,
        node_mtbf_s: 0.025,
        repair_s: Some(0.020),
        straggler_mtbf_s: 0.030,
        straggler_factor: 4.0,
        straggler_duration_s: 0.050,
    });
    if let Some(path) = &cli.events {
        // Structured event log: every admit/lease/start/checkpoint/
        // node-fail/revoke/recover/migrate/terminal lands as one
        // sim-clock-stamped JSONL line (schema `exastro.event.v1`).
        let sink = JsonlSink::<Event>::create(path).expect("create event log");
        cfg.events = Some(Arc::new(sink));
    }
    println!(
        "service up: 5 nodes (30 ranks), node MTBF {:.0} ms with repair, straggler wave armed",
        0.025 * 1e3
    );
    let mut svc = Service::new(cfg);
    let ids: Vec<_> = tenants
        .iter()
        .map(|s| svc.submit(s.clone()).expect("tenant admits"))
        .collect();
    assert!(svc.run_until_idle(100_000), "chaos run must drain");

    svc.flush_events().expect("event log IO must be clean");

    let report = svc.report();
    print!("{report}");
    if let Some(path) = &cli.report {
        std::fs::write(path, report.to_json()).expect("write report");
        println!("wrote {path}");
    }
    if let Some(path) = &cli.events {
        println!("event log written to {path} (JSON Lines, exastro.event.v1)");
    }

    // The drill's acceptance: failures actually happened, the service
    // healed, and not one digest was corrupted.
    assert!(
        report.node_failures >= 3,
        "the storm must kill >=3 nodes, got {}",
        report.node_failures
    );
    assert!(
        report.recoveries >= 1,
        "the report must show checkpoint recoveries"
    );
    assert!(
        report.straggler_migrations >= 1,
        "the straggler wave must force a migration"
    );
    let mut corrupted = 0;
    for (id, want) in ids.iter().zip(&want) {
        let rec = report.jobs.iter().find(|r| r.id == *id).expect("record");
        match &rec.outcome {
            JobOutcome::Completed => {
                if rec.final_digest != *want {
                    eprintln!(
                        "{id}: digest {:#010x} != solo {want:#010x}",
                        rec.final_digest
                    );
                    corrupted += 1;
                }
            }
            JobOutcome::Quarantined(reason) => {
                println!("{id}: quarantined ({reason})");
            }
            JobOutcome::Failed(why) => panic!("{id} failed under chaos: {why}"),
        }
    }
    assert_eq!(corrupted, 0, "zero corrupted digests required");
    println!(
        "{} node failure(s), {} revocation(s), {} recovery(ies), {} migration(s), \
         0 corrupted digests",
        report.node_failures,
        report.lease_revocations,
        report.recoveries,
        report.straggler_migrations
    );
    println!("CHAOS OK");
}
