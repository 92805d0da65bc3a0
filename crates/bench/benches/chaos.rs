//! **Chaos goodput**: the self-healing service (`crates/service`) under
//! injected node failures — goodput (completed jobs/hour) and
//! job-completion rate as the failure rate rises from zero to harsh.
//!
//! At full scale node failure is the expected case (PAPER §V); the
//! question for a serving layer is not *whether* it survives but *how
//! much throughput survives with it*. This bench drives the same
//! campaign at three failure rates over the same seeded fault schedule:
//!
//! - **immortal** — no fault model (the PR 7 baseline shape);
//! - **moderate** — node MTBF ≈ 25× a job's runtime, repairs land;
//! - **harsh**    — node MTBF ≈ 6× a job's runtime plus straggler waves.
//!
//! Emits `BENCH_chaos.json` at the workspace root. The
//! `chaos/goodput_jobs_per_hour` label (goodput at the *moderate* rate —
//! the production-like regime) is perf-gated against `ci/baselines/` at
//! the tight tolerance; completion rates and recovery counts are
//! reported, not gated. Pass `--test` for the CI smoke mode (small
//! campaign; JSON still written).

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{write_metrics_json, MetricPoint};
use exastro_machine::NodeFaultConfig;
use exastro_service::{JobSpec, Service, ServiceConfig};
use std::time::Instant;

/// CI smoke mode: the vendored criterion shim ignores CLI arguments, so
/// the bench itself honours `--test`.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn chaos_config(tag: &str, jobs: usize, faults: Option<NodeFaultConfig>) -> ServiceConfig {
    ServiceConfig {
        nodes: 4,
        queue_bound: jobs + 8,
        quarantine_limit: 10,
        idle_tick_sim_us: 2_000.0,
        faults,
        ckpt_root: std::env::temp_dir()
            .join(format!("exastro_bench_chaos_{tag}_{}", std::process::id())),
        ..Default::default()
    }
}

fn fault_profile(node_mtbf_s: f64, stragglers: bool) -> NodeFaultConfig {
    NodeFaultConfig {
        seed: 0xC4A05,
        node_mtbf_s,
        repair_s: Some(0.020),
        straggler_mtbf_s: if stragglers { 0.040 } else { f64::INFINITY },
        straggler_factor: 4.0,
        straggler_duration_s: 0.040,
    }
}

struct ChaosResult {
    goodput_jobs_per_hour: f64,
    completion_rate: f64,
    node_failures: u64,
    recoveries: u64,
    migrations: u64,
    quarantined: usize,
}

/// One campaign: `jobs` identical 1-node tenants over the 4-node pool
/// (steady 1.5–2× oversubscription while the backlog drains), under the
/// given fault schedule.
fn run_campaign(tag: &str, jobs: usize, faults: Option<NodeFaultConfig>) -> ChaosResult {
    let mut svc = Service::new(chaos_config(tag, jobs, faults));
    for i in 0..jobs {
        svc.submit(JobSpec {
            resolution: 8,
            steps: 4 + (i as u64 % 3),
            ..Default::default()
        })
        .expect("backlog admits");
    }
    assert!(svc.run_until_idle(1_000_000), "campaign must drain");
    let report = svc.report();
    assert_eq!(report.failed, 0, "chaos must never surface as Failed");
    let terminal = report.completed + report.quarantined;
    assert_eq!(terminal, jobs, "every job must reach a terminal state");
    ChaosResult {
        goodput_jobs_per_hour: report.jobs_per_hour,
        completion_rate: report.completed as f64 / jobs as f64,
        node_failures: report.node_failures,
        recoveries: report.recoveries,
        migrations: report.straggler_migrations,
        quarantined: report.quarantined,
    }
}

fn bench(c: &mut Criterion) {
    let smoke = test_mode();
    let jobs = if smoke { 12 } else { 48 };

    let rates: [(&str, Option<NodeFaultConfig>); 3] = [
        ("immortal", None),
        ("moderate", Some(fault_profile(0.100, false))),
        ("harsh", Some(fault_profile(0.025, true))),
    ];
    let mut metrics = Vec::new();
    let mut moderate_goodput = 0.0;
    for (name, faults) in rates {
        let start = Instant::now();
        let r = run_campaign(name, jobs, faults);
        println!(
            "chaos/{name}: {jobs} jobs in {:.2}s wall -> goodput {:.0} jobs/h, \
             completion {:.0}%, {} kill(s), {} recovery(ies), {} migration(s), \
             {} quarantined",
            start.elapsed().as_secs_f64(),
            r.goodput_jobs_per_hour,
            100.0 * r.completion_rate,
            r.node_failures,
            r.recoveries,
            r.migrations,
            r.quarantined
        );
        if name == "moderate" {
            moderate_goodput = r.goodput_jobs_per_hour;
            assert!(
                r.node_failures >= 1,
                "the moderate schedule must actually inject failures"
            );
        }
        metrics.push(MetricPoint::measured(
            &format!("chaos/completion_rate_{name}"),
            r.completion_rate,
            "frac",
        ));
        metrics.push(MetricPoint::measured(
            &format!("chaos/node_failures_{name}"),
            r.node_failures as f64,
            "events",
        ));
        metrics.push(MetricPoint::measured(
            &format!("chaos/recoveries_{name}"),
            r.recoveries as f64,
            "events",
        ));
        metrics.push(MetricPoint::measured(
            &format!("chaos/migrations_{name}"),
            r.migrations as f64,
            "events",
        ));
    }
    // The gated label: goodput at the production-like moderate rate.
    metrics.push(MetricPoint::measured(
        "chaos/goodput_jobs_per_hour",
        moderate_goodput,
        "jobs/h",
    ));

    let path = write_metrics_json("chaos", &metrics).expect("write BENCH_chaos.json");
    println!("wrote {}\n", path.display());

    let mut g = c.benchmark_group("chaos");
    g.sample_size(2);
    g.bench_function("mini_storm", |b| {
        let mut n = 0u32;
        b.iter(|| {
            n += 1;
            std::hint::black_box(run_campaign(
                &format!("mini{n}"),
                6,
                Some(fault_profile(0.050, true)),
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
