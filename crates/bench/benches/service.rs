//! **Multi-tenant service throughput**: the job runtime (`crates/service`)
//! under sustained load — a 200+-job backlog at 2× rank oversubscription
//! with a late high-priority wave that forces checkpoint-preemptions.
//!
//! The paper's target workflow is not one hero run but campaigns of many
//! independent simulations sharing a machine (§IV); this bench measures
//! the serving layer itself: jobs/hour through the scheduler, p50/p99
//! job latency with ≥200 jobs queued, and rank utilization while the
//! backlog holds demand at twice the pool.
//!
//! Emits `BENCH_service.json` at the workspace root; the `jobs_per_hour`
//! label is perf-gated against `ci/baselines/` (the latency and
//! utilization labels are reported, not gated — they move with machine
//! speed in ways the conservative throughput floor already covers), and
//! so is `checkpoint/write_over_fsync_floor`: what a preemption's
//! checkpoint write costs over writing and fsyncing the same files
//! zero-filled — a same-run ratio, so disk and host speed cancel.
//! Pass `--test` for the CI smoke mode (small backlog; JSON still
//! written).

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{sedov_fixture, write_metrics_json, MetricPoint};
use exastro_castro::snapshot_level;
use exastro_resilience::{
    fab_name, level_dir, sync_dir, write_synced, CheckpointManager, Clock, HEADER_NAME,
    MANIFEST_NAME, META_NAME,
};
use exastro_service::{JobSpec, PriorityClass, Scenario, Service, ServiceConfig};
use std::path::Path;
use std::time::Instant;

/// CI smoke mode: the vendored criterion shim ignores CLI arguments, so
/// the bench itself honours `--test`.
fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn svc_config(tag: &str, queue_bound: usize) -> ServiceConfig {
    ServiceConfig {
        nodes: 2, // 12-rank pool; every 1-node job leases 6 → 2 run at once
        queue_bound,
        ckpt_root: std::env::temp_dir().join(format!(
            "exastro_bench_service_{tag}_{}",
            std::process::id()
        )),
        ..Default::default()
    }
}

fn backlog_spec(i: usize) -> JobSpec {
    JobSpec {
        scenario: Scenario::SedovBlast,
        resolution: 8,
        steps: 2 + (i as u64 % 2),
        priority: if i.is_multiple_of(3) {
            PriorityClass::Batch
        } else {
            PriorityClass::Normal
        },
        ..Default::default()
    }
}

struct LoadResult {
    jobs_per_hour: f64,
    p50_s: f64,
    p99_s: f64,
    utilization: f64,
    queue_peak: usize,
    preemptions: u64,
    completed: usize,
}

/// Drive one full campaign: `backlog` jobs queued up front (every running
/// job needs 6 of 12 ranks while the queue holds ≥ `backlog − 2` more —
/// demand far beyond 2× the pool for the whole run), then a
/// high-priority wave arriving mid-flight that preempts the running
/// batch/normal tenants.
fn run_campaign(tag: &str, backlog: usize, high_wave: usize) -> LoadResult {
    let mut svc = Service::new(svc_config(tag, backlog + high_wave + 8));
    for i in 0..backlog {
        svc.submit(backlog_spec(i)).expect("backlog admits");
    }
    assert!(
        svc.queue_depth() >= backlog,
        "backlog must actually be queued"
    );
    // Let the pool fill and the first tenants make progress...
    for _ in 0..3 {
        svc.tick();
    }
    // ...then the deadline wave lands and preempts its way on.
    for _ in 0..high_wave {
        svc.submit(JobSpec {
            priority: PriorityClass::High,
            resolution: 8,
            steps: 2,
            ..Default::default()
        })
        .expect("high wave admits");
    }
    assert!(svc.run_until_idle(1_000_000), "campaign must drain");
    let report = svc.report();
    assert_eq!(report.failed, 0, "campaign jobs must not fail");
    LoadResult {
        jobs_per_hour: report.jobs_per_hour,
        p50_s: report.latency_p50_s,
        p99_s: report.latency_p99_s,
        utilization: report.rank_utilization,
        queue_peak: report.queue_peak,
        preemptions: report.preemptions,
        completed: report.completed,
    }
}

/// What durability alone costs for a checkpoint of `nfabs` blobs: the
/// files and directories `CheckpointManager::write` creates, fsyncs,
/// renames and prunes, each file as long as the real one (`blob`; `text`
/// for `Header`, `Meta` and `MANIFEST`) but zero-filled, so nothing is
/// serialised or hashed. Same sizes, not empty files: on the CI host an
/// fsync of a 37 KB file costs twice that of an empty one, and a floor
/// that left the data out would not cancel the disk.
fn fsync_floor(
    root: &Path,
    step: u64,
    nfabs: usize,
    blob: &[u8],
    text: [&[u8]; 3],
) -> std::io::Result<()> {
    let tmp = root.join(format!(".tmp-floor{step}"));
    let level = tmp.join(level_dir(0));
    std::fs::create_dir_all(&level)?;
    for i in 0..nfabs {
        write_synced(&level.join(fab_name(i)), blob)?;
    }
    write_synced(&level.join(HEADER_NAME), text[0])?;
    sync_dir(&level);
    write_synced(&tmp.join(META_NAME), text[1])?;
    write_synced(&tmp.join(MANIFEST_NAME), text[2])?;
    sync_dir(&tmp);
    std::fs::rename(&tmp, root.join(format!("floor{step}")))?;
    sync_dir(root);
    if step > 2 {
        std::fs::remove_dir_all(root.join(format!("floor{}", step - 2)))?;
    }
    Ok(())
}

/// `CheckpointManager::write` of a 16³ Sedov job's snapshot (8 boxes — the
/// job `service_backlog` preempts) ÷ [`fsync_floor`]: the median of the
/// per-round ratios over rounds that alternate which runs first.
fn write_over_fsync_floor() -> f64 {
    let (geom, state, layout, ..) = sedov_fixture(16, 8);
    let root = std::env::temp_dir().join(format!("exastro_bench_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mgr = CheckpointManager::new(root.join("chk")).expect("checkpoint root");
    let floor_root = root.join("floor");
    std::fs::create_dir_all(&floor_root).expect("floor root");
    let snap_at = |step| {
        let clock = Clock {
            step,
            ..Default::default()
        };
        snapshot_level(&geom, &state, clock, &layout)
    };
    // File sizes from a first, untimed checkpoint.
    let first = mgr.write(&snap_at(0)).expect("checkpoint write");
    let zeros = |path: std::path::PathBuf| {
        let len = std::fs::metadata(path).expect("checkpoint file").len();
        vec![0u8; len as usize]
    };
    let level = first.join(level_dir(0));
    let blob = zeros(level.join(fab_name(0)));
    let text = [
        zeros(level.join(HEADER_NAME)),
        zeros(first.join(META_NAME)),
        zeros(first.join(MANIFEST_NAME)),
    ];
    // Each round times one write and one floor, in turn which first, so
    // neither side always runs on the cache state the other leaves.
    let (mut write_s, mut floor_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for step in 1..=24u64 {
        let snap = snap_at(step);
        let write = || {
            let t = Instant::now();
            mgr.write(&snap).expect("checkpoint write");
            t.elapsed().as_secs_f64()
        };
        let floor = || {
            let t = Instant::now();
            fsync_floor(
                &floor_root,
                step,
                state.nfabs(),
                &blob,
                [&text[0], &text[1], &text[2]],
            )
            .expect("floor write");
            t.elapsed().as_secs_f64()
        };
        let (w, f) = if step % 2 == 0 {
            let w = write();
            (w, floor())
        } else {
            let f = floor();
            (write(), f)
        };
        write_s.push(w);
        floor_s.push(f);
        ratios.push(w / f);
    }
    let _ = std::fs::remove_dir_all(&root);
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let ratio = median(&mut ratios);
    println!(
        "checkpoint write {:.2} ms over an fsync floor of {:.2} ms: {:.2}x",
        median(&mut write_s) * 1e3,
        median(&mut floor_s) * 1e3,
        ratio
    );
    ratio
}

fn bench(c: &mut Criterion) {
    let smoke = test_mode();
    let backlog = if smoke { 24 } else { 208 };
    let high_wave = if smoke { 4 } else { 24 };

    println!("=== service: {backlog}-job backlog + {high_wave}-job deadline wave ===");
    let start = Instant::now();
    let r = run_campaign("campaign", backlog, high_wave);
    println!(
        "drained {} jobs in {:.2}s wall: {:.0} jobs/hour, latency p50 {:.3}s p99 {:.3}s",
        r.completed,
        start.elapsed().as_secs_f64(),
        r.jobs_per_hour,
        r.p50_s,
        r.p99_s
    );
    println!(
        "queue peak {} (≥200 requirement: {}), rank utilization {:.1}%, {} preemption(s)",
        r.queue_peak,
        if smoke { "waived in smoke" } else { "met" },
        100.0 * r.utilization,
        r.preemptions
    );
    if !smoke {
        assert!(
            r.queue_peak >= 200,
            "latency must be measured under a 200+ backlog"
        );
    }
    assert!(r.preemptions > 0, "the high wave must preempt");

    let metrics = vec![
        MetricPoint::measured("service/jobs_per_hour", r.jobs_per_hour, "jobs/h"),
        MetricPoint::measured("service/latency_p50", r.p50_s, "s"),
        MetricPoint::measured("service/latency_p99", r.p99_s, "s"),
        MetricPoint::measured("service/rank_utilization_2x_oversub", r.utilization, "frac"),
        MetricPoint::measured("service/queue_peak", r.queue_peak as f64, "jobs"),
        MetricPoint::measured("service/preemptions", r.preemptions as f64, "events"),
        MetricPoint::measured(
            "checkpoint/write_over_fsync_floor",
            write_over_fsync_floor(),
            "ratio",
        ),
    ];
    let path = write_metrics_json("service", &metrics).expect("write BENCH_service.json");
    println!("wrote {}\n", path.display());

    let mut g = c.benchmark_group("service");
    g.sample_size(2);
    g.bench_function("mini_campaign", |b| {
        let mut n = 0u32;
        b.iter(|| {
            n += 1;
            std::hint::black_box(run_campaign(&format!("mini{n}"), 8, 2))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
