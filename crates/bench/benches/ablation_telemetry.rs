//! **Observability ablation**: the cost of leaving telemetry on.
//!
//! The telemetry subsystem promises to be free when disabled (one relaxed
//! atomic load per region) and cheap when enabled (a shard-local
//! ring-buffer push per region plus one `StepMetrics` record per step).
//! This bench drives the same Castro Sedov advance four ways — telemetry
//! disabled, trace spans enabled, trace + step metrics enabled, and full
//! graph tracing (per-task stamps on every overlapped sweep graph, the
//! record its task spans and arrows are drawn from at export) — and
//! reports the relative overhead. The acceptance target is < 2% overhead with everything on (graph tracing
//! included); the result is written to `BENCH_telemetry.json` and the CI
//! perf gate holds the overhead percentages under an absolute 2% ceiling
//! (the `max` bound in `ci/baselines/BENCH_telemetry.json`).
//!
//! Measurement shape: the four configurations are timed **interleaved**,
//! round-robin, so every configuration samples the same ambient load
//! drift, and every other round runs them in reverse, so no configuration
//! always runs first or last in a round. An overhead is the **paired
//! median**: the median over rounds of one round's on/off time ratio. The
//! steps of a round run back to back, so a load spike that lands on a
//! round moves all of them; a ratio of two best-of-rounds minima instead
//! pairs draws from different rounds, and one lucky "off" draw reads as
//! several percent of fake overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_bench::{bench_castro, sedov_fixture, write_metrics_json, MetricPoint};
use exastro_castro::{Castro, KernelStructure};
use exastro_telemetry::{graphtrace, NullSink, Telemetry};
use std::sync::Arc;

/// Interleaved rounds. Each round times one advance per configuration,
/// giving ROUNDS paired on/off ratios a configuration. The step is 5–10 ms
/// and the quantity gated is ~1 % of it, while a shared host moves single
/// steps by 10 %: at 64 rounds the graph-tracing median still spread over
/// −0.1…+4.2 % at one commit, so the median takes this many pairs. About
/// eight seconds in all.
const ROUNDS: usize = 192;

/// `(median over rounds of on[i] / off[i] − 1)` in percent.
fn paired_median_overhead(on: &[f64], off: &[f64]) -> f64 {
    let mut r: Vec<f64> = on.iter().zip(off).map(|(a, b)| a / b).collect();
    r.sort_by(f64::total_cmp);
    let n = r.len();
    (0.5 * (r[(n - 1) / 2] + r[n / 2]) - 1.0) * 100.0
}

fn bench(c: &mut Criterion) {
    let n = 24;
    let (geom, state, _layout, eos, net) = sedov_fixture(n, 12);
    // One driver without a metrics sink (configurations 1–2) and one
    // with (3–4): attaching is one-way, so the sinkless configurations
    // need their own instance.
    let castro = bench_castro(&eos, &net, KernelStructure::Flat);
    let mut castro_sink = bench_castro(&eos, &net, KernelStructure::Flat);
    castro_sink.telemetry.attach_sink(Arc::new(NullSink));
    let dt = castro.estimate_dt(&state, &geom);
    let zones = (n as f64).powi(3);

    let time_one = |c: &Castro<'_>| {
        let mut s = state.clone();
        let t0 = std::time::Instant::now();
        std::hint::black_box(c.advance_level_safe(&mut s, &geom, dt).unwrap());
        t0.elapsed().as_secs_f64()
    };

    Telemetry::disable();
    // Warm caches and the worker pool so round 0 is not charged with
    // one-time startup cost.
    for _ in 0..2 {
        time_one(&castro);
    }

    // Interleaved rounds: times[k][i] is configuration k in round i, for
    // k in [off, trace, trace+metrics, graph].
    let mut times: [Vec<f64>; 4] = Default::default();
    for round in 0..ROUNDS {
        let mut order = [0, 1, 2, 3];
        if round % 2 == 1 {
            order.reverse();
        }
        for k in order {
            match k {
                0 => Telemetry::disable(),
                3 => Telemetry::enable_graph_trace(),
                _ => Telemetry::enable(),
            }
            // Everything on (3): per-task ready/start/end stamps on each
            // overlapped sweep graph. Drain the bounded
            // registry after it so the probe measures recording cost, not
            // a saturated buffer.
            times[k].push(time_one(if k < 2 { &castro } else { &castro_sink }));
            if k == 3 {
                Telemetry::disable_graph_trace();
                graphtrace::clear();
            }
        }
    }
    Telemetry::disable();
    Telemetry::reset();
    let [off, trace, full, graph] = times
        .each_ref()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min));

    // A criterion group over the same configurations for the usual
    // min/median/mean display (not what the artifact gates on).
    let mut g = c.benchmark_group("telemetry_ablation");
    g.sample_size(5);
    g.bench_function("advance_telemetry_off", |b| b.iter(|| time_one(&castro)));
    Telemetry::enable();
    g.bench_function("advance_trace_on", |b| b.iter(|| time_one(&castro)));
    g.bench_function("advance_trace_and_metrics_on", |b| {
        b.iter(|| time_one(&castro_sink))
    });
    Telemetry::enable_graph_trace();
    g.bench_function("advance_graph_trace_on", |b| {
        b.iter(|| {
            let t = time_one(&castro_sink);
            graphtrace::clear();
            t
        })
    });
    g.finish();
    Telemetry::disable_graph_trace();
    Telemetry::disable();
    Telemetry::reset();

    let overhead_trace = paired_median_overhead(&times[1], &times[0]);
    let overhead_full = paired_median_overhead(&times[2], &times[0]);
    let overhead_graph = paired_median_overhead(&times[3], &times[0]);
    println!(
        "=== telemetry ablation (Castro Sedov {n}^3 advance, {ROUNDS} interleaved rounds: \
         best step, paired median overhead) ==="
    );
    println!(
        "telemetry off:             {:.2} ms  ({:.1} zones/µs)",
        off * 1e3,
        zones / (off * 1e6)
    );
    println!(
        "trace spans on:            {:.2} ms  ({:+.2}% vs off)",
        trace * 1e3,
        overhead_trace
    );
    println!(
        "trace + step metrics on:   {:.2} ms  ({:+.2}% vs off, target < 2%)",
        full * 1e3,
        overhead_full
    );
    println!(
        "graph tracing on:          {:.2} ms  ({:+.2}% vs off, target < 2%)",
        graph * 1e3,
        overhead_graph
    );
    let metrics = vec![
        MetricPoint::measured("telemetry_off/zones_per_us", zones / (off * 1e6), "z/us"),
        MetricPoint::measured("trace_on/overhead", overhead_trace, "%"),
        MetricPoint::measured("trace_and_metrics_on/overhead", overhead_full, "%"),
        MetricPoint::measured("graph_trace_on/overhead", overhead_graph, "%"),
    ];
    match write_metrics_json("telemetry", &metrics) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("BENCH_telemetry.json not written: {e}"),
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
