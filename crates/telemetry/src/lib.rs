//! # exastro-telemetry
//!
//! Structured run telemetry for the `exastro` stack. The end-of-run
//! [`Profiler`](../exastro_parallel/profiler/index.html) table answers
//! "what fraction of the run was the burner" (§IV of the paper) but cannot
//! answer *per-step* questions — did `dt` collapse during a retry storm,
//! is the Newton iteration count drifting, what did the checkpoint cadence
//! cost over time — and its text output cannot be diffed by CI. This crate
//! adds the three machine-readable sinks that can:
//!
//! * [`trace`] — begin/end **trace spans** (thread-attributed, monotonic
//!   timestamps) collected into a lock-sharded ring buffer and exported as
//!   Chrome trace-event JSON, loadable in `chrome://tracing` / Perfetto;
//! * [`metrics`] — a per-step [`StepMetrics`](metrics::StepMetrics) record
//!   appended by the drivers each step through a
//!   [`MetricsSink`](metrics::MetricsSink) (in-memory, JSONL file, null);
//! * [`mod@histogram`] — fixed-bucket log-scale [`Histogram`](histogram::Histogram)s
//!   for per-zone burn cost, plus named [`counters`] for categorical
//!   tallies (ladder rungs, checkpoint bytes).
//!
//! ## Overhead discipline
//!
//! Telemetry is **off by default**. Every hot-path recording helper first
//! checks one relaxed atomic ([`Telemetry::is_enabled`]) and returns
//! immediately when disabled, so an untelemetered run pays one predictable
//! branch per event site. The `ablation_telemetry` bench in
//! `crates/bench` measures the enabled cost on a fig2-style Sedov step
//! (kept < 2% of step time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod graphtrace;
pub mod histogram;
pub mod metrics;
pub mod trace;

pub use counters::{counter_add, counter_get, counters_snapshot};
pub use graphtrace::{GraphSummary, GraphTrace, TaskClass, TaskLabel, TaskRecord, TaskStat};
pub use histogram::{histogram, histogram_names, Histogram};
pub use metrics::{
    JsonlSink, MemorySink, MetricsSink, MultiSink, NullSink, StepMetrics, StepRecorder,
};
pub use trace::{Phase, TraceBuffer, TraceEvent};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide telemetry facade. All methods are associated functions
/// (like `Profiler`), so instrumentation stays one line per site and no
/// handle needs threading through the stack.
pub struct Telemetry;

impl Telemetry {
    /// Turn recording on. Idempotent.
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turn recording off (recording helpers become no-ops). Idempotent.
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// The one branch every hot-path recording site checks first.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Record the beginning of a span named `name` on this thread.
    /// No-op when telemetry is disabled.
    #[inline]
    pub fn trace_begin(name: &str) {
        if Self::is_enabled() {
            trace::global().begin(name);
        }
    }

    /// Record the end of the innermost span named `name` on this thread.
    /// No-op when telemetry is disabled.
    #[inline]
    pub fn trace_end(name: &str) {
        if Self::is_enabled() {
            trace::global().end(name);
        }
    }

    /// Export every recorded span as Chrome trace-event JSON at `path`.
    /// The output is always well-formed: balanced B/E per thread, properly
    /// nested, timestamps monotonic per thread (see [`trace`] for the
    /// export-time repair rules).
    pub fn write_trace(path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        trace::global().write_chrome_trace(path)
    }

    /// Record `value` into the process-wide log-scale histogram `name`.
    /// No-op when telemetry is disabled.
    #[inline]
    pub fn record_hist(name: &str, value: f64) {
        if Self::is_enabled() {
            histogram::histogram(name).record(value);
        }
    }

    /// Record the beginning of graph task `name` on this thread and, inside
    /// it, the heads (`ph: "f"`) of the dependency arrows `heads` that end
    /// in it — one batch stamped `at`, the caller's own reading of the clock
    /// (see [`TraceBuffer::begin_with_flows`]). `name` is stored as given:
    /// a literal or an [interned](trace::intern) name. No-op when telemetry
    /// is disabled.
    #[inline]
    pub fn trace_task_begin(
        at: Instant,
        name: &'static str,
        heads: impl ExactSizeIterator<Item = u64>,
    ) {
        if Self::is_enabled() {
            trace::global().begin_with_flows(at, name, "dep", heads);
        }
    }

    /// Record the tails (`ph: "s"`) of the dependency arrows `tails` that
    /// start in graph task `name`, then the task's end — one batch. Each
    /// tail must be recorded before its head
    /// ([`Telemetry::trace_task_begin`] of the dependent task). No-op when
    /// telemetry is disabled.
    #[inline]
    pub fn trace_task_end(
        at: Instant,
        name: &'static str,
        tails: impl ExactSizeIterator<Item = u64>,
    ) {
        if Self::is_enabled() {
            trace::global().end_with_flows(at, name, "dep", tails);
        }
    }

    /// Turn per-task graph recording on (implies [`Telemetry::enable`],
    /// since graph spans and flow arrows ride the same trace buffer).
    pub fn enable_graph_trace() {
        Self::enable();
        graphtrace::enable();
    }

    /// Turn per-task graph recording off (plain span tracing, if enabled,
    /// stays on). Idempotent.
    pub fn disable_graph_trace() {
        graphtrace::disable();
    }

    /// The branch `TaskGraph::run` checks before paying for per-task
    /// timestamps.
    #[inline]
    pub fn graph_trace_enabled() -> bool {
        graphtrace::enabled()
    }

    /// Summarize every graph trace recorded so far (critical path, slack,
    /// queue-wait breakdown, measured overlap efficiency) and write the
    /// `exastro.graphtrace.v1` JSON artifact at `path`. Drains the stored
    /// traces.
    pub fn write_graph_summary(path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let summaries: Vec<GraphSummary> = graphtrace::take()
            .iter()
            .map(graphtrace::summarize)
            .collect();
        graphtrace::write_summaries(path, &summaries)
    }

    /// Clear all recorded telemetry (trace events, graph traces,
    /// histograms, counters) without changing the enabled flags.
    pub fn reset() {
        trace::global().clear();
        graphtrace::clear();
        histogram::reset();
        counters::reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_noop() {
        Telemetry::disable();
        Telemetry::trace_begin("noop");
        Telemetry::trace_end("noop");
        Telemetry::record_hist("noop_hist", 3.0);
        assert!(trace::global().events_sorted().is_empty() || !Telemetry::is_enabled());
    }
}
