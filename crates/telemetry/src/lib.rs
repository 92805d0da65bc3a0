//! # exastro-telemetry
//!
//! The one observability layer of the `exastro` stack: every runtime
//! component reports here, and every artifact a run leaves is written here.
//!
//! * **Always on** — [`region`]: named, nested regions
//!   ([`Telemetry::region`]) accumulating calls, wall time, zones, bytes
//!   and retries per path: measured quantities only. The end-of-run table
//!   ([`Telemetry::region_report`]) answers "what fraction of the run was
//!   the burner" (§IV of the paper); a region edge costs a clock reading
//!   and two atomic adds.
//! * **Behind [`Telemetry::enable`]** — [`trace`]: begin/end spans (every
//!   region and pool worker) in a lock-sharded ring, exported as Chrome
//!   trace-event JSON; [`graphtrace`]: per-task records of a `TaskGraph`
//!   run and their critical-path / overlap summary, which the export also
//!   draws as task spans and dependency arrows. Each helper first checks one relaxed
//!   atomic, so a disabled site costs one predictable branch;
//!   `ablation_telemetry` in `crates/bench` keeps the enabled cost of a
//!   Sedov step under 2 %.
//! * **Attached by the caller** — [`metrics`]: one [`StepMetrics`] per
//!   accepted driver step, and any other record stream (the service's
//!   event log), through a generic [`Sink`].
//!
//! [`json`] holds the two primitives every writer shares, and
//! [`Telemetry::reset`] is the one reset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graphtrace;
pub mod json;
pub mod metrics;
pub mod region;
pub mod sink;
pub mod trace;

pub use graphtrace::{GraphSummary, GraphTrace, TaskClass, TaskLabel, TaskRecord, TaskStat};
pub use metrics::{StepMetrics, StepRecorder};
pub use region::{Region, RegionId, RegionStats};
pub use sink::{JsonLine, JsonlSink, MemorySink, MultiSink, NullSink, Sink};
pub use trace::{Exported, Phase, Stamp, TraceBuffer, TraceEvent};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide telemetry facade. All methods are associated functions
/// (AMReX's `BL_PROFILE` regions use global state the same way), so
/// instrumentation stays one line per site and no handle needs threading
/// through the stack. The region methods live in [`region`].
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

    /// Export every recorded span, and the task spans and dependency arrows
    /// of every stored graph run, as Chrome trace-event JSON at `path`. The
    /// output is always well-formed: balanced B/E per thread, properly
    /// nested, timestamps monotonic per thread (see [`trace`] for the
    /// export-time merge and repair). The graph runs stay stored.
    pub fn write_trace(path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        trace::global().write_chrome_trace(path, &graphtrace::snapshot(), graphtrace::evicted())
    }

    /// Turn per-task graph recording on (implies [`Telemetry::enable`]: a
    /// task's stamps are taken on the trace buffer's clock).
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
    /// traces: call [`Telemetry::write_trace`] first to keep their spans.
    pub fn write_graph_summary(path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let summaries: Vec<GraphSummary> = graphtrace::take()
            .iter()
            .map(graphtrace::summarize)
            .collect();
        graphtrace::write_summaries(path, &summaries)
    }

    /// Clear everything recorded (region rows, trace events, graph traces
    /// and their eviction count) without changing the enabled flags. Region
    /// rows are zeroed, not removed: a region open across a reset still
    /// closes into its row.
    pub fn reset() {
        region::reset();
        trace::global().clear();
        graphtrace::clear();
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
        assert!(trace::global().export(&[]).is_empty() || !Telemetry::is_enabled());
    }
}
