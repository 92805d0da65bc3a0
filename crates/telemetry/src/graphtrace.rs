//! Task-graph traces and critical-path analysis.
//!
//! The drivers' halo loop *schedules* ghost exchange behind interior
//! compute; this module makes the overlap *measurable*. The task-graph
//! executor (`TaskGraph::run_labeled` in `exastro-parallel`) records,
//! per task, when it became ready, when a worker started it, when it
//! finished, and which worker ran it — a [`GraphTrace`]. The analyzer here
//! ([`summarize`]) turns that into the quantities the HPX/APEX-style
//! task-level tracing literature (Daiß et al. 2024) treats as first-class:
//!
//! * the **measured critical path** — the longest dependency chain by
//!   observed run time, which bounds the wall clock no matter how many
//!   workers are added;
//! * **per-task slack** — how much a task could stretch before it lands on
//!   the critical path (slack 0 ⇒ it is already on it);
//! * the **queue-wait / run-time breakdown** — scheduler-induced latency
//!   vs. useful work;
//! * the **measured overlap efficiency** — the fraction of comm-task wall
//!   time (pack/unpack) that ran concurrently with compute tasks, directly
//!   comparable to `machine::OverlapModel`'s *predicted* hidden fraction.
//!
//! Recording is gated on its own flag ([`enabled`]) layered on top of
//! [`Telemetry::is_enabled`](crate::Telemetry::is_enabled), because per-task
//! timestamps cost more than a span begin/end; the `ablation_telemetry`
//! bench keeps the enabled cost under 2% of an overlapped step.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json;

/// What a task contributes to the overlap ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskClass {
    /// Ghost-exchange work: pack / unpack / boundary fill.
    Comm,
    /// Kernel work: interior, band, update sweeps.
    Compute,
    /// Anything else (bookkeeping, untagged tasks).
    Other,
}

impl TaskClass {
    /// Stable lowercase name used in JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            TaskClass::Comm => "comm",
            TaskClass::Compute => "compute",
            TaskClass::Other => "other",
        }
    }
}

/// Display name + class for one task, supplied by the graph builder.
#[derive(Clone, Copy, Debug)]
pub struct TaskLabel {
    /// Span / JSON name (e.g. `"pack.f3"`), [interned](crate::trace::intern).
    pub name: &'static str,
    /// Overlap-ledger class.
    pub class: TaskClass,
}

impl TaskLabel {
    /// Label a task `name`, interning it: a builder that labels the same
    /// tasks run after run can keep the (`Copy`) labels instead.
    pub fn new(name: &str, class: TaskClass) -> Self {
        TaskLabel {
            name: crate::trace::intern(name),
            class,
        }
    }
}

/// One task's observed schedule within a graph run. All timestamps are
/// nanoseconds since the run started.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// Task id within the graph.
    pub task: usize,
    /// Display name.
    pub name: &'static str,
    /// Overlap-ledger class.
    pub class: TaskClass,
    /// When the task's last dependency completed (0 for source tasks).
    pub ready_ns: u64,
    /// When a worker dequeued it.
    pub start_ns: u64,
    /// When it finished.
    pub end_ns: u64,
    /// Stable trace id of the worker thread that ran it.
    pub worker: u64,
}

/// One recorded graph execution: per-task schedules plus the dependency
/// structure needed to recover the critical path.
#[derive(Clone, Debug)]
pub struct GraphTrace {
    /// Graph label (e.g. `"hydro.sweep.x"`).
    pub label: String,
    /// Wall time of the whole run in nanoseconds.
    pub wall_ns: u64,
    /// Per-task records, indexed by task id.
    pub tasks: Vec<TaskRecord>,
    /// `deps[t]` — tasks that had to complete before `t`.
    pub deps: Vec<Vec<usize>>,
}

static GRAPH_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_FLOW_ID: AtomicU64 = AtomicU64::new(1);

/// Maximum retained traces; older runs are evicted first.
const MAX_TRACES: usize = 256;

fn registry() -> &'static Mutex<Vec<GraphTrace>> {
    static REGISTRY: OnceLock<Mutex<Vec<GraphTrace>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turn per-task graph recording on. Idempotent.
pub fn enable() {
    GRAPH_ENABLED.store(true, Ordering::Relaxed);
}

/// Turn per-task graph recording off. Idempotent.
pub fn disable() {
    GRAPH_ENABLED.store(false, Ordering::Relaxed);
}

/// The one branch `TaskGraph::run` checks before paying for timestamps.
#[inline]
pub fn enabled() -> bool {
    GRAPH_ENABLED.load(Ordering::Relaxed)
}

/// Reserve `n` process-unique flow ids; returns the first. Keeps dependency
/// arrows from distinct graph runs from aliasing in one exported trace.
pub fn reserve_flow_ids(n: u64) -> u64 {
    NEXT_FLOW_ID.fetch_add(n.max(1), Ordering::Relaxed)
}

/// Store a completed graph trace (bounded; the oldest is evicted past 256
/// traces).
pub fn record(trace: GraphTrace) {
    let mut reg = registry().lock().unwrap();
    if reg.len() >= MAX_TRACES {
        reg.remove(0);
    }
    reg.push(trace);
}

/// Remove and return every stored trace (in recording order).
pub fn take() -> Vec<GraphTrace> {
    std::mem::take(&mut *registry().lock().unwrap())
}

/// Number of stored traces.
pub fn len() -> usize {
    registry().lock().unwrap().len()
}

/// Discard all stored traces.
pub fn clear() {
    registry().lock().unwrap().clear();
}

/// Per-task analysis output (microseconds).
#[derive(Clone, Debug)]
pub struct TaskStat {
    /// Task id within the graph.
    pub task: usize,
    /// Display name.
    pub name: &'static str,
    /// Overlap-ledger class.
    pub class: TaskClass,
    /// Worker thread that ran it.
    pub worker: u64,
    /// `start - ready`: time spent waiting in the ready queue.
    pub queue_wait_us: f64,
    /// `end - start`: observed run time.
    pub run_us: f64,
    /// How much this task could stretch before landing on the critical
    /// path (0 ⇒ it is on it).
    pub slack_us: f64,
    /// Start timestamp relative to the run, µs.
    pub start_us: f64,
    /// End timestamp relative to the run, µs.
    pub end_us: f64,
    /// True when the task lies on the reported critical path.
    pub on_critical_path: bool,
}

/// The measured-schedule summary for one graph run (microseconds).
#[derive(Clone, Debug)]
pub struct GraphSummary {
    /// Graph label.
    pub label: String,
    /// Task count.
    pub tasks: usize,
    /// Edge count.
    pub edges: usize,
    /// Distinct workers that executed tasks.
    pub workers: usize,
    /// Wall time of the run.
    pub wall_us: f64,
    /// Sum of task run times (the serial-equivalent work).
    pub total_run_us: f64,
    /// Sum of task queue waits.
    pub total_queue_wait_us: f64,
    /// Length of the longest dependency chain by observed run time.
    pub critical_path_us: f64,
    /// Task ids of that chain, in execution order.
    pub critical_path: Vec<usize>,
    /// Comm-class wall time (union of pack/unpack task intervals).
    pub comm_us: f64,
    /// Compute-class wall time (union of kernel task intervals).
    pub compute_us: f64,
    /// Comm wall time that ran concurrently with compute.
    pub hidden_comm_us: f64,
    /// `hidden_comm_us / comm_us`; `None` when the graph has no comm tasks.
    pub measured_overlap_efficiency: Option<f64>,
    /// `OverlapModel`'s predicted hidden fraction, once reconciled.
    pub predicted_overlap_efficiency: Option<f64>,
    /// `measured - predicted`, once reconciled.
    pub overlap_drift: Option<f64>,
    /// Per-task stats, indexed by task id.
    pub task_stats: Vec<TaskStat>,
}

impl GraphSummary {
    /// Attach a model prediction (e.g.
    /// `machine::OverlapModel::predicted_hidden_fraction`) and derive the
    /// measured-vs-modeled drift.
    pub fn reconcile(&mut self, predicted: f64) {
        self.predicted_overlap_efficiency = Some(predicted);
        self.overlap_drift = self.measured_overlap_efficiency.map(|m| m - predicted);
    }
}

/// Merge possibly-overlapping `(start, end)` intervals into a disjoint
/// sorted union.
fn interval_union(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|&(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn interval_len(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|&(s, e)| e - s).sum()
}

/// Total length of the intersection of two disjoint sorted interval sets.
fn intersection_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

const NS_PER_US: f64 = 1_000.0;

/// Analyze one recorded run: critical path, slack, queue-wait breakdown,
/// and the measured overlap efficiency.
pub fn summarize(trace: &GraphTrace) -> GraphSummary {
    let n = trace.tasks.len();
    let dur: Vec<u64> = trace
        .tasks
        .iter()
        .map(|t| t.end_ns.saturating_sub(t.start_ns))
        .collect();

    // Dependents + a Kahn order over the recorded graph. The executor only
    // records graphs it successfully ran, so the order always completes.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges = 0usize;
    for (t, deps) in trace.deps.iter().enumerate() {
        for &d in deps {
            dependents[d].push(t);
            edges += 1;
        }
    }
    let mut indeg: Vec<usize> = trace.deps.iter().map(Vec::len).collect();
    let mut order: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
    let mut head = 0usize;
    while head < order.len() {
        let t = order[head];
        head += 1;
        for &d in &dependents[t] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                order.push(d);
            }
        }
    }

    // Forward pass: finish[t] = dur[t] + max(finish of deps). Backward
    // pass: tail[t] = dur[t] + max(tail of dependents). The longest chain
    // through t is finish[t] + tail[t] - dur[t]; slack is the critical
    // length minus that.
    let mut finish: Vec<u64> = vec![0; n];
    for &t in &order {
        let best = trace.deps[t].iter().map(|&d| finish[d]).max().unwrap_or(0);
        finish[t] = best + dur[t];
    }
    let mut tail: Vec<u64> = vec![0; n];
    for &t in order.iter().rev() {
        let best = dependents[t].iter().map(|&d| tail[d]).max().unwrap_or(0);
        tail[t] = best + dur[t];
    }
    let critical_ns = finish.iter().copied().max().unwrap_or(0);

    // Walk the chain back from the task realizing the critical length: the
    // on-chain predecessor is always the dependency with the latest finish.
    let mut critical_path = Vec::new();
    if n > 0 {
        let mut cur = (0..n).max_by_key(|&t| finish[t]).unwrap();
        loop {
            critical_path.push(cur);
            match trace.deps[cur].iter().copied().max_by_key(|&d| finish[d]) {
                Some(d) => cur = d,
                None => break,
            }
        }
        critical_path.reverse();
    }
    let on_cp: std::collections::HashSet<usize> = critical_path.iter().copied().collect();

    // Overlap ledger: wall-clock unions per class.
    let class_iv = |class: TaskClass| -> Vec<(u64, u64)> {
        interval_union(
            trace
                .tasks
                .iter()
                .filter(|t| t.class == class)
                .map(|t| (t.start_ns, t.end_ns))
                .collect(),
        )
    };
    let comm_iv = class_iv(TaskClass::Comm);
    let compute_iv = class_iv(TaskClass::Compute);
    let comm_ns = interval_len(&comm_iv);
    let compute_ns = interval_len(&compute_iv);
    let hidden_ns = intersection_len(&comm_iv, &compute_iv);

    let task_stats: Vec<TaskStat> = trace
        .tasks
        .iter()
        .enumerate()
        .map(|(t, r)| {
            let through = finish[t] + tail[t] - dur[t];
            TaskStat {
                task: t,
                name: r.name,
                class: r.class,
                worker: r.worker,
                queue_wait_us: r.start_ns.saturating_sub(r.ready_ns) as f64 / NS_PER_US,
                run_us: dur[t] as f64 / NS_PER_US,
                slack_us: critical_ns.saturating_sub(through) as f64 / NS_PER_US,
                start_us: r.start_ns as f64 / NS_PER_US,
                end_us: r.end_ns as f64 / NS_PER_US,
                on_critical_path: on_cp.contains(&t),
            }
        })
        .collect();

    let workers: std::collections::HashSet<u64> = trace.tasks.iter().map(|t| t.worker).collect();
    GraphSummary {
        label: trace.label.clone(),
        tasks: n,
        edges,
        workers: workers.len(),
        wall_us: trace.wall_ns as f64 / NS_PER_US,
        total_run_us: dur.iter().sum::<u64>() as f64 / NS_PER_US,
        total_queue_wait_us: task_stats.iter().map(|s| s.queue_wait_us).sum(),
        critical_path_us: critical_ns as f64 / NS_PER_US,
        critical_path,
        comm_us: comm_ns as f64 / NS_PER_US,
        compute_us: compute_ns as f64 / NS_PER_US,
        hidden_comm_us: hidden_ns as f64 / NS_PER_US,
        measured_overlap_efficiency: (comm_ns > 0).then(|| hidden_ns as f64 / comm_ns as f64),
        predicted_overlap_efficiency: None,
        overlap_drift: None,
        task_stats,
    }
}

/// Aggregate measured overlap efficiency over several runs: total hidden
/// comm wall time over total comm wall time. `None` when no run had comm
/// tasks.
pub fn overall_efficiency(summaries: &[GraphSummary]) -> Option<f64> {
    let comm: f64 = summaries.iter().map(|s| s.comm_us).sum();
    let hidden: f64 = summaries.iter().map(|s| s.hidden_comm_us).sum();
    (comm > 0.0).then(|| hidden / comm)
}

fn json_class_counts(summary: &GraphSummary) -> String {
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for s in &summary.task_stats {
        *counts.entry(s.class.name()).or_insert(0) += 1;
    }
    let mut pairs: Vec<_> = counts.into_iter().collect();
    pairs.sort();
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// Serialize summaries as the `exastro.graphtrace.v1` JSON artifact.
pub fn summaries_to_json(summaries: &[GraphSummary]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"exastro.graphtrace.v1\",\n  \"graphs\": [\n");
    for (gi, s) in summaries.iter().enumerate() {
        let chain: Vec<String> = s
            .critical_path
            .iter()
            .map(|&t| {
                let st = &s.task_stats[t];
                format!(
                    "{{\"task\": {}, \"name\": \"{}\", \"class\": \"{}\", \"run_us\": {}, \"queue_wait_us\": {}, \"slack_us\": {}}}",
                    t,
                    json::escape(st.name),
                    st.class.name(),
                    json::num(st.run_us),
                    json::num(st.queue_wait_us),
                    json::num(st.slack_us),
                )
            })
            .collect();
        let stats: Vec<String> = s
            .task_stats
            .iter()
            .map(|st| {
                format!(
                    "{{\"task\": {}, \"name\": \"{}\", \"class\": \"{}\", \"worker\": {}, \"start_us\": {}, \"end_us\": {}, \"queue_wait_us\": {}, \"run_us\": {}, \"slack_us\": {}, \"on_critical_path\": {}}}",
                    st.task,
                    json::escape(st.name),
                    st.class.name(),
                    st.worker,
                    json::num(st.start_us),
                    json::num(st.end_us),
                    json::num(st.queue_wait_us),
                    json::num(st.run_us),
                    json::num(st.slack_us),
                    st.on_critical_path,
                )
            })
            .collect();
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"tasks\": {}, \"edges\": {}, \"workers\": {}, \"wall_us\": {}, \"total_run_us\": {}, \"total_queue_wait_us\": {}, \"critical_path_us\": {}, \"comm_us\": {}, \"compute_us\": {}, \"hidden_comm_us\": {}, \"measured_overlap_efficiency\": {}, \"predicted_overlap_efficiency\": {}, \"overlap_drift\": {}, \"class_counts\": {}, \"critical_path\": [{}], \"task_stats\": [{}]}}{}\n",
            json::escape(&s.label),
            s.tasks,
            s.edges,
            s.workers,
            json::num(s.wall_us),
            json::num(s.total_run_us),
            json::num(s.total_queue_wait_us),
            json::num(s.critical_path_us),
            json::num(s.comm_us),
            json::num(s.compute_us),
            json::num(s.hidden_comm_us),
            json::num(s.measured_overlap_efficiency.unwrap_or(f64::NAN)),
            json::num(s.predicted_overlap_efficiency.unwrap_or(f64::NAN)),
            json::num(s.overlap_drift.unwrap_or(f64::NAN)),
            json_class_counts(s),
            chain.join(", "),
            stats.join(", "),
            if gi + 1 == summaries.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write the summaries artifact to `path`; returns the path written.
pub fn write_summaries(
    path: impl AsRef<Path>,
    summaries: &[GraphSummary],
) -> std::io::Result<PathBuf> {
    let path = path.as_ref().to_path_buf();
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    f.write_all(summaries_to_json(summaries).as_bytes())?;
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        task: usize,
        name: &'static str,
        class: TaskClass,
        ready: u64,
        start: u64,
        end: u64,
        worker: u64,
    ) -> TaskRecord {
        TaskRecord {
            task,
            name,
            class,
            ready_ns: ready,
            start_ns: start,
            end_ns: end,
            worker,
        }
    }

    /// Diamond: 0 -> {1, 2} -> 3; task 1 is the long arm.
    fn diamond_trace() -> GraphTrace {
        GraphTrace {
            label: "diamond".to_string(),
            wall_ns: 10_000,
            tasks: vec![
                rec(0, "src", TaskClass::Other, 0, 0, 1_000, 1),
                rec(1, "long", TaskClass::Compute, 1_000, 1_000, 7_000, 1),
                rec(2, "short", TaskClass::Comm, 1_000, 1_200, 3_000, 2),
                rec(3, "sink", TaskClass::Other, 7_000, 7_500, 9_000, 1),
            ],
            deps: vec![vec![], vec![0], vec![0], vec![1, 2]],
        }
    }

    #[test]
    fn critical_path_finds_the_long_arm() {
        let s = summarize(&diamond_trace());
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.critical_path, vec![0, 1, 3]);
        // 1000 + 6000 + 1500 = 8500 ns = 8.5 µs.
        assert!((s.critical_path_us - 8.5).abs() < 1e-9);
        // Tasks on the chain have zero slack; the short arm has some.
        for &t in &[0usize, 1, 3] {
            assert_eq!(s.task_stats[t].slack_us, 0.0, "task {t}");
            assert!(s.task_stats[t].on_critical_path);
        }
        assert!(s.task_stats[2].slack_us > 0.0);
        assert!(!s.task_stats[2].on_critical_path);
    }

    #[test]
    fn queue_wait_and_run_breakdown() {
        let s = summarize(&diamond_trace());
        // Task 2 waited 200 ns, task 3 waited 500 ns.
        assert!((s.task_stats[2].queue_wait_us - 0.2).abs() < 1e-9);
        assert!((s.task_stats[3].queue_wait_us - 0.5).abs() < 1e-9);
        assert!((s.total_queue_wait_us - 0.7).abs() < 1e-9);
        assert!((s.total_run_us - (1.0 + 6.0 + 1.8 + 1.5)).abs() < 1e-9);
        assert_eq!(s.workers, 2);
    }

    #[test]
    fn overlap_efficiency_is_hidden_comm_over_comm() {
        let s = summarize(&diamond_trace());
        // Comm span [1200, 3000) fully inside compute span [1000, 7000).
        assert!((s.comm_us - 1.8).abs() < 1e-9);
        assert!((s.compute_us - 6.0).abs() < 1e-9);
        assert!((s.hidden_comm_us - 1.8).abs() < 1e-9);
        let eff = s.measured_overlap_efficiency.unwrap();
        assert!((eff - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_is_fractional() {
        // Comm [0, 4000) vs compute [2000, 6000): half hidden.
        let trace = GraphTrace {
            label: "partial".to_string(),
            wall_ns: 6_000,
            tasks: vec![
                rec(0, "pack", TaskClass::Comm, 0, 0, 4_000, 1),
                rec(1, "interior", TaskClass::Compute, 0, 2_000, 6_000, 2),
            ],
            deps: vec![vec![], vec![]],
        };
        let s = summarize(&trace);
        let eff = s.measured_overlap_efficiency.unwrap();
        assert!((eff - 0.5).abs() < 1e-9);
        // Reconciling against a model prediction records the drift.
        let mut s = s;
        s.reconcile(0.75);
        assert!((s.overlap_drift.unwrap() + 0.25).abs() < 1e-9);
    }

    #[test]
    fn no_comm_tasks_means_no_efficiency() {
        let trace = GraphTrace {
            label: "pure".to_string(),
            wall_ns: 1_000,
            tasks: vec![rec(0, "k", TaskClass::Compute, 0, 0, 1_000, 1)],
            deps: vec![vec![]],
        };
        let s = summarize(&trace);
        assert!(s.measured_overlap_efficiency.is_none());
        assert!(overall_efficiency(&[s]).is_none());
    }

    #[test]
    fn registry_is_bounded_and_drains() {
        clear();
        for i in 0..(MAX_TRACES + 8) {
            record(GraphTrace {
                label: format!("g{i}"),
                wall_ns: 1,
                tasks: Vec::new(),
                deps: Vec::new(),
            });
        }
        assert_eq!(len(), MAX_TRACES);
        let taken = take();
        assert_eq!(taken.len(), MAX_TRACES);
        assert_eq!(taken.last().unwrap().label, format!("g{}", MAX_TRACES + 7));
        assert_eq!(len(), 0);
    }

    #[test]
    fn flow_id_reservation_is_unique() {
        let a = reserve_flow_ids(10);
        let b = reserve_flow_ids(5);
        assert!(b >= a + 10);
    }

    #[test]
    fn summary_json_is_balanced_and_schema_tagged() {
        let s = summarize(&diamond_trace());
        let text = summaries_to_json(&[s]);
        assert!(text.contains("\"schema\": \"exastro.graphtrace.v1\""));
        assert!(text.contains("\"critical_path\""));
        assert!(text.contains("\"slack_us\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }
}
