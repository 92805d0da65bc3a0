//! Dependency-graph task scheduling over the worker pool.
//!
//! The bulk-synchronous step loop (fill ghosts → barrier → compute → barrier)
//! is exactly the fall-off in the paper's Figures 2–3: every exchange is a
//! global synchronization point. The futurized formulations in Octo-Tiger
//! (Daiß et al. 2024) and Parthenon (Grete et al. 2022) replace the barrier
//! with a *task graph*: each box's kernels become tasks, ghost exchanges
//! become edges, and interior work runs while halos are in flight.
//!
//! [`TaskGraph`] is that scheduler, built on [`WorkerPool`]: tasks are added
//! with explicit dependency edges, validated acyclic, and executed either
//!
//! * in parallel ([`TaskGraph::run`]) — a shared ready queue drained by the
//!   pool's participants; a task becomes ready when its last dependency
//!   completes;
//! * serially in deterministic smallest-id topological order
//!   ([`TaskGraph::run_serial`]) — the reference schedule;
//! * serially in a *seeded random* topological order
//!   ([`TaskGraph::run_seeded`]) — the adversarial schedule the proptests use
//!   to prove order-independence.
//!
//! Determinism contract: the graph guarantees only that a task runs after its
//! dependencies and exactly once. Tasks that write shared data must write
//! *disjoint* slots (the [`crate::pool`] / `Array4Mut` contract); under that
//! contract the final state is bit-identical for every legal schedule, which
//! is what lets the halo loop (`exastro-amr`) reproduce the bulk-synchronous digest.

use crate::pool::{Tasks, WorkerPool};
use exastro_telemetry::graphtrace::{self, GraphTrace, TaskClass, TaskLabel, TaskRecord};
use exastro_telemetry::{trace, Telemetry};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Why a graph could not be executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has a dependency cycle; `stuck` tasks can never become
    /// ready.
    Cycle {
        /// Number of tasks unreachable by any topological order.
        stuck: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Cycle { stuck } => {
                write!(
                    f,
                    "task graph has a dependency cycle ({stuck} task(s) stuck)"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Counters from one parallel graph execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphRunStats {
    /// Tasks executed (always the full graph on success).
    pub tasks: usize,
    /// Dependency edges in the graph.
    pub edges: usize,
    /// Largest ready-queue depth observed — the available parallelism the
    /// schedule actually exposed.
    pub peak_ready: usize,
}

/// A directed acyclic graph of tasks executed over the worker pool.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    /// `deps[t]` — tasks that must complete before `t` starts.
    deps: Vec<Vec<usize>>,
    /// `dependents[t]` — tasks waiting on `t`.
    dependents: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task with no dependencies; returns its id.
    pub fn add_task(&mut self) -> usize {
        let id = self.deps.len();
        self.deps.push(Vec::new());
        self.dependents.push(Vec::new());
        id
    }

    /// Add a task that depends on every task in `after`; returns its id.
    pub fn add_task_after(&mut self, after: &[usize]) -> usize {
        let id = self.add_task();
        for &d in after {
            self.add_edge(d, id);
        }
        id
    }

    /// Declare that `before` must complete before `after` starts.
    ///
    /// Panics on out-of-range ids or a self-edge (both are construction
    /// bugs, not runtime conditions).
    pub fn add_edge(&mut self, before: usize, after: usize) {
        assert!(
            before < self.deps.len() && after < self.deps.len(),
            "edge {before}->{after} references a task beyond {}",
            self.deps.len()
        );
        assert_ne!(before, after, "task {before} cannot depend on itself");
        self.deps[after].push(before);
        self.dependents[before].push(after);
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    fn indegrees(&self) -> Vec<usize> {
        self.deps.iter().map(Vec::len).collect()
    }

    /// The deterministic reference schedule: Kahn's algorithm picking the
    /// smallest ready id first. Errors if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<usize>, GraphError> {
        let mut indeg = self.indegrees();
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..self.len())
            .filter(|&t| indeg[t] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(std::cmp::Reverse(t)) = heap.pop() {
            order.push(t);
            for &d in &self.dependents[t] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    heap.push(std::cmp::Reverse(d));
                }
            }
        }
        if order.len() == self.len() {
            Ok(order)
        } else {
            Err(GraphError::Cycle {
                stuck: self.len() - order.len(),
            })
        }
    }

    /// Run every task serially in the deterministic reference order.
    pub fn run_serial<F: FnMut(usize)>(&self, mut f: F) -> Result<(), GraphError> {
        for t in self.topo_order()? {
            f(t);
        }
        Ok(())
    }

    /// Run every task serially in a seeded *random* topological order: at
    /// each step a uniformly-chosen ready task runs. Any two seeds give
    /// legal schedules; the proptests assert they give identical state.
    pub fn run_seeded<F: FnMut(usize)>(&self, seed: u64, mut f: F) -> Result<(), GraphError> {
        let mut indeg = self.indegrees();
        let mut ready: Vec<usize> = (0..self.len()).filter(|&t| indeg[t] == 0).collect();
        // Tiny, seedable, good enough to shuffle a ready set. The stream
        // starts one draw in: the first draw of `seed` is discarded.
        let mut rng = seed;
        crate::splitmix64(&mut rng);
        let mut done = 0usize;
        while let Some(pick) =
            (!ready.is_empty()).then(|| crate::splitmix64(&mut rng) as usize % ready.len())
        {
            let t = ready.swap_remove(pick);
            f(t);
            done += 1;
            for &d in &self.dependents[t] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        if done == self.len() {
            Ok(())
        } else {
            Err(GraphError::Cycle {
                stuck: self.len() - done,
            })
        }
    }

    /// Execute the graph on `pool` with at most `max_threads` participants.
    ///
    /// Participants drain a shared ready queue; completing a task decrements
    /// its dependents' pending counts and wakes waiters as new tasks become
    /// ready. Interior tasks therefore run while "halo" tasks are still
    /// pending — the overlap the drivers build on. A caller-computed cap of
    /// 0 is clamped to 1: the graph still runs, serially.
    ///
    /// Tasks run unnamed (`task<N>`, class `Other`); drivers that want
    /// per-task spans, dependency arrows, and an overlap ledger use
    /// [`TaskGraph::run_labeled`].
    pub fn run<F: Fn(usize) + Sync>(
        &self,
        pool: &WorkerPool,
        max_threads: usize,
        f: F,
    ) -> Result<GraphRunStats, GraphError> {
        self.run_labeled(
            pool,
            max_threads,
            "graph",
            |t| TaskLabel::new(&format!("task{t}"), TaskClass::Other),
            f,
        )
    }

    /// [`TaskGraph::run`] with observability: `label` names the graph and
    /// `meta(t)` supplies each task's span name and overlap class.
    ///
    /// When `Telemetry::graph_trace_enabled()`, every task records its
    /// ready/start/end and worker into a [`GraphTrace`], stamped on the
    /// trace buffer's clock: the one record of the task, from which
    /// `Telemetry::write_graph_summary` draws the critical path and
    /// `Telemetry::write_trace` the task's span and the dependency arrows
    /// Perfetto draws between task slices. `meta` is never called when
    /// graph tracing is off. A run whose task panics re-raises the panic and
    /// stores no trace.
    pub fn run_labeled<F, L>(
        &self,
        pool: &WorkerPool,
        max_threads: usize,
        label: &str,
        meta: L,
        f: F,
    ) -> Result<GraphRunStats, GraphError>
    where
        F: Fn(usize) + Sync,
        L: Fn(usize) -> TaskLabel + Sync,
    {
        let n = self.len();
        let stats = GraphRunStats {
            tasks: n,
            edges: self.num_edges(),
            peak_ready: 0,
        };
        if n == 0 {
            return Ok(stats);
        }
        // Validate up front: a cycle discovered mid-run would strand
        // participants in the condvar wait below.
        self.topo_order()?;

        struct RunState {
            indeg: Vec<usize>,
            ready: Vec<usize>,
            completed: usize,
            peak_ready: usize,
            panic: Option<Box<dyn std::any::Any + Send>>,
            /// Per-task schedule records when tracing, else empty.
            records: Vec<TaskRecord>,
        }

        let tracing = Telemetry::is_enabled() && Telemetry::graph_trace_enabled();
        let clock = trace::global();
        let run_start = if tracing { clock.stamp().ts_ns } else { 0 };
        let records: Vec<TaskRecord> = if tracing {
            (0..n)
                .map(|t| {
                    let TaskLabel { name, class } = meta(t);
                    TaskRecord {
                        task: t,
                        name,
                        class,
                        ready_ns: 0,
                        start_ns: 0,
                        end_ns: 0,
                        start_seq: 0,
                        end_seq: 0,
                        worker: 0,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };

        let indeg = self.indegrees();
        let ready: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
        let state = Mutex::new(RunState {
            peak_ready: ready.len(),
            indeg,
            ready,
            completed: 0,
            panic: None,
            records,
        });
        let wake = Condvar::new();

        pool.run(n, max_threads.max(1), &|_tasks: Tasks<'_>| {
            loop {
                let mut st = state.lock().unwrap();
                let t = loop {
                    if st.completed == n || st.panic.is_some() {
                        return;
                    }
                    if let Some(t) = st.ready.pop() {
                        break t;
                    }
                    st = wake.wait(st).unwrap();
                };
                drop(st);
                let start = tracing.then(|| clock.stamp());
                let result = catch_unwind(AssertUnwindSafe(|| f(t)));
                let end = tracing.then(|| clock.stamp());
                let mut st = state.lock().unwrap();
                match result {
                    Ok(()) => {
                        st.completed += 1;
                        let newly_ready_from = st.ready.len();
                        for &d in &self.dependents[t] {
                            st.indeg[d] -= 1;
                            if st.indeg[d] == 0 {
                                st.ready.push(d);
                            }
                        }
                        st.peak_ready = st.peak_ready.max(st.ready.len());
                        if let (Some(start), Some(end)) = (start, end) {
                            let RunState { ready, records, .. } = &mut *st;
                            let end_ns = end.ts_ns - run_start;
                            let r = &mut records[t];
                            r.start_ns = start.ts_ns - run_start;
                            r.end_ns = end_ns;
                            r.start_seq = start.seq;
                            r.end_seq = end.seq;
                            r.worker = trace::thread_trace_id();
                            for &d in &ready[newly_ready_from..] {
                                records[d].ready_ns = end_ns;
                            }
                        }
                    }
                    Err(p) => {
                        // Keep the first payload; abort the schedule so no
                        // participant waits forever on a task that will
                        // never complete.
                        if st.panic.is_none() {
                            st.panic = Some(p);
                        }
                    }
                }
                drop(st);
                wake.notify_all();
            }
        });

        let mut st = state.into_inner().unwrap();
        if let Some(p) = st.panic.take() {
            resume_unwind(p);
        }
        debug_assert_eq!(st.completed, n);
        if tracing {
            graphtrace::record(GraphTrace {
                label: label.to_string(),
                start_ns: run_start,
                wall_ns: clock.stamp().ts_ns - run_start,
                tasks: st.records,
                deps: self.deps.clone(),
            });
        }
        Ok(GraphRunStats {
            peak_ready: st.peak_ready,
            ..stats
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Completion stamps: stamp[t] = global order in which t finished.
    fn stamps_of_run(g: &TaskGraph, pool: &WorkerPool, cap: usize) -> Vec<usize> {
        let clock = AtomicUsize::new(1);
        let stamps: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        g.run(pool, cap, |t| {
            stamps[t].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
        })
        .unwrap();
        stamps.into_iter().map(|s| s.into_inner()).collect()
    }

    fn assert_respects_deps(g: &TaskGraph, stamps: &[usize]) {
        for t in 0..g.len() {
            assert!(stamps[t] > 0, "task {t} never ran");
            for &d in &g.deps[t] {
                assert!(
                    stamps[d] < stamps[t],
                    "task {t} (stamp {}) ran before its dependency {d} (stamp {})",
                    stamps[t],
                    stamps[d]
                );
            }
        }
    }

    fn diamond() -> TaskGraph {
        // 0 -> {1, 2} -> 3
        let mut g = TaskGraph::new();
        let a = g.add_task();
        let b = g.add_task_after(&[a]);
        let c = g.add_task_after(&[a]);
        g.add_task_after(&[b, c]);
        g
    }

    #[test]
    fn serial_order_is_deterministic_topological() {
        let g = diamond();
        assert_eq!(g.topo_order().unwrap(), vec![0, 1, 2, 3]);
        let mut order = Vec::new();
        g.run_serial(|t| order.push(t)).unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_run_respects_dependencies() {
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let g = diamond();
            let stamps = stamps_of_run(&g, &pool, usize::MAX);
            assert_respects_deps(&g, &stamps);
        }
    }

    #[test]
    fn wide_graph_exposes_parallelism_and_runs_every_task_once() {
        let pool = WorkerPool::new(3);
        // 64 independent chains of length 3: src -> mid -> sink.
        let mut g = TaskGraph::new();
        for _ in 0..64 {
            let a = g.add_task();
            let b = g.add_task_after(&[a]);
            g.add_task_after(&[b]);
        }
        let counts: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        let stats = g
            .run(&pool, usize::MAX, |t| {
                counts[t].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert_eq!(stats.tasks, 192);
        assert_eq!(stats.edges, 128);
        assert!(stats.peak_ready >= 1);
    }

    #[test]
    fn cycle_is_rejected_not_deadlocked() {
        let mut g = TaskGraph::new();
        let a = g.add_task();
        let b = g.add_task_after(&[a]);
        g.add_edge(b, a); // cycle a <-> b
        assert_eq!(g.topo_order(), Err(GraphError::Cycle { stuck: 2 }));
        let pool = WorkerPool::new(2);
        assert!(g.run(&pool, usize::MAX, |_| {}).is_err());
        assert!(g.run_serial(|_| {}).is_err());
        assert!(g.run_seeded(7, |_| {}).is_err());
    }

    #[test]
    fn seeded_orders_are_legal_and_cover_every_task() {
        let g = diamond();
        for seed in 0..32u64 {
            let mut order = Vec::new();
            g.run_seeded(seed, |t| order.push(t)).unwrap();
            assert_eq!(order.len(), 4);
            let mut stamps = vec![0usize; 4];
            for (i, &t) in order.iter().enumerate() {
                stamps[t] = i + 1;
            }
            assert_respects_deps(&g, &stamps);
        }
        // The middle pair {1, 2} is unordered: some pair of seeds must
        // disagree, or the "random" schedule is not exercising anything.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..32u64 {
            let mut order = Vec::new();
            g.run_seeded(seed, |t| order.push(t)).unwrap();
            seen.insert(order);
        }
        assert!(seen.len() > 1, "32 seeds all produced one schedule");
    }

    #[test]
    fn zero_cap_and_empty_graph_are_fine() {
        let pool = WorkerPool::new(2);
        let g = TaskGraph::new();
        let stats = g.run(&pool, 0, |_| panic!("no tasks to run")).unwrap();
        assert_eq!(stats.tasks, 0);
        // A computed cap of 0 on a real graph clamps to serial, not a hang.
        let g = diamond();
        let stamps = stamps_of_run(&g, &pool, 0);
        assert_respects_deps(&g, &stamps);
    }

    #[test]
    fn labeled_run_records_a_graph_trace_with_consistent_schedule() {
        let pool = WorkerPool::new(3);
        Telemetry::enable_graph_trace();
        let mut g = TaskGraph::new();
        // Two fan-ins: {0,1} -> 2, {0,1,2} -> 3.
        let a = g.add_task();
        let b = g.add_task();
        let c = g.add_task_after(&[a, b]);
        g.add_task_after(&[a, b, c]);
        g.run_labeled(
            &pool,
            usize::MAX,
            "test.trace.graph",
            |t| {
                let class = if t < 2 {
                    TaskClass::Comm
                } else {
                    TaskClass::Compute
                };
                TaskLabel::new(&format!("t{t}"), class)
            },
            |_| {
                std::thread::yield_now();
            },
        )
        .unwrap();
        Telemetry::disable_graph_trace();
        Telemetry::disable();
        let trace = graphtrace::take()
            .into_iter()
            .find(|tr| tr.label == "test.trace.graph")
            .expect("labeled run must record a trace");
        assert_eq!(trace.tasks.len(), 4);
        assert_eq!(trace.deps.iter().map(Vec::len).sum::<usize>(), 5);
        for r in &trace.tasks {
            assert!(
                r.ready_ns <= r.start_ns,
                "task {} ready after start",
                r.task
            );
            assert!(r.start_ns <= r.end_ns, "task {} ends before start", r.task);
            assert!(r.worker > 0, "task {} missing worker id", r.task);
        }
        // Dependencies are reflected in the observed schedule: a dep's end
        // is never after its dependent's start.
        for (t, deps) in trace.deps.iter().enumerate() {
            for &d in deps {
                assert!(
                    trace.tasks[d].end_ns <= trace.tasks[t].start_ns,
                    "dep {d} of task {t} finished after the task started"
                );
            }
        }
        // The analyzer agrees: comm tasks 0 and 1 populate the ledger.
        let summary = graphtrace::summarize(&trace);
        assert_eq!(summary.tasks, 4);
        assert!(summary.comm_us >= 0.0);
        assert!(summary.critical_path_us > 0.0);
        assert!(!summary.critical_path.is_empty());
    }

    #[test]
    fn task_panic_propagates_without_deadlock() {
        let pool = WorkerPool::new(2);
        let mut g = TaskGraph::new();
        for _ in 0..16 {
            g.add_task();
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            g.run(&pool, usize::MAX, |t| {
                if t == 5 {
                    panic!("task 5 failed");
                }
            })
            .unwrap();
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload preserved");
        assert_eq!(msg, "task 5 failed");
        // The pool must survive for the next graph.
        let g2 = diamond();
        let stamps = stamps_of_run(&g2, &pool, usize::MAX);
        assert_respects_deps(&g2, &stamps);
    }
}
