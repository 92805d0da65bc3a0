//! Trace spans: a lock-sharded ring buffer of begin/end events with a
//! Chrome trace-event JSON exporter.
//!
//! Every span is two events — `B` (begin) and `E` (end) — attributed to a
//! small stable per-thread id and stamped with nanoseconds since a
//! process-wide monotonic epoch. Events land in the shard owned by the
//! recording thread (`tid % nshards`), so concurrent threads almost never
//! contend on a lock, and the recording cost is one mutex acquire plus a
//! `VecDeque` push. An event holds its name as an [`intern`]ed
//! `&'static str`, so recording allocates nothing once a name has been
//! seen.
//!
//! Graph tasks are not in the ring. A traced `TaskGraph` run keeps its
//! tasks' [`Stamp`]s in a [`GraphTrace`], and [`TraceBuffer::export`]
//! merges each stored run into the stream: a span per task on its
//! worker's tid, with one dependency arrow per edge — its tail (`"s"`)
//! just before the predecessor's `E`, its head (`"f"`) just after the
//! successor's `B`. A stamp's sequence number comes from the ring's
//! counter, so at equal timestamps a task's `B` still precedes what its
//! body recorded and its `E` follows it.
//!
//! ## Bounded memory, well-formed output
//!
//! Each shard is a fixed-capacity ring: when full, the **oldest** event in
//! the shard is evicted (and counted in [`TraceBuffer::dropped`]). Because
//! eviction removes a per-thread *prefix* of events, the survivors of any
//! thread are a suffix of a properly nested sequence, and the exporter can
//! repair it deterministically:
//!
//! * an `E` arriving while the replayed stack is empty lost its `B` to
//!   eviction → skipped;
//! * a `B` still open at export time (a live region, or an `E` that was
//!   never recorded) → closed with a synthetic `E` at the latest observed
//!   timestamp.
//!
//! The exported JSON is therefore always loadable in `chrome://tracing` /
//! Perfetto *and* passes the strict CI schema check: per-thread balanced
//! B/E, LIFO nesting, monotonic timestamps.

use crate::graphtrace::GraphTrace;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span phase (Chrome trace-event `ph` values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
}

impl Phase {
    /// The Chrome trace-event `ph` string.
    pub fn ph(&self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
        }
    }
}

/// The process-wide copy of `name`, made on its first use and never freed:
/// what an event stores in place of an owned string, so that recording one
/// allocates nothing. A run uses a bounded set of names (region names, pool
/// labels, `<stage>.f<fab>` task labels); do not intern per-event text.
///
/// Each thread keeps its own table in front of the shared one, so after a
/// thread's first use of a name a lookup takes no lock and no allocation.
pub fn intern(name: &str) -> &'static str {
    thread_local! {
        static SEEN: RefCell<HashSet<&'static str>> = RefCell::new(HashSet::new());
    }
    static ALL: Mutex<Option<HashSet<&'static str>>> = Mutex::new(None);
    SEEN.with(|seen| {
        if let Some(&known) = seen.borrow().get(name) {
            return known;
        }
        let mut all = ALL.lock().unwrap();
        let all = all.get_or_insert_with(HashSet::new);
        let known = match all.get(name) {
            Some(&known) => known,
            None => {
                let leaked: &'static str = Box::leak(name.into());
                all.insert(leaked);
                leaked
            }
        };
        seen.borrow_mut().insert(known);
        known
    })
}

/// Where an event falls in a trace's total order: nanoseconds since the
/// buffer's epoch, then a sequence number from the buffer's counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    /// Nanoseconds since the buffer's monotonic epoch.
    pub ts_ns: u64,
    /// Global recording sequence number (total order tiebreak).
    pub seq: u64,
}

/// One span event: recorded in the ring, or derived from a graph task at
/// export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (a region name, pool job label or task label): a literal
    /// or [`intern`]ed.
    pub name: &'static str,
    /// Stable small per-thread id.
    pub tid: u64,
    /// Nanoseconds since the buffer's monotonic epoch.
    pub ts_ns: u64,
    /// Begin or end.
    pub phase: Phase,
    /// Global recording sequence number (total order tiebreak).
    pub seq: u64,
}

/// One event of an exported trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exported {
    /// A span begin or end.
    Span(TraceEvent),
    /// One end of dependency arrow `id` (numbered from 1 per export), placed
    /// at a task span's edge `at`: a tail (`"s"`) at the predecessor's end,
    /// a head (`"f"`) at the successor's begin.
    Arrow {
        /// The task-span event the arrow end sits at.
        at: TraceEvent,
        /// Arrow id: pairs a tail with its head.
        id: u64,
    },
}

impl Exported {
    /// The event this one is, or sits at.
    pub fn event(&self) -> &TraceEvent {
        match self {
            Exported::Span(ev) | Exported::Arrow { at: ev, .. } => ev,
        }
    }

    /// Sort key: by stamp, then a task's `B` before its arrow heads and its
    /// arrow tails before its `E`.
    fn key(&self) -> (u64, u64, bool) {
        let ev = self.event();
        let arrow = matches!(self, Exported::Arrow { .. });
        (ev.ts_ns, ev.seq, arrow == (ev.phase == Phase::Begin))
    }
}

const NSHARDS: usize = 16;
const DEFAULT_CAPACITY_PER_SHARD: usize = 1 << 15;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stable trace id (assigned on first use, starts at 1).
pub fn thread_trace_id() -> u64 {
    TID.with(|t| *t)
}

/// A lock-sharded bounded ring of trace events.
pub struct TraceBuffer {
    shards: Vec<Mutex<VecDeque<TraceEvent>>>,
    capacity_per_shard: usize,
    epoch: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events total, split evenly over
    /// the shards.
    pub fn new(capacity: usize) -> Self {
        let per_shard = (capacity / NSHARDS).max(4);
        TraceBuffer {
            shards: (0..NSHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_shard.min(1024))))
                .collect(),
            capacity_per_shard: per_shard,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// `at` on this buffer's clock, with the next sequence number.
    pub fn stamp_at(&self, at: Instant) -> Stamp {
        Stamp {
            ts_ns: at.saturating_duration_since(self.epoch).as_nanos() as u64,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Now on this buffer's clock, with the next sequence number: what a
    /// graph task's boundary records in place of a ring event.
    pub fn stamp(&self) -> Stamp {
        self.stamp_at(Instant::now())
    }

    /// Record `phase` of span `name` on the calling thread, stamped `at`.
    fn push(&self, at: Instant, name: &'static str, phase: Phase) {
        let tid = thread_trace_id();
        let Stamp { ts_ns, seq } = self.stamp_at(at);
        let mut shard = self.shards[(tid as usize) % NSHARDS].lock().unwrap();
        if shard.len() >= self.capacity_per_shard {
            shard.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(TraceEvent {
            name,
            tid,
            ts_ns,
            phase,
            seq,
        });
    }

    /// Record the begin of span `name` on the calling thread, stamped `at`
    /// — a clock reading the caller also uses for its own books. `name` is
    /// stored as given: a literal or an [`intern`]ed name.
    pub fn begin_at(&self, at: Instant, name: &'static str) {
        self.push(at, name, Phase::Begin);
    }

    /// Record the end of span `name` on the calling thread, stamped `at`.
    /// See [`TraceBuffer::begin_at`].
    pub fn end_at(&self, at: Instant, name: &'static str) {
        self.push(at, name, Phase::End);
    }

    /// Record a span begin on the calling thread.
    pub fn begin(&self, name: &str) {
        self.begin_at(Instant::now(), intern(name));
    }

    /// Record a span end on the calling thread.
    pub fn end(&self, name: &str) {
        self.end_at(Instant::now(), intern(name));
    }

    /// Events evicted by ring overflow since the last [`TraceBuffer::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Discard all recorded events and reset the drop counter (the epoch is
    /// kept, so timestamps stay monotonic across clears).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// The ring's events merged with the task spans and dependency arrows
    /// of `graphs` (module docs), after the export-time repair: balanced B/E
    /// per thread, LIFO-nested, sorted by stamp. An arrow end needs no
    /// repair: it sits inside its task's span by construction.
    pub fn export(&self, graphs: &[GraphTrace]) -> Vec<Exported> {
        let mut all: Vec<Exported> = Vec::new();
        for s in &self.shards {
            all.extend(s.lock().unwrap().iter().map(|&ev| Exported::Span(ev)));
        }
        let mut id = 0;
        for g in graphs {
            let edge = |t: usize, phase: Phase| {
                let r = &g.tasks[t];
                let (ns, seq) = match phase {
                    Phase::Begin => (r.start_ns, r.start_seq),
                    Phase::End => (r.end_ns, r.end_seq),
                };
                TraceEvent {
                    name: r.name,
                    tid: r.worker,
                    ts_ns: g.start_ns + ns,
                    phase,
                    seq,
                }
            };
            for t in 0..g.tasks.len() {
                all.push(Exported::Span(edge(t, Phase::Begin)));
                all.push(Exported::Span(edge(t, Phase::End)));
            }
            for (t, deps) in g.deps.iter().enumerate() {
                for &d in deps {
                    id += 1;
                    all.push(Exported::Arrow {
                        at: edge(d, Phase::End),
                        id,
                    });
                    all.push(Exported::Arrow {
                        at: edge(t, Phase::Begin),
                        id,
                    });
                }
            }
        }
        all.sort_by_key(Exported::key);
        let max_ts = all.last().map(|e| e.event().ts_ns).unwrap_or(0);
        let mut max_seq = all.iter().map(|e| e.event().seq + 1).max().unwrap_or(0);
        // Replay per-thread stacks: drop orphan E events (their B was
        // evicted), close still-open B events with synthetic E events.
        let mut stacks: HashMap<u64, Vec<&'static str>> = HashMap::new();
        let mut out: Vec<Exported> = Vec::with_capacity(all.len());
        for item in all {
            if let Exported::Span(ev) = item {
                let stack = stacks.entry(ev.tid).or_default();
                match ev.phase {
                    Phase::Begin => stack.push(ev.name),
                    // Orphan E (B evicted) or name mismatch: skip to keep
                    // the output balanced and nested.
                    Phase::End if stack.last() != Some(&ev.name) => continue,
                    Phase::End => {
                        stack.pop();
                    }
                }
            }
            out.push(item);
        }
        for (tid, stack) in stacks {
            for name in stack.into_iter().rev() {
                out.push(Exported::Span(TraceEvent {
                    name,
                    tid,
                    ts_ns: max_ts,
                    phase: Phase::End,
                    seq: max_seq,
                }));
                max_seq += 1;
            }
        }
        out
    }

    /// Write the stream [`TraceBuffer::export`] gives for `graphs` as Chrome
    /// trace-event JSON (the `{"traceEvents": [...]}` object form). `ts` is
    /// microseconds with nanosecond fraction, `pid` is constant 1, `tid` is
    /// the stable per-thread id. The header reports the ring's
    /// `droppedEventCount` and, as `evictedGraphRuns`, `evicted_runs`: the
    /// graph runs whose task spans the trace no longer holds. Returns the
    /// path written.
    pub fn write_chrome_trace(
        &self,
        path: impl AsRef<Path>,
        graphs: &[GraphTrace],
        evicted_runs: u64,
    ) -> std::io::Result<PathBuf> {
        let path = path.as_ref().to_path_buf();
        let events = self.export(graphs);
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{{")?;
        writeln!(f, "  \"displayTimeUnit\": \"ns\",")?;
        writeln!(f, "  \"droppedEventCount\": {},", self.dropped())?;
        writeln!(f, "  \"evictedGraphRuns\": {evicted_runs},")?;
        writeln!(f, "  \"traceEvents\": [")?;
        for (i, item) in events.iter().enumerate() {
            let sep = if i + 1 == events.len() { "" } else { "," };
            let ev = item.event();
            // An arrow end carries its id; "bp": "e" attaches the head to
            // the enclosing slice (Perfetto convention).
            let (name, ph, flow) = match (item, ev.phase) {
                (Exported::Span(_), phase) => (ev.name, phase.ph(), String::new()),
                (Exported::Arrow { id, .. }, Phase::End) => ("dep", "s", format!(", \"id\": {id}")),
                (Exported::Arrow { id, .. }, Phase::Begin) => {
                    ("dep", "f", format!(", \"id\": {id}, \"bp\": \"e\""))
                }
            };
            writeln!(
                f,
                "    {{\"name\": \"{}\", \"cat\": \"exastro\", \"ph\": \"{ph}\", \"ts\": {}.{:03}, \"pid\": 1, \"tid\": {}{flow}}}{sep}",
                crate::json::escape(name),
                ev.ts_ns / 1_000,
                ev.ts_ns % 1_000,
                ev.tid,
            )?;
        }
        writeln!(f, "  ]")?;
        writeln!(f, "}}")?;
        f.flush()?;
        Ok(path)
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(NSHARDS * DEFAULT_CAPACITY_PER_SHARD)
    }
}

/// The process-wide trace buffer used by the `Telemetry` facade.
pub fn global() -> &'static TraceBuffer {
    static GLOBAL: OnceLock<TraceBuffer> = OnceLock::new();
    GLOBAL.get_or_init(TraceBuffer::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphtrace::{TaskClass, TaskRecord};

    /// Balanced, LIFO-nested spans with monotonic timestamps per thread,
    /// and every arrow id kept at both ends, each inside an open span.
    fn assert_well_formed(events: &[Exported]) {
        let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
        let mut last_ts: HashMap<u64, u64> = HashMap::new();
        let mut arrows: HashMap<u64, Vec<Phase>> = HashMap::new();
        for item in events {
            let ev = item.event();
            let prev = last_ts.entry(ev.tid).or_insert(0);
            assert!(ev.ts_ns >= *prev, "timestamps regress on tid {}", ev.tid);
            *prev = ev.ts_ns;
            let stack = stacks.entry(ev.tid).or_default();
            match (item, ev.phase) {
                (Exported::Span(_), Phase::Begin) => stack.push(ev.name),
                (Exported::Span(_), Phase::End) => {
                    let top = stack.pop().expect("E with empty stack");
                    assert_eq!(top, ev.name, "E does not match innermost B");
                }
                (Exported::Arrow { id, .. }, phase) => {
                    assert_eq!(stack.last(), Some(&ev.name), "arrow {id} outside its task");
                    arrows.entry(*id).or_default().push(phase);
                }
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "unbalanced spans on tid {tid}: {stack:?}");
        }
        for (id, ends) in arrows {
            assert_eq!(
                ends,
                [Phase::End, Phase::Begin],
                "arrow {id}: tail, then head"
            );
        }
    }

    fn spans(buf: &TraceBuffer) -> Vec<Exported> {
        let events = buf.export(&[]);
        assert_well_formed(&events);
        events
    }

    /// One traced run on this thread: `tasks[t]` is task `t`'s start and end
    /// stamp, `deps` its edges.
    fn graph(tasks: &[(Stamp, Stamp)], deps: Vec<Vec<usize>>) -> GraphTrace {
        let worker = thread_trace_id();
        let tasks = tasks
            .iter()
            .enumerate()
            .map(|(t, (start, end))| TaskRecord {
                task: t,
                name: intern(&format!("t{t}")),
                class: TaskClass::Other,
                ready_ns: 0,
                start_ns: start.ts_ns,
                end_ns: end.ts_ns,
                start_seq: start.seq,
                end_seq: end.seq,
                worker,
            });
        GraphTrace {
            label: "g".to_string(),
            start_ns: 0,
            wall_ns: 0,
            tasks: tasks.collect(),
            deps,
        }
    }

    #[test]
    fn spans_nest_and_export_balanced() {
        let buf = TraceBuffer::new(1024);
        buf.begin("step");
        buf.begin("hydro");
        buf.end("hydro");
        buf.begin("burn");
        buf.end("burn");
        buf.end("step");
        assert_eq!(spans(&buf).len(), 6);
    }

    #[test]
    fn open_spans_are_closed_at_export() {
        let buf = TraceBuffer::new(1024);
        buf.begin("outer");
        buf.begin("inner");
        // Neither span closed: export must synthesize both E events.
        assert_eq!(spans(&buf).len(), 4);
    }

    #[test]
    fn eviction_keeps_output_balanced() {
        // Tiny ring: force eviction of early B events, leaving orphan Es.
        let buf = TraceBuffer::new(NSHARDS * 4);
        for i in 0..200 {
            buf.begin(&format!("span{i}"));
            buf.end(&format!("span{i}"));
        }
        assert!(buf.dropped() > 0);
        spans(&buf);
    }

    #[test]
    fn cross_thread_events_are_attributed_separately() {
        let buf = std::sync::Arc::new(TraceBuffer::new(4096));
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = buf.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    b.begin(&format!("t{t}-{i}"));
                    b.end(&format!("t{t}-{i}"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = spans(&buf);
        assert_eq!(events.len(), 4 * 20 * 2);
        let tids: HashSet<u64> = events.iter().map(|e| e.event().tid).collect();
        assert_eq!(tids.len(), 4, "each thread gets its own tid");
    }

    #[test]
    fn task_spans_enclose_their_body_at_equal_timestamps() {
        // Every boundary of task 0 shares its timestamp with a ring event:
        // the sequence numbers alone must put B first and E last.
        let buf = TraceBuffer::new(1024);
        let start = buf.stamp();
        buf.begin("body");
        buf.end("body");
        let end = buf.stamp();
        buf.begin("after");
        buf.end("after");
        let ring = buf.export(&[]);
        let ts = |k: usize| ring[k].event().ts_ns;
        let at = |ts_ns, s: Stamp| Stamp { ts_ns, seq: s.seq };
        let g = graph(&[(at(ts(0), start), at(ts(2), end))], vec![vec![]]);
        let events = buf.export(&[g]);
        assert_well_formed(&events);
        let order: Vec<(&str, Phase)> = events
            .iter()
            .map(|e| (e.event().name, e.event().phase))
            .collect();
        use Phase::{Begin as B, End as E};
        let want = [
            ("t0", B),
            ("body", B),
            ("body", E),
            ("t0", E),
            ("after", B),
            ("after", E),
        ];
        assert_eq!(order, want);
    }

    #[test]
    fn flow_export_carries_id_and_binding_point() {
        let buf = TraceBuffer::new(1024);
        let stamps: Vec<Stamp> = (0..4).map(|_| buf.stamp()).collect();
        let g = graph(
            &[(stamps[0], stamps[1]), (stamps[2], stamps[3])],
            vec![vec![], vec![0]],
        );
        let events = buf.export(std::slice::from_ref(&g));
        assert_well_formed(&events);
        assert_eq!(events.len(), 6, "two spans and one arrow");
        let dir = std::env::temp_dir().join(format!("exastro-flow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = buf.write_chrome_trace(dir.join("f.json"), &[g], 3).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ph\": \"s\", \"ts\""));
        assert!(text.contains("\"id\": 1, \"bp\": \"e\""));
        assert!(text.contains("\"evictedGraphRuns\": 3,"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chrome_export_is_valid_jsonish() {
        let buf = TraceBuffer::new(1024);
        buf.begin("a \"quoted\" name\n");
        buf.end("a \"quoted\" name\n");
        let dir = std::env::temp_dir().join(format!("exastro-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = buf.write_chrome_trace(dir.join("t.json"), &[], 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\\u000a"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
