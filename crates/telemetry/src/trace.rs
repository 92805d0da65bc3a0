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

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Span or flow phase (Chrome trace-event `ph` values).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Flow start (`"s"`) — the tail of a dependency arrow, emitted inside
    /// the predecessor's span.
    FlowStart,
    /// Flow finish (`"f"`) — the head of a dependency arrow, emitted inside
    /// the successor's span.
    FlowFinish,
}

impl Phase {
    /// The Chrome trace-event `ph` string.
    pub fn ph(&self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::FlowStart => "s",
            Phase::FlowFinish => "f",
        }
    }

    /// True for the flow phases (`"s"` / `"f"`).
    pub fn is_flow(&self) -> bool {
        matches!(self, Phase::FlowStart | Phase::FlowFinish)
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

/// One recorded event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Span name (a region name, pool job label or task label): a literal
    /// or [`intern`]ed.
    pub name: &'static str,
    /// Stable small per-thread id.
    pub tid: u64,
    /// Nanoseconds since the buffer's monotonic epoch.
    pub ts_ns: u64,
    /// Begin, end, or a flow endpoint.
    pub phase: Phase,
    /// Global recording sequence number (total order tiebreak).
    pub seq: u64,
    /// Flow binding id — pairs a [`Phase::FlowStart`] with its
    /// [`Phase::FlowFinish`]. Zero (and ignored) for span events.
    pub flow_id: u64,
}

/// An optional first event, a run of events, an optional last event — and
/// still an `ExactSizeIterator`, which `Chain` is not.
struct Batch<E, I> {
    first: Option<E>,
    middle: I,
    last: Option<E>,
}

impl<E, I> Batch<E, I> {
    fn new(first: Option<E>, middle: I, last: Option<E>) -> Self {
        Batch {
            first,
            middle,
            last,
        }
    }
}

impl<E, I: ExactSizeIterator<Item = E>> Iterator for Batch<E, I> {
    type Item = E;

    fn next(&mut self) -> Option<E> {
        self.first
            .take()
            .or_else(|| self.middle.next())
            .or_else(|| self.last.take())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.first.is_some() as usize + self.middle.len() + self.last.is_some() as usize;
        (n, Some(n))
    }
}

impl<E, I: ExactSizeIterator<Item = E>> ExactSizeIterator for Batch<E, I> {}

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

    fn push(&self, name: &str, phase: Phase, flow_id: u64) {
        let event = (intern(name), phase, flow_id);
        self.push_all(Instant::now(), std::iter::once(event));
    }

    /// Record `events` — `(name, phase, flow id)` — on the calling thread as
    /// one batch stamped `at`: one run of sequence numbers, one lock.
    fn push_all(
        &self,
        at: Instant,
        events: impl ExactSizeIterator<Item = (&'static str, Phase, u64)>,
    ) {
        let tid = thread_trace_id();
        let ts_ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let seq = self.seq.fetch_add(events.len() as u64, Ordering::Relaxed);
        let mut shard = self.shards[(tid as usize) % NSHARDS].lock().unwrap();
        let mut evicted = 0;
        for (n, (name, phase, flow_id)) in events.enumerate() {
            if shard.len() >= self.capacity_per_shard {
                shard.pop_front();
                evicted += 1;
            }
            shard.push_back(TraceEvent {
                name,
                tid,
                ts_ns,
                phase,
                seq: seq + n as u64,
                flow_id,
            });
        }
        if evicted > 0 {
            self.dropped.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Record, as one batch, the begin of span `name` and inside it the
    /// heads (`ph: "f"`) of the dependency arrows `flow_name` that end in
    /// it, all stamped `at` — a clock reading the caller just took and may
    /// use for its own books. A graph task with a dozen dependencies is a
    /// dozen events; batched they share that one reading and one lock. The
    /// names are stored as given, not interned: pass literals or
    /// [`intern`]ed names.
    pub fn begin_with_flows(
        &self,
        at: Instant,
        name: &'static str,
        flow_name: &'static str,
        heads: impl ExactSizeIterator<Item = u64>,
    ) {
        let heads = heads.map(|id| (flow_name, Phase::FlowFinish, id));
        self.push_all(at, Batch::new(Some((name, Phase::Begin, 0)), heads, None));
    }

    /// Record, as one batch, the tails (`ph: "s"`) of the dependency arrows
    /// `flow_name` that start in span `name`, then the span's end. See
    /// [`TraceBuffer::begin_with_flows`].
    pub fn end_with_flows(
        &self,
        at: Instant,
        name: &'static str,
        flow_name: &'static str,
        tails: impl ExactSizeIterator<Item = u64>,
    ) {
        let tails = tails.map(|id| (flow_name, Phase::FlowStart, id));
        self.push_all(at, Batch::new(None, tails, Some((name, Phase::End, 0))));
    }

    /// Record a span begin on the calling thread.
    pub fn begin(&self, name: &str) {
        self.push(name, Phase::Begin, 0);
    }

    /// Record a span end on the calling thread.
    pub fn end(&self, name: &str) {
        self.push(name, Phase::End, 0);
    }

    /// Record a flow start (dependency-arrow tail) on the calling thread.
    /// Must be emitted inside an open span; flow events recorded outside a
    /// span are dropped by the export-time repair.
    pub fn flow_start(&self, name: &str, flow_id: u64) {
        self.push(name, Phase::FlowStart, flow_id);
    }

    /// Record a flow finish (dependency-arrow head) on the calling thread.
    /// Must be emitted inside an open span, after its matching
    /// [`TraceBuffer::flow_start`].
    pub fn flow_finish(&self, name: &str, flow_id: u64) {
        self.push(name, Phase::FlowFinish, flow_id);
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

    /// All events after the export-time repair (see module docs): balanced
    /// B/E per thread, LIFO-nested, sorted by `(ts_ns, seq)`. Flow events
    /// survive only when they were recorded inside an open span *and* both
    /// endpoints of the flow id survive with the start ordered before the
    /// finish — dangling dependency arrows are dropped, never half-drawn.
    pub fn events_sorted(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::new();
        for s in &self.shards {
            all.extend(s.lock().unwrap().iter().copied());
        }
        all.sort_by_key(|e| (e.ts_ns, e.seq));
        let max_ts = all.last().map(|e| e.ts_ns).unwrap_or(0);
        let mut max_seq = all.last().map(|e| e.seq + 1).unwrap_or(0);
        // Replay per-thread stacks: drop orphan E events (their B was
        // evicted), close still-open B events with synthetic E events.
        let mut stacks: HashMap<u64, Vec<&'static str>> = HashMap::new();
        let mut out: Vec<TraceEvent> = Vec::with_capacity(all.len());
        for ev in all {
            match ev.phase {
                Phase::Begin => {
                    stacks.entry(ev.tid).or_default().push(ev.name);
                    out.push(ev);
                }
                Phase::End => {
                    let stack = stacks.entry(ev.tid).or_default();
                    match stack.last() {
                        Some(&top) if top == ev.name => {
                            stack.pop();
                            out.push(ev);
                        }
                        // Orphan E (B evicted) or name mismatch: skip to
                        // keep the output balanced and nested.
                        _ => {}
                    }
                }
                Phase::FlowStart | Phase::FlowFinish => {
                    // A flow endpoint binds to the enclosing span; one that
                    // lost its span to eviction has nothing to attach to.
                    let enclosed = stacks.get(&ev.tid).is_some_and(|s| !s.is_empty());
                    if enclosed {
                        out.push(ev);
                    }
                }
            }
        }
        for (tid, stack) in stacks {
            for name in stack.into_iter().rev() {
                out.push(TraceEvent {
                    name,
                    tid,
                    ts_ns: max_ts,
                    phase: Phase::End,
                    seq: max_seq,
                    flow_id: 0,
                });
                max_seq += 1;
            }
        }
        // Pair-filter flows: an id must keep exactly one start and one
        // finish, with the start recorded no later than the finish.
        let mut starts: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut finishes: HashMap<u64, (u64, u64)> = HashMap::new();
        for ev in &out {
            let slot = match ev.phase {
                Phase::FlowStart => &mut starts,
                Phase::FlowFinish => &mut finishes,
                _ => continue,
            };
            slot.entry(ev.flow_id).or_insert((ev.ts_ns, ev.seq));
        }
        out.retain(|ev| {
            if !ev.phase.is_flow() {
                return true;
            }
            match (starts.get(&ev.flow_id), finishes.get(&ev.flow_id)) {
                (Some(&s), Some(&f)) => {
                    // Keep only the first occurrence of each endpoint.
                    s <= f && (ev.ts_ns, ev.seq) == if ev.phase == Phase::FlowStart { s } else { f }
                }
                _ => false,
            }
        });
        out.sort_by_key(|e| (e.ts_ns, e.seq));
        out
    }

    /// Write the repaired event stream as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form). `ts` is microseconds with
    /// nanosecond fraction, `pid` is constant 1, `tid` is the stable
    /// per-thread id. Returns the path written.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let path = path.as_ref().to_path_buf();
        let events = self.events_sorted();
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{{")?;
        writeln!(f, "  \"displayTimeUnit\": \"ns\",")?;
        writeln!(f, "  \"droppedEventCount\": {},", self.dropped())?;
        writeln!(f, "  \"traceEvents\": [")?;
        for (i, ev) in events.iter().enumerate() {
            let sep = if i + 1 == events.len() { "" } else { "," };
            // Flow endpoints carry the binding id; "bp": "e" attaches the
            // arrow head to the enclosing slice (Perfetto convention).
            let flow = match ev.phase {
                Phase::FlowStart => format!(", \"id\": {}", ev.flow_id),
                Phase::FlowFinish => format!(", \"id\": {}, \"bp\": \"e\"", ev.flow_id),
                _ => String::new(),
            };
            writeln!(
                f,
                "    {{\"name\": \"{}\", \"cat\": \"exastro\", \"ph\": \"{}\", \"ts\": {}.{:03}, \"pid\": 1, \"tid\": {}{flow}}}{sep}",
                crate::json::escape(ev.name),
                ev.phase.ph(),
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

    fn assert_well_formed(events: &[TraceEvent]) {
        let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
        let mut last_ts: HashMap<u64, u64> = HashMap::new();
        let mut flow_starts: HashMap<u64, usize> = HashMap::new();
        let mut flow_finishes: HashMap<u64, usize> = HashMap::new();
        for ev in events {
            let prev = last_ts.entry(ev.tid).or_insert(0);
            assert!(ev.ts_ns >= *prev, "timestamps regress on tid {}", ev.tid);
            *prev = ev.ts_ns;
            let stack = stacks.entry(ev.tid).or_default();
            match ev.phase {
                Phase::Begin => stack.push(ev.name),
                Phase::End => {
                    let top = stack.pop().expect("E with empty stack");
                    assert_eq!(top, ev.name, "E does not match innermost B");
                }
                Phase::FlowStart | Phase::FlowFinish => {
                    assert!(
                        !stack.is_empty(),
                        "flow event outside any span on tid {}",
                        ev.tid
                    );
                    let slot = if ev.phase == Phase::FlowStart {
                        &mut flow_starts
                    } else {
                        &mut flow_finishes
                    };
                    *slot.entry(ev.flow_id).or_insert(0) += 1;
                }
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "unbalanced spans on tid {tid}: {stack:?}");
        }
        assert_eq!(
            flow_starts.keys().collect::<std::collections::HashSet<_>>(),
            flow_finishes
                .keys()
                .collect::<std::collections::HashSet<_>>(),
            "every flow id must keep both endpoints"
        );
        for (id, n) in flow_starts.iter().chain(flow_finishes.iter()) {
            assert_eq!(*n, 1, "flow id {id} has a duplicated endpoint");
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
        let events = buf.events_sorted();
        assert_eq!(events.len(), 6);
        assert_well_formed(&events);
    }

    #[test]
    fn open_spans_are_closed_at_export() {
        let buf = TraceBuffer::new(1024);
        buf.begin("outer");
        buf.begin("inner");
        // Neither span closed: export must synthesize both E events.
        let events = buf.events_sorted();
        assert_eq!(events.len(), 4);
        assert_well_formed(&events);
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
        assert_well_formed(&buf.events_sorted());
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
        let events = buf.events_sorted();
        assert_eq!(events.len(), 4 * 20 * 2);
        assert_well_formed(&events);
        let tids: std::collections::HashSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4, "each thread gets its own tid");
    }

    #[test]
    fn flow_events_pair_up_and_orphans_are_dropped() {
        let buf = TraceBuffer::new(1024);
        buf.begin("pack");
        buf.flow_start("dep", 7);
        buf.end("pack");
        buf.begin("unpack");
        buf.flow_finish("dep", 7);
        // Flow 9 has a finish but no start: must be dropped.
        buf.flow_finish("dep", 9);
        buf.end("unpack");
        // Flow 11 is emitted outside any span: must be dropped.
        buf.flow_start("dep", 11);
        let events = buf.events_sorted();
        assert_well_formed(&events);
        let flows: Vec<_> = events.iter().filter(|e| e.phase.is_flow()).collect();
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().all(|e| e.flow_id == 7));
        assert_eq!(flows[0].phase, Phase::FlowStart);
        assert_eq!(flows[1].phase, Phase::FlowFinish);
    }

    #[test]
    fn batched_task_events_equal_the_single_ones() {
        let (single, batched) = (TraceBuffer::new(1024), TraceBuffer::new(1024));
        single.begin("pack");
        single.flow_start("dep", 7);
        single.flow_start("dep", 8);
        single.end("pack");
        single.begin("unpack");
        single.flow_finish("dep", 7);
        single.flow_finish("dep", 8);
        single.end("unpack");
        batched.begin_with_flows(Instant::now(), "pack", "dep", [].into_iter());
        batched.end_with_flows(Instant::now(), "pack", "dep", [7, 8].into_iter());
        batched.begin_with_flows(Instant::now(), "unpack", "dep", [7, 8].into_iter());
        batched.end_with_flows(Instant::now(), "unpack", "dep", [].into_iter());
        let shape = |b: &TraceBuffer| -> Vec<(&'static str, Phase, u64)> {
            let events = b.events_sorted();
            assert_well_formed(&events);
            events
                .iter()
                .map(|e| (e.name, e.phase, e.flow_id))
                .collect()
        };
        assert_eq!(shape(&single), shape(&batched));
        assert_eq!(shape(&batched).len(), 8);
    }

    #[test]
    fn flow_export_carries_id_and_binding_point() {
        let buf = TraceBuffer::new(1024);
        buf.begin("a");
        buf.flow_start("dep", 42);
        buf.end("a");
        buf.begin("b");
        buf.flow_finish("dep", 42);
        buf.end("b");
        let dir = std::env::temp_dir().join(format!("exastro-flow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = buf.write_chrome_trace(dir.join("f.json")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ph\": \"s\", \"ts\""));
        assert!(text.contains("\"id\": 42"));
        assert!(text.contains("\"bp\": \"e\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chrome_export_is_valid_jsonish() {
        let buf = TraceBuffer::new(1024);
        buf.begin("a \"quoted\" name\n");
        buf.end("a \"quoted\" name\n");
        let dir = std::env::temp_dir().join(format!("exastro-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = buf.write_chrome_trace(dir.join("t.json")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\\u000a"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
