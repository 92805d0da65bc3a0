//! Named, nested regions: the always-on table behind the end-of-run report
//! (AMReX's `BL_PROFILE` regions, the evidence base of the paper's §IV method —
//! wrap every phase, read the table, port what the table says).
//!
//! A region path is interned once as a node `(parent, name)` of a tree, so
//! a thread's context is one integer ([`RegionId`]) and the table is rows
//! of atomic counters indexed by it. After a path's first use, opening and
//! closing a region or recording into one takes a read lock and a few
//! atomic adds: no allocation, no string. Path strings exist only in
//! [`Telemetry::region_rows`] and the two reports built on it.
//!
//! The table is on whether or not [`Telemetry::enable`] was called; when it
//! was, a region also emits a begin/end trace span, stamped with the same
//! clock readings that time the row.

use crate::trace::{self, intern};
use crate::{json, Telemetry};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Accumulated counters for one region path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegionStats {
    /// Times the region was entered.
    pub calls: u64,
    /// Inclusive host wall time, nanoseconds.
    pub wall_ns: u64,
    /// Zones the region's kernels reported processing.
    pub zones: u64,
    /// Payload bytes moved inside the region (checkpoint I/O traffic).
    pub bytes: u64,
    /// Recovery retries taken inside the region (burn ladder rungs beyond
    /// the first attempt, driver step rejections).
    pub retries: u64,
}

/// A thread's region context: the innermost open region, as the index of
/// its node. What the worker pool carries from a submitter to its workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionId(u32);

/// One interned path and its row: the fields of [`RegionStats`] in order.
/// Node 0 is the root, `(top)`: the context of
/// a thread with no region open.
struct Node {
    parent: u32,
    name: &'static str,
    pool_label: &'static str,
    children: Vec<u32>,
    row: [AtomicU64; 5],
}

const CALLS: usize = 0;
const WALL_NS: usize = 1;
const ZONES: usize = 2;
const BYTES: usize = 3;
const RETRIES: usize = 4;

impl Node {
    fn new(parent: u32, name: &'static str) -> Node {
        Node {
            parent,
            name,
            pool_label: intern(&format!("pool:{name}")),
            children: Vec::new(),
            row: Default::default(),
        }
    }

    fn stats(&self) -> RegionStats {
        let [calls, wall_ns, zones, bytes, retries] = self.row.each_ref().map(|c| c.load(Relaxed));
        RegionStats {
            calls,
            wall_ns,
            zones,
            bytes,
            retries,
        }
    }

    fn close(&self, wall_ns: u64) {
        self.row[CALLS].fetch_add(1, Relaxed);
        self.row[WALL_NS].fetch_add(wall_ns, Relaxed);
    }
}

thread_local! {
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

// A node is pushed whole and never changed again except through its
// atomics, so the table is valid at every step and a poisoned lock is
// recovered rather than propagated (a region guard's drop must not panic).
fn table() -> &'static RwLock<Vec<Node>> {
    static TABLE: OnceLock<RwLock<Vec<Node>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(vec![Node::new(0, "(top)")]))
}

fn with_node<R>(id: u32, f: impl FnOnce(&Node) -> R) -> R {
    let nodes = table().read().unwrap_or_else(PoisonError::into_inner);
    f(&nodes[id as usize])
}

/// Add `v` to column `col` of the innermost open region's row.
fn add(col: usize, v: u64) {
    if v > 0 {
        with_node(CURRENT.get(), |n| n.row[col].fetch_add(v, Relaxed));
    }
}

/// The node of `name` under `parent`, interned on first use.
fn child(parent: u32, name: &'static str) -> u32 {
    let find = |nodes: &[Node]| {
        let mut kids = nodes[parent as usize].children.iter().copied();
        kids.find(|&c| nodes[c as usize].name == name)
    };
    if let Some(id) = find(&table().read().unwrap_or_else(PoisonError::into_inner)) {
        return id;
    }
    let mut nodes = table().write().unwrap_or_else(PoisonError::into_inner);
    if let Some(id) = find(&nodes) {
        return id; // another thread interned it between the two locks
    }
    let id = u32::try_from(nodes.len()).expect("fewer than 2^32 region paths");
    nodes.push(Node::new(parent, name));
    nodes[parent as usize].children.push(id);
    id
}

fn path_of(nodes: &[Node], id: u32) -> String {
    let mut names = vec![nodes[id as usize].name];
    let mut at = nodes[id as usize].parent;
    while at != 0 {
        names.push(nodes[at as usize].name);
        at = nodes[at as usize].parent;
    }
    names.reverse();
    names.join("/")
}

/// Zero every row and keep the nodes (see [`Telemetry::reset`]).
pub(crate) fn reset() {
    let nodes = table().read().unwrap_or_else(PoisonError::into_inner);
    for counter in nodes.iter().flat_map(|n| &n.row) {
        counter.store(0, Relaxed);
    }
}

impl RegionId {
    /// The trace-span name of a pool worker serving this region,
    /// `pool:<innermost region name>` (interned with the node).
    pub fn pool_label(self) -> &'static str {
        with_node(self.0, |n| n.pool_label)
    }
}

/// RAII guard for one open region: times from [`Telemetry::region`] to its
/// drop, then adds one call and the wall time to the path's row.
pub struct Region {
    node: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    /// The context is per thread: the guard must drop where it was made.
    not_send: PhantomData<*const ()>,
}

impl Drop for Region {
    fn drop(&mut self) {
        let end = Instant::now();
        let wall = end.saturating_duration_since(self.start).as_nanos() as u64;
        with_node(self.node, |n| n.close(wall));
        if Telemetry::is_enabled() {
            trace::global().end_at(end, self.name);
        }
        CURRENT.set(self.parent);
    }
}

impl Telemetry {
    /// Open the region `name` inside this thread's innermost open region;
    /// close it by dropping the guard (bind it to a local: guards drop in
    /// reverse order). When telemetry is enabled it is also a trace span.
    pub fn region(name: &'static str) -> Region {
        let parent = CURRENT.get();
        let node = child(parent, name);
        CURRENT.set(node);
        let start = Instant::now();
        if Self::is_enabled() {
            trace::global().begin_at(start, name);
        }
        Region {
            node,
            parent,
            name,
            start,
            not_send: PhantomData,
        }
    }

    /// This thread's region context.
    pub fn context() -> RegionId {
        RegionId(CURRENT.get())
    }

    /// Make `ctx` this thread's region context and return the one it
    /// replaces, for the caller to put back. A pool worker adopts its
    /// submitter's context for a job, so what the body records lands in the
    /// submitter's row; nothing is timed (the submitter holds the guard).
    pub fn set_context(ctx: RegionId) -> RegionId {
        RegionId(CURRENT.replace(ctx.0))
    }

    /// Attribute `zones` processed zones to the innermost open region.
    pub fn record_zones(zones: u64) {
        add(ZONES, zones);
    }

    /// Attribute `bytes` of payload I/O to the innermost open region.
    pub fn record_bytes(bytes: u64) {
        add(BYTES, bytes);
    }

    /// Attribute `retries` recovery retries (burn-ladder rungs, step
    /// rejections) to the innermost open region.
    pub fn record_retries(retries: u64) {
        add(RETRIES, retries);
    }

    /// Add one call of `ns` nanoseconds to the child `name` of the innermost
    /// open region: for a cost measured by code that cannot hold a guard
    /// across its own timing boundaries (the burner's `burner/solve[..]`).
    pub fn record_ns(name: &'static str, ns: u64) {
        with_node(child(CURRENT.get(), name), |n| n.close(ns));
    }

    /// The table both reports print: every path that recorded anything
    /// since the last [`Telemetry::reset`], by wall time descending, ties by
    /// path (so equal rows never reorder between runs), and the `%top`
    /// base: the wall time of the regions opened with no region open.
    pub fn region_rows() -> (Vec<(String, RegionStats)>, u64) {
        let nodes = table().read().unwrap_or_else(PoisonError::into_inner);
        let mut rows = Vec::new();
        let mut total_ns = 0;
        for (id, n) in nodes.iter().enumerate() {
            let stats = n.stats();
            if stats == RegionStats::default() {
                continue;
            }
            if n.parent == 0 && id != 0 {
                total_ns += stats.wall_ns;
            }
            rows.push((path_of(&nodes, id as u32), stats));
        }
        rows.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then_with(|| a.0.cmp(&b.0)));
        (rows, total_ns)
    }

    /// The row of one exact path (`"castro_advance/burn"`; `"(top)"` for
    /// what was recorded with no region open), if it recorded anything.
    pub fn region_stats(path: &str) -> Option<RegionStats> {
        let (rows, _) = Self::region_rows();
        rows.into_iter().find(|(p, _)| p == path).map(|(_, s)| s)
    }

    /// The end-of-run table as text.
    pub fn region_report() -> String {
        let (rows, total_ns) = Self::region_rows();
        let mut out = String::new();
        out.push_str("===================== execution telemetry =====================\n");
        out.push_str(&format!(
            "{:<34} {:>7} {:>10} {:>6} {:>12} {:>10} {:>8}\n",
            "region", "calls", "wall [ms]", "%top", "zones", "MB", "retries"
        ));
        for (path, s) in rows {
            let (ms, mb) = (s.wall_ns as f64 / 1e6, s.bytes as f64 / 1e6);
            let pct = if total_ns > 0 {
                100.0 * s.wall_ns as f64 / total_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{path:<34} {:>7} {ms:>10.3} {pct:>5.1}% {:>12} {mb:>10.2} {:>8}\n",
                s.calls, s.zones, s.retries
            ));
        }
        out.push_str("===============================================================\n");
        out
    }

    /// The same rows in the same order as a JSON object: `{"total_ns": ..,
    /// "regions": [{"path", "calls", "wall_ns", "zones", "bytes",
    /// "retries"}, ..]}`.
    pub fn region_report_json() -> String {
        let (rows, total_ns) = Self::region_rows();
        let rows: Vec<String> = rows
            .iter()
            .map(|(path, s)| {
                format!(
                    "{{\"path\": \"{}\", \"calls\": {}, \"wall_ns\": {}, \"zones\": {}, \"bytes\": {}, \"retries\": {}}}",
                    json::escape(path),
                    s.calls,
                    s.wall_ns,
                    s.zones,
                    s.bytes,
                    s.retries,
                )
            })
            .collect();
        let rows = rows.join(", ");
        format!("{{\"total_ns\": {total_ns}, \"regions\": [{rows}]}}")
    }
}
