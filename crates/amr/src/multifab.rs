//! [`MultiFab`]: the core data container — one fab per box of a
//! [`BoxArray`], distributed over ranks by a [`DistributionMapping`].
//!
//! In a real MPI run each rank allocates only its own fabs; this
//! reproduction holds every fab in one address space (there is no MPI here)
//! but keeps the ownership information, and `fill_boundary` returns a
//! [`CommTrace`] recording exactly which rank pairs exchanged how many bytes.
//! The `exastro-machine` cluster simulator prices the same copies
//! ([`for_each_ghost_copy`]), so the communication volumes behind the
//! weak-scaling figures are the *actual* ghost-exchange pattern.

use crate::boxarray::{BoxArray, BoxIndex};
use crate::distribution::DistributionMapping;
use crate::fab::{for_each_row, Array4Mut, FArrayBox};
use crate::geometry::Geometry;
use exastro_parallel::{
    par_each_mut, par_index_each, par_map_fold, IndexBox, IntVect, Real, Telemetry, SPACEDIM,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One point-to-point message in a communication trace. Every field is a
/// `u32`, 12 bytes a message: a step's trace holds one entry per off-rank
/// ghost copy (thousands on a many-box level) and the drivers return it in
/// their step statistics, which callers keep one of per step — a caller
/// that steps faster keeps more of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload size in bytes (one box-to-box copy: far below 4 GiB).
    pub bytes: u32,
}

impl Message {
    fn new(src: usize, dst: usize, bytes: u64) -> Self {
        let rank = |r: usize| u32::try_from(r).expect("rank ids fit in u32");
        Message {
            src: rank(src),
            dst: rank(dst),
            bytes: u32::try_from(bytes).expect("one box-to-box copy is under 4 GiB"),
        }
    }
}

/// A record of the communication performed by one collective operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommTrace {
    /// Off-rank messages (src != dst).
    pub messages: Vec<Message>,
    /// Bytes moved between boxes on the same rank (no network cost).
    pub local_bytes: u64,
}

impl CommTrace {
    /// Total bytes crossing the network.
    pub fn network_bytes(&self) -> u64 {
        self.messages.iter().map(|m| u64::from(m.bytes)).sum()
    }

    /// Merge another trace into this one.
    pub fn merge(&mut self, other: &CommTrace) {
        self.messages.extend_from_slice(&other.messages);
        self.local_bytes += other.local_bytes;
    }
}

/// Every copy of the ghost exchange that fills, of each box of `ba`, the
/// ghost zones of `valid.grow_vec(ghosts)` from the valid zones of the
/// boxes and their periodic images: `f(src, dst, region, shift)` fills
/// `region` (in `dst`'s index space, never its valid zones) from box `src`
/// read at `iv - shift`. Copies come in destination, then source, then
/// [`Geometry::periodic_shifts`] order, each pair's overlap found through
/// one [`BoxIndex`]. [`MultiFab::plan_fill_boundary`] plans these copies,
/// and the machine model prices the same ones.
pub fn for_each_ghost_copy(
    ba: &BoxArray,
    geom: &Geometry,
    ghosts: IntVect,
    mut f: impl FnMut(usize, usize, IndexBox, IntVect),
) {
    if ghosts == IntVect::zero() {
        return;
    }
    let index = BoxIndex::new(ba);
    let shifts = geom.periodic_shifts();
    let mut sources = Vec::new();
    for dst in 0..ba.len() {
        let vbox = ba.get(dst);
        let gbox = vbox.grow_vec(ghosts);
        sources.clear();
        for (s, &shift) in shifts.iter().enumerate() {
            let hits = index.intersecting(&gbox.shift(-shift));
            sources.extend(hits.into_iter().map(|src| (src, s)));
        }
        sources.sort_unstable();
        for &(src, s) in &sources {
            let shift = shifts[s];
            if src == dst && shift == IntVect::zero() {
                continue;
            }
            let isect = gbox.intersection(&ba.get(src).shift(shift));
            for region in isect.difference(&vbox) {
                f(src, dst, region, shift);
            }
        }
    }
}

/// One planned ghost-zone copy: fill `region` (destination index space) of
/// fab `dst` from fab `src`, reading `iv - shift` (periodic image shift).
#[derive(Clone, Copy, Debug)]
struct GhostOp {
    src: usize,
    dst: usize,
    region: IndexBox,
    shift: IntVect,
}

/// The ghost exchange of one box layout and footprint, planned once and
/// run any number of times.
///
/// [`MultiFab::plan_fill_boundary`] derives the copy ops, the
/// per-destination op lists, the pack buffers and the [`CommTrace`] — the
/// exchange pattern depends only on the box layout and the footprint (the
/// per-dimension ghost depth it fills, see
/// [`MultiFab::fill_boundary_within`]), so the trace is complete before any
/// data moves. A run moves data only: [`ExchangePlan::fill`] packs every op
/// from the target's current valid zones and unpacks every ghost region,
/// and may be called again after the valid data changed — a multigrid level
/// plans once and fills before every colour of every sweep. The one-shot
/// [`MultiFab::fill_boundary_within`] is "plan, fill once".
///
/// The two-phase form is the same plan: [`MultiFab::post_fill_boundary`]
/// returns it with every op already packed — the MPI-isend analogue — and
/// [`ExchangePlan::wait`] unpacks. Inside this crate,
/// [`HaloLoop`](crate::halo_loop::HaloLoop) stages each pack and each
/// per-fab unpack of a plan as a graph task.
///
/// Buffers are individually locked so tasks can pack/unpack disjoint ops
/// concurrently; per-destination unpacks apply ops in planning order, so
/// the result is bit-identical under any legal schedule.
#[must_use = "a plan that is never run fills no ghosts"]
pub struct ExchangePlan {
    ops: Vec<GhostOp>,
    bufs: Vec<Mutex<Vec<Real>>>,
    packed: Vec<AtomicBool>,
    /// Op indices targeting each destination fab, in planning order.
    per_dst: Vec<Vec<usize>>,
    trace: CommTrace,
    ba: BoxArray,
    ncomp: usize,
    ngrow: i32,
    /// Ghost depth per dimension this exchange fills.
    ghosts: IntVect,
    /// Ghost zones one run fills.
    ghost_zones: u64,
}

impl ExchangePlan {
    /// The box of fab `f` this exchange fills: its valid box grown by the
    /// planned ghost depths. The physical BC of the same fill is clipped to
    /// it too.
    pub(crate) fn footprint(&self, f: usize) -> IndexBox {
        self.ba.get(f).grow_vec(self.ghosts)
    }

    /// Number of planned copy ops.
    pub(crate) fn nops(&self) -> usize {
        self.ops.len()
    }

    /// `(src fab, dst fab)` of op `o` — the graph builder's edge endpoints.
    pub(crate) fn op_endpoints(&self, o: usize) -> (usize, usize) {
        (self.ops[o].src, self.ops[o].dst)
    }

    /// What one run of this exchange moves (complete at planning time).
    pub fn trace(&self) -> &CommTrace {
        &self.trace
    }

    /// Fill op `o`'s buffer: `read_box(region, c, out)` must fill `out` with
    /// component `c` of `region` of the source fab, `x` fastest (*valid*
    /// zones of the source box).
    fn pack<F: Fn(IndexBox, usize, &mut [Real])>(&self, o: usize, read_box: F) {
        let op = &self.ops[o];
        let n = op.region.num_zones() as usize;
        let mut buf = self.bufs[o].lock().unwrap();
        buf.resize(n * self.ncomp, 0.0);
        for (c, out) in buf.chunks_exact_mut(n).enumerate() {
            read_box(op.region.shift(-op.shift), c, out);
        }
    }

    /// Write op `o`'s buffer into its destination: `write_box(region, c,
    /// data)` must overwrite component `c` of `region` of the fab with
    /// `data`, `x` fastest.
    fn unpack<F: FnMut(IndexBox, usize, &[Real])>(&self, o: usize, mut write_box: F) {
        let op = &self.ops[o];
        let buf = self.bufs[o].lock().unwrap();
        for (c, data) in buf.chunks_exact(op.region.num_zones() as usize).enumerate() {
            write_box(op.region, c, data);
        }
    }

    /// Stage one pack: fill op `o`'s buffer through `read_box` (see
    /// `pack`) and mark it packed. Safe to call concurrently for distinct
    /// ops.
    pub(crate) fn pack_op<F: Fn(IndexBox, usize, &mut [Real])>(&self, o: usize, read_box: F) {
        self.pack(o, read_box);
        self.packed[o].store(true, Ordering::Release);
    }

    /// [`ExchangePlan::pack_op`] from a whole fab, `sfab` being op `o`'s
    /// source.
    fn pack_from(&self, o: usize, sfab: &FArrayBox) {
        self.pack_op(o, |region, c, out| sfab.array().read_box(region, c, out));
    }

    /// Stage one fab's unpacks: every op targeting fab `fab_index`, in
    /// planning order, through `write_box` (see `unpack`). Panics if one of
    /// the fab's incoming ops is not packed yet (the graph's ghost-exchange
    /// edges guarantee they are): an unpacked buffer would fill ghosts with
    /// stale data. Safe to call concurrently for distinct fabs.
    pub(crate) fn unpack_fab<F: FnMut(IndexBox, usize, &[Real])>(
        &self,
        fab_index: usize,
        mut write_box: F,
    ) {
        for &o in &self.per_dst[fab_index] {
            assert!(
                self.packed[o].load(Ordering::Acquire),
                "unpacking op {o} before it was packed"
            );
            self.unpack(o, &mut write_box);
        }
    }

    /// Panics unless `mf` has the layout this exchange was planned on.
    pub(crate) fn check_target(&self, mf: &MultiFab) {
        assert_eq!(self.ba, mf.ba, "target has a different box layout");
        assert_eq!(self.ncomp, mf.ncomp, "target ncomp mismatch");
        assert_eq!(self.ngrow, mf.ngrow, "target ngrow mismatch");
    }

    /// Run the exchange on `mf` — the planned multifab or any on the same
    /// layout: every op is packed from `mf`'s current valid zones, whatever
    /// an earlier run or staged pack left in its buffer, then every ghost
    /// region of the footprint is overwritten. Returns the trace of this
    /// run, the same every run. May be called any number of times; nothing
    /// is re-planned or re-allocated.
    pub fn fill(&mut self, mf: &mut MultiFab) -> &CommTrace {
        for packed in &mut self.packed {
            *packed.get_mut() = false;
        }
        self.complete(mf);
        &self.trace
    }

    /// Phase two of a posted exchange: complete it into `mf` (normally the
    /// multifab that posted it, but any multifab on the same box layout
    /// works — the low-Mach driver completes into its advection snapshot).
    /// Ops not yet packed are packed from `mf`'s current valid data; every
    /// ghost region is then unpacked in planning order. Returns the trace.
    #[must_use = "the CommTrace prices this exchange in the machine model; merge it into the step trace"]
    pub fn wait(self, mf: &mut MultiFab) -> CommTrace {
        self.complete(mf);
        self.trace
    }

    /// One task per destination fab: pack those of its incoming ops that no
    /// staged pack has filled and unpack them all in planning order. A task
    /// reads valid zones (of any fab) and writes only its own fab's ghosts,
    /// and valid zones are written by nobody, so the tasks touch disjoint
    /// slots; the `packed` flags are read, never written, so tasks share no
    /// written cache line either. An exchange into a single fab — or with
    /// no ops at all — runs inline and the pool sees no region.
    fn complete(&self, mf: &mut MultiFab) {
        let _prof = Telemetry::region("fill_boundary");
        Telemetry::record_zones(self.ghost_zones);
        self.check_target(mf);
        let views = mf.fab_views_mut();
        let fill_fab = |f: usize| {
            for &o in &self.per_dst[f] {
                if !self.packed[o].load(Ordering::Acquire) {
                    let src = &views[self.ops[o].src];
                    self.pack(o, |region, c, out| src.read_box(region, c, out));
                }
                self.unpack(o, |region, c, data| views[f].write_box(region, c, data));
            }
        };
        let dsts = self.per_dst.iter().filter(|ops| !ops.is_empty()).count();
        if dsts <= 1 {
            (0..views.len()).for_each(fill_fab);
        } else {
            par_index_each(views.len(), dsts, fill_fab);
        }
    }

    /// Complete a fully staged exchange (every op packed and unpacked by
    /// graph tasks) and return the trace. Panics if an op was never packed.
    #[must_use = "the CommTrace prices this exchange in the machine model; merge it into the step trace"]
    pub(crate) fn finish(self) -> CommTrace {
        assert!(
            self.packed.iter().all(|p| p.load(Ordering::Acquire)),
            "finish() with unpacked ops: the graph missed pack tasks"
        );
        let _prof = Telemetry::region("fill_boundary");
        Telemetry::record_zones(self.ghost_zones);
        self.trace
    }
}

/// Physical boundary condition kinds for non-periodic domain faces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcKind {
    /// Handled by periodic ghost exchange; `fill_physical_bc` skips the face.
    Periodic,
    /// Zero-gradient extrapolation (copy the nearest interior zone).
    Outflow,
    /// Mirror symmetry; components registered as odd flip sign.
    Reflect,
}

/// Boundary-condition specification for a state: a kind per (dimension,
/// side), plus the set of components that are odd under reflection in a
/// given dimension (normal velocities/momenta).
#[derive(Clone, Debug)]
pub struct BcSpec {
    /// `kind[d][0]` is the low face of dimension `d`, `kind[d][1]` the high.
    pub kind: [[BcKind; 2]; SPACEDIM],
    /// `(component, dimension)` pairs that flip sign under reflection in
    /// that dimension.
    pub reflect_odd: Vec<(usize, usize)>,
}

impl BcSpec {
    /// All faces the same kind, no odd components.
    pub fn uniform(kind: BcKind) -> Self {
        BcSpec {
            kind: [[kind; 2]; SPACEDIM],
            reflect_odd: Vec::new(),
        }
    }

    /// All faces outflow.
    pub fn outflow() -> Self {
        Self::uniform(BcKind::Outflow)
    }

    /// All faces periodic (ghost fill handles everything).
    pub fn periodic() -> Self {
        Self::uniform(BcKind::Periodic)
    }

    fn is_odd(&self, comp: usize, dim: usize) -> bool {
        self.reflect_odd.iter().any(|&(c, d)| c == comp && d == dim)
    }
}

/// A distributed multi-component field at one refinement level.
#[derive(Clone, Debug)]
pub struct MultiFab {
    ba: BoxArray,
    dm: DistributionMapping,
    ncomp: usize,
    ngrow: i32,
    fabs: Vec<FArrayBox>,
}

impl MultiFab {
    /// Allocate a zero-filled multifab: `ncomp` components on every box of
    /// `ba`, each grown by `ngrow` ghost zones.
    pub fn new(ba: BoxArray, dm: DistributionMapping, ncomp: usize, ngrow: i32) -> Self {
        assert_eq!(ba.len(), dm.len(), "box array and distribution must agree");
        assert!(ngrow >= 0);
        let fabs = ba
            .iter()
            .map(|b| FArrayBox::new(b.grow(ngrow), ncomp))
            .collect();
        MultiFab {
            ba,
            dm,
            ncomp,
            ngrow,
            fabs,
        }
    }

    /// Single-rank convenience constructor.
    pub fn local(ba: BoxArray, ncomp: usize, ngrow: i32) -> Self {
        let dm = DistributionMapping::all_local(&ba);
        MultiFab::new(ba, dm, ncomp, ngrow)
    }

    /// The box array.
    pub fn box_array(&self) -> &BoxArray {
        &self.ba
    }

    /// The distribution mapping.
    pub fn dist_map(&self) -> &DistributionMapping {
        &self.dm
    }

    /// Components per zone.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Ghost zones per side.
    pub fn ngrow(&self) -> i32 {
        self.ngrow
    }

    /// Number of fabs (= boxes).
    pub fn nfabs(&self) -> usize {
        self.fabs.len()
    }

    /// Valid (ghost-free) box of fab `i`.
    pub fn valid_box(&self, i: usize) -> IndexBox {
        self.ba.get(i)
    }

    /// Every fab's valid box, in fab order: an owned copy, so a per-fab
    /// kernel can read it while the fabs are borrowed mutably.
    pub fn valid_boxes(&self) -> Vec<IndexBox> {
        self.ba.iter().copied().collect()
    }

    /// Grown (ghosted) box of fab `i`.
    pub fn grown_box(&self, i: usize) -> IndexBox {
        self.ba.get(i).grow(self.ngrow)
    }

    /// Fab `i`, immutable.
    pub fn fab(&self, i: usize) -> &FArrayBox {
        &self.fabs[i]
    }

    /// Fab `i`, mutable.
    pub fn fab_mut(&mut self, i: usize) -> &mut FArrayBox {
        &mut self.fabs[i]
    }

    /// Mutable access to several fabs at once is impossible through indices;
    /// physics code iterates instead. This yields `(index, valid box)` pairs
    /// in deterministic order — the analogue of AMReX's `MFIter`.
    pub fn iter_boxes(&self) -> impl Iterator<Item = (usize, IndexBox)> + '_ {
        (0..self.fabs.len()).map(|i| (i, self.ba.get(i)))
    }

    /// One kernel view per fab, all live at once — what the task-graph
    /// scheduler hands its box tasks so that (for example) fab 3's unpack
    /// can write ghosts while fab 5's interior kernel reads valid zones.
    /// Callers own the disjointness argument: concurrent tasks must touch
    /// disjoint `(zone, component)` slots (see [`Array4Mut`]).
    pub fn fab_views_mut(&mut self) -> Vec<Array4Mut<'_>> {
        self.fabs.iter_mut().map(|f| f.array_mut()).collect()
    }

    /// Total bytes of payload across all fabs.
    pub fn bytes(&self) -> u64 {
        self.fabs.iter().map(|f| f.bytes()).sum()
    }

    /// Set every zone (including ghosts) of component `comp` to `v`.
    pub fn set_val(&mut self, comp: usize, v: Real) {
        par_each_mut(&mut self.fabs, |_i, f| f.set_val(comp, v));
    }

    /// Set every zone of every component to `v`.
    pub fn set_val_all(&mut self, v: Real) {
        par_each_mut(&mut self.fabs, |_i, f| f.set_val_all(v));
    }

    /// Value at zone `iv`, component `comp`, searching the valid regions.
    /// Panics if no box contains `iv`. Intended for tests and diagnostics.
    pub fn value_at(&self, iv: IntVect, comp: usize) -> Real {
        for (i, b) in self.iter_boxes() {
            if b.contains(iv) {
                return self.fabs[i].get(iv, comp);
            }
        }
        panic!("zone {iv:?} not in any valid box");
    }

    /// `self[c] += a * other[c]` over valid regions, for each component.
    pub fn saxpy(&mut self, a: Real, other: &MultiFab) {
        assert_eq!(self.ba, other.ba);
        assert_eq!(self.ncomp, other.ncomp);
        let ba = &self.ba;
        let ncomp = self.ncomp;
        par_each_mut(&mut self.fabs, |i, fab| {
            let vb = ba.get(i);
            for c in 0..ncomp {
                for iv in vb.iter() {
                    let v = fab.get(iv, c) + a * other.fabs[i].get(iv, c);
                    fab.set(iv, c, v);
                }
            }
        });
    }

    /// Copy all components from `other` (same box array) over valid regions.
    pub fn copy_from(&mut self, other: &MultiFab) {
        assert_eq!(self.ba, other.ba);
        assert_eq!(self.ncomp, other.ncomp);
        let ba = &self.ba;
        let ncomp = self.ncomp;
        par_each_mut(&mut self.fabs, |i, fab| {
            let vb = ba.get(i);
            fab.copy_from(&other.fabs[i], vb, 0, 0, ncomp);
        });
    }

    /// Parallel copy from a multifab on a *different* box array covering the
    /// same index space: copies over every intersection. Returns the
    /// communication trace.
    pub fn copy_from_other_ba(&mut self, other: &MultiFab, comp: usize, ncomp: usize) -> CommTrace {
        let mut trace = CommTrace::default();
        let index = BoxIndex::new(&other.ba);
        for di in 0..self.fabs.len() {
            let dvb = self.ba.get(di);
            for si in index.intersecting(&dvb) {
                let isect = dvb.intersection(&other.ba.get(si));
                self.fabs[di].copy_from(&other.fabs[si], isect, comp, comp, ncomp);
                let bytes = isect.num_zones() as u64 * ncomp as u64 * 8;
                let (sr, dr) = (other.dm.owner(si), self.dm.owner(di));
                if sr == dr {
                    trace.local_bytes += bytes;
                } else {
                    trace.messages.push(Message::new(sr, dr, bytes));
                }
            }
        }
        trace
    }

    /// Fill ghost zones of every fab from the valid regions of neighbouring
    /// fabs, honouring periodic boundaries. Returns the communication trace.
    ///
    /// This is the nearest-neighbour exchange that dominates Castro's MPI
    /// time at scale (Figure 2); the trace feeds the machine model. It is
    /// [`MultiFab::fill_boundary_within`] at the full depth, every ghost
    /// zone of every fab; [`MultiFab::post_fill_boundary`] followed by
    /// [`ExchangePlan::wait`] is the same fill in two phases. Callers that
    /// fill the same layout again and again keep the plan
    /// ([`MultiFab::plan_fill_boundary`]); callers that run kernels while
    /// the exchange is in flight use [`HaloLoop`](crate::halo_loop::HaloLoop).
    #[must_use = "the CommTrace prices this exchange in the machine model; merge it into the step trace"]
    pub fn fill_boundary(&mut self, geom: &Geometry) -> CommTrace {
        self.fill_boundary_within(geom, IntVect::splat(self.ngrow))
    }

    /// Fill only a stencil's **footprint**: of every fab, the ghost zones
    /// inside `valid.grow_vec(ghosts)` — `ghosts[d]` layers on both sides
    /// of dimension `d`, `0 ≤ ghosts[d] ≤ ngrow` (panics otherwise) — from
    /// neighbouring fabs and periodic images. Ghost zones outside the
    /// footprint keep their contents, and the trace prices only what moved:
    /// a dimensionally split sweep that passes `2·e_dim` exchanges two face
    /// slabs a box instead of 26 neighbours' worth (AMReX's
    /// `FillBoundary(nghost)`).
    #[must_use = "the CommTrace prices this exchange in the machine model; merge it into the step trace"]
    pub fn fill_boundary_within(&mut self, geom: &Geometry, ghosts: IntVect) -> CommTrace {
        let mut plan = self.plan_fill_boundary(geom, ghosts);
        plan.fill(self);
        plan.trace
    }

    /// Plan the ghost exchange of the footprint `ghosts` (see
    /// [`MultiFab::fill_boundary_within`]) without moving any data: compute
    /// the copy ops, allocate (empty) pack buffers, and price the traffic.
    /// The returned [`ExchangePlan`] runs on this multifab, or any on the
    /// same layout, as often as the caller likes ([`ExchangePlan::fill`]);
    /// [`HaloLoop`](crate::halo_loop::HaloLoop) stages its packs and
    /// unpacks as graph tasks instead.
    pub fn plan_fill_boundary(&self, geom: &Geometry, ghosts: IntVect) -> ExchangePlan {
        let _prof = Telemetry::region("fill_boundary");
        self.check_footprint(ghosts);
        let mut ops = Vec::new();
        for_each_ghost_copy(&self.ba, geom, ghosts, |src, dst, region, shift| {
            ops.push(GhostOp {
                src,
                dst,
                region,
                shift,
            })
        });
        // Price the exchange now: the plan (not the data) determines the
        // traffic, so the partial trace is complete at post time and is
        // deterministic in planning order.
        let mut trace = CommTrace::default();
        let mut ghost_zones = 0u64;
        for op in &ops {
            let n = op.region.num_zones() as usize;
            ghost_zones += n as u64;
            let bytes = (n * self.ncomp * 8) as u64;
            let (sr, dr) = (self.dm.owner(op.src), self.dm.owner(op.dst));
            if sr == dr {
                trace.local_bytes += bytes;
            } else {
                trace.messages.push(Message::new(sr, dr, bytes));
            }
        }
        let ncomp = self.ncomp;
        let bufs = ops
            .iter()
            .map(|op| Mutex::new(Vec::with_capacity(op.region.num_zones() as usize * ncomp)))
            .collect();
        let packed = ops.iter().map(|_| AtomicBool::new(false)).collect();
        let mut per_dst: Vec<Vec<usize>> = vec![Vec::new(); self.fabs.len()];
        for (oi, op) in ops.iter().enumerate() {
            per_dst[op.dst].push(oi);
        }
        ExchangePlan {
            ops,
            bufs,
            packed,
            per_dst,
            trace,
            ba: self.ba.clone(),
            ncomp,
            ngrow: self.ngrow,
            ghosts,
            ghost_zones,
        }
    }

    /// Panics, in every build, unless `0 ≤ ghosts[d] ≤ ngrow`: a deeper
    /// footprint would index past the fabs' allocation.
    fn check_footprint(&self, ghosts: IntVect) {
        assert!(
            (0..SPACEDIM).all(|d| (0..=self.ngrow).contains(&ghosts[d])),
            "footprint {ghosts:?} outside 0..={} ghost zones",
            self.ngrow
        );
    }

    /// Phase one of the ghost exchange: plan the copies and pack every
    /// send buffer from the *current* valid data — the analogue of posting
    /// MPI isends, whose buffers capture the data at post time. The state
    /// may then be mutated (interior kernels) before [`ExchangePlan::wait`]
    /// unpacks the ghosts.
    #[must_use = "dropping a posted exchange loses the ghost fill; call wait()"]
    pub fn post_fill_boundary(&self, geom: &Geometry) -> ExchangePlan {
        let plan = self.plan_fill_boundary(geom, IntVect::splat(self.ngrow));
        par_index_each(plan.ops.len(), plan.ops.len(), |o| {
            plan.pack_from(o, &self.fabs[plan.ops[o].src]);
        });
        plan
    }

    /// Fill ghost zones that lie outside the problem domain on non-periodic
    /// faces, according to `bc`. Call after [`MultiFab::fill_boundary`].
    pub fn fill_physical_bc(&mut self, geom: &Geometry, bc: &BcSpec) {
        self.fill_physical_bc_within(geom, bc, IntVect::splat(self.ngrow));
    }

    /// [`MultiFab::fill_physical_bc`] clipped to the footprint `ghosts`:
    /// writes, and reads, only zones of `valid.grow_vec(ghosts)`. Call after
    /// [`MultiFab::fill_boundary_within`] with the same footprint.
    pub fn fill_physical_bc_within(&mut self, geom: &Geometry, bc: &BcSpec, ghosts: IntVect) {
        self.check_footprint(ghosts);
        if ghosts == IntVect::zero() {
            return;
        }
        let ba = &self.ba;
        par_each_mut(&mut self.fabs, |i, fab| {
            apply_physical_bc(&fab.array_mut(), geom, bc, ba.get(i).grow_vec(ghosts))
        });
    }

    /// Max |value| of `comp` over all valid regions.
    ///
    /// Like every reduction below, per-fab partials are computed in parallel
    /// on the worker pool and folded serially in fab order, so results are
    /// bitwise identical run to run (and to the old serial loops).
    pub fn norm_inf(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| self.fabs[i].norm_inf(self.ba.get(i), comp),
            Real::max,
        )
    }

    /// L1 norm (sum of |value|) of `comp` over valid regions.
    pub fn norm_l1(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp).abs())
                    .sum::<Real>()
            },
            |a, b| a + b,
        )
    }

    /// L2 norm of `comp` over valid regions.
    pub fn norm_l2(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| {
                        let v = self.fabs[i].get(iv, comp);
                        v * v
                    })
                    .sum::<Real>()
            },
            |a, b| a + b,
        )
        .sqrt()
    }

    /// Sum of `comp` over valid regions.
    pub fn sum(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| self.fabs[i].sum(self.ba.get(i), comp),
            |a, b| a + b,
        )
    }

    /// Minimum of `comp` over valid regions.
    pub fn min(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            Real::INFINITY,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp))
                    .fold(Real::INFINITY, Real::min)
            },
            Real::min,
        )
    }

    /// Maximum of `comp` over valid regions.
    pub fn max(&self, comp: usize) -> Real {
        par_map_fold(
            self.fabs.len(),
            Real::NEG_INFINITY,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp))
                    .fold(Real::NEG_INFINITY, Real::max)
            },
            Real::max,
        )
    }

    /// Dot product of component `comp` with the same component of `other`
    /// over valid regions.
    pub fn dot(&self, other: &MultiFab, comp: usize) -> Real {
        assert_eq!(self.ba, other.ba);
        par_map_fold(
            self.fabs.len(),
            0.0,
            |i| {
                self.ba
                    .get(i)
                    .iter()
                    .map(|iv| self.fabs[i].get(iv, comp) * other.fabs[i].get(iv, comp))
                    .sum::<Real>()
            },
            |a, b| a + b,
        )
    }
}

/// Apply physical boundary conditions to one fab through a kernel view —
/// the per-fab body of [`MultiFab::fill_physical_bc`], which the halo
/// loop's unpack tasks fold into their own node (disjoint slots: each fab's
/// BC only touches that fab's ghost zones).
///
/// Only `gbox` — the fill's footprint, the fab's valid box grown by the
/// ghost depths being filled — is touched: ghost regions are clipped to it
/// and so is every source index, since a ghost of the allocation beyond the
/// footprint was filled by nobody.
///
/// Within one fab the writes are ordered (corner ghosts read zones filled by
/// an earlier dimension's pass), so a task must call this serially, after
/// the fab's ghost ops are unpacked.
pub(crate) fn apply_physical_bc(arr: &Array4Mut<'_>, geom: &Geometry, bc: &BcSpec, gbox: IndexBox) {
    debug_assert!(arr.index_box().contains_box(&gbox));
    let ncomp = arr.ncomp();
    let domain = geom.domain();
    for d in 0..SPACEDIM {
        for side in 0..2 {
            let kind = bc.kind[d][side];
            if kind == BcKind::Periodic || geom.periodic()[d] {
                continue;
            }
            // Ghost region beyond this domain face, clipped to gbox.
            let region = if side == 0 {
                if gbox.lo()[d] >= domain.lo()[d] {
                    continue;
                }
                let mut hi = gbox.hi();
                hi[d] = domain.lo()[d] - 1;
                IndexBox::new(gbox.lo(), hi)
            } else {
                if gbox.hi()[d] <= domain.hi()[d] {
                    continue;
                }
                let mut lo = gbox.lo();
                lo[d] = domain.hi()[d] + 1;
                IndexBox::new(lo, gbox.hi())
            };
            if region.is_empty() {
                continue;
            }
            // Where each ghost layer along `d` reads from: the nearest
            // interior zone (outflow) or its mirror image (reflect). A
            // mirrored zone of a thin box can fall beyond the box's far
            // side, into a ghost the exchange or an earlier pass filled;
            // the clamp keeps it inside `gbox` whatever box the caller
            // passes — never in the allocation's unfilled remainder. A
            // layer that maps to itself keeps its values.
            let (glo, ghi) = (region.lo()[d], region.hi()[d]);
            let source_of: Vec<i32> = (glo..=ghi)
                .map(|x| {
                    let s = match kind {
                        BcKind::Outflow => x.clamp(domain.lo()[d], domain.hi()[d]),
                        BcKind::Reflect if side == 0 => 2 * domain.lo()[d] - 1 - x,
                        BcKind::Reflect => 2 * domain.hi()[d] + 1 - x,
                        BcKind::Periodic => unreachable!(),
                    };
                    s.clamp(gbox.lo()[d], gbox.hi()[d])
                })
                .collect();
            for c in 0..ncomp {
                let sign = if kind == BcKind::Reflect && bc.is_odd(c, d) {
                    -1.0
                } else {
                    1.0
                };
                // Along x every ghost of a row has its own source zone in
                // that row; transverse to x a ghost row reads one whole
                // source row.
                for_each_row(region, |iv, n| {
                    let dst = arr.zone(iv.x(), iv.y(), iv.z());
                    if d == 0 {
                        for (x, &si) in source_of.iter().enumerate() {
                            if si != glo + x as i32 {
                                let src = arr.zone(si, iv.y(), iv.z());
                                arr.set_zone(dst + x, c, arr.at_zone(src, c) * sign);
                            }
                        }
                    } else {
                        let mut siv = iv;
                        siv[d] = source_of[(iv[d] - glo) as usize];
                        if siv != iv {
                            let src = arr.zone(siv.x(), siv.y(), siv.z());
                            for x in 0..n {
                                arr.set_zone(dst + x, c, arr.at_zone(src + x, c) * sign);
                            }
                        }
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CoordSys;

    fn periodic_geom(n: i32) -> Geometry {
        Geometry::cube(n, 1.0, true)
    }

    /// Fill a multifab with a globally defined function of the zone index
    /// (periodic-aware reference available analytically).
    fn fill_linear(mf: &mut MultiFab) {
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                let v = (iv.x() + 100 * iv.y() + 10_000 * iv.z()) as Real;
                mf.fab_mut(i).set(iv, 0, v);
            }
        }
    }

    #[test]
    fn fill_boundary_interior_ghosts_match_neighbors() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 2);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        // Every interior ghost zone must equal the valid value of the box
        // that owns that zone.
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            let gb = mf.grown_box(i);
            for iv in gb.iter() {
                if vb.contains(iv) || !geom.domain().contains(iv) {
                    continue;
                }
                let expect = (iv.x() + 100 * iv.y() + 10_000 * iv.z()) as Real;
                assert_eq!(mf.fab(i).get(iv, 0), expect, "ghost {iv:?} of fab {i}");
            }
        }
    }

    #[test]
    fn fill_boundary_periodic_wraps() {
        let geom = periodic_geom(8);
        let ba = BoxArray::decompose(geom.domain(), 8, 8); // single box
        let mut mf = MultiFab::local(ba, 1, 1);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        // Ghost at i = -1 must equal valid at i = 7.
        let g = mf.fab(0).get(IntVect::new(-1, 3, 4), 0);
        let v = mf.fab(0).get(IntVect::new(7, 3, 4), 0);
        assert_eq!(g, v);
        // Corner ghost wraps in all three dims.
        let g = mf.fab(0).get(IntVect::new(8, 8, 8), 0);
        let v = mf.fab(0).get(IntVect::new(0, 0, 0), 0);
        assert_eq!(g, v);
    }

    #[test]
    fn fill_boundary_is_idempotent() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 2, 2);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        let snapshot: Vec<Vec<Real>> = (0..mf.nfabs()).map(|i| mf.fab(i).data().to_vec()).collect();
        let _ = mf.fill_boundary(&geom);
        for i in 0..mf.nfabs() {
            assert_eq!(mf.fab(i).data(), &snapshot[i][..], "fab {i} changed");
        }
    }

    #[test]
    fn fill_boundary_trace_counts_ranks() {
        let geom = periodic_geom(32);
        let ba = BoxArray::decompose(geom.domain(), 16, 16); // 8 boxes
        let dm = DistributionMapping::new(&ba, 4, DistStrategy::RoundRobin);
        let mut mf = MultiFab::new(ba, dm, 1, 1);
        let trace = mf.fill_boundary(&geom);
        assert!(!trace.messages.is_empty());
        assert!(trace.local_bytes > 0);
        for m in &trace.messages {
            assert_ne!(m.src, m.dst);
            assert!(m.src < 4 && m.dst < 4);
            assert!(m.bytes > 0);
        }
        // Ghost width 1, 8 boxes of 16^3: each box face region is 16x16x1
        // plus edges/corners; total network+local bytes must equal the total
        // ghost-fill volume, which is the same for every box: grown minus
        // valid = 18^3 - 16^3 zones.
        let per_box = (18i64.pow(3) - 16i64.pow(3)) as u64 * 8;
        assert_eq!(trace.network_bytes() + trace.local_bytes, per_box * 8);
    }

    use crate::distribution::DistStrategy;

    #[test]
    fn outflow_bc_copies_nearest_interior() {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 2);
        fill_linear(&mut mf);
        let _ = mf.fill_boundary(&geom);
        mf.fill_physical_bc(&geom, &BcSpec::outflow());
        // Ghost at i=-1 and i=-2 equal interior i=0 value.
        for gi in [-1, -2] {
            assert_eq!(
                mf.fab(0).get(IntVect::new(gi, 3, 3), 0),
                mf.fab(0).get(IntVect::new(0, 3, 3), 0)
            );
        }
        // High side similarly.
        assert_eq!(
            mf.fab(0).get(IntVect::new(9, 3, 3), 0),
            mf.fab(0).get(IntVect::new(7, 3, 3), 0)
        );
    }

    #[test]
    fn reflect_bc_mirrors_and_flips_odd() {
        let geom = Geometry::cube(8, 1.0, false);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 2, 2);
        for iv in geom.domain().iter() {
            mf.fab_mut(0).set(iv, 0, (iv.x() + 1) as Real); // even comp
            mf.fab_mut(0).set(iv, 1, (iv.x() + 1) as Real); // odd comp (x-mom)
        }
        let bc = BcSpec {
            kind: [[BcKind::Reflect; 2]; SPACEDIM],
            reflect_odd: vec![(1, 0)],
        };
        mf.fill_physical_bc(&geom, &bc);
        // Ghost i=-1 mirrors i=0; i=-2 mirrors i=1.
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 3, 3), 0), 1.0);
        assert_eq!(mf.fab(0).get(IntVect::new(-2, 3, 3), 0), 2.0);
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 3, 3), 1), -1.0);
        assert_eq!(mf.fab(0).get(IntVect::new(-2, 3, 3), 1), -2.0);
        // High face: ghost i=8 mirrors i=7.
        assert_eq!(mf.fab(0).get(IntVect::new(8, 3, 3), 0), 8.0);
        assert_eq!(mf.fab(0).get(IntVect::new(8, 3, 3), 1), -8.0);
    }

    #[test]
    fn reflect_bc_of_thin_boxes_stays_inside_the_footprint() {
        // Boxes 2, 2 and 1 zones wide in x, allocated with 3 ghosts, filled
        // 2 deep in x and 1 in y: a mirrored source zone lies beyond a thin
        // box's far side, in a ghost the exchange filled. Every footprint
        // zone must hold the (signed) mirror image and no zone outside the
        // footprint may be written — or read: the sentinel there would
        // show up inside.
        const SENTINEL: Real = -7e77;
        let ghosts = IntVect::new(2, 1, 0);
        let geom = Geometry::new(
            IndexBox::sized(IntVect::new(5, 4, 3)),
            [0.0; 3],
            [1.0; 3],
            [false; 3],
            CoordSys::Cartesian,
        );
        let domain = geom.domain();
        let value = |iv: IntVect| (1 + iv.x() + 10 * iv.y() + 100 * iv.z()) as Real;
        let mut mf = MultiFab::local(BoxArray::decompose(domain, 2, 1), 2, 3);
        let widths: Vec<i32> = (0..mf.nfabs()).map(|i| mf.valid_box(i).length(0)).collect();
        assert!(widths.contains(&1) && widths.contains(&2));
        mf.set_val_all(SENTINEL);
        for i in 0..mf.nfabs() {
            for iv in mf.valid_box(i).iter() {
                mf.fab_mut(i).set(iv, 0, value(iv));
                mf.fab_mut(i).set(iv, 1, value(iv));
            }
        }
        let bc = BcSpec {
            kind: [[BcKind::Reflect; 2]; SPACEDIM],
            reflect_odd: vec![(1, 0)], // component 1 is the x-momentum
        };
        let _ = mf.fill_boundary_within(&geom, ghosts);
        mf.fill_physical_bc_within(&geom, &bc, ghosts);
        for i in 0..mf.nfabs() {
            let footprint = mf.valid_box(i).grow_vec(ghosts);
            for iv in mf.grown_box(i).iter() {
                let (mut mirror, mut flips_x) = (iv, false);
                for d in 0..SPACEDIM {
                    if iv[d] < domain.lo()[d] {
                        mirror[d] = 2 * domain.lo()[d] - 1 - iv[d];
                    } else if iv[d] > domain.hi()[d] {
                        mirror[d] = 2 * domain.hi()[d] + 1 - iv[d];
                    }
                    flips_x |= d == 0 && mirror[d] != iv[d];
                }
                let expect = if footprint.contains(iv) {
                    [
                        value(mirror),
                        if flips_x {
                            -value(mirror)
                        } else {
                            value(mirror)
                        },
                    ]
                } else {
                    [SENTINEL; 2]
                };
                for c in 0..2 {
                    assert_eq!(
                        mf.fab(i).get(iv, c),
                        expect[c],
                        "fab {i} zone {iv:?} comp {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_phase_post_wait_matches_one_shot() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut sync = MultiFab::local(ba.clone(), 2, 2);
        fill_linear(&mut sync);
        let mut overlapped = sync.clone();
        let t1 = sync.fill_boundary(&geom);
        // Post, then mutate the valid data *between* the phases: the packed
        // buffers must carry post-time values (MPI isend semantics), so the
        // ghosts still reflect the pre-mutation state.
        let pending = overlapped.post_fill_boundary(&geom);
        let t2 = pending.wait(&mut overlapped);
        for i in 0..sync.nfabs() {
            assert_eq!(sync.fab(i).data(), overlapped.fab(i).data(), "fab {i}");
        }
        // Identical traces: same messages, same local volume.
        assert_eq!(t1.messages, t2.messages);
        assert_eq!(t1.local_bytes, t2.local_bytes);
    }

    #[test]
    fn post_buffers_capture_data_at_post_time() {
        let geom = periodic_geom(8);
        let ba = BoxArray::decompose(geom.domain(), 8, 8); // single box
        let mut mf = MultiFab::local(ba, 1, 1);
        fill_linear(&mut mf);
        let pending = mf.post_fill_boundary(&geom);
        // Overwrite the valid data after posting: the ghost fill must still
        // deliver the *posted* values.
        let expect = mf.fab(0).get(IntVect::new(7, 3, 4), 0);
        mf.fab_mut(0).set(IntVect::new(7, 3, 4), 0, -999.0);
        let _ = pending.wait(&mut mf);
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 3, 4), 0), expect);
    }

    #[test]
    fn plan_then_staged_pack_unpack_matches_one_shot() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut sync = MultiFab::local(ba.clone(), 2, 2);
        fill_linear(&mut sync);
        let mut staged = sync.clone();
        let t1 = sync.fill_boundary(&geom);
        // Stage every op by hand, the way graph tasks do, then finish.
        let pending = staged.plan_fill_boundary(&geom, IntVect::splat(2));
        assert!(pending.nops() > 0);
        for o in 0..pending.nops() {
            let (src, _dst) = pending.op_endpoints(o);
            let sfab = staged.fab(src);
            pending.pack_from(o, sfab);
        }
        for fi in 0..staged.nfabs() {
            let arr = staged.fab_mut(fi).array_mut();
            pending.unpack_fab(fi, |region, c, data| arr.write_box(region, c, data));
        }
        let t2 = pending.finish();
        for i in 0..sync.nfabs() {
            assert_eq!(sync.fab(i).data(), staged.fab(i).data(), "fab {i}");
        }
        assert_eq!(t1.messages, t2.messages);
        assert_eq!(t1.local_bytes, t2.local_bytes);
    }

    #[test]
    #[should_panic(expected = "before it was packed")]
    fn unpacking_an_unpacked_op_panics_in_every_build() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mf = MultiFab::local(ba, 1, 1);
        let pending = mf.plan_fill_boundary(&geom, IntVect::splat(1));
        assert!(pending.nops() > 0);
        pending.unpack_fab(0, |_, _, _| {});
    }

    #[test]
    fn wait_can_target_a_clone_on_the_same_layout() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 2);
        fill_linear(&mut mf);
        let mut reference = mf.clone();
        let _ = reference.fill_boundary(&geom);
        // Post from mf, complete into a clone (the low-Mach driver's
        // advection-snapshot pattern).
        let pending = mf.post_fill_boundary(&geom);
        let mut old = mf.clone();
        let _ = pending.wait(&mut old);
        for i in 0..mf.nfabs() {
            assert_eq!(old.fab(i).data(), reference.fab(i).data(), "fab {i}");
        }
    }

    #[test]
    fn trace_merge_accumulates_across_phases() {
        let geom = periodic_geom(16);
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 1);
        let mut total = CommTrace::default();
        let t1 = mf.fill_boundary(&geom);
        total.merge(&t1);
        let t2 = mf.fill_boundary(&geom);
        total.merge(&t2);
        assert_eq!(total.local_bytes, t1.local_bytes + t2.local_bytes);
        assert_eq!(
            total.network_bytes(),
            t1.network_bytes() + t2.network_bytes()
        );
        assert_eq!(total.messages.len(), t1.messages.len() + t2.messages.len());
    }

    #[test]
    fn norms_and_reductions() {
        let geom = periodic_geom(8);
        let ba = BoxArray::decompose(geom.domain(), 4, 4);
        let mut mf = MultiFab::local(ba, 1, 1);
        mf.set_val(0, -2.0);
        let n = geom.domain().num_zones() as Real;
        assert_eq!(mf.sum(0), -2.0 * n);
        assert_eq!(mf.norm_l1(0), 2.0 * n);
        assert_eq!(mf.norm_inf(0), 2.0);
        assert!((mf.norm_l2(0) - (4.0 * n).sqrt()).abs() < 1e-12);
        assert_eq!(mf.min(0), -2.0);
        assert_eq!(mf.max(0), -2.0);
        let other = mf.clone();
        assert_eq!(mf.dot(&other, 0), 4.0 * n);
    }

    #[test]
    fn saxpy_and_copy() {
        let ba = BoxArray::decompose(IndexBox::cube(8), 4, 4);
        let mut a = MultiFab::local(ba.clone(), 2, 0);
        let mut b = MultiFab::local(ba, 2, 0);
        a.set_val(0, 1.0);
        a.set_val(1, 2.0);
        b.set_val(0, 10.0);
        b.set_val(1, 20.0);
        a.saxpy(0.5, &b);
        assert_eq!(a.max(0), 6.0);
        assert_eq!(a.max(1), 12.0);
        a.copy_from(&b);
        assert_eq!(a.max(0), 10.0);
    }

    #[test]
    fn parallel_copy_between_box_arrays() {
        let domain = IndexBox::cube(16);
        let ba1 = BoxArray::decompose(domain, 8, 8);
        let ba2 = BoxArray::decompose(domain, 4, 4);
        let mut src = MultiFab::local(ba1, 1, 0);
        for i in 0..src.nfabs() {
            let vb = src.valid_box(i);
            for iv in vb.iter() {
                src.fab_mut(i)
                    .set(iv, 0, (iv.x() * iv.y() + iv.z()) as Real);
            }
        }
        let mut dst = MultiFab::local(ba2, 1, 0);
        let trace = dst.copy_from_other_ba(&src, 0, 1);
        assert_eq!(trace.local_bytes, domain.num_zones() as u64 * 8);
        for iv in domain.iter() {
            assert_eq!(dst.value_at(iv, 0), (iv.x() * iv.y() + iv.z()) as Real);
        }
    }

    #[test]
    fn nonperiodic_geometry_does_not_wrap() {
        let geom = Geometry::new(
            IndexBox::cube(8),
            [0.0; 3],
            [1.0; 3],
            [false; 3],
            CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(geom.domain(), 8, 8);
        let mut mf = MultiFab::local(ba, 1, 1);
        fill_linear(&mut mf);
        let before = mf.fab(0).get(IntVect::new(-1, 0, 0), 0);
        let _ = mf.fill_boundary(&geom);
        // No periodic images: domain-boundary ghosts are untouched.
        assert_eq!(mf.fab(0).get(IntVect::new(-1, 0, 0), 0), before);
    }
    /// The row copies against the per-element loops they replaced, kept
    /// here as the oracle: pack/unpack (through `wait` and through the halo
    /// loop's views), `copy_from`, `copy_shifted` and the physical BC.
    mod rows_match_the_per_element_loops {
        use super::*;
        use crate::halo_loop::HaloLoop;
        use proptest::prelude::*;

        /// `fill_boundary` as it was: every op packed element by element
        /// from the current valid data, then unpacked in planning order.
        fn per_element_fill_boundary(mf: &mut MultiFab, geom: &Geometry) {
            let plan = mf.plan_fill_boundary(geom, IntVect::splat(mf.ngrow));
            let bufs: Vec<Vec<Real>> = plan
                .ops
                .iter()
                .map(|op| {
                    let mut buf = Vec::new();
                    for c in 0..mf.ncomp {
                        for iv in op.region.iter() {
                            buf.push(mf.fabs[op.src].get(iv - op.shift, c));
                        }
                    }
                    buf
                })
                .collect();
            for (op, buf) in plan.ops.iter().zip(&bufs) {
                let mut idx = 0;
                for c in 0..mf.ncomp {
                    for iv in op.region.iter() {
                        mf.fabs[op.dst].set(iv, c, buf[idx]);
                        idx += 1;
                    }
                }
            }
        }

        /// `apply_physical_bc` as it was, on a fab.
        fn per_element_physical_bc(fab: &mut FArrayBox, geom: &Geometry, bc: &BcSpec) {
            let gbox = fab.index_box();
            let domain = geom.domain();
            for d in 0..SPACEDIM {
                for side in 0..2 {
                    let kind = bc.kind[d][side];
                    if kind == BcKind::Periodic || geom.periodic()[d] {
                        continue;
                    }
                    let region = if side == 0 {
                        if gbox.lo()[d] >= domain.lo()[d] {
                            continue;
                        }
                        let mut hi = gbox.hi();
                        hi[d] = domain.lo()[d] - 1;
                        IndexBox::new(gbox.lo(), hi)
                    } else {
                        if gbox.hi()[d] <= domain.hi()[d] {
                            continue;
                        }
                        let mut lo = gbox.lo();
                        lo[d] = domain.hi()[d] + 1;
                        IndexBox::new(lo, gbox.hi())
                    };
                    for c in 0..fab.ncomp() {
                        let sign = if kind == BcKind::Reflect && bc.is_odd(c, d) {
                            -1.0
                        } else {
                            1.0
                        };
                        for iv in region.iter() {
                            let mut siv = iv;
                            match kind {
                                BcKind::Outflow => {
                                    siv[d] = siv[d].clamp(domain.lo()[d], domain.hi()[d]);
                                }
                                BcKind::Reflect => {
                                    siv[d] = if side == 0 {
                                        2 * domain.lo()[d] - 1 - siv[d]
                                    } else {
                                        2 * domain.hi()[d] + 1 - siv[d]
                                    };
                                }
                                BcKind::Periodic => unreachable!(),
                            }
                            for t in 0..SPACEDIM {
                                siv[t] = siv[t].clamp(gbox.lo()[t], gbox.hi()[t]);
                            }
                            if siv == iv {
                                continue;
                            }
                            let v = fab.get(siv, c) * sign;
                            fab.set(iv, c, v);
                        }
                    }
                }
            }
        }

        fn assert_same_bits(a: &MultiFab, b: &MultiFab, what: &str) -> Result<(), TestCaseError> {
            for f in 0..a.nfabs() {
                let same = a.fabs[f]
                    .data()
                    .iter()
                    .zip(b.fabs[f].data())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                prop_assert!(same, "{}: fab {} differs on its grown box", what, f);
            }
            Ok(())
        }

        /// A multifab whose every value, ghosts included, is distinct.
        fn distinct_values(ba: BoxArray, ncomp: usize, ngrow: i32, seed: u64) -> MultiFab {
            let mut mf = MultiFab::local(ba, ncomp, ngrow);
            let mut n = seed as Real;
            for fab in &mut mf.fabs {
                for v in fab.data_mut() {
                    n += 1.0;
                    *v = (n * 0.61803).sin() + n;
                }
            }
            mf
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn ghost_fill_and_physical_bc(
                size in (3i32..8, 3i32..8, 3i32..8),
                max_grid in 1i32..4,
                ngrow in 1i32..3,
                ncomp in 1usize..4,
                // Per dimension: 0 periodic, 1 outflow, 2 reflect.
                sides in (0u8..3, 0u8..3, 0u8..3),
                seed in 0u64..1000,
            ) {
                let sides = [sides.0, sides.1, sides.2];
                let domain = IndexBox::sized(IntVect::new(size.0, size.1, size.2))
                    .shift(IntVect::new(-2, 0, 3));
                let geom = Geometry::new(
                    domain,
                    [0.0; 3],
                    [1.0; 3],
                    [sides[0] == 0, sides[1] == 0, sides[2] == 0],
                    CoordSys::Cartesian,
                );
                let mut bc = BcSpec::periodic();
                for d in 0..SPACEDIM {
                    bc.kind[d] = [[BcKind::Periodic, BcKind::Outflow, BcKind::Reflect][sides[d] as usize]; 2];
                    // Component d (where there is one) is the normal momentum.
                    if d < ncomp {
                        bc.reflect_odd.push((d, d));
                    }
                }
                // Boxes 1 to 3 zones wide.
                let ba = BoxArray::decompose(domain, max_grid, 1);
                let start = distinct_values(ba, ncomp, ngrow, seed);

                let mut expect = start.clone();
                per_element_fill_boundary(&mut expect, &geom);
                let mut filled = start.clone();
                let _ = filled.fill_boundary(&geom);
                assert_same_bits(&filled, &expect, "fill_boundary")?;

                for fab in &mut expect.fabs {
                    per_element_physical_bc(fab, &geom, &bc);
                }
                filled.fill_physical_bc(&geom, &bc);
                assert_same_bits(&filled, &expect, "fill_physical_bc")?;

                // The halo loop packs and unpacks through kernel views.
                let mut looped = start.clone();
                let _ = HaloLoop::plan(&looped, &geom, IntVect::splat(ngrow))
                    .run(&mut looped, &bc, "test.rows", |_, _| {}, |_, _| {}, |_, _| {});
                assert_same_bits(&looped, &expect, "HaloLoop::run")?;
            }

            #[test]
            fn fab_copies(
                lo in (-4i32..4, -4i32..4, -4i32..4),
                len in (1i32..6, 1i32..6, 1i32..6),
                shift in (-2i32..3, -2i32..3, -2i32..3),
                seed in 0u64..1000,
            ) {
                let lo = IntVect::new(lo.0, lo.1, lo.2);
                let bx = IndexBox::new(lo, lo + IntVect::new(len.0, len.1, len.2) - IntVect::unit());
                let shift = IntVect::new(shift.0, shift.1, shift.2);
                let fab = |bx: IndexBox, seed: u64| {
                    let ba = BoxArray::from_boxes(vec![bx]);
                    distinct_values(ba, 3, 1, seed).fabs.remove(0)
                };
                let (dst0, src) = (&fab(bx, seed), &fab(bx.shift(shift), seed + 1000));

                // copy_from: components 1.. of src into 0.. of dst, over the
                // overlap of a region with both fabs.
                let region = bx.grow(2);
                let mut expect = dst0.clone();
                let r = region.intersection(&dst0.index_box()).intersection(&src.index_box());
                for c in 0..2 {
                    for iv in r.iter() {
                        expect.set(iv, c, src.get(iv, 1 + c));
                    }
                }
                let mut dst = dst0.clone();
                dst.copy_from(src, region, 1, 0, 2);
                prop_assert!(dst == expect, "copy_from");

                // copy_shifted: dst[iv] = src[iv - shift] on the valid box,
                // which shifted back lies inside src's grown box.
                let mut expect = dst0.clone();
                for c in 0..3 {
                    for iv in bx.iter() {
                        expect.set(iv, c, src.get(iv + shift, c));
                    }
                }
                let mut dst = dst0.clone();
                dst.copy_shifted(src, bx, -shift, 3);
                prop_assert!(dst == expect, "copy_shifted");
            }
        }
    }
}
