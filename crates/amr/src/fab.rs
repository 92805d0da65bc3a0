//! [`FArrayBox`]: a multi-component array of `Real` on a box, plus the
//! [`Array4`]/[`Array4Mut`] accessor views used inside row kernels.
//!
//! Memory layout matches AMReX/Fortran: `x` fastest, then `y`, `z`, and the
//! component index slowest, so a stride-1 inner loop over `i` walks
//! contiguous memory.
//!
//! # Safety
//!
//! This is the one module in the suite containing `unsafe` code.
//! [`Array4Mut`] is the Rust analogue of AMReX's `Array4<Real>`: a raw view
//! that can be written through a shared reference, so that a kernel's
//! `Fn + Sync` closure can mutate the fab and pool tasks can touch disjoint
//! parts of one fab at once (a [`crate::HaloLoop`] `unpack` task writes a
//! fab's ghosts beside that fab's `interior` task). The safety contract is
//! exactly the paper's programming model (§III): *every kernel must be
//! embarrassingly parallel over zones* — no two concurrent writers may write
//! the same `(i, j, k, component)` slot, and none may read a slot that
//! another writes. All bounds are checked with
//! `debug_assert!` in debug builds.
//!
//! # Strides and zone cursors
//!
//! A fab and both views carry one precomputed `Strides` — the box's low
//! corner and its `jstride`/`kstride`/`nstride`, as AMReX's `Array4` does —
//! so `at(i, j, k, c)` is three multiply-adds, not a re-derivation of the
//! box size per access. A kernel that touches several components or stencil
//! neighbours of a zone resolves it once with `zone(i, j, k)`, a **cursor**
//! (the zone's offset within a component), and then reaches component `c`
//! with `at_zone(z, c)` and the neighbour one zone along `d` with
//! `z ± stride(d)`. `zone` asserts in debug builds that the zone is in the
//! box, `at_zone`/`set_zone` that the cursor is inside a component; a
//! kernel that steps a cursor `debug_assert_eq!`s it against `zone()` of the
//! neighbour's indices. The cursor changes no part of the contract above:
//! a cursor access *is* the `(i, j, k, c)` access it was resolved from.

use exastro_parallel::{IndexBox, IntVect, Real, LANES};
use std::marker::PhantomData;

/// A box and its index arithmetic, computed once: component `c` of zone
/// `(i, j, k)` lives at `c·nstride + (i − lo.x) + (j − lo.y)·jstride +
/// (k − lo.z)·kstride`. An empty box has all strides zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Strides {
    bx: IndexBox,
    jstride: usize,
    kstride: usize,
    /// Zones in the box: the distance between components.
    nstride: usize,
}

impl Strides {
    fn new(bx: IndexBox) -> Self {
        let s = bx.size();
        let jstride = s.x() as usize;
        let kstride = jstride * s.y() as usize;
        Strides {
            bx,
            jstride,
            kstride,
            nstride: kstride * s.z() as usize,
        }
    }

    /// Offset of zone `(i, j, k)` within a component; the zone must lie in
    /// the box (debug-asserted).
    #[inline]
    fn zone(&self, i: i32, j: i32, k: i32) -> usize {
        debug_assert!(
            self.bx.contains(IntVect::new(i, j, k)),
            "({i},{j},{k}) outside {:?}",
            self.bx
        );
        let lo = self.bx.lo();
        (i - lo.x()) as usize
            + (j - lo.y()) as usize * self.jstride
            + (k - lo.z()) as usize * self.kstride
    }

    #[inline]
    fn stride(&self, dim: usize) -> usize {
        [1, self.jstride, self.kstride][dim]
    }

    /// For a copy of component `c` of the whole of `region` to or from a
    /// buffer of `len` values, `x` fastest: call `row(o, b)` for each x-row,
    /// rows in memory order, with the offsets of the row's first value in
    /// the fab and in the buffer. Checked in every build — once per copy,
    /// and the box copies rely on it: `region` lies inside the box, `c` is
    /// one of `ncomp` components and the buffer holds one value per zone.
    #[inline]
    fn for_each_box_row(
        &self,
        region: IndexBox,
        c: usize,
        ncomp: usize,
        len: usize,
        mut row: impl FnMut(usize, usize),
    ) {
        assert!(
            c < ncomp && self.bx.contains_box(&region) && len == region.num_zones() as usize,
            "copying {region:?} outside {:?}, or to a buffer of the wrong size",
            self.bx
        );
        if region.is_empty() {
            return;
        }
        let (lo, size) = (region.lo(), region.size());
        let start = c * self.nstride + self.zone(lo.x(), lo.y(), lo.z());
        let mut b = 0;
        for k in 0..size.z() as usize {
            for j in 0..size.y() as usize {
                row(start + j * self.jstride + k * self.kstride, b);
                b += size.x() as usize;
            }
        }
    }
}

/// A dense array over `bx` with `ncomp` components.
#[derive(Clone, Debug, PartialEq)]
pub struct FArrayBox {
    st: Strides,
    ncomp: usize,
    data: Vec<Real>,
}

impl FArrayBox {
    /// Allocate a zero-filled fab on `bx` with `ncomp` components.
    pub fn new(bx: IndexBox, ncomp: usize) -> Self {
        assert!(!bx.is_empty(), "cannot allocate a fab on an empty box");
        assert!(ncomp >= 1);
        let n = bx.num_zones() as usize * ncomp;
        FArrayBox {
            st: Strides::new(bx),
            ncomp,
            data: vec![0.0; n],
        }
    }

    /// The index box the fab covers (including any ghost zones — the fab
    /// itself does not distinguish valid from ghost).
    pub fn index_box(&self) -> IndexBox {
        self.st.bx
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Bytes of payload.
    pub fn bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<Real>()) as u64
    }

    #[inline]
    fn offset(&self, iv: IntVect, comp: usize) -> usize {
        debug_assert!(comp < self.ncomp);
        comp * self.st.nstride + self.st.zone(iv.x(), iv.y(), iv.z())
    }

    /// The `n` values of component `comp` from zone `iv` along `x`: one
    /// contiguous run of memory.
    #[inline]
    pub(crate) fn row(&self, iv: IntVect, comp: usize, n: usize) -> &[Real] {
        debug_assert!(n >= 1 && iv.x() + n as i32 - 1 <= self.st.bx.hi().x());
        let o = self.offset(iv, comp);
        &self.data[o..o + n]
    }

    /// Mutable [`FArrayBox::row`].
    #[inline]
    pub(crate) fn row_mut(&mut self, iv: IntVect, comp: usize, n: usize) -> &mut [Real] {
        debug_assert!(n >= 1 && iv.x() + n as i32 - 1 <= self.st.bx.hi().x());
        let o = self.offset(iv, comp);
        &mut self.data[o..o + n]
    }

    /// Read one value.
    #[inline]
    pub fn get(&self, iv: IntVect, comp: usize) -> Real {
        self.data[self.offset(iv, comp)]
    }

    /// Write one value.
    #[inline]
    pub fn set(&mut self, iv: IntVect, comp: usize, v: Real) {
        let o = self.offset(iv, comp);
        self.data[o] = v;
    }

    /// Set every value of component `comp` to `v`.
    pub fn set_val(&mut self, comp: usize, v: Real) {
        let n = self.st.nstride;
        self.data[comp * n..(comp + 1) * n].fill(v);
    }

    /// Set every value of every component to `v`.
    pub fn set_val_all(&mut self, v: Real) {
        self.data.fill(v);
    }

    /// Copy component `src_comp` of `src` into component `dst_comp` of
    /// `self` over the intersection of `region` with both fabs.
    pub fn copy_from(
        &mut self,
        src: &FArrayBox,
        region: IndexBox,
        src_comp: usize,
        dst_comp: usize,
        ncomp: usize,
    ) {
        let r = region.intersection(&self.st.bx).intersection(&src.st.bx);
        for c in 0..ncomp {
            for_each_row(r, |iv, n| {
                self.row_mut(iv, dst_comp + c, n)
                    .copy_from_slice(src.row(iv, src_comp + c, n));
            });
        }
    }

    /// Copy from `src` shifted by `shift`: `self[iv] = src[iv - shift]` over
    /// `region` (in destination index space). Used for periodic ghost fills.
    pub fn copy_shifted(
        &mut self,
        src: &FArrayBox,
        region: IndexBox,
        shift: IntVect,
        ncomp: usize,
    ) {
        let r = region.intersection(&self.st.bx);
        for c in 0..ncomp {
            for_each_row(r, |iv, n| {
                self.row_mut(iv, c, n)
                    .copy_from_slice(src.row(iv - shift, c, n));
            });
        }
    }

    /// Immutable kernel view.
    pub fn array(&self) -> Array4<'_> {
        Array4 {
            data: &self.data,
            st: self.st,
            ncomp: self.ncomp,
        }
    }

    /// Mutable (shared) kernel view. See the module-level safety contract.
    pub fn array_mut(&mut self) -> Array4Mut<'_> {
        Array4Mut {
            ptr: self.data.as_mut_ptr(),
            len: self.data.len(),
            st: self.st,
            ncomp: self.ncomp,
            _marker: PhantomData,
        }
    }

    /// Raw data slice (component-major).
    pub fn data(&self) -> &[Real] {
        &self.data
    }

    /// Mutable raw data slice (component-major).
    pub fn data_mut(&mut self) -> &mut [Real] {
        &mut self.data
    }

    /// Max |value| of component `comp` over `region`.
    pub fn norm_inf(&self, region: IndexBox, comp: usize) -> Real {
        let r = region.intersection(&self.st.bx);
        r.iter()
            .map(|iv| self.get(iv, comp).abs())
            .fold(0.0, Real::max)
    }

    /// Sum of component `comp` over `region`.
    pub fn sum(&self, region: IndexBox, comp: usize) -> Real {
        let r = region.intersection(&self.st.bx);
        r.iter().map(|iv| self.get(iv, comp)).sum()
    }
}

/// The one loop over a box's zones: call `f(start, n)` for each x-row of
/// `bx`, the row's first zone and its length, rows in memory order. Nothing
/// for an empty box. A kernel resolves `start` to a cursor once and walks
/// the row from it, zone by zone or in [`exastro_parallel::lane_chunks`].
#[inline]
pub fn for_each_row(bx: IndexBox, mut f: impl FnMut(IntVect, usize)) {
    if bx.is_empty() {
        return;
    }
    let (lo, hi) = (bx.lo(), bx.hi());
    let n = bx.length(0) as usize;
    // Exclusive i64 ranges instead of `lo..=hi`: RangeInclusive carries an
    // `exhausted` flag that defeats LLVM's loop canonicalization, costing
    // ~1.5 ns/zone of pure loop control on every kernel. Widening to i64
    // makes `hi + 1` overflow-free.
    for k in i64::from(lo.z())..i64::from(hi.z()) + 1 {
        for j in i64::from(lo.y())..i64::from(hi.y()) + 1 {
            f(IntVect::new(lo.x(), j as i32, k as i32), n);
        }
    }
}

/// Immutable view of a fab for use inside kernels. `Copy`, cheap to capture.
#[derive(Clone, Copy)]
pub struct Array4<'a> {
    data: &'a [Real],
    st: Strides,
    ncomp: usize,
}

impl<'a> Array4<'a> {
    /// View a raw component-major slice (e.g. an arena scratch buffer) as a
    /// fab over `bx`. `data.len()` must equal `bx.num_zones() * ncomp`.
    pub fn from_slice(data: &'a [Real], bx: IndexBox, ncomp: usize) -> Self {
        assert_eq!(data.len(), bx.num_zones() as usize * ncomp);
        Array4 {
            data,
            st: Strides::new(bx),
            ncomp,
        }
    }

    /// Cursor of zone `(i, j, k)`: its offset within a component (module
    /// docs). The zone must lie in the box.
    #[inline]
    pub fn zone(&self, i: i32, j: i32, k: i32) -> usize {
        self.st.zone(i, j, k)
    }

    /// What to add to a cursor to step one zone along `dim`.
    #[inline]
    pub fn stride(&self, dim: usize) -> usize {
        self.st.stride(dim)
    }

    /// Component `c` of the zone at cursor `z`.
    #[inline]
    pub fn at_zone(&self, z: usize, c: usize) -> Real {
        debug_assert!(z < self.st.nstride, "cursor {z} outside {:?}", self.st.bx);
        debug_assert!(c < self.ncomp);
        self.data[c * self.st.nstride + z]
    }

    /// Value at `(i, j, k)` component `c`.
    #[inline]
    pub fn at(&self, i: i32, j: i32, k: i32, c: usize) -> Real {
        self.at_zone(self.zone(i, j, k), c)
    }

    /// Component `c` of the [`LANES`] zones along x from cursor `z`, of
    /// which the first `live` are read: a lane past them repeats the last
    /// live zone (a clamped load), so a row's last, partial lane chunk reads
    /// only zones of its row.
    #[inline]
    pub fn at_lanes(&self, z: usize, live: usize, c: usize) -> [Real; LANES] {
        debug_assert!((1..=LANES).contains(&live));
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.at_zone(z + l.min(live - 1), c);
        }
        out
    }

    /// Copy component `c` of every zone of `region`, `x` fastest, into
    /// `out`.
    pub(crate) fn read_box(&self, region: IndexBox, c: usize, out: &mut [Real]) {
        let n = region.length(0) as usize;
        self.st
            .for_each_box_row(region, c, self.ncomp, out.len(), |o, b| {
                out[b..b + n].copy_from_slice(&self.data[o..o + n]);
            });
    }

    /// The box this view covers.
    pub fn index_box(&self) -> IndexBox {
        self.st.bx
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }
}

/// Mutable kernel view writable through `&self`, so it can be captured by
/// the `Fn + Sync` closures that pool kernels require.
///
/// # Safety contract
///
/// Within one kernel, distinct concurrent writers must touch disjoint
/// `(i, j, k, c)` slots (the embarrassingly-parallel contract of §III). The
/// view must not outlive the fab (enforced by the lifetime) and no other
/// view of the same fab may be used concurrently.
pub struct Array4Mut<'a> {
    ptr: *mut Real,
    len: usize,
    st: Strides,
    ncomp: usize,
    _marker: PhantomData<&'a mut [Real]>,
}

// SAFETY: Array4Mut is a raw view into a uniquely borrowed fab. Concurrent
// use from multiple threads is sound iff callers honour the documented
// disjoint-writes contract, which all kernels in the suite do by
// construction (each (i,j,k) zone is written by exactly one closure call).
unsafe impl Send for Array4Mut<'_> {}
unsafe impl Sync for Array4Mut<'_> {}

impl<'a> Array4Mut<'a> {
    /// View a raw mutable component-major slice (e.g. an arena scratch
    /// buffer) as a fab over `bx`, writable under the same disjoint-access
    /// contract as [`FArrayBox::array_mut`].
    pub fn from_slice(data: &'a mut [Real], bx: IndexBox, ncomp: usize) -> Self {
        assert_eq!(data.len(), bx.num_zones() as usize * ncomp);
        Array4Mut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            st: Strides::new(bx),
            ncomp,
            _marker: PhantomData,
        }
    }

    /// Cursor of zone `(i, j, k)`: its offset within a component (module
    /// docs). The zone must lie in the box.
    #[inline]
    pub fn zone(&self, i: i32, j: i32, k: i32) -> usize {
        self.st.zone(i, j, k)
    }

    /// What to add to a cursor to step one zone along `dim`.
    #[inline]
    pub fn stride(&self, dim: usize) -> usize {
        self.st.stride(dim)
    }

    #[inline]
    fn offset(&self, z: usize, c: usize) -> usize {
        debug_assert!(z < self.st.nstride, "cursor {z} outside {:?}", self.st.bx);
        debug_assert!(c < self.ncomp);
        let o = c * self.st.nstride + z;
        debug_assert!(o < self.len);
        o
    }

    /// Read component `c` of the zone at cursor `z`.
    #[inline]
    pub fn at_zone(&self, z: usize, c: usize) -> Real {
        let o = self.offset(z, c);
        // SAFETY: `o` is in-bounds — `z` indexes a zone of the box and `c` a
        // component (both debug-asserted), and the view was built over
        // `nstride * ncomp` live values — and callers honour the
        // disjoint-access contract.
        unsafe { *self.ptr.add(o) }
    }

    /// Write `v` to component `c` of the zone at cursor `z`.
    #[inline]
    pub fn set_zone(&self, z: usize, c: usize, v: Real) {
        let o = self.offset(z, c);
        // SAFETY: as for `at_zone`; each slot is written by at most one
        // kernel invocation per the module contract.
        unsafe {
            *self.ptr.add(o) = v;
        }
    }

    /// Add `v` into component `c` of the zone at cursor `z`.
    #[inline]
    pub fn add_zone(&self, z: usize, c: usize, v: Real) {
        self.set_zone(z, c, self.at_zone(z, c) + v);
    }

    /// [`Array4::at_lanes`]: component `c` of the [`LANES`] zones along x
    /// from cursor `z`, loads clamped to the first `live`.
    #[inline]
    pub fn at_lanes(&self, z: usize, live: usize, c: usize) -> [Real; LANES] {
        debug_assert!((1..=LANES).contains(&live));
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.at_zone(z + l.min(live - 1), c);
        }
        out
    }

    /// Write the first `live` lanes of `v` to component `c` of the zones
    /// along x from cursor `z` (a masked store: the other lanes are dropped).
    #[inline]
    pub fn set_lanes(&self, z: usize, live: usize, c: usize, v: [Real; LANES]) {
        debug_assert!(live <= LANES);
        for (l, v) in v.into_iter().enumerate().take(live) {
            self.set_zone(z + l, c, v);
        }
    }

    /// Read the value at `(i, j, k)` component `c`.
    #[inline]
    pub fn at(&self, i: i32, j: i32, k: i32, c: usize) -> Real {
        self.at_zone(self.zone(i, j, k), c)
    }

    /// Write `v` at `(i, j, k)` component `c`.
    #[inline]
    pub fn set(&self, i: i32, j: i32, k: i32, c: usize, v: Real) {
        self.set_zone(self.zone(i, j, k), c, v);
    }

    /// Add `v` into `(i, j, k)` component `c`.
    #[inline]
    pub fn add(&self, i: i32, j: i32, k: i32, c: usize, v: Real) {
        self.add_zone(self.zone(i, j, k), c, v);
    }

    /// Copy component `c` of every zone of `region`, `x` fastest, into
    /// `out`. The region's slots are read, in the contract's terms.
    pub(crate) fn read_box(&self, region: IndexBox, c: usize, out: &mut [Real]) {
        let n = region.length(0) as usize;
        self.st
            .for_each_box_row(region, c, self.ncomp, out.len(), |o, b| {
                for x in 0..n {
                    // SAFETY: `for_each_box_row` checked, in every build,
                    // that `region` lies inside the viewed box and `c` is a
                    // component, so every zone of each of its rows is
                    // inside the viewed allocation; no concurrent task
                    // writes the slots read (module contract).
                    out[b + x] = unsafe { *self.ptr.add(o + x) };
                }
            });
    }

    /// Overwrite component `c` of every zone of `region` with `data`, `x`
    /// fastest. The region's slots are written, in the contract's terms.
    pub(crate) fn write_box(&self, region: IndexBox, c: usize, data: &[Real]) {
        let n = region.length(0) as usize;
        self.st
            .for_each_box_row(region, c, self.ncomp, data.len(), |o, b| {
                for x in 0..n {
                    // SAFETY: as for `read_box`, with the roles swapped: no
                    // concurrent task touches the slots written.
                    unsafe { *self.ptr.add(o + x) = data[b + x] };
                }
            });
    }

    /// The box this view covers.
    pub fn index_box(&self) -> IndexBox {
        self.st.bx
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_parallel::{lane_chunks, par_index_each, LANES};
    use proptest::prelude::*;

    #[test]
    fn rows_and_their_lane_chunks_cover_every_zone_once_in_memory_order() {
        let bx = IndexBox::new(IntVect::new(-3, 0, 1), IntVect::new(5, 2, 3));
        let mut visited = Vec::new();
        for_each_row(bx, |start, n| {
            assert_eq!((start.x(), n), (bx.lo().x(), bx.length(0) as usize));
            lane_chunks(n, |o, live| {
                assert!((1..=LANES).contains(&live));
                for l in 0..live {
                    let iv = start + IntVect::new((o + l) as i32, 0, 0);
                    visited.push(bx.linear_index(iv));
                }
            });
        });
        assert_eq!(visited, (0..bx.num_zones() as usize).collect::<Vec<_>>());
        for len in 0..=9 {
            let mut chunks = Vec::new();
            lane_chunks(len, |o, live| chunks.push((o, live)));
            let lives: usize = chunks.iter().map(|&(_, live)| live).sum();
            assert_eq!(lives, len);
            assert!(chunks.iter().enumerate().all(|(n, &(o, _))| o == n * LANES));
        }
    }

    #[test]
    fn an_empty_box_has_no_rows() {
        for_each_row(IndexBox::empty(), |_, _| panic!("must not run"));
    }

    #[test]
    fn fab_get_set_roundtrip() {
        let bx = IndexBox::new(IntVect::new(-2, 0, 1), IntVect::new(3, 4, 5));
        let mut fab = FArrayBox::new(bx, 3);
        for (n, iv) in bx.iter().enumerate() {
            fab.set(iv, 1, n as Real);
        }
        for (n, iv) in bx.iter().enumerate() {
            assert_eq!(fab.get(iv, 1), n as Real);
            assert_eq!(fab.get(iv, 0), 0.0);
            assert_eq!(fab.get(iv, 2), 0.0);
        }
    }

    #[test]
    fn set_val_per_component() {
        let mut fab = FArrayBox::new(IndexBox::cube(4), 2);
        fab.set_val(0, 1.5);
        fab.set_val(1, -2.5);
        assert_eq!(fab.sum(IndexBox::cube(4), 0), 1.5 * 64.0);
        assert_eq!(fab.sum(IndexBox::cube(4), 1), -2.5 * 64.0);
        assert_eq!(fab.norm_inf(IndexBox::cube(4), 1), 2.5);
    }

    #[test]
    fn copy_from_intersection_only() {
        let mut dst = FArrayBox::new(IndexBox::cube(4), 1);
        let mut src = FArrayBox::new(IndexBox::cube(8).shift(IntVect::splat(2)), 1);
        src.set_val(0, 9.0);
        dst.copy_from(&src, IndexBox::cube(8), 0, 0, 1);
        // Only the overlap [2,3]^3 was copied.
        assert_eq!(dst.sum(IndexBox::cube(4), 0), 9.0 * 8.0);
        assert_eq!(dst.get(IntVect::zero(), 0), 0.0);
        assert_eq!(dst.get(IntVect::splat(3), 0), 9.0);
    }

    #[test]
    fn copy_shifted_maps_source_indices() {
        let mut dst = FArrayBox::new(IndexBox::cube(4), 1);
        let mut src = FArrayBox::new(IndexBox::cube(4), 1);
        for iv in IndexBox::cube(4).iter() {
            src.set(iv, 0, (iv.x() + 10 * iv.y()) as Real);
        }
        // dst[iv] = src[iv - (1,0,0)] over the column i=1..3
        let region = IndexBox::new(IntVect::new(1, 0, 0), IntVect::new(3, 3, 3));
        dst.copy_shifted(&src, region, IntVect::new(1, 0, 0), 1);
        assert_eq!(
            dst.get(IntVect::new(1, 2, 0), 0),
            src.get(IntVect::new(0, 2, 0), 0)
        );
        assert_eq!(
            dst.get(IntVect::new(3, 3, 3), 0),
            src.get(IntVect::new(2, 3, 3), 0)
        );
    }

    #[test]
    fn array4_mut_parallel_write_disjoint() {
        let bx = IndexBox::cube(16);
        let mut fab = FArrayBox::new(bx, 2);
        let arr = fab.array_mut();
        // One k-plane a pool task, every task writing through the one
        // shared view.
        par_index_each(bx.size().z() as usize, usize::MAX, |k| {
            let k = bx.lo().z() + k as i32;
            for j in bx.lo().y()..=bx.hi().y() {
                for i in bx.lo().x()..=bx.hi().x() {
                    arr.set(i, j, k, 0, (i + j + k) as Real);
                    arr.set(i, j, k, 1, (i * j * k) as Real);
                }
            }
        });
        for iv in bx.iter() {
            assert_eq!(fab.get(iv, 0), (iv.x() + iv.y() + iv.z()) as Real);
            assert_eq!(fab.get(iv, 1), (iv.x() * iv.y() * iv.z()) as Real);
        }
    }

    #[test]
    fn array4_reads_match_fab() {
        let bx = IndexBox::cube(5);
        let mut fab = FArrayBox::new(bx, 1);
        for iv in bx.iter() {
            fab.set(iv, 0, (iv.x() * 100 + iv.y() * 10 + iv.z()) as Real);
        }
        let a = fab.array();
        for iv in bx.iter() {
            assert_eq!(a.at(iv.x(), iv.y(), iv.z(), 0), fab.get(iv, 0));
        }
    }

    #[test]
    fn array4_mut_add_accumulates() {
        let bx = IndexBox::cube(2);
        let mut fab = FArrayBox::new(bx, 1);
        let arr = fab.array_mut();
        arr.add(0, 0, 0, 0, 1.0);
        arr.add(0, 0, 0, 0, 2.5);
        assert_eq!(fab.get(IntVect::zero(), 0), 3.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cursor_matches_the_box_arithmetic_it_replaced(
            lo in (-9i32..9, -9i32..9, -9i32..9),
            len in (0i32..5, 0i32..5, 0i32..5),
            ncomp in 1usize..4,
        ) {
            // Lengths 0 (an empty box) and 1 (no room to step) included.
            let lo = IntVect::new(lo.0, lo.1, lo.2);
            let bx = IndexBox::new(lo, lo + IntVect::new(len.0, len.1, len.2) - IntVect::unit());
            let data: Vec<Real> = (0..bx.num_zones() as usize * ncomp).map(|n| n as Real).collect();
            let a = Array4::from_slice(&data, bx, ncomp);
            prop_assert_eq!(a.st.nstride, bx.num_zones() as usize);
            for iv in bx.iter() {
                let z = a.zone(iv.x(), iv.y(), iv.z());
                prop_assert_eq!(z, bx.linear_index(iv));
                for c in 0..ncomp {
                    let old = c * bx.num_zones() as usize + bx.linear_index(iv);
                    prop_assert_eq!(z + c * a.st.nstride, old);
                    prop_assert_eq!(a.at_zone(z, c), old as Real);
                    prop_assert_eq!(a.at(iv.x(), iv.y(), iv.z(), c), old as Real);
                }
                for d in 0..3 {
                    let next = iv + IntVect::dim_vec(d);
                    if bx.contains(next) {
                        prop_assert_eq!(z + a.stride(d), a.zone(next.x(), next.y(), next.z()));
                    }
                }
            }
            // The fab and the mutable view share the arithmetic.
            if !bx.is_empty() {
                let mut fab = FArrayBox::new(bx, ncomp);
                fab.data_mut().copy_from_slice(&data);
                let m = fab.array_mut();
                for iv in bx.iter() {
                    let z = m.zone(iv.x(), iv.y(), iv.z());
                    prop_assert_eq!(z, a.zone(iv.x(), iv.y(), iv.z()));
                    for c in 0..ncomp {
                        m.add_zone(z, c, 0.5);
                    }
                    for d in 0..3 {
                        prop_assert_eq!(m.stride(d), a.stride(d));
                    }
                }
                for (iv, c) in bx.iter().flat_map(|iv| (0..ncomp).map(move |c| (iv, c))) {
                    let old = c * bx.num_zones() as usize + bx.linear_index(iv);
                    prop_assert_eq!(fab.get(iv, c), old as Real + 0.5);
                }
            }
        }
    }

    /// A cursor resolved outside the box, or stepped off the end of a
    /// component, is caught in debug builds — as `at`/`set` always were.
    #[cfg(debug_assertions)]
    mod out_of_box_access_panics {
        use super::*;

        fn fab() -> FArrayBox {
            FArrayBox::new(IndexBox::new(IntVect::splat(-1), IntVect::splat(1)), 2)
        }

        #[test]
        #[should_panic(expected = "outside")]
        fn resolving_a_zone_outside_the_box() {
            fab().array().zone(2, 0, 0);
        }

        #[test]
        #[should_panic(expected = "outside")]
        fn resolving_a_zone_outside_the_box_mutably() {
            fab().array_mut().zone(0, -2, 0);
        }

        #[test]
        #[should_panic(expected = "outside")]
        fn reading_past_the_last_zone() {
            let fab = fab();
            let a = fab.array();
            a.at_zone(a.zone(1, 1, 1) + a.stride(2), 0);
        }

        #[test]
        #[should_panic(expected = "outside")]
        fn writing_past_the_last_zone() {
            let mut fab = fab();
            let m = fab.array_mut();
            m.set_zone(m.zone(1, 1, 1) + m.stride(0), 1, 0.0);
        }

        #[test]
        #[should_panic]
        fn writing_a_component_the_fab_does_not_have() {
            let mut fab = fab();
            let m = fab.array_mut();
            m.set_zone(m.zone(0, 0, 0), 2, 0.0);
        }
    }

    #[test]
    fn fab_bytes() {
        let fab = FArrayBox::new(IndexBox::cube(4), 3);
        assert_eq!(fab.bytes(), 64 * 3 * 8);
    }
}
