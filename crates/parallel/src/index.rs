//! Index-space primitives: [`IntVect`] and [`IndexBox`].
//!
//! These mirror AMReX's `IntVect` and `Box`: a zone is addressed by an
//! integer triple `(i, j, k)` and a box is the inclusive rectangular range
//! `[lo, hi]` in index space. A box is the unit of parallel work (one task
//! on the worker pool); inside it, every per-zone kernel iterates over the
//! `IndexBox` through [`crate::exec::ExecSpace::par_for`], with `i` (the x
//! index) varying fastest to match the memory layout of
//! `exastro_amr::FArrayBox`.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Number of spatial dimensions supported by the suite.
///
/// Lower-dimensional problems are represented by degenerate boxes (e.g. a 2-D
/// problem has `lo.z() == hi.z() == 0`), matching how AMReX builds with
/// `AMREX_SPACEDIM` but the astro codes run 1-, 2-, and 3-D setups.
pub const SPACEDIM: usize = 3;

/// An integer vector in index space; one component per spatial dimension.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IntVect(pub [i32; SPACEDIM]);

impl IntVect {
    /// Construct from components.
    #[inline]
    pub const fn new(i: i32, j: i32, k: i32) -> Self {
        IntVect([i, j, k])
    }

    /// The zero vector.
    #[inline]
    pub const fn zero() -> Self {
        IntVect([0; SPACEDIM])
    }

    /// The unit vector (1, 1, 1).
    #[inline]
    pub const fn unit() -> Self {
        IntVect([1; SPACEDIM])
    }

    /// A vector with `v` in every component.
    #[inline]
    pub const fn splat(v: i32) -> Self {
        IntVect([v; SPACEDIM])
    }

    /// The unit vector along dimension `dir` (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn dim_vec(dir: usize) -> Self {
        let mut v = [0; SPACEDIM];
        v[dir] = 1;
        IntVect(v)
    }

    /// First (x) component.
    #[inline]
    pub const fn x(&self) -> i32 {
        self.0[0]
    }
    /// Second (y) component.
    #[inline]
    pub const fn y(&self) -> i32 {
        self.0[1]
    }
    /// Third (z) component.
    #[inline]
    pub const fn z(&self) -> i32 {
        self.0[2]
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        IntVect([
            self.0[0].min(o.0[0]),
            self.0[1].min(o.0[1]),
            self.0[2].min(o.0[2]),
        ])
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        IntVect([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
        ])
    }

    /// True if every component of `self` is `<=` the matching component of `o`.
    #[inline]
    pub fn all_le(&self, o: &Self) -> bool {
        self.0[0] <= o.0[0] && self.0[1] <= o.0[1] && self.0[2] <= o.0[2]
    }

    /// True if every component of `self` is `>=` the matching component of `o`.
    #[inline]
    pub fn all_ge(&self, o: &Self) -> bool {
        self.0[0] >= o.0[0] && self.0[1] >= o.0[1] && self.0[2] >= o.0[2]
    }

    /// Coarsen each component by `ratio` (flooring division, as AMReX does).
    #[inline]
    pub fn coarsen(self, ratio: IntVect) -> Self {
        #[inline]
        fn cdiv(a: i32, r: i32) -> i32 {
            if a >= 0 {
                a / r
            } else {
                -((-a + r - 1) / r)
            }
        }
        IntVect([
            cdiv(self.0[0], ratio.0[0]),
            cdiv(self.0[1], ratio.0[1]),
            cdiv(self.0[2], ratio.0[2]),
        ])
    }

    /// Component-wise product with another vector.
    #[inline]
    pub fn scale(self, o: Self) -> Self {
        IntVect([self.0[0] * o.0[0], self.0[1] * o.0[1], self.0[2] * o.0[2]])
    }

    /// Sum of components.
    #[inline]
    pub fn sum(&self) -> i64 {
        self.0[0] as i64 + self.0[1] as i64 + self.0[2] as i64
    }

    /// Product of components.
    #[inline]
    pub fn product(&self) -> i64 {
        self.0[0] as i64 * self.0[1] as i64 * self.0[2] as i64
    }

    /// Largest component value.
    #[inline]
    pub fn max_component(&self) -> i32 {
        self.0[0].max(self.0[1]).max(self.0[2])
    }

    /// Smallest component value.
    #[inline]
    pub fn min_component(&self) -> i32 {
        self.0[0].min(self.0[1]).min(self.0[2])
    }
}

impl fmt::Debug for IntVect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.0[0], self.0[1], self.0[2])
    }
}

impl fmt::Display for IntVect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Index<usize> for IntVect {
    type Output = i32;
    #[inline]
    fn index(&self, d: usize) -> &i32 {
        &self.0[d]
    }
}

impl IndexMut<usize> for IntVect {
    #[inline]
    fn index_mut(&mut self, d: usize) -> &mut i32 {
        &mut self.0[d]
    }
}

impl Add for IntVect {
    type Output = IntVect;
    #[inline]
    fn add(self, o: Self) -> Self {
        IntVect([self.0[0] + o.0[0], self.0[1] + o.0[1], self.0[2] + o.0[2]])
    }
}

impl AddAssign for IntVect {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl Sub for IntVect {
    type Output = IntVect;
    #[inline]
    fn sub(self, o: Self) -> Self {
        IntVect([self.0[0] - o.0[0], self.0[1] - o.0[1], self.0[2] - o.0[2]])
    }
}

impl SubAssign for IntVect {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl Mul<i32> for IntVect {
    type Output = IntVect;
    #[inline]
    fn mul(self, s: i32) -> Self {
        IntVect([self.0[0] * s, self.0[1] * s, self.0[2] * s])
    }
}

impl Neg for IntVect {
    type Output = IntVect;
    #[inline]
    fn neg(self) -> Self {
        IntVect([-self.0[0], -self.0[1], -self.0[2]])
    }
}

/// A rectangular region of index space with *inclusive* bounds `[lo, hi]`.
///
/// This is the fundamental unit of work distribution: a `MultiFab` lives on a
/// collection of `IndexBox`es, MPI ranks own boxes, tiles are sub-boxes, and
/// on a massively parallel device every zone of the box becomes one thread
/// (see Figure 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexBox {
    lo: IntVect,
    hi: IntVect,
}

impl IndexBox {
    /// Construct a box from inclusive corners. An "empty" box is any box with
    /// `hi < lo` in some dimension.
    #[inline]
    pub const fn new(lo: IntVect, hi: IntVect) -> Self {
        IndexBox { lo, hi }
    }

    /// The box `[0, n-1]^3` for a cubic domain of `n` zones per side.
    #[inline]
    pub fn cube(n: i32) -> Self {
        IndexBox::new(IntVect::zero(), IntVect::splat(n - 1))
    }

    /// A box spanning `[0, n_d - 1]` in each dimension.
    #[inline]
    pub fn sized(n: IntVect) -> Self {
        IndexBox::new(IntVect::zero(), n - IntVect::unit())
    }

    /// A canonical empty box.
    #[inline]
    pub fn empty() -> Self {
        IndexBox::new(IntVect::unit(), IntVect::zero())
    }

    /// Inclusive low corner.
    #[inline]
    pub const fn lo(&self) -> IntVect {
        self.lo
    }
    /// Inclusive high corner.
    #[inline]
    pub const fn hi(&self) -> IntVect {
        self.hi
    }

    /// True if the box contains no zones.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.lo.all_le(&self.hi)
    }

    /// Zones per dimension (0 for empty boxes).
    #[inline]
    pub fn size(&self) -> IntVect {
        if self.is_empty() {
            IntVect::zero()
        } else {
            self.hi - self.lo + IntVect::unit()
        }
    }

    /// Total number of zones in the box.
    #[inline]
    pub fn num_zones(&self) -> i64 {
        self.size().product()
    }

    /// Length of the box along dimension `d`.
    #[inline]
    pub fn length(&self, d: usize) -> i32 {
        self.size()[d]
    }

    /// True if zone `(i, j, k)` lies inside the box.
    #[inline]
    pub fn contains(&self, iv: IntVect) -> bool {
        self.lo.all_le(&iv) && iv.all_le(&self.hi)
    }

    /// True if `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &IndexBox) -> bool {
        other.is_empty() || (self.lo.all_le(&other.lo) && other.hi.all_le(&self.hi))
    }

    /// True if the two boxes share at least one zone.
    #[inline]
    pub fn intersects(&self, other: &IndexBox) -> bool {
        !self.intersection(other).is_empty()
    }

    /// The overlap of two boxes (possibly empty).
    #[inline]
    pub fn intersection(&self, other: &IndexBox) -> IndexBox {
        IndexBox::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Grow the box by `n` zones on every face (negative `n` shrinks).
    #[inline]
    pub fn grow(&self, n: i32) -> IndexBox {
        IndexBox::new(self.lo - IntVect::splat(n), self.hi + IntVect::splat(n))
    }

    /// Grow by `n[d]` zones on both faces of each dimension `d`.
    #[inline]
    pub fn grow_vec(&self, n: IntVect) -> IndexBox {
        IndexBox::new(self.lo - n, self.hi + n)
    }

    /// Grow by `n` zones on both faces of dimension `d` only.
    #[inline]
    pub fn grow_dir(&self, d: usize, n: i32) -> IndexBox {
        let mut lo = self.lo;
        let mut hi = self.hi;
        lo[d] -= n;
        hi[d] += n;
        IndexBox::new(lo, hi)
    }

    /// Translate the box by `shift`.
    #[inline]
    pub fn shift(&self, shift: IntVect) -> IndexBox {
        IndexBox::new(self.lo + shift, self.hi + shift)
    }

    /// Refine: each zone becomes a `ratio`-cubed block of finer zones.
    #[inline]
    pub fn refine(&self, ratio: i32) -> IndexBox {
        let r = IntVect::splat(ratio);
        IndexBox::new(self.lo.scale(r), self.hi.scale(r) + r - IntVect::unit())
    }

    /// Coarsen by `ratio` (the inverse of [`IndexBox::refine`]; covers at
    /// least the original region).
    #[inline]
    pub fn coarsen(&self, ratio: i32) -> IndexBox {
        let r = IntVect::splat(ratio);
        IndexBox::new(self.lo.coarsen(r), self.hi.coarsen(r))
    }

    /// Split the box at index `at` along dimension `d`, returning
    /// `(lower, upper)` where `upper` starts at `at`. `at` must satisfy
    /// `lo[d] < at <= hi[d]` for both halves to be non-empty.
    pub fn chop(&self, d: usize, at: i32) -> (IndexBox, IndexBox) {
        let mut lo_hi = self.hi;
        lo_hi[d] = at - 1;
        let mut hi_lo = self.lo;
        hi_lo[d] = at;
        (IndexBox::new(self.lo, lo_hi), IndexBox::new(hi_lo, self.hi))
    }

    /// The dimension in which the box is longest.
    pub fn longest_dir(&self) -> usize {
        let s = self.size();
        let mut d = 0;
        for c in 1..SPACEDIM {
            if s[c] > s[d] {
                d = c;
            }
        }
        d
    }

    /// Iterate over all zones of the box, `x` fastest (memory order).
    pub fn iter(&self) -> ZoneIter {
        ZoneIter {
            bx: *self,
            cur: self.lo,
            done: self.is_empty(),
        }
    }

    /// Linear offset of zone `iv` within the box in x-fastest order.
    /// Caller must ensure `self.contains(iv)`.
    #[inline]
    pub fn linear_index(&self, iv: IntVect) -> usize {
        let s = self.size();
        let d = iv - self.lo;
        (d.0[0] as usize)
            + (s.0[0] as usize) * ((d.0[1] as usize) + (s.0[1] as usize) * (d.0[2] as usize))
    }

    /// The minimal box containing both operands.
    #[inline]
    pub fn union_hull(&self, other: &IndexBox) -> IndexBox {
        if self.is_empty() {
            *other
        } else if other.is_empty() {
            *self
        } else {
            IndexBox::new(self.lo.min(other.lo), self.hi.max(other.hi))
        }
    }

    /// Decompose `self \ other` into a disjoint set of boxes.
    pub fn difference(&self, other: &IndexBox) -> Vec<IndexBox> {
        let isect = self.intersection(other);
        if isect.is_empty() {
            return vec![*self];
        }
        if isect == *self {
            return vec![];
        }
        let mut out = Vec::new();
        let mut rest = *self;
        for d in 0..SPACEDIM {
            if rest.lo[d] < isect.lo[d] {
                let (below, above) = rest.chop(d, isect.lo[d]);
                out.push(below);
                rest = above;
            }
            if rest.hi[d] > isect.hi[d] {
                let (below, above) = rest.chop(d, isect.hi[d] + 1);
                out.push(above);
                rest = below;
            }
        }
        debug_assert_eq!(rest, isect);
        out
    }
}

impl fmt::Debug for IndexBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}..{:?}]", self.lo, self.hi)
    }
}

impl fmt::Display for IndexBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the zones of an [`IndexBox`] in x-fastest order.
pub struct ZoneIter {
    bx: IndexBox,
    cur: IntVect,
    done: bool,
}

impl Iterator for ZoneIter {
    type Item = IntVect;

    fn next(&mut self) -> Option<IntVect> {
        if self.done {
            return None;
        }
        let out = self.cur;
        self.cur[0] += 1;
        if self.cur[0] > self.bx.hi[0] {
            self.cur[0] = self.bx.lo[0];
            self.cur[1] += 1;
            if self.cur[1] > self.bx.hi[1] {
                self.cur[1] = self.bx.lo[1];
                self.cur[2] += 1;
                if self.cur[2] > self.bx.hi[2] {
                    self.done = true;
                }
            }
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        // Remaining = zones from cur to end in x-fastest order.
        let s = self.bx.size();
        let d = self.cur - self.bx.lo();
        let total = self.bx.num_zones();
        let consumed =
            d.0[0] as i64 + s.0[0] as i64 * (d.0[1] as i64 + s.0[1] as i64 * d.0[2] as i64);
        let n = (total - consumed) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for ZoneIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intvect_arithmetic() {
        let a = IntVect::new(1, 2, 3);
        let b = IntVect::new(4, 5, 6);
        assert_eq!(a + b, IntVect::new(5, 7, 9));
        assert_eq!(b - a, IntVect::new(3, 3, 3));
        assert_eq!(a * 2, IntVect::new(2, 4, 6));
        assert_eq!(-a, IntVect::new(-1, -2, -3));
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.product(), 6);
        assert_eq!(a.sum(), 6);
    }

    #[test]
    fn intvect_coarsen_negative() {
        // Flooring division: -1 coarsened by 2 must map to -1, not 0.
        assert_eq!(
            IntVect::new(-1, 0, 3).coarsen(IntVect::splat(2)),
            IntVect::new(-1, 0, 1)
        );
        assert_eq!(
            IntVect::new(-4, -3, 4).coarsen(IntVect::splat(4)),
            IntVect::new(-1, -1, 1)
        );
    }

    #[test]
    fn box_basic() {
        let b = IndexBox::cube(8);
        assert_eq!(b.num_zones(), 512);
        assert_eq!(b.size(), IntVect::splat(8));
        assert!(b.contains(IntVect::zero()));
        assert!(b.contains(IntVect::splat(7)));
        assert!(!b.contains(IntVect::splat(8)));
        assert!(!b.is_empty());
        assert!(IndexBox::empty().is_empty());
        assert_eq!(IndexBox::empty().num_zones(), 0);
    }

    #[test]
    fn box_grow_shrink() {
        let b = IndexBox::cube(4).grow(2);
        assert_eq!(b.lo(), IntVect::splat(-2));
        assert_eq!(b.hi(), IntVect::splat(5));
        assert_eq!(b.grow(-2), IndexBox::cube(4));
        let g = IndexBox::cube(4).grow_dir(1, 3);
        assert_eq!(g.lo(), IntVect::new(0, -3, 0));
        assert_eq!(g.hi(), IntVect::new(3, 6, 3));
        let v = IndexBox::cube(4).grow_vec(IntVect::new(2, 0, 1));
        assert_eq!(v.lo(), IntVect::new(-2, 0, -1));
        assert_eq!(v.hi(), IntVect::new(5, 3, 4));
        assert_eq!(IndexBox::cube(4).grow_vec(IntVect::splat(2)), b);
    }

    #[test]
    fn box_intersection() {
        let a = IndexBox::new(IntVect::zero(), IntVect::splat(7));
        let b = IndexBox::new(IntVect::splat(4), IntVect::splat(11));
        let c = a.intersection(&b);
        assert_eq!(c, IndexBox::new(IntVect::splat(4), IntVect::splat(7)));
        assert!(a.intersects(&b));
        let far = b.shift(IntVect::splat(100));
        assert!(!a.intersects(&far));
        assert!(a.intersection(&far).is_empty());
    }

    #[test]
    fn box_refine_coarsen_roundtrip() {
        let b = IndexBox::new(IntVect::new(2, -4, 0), IntVect::new(5, -1, 3));
        assert_eq!(b.refine(2).coarsen(2), b);
        assert_eq!(b.refine(4).num_zones(), b.num_zones() * 64);
    }

    #[test]
    fn box_chop() {
        let b = IndexBox::cube(8);
        let (lo, hi) = b.chop(0, 3);
        assert_eq!(lo.num_zones(), 3 * 64);
        assert_eq!(hi.num_zones(), 5 * 64);
        assert_eq!(lo.union_hull(&hi), b);
        assert!(!lo.intersects(&hi));
    }

    #[test]
    fn box_iter_order_and_count() {
        let b = IndexBox::new(IntVect::new(1, 2, 3), IntVect::new(2, 3, 4));
        let zones: Vec<_> = b.iter().collect();
        assert_eq!(zones.len() as i64, b.num_zones());
        // x fastest
        assert_eq!(zones[0], IntVect::new(1, 2, 3));
        assert_eq!(zones[1], IntVect::new(2, 2, 3));
        assert_eq!(zones[2], IntVect::new(1, 3, 3));
        assert_eq!(*zones.last().unwrap(), IntVect::new(2, 3, 4));
        // linear_index agrees with iteration order
        for (n, iv) in b.iter().enumerate() {
            assert_eq!(b.linear_index(iv), n);
        }
    }

    #[test]
    fn box_iter_len() {
        let b = IndexBox::cube(5);
        let mut it = b.iter();
        assert_eq!(it.len(), 125);
        it.next();
        assert_eq!(it.len(), 124);
    }

    #[test]
    fn box_difference_partitions() {
        let a = IndexBox::cube(8);
        let b = IndexBox::new(IntVect::splat(2), IntVect::splat(5));
        let parts = a.difference(&b);
        let total: i64 = parts.iter().map(|p| p.num_zones()).sum();
        assert_eq!(total, a.num_zones() - b.num_zones());
        // Disjointness
        for (i, p) in parts.iter().enumerate() {
            assert!(!p.intersects(&b));
            for q in &parts[i + 1..] {
                assert!(!p.intersects(q));
            }
        }
        // Removing nothing returns self; removing everything returns empty.
        assert_eq!(a.difference(&a.shift(IntVect::splat(50))), vec![a]);
        assert!(a.difference(&a).is_empty());
    }

    #[test]
    fn box_longest_dir() {
        let b = IndexBox::sized(IntVect::new(4, 9, 2));
        assert_eq!(b.longest_dir(), 1);
    }
}
