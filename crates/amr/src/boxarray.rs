//! Domain decomposition: the [`BoxArray`].
//!
//! AMReX stores data in blocks ("boxes") rather than individual zones, so
//! work cannot be divided arbitrarily among processors: the domain is chopped
//! into boxes constrained by a maximum grid size and a blocking factor, and
//! the boxes are then distributed over ranks (§IV-A). The maximum box width
//! is the key tuning knob behind the "best case"/"worst case" envelopes of
//! Figure 2.

use exastro_parallel::{IndexBox, IntVect};
use std::collections::HashMap;

/// An ordered collection of (possibly touching, never overlapping) boxes
/// covering part of index space at one refinement level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoxArray {
    boxes: Vec<IndexBox>,
}

impl BoxArray {
    /// Build from an explicit list of boxes.
    pub fn from_boxes(boxes: Vec<IndexBox>) -> Self {
        BoxArray { boxes }
    }

    /// Decompose `domain` into boxes no wider than `max_size` per dimension,
    /// with every box width a multiple of `blocking_factor` where possible
    /// (domain edges may produce remainders if the domain itself is not a
    /// multiple).
    ///
    /// Mirrors AMReX's `maxSize` chop: boxes are split recursively along
    /// their longest dimension at a blocking-factor-aligned midpoint until
    /// all satisfy the width bound. The decomposition "tends to prefer larger
    /// boxes" exactly as the paper notes.
    pub fn decompose(domain: IndexBox, max_size: i32, blocking_factor: i32) -> Self {
        assert!(max_size >= 1 && blocking_factor >= 1);
        let mut work = vec![domain];
        let mut done = Vec::new();
        while let Some(bx) = work.pop() {
            if bx.is_empty() {
                continue;
            }
            let d = bx.longest_dir();
            if bx.length(d) <= max_size {
                done.push(bx);
                continue;
            }
            // Split at an aligned point as close to the middle as possible.
            let len = bx.length(d);
            let half = len / 2;
            let aligned = (half / blocking_factor).max(1) * blocking_factor;
            let at = bx.lo()[d] + aligned.min(len - 1);
            let (a, b) = bx.chop(d, at);
            work.push(a);
            work.push(b);
        }
        // Deterministic order: sort by (z, y, x) of the low corner.
        done.sort_by_key(|b| (b.lo().z(), b.lo().y(), b.lo().x()));
        BoxArray { boxes: done }
    }

    /// Number of boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True if there are no boxes.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The `i`-th box.
    pub fn get(&self, i: usize) -> IndexBox {
        self.boxes[i]
    }

    /// Iterate over the boxes.
    pub fn iter(&self) -> impl Iterator<Item = &IndexBox> {
        self.boxes.iter()
    }

    /// Total zones across all boxes.
    pub fn total_zones(&self) -> i64 {
        self.boxes.iter().map(|b| b.num_zones()).sum()
    }

    /// The minimal box enclosing every box in the array.
    pub fn bounding_box(&self) -> IndexBox {
        self.boxes
            .iter()
            .fold(IndexBox::empty(), |acc, b| acc.union_hull(b))
    }

    /// True if `iv` lies in some box of the array.
    pub fn contains(&self, iv: IntVect) -> bool {
        self.boxes.iter().any(|b| b.contains(iv))
    }

    /// A new array with every box refined by `ratio`.
    pub fn refine(&self, ratio: i32) -> BoxArray {
        BoxArray {
            boxes: self.boxes.iter().map(|b| b.refine(ratio)).collect(),
        }
    }

    /// A new array with every box coarsened by `ratio`.
    pub fn coarsen(&self, ratio: i32) -> BoxArray {
        BoxArray {
            boxes: self.boxes.iter().map(|b| b.coarsen(ratio)).collect(),
        }
    }

    /// Verify the invariant that boxes do not overlap (O(n²); debug tool).
    pub fn is_disjoint(&self) -> bool {
        for (i, a) in self.boxes.iter().enumerate() {
            for b in &self.boxes[i + 1..] {
                if a.intersects(b) {
                    return false;
                }
            }
        }
        true
    }
}

impl std::ops::Index<usize> for BoxArray {
    type Output = IndexBox;
    fn index(&self, i: usize) -> &IndexBox {
        &self.boxes[i]
    }
}

/// The overlap search over a [`BoxArray`]: which of its boxes does a
/// region touch? Every box goes into the hashed bins it covers, a bin being
/// one largest box wide in each dimension, so a box sits in at most eight
/// bins and the index stays linear in the number of boxes however sparse
/// the layout (a fine level's boxes can be far apart). A query visits only
/// the bins its region covers.
#[derive(Debug)]
pub struct BoxIndex<'a> {
    ba: &'a BoxArray,
    /// Bin width per dimension: the widest box's length.
    bin: IntVect,
    bins: HashMap<IntVect, Vec<usize>>,
    /// The hull of the boxes; queries are clipped to it.
    hull: IndexBox,
}

impl<'a> BoxIndex<'a> {
    /// Bin every box of `ba`.
    pub fn new(ba: &'a BoxArray) -> Self {
        let bin = ba.iter().fold(IntVect::unit(), |w, b| w.max(b.size()));
        let mut bins: HashMap<IntVect, Vec<usize>> = HashMap::new();
        for (i, b) in ba.iter().enumerate() {
            for_each_bin(bin, b, |key| bins.entry(key).or_default().push(i));
        }
        BoxIndex {
            ba,
            bin,
            bins,
            hull: ba.bounding_box(),
        }
    }

    /// Ids of the boxes intersecting `region`, ascending.
    pub fn intersecting(&self, region: &IndexBox) -> Vec<usize> {
        let mut hits = Vec::new();
        for_each_bin(self.bin, &region.intersection(&self.hull), |key| {
            if let Some(ids) = self.bins.get(&key) {
                hits.extend(ids.iter().filter(|&&i| self.ba.get(i).intersects(region)));
            }
        });
        hits.sort_unstable();
        hits.dedup();
        hits
    }
}

/// Call `f` with the key of every bin of width `bin` that `bx` covers (none
/// if it is empty).
fn for_each_bin(bin: IntVect, bx: &IndexBox, mut f: impl FnMut(IntVect)) {
    if bx.is_empty() {
        return;
    }
    let (lo, hi) = (bx.lo().coarsen(bin), bx.hi().coarsen(bin));
    for k in lo.z()..=hi.z() {
        for j in lo.y()..=hi.y() {
            for i in lo.x()..=hi.x() {
                f(IntVect::new(i, j, k));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_covers_domain_disjointly() {
        let domain = IndexBox::cube(256);
        let ba = BoxArray::decompose(domain, 64, 32);
        assert_eq!(ba.total_zones(), domain.num_zones());
        assert!(ba.is_disjoint());
        assert_eq!(ba.len(), 64); // 4^3 boxes of 64^3
        for b in ba.iter() {
            assert!(b.size().max_component() <= 64);
            assert_eq!(b.size(), IntVect::splat(64));
        }
    }

    #[test]
    fn decompose_respects_max_size_on_odd_domains() {
        let domain = IndexBox::sized(IntVect::new(96, 48, 80));
        let ba = BoxArray::decompose(domain, 32, 16);
        assert_eq!(ba.total_zones(), domain.num_zones());
        assert!(ba.is_disjoint());
        for b in ba.iter() {
            assert!(b.size().max_component() <= 32, "{b:?}");
        }
    }

    #[test]
    fn single_box_when_domain_fits() {
        let ba = BoxArray::decompose(IndexBox::cube(32), 64, 8);
        assert_eq!(ba.len(), 1);
    }

    #[test]
    fn larger_max_size_means_fewer_boxes() {
        let domain = IndexBox::cube(128);
        let n32 = BoxArray::decompose(domain, 32, 32).len();
        let n64 = BoxArray::decompose(domain, 64, 32).len();
        let n128 = BoxArray::decompose(domain, 128, 32).len();
        assert!(n32 > n64 && n64 > n128);
        assert_eq!(n128, 1);
    }

    #[test]
    fn refine_coarsen_roundtrip() {
        let ba = BoxArray::decompose(IndexBox::cube(64), 32, 16);
        assert_eq!(ba.refine(2).coarsen(2), ba);
        assert_eq!(ba.refine(2).total_zones(), ba.total_zones() * 8);
    }

    #[test]
    fn intersecting_finds_neighbors() {
        let ba = BoxArray::decompose(IndexBox::cube(64), 32, 32);
        // Grown first box overlaps itself plus neighbours.
        let probe = ba.get(0).grow(1);
        let hits = BoxIndex::new(&ba).intersecting(&probe);
        assert_eq!(hits, (0..8).collect::<Vec<_>>()); // corner of a 2x2x2 decomposition
    }

    #[test]
    fn bounding_box_and_contains() {
        let domain = IndexBox::cube(64);
        let ba = BoxArray::decompose(domain, 16, 16);
        assert_eq!(ba.bounding_box(), domain);
        assert!(ba.contains(IntVect::splat(63)));
        assert!(!ba.contains(IntVect::splat(64)));
    }
}
