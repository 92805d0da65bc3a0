//! Property-based tests for the AMR framework: decomposition laws,
//! ghost-fill correctness against a naive reference, distribution balance,
//! and inter-level transfer conservation.

use exastro_amr::{
    average_down, prolong_lin, prolong_pc, BoxArray, DistStrategy, DistributionMapping, Geometry,
    IndexBox, IntVect, MultiFab,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn decomposition_partitions_any_domain(
        nx in 8i32..48,
        ny in 8i32..48,
        nz in 8i32..48,
        max_size in 8i32..32,
    ) {
        let domain = IndexBox::sized(IntVect::new(nx, ny, nz));
        let ba = BoxArray::decompose(domain, max_size, 4);
        prop_assert_eq!(ba.total_zones(), domain.num_zones());
        prop_assert!(ba.is_disjoint());
        for b in ba.iter() {
            prop_assert!(domain.contains_box(b));
            prop_assert!(b.size().max_component() <= max_size);
        }
    }

    #[test]
    fn distribution_covers_every_box_once(
        n in 16i32..64,
        nranks in 1usize..16,
        strat_idx in 0usize..3,
    ) {
        let strat = [DistStrategy::RoundRobin, DistStrategy::Knapsack, DistStrategy::Sfc][strat_idx];
        let ba = BoxArray::decompose(IndexBox::cube(n), 16, 4);
        let dm = DistributionMapping::new(&ba, nranks, strat);
        let total: usize = (0..nranks).map(|r| dm.boxes_on(r).len()).sum();
        prop_assert_eq!(total, ba.len());
        for i in 0..ba.len() {
            prop_assert!(dm.owner(i) < nranks);
        }
        // Imbalance is bounded: no rank holds more than all zones.
        prop_assert!(dm.imbalance(&ba) >= 1.0 - 1e-12);
        prop_assert!(dm.imbalance(&ba) <= nranks as f64 + 1e-12);
    }

    #[test]
    fn fill_boundary_matches_naive_reference(
        n in prop::sample::select(vec![8i32, 12, 16]),
        max_grid in prop::sample::select(vec![4i32, 8]),
        ngrow in 1i32..3,
        seed in 0u64..1000,
    ) {
        let geom = Geometry::cube(n, 1.0, true);
        let ba = BoxArray::decompose(geom.domain(), max_grid, 4);
        let mut mf = MultiFab::local(ba, 1, ngrow);
        // Deterministic pseudo-random valid data, defined globally.
        let val = |iv: IntVect| -> f64 {
            let h = (iv.x() as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((iv.y() as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
                .wrapping_add((iv.z() as u64).wrapping_mul(0x165667B19E3779F9))
                .wrapping_add(seed);
            (h >> 16) as f64 / (1u64 << 40) as f64
        };
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            for iv in vb.iter() {
                mf.fab_mut(i).set(iv, 0, val(iv));
            }
        }
        let _ = mf.fill_boundary(&geom);
        // Naive reference: every ghost zone must hold the periodic image's
        // global value.
        let nn = geom.domain().size();
        for i in 0..mf.nfabs() {
            let vb = mf.valid_box(i);
            let gb = mf.grown_box(i);
            for iv in gb.iter() {
                if vb.contains(iv) {
                    continue;
                }
                let wrapped = IntVect::new(
                    iv.x().rem_euclid(nn.x()),
                    iv.y().rem_euclid(nn.y()),
                    iv.z().rem_euclid(nn.z()),
                );
                prop_assert_eq!(mf.fab(i).get(iv, 0), val(wrapped));
            }
        }
    }

    #[test]
    fn prolong_restrict_conserves_any_field(
        seed in 0u64..1000,
        ratio in prop::sample::select(vec![2i32, 4]),
    ) {
        let geom = Geometry::cube(8, 1.0, true);
        let cba = BoxArray::decompose(geom.domain(), 4, 4);
        let mut coarse = MultiFab::local(cba.clone(), 1, 1);
        let mut s = seed;
        for i in 0..coarse.nfabs() {
            let vb = coarse.valid_box(i);
            for iv in vb.iter() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                coarse.fab_mut(i).set(iv, 0, ((s >> 33) as f64 / 1e9) - 4.0);
            }
        }
        let _ = coarse.fill_boundary(&geom);
        let fba = cba.refine(ratio);
        for prolong_kind in 0..2 {
            let mut fine = MultiFab::local(fba.clone(), 1, 0);
            if prolong_kind == 0 {
                prolong_pc(&coarse, &mut fine, ratio);
            } else {
                prolong_lin(&coarse, &mut fine, ratio);
            }
            // Conservation: fine sum = ratio³ × coarse sum.
            let cs = coarse.sum(0);
            let fs = fine.sum(0);
            prop_assert!((fs - (ratio as f64).powi(3) * cs).abs() < 1e-8 * cs.abs().max(1.0));
            // Restriction inverts prolongation on the coarse data.
            let mut back = coarse.clone();
            back.set_val(0, 0.0);
            average_down(&fine, &mut back, ratio);
            for i in 0..back.nfabs() {
                let vb = back.valid_box(i);
                for iv in vb.iter() {
                    prop_assert!((back.fab(i).get(iv, 0) - coarse.fab(i).get(iv, 0)).abs() < 1e-11);
                }
            }
        }
    }

    #[test]
    fn saxpy_linear_combination_laws(a in -3.0f64..3.0, seed in 0u64..100) {
        let ba = BoxArray::decompose(IndexBox::cube(8), 4, 4);
        let mut x = MultiFab::local(ba.clone(), 1, 0);
        let mut y = MultiFab::local(ba, 1, 0);
        let mut s = seed;
        for i in 0..x.nfabs() {
            let vb = x.valid_box(i);
            for iv in vb.iter() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                x.fab_mut(i).set(iv, 0, ((s >> 40) as f64) / 1e6);
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                y.fab_mut(i).set(iv, 0, ((s >> 40) as f64) / 1e6 - 8.0);
            }
        }
        let sum_x = x.sum(0);
        let sum_y = y.sum(0);
        let mut z = x.clone();
        z.saxpy(a, &y);
        prop_assert!((z.sum(0) - (sum_x + a * sum_y)).abs() < 1e-7 * (sum_x.abs() + sum_y.abs() + 1.0));
        // Norm positivity and scaling sanity.
        prop_assert!(z.norm_l2(0) >= 0.0);
        prop_assert!(z.norm_inf(0) <= z.norm_l1(0) + 1e-12);
    }

    #[test]
    fn sfc_balance_is_tight_for_uniform_boxes(
        pow in 1u32..3,
        nranks in 1usize..9,
    ) {
        // 8^pow uniform boxes: SFC splits contiguous equal-weight chunks,
        // so the imbalance is bounded by ceil/floor of boxes-per-rank.
        let side = 16 * (1 << pow) / 2;
        let ba = BoxArray::decompose(IndexBox::cube(side), 8, 8);
        let dm = DistributionMapping::new(&ba, nranks, DistStrategy::Sfc);
        let per = ba.len() as f64 / nranks as f64;
        let max_boxes = (0..nranks).map(|r| dm.boxes_on(r).len()).max().unwrap();
        prop_assert!(max_boxes as f64 <= per.ceil() + 1e-12);
    }
}

// ---------------------------------------------------------------------------
// Two-phase exchange vs bulk-synchronous fill on adversarial topologies.
// ---------------------------------------------------------------------------

mod two_phase_props {
    use exastro_amr::{
        BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, IntVect,
        MultiFab,
    };
    use proptest::prelude::*;

    /// Deterministic global field so any zone's expected value is known.
    fn val(iv: IntVect, c: usize, seed: u64) -> f64 {
        let h = (iv.x() as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((iv.y() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add((iv.z() as u64).wrapping_mul(0x1656_67B1_9E37_79F9))
            .wrapping_add((c as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
            .wrapping_add(seed);
        (h >> 16) as f64 / (1u64 << 40) as f64 - 0.5
    }

    /// The adversarial box layouts: the shapes most likely to break a
    /// two-phase exchange (self-wrap, long chains, boxes with no
    /// neighbours at all).
    fn topology(kind: usize) -> (Vec<IndexBox>, IndexBox) {
        match kind {
            // A chain of thin slabs along x: every box talks only to its
            // two neighbours, maximizing exchange fan-in order sensitivity.
            0 => {
                let boxes = (0..6)
                    .map(|i| {
                        IndexBox::new(IntVect::new(4 * i, 0, 0), IntVect::new(4 * i + 3, 7, 7))
                    })
                    .collect();
                (
                    boxes,
                    IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(23, 7, 7)),
                )
            }
            // Isolated boxes: gaps wider than any ghost region, so the
            // exchange plan must be empty between them.
            1 => {
                let boxes = vec![
                    IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(5, 5, 5)),
                    IndexBox::new(IntVect::new(12, 0, 0), IntVect::new(17, 5, 5)),
                    IndexBox::new(IntVect::new(0, 12, 0), IntVect::new(5, 17, 5)),
                ];
                (
                    boxes,
                    IndexBox::new(IntVect::new(0, 0, 0), IntVect::new(17, 17, 5)),
                )
            }
            // A single box: with periodic wrap every ghost is its own image.
            2 => {
                let b = IndexBox::cube(8);
                (vec![b], b)
            }
            // A 2x2x2 block tiling, the plain case as control.
            _ => {
                let domain = IndexBox::cube(12);
                (
                    BoxArray::decompose(domain, 6, 2).iter().copied().collect(),
                    domain,
                )
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn two_phase_exchange_is_bit_identical_to_bulk(
            kind in 0usize..4,
            ngrow in 1i32..3,
            ncomp in 1usize..3,
            periodic_bit in 0u8..2,
            nranks in 1usize..4,
            seed in 0u64..10_000,
        ) {
            let periodic = periodic_bit == 1;
            let (boxes, domain) = topology(kind);
            let ba = BoxArray::from_boxes(boxes);
            let geom = Geometry::new(
                domain,
                [0.0; 3],
                [1.0; 3],
                [periodic; 3],
                CoordSys::Cartesian,
            );
            let dm = DistributionMapping::new(&ba, nranks, DistStrategy::Sfc);
            let mut bulk = MultiFab::new(ba, dm, ncomp, ngrow);
            // Sentinel ghosts + deterministic valid data, identically in
            // both copies (unreached ghosts must match too).
            for i in 0..bulk.nfabs() {
                let gb = bulk.grown_box(i);
                let vb = bulk.valid_box(i);
                for iv in gb.iter() {
                    for c in 0..ncomp {
                        let v = if vb.contains(iv) { val(iv, c, seed) } else { -7777.0 };
                        bulk.fab_mut(i).set(iv, c, v);
                    }
                }
            }
            let mut two_phase = bulk.clone();

            let bulk_trace = bulk.fill_boundary(&geom);
            let pending = two_phase.post_fill_boundary(&geom);
            let split_trace = pending.wait(&mut two_phase);

            for i in 0..bulk.nfabs() {
                let gb = bulk.grown_box(i);
                for iv in gb.iter() {
                    for c in 0..ncomp {
                        let a = bulk.fab(i).get(iv, c);
                        let b = two_phase.fab(i).get(iv, c);
                        prop_assert!(
                            a.to_bits() == b.to_bits(),
                            "divergence: topo {} fab {} {:?} comp {} ({} vs {})",
                            kind, i, iv, c, a, b
                        );
                    }
                }
            }
            // The priced ledger must be identical too: same messages,
            // same bytes, regardless of which API produced it.
            prop_assert_eq!(bulk_trace.network_bytes(), split_trace.network_bytes());
            prop_assert_eq!(bulk_trace.local_bytes, split_trace.local_bytes);
            prop_assert_eq!(bulk_trace.messages.len(), split_trace.messages.len());
            // Isolated boxes must exchange nothing box-to-box.
            if kind == 1 && !periodic {
                prop_assert_eq!(split_trace.local_bytes, 0);
                prop_assert_eq!(split_trace.network_bytes(), 0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The stencil footprint: a fill of `valid.grow_vec(ghosts)` against the full
// fill, through the one-shot path and through the halo loop.
// ---------------------------------------------------------------------------

mod footprint_props {
    use exastro_amr::{
        BcKind, BcSpec, BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, HaloLoop,
        IndexBox, IntVect, MultiFab, SPACEDIM,
    };
    use proptest::prelude::*;

    /// What every ghost zone holds before a fill.
    const SENTINEL: f64 = -7e77;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn a_footprint_fill_is_the_full_fill_inside_and_nothing_outside(
            size in (3i32..8, 3i32..8, 3i32..8),
            // Boxes 1 to 3 zones wide.
            max_grid in 1i32..4,
            ngrow in 1i32..4,
            // Ghost depth per dimension, folded into 0..=ngrow below.
            depth in (0i32..4, 0i32..4, 0i32..4),
            // Per dimension: 0 periodic, 1 outflow, 2 reflect.
            sides in (0u8..3, 0u8..3, 0u8..3),
            nranks in 1usize..4,
        ) {
            let sides = [sides.0, sides.1, sides.2];
            let ghosts = IntVect::new(depth.0.min(ngrow), depth.1.min(ngrow), depth.2.min(ngrow));
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
                bc.reflect_odd.push((d, d));
            }
            let ba = BoxArray::decompose(domain, max_grid, 1);
            let dm = DistributionMapping::new(&ba, nranks, DistStrategy::RoundRobin);
            let mut start = MultiFab::new(ba, dm, SPACEDIM, ngrow);
            start.set_val_all(SENTINEL);
            for i in 0..start.nfabs() {
                for iv in start.valid_box(i).iter() {
                    for c in 0..SPACEDIM {
                        let v = (1 + c) as f64 + ((iv.x() * 31 + iv.y() * 17 + iv.z() * 7) as f64).sin();
                        start.fab_mut(i).set(iv, c, v);
                    }
                }
            }

            let mut full = start.clone();
            let _ = full.fill_boundary(&geom);
            full.fill_physical_bc(&geom, &bc);

            let mut one_shot = start.clone();
            let one_shot_trace = one_shot.fill_boundary_within(&geom, ghosts);
            one_shot.fill_physical_bc_within(&geom, &bc, ghosts);

            let mut looped = start.clone();
            let looped_trace = HaloLoop::plan(&looped, &geom, ghosts)
                .run(&mut looped, &bc, "test.footprint", |_, _| {}, |_, _| {}, |_, _| {});
            prop_assert_eq!(&looped_trace, &one_shot_trace);
            if ghosts == IntVect::splat(ngrow) {
                prop_assert_eq!(&looped_trace, &start.clone().fill_boundary(&geom));
            }

            for i in 0..start.nfabs() {
                let footprint = start.valid_box(i).grow_vec(ghosts);
                for iv in start.grown_box(i).iter() {
                    for c in 0..SPACEDIM {
                        let expect = if footprint.contains(iv) {
                            full.fab(i).get(iv, c)
                        } else {
                            SENTINEL
                        };
                        for (path, got) in [("one-shot", &one_shot), ("halo loop", &looped)] {
                            let got = got.fab(i).get(iv, c);
                            prop_assert!(
                                got.to_bits() == expect.to_bits(),
                                "{}: ghosts {:?} of {} fab {} zone {:?} comp {}: {} vs {}",
                                path, ghosts, ngrow, i, iv, c, got, expect
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The one overlap search: `BoxIndex` against a linear scan, and the ghost
// copies `for_each_ghost_copy` yields against the all-pairs loop that
// planned the exchange before the index.
// ---------------------------------------------------------------------------

mod overlap_props {
    use exastro_amr::{
        for_each_ghost_copy, BoxArray, BoxIndex, CoordSys, Geometry, IndexBox, IntVect,
    };
    use proptest::prelude::*;

    type Copy = (usize, usize, IndexBox, IntVect);

    /// The exchange's copies by brute force: every destination, every
    /// source, every periodic image.
    fn all_pairs_copies(ba: &BoxArray, geom: &Geometry, ghosts: IntVect) -> Vec<Copy> {
        let mut copies = Vec::new();
        if ghosts != IntVect::zero() {
            let shifts = geom.periodic_shifts();
            for dst in 0..ba.len() {
                let vbox = ba.get(dst);
                let gbox = vbox.grow_vec(ghosts);
                for src in 0..ba.len() {
                    let svb = ba.get(src);
                    for &shift in &shifts {
                        if src == dst && shift == IntVect::zero() {
                            continue;
                        }
                        let isect = gbox.intersection(&svb.shift(shift));
                        if isect.is_empty() {
                            continue;
                        }
                        for region in isect.difference(&vbox) {
                            copies.push((src, dst, region, shift));
                        }
                    }
                }
            }
        }
        copies
    }

    /// Box starts along one axis from `lo`, one per width.
    fn starts(lo: i32, widths: &[i32]) -> Vec<i32> {
        widths
            .iter()
            .scan(lo, |at, &w| {
                let s = *at;
                *at += w;
                Some(s)
            })
            .collect()
    }

    /// A disjoint layout and its domain, with low corner `lo`:
    /// 0 — ragged x-slabs cut in y, every other slab cut in reverse, listed
    ///     back to front;
    /// 1 — a decomposition into boxes 1–3 zones wide, narrower than most
    ///     footprints;
    /// 2 — sparse: a box of each width in its own 16³ cell of a 48³
    ///     domain, pushed to the cell's low or high side, far apart the way
    ///     a fine level's boxes are.
    fn layout(
        kind: usize,
        wx: &[i32],
        wy: &[i32],
        nz: i32,
        lo: IntVect,
        seed: u64,
    ) -> (BoxArray, IndexBox) {
        let nx: i32 = wx.iter().sum();
        let ny: i32 = wy.iter().sum();
        match kind {
            0 => {
                let mut boxes = Vec::new();
                for (i, (&x0, &w)) in starts(lo.x(), wx).iter().zip(wx).enumerate() {
                    let mut wyi = wy.to_vec();
                    if i % 2 == 1 {
                        wyi.reverse();
                    }
                    for (&y0, &h) in starts(lo.y(), &wyi).iter().zip(&wyi) {
                        boxes.push(IndexBox::new(
                            IntVect::new(x0, y0, lo.z()),
                            IntVect::new(x0 + w - 1, y0 + h - 1, lo.z() + nz - 1),
                        ));
                    }
                }
                boxes.reverse();
                let domain = IndexBox::sized(IntVect::new(nx, ny, nz)).shift(lo);
                (BoxArray::from_boxes(boxes), domain)
            }
            1 => {
                let domain = IndexBox::sized(IntVect::new(nx, ny, nz)).shift(lo);
                let max_grid = 1 + (seed % 3) as i32;
                (BoxArray::decompose(domain, max_grid, 1), domain)
            }
            _ => {
                let mut cells: Vec<i32> = (0..27).collect();
                let mut h = seed;
                let mut boxes = Vec::new();
                for (n, &w) in wx.iter().enumerate() {
                    h = h
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let cell = cells.remove((h >> 33) as usize % cells.len());
                    let corner = IntVect::new(cell % 3, cell / 3 % 3, cell / 9) * 16;
                    let offset = if (h >> 20) & 1 == 0 { 0 } else { 16 - w };
                    let size = IntVect::new(w, wy[n % wy.len()], nz.min(6));
                    let blo = lo + corner + IntVect::splat(offset);
                    boxes.push(IndexBox::new(blo, blo + size - IntVect::unit()));
                }
                (BoxArray::from_boxes(boxes), IndexBox::cube(48).shift(lo))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn the_indexed_search_finds_what_the_all_pairs_loop_finds(
            kind in 0usize..3,
            wx in prop::collection::vec(1i32..7, 1..5),
            wy in prop::collection::vec(1i32..7, 1..4),
            nz in 1i32..6,
            lo in (-9i32..3, -9i32..3, -9i32..3),
            periodic in 0u8..8,
            ngrow in 1i32..4,
            depth in (0i32..4, 0i32..4, 0i32..4),
            seed in 0u64..1_000_000,
        ) {
            let (ba, domain) = layout(kind, &wx, &wy, nz, IntVect::new(lo.0, lo.1, lo.2), seed);
            prop_assert!(ba.is_disjoint());
            let periodic = [periodic & 1 != 0, periodic & 2 != 0, periodic & 4 != 0];
            let geom = Geometry::new(domain, [0.0; 3], [1.0; 3], periodic, CoordSys::Cartesian);
            let ghosts = IntVect::new(depth.0.min(ngrow), depth.1.min(ngrow), depth.2.min(ngrow));

            let mut copies = Vec::new();
            for_each_ghost_copy(&ba, &geom, ghosts, |src, dst, region, shift| {
                copies.push((src, dst, region, shift))
            });
            prop_assert_eq!(copies, all_pairs_copies(&ba, &geom, ghosts));

            let index = BoxIndex::new(&ba);
            let linear = |region: &IndexBox| -> Vec<usize> {
                (0..ba.len()).filter(|&i| ba.get(i).intersects(region)).collect()
            };
            let mut probes = vec![domain, domain.grow(ngrow), IndexBox::empty()];
            for b in ba.iter() {
                for shift in geom.periodic_shifts() {
                    probes.push(b.grow_vec(ghosts).shift(shift));
                }
            }
            for probe in &probes {
                let (got, want) = (index.intersecting(probe), linear(probe));
                prop_assert!(got == want, "probe {:?}: {:?} vs {:?}", probe, got, want);
            }
        }
    }
}
