//! Inter-level transfer operators: conservative prolongation (coarse → fine)
//! and restriction / average-down (fine → coarse).

use crate::boxarray::BoxIndex;
use crate::fab::for_each_row;
use crate::multifab::MultiFab;
use exastro_parallel::{IntVect, Real};

/// Piecewise-constant injection: every fine zone gets its coarse parent's
/// value. Exactly conservative and positivity-preserving.
pub fn prolong_pc(coarse: &MultiFab, fine: &mut MultiFab, ratio: i32) {
    assert_eq!(coarse.ncomp(), fine.ncomp());
    let ncomp = fine.ncomp();
    let index = BoxIndex::new(coarse.box_array());
    for fi in 0..fine.nfabs() {
        let fvb = fine.valid_box(fi);
        let cvb = fvb.coarsen(ratio);
        for ci in index.intersecting(&cvb) {
            let isect = cvb.intersection(&coarse.valid_box(ci));
            for civ in isect.iter() {
                let fregion = crate::fine_zones_of(civ, ratio).intersection(&fvb);
                for c in 0..ncomp {
                    let v = coarse.fab(ci).get(civ, c);
                    for fiv in fregion.iter() {
                        fine.fab_mut(fi).set(fiv, c, v);
                    }
                }
            }
        }
    }
}

/// Monotonized-central slope used by the linear prolongation.
#[inline]
fn mc_slope(vm: Real, v0: Real, vp: Real) -> Real {
    let dc = 0.5 * (vp - vm);
    let dl = 2.0 * (v0 - vm);
    let dr = 2.0 * (vp - v0);
    if dl * dr <= 0.0 {
        0.0
    } else {
        dc.abs().min(dl.abs()).min(dr.abs()) * dc.signum()
    }
}

/// Piecewise-linear conservative prolongation with limited slopes, the
/// default AMReX `cell_cons_interp`. The coarse multifab must have at least
/// one ghost zone filled so slopes can be computed at patch edges.
pub fn prolong_lin(coarse: &MultiFab, fine: &mut MultiFab, ratio: i32) {
    assert_eq!(coarse.ncomp(), fine.ncomp());
    assert!(
        coarse.ngrow() >= 1,
        "linear prolongation needs coarse ghosts"
    );
    let ncomp = fine.ncomp();
    let r = ratio as Real;
    let index = BoxIndex::new(coarse.box_array());
    for fi in 0..fine.nfabs() {
        let fvb = fine.valid_box(fi);
        let cvb = fvb.coarsen(ratio);
        for ci in index.intersecting(&cvb) {
            let isect = cvb.intersection(&coarse.valid_box(ci));
            let cfab = coarse.fab(ci);
            for civ in isect.iter() {
                let fregion = crate::fine_zones_of(civ, ratio).intersection(&fvb);
                for c in 0..ncomp {
                    let v0 = cfab.get(civ, c);
                    let mut slope = [0.0; 3];
                    for d in 0..3 {
                        let e = IntVect::dim_vec(d);
                        slope[d] = mc_slope(cfab.get(civ - e, c), v0, cfab.get(civ + e, c));
                    }
                    for fiv in fregion.iter() {
                        // Offset of the fine zone centre within the coarse
                        // zone, in coarse-zone units, in (-1/2, 1/2).
                        let mut v = v0;
                        for d in 0..3 {
                            let frac = ((fiv[d] - civ[d] * ratio) as Real + 0.5) / r - 0.5;
                            v += slope[d] * frac;
                        }
                        fine.fab_mut(fi).set(fiv, c, v);
                    }
                }
            }
        }
    }
}

/// Volume-weighted average of fine zones onto their coarse parents
/// (restriction). Exactly undoes both prolongations for conserved fields.
pub fn average_down(fine: &MultiFab, coarse: &mut MultiFab, ratio: i32) {
    assert_eq!(coarse.ncomp(), fine.ncomp());
    let ncomp = fine.ncomp();
    let inv_vol = 1.0 / (ratio as Real).powi(3);
    let index = BoxIndex::new(fine.box_array());
    for ci in 0..coarse.nfabs() {
        let cvb = coarse.valid_box(ci);
        let cv = coarse.fab_mut(ci).array_mut();
        for fi in index.intersecting(&cvb.refine(ratio)) {
            let fvb = fine.valid_box(fi);
            let fv = fine.fab(fi).array();
            for civ in cvb.intersection(&fvb.coarsen(ratio)).iter() {
                let fregion = crate::fine_zones_of(civ, ratio).intersection(&fvb);
                let cz = cv.zone(civ.x(), civ.y(), civ.z());
                for c in 0..ncomp {
                    let mut acc = 0.0;
                    for_each_row(fregion, |iv, n| {
                        let z = fv.zone(iv.x(), iv.y(), iv.z());
                        for x in 0..n {
                            acc += fv.at_zone(z + x, c);
                        }
                    });
                    cv.set_zone(cz, c, acc * inv_vol);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxarray::BoxArray;
    use crate::geometry::Geometry;
    use exastro_parallel::IndexBox;

    fn setup(ratio: i32) -> (MultiFab, MultiFab, Geometry) {
        let cgeom = Geometry::cube(8, 1.0, true);
        let cba = BoxArray::decompose(cgeom.domain(), 8, 8);
        let coarse = MultiFab::local(cba.clone(), 1, 1);
        let fba = cba.refine(ratio);
        let fine = MultiFab::local(fba, 1, 0);
        (coarse, fine, cgeom)
    }

    #[test]
    fn pc_prolong_then_average_down_roundtrips() {
        let (mut coarse, mut fine, _g) = setup(2);
        for iv in IndexBox::cube(8).iter() {
            coarse
                .fab_mut(0)
                .set(iv, 0, (iv.x() * 3 + iv.y() - iv.z()) as Real);
        }
        prolong_pc(&coarse, &mut fine, 2);
        let mut back = coarse.clone();
        back.set_val(0, 0.0);
        average_down(&fine, &mut back, 2);
        for iv in IndexBox::cube(8).iter() {
            assert_eq!(back.fab(0).get(iv, 0), coarse.fab(0).get(iv, 0));
        }
    }

    #[test]
    fn lin_prolong_is_conservative() {
        let (mut coarse, mut fine, geom) = setup(4);
        for iv in IndexBox::cube(8).iter() {
            let v = ((iv.x() as Real).sin() + (iv.y() as Real * 0.7).cos()) * 2.0;
            coarse.fab_mut(0).set(iv, 0, v);
        }
        let _ = coarse.fill_boundary(&geom);
        prolong_lin(&coarse, &mut fine, 4);
        // Conservation: sum over fine = ratio^3 * sum over coarse.
        let cs = coarse.sum(0);
        let fs = fine.sum(0);
        assert!(
            (fs - 64.0 * cs).abs() < 1e-9 * cs.abs().max(1.0),
            "{fs} vs {}",
            64.0 * cs
        );
        // And average_down recovers the coarse data exactly.
        let mut back = coarse.clone();
        back.set_val(0, 0.0);
        average_down(&fine, &mut back, 4);
        for iv in IndexBox::cube(8).iter() {
            assert!((back.fab(0).get(iv, 0) - coarse.fab(0).get(iv, 0)).abs() < 1e-12);
        }
    }

    #[test]
    fn lin_prolong_reproduces_linear_fields_exactly() {
        let (mut coarse, mut fine, geom) = setup(2);
        // A globally linear field should be reproduced exactly (away from
        // limiter activation, which a linear field never triggers).
        for iv in IndexBox::cube(8).grow(1).iter() {
            coarse
                .fab_mut(0)
                .set(iv, 0, 2.0 * iv.x() as Real + 0.5 * iv.y() as Real);
        }
        let _ = geom;
        prolong_lin(&coarse, &mut fine, 2);
        // Fine zone (i,j,k) centre sits at coarse coordinate (i+0.5)/2 etc.
        for fiv in IndexBox::cube(16).iter() {
            let xc = (fiv.x() as Real + 0.5) / 2.0 - 0.5;
            let yc = (fiv.y() as Real + 0.5) / 2.0 - 0.5;
            let expect = 2.0 * xc + 0.5 * yc;
            let got = fine.fab(0).get(fiv, 0);
            assert!((got - expect).abs() < 1e-12, "{fiv:?}: {got} vs {expect}");
        }
    }

    #[test]
    fn limiter_preserves_monotonicity_at_jumps() {
        let (mut coarse, mut fine, geom) = setup(2);
        // Step function in x.
        for iv in IndexBox::cube(8).grow(1).iter() {
            let v = if iv.x() < 4 { 1.0 } else { 10.0 };
            coarse.fab_mut(0).set(iv, 0, v);
        }
        let _ = geom;
        prolong_lin(&coarse, &mut fine, 2);
        let (mn, mx) = (fine.min(0), fine.max(0));
        assert!(
            mn >= 1.0 - 1e-12 && mx <= 10.0 + 1e-12,
            "overshoot: {mn} {mx}"
        );
    }
}
