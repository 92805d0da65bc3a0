//! The V-cycle as it was before the levels got exchange plans and cursor
//! kernels, kept as the oracle: serial, one `IntVect` at a time through
//! `fab.get/set`, a fresh one-shot `fill_boundary` before every colour and
//! residual, a fresh scratch multifab for every transfer. The tests hold
//! [`Multigrid::solve`] to it bit for bit — φ, the residuals, the cycle
//! count and every level's ledger.

use super::*;

/// Ghost zones of `f` for the homogeneous operator: periodic exchange plus
/// reflection (Neumann) or negation (Dirichlet) at the other faces.
fn fill_ghosts(mg: &Multigrid, f: &mut MultiFab, geom: &Geometry, ledger: &mut LevelComm) {
    let trace = f.fill_boundary(geom);
    ledger.exchanges += 1;
    ledger.trace.merge(&trace);
    let domain = geom.domain();
    for i in 0..f.nfabs() {
        let gb = f.grown_box(i);
        for d in 0..3 {
            let sign = match mg.bc[d] {
                MgBc::Periodic => continue,
                MgBc::Dirichlet => -1.0,
                MgBc::Neumann => 1.0,
            };
            let mut faces = Vec::new();
            if gb.lo()[d] < domain.lo()[d] {
                let mut hi = gb.hi();
                hi[d] = domain.lo()[d] - 1;
                faces.push((IndexBox::new(gb.lo(), hi), 2 * domain.lo()[d] - 1));
            }
            if gb.hi()[d] > domain.hi()[d] {
                let mut lo = gb.lo();
                lo[d] = domain.hi()[d] + 1;
                faces.push((IndexBox::new(lo, gb.hi()), 2 * domain.hi()[d] + 1));
            }
            for (region, mirror) in faces {
                for iv in region.iter() {
                    let mut src = iv;
                    src[d] = mirror - iv[d];
                    for t in 0..3 {
                        src[t] = src[t].clamp(gb.lo()[t], gb.hi()[t]);
                    }
                    let v = f.fab(i).get(src, 0) * sign;
                    f.fab_mut(i).set(iv, 0, v);
                }
            }
        }
    }
}

/// Off-diagonal weights `β/dx_d²` and the diagonal, computed per call.
fn stencil(mg: &Multigrid, geom: &Geometry) -> ([Real; 3], Real) {
    let dx = geom.dx();
    let bx2 = [
        mg.beta / (dx[0] * dx[0]),
        mg.beta / (dx[1] * dx[1]),
        mg.beta / (dx[2] * dx[2]),
    ];
    (bx2, mg.alpha - 2.0 * (bx2[0] + bx2[1] + bx2[2]))
}

fn smooth(mg: &Multigrid, lev: &mut MgLevel, ledger: &mut LevelComm) {
    let (bx2, diag) = stencil(mg, &lev.geom);
    for color in 0..2 {
        fill_ghosts(mg, &mut lev.phi, &lev.geom, ledger);
        for i in 0..lev.phi.nfabs() {
            let vb = lev.phi.valid_box(i);
            let rhs_fab = lev.rhs.fab(i);
            let fab = lev.phi.fab_mut(i);
            for iv in vb.iter() {
                if (iv.sum() & 1) as usize != color {
                    continue;
                }
                let mut off = 0.0;
                for d in 0..3 {
                    let e = IntVect::dim_vec(d);
                    off += bx2[d] * (fab.get(iv + e, 0) + fab.get(iv - e, 0));
                }
                let v = (rhs_fab.get(iv, 0) - off) / diag;
                fab.set(iv, 0, v);
            }
        }
    }
    ledger.sweeps += 1;
}

fn residual(mg: &Multigrid, lev: &mut MgLevel, ledger: &mut LevelComm) -> Real {
    let (bx2, diag) = stencil(mg, &lev.geom);
    fill_ghosts(mg, &mut lev.phi, &lev.geom, ledger);
    let mut rmax: Real = 0.0;
    for i in 0..lev.phi.nfabs() {
        for iv in lev.phi.valid_box(i).iter() {
            let fab = lev.phi.fab(i);
            let mut lap = diag * fab.get(iv, 0);
            for d in 0..3 {
                let e = IntVect::dim_vec(d);
                lap += bx2[d] * (fab.get(iv + e, 0) + fab.get(iv - e, 0));
            }
            let r = lev.rhs.fab(i).get(iv, 0) - lap;
            lev.res.fab_mut(i).set(iv, 0, r);
            rmax = rmax.max(r.abs());
        }
    }
    rmax
}

/// `average_down` as it was, a zone at a time.
fn restrict(fine: &MultiFab, coarse: &mut MultiFab) {
    for ci in 0..coarse.nfabs() {
        let cvb = coarse.valid_box(ci);
        for fi in 0..fine.nfabs() {
            let fvb = fine.valid_box(fi);
            for civ in cvb.intersection(&fvb.coarsen(2)).iter() {
                let mut acc = 0.0;
                for fiv in exastro_amr::fine_zones_of(civ, 2).intersection(&fvb).iter() {
                    acc += fine.fab(fi).get(fiv, 0);
                }
                coarse.fab_mut(ci).set(civ, 0, acc * 0.125);
            }
        }
    }
}

fn vcycle(mg: &Multigrid, levels: &mut [MgLevel], l: usize, stats: &mut MgStats) {
    if l == levels.len() - 1 {
        for _ in 0..mg.opts.nu_bottom {
            smooth(mg, &mut levels[l], &mut stats.levels[l]);
        }
        return;
    }
    for _ in 0..NU_PRE {
        smooth(mg, &mut levels[l], &mut stats.levels[l]);
    }
    residual(mg, &mut levels[l], &mut stats.levels[l]);
    {
        let (fine, coarse) = levels.split_at_mut(l + 1);
        let (f, c) = (&fine[l], &mut coarse[0]);
        c.phi.set_val_all(0.0);
        let cba = f.res.box_array().coarsen(2);
        let mut tmp = MultiFab::new(cba, f.res.dist_map().clone(), 1, 0);
        restrict(&f.res, &mut tmp);
        let trace = c.rhs.copy_from_other_ba(&tmp, 0, 1);
        stats.levels[l + 1].trace.merge(&trace);
        stats.levels[l + 1].exchanges += 1;
    }
    vcycle(mg, levels, l + 1, stats);
    {
        let (fine, coarse) = levels.split_at_mut(l + 1);
        let (f, c) = (&mut fine[l], &coarse[0]);
        let cba = f.phi.box_array().coarsen(2);
        let mut tmp = MultiFab::new(cba, f.phi.dist_map().clone(), 1, 0);
        let trace = tmp.copy_from_other_ba(&c.phi, 0, 1);
        stats.levels[l].trace.merge(&trace);
        for i in 0..f.phi.nfabs() {
            for iv in f.phi.valid_box(i).iter() {
                let corr = tmp.fab(i).get(iv.coarsen(IntVect::splat(2)), 0);
                let v = f.phi.fab(i).get(iv, 0) + corr;
                f.phi.fab_mut(i).set(iv, 0, v);
            }
        }
    }
    for _ in 0..NU_POST {
        smooth(mg, &mut levels[l], &mut stats.levels[l]);
    }
}

/// [`Multigrid::solve`] as it was. The level ladder (layouts and
/// geometries) is the solver's own; nothing else of it is used.
pub(super) fn solve(
    mg: &Multigrid,
    phi: &mut MultiFab,
    rhs: &MultiFab,
    geom: &Geometry,
) -> MgStats {
    let mut levels = mg.build_levels(geom, phi.box_array(), phi.dist_map());
    let mut stats = MgStats {
        levels: levels
            .iter()
            .map(|l| LevelComm {
                zones: l.phi.box_array().total_zones(),
                boxes: l.phi.box_array().len(),
                ..LevelComm::default()
            })
            .collect(),
        ..MgStats::default()
    };
    for i in 0..phi.nfabs() {
        let data = phi.fab(i).data().to_vec();
        levels[0].phi.fab_mut(i).data_mut().copy_from_slice(&data);
    }
    levels[0].rhs.copy_from(rhs);
    let target = mg.opts.tol_rel * rhs.norm_inf(0);
    stats.allreduces += 1;
    stats.res0 = residual(mg, &mut levels[0], &mut stats.levels[0]);
    stats.allreduces += 1;
    let mut res = stats.res0;
    while res > target.max(1e-300) && stats.cycles < mg.opts.max_cycles {
        vcycle(mg, &mut levels, 0, &mut stats);
        stats.cycles += 1;
        res = residual(mg, &mut levels[0], &mut stats.levels[0]);
        stats.allreduces += 1;
        if !res.is_finite() {
            break;
        }
    }
    stats.res = res;
    stats.converged = res <= target.max(1e-300);
    phi.copy_from(&levels[0].phi);
    stats
}
