//! The inversion `T(ρ, e)` as it was before an EOS evaluation split into a
//! density and a temperature stage, kept as the oracle that
//! `Eos::t_from_e_lanes` is held to bit for bit and evaluation for
//! evaluation: every Newton and bisection iterate is a full
//! [`Eos::eval_rt`]. The body is the old solver's, verbatim.

use exastro_microphysics::{Composition, Eos, EosResult};

/// Newton on the first `live` of `W` lanes, then bisection for a lane 50
/// steps leave unconverged, each iterate one `eval_rt`.
pub fn t_from_e_lanes<E: Eos + ?Sized, const W: usize>(
    eos: &E,
    rho: [f64; W],
    e: [f64; W],
    comp: &[Composition; W],
    t_guess: [f64; W],
    live: usize,
) -> ([f64; W], [EosResult; W]) {
    let mut t = t_guess.map(|t| t.max(1e-30));
    let mut r = [EosResult::default(); W];
    let mut newton: [bool; W] = std::array::from_fn(|l| l < live);
    for _ in 0..50 {
        let iterating = newton;
        if iterating == [false; W] {
            break;
        }
        for l in (0..W).filter(|&l| iterating[l]) {
            let rl = eos.eval_rt(rho[l], t[l], &comp[l]);
            let f = rl.e - e[l];
            if f.abs() <= 1e-10 * e[l].abs().max(1e-30) {
                (r[l], newton[l]) = (rl, false);
                continue;
            }
            let dt = -f / rl.cv.max(1e-30);
            let tn = t[l] + dt;
            if tn > 0.2 * t[l] && tn < 5.0 * t[l] && tn.is_finite() {
                t[l] = tn;
            } else {
                t[l] = if dt > 0.0 { t[l] * 2.0 } else { t[l] * 0.5 };
            }
            if (dt / t[l]).abs() < 1e-12 {
                (r[l], newton[l]) = (eos.eval_rt(rho[l], t[l], &comp[l]), false);
            }
        }
    }
    // Bisection over a wide (log-space) bracket for what Newton left.
    for l in (0..W).filter(|&l| newton[l]) {
        let (mut lo, mut hi): (f64, f64) = (1e-30, 1e12);
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if eos.eval_rt(rho[l], mid, &comp[l]).e < e[l] {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi / lo < 1.0 + 1e-14 {
                break;
            }
        }
        t[l] = (lo * hi).sqrt();
        r[l] = eos.eval_rt(rho[l], t[l], &comp[l]);
    }
    (t, r)
}
