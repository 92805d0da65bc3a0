//! Conserved-state layout and conversions for the compressible solver.
//!
//! The Castro state vector per zone is `(ρ, ρu, ρv, ρw, ρE, ρe, T, ρX_k)`:
//! density, momentum, total energy, internal energy (carried for
//! diagnostics/EOS calls), temperature, and partial densities for each
//! network species.

use exastro_microphysics::{Composition, Eos, Species};
use exastro_parallel::{Real, LANES};

/// Component indices of the conserved state.
#[derive(Clone, Copy, Debug)]
pub struct StateLayout {
    /// Number of species advected.
    pub nspec: usize,
}

impl StateLayout {
    /// Density ρ.
    pub const RHO: usize = 0;
    /// x-momentum ρu.
    pub const MX: usize = 1;
    /// y-momentum ρv.
    pub const MY: usize = 2;
    /// z-momentum ρw.
    pub const MZ: usize = 3;
    /// Total energy density ρE.
    pub const EDEN: usize = 4;
    /// Internal energy density ρe.
    pub const EINT: usize = 5;
    /// Temperature.
    pub const TEMP: usize = 6;
    /// First species partial density ρX₀.
    pub const FS: usize = 7;

    /// Most species a layout can carry. The per-zone kernels stage a zone's
    /// components and mass fractions in stack arrays sized from this bound.
    pub const MAX_NSPEC: usize = 16;

    /// Create a layout for `nspec` species.
    ///
    /// # Panics
    /// If `nspec` exceeds [`StateLayout::MAX_NSPEC`].
    pub fn new(nspec: usize) -> Self {
        assert!(
            nspec <= Self::MAX_NSPEC,
            "a Castro state carries at most {} species, asked for {nspec}",
            Self::MAX_NSPEC
        );
        StateLayout { nspec }
    }

    /// Total number of components.
    pub fn ncomp(&self) -> usize {
        Self::FS + self.nspec
    }

    /// Component index of species `k`.
    pub fn spec(&self, k: usize) -> usize {
        debug_assert!(k < self.nspec);
        Self::FS + k
    }

    /// Momentum component for direction `d`.
    pub fn mom(&self, d: usize) -> usize {
        Self::MX + d
    }
}

/// Primitive variables at a zone, used by the reconstruction and Riemann
/// solver.
#[derive(Clone, Copy, Debug, Default)]
pub struct Primitive {
    /// Density.
    pub rho: Real,
    /// Velocity components.
    pub vel: [Real; 3],
    /// Pressure.
    pub p: Real,
    /// Specific internal energy.
    pub e: Real,
    /// Sound speed.
    pub cs: Real,
}

impl Primitive {
    /// Total specific energy.
    pub fn etot(&self) -> Real {
        self.e
            + 0.5
                * (self.vel[0] * self.vel[0]
                    + self.vel[1] * self.vel[1]
                    + self.vel[2] * self.vel[2])
    }
}

/// `[f(0), …, f(W − 1)]` by a plain loop, which always inlines into a lane
/// kernel (`std::array::from_fn` need not, and an outlined one leaves the
/// lanes scalar).
#[inline(always)]
pub(crate) fn each<T: Copy + Default, const W: usize>(mut f: impl FnMut(usize) -> T) -> [T; W] {
    let mut out = [T::default(); W];
    for (l, o) in out.iter_mut().enumerate() {
        *o = f(l);
    }
    out
}

/// Lane by lane, `a` where `m` holds and `b` elsewhere: a branch of
/// per-zone code as a select of the values its arms compute.
#[inline(always)]
pub(crate) fn pick<T: Copy + Default, const W: usize>(
    m: &[bool; W],
    a: &[T; W],
    b: &[T; W],
) -> [T; W] {
    each(|l| if m[l] { a[l] } else { b[l] })
}

/// `[f(0), …, f(LANES − 1)]`: one value a lane of a row chunk.
#[inline(always)]
pub(crate) fn lanes(f: impl FnMut(usize) -> Real) -> [Real; LANES] {
    each(f)
}

/// The [`Primitive`]s of `W` zones, field by field: lane `l` of every field
/// is zone `l`'s.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PrimLanes<const W: usize> {
    pub rho: [Real; W],
    pub vel: [[Real; W]; 3],
    pub p: [Real; W],
    pub e: [Real; W],
    pub cs: [Real; W],
}

impl<const W: usize> PrimLanes<W> {
    /// Zone `l`'s primitive.
    #[inline]
    pub fn lane(&self, l: usize) -> Primitive {
        Primitive {
            rho: self.rho[l],
            vel: [self.vel[0][l], self.vel[1][l], self.vel[2][l]],
            p: self.p[l],
            e: self.e[l],
            cs: self.cs[l],
        }
    }
}

impl<const W: usize> Default for PrimLanes<W> {
    fn default() -> Self {
        Self::from([Primitive::default(); W])
    }
}

impl<const W: usize> From<[Primitive; W]> for PrimLanes<W> {
    fn from(q: [Primitive; W]) -> Self {
        PrimLanes {
            rho: each(|l| q[l].rho),
            vel: [0, 1, 2].map(|d| each(|l| q[l].vel[d])),
            p: each(|l| q[l].p),
            e: each(|l| q[l].e),
            cs: each(|l| q[l].cs),
        }
    }
}

/// Floors applied to keep the state physical through strong rarefactions.
#[derive(Clone, Copy, Debug)]
pub struct Floors {
    /// Minimum density.
    pub small_dens: Real,
    /// Minimum temperature.
    pub small_temp: Real,
    /// Minimum pressure.
    pub small_pres: Real,
}

impl Default for Floors {
    fn default() -> Self {
        Floors {
            small_dens: 1e-12,
            small_temp: 1e-2,
            small_pres: 1e-20,
        }
    }
}

impl Floors {
    /// Floors for non-dimensionalized test problems (Sod, Sedov with
    /// order-unity densities and pressures), where the gamma-law
    /// "temperature" is a tiny bookkeeping quantity.
    pub fn dimensionless() -> Self {
        Floors {
            small_dens: 1e-12,
            small_temp: 1e-30,
            small_pres: 1e-30,
        }
    }
}

/// Floored density, velocity and specific internal energy of one zone's
/// conserved `(ρ, ρu, ρE, ρe)` — what the EOS is inverted at.
#[inline]
pub(crate) fn rho_vel_e(
    rho: Real,
    mom: [Real; 3],
    eden: Real,
    eint: Real,
    floors: &Floors,
) -> (Real, [Real; 3], Real) {
    let rho = rho.max(floors.small_dens);
    let inv = 1.0 / rho;
    let vel = [mom[0] * inv, mom[1] * inv, mom[2] * inv];
    let ke = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
    let mut e = eden * inv - ke;
    if e <= 0.0 {
        // Fall back to the advected internal energy (dual-energy guard).
        e = (eint * inv).max(1e-30);
    }
    (rho, vel, e)
}

/// Convert one zone of conserved data to primitives using the EOS.
///
/// `u` must contain `layout.ncomp()` values. The temperature entry is used
/// as the EOS Newton initial guess: one EOS evaluation when it is already
/// the solution, one more per Newton step otherwise.
pub fn cons_to_prim(
    u: &[Real],
    layout: &StateLayout,
    eos: &dyn Eos,
    species: &[Species],
    floors: &Floors,
) -> Primitive {
    let (q, _) = cons_to_prim_lanes(|c| [u[c]; LANES], 1, layout, eos, species, floors);
    q.lane(0)
}

/// [`cons_to_prim`] for [`LANES`] zones, bit for bit: `u(c)` is component
/// `c` of every lane, and the first `live` lanes are inverted, in one
/// [`Eos::t_from_e_lanes`] call (the other lanes' primitives are
/// unspecified). Also returns the zones' mass fractions, clamped to [0, 1].
#[inline(always)]
pub(crate) fn cons_to_prim_lanes(
    u: impl Fn(usize) -> [Real; LANES],
    live: usize,
    layout: &StateLayout,
    eos: &dyn Eos,
    species: &[Species],
    floors: &Floors,
) -> (PrimLanes<LANES>, [[Real; LANES]; StateLayout::MAX_NSPEC]) {
    let (rho_u, eden, eint) = (
        u(StateLayout::RHO),
        u(StateLayout::EDEN),
        u(StateLayout::EINT),
    );
    let mom = [u(StateLayout::MX), u(StateLayout::MY), u(StateLayout::MZ)];
    let (mut rho, mut vel, mut e) = ([0.0; LANES], [[0.0; LANES]; 3], [0.0; LANES]);
    for l in 0..LANES {
        let v;
        (rho[l], v, e[l]) = rho_vel_e(
            rho_u[l],
            [mom[0][l], mom[1][l], mom[2][l]],
            eden[l],
            eint[l],
            floors,
        );
        for d in 0..3 {
            vel[d][l] = v[d];
        }
    }
    let inv = lanes(|l| 1.0 / rho[l]);
    let mut x = [[0.0; LANES]; StateLayout::MAX_NSPEC];
    let n = layout.nspec;
    for k in 0..n {
        let uk = u(layout.spec(k));
        x[k] = lanes(|l| (uk[l] * inv[l]).clamp(0.0, 1.0));
    }
    let comp = Composition::from_mass_fraction_lanes(species, &x[..n]);
    let temp = u(StateLayout::TEMP);
    let t_guess = lanes(|l| temp[l].max(floors.small_temp));
    let (t, mut r) = eos.t_from_e_lanes(rho, e, &comp, t_guess, live);
    for l in 0..live {
        if t[l] < floors.small_temp {
            // The floor clamps, so the solver's evaluation is at the wrong T.
            r[l] = eos.eval_rt(rho[l], floors.small_temp, &comp[l]);
        }
    }
    let q = PrimLanes {
        rho,
        vel,
        p: lanes(|l| r[l].p.max(floors.small_pres)),
        e,
        cs: lanes(|l| r[l].cs),
    };
    (q, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_microphysics::network::Network;
    use exastro_microphysics::GammaLaw;

    #[test]
    fn layout_indices() {
        let l = StateLayout::new(2);
        assert_eq!(l.ncomp(), 9);
        assert_eq!(l.spec(0), 7);
        assert_eq!(l.spec(1), 8);
        assert_eq!(l.mom(2), StateLayout::MZ);
    }

    #[test]
    #[should_panic(expected = "at most 16 species")]
    fn over_wide_layout_is_rejected_at_construction() {
        StateLayout::new(StateLayout::MAX_NSPEC + 1);
    }

    #[test]
    fn cons_prim_roundtrip_gamma_law() {
        let net = Network::cburn2();
        let layout = StateLayout::new(2);
        let eos = GammaLaw::monatomic();
        let floors = Floors::default();
        // Build conserved state from known primitives.
        let rho = 2.0;
        let vel = [1.0e5, -3.0e4, 2.0e4];
        let t = 1.5e6;
        let x = [0.75, 0.25];
        let comp = Composition::from_mass_fractions(net.species(), &x);
        let r = eos.eval_rt(rho, t, &comp);
        let ke = 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let mut u = vec![0.0; layout.ncomp()];
        u[StateLayout::RHO] = rho;
        u[StateLayout::MX] = rho * vel[0];
        u[StateLayout::MY] = rho * vel[1];
        u[StateLayout::MZ] = rho * vel[2];
        u[StateLayout::EDEN] = rho * (r.e + ke);
        u[StateLayout::EINT] = rho * r.e;
        u[StateLayout::TEMP] = 1e6; // imperfect guess
        u[layout.spec(0)] = rho * x[0];
        u[layout.spec(1)] = rho * x[1];
        let q = cons_to_prim(&u, &layout, &eos, net.species(), &floors);
        assert!((q.rho - rho).abs() < 1e-12);
        assert!((q.vel[0] - vel[0]).abs() < 1e-7);
        assert!((q.p / r.p - 1.0).abs() < 1e-8, "p {} vs {}", q.p, r.p);
        assert!((q.cs / r.cs - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_kinetic_energy_residual_falls_back_to_eint() {
        let net = Network::cburn2();
        let layout = StateLayout::new(2);
        let eos = GammaLaw::monatomic();
        let floors = Floors::default();
        let mut u = vec![0.0; layout.ncomp()];
        u[StateLayout::RHO] = 1.0;
        u[StateLayout::MX] = 10.0; // KE = 50
        u[StateLayout::EDEN] = 40.0; // less than KE → ρE − KE < 0
        u[StateLayout::EINT] = 5.0;
        u[StateLayout::TEMP] = 1e4;
        u[layout.spec(0)] = 1.0;
        let q = cons_to_prim(&u, &layout, &eos, net.species(), &floors);
        assert!((q.e - 5.0).abs() < 1e-12);
        assert!(q.p > 0.0 && q.cs > 0.0);
    }
}
