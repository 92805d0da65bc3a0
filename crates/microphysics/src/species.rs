//! Nuclear species data and composition bookkeeping.

use crate::constants::{MEV_TO_ERG, N_A};

/// One atomic isotope tracked by a reaction network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Species {
    /// Short name, e.g. `"he4"`.
    pub name: &'static str,
    /// Mass number A (nucleons).
    pub a: f64,
    /// Charge number Z (protons).
    pub z: f64,
    /// Total nuclear binding energy, MeV.
    pub bind_mev: f64,
}

impl Species {
    /// Construct a species record.
    pub const fn new(name: &'static str, a: f64, z: f64, bind_mev: f64) -> Self {
        Species {
            name,
            a,
            z,
            bind_mev,
        }
    }
}

/// Standard isotopes used by the suite's networks (binding energies from the
/// AME mass tables, rounded).
pub mod iso {
    use super::Species;
    /// Helium-4.
    pub const HE4: Species = Species::new("he4", 4.0, 2.0, 28.29603);
    /// Carbon-12.
    pub const C12: Species = Species::new("c12", 12.0, 6.0, 92.16294);
    /// Oxygen-16.
    pub const O16: Species = Species::new("o16", 16.0, 8.0, 127.62093);
    /// Neon-20.
    pub const NE20: Species = Species::new("ne20", 20.0, 10.0, 160.64788);
    /// Magnesium-24.
    pub const MG24: Species = Species::new("mg24", 24.0, 12.0, 198.25790);
    /// Silicon-28.
    pub const SI28: Species = Species::new("si28", 28.0, 14.0, 236.53790);
    /// Sulfur-32.
    pub const S32: Species = Species::new("s32", 32.0, 16.0, 271.78250);
    /// Argon-36.
    pub const AR36: Species = Species::new("ar36", 36.0, 18.0, 306.72020);
    /// Calcium-40.
    pub const CA40: Species = Species::new("ca40", 40.0, 20.0, 342.05680);
    /// Titanium-44.
    pub const TI44: Species = Species::new("ti44", 44.0, 22.0, 375.47720);
    /// Chromium-48.
    pub const CR48: Species = Species::new("cr48", 48.0, 24.0, 411.46900);
    /// Iron-52.
    pub const FE52: Species = Species::new("fe52", 52.0, 26.0, 447.70800);
    /// Nickel-56.
    pub const NI56: Species = Species::new("ni56", 56.0, 28.0, 483.99500);
}

/// Mean composition parameters derived from mass fractions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Composition {
    /// Mean atomic mass: `1/abar = Σ X_i / A_i`.
    pub abar: f64,
    /// Mean charge: `zbar/abar = Σ Z_i X_i / A_i`.
    pub zbar: f64,
}

impl Composition {
    /// Compute (abar, zbar) from mass fractions `x` for `species`.
    pub fn from_mass_fractions(species: &[Species], x: &[f64]) -> Self {
        assert_eq!(species.len(), x.len());
        let [comp] = Self::from_x(species, x.iter().map(|&xi| [xi]));
        comp
    }

    /// [`Composition::from_mass_fractions`] of `W` zones at once, bit for
    /// bit: `x[i][l]` is species `i`'s mass fraction in zone `l`.
    #[inline]
    pub fn from_mass_fraction_lanes<const W: usize>(
        species: &[Species],
        x: &[[f64; W]],
    ) -> [Self; W] {
        assert_eq!(species.len(), x.len());
        Self::from_x(species, x.iter().copied())
    }

    /// Compute (abar, zbar) from molar fractions `y` (`X_i = A_i Y_i`, as
    /// [`molar_to_mass`] forms them) without staging the mass fractions.
    pub(crate) fn from_molar_fractions(species: &[Species], y: &[f64]) -> Self {
        let [comp] = Self::from_molar_fraction_lanes(species, y.as_chunks::<1>().0);
        comp
    }

    /// [`Composition::from_molar_fractions`] of `W` zones, bit for bit:
    /// `y[i][l]` is species `i`'s molar fraction in zone `l`.
    #[inline]
    pub(crate) fn from_molar_fraction_lanes<const W: usize>(
        species: &[Species],
        y: &[[f64; W]],
    ) -> [Self; W] {
        assert_eq!(species.len(), y.len());
        Self::from_x(
            species,
            species.iter().zip(y).map(|(s, yi)| yi.map(|v| v * s.a)),
        )
    }

    /// The compositions of `W` zones, species by species: the item for
    /// species `i` holds its mass fraction in each zone.
    #[inline]
    fn from_x<const W: usize>(species: &[Species], x: impl Iterator<Item = [f64; W]>) -> [Self; W] {
        let mut inv_abar = [0.0; W];
        let mut ze = [0.0; W];
        for (s, xi) in species.iter().zip(x) {
            for l in 0..W {
                inv_abar[l] += xi[l] / s.a;
                ze[l] += s.z * xi[l] / s.a;
            }
        }
        let abar = inv_abar.map(|i| 1.0 / i);
        let mut out = [Composition {
            abar: 0.0,
            zbar: 0.0,
        }; W];
        for l in 0..W {
            out[l] = Composition {
                abar: abar[l],
                zbar: ze[l] * abar[l],
            };
        }
        out
    }

    /// Electron mean molecular weight `μ_e = abar / zbar`.
    pub fn mu_e(&self) -> f64 {
        self.abar / self.zbar
    }
}

/// Convert mass fractions to molar fractions `Y_i = X_i / A_i`.
pub fn mass_to_molar(species: &[Species], x: &[f64], y: &mut [f64]) {
    for i in 0..species.len() {
        y[i] = x[i] / species[i].a;
    }
}

/// Convert molar fractions back to mass fractions `X_i = A_i Y_i`.
pub fn molar_to_mass(species: &[Species], y: &[f64], x: &mut [f64]) {
    for i in 0..species.len() {
        x[i] = y[i] * species[i].a;
    }
}

/// Specific nuclear energy generation rate, erg g⁻¹ s⁻¹, from molar rates:
/// `ε = N_A Σ_i (dY_i/dt) B_i` (positive when binding energy increases).
pub fn energy_rate(species: &[Species], dydt: &[f64]) -> f64 {
    let [e] = energy_rate_lanes(species, dydt.as_chunks::<1>().0);
    e
}

/// [`energy_rate`] of `W` zones, bit for bit: `dydt[i][l]` is species `i`'s
/// molar rate in zone `l`.
#[inline]
pub(crate) fn energy_rate_lanes<const W: usize>(
    species: &[Species],
    dydt: &[[f64; W]],
) -> [f64; W] {
    let mut e = [0.0; W];
    for (s, d) in species.iter().zip(dydt) {
        for l in 0..W {
            e[l] += d[l] * s.bind_mev;
        }
    }
    e.map(|e| e * N_A * MEV_TO_ERG)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_pure_carbon() {
        let sp = [iso::C12];
        let c = Composition::from_mass_fractions(&sp, &[1.0]);
        assert!((c.abar - 12.0).abs() < 1e-12);
        assert!((c.zbar - 6.0).abs() < 1e-12);
        assert!((c.mu_e() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn composition_co_mix() {
        // 50/50 C/O white dwarf material.
        let sp = [iso::C12, iso::O16];
        let c = Composition::from_mass_fractions(&sp, &[0.5, 0.5]);
        let inv_abar: f64 = 0.5 / 12.0 + 0.5 / 16.0;
        assert!((c.abar - 1.0 / inv_abar).abs() < 1e-12);
        assert!((c.mu_e() - 2.0).abs() < 1e-12, "C/O both have A = 2Z");
    }

    #[test]
    fn molar_mass_roundtrip() {
        let sp = [iso::HE4, iso::C12, iso::NI56];
        let x = [0.2, 0.5, 0.3];
        let mut y = [0.0; 3];
        let mut back = [0.0; 3];
        mass_to_molar(&sp, &x, &mut y);
        molar_to_mass(&sp, &y, &mut back);
        for i in 0..3 {
            assert!((back[i] - x[i]).abs() < 1e-15);
        }
        assert!((y[0] - 0.05).abs() < 1e-15);
    }

    #[test]
    fn triple_alpha_q_value() {
        // 3 He4 → C12 releases 7.27 MeV: ε for unit molar rate.
        let sp = [iso::HE4, iso::C12];
        let dydt = [-3.0, 1.0];
        let eps = energy_rate(&sp, &dydt);
        let q_mev = iso::C12.bind_mev - 3.0 * iso::HE4.bind_mev;
        assert!((q_mev - 7.2749).abs() < 0.01);
        assert!((eps - q_mev * N_A * MEV_TO_ERG).abs() < 1e6);
        assert!(eps > 0.0);
    }

    #[test]
    fn nucleon_conservation_implies_energy_from_binding_only() {
        // C12 + C12 → Mg24: ΔB = B(Mg24) − 2 B(C12) ≈ 13.93 MeV.
        let sp = [iso::C12, iso::MG24];
        let dydt = [-2.0, 1.0];
        let q = iso::MG24.bind_mev - 2.0 * iso::C12.bind_mev;
        assert!(q > 13.0 && q < 15.0);
        assert!(energy_rate(&sp, &dydt) > 0.0);
    }
}
