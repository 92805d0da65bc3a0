//! Nuclear reaction networks.
//!
//! A network is species plus reactions with molar rate coefficients,
//! evaluated in two stages: the *rate stage* ([`Network::rates_lanes`])
//! takes each screened λ (and dλ/dT₉) at (ρ, T) and never reads Y; the
//! *abundance stage* ([`Network::ydot_from_rates`], `jac_from_rates`)
//! forms dY/dt or the Jacobian in Y and T from those rows. Every `ydot`
//! and `jac` composes the two; a burner block keeps its rates while its
//! temperatures keep their bits.
//!
//! * [`CBurn2`] — the N = 2 carbon-burning network of the MAESTROeX
//!   reacting-bubble test (§IV-B);
//! * [`TripleAlpha`] — helium burning with its ~T⁴⁰ sensitivity (§IV-B);
//! * [`Aprox13`] — the alpha chain of the WD collision runs (§V, §VI).

use crate::rates::{gamow_tau_alpha, Rate, TFactors, TNeeds};
use crate::sparse::CsrPattern;
use crate::species::{energy_rate, iso, Species};
use exastro_parallel::LANES;
use std::array::from_fn;

#[cfg(test)]
mod reference;

/// One reaction: `Σ count_i · reactant_i → Σ count_j · product_j`.
#[derive(Clone, Debug)]
pub struct Reaction {
    /// Reactant species indices with stoichiometric counts.
    pub reactants: Vec<(usize, u32)>,
    /// Product species indices with stoichiometric counts.
    pub products: Vec<(usize, u32)>,
    /// Rate coefficient fit.
    pub rate: Rate,
    /// Symmetry factor: the product of `count!` over reactants (2 for an
    /// identical pair, 6 for triple-alpha).
    pub symmetry: f64,
}

impl Reaction {
    /// Two distinct reactants → products.
    pub fn two_body(i: usize, j: usize, products: Vec<(usize, u32)>, rate: Rate) -> Self {
        assert_ne!(i, j);
        Reaction {
            reactants: vec![(i, 1), (j, 1)],
            products,
            rate,
            symmetry: 1.0,
        }
    }

    /// An identical pair `X + X` → products.
    pub fn pair(i: usize, products: Vec<(usize, u32)>, rate: Rate) -> Self {
        Reaction {
            reactants: vec![(i, 2)],
            products,
            rate,
            symmetry: 2.0,
        }
    }

    /// Triple identical `3X` → products.
    pub fn triple(i: usize, products: Vec<(usize, u32)>, rate: Rate) -> Self {
        Reaction {
            reactants: vec![(i, 3)],
            products,
            rate,
            symmetry: 6.0,
        }
    }

    /// Total reactant count (the reaction's molecularity).
    fn order(&self) -> u32 {
        self.reactants.iter().map(|&(_, c)| c).sum()
    }
}

/// A nuclear reaction network.
pub trait Network: Send + Sync {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// The species tracked.
    fn species(&self) -> &[Species];

    /// The reaction list.
    fn reactions(&self) -> &[Reaction];

    /// Whether to apply the plasma screening enhancement.
    fn screening(&self) -> bool {
        true
    }

    /// Number of species.
    fn nspec(&self) -> usize {
        self.species().len()
    }

    /// Index of a species by name; panics if absent.
    fn index_of(&self, name: &str) -> usize {
        self.species()
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("species {name} not in network {}", self.name()))
    }

    /// The temperature-factor families this network's rate fits read:
    /// worked out once, when the network is built
    /// ([`TNeeds::of`] its reactions' rates), never per evaluation.
    fn t_needs(&self) -> TNeeds;

    /// Fill `ydot` (length nspec) with dY/dt at (ρ, T, Y): one lane of
    /// [`Network::ydot_lanes`].
    fn ydot(&self, rho: f64, t: f64, y: &[f64], ydot: &mut [f64]) {
        ydot_body(self, [rho], [t], y.as_chunks().0, ydot.as_chunks_mut().0);
    }

    /// [`Network::ydot`] of [`LANES`] zones, bit for bit: `y[i][l]` is
    /// species `i`'s molar abundance in zone `l`, and `ydot` (nspec rows)
    /// receives dY/dt the same way. The rate stage
    /// ([`Network::rates_lanes`]) and then the abundance stage
    /// ([`Network::ydot_from_rates`]).
    fn ydot_lanes(
        &self,
        rho: [f64; LANES],
        t: [f64; LANES],
        y: &[[f64; LANES]],
        ydot: &mut [[f64; LANES]],
    ) {
        ydot_body(self, rho, t, y, ydot);
    }

    /// The rate stage of [`LANES`] zones: row `k` of `lam` receives the
    /// screened rate coefficient λ of reaction `k` in every lane and, given
    /// `dlam`, row `k` of it dλ/dT₉. λ reads no slope factor, so its bits
    /// do not depend on whether `dlam` is asked for.
    fn rates_lanes(
        &self,
        rho: [f64; LANES],
        t: [f64; LANES],
        lam: &mut [[f64; LANES]],
        dlam: Option<&mut [[f64; LANES]]>,
    ) {
        rates_body(self, rho, t, lam, dlam);
    }

    /// The abundance stage of [`Network::ydot_lanes`] on the rows `lam` of
    /// [`Network::rates_lanes`] taken at the same ρ.
    fn ydot_from_rates(
        &self,
        rho: [f64; LANES],
        lam: &[[f64; LANES]],
        y: &[[f64; LANES]],
        ydot: &mut [[f64; LANES]],
    ) {
        ydot_from_rates_body(self, rho, lam, y, ydot);
    }

    /// Specific nuclear energy generation rate ε (erg g⁻¹ s⁻¹) at the state:
    /// [`energy_rate`] of a one-lane [`Network::ydot`]. The rates of up to
    /// 32 species are held on the stack, a larger network's on the heap.
    fn eps(&self, rho: f64, t: f64, y: &[f64]) -> f64 {
        let n = self.nspec();
        let mut stack = [0.0; EPS_MAX_SPECIES];
        let mut heap = Vec::new();
        let ydot = if n <= EPS_MAX_SPECIES {
            &mut stack[..n]
        } else {
            heap.resize(n, 0.0);
            &mut heap[..]
        };
        self.ydot(rho, t, y, ydot);
        energy_rate(self.species(), ydot)
    }

    /// Fill the `(n+1) × (n+1)` row-major Jacobian block for the species:
    /// rows `0..n` hold ∂Ẏᵢ/∂Yⱼ in columns `0..n` and ∂Ẏᵢ/∂T in column `n`.
    /// Row `n` (the temperature equation) is left zero for the burner to
    /// fill. `jac` has length `(n+1)²`. One lane of [`Network::jac_lanes`].
    fn jac(&self, rho: f64, t: f64, y: &[f64], jac: &mut [f64]) {
        jac_body(self, [rho], [t], y.as_chunks().0, jac.as_chunks_mut().0);
    }

    /// [`Network::jac`] of [`LANES`] zones, bit for bit, on the layout of
    /// [`Network::ydot_lanes`]: `jac` holds `(n+1)²` rows. The rate stage
    /// with slopes and then [`Network::jac_from_rates`].
    fn jac_lanes(
        &self,
        rho: [f64; LANES],
        t: [f64; LANES],
        y: &[[f64; LANES]],
        jac: &mut [[f64; LANES]],
    ) {
        jac_body(self, rho, t, y, jac);
    }

    /// The abundance stage of [`Network::jac_lanes`] on the rows `lam` and
    /// `dlam` of [`Network::rates_lanes`] taken at the same ρ with slopes.
    fn jac_from_rates(
        &self,
        rho: [f64; LANES],
        lam: &[[f64; LANES]],
        dlam: &[[f64; LANES]],
        y: &[[f64; LANES]],
        jac: &mut [[f64; LANES]],
    ) {
        jac_from_rates_body(self, rho, lam, dlam, y, jac);
    }

    /// The structural sparsity of the full `(n+1)²` burner Jacobian
    /// (species block plus the dense temperature row/column), ready for
    /// symbolic factorization by [`crate::sparse::SparseLu`].
    fn sparsity(&self) -> CsrPattern {
        let n = self.nspec();
        let m = n + 1;
        let mut entries = Vec::new();
        for rx in self.reactions() {
            let mut involved: Vec<usize> = Vec::new();
            for &(i, _) in &rx.reactants {
                involved.push(i);
            }
            for &(i, _) in &rx.products {
                involved.push(i);
            }
            for &i in &involved {
                for &(j, _) in &rx.reactants {
                    entries.push((i, j));
                }
                entries.push((i, n)); // T column
            }
        }
        // Temperature row couples to everything a reaction touches.
        for rx in self.reactions() {
            for &(j, _) in &rx.reactants {
                entries.push((n, j));
            }
        }
        entries.push((n, n));
        CsrPattern::new(m, entries)
    }
}

/// Species a one-lane [`Network::eps`] holds its rates for on the stack.
const EPS_MAX_SPECIES: usize = 32;

/// The temperature factors every reaction of `net` shares at the lanes'
/// (ρ, T): one per evaluation. `slopes`: the Jacobian's dλ/dT₉ factors too.
#[inline(always)]
fn shared_factors<N: Network + ?Sized, const W: usize>(
    net: &N,
    rho: [f64; W],
    t: [f64; W],
    slopes: bool,
) -> TFactors<W> {
    let tf = TFactors::lanes(t.map(|t| t / 1e9), net.t_needs(), slopes);
    if net.screening() {
        // Mean values matter only logarithmically here.
        tf.with_screening_lanes(rho, t, 12.0, 6.0)
    } else {
        tf
    }
}

/// The (screened) rate coefficient λ of `rx` and, with `slopes`, dλ/dT₉:
/// the only place a network evaluates a fit or a screening factor.
#[inline(always)]
fn screened_rate<N: Network + ?Sized, const W: usize>(
    net: &N,
    rx: &Reaction,
    tf: &TFactors<W>,
    slopes: bool,
) -> ([f64; W], [f64; W]) {
    let (mut lam, mut dlam_dt9) = if slopes {
        rx.rate.eval_lanes(tf)
    } else {
        (rx.rate.lambda_lanes(tf), [0.0; W])
    };
    if net.screening() && rx.order() >= 2 {
        // Screening applied with the charges of the first two reactants.
        let (i0, _) = rx.reactants[0];
        let z1 = net.species()[i0].z;
        let z2 = if rx.reactants.len() > 1 {
            net.species()[rx.reactants[1].0].z
        } else {
            z1
        };
        let f = tf.screening_lanes(z1, z2);
        for l in 0..W {
            lam[l] *= f[l];
            dlam_dt9[l] *= f[l]; // d(screening)/dT neglected (weak screening)
        }
    }
    (lam, dlam_dt9)
}

/// `x^c` lane by lane, with `powi`'s bits: the squarings it performs for
/// the small counts a reaction has, the call itself beyond them.
#[inline(always)]
fn ipow<const W: usize>(x: [f64; W], c: i32) -> [f64; W] {
    match c {
        0 => [1.0; W],
        1 => x,
        2 => x.map(|v| v * v),
        3 => x.map(|v| v * (v * v)),
        _ => x.map(|v| v.powi(c)),
    }
}

/// `Π_{i ≠ skip} max(Y_i, 0)^{c_i}` over `rx`'s reactants, onto `acc`.
#[inline(always)]
fn reactant_product<const W: usize>(
    rx: &Reaction,
    y: &[[f64; W]],
    skip: Option<usize>,
    mut acc: [f64; W],
) -> [f64; W] {
    for (ri, &(i, c)) in rx.reactants.iter().enumerate() {
        if Some(ri) != skip {
            let p = ipow(y[i].map(|v| v.max(0.0)), c as i32);
            for l in 0..W {
                acc[l] *= p[l];
            }
        }
    }
    acc
}

/// `v[i] ∓= c · r` for `rx`'s reactants and products, row `i` at
/// `v[i·stride + col]`.
#[inline(always)]
fn accumulate<const W: usize>(
    rx: &Reaction,
    r: [f64; W],
    v: &mut [[f64; W]],
    stride: usize,
    col: usize,
) {
    for &(i, c) in &rx.reactants {
        let row = &mut v[i * stride + col];
        for l in 0..W {
            row[l] -= c as f64 * r[l];
        }
    }
    for &(i, c) in &rx.products {
        let row = &mut v[i * stride + col];
        for l in 0..W {
            row[l] += c as f64 * r[l];
        }
    }
}

/// Reactions whose rate rows a composed evaluation holds on the stack;
/// a larger network's go on the heap.
const STACK_REACTIONS: usize = 32;

/// `f(λ rows, dλ/dT₉ rows)`, `r` of each, on the stack up to
/// [`STACK_REACTIONS`] reactions and on the heap beyond.
#[inline(always)]
fn with_rate_rows<const W: usize>(r: usize, f: impl FnOnce(&mut [[f64; W]], &mut [[f64; W]])) {
    let mut stack = [[0.0; W]; 2 * STACK_REACTIONS];
    let mut heap = Vec::new();
    let rows = if r <= STACK_REACTIONS {
        &mut stack[..2 * r]
    } else {
        heap.resize(2 * r, [0.0; W]);
        &mut heap[..]
    };
    let (lam, dlam) = rows.split_at_mut(r);
    f(lam, dlam)
}

/// The one rate stage: [`Network::rates_lanes`] at [`LANES`] and the first
/// half of [`Network::ydot`]/[`Network::jac`] at `W` = 1, monomorphised
/// per network.
#[inline(always)]
fn rates_body<N: Network + ?Sized, const W: usize>(
    net: &N,
    rho: [f64; W],
    t: [f64; W],
    lam: &mut [[f64; W]],
    mut dlam: Option<&mut [[f64; W]]>,
) {
    let slopes = dlam.is_some();
    let tf = shared_factors(net, rho, t, slopes);
    for (k, rx) in net.reactions().iter().enumerate() {
        let (l, d) = screened_rate(net, rx, &tf, slopes);
        lam[k] = l;
        if let Some(dlam) = dlam.as_deref_mut() {
            dlam[k] = d;
        }
    }
}

/// The one right-hand side abundance stage: reactant products, ρ powers
/// and accumulation onto `ydot` from the rate rows `lam`.
#[inline(always)]
fn ydot_from_rates_body<N: Network + ?Sized, const W: usize>(
    net: &N,
    rho: [f64; W],
    lam: &[[f64; W]],
    y: &[[f64; W]],
    ydot: &mut [[f64; W]],
) {
    ydot.iter_mut().for_each(|v| *v = [0.0; W]);
    for (rx, lam) in net.reactions().iter().zip(lam) {
        let yprod = reactant_product(rx, y, None, [1.0; W]);
        let rho_pow = ipow(rho, rx.order() as i32 - 1);
        let r = from_fn(|l| rho_pow[l] * lam[l] * yprod[l] / rx.symmetry);
        accumulate(rx, r, ydot, 1, 0);
    }
}

/// The one Jacobian abundance stage, from the rate rows `lam` and `dlam`.
#[inline(always)]
fn jac_from_rates_body<N: Network + ?Sized, const W: usize>(
    net: &N,
    rho: [f64; W],
    lam: &[[f64; W]],
    dlam: &[[f64; W]],
    y: &[[f64; W]],
    jac: &mut [[f64; W]],
) {
    let n = net.nspec();
    let m = n + 1;
    assert_eq!(jac.len(), m * m);
    jac.iter_mut().for_each(|v| *v = [0.0; W]);
    for ((rx, lam), dlam_dt9) in net.reactions().iter().zip(lam).zip(dlam) {
        let yprod = reactant_product(rx, y, None, [1.0; W]);
        let rho_pow = ipow(rho, rx.order() as i32 - 1);
        // dr/dY_j for each distinct reactant j: r * c_j / Y_j computed
        // robustly (avoid dividing by tiny Y by re-deriving the product):
        // d(Π Y_i^{c_i})/dY_j = c_j Y_j^{c_j-1} Π_{i≠j} Y_i^{c_i}.
        for (rj, &(j, cj)) in rx.reactants.iter().enumerate() {
            let own = ipow(y[j].map(|v| v.max(0.0)), cj as i32 - 1);
            let dyprod = reactant_product(rx, y, Some(rj), own.map(|p| cj as f64 * p));
            let drdy = from_fn(|l| rho_pow[l] * lam[l] * dyprod[l] / rx.symmetry);
            accumulate(rx, drdy, jac, m, j);
        }
        // Temperature column.
        let drdt = from_fn(|l| rho_pow[l] * dlam_dt9[l] * yprod[l] / rx.symmetry / 1e9);
        accumulate(rx, drdt, jac, m, n);
    }
}

/// [`Network::ydot`] at `W` = 1 and [`Network::ydot_lanes`] at [`LANES`]:
/// the rate stage, then the abundance stage.
#[inline(always)]
fn ydot_body<N: Network + ?Sized, const W: usize>(
    net: &N,
    rho: [f64; W],
    t: [f64; W],
    y: &[[f64; W]],
    ydot: &mut [[f64; W]],
) {
    with_rate_rows(net.reactions().len(), |lam, _| {
        rates_body(net, rho, t, lam, None);
        ydot_from_rates_body(net, rho, lam, y, ydot);
    });
}

/// [`Network::jac`] at `W` = 1 and [`Network::jac_lanes`] at [`LANES`]:
/// the rate stage with slopes, then the abundance stage.
#[inline(always)]
fn jac_body<N: Network + ?Sized, const W: usize>(
    net: &N,
    rho: [f64; W],
    t: [f64; W],
    y: &[[f64; W]],
    jac: &mut [[f64; W]],
) {
    with_rate_rows(net.reactions().len(), |lam, dlam| {
        rates_body(net, rho, t, lam, Some(&mut *dlam));
        jac_from_rates_body(net, rho, lam, dlam, y, jac);
    });
}

fn rate_needs(reactions: &[Reaction]) -> TNeeds {
    TNeeds::of(reactions.iter().map(|rx| rx.rate))
}

/// The 2-species carbon network of the reacting-bubble problem:
/// `C¹² + C¹² → Mg²⁴` (ash lumped, as in the MAESTROeX test problem).
#[derive(Clone, Debug)]
pub struct CBurn2 {
    species: Vec<Species>,
    reactions: Vec<Reaction>,
    needs: TNeeds,
}

impl Default for CBurn2 {
    fn default() -> Self {
        Self::new()
    }
}

impl CBurn2 {
    /// Build the network.
    pub fn new() -> Self {
        let species = vec![iso::C12, iso::MG24];
        let reactions = vec![Reaction::pair(0, vec![(1, 1)], Rate::C12C12)];
        CBurn2 {
            species,
            needs: rate_needs(&reactions),
            reactions,
        }
    }
}

impl Network for CBurn2 {
    fn name(&self) -> &'static str {
        "cburn2"
    }
    fn species(&self) -> &[Species] {
        &self.species
    }
    fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }
    fn t_needs(&self) -> TNeeds {
        self.needs
    }
}

/// Helium burning: `3 He⁴ → C¹²` (+ optional `C¹²(α,γ)O¹⁶`).
#[derive(Clone, Debug)]
pub struct TripleAlpha {
    species: Vec<Species>,
    reactions: Vec<Reaction>,
    needs: TNeeds,
}

impl Default for TripleAlpha {
    fn default() -> Self {
        Self::new()
    }
}

impl TripleAlpha {
    /// Build the network (He4, C12, O16).
    pub fn new() -> Self {
        let species = vec![iso::HE4, iso::C12, iso::O16];
        let reactions = vec![
            Reaction::triple(0, vec![(1, 1)], Rate::TripleAlpha),
            Reaction::two_body(
                1,
                0,
                vec![(2, 1)],
                Rate::AlphaCapture {
                    c: 3.0e7,
                    tau: gamow_tau_alpha(6.0, 12.0),
                },
            ),
        ];
        TripleAlpha {
            species,
            needs: rate_needs(&reactions),
            reactions,
        }
    }
}

impl Network for TripleAlpha {
    fn name(&self) -> &'static str {
        "triple_alpha"
    }
    fn species(&self) -> &[Species] {
        &self.species
    }
    fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }
    fn t_needs(&self) -> TNeeds {
        self.needs
    }
}

/// The 7-isotope network (iso7 structure): the cheaper production
/// alternative to aprox13, covering He/C/O burning through silicon with
/// nickel as the terminal ash. Silicon burning to nickel is lumped as the
/// crude `2 Si²⁸ → Ni⁵⁶` closure used by minimal silicon-burning networks.
#[derive(Clone, Debug)]
pub struct Iso7 {
    species: Vec<Species>,
    reactions: Vec<Reaction>,
    needs: TNeeds,
}

impl Default for Iso7 {
    fn default() -> Self {
        Self::new()
    }
}

impl Iso7 {
    /// Build the network.
    pub fn new() -> Self {
        let species = vec![
            iso::HE4,
            iso::C12,
            iso::O16,
            iso::NE20,
            iso::MG24,
            iso::SI28,
            iso::NI56,
        ];
        let (he, c12, o16, ne20, mg24, si28, ni56) = (0usize, 1, 2, 3, 4, 5, 6);
        let reactions = vec![
            Reaction::triple(he, vec![(c12, 1)], Rate::TripleAlpha),
            Reaction::two_body(
                c12,
                he,
                vec![(o16, 1)],
                Rate::AlphaCapture {
                    c: 3.0e7,
                    tau: gamow_tau_alpha(6.0, 12.0),
                },
            ),
            Reaction::pair(c12, vec![(ne20, 1), (he, 1)], Rate::C12C12),
            Reaction::two_body(c12, o16, vec![(mg24, 1), (he, 1)], Rate::C12O16),
            Reaction::pair(o16, vec![(si28, 1), (he, 1)], Rate::O16O16),
            Reaction::two_body(
                o16,
                he,
                vec![(ne20, 1)],
                Rate::AlphaCapture {
                    c: 1.5e7,
                    tau: gamow_tau_alpha(8.0, 16.0),
                },
            ),
            Reaction::two_body(
                ne20,
                he,
                vec![(mg24, 1)],
                Rate::AlphaCapture {
                    c: 1.0e9,
                    tau: gamow_tau_alpha(10.0, 20.0),
                },
            ),
            Reaction::two_body(
                mg24,
                he,
                vec![(si28, 1)],
                Rate::AlphaCapture {
                    c: 8.0e8,
                    tau: gamow_tau_alpha(12.0, 24.0),
                },
            ),
            // Lumped silicon → nickel closure (2×28 = 56 nucleons).
            Reaction::pair(
                si28,
                vec![(ni56, 1)],
                Rate::AlphaCapture {
                    c: 5.0e10,
                    tau: gamow_tau_alpha(14.0, 28.0) * 2.0,
                },
            ),
        ];
        Iso7 {
            species,
            needs: rate_needs(&reactions),
            reactions,
        }
    }
}

impl Network for Iso7 {
    fn name(&self) -> &'static str {
        "iso7"
    }
    fn species(&self) -> &[Species] {
        &self.species
    }
    fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }
    fn t_needs(&self) -> TNeeds {
        self.needs
    }
}

/// The 13-isotope alpha chain (aprox13 structure): He⁴ through Ni⁵⁶
/// connected by `(α,γ)` captures, plus ³α, C+C, C+O and O+O heavy-ion
/// reactions. Forward rates only — adequate below T₉ ≈ 5, which covers the
/// paper's science runs (ignition is declared at 4×10⁹ K).
#[derive(Clone, Debug)]
pub struct Aprox13 {
    species: Vec<Species>,
    reactions: Vec<Reaction>,
    needs: TNeeds,
}

impl Default for Aprox13 {
    fn default() -> Self {
        Self::new()
    }
}

impl Aprox13 {
    /// Build the network.
    pub fn new() -> Self {
        let species = vec![
            iso::HE4,
            iso::C12,
            iso::O16,
            iso::NE20,
            iso::MG24,
            iso::SI28,
            iso::S32,
            iso::AR36,
            iso::CA40,
            iso::TI44,
            iso::CR48,
            iso::FE52,
            iso::NI56,
        ];
        let he = 0usize;
        let mut reactions = vec![
            Reaction::triple(he, vec![(1, 1)], Rate::TripleAlpha),
            // C12 + C12 → Ne20 + He4 (dominant channel in aprox13)
            Reaction::pair(1, vec![(3, 1), (he, 1)], Rate::C12C12),
            // C12 + O16 → Mg24 + He4
            Reaction::two_body(1, 2, vec![(4, 1), (he, 1)], Rate::C12O16),
            // O16 + O16 → Si28 + He4
            Reaction::pair(2, vec![(5, 1), (he, 1)], Rate::O16O16),
        ];
        // The alpha chain: X_i (α,γ) X_{i+1} for C12 → Ni56.
        for i in 1..12 {
            let sp = &species[i];
            // Normalizations chosen to give silicon-group burning at the
            // right temperatures qualitatively; heavier captures have
            // higher Coulomb barriers through τ.
            let c = 8.0e9 / (1.0 + i as f64);
            reactions.push(Reaction::two_body(
                i,
                he,
                vec![(i + 1, 1)],
                Rate::AlphaCapture {
                    c,
                    tau: gamow_tau_alpha(sp.z, sp.a),
                },
            ));
        }
        Aprox13 {
            species,
            needs: rate_needs(&reactions),
            reactions,
        }
    }
}

impl Network for Aprox13 {
    fn name(&self) -> &'static str {
        "aprox13"
    }
    fn species(&self) -> &[Species] {
        &self.species
    }
    fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }
    fn t_needs(&self) -> TNeeds {
        self.needs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::mass_to_molar;

    fn molar(net: &dyn Network, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; net.nspec()];
        mass_to_molar(net.species(), x, &mut y);
        y
    }

    /// Nucleon conservation: Σ A_i dY_i/dt = 0 for any reaction set.
    fn check_nucleon_conservation(net: &dyn Network, rho: f64, t: f64, y: &[f64]) {
        let mut ydot = vec![0.0; net.nspec()];
        net.ydot(rho, t, y, &mut ydot);
        let sum: f64 = net.species().iter().zip(&ydot).map(|(s, &d)| s.a * d).sum();
        let scale: f64 = ydot.iter().map(|d| d.abs()).sum::<f64>().max(1e-300);
        assert!(
            (sum / scale).abs() < 1e-12,
            "{}: nucleons not conserved: {sum}",
            net.name()
        );
    }

    #[test]
    fn cburn2_consumes_carbon_makes_magnesium() {
        let net = CBurn2::new();
        let y = molar(&net, &[1.0, 0.0]);
        let mut ydot = vec![0.0; 2];
        net.ydot(2.6e9 / 1e3, 6e8, &y, &mut ydot); // bubble-ish conditions
        let mut ydot2 = vec![0.0; 2];
        net.ydot(2.6e6, 6e8, &y, &mut ydot2);
        assert!(ydot2[0] < 0.0 && ydot2[1] > 0.0);
        assert!((ydot2[0] + 2.0 * ydot2[1]).abs() < 1e-12 * ydot2[1].abs());
        check_nucleon_conservation(&net, 2.6e6, 6e8, &y);
        assert!(net.eps(2.6e6, 6e8, &y) > 0.0);
    }

    #[test]
    fn rates_feedback_with_temperature() {
        let net = CBurn2::new();
        let y = molar(&net, &[1.0, 0.0]);
        let e1 = net.eps(2.6e6, 5e8, &y);
        let e2 = net.eps(2.6e6, 6e8, &y);
        assert!(
            e2 > 10.0 * e1,
            "carbon burning should be extremely T-sensitive"
        );
    }

    #[test]
    fn triple_alpha_makes_carbon_then_oxygen() {
        let net = TripleAlpha::new();
        let y = molar(&net, &[1.0, 0.0, 0.0]);
        let mut ydot = vec![0.0; 3];
        net.ydot(1e5, 2e8, &y, &mut ydot);
        assert!(ydot[0] < 0.0 && ydot[1] > 0.0);
        check_nucleon_conservation(&net, 1e5, 2e8, &y);
        // With carbon present, O16 production turns on.
        let y2 = molar(&net, &[0.5, 0.5, 0.0]);
        let mut ydot2 = vec![0.0; 3];
        net.ydot(1e5, 3e8, &y2, &mut ydot2);
        assert!(ydot2[2] > 0.0);
    }

    #[test]
    fn aprox13_structure() {
        let net = Aprox13::new();
        assert_eq!(net.nspec(), 13);
        assert_eq!(net.index_of("he4"), 0);
        assert_eq!(net.index_of("ni56"), 12);
        let y = molar(
            &net,
            &[
                0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            ],
        );
        check_nucleon_conservation(&net, 1e7, 3e9, &y);
        // C/O fuel at 3e9 K burns exothermically.
        assert!(net.eps(1e7, 3e9, &y) > 0.0);
    }

    /// CBurn2's carbon pair followed by inert helium, past the species
    /// [`Network::eps`] holds on the stack.
    struct Padded(Vec<Species>, Vec<Reaction>);
    impl Network for Padded {
        fn name(&self) -> &'static str {
            "padded"
        }
        fn species(&self) -> &[Species] {
            &self.0
        }
        fn reactions(&self) -> &[Reaction] {
            &self.1
        }
        fn t_needs(&self) -> TNeeds {
            rate_needs(&self.1)
        }
    }

    #[test]
    fn eps_of_a_network_past_the_stack_buffer() {
        let small = CBurn2::new();
        let mut species = small.species().to_vec();
        species.resize(EPS_MAX_SPECIES + 8, iso::HE4);
        let big = Padded(species, small.reactions().to_vec());
        let mut y = vec![0.0; big.nspec()];
        y[..2].copy_from_slice(&molar(&small, &[0.7, 0.3]));
        let e = big.eps(2.6e6, 6e8, &y);
        assert!(e > 0.0);
        assert_eq!(e.to_bits(), small.eps(2.6e6, 6e8, &y[..2]).to_bits());
    }

    #[test]
    fn ipow_is_powi_bit_for_bit() {
        use std::hint::black_box;
        let xs = [
            0.0,
            1e-300,
            3.7e-5,
            0.3,
            1.0,
            2.5,
            7.1e102,
            1e200,
            f64::INFINITY,
        ];
        for c in 0..6 {
            for x in xs {
                let want = black_box(x).powi(black_box(c));
                assert_eq!(ipow([x], c)[0].to_bits(), want.to_bits(), "{x}^{c}");
            }
        }
    }

    /// `W` lanes' (ρ, T, Y) from `u`: ρ over 10⁻³–10¹⁰, T over 10⁴–10¹⁰
    /// with the burner's 10⁴ K floor and the fits' T₉ = 10⁻⁴ floor drawn
    /// exactly, Y in [−0.05, 0.5) with exact zeros.
    fn stage_inputs<const W: usize>(
        n: usize,
        u: &mut impl FnMut() -> f64,
    ) -> ([f64; W], [f64; W], Vec<[f64; W]>) {
        let rho = from_fn(|_| 10f64.powf(-3.0 + 13.0 * u()));
        let t = from_fn(|_| match (4.0 * u()) as u32 {
            0 => 1e4,
            1 => 1e5,
            _ => 10f64.powf(4.0 + 6.0 * u()),
        });
        let y = (0..n)
            .map(|_| {
                from_fn(|_| match u() {
                    v if v < 0.1 => 0.0,
                    v => 0.55 * v - 0.05,
                })
            })
            .collect();
        (rho, t, y)
    }

    /// `ydot` and `jac` of `net` at `W` lanes, composed and one-pass.
    fn check_stages<const W: usize>(
        net: &dyn Network,
        (rho, t, y): ([f64; W], [f64; W], Vec<[f64; W]>),
        composed_ydot: impl Fn(&mut [[f64; W]]),
        composed_jac: impl Fn(&mut [[f64; W]]),
    ) {
        let m = net.nspec() + 1;
        let bits = |v: &[[f64; W]]| v.iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut got, mut want) = (vec![[f64::NAN; W]; m - 1], vec![[f64::NAN; W]; m - 1]);
        composed_ydot(&mut got);
        reference::ydot_body(net, rho, t, &y, &mut want);
        assert_eq!(bits(&got), bits(&want), "{} ydot W={W}", net.name());
        let (mut got, mut want) = (vec![[f64::NAN; W]; m * m], vec![[f64::NAN; W]; m * m]);
        composed_jac(&mut got);
        reference::jac_body(net, rho, t, &y, &mut want);
        assert_eq!(bits(&got), bits(&want), "{} jac W={W}", net.name());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn the_two_stages_are_the_one_pass_bodies_bit_for_bit(
            net_idx in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let nets: [&dyn Network; 4] =
                [&CBurn2::new(), &TripleAlpha::new(), &Iso7::new(), &Aprox13::new()];
            let net = nets[net_idx];
            let n = net.nspec();
            let mut s = seed | 1;
            let mut u = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            let (rho, t, y) = stage_inputs::<LANES>(n, &mut u);
            check_stages(
                net,
                (rho, t, y.clone()),
                |ydot| net.ydot_lanes(rho, t, &y, ydot),
                |jac| net.jac_lanes(rho, t, &y, jac),
            );
            // λ is the same with and without the slopes.
            let r = net.reactions().len();
            let (mut lam, mut lam_s, mut dlam) =
                (vec![[0.0; LANES]; r], vec![[0.0; LANES]; r], vec![[0.0; LANES]; r]);
            net.rates_lanes(rho, t, &mut lam, None);
            net.rates_lanes(rho, t, &mut lam_s, Some(&mut dlam));
            proptest::prop_assert!(lam.iter().zip(&lam_s).all(|(a, b)| a.map(f64::to_bits) == b.map(f64::to_bits)));
            let (rho, t, y) = stage_inputs::<1>(n, &mut u);
            let lane: Vec<f64> = y.iter().map(|v| v[0]).collect();
            check_stages(
                net,
                (rho, t, y),
                |ydot| net.ydot(rho[0], t[0], &lane, ydot.as_flattened_mut()),
                |jac| net.jac(rho[0], t[0], &lane, jac.as_flattened_mut()),
            );
        }
    }

    #[test]
    fn aprox13_jacobian_sparsity_roughly_matches_paper() {
        // §VI: "about 40% of the dense matrix [is] empty" for the 13-isotope
        // network (14×14 with temperature). Our forward-only chain lacks the
        // reverse and (α,p)(p,γ) links, so it is somewhat emptier (~60%);
        // the structure — dense He/T rows and columns, near-tridiagonal
        // chain block — is the same, which is what the sparse-solver
        // ablation exercises.
        let net = Aprox13::new();
        let p = net.sparsity();
        assert_eq!(p.dim(), 14);
        let empty = p.empty_fraction();
        assert!(
            empty > 0.35 && empty < 0.70,
            "empty fraction {empty} out of plausible range"
        );
    }

    /// Wrapper disabling screening: the analytic Jacobian deliberately
    /// neglects d(screening)/dT (weak screening), so the FD comparison of
    /// the temperature column is run unscreened.
    struct NoScreen(Aprox13);
    impl Network for NoScreen {
        fn name(&self) -> &'static str {
            "aprox13-noscreen"
        }
        fn species(&self) -> &[Species] {
            self.0.species()
        }
        fn reactions(&self) -> &[Reaction] {
            self.0.reactions()
        }
        fn t_needs(&self) -> TNeeds {
            self.0.t_needs()
        }
        fn screening(&self) -> bool {
            false
        }
    }

    /// An aprox13 state with every species present, and its (ρ, T).
    fn jacobian_probe(net: &dyn Network) -> (Vec<f64>, f64, f64) {
        let mut x = vec![0.01; net.nspec()];
        x[0] = 0.2;
        x[1] = 0.4;
        x[2] = 0.29;
        (molar(net, &x), 5e6, 2.5e9)
    }

    /// ∂Ẏᵢ/∂Yⱼ against central differences of `ydot`.
    fn check_species_block(net: &dyn Network) {
        let n = net.nspec();
        let m = n + 1;
        let (y, rho, t) = jacobian_probe(net);
        let mut jac = vec![0.0; m * m];
        net.jac(rho, t, &y, &mut jac);
        let mut ydot0 = vec![0.0; n];
        net.ydot(rho, t, &y, &mut ydot0);
        for j in 0..n {
            // h must be large enough that Δf clears the round-off floor of
            // |f| ~ 1e4 at these conditions; rates are at most cubic in Y so
            // central differences stay accurate at h ~ 1% of Y.
            let h = (y[j].abs() * 1e-2).max(1e-8);
            let mut yp = y.clone();
            yp[j] += h;
            let mut ym = y.clone();
            ym[j] -= h;
            let mut ydot1 = vec![0.0; n];
            net.ydot(rho, t, &yp, &mut ydot1);
            let mut ydotm = vec![0.0; n];
            net.ydot(rho, t, &ym, &mut ydotm);
            for i in 0..n {
                let fd = (ydot1[i] - ydotm[i]) / (2.0 * h);
                let an = jac[i * m + j];
                let row_scale = ydot0.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
                let tol = 1e-3 * fd.abs().max(an.abs()) + 1e-9 * row_scale + 1e-300;
                assert!(
                    (an - fd).abs() < tol,
                    "{}: J[{i}][{j}]: analytic {an} vs fd {fd}",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn analytic_jacobian_matches_finite_difference() {
        // Screening does not depend on Y, so the species block must match
        // screened (every ∂r/∂Y_j carrying the same enhanced λ as r) as well
        // as unscreened; at this state the C+C factor is ~1.25.
        check_species_block(&Aprox13::new());
        let net = NoScreen(Aprox13::new());
        check_species_block(&net);
        let n = net.nspec();
        let m = n + 1;
        let (y, rho, t) = jacobian_probe(&net);
        let mut jac = vec![0.0; m * m];
        net.jac(rho, t, &y, &mut jac);
        // Temperature column (central difference).
        let ht = t * 1e-6;
        let mut ydot1 = vec![0.0; n];
        net.ydot(rho, t + ht, &y, &mut ydot1);
        let mut ydotm = vec![0.0; n];
        net.ydot(rho, t - ht, &y, &mut ydotm);
        for i in 0..n {
            let fd = (ydot1[i] - ydotm[i]) / (2.0 * ht);
            let an = jac[i * m + n];
            let scale = fd.abs().max(an.abs()).max(1e-300);
            if scale > 1e-300 {
                assert!(
                    (an - fd).abs() / scale < 1e-2,
                    "dYdot[{i}]/dT: analytic {an} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn jacobian_respects_declared_sparsity() {
        // Every network's declared pattern must be a superset of the
        // numerically nonzero Jacobian entries — the sparse LU only
        // allocates storage for declared slots, so an undeclared
        // nonzero would be silently dropped. Probe several (ρ, T, Y)
        // states so rate cutoffs don't hide couplings.
        let nets: [&dyn Network; 4] = [
            &CBurn2::new(),
            &TripleAlpha::new(),
            &Iso7::new(),
            &Aprox13::new(),
        ];
        for net in nets {
            let n = net.nspec();
            let m = n + 1;
            let p = net.sparsity();
            assert_eq!(p.dim(), m);
            for (rho, t) in [(5e6, 3e9), (1e8, 5e9), (1e4, 5e8)] {
                let mut y = vec![0.01; n];
                y[0] = 0.05;
                let mut jac = vec![0.0; m * m];
                net.jac(rho, t, &y, &mut jac);
                for r in 0..n {
                    for c in 0..m {
                        if jac[r * m + c] != 0.0 {
                            assert!(
                                p.contains(r, c),
                                "{}: nonzero J[{r}][{c}] outside pattern",
                                net.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod iso7_tests {
    use super::*;
    use crate::species::mass_to_molar;

    #[test]
    fn iso7_structure_and_conservation() {
        let net = Iso7::new();
        assert_eq!(net.nspec(), 7);
        assert_eq!(net.index_of("ni56"), 6);
        let mut y = vec![0.0; 7];
        mass_to_molar(net.species(), &[0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0], &mut y);
        let mut ydot = vec![0.0; 7];
        net.ydot(1e7, 3e9, &y, &mut ydot);
        let sum: f64 = net.species().iter().zip(&ydot).map(|(s, &d)| s.a * d).sum();
        let scale: f64 = ydot.iter().map(|d| d.abs()).sum::<f64>().max(1e-300);
        assert!((sum / scale).abs() < 1e-12, "nucleons: {sum}");
        assert!(net.eps(1e7, 3e9, &y) > 0.0);
    }

    #[test]
    fn iso7_is_cheaper_than_aprox13_but_same_shape() {
        // The point of iso7: same qualitative chain, 8×8 Jacobian instead
        // of 14×14 — the N² linear-solve scaling of §IV-B.
        let i7 = Iso7::new();
        let a13 = Aprox13::new();
        let p7 = i7.sparsity();
        let p13 = a13.sparsity();
        assert!(p7.dim() < p13.dim());
        assert!(p7.nnz() < p13.nnz());
        // Both burn C/O exothermically at detonation conditions.
        let mut y7 = vec![0.0; 7];
        mass_to_molar(i7.species(), &[0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0], &mut y7);
        let mut y13 = vec![0.0; 13];
        let mut x13 = vec![0.0; 13];
        x13[1] = 0.5;
        x13[2] = 0.5;
        mass_to_molar(a13.species(), &x13, &mut y13);
        let e7 = i7.eps(1e7, 3e9, &y7);
        let e13 = a13.eps(1e7, 3e9, &y13);
        assert!(e7 > 0.0 && e13 > 0.0);
        assert!(
            (e7 / e13).log10().abs() < 1.0,
            "iso7 {e7:.2e} vs aprox13 {e13:.2e} should be within 10×"
        );
    }
}
