//! How many times the burner takes a network's rate stage in one reaction
//! half-step of the low-Mach bubble, pinned as a count. A burning zone
//! keeps each block's rates while its lanes' temperatures keep their bits,
//! so a change that goes back to evaluating the rates at every right-hand
//! side and Jacobian fails here on a number, not on a timing.

use exastro_bench::verify::{bubble_16, burn_bubble_half_step};
use exastro_microphysics::{BurnerConfig, CBurn2, CsrPattern, Network, Reaction, Species, TNeeds};
use exastro_parallel::LANES;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// CBurn2 with every method forwarded, counting rate-stage evaluations:
/// `blocks` those of [`Network::rates_lanes`], `calls` those that the
/// one-call entries (`ydot`, `jac` and their lane versions) take.
#[derive(Default)]
struct Counting {
    net: CBurn2,
    blocks: AtomicU64,
    calls: AtomicU64,
}

impl Network for Counting {
    fn name(&self) -> &'static str {
        self.net.name()
    }
    fn species(&self) -> &[Species] {
        self.net.species()
    }
    fn reactions(&self) -> &[Reaction] {
        self.net.reactions()
    }
    fn screening(&self) -> bool {
        self.net.screening()
    }
    fn nspec(&self) -> usize {
        self.net.nspec()
    }
    fn index_of(&self, name: &str) -> usize {
        self.net.index_of(name)
    }
    fn t_needs(&self) -> TNeeds {
        self.net.t_needs()
    }
    fn ydot(&self, rho: f64, t: f64, y: &[f64], ydot: &mut [f64]) {
        self.calls.fetch_add(1, Relaxed);
        self.net.ydot(rho, t, y, ydot)
    }
    fn ydot_lanes(
        &self,
        rho: [f64; LANES],
        t: [f64; LANES],
        y: &[[f64; LANES]],
        ydot: &mut [[f64; LANES]],
    ) {
        self.calls.fetch_add(1, Relaxed);
        self.net.ydot_lanes(rho, t, y, ydot)
    }
    fn rates_lanes(
        &self,
        rho: [f64; LANES],
        t: [f64; LANES],
        lam: &mut [[f64; LANES]],
        dlam: Option<&mut [[f64; LANES]]>,
    ) {
        self.blocks.fetch_add(1, Relaxed);
        self.net.rates_lanes(rho, t, lam, dlam)
    }
    fn ydot_from_rates(
        &self,
        rho: [f64; LANES],
        lam: &[[f64; LANES]],
        y: &[[f64; LANES]],
        ydot: &mut [[f64; LANES]],
    ) {
        self.net.ydot_from_rates(rho, lam, y, ydot)
    }
    fn eps(&self, rho: f64, t: f64, y: &[f64]) -> f64 {
        self.calls.fetch_add(1, Relaxed);
        self.net.eps(rho, t, y)
    }
    fn jac(&self, rho: f64, t: f64, y: &[f64], jac: &mut [f64]) {
        self.calls.fetch_add(1, Relaxed);
        self.net.jac(rho, t, y, jac)
    }
    fn jac_lanes(
        &self,
        rho: [f64; LANES],
        t: [f64; LANES],
        y: &[[f64; LANES]],
        jac: &mut [[f64; LANES]],
    ) {
        self.calls.fetch_add(1, Relaxed);
        self.net.jac_lanes(rho, t, y, jac)
    }
    fn jac_from_rates(
        &self,
        rho: [f64; LANES],
        lam: &[[f64; LANES]],
        dlam: &[[f64; LANES]],
        y: &[[f64; LANES]],
        jac: &mut [[f64; LANES]],
    ) {
        self.net.jac_from_rates(rho, lam, dlam, y, jac)
    }
    fn sparsity(&self) -> CsrPattern {
        self.net.sparsity()
    }
}

#[test]
fn a_bubble_reaction_half_step_takes_the_rate_stage_a_pinned_number_of_times() {
    // The 16³ bubble of `tests/pins/bubble_step.rs`, burned for the first
    // Strang half of its step as `Maestro::advance` burns it.
    let net = Counting::default();
    let (mut state, layout, _, dt) = bubble_16(&net);
    net.blocks.store(0, Relaxed);
    net.calls.store(0, Relaxed);
    let stats = burn_bubble_half_step(&net, &BurnerConfig::default(), &mut state, &layout, dt);
    let (blocks, calls) = (net.blocks.load(Relaxed), net.calls.load(Relaxed));
    println!(
        "{} zones, {} BDF steps, {} Newton iterations: {blocks} rate-stage blocks, {calls} one-call evaluations",
        stats.zones, stats.total_steps, stats.newton_iters
    );
    // Every zone is quiescent: two steps of one Newton iteration each (the
    // first at 10⁻³·dt, the second grown to cover the rest), so four
    // right-hand sides and Jacobians, 4 · 4096 / LANES = 4096 blocks if
    // each took the rate stage.
    assert_eq!(
        (stats.zones, stats.total_steps, stats.newton_iters),
        (4096, 2 * 4096, 2 * 4096)
    );
    assert_eq!(calls, 0, "the burner takes its rates through the stages");
    assert_eq!(blocks, RATE_STAGE_BLOCKS);
}

/// Recorded when the burner began keeping each block's rates (4 534 of
/// 8 192 when a zone took six steps); re-recorded when the BDF took VODE's
/// step-growth limits and a zone two.
const RATE_STAGE_BLOCKS: u64 = 2638;
