//! How many times the burner takes a network's rate stage in one reaction
//! half-step of the low-Mach bubble, pinned as a count. A burning zone
//! keeps each block's rates while its lanes' temperatures keep their bits,
//! so a change that goes back to evaluating the rates at every right-hand
//! side and Jacobian fails here on a number, not on a timing; so does one
//! that goes back to one-call evaluations, which the count reads as 0.

use exastro_bench::verify::{bubble_16, burn_bubble_half_step};
use exastro_microphysics::{BurnerConfig, Network};

#[test]
fn a_bubble_reaction_half_step_takes_the_rate_stage_a_pinned_number_of_times() {
    // The 16³ bubble of `tests/pins/bubble_step.rs`, burned for the first
    // Strang half of its step as `Maestro::advance` burns it.
    let net = Network::cburn2();
    let (mut state, layout, _, dt) = bubble_16(&net);
    let stats = burn_bubble_half_step(&net, &BurnerConfig::default(), &mut state, &layout, dt);
    println!(
        "{} zones, {} BDF steps, {} Newton iterations: {} rate-stage blocks",
        stats.zones, stats.total_steps, stats.newton_iters, stats.rate_stages
    );
    // Every zone is quiescent: two steps of one Newton iteration each (the
    // first at 10⁻³·dt, the second grown to cover the rest), so four
    // right-hand sides and Jacobians, 4 · 4096 / LANES = 4096 blocks if
    // each took the rate stage.
    assert_eq!(
        (stats.zones, stats.total_steps, stats.newton_iters),
        (4096, 2 * 4096, 2 * 4096)
    );
    assert_eq!(stats.rate_stages, RATE_STAGE_BLOCKS);
}

/// Recorded when the burner began keeping each block's rates (4 534 of
/// 8 192 when a zone took six steps); re-recorded when the BDF took VODE's
/// step-growth limits and a zone two.
const RATE_STAGE_BLOCKS: u64 = 2638;
