//! The reacting steps do not depend on the schedule. A MAESTROeX step and a
//! Castro burn sweep are run at top level, where their per-fab passes and
//! the burn's chunks spread over the worker pool, and nested inside a pool
//! task, where every region runs inline on one thread: the state bits, the
//! burn statistics (released energy by its bits) and the failed zones' ids
//! must agree. The Castro sweep is also held to a serial reference pass
//! straight through `Burner::burn_all`, which numbers zones in sweep order
//! and sums their energy zone by zone.

#[path = "pins/reacting_level.rs"]
mod reacting_level;

use exastro_amr::{
    BoxArray, CoordSys, DistStrategy, DistributionMapping, Geometry, IndexBox, MultiFab,
};
use exastro_castro::{BurnOptions, BurnStats, StateLayout};
use exastro_maestro::{bubble_maestro, init_bubble, BubbleParams, LmLayout, StepError};
use exastro_microphysics::{
    BdfErrorKind, BurnFailure, BurnFaultConfig, BurnerConfig, CBurn2, Network, StellarEos, ZoneBurn,
};
use reacting_level::{burn_reacting_level, reacting_level};
use std::fmt::Debug;
use std::sync::Mutex;

/// `run()` at top level, then in each of two pool tasks; every nested
/// result must equal the top-level one, which is returned.
fn same_on_every_schedule<T: PartialEq + Debug + Send>(run: impl Fn() -> T + Sync) -> T {
    let top = run();
    let nested = Mutex::new(Vec::new());
    exastro_parallel::par_index_each(2, usize::MAX, |_| {
        let r = run();
        nested.lock().unwrap().push(r);
    });
    let nested = nested.into_inner().unwrap();
    assert_eq!(nested.len(), 2);
    for r in &nested {
        assert_eq!(r, &top, "nested inline run != top-level pooled run");
    }
    top
}

/// Every value of every fab, ghosts included.
fn bits(state: &MultiFab) -> Vec<u64> {
    (0..state.nfabs())
        .flat_map(|i| state.fab(i).data().iter().map(|v| v.to_bits()))
        .collect()
}

/// The statistics with the released energy taken out as its bits.
fn stats_bits(b: &BurnStats) -> (BurnStats, u64) {
    let counts = BurnStats {
        energy_released: 0.0,
        ..b.clone()
    };
    (counts, b.energy_released.to_bits())
}

fn failed_ids(failures: &[BurnFailure]) -> Vec<u64> {
    failures.iter().map(|f| f.zone).collect()
}

/// A rescued fault (one rung fails) or an unrecoverable one.
fn faults(rungs_to_fail: u32) -> BurnFaultConfig {
    BurnFaultConfig {
        seed: 38,
        rate: 0.05,
        rungs_to_fail,
        error: BdfErrorKind::MaxSteps,
    }
}

/// `castro::burn_state`'s sweep of the reacting level as one serial pass
/// in sweep order through `Burner::burn_all`: its statistics and the ids
/// of the zones that failed every rung.
fn reference_sweep(faults: BurnFaultConfig) -> (BurnStats, Vec<u64>) {
    let (geom, state, layout) = reacting_level();
    let (net, eos) = (CBurn2::new(), StellarEos);
    let opts = BurnOptions::default();
    let (mut heads, mut xs, mut zone) = (Vec::new(), Vec::new(), 0);
    for f in 0..state.nfabs() {
        let fab = state.fab(f);
        for iv in state.valid_box(f).iter() {
            let (rho, t) = (
                fab.get(iv, StateLayout::RHO),
                fab.get(iv, StateLayout::TEMP),
            );
            if t >= opts.min_temp && rho >= opts.min_dens {
                heads.push((zone, rho, t));
                let x =
                    (0..layout.nspec).map(|s| (fab.get(iv, layout.spec(s)) / rho).clamp(0.0, 1.0));
                xs.push(x.collect::<Vec<_>>());
            }
            zone += 1;
        }
    }
    let zones: Vec<ZoneBurn> = heads
        .iter()
        .zip(&xs)
        .map(|(&(zone, rho, t0), x0)| ZoneBurn { zone, rho, t0, x0 })
        .collect();
    let burner = BurnerConfig {
        faults: Some(faults),
        ..Default::default()
    }
    .build(&net, &eos);
    let mut stats = BurnStats {
        skipped: zone - zones.len() as u64,
        ..Default::default()
    };
    let mut failed = Vec::new();
    for (zb, res) in zones.iter().zip(burner.burn_all(&zones, 1e-8)) {
        match res {
            Ok(rec) => {
                stats.record(&rec);
                stats.energy_released += rec.outcome.enuc * zb.rho * geom.cell_volume();
            }
            Err(f) => failed.push(f.zone),
        }
    }
    (stats, failed)
}

#[test]
fn castro_burn_sweep_is_schedule_free_and_matches_the_serial_pass() {
    let (stats, failed) = reference_sweep(faults(1));
    assert!(failed.is_empty() && stats.recovered > 0, "{stats:?}");
    let rescued = same_on_every_schedule(|| {
        let (state, res) = burn_reacting_level(faults(1));
        (bits(&state), stats_bits(&res.unwrap()))
    });
    assert_eq!(rescued.1, stats_bits(&stats));

    let (_, failed) = reference_sweep(faults(99));
    assert!(!failed.is_empty());
    let doomed = same_on_every_schedule(|| {
        let (state, res) = burn_reacting_level(faults(99));
        (bits(&state), failed_ids(&res.unwrap_err()))
    });
    assert_eq!(doomed.1, failed);
}

/// One step of a 16³ reacting bubble in eight boxes with `faults`
/// injected: the state bits and the step's burn counts, or the failed
/// zones' ids.
fn bubble_step(faults: BurnFaultConfig) -> (Vec<u64>, Result<[u64; 11], Vec<u64>>) {
    let geom = Geometry::new(
        IndexBox::cube(16),
        [0.0; 3],
        [3.6e7; 3],
        [true, true, false],
        CoordSys::Cartesian,
    );
    let ba = BoxArray::decompose(geom.domain(), 8, 4);
    let dm = DistributionMapping::new(&ba, 2, DistStrategy::Sfc);
    let (eos, net) = (StellarEos, CBurn2::new());
    let layout = LmLayout::new(net.nspec());
    let mut state = MultiFab::new(ba, dm, layout.ncomp(), 1);
    let base = init_bubble(
        &mut state,
        &geom,
        &layout,
        &eos,
        &net,
        &BubbleParams::default(),
    );
    let mut maestro = bubble_maestro(&eos, &net, base);
    maestro.burn_faults = Some(faults);
    let dt = maestro.estimate_dt(&state, &geom).min(4e-3);
    let res = match maestro.advance(&mut state, &geom, dt) {
        Ok(s) => Ok([
            s.burn_zones,
            s.burn_skipped,
            s.burn_steps,
            s.burn_newton_iters,
            s.burn_retries,
            s.burn_recovered,
            s.burn_recovered_relaxed,
            s.burn_recovered_subcycle,
            s.burn_offloaded,
            s.max_temp.to_bits(),
            s.max_w.to_bits(),
        ]),
        Err(StepError::Burn(f)) => Err(failed_ids(&f)),
        Err(e) => panic!("unexpected step error {e:?}"),
    };
    (bits(&state), res)
}

#[test]
fn maestro_reacting_step_is_schedule_free() {
    let (_, rescued) = same_on_every_schedule(|| bubble_step(faults(1)));
    let counts = rescued.unwrap();
    assert!(counts[5] > 0, "an injected fault is rescued: {counts:?}");
    let (_, doomed) = same_on_every_schedule(|| bubble_step(faults(99)));
    assert!(!doomed.unwrap_err().is_empty());
}
