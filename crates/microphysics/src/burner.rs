//! The zone burner: couples a reaction [`Network`] to an [`Eos`] and
//! integrates the resulting stiff system with the BDF integrator.
//!
//! The integrated state is `[Y_1 … Y_n, T]`: molar abundances plus the
//! temperature, with self-heating `dT/dt = ε / c_v` at constant density
//! (the standard Strang-split burn of Castro/MAESTROeX). It is exactly this
//! feedback loop — energy release raises T, which raises the T⁴⁰-sensitive
//! rates — that produces the thermonuclear runaways the paper studies, and
//! it is why the ODE system is stiff enough to demand an implicit solver.
//!
//! There is one [`Burner`], built by [`BurnerConfig::build`]. A level is
//! burned by [`Burner::burn_multifab`], whose zones go through
//! [`Burner::burn_all`], which advances cost-similar zones in lockstep SoA
//! batches ([`crate::batch`]) and hands whatever a batch cannot hold —
//! dropouts, fault-injected zones, leftovers — to the retry ladder of
//! [`crate::recovery`] (direct → relaxed tolerances → subcycling → §VI
//! outlier offload), which is also all of [`Burner::burn_zone`]. A rung is
//! the same integrator on a batch of one lane. The chunks and the direct,
//! relaxed and subcycle rungs share one pattern-specialized sparse LU
//! compiled from the network's declared sparsity; only the offload rung is
//! dense.

use crate::batch::{gather_lane, scatter_lane, BatchWorkspace, LaneStatus};
use crate::constants::{MEV_TO_ERG, N_A};
use crate::eos::{DensityStage, Eos};
use crate::integrator::{
    BdfError, BdfErrorKind, BdfIntegrator, BdfOptions, BdfStats, LaneScratch, OdeSystem,
};
use crate::network::Network;
use crate::recovery::{
    validate_outcome, BurnFailure, BurnFaultConfig, LadderRung, RecoveredBurn, RetryLadder,
};
use crate::sparse::SparseLu;
use crate::species::{energy_rate_lanes, mass_to_molar, molar_to_mass, Composition};
use exastro_amr::{for_each_row, Array4, Array4Mut, MultiFab};
use exastro_parallel::{par_each_mut, Tasks, WorkerPool, LANES};
use exastro_telemetry::Telemetry;
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// Result of burning one zone for a time interval.
#[derive(Clone, Debug)]
pub struct BurnOutcome {
    /// Final mass fractions.
    pub x: Vec<f64>,
    /// Final temperature, K.
    pub t: f64,
    /// Specific nuclear energy released over the interval, erg/g
    /// (positive = exothermic).
    pub enuc: f64,
    /// Integrator statistics.
    pub stats: BdfStats,
}

/// One zone's burn request, as collected by a driver sweep. Its mass
/// fractions are borrowed, so a sweep gathers them into one buffer.
#[derive(Clone, Copy, Debug)]
pub struct ZoneBurn<'x> {
    /// Deterministic flat zone index (fault injection and failure reports
    /// key on it).
    pub zone: u64,
    /// Density, g/cm³.
    pub rho: f64,
    /// Entry temperature, K.
    pub t0: f64,
    /// Entry mass fractions.
    pub x0: &'x [f64],
}

/// The self-heating burn of one zone at fixed density as an ODE system.
struct BurnSystem<'a> {
    net: &'a Network,
    eos: &'a dyn Eos,
    rho: f64,
    /// The last two EOS density stages at `rho`, newest first, each with
    /// the bits of the μ_e it was taken at. Burning moves μ_e by rounding
    /// if at all, and its last bit may flip back and forth.
    density: Cell<[Option<(u64, DensityStage)>; 2]>,
    /// The last c_v and the bits of (T, abar, zbar) it was taken at: a
    /// [`Composition`] is those means and nothing else, so at the fixed
    /// `rho` they fix the temperature stage's input.
    cv: Cell<Option<([u64; 3], f64)>>,
}

impl<'a> BurnSystem<'a> {
    fn new(net: &'a Network, eos: &'a dyn Eos, rho: f64) -> Self {
        BurnSystem {
            net,
            eos,
            rho,
            density: Cell::new([None; 2]),
            cv: Cell::new(None),
        }
    }

    fn composition(&self, y: &[f64]) -> Composition {
        let n = self.net.nspec();
        Composition::from_molar_fractions(self.net.species(), &y[..n])
    }

    /// The heat capacity at `temp` and `comp`: `eval_rt`'s, bit for bit.
    /// The last value is returned again while (T, abar, zbar) keep their
    /// bits, and the density stage is taken again only for a μ_e whose
    /// bits neither kept stage has.
    fn cv(&self, temp: f64, comp: &Composition) -> f64 {
        let key = [temp, comp.abar, comp.zbar].map(f64::to_bits);
        if let Some((_, cv)) = self.cv.get().filter(|(k, _)| *k == key) {
            return cv;
        }
        let mu_e = comp.mu_e().to_bits();
        let kept = self.density.get();
        let d = match kept.iter().flatten().find(|(k, _)| *k == mu_e) {
            Some(&(_, d)) => d,
            None => {
                let d = self.eos.density_stage(self.rho, comp);
                self.density.set([Some((mu_e, d)), kept[0]]);
                d
            }
        };
        let cv = self.eos.temperature_stage(self.rho, temp, comp, &d).cv;
        self.cv.set(Some((key, cv)));
        cv
    }
}

/// The rate stage of each [`LANES`]-wide block of a batch of burn systems,
/// kept while the block's temperatures keep their bits. It lives in the
/// stepping loop's [`LaneScratch`] and is emptied at the start of every
/// `integrate_lanes` call: the rates read each lane's ρ too, which holds
/// only within one call.
#[derive(Default)]
pub(crate) struct RateMemo {
    /// Per block: the bits of each lane's T its rows were taken at, and
    /// whether they include dλ/dT₉; `None` while empty.
    keys: Vec<Option<([u64; LANES], bool)>>,
    /// Per block: a λ row per reaction, then a dλ/dT₉ row per reaction.
    rows: Vec<[f64; LANES]>,
    /// Rate stages taken since the memo was last emptied.
    pub(crate) stages: u64,
}

impl RateMemo {
    /// Forget every block, and the count of rate stages taken.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.stages = 0;
    }

    /// The λ and dλ/dT₉ rows of `block` at its lanes' `rho` and `temp`
    /// (dλ/dT₉ only meaningful with `slopes`): the block's entry if every
    /// wanted lane's T has its bits and it holds what is asked for, else
    /// the rate stage of the whole block, taken again and kept.
    fn rates(
        &mut self,
        net: &Network,
        block: &Block,
        rho: [f64; LANES],
        temp: [f64; LANES],
        slopes: bool,
    ) -> (&[[f64; LANES]], &[[f64; LANES]]) {
        let r = net.reactions().len();
        let b = block.lane0 / LANES;
        if self.keys.len() <= b {
            self.keys.resize(b + 1, None);
            self.rows.resize((b + 1) * 2 * r, [0.0; LANES]);
        }
        let bits = temp.map(f64::to_bits);
        let hit = self.keys[b]
            .is_some_and(|(k, held)| (held || !slopes) && block.wanted().all(|l| k[l] == bits[l]));
        let (lam, dlam) = self.rows[b * 2 * r..][..2 * r].split_at_mut(r);
        if !hit {
            net.rates_lanes(rho, temp, lam, slopes.then_some(&mut *dlam));
            self.keys[b] = Some((bits, slopes));
            self.stages += 1;
        }
        (lam, dlam)
    }
}

impl OdeSystem for BurnSystem<'_> {
    fn dim(&self) -> usize {
        self.net.nspec() + 1
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let n = self.net.nspec();
        let temp = y[n].max(1e4);
        self.net.ydot(self.rho, temp, &y[..n], &mut dydt[..n]);
        let eps = crate::species::energy_rate(self.net.species(), &dydt[..n]);
        let cv = self.cv(temp, &self.composition(y));
        dydt[n] = eps / cv.max(1e-30);
    }

    fn jac(&self, _t: f64, y: &[f64], jac: &mut [f64]) {
        let n = self.net.nspec();
        let temp = y[n].max(1e4);
        self.net.jac(self.rho, temp, &y[..n], jac);
        let cv = self.cv(temp, &self.composition(y)).max(1e-30);
        temperature_row(self.net, [cv], jac.as_chunks_mut().0);
    }

    /// The network's abundance stage on each [`LANES`]-wide block of the
    /// batch that holds a wanted lane, on the block's [`RateMemo`] rows,
    /// then one [`BurnSystem::cv`] a wanted lane for the temperature row:
    /// [`BurnSystem::rhs`] lane by lane, bit for bit.
    fn rhs_lanes(
        lanes: &[Self],
        _t: f64,
        y: &[f64],
        want: &[bool],
        dydt: &mut [f64],
        scratch: &mut LaneScratch,
    ) {
        let net = lanes[0].net;
        let n = net.nspec();
        let w = lanes.len();
        scratch.rows.resize(2 * n, [0.0; LANES]);
        let (rows, f) = scratch.rows.split_at_mut(n);
        let memo = &mut scratch.rates;
        for_blocks(lanes, y, want, rows, |block, rho, temp, rows| {
            let (lam, _) = memo.rates(net, block, rho, temp, false);
            net.ydot_from_rates(rho, lam, rows, f);
            let eps = energy_rate_lanes(net.species(), f);
            let cv = block.cv(lanes, temp, rows);
            for l in block.wanted() {
                let lane = block.lane0 + l;
                for (i, fi) in f.iter().enumerate() {
                    dydt[i * w + lane] = fi[l];
                }
                dydt[n * w + lane] = eps[l] / cv[l].max(1e-30);
            }
        });
    }

    /// [`BurnSystem::jac`] lane by lane, bit for bit, in the way of
    /// [`BurnSystem::rhs_lanes`]. λ does not depend on whether the slopes
    /// were taken, so a block's rows from here also serve a later
    /// right-hand side at the same T.
    fn jac_lanes(
        lanes: &[Self],
        _t: f64,
        y: &[f64],
        want: &[bool],
        jacs: &mut [f64],
        scratch: &mut LaneScratch,
    ) {
        let net = lanes[0].net;
        let n = net.nspec();
        let mm = (n + 1) * (n + 1);
        scratch.rows.resize(n + mm, [0.0; LANES]);
        let (rows, jac) = scratch.rows.split_at_mut(n);
        let memo = &mut scratch.rates;
        for_blocks(lanes, y, want, rows, |block, rho, temp, rows| {
            let (lam, dlam) = memo.rates(net, block, rho, temp, true);
            net.jac_from_rates(rho, lam, dlam, rows, jac);
            let cv = block.cv(lanes, temp, rows).map(|cv| cv.max(1e-30));
            temperature_row(net, cv, jac);
            for l in block.wanted() {
                let lane = &mut jacs[(block.lane0 + l) * mm..][..mm];
                for (v, row) in lane.iter_mut().zip(jac.iter()) {
                    *v = row[l];
                }
            }
        });
    }
}

/// Row `n` of `W` burner Jacobians whose species rows are filled:
/// dṪ/dY_j = (1/cv) Σ_i B_i N_A J_ij, and dṪ/dT likewise from the
/// temperature column. (dc_v/d· terms neglected, as VODE-based burners do.)
fn temperature_row<const W: usize>(net: &Network, cv: [f64; W], jac: &mut [[f64; W]]) {
    let n = net.nspec();
    let m = n + 1;
    for j in 0..m {
        let mut deps = [0.0; W];
        for (i, s) in net.species().iter().enumerate() {
            for l in 0..W {
                deps[l] += s.bind_mev * jac[i * m + j][l];
            }
        }
        jac[n * m + j] = std::array::from_fn(|l| deps[l] * N_A * MEV_TO_ERG / cv[l]);
    }
}

/// One [`LANES`]-wide block of a batch of burn systems: its first lane,
/// how many of its lanes are in the batch, and which of those are wanted.
struct Block {
    lane0: usize,
    live: usize,
    want: [bool; LANES],
}

impl Block {
    /// The wanted lanes of the block.
    fn wanted(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live).filter(|&l| self.want[l])
    }

    /// Each wanted lane's [`BurnSystem::cv`] at its T and the abundances
    /// `rows`; the other lanes read 1.
    fn cv(
        &self,
        lanes: &[BurnSystem<'_>],
        temp: [f64; LANES],
        rows: &[[f64; LANES]],
    ) -> [f64; LANES] {
        let comp = Composition::from_molar_fraction_lanes(lanes[0].net.species(), rows);
        std::array::from_fn(|l| {
            if self.want[l] {
                lanes[self.lane0 + l].cv(temp[l], &comp[l])
            } else {
                1.0
            }
        })
    }
}

/// Call `f(block, ρ, T, abundance rows)` for every block of the SoA batch
/// `y` that holds a wanted lane. A short last block's padding lanes are
/// copies of its last lane, never wanted; `T` is floored as
/// [`BurnSystem::rhs`] floors it.
fn for_blocks(
    lanes: &[BurnSystem<'_>],
    y: &[f64],
    want: &[bool],
    rows: &mut [[f64; LANES]],
    mut f: impl FnMut(&Block, [f64; LANES], [f64; LANES], &[[f64; LANES]]),
) {
    let w = lanes.len();
    let n = rows.len();
    for lane0 in (0..w).step_by(LANES) {
        let live = LANES.min(w - lane0);
        let block = Block {
            lane0,
            live,
            want: std::array::from_fn(|l| l < live && want[lane0 + l]),
        };
        if block.want == [false; LANES] {
            continue;
        }
        let lane: [usize; LANES] = std::array::from_fn(|l| lane0 + l.min(live - 1));
        let rho = lane.map(|k| lanes[k].rho);
        let temp = lane.map(|k| y[n * w + k].max(1e4));
        for (i, row) in rows.iter_mut().enumerate() {
            *row = lane.map(|k| y[i * w + k]);
        }
        f(&block, rho, temp, rows);
    }
}

/// Burner construction shared by the Castro and MAESTROeX burn glue: base
/// integrator options, retry ladder, fault injection and batch width in
/// one value, turned into a [`Burner`] by [`BurnerConfig::build`].
#[derive(Clone, Debug)]
pub struct BurnerConfig {
    /// Integrator options of the chunks and of the direct and subcycle
    /// rungs (the relaxed rung loosens their tolerances).
    pub bdf: BdfOptions,
    /// The failure-recovery ladder.
    pub ladder: RetryLadder,
    /// Deterministic fault injection for tests and CI smoke runs.
    pub faults: Option<BurnFaultConfig>,
    /// Lanes a chunk of [`Burner::burn_all`] advances in lockstep (see
    /// [`crate::batch`]). A width below 2 disables batching: every zone
    /// climbs the ladder on its own.
    pub batch_width: usize,
}

impl Default for BurnerConfig {
    fn default() -> Self {
        BurnerConfig {
            bdf: BdfOptions::builder()
                .rtol(1e-8)
                .atol(1e-12)
                .build()
                .expect("default burn options are valid"),
            ladder: RetryLadder::default(),
            faults: None,
            batch_width: 8,
        }
    }
}

impl BurnerConfig {
    /// Build the burner this configuration describes: one integrator per
    /// distinct option set. The network's sparse LU is compiled here, once,
    /// and shared by the sparse ones; the offload rung stays dense (see
    /// [`crate::recovery::OffloadOptions`]).
    pub fn build<'a>(&self, net: &'a Network, eos: &'a dyn Eos) -> Burner<'a> {
        let lu = Arc::new(SparseLu::compile(&net.sparsity()));
        let relaxed = self.ladder.tol_relax.map(|f| {
            let mut o = self.bdf.clone();
            o.rtol *= f;
            o.atol.iter_mut().for_each(|a| *a *= f);
            BdfIntegrator::sparse(o, Arc::clone(&lu))
        });
        Burner {
            net,
            eos,
            width: self.batch_width,
            direct: BdfIntegrator::sparse(self.bdf.clone(), lu),
            relaxed,
            subcycles: self.ladder.subcycles,
            offload: self
                .ladder
                .offload
                .as_ref()
                .map(|o| BdfIntegrator::new(o.to_bdf())),
            faults: self.faults.clone(),
        }
    }
}

type BurnResult = Result<RecoveredBurn, Box<BurnFailure>>;

/// Results a participant holds before it takes the sweep's lock: a handful
/// of chunks' worth, so the lock is short and rare and no second
/// sweep-sized buffer exists.
const FLUSH_ZONES: usize = 64;

/// Batch-path counts of a sweep, reported once after its pool region as
/// the `solve[batch-sparse]` row.
#[derive(Default)]
struct BatchTally {
    /// Lanes that entered a batch.
    lanes: u64,
    /// Batched linear-algebra time, summed over lanes.
    solve_ns: u64,
}

/// What a sweep's participants share: the input-ordered result slots and
/// the batch tally.
struct Sweep {
    results: Vec<Option<BurnResult>>,
    tally: BatchTally,
}

/// One pool participant's side of a sweep: the batch workspace and SoA
/// scratch it reuses chunk after chunk, and the results and tally it has
/// not yet handed to the [`Sweep`].
#[derive(Default)]
struct Participant<'a> {
    ws: BatchWorkspace,
    sys: Vec<BurnSystem<'a>>,
    y: Vec<f64>,
    y_entry: Vec<f64>,
    lane_y: Vec<f64>,
    lane_y0: Vec<f64>,
    done: Vec<(usize, BurnResult)>,
    tally: BatchTally,
}

impl Participant<'_> {
    fn flush(&mut self, sweep: &Mutex<Sweep>) {
        let mut sweep = sweep.lock().expect("no participant panics under the lock");
        for (i, res) in self.done.drain(..) {
            sweep.results[i] = Some(res);
        }
        let t = std::mem::take(&mut self.tally);
        sweep.tally.lanes += t.lanes;
        sweep.tally.solve_ns += t.solve_ns;
    }
}

/// A batchable zone's sort key in [`Burner::burn_all`]: [`hot_first`] of
/// its temperature, its zone id and its input position. Ascending keys are
/// the order of a stable sort by `t0.total_cmp` descending, then zone id.
type SweepKey = (u64, u64, usize);

/// `t.total_cmp`'s order as an unsigned key, reversed, so that ascending
/// keys are descending temperatures. `total_cmp` compares the bits as an
/// `i64` after flipping every bit but the sign of a negative value;
/// flipping the sign bit as well turns that into an unsigned order.
fn hot_first(t: f64) -> u64 {
    let bits = t.to_bits() as i64;
    let key = (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63);
    !key
}

/// Where each of consecutive pieces of the given lengths starts.
fn prefix_sums(lens: &[usize]) -> Vec<usize> {
    lens.iter()
        .scan(0, |next, &len| {
            let start = *next;
            *next += len;
            Some(start)
        })
        .collect()
}

/// Cut `v` into consecutive pieces of the given lengths.
fn split_lengths<T>(mut v: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut v).split_at_mut(len);
            v = tail;
            head
        })
        .collect()
}

/// Integrates nuclear burning zone by zone ([`Burner::burn_zone`]) or a
/// sweep at a time ([`Burner::burn_all`]); see the module docs.
pub struct Burner<'a> {
    net: &'a Network,
    eos: &'a dyn Eos,
    width: usize,
    /// Chunks at `width` lanes; the direct and subcycle rungs at one.
    direct: BdfIntegrator,
    relaxed: Option<BdfIntegrator>,
    subcycles: Option<u32>,
    offload: Option<BdfIntegrator>,
    faults: Option<BurnFaultConfig>,
}

impl<'a> Burner<'a> {
    /// Burn every valid zone of `state` for `dt`: the one sweep over a
    /// level that Castro and MAESTROeX both run. `admit(arr, z, x)` reads
    /// the zone at cursor `z` of a fab's view and returns its `(ρ, T)`,
    /// having written its mass fractions into `x`, or `None` to skip it;
    /// the admitted zones go through [`Burner::burn_all`], and each burned
    /// zone is handed to `apply(arr, z, ρ, outcome)`, which writes it back
    /// and returns the energy it deposited, erg. Both run per fab on the
    /// worker pool and must touch only their own zone. Each burned zone is
    /// then folded into the returned [`BurnStats`], its energy summed into
    /// `energy_released`, in one pass in sweep order.
    ///
    /// A zone's id is its flat index in sweep order (fabs in order, each
    /// valid box x-fastest), skipped zones counted, so both Strang halves
    /// of a step give a zone the same id: fault injection and failure
    /// reports key on it. A zone that fails every rung does not stop the
    /// sweep; the `Err` lists every such zone, and `state` is then
    /// partially burned and must be discarded.
    pub fn burn_multifab<A, S>(
        &self,
        state: &mut MultiFab,
        dt: f64,
        admit: A,
        apply: S,
    ) -> Result<BurnStats, Vec<BurnFailure>>
    where
        A: Fn(&Array4<'_>, usize, &mut [f64]) -> Option<(f64, f64)> + Sync,
        S: Fn(&Array4Mut<'_>, usize, f64, &BurnOutcome) -> f64 + Sync,
    {
        let n = self.net.nspec();
        let vbs = state.valid_boxes();
        let sizes: Vec<usize> = vbs.iter().map(|b| b.num_zones() as usize).collect();
        let firsts: Vec<usize> = prefix_sums(&sizes);
        let valid: usize = sizes.iter().sum();
        // The gather, into one buffer sized once: fab f owns the stretch of
        // its valid zones' sweep ids and packs the zones it admits at the
        // stretch's front.
        let mut xs = vec![0.0; valid * n];
        let blank = ZoneBurn {
            zone: 0,
            rho: 0.0,
            t0: 0.0,
            x0: &[],
        };
        let mut zones = vec![blank; valid];
        let mut stretches: Vec<(&mut [f64], &mut [ZoneBurn<'_>], usize)> =
            split_lengths(&mut xs, sizes.iter().map(|&len| len * n))
                .into_iter()
                .zip(split_lengths(&mut zones, sizes.iter().copied()))
                .map(|(x, z)| (x, z, 0))
                .collect();
        let level: &MultiFab = state;
        par_each_mut(&mut stretches, |f, (xs, zones, admitted)| {
            let arr = level.fab(f).array();
            let (mut zone, mut k) = (firsts[f] as u64, 0);
            for_each_row(vbs[f], |start, len| {
                let z0 = arr.zone(start.x(), start.y(), start.z());
                for z in z0..z0 + len {
                    if let Some((rho, t0)) = admit(&arr, z, &mut xs[k * n..(k + 1) * n]) {
                        zones[k] = ZoneBurn {
                            zone,
                            rho,
                            t0,
                            ..blank
                        };
                        k += 1;
                    }
                    zone += 1;
                }
            });
            let xs: &[f64] = std::mem::take::<&mut [f64]>(xs);
            for (zb, x0) in zones[..k].iter_mut().zip(xs.chunks_exact(n)) {
                zb.x0 = x0;
            }
            *admitted = k;
        });
        let counts: Vec<usize> = stretches.into_iter().map(|s| s.2).collect();
        let starts = prefix_sums(&counts);
        // Close the gaps between the stretches, fab by fab in order.
        for (f, &count) in counts.iter().enumerate() {
            zones.copy_within(firsts[f]..firsts[f] + count, starts[f]);
        }
        let burned: usize = counts.iter().sum();
        zones.truncate(burned);
        let recs = self.burn_all(&zones, dt);
        // The write-back: each fab applies its own burned zones, keeping
        // each zone's deposited energy for the fold below.
        let mut energy = vec![0.0; burned];
        let mut fabs: Vec<_> = state
            .fab_views_mut()
            .into_iter()
            .zip(split_lengths(&mut energy, counts.iter().copied()))
            .collect();
        par_each_mut(&mut fabs, |f, (arr, energy)| {
            let (lo, size) = (vbs[f].lo(), vbs[f].size());
            let (nx, ny) = (size.x() as u64, size.y() as u64);
            let mine = starts[f]..starts[f] + counts[f];
            for ((zb, res), e) in zones[mine.clone()]
                .iter()
                .zip(&recs[mine])
                .zip(energy.iter_mut())
            {
                if let Ok(rec) = res {
                    let local = zb.zone - firsts[f] as u64;
                    let z = arr.zone(
                        lo.x() + (local % nx) as i32,
                        lo.y() + (local / nx % ny) as i32,
                        lo.z() + (local / (nx * ny)) as i32,
                    );
                    *e = apply(arr, z, zb.rho, &rec.outcome);
                }
            }
        });
        drop(fabs);
        let mut stats = BurnStats {
            skipped: (valid - burned) as u64,
            ..Default::default()
        };
        let mut failures: Vec<BurnFailure> = Vec::new();
        // One serial fold in sweep order: the order of the energy sum fixes
        // its bits, and `record` charges retries to the caller's region.
        for (res, e) in recs.into_iter().zip(energy) {
            match res {
                Ok(rec) => {
                    stats.record(&rec);
                    stats.energy_released += e;
                }
                Err(f) => failures.push(*f),
            }
        }
        if failures.is_empty() {
            Ok(stats)
        } else {
            Err(failures)
        }
    }

    /// Burn a sweep's worth of zones for `dt` seconds each. Results come
    /// back in input order. Zones are sorted by temperature (stable,
    /// deterministic) before chunking so cost-similar zones share a batch;
    /// a cold lane riding a hot batch is charged the hot step count, which
    /// is exactly the warp-level serialization the §VI heatmaps quantify.
    /// Fault-injected zones bypass the batch, serially on the calling
    /// thread, so the injection schedule sees exactly the ladder's attempt
    /// sequence. The chunks are then drained by [`WorkerPool::global`],
    /// hottest first: which zones share a chunk is fixed by the sort, so
    /// no result depends on who burned it. The whole sweep is one `burner`
    /// telemetry region, opened here.
    pub fn burn_all(
        &self,
        zones: &[ZoneBurn<'_>],
        dt: f64,
    ) -> Vec<Result<RecoveredBurn, Box<BurnFailure>>> {
        let _prof = Telemetry::region("burner");
        Telemetry::record_zones(zones.len() as u64);
        let mut results: Vec<Option<BurnResult>> = (0..zones.len()).map(|_| None).collect();
        let mut batchable: Vec<SweepKey> = Vec::with_capacity(zones.len());
        for (i, zb) in zones.iter().enumerate() {
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.zone_is_faulty(zb.zone))
            {
                results[i] = Some(self.climb(zb.zone, zb.rho, zb.t0, zb.x0, dt));
            } else {
                batchable.push((hot_first(zb.t0), zb.zone, i));
            }
        }
        // Hot zones batch with hot zones: similar step-size histories keep
        // occupancy high. The keys make the order total and deterministic
        // (bit-exact restarts resort identically).
        batchable.sort_unstable();
        let width = self.width.max(1);
        let sweep = Mutex::new(Sweep {
            results,
            tally: BatchTally::default(),
        });
        // Each participant claims the hottest unclaimed chunk (the sort is
        // longest-first) and burns it in its own workspace.
        let drain = |tasks: Tasks<'_>| {
            let mut p = Participant::default();
            while let Some(c) = tasks.next_task() {
                let chunk = &batchable[c * width..batchable.len().min((c + 1) * width)];
                self.burn_chunk(zones, chunk, dt, &mut p);
                if p.done.len() >= FLUSH_ZONES {
                    p.flush(&sweep);
                }
            }
            p.flush(&sweep);
        };
        WorkerPool::global().run(batchable.len().div_ceil(width), usize::MAX, &drain);
        let Sweep { results, tally } = sweep
            .into_inner()
            .expect("a participant's panic is rethrown by the pool first");
        if tally.lanes > 0 {
            Telemetry::record_ns("solve[batch-sparse]", tally.solve_ns);
        }
        results
            .into_iter()
            .map(|r| r.expect("every zone was burned"))
            .collect()
    }

    /// Burn one zone at density `rho` from temperature `t0` and mass
    /// fractions `x0` for `dt` seconds through the retry ladder, reporting
    /// either an annotated success or — when every configured rung fails —
    /// a structured failure. `zone` is the deterministic flat index used
    /// by fault injection and failure reporting.
    pub fn burn_zone(
        &self,
        zone: u64,
        rho: f64,
        t0: f64,
        x0: &[f64],
        dt: f64,
    ) -> Result<RecoveredBurn, Box<BurnFailure>> {
        let _prof = Telemetry::region("burner");
        Telemetry::record_zones(1);
        self.climb(zone, rho, t0, x0, dt)
    }

    /// Advance one chunk in lockstep; lanes that drop out (or fail
    /// validation) climb the ladder from their entry state. A chunk of one
    /// zone *is* the ladder's direct rung, so it climbs too rather than
    /// being integrated here and then again, identically, there. Runs
    /// inside the sweep's `burner` region.
    fn burn_chunk(
        &self,
        zones: &[ZoneBurn<'_>],
        chunk: &[SweepKey],
        dt: f64,
        p: &mut Participant<'a>,
    ) {
        if let [(_, _, i)] = *chunk {
            let zb = &zones[i];
            let res = self.climb(zb.zone, zb.rho, zb.t0, zb.x0, dt);
            p.done.push((i, res));
            return;
        }
        let w = chunk.len();
        let m = self.net.nspec() + 1;
        p.sys.clear();
        p.sys
            .extend(chunk.iter().map(|&(_, _, i)| self.system(zones[i].rho)));
        p.lane_y.resize(m, 0.0);
        p.lane_y0.resize(m, 0.0);
        p.y.resize(m * w, 0.0);
        for (lane, &(_, _, i)) in chunk.iter().enumerate() {
            self.entry_state(zones[i].t0, zones[i].x0, &mut p.lane_y0);
            scatter_lane(&p.lane_y0, w, lane, &mut p.y);
        }
        p.y_entry.clone_from(&p.y);
        self.direct
            .integrate_lanes(&p.sys, 0.0, dt, &mut p.y, &mut p.ws);
        let (reports, rate_stages) = p.ws.last_call();
        for (lane, &(_, _, i)) in chunk.iter().enumerate() {
            let zb = &zones[i];
            let report = &reports[lane];
            p.tally.solve_ns += report.stats.solve_ns;
            let in_batch = (report.status == LaneStatus::Completed)
                .then(|| {
                    gather_lane(&p.y_entry, w, lane, &mut p.lane_y0);
                    gather_lane(&p.y, w, lane, &mut p.lane_y);
                    self.outcome(&p.lane_y0, &p.lane_y, report.stats)
                })
                .filter(|out| validate_outcome(out).is_ok());
            let mut res = match in_batch {
                Some(outcome) => Ok(RecoveredBurn {
                    outcome,
                    rung: LadderRung::Direct,
                    retries: 0,
                    rate_stages: 0,
                }),
                // Dropout: re-burn from the entry state through the ladder
                // (bit-identical to a ladder-only burn), charging the zone
                // its share of the failed batch work as one extra retry.
                None => {
                    let mut stats = report.stats;
                    match self.climb(zb.zone, zb.rho, zb.t0, zb.x0, dt) {
                        Ok(mut rec) => {
                            stats.merge(&rec.outcome.stats);
                            rec.outcome.stats = stats;
                            rec.retries += 1;
                            Ok(rec)
                        }
                        Err(mut f) => {
                            stats.merge(&f.stats);
                            f.stats = stats;
                            f.attempts += 1;
                            Err(f)
                        }
                    }
                }
            };
            // The chunk's rate stages are charged to its first zone.
            if let (0, Ok(rec)) = (lane, &mut res) {
                rec.rate_stages = rate_stages;
            }
            p.done.push((i, res));
        }
        p.tally.lanes += w as u64;
    }

    /// Climb the retry ladder for one zone. The caller holds the `burner`
    /// telemetry region and has counted the zone — once, however many
    /// rungs (and subcycle pieces) it takes.
    fn climb(&self, zone: u64, rho: f64, t0: f64, x0: &[f64], dt: f64) -> BurnResult {
        // (rung, its integrator, sub-intervals): subcycling is the direct
        // integrator restarted on each piece of the interval.
        let rungs = [
            Some((LadderRung::Direct, &self.direct, 1)),
            self.relaxed
                .as_ref()
                .map(|i| (LadderRung::RelaxedTol, i, 1)),
            self.subcycles
                .map(|k| (LadderRung::Subcycle, &self.direct, k.max(1))),
            self.offload.as_ref().map(|i| (LadderRung::Offload, i, 1)),
        ];
        let mut stats = BdfStats::default();
        let mut last_err = BdfErrorKind::NonFinite;
        let mut last_rung = LadderRung::Direct;
        let mut attempts = 0u32;
        for (rung, integ, pieces) in rungs.into_iter().flatten() {
            let injected = self.faults.as_ref().filter(|f| f.injects(zone, attempts));
            attempts += 1;
            last_rung = rung;
            if let Some(f) = injected {
                last_err = f.error.clone();
                continue;
            }
            match self.attempt(integ, pieces, rho, t0, x0, dt) {
                Ok(mut outcome) => {
                    stats.merge(&outcome.stats);
                    match validate_outcome(&outcome) {
                        Ok(()) => {
                            outcome.stats = stats;
                            return Ok(RecoveredBurn {
                                outcome,
                                rung,
                                retries: attempts - 1,
                                rate_stages: 0,
                            });
                        }
                        Err(kind) => last_err = kind,
                    }
                }
                Err(e) => {
                    stats.merge(&e.stats);
                    last_err = e.kind;
                }
            }
        }
        Err(Box::new(BurnFailure {
            zone,
            rho,
            t0,
            x0: x0.to_vec(),
            rung_reached: last_rung,
            attempts,
            error: last_err,
            stats,
        }))
    }

    /// One ladder attempt: `pieces` integrations in sequence over equal
    /// sub-intervals, each restarting the Nordsieck history. Both arms
    /// carry the statistics of every piece that ran.
    fn attempt(
        &self,
        integ: &BdfIntegrator,
        pieces: u32,
        rho: f64,
        t0: f64,
        x0: &[f64],
        dt: f64,
    ) -> Result<BurnOutcome, BdfError> {
        let sub = dt / pieces as f64;
        let (mut t, mut x, mut enuc) = (t0, x0.to_vec(), 0.0);
        let mut stats = BdfStats::default();
        for _ in 0..pieces {
            match self.integrate(integ, rho, t, &x, sub) {
                Ok(piece) => {
                    stats.merge(&piece.stats);
                    t = piece.t;
                    x = piece.x;
                    enuc += piece.enuc;
                }
                Err(mut e) => {
                    stats.merge(&e.stats);
                    e.stats = stats;
                    return Err(e);
                }
            }
        }
        Ok(BurnOutcome { x, t, enuc, stats })
    }

    /// One integration of one zone — with [`Burner::outcome`], where every
    /// rung's [`BurnOutcome`] comes from. On failure the [`BdfError`]
    /// carries the work statistics of the failed integration, so the
    /// ladder can charge every rung's cost to the zone.
    fn integrate(
        &self,
        integ: &BdfIntegrator,
        rho: f64,
        t0: f64,
        x0: &[f64],
        dt: f64,
    ) -> Result<BurnOutcome, BdfError> {
        let mut y0 = vec![0.0; self.net.nspec() + 1];
        self.entry_state(t0, x0, &mut y0);
        let mut y = y0.clone();
        let res = integ.integrate(&self.system(rho), 0.0, dt, &mut y);
        let solve_ns = match &res {
            Ok(stats) => stats.solve_ns,
            Err(e) => e.stats.solve_ns,
        };
        Telemetry::record_ns(integ.solve_row(), solve_ns);
        res.map(|stats| self.outcome(&y0, &y, stats))
    }

    fn system(&self, rho: f64) -> BurnSystem<'a> {
        BurnSystem::new(self.net, self.eos, rho)
    }

    /// Write the integrated state `[Y_1 … Y_n, T]` at burn entry into `y`.
    fn entry_state(&self, t0: f64, x0: &[f64], y: &mut [f64]) {
        let n = self.net.nspec();
        assert_eq!(x0.len(), n);
        mass_to_molar(self.net.species(), x0, &mut y[..n]);
        y[n] = t0;
    }

    /// Turn an integrated state back into mass fractions, temperature and
    /// released energy (ladder attempts and completed batch lanes alike).
    fn outcome(&self, y0: &[f64], y: &[f64], stats: BdfStats) -> BurnOutcome {
        let n = self.net.nspec();
        let mut x = vec![0.0; n];
        molar_to_mass(self.net.species(), &y[..n], &mut x);
        // Renormalize against integration drift.
        let sum: f64 = x.iter().sum();
        if (sum - 1.0).abs() < 0.01 && sum > 0.0 {
            x.iter_mut().for_each(|xi| *xi /= sum);
        }
        let enuc = self
            .net
            .species()
            .iter()
            .enumerate()
            .map(|(i, s)| s.bind_mev * (y[i] - y0[i]))
            .sum::<f64>()
            * N_A
            * MEV_TO_ERG;
        BurnOutcome {
            x,
            t: y[n],
            enuc,
            stats,
        }
    }
}

/// A burn sweep's statistics, the one record both drivers report:
/// [`Burner::burn_multifab`] folds each [`RecoveredBurn`] in through
/// [`BurnStats::record`] (which also attributes ladder retries to the
/// region table), and a step's two Strang halves combine by
/// [`BurnStats::merge`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BurnStats {
    /// Zones burned.
    pub zones: u64,
    /// Zones skipped by temperature/density cutoffs.
    pub skipped: u64,
    /// Total integrator steps over all zones (the cost proxy).
    pub total_steps: u64,
    /// The largest single-zone step count (the "outlier" of §VI).
    pub max_steps: u64,
    /// Total Newton iterations over all zones.
    pub newton_iters: u64,
    /// Total nuclear energy released, erg.
    pub energy_released: f64,
    /// Retry-ladder attempts beyond the first, summed over zones.
    pub retries: u64,
    /// Zones that needed at least one retry to burn.
    pub recovered: u64,
    /// Zones whose winning rung was relaxed-tolerance.
    pub recovered_relaxed: u64,
    /// Zones whose winning rung was subcycling.
    pub recovered_subcycle: u64,
    /// Zones rescued by the §VI outlier-offload rung.
    pub offloaded: u64,
    /// Rate-stage blocks the chunks took (see [`RecoveredBurn::rate_stages`]).
    pub rate_stages: u64,
}

impl BurnStats {
    /// Fold one recovered burn into the statistics (and the region table's
    /// retry counter for the innermost open region).
    pub fn record(&mut self, rec: &RecoveredBurn) {
        self.zones += 1;
        self.total_steps += rec.outcome.stats.steps;
        self.max_steps = self.max_steps.max(rec.outcome.stats.steps);
        self.newton_iters += rec.outcome.stats.newton_iters;
        self.rate_stages += rec.rate_stages;
        if rec.retries > 0 {
            Telemetry::record_retries(rec.retries as u64);
            self.retries += rec.retries as u64;
            self.recovered += 1;
        }
        match rec.rung {
            LadderRung::Direct => {}
            LadderRung::RelaxedTol => self.recovered_relaxed += 1,
            LadderRung::Subcycle => self.recovered_subcycle += 1,
            LadderRung::Offload => self.offloaded += 1,
        }
    }

    /// Merge another sweep's statistics into these.
    pub fn merge(&mut self, o: &BurnStats) {
        self.zones += o.zones;
        self.skipped += o.skipped;
        self.total_steps += o.total_steps;
        self.max_steps = self.max_steps.max(o.max_steps);
        self.newton_iters += o.newton_iters;
        self.energy_released += o.energy_released;
        self.retries += o.retries;
        self.recovered += o.recovered;
        self.recovered_relaxed += o.recovered_relaxed;
        self.recovered_subcycle += o.recovered_subcycle;
        self.offloaded += o.offloaded;
        self.rate_stages += o.rate_stages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::StellarEos;

    /// Burn one zone with the default configuration; none of these zones
    /// needs the ladder.
    fn burn(net: &Network, rho: f64, t0: f64, x0: &[f64], dt: f64) -> BurnOutcome {
        let rec = BurnerConfig::default()
            .build(net, &StellarEos)
            .burn_zone(0, rho, t0, x0, dt)
            .unwrap();
        assert_eq!((rec.rung, rec.retries), (LadderRung::Direct, 0));
        rec.outcome
    }

    #[test]
    fn block_cv_is_a_fresh_eval_rt_when_mu_e_moves_by_an_ulp() {
        // Each round moves lane l's first abundance up by single ulps until
        // the bits of its μ_e change, then evaluates at two temperatures:
        // the first call after a change must take the density stage again,
        // the second may keep it. Then it evaluates once more at the
        // abundances before the move, whose μ_e the older kept stage has.
        let net = Network::aprox13();
        let n = net.nspec();
        let rho = [1e3, 2e5, 3e7, 4e9];
        let lanes: Vec<BurnSystem> = rho.map(|r| BurnSystem::new(&net, &StellarEos, r)).into();
        let block = Block {
            lane0: 0,
            live: LANES,
            want: [true; LANES],
        };
        let mut rows: Vec<[f64; LANES]> = (0..n)
            .map(|i| {
                std::array::from_fn(|l| (1 + (i + 3 * l) % 7) as f64 / (60.0 * net.species()[i].a))
            })
            .collect();
        let mu_e = |rows: &[[f64; LANES]]| {
            Composition::from_molar_fraction_lanes(net.species(), rows).map(|c| c.mu_e().to_bits())
        };
        let mut changes = 0;
        for round in 0..40 {
            let before = mu_e(&rows);
            let back = rows.clone();
            for l in 0..LANES {
                let mut steps = 0;
                while mu_e(&rows)[l] == before[l] && steps < 64 {
                    rows[0][l] = f64::from_bits(rows[0][l].to_bits() + 1);
                    steps += 1;
                }
            }
            let after = mu_e(&rows);
            changes += (0..LANES).filter(|&l| after[l] != before[l]).count();
            for (t, rows) in [
                (1e8 * (1.0 + round as f64), &rows),
                (3e9, &rows),
                (2e9, &back),
            ] {
                let comp = Composition::from_molar_fraction_lanes(net.species(), rows);
                let cv = block.cv(&lanes, [t; LANES], rows);
                for l in 0..LANES {
                    let fresh = StellarEos.eval_rt(rho[l], t, &comp[l]).cv;
                    assert_eq!(
                        cv[l].to_bits(),
                        fresh.to_bits(),
                        "round {round}, lane {l}, T {t:e}"
                    );
                }
            }
        }
        assert_eq!(changes, 40 * LANES, "every round moves every lane's μ_e");
    }

    #[test]
    fn quiescent_zone_stays_quiet() {
        let net = Network::cburn2();
        // Cold carbon: no burning on dynamical timescales.
        let out = burn(&net, 1e6, 1e7, &[1.0, 0.0], 1.0);
        assert!((out.x[0] - 1.0).abs() < 1e-10);
        // Integrator abundance drift at atol = 1e-12 maps to ~1e8 erg/g of
        // spurious "release"; anything far below burning scales (1e17) is
        // quiescent.
        assert!(out.enuc.abs() < 1e9);
        assert!((out.t / 1e7 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hot_carbon_burns_exothermically() {
        let net = Network::cburn2();
        let out = burn(&net, 5e7, 3e9, &[1.0, 0.0], 1e-6);
        assert!(out.x[0] < 0.999, "carbon should be consumed: {:?}", out.x);
        assert!(out.x[1] > 1e-4);
        assert!(out.enuc > 0.0);
        assert!(out.t > 3e9, "self-heating must raise T");
        // Mass fractions remain a partition of unity.
        let sum: f64 = out.x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn triple_alpha_heats_helium() {
        let net = Network::triple_alpha();
        let out = burn(&net, 1e6, 3e8, &[1.0, 0.0, 0.0], 1e-2);
        assert!(out.x[1] > 0.0, "carbon produced: {:?}", out.x);
        assert!(out.t > 3e8);
        assert!(out.enuc > 0.0);
    }

    #[test]
    fn aprox13_burn_conserves_mass_and_releases_energy() {
        let net = Network::aprox13();
        let mut x0 = vec![0.0; 13];
        x0[1] = 0.5; // C12
        x0[2] = 0.5; // O16
        let out = burn(&net, 1e7, 3e9, &x0, 1e-7);
        let sum: f64 = out.x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8, "Σ X = {sum}");
        assert!(out.enuc > 0.0);
        assert!(out.x[1] < 0.5, "carbon consumed");
        assert!(out.x.iter().all(|&v| v > -1e-12), "no negative abundances");
    }

    #[test]
    fn burn_tally_accumulates_and_classifies() {
        let mk = |steps: u64, retries: u32, rung: LadderRung| RecoveredBurn {
            outcome: BurnOutcome {
                x: vec![1.0],
                t: 1e8,
                enuc: 0.0,
                stats: BdfStats {
                    steps,
                    newton_iters: 2 * steps,
                    ..Default::default()
                },
            },
            rung,
            retries,
            rate_stages: steps / 5,
        };
        let mut tally = BurnStats {
            skipped: 1,
            ..Default::default()
        };
        tally.record(&mk(10, 0, LadderRung::Direct));
        tally.record(&mk(40, 2, LadderRung::Subcycle));
        tally.record(&mk(200, 3, LadderRung::Offload));
        tally.record(&mk(5, 1, LadderRung::RelaxedTol));
        assert_eq!(tally.zones, 4);
        assert_eq!(tally.skipped, 1);
        assert_eq!(tally.total_steps, 255);
        assert_eq!(tally.max_steps, 200);
        assert_eq!(tally.newton_iters, 510);
        assert_eq!(tally.retries, 6);
        assert_eq!(tally.recovered, 3);
        assert_eq!(tally.recovered_relaxed, 1);
        assert_eq!(tally.recovered_subcycle, 1);
        assert_eq!(tally.offloaded, 1);
        assert_eq!(tally.rate_stages, 51);
        // Two Strang halves: counts add, the outlier is the larger one.
        tally.energy_released = 2.5;
        let mut step = BurnStats {
            max_steps: 300,
            ..tally.clone()
        };
        step.merge(&tally);
        assert_eq!((step.zones, step.skipped, step.retries), (8, 2, 12));
        assert_eq!(step.rate_stages, 102);
        assert_eq!((step.max_steps, step.energy_released), (300, 5.0));
    }

    #[test]
    fn a_multifab_sweep_ids_zones_in_sweep_order_and_reports_every_failure() {
        use exastro_amr::{BoxArray, IndexBox, IntVect};
        // Two 2x2x2 boxes; every zone at odd x (every other zone in sweep
        // order) is admitted, and every admitted zone is rigged to fail
        // every rung.
        let ba = BoxArray::decompose(
            IndexBox::new(IntVect::splat(0), IntVect::new(3, 1, 1)),
            2,
            2,
        );
        let mut state = MultiFab::local(ba, 1, 0);
        assert_eq!(state.nfabs(), 2);
        let net = Network::cburn2();
        let burner = BurnerConfig {
            faults: Some(BurnFaultConfig {
                seed: 1,
                rate: 1.0,
                rungs_to_fail: u32::MAX,
                error: BdfErrorKind::SingularMatrix,
            }),
            ..Default::default()
        }
        .build(&net, &StellarEos);
        let res = burner.burn_multifab(
            &mut state,
            1e-8,
            |_, z, x| {
                x.copy_from_slice(&[1.0, 0.0]);
                (z % 2 == 1).then_some((1e7, 1e9))
            },
            |_, _, _, _| unreachable!("every admitted zone fails"),
        );
        let ids: Vec<u64> = res.unwrap_err().iter().map(|f| f.zone).collect();
        assert_eq!(ids, [1, 3, 5, 7, 9, 11, 13, 15]);
    }

    #[test]
    fn keyed_sort_is_the_comparator_sort() {
        // Repeated temperatures and zone ids, both zeros, infinities and
        // NaNs of both signs: ties fall through to the zone id and then to
        // the input position, as the stable comparator sort leaves them.
        let temps = [
            3e9,
            -0.0,
            0.0,
            1e8,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -2.5,
            f64::MIN_POSITIVE,
            3e9,
        ];
        let mut s = 7u64;
        let zones: Vec<(f64, u64)> = (0..200)
            .map(|_| {
                let draw = exastro_parallel::splitmix64(&mut s);
                (temps[draw as usize % temps.len()], (draw >> 32) % 9)
            })
            .collect();
        let mut comparator: Vec<usize> = (0..zones.len()).collect();
        comparator.sort_by(|&a, &b| {
            zones[b]
                .0
                .total_cmp(&zones[a].0)
                .then(zones[a].1.cmp(&zones[b].1))
        });
        let mut keyed: Vec<SweepKey> = zones
            .iter()
            .enumerate()
            .map(|(i, &(t, zone))| (hot_first(t), zone, i))
            .collect();
        keyed.sort_unstable();
        assert!(keyed.iter().map(|k| k.2).eq(comparator));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn batch_rhs_and_jacobian_are_the_per_lane_ones_bit_for_bit(
            aprox13 in proptest::sample::select(vec![false, true]),
            width in 1usize..10,
            mask in 0u32..512,
            seed in 0u64..1_000_000,
        ) {
            let net = &if aprox13 { Network::aprox13() } else { Network::cburn2() };
            let (m, w) = (net.nspec() + 1, width);
            let mut s = seed | 1;
            let mut rng = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            let lanes: Vec<BurnSystem> = (0..w)
                .map(|_| BurnSystem::new(net, &StellarEos, 10f64.powf(3.0 + 6.0 * rng())))
                .collect();
            // Abundances with negative entries; temperatures from below the
            // 10⁴ K floor to 6×10⁹ K.
            let mut y = vec![0.0; m * w];
            for l in 0..w {
                for i in 0..m - 1 {
                    y[i * w + l] = 0.3 * rng() - 0.02;
                }
                y[(m - 1) * w + l] = 10f64.powf(3.5 + 6.3 * rng());
            }
            let want: Vec<bool> = (0..w).map(|l| (mask >> l) & 1 == 1).collect();
            let sentinel = -7.25f64;
            let mut scratch = LaneScratch::default();
            let mut dydt = vec![sentinel; m * w];
            BurnSystem::rhs_lanes(&lanes, 0.0, &y, &want, &mut dydt, &mut scratch);
            let mut jacs = vec![sentinel; m * m * w];
            BurnSystem::jac_lanes(&lanes, 0.0, &y, &want, &mut jacs, &mut scratch);
            for (l, sys) in lanes.iter().enumerate() {
                let lane: Vec<f64> = (0..m).map(|i| y[i * w + l]).collect();
                let mut f = vec![0.0; m];
                let mut jac = vec![0.0; m * m];
                if want[l] {
                    sys.rhs(0.0, &lane, &mut f);
                    sys.jac(0.0, &lane, &mut jac);
                } else {
                    f.fill(sentinel);
                    jac.fill(sentinel);
                }
                for i in 0..m {
                    proptest::prop_assert!(dydt[i * w + l].to_bits() == f[i].to_bits(), "lane {l} f[{i}]");
                }
                let batch = &jacs[l * m * m..][..m * m];
                for (k, (a, b)) in batch.iter().zip(&jac).enumerate() {
                    proptest::prop_assert!(a.to_bits() == b.to_bits(), "lane {l} jac[{k}]");
                }
            }
        }
    }

    /// A burn system evaluated afresh at every call: nothing is kept from
    /// one evaluation to the next.
    struct Fresh<'a>(&'a Network, f64);
    impl OdeSystem for Fresh<'_> {
        fn dim(&self) -> usize {
            self.0.nspec() + 1
        }
        fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
            BurnSystem::new(self.0, &StellarEos, self.1).rhs(t, y, dydt)
        }
        fn jac(&self, t: f64, y: &[f64], jac: &mut [f64]) {
            BurnSystem::new(self.0, &StellarEos, self.1).jac(t, y, jac)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Sequences of batch calls on one scratch, each held to fresh
        /// evaluations: temperatures that keep their bits while the
        /// abundances move, Jacobians after right-hand sides at one T and
        /// the reverse, partial masks. Some blocks must hit, and a block
        /// takes the rate stage at most once a call.
        #[test]
        fn kept_rates_and_cv_are_fresh_evaluations_bit_for_bit(
            net_idx in 0usize..3,
            width in 1usize..18,
            seed in 0u64..u64::MAX,
        ) {
            let net = &[Network::cburn2(), Network::iso7(), Network::aprox13()][net_idx];
            let (m, w) = (net.nspec() + 1, width);
            let mut s = seed | 1;
            let mut u = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            let lanes: Vec<BurnSystem> = (0..w)
                .map(|_| BurnSystem::new(net, &StellarEos, 10f64.powf(3.0 + 6.0 * u())))
                .collect();
            let mut y = vec![0.0; m * w];
            for l in 0..w {
                for i in 0..m - 1 {
                    y[i * w + l] = 0.3 * u() / net.species()[i].a;
                }
                y[(m - 1) * w + l] = 10f64.powf(3.5 + 6.3 * u());
            }
            let sentinel = -7.25f64;
            let mut scratch = LaneScratch::default();
            let mut blocks = 0;
            for call in 0..12 {
                // Call one repeats call zero as a right-hand side, so every
                // block of it hits.
                if call > 1 {
                    for l in 0..w {
                        // T: kept half the time, else an ulp away or redrawn.
                        let t = &mut y[(m - 1) * w + l];
                        match (4.0 * u()) as u32 {
                            0 => *t = f64::from_bits(t.to_bits() + 1),
                            1 => *t = 10f64.powf(3.5 + 6.3 * u()),
                            _ => {}
                        }
                        // Y: kept, moved by an ulp in one species, or redrawn.
                        let i = (u() * (m - 1) as f64) as usize;
                        let v = &mut y[i * w + l];
                        match (3.0 * u()) as u32 {
                            0 => {}
                            1 => *v = f64::from_bits(v.to_bits() + 1),
                            _ => *v = 0.3 * u() / net.species()[i].a,
                        }
                    }
                }
                let want: Vec<bool> = (0..w).map(|_| call < 2 || u() < 0.75).collect();
                blocks += (0..w.div_ceil(LANES))
                    .filter(|b| want[b * LANES..w.min((b + 1) * LANES)].contains(&true))
                    .count();
                let jacobian = call != 1 && u() < 0.5;
                let size = if jacobian { m * m } else { m };
                let mut out = vec![sentinel; size * w];
                if jacobian {
                    BurnSystem::jac_lanes(&lanes, 0.0, &y, &want, &mut out, &mut scratch);
                } else {
                    BurnSystem::rhs_lanes(&lanes, 0.0, &y, &want, &mut out, &mut scratch);
                }
                for l in 0..w {
                    let lane: Vec<f64> = (0..m).map(|i| y[i * w + l]).collect();
                    let mut fresh = vec![sentinel; size];
                    if want[l] {
                        let sys = Fresh(net, lanes[l].rho);
                        if jacobian {
                            sys.jac(0.0, &lane, &mut fresh);
                        } else {
                            sys.rhs(0.0, &lane, &mut fresh);
                        }
                    }
                    for (k, f) in fresh.iter().enumerate() {
                        let got = if jacobian { out[l * size + k] } else { out[k * w + l] };
                        proptest::prop_assert!(
                            got.to_bits() == f.to_bits(),
                            "call {call} ({}) lane {l} entry {k}: {got:e} vs {f:e}",
                            if jacobian { "jac" } else { "rhs" }
                        );
                    }
                }
            }
            let evaluated = scratch.rates.stages as usize;
            proptest::prop_assert!(evaluated <= blocks);
            proptest::prop_assert!(evaluated < blocks, "no block hit: {evaluated} of {blocks}");
        }
    }

    #[test]
    fn a_second_call_on_one_workspace_forgets_the_first_calls_rates() {
        // Hot, thin carbon over a few picoseconds: the abundances move by
        // thousands of ulps while T keeps its bits. Call one leaves every
        // block keyed at T0, at which call two runs at other densities
        // throughout: kept rates would screen at the old ρ.
        let net = Network::cburn2();
        let (w, t0) = (5, 3e9);
        let integ = BdfIntegrator::sparse(
            BurnerConfig::default().bdf,
            Arc::new(SparseLu::compile(&net.sparsity())),
        );
        let entry: Vec<f64> = [vec![1.0 / 12.0; w], vec![0.0; w], vec![t0; w]].concat();
        let mut ws = BatchWorkspace::default();
        for (call, (rho0, dt)) in [(0.5, 5e-12), (4.0, 5e-12)].into_iter().enumerate() {
            let rho: Vec<f64> = (0..w).map(|l| rho0 * (1.0 + l as f64)).collect();
            let kept: Vec<BurnSystem> = rho
                .iter()
                .map(|&r| BurnSystem::new(&net, &StellarEos, r))
                .collect();
            let fresh: Vec<Fresh> = rho.iter().map(|&r| Fresh(&net, r)).collect();
            let (mut y, mut y_fresh) = (entry.clone(), entry.clone());
            let reports = integ
                .integrate_lanes(&kept, 0.0, dt, &mut y, &mut ws)
                .to_vec();
            let want = integ
                .integrate_lanes(
                    &fresh,
                    0.0,
                    dt,
                    &mut y_fresh,
                    &mut BatchWorkspace::default(),
                )
                .to_vec();
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "call {call}"
            );
            for (a, b) in reports.iter().zip(&want) {
                assert_eq!(a.status, b.status);
                assert_eq!(
                    (
                        a.stats.steps,
                        a.stats.newton_iters,
                        a.stats.rhs_evals,
                        a.stats.jac_evals
                    ),
                    (
                        b.stats.steps,
                        b.stats.newton_iters,
                        b.stats.rhs_evals,
                        b.stats.jac_evals
                    )
                );
            }
            assert!(y[2 * w..].iter().all(|&t| t == t0), "call {call} keeps T0");
            assert!(y[..w].iter().all(|&c| c != 1.0 / 12.0), "call {call} burns");
        }
    }

    #[test]
    fn enuc_is_consistent_with_temperature_rise() {
        // At constant density, ε integrated should ≈ ∫cv dT. Loose check.
        let net = Network::cburn2();
        let (rho, t0) = (5e8, 2.5e9);
        let out = burn(&net, rho, t0, &[1.0, 0.0], 3e-8);
        assert!(out.t > t0 && out.enuc > 0.0);
        let comp = Composition::from_mass_fractions(net.species(), &out.x);
        let cv_mid = StellarEos.eval_rt(rho, 0.5 * (t0 + out.t), &comp).cv;
        let de_thermal = cv_mid * (out.t - t0);
        assert!(
            (de_thermal / out.enuc - 1.0).abs() < 0.5,
            "enuc {} vs cvΔT {}",
            out.enuc,
            de_thermal
        );
    }
}
