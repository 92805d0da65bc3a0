//! The exchange-overlapped box loop: "fill ghosts, then run per-zone
//! kernels over every box" as one dependency graph on the worker pool.
//!
//! A stencil kernel's zones split, per box, into an **interior** whose
//! stencil lies in valid data and a **band** that reads ghost zones.
//! A [`HaloLoop`] stages one ghost exchange as tasks and runs the caller's
//! three per-box kernels around it, five tasks per fab `f`:
//!
//! | task         | work                                   | runs after                       |
//! |--------------|----------------------------------------|----------------------------------|
//! | `pack f`     | fill the send buffers of ops with src f | —                                |
//! | `unpack f`   | write f's ghosts, then its physical BC | `pack s` for every sender s of f |
//! | `interior f` | caller kernel, valid data only         | —                                |
//! | `band f`     | caller kernel, reads f's ghosts        | `unpack f`, `interior f`         |
//! | `update f`   | caller kernel, may write f's valid zones | `interior f`, `band f`, `pack f` |
//!
//! **The footprint is part of the contract.** The caller states how deep
//! its stencil reaches, per dimension, as `ghosts: IntVect`, and the loop
//! fills exactly `valid.grow_vec(ghosts)` of each fab — neighbour copies,
//! periodic images and the physical BC all clipped to that box. A kernel
//! may read only `valid.grow_vec(ghosts)`: a ghost zone outside it holds
//! whatever an earlier fill left there. A dimensionally split sweep along
//! `d` passes `2·e_d` and exchanges two face slabs a box; a stencil that
//! reads corners passes `splat(ngrow)`, which is the full
//! [`MultiFab::fill_boundary`]. The graph has the same five tasks a fab
//! whatever the footprint; only the `unpack ← pack` edges thin out.
//!
//! `update f` waits on `pack f` because the pack reads f's valid zones: the
//! send buffers must capture pre-update data, as an MPI isend would. Only
//! `update` may write valid zones of the exchanged multifab; `interior` and
//! `band` write caller-owned scratch. Under that rule every task writes
//! slots no concurrent task touches, so every legal schedule — the pool's,
//! or any serial topological order — leaves the same bits.
//!
//! The bulk-synchronous step is one schedule of this graph, not a second
//! implementation: [`TaskGraph::run_serial`] (smallest id first) runs all
//! packs, then all unpacks with their boundary conditions, then all
//! interiors, bands and updates. The tests use it, and one-shot
//! [`MultiFab::fill_boundary_within`] +
//! [`MultiFab::fill_physical_bc_within`], as references.

use crate::fab::Array4Mut;
use crate::geometry::Geometry;
use crate::multifab::{apply_physical_bc, BcSpec, CommTrace, ExchangePlan, MultiFab};
use exastro_parallel::{IntVect, TaskClass, TaskGraph, TaskLabel, WorkerPool};
use std::sync::Mutex;

/// Span name and overlap class of each stage, in task-id block order: task
/// `stage * nfabs + f` is stage `stage` of fab `f`.
const STAGES: [(&str, TaskClass); 5] = [
    ("pack", TaskClass::Comm),
    ("unpack", TaskClass::Comm),
    ("interior", TaskClass::Compute),
    ("band", TaskClass::Compute),
    ("update", TaskClass::Compute),
];

/// The label of stage `stage` of fab `f`, `<stage>.f<fab>`. Every traced
/// sweep labels the same tasks, so the labels are built once per process
/// and handed out from a table.
fn task_label(stage: usize, f: usize) -> TaskLabel {
    static LABELS: Mutex<Vec<[TaskLabel; 5]>> = Mutex::new(Vec::new());
    let mut labels = LABELS.lock().expect("the label table is append-only");
    while labels.len() <= f {
        let f = labels.len();
        labels.push(STAGES.map(|(name, class)| TaskLabel::new(&format!("{name}.f{f}"), class)));
    }
    labels[f][stage]
}

/// One planned halo loop: the ghost exchange of a box layout and the task
/// graph that stages it around three per-box kernels (module docs).
///
/// [`HaloLoop::plan`] reads only the layout, so a driver plans *before* it
/// allocates its per-sweep scratch and takes kernel views; that keeps the
/// plan's many small send buffers below the sweep's arrays on the heap,
/// the order the step's peak RSS is measured with.
pub struct HaloLoop {
    geom: Geometry,
    pending: ExchangePlan,
    /// Copy ops whose source is each fab — what `pack f` packs.
    packs_of: Vec<Vec<usize>>,
    graph: TaskGraph,
}

impl HaloLoop {
    /// Plan the ghost exchange of `mf` over the footprint `ghosts` —
    /// `ghosts[d]` layers on both sides of dimension `d`, at most
    /// `mf.ngrow()` (panics otherwise) — and build the five-stage graph
    /// over it. Neighbour copies and periodic images are planned; no data
    /// moves.
    pub fn plan(mf: &MultiFab, geom: &Geometry, ghosts: IntVect) -> Self {
        let n = mf.nfabs();
        let pending = mf.plan_fill_boundary(geom, ghosts);
        let mut packs_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut senders_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for o in 0..pending.nops() {
            let (src, dst) = pending.op_endpoints(o);
            packs_of[src].push(o);
            senders_of[dst].push(src);
        }

        let mut graph = TaskGraph::new();
        for _ in 0..n {
            graph.add_task(); // pack f
        }
        for senders in &mut senders_of {
            senders.sort_unstable();
            senders.dedup();
            graph.add_task_after(senders); // unpack f: `pack s` has id s
        }
        for _ in 0..n {
            graph.add_task(); // interior f
        }
        for f in 0..n {
            graph.add_task_after(&[n + f, 2 * n + f]); // band f
        }
        for f in 0..n {
            graph.add_task_after(&[2 * n + f, 3 * n + f, f]); // update f
        }
        HaloLoop {
            geom: geom.clone(),
            pending,
            packs_of,
            graph,
        }
    }

    /// Run the loop on the worker pool: exchange the planned footprint of
    /// `mf`'s ghost zones (the planned copies, then the physical boundary
    /// `bc`) while calling `interior`, `band` and `update` once per fab,
    /// each with the fab index and that fab's view of `mf`. `mf` is the
    /// planned multifab or one on the same layout. `label` names the graph
    /// in the telemetry crate's graph trace; tasks are named
    /// `<stage>.f<fab>`. Returns the exchange's trace, equal to
    /// [`MultiFab::fill_boundary_within`]'s for the same footprint.
    pub fn run<I, B, U>(
        self,
        mf: &mut MultiFab,
        bc: &BcSpec,
        label: &str,
        interior: I,
        band: B,
        update: U,
    ) -> CommTrace
    where
        I: Fn(usize, &Array4Mut<'_>) + Sync,
        B: Fn(usize, &Array4Mut<'_>) + Sync,
        U: Fn(usize, &Array4Mut<'_>) + Sync,
    {
        let n = mf.nfabs();
        self.run_with(mf, bc, interior, band, update, |graph, task| {
            graph
                .run_labeled(
                    WorkerPool::global(),
                    n.max(1),
                    label,
                    |t| task_label(t / n, t % n),
                    task,
                )
                .expect("the halo graph is a DAG by construction");
        })
    }

    /// Hand the graph, with the function that executes task `t`, to
    /// `schedule`. [`HaloLoop::run`] schedules it on the pool; the tests
    /// use serial and seeded orders.
    fn run_with<I, B, U>(
        self,
        mf: &mut MultiFab,
        bc: &BcSpec,
        interior: I,
        band: B,
        update: U,
        schedule: impl FnOnce(&TaskGraph, &(dyn Fn(usize) + Sync)),
    ) -> CommTrace
    where
        I: Fn(usize, &Array4Mut<'_>) + Sync,
        B: Fn(usize, &Array4Mut<'_>) + Sync,
        U: Fn(usize, &Array4Mut<'_>) + Sync,
    {
        let HaloLoop {
            geom,
            pending,
            packs_of,
            graph,
        } = self;
        pending.check_target(mf);
        let n = mf.nfabs();
        let views = mf.fab_views_mut();
        schedule(&graph, &|t| {
            let (stage, f) = (t / n, t % n);
            let view = &views[f];
            match stage {
                0 => {
                    for &o in &packs_of[f] {
                        pending.pack_op(o, |region, c, out| view.read_box(region, c, out));
                    }
                }
                1 => {
                    pending.unpack_fab(f, |region, c, data| view.write_box(region, c, data));
                    apply_physical_bc(view, &geom, bc, pending.footprint(f));
                }
                2 => interior(f, view),
                3 => band(f, view),
                _ => update(f, view),
            }
        });
        drop(views);
        pending.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxarray::BoxArray;
    use crate::distribution::{DistStrategy, DistributionMapping};
    use crate::geometry::CoordSys;
    use crate::multifab::BcKind;
    use exastro_parallel::{IndexBox, IntVect, Real};

    const NCOMP: usize = 2;

    /// A weighted sum over `iv ± reach`, corners included: reads every zone
    /// of the footprint `reach` and none outside it (27 points for
    /// `splat(1)`).
    fn stencil(at: impl Fn(IntVect) -> Real, iv: IntVect, reach: IntVect) -> Real {
        let offsets = IndexBox::new(-reach, reach);
        let n = offsets.num_zones();
        offsets
            .iter()
            .enumerate()
            .map(|(w, d)| (w + 1) as Real * at(iv + d))
            .sum::<Real>()
            / (n * (n + 1) / 2) as Real
    }

    /// A toy step over the loop: `interior` and `band` stage the
    /// stencil of their zones in `next`, `update` overwrites the valid
    /// zones — which the neighbours' packs read, so an `update` that did
    /// not wait for its fab's pack would change the answer.
    fn toy_step(
        mf: &mut MultiFab,
        geom: &Geometry,
        bc: &BcSpec,
        ghosts: IntVect,
        run: impl FnOnce(&TaskGraph, &(dyn Fn(usize) + Sync)),
    ) -> CommTrace {
        let vbs = mf.valid_boxes();
        let mut next = MultiFab::new(mf.box_array().clone(), mf.dist_map().clone(), NCOMP, 0);
        let nvs = next.fab_views_mut();
        let stage = |f: usize, view: &Array4Mut<'_>, region: IndexBox| {
            for iv in region.iter() {
                for c in 0..NCOMP {
                    let v = stencil(|z| view.at(z.x(), z.y(), z.z(), c), iv, ghosts);
                    nvs[f].set(iv.x(), iv.y(), iv.z(), c, v);
                }
            }
        };
        HaloLoop::plan(mf, geom, ghosts).run_with(
            mf,
            bc,
            |f, view| stage(f, view, vbs[f].grow_vec(-ghosts)),
            |f, view| {
                for shell in vbs[f].difference(&vbs[f].grow_vec(-ghosts)) {
                    stage(f, view, shell);
                }
            },
            |f, view| {
                for iv in vbs[f].iter() {
                    for c in 0..NCOMP {
                        view.set(
                            iv.x(),
                            iv.y(),
                            iv.z(),
                            c,
                            nvs[f].at(iv.x(), iv.y(), iv.z(), c),
                        );
                    }
                }
            },
            run,
        )
    }

    /// The same step with no graph: one-shot fill of the same footprint,
    /// whole-box pass.
    fn reference_step(
        mf: &mut MultiFab,
        geom: &Geometry,
        bc: &BcSpec,
        ghosts: IntVect,
    ) -> CommTrace {
        let trace = mf.fill_boundary_within(geom, ghosts);
        mf.fill_physical_bc_within(geom, bc, ghosts);
        let old = mf.clone();
        for f in 0..mf.nfabs() {
            for iv in old.valid_box(f).iter() {
                for c in 0..NCOMP {
                    let v = stencil(|z| old.fab(f).get(z, c), iv, ghosts);
                    mf.fab_mut(f).set(iv, c, v);
                }
            }
        }
        trace
    }

    /// The footprints every schedule is checked on, with the ghost depth
    /// the fabs are allocated with: the full fill of a 1-ghost fab, and a
    /// non-uniform one (2 deep in x, none in y, 1 in z) of a 2-ghost fab.
    const FOOTPRINTS: [(i32, IntVect); 2] = [(1, IntVect::splat(1)), (2, IntVect::new(2, 0, 1))];

    fn fixture(
        domain: IndexBox,
        max_size: i32,
        periodic: bool,
        ngrow: i32,
    ) -> (Geometry, MultiFab, BcSpec) {
        let geom = Geometry::new(
            domain,
            [0.0; 3],
            [1.0; 3],
            [periodic; 3],
            CoordSys::Cartesian,
        );
        let ba = BoxArray::decompose(domain, max_size, 1);
        let dm = DistributionMapping::new(&ba, 3, DistStrategy::RoundRobin);
        let mut mf = MultiFab::new(ba, dm, NCOMP, ngrow);
        // Ghosts start as garbage the exchange must overwrite; a ghost no
        // op and no BC reaches — every ghost outside the footprint — keeps
        // it on both sides of the comparison.
        mf.set_val_all(-7.0);
        for f in 0..mf.nfabs() {
            for iv in mf.valid_box(f).iter() {
                for c in 0..NCOMP {
                    let v = ((iv.x() * 31 + iv.y() * 17 + iv.z() * 7) as Real * 0.37).sin();
                    mf.fab_mut(f).set(iv, c, v + c as Real);
                }
            }
        }
        let bc = if periodic {
            BcSpec::periodic()
        } else {
            BcSpec {
                kind: [
                    [BcKind::Outflow; 2],
                    [BcKind::Reflect; 2],
                    [BcKind::Outflow; 2],
                ],
                reflect_odd: vec![(1, 1)],
            }
        };
        (geom, mf, bc)
    }

    fn assert_same_bits(a: &MultiFab, b: &MultiFab, what: &str) {
        for f in 0..a.nfabs() {
            let (da, db) = (a.fab(f).data(), b.fab(f).data());
            assert!(
                da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{what}: fab {f} differs on its grown box"
            );
        }
    }

    /// Two steps under `run` against two reference steps: same bits on
    /// grown boxes, same trace.
    fn check_schedule(
        start: &MultiFab,
        geom: &Geometry,
        bc: &BcSpec,
        ghosts: IntVect,
        what: &str,
        run: impl Fn(&TaskGraph, &(dyn Fn(usize) + Sync)),
    ) {
        let (mut staged, mut reference) = (start.clone(), start.clone());
        for _ in 0..2 {
            let t = toy_step(&mut staged, geom, bc, ghosts, &run);
            let rt = reference_step(&mut reference, geom, bc, ghosts);
            assert_eq!(t, rt, "{what}");
        }
        assert_same_bits(&staged, &reference, what);
    }

    /// Serial, 16 seeded orders and the pool, on each of [`FOOTPRINTS`].
    /// Returns the full-footprint fixture.
    fn check_every_schedule(domain: IndexBox, max_size: i32, periodic: bool) -> MultiFab {
        let [full, _] = FOOTPRINTS.map(|(ngrow, ghosts)| {
            let (geom, mf, bc) = fixture(domain, max_size, periodic, ngrow);
            let what = format!("{domain:?} max {max_size} periodic {periodic} ghosts {ghosts:?}");
            check_schedule(
                &mf,
                &geom,
                &bc,
                ghosts,
                &format!("{what}, run_serial"),
                |g, task| g.run_serial(task).unwrap(),
            );
            for seed in 0..16 {
                check_schedule(
                    &mf,
                    &geom,
                    &bc,
                    ghosts,
                    &format!("{what}, seed {seed}"),
                    |g, task| g.run_seeded(seed, task).unwrap(),
                );
            }
            check_schedule(
                &mf,
                &geom,
                &bc,
                ghosts,
                &format!("{what}, pool"),
                |g, task| {
                    g.run(WorkerPool::global(), g.len(), task).unwrap();
                },
            );
            mf
        });
        full
    }

    #[test]
    fn every_schedule_matches_one_shot_fill_and_whole_box_pass() {
        for periodic in [true, false] {
            // Boxes 1–2 zones wide, then 2–3 wide, then 3-wide cubes.
            let thin = check_every_schedule(IndexBox::sized(IntVect::new(7, 5, 3)), 2, periodic);
            assert!((0..thin.nfabs()).any(|f| thin.valid_box(f).length(0) == 1));
            check_every_schedule(IndexBox::sized(IntVect::new(7, 5, 3)), 3, periodic);
            check_every_schedule(IndexBox::cube(6), 3, periodic);
        }
    }

    #[test]
    fn a_single_box_wraps_onto_itself_or_exchanges_nothing() {
        // Periodic: every ghost is the box's own periodic image, so
        // `unpack 0` waits on `pack 0` alone.
        let wrapped = check_every_schedule(IndexBox::cube(4), 4, true);
        assert_eq!(wrapped.nfabs(), 1);
        // Outflow: zero ops, empty sender lists; only the physical BC
        // fills ghosts.
        let (geom, mut alone, bc) = fixture(IndexBox::cube(4), 4, false, 1);
        check_every_schedule(IndexBox::cube(4), 4, false);
        let trace = toy_step(&mut alone, &geom, &bc, IntVect::splat(1), |g, task| {
            assert_eq!((g.len(), g.num_edges()), (5, 5));
            g.run_serial(task).unwrap()
        });
        assert_eq!(trace, CommTrace::default());
    }

    #[test]
    fn a_plan_fills_again_after_the_data_changed() {
        // One plan, filled three times with the valid zones rewritten in
        // between: each fill must leave what a freshly planned one-shot
        // fill leaves — grown boxes bit for bit, same trace — on every
        // footprint: thin boxes and eight cubes, filled on the pool, and a
        // single box that is its own periodic image, filled inline.
        for (domain, max_size, periodic) in [
            (IndexBox::sized(IntVect::new(7, 5, 3)), 2, true),
            (IndexBox::cube(6), 3, false),
            (IndexBox::cube(4), 4, true),
        ] {
            for (ngrow, ghosts) in FOOTPRINTS {
                let (geom, mut mf, _) = fixture(domain, max_size, periodic, ngrow);
                let mut plan = mf.plan_fill_boundary(&geom, ghosts);
                for round in 0..3 {
                    for f in 0..mf.nfabs() {
                        for iv in mf.valid_box(f).iter() {
                            let v = mf.fab(f).get(iv, 0);
                            mf.fab_mut(f).set(iv, 0, 1.5 * v + round as Real);
                        }
                    }
                    let mut fresh = mf.clone();
                    let trace = fresh.fill_boundary_within(&geom, ghosts);
                    assert_eq!(plan.fill(&mut mf), &trace);
                    assert_same_bits(&mf, &fresh, &format!("{domain:?} {ghosts:?} fill {round}"));
                }
            }
        }
    }

    #[test]
    fn run_schedules_the_same_graph_on_the_pool() {
        let (geom, start, bc) = fixture(IndexBox::cube(6), 3, true, 1);
        let (mut looped, mut reference) = (start.clone(), start);
        let vbs = looped.valid_boxes();
        // `update` doubles the valid zones: the ghosts must still carry
        // the neighbours' pre-update values.
        let trace = HaloLoop::plan(&looped, &geom, IntVect::splat(1)).run(
            &mut looped,
            &bc,
            "test.halo",
            |_, _| {},
            |_, _| {},
            |f, view| {
                for iv in vbs[f].iter() {
                    for c in 0..NCOMP {
                        view.set(
                            iv.x(),
                            iv.y(),
                            iv.z(),
                            c,
                            2.0 * view.at(iv.x(), iv.y(), iv.z(), c),
                        );
                    }
                }
            },
        );
        assert_eq!(trace, reference.fill_boundary(&geom));
        for f in 0..reference.nfabs() {
            for iv in vbs[f].iter() {
                for c in 0..NCOMP {
                    let v = 2.0 * reference.fab(f).get(iv, c);
                    reference.fab_mut(f).set(iv, c, v);
                }
            }
        }
        assert_same_bits(&looped, &reference, "HaloLoop::run");
    }

    #[test]
    fn an_empty_footprint_plans_no_exchange() {
        for periodic in [true, false] {
            let (geom, start, bc) = fixture(IndexBox::cube(6), 3, periodic, 2);
            let mut mf = start.clone();
            let n = mf.nfabs();
            let halo = HaloLoop::plan(&mf, &geom, IntVect::zero());
            assert_eq!(halo.pending.nops(), 0);
            // Five tasks a fab; `band` and `update` keep their 2 + 3 edges,
            // no `unpack` waits on a `pack`.
            assert_eq!((halo.graph.len(), halo.graph.num_edges()), (5 * n, 5 * n));
            let trace = halo.run(&mut mf, &bc, "test.empty", |_, _| {}, |_, _| {}, |_, _| {});
            assert_eq!(trace, CommTrace::default());
            assert_same_bits(&mf, &start, "no ghost is written");
        }
    }

    #[test]
    #[should_panic(expected = "footprint (0,3,0) outside 0..=2 ghost zones")]
    fn a_footprint_deeper_than_the_allocation_panics_in_every_build() {
        let (geom, mf, _) = fixture(IndexBox::cube(6), 3, true, 2);
        let _ = HaloLoop::plan(&mf, &geom, IntVect::new(0, 3, 0));
    }
}
