//! Property-based tests for the index algebra, the worker pool, the task
//! graph, its exported trace, and arenas.

#[path = "../../telemetry/tests/common/strict_json.rs"]
mod strict_json;

use exastro_parallel::{Arena, IndexBox, IntVect, MallocArena, PoolArena, Tasks, WorkerPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

fn arb_intvect(range: std::ops::Range<i32>) -> impl Strategy<Value = IntVect> {
    (range.clone(), range.clone(), range).prop_map(|(i, j, k)| IntVect::new(i, j, k))
}

fn arb_box() -> impl Strategy<Value = IndexBox> {
    (arb_intvect(-20..20), arb_intvect(1..16))
        .prop_map(|(lo, size)| IndexBox::new(lo, lo + size - IntVect::unit()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn intersection_is_commutative_and_contained(a in arb_box(), b in arb_box()) {
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        prop_assert_eq!(ab, ba);
        if !ab.is_empty() {
            prop_assert!(a.contains_box(&ab));
            prop_assert!(b.contains_box(&ab));
        }
    }

    #[test]
    fn grow_then_shrink_roundtrips(bx in arb_box(), n in 0i32..5) {
        prop_assert_eq!(bx.grow(n).grow(-n), bx);
    }

    #[test]
    fn refine_coarsen_roundtrips(bx in arb_box(), r in 2i32..5) {
        prop_assert_eq!(bx.refine(r).coarsen(r), bx);
        prop_assert_eq!(bx.refine(r).num_zones(), bx.num_zones() * (r as i64).pow(3));
    }

    #[test]
    fn coarsen_covers_original(bx in arb_box(), r in 2i32..5) {
        // Every zone of bx maps into its coarsened box.
        let c = bx.coarsen(r);
        for iv in bx.iter().step_by(7) {
            prop_assert!(c.contains(iv.coarsen(IntVect::splat(r))));
        }
    }

    #[test]
    fn difference_partitions_exactly(a in arb_box(), b in arb_box()) {
        let parts = a.difference(&b);
        let total: i64 = parts.iter().map(|p| p.num_zones()).sum();
        prop_assert_eq!(total, a.num_zones() - a.intersection(&b).num_zones());
        for (i, p) in parts.iter().enumerate() {
            prop_assert!(!p.intersects(&b));
            prop_assert!(a.contains_box(p));
            for q in &parts[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
        }
    }

    #[test]
    fn linear_index_is_a_bijection(bx in arb_box()) {
        let n = bx.num_zones() as usize;
        let mut seen = vec![false; n];
        for iv in bx.iter() {
            let li = bx.linear_index(iv);
            prop_assert!(li < n);
            prop_assert!(!seen[li]);
            seen[li] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pool_allocations_never_alias(sizes in prop::collection::vec(1usize..4096, 1..20)) {
        let pool = PoolArena::new();
        let mut bufs = Vec::new();
        for (n, &len) in sizes.iter().enumerate() {
            let mut b = pool.alloc(len);
            b[0] = n as f64;
            if b.len() > 1 {
                let last = b.len() - 1;
                b[last] = -(n as f64);
            }
            bufs.push(b);
        }
        for (n, b) in bufs.iter().enumerate() {
            prop_assert_eq!(b[0], n as f64);
        }
    }

    #[test]
    fn fresh_buffers_are_zero_and_recycled_ones_poisoned_in_debug(
        sizes in prop::collection::vec(1usize..2048, 1..12),
    ) {
        // The `Arena` contract: memory never handed out is zero (a pool
        // miss, every malloc-arena buffer); a recycled pool buffer is as its
        // last user left it, which debug builds make all-NaN.
        let pool = PoolArena::new();
        let malloc = MallocArena::new();
        for &len in &sizes {
            let misses = pool.stats().device_allocs;
            {
                let mut a = pool.alloc(len);
                if pool.stats().device_allocs > misses {
                    prop_assert!(a.iter().all(|&v| v == 0.0));
                }
                a.iter_mut().for_each(|v| *v = 1.25);
            } // recycle dirty
            let b = pool.alloc(len);
            if cfg!(debug_assertions) {
                prop_assert!(b.iter().all(|v| v.is_nan()));
            } else {
                prop_assert!(b.iter().all(|&v| v == 1.25));
            }
            let c = malloc.alloc(len);
            prop_assert!(c.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn pool_reuse_is_bounded_by_live_set(
        rounds in 1usize..20,
        len in 64usize..512,
    ) {
        // Allocating and dropping one buffer per round must allocate at
        // most once from the device (steady state = pure recycling).
        let pool = PoolArena::new();
        for _ in 0..rounds {
            let _b = pool.alloc(len);
        }
        let s = pool.stats();
        prop_assert_eq!(s.device_allocs, 1);
        prop_assert_eq!(s.pool_hits, rounds as u64 - 1);
    }

    #[test]
    fn pool_claims_every_index_exactly_once(
        n in 0usize..300,   // 0 and 1 take the inline path
        cap in 1usize..32,  // often more participants than workers or tasks
    ) {
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        WorkerPool::global().run(n, cap, &|tasks: Tasks<'_>| {
            while let Some(i) = tasks.next_task() {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}

// ---------------------------------------------------------------------------
// Task-graph scheduling: any legal execution order must be immaterial.
// ---------------------------------------------------------------------------

mod graph_props {
    use exastro_parallel::{TaskGraph, WorkerPool};
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Mix a task's id with its dependencies' results: any schedule that
    /// respects the edges computes the same table bit-for-bit, and any
    /// schedule that violates one computes something else with high
    /// probability.
    fn run_and_hash<R>(g: &TaskGraph, deps: &[Vec<usize>], run: R) -> Vec<u64>
    where
        R: FnOnce(&TaskGraph, &(dyn Fn(usize) + Sync)),
    {
        let out: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
        let body = |t: usize| {
            let mut h = (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93;
            for &d in &deps[t] {
                h = h
                    .rotate_left(17)
                    .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                    .wrapping_add(out[d].load(Ordering::SeqCst));
            }
            out[t].store(h, Ordering::SeqCst);
        };
        run(g, &body);
        out.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// A random forward-edge DAG plus its dependency lists.
    pub(super) fn random_dag(n: usize, density: f64, seed: u64) -> (TaskGraph, Vec<Vec<usize>>) {
        let mut g = TaskGraph::new();
        for _ in 0..n {
            g.add_task();
        }
        let mut deps = vec![Vec::new(); n];
        let mut s = seed;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) as f64 / (1u64 << 31) as f64
        };
        for a in 0..n {
            for (b, d) in deps.iter_mut().enumerate().skip(a + 1) {
                if rnd() < density {
                    g.add_edge(a, b);
                    d.push(a);
                }
            }
        }
        (g, deps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn random_dags_hash_identically_under_every_scheduler(
            n in 2usize..28,
            density in 0.0f64..0.6,
            seed in 0u64..100_000,
        ) {
            let (g, deps) = random_dag(n, density, seed);
            let serial = run_and_hash(&g, &deps, |g, f| g.run_serial(f).unwrap());
            for order_seed in [1u64, 42, seed ^ 0xABCD] {
                let shuffled =
                    run_and_hash(&g, &deps, |g, f| g.run_seeded(order_seed, f).unwrap());
                prop_assert_eq!(&serial, &shuffled);
            }
            let pooled = run_and_hash(&g, &deps, |g, f| {
                g.run(WorkerPool::global(), 4, f).unwrap();
            });
            prop_assert_eq!(&serial, &pooled);
        }

        #[test]
        fn chains_and_diamonds_hash_identically(
            width in 1usize..6,
            length in 2usize..8,
            seed in 0u64..1000,
        ) {
            // `width` parallel chains of `length` tasks, then a diamond
            // joining their tails: the shapes the hydro step builds.
            let mut g = TaskGraph::new();
            let mut deps: Vec<Vec<usize>> = Vec::new();
            let mut tails = Vec::new();
            for _ in 0..width {
                let mut prev = g.add_task();
                deps.push(Vec::new());
                for _ in 1..length {
                    let t = g.add_task_after(&[prev]);
                    deps.push(vec![prev]);
                    prev = t;
                }
                tails.push(prev);
            }
            let join = g.add_task_after(&tails);
            deps.push(tails.clone());
            let (a, b) = (g.add_task_after(&[join]), g.add_task_after(&[join]));
            deps.push(vec![join]);
            deps.push(vec![join]);
            let _tip = g.add_task_after(&[a, b]);
            deps.push(vec![a, b]);

            let serial = run_and_hash(&g, &deps, |g, f| g.run_serial(f).unwrap());
            let shuffled = run_and_hash(&g, &deps, |g, f| g.run_seeded(seed, f).unwrap());
            prop_assert_eq!(&serial, &shuffled);
            let pooled = run_and_hash(&g, &deps, |g, f| {
                g.run(WorkerPool::global(), 3, f).unwrap();
            });
            prop_assert_eq!(&serial, &pooled);
        }
    }
}

// ---------------------------------------------------------------------------
// Graph tracing: the exported trace draws each task once and each edge once.
// ---------------------------------------------------------------------------

mod trace_props {
    use super::graph_props::random_dag;
    use super::strict_json::{self, Json};
    use exastro_parallel::{TaskClass, TaskLabel, Telemetry, WorkerPool};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn text(ev: &Json, key: &str) -> String {
        match ev.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key} is {other:?} in {ev:?}"),
        }
    }

    fn number(ev: &Json, key: &str) -> f64 {
        match ev.get(key) {
            Some(Json::Num(v)) => *v,
            other => panic!("{key} is {other:?} in {ev:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn traced_dags_export_one_arrow_per_edge_inside_their_tasks(
            n in 1usize..24,
            density in 0.0f64..0.6,
            seed in 0u64..100_000,
        ) {
            // Two traced runs of one random DAG on a pool; each task opens
            // a region. Other tests of this binary run graphs concurrently,
            // so only this test's names (`dag.*`) are held to the DAG.
            let (g, deps) = random_dag(n, density, seed);
            let pool = WorkerPool::new(3);
            Telemetry::reset();
            Telemetry::enable_graph_trace();
            for _ in 0..2 {
                g.run_labeled(
                    &pool,
                    4,
                    "dag",
                    |t| TaskLabel::new(&format!("dag.t{t}"), TaskClass::Compute),
                    |_| {
                        let _body = Telemetry::region("dag.body");
                    },
                )
                .unwrap();
            }
            Telemetry::disable_graph_trace();
            Telemetry::disable();
            let path = std::env::temp_dir()
                .join(format!("exastro-dag-trace-{}.json", std::process::id()));
            Telemetry::write_trace(&path).unwrap();
            let json = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let trace = strict_json::parse(&json).expect("the trace is strict JSON");
            let Some(Json::Arr(events)) = trace.get("traceEvents") else {
                panic!("no traceEvents array");
            };

            // Replay every thread's stack: per-thread monotonic timestamps,
            // LIFO-nested balanced spans; every arrow end inside a span,
            // noted with the name of the span it sits in.
            let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
            let mut last_ts: HashMap<u64, f64> = HashMap::new();
            let mut arrows: HashMap<u64, Vec<(String, String)>> = HashMap::new();
            let (mut tasks, mut bodies) = (0, 0);
            for ev in events {
                let (name, ph) = (text(ev, "name"), text(ev, "ph"));
                let (tid, ts) = (number(ev, "tid") as u64, number(ev, "ts"));
                let prev = last_ts.insert(tid, ts).unwrap_or(0.0);
                prop_assert!(ts >= prev, "ts regresses on tid {}", tid);
                let stack = stacks.entry(tid).or_default();
                match ph.as_str() {
                    "B" => {
                        if name == "dag.body" {
                            let inside = stack.last().is_some_and(|s| s.starts_with("dag.t"));
                            prop_assert!(inside, "a region outside its task: {:?}", stack);
                            bodies += 1;
                        }
                        tasks += usize::from(name.starts_with("dag.t"));
                        stack.push(name);
                    }
                    "E" => prop_assert_eq!(stack.pop(), Some(name)),
                    "s" | "f" => {
                        prop_assert!(ph == "s" || text(ev, "bp") == "e");
                        let inside = stack.last().cloned().expect("an arrow outside any span");
                        arrows.entry(number(ev, "id") as u64).or_default().push((ph, inside));
                    }
                    other => prop_assert!(false, "unexpected ph {}", other),
                }
            }
            for (tid, stack) in &stacks {
                prop_assert!(stack.is_empty(), "unclosed spans on tid {}: {:?}", tid, stack);
            }
            prop_assert_eq!((tasks, bodies), (2 * n, 2 * n));

            // One tail and then one head per id; this DAG's arrows run from
            // each predecessor's span to its successor's, once per edge a run.
            let mut drawn: Vec<(String, String)> = Vec::new();
            for (id, ends) in arrows {
                let [(s, tail), (f, head)] = <[_; 2]>::try_from(ends).expect("two ends an arrow");
                prop_assert!((s.as_str(), f.as_str()) == ("s", "f"), "arrow {} is {} then {}", id, s, f);
                if tail.starts_with("dag.") || head.starts_with("dag.") {
                    drawn.push((tail, head));
                }
            }
            let mut want: Vec<(String, String)> = deps
                .iter()
                .enumerate()
                .flat_map(|(t, ds)| ds.iter().map(move |d| (format!("dag.t{d}"), format!("dag.t{t}"))))
                .flat_map(|edge| [edge.clone(), edge])
                .collect();
            drawn.sort();
            want.sort();
            prop_assert_eq!(drawn, want);
        }
    }
}
