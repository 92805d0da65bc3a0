//! **§III ablation**: the caching (pool) allocator vs per-call device
//! allocation in the timestep loop.
//!
//! The paper: per-timestep scratch allocation is "tolerable on CPUs but
//! disastrous in CUDA, where memory allocation is orders of magnitude
//! slower" — fixed by making AMReX's caching arena the CUDA default. Here
//! the actual hydro scratch churn of a Sedov step — every box's primitives
//! and face fluxes, every sweep — runs against both arenas, and the device
//! model prices the `cudaMalloc`/`cudaFree` calls each arena counts.

use criterion::{criterion_group, criterion_main, Criterion};
use exastro_amr::IndexBox;
use exastro_bench::{bench_castro, sedov_fixture};
use exastro_castro::hydro::face_box;
use exastro_castro::KernelStructure;
use exastro_machine::DeviceConfig;
use exastro_parallel::{Arena, ArenaStats, MallocArena, PoolArena, ScratchBuf};
use std::sync::{Arc, Mutex};

/// A pool arena that records every request: its length, and whether it
/// opened a new group — nothing else was live, as at the start of a sweep.
struct RecordingArena {
    pool: PoolArena,
    requests: Mutex<Vec<(usize, bool)>>,
}

impl Arena for RecordingArena {
    fn alloc(&self, len: usize) -> ScratchBuf {
        let opens = self.pool.stats().bytes_live == 0;
        self.requests.lock().unwrap().push((len, opens));
        self.pool.alloc(len)
    }

    fn stats(&self) -> ArenaStats {
        self.pool.stats()
    }
}

/// `(requests, bytes)` of one kind of scratch.
type Tally = (usize, usize);

/// One step's scratch requests on the `sedov_bigbox` layout (48³ in 8
/// boxes of 24³), and the tallies of its primitives and its fluxes.
fn record_one_step() -> (Vec<(usize, bool)>, [Tally; 2]) {
    let (geom, mut state, layout, eos, net) = sedov_fixture(48, 24);
    let recorder = Arc::new(RecordingArena {
        pool: PoolArena::new(),
        requests: Mutex::default(),
    });
    let mut castro = bench_castro(&eos, &net, KernelStructure::Flat);
    castro.arena = recorder.clone();
    let dt = castro.estimate_dt(&state, &geom);
    castro.advance_level(&mut state, &geom, dt).unwrap();
    let requests = std::mem::take(&mut *recorder.requests.lock().unwrap());
    // Tally by kind: a box's primitives (ρ, u, v, w, p, e, c_s and the
    // mass fractions — as many as the conserved components) cover it grown
    // by 2 along the sweep; its fluxes (the conserved ones plus the face
    // velocity) its face box.
    let (nq, nflux) = (layout.ncomp(), layout.ncomp() + 1);
    let vbs = state.valid_boxes();
    let zones = |b: IndexBox| b.num_zones() as usize;
    let is_prim = |len| (0..3).any(|d| vbs.iter().any(|vb| len == nq * zones(vb.grow_dir(d, 2))));
    let is_flux = |len| (0..3).any(|d| vbs.iter().any(|vb| len == nflux * zones(face_box(*vb, d))));
    let mut kinds: [Tally; 2] = [(0, 0); 2]; // primitives, fluxes
    for &(len, _) in &requests {
        let k = if is_flux(len) { 1 } else { 0 };
        assert!(
            is_prim(len) || is_flux(len),
            "unclassified request of {len}"
        );
        kinds[k].0 += 1;
        kinds[k].1 += len * 8;
    }
    (requests, kinds)
}

fn print_device_model() {
    println!("\n=== §III pool-allocator ablation (modeled V100 allocation latency) ===");
    let (requests, [prims, fluxes]) = record_one_step();
    println!(
        "one sedov 48^3/24^3 step requests {} primitive buffers ({:.1} MB) and {} flux buffers ({:.1} MB)",
        prims.0,
        prims.1 as f64 / 1e6,
        fluxes.0,
        fluxes.1 as f64 / 1e6
    );
    // Replay the recorded step 50 times through each arena: a request that
    // opened a group releases everything held before it.
    let steps = 50;
    let gpu = DeviceConfig::v100();
    for (name, pool) in [("malloc-per-call", false), ("pool (caching)", true)] {
        let arena: Box<dyn Arena> = if pool {
            Box::new(PoolArena::new())
        } else {
            Box::new(MallocArena::new())
        };
        let mut live = Vec::new();
        for _ in 0..steps {
            for &(len, opens) in &requests {
                if opens {
                    live.clear();
                }
                live.push(arena.alloc(len));
            }
        }
        drop(live);
        let s = arena.stats();
        let stall_us = s.device_allocs as f64 * gpu.alloc_latency_us
            + s.device_frees as f64 * gpu.free_latency_us;
        println!(
            "{name:>16}: {:>5} device allocs, {:>5} frees, {:>10.0} µs of allocation stalls [modeled]",
            s.device_allocs, s.device_frees, stall_us
        );
    }
    println!("(the pool reaches zero device allocations in steady state — the paper's fix)\n");
}

fn bench(c: &mut Criterion) {
    print_device_model();
    let (geom, state, _layout, eos, net) = sedov_fixture(32, 32);
    let mut g = c.benchmark_group("pool_allocator");
    g.sample_size(10);
    for (name, use_pool) in [("pool", true), ("malloc", false)] {
        let mut castro = bench_castro(&eos, &net, KernelStructure::Flat);
        castro.arena = if use_pool {
            Arc::new(PoolArena::new())
        } else {
            Arc::new(MallocArena::new())
        };
        let dt = castro.estimate_dt(&state, &geom);
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut s = state.clone();
                std::hint::black_box(castro.advance_level(&mut s, &geom, dt))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
