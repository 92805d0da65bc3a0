//! Checkpoint/restart survival demo: a Sedov blast is killed repeatedly by
//! an injected fault schedule (plus one silently corrupted checkpoint) and
//! still reaches its final time with the *bit-identical* answer of an
//! uninterrupted run, by resuming from the newest intact checkpoint.
//!
//! Also prices the checkpoint cadence on the Summit machine model and
//! reports the Young/Daly optimal interval.
//!
//! ```sh
//! cargo run --release --example restart
//! ```

use exastro::amr::{BoxArray, Geometry, MultiFab};
use exastro::castro::{init_sedov, Castro, SedovParams, StateLayout};
use exastro::machine::Machine;
use exastro::microphysics::{CBurn2, GammaLaw, Network};
use exastro::parallel::WorkerPool;
use exastro::resilience::snapshot::digest_multifab;
use exastro::resilience::{faults, interval, CheckpointManager, Clock, KillSchedule, Snapshot};
use exastro::telemetry::Telemetry;

const TOTAL_STEPS: u64 = 18;
const CKPT_EVERY: u64 = 3;

fn fresh_state(geom: &Geometry, layout: &StateLayout, eos: &GammaLaw) -> MultiFab {
    let ba = BoxArray::decompose(geom.domain(), 12, 4);
    let mut state = MultiFab::local(ba, layout.ncomp(), 2);
    init_sedov(&mut state, geom, layout, eos, &SedovParams::default());
    state
}

fn main() {
    let eos = GammaLaw::monatomic();
    let net = CBurn2::new();
    let layout = StateLayout::new(net.nspec());
    let geom = Geometry::cube(24, 1.0, false);
    let castro = Castro::new(&eos, &net);
    let names = exastro::castro::variable_names(&layout);

    // ---- Gold: the uninterrupted run.
    let mut gold = fresh_state(&geom, &layout, &eos);
    for _ in 0..TOTAL_STEPS {
        let dt = castro.estimate_dt(&gold, &geom).min(2e-3);
        castro.advance_level(&mut gold, &geom, dt).unwrap();
    }
    let gold_digest = digest_multifab(&gold);
    println!("gold run: {TOTAL_STEPS} steps uninterrupted, digest {gold_digest:08x}");

    // ---- Survival run: kills at steps 5, 11, and 16, one checkpoint
    // silently bit-rotted between relaunches.
    let root = std::env::temp_dir().join(format!("exastro_restart_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mgr = CheckpointManager::new(&root)
        .expect("create checkpoint root")
        .keep_last(2);
    let mut kills = KillSchedule::at_steps(&[5, 11, 16]);
    let mut corrupted_once = false;
    let mut launches = 0u32;

    let final_state = loop {
        launches += 1;
        // Relaunch: resume from the newest intact checkpoint, or start over.
        let (mut state, mut step, mut time) = match mgr.resume() {
            Ok(snap) => {
                println!(
                    "launch {launches}: resumed from step {} (t = {:.5})",
                    snap.clock.step, snap.clock.time
                );
                let st = snap.levels[0].state.clone();
                (st, snap.clock.step, snap.clock.time)
            }
            Err(_) => {
                println!("launch {launches}: no checkpoint, starting from scratch");
                (fresh_state(&geom, &layout, &eos), 0, 0.0)
            }
        };
        let mut died = false;
        while step < TOTAL_STEPS {
            let dt = castro.estimate_dt(&state, &geom).min(2e-3);
            castro.advance_level(&mut state, &geom, dt).unwrap();
            step += 1;
            time += dt;
            if kills.should_die(step) {
                println!(
                    "launch {launches}: killed at step {step} (work since last checkpoint lost)"
                );
                died = true;
                break;
            }
            if step % CKPT_EVERY == 0 {
                let snap = Snapshot::single_level(
                    geom.clone(),
                    state.clone(),
                    Clock { step, time, dt },
                    names.clone(),
                );
                mgr.write(&snap).expect("checkpoint write");
            }
        }
        if died {
            // Between the first two relaunches, bit-rot the newest
            // checkpoint: the manager must detect it and fall back.
            if !corrupted_once {
                if let Some((s, path)) = mgr.latest_good() {
                    faults::flip_bit(&path.join("Level_00/fab_00000.bin"), 4096, 1)
                        .expect("inject corruption");
                    println!("injected bit flip into checkpoint chk{s:08}");
                    corrupted_once = true;
                }
            }
            continue;
        }
        break state;
    };

    let digest = digest_multifab(&final_state);
    let stats = mgr.stats();
    println!(
        "\nsurvived {} kills over {launches} launches; {} checkpoints written ({:.2} MB), \
         {} corrupt checkpoint(s) detected and skipped",
        kills.kills_delivered(),
        stats.writes,
        stats.bytes_written as f64 / 1e6,
        stats.corrupt_detected
    );
    println!("final digest {digest:08x} (gold {gold_digest:08x})");

    // ---- Price the cadence on the Summit model and report Young/Daly.
    let machine = Machine::summit();
    let snap_bytes = {
        let snap =
            Snapshot::single_level(geom.clone(), final_state.clone(), Clock::default(), names);
        snap.payload_bytes()
    };
    let nodes = 1;
    let ckpt_cost_us = snap_bytes as f64 / machine.node.gpu.d2h_bw_bytes_per_us
        + machine.checkpoint_write_us(snap_bytes, nodes);
    // Pretend-MTBF chosen so the demo prints a meaningful cadence.
    let mtbf_us = 3.0e9; // 50 machine-minutes
    let tau_young = interval::interval(mtbf_us, ckpt_cost_us);
    let tau_daly = interval::daly_interval(mtbf_us, ckpt_cost_us);
    println!(
        "\nmodeled checkpoint cost on {nodes} Summit node(s): {:.0} us for {:.2} MB \
         -> Young interval {:.1} s, Daly {:.1} s at MTBF {:.0} s",
        ckpt_cost_us,
        snap_bytes as f64 / 1e6,
        tau_young / 1e6,
        tau_daly / 1e6,
        mtbf_us / 1e6
    );

    // Cadence sweep: expected waste (checkpoint overhead + lost work on
    // failure) as the interval moves off the Young optimum.
    println!("\ncadence sweep (waste = C/tau + tau/2M):");
    println!("{:>12} {:>10}", "tau/tau_opt", "waste");
    for mult in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let w = interval::expected_waste(tau_young * mult, mtbf_us, ckpt_cost_us);
        println!("{mult:>12} {:>9.2}%", w * 100.0);
    }

    print!("\n{}", Telemetry::region_report());
    println!("pool: {}\n", WorkerPool::global().stats());

    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(
        digest, gold_digest,
        "the survived run must reproduce the uninterrupted answer"
    );
    println!("RESTART OK");
}
