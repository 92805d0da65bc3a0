//! **The verification ladder's burn rung**: the BDF integrator's accuracy
//! rows, the burn rows of a bubble half-step and an igniting aprox13
//! sweep, and the one-box-vs-eight invariance row
//! ([`exastro_bench::verify`] has the fixtures and what each row means).
//!
//! Emits `BENCH_verify.json` at the workspace root; `ci/perf_gate.py`
//! holds it to `ci/baselines/BENCH_verify.json`: every error row under its
//! cap, every `worst_fall` below 1 (the error falls strictly with rtol),
//! every burn row inside the tolerance its burn asked for. Steps,
//! rejections, Jacobians and the invariance row are recorded, not gated.
//! Every row is an error or a count, none a timing, so `--test` (the CI
//! smoke flag every bench takes) runs the same rows.

use exastro_bench::{verify, write_metrics_json};
use std::time::Instant;

fn main() {
    let start = Instant::now();
    let rows = verify::rung();
    for m in &rows {
        println!("{:>44} {:<14.6e} {}", m.label, m.value, m.unit);
    }
    let path = write_metrics_json("verify", &rows).expect("BENCH_verify.json is writable");
    println!(
        "wrote {} ({} rows) in {:.1} s",
        path.display(),
        rows.len(),
        start.elapsed().as_secs_f64()
    );
}
