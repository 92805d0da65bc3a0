#!/usr/bin/env bash
# Tier-1 gate: everything here must pass before merge.
#
# The workspace has no registry dependencies (proptest/criterion are
# vendored shims under crates/), so --offline keeps CI honest about that.
set -euo pipefail
cd "$(dirname "$0")/.."
# Logs and smoke artifacts; benches write BENCH_*.json at the root. Both
# start empty so no artifact of an earlier run can pass the gate.
OUT=target/tier1
rm -rf "$OUT" BENCH_*.json
mkdir -p "$OUT"

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== tests =="
# The root's default members are every crate, so this is the whole suite.
cargo test -q --offline

echo "== pooled burn sweep == nested inline sweep (release) =="
# The debug run above already covers it; optimised code takes other
# schedules through the pool, and a sweep's bits must not follow them.
cargo test -q --offline --release -p exastro-microphysics --test proptests pooled_sweep
# Likewise a reacting MAESTROeX step and a Castro burn sweep, whose per-fab
# passes also run on the pool.
cargo test -q --offline --release -p exastro --test schedule
echo "== Castro bit pins and the lane-kernel oracle (release) =="
# The hydro row kernels take four zones of a row at a time, and only an
# optimised build packs those lanes into vector registers: the pins and the
# per-face oracle must hold there too, not only in the debug run above.
cargo test -q --offline --release -p exastro --test castro_pins
cargo test -q --offline --release -p exastro-castro --lib row_kernels_match_the_per_face_oracle
echo "== burner bit pins and the network's two stages (release) =="
# One network type means one instantiation of the rate and abundance
# stages for every network: the burn digests and the stages ≡ one-pass
# oracle must hold in optimised code too.
cargo test -q --offline --release -p exastro --test burner_pins
cargo test -q --offline --release -p exastro-microphysics --lib the_two_stages
echo "== pool and task-graph proptests (release) =="
# Likewise every index of a pool region must be claimed exactly once.
cargo test -q --offline --release -p exastro-parallel --test proptests

echo "== restart round-trip smoke =="
# The survival demo kills itself mid-run three times, corrupts a
# checkpoint, and must still reproduce the uninterrupted digest.
cargo run --release --offline --example restart | tee "$OUT/restart_smoke.log"
grep -q "RESTART OK" "$OUT/restart_smoke.log"

echo "== fault-injection smoke =="
# ~1% of burn zones are forced to fail and must be rescued by the retry
# ladder (retries visible in the region report); a second phase with
# unrecoverable faults must degrade to an emergency checkpoint plus a
# structured error, never a panic.
cargo run --release --offline --example fault_injection | tee "$OUT/fault_smoke.log"
grep -q "FAULT RECOVERY OK" "$OUT/fault_smoke.log"
grep -q "EMERGENCY CHECKPOINT OK" "$OUT/fault_smoke.log"

echo "== burner bench smoke (test mode) =="
# Dense-vs-sparse Newton comparison, the lane-step parts and batched SoA
# throughput with tiny sample counts; ci/perf_gate.py holds the artifact
# at the end.
cargo bench --offline -p exastro-bench --bench burner -- --test >"$OUT/burner_smoke.log"

echo "== telemetry smoke (quickstart --trace --metrics --graph-trace) =="
# A short quickstart run with every telemetry sink on: a Chrome trace, a
# step-metrics stream and the critical-path summary of every graph.
QUICKSTART_STEPS=12 cargo run --release --offline --example quickstart -- \
  --trace "$OUT/quickstart_trace.json" --metrics "$OUT/quickstart_steps.jsonl" \
  --graph-trace "$OUT/quickstart_graphs.json" >"$OUT/quickstart_smoke.log"

echo "== service smoke (multi-tenant job runtime) =="
# Mixed tenant population over the two-node pool: a rigged-to-fail burn
# must be contained to its own job and the high-priority arrival must
# checkpoint-preempt somebody; every job writes its own steps.jsonl.
cargo run --release --offline --example service -- \
  --report "$OUT/service_report.json" --jsonl-dir "$OUT/service_jobs" \
  | tee "$OUT/service_smoke.log"
grep -q "SERVICE OK" "$OUT/service_smoke.log"

echo "== chaos smoke (self-healing under node failures) =="
# The chaos drill arms the seeded node fault model (node kills with repair
# plus a straggler wave) over a mixed tenant population: every completed
# job's digest is checked in-process against a fault-free solo run.
cargo run --release --offline --example chaos -- \
  --report "$OUT/chaos_report.json" --events "$OUT/chaos_events.jsonl" \
  | tee "$OUT/chaos_smoke.log"
grep -q "CHAOS OK" "$OUT/chaos_smoke.log"

echo "== benches (test mode) =="
# fig2/fig3 throughputs come from the machine performance model, so they
# are bit-reproducible; verify's rows are errors against tight-tolerance
# references and step counts; the rest are same-run ratios, scheduler
# throughput and telemetry overhead on this host.
for bench in ablation_taskgraph fig2_sedov_weak_scaling fig3_bubble_weak_scaling \
  verify service chaos ablation_telemetry; do
  cargo bench --offline -p exastro-bench --bench "$bench" -- --test >"$OUT/$bench.log"
done

echo "== perf_ledger smoke (the repo's benchmark builds and runs) =="
# examples/perf_ledger is a package of its own, outside the workspace, so
# nothing above compiles it: an API-removing PR could break the benchmark
# unseen. --smoke runs every workload briefly (< 20 s after the build);
# --selfcheck holds the result file against BENCHMARK.json.
cargo run --release --offline --quiet --manifest-path examples/perf_ledger/Cargo.toml -- \
  --smoke --out "$OUT/ledger_smoke.json"
cargo run --release --offline --quiet --manifest-path examples/perf_ledger/Cargo.toml -- \
  --selfcheck "$OUT/ledger_smoke.json"

echo "== rustdoc (deny warnings) =="
# Deletion PRs leave dangling [`Type::removed_item`] links, and public docs
# can link to private items; nothing else catches them.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== clippy (deny warnings, deny deprecated) =="
# -D deprecated keeps the repo itself off any deprecated API (the last
# holder, the integrate_with_stats shim, is gone) while external callers
# of a future deprecation get a soft warning.
cargo clippy --workspace --all-targets --offline -- -D warnings -D deprecated

echo "== rustfmt check =="
cargo fmt --all --check

echo "== artifact and perf gate =="
# One table in ci/perf_gate.py: every artifact above against its keys and
# invariants, and every BENCH_*.json against the bounds in ci/baselines/.
# Last, so a red from host noise cannot stop the correctness steps above.
python3 ci/perf_gate.py

echo "tier-1: OK"
