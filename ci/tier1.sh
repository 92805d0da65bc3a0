#!/usr/bin/env bash
# Tier-1 gate: everything here must pass before merge.
#
# The workspace has no registry dependencies (proptest/criterion are
# vendored shims under crates/), so --offline keeps CI honest about that.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== tests =="
cargo test --workspace -q --offline

echo "== pooled burn sweep == nested inline sweep (release) =="
# The debug run above already covers it; optimised code takes other
# schedules through the pool, and a sweep's bits must not follow them.
cargo test -q --offline --release -p exastro-microphysics --test proptests pooled_sweep
echo "== Castro bit pins and the lane-kernel oracle (release) =="
# The hydro row kernels take four zones of a row at a time, and only an
# optimised build packs those lanes into vector registers: the pins and the
# per-face oracle must hold there too, not only in the debug run above.
cargo test -q --offline --release -p exastro-castro --test pinned_digest
cargo test -q --offline --release -p exastro-castro --lib row_kernels_match_the_per_face_oracle
echo "== pool and task-graph proptests (release) =="
# Likewise every index of a pool region must be claimed exactly once.
cargo test -q --offline --release -p exastro-parallel --test proptests

echo "== restart round-trip smoke =="
# The survival demo kills itself mid-run three times, corrupts a
# checkpoint, and must still reproduce the uninterrupted digest.
cargo run --release --offline --example restart | tee /tmp/restart_smoke.log
grep -q "RESTART OK" /tmp/restart_smoke.log

echo "== fault-injection smoke =="
# ~1% of burn zones are forced to fail and must be rescued by the retry
# ladder (retries visible in the region report); a second phase with
# unrecoverable faults must degrade to an emergency checkpoint plus a
# structured error, never a panic.
cargo run --release --offline --example fault_injection | tee /tmp/fault_smoke.log
grep -q "FAULT RECOVERY OK" /tmp/fault_smoke.log
grep -q "EMERGENCY CHECKPOINT OK" /tmp/fault_smoke.log

echo "== burner bench smoke (test mode) =="
# Dense-vs-sparse Newton comparison plus batched SoA throughput in smoke
# mode: tiny sample counts, no absolute timing assertions here — but the
# BENCH_burner.json artifact must be strict JSON (ci/strict_json.py: no
# NaN/Infinity tokens, no duplicate keys — what Python's own json.load lets
# through — here and in every check below) with the expected schema,
# the batched path must actually beat the scalar ladder (speedup > 1; the
# quantitative floor lives in the perf gate below), and fifteen reactions
# must cost well under fifteen times one.
cargo bench --offline -p exastro-bench --bench burner -- --test >/tmp/burner_smoke.log
PYTHONPATH=ci python3 - <<'EOF'
import strict_json
d = strict_json.load("BENCH_burner.json")
assert d["bench"] == "burner", d
labels = {m["label"] for m in d["metrics"]}
for need in ("iso7/newton_solve_speedup", "aprox13/newton_solve_speedup",
             "iso7/zones_per_us_scalar", "aprox13/zones_per_us_scalar",
             "iso7/zones_per_us_batch8", "aprox13/zones_per_us_batch8",
             "iso7/batch_speedup_w8", "aprox13/batch_speedup_w8",
             "iso7/w1_jac_evals_per_step", "aprox13/w1_jac_evals_per_step",
             *(f"{net}/{part}" for net in ("cburn2", "iso7", "aprox13")
               for part in ("ydot_ns", "jac_ns", "eos_ns", "ydot_lanes_ns",
                            "ydot_lanes_ratio"))):
    assert need in labels, f"missing {need} in {sorted(labels)}"
by = {m["label"]: m["value"] for m in d["metrics"]}
base = {m["label"]: m["value"]
        for m in strict_json.load("ci/baselines/BENCH_burner.json")["metrics"]}
for net in ("iso7", "aprox13"):
    s = by[f"{net}/batch_speedup_w8"]
    assert s > 1.0, f"{net}: batched burns slower than scalar ({s:.2f}x)"
    # Two-sided against the committed baseline (recorded before sweeps ran
    # on the pool): the bench measures both sides as inline sweeps, so the
    # ratio is still lanes, not lanes x threads.
    b = base[f"{net}/batch_speedup_w8"]
    assert abs(s / b - 1.0) <= 0.15, (
        f"{net}/batch_speedup_w8 {s:.2f} is not within 15% of baseline {b:.2f}")
# Same-run ratio gate: a network evaluation computes its temperature
# factors once and shares them across reactions, so aprox13's fifteen
# reactions cost ~4-5x cburn2's one (it was ~11x while every reaction took
# its own powf's and every Jacobian column re-evaluated the rate). Both
# numbers come from this run, so machine speed cancels.
ratio = by["aprox13/ydot_ns"] / by["cburn2/ydot_ns"]
assert ratio <= 7.0, (
    f"aprox13 ydot is {ratio:.1f}x cburn2 ydot "
    f"({by['aprox13/ydot_ns']:.0f} ns vs {by['cburn2/ydot_ns']:.0f} ns); limit 7")
print(f"aprox13/ydot_ns / cburn2/ydot_ns = {ratio:.2f}")
print(f"BENCH_burner.json OK ({len(d['metrics'])} metrics)")
EOF

echo "== telemetry smoke (quickstart --trace --metrics --graph-trace) =="
# A short quickstart run with every telemetry sink on: the Chrome trace
# must be valid JSON with balanced, name-matched B/E pairs, id-paired s/f
# flow arrows, and monotonic per-thread timestamps; the step-metrics
# stream must carry the full schema with 1-based ordinals; and the
# critical-path summary must reconcile measured overlap vs the machine
# model per graph.
QUICKSTART_STEPS=12 cargo run --release --offline --example quickstart -- \
  --trace /tmp/quickstart_trace.json --metrics /tmp/quickstart_steps.jsonl \
  --graph-trace /tmp/quickstart_graphs.json \
  >/tmp/quickstart_smoke.log
PYTHONPATH=ci python3 - <<'EOF'
import strict_json
d = strict_json.load("/tmp/quickstart_trace.json")
evs = d["traceEvents"]
assert evs, "empty trace"
stacks, last_ts, flows = {}, {}, {}
for e in evs:
    assert e["ph"] in ("B", "E", "s", "f"), e
    assert e["pid"] == 1
    tid = e["tid"]
    assert e["ts"] >= last_ts.get(tid, 0.0), f"non-monotonic ts on tid {tid}"
    last_ts[tid] = e["ts"]
    if e["ph"] == "B":
        stacks.setdefault(tid, []).append(e["name"])
    elif e["ph"] == "E":
        assert stacks.get(tid), f"stray E on tid {tid}"
        top = stacks[tid].pop()
        assert top == e["name"], f"mismatched E {e['name']} vs open {top}"
    else:
        # Flow arrows bind an edge across tasks: one s and one f per id,
        # each inside an open slice, f with bp=e so Perfetto attaches it
        # to the enclosing slice end.
        assert stacks.get(tid), f"flow {e['ph']} outside any open slice"
        if e["ph"] == "f":
            assert e.get("bp") == "e", f"f without bp=e: {e}"
        flows.setdefault(e["id"], []).append((e["ph"], e["ts"]))
for tid, s in stacks.items():
    assert not s, f"unbalanced B on tid {tid}: {s}"
assert flows, "graph tracing produced no flow arrows"
for fid, parts in flows.items():
    phs = sorted(p for p, _ in parts)
    assert phs == ["f", "s"], f"flow {fid} not an s/f pair: {phs}"
    ts = {p: t for p, t in parts}
    assert ts["s"] <= ts["f"], f"flow {fid} travels backward in time"
print(f"trace OK ({len(evs)} events, {len(last_ts)} thread(s), "
      f"{len(flows)} flow(s), dropped {d.get('droppedEventCount', 0)})")
# Same-run ratio gate: the post-hydro EOS re-sync is one seeded solve per
# zone, a few percent of the hydro it follows (0.04-0.05 here since the
# hydro kernels index a zone once and hydro itself got 2.4x cheaper,
# 0.02-0.04 before that; it was ~1.2 while it inverted the EOS twice from
# a cold seed). Both spans come from this run, so machine speed cancels.
def span_ms(name):
    begun, out = {}, []
    for e in evs:
        if e["name"] != name:
            continue
        if e["ph"] == "B":
            begun[e["tid"]] = e["ts"]
        elif e["ph"] == "E":
            out.append((e["ts"] - begun.pop(e["tid"])) / 1e3)
    return out
hydro, sync = span_ms("hydro"), span_ms("sync_temperature")
assert hydro and sync, (
    f"trace kept {len(hydro)} hydro and {len(sync)} sync_temperature span(s)")
# The ring buffer keeps the newest events and a step's re-sync follows its
# hydro, so the last len(hydro) re-syncs are the kept hydros' own steps.
sync = sync[-len(hydro):]
ratio = sum(sync) / sum(hydro)
assert ratio <= 0.12, (
    f"sync_temperature is {ratio:.2f}x hydro ({sum(sync):.1f} ms vs "
    f"{sum(hydro):.1f} ms over {len(hydro)} step(s)); limit 0.12")
print(f"sync_temperature / hydro = {ratio:.3f} over {len(hydro)} step(s)")
g = strict_json.load("/tmp/quickstart_graphs.json")
assert g["schema"] == "exastro.graphtrace.v1", g.get("schema")
assert g["graphs"], "no graph summaries recorded"
for s in g["graphs"]:
    need = {"label", "tasks", "edges", "workers", "wall_us", "total_run_us",
            "total_queue_wait_us", "critical_path_us", "critical_path",
            "comm_us", "compute_us", "hidden_comm_us",
            "measured_overlap_efficiency", "predicted_overlap_efficiency",
            "overlap_drift"}
    assert need <= set(s), f"graph summary missing {need - set(s)}"
    assert s["tasks"] > 0 and s["critical_path_us"] > 0
    assert s["critical_path"], "critical path must be non-empty"
    assert s["critical_path_us"] <= s["total_run_us"] + 1e-9, (
        "critical path cannot exceed total work")
    if s["measured_overlap_efficiency"] is not None:
        m, p = s["measured_overlap_efficiency"], s["predicted_overlap_efficiency"]
        assert 0.0 <= m <= 1.0, m
        assert p is not None and s["overlap_drift"] is not None, (
            "summaries must be reconciled against the overlap model")
        assert abs((m - p) - s["overlap_drift"]) < 1e-12
    # per-task slack: on-critical-path tasks have zero slack
    for t in s["task_stats"]:
        assert t["slack_us"] >= 0.0
        if t["on_critical_path"]:
            assert t["slack_us"] < 1e-9, f"critical task with slack: {t}"
print(f"graphs.json OK ({len(g['graphs'])} graph(s), "
      f"{sum(s['tasks'] for s in g['graphs'])} task(s))")
need = {"driver", "step", "t", "dt", "wall_ns", "zones", "zones_per_us",
        "newton_iters", "bdf_steps", "burn_retries", "recovered_relaxed",
        "recovered_subcycle", "recovered_offload", "step_rejections",
        "checkpoint_bytes", "arena_live_bytes", "arena_peak_bytes"}
recs = [strict_json.loads(l) for l in open("/tmp/quickstart_steps.jsonl")]
assert len(recs) == 12, f"expected 12 steps, got {len(recs)}"
for i, r in enumerate(recs):
    assert need <= set(r), f"missing keys: {need - set(r)}"
    assert r["step"] == i + 1
    assert r["driver"] == "castro"
print(f"steps.jsonl OK ({len(recs)} records)")
EOF

echo "== service smoke (multi-tenant job runtime) =="
# Mixed tenant population over the two-node pool: a rigged-to-fail burn
# must be contained to its own job, the high-priority arrival must
# checkpoint-preempt somebody, the report JSON must carry the full
# schema, and every job's steps.jsonl must have exactly steps_done
# records with contiguous 1-based ordinals — including the tenants that
# were preempted, migrated, and resumed mid-run.
rm -rf /tmp/service_jobs
cargo run --release --offline --example service -- \
  --report /tmp/service_report.json --jsonl-dir /tmp/service_jobs \
  | tee /tmp/service_smoke.log
grep -q "SERVICE OK" /tmp/service_smoke.log
PYTHONPATH=ci python3 - <<'EOF'
import pathlib
import strict_json
r = strict_json.load("/tmp/service_report.json")
need = {"wall_s", "submitted", "rejected", "completed", "failed",
        "preemptions", "queue_peak", "queue_bound", "total_ranks",
        "rank_utilization", "jobs_per_hour", "latency_p50_s",
        "latency_p99_s", "jobs"}
assert need <= set(r), f"report missing keys: {need - set(r)}"
assert r["completed"] == 5 and r["failed"] == 1, (r["completed"], r["failed"])
assert r["preemptions"] >= 1, "high-priority arrival must have preempted"
jneed = {"id", "scenario", "network", "priority", "resolution", "nodes",
         "ranks", "steps_done", "steps_requested", "outcome", "preemptions",
         "latency_s", "deadline_met", "ckpt_every", "final_digest",
         "sim_us", "zones", "step_records"}
failed = [j for j in r["jobs"] if j["outcome"] == "failed"]
assert len(failed) == 1 and "error" in failed[0], failed
drivers = {"sedov_blast": "castro", "wd_collision": "castro",
           "xrb_flame": "castro", "reacting_bubble": "maestro"}
for j in r["jobs"]:
    assert jneed <= set(j), f"{j['id']}: missing {jneed - set(j)}"
    if j["outcome"] == "completed":
        assert j["steps_done"] == j["steps_requested"], j
    path = pathlib.Path("/tmp/service_jobs") / f"{j['id']}.steps.jsonl"
    assert path.exists(), f"missing per-job stream {path}"
    recs = [strict_json.loads(l) for l in open(path)]
    assert len(recs) == j["steps_done"], (
        f"{j['id']}: {len(recs)} records vs {j['steps_done']} steps")
    for i, rec in enumerate(recs):
        assert rec["step"] == i + 1, f"{j['id']}: ordinal gap at {i}"
        assert rec["driver"] == drivers[j["scenario"]], rec
high = [j for j in r["jobs"] if j["priority"] == "high"]
assert high and high[0]["deadline_met"] is True, high
# Drained: every submission was refused or reached a terminal record.
assert r["submitted"] == r["rejected"] + len(r["jobs"]), (
    r["submitted"], r["rejected"], len(r["jobs"]))
print(f"service report OK ({len(r['jobs'])} jobs, "
      f"{r['preemptions']} preemption(s), 1 contained failure)")
EOF

echo "== chaos smoke (self-healing under node failures) =="
# The chaos drill arms the seeded NodeFaultModel (node kills with repair
# plus a straggler wave) over a mixed tenant population: the run must
# show real failures and recoveries, and every completed job's digest is
# checked in-process against a fault-free solo run — zero corruption.
cargo run --release --offline --example chaos -- \
  --report /tmp/chaos_report.json --events /tmp/chaos_events.jsonl \
  | tee /tmp/chaos_smoke.log
grep -q "CHAOS OK" /tmp/chaos_smoke.log
PYTHONPATH=ci python3 - <<'EOF'
import strict_json
r = strict_json.load("/tmp/chaos_report.json")
need = {"wall_s", "submitted", "completed", "failed", "quarantined",
        "node_failures", "lease_revocations", "recoveries",
        "straggler_migrations", "total_ranks", "ranks_in_service", "jobs"}
assert need <= set(r), f"chaos report missing keys: {need - set(r)}"
assert r["node_failures"] >= 3, r["node_failures"]
assert r["lease_revocations"] >= 1 and r["recoveries"] >= 1, (
    r["lease_revocations"], r["recoveries"])
assert r["straggler_migrations"] >= 1, r["straggler_migrations"]
assert r["failed"] == 0, "chaos must never surface as a driver failure"
jneed = {"id", "outcome", "recoveries", "migrations", "final_digest",
         "steps_done", "steps_requested"}
for j in r["jobs"]:
    assert jneed <= set(j), f"{j['id']}: missing {jneed - set(j)}"
    assert j["outcome"] in ("completed", "quarantined"), j
    if j["outcome"] == "completed":
        assert j["steps_done"] == j["steps_requested"], j
    else:
        assert j.get("reason"), f"{j['id']}: quarantine needs a reason"
recovered = [j for j in r["jobs"] if j["recoveries"] > 0]
assert recovered, "at least one job must have recovered from a node kill"
print(f"chaos report OK ({len(r['jobs'])} jobs, {r['node_failures']} kill(s), "
      f"{r['recoveries']} recovery(ies), {r['straggler_migrations']} migration(s))")

# The structured event log: schema-valid line by line, and its derived
# counts must agree with the report (the exact-reproduction guarantee
# lives in crates/service/tests/events.rs; this smoke cross-checks the
# example's artifact).
kinds_seen = {}
events = []
prev_sim = -1.0
for line in open("/tmp/chaos_events.jsonl"):
    e = strict_json.loads(line)
    events.append(e)
    assert e["schema"] == "exastro.event.v1", e
    for k in ("sim_us", "tick", "kind"):
        assert k in e, f"event missing {k}: {e}"
    assert e["sim_us"] >= prev_sim, "event timestamps must be nondecreasing"
    prev_sim = e["sim_us"]
    kinds_seen[e["kind"]] = kinds_seen.get(e["kind"], 0) + 1
for need_kind in ("admit", "lease", "start", "checkpoint", "node_fail",
                  "revoke", "recover"):
    assert kinds_seen.get(need_kind), f"no {need_kind} events in the storm"
assert kinds_seen["node_fail"] == r["node_failures"]
assert kinds_seen["revoke"] == r["lease_revocations"]
assert kinds_seen["recover"] == r["recoveries"]
assert kinds_seen.get("migrate", 0) == r["straggler_migrations"]
for e in events:
    if e["kind"] == "recover":
        assert e.get("mttr_s") is not None, "recover must carry mttr_s"
    if e["kind"] == "revoke":
        assert e.get("lost_steps") is not None, "revoke must price lost work"
    if e["kind"] == "start":
        assert e.get("queue_wait_s") is not None
terminal = [e for e in events
            if e["kind"] in ("complete", "fail", "quarantine")]
assert len(terminal) == len(r["jobs"]), (len(terminal), len(r["jobs"]))
# Every submission is accounted for: admitted or rejected, and every
# admitted job reached exactly one terminal event.
assert kinds_seen["admit"] + kinds_seen.get("reject", 0) == r["submitted"], (
    kinds_seen["admit"], kinds_seen.get("reject", 0), r["submitted"])
assert len(terminal) == kinds_seen["admit"], (len(terminal), kinds_seen["admit"])
print(f"chaos_events.jsonl OK ({len(events)} events, "
      f"{len(kinds_seen)} kinds: {sorted(kinds_seen)})")
EOF

echo "== task-graph overlap ablation smoke (test mode) =="
# The modeled 512-node efficiency with the overlapped exchange must beat
# bulk-synchronous stepping, and a traced Castro advance must yield a
# measured overlap efficiency that is a fraction.
cargo bench --offline -p exastro-bench --bench ablation_taskgraph -- --test >/tmp/taskgraph_smoke.log
PYTHONPATH=ci python3 - <<'EOF'
import strict_json
d = strict_json.load("BENCH_taskgraph.json")
assert d["bench"] == "taskgraph", d
by = {m["label"]: m["value"] for m in d["metrics"]}
for need in ("taskgraph/overlap_efficiency", "taskgraph/sync_efficiency",
             "taskgraph/efficiency_gain",
             "taskgraph/scheduler_overhead_us_per_task",
             "taskgraph/measured_overlap_eff", "taskgraph/model_drift"):
    assert need in by, f"missing {need} in {sorted(by)}"
assert by["taskgraph/overlap_efficiency"] > by["taskgraph/sync_efficiency"], (
    "overlap must improve modeled 512-node efficiency")
assert by["taskgraph/efficiency_gain"] > 1.0
assert by["taskgraph/scheduler_overhead_us_per_task"] < 100.0, (
    "scheduler overhead implausibly high")
assert 0.0 <= by["taskgraph/measured_overlap_eff"] <= 1.0, (
    "measured overlap efficiency is a fraction")
# model_drift's tolerance band is asserted in
# crates/bench/tests/overlap_reconcile.rs; the artifact just records it.
print(f"BENCH_taskgraph.json OK ({len(d['metrics'])} metrics)")
EOF

echo "== perf gate (deterministic scaling curves vs committed baselines) =="
# fig2/fig3 throughputs come from the machine performance model, so they
# are bit-reproducible; any drop beyond tolerance is a real regression.
# The service bench adds scheduler throughput (jobs/hour) against a
# deliberately conservative floor.
cargo bench --offline -p exastro-bench --bench fig2_sedov_weak_scaling -- --test >/tmp/fig2_smoke.log
cargo bench --offline -p exastro-bench --bench fig3_bubble_weak_scaling -- --test >/tmp/fig3_smoke.log
cargo bench --offline -p exastro-bench --bench service -- --test >/tmp/service_bench_smoke.log
cargo bench --offline -p exastro-bench --bench chaos -- --test >/tmp/chaos_bench_smoke.log
# Telemetry overhead (including graph tracing) regenerates
# BENCH_telemetry.json; its baseline gates the overhead percentages
# against an absolute 2% ceiling ("max" rule in perf_gate.py).
cargo bench --offline -p exastro-bench --bench ablation_telemetry -- --test >/tmp/telemetry_smoke.log
PYTHONPATH=ci python3 - <<'EOF'
import strict_json
d = strict_json.load("BENCH_service.json")
assert d["bench"] == "service", d
by = {m["label"]: m["value"] for m in d["metrics"]}
for need in ("service/jobs_per_hour", "service/latency_p50",
             "service/latency_p99", "service/rank_utilization_2x_oversub",
             "service/queue_peak", "service/preemptions",
             "checkpoint/write_over_fsync_floor"):
    assert need in by, f"missing {need} in {sorted(by)}"
assert by["service/jobs_per_hour"] > 0
assert by["service/preemptions"] > 0, "the bench's high wave must preempt"
assert 0.0 < by["service/rank_utilization_2x_oversub"] <= 1.0
print(f"BENCH_service.json OK ({len(d['metrics'])} metrics)")
c = strict_json.load("BENCH_chaos.json")
assert c["bench"] == "chaos", c
cby = {m["label"]: m["value"] for m in c["metrics"]}
for need in ("chaos/goodput_jobs_per_hour", "chaos/completion_rate_immortal",
             "chaos/completion_rate_moderate", "chaos/completion_rate_harsh",
             "chaos/node_failures_moderate", "chaos/recoveries_moderate"):
    assert need in cby, f"missing {need} in {sorted(cby)}"
assert cby["chaos/goodput_jobs_per_hour"] > 0
assert cby["chaos/completion_rate_immortal"] == 1.0, (
    "no failures injected -> everything completes")
assert cby["chaos/node_failures_moderate"] >= 1, (
    "the moderate schedule must actually inject failures")
print(f"BENCH_chaos.json OK ({len(c['metrics'])} metrics)")
EOF
python3 ci/perf_gate.py

echo "== perf_ledger smoke (the repo's benchmark builds and runs) =="
# examples/perf_ledger is a package of its own, outside the workspace, so
# nothing above compiles it: an API-removing PR could break the benchmark
# unseen. --smoke runs every workload briefly (< 20 s after the build);
# --selfcheck holds the result file against BENCHMARK.json.
cargo run --release --offline --quiet --manifest-path examples/perf_ledger/Cargo.toml -- \
  --smoke --out /tmp/ledger_smoke.json
cargo run --release --offline --quiet --manifest-path examples/perf_ledger/Cargo.toml -- \
  --selfcheck /tmp/ledger_smoke.json

echo "== rustdoc (deny broken intra-doc links) =="
# Deletion PRs leave dangling [`Type::removed_item`] links; nothing else
# catches them.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

echo "== clippy (deny warnings, deny deprecated) =="
# -D deprecated keeps the repo itself off any deprecated API (the last
# holder, the integrate_with_stats shim, is gone) while external callers
# of a future deprecation get a soft warning.
cargo clippy --workspace --all-targets --offline -- -D warnings -D deprecated

echo "== rustfmt check =="
cargo fmt --all --check

echo "tier-1: OK"
