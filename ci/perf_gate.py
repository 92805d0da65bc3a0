#!/usr/bin/env python3
"""Tier-1 artifact checker: one table row per artifact, every bound data.

``ARTIFACTS`` below has one row per file that ``ci/tier1.sh`` produces: its
path (relative to the repo root), the keys it must carry, the keys every
item of one of its lists must carry (a JSONL file is read as
``{"records": [...]}``), and an invariant function for what is not a
membership test. No metric label is named here: bench bounds are data.

A ``BENCH_*.json`` row is also held to its committed baseline in
``ci/baselines/``: every baseline entry -- a metric by ``label``, a scaling
point by ``(label, nodes)`` -- must be in the fresh artifact, a fresh
``null`` where the baseline has a number fails, and an entry's ``min`` /
``max`` (inclusive) or ``above`` / ``below`` (exclusive) bound the fresh
value of the row's field. Bounds are absolute; the baselines hold them.
Every entry, fresh and baseline, says where its number comes from:
``"source"`` is ``"modeled"`` (the machine model alone produced it) or
``"measured"`` (anything observed on the host did), and a fresh entry's
source must equal its baseline's.

Usage:
    python3 ci/perf_gate.py [ARTIFACT ...]   # default: every row
"""

import operator
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import strict_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = ROOT / "ci" / "baselines"
OUT = "target/tier1"
BOUNDS = {"min": operator.ge, "max": operator.le,
          "above": operator.gt, "below": operator.lt}
NUMBER = (int, float)
SOURCES = ("modeled", "measured")


class Fail(Exception):
    pass


def need(ok, msg):
    if not ok:
        raise Fail(msg)


def load(rel):
    path = ROOT / rel
    need(path.exists(), f"{rel} missing (was its producer run?)")
    if path.suffix == ".jsonl":
        return {"records": [strict_json.loads(l) for l in open(path)]}
    return strict_json.load(path)


def ordinals(records, what):
    for i, r in enumerate(records):
        need(r["step"] == i + 1, f"{what}: step ordinal {r['step']} at record {i}")


# -- invariants: (artifact document) -> None, raising Fail ------------------

def trace(d):
    evs = d["traceEvents"]
    need(evs, "empty trace")
    stacks, last_ts, flows, spans = {}, {}, {}, {}
    for e in evs:
        tid, ph, name = e["tid"], e["ph"], e["name"]
        need(ph in ("B", "E", "s", "f") and e["pid"] == 1, f"bad event {e}")
        need(e["ts"] >= last_ts.get(tid, 0.0), f"non-monotonic ts on tid {tid}")
        last_ts[tid] = e["ts"]
        if ph == "B":
            stacks.setdefault(tid, []).append((name, e["ts"]))
        elif ph == "E":
            need(stacks.get(tid), f"stray E on tid {tid}")
            top, begun = stacks[tid].pop()
            need(top == name, f"mismatched E {name} vs open {top}")
            spans.setdefault(name, []).append(e["ts"] - begun)
        else:
            # A flow arrow binds an edge across tasks: one s and one f per
            # id, each inside an open slice, f with bp=e so Perfetto
            # attaches it to the enclosing slice end.
            need(stacks.get(tid), f"flow {ph} outside any open slice")
            need(ph == "s" or e.get("bp") == "e", f"f without bp=e: {e}")
            flows.setdefault(e["id"], []).append((ph, e["ts"]))
    for tid, s in stacks.items():
        need(not s, f"unbalanced B on tid {tid}: {[n for n, _ in s]}")
    need(flows, "graph tracing produced no flow arrows")
    for fid, parts in flows.items():
        (f, tf), (s, ts) = sorted(parts) if len(parts) == 2 else [(None, 0)] * 2
        need((f, s) == ("f", "s"), f"flow {fid} not an s/f pair: {parts}")
        need(ts <= tf, f"flow {fid} travels backward in time")
    # Same-run ratio: the post-hydro EOS re-sync is one seeded solve a zone,
    # a few percent of the hydro it follows. The ring buffer keeps the
    # newest events and a step's re-sync follows its hydro, so the last
    # len(hydro) re-syncs are the kept hydros' own steps.
    hydro, sync = spans.get("hydro", []), spans.get("sync_temperature", [])
    need(hydro and sync, f"kept {len(hydro)} hydro, {len(sync)} sync_temperature span(s)")
    ratio = sum(sync[-len(hydro):]) / sum(hydro)
    need(ratio <= 0.12, f"sync_temperature / hydro = {ratio:.3f} > 0.12")


def graphs(d):
    need(d["schema"] == "exastro.graphtrace.v1", f"schema {d['schema']}")
    need(d["graphs"], "no graph summaries recorded")
    for s in d["graphs"]:
        need(s["tasks"] > 0 and s["critical_path_us"] > 0 and s["critical_path"],
             f"{s['label']}: empty graph or critical path")
        need(s["critical_path_us"] <= s["total_run_us"] + 1e-9,
             f"{s['label']}: critical path exceeds total work")
        m = s["measured_overlap_efficiency"]
        if m is not None:
            p, drift = s["predicted_overlap_efficiency"], s["overlap_drift"]
            need(0.0 <= m <= 1.0, f"{s['label']}: overlap efficiency {m}")
            need(p is not None and drift is not None,
                 f"{s['label']}: not reconciled against the overlap model")
            need(abs((m - p) - drift) < 1e-12, f"{s['label']}: drift != m - p")
        for t in s["task_stats"]:
            need(t["slack_us"] >= 0.0, f"negative slack: {t}")
            need(not t["on_critical_path"] or t["slack_us"] < 1e-9,
                 f"critical task with slack: {t}")


def steps(d):
    recs = d["records"]
    need(len(recs) == 12, f"expected 12 steps, got {len(recs)}")
    ordinals(recs, "steps")
    need(all(r["driver"] == "castro" for r in recs), "driver is not castro")


def service_report(r):
    need(r["completed"] == 5 and r["failed"] == 1,
         f"completed {r['completed']}, failed {r['failed']}; want 5 and 1")
    need(r["preemptions"] >= 1, "the high-priority arrival must have preempted")
    failed = [j for j in r["jobs"] if j["outcome"] == "failed"]
    need(len(failed) == 1 and "error" in failed[0], f"failed jobs {failed}")
    drivers = {"sedov_blast": "castro", "wd_collision": "castro",
               "xrb_flame": "castro", "reacting_bubble": "maestro"}
    for j in r["jobs"]:
        need(j["outcome"] != "completed" or j["steps_done"] == j["steps_requested"],
             f"{j['id']} completed short")
        recs = load(f"{OUT}/service_jobs/{j['id']}.steps.jsonl")["records"]
        need(len(recs) == j["steps_done"],
             f"{j['id']}: {len(recs)} records vs {j['steps_done']} steps")
        ordinals(recs, j["id"])
        need(all(x["driver"] == drivers[j["scenario"]] for x in recs),
             f"{j['id']}: wrong driver")
        # Never evicted, recovered or migrated, and short of its cadence:
        # the job wrote no checkpoint, so none may be charged to it.
        if (j["preemptions"], j["recoveries"], j["migrations"]) == (0, 0, 0) \
                and j["steps_done"] < j["ckpt_every"]:
            charged = sum(x["checkpoint_bytes"] for x in recs)
            need(charged == 0, f"{j['id']} wrote no checkpoint but is charged {charged} bytes")
    high = [j for j in r["jobs"] if j["priority"] == "high"]
    need(high and high[0]["deadline_met"] is True, f"high job {high}")
    # Drained: every submission was refused or reached a terminal record.
    need(r["submitted"] == r["rejected"] + len(r["jobs"]),
         f"submitted {r['submitted']} != rejected {r['rejected']} + {len(r['jobs'])} jobs")


def chaos_report(r):
    need(r["node_failures"] >= 3, f"node_failures {r['node_failures']}")
    need(r["lease_revocations"] >= 1 and r["recoveries"] >= 1,
         f"revocations {r['lease_revocations']}, recoveries {r['recoveries']}")
    need(r["straggler_migrations"] >= 1, "no straggler migration")
    need(r["failed"] == 0, "chaos must never surface as a driver failure")
    for j in r["jobs"]:
        need(j["outcome"] in ("completed", "quarantined"), f"{j['id']}: {j['outcome']}")
        need(j["outcome"] != "completed" or j["steps_done"] == j["steps_requested"],
             f"{j['id']} completed short")
        need(j["outcome"] == "completed" or j.get("reason"),
             f"{j['id']}: quarantine needs a reason")
    need(any(j["recoveries"] > 0 for j in r["jobs"]),
         "no job recovered from a node kill")


def chaos_events(d):
    # The event log's derived counts must agree with the run's report (the
    # exact-reproduction guarantee is crates/service/tests/events.rs).
    r = load(f"{OUT}/chaos_report.json")
    seen, prev = {}, -1.0
    for e in d["records"]:
        need(e["schema"] == "exastro.event.v1", f"schema {e['schema']}")
        need(e["sim_us"] >= prev, "event timestamps must be nondecreasing")
        prev = e["sim_us"]
        seen[e["kind"]] = seen.get(e["kind"], 0) + 1
        for kind, key in (("recover", "mttr_s"), ("revoke", "lost_steps"),
                          ("start", "queue_wait_s")):
            need(e["kind"] != kind or e.get(key) is not None, f"{kind} without {key}")
    for kind in ("admit", "lease", "start", "checkpoint", "node_fail", "revoke", "recover"):
        need(seen.get(kind), f"no {kind} events in the storm")
    for kind, key in (("reject", "rejected"), ("preempt", "preemptions"),
                      ("node_fail", "node_failures"), ("revoke", "lease_revocations"),
                      ("recover", "recoveries"), ("migrate", "straggler_migrations"),
                      ("quarantine", "quarantined"), ("complete", "completed"),
                      ("fail", "failed")):
        need(seen.get(kind, 0) == r[key], f"{seen.get(kind, 0)} {kind} vs {key} {r[key]}")
    # Every submission is admitted or rejected; every admission ends in
    # exactly one terminal event.
    terminal = sum(seen.get(k, 0) for k in ("complete", "fail", "quarantine"))
    need(terminal == len(r["jobs"]) == seen["admit"],
         f"{terminal} terminal events, {len(r['jobs'])} jobs, {seen['admit']} admits")
    need(seen["admit"] + seen.get("reject", 0) == r["submitted"],
         f"admit + reject != submitted {r['submitted']}")


@dataclass
class Row:
    path: str
    keys: set = field(default_factory=set)
    each: tuple = ("", set())
    check: Optional[Callable] = None
    gated: str = "value"


ARTIFACTS = [
    Row("BENCH_burner.json"),
    Row("BENCH_fig2.json", gated="zones_per_us"),
    Row("BENCH_fig3.json", gated="zones_per_us"),
    Row("BENCH_service.json"),
    Row("BENCH_chaos.json"),
    Row("BENCH_taskgraph.json"),
    Row("BENCH_telemetry.json"),
    Row("BENCH_verify.json"),
    Row(f"{OUT}/quickstart_trace.json", {"traceEvents"}, check=trace),
    Row(f"{OUT}/quickstart_graphs.json", {"schema", "graphs"},
        ("graphs", {"label", "tasks", "edges", "workers", "wall_us", "total_run_us",
                    "total_queue_wait_us", "critical_path_us", "critical_path",
                    "comm_us", "compute_us", "hidden_comm_us", "task_stats",
                    "measured_overlap_efficiency", "predicted_overlap_efficiency",
                    "overlap_drift"}), graphs),
    Row(f"{OUT}/quickstart_steps.jsonl",
        each=("records", {"driver", "step", "t", "dt", "wall_ns", "zones", "zones_per_us",
                          "newton_iters", "bdf_steps", "burn_retries", "recovered_relaxed",
                          "recovered_subcycle", "recovered_offload", "step_rejections",
                          "checkpoint_bytes", "arena_live_bytes", "arena_peak_bytes"}),
        check=steps),
    Row(f"{OUT}/service_report.json",
        {"wall_s", "submitted", "rejected", "completed", "failed", "preemptions",
         "queue_peak", "queue_bound", "total_ranks", "rank_utilization",
         "jobs_per_hour", "latency_p50_s", "latency_p99_s", "jobs"},
        ("jobs", {"id", "scenario", "network", "priority", "resolution", "nodes",
                  "ranks", "steps_done", "steps_requested", "outcome", "preemptions",
                  "recoveries", "migrations", "latency_s", "deadline_met", "ckpt_every",
                  "final_digest", "sim_us", "zones", "step_records"}), service_report),
    Row(f"{OUT}/chaos_report.json",
        {"wall_s", "submitted", "completed", "failed", "quarantined", "node_failures",
         "lease_revocations", "recoveries", "straggler_migrations", "total_ranks",
         "ranks_in_service", "jobs"},
        ("jobs", {"id", "outcome", "recoveries", "migrations", "final_digest",
                  "steps_done", "steps_requested"}), chaos_report),
    Row(f"{OUT}/chaos_events.jsonl",
        each=("records", {"schema", "sim_us", "tick", "kind"}), check=chaos_events),
]


def against_baseline(row, fresh):
    """Hold a BENCH_*.json to its baseline, printing every bound."""
    base = strict_json.load(BASELINES / row.path)
    need(fresh.get("bench") == base["bench"], f"bench {fresh.get('bench')!r}")
    kind = "points" if "points" in base else "metrics"
    ident = lambda e: e["label"] if "nodes" not in e else f"{e['label']}@{e['nodes']}"
    got = {ident(e): e for e in fresh.get(kind, [])}
    bad = [f"{name}: source {e.get('source')!r}" for name, e in got.items()
           if e.get("source") not in SOURCES]
    for b in base[kind]:
        name = ident(b)
        need(b.get("source") in SOURCES, f"baseline {name}: source {b.get('source')!r}")
        if name not in got:
            bad.append(f"{name}: missing")
            continue
        f = got[name]
        if f.get("source") != b["source"]:
            bad.append(f"{name}: source {f.get('source')!r}, baseline {b['source']!r}")
        for k, v in b.items():
            if isinstance(v, NUMBER) and k not in BOUNDS and f.get(k) is None:
                bad.append(f"{name}: {k} is null, baseline {v}")
        value = f.get(row.gated)
        for rule, ok in BOUNDS.items():
            if rule not in b or not isinstance(value, NUMBER):
                continue
            verdict = "OK" if ok(value, b[rule]) else "FAIL"
            print(f"  {name:>40} {rule:>5} {b[rule]:<12.6g} fresh {value:<12.6g} {verdict}")
            if verdict == "FAIL":
                bad.append(f"{name}: {row.gated} {value:.6g} fails {rule} {b[rule]:.6g}")
    need(not bad, "; ".join(bad))


def check(row):
    d = load(row.path)
    if row.path.startswith("BENCH_"):
        against_baseline(row, d)
    missing = row.keys - set(d)
    need(not missing, f"missing key(s) {sorted(missing)}")
    key, keys = row.each
    for i, item in enumerate(d.get(key, []) if key else []):
        missing = keys - set(item)
        need(not missing, f"{key}[{i}] missing key(s) {sorted(missing)}")
    if row.check:
        row.check(d)


def main(names):
    rows = [r for r in ARTIFACTS if not names or r.path in names]
    unknown = set(names) - {r.path for r in rows}
    if unknown:
        print(f"perf gate: no row for {sorted(unknown)}")
        return 2
    failures = 0
    for row in rows:
        try:
            check(row)
            print(f"{row.path}: OK")
        except (Fail, KeyError, TypeError, ValueError) as e:
            kind = "missing key " if isinstance(e, KeyError) else ""
            print(f"{row.path}: FAIL {kind}{e}")
            failures += 1
    print(f"perf gate: {len(rows) - failures}/{len(rows)} artifact(s) OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
