#!/usr/bin/env python3
"""CI perf-regression gate.

Compares freshly regenerated ``BENCH_*.json`` artifacts at the repo root
against the committed baselines in ``ci/baselines/``. Points are matched by
``(label, nodes)``; the gate fails when a fresh ``zones_per_us`` falls more
than ``--tolerance`` (default 15%) below its baseline.

Scaling-curve artifacts (``{"points": [...]}``) are fully gated: those
numbers come from the deterministic machine performance model, so a drop is
a real modeling/code regression, not scheduler noise. Wall-clock metric
artifacts (``{"metrics": [...]}``) are mostly reported without gating — the
exception is ``batch_speedup`` labels, which are same-run throughput ratios
(batched vs scalar burns on the same machine in the same process), so the
machine speed cancels and a drop below tolerance means the SoA batcher
itself regressed. ``overlap_efficiency`` labels are likewise gated: they
come from the deterministic machine model's overlapped-stepping term, so a
drop means the overlap pricing (or the comm measurement feeding it)
regressed, not the host.

A baseline metric may also carry a ``"max"`` field: an *absolute upper
bound* on the fresh value, independent of the baseline value and of any
tolerance. This is how same-run overhead percentages are gated — e.g.
``graph_trace_on/overhead`` in ``BENCH_telemetry.json`` must stay below
2.0 (%): the ratio cancels machine speed, so exceeding the bound means
the instrumentation itself got more expensive.

Usage:
    python3 ci/perf_gate.py [--tolerance 0.15] [--baseline-dir ci/baselines]
"""

import argparse
import pathlib
import sys

from strict_json import load


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional drop in zones/us (default 0.15)")
    ap.add_argument("--metric-tolerance", type=float, default=0.25,
                    help="allowed fractional drop for gated wall-clock "
                         "metric labels like batch_speedup (default 0.25: "
                         "the ratio cancels machine speed but not load "
                         "transients within a run)")
    ap.add_argument("--baseline-dir", default=None,
                    help="directory of committed baselines (default ci/baselines)")
    ap.add_argument("--fresh-dir", default=None,
                    help="directory of fresh BENCH_*.json (default repo root)")
    args = ap.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    baseline_dir = pathlib.Path(args.baseline_dir or root / "ci" / "baselines")
    fresh_dir = pathlib.Path(args.fresh_dir or root)

    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"perf gate: no baselines in {baseline_dir}", file=sys.stderr)
        return 1

    failures = []
    compared = 0
    for bpath in baselines:
        base = load(bpath)
        fpath = fresh_dir / bpath.name
        if not fpath.exists():
            failures.append(f"{bpath.name}: fresh artifact missing at {fpath}")
            continue
        fresh = load(fpath)
        if "points" not in base:
            # Gated metric labels: batch_speedup (same-run ratio, machine
            # speed cancels → --metric-tolerance) and jobs_per_hour /
            # goodput (scheduler throughput — plain and under injected
            # node failures — against baselines committed far below any
            # healthy run → the tighter --tolerance).
            gated = [m for m in base.get("metrics", [])
                     if "max" in m
                     or "batch_speedup" in m["label"]
                     or "jobs_per_hour" in m["label"]
                     or "goodput" in m["label"]
                     or "overlap_efficiency" in m["label"]]
            if not gated:
                print(f"{bpath.name}: metrics-style artifact, not gated")
                continue
            fresh_metrics = {m["label"]: m for m in fresh.get("metrics", [])}
            for m in gated:
                fm = fresh_metrics.get(m["label"])
                if fm is None:
                    failures.append(
                        f"{bpath.name}: label {m['label']} missing from fresh run")
                    continue
                compared += 1
                if "max" in m:
                    # Absolute upper bound: no tolerance, no baseline
                    # scaling — the number itself is the contract.
                    status = "OK"
                    if fm["value"] > m["max"]:
                        status = "REGRESSION"
                        failures.append(
                            f"{bpath.name}: {m['label']}: "
                            f"{fm['value']:.2f} > max {m['max']:.2f}"
                        )
                    print(f"{bpath.name}: {m['label']:>26} "
                          f"max      {m['max']:>8.2f}  "
                          f"fresh {fm['value']:>8.2f}  {status}")
                    continue
                deterministic = ("jobs_per_hour" in m["label"]
                                 or "goodput" in m["label"]
                                 or "overlap_efficiency" in m["label"])
                tol = args.tolerance if deterministic else args.metric_tolerance
                floor = m["value"] * (1.0 - tol)
                status = "OK"
                if fm["value"] < floor:
                    status = "REGRESSION"
                    failures.append(
                        f"{bpath.name}: {m['label']}: "
                        f"{fm['value']:.2f} < floor {floor:.2f} "
                        f"(baseline {m['value']:.2f}, "
                        f"tolerance {tol:.0%})"
                    )
                print(f"{bpath.name}: {m['label']:>26} "
                      f"baseline {m['value']:>8.2f}  "
                      f"fresh {fm['value']:>8.2f}  {status}")
            continue
        fresh_pts = {(p["label"], p["nodes"]): p for p in fresh.get("points", [])}
        for p in base["points"]:
            key = (p["label"], p["nodes"])
            fp = fresh_pts.get(key)
            if fp is None:
                failures.append(f"{bpath.name}: point {key} missing from fresh run")
                continue
            b_tp, f_tp = p["zones_per_us"], fp["zones_per_us"]
            if b_tp is None or f_tp is None:
                continue
            compared += 1
            floor = b_tp * (1.0 - args.tolerance)
            status = "OK"
            if f_tp < floor:
                status = "REGRESSION"
                failures.append(
                    f"{bpath.name}: {key[0]}@{key[1]} nodes: "
                    f"{f_tp:.2f} zones/us < floor {floor:.2f} "
                    f"(baseline {b_tp:.2f}, tolerance {args.tolerance:.0%})"
                )
            print(f"{bpath.name}: {key[0]:>10}@{key[1]:<4} "
                  f"baseline {b_tp:>10.2f}  fresh {f_tp:>10.2f}  {status}")

    if failures:
        print(f"\nperf gate: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    if compared == 0:
        print("perf gate: no comparable points found", file=sys.stderr)
        return 1
    print(f"\nperf gate: OK ({compared} points within {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
