//! `--compare A.json B.json` and `--selfcheck <file>`: both read the set
//! artifact `perf_ledger --out` writes.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use std::path::Path;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(set: &Json, workload: &str, pass: &str, name: &str) -> Option<f64> {
    set.at(&["workloads", workload, pass, "metrics", name, "value"])?
        .num()
}

/// One row per workload × end-to-end metric: A, B, B ÷ A, bound, verdict;
/// then the per-layer metrics that moved most. Non-zero on any `worse`.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    println!("A = {}   B = {}", a_path.display(), b_path.display());
    println!(
        "{:<16} {:<13} {:>12} {:>12} {:>14} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    let mut worse = 0;
    for w in NAMES {
        // A side that never saw a quiet host cannot resolve a timing.
        let quiet = |set: &Json| {
            set.at(&["workloads", w, "untraced", "quiet_rounds"])
                .and_then(Json::num)
                .unwrap_or(0.0)
        };
        let noisy = quiet(&a).min(quiet(&b)) < 1.0;
        for (name, unit, better, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(&a, w, "untraced", name),
                metric(&b, w, "untraced", name),
            ) else {
                println!("{w:<16} {name:<13} missing on one side: worse");
                worse += 1;
                continue;
            };
            // Positive = B is worse than A, as a share of A.
            let change = if better == "higher" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let timed = matches!(unit, "zones/us" | "ms");
            let verdict = if timed && noisy {
                "unresolved"
            } else if change > bound {
                worse += 1;
                "worse"
            } else if change < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{w:<16} {name:<13} {va:>12.5} {vb:>12.5} {:>14.4} {bound:>6.2}  {verdict}",
                vb / va
            );
        }
    }
    println!("\nper-layer metrics that moved most (traced passes; ratios are B/A, base A):");
    for w in NAMES {
        // Fractions sit near zero and change sign, so they move by their
        // difference; everything else by its ratio.
        let mut moved: Vec<(f64, &str, String)> = PER_LAYER
            .iter()
            .filter_map(|(name, unit, _)| {
                let (va, vb) = (
                    metric(&a, w, "traced", name)?,
                    metric(&b, w, "traced", name)?,
                );
                if *unit == "fraction" {
                    let change = format!("{va:>12.5} -> {vb:>12.5}  {:+.3}", vb - va);
                    Some(((vb - va).abs(), *name, change))
                } else if va > 0.0 && vb > 0.0 {
                    let change = format!("{va:>12.5} -> {vb:>12.5}  x{:.3}", vb / va);
                    Some(((vb / va).ln().abs(), *name, change))
                } else {
                    None
                }
            })
            .filter(|m| m.0 > 0.0)
            .collect();
        moved.sort_by(|x, y| y.0.total_cmp(&x.0));
        // The most-moved metric of each layer, largest first.
        let mut seen: Vec<&str> = Vec::new();
        for (_, name, change) in moved {
            let layer = name.split('.').next().unwrap_or(name);
            if !seen.contains(&layer) {
                seen.push(layer);
                println!("  {w:<16} {name:<34} {change}");
            }
        }
    }
    i32::from(worse > 0)
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Verify a set artifact against `BENCHMARK.json` (read from the current
/// directory) and the harness's own rules, without a full run.
pub fn selfcheck(file: &Path) -> i32 {
    let mut bad: Vec<String> = Vec::new();
    let (set, bench) = match (load(file), load(Path::new("BENCHMARK.json"))) {
        (Ok(s), Ok(b)) => (s, b),
        (s, b) => {
            for e in [s.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    let declared = |key: &str| -> Vec<String> {
        bench
            .get(key)
            .map_or(&[][..], Json::arr)
            .iter()
            .filter_map(|m| m.get("name")?.str().map(String::from))
            .collect()
    };
    let (e2e, layers, names) = (
        declared("end_to_end"),
        declared("per_layer"),
        declared("workloads"),
    );
    if e2e.len() > 16 || layers.len() > 128 {
        bad.push(format!(
            "{} end-to-end / {} per-layer metrics declared",
            e2e.len(),
            layers.len()
        ));
    }
    let ours = |table: Vec<&str>, theirs: &[String], what: &str, bad: &mut Vec<String>| {
        if table != theirs.iter().map(String::as_str).collect::<Vec<_>>() {
            bad.push(format!(
                "BENCHMARK.json {what} differ from the harness's table"
            ));
        }
    };
    ours(
        END_TO_END.iter().map(|m| m.0).collect(),
        &e2e,
        "end_to_end names",
        &mut bad,
    );
    ours(
        PER_LAYER.iter().map(|m| m.0).collect(),
        &layers,
        "per_layer names",
        &mut bad,
    );
    ours(NAMES.to_vec(), &names, "workload names", &mut bad);
    for n in e2e.iter().chain(&layers).chain(&names) {
        if !valid_name(n) {
            bad.push(format!("invalid name {n:?}"));
        }
    }
    for w in NAMES {
        for (pass, wanted) in [("untraced", &e2e), ("traced", &layers)] {
            let Some(run) = set.at(&["workloads", w, pass]) else {
                if pass == "untraced" {
                    bad.push(format!("{w}: no untraced pass"));
                }
                continue;
            };
            if run.get("correct") != Some(&Json::Bool(true)) {
                bad.push(format!(
                    "{w} {pass}: not correct: {:?}",
                    run.get("problems")
                ));
            }
            for name in wanted {
                match metric(&set, w, pass, name) {
                    Some(v) if v.is_finite() => {}
                    _ => bad.push(format!("{w} {pass}: {name} missing or not finite")),
                }
            }
            for key in ["castro.unattributed_frac", "maestro.unattributed_frac"] {
                if let Some(v) = metric(&set, w, pass, key) {
                    if v.abs() > 0.25 {
                        bad.push(format!("{w}: {key} = {v:.3} beyond ±0.25"));
                    }
                }
            }
        }
    }
    for b in &bad {
        eprintln!("selfcheck: {b}");
    }
    if bad.is_empty() {
        println!(
            "selfcheck ok: {} workloads, {} end-to-end and {} per-layer metrics",
            NAMES.len(),
            e2e.len(),
            layers.len()
        );
    }
    i32::from(!bad.is_empty())
}
