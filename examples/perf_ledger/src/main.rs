//! `perf_ledger` — the repo's benchmark. See README.md beside this package.
//!
//! The driver contract (what `BENCHMARK.json` runs, from the repo root):
//!
//! ```sh
//! cargo run --release --offline --manifest-path examples/perf_ledger/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Without `--workload` it runs the whole set, each workload in its own
//! child process, and writes one JSON artifact (`--out`); `--compare`,
//! `--selfcheck` and `--write-reference` work on those artifacts.

mod check;
mod compare;
mod json;
mod ledger;
mod metrics;
mod probes;
mod workloads;

use json::Json;
use ledger::{best_ops, peak_rss_mb, quiet_rounds, round_spread, run_round, Calib, Round, Tracer};
use metrics::{median, ratio, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up is timed in this many fresh child processes besides our own.
const SETUP_PROBES: usize = 2;
/// The traced pass probes the layers before every this-many-th op (the
/// shortest round has three).
const PROBE_EVERY: usize = 3;
/// A set run kills a workload's child after this long (4× the slowest
/// expected traced run) and reports it failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(160);

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_probe: bool,
    detail: Option<PathBuf>,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    selfcheck: Option<PathBuf>,
    write_reference: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_ledger [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]\n\
         \x20                  [--smoke] [--out <file>] [--trace-out <file>]\n\
         \x20      perf_ledger --compare <A.json> <B.json>\n\
         \x20      perf_ledger --selfcheck <file>\n\
         \x20      perf_ledger --write-reference\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        setup_probe: false,
        detail: None,
        out: out_dir().join("perf_ledger.json"),
        trace_out: None,
        compare: None,
        selfcheck: None,
        write_reference: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i)),
            "--seed" => cli.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace" => cli.trace = value(&mut i) != "0",
            "--smoke" => cli.smoke = true,
            "--setup-probe" => cli.setup_probe = true,
            "--detail" => cli.detail = Some(value(&mut i).into()),
            "--out" => cli.out = value(&mut i).into(),
            "--trace-out" => cli.trace_out = Some(value(&mut i).into()),
            "--compare" => cli.compare = Some((value(&mut i).into(), value(&mut i).into())),
            "--selfcheck" => cli.selfcheck = Some(value(&mut i).into()),
            "--write-reference" => cli.write_reference = true,
            _ => usage(),
        }
        i += 1;
    }
    cli
}

fn main() {
    let started = Instant::now();
    let cli = parse_cli();
    let code = if let Some((a, b)) = &cli.compare {
        compare::compare(a, b)
    } else if let Some(file) = &cli.selfcheck {
        compare::selfcheck(file)
    } else if cli.write_reference {
        write_reference()
    } else if let Some(name) = &cli.workload {
        run_one(&cli, name, started)
    } else {
        run_set(&cli)
    };
    std::process::exit(code);
}

/// Scratch space (service checkpoints, probe checkpoints, traces): beside
/// the executable, so inside the build directory of whichever checkout
/// built it and never outside that checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    exe.parent()
        .expect("exe has a directory")
        .join("perf_ledger_out")
}

fn self_command() -> Command {
    Command::new(std::env::current_exe().expect("own path"))
}

// ------------------------------------------------------------ one workload

/// A run's result: the contract line plus everything behind it.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Json,
}

fn run_one(cli: &Cli, name: &str, started: Instant) -> i32 {
    let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
    let Some(mut w) = workloads::build(name, cli.seed, &scratch) else {
        eprintln!("unknown workload {name}");
        usage();
    };
    let setup_s = started.elapsed().as_secs_f64();
    if cli.setup_probe {
        println!("{setup_s}");
        let _ = std::fs::remove_dir_all(&scratch);
        return 0;
    }
    let out = if cli.trace {
        traced_run(cli, name, w.as_mut(), &scratch)
    } else {
        untraced_run(cli, name, w.as_mut(), setup_s)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for (metric, value, unit) in &out.metrics {
        println!("{name} {metric} = {value} {unit}");
    }
    if let Some(path) = &cli.detail {
        if let Err(e) = std::fs::write(path, out.detail.dump()) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    // The contract's result line, last on stdout.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(out.correct)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics_json(&out.metrics)),
        ])
        .dump()
    );
    i32::from(!out.correct || out.failed > 0)
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|(n, v, u)| {
        (
            *n,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(u.to_string()))]),
        )
    }))
}

/// Set-up time of `name` in a fresh process: process start to the first
/// timed op, warm-up ops included.
fn setup_probe(cli: &Cli, name: &str) -> Option<f64> {
    let mut cmd = self_command();
    cmd.args([
        "--workload",
        name,
        "--seed",
        &cli.seed.to_string(),
        "--setup-probe",
    ]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stderr(Stdio::inherit()).output().ok()?;
    String::from_utf8(out.stdout).ok()?.trim().parse().ok()
}

/// The untraced pass wants this many quiet rounds and measures up to half
/// as long again to get them.
const QUIET_ROUNDS_WANTED: usize = 3;

/// Rounds until `seconds` have been measured (one round under `--smoke`).
fn rounds_left(cli: &Cli, t0: Instant, done: usize) -> bool {
    done == 0 || (!cli.smoke && t0.elapsed().as_secs_f64() < cli.seconds)
}

/// The untraced pass's rule: as `rounds_left`, then on while the host has
/// not been quiet, for at most half of `seconds` more.
fn untraced_rounds_left(cli: &Cli, t0: Instant, rounds: &[Round]) -> bool {
    let refs: Vec<&Round> = rounds.iter().collect();
    rounds_left(cli, t0, rounds.len())
        || (!cli.smoke
            && quiet_rounds(&refs) < QUIET_ROUNDS_WANTED
            && t0.elapsed().as_secs_f64() < 1.5 * cli.seconds)
}

/// What the rounds agree on, and whether they do: deterministic counts
/// and op counts must be equal across rounds.
fn verdict(cli: &Cli, name: &str, w: &mut dyn workloads::Workload, rounds: &[&Round]) -> Verdict {
    let mut problems: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    let first = rounds[0];
    for (i, r) in rounds.iter().enumerate().skip(1) {
        if r.counts != first.counts || r.op_ms.len() != first.op_ms.len() {
            problems.push(format!(
                "round {i} counts {:?} differ from round 0 {:?}",
                r.counts, first.counts
            ));
        }
    }
    let outputs = w.outputs();
    problems.extend(check::check_outputs(name, cli.seed, &outputs));
    for p in &problems {
        eprintln!("{name}: CHECK FAILED: {p}");
    }
    Verdict {
        correct: problems.is_empty(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        outputs: check::outputs_json(&outputs),
        problems,
    }
}

struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    outputs: Json,
    problems: Vec<String>,
}

fn detail_json(
    cli: &Cli,
    name: &str,
    v: &Verdict,
    rounds: &[&Round],
    extra: Vec<(&str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(cli.seed as f64)),
        ("trace", Json::Bool(cli.trace)),
        ("correct", Json::Bool(v.correct)),
        ("attempted", Json::Num(v.attempted as f64)),
        ("failed", Json::Num(v.failed as f64)),
        (
            "problems",
            Json::Arr(v.problems.iter().cloned().map(Json::Str).collect()),
        ),
        ("outputs", v.outputs.clone()),
        ("ops_per_round", Json::Num(rounds[0].op_ms.len() as f64)),
        (
            "counts",
            Json::obj(
                rounds[0]
                    .counts
                    .iter()
                    .map(|(k, c)| (*k, Json::Num(*c as f64))),
            ),
        ),
        (
            "round_wall_s",
            Json::nums(&rounds.iter().map(|r| r.wall_s()).collect::<Vec<_>>()),
        ),
        (
            "op_samples",
            Json::Num(rounds.iter().map(|r| r.op_ms.len()).sum::<usize>() as f64),
        ),
        (
            "op_ms",
            Json::Arr(rounds.iter().map(|r| Json::nums(&r.op_ms)).collect()),
        ),
        (
            "calib_ms",
            Json::Arr(rounds.iter().map(|r| Json::nums(&r.calib_ms)).collect()),
        ),
        ("host_round_spread", Json::Num(round_spread(rounds))),
        ("quiet_rounds", Json::Num(quiet_rounds(rounds) as f64)),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

fn untraced_run(
    cli: &Cli,
    name: &str,
    w: &mut dyn workloads::Workload,
    own_setup_s: f64,
) -> Outcome {
    let mut setups = vec![own_setup_s];
    setups.extend((0..SETUP_PROBES).filter_map(|_| setup_probe(cli, name)));
    let mut calib = Calib::new();
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    while untraced_rounds_left(cli, t0, &rounds) {
        rounds.push(run_round(w, &mut calib, None));
    }
    let rounds: Vec<&Round> = rounds.iter().collect();
    let v = verdict(cli, name, w, &rounds);
    let best = best_ops(&rounds);
    let zone_updates = rounds[0].counts.get("zone_updates").copied().unwrap_or(0) as f64;
    let values = [
        ratio(zone_updates, best.iter().sum::<f64>() * 1e3),
        median(&best),
        median(&setups),
        peak_rss_mb(),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u, _, _), v)| (*n, v, *u))
        .collect();
    println!(
        "{name}: {} round(s) ({} on a quiet host) of {} op(s), {} pooled op samples",
        rounds.len(),
        quiet_rounds(&rounds),
        rounds[0].op_ms.len(),
        v.attempted,
    );
    let detail = detail_json(
        cli,
        name,
        &v,
        &rounds,
        vec![
            ("setup_samples_s", Json::nums(&setups)),
            ("metrics", metrics_json(&metrics)),
        ],
    );
    Outcome {
        correct: v.correct,
        attempted: v.attempted,
        failed: v.failed,
        metrics,
        detail,
    }
}

fn traced_run(cli: &Cli, name: &str, w: &mut dyn workloads::Workload, scratch: &Path) -> Outcome {
    use exastro::parallel::WorkerPool;
    use exastro::telemetry::Telemetry;
    let mut calib = Calib::new();
    let mut tr = Tracer::new();
    let (mut untraced, mut traced, mut telemetry) = (Vec::new(), Vec::new(), Vec::new());
    let mut pool = (WorkerPool::global().stats(), WorkerPool::global().stats());
    let t0 = Instant::now();
    // Cycles of one plain round, one traced round and one round under
    // library telemetry, so the three see the same host phases.
    while rounds_left(cli, t0, untraced.len()) {
        pool.0 = WorkerPool::global().stats();
        untraced.push(run_round(w, &mut calib, None));
        pool.1 = WorkerPool::global().stats();
        tr.round = traced.len() as u32;
        let round = tr
            .span("round", |tr| {
                run_round(w, &mut calib, Some((tr, probes::shadow, PROBE_EVERY)))
            })
            .0;
        traced.push(round);
        Telemetry::enable();
        telemetry.push(run_round(w, &mut calib, None));
        Telemetry::disable();
        Telemetry::reset();
    }
    let deltas = probes::Deltas {
        pool,
        arena: probes::arena_stats(w),
    };
    probes::fixed_probes(&mut tr, scratch);
    let all: Vec<&Round> = untraced.iter().chain(&traced).chain(&telemetry).collect();
    let v = verdict(cli, name, w, &all);
    let layer = probes::per_layer(
        w,
        &tr,
        &untraced.iter().collect::<Vec<_>>(),
        &traced.iter().collect::<Vec<_>>(),
        &telemetry.iter().collect::<Vec<_>>(),
        &deltas,
    );
    for key in ["castro.unattributed_frac", "maestro.unattributed_frac"] {
        if layer[key].abs() > 0.10 {
            eprintln!("{name}: warning: {key} = {:.3} is beyond ±0.10", layer[key]);
        }
    }
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (*n, layer[n], *u))
        .collect();
    let trace_path = cli
        .trace_out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("trace-{name}.json")));
    let written = std::fs::create_dir_all(trace_path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(&trace_path, tr.chrome_trace(name).dump()));
    match written {
        Ok(()) => println!(
            "{name}: {} spans -> {}",
            tr.spans.len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("{name}: trace not written: {e}"),
    }
    let detail = detail_json(
        cli,
        name,
        &v,
        &all,
        vec![("metrics", metrics_json(&metrics))],
    );
    Outcome {
        correct: v.correct,
        attempted: v.attempted,
        failed: v.failed,
        metrics,
        detail,
    }
}

// ---------------------------------------------------------------- the set

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn env_json(cli: &Cli) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        // What `WorkerPool::global()` starts with on this host.
        (
            "pool_workers",
            Json::Num(nproc.saturating_sub(1).max(1) as f64),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("smoke", Json::Bool(cli.smoke)),
        ("warmup_ops", Json::Num(workloads::WARMUP_OPS as f64)),
    ])
}

/// Run one workload in a child process; `None` on panic, non-zero exit
/// with no result, or time-out.
fn run_child(cli: &Cli, name: &str, trace: bool) -> Option<Json> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).ok()?;
    let detail = dir.join(format!("detail-{name}-{}.json", u8::from(trace)));
    let _ = std::fs::remove_file(&detail);
    let mut cmd = self_command();
    cmd.args(["--workload", name, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &cli.trace_out) {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        cmd.arg("--trace-out")
            .arg(path.with_file_name(format!("{stem}-{name}.json")));
    }
    let mut child = cmd.stdout(Stdio::null()).spawn().ok()?;
    let deadline = Instant::now() + CHILD_TIMEOUT;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            _ => {
                eprintln!("{name}: child timed out or was lost; killing it");
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
    Json::parse(&std::fs::read_to_string(&detail).ok()?).ok()
}

fn run_set(cli: &Cli) -> i32 {
    let mut set = Vec::new();
    let mut ok = true;
    for name in workloads::NAMES {
        let untraced = run_child(cli, name, false);
        let traced = if cli.trace {
            run_child(cli, name, true)
        } else {
            None
        };
        let healthy = |d: &Option<Json>| {
            d.as_ref().is_some_and(|d| {
                d.get("correct") == Some(&Json::Bool(true))
                    && d.get("failed").and_then(Json::num) == Some(0.0)
            })
        };
        let good = healthy(&untraced) && (!cli.trace || healthy(&traced));
        ok &= good;
        println!("== {name}: {}", if good { "ok" } else { "FAILED" });
        for d in [&untraced, &traced].into_iter().flatten() {
            for (metric, v) in d.get("metrics").map_or(&[][..], Json::entries) {
                println!(
                    "  {metric} = {} {}",
                    v.get("value").and_then(Json::num).unwrap_or(f64::NAN),
                    v.get("unit").and_then(Json::str).unwrap_or("")
                );
            }
        }
        // A child that died reports as one failed attempt with no metrics.
        let dead = Json::obj([
            ("correct", Json::Bool(false)),
            ("attempted", Json::Num(1.0)),
            ("failed", Json::Num(1.0)),
        ]);
        let mut entry = vec![("untraced", untraced.unwrap_or_else(|| dead.clone()))];
        if cli.trace {
            entry.push(("traced", traced.unwrap_or(dead)));
        }
        set.push((name, Json::obj(entry)));
    }
    let artifact = Json::obj([("env", env_json(cli)), ("workloads", Json::obj(set))]);
    if let Err(e) = std::fs::write(&cli.out, artifact.dump()) {
        eprintln!("cannot write {}: {e}", cli.out.display());
        return 1;
    }
    println!("wrote {}", cli.out.display());
    i32::from(!ok)
}

/// Regenerate `reference.json` (seeds 1 and 2, one full round each).
fn write_reference() -> i32 {
    let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
    let mut calib = Calib::new();
    let mut seeds = Vec::new();
    for seed in [1u64, 2] {
        let mut per_workload = Vec::new();
        for name in workloads::NAMES {
            let mut w = workloads::build(name, seed, &scratch).expect("known workload");
            let round = run_round(w.as_mut(), &mut calib, None);
            if round.failed > 0 {
                eprintln!("{name} seed {seed}: {:?}", round.errors);
                return 1;
            }
            let recorded = w.outputs().into_iter().filter(|s| s.ref_tol.is_some());
            per_workload.push((
                name,
                Json::obj(recorded.map(|s| (s.name, Json::Num(s.value)))),
            ));
            println!("{name} seed {seed}: recorded");
        }
        seeds.push((seed.to_string(), Json::obj(per_workload)));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    match std::fs::write(&path, Json::obj(seeds).dump() + "\n") {
        Ok(()) => {
            println!("wrote {} (rebuild to embed it)", path.display());
            0
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            1
        }
    }
}
