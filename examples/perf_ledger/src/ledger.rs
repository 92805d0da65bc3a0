//! The measuring loop: rounds of identical work, the host calibration
//! kernel, and the harness's own spans for the traced pass.

use crate::json::Json;
use crate::metrics::{median, ratio};
use crate::workloads::{add_counts, Counts, OpReport, Workload};
use std::time::Instant;

/// What the calibration kernel reads on this host when nothing else
/// contends for the core (its minimum was 0.594–0.602 ms in every one of
/// 120 runs). A faster host undercuts it through the run's own minimum; a
/// slower one never certifies a quiet round, which only costs time.
const HOST_CALIB_FLOOR_MS: f64 = 0.597;
/// A round is *quiet* when its median calibration sample is within this
/// factor of the floor. Measured here: such rounds run within ~5 % of the
/// best round ever seen, rounds beyond 1.15× take 1.4–1.7× as long.
const QUIET_FACTOR: f64 = 1.04;

/// A fixed stencil-plus-arithmetic kernel timed before every op. The
/// host's speed drifts in phases of seconds, so every op time is recorded
/// beside the host speed it ran at: the untraced pass keeps measuring
/// until it has seen quiet rounds, and a reader can tell a slow host from
/// a slow program.
pub struct Calib {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        Calib {
            a: (0..65_536).map(|i| 1.0 + (i % 17) as f64 * 1e-3).collect(),
            b: vec![0.0; 65_536],
        }
    }

    /// Best of three repetitions, in ms.
    pub fn sample(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            // Stream: a three-point stencil over 1 MB of doubles.
            for _ in 0..2 {
                for i in 1..self.a.len() - 1 {
                    self.b[i] = 0.25 * self.a[i - 1] + 0.5 * self.a[i] + 0.25 * self.a[i + 1];
                }
                std::mem::swap(&mut self.a, &mut self.b);
            }
            // Compute: a dependent chain of divides and square roots.
            let mut x = self.a[7];
            for _ in 0..40_000 {
                x = (x * 1.000_000_1 + 0.5).sqrt() / 1.000_000_3;
            }
            self.a[7] = std::hint::black_box(x).min(2.0);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    }
}

/// One harness span (`parent` indexes `Tracer::spans`).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
    pub op: u32,
}

/// In-memory span recorder; written out as Chrome-trace JSON at exit.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Scalar observations made beside a span (bytes moved, steps taken).
    pub notes: Vec<(&'static str, f64)>,
    pub round: u32,
    pub op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            notes: Vec::new(),
            round: 0,
            op: 0,
        }
    }

    /// Run `f` inside a span; returns its value and the span's ms.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            round: self.round,
            op: self.op,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end;
        (r, (end - self.spans[id].start_ns) as f64 / 1e6)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Median ms of the spans called `name`; 0 when there are none.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::Str(workload.to_string())),
                            ("round", Json::Num(s.round as f64)),
                            ("op", Json::Num(s.op as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// What one round measured.
pub struct Round {
    /// Wall of each op, ms.
    pub op_ms: Vec<f64>,
    /// Host calibration sample taken just before each op, ms.
    pub calib_ms: Vec<f64>,
    /// Per-op reports (deterministic), kept for the per-layer ratios.
    pub reports: Vec<OpReport>,
    pub counts: Counts,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Round {
    pub fn wall_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }
}

/// How many of `rounds` ran on a quiet host.
pub fn quiet_rounds(rounds: &[&Round]) -> usize {
    let floor = rounds
        .iter()
        .flat_map(|r| r.calib_ms.iter().copied())
        .fold(HOST_CALIB_FLOOR_MS, f64::min);
    rounds
        .iter()
        .filter(|r| median(&r.calib_ms) <= QUIET_FACTOR * floor)
        .count()
}

/// Median over paired ops of `a ÷ b` − 1, pairing op `i` of `a[k]` with op
/// `i` of `b[k]` — adjacent rounds of one cycle, so both saw much the same
/// host.
pub fn paired_overhead(a: &[&Round], b: &[&Round]) -> f64 {
    let ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .flat_map(|(ra, rb)| ra.op_ms.iter().zip(&rb.op_ms).map(|(x, y)| ratio(*x, *y)))
        .collect();
    median(&ratios) - 1.0
}

/// Hook the traced pass runs before an op (shadow probes on a clone).
pub type Probe = fn(&dyn Workload, &mut Tracer);

/// Run one round. With a tracer, every op gets a span and `probe` runs
/// before every `probe_every`-th op, outside the op's own timing.
pub fn run_round(
    w: &mut dyn Workload,
    calib: &mut Calib,
    mut traced: Option<(&mut Tracer, Probe, usize)>,
) -> Round {
    let mut r = Round {
        op_ms: Vec::new(),
        calib_ms: Vec::new(),
        reports: Vec::new(),
        counts: Counts::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    w.begin_round();
    while !w.round_done() {
        let i = r.op_ms.len();
        if let Some((tr, probe, every)) = traced.as_mut() {
            tr.op = i as u32;
            if i.is_multiple_of(*every) {
                tr.span("probe", |tr| probe(&*w, tr));
            }
        }
        r.calib_ms.push(calib.sample());
        let t0 = Instant::now();
        let res = match traced.as_mut() {
            Some((tr, _, _)) => tr.span("op", |_| w.op()).0,
            None => w.op(),
        };
        r.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        r.attempted += 1;
        match res {
            Ok(rep) => {
                add_counts(&mut r.counts, &rep);
                r.reports.push(rep);
            }
            Err(e) => {
                r.failed += 1;
                r.errors.push(e);
                // A failed step leaves the driver mid-round; the round's
                // remaining ops would not be the work the others did.
                break;
            }
        }
    }
    match w.end_round() {
        Ok(rep) => add_counts(&mut r.counts, &rep),
        Err(e) => {
            r.failed += 1;
            r.errors.push(e);
        }
    }
    r
}

/// Per-op-index minimum over rounds. Every round runs the same ops, and
/// host noise only ever adds time, so the minimum over rounds of op `i` is
/// the best estimate of what op `i` costs.
pub fn best_ops(rounds: &[&Round]) -> Vec<f64> {
    let n = rounds.iter().map(|r| r.op_ms.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.op_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// (slowest − fastest round) ÷ fastest.
pub fn round_spread(rounds: &[&Round]) -> f64 {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s()).collect();
    let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = walls.iter().copied().fold(0.0, f64::max);
    ratio(hi - lo, lo)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
