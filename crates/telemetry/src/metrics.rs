//! Per-step time-series metrics: the [`StepMetrics`] record and the
//! [`StepRecorder`] handle the drivers embed, which hands each record to a
//! [`Sink`] of the caller's choosing.
//!
//! One [`StepMetrics`] is appended per *accepted* step by
//! `resilience::transact`, the transactional step behind
//! `Castro::advance_level_safe` and `Maestro::advance_safe`. The JSONL
//! form (one JSON object per line) streams safely — a killed run leaves
//! whole, parseable lines — and reproduces the paper's §IV burner-fraction
//! table with a ten-line script (see EXPERIMENTS.md).

use crate::json;
use crate::sink::{JsonLine, Sink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One accepted driver step, in machine-readable form.
///
/// Counter fields are *per step* (deltas), not run totals: summing a column
/// over a `steps.jsonl` file reconciles with the end-of-run region table /
/// `BurnStats` totals, which the driver integration tests assert.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepMetrics {
    /// Which driver emitted this record (`"castro"` or `"maestro"`).
    pub driver: String,
    /// 1-based accepted-step ordinal within this recorder's run.
    pub step: u64,
    /// Simulation time at the *end* of the step.
    pub t: f64,
    /// The dt actually taken (after any rejection-driven cuts).
    pub dt: f64,
    /// Wall-clock nanoseconds for the step (including rejected attempts).
    pub wall_ns: u64,
    /// Zones advanced this step (one count per accepted advance).
    pub zones: u64,
    /// Throughput in zones per microsecond (the paper's Figures 2–4 unit).
    pub zones_per_us: f64,
    /// Newton iterations spent in the burner this step.
    pub newton_iters: u64,
    /// BDF steps taken by the burner this step.
    pub bdf_steps: u64,
    /// Burn retry-ladder attempts beyond the first (all rungs).
    pub burn_retries: u64,
    /// Zones recovered on the relaxed-tolerance rung.
    pub recovered_relaxed: u64,
    /// Zones recovered on the subcycling rung.
    pub recovered_subcycle: u64,
    /// Zones recovered on the offload rung.
    pub recovered_offload: u64,
    /// Whole-step rejections (snapshot restore + dt cut) before acceptance.
    pub step_rejections: u64,
    /// Checkpoint bytes charged to this run since its previous record.
    pub checkpoint_bytes: u64,
    /// Arena live bytes after the step (0 when the driver has no arena).
    pub arena_live_bytes: u64,
    /// Arena peak bytes so far (0 when the driver has no arena).
    pub arena_peak_bytes: u64,
}

impl StepMetrics {
    /// This record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"driver\": \"{}\", \"step\": {}, \"t\": {}, \"dt\": {}, \"wall_ns\": {}, \"zones\": {}, \"zones_per_us\": {}, \"newton_iters\": {}, \"bdf_steps\": {}, \"burn_retries\": {}, \"recovered_relaxed\": {}, \"recovered_subcycle\": {}, \"recovered_offload\": {}, \"step_rejections\": {}, \"checkpoint_bytes\": {}, \"arena_live_bytes\": {}, \"arena_peak_bytes\": {}}}",
            self.driver,
            self.step,
            json::num(self.t),
            json::num(self.dt),
            self.wall_ns,
            self.zones,
            json::num(self.zones_per_us),
            self.newton_iters,
            self.bdf_steps,
            self.burn_retries,
            self.recovered_relaxed,
            self.recovered_subcycle,
            self.recovered_offload,
            self.step_rejections,
            self.checkpoint_bytes,
            self.arena_live_bytes,
            self.arena_peak_bytes,
        )
    }
}

impl JsonLine for StepMetrics {
    fn json_line(&self) -> String {
        self.to_json()
    }
}

/// The handle a driver embeds: owns the optional sink, the step ordinal,
/// and the checkpoint bytes charged to this run since its last record.
///
/// `Default` is the inert state (no sink, zero cost per step beyond one
/// `Option` check), so drivers constructed by struct literal or `new()`
/// stay telemetry-free until `attach_sink` is called.
#[derive(Default)]
pub struct StepRecorder {
    sink: Option<Arc<dyn Sink<StepMetrics>>>,
    step: AtomicU64,
    /// Run time accumulated over recorded steps, as `f64` bits.
    time_bits: AtomicU64,
    ckpt_bytes_pending: AtomicU64,
}

impl StepRecorder {
    /// An inert recorder (no sink attached).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach `sink` and reset the step ordinal; subsequent accepted steps
    /// are recorded. Checkpoint bytes charged before the attach are
    /// dropped.
    pub fn attach_sink(&mut self, sink: Arc<dyn Sink<StepMetrics>>) {
        self.sink = Some(sink);
        self.step.store(0, Ordering::Relaxed);
        self.time_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.ckpt_bytes_pending.store(0, Ordering::Relaxed);
    }

    /// Charge `bytes` of checkpoint payload written for this run; the next
    /// [`StepRecorder::record`] carries them as its `checkpoint_bytes`.
    pub fn charge_checkpoint(&self, bytes: u64) {
        self.ckpt_bytes_pending.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Whether a sink is attached (drivers skip metric assembly when not).
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// Record one accepted step. Fills in the step ordinal, accumulates
    /// `t` from the recorded `dt` values (a run clock starting at 0 when
    /// the sink was attached), derives `zones_per_us` from
    /// `zones`/`wall_ns`, and moves the pending checkpoint charge into
    /// `checkpoint_bytes` (checkpoints written between steps attribute to
    /// the following step, so run totals still reconcile). No-op without a
    /// sink.
    pub fn record(&self, mut m: StepMetrics) {
        let Some(sink) = &self.sink else { return };
        m.step = self.step.fetch_add(1, Ordering::Relaxed) + 1;
        let t = f64::from_bits(self.time_bits.load(Ordering::Relaxed)) + m.dt;
        self.time_bits.store(t.to_bits(), Ordering::Relaxed);
        m.t = t;
        m.zones_per_us = if m.wall_ns > 0 {
            m.zones as f64 / (m.wall_ns as f64 / 1_000.0)
        } else {
            f64::NAN
        };
        m.checkpoint_bytes = self.ckpt_bytes_pending.swap(0, Ordering::Relaxed);
        sink.record(&m);
    }

    /// Flush the attached sink, if any, surfacing deferred I/O errors.
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, MultiSink};

    #[test]
    fn multi_sink_fans_out_to_every_member() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let multi = MultiSink::new(vec![a.clone(), b.clone()]);
        let mut rec = StepRecorder::new();
        rec.attach_sink(Arc::new(multi));
        rec.record(StepMetrics {
            driver: "castro".into(),
            dt: 0.5,
            wall_ns: 1_000,
            zones: 4,
            ..Default::default()
        });
        rec.record(StepMetrics {
            driver: "castro".into(),
            dt: 0.5,
            wall_ns: 2_000,
            zones: 4,
            ..Default::default()
        });
        assert_eq!(a.snapshot().len(), 2);
        assert_eq!(a.snapshot(), b.snapshot());
        // Ordinals are assigned once by the recorder, not per sink.
        assert_eq!(a.snapshot()[1].step, 2);
        // An empty fan-out records nothing and must not panic.
        MultiSink::new(vec![]).record(&StepMetrics::default());
    }

    #[test]
    fn jsonl_round_trip_and_memory_sink() {
        let sink = Arc::new(MemorySink::new());
        let mut rec = StepRecorder::new();
        assert!(!rec.is_active());
        rec.record(StepMetrics::default()); // inert: no sink yet
        rec.attach_sink(sink.clone());
        assert!(rec.is_active());
        rec.record(StepMetrics {
            driver: "castro".into(),
            dt: 0.25,
            wall_ns: 2_000,
            zones: 8,
            ..Default::default()
        });
        rec.record(StepMetrics {
            driver: "castro".into(),
            dt: 0.5,
            ..Default::default()
        });
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].step, 1);
        assert_eq!(recs[1].step, 2);
        // t accumulates the recorded dt values.
        assert_eq!(recs[0].t, 0.25);
        assert_eq!(recs[1].t, 0.75);
        assert!((recs[0].zones_per_us - 4.0).abs() < 1e-12);
        let line = recs[0].to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"driver\": \"castro\""));
        assert!(line.contains("\"zones\": 8"));
        assert_eq!(line.matches('{').count(), 1);
    }

    fn ckpt_column(sink: &MemorySink<StepMetrics>) -> Vec<u64> {
        sink.snapshot().iter().map(|r| r.checkpoint_bytes).collect()
    }

    #[test]
    fn a_checkpoint_charge_lands_on_the_next_record_only() {
        let sink = Arc::new(MemorySink::new());
        let mut rec = StepRecorder::new();
        rec.attach_sink(sink.clone());
        rec.charge_checkpoint(40);
        rec.charge_checkpoint(2);
        rec.record(StepMetrics::default());
        rec.record(StepMetrics::default());
        rec.charge_checkpoint(5);
        rec.record(StepMetrics::default());
        assert_eq!(ckpt_column(&sink), [42, 0, 5]);
    }

    #[test]
    fn a_checkpoint_charged_before_attach_is_dropped() {
        let sink = Arc::new(MemorySink::new());
        let mut rec = StepRecorder::new();
        rec.charge_checkpoint(100);
        rec.record(StepMetrics::default()); // inert: consumes nothing
        rec.attach_sink(sink.clone());
        rec.record(StepMetrics::default());
        assert_eq!(ckpt_column(&sink), [0]);
    }

    #[test]
    fn a_checkpoint_charge_stays_with_its_own_recorder() {
        let (sa, sb) = (Arc::new(MemorySink::new()), Arc::new(MemorySink::new()));
        let (mut a, mut b) = (StepRecorder::new(), StepRecorder::new());
        a.attach_sink(sa.clone());
        b.attach_sink(sb.clone());
        a.charge_checkpoint(7);
        b.record(StepMetrics::default());
        a.record(StepMetrics::default());
        b.charge_checkpoint(3);
        a.record(StepMetrics::default());
        b.record(StepMetrics::default());
        assert_eq!(ckpt_column(&sa), [7, 0]);
        assert_eq!(ckpt_column(&sb), [0, 3]);
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let m = StepMetrics {
            t: f64::NAN,
            zones_per_us: f64::INFINITY,
            ..Default::default()
        };
        let j = m.to_json();
        assert!(j.contains("\"t\": null"));
        assert!(j.contains("\"zones_per_us\": null"));
        assert!(!j.contains("NaN") && !j.contains("inf"));
    }
}
