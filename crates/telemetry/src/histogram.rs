//! Fixed-bucket log-scale histograms with lock-free recording.
//!
//! Burn cost per zone spans orders of magnitude (§VI "outlier zones": a
//! handful of zones near a detonation front take 100–1000× the BDF steps of
//! a quiescent zone), so buckets are spaced logarithmically: a fixed number
//! of buckets per decade between `lo` and `hi`, plus underflow/overflow
//! bins. Counts are `AtomicU64`, so recording from pool workers needs no
//! lock; `count/sum/min/max` are tracked exactly alongside the buckets.
//!
//! [`Histogram::percentile`] returns the **lower edge** of the bucket
//! containing the requested rank (exact recorded min/max for the
//! underflow/overflow bins), which is exact whenever recorded values sit on
//! bucket edges — the property the unit tests pin down.

use crate::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default low edge of the bucketed range.
pub const DEFAULT_LO: f64 = 1.0;
/// Default high edge of the bucketed range (values ≥ this overflow).
pub const DEFAULT_HI: f64 = 1.0e6;
/// Default bucket resolution: buckets per decade.
pub const DEFAULT_BUCKETS_PER_DECADE: u32 = 10;

/// A fixed-bucket log-scale histogram. Cheap to record into (`&self`, one
/// atomic increment per bucket plus exact count/sum/min/max updates).
pub struct Histogram {
    lo: f64,
    buckets_per_decade: u32,
    nbuckets: usize,
    counts: Vec<AtomicU64>,
    underflow: AtomicU64,
    overflow: AtomicU64,
    count: AtomicU64,
    /// Sum of recorded values, stored as `f64` bits (CAS loop).
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram bucketing `[lo, hi)` with `buckets_per_decade` log-spaced
    /// buckets per decade. `lo` must be positive and `hi > lo`.
    pub fn new(lo: f64, hi: f64, buckets_per_decade: u32) -> Self {
        assert!(lo > 0.0 && hi > lo && buckets_per_decade > 0);
        let decades = (hi / lo).log10();
        let nbuckets = (decades * buckets_per_decade as f64).ceil() as usize;
        Histogram {
            lo,
            buckets_per_decade,
            nbuckets,
            counts: (0..nbuckets).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Lower edge of bucket `i`.
    fn edge(&self, i: usize) -> f64 {
        self.lo * 10f64.powf(i as f64 / self.buckets_per_decade as f64)
    }

    /// Bucket index for `value`, with an edge-rounding correction so values
    /// exactly on a bucket edge always land in the bucket they open.
    fn index(&self, value: f64) -> isize {
        if value < self.lo {
            return -1;
        }
        let raw = ((value / self.lo).log10() * self.buckets_per_decade as f64).floor();
        let mut i = raw as isize;
        // log/pow rounding can put an on-edge value one bucket off in
        // either direction; nudge until edge(i) <= value < edge(i+1).
        while i > 0 && value < self.edge(i as usize) {
            i -= 1;
        }
        while ((i + 1) as usize) <= self.nbuckets && value >= self.edge((i + 1) as usize) {
            i += 1;
        }
        if (i as usize) >= self.nbuckets {
            self.nbuckets as isize // overflow sentinel
        } else {
            i
        }
    }

    /// Record one observation. Non-finite values are ignored.
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        match self.index(value) {
            -1 => self.underflow.fetch_add(1, Ordering::Relaxed),
            i if (i as usize) == self.nbuckets => self.overflow.fetch_add(1, Ordering::Relaxed),
            i => self.counts[i as usize].fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, |s| s + value);
        atomic_f64_update(&self.min_bits, |m| m.min(value));
        atomic_f64_update(&self.max_bits, |m| m.max(value));
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded values (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Exact minimum recorded value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Exact maximum recorded value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// The lower edge of the bucket holding the `p`-th percentile
    /// observation (0 < p ≤ 100), by cumulative rank over the buckets. The
    /// underflow bin reports the exact recorded minimum and the overflow
    /// bin the exact recorded maximum. `NaN` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        // Rank of the percentile observation, 1-based ceil (nearest-rank).
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as u64;
        let mut cum = self.underflow.load(Ordering::Relaxed);
        if cum >= rank {
            return self.min();
        }
        for i in 0..self.nbuckets {
            cum += self.counts[i].load(Ordering::Relaxed);
            if cum >= rank {
                return self.edge(i);
            }
        }
        self.max()
    }

    /// Non-empty buckets as `(lower_edge, count)` pairs, in edge order.
    /// Underflow/overflow are reported with edges `0.0` and the high edge.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let u = self.underflow.load(Ordering::Relaxed);
        if u > 0 {
            out.push((0.0, u));
        }
        for i in 0..self.nbuckets {
            let c = self.counts[i].load(Ordering::Relaxed);
            if c > 0 {
                out.push((self.edge(i), c));
            }
        }
        let o = self.overflow.load(Ordering::Relaxed);
        if o > 0 {
            out.push((self.edge(self.nbuckets), o));
        }
        out
    }

    /// Reset all counts and the exact statistics.
    pub fn clear(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.underflow.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }

    /// A compact JSON object with the summary statistics and non-empty
    /// buckets (used by `report_json` consumers).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(|(e, c)| format!("[{}, {}]", json::num(*e), c))
            .collect();
        format!(
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{}]}}",
            self.count(),
            json::num(self.sum()),
            json::num(self.min()),
            json::num(self.max()),
            json::num(self.percentile(50.0)),
            json::num(self.percentile(90.0)),
            json::num(self.percentile(99.0)),
            buckets.join(", "),
        )
    }
}

pub(crate) fn atomic_f64_update(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn registry() -> &'static Mutex<HashMap<String, Arc<Histogram>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<Histogram>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The process-wide histogram named `name`, created with the default
/// bucketing (`[1, 1e6)`, 10 buckets/decade) on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry().lock().unwrap();
    reg.entry(name.to_string())
        .or_insert_with(|| {
            Arc::new(Histogram::new(
                DEFAULT_LO,
                DEFAULT_HI,
                DEFAULT_BUCKETS_PER_DECADE,
            ))
        })
        .clone()
}

/// Names of all registered histograms, sorted.
pub fn histogram_names() -> Vec<String> {
    let mut names: Vec<String> = registry().lock().unwrap().keys().cloned().collect();
    names.sort();
    names
}

/// Clear every registered histogram (handles stay valid).
pub(crate) fn reset() {
    for h in registry().lock().unwrap().values() {
        h.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_edge_values() {
        let h = Histogram::new(1.0, 1.0e6, 10);
        // 90 cheap zones at 1.0, 10 outliers at 1000.0 (both on edges).
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), 1.0);
        assert_eq!(h.percentile(90.0), 1.0);
        assert_eq!(h.percentile(99.0), 1000.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 1000.0);
        assert!((h.mean() - (90.0 + 10_000.0) / 100.0).abs() < 1e-12);
    }

    #[test]
    fn power_of_ten_edges_index_exactly() {
        let h = Histogram::new(1.0, 1.0e6, 10);
        for v in [1.0, 10.0, 100.0, 1000.0, 1.0e4, 1.0e5] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 6);
        for ((edge, count), v) in buckets.iter().zip([1.0, 10.0, 100.0, 1000.0, 1.0e4, 1.0e5]) {
            assert_eq!(*edge, v, "value {v} must land in its own edge bucket");
            assert_eq!(*count, 1);
        }
    }

    #[test]
    fn underflow_and_overflow_report_exact_extremes() {
        let h = Histogram::new(1.0, 100.0, 4);
        h.record(0.25);
        h.record(5.0);
        h.record(7.5e4);
        assert_eq!(h.count(), 3);
        // p1 hits the underflow bin -> exact min; p99 hits overflow -> max.
        assert_eq!(h.percentile(1.0), 0.25);
        assert_eq!(h.percentile(99.0), 7.5e4);
        assert_eq!(h.nonzero_buckets().first().unwrap().0, 0.0);
    }

    #[test]
    fn nan_and_inf_are_ignored() {
        let h = Histogram::new(1.0, 100.0, 4);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(2.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let h = Histogram::new(1.0, 100.0, 4);
        h.record(3.0);
        h.clear();
        assert_eq!(h.count(), 0);
        assert!(h.percentile(50.0).is_nan());
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn registry_returns_shared_instances() {
        let a = histogram("test.registry.shared");
        let b = histogram("test.registry.shared");
        a.record(2.0);
        assert_eq!(b.count(), 1);
        assert!(histogram_names().contains(&"test.registry.shared".to_string()));
        a.clear();
    }

    #[test]
    fn json_summary_is_balanced() {
        let h = Histogram::new(1.0, 100.0, 4);
        h.record(2.0);
        let j = h.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"count\": 1"));
    }
}
