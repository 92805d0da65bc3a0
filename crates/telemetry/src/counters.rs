//! Named monotonic counters for categorical tallies.
//!
//! Where a [`Histogram`](crate::histogram::Histogram) captures a value
//! distribution, a counter captures a total: bytes written by the
//! checkpoint manager, or how many burns finished on each retry-ladder
//! rung. Counter updates are rare events (once per checkpoint, once per
//! recovered burn), so a single mutex-guarded map is plenty.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

fn registry() -> &'static Mutex<HashMap<String, u64>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Add `delta` to the process-wide counter `name` (created at 0 on first
/// use).
pub fn counter_add(name: &str, delta: u64) {
    let mut reg = registry().lock().unwrap();
    *reg.entry(name.to_string()).or_insert(0) += delta;
}

/// Current value of counter `name` (0 if never touched).
pub fn counter_get(name: &str) -> u64 {
    registry().lock().unwrap().get(name).copied().unwrap_or(0)
}

/// All counters as `(name, value)` pairs, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = registry()
        .lock()
        .unwrap()
        .iter()
        .map(|(k, &n)| (k.clone(), n))
        .collect();
    v.sort();
    v
}

/// Zero every counter.
pub(crate) fn reset() {
    registry().lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        counter_add("test.ctr.b", 2);
        counter_add("test.ctr.a", 1);
        counter_add("test.ctr.b", 3);
        assert_eq!(counter_get("test.ctr.b"), 5);
        assert_eq!(counter_get("test.ctr.a"), 1);
        assert_eq!(counter_get("test.ctr.never"), 0);
        let snap = counters_snapshot();
        let ours: Vec<_> = snap
            .iter()
            .filter(|(k, _)| k.starts_with("test.ctr."))
            .collect();
        assert_eq!(ours.len(), 2);
        assert!(ours[0].0 < ours[1].0, "snapshot must be name-sorted");
    }
}
