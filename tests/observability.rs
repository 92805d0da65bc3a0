//! The observability layer across crates: one sink family serves every
//! record type, and every artifact is strict JSON whatever the floats.

#[path = "../crates/telemetry/tests/common/strict_json.rs"]
mod strict_json;

use exastro::service::{ClassQueueWait, Event, EventKind, PriorityClass, Service, ServiceConfig};
use exastro::telemetry::{JsonLine, JsonlSink, MemorySink, MultiSink, NullSink, Sink, StepMetrics};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts flushes; never fails.
#[derive(Default)]
struct FlushCounter(AtomicUsize);

impl<T> Sink<T> for FlushCounter {
    fn record(&self, _item: &T) {}
    fn flush(&self) -> std::io::Result<()> {
        self.0.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// What every `Sink<T>` family member promises, for the record type `T`
/// whose `i`-th record is `make(i)`.
fn sink_contract<T>(tag: &str, make: impl Fn(u64) -> T)
where
    T: JsonLine + Clone + Send + 'static,
{
    let dir = std::env::temp_dir().join(format!("exastro-sinks-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let records: Vec<T> = (0..3).map(&make).collect();
    let lines = |records: &[T]| -> Vec<String> { records.iter().map(T::json_line).collect() };

    // Memory keeps records in order; Jsonl has whole lines on disk after
    // every record, flushed or not; a fan-out reaches every member.
    let memory = Arc::new(MemorySink::<T>::new());
    let path = dir.join("records.jsonl");
    let jsonl: Arc<dyn Sink<T>> = Arc::new(JsonlSink::create(&path).unwrap());
    let fan = MultiSink::new(vec![memory.clone(), jsonl, Arc::new(NullSink)]);
    for (i, r) in records.iter().enumerate() {
        fan.record(r);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.ends_with('\n'),
            "{tag}: a partial line after record {i}"
        );
        assert_eq!(text.lines().count(), i + 1);
    }
    fan.flush().unwrap();
    drop(fan);
    assert_eq!(lines(&memory.snapshot()), lines(&records));
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().collect::<Vec<_>>(), lines(&records));
    for line in text.lines() {
        strict_json::parse(line).unwrap_or_else(|e| panic!("{tag}: {e}: {line}"));
    }

    assert!(JsonlSink::<T>::create(dir.join("no-such-dir/x.jsonl")).is_err());
    std::fs::remove_dir_all(&dir).unwrap();

    // /dev/full accepts the open and fails every write with ENOSPC.
    if !Path::new("/dev/full").exists() {
        return;
    }
    let full = JsonlSink::<T>::create("/dev/full").unwrap();
    assert!(full.flush().is_ok(), "no error before the first write");
    full.record(&make(0));
    full.record(&make(1));
    let first = full.flush().expect_err("the write failed").to_string();
    assert!(first.starts_with("/dev/full: "), "{first}");
    assert_eq!(full.flush().expect_err("sticky").to_string(), first);

    // A fan-out flushes every member, also after a failing one, and names
    // every failure.
    let healthy = Arc::new(MemorySink::<T>::new());
    let last = Arc::new(FlushCounter::default());
    let bad = || -> Arc<dyn Sink<T>> { Arc::new(JsonlSink::create("/dev/full").unwrap()) };
    let fan = MultiSink::new(vec![healthy.clone(), bad(), bad(), last.clone()]);
    fan.record(&make(7));
    let err = fan.flush().expect_err("two members failed").to_string();
    assert!(
        err.contains("sink 1: /dev/full") && err.contains("sink 2: /dev/full"),
        "{err}"
    );
    assert!(!err.contains("sink 0") && !err.contains("sink 3"), "{err}");
    assert_eq!(
        last.0.load(Ordering::Relaxed),
        1,
        "flushed after the failures"
    );
    assert_eq!(lines(&healthy.snapshot()), lines(&[make(7)]));
}

#[test]
fn one_sink_family_serves_step_metrics_and_events() {
    sink_contract("steps", |i| StepMetrics {
        driver: "castro".into(),
        step: i,
        dt: 0.5,
        zones: 8 * i,
        ..Default::default()
    });
    sink_contract("events", |i| Event {
        detail: format!("say \"why\" {i}"),
        latency_s: Some(0.25 * i as f64),
        ..Event::new(1e6 * i as f64, i, EventKind::Complete)
    });
}

#[test]
fn non_finite_floats_reach_no_artifact() {
    // `scheduler.rs` sorts latencies with `total_cmp` because a NaN can
    // reach the report; JSON has no token for it.
    let mut report = Service::new(ServiceConfig::default()).report();
    report.latency_p99_s = f64::NAN;
    report.jobs_per_hour = f64::INFINITY;
    report.deadline_hit_rate = Some(f64::NAN);
    report.mttr_s = vec![1.5, f64::NAN, f64::NEG_INFINITY];
    report.queue_wait_by_class.push(ClassQueueWait {
        class: PriorityClass::High,
        samples: 1,
        p50_s: 0.125,
        p99_s: f64::INFINITY,
    });
    let text = report.to_json();
    let json = strict_json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    use strict_json::Json::{Arr, Null, Num};
    assert_eq!(json.get("latency_p99_s"), Some(&Null));
    assert_eq!(json.get("jobs_per_hour"), Some(&Null));
    assert_eq!(json.get("deadline_hit_rate"), Some(&Null));
    assert_eq!(json.get("mttr_s"), Some(&Arr(vec![Num(1.5), Null, Null])));
    assert_eq!(json.get("latency_p50_s"), Some(&Num(report.latency_p50_s)));
    let waits = json.get("queue_wait_by_class").expect("the per-class rows");
    let Arr(waits) = waits else {
        panic!("{waits:?}")
    };
    assert_eq!(waits[0].get("p50_s"), Some(&Num(0.125)));
    assert_eq!(waits[0].get("p99_s"), Some(&Null));

    let event = Event {
        latency_s: Some(f64::INFINITY),
        deadline_s: Some(3.0),
        mttr_s: Some(f64::NAN),
        queue_wait_s: Some(f64::NEG_INFINITY),
        detail: "tab\there \"quoted\" \\ 𝄞".into(),
        ..Event::new(f64::INFINITY, 4, EventKind::Complete)
    };
    let line = event.to_json();
    let json = strict_json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
    for key in ["sim_us", "latency_s", "mttr_s", "queue_wait_s"] {
        assert_eq!(json.get(key), Some(&Null), "{key} in {line}");
    }
    assert_eq!(json.get("deadline_s"), Some(&Num(3.0)));
    let detail = strict_json::Json::Str(event.detail.clone());
    assert_eq!(json.get("detail"), Some(&detail));
    // Finite values print as they always did.
    assert!(line.contains("\"deadline_s\": 3, "), "{line}");
}
