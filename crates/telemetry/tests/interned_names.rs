//! Span names are interned: recording an event allocates nothing once its
//! name has been seen, and the exported trace is what it was when every
//! event owned a copy of its name.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use exastro_telemetry::trace::thread_trace_id;
use exastro_telemetry::TraceBuffer;

/// One task's worth of events: a span, an arrow head, an arrow tail.
fn record_task(buf: &TraceBuffer, name: &str, flow: u64) {
    buf.begin(name);
    buf.flow_finish("dep", flow);
    buf.flow_start("dep", flow + 1);
    buf.end(name);
}

#[test]
fn push_allocates_nothing_after_the_first_use_of_a_name() {
    // 64 events a shard, reserved up front: the ring never grows, and once
    // full it evicts.
    let buf = TraceBuffer::new(16 * 64);
    // Names built at run time, as the task labels are.
    let names: Vec<String> = (0..8).map(|f| format!("interior.f{f}")).collect();
    for name in &names {
        record_task(&buf, name, 1);
    }
    let allocs = allocations_during(|| {
        for round in 0..50 {
            for name in &names {
                record_task(&buf, name, round);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "1600 events under names already seen on this thread"
    );
    assert!(buf.dropped() > 0, "the ring wrapped while counting");
    // A name this thread has not used costs its one-time copy.
    assert!(allocations_during(|| buf.begin("never.seen.before")) > 0);
}

#[test]
fn exported_json_is_byte_identical_for_a_fixed_script() {
    let buf = TraceBuffer::new(1024);
    buf.begin("step");
    buf.begin("pack.f0");
    buf.flow_start("dep", 7);
    buf.end("pack.f0");
    buf.begin("a \"quoted\"\\ name\n");
    buf.end("a \"quoted\"\\ name\n");
    buf.begin("unpack.f1");
    buf.flow_finish("dep", 7);
    buf.flow_finish("dep", 9); // never started: dropped
    buf.end("unpack.f1");
    buf.end("mismatched"); // closes nothing: dropped
    buf.begin("open"); // closed at export
    let dir = std::env::temp_dir().join(format!("exastro-interned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = buf.write_chrome_trace(dir.join("t.json")).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    // Timestamps are the only run-to-run variation; blank them.
    let mut got = String::new();
    for line in text.lines() {
        match (line.find("\"ts\": "), line.find(", \"pid\"")) {
            (Some(a), Some(b)) => {
                got.push_str(&line[..a + 6]);
                got.push('T');
                got.push_str(&line[b..]);
            }
            _ => got.push_str(line),
        }
        got.push('\n');
    }
    // Recorded with the exporter as it was before names were interned.
    let golden = r#"{
  "displayTimeUnit": "ns",
  "droppedEventCount": 0,
  "traceEvents": [
    {"name": "step", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "pack.f0", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "dep", "cat": "exastro", "ph": "s", "ts": T, "pid": 1, "tid": TID, "id": 7},
    {"name": "pack.f0", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "a \"quoted\"\\ name\u000a", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "a \"quoted\"\\ name\u000a", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "unpack.f1", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "dep", "cat": "exastro", "ph": "f", "ts": T, "pid": 1, "tid": TID, "id": 7, "bp": "e"},
    {"name": "unpack.f1", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "open", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "open", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "step", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID}
  ]
}
"#;
    assert_eq!(got, golden.replace("TID", &thread_trace_id().to_string()));
}
