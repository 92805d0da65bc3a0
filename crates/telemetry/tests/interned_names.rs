//! Span names are interned: recording an event allocates nothing once its
//! name has been seen, and the exported trace is what it was when every
//! event owned a copy of its name and the ring held the task spans too.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_during;
use exastro_telemetry::trace::{intern, thread_trace_id};
use exastro_telemetry::{GraphTrace, TaskClass, TaskRecord, TraceBuffer};

fn record_span(buf: &TraceBuffer, name: &str) {
    buf.begin(name);
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
        record_span(&buf, name);
    }
    let allocs = allocations_during(|| {
        for _ in 0..100 {
            for name in &names {
                record_span(&buf, name);
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
    let pack = [buf.stamp(), buf.stamp()];
    buf.begin("a \"quoted\"\\ name\n");
    buf.end("a \"quoted\"\\ name\n");
    let unpack = [buf.stamp(), buf.stamp()];
    buf.end("mismatched"); // closes nothing: dropped
    buf.begin("open"); // closed at export
                       // Two graph tasks on this thread, `unpack.f1` after `pack.f0`.
    let task = |t: usize, name: &str, [start, end]: [exastro_telemetry::Stamp; 2]| TaskRecord {
        task: t,
        name: intern(name),
        class: TaskClass::Comm,
        ready_ns: 0,
        start_ns: start.ts_ns,
        end_ns: end.ts_ns,
        start_seq: start.seq,
        end_seq: end.seq,
        worker: thread_trace_id(),
    };
    let graph = GraphTrace {
        label: "halo".to_string(),
        start_ns: 0,
        wall_ns: 0,
        tasks: vec![task(0, "pack.f0", pack), task(1, "unpack.f1", unpack)],
        deps: vec![vec![], vec![0]],
    };
    let dir = std::env::temp_dir().join(format!("exastro-interned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = buf
        .write_chrome_trace(dir.join("t.json"), &[graph], 0)
        .unwrap();
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
    // Recorded with the exporter as it was before names were interned and
    // while the ring held task spans and arrows (id 7 then, the first
    // arrow of the export now); only the `evictedGraphRuns` line is new.
    let golden = r#"{
  "displayTimeUnit": "ns",
  "droppedEventCount": 0,
  "evictedGraphRuns": 0,
  "traceEvents": [
    {"name": "step", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "pack.f0", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "dep", "cat": "exastro", "ph": "s", "ts": T, "pid": 1, "tid": TID, "id": 1},
    {"name": "pack.f0", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "a \"quoted\"\\ name\u000a", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "a \"quoted\"\\ name\u000a", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "unpack.f1", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "dep", "cat": "exastro", "ph": "f", "ts": T, "pid": 1, "tid": TID, "id": 1, "bp": "e"},
    {"name": "unpack.f1", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "open", "cat": "exastro", "ph": "B", "ts": T, "pid": 1, "tid": TID},
    {"name": "open", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID},
    {"name": "step", "cat": "exastro", "ph": "E", "ts": T, "pid": 1, "tid": TID}
  ]
}
"#;
    assert_eq!(got, golden.replace("TID", &thread_trace_id().to_string()));
}
