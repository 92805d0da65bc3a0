//! Property tests: every exported trace is well-formed, no matter how
//! adversarial the recorded span stream was (unbalanced, interleaved
//! across threads, evicted by a tiny ring). The task spans and arrows a
//! graph run adds at export are held by `exastro-parallel`'s proptests.

#[path = "common/strict_json.rs"]
mod strict_json;

use exastro_telemetry::{json, Phase, StepMetrics, TraceBuffer, TraceEvent};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use strict_json::Json;

/// A string out of `(class, code point)` draws, biased toward what a JSON
/// string must escape: quotes, backslashes, control characters, plus BMP
/// and non-BMP text (surrogate code points fold to U+FFFD).
fn hostile_string(draws: &[(u8, u32)]) -> String {
    draws
        .iter()
        .map(|&(class, cp)| match class {
            0 => '"',
            1 => '\\',
            2 => char::from_u32(cp % 0x20).expect("a control character"),
            3 => char::from_u32(0x1_0000 + cp % 0x10_0000).unwrap_or('\u{fffd}'),
            _ => char::from_u32(cp).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// A float out of a `(class, bits)` draw: NaN and both infinities as often
/// as everything else (any bit pattern: subnormals, huge exponents, NaNs).
fn hostile_float((class, bits): (u8, u64)) -> f64 {
    match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => f64::from_bits(bits),
    }
}

/// The invariants the CI schema check enforces on Chrome trace spans:
/// per-thread monotonic timestamps, LIFO nesting, balanced B/E.
fn check_well_formed(events: &[TraceEvent]) -> Result<(), String> {
    let mut stacks: HashMap<u64, Vec<&str>> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    for ev in events {
        let prev = last_ts.entry(ev.tid).or_insert(0);
        if ev.ts_ns < *prev {
            return Err(format!("timestamp regression on tid {}", ev.tid));
        }
        *prev = ev.ts_ns;
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase {
            Phase::Begin => stack.push(ev.name),
            Phase::End => match stack.pop() {
                Some(top) if top == ev.name => {}
                Some(top) => return Err(format!("E {} closes B {top}", ev.name)),
                None => return Err(format!("E {} with empty stack", ev.name)),
            },
        }
    }
    for (tid, stack) in stacks {
        if !stack.is_empty() {
            return Err(format!("unclosed spans on tid {tid}: {stack:?}"));
        }
    }
    Ok(())
}

/// The ring's exported spans (no graph runs).
fn spans(buf: &TraceBuffer) -> Vec<TraceEvent> {
    buf.export(&[]).iter().map(|e| *e.event()).collect()
}

/// Replay an op stream on one thread: ops bias toward begin/end pairs,
/// with stray and mismatched ends mixed in (adversarial unbalance).
fn replay(buf: &TraceBuffer, ops: &[u8]) {
    let mut depth = 0u32;
    for (i, &op) in ops.iter().enumerate() {
        match op % 8 {
            0 | 1 | 4 => {
                buf.begin(&format!("span{}", i % 7));
                depth += 1;
            }
            2 | 5 if depth > 0 => {
                // Close the innermost span by emitting a matching name:
                // we don't track names here, so emit a mismatched one
                // sometimes — the exporter must cope either way.
                buf.end(&format!("span{}", i % 7));
                depth -= 1;
            }
            _ => {
                // Stray end, often with no open span.
                buf.end("stray");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adversarial_streams_export_well_formed(
        ops in prop::collection::vec(0u8..=255, 0..200),
        capacity in 64usize..2048,
    ) {
        let buf = TraceBuffer::new(capacity);
        replay(&buf, &ops);
        let events = spans(&buf);
        if let Err(e) = check_well_formed(&events) {
            prop_assert!(false, "ill-formed export: {}", e);
        }
    }

    #[test]
    fn balanced_streams_survive_intact_without_eviction(
        depth in 1usize..20,
    ) {
        // A properly nested stream in a big-enough buffer must export
        // exactly as recorded: 2*depth events, no drops, no synthesis.
        let buf = TraceBuffer::new(1 << 16);
        for d in 0..depth {
            buf.begin(&format!("level{d}"));
        }
        for d in (0..depth).rev() {
            buf.end(&format!("level{d}"));
        }
        prop_assert_eq!(buf.dropped(), 0);
        let events = spans(&buf);
        prop_assert_eq!(events.len(), 2 * depth);
        if let Err(e) = check_well_formed(&events) {
            prop_assert!(false, "ill-formed export: {}", e);
        }
        // Nesting order preserved: first B is level0, last E is level0.
        prop_assert_eq!(events.first().unwrap().name, "level0");
        prop_assert_eq!(events.last().unwrap().name, "level0");
    }

    #[test]
    fn tiny_rings_with_heavy_eviction_stay_well_formed(
        nspans in 50usize..400,
    ) {
        // Capacity far below the recorded volume: most B events evict,
        // leaving orphan E events the exporter must drop.
        let buf = TraceBuffer::new(64);
        for i in 0..nspans {
            buf.begin(&format!("s{i}"));
            buf.end(&format!("s{i}"));
        }
        prop_assert!(buf.dropped() > 0);
        let events = spans(&buf);
        if let Err(e) = check_well_formed(&events) {
            prop_assert!(false, "ill-formed export: {}", e);
        }
    }

    #[test]
    fn multithreaded_streams_export_well_formed(
        nthreads in 2usize..6,
        ops in prop::collection::vec(0u8..=255, 10..120),
    ) {
        let buf = std::sync::Arc::new(TraceBuffer::new(4096));
        let mut handles = Vec::new();
        for t in 0..nthreads {
            let b = buf.clone();
            let my_ops: Vec<u8> = ops.iter().map(|&o| o.wrapping_add(t as u8)).collect();
            handles.push(std::thread::spawn(move || replay(&b, &my_ops)));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = spans(&buf);
        if let Err(e) = check_well_formed(&events) {
            prop_assert!(false, "ill-formed export: {}", e);
        }
    }

    #[test]
    fn exported_json_is_structurally_valid(
        ops in prop::collection::vec(0u8..=255, 0..150),
        names in prop::collection::vec(prop::collection::vec((0u8..6, 0u32..0x11_0000), 0..12), 1..6),
        floats in prop::collection::vec((0u8..6, 0u64..u64::MAX), 3..4),
    ) {
        // Spans under arbitrary names, replayed adversarially around them.
        // (1024 events a shard: nothing is evicted, so every name survives.)
        let names: Vec<String> = names.iter().map(|d| hostile_string(d)).collect();
        let buf = TraceBuffer::new(16 * 1024);
        for name in &names {
            buf.begin(name);
        }
        replay(&buf, &ops);
        for name in names.iter().rev() {
            buf.end(name);
        }
        let dir = std::env::temp_dir()
            .join(format!("exastro-ptrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = buf.write_chrome_trace(dir.join("p.json"), &[], 0).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let trace = match strict_json::parse(&text) {
            Ok(trace) => trace,
            Err(e) => {
                prop_assert!(false, "trace is not strict JSON: {}\n{}", e, text);
                unreachable!()
            }
        };
        let Some(Json::Arr(events)) = trace.get("traceEvents") else {
            prop_assert!(false, "no traceEvents array");
            unreachable!()
        };
        // Every event carries the four required keys, and every name comes
        // back as it went in.
        let mut seen: HashSet<&str> = HashSet::new();
        for ev in events {
            for key in ["ph", "ts", "pid", "tid"] {
                prop_assert!(ev.get(key).is_some(), "event missing {}: {:?}", key, ev);
            }
            if let Some(Json::Str(name)) = ev.get("name") {
                seen.insert(name);
            }
        }
        for name in &names {
            prop_assert!(seen.contains(name.as_str()), "name lost in export: {:?}", name);
        }

        // The two primitives alone, and a record built on them.
        for name in &names {
            let quoted = format!("\"{}\"", json::escape(name));
            prop_assert_eq!(strict_json::parse(&quoted), Ok(Json::Str(name.clone())));
        }
        let floats: Vec<f64> = floats.into_iter().map(hostile_float).collect();
        for &v in &floats {
            let want = if v.is_finite() { Json::Num(v) } else { Json::Null };
            prop_assert_eq!(strict_json::parse(&json::num(v)), Ok(want));
        }
        let step = StepMetrics {
            driver: "castro".into(),
            t: floats[0],
            dt: floats[1],
            zones_per_us: floats[2],
            ..Default::default()
        };
        let line = strict_json::parse(&step.to_json());
        prop_assert!(line.is_ok(), "step record is not strict JSON: {:?}", line);
    }
}
