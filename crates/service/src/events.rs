//! The cluster event log, the service's one record of what happened:
//! one sim-clock-timestamped event per scheduling decision, folded into
//! the tally [`crate::ServiceReport`] reads and streamed through an
//! [`exastro_telemetry::Sink`]`<Event>`, both at `ServiceLog::record`.
//! Every count and SLO metric in the report (deadline hit rate, queue
//! latency, MTTR series) is therefore a fold of the log, and a
//! post-mortem can replay any job's timeline from it.
//!
//! Each event serializes to one self-describing JSONL line under the
//! `exastro.event.v1` schema (hand-rolled JSON — the workspace is
//! registry-free). Optional fields are omitted, not nulled, so consumers
//! can `jq 'select(.kind == "revoke")'` without null-guards.

use std::sync::Arc;

use crate::spec::{JobId, PriorityClass};
use exastro_telemetry::{json, JsonLine, Sink};

/// What happened. Stable lowercase names (the JSONL `kind` key) are the
/// schema CI checks against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A spec passed validation and entered the admission queue.
    Admit,
    /// A submission was refused (backpressure or invalid spec).
    Reject,
    /// A gang lease was granted (the `ranks` field lists the members).
    Lease,
    /// The job began (or resumed) advancing on its lease.
    Start,
    /// The job was checkpointed off the machine for a higher class.
    Preempt,
    /// A checkpoint was written (cadence, initial, or migration).
    Checkpoint,
    /// The fault model killed a node under the service.
    NodeFail,
    /// A dead node returned to service.
    NodeRepair,
    /// A lease was surrendered because ranks under it died; the `ranks`
    /// field lists the dead members, `lost_steps` the work rolled back.
    Revoke,
    /// A previously-failed job got back onto the machine (`mttr_s` is the
    /// simulated time from rank death to renewed placement).
    Recover,
    /// The job was checkpoint-migrated off a straggling node.
    Migrate,
    /// The job was circuit-broken into quarantine.
    Quarantine,
    /// The job ran all requested steps (`latency_s`, and `deadline_s`
    /// when the spec set one, price the SLO).
    Complete,
    /// The job died on an unrecoverable driver error.
    Fail,
}

impl EventKind {
    /// Stable lowercase name used in the JSONL `kind` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Reject => "reject",
            EventKind::Lease => "lease",
            EventKind::Start => "start",
            EventKind::Preempt => "preempt",
            EventKind::Checkpoint => "checkpoint",
            EventKind::NodeFail => "node_fail",
            EventKind::NodeRepair => "node_repair",
            EventKind::Revoke => "revoke",
            EventKind::Recover => "recover",
            EventKind::Migrate => "migrate",
            EventKind::Quarantine => "quarantine",
            EventKind::Complete => "complete",
            EventKind::Fail => "fail",
        }
    }
}

/// One cluster event. `sim_us`/`tick` are always present; everything else
/// is per-kind (see [`EventKind`]) and omitted from the JSONL line when
/// absent.
#[derive(Clone, Debug)]
pub struct Event {
    /// Simulated-clock timestamp, microseconds since service start.
    pub sim_us: f64,
    /// Scheduler tick the event happened in.
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
    /// The job involved, if any.
    pub job: Option<JobId>,
    /// The job's priority class, if any.
    pub class: Option<PriorityClass>,
    /// The node involved (node-fail / node-repair).
    pub node: Option<usize>,
    /// The job's step count at the event.
    pub step: Option<u64>,
    /// Ranks involved (lease members, or the dead ranks of a revoke).
    pub ranks: Vec<usize>,
    /// Human-readable context (reject reasons, quarantine causes, ...).
    pub detail: String,
    /// Submit → terminal wall seconds (complete/fail/quarantine).
    pub latency_s: Option<f64>,
    /// The spec's soft deadline, seconds (complete, when one was set).
    pub deadline_s: Option<f64>,
    /// Simulated seconds from rank death to renewed placement (recover).
    pub mttr_s: Option<f64>,
    /// Steps rolled back to the last checkpoint (revoke).
    pub lost_steps: Option<u64>,
    /// Wall seconds the job waited in the queue before this start.
    pub queue_wait_s: Option<f64>,
}

impl Event {
    /// A bare event with every optional field empty; call sites fill in
    /// the per-kind fields with struct-update syntax.
    pub fn new(sim_us: f64, tick: u64, kind: EventKind) -> Event {
        Event {
            sim_us,
            tick,
            kind,
            job: None,
            class: None,
            node: None,
            step: None,
            ranks: Vec::new(),
            detail: String::new(),
            latency_s: None,
            deadline_s: None,
            mttr_s: None,
            lost_steps: None,
            queue_wait_s: None,
        }
    }

    /// One self-describing JSONL line (no trailing newline). Optional
    /// fields absent from the event are absent from the line.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"schema\": \"exastro.event.v1\", \"sim_us\": {}, \"tick\": {}, \"kind\": \"{}\"",
            json::num(self.sim_us),
            self.tick,
            self.kind.name()
        );
        if let Some(j) = self.job {
            s += &format!(", \"job\": \"{j}\"");
        }
        if let Some(c) = self.class {
            s += &format!(", \"class\": \"{}\"", c.name());
        }
        if let Some(n) = self.node {
            s += &format!(", \"node\": {n}");
        }
        if let Some(st) = self.step {
            s += &format!(", \"step\": {st}");
        }
        if !self.ranks.is_empty() {
            let list: Vec<String> = self.ranks.iter().map(|r| r.to_string()).collect();
            s += &format!(", \"ranks\": [{}]", list.join(", "));
        }
        if let Some(v) = self.latency_s {
            s += &format!(", \"latency_s\": {}", json::num(v));
        }
        if let Some(v) = self.deadline_s {
            s += &format!(", \"deadline_s\": {}", json::num(v));
        }
        if let Some(v) = self.mttr_s {
            s += &format!(", \"mttr_s\": {}", json::num(v));
        }
        if let Some(v) = self.lost_steps {
            s += &format!(", \"lost_steps\": {v}");
        }
        if let Some(v) = self.queue_wait_s {
            s += &format!(", \"queue_wait_s\": {}", json::num(v));
        }
        if !self.detail.is_empty() {
            s += &format!(", \"detail\": \"{}\"", json::escape(&self.detail));
        }
        s += "}";
        s
    }
}

impl JsonLine for Event {
    fn json_line(&self) -> String {
        self.to_json()
    }
}

/// What the report reads, folded from the events as they are recorded.
#[derive(Default)]
pub(crate) struct ServiceTally {
    /// Events of each [`EventKind`], indexed by `kind as usize` (a new
    /// kind must grow the array).
    counts: [u64; 14],
    /// The recover events' `mttr_s`, in order.
    pub mttr_s: Vec<f64>,
    /// (class, `queue_wait_s`) of each start event.
    pub queue_waits: Vec<(PriorityClass, f64)>,
    /// Terminal events that carried a deadline, and those that met it.
    pub deadlined: u64,
    pub deadlines_met: u64,
}

impl ServiceTally {
    fn fold(&mut self, e: &Event) {
        self.counts[e.kind as usize] += 1;
        self.mttr_s.extend(e.mttr_s);
        if let (Some(class), Some(wait)) = (e.class, e.queue_wait_s) {
            self.queue_waits.push((class, wait));
        }
        if let (Some(d), Some(latency)) = (e.deadline_s, e.latency_s) {
            self.deadlined += 1;
            self.deadlines_met += u64::from(latency <= d);
        }
    }

    /// Events of `kind` recorded so far.
    pub fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind as usize]
    }
}

/// The service's one emission point: each event is folded into the
/// tally and recorded to the sink, so the two cannot disagree.
pub(crate) struct ServiceLog {
    sink: Arc<dyn Sink<Event>>,
    tally: ServiceTally,
}

impl ServiceLog {
    pub fn new(sink: Arc<dyn Sink<Event>>) -> ServiceLog {
        ServiceLog {
            sink,
            tally: ServiceTally::default(),
        }
    }

    pub fn record(&mut self, e: Event) {
        self.tally.fold(&e);
        self.sink.record(&e);
    }

    /// The fold of every event recorded so far.
    pub fn tally(&self) -> &ServiceTally {
        &self.tally
    }

    /// Surface any deferred sink IO error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exastro_telemetry::JsonlSink;

    #[test]
    fn events_serialize_with_only_their_fields() {
        let bare = Event::new(1.5e6, 3, EventKind::NodeFail);
        let line = bare.to_json();
        assert!(line.contains("\"schema\": \"exastro.event.v1\""));
        assert!(line.contains("\"kind\": \"node_fail\""));
        assert!(
            !line.contains("latency_s"),
            "absent fields stay absent: {line}"
        );

        let full = Event {
            job: Some(JobId(7)),
            class: Some(PriorityClass::High),
            ranks: vec![0, 1],
            latency_s: Some(2.25),
            deadline_s: Some(3.0),
            detail: "say \"why\"".into(),
            ..Event::new(2e6, 4, EventKind::Complete)
        };
        let line = full.to_json();
        for key in [
            "\"job\": \"job-0007\"",
            "\"class\": \"high\"",
            "\"ranks\": [0, 1]",
            "\"latency_s\": 2.25",
            "\"deadline_s\": 3",
            "\\\"why\\\"",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn jsonl_event_sink_appends_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!("exastro-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::<Event>::create(&path).unwrap();
        sink.record(&Event::new(0.0, 1, EventKind::Admit));
        sink.record(&Event {
            job: Some(JobId(1)),
            ..Event::new(1.0, 2, EventKind::Start)
        });
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\": \"admit\""));
        assert!(lines[1].contains("\"kind\": \"start\""));
    }
}
