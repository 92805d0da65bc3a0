//! Record sinks: where a stream of records goes, whatever the record is.
//!
//! The drivers append one [`StepMetrics`](crate::StepMetrics) per accepted
//! step and the job service one event per scheduling decision; both go
//! through a [`Sink`] of their record type, so a consumer picks memory, a
//! JSONL file, several at once, or nothing, and the producer never knows.
//!
//! Recording must never fail a run: `record` returns nothing, a file-backed
//! sink remembers its *first* I/O error, and [`Sink::flush`] reports it.

use std::fs::File;
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// No sink method can panic while it holds a lock, so none is ever poisoned.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("sink lock poisoned")
}

/// Destination for records of type `T`. Implementations are internally
/// synchronized (`&self`), so one sink can be shared behind an `Arc`.
pub trait Sink<T>: Send + Sync {
    /// Append one record.
    fn record(&self, item: &T);
    /// Report any I/O error met so far. Default: nothing can fail.
    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a [`JsonlSink`] needs of a record: its JSON object on one line.
pub trait JsonLine {
    /// The record as one JSON object, no trailing newline.
    fn json_line(&self) -> String;
}

/// Keeps every record in memory, in order (tests, reconciliation, the
/// service's per-job aggregation).
pub struct MemorySink<T> {
    items: Mutex<Vec<T>>,
}

impl<T> Default for MemorySink<T> {
    fn default() -> Self {
        MemorySink {
            items: Mutex::new(Vec::new()),
        }
    }
}

impl<T: Clone> MemorySink<T> {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every record so far.
    pub fn snapshot(&self) -> Vec<T> {
        locked(&self.items).clone()
    }
}

impl<T: Clone + Send> Sink<T> for MemorySink<T> {
    fn record(&self, item: &T) {
        locked(&self.items).push(item.clone());
    }
}

/// Appends records as JSON Lines to a file: one `write` per record, line
/// and newline together, so a killed run leaves whole, parseable lines.
///
/// The first I/O error is sticky: later records are still attempted, and
/// every [`Sink::flush`] from then on returns that error, prefixed with
/// the file's path.
pub struct JsonlSink<T> {
    file: Mutex<File>,
    path: PathBuf,
    error: Mutex<Option<String>>,
    record: PhantomData<fn(&T)>,
}

impl<T> JsonlSink<T> {
    /// Create (truncate) `path` and stream records to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        Ok(JsonlSink {
            file: Mutex::new(File::create(&path)?),
            path,
            error: Mutex::new(None),
            record: PhantomData,
        })
    }
}

impl<T: JsonLine> Sink<T> for JsonlSink<T> {
    fn record(&self, item: &T) {
        let line = item.json_line() + "\n";
        if let Err(e) = locked(&self.file).write_all(line.as_bytes()) {
            locked(&self.error).get_or_insert_with(|| format!("{}: {e}", self.path.display()));
        }
    }

    fn flush(&self) -> std::io::Result<()> {
        match locked(&self.error).clone() {
            Some(msg) => Err(std::io::Error::other(msg)),
            None => Ok(()),
        }
    }
}

/// Fans every record out to several sinks — a per-job JSONL stream for
/// operators *and* the in-memory sink the service aggregates from — without
/// the producer knowing there is more than one consumer.
pub struct MultiSink<T> {
    sinks: Vec<Arc<dyn Sink<T>>>,
}

impl<T> MultiSink<T> {
    /// A fan-out over `sinks` (empty is allowed and records nothing).
    pub fn new(sinks: Vec<Arc<dyn Sink<T>>>) -> Self {
        MultiSink { sinks }
    }
}

impl<T> Sink<T> for MultiSink<T> {
    fn record(&self, item: &T) {
        for s in &self.sinks {
            s.record(item);
        }
    }

    /// Flushes every member, even after one fails, and reports every
    /// member's error.
    fn flush(&self) -> std::io::Result<()> {
        let errors: Vec<String> = self
            .sinks
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.flush().err().map(|e| format!("sink {i}: {e}")))
            .collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(std::io::Error::other(errors.join("; ")))
        }
    }
}

/// Discards everything (the explicit "off" sink).
#[derive(Default, Clone, Copy)]
pub struct NullSink;

impl<T> Sink<T> for NullSink {
    fn record(&self, _item: &T) {}
}
