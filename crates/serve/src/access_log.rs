//! The structured access log: one JSON line per request.
//!
//! Lines are built with the harness `Json` writer, so field escaping and
//! ordering are exactly the workspace's canonical serialization. Tests
//! and benchmarks use the discarding sink; the binary logs to stderr so
//! stdout stays clean for piping.

use mds_harness::json::Json;
use std::io::Write;
use std::sync::{Mutex, MutexGuard, PoisonError};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What one request did, for the log line.
#[derive(Debug, Clone)]
pub struct AccessRecord {
    /// Request method.
    pub method: String,
    /// Request target (path).
    pub target: String,
    /// Response status.
    pub status: u16,
    /// Microseconds the request waited in the job queue before a worker
    /// picked it up (0 for requests answered on the reactor thread).
    pub queue_wait_us: u64,
    /// Microseconds spent producing the response.
    pub compute_us: u64,
    /// Result-cache disposition: `"hit"`, `"miss"`, or `"-"` for routes
    /// without a cache.
    pub cache: &'static str,
    /// Response body bytes.
    pub bytes: usize,
}

impl AccessRecord {
    /// The JSON line for this record (no trailing newline).
    pub fn line(&self) -> String {
        Json::object()
            .field("evt", "request")
            .field("method", self.method.as_str())
            .field("target", self.target.as_str())
            .field("status", self.status as u64)
            .field("queue_wait_us", self.queue_wait_us)
            .field("compute_us", self.compute_us)
            .field("cache", self.cache)
            .field("bytes", self.bytes)
            .to_string()
    }
}

enum Sink {
    Stderr,
    Discard,
    Memory(Vec<String>),
}

/// Where the structured log goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogTarget {
    /// JSON lines to stderr (production).
    Stderr,
    /// Nowhere (benchmarks, `--quiet`).
    Discard,
    /// An in-memory buffer (tests).
    Memory,
}

/// A thread-safe structured log writer.
pub struct AccessLog {
    sink: Mutex<Sink>,
}

impl AccessLog {
    /// A log writing to `target`.
    pub fn new(target: LogTarget) -> AccessLog {
        let sink = match target {
            LogTarget::Stderr => Sink::Stderr,
            LogTarget::Discard => Sink::Discard,
            LogTarget::Memory => Sink::Memory(Vec::new()),
        };
        AccessLog {
            sink: Mutex::new(sink),
        }
    }

    /// Writes one request record.
    pub fn record(&self, rec: &AccessRecord) {
        self.write_line(rec.line());
    }

    /// Writes one non-request event line (startup, shutdown, rejection).
    pub fn event(&self, doc: Json) {
        self.write_line(doc.to_string());
    }

    fn write_line(&self, line: String) {
        let mut sink = lock(&self.sink);
        match &mut *sink {
            Sink::Stderr => {
                let _ = writeln!(std::io::stderr(), "{line}");
            }
            Sink::Discard => {}
            Sink::Memory(lines) => lines.push(line),
        }
    }

    /// The buffered lines of a [`LogTarget::Memory`] log.
    pub fn lines(&self) -> Vec<String> {
        match &*lock(&self.sink) {
            Sink::Memory(lines) => lines.clone(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_valid_json_with_every_field() {
        let log = AccessLog::new(LogTarget::Memory);
        log.record(&AccessRecord {
            method: "POST".into(),
            target: "/v1/experiments".into(),
            status: 200,
            queue_wait_us: 42,
            compute_us: 1234,
            cache: "miss",
            bytes: 99,
        });
        log.event(Json::object().field("evt", "shutdown"));
        let lines = log.lines();
        assert_eq!(lines.len(), 2);
        let parsed = Json::parse(&lines[0]).unwrap();
        assert_eq!(parsed.get("evt").unwrap().as_str(), Some("request"));
        assert_eq!(parsed.get("status").unwrap().as_u64(), Some(200));
        assert_eq!(parsed.get("queue_wait_us").unwrap().as_u64(), Some(42));
        assert_eq!(parsed.get("cache").unwrap().as_str(), Some("miss"));
        assert_eq!(
            Json::parse(&lines[1]).unwrap().get("evt").unwrap().as_str(),
            Some("shutdown")
        );
    }
}
