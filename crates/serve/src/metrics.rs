//! Lock-free serving metrics and their Prometheus text rendering.
//!
//! Everything on the request path is an atomic counter or a fixed-bucket
//! histogram, so recording never blocks a worker. `GET /metrics` renders
//! the exposition-format text (version 0.0.4) from a point-in-time
//! snapshot that also folds in gauges owned elsewhere (queue depth, cache
//! residency).

use std::sync::atomic::{AtomicU64, Ordering};

// The histogram lives in the harness so the cluster gateway and benches
// record latency the same way; re-exported here for existing users.
pub use mds_harness::stats::{Histogram, BUCKET_BOUNDS_US};

/// All request-path counters.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections the acceptor accepted.
    pub connections_total: AtomicU64,
    /// Connections shed at admission (503 + `Retry-After`).
    pub rejected_total: AtomicU64,
    /// Requests fully parsed and dispatched.
    pub requests_total: AtomicU64,
    /// Responses with 2xx status.
    pub responses_2xx: AtomicU64,
    /// Responses with 4xx status.
    pub responses_4xx: AtomicU64,
    /// Responses with 5xx status.
    pub responses_5xx: AtomicU64,
    /// Experiments and grid cells answered from the result cache.
    pub result_cache_hits: AtomicU64,
    /// Experiments and grid cells that had to compute.
    pub result_cache_misses: AtomicU64,
    /// Time connections spent in the admission queue.
    pub queue_wait: Histogram,
    /// Time spent computing (or fetching) an experiment response.
    pub compute: Histogram,
}

impl Metrics {
    /// Counts a response by status class.
    pub fn count_response(&self, status: u16) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => &self.responses_2xx,
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        };
        class.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time gauges owned outside [`Metrics`], folded into the
/// rendered exposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Connections currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Result-cache entries resident.
    pub result_cache_entries: usize,
    /// Result-cache bytes resident.
    pub result_cache_bytes: usize,
    /// Result-cache evictions so far.
    pub result_cache_evictions: u64,
    /// Trace-cache hits (simulations that reused an emulated trace).
    pub trace_cache_hits: u64,
    /// Trace-cache misses (emulations performed).
    pub trace_cache_misses: u64,
    /// Trace bytes currently resident in the shared trace cache.
    pub trace_cache_bytes: usize,
    /// Live records in the durable store (0 when no store is attached).
    pub store_records: usize,
    /// Bytes in the store's append-only log.
    pub store_log_bytes: u64,
    /// Bytes in the store's compacted snapshot.
    pub store_snapshot_bytes: u64,
    /// Result-cache entries prewarmed from the store at boot.
    pub store_prewarmed: usize,
    /// Successful store appends since boot.
    pub store_appends: u64,
    /// Failed store appends since boot (served fine, not persisted).
    pub store_append_errors: u64,
    /// Store compactions since boot.
    pub store_compactions: u64,
    /// Fds registered with the event poller (0 under `--io threads`).
    pub io_registered_fds: u64,
    /// Readiness events delivered by the most recent poll.
    pub io_ready_depth: u64,
    /// Connection deadlines fired by the reactor's timer wheel.
    pub io_timer_fires: u64,
}

/// Appends one Prometheus counter family (`# HELP` / `# TYPE` / sample)
/// to `out`. Public so the cluster gateway renders the same exposition.
pub fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

/// Appends one Prometheus gauge family to `out`.
pub fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

/// Renders the full Prometheus exposition text.
pub fn render(m: &Metrics, g: Gauges) -> String {
    let mut out = String::with_capacity(2048);
    let c = |v: &AtomicU64| v.load(Ordering::Relaxed);
    counter(
        &mut out,
        "mds_connections_total",
        "Connections accepted.",
        c(&m.connections_total),
    );
    counter(
        &mut out,
        "mds_rejected_total",
        "Connections shed at admission with 503 + Retry-After.",
        c(&m.rejected_total),
    );
    counter(
        &mut out,
        "mds_requests_total",
        "Requests dispatched.",
        c(&m.requests_total),
    );
    counter(
        &mut out,
        "mds_responses_2xx_total",
        "Responses with 2xx status.",
        c(&m.responses_2xx),
    );
    counter(
        &mut out,
        "mds_responses_4xx_total",
        "Responses with 4xx status.",
        c(&m.responses_4xx),
    );
    counter(
        &mut out,
        "mds_responses_5xx_total",
        "Responses with 5xx status.",
        c(&m.responses_5xx),
    );
    counter(
        &mut out,
        "mds_result_cache_hits_total",
        "Experiments and grid cells answered from the result cache.",
        c(&m.result_cache_hits),
    );
    counter(
        &mut out,
        "mds_result_cache_misses_total",
        "Experiments and grid cells that computed.",
        c(&m.result_cache_misses),
    );
    counter(
        &mut out,
        "mds_result_cache_evictions_total",
        "Result-cache entries evicted for the byte budget.",
        g.result_cache_evictions,
    );
    gauge(
        &mut out,
        "mds_queue_depth",
        "Connections waiting in the admission queue.",
        g.queue_depth as u64,
    );
    gauge(
        &mut out,
        "mds_result_cache_entries",
        "Result-cache entries resident.",
        g.result_cache_entries as u64,
    );
    gauge(
        &mut out,
        "mds_result_cache_bytes",
        "Result-cache bytes resident.",
        g.result_cache_bytes as u64,
    );
    counter(
        &mut out,
        "mds_trace_cache_hits_total",
        "Simulations that reused an already-emulated trace.",
        g.trace_cache_hits,
    );
    counter(
        &mut out,
        "mds_trace_cache_misses_total",
        "Workload emulations performed.",
        g.trace_cache_misses,
    );
    gauge(
        &mut out,
        "mds_trace_cache_bytes",
        "Trace bytes resident in the shared trace cache.",
        g.trace_cache_bytes as u64,
    );
    gauge(
        &mut out,
        "mds_store_records",
        "Live records in the durable result store.",
        g.store_records as u64,
    );
    gauge(
        &mut out,
        "mds_store_log_bytes",
        "Bytes in the durable store's append-only log.",
        g.store_log_bytes,
    );
    gauge(
        &mut out,
        "mds_store_snapshot_bytes",
        "Bytes in the durable store's compacted snapshot.",
        g.store_snapshot_bytes,
    );
    gauge(
        &mut out,
        "mds_store_prewarmed_keys",
        "Result-cache entries prewarmed from the durable store at boot.",
        g.store_prewarmed as u64,
    );
    counter(
        &mut out,
        "mds_store_appends_total",
        "Records appended to the durable store.",
        g.store_appends,
    );
    counter(
        &mut out,
        "mds_store_append_errors_total",
        "Store appends that failed (responses served, not persisted).",
        g.store_append_errors,
    );
    counter(
        &mut out,
        "mds_store_compactions_total",
        "Durable-store compactions (snapshot rewrite + log truncate).",
        g.store_compactions,
    );
    gauge(
        &mut out,
        "mds_io_registered_fds",
        "Fds registered with the event poller (0 under --io threads).",
        g.io_registered_fds,
    );
    gauge(
        &mut out,
        "mds_io_ready_queue_depth",
        "Readiness events delivered by the most recent poll.",
        g.io_ready_depth,
    );
    counter(
        &mut out,
        "mds_io_timer_fires_total",
        "Connection deadlines fired by the reactor's timer wheel.",
        g.io_timer_fires,
    );
    m.queue_wait.render_prometheus(
        "mds_queue_wait_microseconds",
        "Time connections spent queued before a worker picked them up.",
        &mut out,
    );
    m.compute.render_prometheus(
        "mds_compute_microseconds",
        "Time spent producing an experiment response (compute or cache fetch).",
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_exposes_every_required_family() {
        let m = Metrics::default();
        m.count_response(200);
        m.count_response(404);
        m.count_response(503);
        let text = render(
            &m,
            Gauges {
                queue_depth: 3,
                trace_cache_misses: 5,
                store_records: 7,
                store_prewarmed: 2,
                ..Default::default()
            },
        );
        for family in [
            "mds_requests_total 3",
            "mds_responses_2xx_total 1",
            "mds_responses_4xx_total 1",
            "mds_responses_5xx_total 1",
            "mds_queue_depth 3",
            "mds_trace_cache_misses_total 5",
            "mds_store_records 7",
            "mds_store_prewarmed_keys 2",
            "mds_store_appends_total 0",
            "mds_io_registered_fds 0",
            "mds_io_ready_queue_depth 0",
            "mds_io_timer_fires_total 0",
            "mds_queue_wait_microseconds_count 0",
            "mds_compute_microseconds_count 0",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
