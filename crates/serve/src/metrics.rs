//! Lock-free serving metrics and their Prometheus text rendering.
//!
//! Everything on the request path is an atomic counter or a fixed-bucket
//! histogram, so recording never blocks a worker. `GET /metrics` renders
//! the exposition-format text (version 0.0.4) in two parts: the families
//! every tier keeps ([`render_front`], under the tier's prefix), then the
//! tier's own ([`render`] for `mds-serve`), folding in gauges owned
//! elsewhere (cache residency, the durable store).

use crate::io::reactor::IoStats;
use std::sync::atomic::{AtomicU64, Ordering};

// The histogram lives in the harness so the cluster gateway and benches
// record latency the same way; re-exported here for existing users.
pub use mds_harness::stats::{Histogram, BUCKET_BOUNDS_US};

/// The request-path counters of one serving front.
///
/// The connection, shed, request and response counters are rendered for
/// both tiers ([`render_front`]); the result-cache counters and the two
/// histograms are `mds-serve`'s own families ([`render`]), which the
/// gateway, keeping no result cache, leaves unrendered.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections the reactor accepted.
    pub connections_total: AtomicU64,
    /// Requests and connections shed with `503` + `Retry-After`.
    pub rejected_total: AtomicU64,
    /// Responses sent, error answers included.
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
    /// Time requests spent in the job queue.
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

/// Point-in-time `mds-serve` gauges owned outside [`Metrics`], folded
/// into the rendered exposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
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

/// Appends the families every serving tier keeps: connections, sheds,
/// requests and responses under `prefix` (`mds`, `mds_gateway`), the
/// job-queue depth, and the reactor's `mds_io_*` gauges.
pub fn render_front(prefix: &str, m: &Metrics, queue_depth: usize, io: &IoStats, out: &mut String) {
    let c = |v: &AtomicU64| v.load(Ordering::Relaxed);
    let name = |family: &str| format!("{prefix}_{family}");
    counter(
        out,
        &name("connections_total"),
        "Connections accepted.",
        c(&m.connections_total),
    );
    counter(
        out,
        &name("rejected_total"),
        "Requests and connections shed with 503 + Retry-After.",
        c(&m.rejected_total),
    );
    counter(
        out,
        &name("requests_total"),
        "Responses sent, error answers included.",
        c(&m.requests_total),
    );
    counter(
        out,
        &name("responses_2xx_total"),
        "Responses with 2xx status.",
        c(&m.responses_2xx),
    );
    counter(
        out,
        &name("responses_4xx_total"),
        "Responses with 4xx status.",
        c(&m.responses_4xx),
    );
    counter(
        out,
        &name("responses_5xx_total"),
        "Responses with 5xx status.",
        c(&m.responses_5xx),
    );
    gauge(
        out,
        &name("queue_depth"),
        "Requests waiting in the job queue for a worker.",
        queue_depth as u64,
    );
    gauge(
        out,
        "mds_io_registered_fds",
        "Fds registered with the event poller.",
        c(&io.registered_fds),
    );
    gauge(
        out,
        "mds_io_ready_queue_depth",
        "Readiness events delivered by the most recent poll.",
        c(&io.ready_depth),
    );
    counter(
        out,
        "mds_io_timer_fires_total",
        "Connection deadlines fired by the reactor's timer wheel.",
        c(&io.timer_fires),
    );
}

/// Appends `mds-serve`'s own families: result and trace caches, the
/// durable store, and the queue-wait and compute histograms.
pub fn render(m: &Metrics, g: Gauges, out: &mut String) {
    let c = |v: &AtomicU64| v.load(Ordering::Relaxed);
    counter(
        out,
        "mds_result_cache_hits_total",
        "Experiments and grid cells answered from the result cache.",
        c(&m.result_cache_hits),
    );
    counter(
        out,
        "mds_result_cache_misses_total",
        "Experiments and grid cells that computed.",
        c(&m.result_cache_misses),
    );
    counter(
        out,
        "mds_result_cache_evictions_total",
        "Result-cache entries evicted for the byte budget.",
        g.result_cache_evictions,
    );
    gauge(
        out,
        "mds_result_cache_entries",
        "Result-cache entries resident.",
        g.result_cache_entries as u64,
    );
    gauge(
        out,
        "mds_result_cache_bytes",
        "Result-cache bytes resident.",
        g.result_cache_bytes as u64,
    );
    counter(
        out,
        "mds_trace_cache_hits_total",
        "Simulations that reused an already-emulated trace.",
        g.trace_cache_hits,
    );
    counter(
        out,
        "mds_trace_cache_misses_total",
        "Workload emulations performed.",
        g.trace_cache_misses,
    );
    gauge(
        out,
        "mds_trace_cache_bytes",
        "Trace bytes resident in the shared trace cache.",
        g.trace_cache_bytes as u64,
    );
    gauge(
        out,
        "mds_store_records",
        "Live records in the durable result store.",
        g.store_records as u64,
    );
    gauge(
        out,
        "mds_store_log_bytes",
        "Bytes in the durable store's append-only log.",
        g.store_log_bytes,
    );
    gauge(
        out,
        "mds_store_snapshot_bytes",
        "Bytes in the durable store's compacted snapshot.",
        g.store_snapshot_bytes,
    );
    gauge(
        out,
        "mds_store_prewarmed_keys",
        "Result-cache entries prewarmed from the durable store at boot.",
        g.store_prewarmed as u64,
    );
    counter(
        out,
        "mds_store_appends_total",
        "Records appended to the durable store.",
        g.store_appends,
    );
    counter(
        out,
        "mds_store_append_errors_total",
        "Store appends that failed (responses served, not persisted).",
        g.store_append_errors,
    );
    counter(
        out,
        "mds_store_compactions_total",
        "Durable-store compactions (snapshot rewrite + log truncate).",
        g.store_compactions,
    );
    m.queue_wait.render_prometheus(
        "mds_queue_wait_microseconds",
        "Time requests spent queued before a worker picked them up.",
        out,
    );
    m.compute.render_prometheus(
        "mds_compute_microseconds",
        "Time spent producing a response (compute or cache fetch).",
        out,
    );
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
        let mut text = String::new();
        render_front("mds", &m, 3, &IoStats::default(), &mut text);
        render(
            &m,
            Gauges {
                trace_cache_misses: 5,
                store_records: 7,
                store_prewarmed: 2,
                ..Default::default()
            },
            &mut text,
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
