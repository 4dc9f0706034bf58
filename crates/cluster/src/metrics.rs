//! Gateway metrics: cluster-wide counters plus labeled per-backend and
//! per-route families, rendered in the same Prometheus text exposition
//! (version 0.0.4) as the backends' own `/metrics`. The connection,
//! shed, request and response families both tiers keep are rendered by
//! the shared front as `mds_gateway_*`
//! ([`mds_serve::metrics::render_front`]).

use crate::backend::Backend;
use mds_harness::stats::Histogram;
use mds_serve::metrics::{counter, gauge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-wide gateway counters (per-backend counters live on each
/// [`Backend`]).
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// Cell batches dispatched upstream, each entering the failover path
    /// once. The retry budget allows a fifth of this, plus the burst.
    pub proxied_total: AtomicU64,
    /// Retry-budget units consumed (one per failover attempt): the
    /// budget's numerator.
    pub retries_total: AtomicU64,
    /// Failover attempts to a different backend after a failure or shed.
    pub failovers_total: AtomicU64,
    /// Cell batches that exhausted every candidate backend (their cells
    /// were computed on the gateway instead).
    pub unavailable_total: AtomicU64,
    /// Valid `POST /v1/grids` and `POST /v1/experiments` requests (the
    /// latter are one-experiment grids): merged-cache hits plus
    /// scatter-gathers.
    pub grids_total: AtomicU64,
    /// Grids (experiments included) answered from the merged-document
    /// cache.
    pub grid_cache_hits_total: AtomicU64,
    /// Grids that scattered instead: not cached yet, evicted, or `fresh`.
    pub grid_cache_misses_total: AtomicU64,
    /// Grid cells dispatched upstream (across all grids; a batch counts
    /// each of its cells).
    pub grid_cells_total: AtomicU64,
    /// Grid cells whose outputs never arrived (exhausted failover or a
    /// malformed backend response) and were recomputed locally instead.
    pub grid_cell_failures_total: AtomicU64,
    /// Warm-cache handoffs performed for recovered/replaced backends.
    pub handoffs_total: AtomicU64,
    /// Warm entries streamed to recovering backends across all handoffs.
    pub handoff_keys_total: AtomicU64,
    /// Handoff transfer errors (failed dump, refused fill, epoch skew).
    pub handoff_errors_total: AtomicU64,
    /// Gateway-side latency of each dispatched cell batch, failover
    /// included.
    pub proxy_latency: Histogram,
    /// Per-attempt upstream exchange latency (all backends pooled; the
    /// per-backend split lives in each backend's stats).
    pub upstream_latency: Histogram,
    /// Per-route request counters.
    pub routes: RouteCounters,
}

/// The routes [`RouteCounters`] counts, in exposition order. Anything
/// else (404s, wrong methods) counts as `other`. `POST /v1/experiments`
/// is a one-experiment grid; `GET /v1/experiments`, the listing, is
/// answered at the gateway.
const ROUTES: [(&str, &str); 8] = [
    ("POST", "/v1/experiments"),
    ("POST", "/v1/grids"),
    ("GET", "/v1/experiments"),
    ("GET", "/healthz"),
    ("GET", "/readyz"),
    ("GET", "/metrics"),
    ("GET", "/v1/cluster"),
    ("POST", "/v1/shutdown"),
];

/// Requests per route, labeled `route="METHOD /path"` in the exposition.
#[derive(Debug, Default)]
pub struct RouteCounters {
    /// One counter per [`ROUTES`] entry, then `other`.
    counts: [AtomicU64; ROUTES.len() + 1],
}

impl RouteCounters {
    /// Counts one request against its route bucket.
    pub fn count(&self, method: &str, target: &str) {
        let slot = ROUTES
            .iter()
            .position(|&route| route == (method, target))
            .unwrap_or(ROUTES.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
    }

    fn samples(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        let labels = ROUTES
            .iter()
            .map(|(method, path)| format!("{method} {path}"));
        labels
            .chain(["other".to_string()])
            .zip(self.counts.iter().map(|n| n.load(Ordering::Relaxed)))
    }
}

/// Appends one labeled family: `# HELP`/`# TYPE` once, then one sample
/// per `(label value, count)` pair.
fn labeled(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    label: &str,
    samples: impl Iterator<Item = (String, u64)>,
) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (value, count) in samples {
        out.push_str(&format!("{name}{{{label}=\"{value}\"}} {count}\n"));
    }
}

/// Appends the gateway's own families.
pub fn render(m: &GatewayMetrics, backends: &[Arc<Backend>], out: &mut String) {
    let c = |v: &AtomicU64| v.load(Ordering::Relaxed);
    counter(
        out,
        "mds_gateway_proxied_total",
        "Cell batches dispatched upstream through the failover path.",
        c(&m.proxied_total),
    );
    counter(
        out,
        "mds_gateway_retries_total",
        "Retry-budget units consumed (one per failover attempt).",
        c(&m.retries_total),
    );
    counter(
        out,
        "mds_gateway_failovers_total",
        "Failover attempts to another backend.",
        c(&m.failovers_total),
    );
    counter(
        out,
        "mds_gateway_unavailable_total",
        "Cell batches that exhausted every candidate backend.",
        c(&m.unavailable_total),
    );
    counter(
        out,
        "mds_gateway_grids_total",
        "Valid grid and experiment requests: merged-cache hits plus scatter-gathers.",
        c(&m.grids_total),
    );
    counter(
        out,
        "mds_gateway_grid_cache_hits_total",
        "Grids answered from the merged-document cache.",
        c(&m.grid_cache_hits_total),
    );
    counter(
        out,
        "mds_gateway_grid_cache_misses_total",
        "Grids scattered because the merged document was not cached or fresh was set.",
        c(&m.grid_cache_misses_total),
    );
    counter(
        out,
        "mds_gateway_grid_cells_total",
        "Grid cells dispatched upstream.",
        c(&m.grid_cells_total),
    );
    counter(
        out,
        "mds_gateway_grid_cell_failures_total",
        "Grid cells recomputed locally after exhausting failover.",
        c(&m.grid_cell_failures_total),
    );
    counter(
        out,
        "mds_gateway_handoffs_total",
        "Warm-cache handoffs performed for recovered backends.",
        c(&m.handoffs_total),
    );
    counter(
        out,
        "mds_gateway_handoff_keys_total",
        "Warm entries streamed to recovering backends.",
        c(&m.handoff_keys_total),
    );
    counter(
        out,
        "mds_gateway_handoff_errors_total",
        "Handoff transfer errors (failed dump, refused fill, epoch skew).",
        c(&m.handoff_errors_total),
    );
    gauge(
        out,
        "mds_gateway_backends",
        "Backends configured on the ring.",
        backends.len() as u64,
    );
    labeled(
        out,
        "mds_gateway_route_requests_total",
        "Requests per route.",
        "counter",
        "route",
        m.routes.samples(),
    );
    let per_backend = |field: fn(&BackendStatsView) -> u64| {
        backends
            .iter()
            .map(move |b| {
                (
                    b.addr.clone(),
                    field(&BackendStatsView {
                        attempts: b.stats.attempts.load(Ordering::Relaxed),
                        failures: b.stats.failures.load(Ordering::Relaxed),
                        sheds: b.stats.sheds.load(Ordering::Relaxed),
                        healthy: b.is_healthy() as u64,
                        breaker: b.with_breaker(|br| br.state().as_gauge()),
                        opens: b.with_breaker(|br| br.opens()),
                    }),
                )
            })
            .collect::<Vec<_>>()
    };
    labeled(
        out,
        "mds_gateway_backend_attempts_total",
        "Upstream batch attempts per backend.",
        "counter",
        "backend",
        per_backend(|v| v.attempts).into_iter(),
    );
    labeled(
        out,
        "mds_gateway_backend_failures_total",
        "Transport failures per backend.",
        "counter",
        "backend",
        per_backend(|v| v.failures).into_iter(),
    );
    labeled(
        out,
        "mds_gateway_backend_sheds_total",
        "503 answers per backend.",
        "counter",
        "backend",
        per_backend(|v| v.sheds).into_iter(),
    );
    labeled(
        out,
        "mds_gateway_backend_breaker_opens_total",
        "Circuit-breaker trips per backend.",
        "counter",
        "backend",
        per_backend(|v| v.opens).into_iter(),
    );
    labeled(
        out,
        "mds_gateway_backend_healthy",
        "Last readiness-probe verdict per backend (1 healthy).",
        "gauge",
        "backend",
        per_backend(|v| v.healthy).into_iter(),
    );
    labeled(
        out,
        "mds_gateway_backend_breaker_state",
        "Breaker state per backend (0 closed, 1 half-open, 2 open).",
        "gauge",
        "backend",
        per_backend(|v| v.breaker).into_iter(),
    );
    m.proxy_latency.render_prometheus(
        "mds_gateway_proxy_microseconds",
        "Gateway-side latency of each dispatched cell batch.",
        out,
    );
    m.upstream_latency.render_prometheus(
        "mds_gateway_upstream_microseconds",
        "Latency of individual upstream attempts.",
        out,
    );
}

/// Point-in-time snapshot of one backend's counters, for rendering.
struct BackendStatsView {
    attempts: u64,
    failures: u64,
    sheds: u64,
    healthy: u64,
    breaker: u64,
    opens: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_labeled_backend_and_route_families() {
        let m = GatewayMetrics::default();
        let front = mds_serve::Metrics::default();
        front.count_response(200);
        m.routes.count("POST", "/v1/experiments");
        m.routes.count("GET", "/nope");
        let backends = vec![
            Arc::new(Backend::new("127.0.0.1:9001".to_string(), 1)),
            Arc::new(Backend::new("127.0.0.1:9002".to_string(), 2)),
        ];
        backends[1].stats.attempts.fetch_add(7, Ordering::Relaxed);
        backends[1].set_healthy(false);
        let io = mds_serve::io::reactor::IoStats::default();
        io.registered_fds.store(12, Ordering::Relaxed);
        io.ready_depth.store(4, Ordering::Relaxed);
        io.timer_fires.store(9, Ordering::Relaxed);
        let mut text = String::new();
        mds_serve::metrics::render_front("mds_gateway", &front, 3, &io, &mut text);
        render(&m, &backends, &mut text);
        for needle in [
            "mds_gateway_requests_total 1",
            "mds_gateway_responses_2xx_total 1",
            "mds_gateway_queue_depth 3",
            "mds_gateway_backends 2",
            "mds_io_registered_fds 12",
            "mds_io_ready_queue_depth 4",
            "mds_io_timer_fires_total 9",
            "mds_gateway_route_requests_total{route=\"POST /v1/experiments\"} 1",
            "mds_gateway_route_requests_total{route=\"other\"} 1",
            "mds_gateway_backend_attempts_total{backend=\"127.0.0.1:9002\"} 7",
            "mds_gateway_backend_healthy{backend=\"127.0.0.1:9001\"} 1",
            "mds_gateway_backend_healthy{backend=\"127.0.0.1:9002\"} 0",
            "mds_gateway_backend_breaker_state{backend=\"127.0.0.1:9001\"} 0",
            "mds_gateway_proxy_microseconds_count 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
