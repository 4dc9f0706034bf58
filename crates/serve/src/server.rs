//! The experiment server: `mds-serve`'s routes on the shared front.
//!
//! The event-driven front ([`crate::front`]) owns connections, probes,
//! shedding, drain and accounting; this module adds what only a backend
//! does. Requests that compute — `POST /v1/experiments`, `/v1/grids`,
//! `/v1/cells`, and the `/v1/cache` transfers — run on the worker pool
//! behind the bounded job queue; the listing answers inline.
//!
//! Every computed body lands in the result cache (and, with a store, in
//! the durable log), so a warm repeat skips simulation and rendering.
//!
//! Graceful shutdown (triggered by [`Server::shutdown`] or a
//! `POST /v1/shutdown` — the SIGTERM surrogate, since plain `std` has no
//! signal handling): readiness flips to `503`, the listener closes,
//! in-flight requests finish, every thread is joined, and a final
//! metrics summary goes to the structured log.

use crate::access_log::LogTarget;
use crate::front::{Front, Running, Tier, MAX_REQUESTS_PER_CONNECTION};
use crate::http::{Limits, Request, Response};
use crate::io::reactor::{self, Outcome};
use crate::metrics::{self, Gauges, Metrics};
use crate::persist;
use crate::result_cache::{ResultCache, DEFAULT_BUDGET_BYTES};
use crate::service::{cell_key, CellBatch, ExperimentRequest, Service};
use mds_bench::grid::GridRequest;
use mds_harness::json::{Json, ToJson};
use mds_runner::TraceCache;
use mds_store::{Store, StoreConfig};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tunables. `Default` is a sensible local configuration; tests
/// override the pieces they probe.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Request-executing worker threads. Zero is allowed (deferred
    /// requests are never run — useful to test queue backpressure).
    pub workers: usize,
    /// Job-queue capacity; requests deferred beyond it get `503`.
    pub queue_depth: usize,
    /// Simulation worker threads for the shared runner (`None`: from
    /// `MDS_JOBS` or available parallelism).
    pub jobs: Option<usize>,
    /// Keep-alive idle window, and the per-request body deadline.
    pub read_timeout: Duration,
    /// Total deadline for one request head, first byte to final CRLF.
    /// Distinct from `read_timeout`, which a drip-fed header would keep
    /// refreshing (slow loris); this one progress cannot reset.
    pub header_timeout: Duration,
    /// Total flush deadline for one response backlog.
    pub write_timeout: Duration,
    /// Request head/body size limits.
    pub limits: Limits,
    /// Durable result store directory (`None`: in-memory cache only).
    /// When set, the result cache is prewarmed from the store at boot
    /// and every cache fill is appended, so warm state survives
    /// restarts — including `kill -9`.
    pub store_dir: Option<PathBuf>,
    /// Access-log destination.
    pub log: LogTarget,
    /// Concurrent-connection cap; accepts beyond it are shed with `503`
    /// immediately.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            queue_depth: 64,
            jobs: None,
            read_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            store_dir: None,
            log: LogTarget::Stderr,
            max_connections: 10_000,
        }
    }
}

/// The backend tier: its state, shared by the front's threads, the
/// maintenance thread, and the handle.
struct Shared {
    config: ServerConfig,
    front: Front,
    service: Service,
    results: ResultCache,
    /// The durable result tier (`--store`); `None` keeps today's
    /// in-memory-only behavior.
    store: Option<Store>,
    /// The effective output epoch (build epoch + registered WDL
    /// fingerprints); tags stored records and the `/v1/cache` wire.
    epoch: u64,
    /// Result-cache entries replayed from the store at boot.
    prewarmed: usize,
}

/// A running server. Dropping it performs a graceful shutdown.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    running: Running,
    /// Background drain point for deferred store work (compaction);
    /// `None` when no store is attached.
    maintenance: Option<JoinHandle<()>>,
    /// Guards the final summary so Drop after `shutdown` is a no-op.
    finished: bool,
}

impl Server {
    /// Binds, starts serving, and returns immediately.
    ///
    /// # Errors
    ///
    /// Bind, store and thread-spawn failures, and any platform without
    /// `epoll` (the serving binaries are Linux-only).
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let service = Service::new(config.jobs)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("no local addr: {e}"))?;
        let front = Front::new("mds", config.log, config.queue_depth);
        // The epoch must be computed after any WDL registration (the
        // binary registers families before calling `start`), because
        // registered fingerprints are part of output identity.
        let epoch = persist::effective_epoch();
        let results = ResultCache::new(DEFAULT_BUDGET_BYTES);
        let mut prewarmed = 0usize;
        let store = match &config.store_dir {
            None => None,
            Some(dir) => {
                let store = Store::open(
                    dir,
                    StoreConfig {
                        epoch,
                        ..StoreConfig::default()
                    },
                )
                .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
                for (key, body) in store.iter() {
                    results.put(&key, body);
                    prewarmed += 1;
                }
                let r = store.recovery();
                front.log.event(
                    Json::object()
                        .field("evt", "store")
                        .field("dir", dir.display().to_string())
                        .field("epoch", epoch)
                        .field("records", store.len())
                        .field("prewarmed", prewarmed)
                        .field("stale_skipped", r.stale_skipped)
                        .field("corrupt_bytes", r.corrupt_bytes),
                );
                Some(store)
            }
        };
        let shared = Arc::new(Shared {
            front,
            results,
            store,
            epoch,
            prewarmed,
            config,
            service,
        });
        let config = &shared.config;
        let running = Running::start(
            &shared,
            listener,
            reactor::Config {
                limits: config.limits,
                max_requests: MAX_REQUESTS_PER_CONNECTION,
                read_timeout: config.read_timeout,
                header_timeout: config.header_timeout,
                write_timeout: config.write_timeout,
                max_connections: config.max_connections,
            },
            config.workers,
        )?;
        let mut server = Server {
            shared,
            local_addr,
            running,
            maintenance: None,
            finished: false,
        };
        // The maintenance thread is the drain point for deferred store
        // work: appends never compact the log inline (that would stall
        // the unlucky request), so this sweep does it off the request
        // path. (A failed spawn drops `server`, which stops serving.)
        if server.shared.store.is_some() {
            let shared = Arc::clone(&server.shared);
            let maintenance = std::thread::Builder::new()
                .name("mds-serve-maintenance".to_string())
                .spawn(move || maintenance_loop(&shared))
                .map_err(|e| format!("cannot spawn maintenance: {e}"))?;
            server.maintenance = Some(maintenance);
        }
        Ok(server)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Request-path counters (tests, final summaries).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.front.metrics
    }

    /// The result cache.
    pub fn result_cache(&self) -> &ResultCache {
        &self.shared.results
    }

    /// The shared trace cache.
    pub fn trace_cache(&self) -> &TraceCache {
        self.shared.service.trace_cache()
    }

    /// The durable result store, when configured.
    pub fn store(&self) -> Option<&Store> {
        self.shared.store.as_ref()
    }

    /// The effective output epoch this server stores and serves under.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Result-cache entries replayed from the store at boot.
    pub fn prewarmed(&self) -> usize {
        self.shared.prewarmed
    }

    /// Requests currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.front.queue_depth()
    }

    /// Buffered log lines (only with [`LogTarget::Memory`]).
    pub fn log_lines(&self) -> Vec<String> {
        self.shared.front.log.lines()
    }

    /// Blocks until a client posts `/v1/shutdown` (or [`Server::shutdown`]
    /// runs from another thread).
    pub fn wait_for_shutdown(&self) {
        self.shared.front.wait_for_shutdown(None);
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, join
    /// all threads, flush the final metrics summary.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.running.stop(&self.shared.front);
        if let Some(maintenance) = self.maintenance.take() {
            let _ = maintenance.join();
        }
        let m = &self.shared.front.metrics;
        let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
        self.shared.front.log.event(
            Json::object()
                .field("evt", "shutdown")
                .field("requests_total", load(&m.requests_total))
                .field("rejected_total", load(&m.rejected_total))
                .field("result_cache_hits", load(&m.result_cache_hits))
                .field("result_cache_misses", load(&m.result_cache_misses))
                .field(
                    "trace_emulations",
                    self.shared.service.trace_cache().misses(),
                ),
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The deferred-store-work sweep: compacts the durable log once it
/// outgrows its threshold, off the request path (appends only mark the
/// debt — see [`mds_store::Store::append`]). Wakes every 100ms, and runs
/// one final sweep after shutdown is signalled so a drained server
/// leaves a compact store behind.
fn maintenance_loop(shared: &Shared) {
    let Some(store) = &shared.store else {
        return;
    };
    let sweep = || match store.compact_if_due() {
        Ok(false) => {}
        Ok(true) => shared.front.log.event(
            Json::object()
                .field("evt", "store_compact")
                .field("snapshot_bytes", store.snapshot_bytes()),
        ),
        Err(e) => shared.front.log.event(
            Json::object()
                .field("evt", "store_compact_error")
                .field("error", e.to_string()),
        ),
    };
    while !shared
        .front
        .wait_for_shutdown(Some(Duration::from_millis(100)))
    {
        sweep();
    }
    sweep();
}

impl Tier for Shared {
    const PATHS: &'static [&'static str] =
        &["/v1/experiments", "/v1/grids", "/v1/cells", "/v1/cache"];

    fn front(&self) -> &Front {
        &self.front
    }

    /// The worker pool is for *work*: experiment execution and store
    /// writes. The listing stays on the reactor thread.
    fn defers(&self, request: &Request) -> bool {
        matches!(
            (request.method.as_str(), request.target.as_str()),
            ("POST", "/v1/experiments" | "/v1/grids" | "/v1/cells") | (_, "/v1/cache")
        )
    }

    fn route(&self, request: &Request) -> Option<Outcome> {
        let outcome = match (request.method.as_str(), request.target.as_str()) {
            ("GET", "/v1/experiments") => {
                Outcome::new(Response::json(200, Service::experiments_json()))
            }
            ("POST", "/v1/experiments") => serve_experiments(
                self,
                ExperimentRequest::from_body(&request.body).map(ExperimentRequest::into_grid),
            ),
            ("POST", "/v1/grids") => serve_experiments(self, GridRequest::from_body(&request.body)),
            ("POST", "/v1/cells") => serve_cells(self, &request.body),
            // Warm-state transfer: export (GET) / bulk-import (POST) of the
            // result cache, epoch-tagged. Intra-cluster plumbing — the
            // gateway's ring-neighbor handoff — not a public surface.
            ("GET", "/v1/cache") => Outcome::new(Response::json(
                200,
                persist::dump(self.epoch, &self.results.entries()),
            )),
            ("POST", "/v1/cache") => Outcome::new(fill_cache(self, &request.body)),
            _ => return None,
        };
        Some(outcome)
    }

    fn not_ready(&self) -> Option<&'static str> {
        None
    }

    fn render_metrics(&self, out: &mut String) {
        let trace = self.service.trace_cache();
        let store = self.store.as_ref();
        metrics::render(
            &self.front.metrics,
            Gauges {
                result_cache_entries: self.results.len(),
                result_cache_bytes: self.results.resident_bytes(),
                result_cache_evictions: self.results.evictions(),
                trace_cache_hits: trace.hits(),
                trace_cache_misses: trace.misses(),
                trace_cache_bytes: trace.resident_bytes(),
                store_records: store.map_or(0, Store::len),
                store_log_bytes: store.map_or(0, Store::log_bytes),
                store_snapshot_bytes: store.map_or(0, Store::snapshot_bytes),
                store_prewarmed: self.prewarmed,
                store_appends: store.map_or(0, Store::appends),
                store_append_errors: store.map_or(0, Store::append_errors),
                store_compactions: store.map_or(0, Store::compactions),
            },
            out,
        );
    }
}

/// A JSON `{"error": message}` answer.
fn error(status: u16, message: impl ToJson) -> Response {
    Response::json(status, Json::object().field("error", message).to_string())
}

/// `POST /v1/experiments` and `POST /v1/grids` on a backend: every
/// requested experiment served through the cached-execute core (result
/// cache read unless `fresh`, compute on miss, cache + persist the
/// fill), documents concatenated in request order. This is the
/// reference the gateway's scatter-gather response must match byte for
/// byte.
fn serve_experiments(shared: &Shared, request: Result<GridRequest, String>) -> Outcome {
    let request = match request {
        Ok(request) => request,
        Err(message) => return Outcome::new(error(400, message)),
    };
    let m = &shared.front.metrics;
    let mut out = String::new();
    let mut all_hit = true;
    for id in &request.experiments {
        let sub = ExperimentRequest {
            experiment: id.clone(),
            scale: request.scale,
            fresh: request.fresh,
        };
        let key = sub.cache_key();
        if !request.fresh {
            if let Some(cached) = shared.results.get(&key) {
                m.result_cache_hits.fetch_add(1, Ordering::Relaxed);
                out.push_str(&cached);
                continue;
            }
        }
        m.result_cache_misses.fetch_add(1, Ordering::Relaxed);
        all_hit = false;
        match shared.service.execute(&sub) {
            Ok(body) => {
                shared.results.put(&key, Arc::from(body.as_str()));
                persist_all(shared, [(key.as_str(), body.as_str())]);
                out.push_str(&body);
            }
            Err(message) => return Outcome::new(error(500, message)).cache("miss"),
        }
    }
    Outcome::new(Response::json(200, out)).cache(if all_hit { "hit" } else { "miss" })
}

/// `POST /v1/cells`: a batch of wire-encoded grid jobs — in practice one
/// trace key's cells of a gateway grid. Intra-cluster plumbing for
/// scatter-gather grid execution, not a public surface.
///
/// Each job is looked up in the result cache under [`cell_key`] (unless
/// the batch is `fresh`); the misses run as one grid on the shared
/// runner, and their outputs are cached and persisted (one store write
/// for the whole batch). The response is `{"cells": [{"id", "output"},
/// ...]}` in job order.
fn serve_cells(shared: &Shared, body: &[u8]) -> Outcome {
    let batch = match CellBatch::from_body(body) {
        Ok(batch) => batch,
        Err(message) => return Outcome::new(error(400, message)),
    };
    let keys: Vec<String> = batch.jobs.iter().map(cell_key).collect();
    let mut outputs: Vec<Option<Arc<str>>> = keys
        .iter()
        .map(|key| (!batch.fresh).then(|| shared.results.get(key)).flatten())
        .collect();
    let hits = outputs.iter().flatten().count();
    let m = &shared.front.metrics;
    m.result_cache_hits
        .fetch_add(hits as u64, Ordering::Relaxed);
    m.result_cache_misses
        .fetch_add((keys.len() - hits) as u64, Ordering::Relaxed);

    // The misses run as one grid; a job repeated in the batch simply
    // runs twice, to the same bytes.
    let missing: Vec<usize> = (0..keys.len()).filter(|&i| outputs[i].is_none()).collect();
    if !missing.is_empty() {
        let jobs = missing.iter().map(|&i| batch.jobs[i].clone()).collect();
        let fills = match shared.service.execute_jobs(jobs) {
            Ok(fills) => fills,
            Err(message) => return Outcome::new(error(500, message)).cache("miss"),
        };
        for (&i, output) in missing.iter().zip(fills) {
            let output: Arc<str> = Arc::from(output);
            shared.results.put(&keys[i], Arc::clone(&output));
            outputs[i] = Some(output);
        }
        persist_all(
            shared,
            missing
                .iter()
                .map(|&i| (keys[i].as_str(), outputs[i].as_deref().expect("filled"))),
        );
    }

    let mut out = String::from(r#"{"cells":["#);
    for (i, (job, output)) in batch.jobs.iter().zip(&outputs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let output = output.as_deref().expect("every job answered");
        out.push_str(&format!(
            r#"{{"id":{},"output":{output}}}"#,
            Json::from(job.id.as_str())
        ));
    }
    out.push_str("]}");
    Outcome::new(Response::json(200, out)).cache(if missing.is_empty() { "hit" } else { "miss" })
}

/// Appends freshly computed (or imported) bodies to the durable store,
/// if one is attached, with one write and one fsync for the lot.
/// Deduplicated against the stored values: recomputes of an
/// already-persisted key (`fresh:true` benchmarking, handoff replays)
/// must not grow the log or pay an fsync per request. Append failures
/// are logged and counted but never fail the response — losing
/// durability is strictly better than losing the request.
fn persist_all<'a>(shared: &Shared, entries: impl IntoIterator<Item = (&'a str, &'a str)>) {
    let Some(store) = &shared.store else {
        return;
    };
    let changed: Vec<(&str, &str)> = entries
        .into_iter()
        .filter(|(key, body)| store.get(key).as_deref() != Some(*body))
        .collect();
    if changed.is_empty() {
        return;
    }
    if let Err(e) = store.append_all(&changed) {
        shared.front.log.event(
            Json::object()
                .field("evt", "store_append_error")
                .field("keys", changed.len() as u64)
                .field("error", e.to_string()),
        );
    }
}

/// `POST /v1/cache`: bulk-imports entries into the result cache (and the
/// store, when attached). An epoch mismatch is a `409` — a peer from a
/// different build (or with different WDL registrations) must never
/// launder its bytes into this process's cache.
fn fill_cache(shared: &Shared, body: &[u8]) -> Response {
    let (epoch, entries) = match persist::parse(body) {
        Ok(parsed) => parsed,
        Err(message) => return error(400, message),
    };
    if epoch != shared.epoch {
        return error(
            409,
            format!("epoch mismatch: ours {}, offered {epoch}", shared.epoch),
        );
    }
    let accepted = entries.len();
    for (key, value) in &entries {
        shared.results.put(key, Arc::from(value.as_str()));
    }
    persist_all(
        shared,
        entries.iter().map(|(k, v)| (k.as_str(), v.as_str())),
    );
    Response::json(
        200,
        Json::object()
            .field("accepted", accepted as u64)
            .to_string(),
    )
}
