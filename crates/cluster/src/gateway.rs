//! The failover gateway: an HTTP front door over N `mds-serve` backends.
//!
//! The gateway is the same kind of server as a backend, with a
//! scatter-gather engine where the simulation engine would be: it runs
//! on `mds-serve`'s shared front ([`mds_serve::front`]), which owns
//! connections, probes, shedding, drain and accounting, and adds only
//! its own routes. It has one compute path. `POST /v1/grids` and
//! `POST /v1/experiments` (parsed by the backend's own
//! [`ExperimentRequest::from_body`], so a `400` carries the backend's
//! bytes, and served as a one-experiment grid) both go through it:
//!
//! 1. The front reads requests on its event loop and queues the two
//!    computing routes for the worker pool (full job queue → `503` +
//!    `Retry-After`, exactly like a backend). `GET /v1/experiments` is
//!    a static listing, answered on the event loop with no upstream
//!    call.
//! 2. A worker reads the merged-document [`ResultCache`] (the backends'
//!    byte budget), keyed by [`GridRequest::cache_key`] under the
//!    effective output epoch captured at start. A cached, non-`fresh`
//!    request is answered with no planning, no upstream call and no
//!    merge. Access records say `cache: hit|miss`.
//! 3. On a miss the request is scattered ([`crate::grid`]): one
//!    `POST /v1/cells` batch per `workload@scale` trace key, each sent
//!    to its key's owner on the consistent-hash [ring](crate::ring). The
//!    failover loop walks the key's replica order (then any other
//!    backend as a last resort), skipping backends that are probed
//!    unhealthy or whose [breaker](crate::breaker) is open. Transport
//!    failures feed the breaker and fail over; `503` from a backend
//!    (shedding or draining) fails over without tripping the breaker —
//!    the prober handles load-driven ejection via `/readyz`. Every
//!    attempt after the first consumes the global retry budget
//!    (`retries < batches/5 + burst`), which caps retry amplification
//!    during a full-cluster outage. Attempts go one at a time over the
//!    lane's pooled connections, each inside its backend's grid window.
//! 4. The merger folds the cell outputs into the response in request
//!    order, byte-identical to a lone backend and to `repro <id>
//!    --json`. A batch that every candidate fails is computed on the
//!    gateway, so a dead or shedding fleet costs latency, never the
//!    answer. Every successful merge fills the cache.
//!
//! A background prober drives per-backend health from `GET /readyz`
//! (drain-aware: backends flip not-ready the moment shutdown begins),
//! re-probing failed backends on a capped exponential backoff with
//! jitter. Breaker transitions, health changes, and upstream errors all
//! land in the structured JSON event log.

use crate::backend::Backend;
use crate::grid;
use crate::metrics::{self, GatewayMetrics};
use crate::ring::HashRing;
use mds_bench::grid::GridRequest;
use mds_harness::backoff::Backoff;
use mds_harness::json::Json;
use mds_runner::Runner;
use mds_serve::client::{self, Connection};
use mds_serve::front::{Front, Running, Tier, MAX_REQUESTS_PER_CONNECTION};
use mds_serve::http::{ClientResponse, Limits, Request, Response};
use mds_serve::io::reactor::{self, Outcome};
use mds_serve::persist;
use mds_serve::result_cache::{ResultCache, DEFAULT_BUDGET_BYTES};
use mds_serve::{ExperimentRequest, LogTarget, Service};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway tunables. `Default` is a sensible local configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `host:port` addresses fronted by this gateway.
    pub backends: Vec<String>,
    /// Request-executing worker threads (merged-cache reads and grid
    /// scatter-gather).
    pub workers: usize,
    /// Job-queue capacity; requests deferred beyond it get `503`.
    pub queue_depth: usize,
    /// Distinct backends tried per cell batch before falling back to the
    /// rest of the fleet (primary + failover replicas on the ring).
    pub replicas: usize,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Retry-budget burst: attempts beyond the first are allowed while
    /// `retries < dispatched_batches / 5 + retry_burst`.
    pub retry_burst: u64,
    /// Readiness-probe interval for healthy backends; failed probes back
    /// off exponentially (capped at 8× this, jittered).
    pub probe_interval: Duration,
    /// Client keep-alive idle window, and the per-request body deadline.
    pub read_timeout: Duration,
    /// Total deadline for one client request head (the slow-loris guard;
    /// the read timeout alone resets on every dripped byte).
    pub header_timeout: Duration,
    /// Total flush deadline for one client response backlog.
    pub write_timeout: Duration,
    /// Request head/body size limits.
    pub limits: Limits,
    /// Structured-log destination.
    pub log: LogTarget,
    /// Concurrent client-connection cap; accepts beyond it are shed with
    /// `503` immediately.
    pub max_connections: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:7979".to_string(),
            backends: Vec::new(),
            workers: 4,
            queue_depth: 64,
            replicas: 2,
            vnodes: 64,
            retry_burst: 16,
            probe_interval: Duration::from_millis(250),
            read_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            log: LogTarget::Stderr,
            max_connections: 10_000,
        }
    }
}

/// Seed of the breakers' cooldown jitter and the prober's backoff
/// jitter; backend `i` draws from its own offset of it.
const JITTER_SEED: u64 = 0x006d_6473;

/// The gateway tier: its state, shared by the front's threads, the
/// prober, handoffs, and the handle.
struct Shared {
    config: GatewayConfig,
    front: Front,
    backends: Vec<Arc<Backend>>,
    ring: HashRing,
    metrics: GatewayMetrics,
    /// Merged grid documents by [`GridRequest::cache_key`].
    merged: ResultCache,
    /// The effective output epoch captured at start: the merged cache's
    /// entries live under it, as a backend's result cache does under its
    /// own.
    epoch: u64,
}

/// A running gateway. Dropping it performs a graceful shutdown (the
/// backends are not touched — they are independent processes).
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    running: Running,
    prober: Option<JoinHandle<()>>,
    /// Guards the final summary so Drop after `shutdown` is a no-op.
    finished: bool,
}

impl Gateway {
    /// Binds, starts serving and the health prober, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// No backends, bind and thread-spawn failures, and any platform
    /// without `epoll` (the serving binaries are Linux-only).
    pub fn start(config: GatewayConfig) -> Result<Gateway, String> {
        if config.backends.is_empty() {
            return Err("a gateway needs at least one backend".to_string());
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("no local addr: {e}"))?;
        let front = Front::new("mds_gateway", config.log, config.queue_depth);
        let backends: Vec<Arc<Backend>> = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                Arc::new(Backend::new(
                    addr.clone(),
                    JITTER_SEED.wrapping_add(i as u64),
                ))
            })
            .collect();
        let ring = HashRing::new(&config.backends, config.vnodes);
        let epoch = persist::effective_epoch();
        front.log.event(
            Json::object()
                .field("evt", "ring")
                .field("epoch", epoch)
                .field("backends", backends.len())
                .field("vnodes", config.vnodes)
                .field("points", ring.points())
                .field("replicas", config.replicas),
        );
        let shared = Arc::new(Shared {
            front,
            backends,
            ring,
            metrics: GatewayMetrics::default(),
            merged: ResultCache::new(DEFAULT_BUDGET_BYTES),
            epoch,
            config,
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
        let mut gateway = Gateway {
            shared,
            local_addr,
            running,
            prober: None,
            finished: false,
        };
        // A failed spawn drops `gateway`, which stops serving.
        let shared = Arc::clone(&gateway.shared);
        let prober = std::thread::Builder::new()
            .name("mds-cluster-prober".to_string())
            .spawn(move || probe_loop(&shared))
            .map_err(|e| format!("cannot spawn prober: {e}"))?;
        gateway.prober = Some(prober);
        Ok(gateway)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Gateway counters (tests, summaries).
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.shared.metrics
    }

    /// The merged-document cache (grids and experiments alike).
    pub fn grid_cache(&self) -> &ResultCache {
        &self.shared.merged
    }

    /// The effective output epoch the merged cache serves under.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// The per-backend states, in configuration order.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.shared.backends
    }

    /// Buffered log lines (only with [`LogTarget::Memory`]).
    pub fn log_lines(&self) -> Vec<String> {
        self.shared.front.log.lines()
    }

    /// Blocks until a client posts `/v1/shutdown` (or
    /// [`Gateway::shutdown`] runs from another thread).
    pub fn wait_for_shutdown(&self) {
        self.shared.front.wait_for_shutdown(None);
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, join
    /// every thread, flush a final summary event.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.running.stop(&self.shared.front);
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        let m = &self.shared.metrics;
        let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
        self.shared.front.log.event(
            Json::object()
                .field("evt", "shutdown")
                .field(
                    "requests_total",
                    load(&self.shared.front.metrics.requests_total),
                )
                .field("proxied_total", load(&m.proxied_total))
                .field("failovers_total", load(&m.failovers_total))
                .field("unavailable_total", load(&m.unavailable_total)),
        );
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A dispatch lane's keep-alive connections, one per backend index.
type ConnCache = HashMap<usize, Connection>;

impl Tier for Shared {
    const PATHS: &'static [&'static str] = &["/v1/cluster", "/v1/experiments", "/v1/grids"];

    fn front(&self) -> &Front {
        &self.front
    }

    /// A scatter blocks on the whole fan-out: pool work. The listing
    /// and the status page answer inline.
    fn defers(&self, request: &Request) -> bool {
        request.method == "POST"
            && matches!(request.target.as_str(), "/v1/experiments" | "/v1/grids")
    }

    fn route(&self, request: &Request) -> Option<Outcome> {
        self.metrics.routes.count(&request.method, &request.target);
        let outcome = match (request.method.as_str(), request.target.as_str()) {
            ("GET", "/v1/cluster") => Outcome::new(Response::json(200, cluster_status(self))),
            ("GET", "/v1/experiments") => {
                Outcome::new(Response::json(200, Service::experiments_json()))
            }
            ("POST", "/v1/experiments") => serve_grid(
                self,
                ExperimentRequest::from_body(&request.body).map(ExperimentRequest::into_grid),
            ),
            ("POST", "/v1/grids") => serve_grid(self, GridRequest::from_body(&request.body)),
            _ => return None,
        };
        Some(outcome)
    }

    /// Nothing upstream could answer while no backend is in rotation.
    fn not_ready(&self) -> Option<&'static str> {
        let now = Instant::now();
        (!self.backends.iter().any(|b| b.in_rotation(now))).then_some("no backend in rotation")
    }

    fn render_metrics(&self, out: &mut String) {
        metrics::render(&self.metrics, &self.backends, out);
    }
}

/// The `/v1/cluster` status document.
fn cluster_status(shared: &Shared) -> String {
    let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
    let backends: Vec<Json> = shared
        .backends
        .iter()
        .map(|b| {
            Json::object()
                .field("addr", b.addr.as_str())
                .field("healthy", b.is_healthy())
                .field("breaker", b.with_breaker(|br| br.state().name()))
                .field("breaker_opens", b.with_breaker(|br| br.opens()))
                .field("attempts", load(&b.stats.attempts))
                .field("failures", load(&b.stats.failures))
                .field("sheds", load(&b.stats.sheds))
        })
        .collect();
    Json::object()
        .field("backends", Json::Array(backends))
        .field("ring_points", shared.ring.points())
        .field("replicas", shared.config.replicas)
        .field("proxied", load(&shared.metrics.proxied_total))
        .field("retries", load(&shared.metrics.retries_total))
        .field("grids", load(&shared.metrics.grids_total))
        .field(
            "grid_cache_hits",
            load(&shared.metrics.grid_cache_hits_total),
        )
        .field(
            "grid_cache_misses",
            load(&shared.metrics.grid_cache_misses_total),
        )
        .field("epoch", shared.epoch)
        .field("grid_cells", load(&shared.metrics.grid_cells_total))
        .field("grid_window", GRID_WINDOW as u64)
        .to_string()
}

/// The order in which backends are tried for a `workload@scale` trace
/// key: ring replicas first, then every remaining backend as a last
/// resort, so a batch only fails once the whole fleet is unreachable.
fn candidate_order(shared: &Shared, key: &str) -> Vec<usize> {
    let mut order = shared.ring.replicas(key, shared.config.replicas);
    for idx in 0..shared.backends.len() {
        if !order.contains(&idx) {
            order.push(idx);
        }
    }
    order
}

/// [`candidate_order`] filtered down to in-rotation backends — or, when
/// probes have everyone out (e.g. right after startup against a
/// slow-binding fleet), the optimistic full order: try everyone rather
/// than fail from the armchair.
fn rotation_order(shared: &Shared, key: &str) -> Vec<usize> {
    let order = candidate_order(shared, key);
    let now = Instant::now();
    let rotation: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| shared.backends[i].in_rotation(now))
        .collect();
    if rotation.is_empty() {
        order
    } else {
        rotation
    }
}

/// Takes one unit of the global retry budget, if any remains: a fifth
/// of the batches dispatched so far, plus the burst. The budget's
/// numerator is `metrics.retries_total`, its denominator
/// `metrics.proxied_total`.
fn take_retry(shared: &Shared) -> bool {
    let m = &shared.metrics;
    let allowed = m.proxied_total.load(Ordering::Relaxed) / 5 + shared.config.retry_burst;
    m.retries_total
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            (n < allowed).then_some(n + 1)
        })
        .is_ok()
}

fn log_transition(shared: &Shared, backend: &Backend, t: Option<crate::breaker::Transition>) {
    if let Some(t) = t {
        shared.front.log.event(
            Json::object()
                .field("evt", "breaker")
                .field("backend", backend.addr.as_str())
                .field("from", t.from.name())
                .field("to", t.to.name()),
        );
    }
}

/// The one upstream route: a cell batch.
const CELLS: &str = "/v1/cells";

/// Upstream connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Upstream read/write timeout, for cell batches and handoff transfers
/// alike (a cold cell batch can compute for a while, so this is
/// generous).
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// One upstream exchange over the lane's pooled connection (fresh
/// reconnect if the pooled one was idled out by the backend).
fn attempt(
    shared: &Shared,
    conns: &mut ConnCache,
    idx: usize,
    body: &[u8],
) -> Result<ClientResponse, String> {
    let backend = &shared.backends[idx];
    backend.stats.attempts.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let result = send_pooled(shared, conns, idx, body);
    let us = started.elapsed().as_micros() as u64;
    backend.stats.latency.observe_us(us);
    shared.metrics.upstream_latency.observe_us(us);
    result
}

fn send_pooled(
    shared: &Shared,
    conns: &mut ConnCache,
    idx: usize,
    body: &[u8],
) -> Result<ClientResponse, String> {
    // A reused keep-alive connection failing usually means the backend
    // idled it out between requests; fall through to a fresh connection
    // before declaring a real failure.
    let reused = conns
        .remove(&idx)
        .and_then(|mut conn| Some((conn.send("POST", CELLS, body).ok()?, conn)));
    let (response, conn) = match reused {
        Some(exchange) => exchange,
        None => {
            let mut conn =
                Connection::connect(&shared.backends[idx].addr, CONNECT_TIMEOUT, IO_TIMEOUT)
                    .map_err(|e| format!("connect: {e}"))?;
            let response = conn.send("POST", CELLS, body).map_err(|e| e.to_string())?;
            (response, conn)
        }
    };
    if !Connection::must_close(&response) {
        conns.insert(idx, conn);
    }
    Ok(response)
}

/// Dispatches one cell batch along its route key's replica order, under
/// breaker and retry-budget [`failover`]: the gateway's one upstream
/// path. The window bounds this grid's in-flight batches per backend.
/// `owner` is the grid's balanced assignment for this key: when it is
/// still in rotation it is tried first, and the rest of the replica
/// order backs it up.
///
/// Each batch counts once in `proxied_total` (the retry budget's
/// denominator) and `proxy_latency`, and once in `unavailable_total`
/// when every candidate fails it.
fn dispatch_batch(
    shared: &Shared,
    conns: &mut ConnCache,
    batch: &grid::BatchPlan,
    windows: &grid::Windows,
    owner: Option<usize>,
) -> Result<ClientResponse, Option<ClientResponse>> {
    let started = Instant::now();
    let m = &shared.metrics;
    m.proxied_total.fetch_add(1, Ordering::Relaxed);
    m.grid_cells_total
        .fetch_add(batch.cells.len() as u64, Ordering::Relaxed);
    let mut rotation = rotation_order(shared, &batch.route_key);
    if let Some(owner) = owner {
        if let Some(pos) = rotation.iter().position(|&idx| idx == owner) {
            rotation.remove(pos);
            rotation.insert(0, owner);
        }
    }
    let result = failover(shared, conns, &rotation, batch.body.as_bytes(), windows);
    if result.is_err() {
        m.unavailable_total.fetch_add(1, Ordering::Relaxed);
    }
    m.proxy_latency
        .observe_us(started.elapsed().as_micros() as u64);
    result
}

/// The grid's balanced key→backend assignment: the batches' route keys
/// in plan order, each with its live replica order, handed to
/// [`grid::balanced_assignments`] so no backend owns more than its fair
/// share of this grid's trace emulations.
fn grid_owners(shared: &Shared, plan: &grid::GridPlan) -> HashMap<String, usize> {
    let candidates: Vec<(String, Vec<usize>)> = plan
        .batches
        .iter()
        .map(|b| (b.route_key.clone(), rotation_order(shared, &b.route_key)))
        .collect();
    grid::balanced_assignments(&candidates, shared.backends.len())
}

/// `POST /v1/grids` and `POST /v1/experiments` (a one-experiment
/// grid): a merged-document cache in front of scatter-gather execution.
///
/// `request` is the parsed body, or the parser's message, which becomes
/// a `400` with the same bytes a backend sends. A request whose
/// [`GridRequest::cache_key`] is cached, and that is not `fresh`, is
/// answered from the cache: no planning, no upstream call, no merge.
/// Anything else scatters. Every successful merge fills the cache (so a
/// `fresh` request refreshes its entry); a `400` or a failed merge is
/// never cached.
fn serve_grid(shared: &Shared, request: Result<GridRequest, String>) -> Outcome {
    let grid_request = match request {
        Ok(request) => request,
        Err(message) => {
            return Outcome::new(Response::json(
                400,
                Json::object().field("error", message).to_string(),
            ))
        }
    };
    let m = &shared.metrics;
    m.grids_total.fetch_add(1, Ordering::Relaxed);
    let key = grid_request.cache_key();
    if !grid_request.fresh {
        if let Some(doc) = shared.merged.get(&key) {
            m.grid_cache_hits_total.fetch_add(1, Ordering::Relaxed);
            return Outcome::new(Response::json(200, doc.as_bytes())).cache("hit");
        }
    }
    m.grid_cache_misses_total.fetch_add(1, Ordering::Relaxed);
    let response = match scatter_gather(shared, &grid_request) {
        Ok(doc) => {
            shared.merged.put(&key, Arc::from(doc.as_str()));
            Response::json(200, doc)
        }
        Err(message) => Response::json(500, Json::object().field("error", message).to_string()),
    };
    Outcome::new(response).cache("miss")
}

/// Per-backend in-flight window for grid dispatch: how many cell batches
/// one scattered request keeps outstanding against each backend. Sized
/// to fill a backend's worker pool without tripping its admission
/// shedding.
const GRID_WINDOW: usize = 8;

/// Scatter-gather grid execution: the merged document, or the merge's
/// error.
///
/// Decomposes the request into cells (one per distinct simulation
/// demand), groups them into one batch per `workload@scale` trace key,
/// sends each batch to its key's owner over dispatcher lanes with bounded
/// per-backend windows, merges partial results as they stream back, and
/// renders the response in request order — byte-identical to a lone
/// backend serving the same grid. The cells of a batch that every
/// candidate fails, or that comes back malformed, are computed locally
/// by the merger, so backend loss degrades latency, never the answer.
fn scatter_gather(shared: &Shared, grid_request: &GridRequest) -> Result<String, String> {
    let started = Instant::now();
    let plan = grid::plan(grid_request);
    let owners = grid_owners(shared, &plan);
    let mut merger = grid::Merger::new(grid_request, Runner::new(1));
    let windows = grid::Windows::new(shared.backends.len(), GRID_WINDOW);

    let batches = &plan.batches;
    let mut failed_cells = 0usize;
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Result<ClientResponse, Option<ClientResponse>>)>();
        let lanes = batches
            .len()
            .min(shared.backends.len() * GRID_WINDOW)
            .max(1);
        for _ in 0..lanes {
            let tx = tx.clone();
            let next = &next;
            let windows = &windows;
            let owners = &owners;
            scope.spawn(move || {
                let mut conns: ConnCache = HashMap::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(batch) = batches.get(i) else {
                        break;
                    };
                    let owner = owners.get(&batch.route_key).copied();
                    let result = dispatch_batch(shared, &mut conns, batch, windows, owner);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Gather on this thread: partial results merge in arrival order,
        // which the merge contract guarantees cannot change the bytes.
        for (i, result) in rx {
            let batch = &batches[i];
            let before = merger.accepted();
            let failure = match result {
                Ok(upstream) if upstream.status == 200 => {
                    merger.accept_batch(batch, &upstream.body).err()
                }
                Ok(upstream) => Some(format!("upstream status {}", upstream.status)),
                Err(_) => Some("no backend available".to_string()),
            };
            if let Some(error) = failure {
                failed_cells += batch.cells.len() - (merger.accepted() - before);
                shared.front.log.event(
                    Json::object()
                        .field("evt", "grid_batch_failed")
                        .field("key", batch.route_key.as_str())
                        .field("cells", batch.cells.len() as u64)
                        .field("error", error),
                );
            }
        }
    });
    if failed_cells > 0 {
        shared
            .metrics
            .grid_cell_failures_total
            .fetch_add(failed_cells as u64, Ordering::Relaxed);
    }
    let accepted = merger.accepted();
    let doc = merger.finish();
    shared.front.log.event(
        Json::object()
            .field("evt", "grid")
            .field("experiments", grid_request.experiments.len() as u64)
            .field("batches", batches.len() as u64)
            .field("accepted", accepted as u64)
            .field("failed", failed_cells as u64)
            .field("us", started.elapsed().as_micros() as u64),
    );
    doc
}

/// The failover loop: walk the candidates under breaker and retry-budget
/// control and return the first non-shed upstream answer, or
/// `Err(last shed response)` once every candidate is exhausted. Every
/// permit the breaker grants is settled before the loop moves on, and
/// `windows` bounds per-backend in-flight attempts.
fn failover(
    shared: &Shared,
    conns: &mut ConnCache,
    candidates: &[usize],
    body: &[u8],
    windows: &grid::Windows,
) -> Result<ClientResponse, Option<ClientResponse>> {
    let mut attempts_made = 0u32;
    let mut last_shed: Option<ClientResponse> = None;
    for &idx in candidates {
        let backend = &shared.backends[idx];
        let (allowed, transition) = backend.with_breaker(|b| b.try_acquire(Instant::now()));
        log_transition(shared, backend, transition);
        if !allowed {
            continue;
        }
        if attempts_made >= 1 && !take_retry(shared) {
            backend.with_breaker(|b| b.cancel_acquire());
            break;
        }
        if attempts_made >= 1 {
            shared
                .metrics
                .failovers_total
                .fetch_add(1, Ordering::Relaxed);
        }
        attempts_made += 1;
        let _slot = windows.acquire(idx);
        match attempt(shared, conns, idx, body) {
            Ok(upstream) if upstream.status == 503 => {
                // Shedding or draining: not a transport failure (the
                // prober ejects overloaded backends via /readyz), but
                // do fail over.
                backend.stats.sheds.fetch_add(1, Ordering::Relaxed);
                backend.with_breaker(|b| b.cancel_acquire());
                last_shed = Some(upstream);
            }
            Ok(upstream) => {
                let t = backend.with_breaker(|b| b.record_success(Instant::now()));
                log_transition(shared, backend, t);
                return Ok(upstream);
            }
            Err(error) => {
                backend.stats.failures.fetch_add(1, Ordering::Relaxed);
                let t = backend.with_breaker(|b| b.record_failure(Instant::now()));
                log_transition(shared, backend, t);
                shared.front.log.event(
                    Json::object()
                        .field("evt", "upstream_error")
                        .field("backend", backend.addr.as_str())
                        .field("error", error),
                );
            }
        }
    }
    Err(last_shed)
}

/// Per-probe timeout.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// The background health prober: readiness-probes every backend, on a
/// fixed interval while healthy and on capped exponential backoff with
/// jitter while failing. An unhealthy → healthy transition (a recovery
/// or a replacement process on the same address) triggers a warm-cache
/// handoff on its own thread, so probing never blocks on a transfer.
fn probe_loop(shared: &Arc<Shared>) {
    let n = shared.backends.len();
    let mut backoffs: Vec<Backoff> = (0..n)
        .map(|i| {
            Backoff::new(
                shared.config.probe_interval,
                shared.config.probe_interval * 8,
                JITTER_SEED.wrapping_add(0x9e37 + i as u64),
            )
        })
        .collect();
    let mut due: Vec<Instant> = vec![Instant::now(); n];
    loop {
        if shared.front.draining() {
            return;
        }
        let now = Instant::now();
        for (i, backend) in shared.backends.iter().enumerate() {
            if due[i] > now {
                continue;
            }
            let verdict = client::request_once(&backend.addr, "GET", "/readyz", b"", PROBE_TIMEOUT);
            let healthy = matches!(verdict, Ok(ref r) if r.status == 200);
            let was = backend.set_healthy(healthy);
            if was != healthy {
                shared.front.log.event(
                    Json::object()
                        .field("evt", "health")
                        .field("backend", backend.addr.as_str())
                        .field("healthy", healthy),
                );
                if healthy {
                    // A recovered (or replaced) backend starts cold:
                    // stream it the warm entries its ring position owns.
                    let shared = Arc::clone(shared);
                    let _ = std::thread::Builder::new()
                        .name("mds-cluster-handoff".to_string())
                        .spawn(move || handoff(&shared, i));
                }
            }
            if healthy {
                backoffs[i].reset();
                due[i] = Instant::now() + shared.config.probe_interval;
            } else {
                due[i] = Instant::now() + backoffs[i].next_delay();
            }
        }
        // Sleep until the next probe is due, waking early on shutdown.
        let next_due = due.iter().min().copied().unwrap_or_else(Instant::now);
        let sleep = next_due
            .saturating_duration_since(Instant::now())
            .min(shared.config.probe_interval);
        if shared
            .front
            .wait_for_shutdown(Some(sleep.max(Duration::from_millis(5))))
        {
            return;
        }
    }
}

/// Handoff fill chunks stay comfortably under the backends' default
/// 64 KiB request-body limit.
const HANDOFF_CHUNK_BYTES: usize = 48 * 1024;

/// The ring key a cached entry is placed by. A `cell:` entry goes where
/// its batch is routed — its job's `workload@scale` trace key — so a
/// backend receives the cells it will be asked for. Any other entry (an
/// `(experiment, scale)` document a client asked a backend for
/// directly), or a cell whose job this process cannot decode, is placed
/// by its own key.
fn placement_key(key: &str) -> std::borrow::Cow<'_, str> {
    key.strip_prefix("cell:")
        .and_then(|wire| Json::parse(wire).ok())
        .and_then(|job| mds_runner::wire::decode_job(&job).ok())
        .map_or(std::borrow::Cow::Borrowed(key), |job| {
            mds_bench::grid::route_key(job.workload.name, job.scale).into()
        })
}

/// Streams the warm entries `target_idx` is responsible for (primary or
/// failover replica on the ring, by [`placement_key`]) from every other
/// healthy backend, via `GET /v1/cache` → filter → chunked
/// `POST /v1/cache`.
///
/// Epoch safety is end-to-end: every dump carries its donor's epoch and
/// the target refuses a mismatched fill with `409`, so a half-upgraded
/// fleet degrades to a cold (correct) backend, never a wrong-bytes one.
fn handoff(shared: &Arc<Shared>, target_idx: usize) {
    let target = &shared.backends[target_idx];
    let mut seen = std::collections::HashSet::new();
    let mut owned: Vec<(String, Arc<str>)> = Vec::new();
    let mut epoch: Option<u64> = None;
    let mut errors = 0u64;
    for (i, donor) in shared.backends.iter().enumerate() {
        if i == target_idx || !donor.is_healthy() {
            continue;
        }
        let dump = match client::request_once(&donor.addr, "GET", "/v1/cache", b"", IO_TIMEOUT) {
            Ok(r) if r.status == 200 => r,
            _ => {
                errors += 1;
                continue;
            }
        };
        let (donor_epoch, entries) = match persist::parse(&dump.body) {
            Ok(parsed) => parsed,
            Err(_) => {
                errors += 1;
                continue;
            }
        };
        // All donors must agree on the epoch; a straggler from another
        // build contributes nothing (the target would 409 it anyway).
        match epoch {
            None => epoch = Some(donor_epoch),
            Some(e) if e != donor_epoch => {
                errors += 1;
                continue;
            }
            Some(_) => {}
        }
        for (key, body) in entries {
            if shared
                .ring
                .replicas(&placement_key(&key), shared.config.replicas)
                .contains(&target_idx)
                && seen.insert(key.clone())
            {
                owned.push((key, Arc::from(body.as_str())));
            }
        }
    }
    let mut transferred = 0u64;
    if let Some(epoch) = epoch {
        for chunk in persist::dump_chunks(epoch, &owned, HANDOFF_CHUNK_BYTES) {
            match client::request_once(
                &target.addr,
                "POST",
                "/v1/cache",
                chunk.as_bytes(),
                IO_TIMEOUT,
            ) {
                Ok(r) if r.status == 200 => {}
                _ => {
                    errors += 1;
                    continue;
                }
            }
            if let Ok((_, entries)) = persist::parse(chunk.as_bytes()) {
                transferred += entries.len() as u64;
            }
        }
    }
    shared
        .metrics
        .handoffs_total
        .fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .handoff_keys_total
        .fetch_add(transferred, Ordering::Relaxed);
    shared
        .metrics
        .handoff_errors_total
        .fetch_add(errors, Ordering::Relaxed);
    shared.front.log.event(
        Json::object()
            .field("evt", "handoff")
            .field("backend", target.addr.as_str())
            .field("keys", transferred)
            .field("candidates", owned.len())
            .field("errors", errors),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_workloads::Scale;

    #[test]
    fn dispatched_batches_grow_the_retry_budget() {
        // A closed port fails every batch fast; the budget counts a
        // batch whatever its outcome.
        let dead = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap()
            .to_string();
        let burst = 2;
        let gateway = Gateway::start(GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: vec![dead],
            retry_burst: burst,
            log: LogTarget::Discard,
            ..GatewayConfig::default()
        })
        .unwrap();
        let shared = &gateway.shared;
        let plan = grid::plan(&GridRequest {
            experiments: vec!["fig5".to_string()],
            scale: Scale::Tiny,
            fresh: false,
        });
        let windows = grid::Windows::new(1, 1);
        let mut conns = ConnCache::new();
        let rounds = 4;
        for _ in 0..rounds {
            for batch in &plan.batches {
                assert!(dispatch_batch(shared, &mut conns, batch, &windows, None).is_err());
            }
        }
        let batches = (rounds * plan.batches.len()) as u64;
        let m = &shared.metrics;
        assert_eq!(m.proxied_total.load(Ordering::Relaxed), batches);
        assert_eq!(m.unavailable_total.load(Ordering::Relaxed), batches);
        assert_eq!(m.proxy_latency.count(), batches);

        // One lone backend leaves nothing to fail over to, so the budget
        // is untouched: a fifth of the batches plus the burst.
        let mut granted = 0;
        while take_retry(shared) {
            granted += 1;
        }
        assert_eq!(granted, batches / 5 + burst);
        assert!(granted > burst, "grid traffic must grow the budget");
    }
}
