//! The failover gateway: an HTTP front door over N `mds-serve` backends.
//!
//! The gateway reuses the serving crate's wire layer, admission queue,
//! and structured log wholesale — it is the same kind of server, just
//! with a proxy where the simulation engine would be. The request path:
//!
//! 1. The acceptor admits connections through a bounded queue (full
//!    queue → `503` + `Retry-After`, exactly like a backend).
//! 2. A worker parses requests and routes them. Keyed requests
//!    (`POST /v1/experiments`) hash their canonical `(experiment,
//!    scale)` cache key onto the consistent-hash [ring](crate::ring) so
//!    each backend serves a stable shard; unkeyed proxy routes
//!    round-robin.
//! 3. The failover loop walks the key's replica order (then any other
//!    backend as a last resort), skipping backends that are probed
//!    unhealthy or whose [breaker](crate::breaker) is open. Transport
//!    failures feed the breaker and fail over; `503` from a backend
//!    (shedding or draining) fails over without tripping the breaker —
//!    the prober handles load-driven ejection via `/readyz`. Every
//!    attempt after the first consumes the global retry budget
//!    (`retries < proxied/5 + burst`), which caps retry amplification
//!    during a full-cluster outage.
//! 4. Optionally ([`GatewayConfig::hedge_after`]) a hedged second
//!    request races the next replica when the first is slow; the first
//!    non-shed answer wins. Experiment execution is deterministic and
//!    idempotent, so hedging is always safe.
//!
//! Successful backend responses pass through byte-for-byte: the gateway
//! copies status, `content-type`, and body verbatim, so gateway-served
//! experiment documents are identical to `repro <id> --json` output.
//!
//! A background prober drives per-backend health from `GET /readyz`
//! (drain-aware: backends flip not-ready the moment shutdown begins),
//! re-probing failed backends on a capped exponential backoff with
//! jitter. Breaker transitions, health changes, and per-request proxy
//! outcomes all land in the structured JSON event log.

use crate::backend::Backend;
use crate::breaker::BreakerConfig;
use crate::grid;
use crate::metrics::{self, GatewayMetrics};
use crate::ring::HashRing;
use mds_bench::grid::GridRequest;
use mds_harness::backoff::Backoff;
use mds_harness::json::Json;
use mds_runner::Runner;
use mds_serve::client::{self, Connection};
use mds_serve::http::{self, ClientResponse, Limits, ReadError, Request, Response, Version};
use mds_serve::io::reactor::{self, Dispatch, Outcome};
use mds_serve::io::IoModel;
use mds_serve::persist;
use mds_serve::queue::Bounded;
use mds_serve::{AccessLog, ExperimentRequest, LogTarget};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gateway tunables. `Default` is a sensible local configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `host:port` addresses fronted by this gateway.
    pub backends: Vec<String>,
    /// Connection-serving worker threads.
    pub workers: usize,
    /// Admission-queue capacity; beyond it, connections get `503`.
    pub queue_depth: usize,
    /// Distinct backends tried per keyed request before falling back to
    /// the rest of the fleet (primary + failover replicas on the ring).
    pub replicas: usize,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Retry-budget burst: attempts beyond the first are allowed while
    /// `retries < proxied_requests / 5 + retry_burst`.
    pub retry_burst: u64,
    /// When set, launch a hedged second request to the next replica if
    /// the first has not answered within this duration.
    pub hedge_after: Option<Duration>,
    /// Readiness-probe interval for healthy backends; failed probes back
    /// off exponentially (capped at 8× this, jittered).
    pub probe_interval: Duration,
    /// Per-probe timeout.
    pub probe_timeout: Duration,
    /// Upstream connect timeout.
    pub connect_timeout: Duration,
    /// Upstream read/write timeout (cold experiments can compute for a
    /// while, so this is generous).
    pub io_timeout: Duration,
    /// Per-connection client read timeout (also keep-alive idle).
    pub read_timeout: Duration,
    /// Total deadline for one client request head (the slow-loris guard;
    /// the read timeout alone resets on every dripped byte).
    pub header_timeout: Duration,
    /// Per-connection client write timeout.
    pub write_timeout: Duration,
    /// Request head/body size limits.
    pub limits: Limits,
    /// Keep-alive cap: requests served per client connection.
    pub max_requests_per_connection: usize,
    /// Warm-cache handoff: when a backend flips unhealthy → healthy (a
    /// recovery or a replacement process), stream it the warm entries it
    /// is responsible for from its ring neighbors, so it answers warm
    /// from the first request.
    pub handoff: bool,
    /// Circuit-breaker tunables (shared by every backend).
    pub breaker: BreakerConfig,
    /// Structured-log destination.
    pub log: LogTarget,
    /// Seed for breaker cooldown and probe-backoff jitter.
    pub seed: u64,
    /// Connection engine for the client-facing side: event-driven
    /// `epoll` (default on Linux) or the legacy thread-per-connection
    /// pool. Upstream forwarding always runs on workers.
    pub io: IoModel,
    /// Concurrent client-connection cap under `--io epoll`.
    pub max_connections: usize,
    /// Per-backend in-flight window for grid dispatch: how many cell
    /// batches one `POST /v1/grids` keeps outstanding against each
    /// backend. Sized to fill a backend's worker pool without tripping
    /// its admission shedding.
    pub grid_window: usize,
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
            hedge_after: None,
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(120),
            read_timeout: Duration::from_secs(5),
            header_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            max_requests_per_connection: 1000,
            handoff: true,
            breaker: BreakerConfig::default(),
            log: LogTarget::Stderr,
            seed: 0x006d_6473,
            io: IoModel::default(),
            max_connections: 10_000,
            grid_window: 8,
        }
    }
}

/// An admitted client connection, stamped for queue-wait accounting.
struct Inbound {
    stream: TcpStream,
    enqueued: Instant,
}

/// State shared by the acceptor, workers, prober, and handle.
struct Shared {
    config: GatewayConfig,
    backends: Vec<Arc<Backend>>,
    ring: HashRing,
    metrics: GatewayMetrics,
    log: AccessLog,
    queue: Bounded<Inbound>,
    /// The request-level work queue under `--io epoll`; `None` under
    /// `--io threads`.
    jobs: Option<Arc<Bounded<reactor::Job>>>,
    /// Reactor gauges (`mds_io_*`); all-zero under `--io threads`.
    io_stats: Arc<reactor::IoStats>,
    /// Round-robin cursor for unkeyed proxy routes.
    round_robin: AtomicU64,
    /// Denominator of the retry budget (proxied requests so far).
    proxied: AtomicU64,
    /// Numerator of the retry budget (budgeted retries so far).
    retries: AtomicU64,
    stop: AtomicBool,
    draining: AtomicBool,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
}

/// A running gateway. Dropping it performs a graceful shutdown (the
/// backends are not touched — they are independent processes).
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    reactor: Option<reactor::Reactor>,
    /// Guards the final summary so Drop after `shutdown` is a no-op.
    finished: bool,
}

impl Gateway {
    /// Binds, spawns the acceptor, workers, and health prober, and
    /// returns immediately.
    pub fn start(config: GatewayConfig) -> Result<Gateway, String> {
        if config.backends.is_empty() {
            return Err("a gateway needs at least one backend".to_string());
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("no local addr: {e}"))?;
        let log = match config.log {
            LogTarget::Stderr => AccessLog::stderr(),
            LogTarget::Discard => AccessLog::discard(),
            LogTarget::Memory => AccessLog::memory(),
        };
        let backends: Vec<Arc<Backend>> = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                Arc::new(Backend::new(
                    addr.clone(),
                    config.breaker,
                    config.seed.wrapping_add(i as u64),
                ))
            })
            .collect();
        let ring = HashRing::new(&config.backends, config.vnodes);
        log.event(
            Json::object()
                .field("evt", "ring")
                .field("backends", backends.len())
                .field("vnodes", config.vnodes)
                .field("points", ring.points())
                .field("replicas", config.replicas),
        );
        let io = config.io.effective();
        let jobs = match io {
            IoModel::Epoll => Some(Arc::new(Bounded::new(config.queue_depth))),
            IoModel::Threads => None,
        };
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_depth),
            backends,
            ring,
            metrics: GatewayMetrics::default(),
            log,
            jobs,
            io_stats: Arc::new(reactor::IoStats::default()),
            round_robin: AtomicU64::new(0),
            proxied: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            config,
        });
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mds-cluster-prober".to_string())
                .spawn(move || probe_loop(&shared))
                .map_err(|e| format!("cannot spawn prober: {e}"))?
        };
        #[cfg(target_os = "linux")]
        if io == IoModel::Epoll {
            let app = Arc::new(GatewayApp {
                shared: Arc::clone(&shared),
            });
            let reactor = reactor::Reactor::start(
                listener,
                app,
                reactor::Config {
                    limits: shared.config.limits,
                    max_requests: shared.config.max_requests_per_connection,
                    read_timeout: shared.config.read_timeout,
                    header_timeout: shared.config.header_timeout,
                    write_timeout: shared.config.write_timeout,
                    max_connections: shared.config.max_connections,
                },
                shared.config.workers,
                Arc::clone(shared.jobs.as_ref().expect("epoll mode has a job queue")),
                Arc::clone(&shared.io_stats),
            )
            .map_err(|e| format!("cannot start reactor: {e}"))?;
            return Ok(Gateway {
                shared,
                local_addr,
                acceptor: None,
                workers: Vec::new(),
                prober: Some(prober),
                reactor: Some(reactor),
                finished: false,
            });
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mds-cluster-acceptor".to_string())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };
        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mds-cluster-worker-{i}"))
                    .spawn(move || {
                        // Each worker keeps its own keep-alive connection
                        // per backend; no cross-thread pooling locks.
                        let mut conns = HashMap::new();
                        while let Some(inbound) = shared.queue.pop() {
                            handle_connection(&shared, &mut conns, inbound);
                        }
                    })
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }
        Ok(Gateway {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
            prober: Some(prober),
            #[cfg(target_os = "linux")]
            reactor: None,
            finished: false,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Gateway counters (tests, summaries).
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.shared.metrics
    }

    /// The per-backend states, in configuration order.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.shared.backends
    }

    /// Buffered log lines (only with [`LogTarget::Memory`]).
    pub fn log_lines(&self) -> Vec<String> {
        self.shared.log.lines()
    }

    /// Blocks until a client posts `/v1/shutdown` (or
    /// [`Gateway::shutdown`] runs from another thread).
    pub fn wait_for_shutdown(&self) {
        let mut requested = self
            .shared
            .shutdown_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*requested {
            requested = self
                .shared
                .shutdown_cv
                .wait(requested)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// connections, join every thread, flush a final summary event.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.shared.stop.store(true, Ordering::SeqCst);
        signal_shutdown(&self.shared);
        #[cfg(target_os = "linux")]
        if let Some(mut reactor) = self.reactor.take() {
            reactor.stop_and_join();
        }
        if self.acceptor.is_some() {
            // Wake the acceptor out of its blocking accept() and the
            // prober out of its timed wait.
            let _ = TcpStream::connect(self.local_addr);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        let m = &self.shared.metrics;
        let load = |v: &AtomicU64| v.load(Ordering::Relaxed);
        self.shared.log.event(
            Json::object()
                .field("evt", "shutdown")
                .field("requests_total", load(&m.requests_total))
                .field("proxied_total", load(&m.proxied_total))
                .field("failovers_total", load(&m.failovers_total))
                .field("hedges_total", load(&m.hedges_total))
                .field("unavailable_total", load(&m.unavailable_total)),
        );
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn signal_shutdown(shared: &Shared) {
    shared.draining.store(true, Ordering::SeqCst);
    *shared
        .shutdown_flag
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = true;
    shared.shutdown_cv.notify_all();
}

fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        shared
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        // Without a write timeout, a client that stops draining its
        // receive window pins a worker in write() for good.
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let _ = stream.set_nodelay(true);
        let inbound = Inbound {
            stream,
            enqueued: Instant::now(),
        };
        if let Err(rejected) = shared.queue.push(inbound) {
            shed(shared, rejected.stream);
        }
    }
    shared.queue.close();
}

/// Counts one shed and returns the backpressure response (written to the
/// whole connection by the threaded acceptor, to the individual request
/// by the event-driven engine).
fn shed_response(shared: &Shared) -> Response {
    shared
        .metrics
        .rejected_total
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.count_response(503);
    Response::json(503, r#"{"error":"gateway queue full, retry shortly"}"#)
        .header("retry-after", "1")
}

fn shed(shared: &Shared, mut stream: TcpStream) {
    let response = shed_response(shared);
    let _ = response.write_to(&mut stream, false);
}

/// Per-worker keep-alive connections, one per backend index.
type ConnCache = HashMap<usize, Connection>;

/// What came of waiting for the next keep-alive request.
enum IdleWait {
    /// Bytes are waiting; go read the request.
    Ready,
    /// Other connections queued up (or shutdown began): release the
    /// worker instead of pinning it to an idle peer.
    Yield,
    /// The peer closed, errored, or idled past the read timeout.
    Gone,
}

/// Blocks until the next request's first byte arrives, in short slices
/// that re-check the admission queue — the same worker-fairness rule the
/// backends apply, so an idle keep-alive client can't pin a gateway
/// worker while admitted connections starve.
fn await_next_request(stream: &mut TcpStream, shared: &Shared) -> IdleWait {
    let slice = Duration::from_millis(20).min(shared.config.read_timeout);
    let deadline = Instant::now() + shared.config.read_timeout;
    let _ = stream.set_read_timeout(Some(slice));
    let mut byte = [0u8; 1];
    let outcome = loop {
        if shared.stop.load(Ordering::SeqCst) || !shared.queue.is_empty() {
            break IdleWait::Yield;
        }
        match stream.peek(&mut byte) {
            Ok(0) => break IdleWait::Gone,
            Ok(_) => break IdleWait::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    break IdleWait::Gone;
                }
            }
            Err(_) => break IdleWait::Gone,
        }
    };
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    outcome
}

fn handle_connection(shared: &Shared, conns: &mut ConnCache, inbound: Inbound) {
    let queue_wait_us = inbound.enqueued.elapsed().as_micros() as u64;
    let mut stream = inbound.stream;
    let mut reader = http::RequestReader::new();
    for served in 0..shared.config.max_requests_per_connection {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if served > 0 && reader.buffered() == 0 {
            match await_next_request(&mut stream, shared) {
                IdleWait::Ready => {}
                IdleWait::Yield | IdleWait::Gone => break,
            }
        }
        // Read under a *total* header deadline — per-read timeouts alone
        // reset on every dripped byte (slow loris).
        let request = match http::read_request_deadline(
            &mut reader,
            &mut stream,
            shared.config.limits,
            shared.config.read_timeout,
            shared.config.header_timeout,
        ) {
            Ok(request) => request,
            Err(e) => {
                let status = match e {
                    ReadError::Closed | ReadError::TimedOut | ReadError::Io(_) => break,
                    ReadError::HeaderTimeout => 408,
                    ReadError::HeadTooLarge | ReadError::BodyTooLarge => 413,
                    ReadError::Malformed(_) => 400,
                };
                shared.metrics.count_response(status);
                let body = Json::object().field("error", e.to_string()).to_string();
                let _ = Response::json(status, body).write_to(&mut stream, false);
                break;
            }
        };
        let started = Instant::now();
        shared
            .metrics
            .routes
            .count(&request.method, &request.target);
        let routed = route(shared, conns, &request);
        let elapsed_us = started.elapsed().as_micros() as u64;
        shared.metrics.count_response(routed.response.status());
        // Same fairness rule as the backends: when other client
        // connections are queued for a worker, close after this response
        // so the slot cycles instead of pinning to one keep-alive peer.
        let keep_alive = request.wants_keep_alive()
            && !routed.close
            && served + 1 < shared.config.max_requests_per_connection
            && shared.queue.is_empty()
            && !shared.stop.load(Ordering::SeqCst);
        shared.log.event(
            Json::object()
                .field("evt", "gateway")
                .field("method", request.method.as_str())
                .field("target", request.target.as_str())
                .field("status", routed.response.status() as u64)
                .field("queue_wait_us", if served == 0 { queue_wait_us } else { 0 })
                .field("us", elapsed_us)
                .field("bytes", routed.response.body_len()),
        );
        if routed.response.write_to(&mut stream, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

/// What the router produced for one request.
struct Routed {
    response: Response,
    close: bool,
}

thread_local! {
    /// Per-thread upstream keep-alive connections, one per backend — the
    /// event-driven engine's equivalent of the per-worker `ConnCache` the
    /// threaded pool passes around explicitly. Each pool worker (and the
    /// reactor thread, though it never forwards) gets its own cache, so
    /// upstream pooling stays lock-free.
    static UPSTREAM: RefCell<ConnCache> = RefCell::new(HashMap::new());
}

/// The gateway application behind the event-driven engine: probes and
/// control answered on the reactor, upstream forwarding deferred to the
/// worker pool (it blocks on backend I/O).
struct GatewayApp {
    shared: Arc<Shared>,
}

impl GatewayApp {
    /// Counts and logs one finished response, mirroring the threaded
    /// path's per-request `evt:gateway` record.
    fn account(&self, request: &Request, outcome: &Outcome, queue_wait_us: u64, compute_us: u64) {
        let shared = &self.shared;
        shared.metrics.count_response(outcome.response.status());
        shared.log.event(
            Json::object()
                .field("evt", "gateway")
                .field("method", request.method.as_str())
                .field("target", request.target.as_str())
                .field("status", outcome.response.status() as u64)
                .field("queue_wait_us", queue_wait_us)
                .field("us", compute_us)
                .field("bytes", outcome.response.body_len()),
        );
    }
}

impl reactor::App for GatewayApp {
    fn dispatch(&self, request: &Request) -> Dispatch {
        match (request.method.as_str(), request.target.as_str()) {
            // Forwarding blocks on upstream sockets: pool work. A grid
            // scatter additionally blocks on the whole fan-out.
            ("GET" | "POST", "/v1/experiments") | ("POST", "/v1/grids") => Dispatch::Defer,
            _ => {
                let started = Instant::now();
                self.shared
                    .metrics
                    .routes
                    .count(&request.method, &request.target);
                let routed =
                    UPSTREAM.with(|conns| route(&self.shared, &mut conns.borrow_mut(), request));
                let compute_us = started.elapsed().as_micros() as u64;
                let outcome = Outcome {
                    response: routed.response,
                    cache: "-",
                    close: routed.close,
                };
                self.account(request, &outcome, 0, compute_us);
                Dispatch::Inline(outcome)
            }
        }
    }

    fn execute(&self, request: &Request) -> Outcome {
        self.shared
            .metrics
            .routes
            .count(&request.method, &request.target);
        let routed = UPSTREAM.with(|conns| route(&self.shared, &mut conns.borrow_mut(), request));
        Outcome {
            response: routed.response,
            cache: "-",
            close: routed.close,
        }
    }

    fn on_connection(&self) {
        self.shared
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_response(
        &self,
        request: &Request,
        outcome: &Outcome,
        queue_wait_us: u64,
        compute_us: u64,
    ) {
        self.account(request, outcome, queue_wait_us, compute_us);
    }

    fn shed(&self, _queue_len: usize) -> Response {
        shed_response(&self.shared)
    }

    fn on_request_error(&self, status: u16) {
        self.shared.metrics.count_response(status);
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst) || self.shared.stop.load(Ordering::SeqCst)
    }
}

fn route(shared: &Shared, conns: &mut ConnCache, request: &Request) -> Routed {
    let pass = |response: Response| Routed {
        response,
        close: false,
    };
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => pass(Response::text(200, "ok\n")),
        ("GET", "/readyz") => pass(readiness(shared)),
        ("GET", "/metrics") => {
            let io = &shared.io_stats;
            let depth = shared
                .jobs
                .as_ref()
                .map_or_else(|| shared.queue.len(), |j| j.len());
            pass(
                Response::new(200)
                    .header("content-type", "text/plain; version=0.0.4; charset=utf-8")
                    .body(metrics::render(
                        &shared.metrics,
                        &shared.backends,
                        depth,
                        (
                            io.registered_fds.load(Ordering::Relaxed),
                            io.ready_depth.load(Ordering::Relaxed),
                            io.timer_fires.load(Ordering::Relaxed),
                        ),
                    )),
            )
        }
        ("GET", "/v1/cluster") => pass(Response::json(200, cluster_status(shared))),
        ("GET", "/v1/experiments") => pass(forward(shared, conns, request, None)),
        ("POST", "/v1/experiments") => {
            // Parse only to derive the routing key; an unparsable body
            // still goes upstream (unkeyed) so the client sees the
            // backend's own positioned 400 — the gateway is a
            // transport, not a second validator.
            let key = ExperimentRequest::from_body(&request.body)
                .ok()
                .map(|r| r.cache_key());
            pass(forward(shared, conns, request, key))
        }
        ("POST", "/v1/grids") => serve_grid(shared, &request.body),
        ("POST", "/v1/shutdown") => {
            signal_shutdown(shared);
            Routed {
                response: Response::json(200, r#"{"status":"shutting down"}"#),
                close: true,
            }
        }
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/cluster" | "/v1/experiments" | "/v1/grids"
            | "/v1/shutdown",
        ) => pass(Response::json(405, r#"{"error":"method not allowed"}"#)),
        _ => pass(Response::json(404, r#"{"error":"not found"}"#)),
    }
}

/// Gateway readiness: `503` while draining or while no backend is in
/// rotation (nothing upstream could answer), `200` otherwise.
fn readiness(shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::json(503, r#"{"ready":false,"reason":"draining"}"#)
            .header("retry-after", "1");
    }
    let now = Instant::now();
    if !shared.backends.iter().any(|b| b.in_rotation(now)) {
        return Response::json(503, r#"{"ready":false,"reason":"no backend in rotation"}"#)
            .header("retry-after", "1");
    }
    Response::text(200, "ready\n")
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
        .field("proxied", load(&shared.proxied))
        .field("retries", load(&shared.retries))
        .field("grids", load(&shared.metrics.grids_total))
        .field("grid_cells", load(&shared.metrics.grid_cells_total))
        .field("grid_window", shared.config.grid_window as u64)
        .to_string()
}

/// The per-key (or round-robin) order in which backends are tried:
/// ring replicas first, then every remaining backend as a last resort,
/// so a request only fails once the whole fleet is unreachable.
fn candidate_order(shared: &Shared, key: Option<&str>) -> Vec<usize> {
    let n = shared.backends.len();
    let mut order = match key {
        Some(key) => shared.ring.replicas(key, shared.config.replicas),
        None => {
            let start = (shared.round_robin.fetch_add(1, Ordering::Relaxed) as usize) % n;
            return (0..n).map(|j| (start + j) % n).collect();
        }
    };
    for idx in 0..n {
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
fn rotation_order(shared: &Shared, key: Option<&str>) -> Vec<usize> {
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

/// Takes one unit of the global retry budget, if any remains.
fn take_retry(shared: &Shared) -> bool {
    let allowed = shared.proxied.load(Ordering::Relaxed) / 5 + shared.config.retry_burst;
    let mut current = shared.retries.load(Ordering::Relaxed);
    loop {
        if current >= allowed {
            return false;
        }
        match shared.retries.compare_exchange_weak(
            current,
            current + 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                shared.metrics.retries_total.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            Err(seen) => current = seen,
        }
    }
}

fn log_transition(shared: &Shared, backend: &Backend, t: Option<crate::breaker::Transition>) {
    if let Some(t) = t {
        shared.log.event(
            Json::object()
                .field("evt", "breaker")
                .field("backend", backend.addr.as_str())
                .field("from", t.from.name())
                .field("to", t.to.name()),
        );
    }
}

/// One upstream exchange over the worker's pooled connection (fresh
/// reconnect if the pooled one was idled out by the backend).
fn attempt(
    shared: &Shared,
    conns: &mut ConnCache,
    idx: usize,
    request: &Request,
) -> Result<ClientResponse, String> {
    let backend = &shared.backends[idx];
    backend.stats.attempts.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let result = send_pooled(shared, conns, idx, request);
    let us = started.elapsed().as_micros() as u64;
    backend.stats.latency.observe_us(us);
    shared.metrics.upstream_latency.observe_us(us);
    result
}

fn send_pooled(
    shared: &Shared,
    conns: &mut ConnCache,
    idx: usize,
    request: &Request,
) -> Result<ClientResponse, String> {
    // A reused keep-alive connection failing usually means the backend
    // idled it out between requests; fall through to a fresh connection
    // before declaring a real failure.
    if let Some(mut conn) = conns.remove(&idx) {
        if let Ok(response) = conn.send(&request.method, &request.target, &request.body) {
            if !Connection::must_close(&response) {
                conns.insert(idx, conn);
            }
            return Ok(response);
        }
    }
    let mut conn = Connection::connect(
        &shared.backends[idx].addr,
        shared.config.connect_timeout,
        shared.config.io_timeout,
    )
    .map_err(|e| format!("connect: {e}"))?;
    match conn.send(&request.method, &request.target, &request.body) {
        Ok(response) => {
            if !Connection::must_close(&response) {
                conns.insert(idx, conn);
            }
            Ok(response)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Copies a backend response through verbatim: status, body bytes, and
/// the headers that matter to clients. This is where the byte-identity
/// guarantee lives — the body is never re-encoded.
fn passthrough(upstream: ClientResponse) -> Response {
    let mut response = Response::new(upstream.status);
    for name in ["content-type", "retry-after"] {
        if let Some(value) = upstream.header(name) {
            response = response.header(name, value);
        }
    }
    response.body(upstream.body)
}

/// The failover proxy path shared by keyed and unkeyed routes.
fn forward(
    shared: &Shared,
    conns: &mut ConnCache,
    request: &Request,
    key: Option<String>,
) -> Response {
    let started = Instant::now();
    shared.metrics.proxied_total.fetch_add(1, Ordering::Relaxed);
    shared.proxied.fetch_add(1, Ordering::Relaxed);
    let rotation = rotation_order(shared, key.as_deref());
    let response = if let (Some(hedge_after), Some(_)) = (shared.config.hedge_after, key.as_ref()) {
        forward_hedged(shared, &rotation, request, hedge_after)
    } else {
        forward_serial(shared, conns, &rotation, request)
    };
    shared
        .metrics
        .proxy_latency
        .observe_us(started.elapsed().as_micros() as u64);
    response
}

/// All candidates exhausted: pass a backend's `503` through (so clients
/// back off exactly as against a single overloaded server), or tell the
/// truth about an unreachable fleet.
fn exhausted(shared: &Shared, last_shed: Option<ClientResponse>) -> Response {
    shared
        .metrics
        .unavailable_total
        .fetch_add(1, Ordering::Relaxed);
    match last_shed {
        Some(upstream) => passthrough(upstream),
        None => Response::json(503, r#"{"error":"no backend available, retry shortly"}"#)
            .header("retry-after", "1"),
    }
}

fn forward_serial(
    shared: &Shared,
    conns: &mut ConnCache,
    candidates: &[usize],
    request: &Request,
) -> Response {
    match failover_serial(shared, conns, candidates, request, None) {
        Ok(upstream) => passthrough(upstream),
        Err(last_shed) => exhausted(shared, last_shed),
    }
}

/// A synthesized `POST /v1/cells` upstream request for one batch body.
fn cell_request(body: String) -> Request {
    Request {
        method: "POST".to_string(),
        target: "/v1/cells".to_string(),
        version: Version::Http11,
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

/// Dispatches one grid batch along its route key's replica order, with
/// the same breaker/retry failover as the experiment proxy path and the
/// hedging path handling stragglers when configured. The window bounds
/// this grid's in-flight batches per backend. `owner` is the grid's
/// balanced assignment for this key: when it is still in rotation it is
/// tried first, and the rest of the replica order backs it up.
fn dispatch_batch(
    shared: &Shared,
    conns: &mut ConnCache,
    batch: &grid::BatchPlan,
    windows: &grid::Windows,
    owner: Option<usize>,
) -> Result<ClientResponse, Option<ClientResponse>> {
    shared
        .metrics
        .grid_cells_total
        .fetch_add(batch.cells.len() as u64, Ordering::Relaxed);
    let request = cell_request(batch.body.clone());
    let mut rotation = rotation_order(shared, Some(&batch.route_key));
    if let Some(owner) = owner {
        if let Some(pos) = rotation.iter().position(|&idx| idx == owner) {
            rotation.remove(pos);
            rotation.insert(0, owner);
        }
    }
    match shared.config.hedge_after {
        Some(hedge_after) => {
            // The hedged path spawns its own attempt threads; hold the
            // primary's window slot for the duration so a grid's hedged
            // batches still respect the per-backend bound.
            let _slot = windows.acquire(rotation[0]);
            failover_hedged(shared, &rotation, &request, hedge_after)
        }
        None => failover_serial(shared, conns, &rotation, &request, Some(windows)),
    }
}

/// The grid's balanced key→backend assignment: the batches' route keys
/// in plan order, each with its live replica order, handed to
/// [`grid::balanced_assignments`] so no backend owns more than its fair
/// share of this grid's trace emulations.
fn grid_owners(shared: &Shared, plan: &grid::GridPlan) -> HashMap<String, usize> {
    let candidates: Vec<(String, Vec<usize>)> = plan
        .batches
        .iter()
        .map(|b| {
            (
                b.route_key.clone(),
                rotation_order(shared, Some(&b.route_key)),
            )
        })
        .collect();
    grid::balanced_assignments(&candidates, shared.backends.len())
}

/// `POST /v1/grids`: scatter-gather grid execution.
///
/// Decomposes the request into cells (one per distinct simulation
/// demand), groups them into one batch per `workload@scale` trace key,
/// sends each batch to its key's owner over dispatcher lanes with bounded
/// per-backend windows, merges partial results as they stream back, and
/// renders the response in request order — byte-identical to a lone
/// backend serving the same grid. The cells of a batch that every
/// candidate fails, or that comes back malformed, are computed locally
/// by the merger, so backend loss degrades latency, never the answer.
fn serve_grid(shared: &Shared, body: &[u8]) -> Routed {
    let bad = |message: String| Routed {
        response: Response::json(400, Json::object().field("error", message).to_string()),
        close: false,
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return bad("body is not UTF-8".to_string());
    };
    let grid_request = match GridRequest::from_body(text) {
        Ok(request) => request,
        Err(message) => return bad(message),
    };
    shared.metrics.grids_total.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let plan = grid::plan(&grid_request);
    let owners = grid_owners(shared, &plan);
    let mut merger = grid::Merger::new(&grid_request, Runner::new(1));
    let windows = grid::Windows::new(shared.backends.len(), shared.config.grid_window);

    let batches = &plan.batches;
    let mut failed_cells = 0usize;
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Result<ClientResponse, Option<ClientResponse>>)>();
        let lanes = batches
            .len()
            .min(shared.backends.len() * shared.config.grid_window)
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
                shared.log.event(
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
    let response = match merger.finish() {
        Ok(doc) => Response::json(200, doc),
        Err(message) => Response::json(500, Json::object().field("error", message).to_string()),
    };
    shared.log.event(
        Json::object()
            .field("evt", "grid")
            .field("experiments", grid_request.experiments.len() as u64)
            .field("batches", batches.len() as u64)
            .field("accepted", accepted as u64)
            .field("failed", failed_cells as u64)
            .field("us", started.elapsed().as_micros() as u64),
    );
    Routed {
        response,
        close: false,
    }
}

/// The serial failover loop shared by the experiment proxy path and
/// grid-cell dispatch: walk the candidates under breaker and
/// retry-budget control and return the first non-shed upstream answer,
/// or `Err(last shed response)` once every candidate is exhausted.
/// `windows` (grid dispatch) bounds per-backend in-flight attempts.
fn failover_serial(
    shared: &Shared,
    conns: &mut ConnCache,
    candidates: &[usize],
    request: &Request,
    windows: Option<&grid::Windows>,
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
        let _slot = windows.map(|w| w.acquire(idx));
        match attempt(shared, conns, idx, request) {
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
                shared.log.event(
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

/// The hedged proxy path: attempts run in spawned threads over fresh
/// connections, all reporting into one channel; a timeout launches the
/// next candidate (a hedge), a failure launches it immediately (a
/// failover), and the first non-shed response wins.
fn forward_hedged(
    shared: &Shared,
    candidates: &[usize],
    request: &Request,
    hedge_after: Duration,
) -> Response {
    match failover_hedged(shared, candidates, request, hedge_after) {
        Ok(upstream) => passthrough(upstream),
        Err(last_shed) => exhausted(shared, last_shed),
    }
}

/// The hedged failover loop behind [`forward_hedged`], also used per
/// grid cell when hedging is configured. Returns the winning upstream
/// response, or `Err(last shed response)` once exhausted.
fn failover_hedged(
    shared: &Shared,
    candidates: &[usize],
    request: &Request,
    hedge_after: Duration,
) -> Result<ClientResponse, Option<ClientResponse>> {
    let (tx, rx) = mpsc::channel::<(usize, Result<ClientResponse, String>)>();
    let deadline = Instant::now() + shared.config.io_timeout;
    let mut next = 0usize;
    let mut in_flight = 0u32;
    let mut spawned = 0u32;
    let mut first_spawned = usize::MAX;
    let mut last_shed: Option<ClientResponse> = None;

    // Launches the next breaker-approved candidate, if the budget allows.
    let launch = |next: &mut usize,
                  in_flight: &mut u32,
                  spawned: &mut u32,
                  first_spawned: &mut usize,
                  is_hedge: bool|
     -> bool {
        while *next < candidates.len() {
            let idx = candidates[*next];
            *next += 1;
            let backend = Arc::clone(&shared.backends[idx]);
            let (allowed, transition) = backend.with_breaker(|b| b.try_acquire(Instant::now()));
            log_transition(shared, &backend, transition);
            if !allowed {
                continue;
            }
            if *spawned >= 1 && !take_retry(shared) {
                backend.with_breaker(|b| b.cancel_acquire());
                return false;
            }
            if *spawned >= 1 {
                if is_hedge {
                    shared.metrics.hedges_total.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared
                        .metrics
                        .failovers_total
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            if *spawned == 0 {
                *first_spawned = idx;
            }
            *spawned += 1;
            *in_flight += 1;
            let tx = tx.clone();
            let method = request.method.clone();
            let target = request.target.clone();
            let body = request.body.clone();
            let timeout = shared.config.io_timeout;
            let metrics_latency = Instant::now();
            std::thread::spawn(move || {
                backend.stats.attempts.fetch_add(1, Ordering::Relaxed);
                let result = client::request_once(&backend.addr, &method, &target, &body, timeout)
                    .map_err(|e| e.to_string());
                backend
                    .stats
                    .latency
                    .observe_us(metrics_latency.elapsed().as_micros() as u64);
                let _ = tx.send((idx, result));
            });
            return true;
        }
        false
    };

    launch(
        &mut next,
        &mut in_flight,
        &mut spawned,
        &mut first_spawned,
        false,
    );
    loop {
        if in_flight == 0
            && !launch(
                &mut next,
                &mut in_flight,
                &mut spawned,
                &mut first_spawned,
                false,
            )
        {
            return Err(last_shed);
        }
        match rx.recv_timeout(hedge_after) {
            Ok((idx, Ok(upstream))) if upstream.status == 503 => {
                in_flight -= 1;
                let backend = &shared.backends[idx];
                backend.stats.sheds.fetch_add(1, Ordering::Relaxed);
                backend.with_breaker(|b| b.cancel_acquire());
                last_shed = Some(upstream);
            }
            Ok((idx, Ok(upstream))) => {
                let backend = &shared.backends[idx];
                let t = backend.with_breaker(|b| b.record_success(Instant::now()));
                log_transition(shared, backend, t);
                if idx != first_spawned {
                    shared
                        .metrics
                        .hedge_wins_total
                        .fetch_add(1, Ordering::Relaxed);
                }
                return Ok(upstream);
            }
            Ok((idx, Err(error))) => {
                in_flight -= 1;
                let backend = &shared.backends[idx];
                backend.stats.failures.fetch_add(1, Ordering::Relaxed);
                let t = backend.with_breaker(|b| b.record_failure(Instant::now()));
                log_transition(shared, backend, t);
                shared.log.event(
                    Json::object()
                        .field("evt", "upstream_error")
                        .field("backend", backend.addr.as_str())
                        .field("error", error),
                );
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // The in-flight attempt is slow: hedge onto the next
                // candidate, or give up past the overall deadline.
                let launched = launch(
                    &mut next,
                    &mut in_flight,
                    &mut spawned,
                    &mut first_spawned,
                    true,
                );
                if !launched && Instant::now() >= deadline {
                    return Err(last_shed);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(last_shed);
            }
        }
    }
}

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
                shared.config.seed.wrapping_add(0x9e37 + i as u64),
            )
        })
        .collect();
    let mut due: Vec<Instant> = vec![Instant::now(); n];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        for (i, backend) in shared.backends.iter().enumerate() {
            if due[i] > now {
                continue;
            }
            let verdict = client::request_once(
                &backend.addr,
                "GET",
                "/readyz",
                b"",
                shared.config.probe_timeout,
            );
            let healthy = matches!(verdict, Ok(ref r) if r.status == 200);
            let was = backend.set_healthy(healthy);
            if was != healthy {
                shared.log.event(
                    Json::object()
                        .field("evt", "health")
                        .field("backend", backend.addr.as_str())
                        .field("healthy", healthy),
                );
                if healthy && shared.config.handoff {
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
        let guard = shared
            .shutdown_flag
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if *guard {
            return;
        }
        let _ = shared
            .shutdown_cv
            .wait_timeout(guard, sleep.max(Duration::from_millis(5)));
    }
}

/// Handoff fill chunks stay comfortably under the backends' default
/// 64 KiB request-body limit.
const HANDOFF_CHUNK_BYTES: usize = 48 * 1024;

/// The ring key a cached entry is placed by. A `cell:` entry goes where
/// its grid batch is routed — its job's `workload@scale` trace key — so
/// a backend receives the cells it will be asked for; an `(experiment,
/// scale)` entry, or a cell whose job this process cannot decode, is
/// placed by its own key.
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
        let dump = match client::request_once(
            &donor.addr,
            "GET",
            "/v1/cache",
            b"",
            shared.config.io_timeout,
        ) {
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
                shared.config.io_timeout,
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
    shared.log.event(
        Json::object()
            .field("evt", "handoff")
            .field("backend", target.addr.as_str())
            .field("keys", transferred)
            .field("candidates", owned.len())
            .field("errors", errors),
    );
}
