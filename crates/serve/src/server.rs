//! The HTTP server: acceptor thread, bounded admission, fixed worker
//! pool, routing, and graceful shutdown.
//!
//! Connection lifecycle: the acceptor accepts, stamps an admission time,
//! and pushes the connection into the bounded queue — or, when the queue
//! is full, immediately writes `503` + `Retry-After` and closes (explicit
//! load shedding, never unbounded buffering). A worker pops the
//! connection and serves requests on it until the client closes, an idle
//! timeout fires, or the per-connection request cap is reached.
//!
//! Graceful shutdown (triggered by [`Server::shutdown`] or a
//! `POST /v1/shutdown` — the SIGTERM surrogate, since plain `std` has no
//! signal handling): stop accepting, close the queue, let workers drain
//! queued and in-flight connections, join everything, then flush a final
//! metrics summary to the structured log.

use crate::access_log::{AccessLog, AccessRecord};
use crate::http::{self, Limits, ReadError, Request, Response};
use crate::io::reactor::{self, Dispatch, Outcome};
use crate::io::IoModel;
use crate::metrics::{self, Gauges, Metrics};
use crate::persist;
use crate::queue::Bounded;
use crate::result_cache::ResultCache;
use crate::service::{cell_key, CellBatch, ExperimentRequest, Service};
use mds_harness::json::Json;
use mds_runner::TraceCache;
use mds_store::{Store, StoreConfig};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the structured access log goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogTarget {
    /// JSON lines to stderr (production).
    Stderr,
    /// Nowhere (benchmarks, `--quiet`).
    Discard,
    /// An in-memory buffer (tests).
    Memory,
}

/// Server tunables. `Default` is a sensible local configuration; tests
/// override the pieces they probe.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection-serving worker threads. Zero is allowed (nothing is
    /// ever served — useful to test admission backpressure).
    pub workers: usize,
    /// Admission-queue capacity; beyond it, connections get `503`.
    pub queue_depth: usize,
    /// Simulation worker threads for the shared runner (`None`: from
    /// `MDS_JOBS` or available parallelism).
    pub jobs: Option<usize>,
    /// Per-connection read timeout (also the keep-alive idle timeout).
    pub read_timeout: Duration,
    /// Total deadline for one request head, first byte to final CRLF.
    /// Distinct from `read_timeout`, which only bounds the gap between
    /// reads — a drip-fed header resets that clock forever (slow loris);
    /// this one it cannot reset.
    pub header_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Request head/body size limits.
    pub limits: Limits,
    /// Keep-alive cap: requests served per connection before closing.
    pub max_requests_per_connection: usize,
    /// Result-cache byte budget.
    pub cache_budget_bytes: usize,
    /// Durable result store directory (`None`: in-memory cache only).
    /// When set, the result cache is prewarmed from the store at boot
    /// and every cache fill is appended, so warm state survives
    /// restarts — including `kill -9`.
    pub store_dir: Option<PathBuf>,
    /// Access-log destination.
    pub log: LogTarget,
    /// Connection engine: event-driven `epoll` (default on Linux) or the
    /// legacy thread-per-connection pool.
    pub io: IoModel,
    /// Concurrent-connection cap under `--io epoll`; accepts beyond it
    /// are shed with `503` immediately. (The threaded engine is capped
    /// by `workers + queue_depth` by construction.)
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
            max_requests_per_connection: 1000,
            cache_budget_bytes: 16 * 1024 * 1024,
            store_dir: None,
            log: LogTarget::Stderr,
            io: IoModel::default(),
            max_connections: 10_000,
        }
    }
}

/// An admitted connection, stamped for queue-wait accounting.
struct Admitted {
    stream: TcpStream,
    enqueued: Instant,
}

/// State shared by the acceptor, the workers, and the handle.
struct Shared {
    config: ServerConfig,
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
    metrics: Metrics,
    log: AccessLog,
    queue: Bounded<Admitted>,
    /// The request-level work queue under `--io epoll`: parsed requests
    /// waiting for a worker. `None` under `--io threads`, where the
    /// admission queue above holds whole connections instead.
    jobs: Option<Arc<Bounded<reactor::Job>>>,
    /// Reactor gauges (`mds_io_*`); all-zero under `--io threads`.
    io_stats: Arc<reactor::IoStats>,
    stop: AtomicBool,
    /// Set the moment shutdown is *requested* (before the drain finishes),
    /// so the readiness probe flips to 503 while in-flight work completes
    /// and a gateway can eject this backend ahead of hard failures.
    draining: AtomicBool,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl Shared {
    /// Work waiting for a worker: queued requests under `--io epoll`,
    /// queued connections under `--io threads`.
    fn depth(&self) -> usize {
        self.jobs
            .as_ref()
            .map_or_else(|| self.queue.len(), |j| j.len())
    }

    /// Capacity of whichever queue [`Shared::depth`] reports on.
    fn depth_capacity(&self) -> usize {
        self.jobs
            .as_ref()
            .map_or_else(|| self.queue.capacity(), |j| j.capacity())
    }
}

/// A running server. Dropping it performs a graceful shutdown.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Background drain point for deferred store work (compaction);
    /// `None` when no store is attached.
    maintenance: Option<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    reactor: Option<reactor::Reactor>,
    /// Guards the final summary so Drop after `shutdown` is a no-op.
    finished: bool,
}

impl Server {
    /// Binds, spawns the acceptor and workers, and returns immediately.
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let service = Service::new(config.jobs)?;
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
        // The epoch must be computed after any WDL registration (the
        // binary registers families before calling `start`), because
        // registered fingerprints are part of output identity.
        let epoch = persist::effective_epoch();
        let results = ResultCache::new(config.cache_budget_bytes);
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
                log.event(
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
        let io = config.io.effective();
        let jobs = match io {
            IoModel::Epoll => Some(Arc::new(Bounded::new(config.queue_depth))),
            IoModel::Threads => None,
        };
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_depth),
            results,
            store,
            epoch,
            prewarmed,
            config,
            service,
            metrics: Metrics::default(),
            log,
            jobs,
            io_stats: Arc::new(reactor::IoStats::default()),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        // The maintenance thread is the drain point for deferred store
        // work: appends never compact the log inline (that would stall
        // the unlucky request), so this sweep does it off the request
        // path. Spawned before the engine branch — both io models need
        // it.
        let maintenance = match &shared.store {
            None => None,
            Some(_) => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("mds-serve-maintenance".to_string())
                        .spawn(move || maintenance_loop(&shared))
                        .map_err(|e| format!("cannot spawn maintenance: {e}"))?,
                )
            }
        };
        #[cfg(target_os = "linux")]
        if io == IoModel::Epoll {
            let app = Arc::new(ServeApp {
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
            return Ok(Server {
                shared,
                local_addr,
                acceptor: None,
                workers: Vec::new(),
                maintenance,
                reactor: Some(reactor),
                finished: false,
            });
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mds-serve-acceptor".to_string())
                .spawn(move || accept_loop(&shared, listener))
                .map_err(|e| format!("cannot spawn acceptor: {e}"))?
        };
        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mds-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(conn) = shared.queue.pop() {
                            handle_connection(&shared, conn);
                        }
                    })
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
            maintenance,
            #[cfg(target_os = "linux")]
            reactor: None,
            finished: false,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Request-path counters (tests, final summaries).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
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

    /// Work currently waiting for a worker: parsed requests under
    /// `--io epoll`, whole connections under `--io threads`.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth()
    }

    /// Reactor gauges (`mds_io_*`); all-zero under `--io threads`.
    pub fn io_stats(&self) -> &reactor::IoStats {
        &self.shared.io_stats
    }

    /// Buffered log lines (only with [`LogTarget::Memory`]).
    pub fn log_lines(&self) -> Vec<String> {
        self.shared.log.lines()
    }

    /// Blocks until a client posts `/v1/shutdown` (or [`Server::shutdown`]
    /// runs from another thread).
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
    /// connections, join all threads, flush the final metrics summary.
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
            // Wake the acceptor out of its blocking accept().
            let _ = TcpStream::connect(self.local_addr);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(maintenance) = self.maintenance.take() {
            let _ = maintenance.join();
        }
        let m = &self.shared.metrics;
        let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
        self.shared.log.event(
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
/// debt — see [`mds_store::Store::append`]). Wakes every 100ms on the
/// shutdown condvar, and runs one final sweep after shutdown is
/// signalled so a drained server leaves a compact store behind.
fn maintenance_loop(shared: &Shared) {
    let Some(store) = &shared.store else {
        return;
    };
    let sweep = |store: &Store| match store.compact_if_due() {
        Ok(false) => {}
        Ok(true) => shared.log.event(
            Json::object()
                .field("evt", "store_compact")
                .field("snapshot_bytes", store.snapshot_bytes()),
        ),
        Err(e) => shared.log.event(
            Json::object()
                .field("evt", "store_compact_error")
                .field("error", e.to_string()),
        ),
    };
    let mut requested = shared
        .shutdown_flag
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    while !*requested {
        requested = shared
            .shutdown_cv
            .wait_timeout(requested, Duration::from_millis(100))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        if !*requested {
            drop(requested);
            sweep(store);
            requested = shared
                .shutdown_flag
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    drop(requested);
    sweep(store);
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
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let _ = stream.set_nodelay(true);
        let admitted = Admitted {
            stream,
            enqueued: Instant::now(),
        };
        if let Err(rejected) = shared.queue.push(admitted) {
            shed(shared, rejected.stream);
        }
    }
    shared.queue.close();
}

/// Counts and logs one shed, returning the backpressure response. Shared
/// by the threaded acceptor (which sheds whole connections) and the
/// event-driven engine (which sheds individual requests when the job
/// queue or connection table is full).
fn shed_response(shared: &Shared, queue_depth: usize) -> Response {
    shared
        .metrics
        .rejected_total
        .fetch_add(1, Ordering::Relaxed);
    shared.metrics.count_response(503);
    shared.log.event(
        Json::object()
            .field("evt", "shed")
            .field("status", 503u64)
            .field("queue_depth", queue_depth),
    );
    Response::json(503, r#"{"error":"admission queue full, retry shortly"}"#)
        .header("retry-after", "1")
}

/// Writes the backpressure response on an over-capacity connection.
fn shed(shared: &Shared, mut stream: TcpStream) {
    let response = shed_response(shared, shared.queue.len());
    let _ = response.write_to(&mut stream, false);
}

/// The serving application behind the event-driven engine: the same
/// `route` as the threaded path, with metrics and access logging hung on
/// the reactor's callbacks.
struct ServeApp {
    shared: Arc<Shared>,
}

impl ServeApp {
    /// Counts and logs one finished response.
    fn account(&self, request: &Request, outcome: &Outcome, queue_wait_us: u64, compute_us: u64) {
        let shared = &self.shared;
        shared.metrics.queue_wait.observe_us(queue_wait_us);
        shared.metrics.compute.observe_us(compute_us);
        shared.metrics.count_response(outcome.response.status());
        shared.log.record(&AccessRecord {
            method: request.method.clone(),
            target: request.target.clone(),
            status: outcome.response.status(),
            queue_wait_us,
            compute_us,
            cache: outcome.cache,
            bytes: outcome.response.body_len(),
        });
    }
}

impl reactor::App for ServeApp {
    fn dispatch(&self, request: &Request) -> Dispatch {
        // The worker pool is for *work*: experiment execution and store
        // writes. Probes, metrics, and control answers stay on the
        // reactor thread, where they cost microseconds and skip a hop.
        match (request.method.as_str(), request.target.as_str()) {
            ("POST", "/v1/experiments" | "/v1/grids" | "/v1/cells") | (_, "/v1/cache") => {
                Dispatch::Defer
            }
            _ => {
                let started = Instant::now();
                let routed = route(&self.shared, request);
                let compute_us = started.elapsed().as_micros() as u64;
                let outcome = Outcome {
                    response: routed.response,
                    cache: routed.cache,
                    close: routed.close,
                };
                self.account(request, &outcome, 0, compute_us);
                Dispatch::Inline(outcome)
            }
        }
    }

    fn execute(&self, request: &Request) -> Outcome {
        let routed = route(&self.shared, request);
        Outcome {
            response: routed.response,
            cache: routed.cache,
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

    fn shed(&self, queue_len: usize) -> Response {
        shed_response(&self.shared, queue_len)
    }

    fn on_request_error(&self, status: u16) {
        self.shared.metrics.count_response(status);
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst) || self.shared.stop.load(Ordering::SeqCst)
    }
}

/// What the router produced for one request.
struct Routed {
    response: Response,
    cache: &'static str,
    /// Close the connection after this response regardless of keep-alive.
    close: bool,
}

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

/// Blocks until the next request's first byte arrives, but in short
/// slices that re-check the admission queue: a worker parked on an idle
/// keep-alive connection would otherwise be pinned for the whole read
/// timeout while admitted connections starve behind it. Restores the
/// configured read timeout before returning.
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

fn handle_connection(shared: &Shared, admitted: Admitted) {
    let queue_wait_us = admitted.enqueued.elapsed().as_micros() as u64;
    shared.metrics.queue_wait.observe_us(queue_wait_us);
    let mut stream = admitted.stream;
    // One reader for the whole connection: bytes a client pipelines past
    // the current request carry over to the next iteration.
    let mut reader = http::RequestReader::new();
    for served in 0..shared.config.max_requests_per_connection {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Between requests (nothing pipelined), wait in queue-aware
        // slices so contended workers cycle instead of idling here.
        if served > 0 && reader.buffered() == 0 {
            match await_next_request(&mut stream, shared) {
                IdleWait::Ready => {}
                IdleWait::Yield | IdleWait::Gone => break,
            }
        }
        // Read under a *total* header deadline: the per-read timeout
        // alone resets on every byte, so a client dripping one header
        // byte per timeout window could pin this worker forever.
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
        let wait = if served == 0 { queue_wait_us } else { 0 };
        let started = Instant::now();
        let routed = route(shared, &request);
        let compute_us = started.elapsed().as_micros() as u64;
        shared.metrics.compute.observe_us(compute_us);
        shared.metrics.count_response(routed.response.status());
        // Yield the worker when other connections are queued for one:
        // a long-lived keep-alive connection would otherwise pin this
        // worker while admitted connections starve behind it (until an
        // idle timeout frees a slot, seconds later). Closing sends the
        // client back through the admission queue, so worker slots cycle
        // fairly under connection oversubscription; with a free worker
        // for every connection, keep-alive persists untouched.
        let keep_alive = request.wants_keep_alive()
            && !routed.close
            && served + 1 < shared.config.max_requests_per_connection
            && shared.queue.is_empty()
            && !shared.stop.load(Ordering::SeqCst);
        shared.log.record(&AccessRecord {
            method: request.method.clone(),
            target: request.target.clone(),
            status: routed.response.status(),
            queue_wait_us: wait,
            compute_us,
            cache: routed.cache,
            bytes: routed.response.body_len(),
        });
        if routed.response.write_to(&mut stream, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

fn route(shared: &Shared, request: &Request) -> Routed {
    let pass = |response: Response| Routed {
        response,
        cache: "-",
        close: false,
    };
    match (request.method.as_str(), request.target.as_str()) {
        // Liveness: the process is up and serving the request path.
        ("GET", "/healthz") => pass(Response::text(200, "ok\n")),
        // Readiness: whether this backend should receive NEW traffic.
        // 503 while the admission queue is saturated (the next connection
        // would be shed anyway) or once shutdown drain has begun, so a
        // gateway ejects the backend before requests start failing.
        ("GET", "/readyz") => pass(readiness(shared)),
        ("GET", "/metrics") => {
            let gauges = Gauges {
                queue_depth: shared.depth(),
                result_cache_entries: shared.results.len(),
                result_cache_bytes: shared.results.resident_bytes(),
                result_cache_evictions: shared.results.evictions(),
                trace_cache_hits: shared.service.trace_cache().hits(),
                trace_cache_misses: shared.service.trace_cache().misses(),
                trace_cache_bytes: shared.service.trace_cache().resident_bytes(),
                store_records: shared.store.as_ref().map_or(0, Store::len),
                store_log_bytes: shared.store.as_ref().map_or(0, Store::log_bytes),
                store_snapshot_bytes: shared.store.as_ref().map_or(0, Store::snapshot_bytes),
                store_prewarmed: shared.prewarmed,
                store_appends: shared.store.as_ref().map_or(0, Store::appends),
                store_append_errors: shared.store.as_ref().map_or(0, Store::append_errors),
                store_compactions: shared.store.as_ref().map_or(0, Store::compactions),
                io_registered_fds: shared.io_stats.registered_fds.load(Ordering::Relaxed),
                io_ready_depth: shared.io_stats.ready_depth.load(Ordering::Relaxed),
                io_timer_fires: shared.io_stats.timer_fires.load(Ordering::Relaxed),
            };
            pass(
                Response::new(200)
                    .header("content-type", "text/plain; version=0.0.4; charset=utf-8")
                    .body(metrics::render(&shared.metrics, gauges)),
            )
        }
        ("GET", "/v1/experiments") => pass(Response::json(200, Service::experiments_json())),
        ("POST", "/v1/experiments") => serve_experiment(shared, &request.body),
        ("POST", "/v1/grids") => serve_grid(shared, &request.body),
        ("POST", "/v1/cells") => serve_cells(shared, &request.body),
        // Warm-state transfer: export (GET) / bulk-import (POST) of the
        // result cache, epoch-tagged. Intra-cluster plumbing — the
        // gateway's ring-neighbor handoff — not a public surface.
        ("GET", "/v1/cache") => pass(Response::json(
            200,
            persist::dump(shared.epoch, &shared.results.entries()),
        )),
        ("POST", "/v1/cache") => pass(fill_cache(shared, &request.body)),
        ("POST", "/v1/shutdown") => {
            signal_shutdown(shared);
            Routed {
                response: Response::json(200, r#"{"status":"shutting down"}"#),
                cache: "-",
                close: true,
            }
        }
        (
            _,
            "/healthz" | "/readyz" | "/metrics" | "/v1/experiments" | "/v1/grids" | "/v1/cells"
            | "/v1/cache" | "/v1/shutdown",
        ) => pass(Response::json(405, r#"{"error":"method not allowed"}"#)),
        _ => pass(Response::json(404, r#"{"error":"not found"}"#)),
    }
}

/// The `GET /readyz` response: `200` when this backend should receive new
/// traffic, `503` + `Retry-After` while draining or saturated.
fn readiness(shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::json(503, r#"{"ready":false,"reason":"draining"}"#)
            .header("retry-after", "1");
    }
    if shared.depth() >= shared.depth_capacity() {
        return Response::json(
            503,
            r#"{"ready":false,"reason":"admission queue saturated"}"#,
        )
        .header("retry-after", "1");
    }
    Response::text(200, "ready\n")
}

fn serve_experiment(shared: &Shared, body: &[u8]) -> Routed {
    let request = match ExperimentRequest::from_body(body) {
        Ok(request) => request,
        Err(message) => {
            let body = Json::object().field("error", message).to_string();
            return Routed {
                response: Response::json(400, body),
                cache: "-",
                close: false,
            };
        }
    };
    match experiment_body(shared, &request) {
        Ok((body, cache)) => Routed {
            response: Response::json(200, body),
            cache,
            close: false,
        },
        Err((status, message)) => Routed {
            response: Response::json(status, Json::object().field("error", message).to_string()),
            cache: "miss",
            close: false,
        },
    }
}

/// The cached-execute core shared by `/v1/experiments` and `/v1/grids`:
/// result-cache read (unless `fresh`), compute on miss, cache + persist
/// the fill. Returns the response body and its cache disposition.
fn experiment_body(
    shared: &Shared,
    request: &ExperimentRequest,
) -> Result<(String, &'static str), (u16, String)> {
    let key = request.cache_key();
    if !request.fresh {
        if let Some(cached) = shared.results.get(&key) {
            shared
                .metrics
                .result_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok((cached.to_string(), "hit"));
        }
    }
    shared
        .metrics
        .result_cache_misses
        .fetch_add(1, Ordering::Relaxed);
    match shared.service.execute(request) {
        Ok(body) => {
            shared.results.put(&key, Arc::from(body.as_str()));
            persist_all(shared, [(key.as_str(), body.as_str())]);
            Ok((body, "miss"))
        }
        Err(message) => Err((500, message)),
    }
}

/// `POST /v1/grids` on a lone backend: every requested experiment served
/// through the same cached-execute core as `/v1/experiments`, documents
/// concatenated in request order. This is the reference the gateway's
/// scatter-gather response must match byte for byte.
fn serve_grid(shared: &Shared, body: &[u8]) -> Routed {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            let body = Json::object()
                .field("error", "body is not UTF-8")
                .to_string();
            return Routed {
                response: Response::json(400, body),
                cache: "-",
                close: false,
            };
        }
    };
    let request = match mds_bench::grid::GridRequest::from_body(text) {
        Ok(request) => request,
        Err(message) => {
            let body = Json::object().field("error", message).to_string();
            return Routed {
                response: Response::json(400, body),
                cache: "-",
                close: false,
            };
        }
    };
    let mut out = String::new();
    let mut all_hit = true;
    for id in &request.experiments {
        let sub = ExperimentRequest {
            experiment: id.clone(),
            scale: request.scale,
            fresh: request.fresh,
        };
        match experiment_body(shared, &sub) {
            Ok((body, cache)) => {
                all_hit &= cache == "hit";
                out.push_str(&body);
            }
            Err((status, message)) => {
                let body = Json::object().field("error", message).to_string();
                return Routed {
                    response: Response::json(status, body),
                    cache: "miss",
                    close: false,
                };
            }
        }
    }
    Routed {
        response: Response::json(200, out),
        cache: if all_hit { "hit" } else { "miss" },
        close: false,
    }
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
fn serve_cells(shared: &Shared, body: &[u8]) -> Routed {
    let reply = |status: u16, body: String, cache: &'static str| Routed {
        response: Response::json(status, body),
        cache,
        close: false,
    };
    let batch = match CellBatch::from_body(body) {
        Ok(batch) => batch,
        Err(message) => {
            return reply(400, Json::object().field("error", message).to_string(), "-");
        }
    };
    let keys: Vec<String> = batch.jobs.iter().map(cell_key).collect();
    let mut outputs: Vec<Option<Arc<str>>> = keys
        .iter()
        .map(|key| (!batch.fresh).then(|| shared.results.get(key)).flatten())
        .collect();
    let hits = outputs.iter().flatten().count();
    let m = &shared.metrics;
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
            Err(message) => {
                return reply(
                    500,
                    Json::object().field("error", message).to_string(),
                    "miss",
                );
            }
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
    reply(200, out, if missing.is_empty() { "hit" } else { "miss" })
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
        shared.log.event(
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
        Err(message) => {
            return Response::json(400, Json::object().field("error", message).to_string())
        }
    };
    if epoch != shared.epoch {
        let body = Json::object()
            .field(
                "error",
                format!("epoch mismatch: ours {}, offered {epoch}", shared.epoch),
            )
            .to_string();
        return Response::json(409, body);
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
