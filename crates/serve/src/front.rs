//! The one serving front both tiers share: lifecycle, the shared routes,
//! load shedding, accounting, and the `reactor::App` seam.
//!
//! `mds-serve` and the `mds-cluster` gateway are the same kind of
//! server with different work behind the door. Everything that does not
//! depend on that work lives here, once:
//!
//! - **Lifecycle.** The drain flag, the shutdown condvar
//!   ([`Front::signal_shutdown`], [`Front::wait_for_shutdown`]), and
//!   starting and joining the reactor ([`Running`]).
//! - **Shared routes.** `GET /healthz`, `GET /readyz`, `GET /metrics`,
//!   `POST /v1/shutdown`, and the `405`/`404` answers.
//! - **Readiness.** One rule: draining → `503`, job queue saturated →
//!   `503`, then the tier's own reason (the gateway's "no backend in
//!   rotation") → `503`, else `200`.
//! - **Shedding and accounting.** One shed response with its `evt:shed`
//!   log line, one [`AccessRecord`] per request, and the counters both
//!   tiers keep, rendered under the tier's metric prefix.
//!
//! A tier implements [`Tier`]: which requests it defers to the worker
//! pool, its own routes, its not-ready reason, and its own metric lines.

use crate::access_log::{AccessLog, AccessRecord, LogTarget};
use crate::http::{Request, Response};
use crate::io::reactor::{self, Dispatch, IoStats, Job, Outcome};
use crate::metrics::{self, Metrics};
use crate::queue::Bounded;
use mds_harness::json::Json;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Keep-alive cap of both tiers: requests served per client connection
/// before it is closed.
pub const MAX_REQUESTS_PER_CONNECTION: usize = 1000;

/// Paths the front routes for every tier.
const SHARED_PATHS: [&str; 4] = ["/healthz", "/readyz", "/metrics", "/v1/shutdown"];

/// What a serving tier adds to the shared [`Front`].
pub trait Tier: Send + Sync + 'static {
    /// The paths [`Tier::route`] serves, so a wrong method on one of
    /// them is a `405` rather than a `404`.
    const PATHS: &'static [&'static str];

    /// The front this tier is served through.
    fn front(&self) -> &Front;

    /// Whether `request` leaves the reactor thread for the worker pool.
    /// Only work that completes in microseconds may stay inline.
    fn defers(&self, request: &Request) -> bool;

    /// The tier's own routes. It sees every request first; `None` falls
    /// through to the shared routes.
    fn route(&self, request: &Request) -> Option<Outcome>;

    /// Why the tier should get no new traffic, if it should not. Asked
    /// only once the shared readiness checks pass.
    fn not_ready(&self) -> Option<&'static str>;

    /// Appends the tier's own `/metrics` families.
    fn render_metrics(&self, out: &mut String);
}

/// The state every tier shares: counters, the log, the job queue, and
/// the drain signal. A tier embeds one and hands it out via
/// [`Tier::front`].
pub struct Front {
    /// Metric-family prefix of the shared counters (`mds`,
    /// `mds_gateway`).
    prefix: &'static str,
    /// The structured log: access records and tier events.
    pub log: AccessLog,
    /// The request-path counters both tiers keep.
    pub metrics: Metrics,
    /// Parsed requests waiting for a worker.
    jobs: Arc<Bounded<Job>>,
    /// Reactor gauges (`mds_io_*`).
    io: Arc<IoStats>,
    /// Set the moment shutdown is requested (before the drain finishes),
    /// so readiness flips to `503` while in-flight work completes.
    draining: AtomicBool,
    /// Guards the transition of `draining` for condvar waiters.
    shutdown: Mutex<()>,
    shutdown_cv: Condvar,
}

impl Front {
    /// A front with a job queue of `queue_depth`, logging to `log`.
    pub fn new(prefix: &'static str, log: LogTarget, queue_depth: usize) -> Front {
        Front {
            prefix,
            log: AccessLog::new(log),
            metrics: Metrics::default(),
            jobs: Arc::new(Bounded::new(queue_depth)),
            io: Arc::new(IoStats::default()),
            draining: AtomicBool::new(false),
            shutdown: Mutex::new(()),
            shutdown_cv: Condvar::new(),
        }
    }

    /// Requests waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.jobs.len()
    }

    /// Whether shutdown has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests shutdown: readiness flips to `503`, keep-alive is
    /// withdrawn, and every [`Front::wait_for_shutdown`] returns.
    pub fn signal_shutdown(&self) {
        let _guard = self.shutdown.lock().unwrap_or_else(PoisonError::into_inner);
        self.draining.store(true, Ordering::SeqCst);
        self.shutdown_cv.notify_all();
    }

    /// Blocks until shutdown is requested, or until `timeout` passes;
    /// returns whether it was requested.
    pub fn wait_for_shutdown(&self, timeout: Option<Duration>) -> bool {
        let guard = self.shutdown.lock().unwrap_or_else(PoisonError::into_inner);
        let waiting = |_: &mut ()| !self.draining();
        match timeout {
            None => drop(self.shutdown_cv.wait_while(guard, waiting)),
            Some(timeout) => drop(self.shutdown_cv.wait_timeout_while(guard, timeout, waiting)),
        }
        self.draining()
    }

    /// Counts and logs one shed, returning the backpressure response.
    fn shed(&self, queue_depth: usize) -> Response {
        self.metrics.rejected_total.fetch_add(1, Ordering::Relaxed);
        self.metrics.count_response(503);
        self.log.event(
            Json::object()
                .field("evt", "shed")
                .field("status", 503u64)
                .field("queue_depth", queue_depth),
        );
        Response::json(503, r#"{"error":"admission queue full, retry shortly"}"#)
            .header("retry-after", "1")
    }

    /// Counts and logs one finished response.
    fn account(&self, request: &Request, outcome: &Outcome, queue_wait_us: u64, compute_us: u64) {
        self.metrics.queue_wait.observe_us(queue_wait_us);
        self.metrics.compute.observe_us(compute_us);
        self.metrics.count_response(outcome.response.status());
        self.log.record(&AccessRecord {
            method: request.method.clone(),
            target: request.target.clone(),
            status: outcome.response.status(),
            queue_wait_us,
            compute_us,
            cache: outcome.cache,
            bytes: outcome.response.body_len(),
        });
    }

    /// The `GET /readyz` answer: `200` when this process should receive
    /// new traffic, `503` + `Retry-After` with the first reason it
    /// should not.
    fn readiness(&self, tier_reason: impl FnOnce() -> Option<&'static str>) -> Response {
        let reason = if self.draining() {
            Some("draining")
        } else if self.jobs.len() >= self.jobs.capacity() {
            Some("admission queue saturated")
        } else {
            tier_reason()
        };
        match reason {
            None => Response::text(200, "ready\n"),
            Some(reason) => {
                Response::json(503, format!(r#"{{"ready":false,"reason":"{reason}"}}"#))
                    .header("retry-after", "1")
            }
        }
    }
}

/// Answers a request on the tier's routes, then the shared ones.
fn answer<T: Tier>(tier: &T, request: &Request) -> Outcome {
    if let Some(outcome) = tier.route(request) {
        return outcome;
    }
    let front = tier.front();
    let response = match (request.method.as_str(), request.target.as_str()) {
        // Liveness: the process is up and serving the request path.
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => front.readiness(|| tier.not_ready()),
        ("GET", "/metrics") => {
            let mut out = String::with_capacity(4096);
            metrics::render_front(
                front.prefix,
                &front.metrics,
                front.queue_depth(),
                &front.io,
                &mut out,
            );
            tier.render_metrics(&mut out);
            Response::new(200)
                .header("content-type", "text/plain; version=0.0.4; charset=utf-8")
                .body(out)
        }
        ("POST", "/v1/shutdown") => {
            front.signal_shutdown();
            return Outcome::new(Response::json(200, r#"{"status":"shutting down"}"#)).close();
        }
        (_, path) if SHARED_PATHS.contains(&path) || T::PATHS.contains(&path) => {
            Response::json(405, r#"{"error":"method not allowed"}"#)
        }
        _ => Response::json(404, r#"{"error":"not found"}"#),
    };
    Outcome::new(response)
}

/// The reactor's view of a tier.
struct App<T: Tier>(Arc<T>);

impl<T: Tier> reactor::App for App<T> {
    fn dispatch(&self, request: &Request) -> Dispatch {
        if self.0.defers(request) {
            return Dispatch::Defer;
        }
        let started = Instant::now();
        let outcome = answer(&*self.0, request);
        let compute_us = started.elapsed().as_micros() as u64;
        self.0.front().account(request, &outcome, 0, compute_us);
        Dispatch::Inline(outcome)
    }

    fn execute(&self, request: &Request) -> Outcome {
        answer(&*self.0, request)
    }

    fn on_connection(&self) {
        self.0
            .front()
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
        self.0
            .front()
            .account(request, outcome, queue_wait_us, compute_us);
    }

    fn shed(&self, queue_len: usize) -> Response {
        self.0.front().shed(queue_len)
    }

    fn on_request_error(&self, status: u16) {
        self.0.front().metrics.count_response(status);
    }

    fn draining(&self) -> bool {
        self.0.front().draining()
    }
}

/// A tier being served: the reactor thread and its worker pool.
pub struct Running {
    #[cfg(target_os = "linux")]
    reactor: reactor::Reactor,
}

impl Running {
    /// Serves `tier` on `listener` with `workers` request-executing
    /// threads.
    ///
    /// # Errors
    ///
    /// Reactor setup failures, and any platform without `epoll`: the
    /// serving binaries are Linux-only.
    pub fn start<T: Tier>(
        tier: &Arc<T>,
        listener: TcpListener,
        config: reactor::Config,
        workers: usize,
    ) -> Result<Running, String> {
        #[cfg(target_os = "linux")]
        {
            let front = tier.front();
            let reactor = reactor::Reactor::start(
                listener,
                Arc::new(App(Arc::clone(tier))),
                config,
                workers,
                Arc::clone(&front.jobs),
                Arc::clone(&front.io),
            )
            .map_err(|e| format!("cannot start reactor: {e}"))?;
            Ok(Running { reactor })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (tier, listener, config, workers);
            Err("serving needs epoll (Linux)".to_string())
        }
    }

    /// Graceful stop: signal shutdown on `front`, close the listener,
    /// let in-flight requests finish, and join every thread.
    /// Idempotent.
    pub fn stop(&mut self, front: &Front) {
        front.signal_shutdown();
        #[cfg(target_os = "linux")]
        self.reactor.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        front: Front,
        reason: Option<&'static str>,
    }

    impl Tier for Probe {
        const PATHS: &'static [&'static str] = &["/v1/own"];

        fn front(&self) -> &Front {
            &self.front
        }

        fn defers(&self, request: &Request) -> bool {
            request.method == "POST"
        }

        fn route(&self, request: &Request) -> Option<Outcome> {
            (request.method == "GET" && request.target == "/v1/own")
                .then(|| Outcome::new(Response::text(200, "own\n")))
        }

        fn not_ready(&self) -> Option<&'static str> {
            self.reason
        }

        fn render_metrics(&self, out: &mut String) {
            metrics::gauge(out, "probe_lines", "Tier lines.", 1);
        }
    }

    fn probe(queue_depth: usize, reason: Option<&'static str>) -> Probe {
        Probe {
            front: Front::new("probe", LogTarget::Memory, queue_depth),
            reason,
        }
    }

    fn get(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            version: crate::http::Version::Http11,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn body(outcome: &Outcome) -> String {
        let mut wire = Vec::new();
        outcome.response.write_to(&mut wire, true).unwrap();
        String::from_utf8(wire).unwrap()
    }

    #[test]
    fn shared_routes_answer_after_the_tier_and_sort_405_from_404() {
        let tier = probe(4, None);
        assert!(body(&answer(&tier, &get("/v1/own"))).ends_with("own\n"));
        assert!(body(&answer(&tier, &get("/healthz"))).ends_with("ok\n"));
        let mut delete = get("/v1/own");
        delete.method = "DELETE".to_string();
        assert_eq!(answer(&tier, &delete).response.status(), 405);
        delete.target = "/metrics".to_string();
        assert_eq!(answer(&tier, &delete).response.status(), 405);
        assert_eq!(answer(&tier, &get("/nope")).response.status(), 404);
        let metrics = body(&answer(&tier, &get("/metrics")));
        for family in [
            "probe_requests_total 0",
            "mds_io_registered_fds 0",
            "probe_lines 1",
        ] {
            assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
        }
    }

    #[test]
    fn readiness_checks_drain_then_saturation_then_the_tier() {
        let tier = probe(1, Some("no backend in rotation"));
        let ready = |tier: &Probe| body(&answer(tier, &get("/readyz")));
        assert!(ready(&tier).contains("no backend in rotation"));
        tier.front
            .jobs
            .push(Job {
                token: 0,
                request: get("/parked"),
                enqueued: Instant::now(),
            })
            .ok()
            .expect("room for one job");
        assert!(ready(&tier).contains("admission queue saturated"));
        tier.front.signal_shutdown();
        let draining = ready(&tier);
        assert!(draining.starts_with("HTTP/1.1 503"), "{draining}");
        assert!(draining.contains("retry-after: 1"), "{draining}");
        assert!(draining.contains("draining"), "{draining}");
        assert!(probe(1, None).front.readiness(|| None).status() == 200);
    }
}
