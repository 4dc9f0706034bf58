//! Zero-dependency experiment-serving subsystem for the `mds` workspace.
//!
//! The CLI (`repro`) answers one experiment per process; this crate turns
//! the same engine into a long-lived service so repeated and concurrent
//! queries amortize the expensive part (workload emulation) instead of
//! redoing it. Everything is `std`-only — the HTTP/1.1 layer is
//! hand-rolled over `std::net` — and the served bytes are **identical**
//! to `repro <id> --json` output by construction, because both sides
//! render [`mds_bench::results_doc`].
//!
//! The pieces, each its own module:
//!
//! 1. **Wire layer** ([`http`]) — request parsing with hard head/body
//!    limits, keep-alive negotiation, and a deterministic response
//!    writer; the same parser serves the server and the load generator.
//! 2. **Job queue** ([`queue`]) — a bounded MPMC queue between the
//!    reactor and the worker pool; a full queue sheds requests with
//!    `503` + `Retry-After` instead of buffering unboundedly.
//! 3. **Result cache** ([`result_cache`]) — canonical request key →
//!    response bytes, LRU within a byte budget, so warm repeats skip
//!    simulation *and* serialization.
//! 4. **Domain layer** ([`service`]) — strict request validation with
//!    positioned errors, and execution through one shared
//!    [`mds_runner::Runner`] over a persistent trace cache (each
//!    workload is emulated at most once per server lifetime).
//! 5. **Observability** ([`metrics`], [`access_log`]) — lock-free
//!    counters and histograms rendered as Prometheus text, plus one
//!    structured JSON log line per request.
//! 6. **The server itself** ([`server`]) — the backend's routes
//!    (experiments, grids, cells, cache transfer) on the shared front.
//! 7. **Client** ([`client`]) — the blocking HTTP connection shared by
//!    the load generator, the cluster gateway's batch dispatch, and health
//!    probes.
//! 8. **Load generator** ([`load`]) — a closed-loop multi-client driver
//!    with exact merged percentiles that honors `503 Retry-After` with
//!    capped, jittered backoff; used by the `mds-load` binary and the
//!    `serve` benchmark.
//! 9. **Durable tier glue** ([`persist`]) — the effective output epoch
//!    (build hash + registered WDL fingerprints) and the `/v1/cache`
//!    warm-state wire codec; the store itself lives in `mds-store`, and
//!    a server started with `store_dir` prewarms its result cache from
//!    it at boot and appends every cache fill.
//! 10. **Event-driven I/O core** ([`io`]) — the one connection engine:
//!     raw `epoll` behind a [`io::Poller`] trait with a deterministic
//!     in-memory fake, per-connection non-blocking read/write state
//!     machines, and a timer wheel for header/idle/write deadlines, so
//!     idle keep-alive connections cost one fd each and no worker time.
//! 11. **The shared front** ([`front`]) — what both serving tiers share
//!     on top of the engine: lifecycle and drain, the probe, metrics and
//!     shutdown routes, readiness, shedding, and per-request accounting.
//!     `mds-serve` and the `mds-cluster` gateway each add only their own
//!     routes ([`front::Tier`]).
//!
//! The servers need `epoll`, so they run on Linux only: elsewhere
//! [`Server::start`] returns an error, while the library and the `repro`
//! CLI stay portable.
//!
//! # Examples
//!
//! ```
//! use mds_serve::{LoadConfig, LogTarget, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     workers: 2,
//!     jobs: Some(2),
//!     log: LogTarget::Discard,
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//!
//! let report = mds_serve::run_load(&LoadConfig {
//!     addr: server.local_addr().to_string(),
//!     clients: 2,
//!     duration: std::time::Duration::from_millis(200),
//!     experiment: "fig5".to_string(),
//!     scale: "tiny".to_string(),
//!     fresh: false,
//!     ..LoadConfig::default()
//! });
//! assert!(report.requests > 0);
//! server.shutdown();
//! ```

// `deny` rather than `forbid`: the epoll FFI shim in `io::sys` is the
// one audited `#[allow(unsafe_code)]` island in the crate (forbid cannot
// be overridden even for a module that needs raw syscalls).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access_log;
pub mod client;
pub mod front;
pub mod http;
pub mod io;
pub mod load;
pub mod metrics;
pub mod persist;
pub mod queue;
pub mod result_cache;
pub mod server;
pub mod service;

pub use access_log::{AccessLog, AccessRecord, LogTarget};
pub use client::Connection;
pub use load::{print_report, run_load, LoadConfig, LoadReport};
pub use metrics::{Gauges, Histogram, Metrics};
pub use queue::Bounded;
pub use result_cache::ResultCache;
pub use server::{Server, ServerConfig};
pub use service::{cell_key, CellBatch, ExperimentRequest, Service};
