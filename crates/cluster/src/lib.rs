//! Sharded, replicated experiment serving: a failover gateway tier over
//! `mds-serve` backends.
//!
//! One `mds-serve` process amortizes simulation across repeated queries;
//! this crate scales that to a fleet. An HTTP gateway fronts N backends
//! and gives clients a single address with three properties a lone
//! backend cannot offer:
//!
//! - **Cache affinity** ([`ring`], [`grid`]) — every request, an
//!   experiment being a one-experiment grid, is split into cells, and
//!   each cell batch is routed by consistent hashing on its
//!   `workload@scale` trace key, so each backend emulates only its own
//!   shard of the workload set and its trace and cell caches stay hot
//!   as the fleet grows. Merged documents are cached at the gateway.
//! - **Failure hiding** ([`breaker`], [`gateway`]) — per-backend health
//!   probing against the drain-aware `/readyz`, three-state circuit
//!   breakers on the data path, and one failover loop that walks the
//!   replica order under a bounded retry budget, one attempt at a time.
//!   A batch no backend answers is computed on the gateway, so killing
//!   backends mid-load produces zero client-visible failures.
//! - **Cluster observability** ([`metrics`]) — per-backend and per-route
//!   counters plus latency histograms in the same Prometheus exposition
//!   the backends use, and a structured JSON event log for breaker
//!   transitions, health changes, and upstream errors.
//!
//! Merged responses are rendered in request order from the cells'
//! outputs, so a response fetched through the cluster tier is
//! byte-identical to a lone backend's and to `repro <id> --json`.
//!
//! [`fleet`] supervises a local in-process fleet for `--spawn N`, tests,
//! and the benchmark.
//!
//! # Examples
//!
//! ```
//! use mds_cluster::fleet::{Fleet, FleetConfig};
//! use mds_cluster::gateway::{Gateway, GatewayConfig};
//!
//! let fleet = Fleet::spawn(&FleetConfig {
//!     backends: 2,
//!     workers: 2,
//!     jobs: Some(1),
//!     ..FleetConfig::default()
//! })
//! .unwrap();
//! let gateway = Gateway::start(GatewayConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     backends: fleet.addrs(),
//!     workers: 2,
//!     log: mds_serve::LogTarget::Discard,
//!     ..GatewayConfig::default()
//! })
//! .unwrap();
//! let response = mds_serve::client::request_once(
//!     &gateway.local_addr().to_string(),
//!     "GET",
//!     "/readyz",
//!     b"",
//!     std::time::Duration::from_secs(5),
//! )
//! .unwrap();
//! assert_eq!(response.status, 200);
//! gateway.shutdown();
//! fleet.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod breaker;
pub mod fleet;
pub mod gateway;
pub mod grid;
pub mod metrics;
pub mod ring;

pub use backend::Backend;
pub use breaker::Breaker;
pub use fleet::{Fleet, FleetConfig};
pub use gateway::{Gateway, GatewayConfig};
pub use ring::HashRing;
