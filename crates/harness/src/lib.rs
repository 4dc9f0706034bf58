//! Zero-dependency development harness for the `mds` workspace.
//!
//! This crate exists so that `cargo build --release && cargo test -q`
//! succeeds **offline, from a cold registry**: the workspace's claims
//! rest on exact determinism and must not depend on dependency
//! resolution against crates.io. It packages the four pieces of
//! infrastructure the workspace used to pull from external crates:
//!
//! - [`rng`] — a seedable xoshiro256** PRNG with a stable stream
//!   (replaces `rand`),
//! - [`prop`] — a property-testing runner with generators and
//!   word-stream shrinking (replaces `proptest`),
//! - [`bench`](mod@bench) — a benchmark harness emitting `BENCH_*.json` baselines
//!   (replaces `criterion`),
//! - [`json`] — a hand-rolled JSON value/writer/parser and the
//!   [`json::ToJson`] trait (replaces `serde` derives),
//! - [`hash`] — a deterministic FxHash-style hasher with a pinned
//!   contract (replaces `rustc-hash`) for simulator inner loops,
//! - [`stats`] — a lock-free fixed-bucket latency histogram with a
//!   Prometheus text rendering, shared by every serving tier,
//! - [`backoff`] — capped exponential backoff with deterministic jitter,
//!   the retry-delay policy shared by the load generator and the cluster
//!   gateway's robustness layer,
//! - [`tempdir`] — uniquely named scratch directories removed on drop,
//!   so tests that write disk state (e.g. `mds-store` directories) are
//!   rerun-safe (replaces `tempfile`).
//!
//! Everything here is plain `std` Rust: no dependencies, no unsafe code,
//! no build scripts.

pub mod backoff;
pub mod bench;
pub mod hash;
pub mod json;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod tempdir;

/// One-stop imports for property tests.
///
/// ```
/// use mds_harness::prelude::*;
/// ```
pub mod prelude {
    pub use crate::prop::{
        any, option_of, vec_of, Arbitrary, DataSource, Just, PropConfig, Strategy, StrategyExt,
        Union,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, properties};
}
