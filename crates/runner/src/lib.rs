//! Parallel experiment-orchestration engine for the `mds` workspace.
//!
//! Every paper table and figure is a grid of *independent* (workload ×
//! policy × configuration) simulations over *identical committed
//! instruction streams* — the paper evaluates all six speculation
//! policies on the same traces. That structure is embarrassingly
//! parallel once the trace front-end is shared, and this crate exploits
//! it with four pieces, all std-only:
//!
//! 1. **Experiment grids** ([`Grid`], [`Job`], [`JobKind`]) — declarative
//!    descriptors of what to simulate; grids are data, not control flow.
//! 2. **A work-stealing scoped-thread pool** ([`pool::run_indexed`]) —
//!    per-worker deques plus a global injector under
//!    `std::thread::scope`; worker count from `--jobs N`, `MDS_JOBS`, or
//!    available parallelism, with `--jobs 1` running genuinely inline.
//!    Every grid cell is one pool job that replays the trace's
//!    [`ReplayPlan`](mds_emu::ReplayPlan) on its own, so a panic fails
//!    only that cell and per-cell wall times time only its work.
//! 3. **A shared trace cache** ([`TraceCache`]) — each workload is
//!    emulated exactly once per run behind `Arc<mds_emu::Trace>` and
//!    replayed read-only by every cell; reference counts seeded from the
//!    job list bound peak memory.
//! 4. **A deterministic result store** ([`RunOutcome`]) — results are
//!    reported in job-submission order whatever the completion order, and
//!    result JSON carries no timing or scheduling data, so parallel
//!    output is byte-identical to serial. Wall-times, cache hit rates,
//!    and worker utilization are reported separately via
//!    [`RunStats::render`].
//!
//! # Examples
//!
//! ```
//! use mds_core::Policy;
//! use mds_multiscalar::MsConfig;
//! use mds_runner::{Grid, Runner};
//! use mds_workloads::{by_name, Scale};
//!
//! // Figure-5-shaped mini-grid: one workload, every policy.
//! let compress = by_name("compress").unwrap();
//! let mut grid = Grid::new(Scale::Tiny);
//! for policy in Policy::ALL {
//!     grid.multiscalar(&compress, MsConfig::paper(4, policy));
//! }
//!
//! let outcome = Runner::from_env(Some(2)).run(&grid);
//! assert_eq!(outcome.results.len(), Policy::ALL.len());
//! // One workload: a single emulation, shared by every policy cell.
//! assert_eq!(outcome.stats.cache_misses, 1);
//! assert_eq!(outcome.stats.cache_hits as usize, Policy::ALL.len() - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod pool;
pub mod runner;
pub mod wire;

pub use cache::TraceCache;
pub use job::{Grid, Job, JobKind, JobOutput};
pub use pool::{job_count, parse_jobs, run_indexed, try_job_count, try_run_indexed};
pub use pool::{JobPanic, PoolReport};
pub use runner::{JobFailure, JobResult, RunError, RunOutcome, RunStats, Runner};
