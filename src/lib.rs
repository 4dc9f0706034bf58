//! `mds` — a reproduction of *"Dynamic Speculation and Synchronization of
//! Data Dependences"* (Moshovos, Breach, Vijaykumar & Sohi, ISCA 1997).
//!
//! This umbrella crate re-exports the whole workspace so applications can
//! depend on one crate:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `mds-isa` | the instruction set, assembler, program builder |
//! | [`emu`] | `mds-emu` | the functional emulator / committed-trace source |
//! | [`predict`] | `mds-predict` | saturating counters, LRU tables, path predictors |
//! | [`mem`] | `mds-mem` | caches, banked caches, bus |
//! | [`core`] | `mds-core` | **the paper's contribution**: MDPT, MDST, DDC, policies |
//! | [`ooo`] | `mds-ooo` | the "unrealistic OOO" window analyzer + superscalar model |
//! | [`multiscalar`] | `mds-multiscalar` | the cycle-level Multiscalar timing model |
//! | [`workloads`] | `mds-workloads` | the synthetic benchmark suites |
//! | [`runner`] | `mds-runner` | parallel experiment grids + shared trace cache |
//! | [`serve`] | `mds-serve` | HTTP/JSON experiment serving + load generator |
//! | [`cluster`] | `mds-cluster` | sharded, replicated experiment-serving tier |
//! | [`store`] | `mds-store` | durable result tier: append-only log + snapshot |
//! | [`sim`] | `mds-sim` | statistics and table rendering |
//!
//! # Quickstart
//!
//! Compare blind speculation against the paper's ESYNC mechanism on the
//! espresso-like workload (whose hot recurrence blind speculation keeps
//! violating):
//!
//! ```
//! use mds::core::Policy;
//! use mds::multiscalar::{MsConfig, Multiscalar};
//! use mds::workloads::{by_name, Scale};
//!
//! let program = by_name("espresso").unwrap().build(Scale::Tiny);
//!
//! let blind = Multiscalar::new(MsConfig::paper(8, Policy::Always))
//!     .run(&program)?;
//! let esync = Multiscalar::new(MsConfig::paper(8, Policy::Esync))
//!     .run(&program)?;
//!
//! // The mechanism eliminates most mis-speculations...
//! assert!(esync.misspeculations < blind.misspeculations / 2);
//! // ...runs faster...
//! assert!(esync.cycles < blind.cycles);
//! // ...and executes the same committed instructions.
//! assert_eq!(esync.instructions, blind.instructions);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable binaries and the `mds-bench` crate's
//! `repro` binary for the paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mds_cluster as cluster;
pub use mds_core as core;
pub use mds_emu as emu;
pub use mds_isa as isa;
pub use mds_mem as mem;
pub use mds_multiscalar as multiscalar;
pub use mds_ooo as ooo;
pub use mds_predict as predict;
pub use mds_runner as runner;
pub use mds_serve as serve;
pub use mds_sim as sim;
pub use mds_store as store;
pub use mds_workloads as workloads;
