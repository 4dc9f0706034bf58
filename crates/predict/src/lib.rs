//! Generic prediction substrate shared by the dependence predictor
//! (`mds-core`) and the Multiscalar sequencer (`mds-multiscalar`).
//!
//! The paper leans on three classic hardware idioms, which this crate
//! provides as reusable, well-tested components:
//!
//! - [`SatCounter`]: n-bit up/down saturating counters (the MDPT's
//!   prediction field is a 3-bit counter with threshold 3),
//! - [`LruTable`]: a fixed-capacity associative table with true LRU
//!   replacement (the MDPT, MDST, DDC, and task-descriptor caches are all
//!   LRU-managed associative structures),
//! - [`PathPredictor`]: the path-based next-task prediction scheme (after
//!   Jacobson et al.) used by the Multiscalar sequencer. The paper's
//!   sequencer also has a 64-entry return address stack; this model has
//!   none, and predicts every task from its path history alone.
//!
//! # Examples
//!
//! ```
//! use mds_predict::SatCounter;
//!
//! let mut c = SatCounter::new(3, 0); // 3-bit counter, starts at 0
//! for _ in 0..10 { c.incr(); }
//! assert_eq!(c.value(), 7); // saturates at 2^3 - 1
//! assert!(c.is_at_least(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod lru;
pub mod path;

pub use counter::SatCounter;
pub use lru::LruTable;
pub use path::{PathHistory, PathPredictor};
