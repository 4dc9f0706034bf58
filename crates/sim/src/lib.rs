//! Simulation bedrock for the `mds` suite.
//!
//! This crate holds the pieces every simulator and experiment harness in the
//! workspace shares: event counters and derived statistics ([`stats`]),
//! histograms ([`stats::Histogram`]), plain-text and Markdown table
//! rendering ([`table`]), small numeric helpers such as
//! [`stats::speedup_percent`], and the [`ConfigError`] a simulator
//! configuration's `validate` returns.
//!
//! Everything here is deterministic and allocation-light; simulators hold
//! these types by value.
//!
//! # Examples
//!
//! ```
//! use mds_sim::stats::Counter;
//! use mds_sim::table::Table;
//!
//! let mut loads = Counter::new("committed loads");
//! loads.add(3);
//! loads.incr();
//! assert_eq!(loads.value(), 4);
//!
//! let mut t = Table::new(["bench", "loads"]);
//! t.row(["compress", "4"]);
//! assert!(t.render().contains("compress"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod table;

pub use stats::{Counter, Histogram, Percent};
pub use table::Table;

/// A simulator configuration value the simulators cannot run: zero where
/// they need a positive count, a geometry they cannot build, or a size
/// large enough to exhaust memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, as the configuration's wire encoding names it
    /// (nested fields joined with `.`, e.g. `dcache.banks`).
    pub field: &'static str,
    /// What the value must satisfy, and the value found.
    pub message: String,
}

impl ConfigError {
    /// `Ok` when `value` lies in `range`, else an error naming `field`.
    pub fn check_range(
        field: &'static str,
        value: u64,
        range: std::ops::RangeInclusive<u64>,
    ) -> Result<(), ConfigError> {
        if range.contains(&value) {
            Ok(())
        } else {
            Err(ConfigError {
                field,
                message: format!(
                    "must be in {}..={}, found {value}",
                    range.start(),
                    range.end()
                ),
            })
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}
