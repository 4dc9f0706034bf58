//! Memory-system substrate for the `mds` timing models.
//!
//! The paper's Multiscalar configuration (§5.2) uses, per processing unit,
//! a 32 KiB 2-way instruction cache, and behind a crossbar a set of
//! interleaved data banks (8 KiB direct-mapped each) with 32-entry address
//! resolution buffers, all sharing a single split-transaction memory bus.
//! This crate provides the caches, banks and bus as reusable components:
//!
//! - [`Cache`]: a set-associative, LRU, allocate-on-miss cache model,
//! - [`Bus`]: a split-transaction bus with contention (earliest-free-time),
//! - [`BankedCache`]: interleaved cache banks with per-bank occupancy and a
//!   shared bus for misses.
//!
//! There is no address resolution buffer (ARB): the Multiscalar model
//! finds a violation from the load's exact producer store, resolved once
//! per trace in its replay plan, so it models neither ARB capacity nor
//! ARB-overflow stalls.
//!
//! All timing is expressed as plain `u64` cycle numbers — components store
//! *busy-until* state instead of running an event queue, which keeps the
//! simulators fast and deterministic.
//!
//! # Examples
//!
//! ```
//! use mds_mem::{Cache, CacheConfig};
//!
//! let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, block_bytes: 64 });
//! assert!(!c.access(0x100, false)); // cold miss
//! assert!(c.access(0x100, false));  // now a hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod banked;
pub mod bus;
pub mod cache;

pub use banked::{BankedCache, BankedCacheConfig};
pub use bus::Bus;
pub use cache::{Cache, CacheConfig, CacheStats};
