//! Interleaved cache banks behind a shared bus.

use crate::bus::Bus;
use crate::cache::{Cache, CacheConfig, CacheStats};
use mds_harness::json::{Json, ToJson};

type Addr = u64;

/// Configuration for a [`BankedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankedCacheConfig {
    /// Number of interleaved banks (power of two). The paper uses twice as
    /// many banks as processing units.
    pub banks: usize,
    /// Geometry of each bank.
    pub bank_config: CacheConfig,
    /// Cycles for a bank hit (the paper: "a data bank access returns 1 word
    /// in a hit time of 2 cycles").
    pub hit_latency: u64,
    /// Words (4-byte) transferred on a miss fill — one block.
    pub fill_words: u64,
}

impl BankedCacheConfig {
    /// The paper's per-unit scaling: `2 * units` banks of 8 KiB
    /// direct-mapped 64-byte-block cache, 2-cycle hits.
    pub fn paper_default(units: usize) -> Self {
        BankedCacheConfig {
            banks: (2 * units).next_power_of_two(),
            bank_config: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 1,
                block_bytes: 64,
            },
            hit_latency: 2,
            fill_words: 16,
        }
    }
}

impl ToJson for BankedCacheConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("banks", self.banks)
            .field("bank_config", self.bank_config)
            .field("hit_latency", self.hit_latency)
            .field("fill_words", self.fill_words)
    }
}

/// The outcome of a timed data-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DCacheAccess {
    /// Cycle at which the data is available (loads) or the write retires.
    pub done_at: u64,
    /// Whether the access hit in its bank.
    pub hit: bool,
    /// Which bank served the access.
    pub bank: usize,
}

/// Interleaved data-cache banks with per-bank occupancy and a shared bus
/// for misses — the paper's crossbar-connected bank array.
///
/// Bank selection interleaves on block address, so consecutive blocks land
/// in different banks; two accesses to the same bank in the same cycle
/// serialize (bank conflict), and misses additionally contend for the bus.
///
/// # Examples
///
/// ```
/// use mds_mem::{BankedCache, BankedCacheConfig, Bus};
/// let mut bus = Bus::paper_default();
/// let mut dc = BankedCache::new(BankedCacheConfig::paper_default(4));
/// let miss = dc.access(0, 0x1000, false, &mut bus);
/// assert!(!miss.hit);
/// let hit = dc.access(miss.done_at, 0x1000, false, &mut bus);
/// assert!(hit.hit);
/// assert_eq!(hit.done_at, miss.done_at + 2);
/// ```
#[derive(Debug, Clone)]
pub struct BankedCache {
    banks: Vec<Cache>,
    busy_until: Vec<u64>,
    config: BankedCacheConfig,
    block_shift: u32,
    bank_mask: u64,
    conflicts: u64,
}

impl BankedCache {
    /// Builds the bank array.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a positive power of two, or on an invalid
    /// bank geometry.
    pub fn new(config: BankedCacheConfig) -> Self {
        assert!(
            config.banks.is_power_of_two() && config.banks > 0,
            "banks must be a power of two"
        );
        BankedCache {
            banks: (0..config.banks)
                .map(|_| Cache::new(config.bank_config))
                .collect(),
            busy_until: vec![0; config.banks],
            block_shift: config.bank_config.block_bytes.trailing_zeros(),
            bank_mask: (config.banks - 1) as u64,
            config,
            conflicts: 0,
        }
    }

    /// The bank index `addr` maps to.
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> usize {
        ((addr >> self.block_shift) & self.bank_mask) as usize
    }

    /// Performs a timed access starting no earlier than `now`. Inlined
    /// with [`Cache::access`] and [`Bus::request`], so a bank hit is
    /// call-free at the caller.
    #[inline]
    pub fn access(&mut self, now: u64, addr: Addr, is_write: bool, bus: &mut Bus) -> DCacheAccess {
        let bank = self.bank_of(addr);
        let start = now.max(self.busy_until[bank]);
        if start > now {
            self.conflicts += 1;
        }
        let hit = self.banks[bank].access(addr, is_write);
        let done_at = if hit {
            start + self.config.hit_latency
        } else {
            // Miss detected after the hit-time tag probe, then a bus fill.
            bus.request(start + self.config.hit_latency, self.config.fill_words)
        };
        self.busy_until[bank] = done_at;
        DCacheAccess { done_at, hit, bank }
    }

    /// Aggregate hit/miss statistics across all banks.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.banks {
            total.hits += b.stats().hits;
            total.misses += b.stats().misses;
        }
        total
    }

    /// Number of accesses delayed by a busy bank.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Invalidates all banks and clears occupancy.
    pub fn flush(&mut self) {
        for b in &mut self.banks {
            b.flush();
        }
        self.busy_until.fill(0);
        self.conflicts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (BankedCache, Bus) {
        let cfg = BankedCacheConfig {
            banks: 4,
            bank_config: CacheConfig {
                size_bytes: 1024,
                ways: 1,
                block_bytes: 64,
            },
            hit_latency: 2,
            fill_words: 16,
        };
        (BankedCache::new(cfg), Bus::paper_default())
    }

    #[test]
    fn consecutive_blocks_interleave() {
        let (dc, _) = small();
        assert_eq!(dc.bank_of(0), 0);
        assert_eq!(dc.bank_of(64), 1);
        assert_eq!(dc.bank_of(128), 2);
        assert_eq!(dc.bank_of(192), 3);
        assert_eq!(dc.bank_of(256), 0);
        // Same block, same bank regardless of offset.
        assert_eq!(dc.bank_of(63), 0);
    }

    #[test]
    fn miss_pays_bus_latency_hit_does_not() {
        let (mut dc, mut bus) = small();
        let m = dc.access(0, 0, false, &mut bus);
        assert!(!m.hit);
        assert_eq!(m.done_at, 2 + 13); // tag probe + 10+3 fill
        let h = dc.access(m.done_at, 0, false, &mut bus);
        assert!(h.hit);
        assert_eq!(h.done_at, m.done_at + 2);
    }

    #[test]
    fn same_bank_conflicts_serialize() {
        let (mut dc, mut bus) = small();
        // Warm two blocks in the same bank (0 and 256).
        let a = dc.access(0, 0, false, &mut bus);
        let _ = dc.access(a.done_at, 256, false, &mut bus);
        // Both hit now; issue both at cycle 100.
        let first = dc.access(100, 0, false, &mut bus);
        let second = dc.access(100, 256, false, &mut bus);
        assert!(first.hit && second.hit);
        assert_eq!(first.done_at, 102);
        assert_eq!(second.done_at, 104); // waited for the bank
        assert_eq!(dc.conflicts(), 1);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let (mut dc, mut bus) = small();
        let a = dc.access(0, 0, false, &mut bus);
        let b = dc.access(a.done_at, 64, false, &mut bus);
        let t = b.done_at;
        let x = dc.access(t, 0, false, &mut bus);
        let y = dc.access(t, 64, false, &mut bus);
        assert_eq!(x.done_at, t + 2);
        assert_eq!(y.done_at, t + 2);
    }

    #[test]
    fn two_misses_contend_for_the_bus() {
        let (mut dc, mut bus) = small();
        let a = dc.access(0, 0, false, &mut bus); // bank 0
        let b = dc.access(0, 64, false, &mut bus); // bank 1, miss too
        assert_eq!(a.done_at, 15);
        assert_eq!(b.done_at, 28); // bus busy until 15, then 13 more
    }

    #[test]
    fn stats_aggregate_and_flush() {
        let (mut dc, mut bus) = small();
        dc.access(0, 0, false, &mut bus);
        dc.access(20, 64, true, &mut bus);
        dc.access(40, 0, false, &mut bus);
        let s = dc.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits, 1);
        dc.flush();
        assert_eq!(dc.stats().accesses(), 3); // stats survive flush
        let again = dc.access(60, 0, false, &mut bus);
        assert!(!again.hit); // but contents do not
    }

    #[test]
    fn paper_default_scales_banks_with_units() {
        assert_eq!(BankedCacheConfig::paper_default(4).banks, 8);
        assert_eq!(BankedCacheConfig::paper_default(8).banks, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_banks_panics() {
        let cfg = BankedCacheConfig {
            banks: 3,
            bank_config: CacheConfig {
                size_bytes: 1024,
                ways: 1,
                block_bytes: 64,
            },
            hit_latency: 2,
            fill_words: 16,
        };
        let _ = BankedCache::new(cfg);
    }
}
