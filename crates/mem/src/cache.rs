//! A set-associative cache model with LRU replacement.

use mds_harness::json::{Json, ToJson};
use mds_sim::ConfigError;

type Addr = u64;

/// Geometry of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub block_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two block or
    /// set count, size not divisible by `ways * block_bytes`, or one byte
    /// per way).
    pub fn sets(&self) -> usize {
        self.geometry()
            .unwrap_or_else(|message| panic!("{message}"))
    }

    /// Largest `size_bytes` that [`CacheConfig::validate`] accepts: 128
    /// times the paper's 32 KiB instruction cache.
    const MAX_SIZE_BYTES: usize = 4 << 20;

    /// Checks that a cache of this geometry can be built and holds at most
    /// 4 MiB; an error names `field`.
    pub fn validate(&self, field: &'static str) -> Result<(), ConfigError> {
        let message = if self.size_bytes > Self::MAX_SIZE_BYTES {
            format!(
                "size_bytes must be at most {}, found {}",
                Self::MAX_SIZE_BYTES,
                self.size_bytes
            )
        } else {
            match self.geometry() {
                Ok(_) => return Ok(()),
                Err(message) => message.to_string(),
            }
        };
        Err(ConfigError { field, message })
    }

    /// The set count, or why the geometry is inconsistent.
    fn geometry(&self) -> Result<usize, &'static str> {
        if !self.block_bytes.is_power_of_two() {
            return Err("block size must be a power of two");
        }
        if self.ways == 0 {
            return Err("associativity must be positive");
        }
        let per_way = self.size_bytes / self.ways;
        if per_way == 0 || !per_way.is_multiple_of(self.block_bytes) {
            return Err("cache size must be divisible by ways * block");
        }
        if per_way == 1 {
            // Tags would span every `u64`, leaving none to mark a line
            // invalid.
            return Err("a cache must hold more than one byte per way");
        }
        let sets = per_way / self.block_bytes;
        if !sets.is_power_of_two() {
            return Err("set count must be a power of two");
        }
        Ok(sets)
    }
}

impl ToJson for CacheConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("size_bytes", self.size_bytes)
            .field("ways", self.ways)
            .field("block_bytes", self.block_bytes)
    }
}

/// Hit/miss counters for a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (line then allocated).
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 when no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::object()
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("miss_rate", self.miss_rate())
    }
}

/// A behavioral set-associative cache: tags and LRU state only (data lives
/// in the functional emulator). Misses allocate on both reads and writes.
///
/// The state is two zero-initialized `u64` arrays, one slot per line:
/// `tags` holds the block tag plus one (0 marks an invalid line, so tag 0
/// stays representable) and `last_use` the tick of the line's latest
/// access (0 for a line never used since the last flush; a direct-mapped
/// cache, with no victim to choose, leaves it 0). A new cache is
/// therefore one zeroed allocation, and the pages of sets a run never
/// touches are never written.
///
/// Latency is the caller's concern — see [`crate::BankedCache`] for the
/// timed wrapper.
///
/// # Examples
///
/// ```
/// use mds_mem::{Cache, CacheConfig};
/// // The paper's data bank: 8 KiB direct-mapped, 64-byte blocks.
/// let mut bank = Cache::new(CacheConfig { size_bytes: 8 * 1024, ways: 1, block_bytes: 64 });
/// bank.access(0, true);
/// assert_eq!(bank.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per line, flattened (set `s` occupies `[s*ways .. (s+1)*ways]`):
    /// block tag + 1, or 0 when the line is invalid.
    tags: Vec<u64>,
    /// Per line: tick of the latest access, 0 when invalid (always 0 in a
    /// direct-mapped cache).
    last_use: Vec<u64>,
    ways: usize,
    set_mask: Addr,
    set_shift: u32,
    block_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent [`CacheConfig`] (see [`CacheConfig::sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let lines = sets * config.ways;
        Cache {
            config,
            tags: vec![0; lines],
            last_use: vec![0; lines],
            ways: config.ways,
            set_mask: (sets - 1) as Addr,
            set_shift: sets.trailing_zeros(),
            block_shift: config.block_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss counts.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses `addr`; returns `true` on a hit. A miss allocates the line
    /// (evicting LRU). `is_write` is accepted for symmetry/statistics; the
    /// model is write-allocate and tag behavior is identical.
    ///
    /// Inlined: the direct-mapped case (the paper's data banks) is one
    /// candidate line and no LRU search, so it runs call-free in the
    /// simulators. Associative sets take the out-of-line search.
    #[inline]
    pub fn access(&mut self, addr: Addr, is_write: bool) -> bool {
        let _ = is_write;
        self.tick += 1;
        let block = addr >> self.block_shift;
        let set_idx = (block & self.set_mask) as usize;
        let tag = (block >> self.set_shift) + 1;
        if self.ways != 1 {
            return self.access_set(set_idx, tag);
        }
        if self.tags[set_idx] == tag {
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        self.tags[set_idx] = tag;
        false
    }

    /// The associative half of [`Cache::access`]: searches set `set_idx`
    /// for the stored tag `tag` (block tag + 1), and on a miss replaces
    /// the set's first invalid line, else its first least recently used
    /// one.
    fn access_set(&mut self, set_idx: usize, tag: u64) -> bool {
        let base = set_idx * self.ways;
        let tags = &mut self.tags[base..][..self.ways];
        let last_use = &mut self.last_use[base..][..self.ways];
        if let Some(way) = tags.iter().position(|&t| t == tag) {
            last_use[way] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Invalid lines have `last_use` 0 and valid ones a positive tick,
        // so the first minimum is the first invalid line if there is one.
        let mut victim = 0;
        for way in 1..self.ways {
            if last_use[way] < last_use[victim] {
                victim = way;
            }
        }
        tags[victim] = tag;
        last_use[victim] = self.tick;
        false
    }

    /// Counts a hit on the block of the previous [`Cache::access`],
    /// without searching for it.
    ///
    /// The caller guarantees that its previous access to this cache was to
    /// the same block. That block is then resident and the most recently
    /// used line of its set, so the access is a hit that leaves the set's
    /// recency order as it is: only the tick and the hit count advance.
    #[inline]
    pub fn repeat_hit(&mut self) {
        self.tick += 1;
        self.stats.hits += 1;
    }

    /// Probes without modifying state; returns `true` if `addr` is present.
    pub fn probe(&self, addr: Addr) -> bool {
        let block = addr >> self.block_shift;
        let set_idx = (block & self.set_mask) as usize;
        let tag = (block >> self.set_shift) + 1;
        self.tags[set_idx * self.ways..][..self.ways].contains(&tag)
    }

    /// Invalidates everything (e.g. between independent simulations).
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.last_use.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte blocks = 64 bytes.
        Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 2,
            block_bytes: 16,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(15, false)); // same block
        assert!(!c.access(16, false)); // next block, other set
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Set 0 holds blocks whose (block % 2 == 0): addresses 0, 32, 64...
        c.access(0, false); // A
        c.access(32, false); // B
        c.access(0, false); // touch A; B is LRU
        c.access(64, false); // evicts B
        assert!(c.probe(0));
        assert!(!c.probe(32));
        assert!(c.probe(64));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32,
            ways: 1,
            block_bytes: 16,
        });
        assert!(!c.access(0, false));
        assert!(!c.access(32, false)); // same set, evicts
        assert!(!c.access(0, false)); // conflict miss
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn block_tag_zero_starts_invalid() {
        for ways in [1, 2] {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 64,
                ways,
                block_bytes: 16,
            });
            assert!(!c.probe(0));
            assert!(
                !c.access(0, false),
                "{ways}-way: a fresh cache holds nothing"
            );
            assert!(c.access(8, false));
            c.repeat_hit();
            assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
        }
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0, true);
        c.flush();
        assert!(!c.probe(0));
        assert!(!c.access(0, false));
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(16, false);
        assert_eq!(c.stats().accesses(), 4);
        assert_eq!(c.stats().miss_rate(), 0.5);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn paper_bank_geometry_is_valid() {
        let c = CacheConfig {
            size_bytes: 8 * 1024,
            ways: 1,
            block_bytes: 64,
        };
        assert_eq!(c.sets(), 128);
        let i = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 2,
            block_bytes: 64,
        };
        assert_eq!(i.sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_block_size_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 64,
            ways: 1,
            block_bytes: 24,
        });
    }

    properties! {
        /// A cache larger than the touched footprint never misses twice on
        /// the same block.
        #[test]
        fn no_capacity_misses_when_footprint_fits(
            addrs in vec_of(0u64..1024, 1..200)
        ) {
            // 4 KiB, fully covers 1 KiB of addresses at 16-byte blocks.
            let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 4, block_bytes: 16 });
            let mut seen = std::collections::HashSet::new();
            for a in addrs {
                let hit = c.access(a, false);
                let block = a >> 4;
                prop_assert_eq!(hit, !seen.insert(block));
            }
        }

        /// `access` (the inlined direct-mapped path and the out-of-line
        /// associative search alike) and `repeat_hit` agree with a
        /// reference LRU model — per set, tags in recency order — on every
        /// hit, on residency (`probe`), and on the final stats, for 1-, 2-
        /// and 4-way geometries. Operations are `(kind, address)`: kind 0
        /// flushes, kind 1 repeats the previous access through
        /// `repeat_hit`, kind 2 accesses address 0 (block tag 0, which an
        /// encoding where 0 means "invalid" gets wrong), and any other
        /// kind accesses the address.
        #[test]
        fn access_matches_a_reference_lru_model(
            ways_log in 0u32..3,
            sets_log in 0u32..4,
            ops in vec_of((0u8..32, 0u64..2048), 1..400)
        ) {
            let (ways, sets, block) = (1usize << ways_log, 1usize << sets_log, 16usize);
            let mut c = Cache::new(CacheConfig { size_bytes: ways * sets * block, ways, block_bytes: block });
            // model[set]: resident tags, most recently used first.
            let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets];
            let mut want = CacheStats::default();
            let mut prev: Option<u64> = None;
            for (kind, addr) in ops {
                if kind == 0 {
                    c.flush();
                    model.iter_mut().for_each(Vec::clear);
                    prev = None;
                    continue;
                }
                let repeat = kind == 1 && prev.is_some();
                let addr = match kind {
                    1 => prev.unwrap_or(addr),
                    2 => 0,
                    _ => addr,
                };
                let blk = addr / block as u64;
                let (set, tag) = ((blk % sets as u64) as usize, blk / sets as u64);
                let lru = &mut model[set];
                let hit = match lru.iter().position(|&t| t == tag) {
                    Some(i) => {
                        lru.remove(i);
                        true
                    }
                    None => {
                        lru.truncate(ways - 1);
                        false
                    }
                };
                lru.insert(0, tag);
                if hit { want.hits += 1 } else { want.misses += 1 }
                if repeat {
                    prop_assert!(hit, "a repeated block is resident");
                    c.repeat_hit();
                } else {
                    prop_assert_eq!(c.access(addr, kind % 2 == 0), hit, "access({:#x})", addr);
                }
                prev = Some(addr);
                let other = addr ^ (block * sets) as u64;
                let other_tag = (other / block as u64) / sets as u64;
                prop_assert_eq!(c.probe(other), model[set].contains(&other_tag));
            }
            prop_assert_eq!(c.stats(), want);
        }

        /// Probe agrees with the most recent access outcome.
        #[test]
        fn probe_after_access_is_true(a in any::<u64>()) {
            let mut c = tiny();
            c.access(a, false);
            prop_assert!(c.probe(a));
        }
    }
}
