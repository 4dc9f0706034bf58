//! A split-transaction memory bus with contention.

/// A shared memory bus modeled as an earliest-free-time resource.
///
/// The paper's configuration: "all memory requests are handled by a single
/// 4-word, split-transaction memory bus; each memory access requires a 10
/// cycle access latency for the first 4 words and 1 cycle for each
/// additional 4 words, plus any bus contention." A 64-byte block fill is
/// therefore 10 + 3 additional cycles, which is exactly the paper's quoted
/// miss penalty of "10+3 cycles, plus any bus contention".
///
/// # Examples
///
/// ```
/// use mds_mem::Bus;
/// let mut bus = Bus::new(10, 1, 4);
/// let first = bus.request(0, 16); // 16 words: 10 + 3 extra
/// assert_eq!(first, 13);
/// // A second request issued at the same time queues behind the first.
/// let second = bus.request(0, 4);
/// assert_eq!(second, 13 + 10);
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    free_at: u64,
    first_latency: u64,
    extra_latency: u64,
    words_per_beat: u64,
    transactions: u64,
    busy_cycles: u64,
}

impl Bus {
    /// Creates a bus: `first_latency` cycles for the first beat of
    /// `words_per_beat` words, then `extra_latency` per additional beat.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_beat == 0`.
    pub fn new(first_latency: u64, extra_latency: u64, words_per_beat: u64) -> Self {
        assert!(words_per_beat > 0, "bus beat width must be positive");
        Bus {
            free_at: 0,
            first_latency,
            extra_latency,
            words_per_beat,
            transactions: 0,
            busy_cycles: 0,
        }
    }

    /// The paper's memory bus: 10-cycle first beat, 1 cycle per extra
    /// 4-word beat.
    pub fn paper_default() -> Self {
        Bus::new(10, 1, 4)
    }

    /// Requests a transfer of `words` (4-byte) words starting no earlier
    /// than `now`; returns the cycle at which the data is fully delivered.
    /// The bus is occupied for the whole transfer (split transactions are
    /// serialized, modeling contention).
    #[inline]
    pub fn request(&mut self, now: u64, words: u64) -> u64 {
        let beats = words.div_ceil(self.words_per_beat).max(1);
        let duration = self.first_latency + (beats - 1) * self.extra_latency;
        let start = now.max(self.free_at);
        self.free_at = start + duration;
        self.transactions += 1;
        self.busy_cycles += duration;
        self.free_at
    }

    /// Cycle at which the bus next becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Number of transactions served.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Total cycles the bus has been occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Resets to idle (between independent simulations).
    pub fn reset(&mut self) {
        self.free_at = 0;
        self.transactions = 0;
        self.busy_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_harness::prelude::*;

    #[test]
    fn block_fill_matches_paper_miss_penalty() {
        let mut bus = Bus::paper_default();
        // 64-byte block = 16 4-byte words = 4 beats: 10 + 3.
        assert_eq!(bus.request(0, 16), 13);
    }

    #[test]
    fn contention_serializes() {
        let mut bus = Bus::paper_default();
        let a = bus.request(5, 4);
        assert_eq!(a, 15);
        let b = bus.request(6, 4); // queued behind a
        assert_eq!(b, 25);
        let c = bus.request(100, 4); // idle again
        assert_eq!(c, 110);
        assert_eq!(bus.transactions(), 3);
        assert_eq!(bus.busy_cycles(), 30);
    }

    #[test]
    fn zero_words_still_one_beat() {
        let mut bus = Bus::new(10, 1, 4);
        assert_eq!(bus.request(0, 0), 10);
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut bus = Bus::paper_default();
        bus.request(0, 16);
        bus.reset();
        assert_eq!(bus.free_at(), 0);
        assert_eq!(bus.transactions(), 0);
    }

    #[test]
    #[should_panic(expected = "beat width")]
    fn zero_beat_width_panics() {
        let _ = Bus::new(10, 1, 0);
    }

    properties! {
        /// Completion times are monotone in request order.
        #[test]
        fn completions_are_monotone(reqs in vec_of((0u64..1000, 1u64..64), 1..50)) {
            let mut bus = Bus::paper_default();
            let mut sorted = reqs.clone();
            sorted.sort_by_key(|&(t, _)| t);
            let mut last = 0;
            for (t, w) in sorted {
                let done = bus.request(t, w);
                prop_assert!(done >= last);
                prop_assert!(done >= t + 10);
                last = done;
            }
        }
    }
}
