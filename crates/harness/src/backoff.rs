//! Capped exponential backoff with deterministic jitter.
//!
//! The retry-delay policy shared by every robustness layer in the
//! workspace: the load generator honoring `503 Retry-After`, the cluster
//! gateway's health prober, and its circuit breaker's open-state
//! cooldown. The schedule is the standard *capped exponential with
//! jitter*: attempt `n` nominally waits `base * 2^n`, clamped to `cap`,
//! and the actual delay is drawn uniformly from the upper half of the
//! nominal window (`[d/2, d]`) so that synchronized clients decorrelate
//! instead of retrying in lockstep (the thundering-herd failure mode).
//!
//! Jitter comes from the in-tree [`Rng`], so a given
//! seed replays the exact same delay sequence — retry timing in tests is
//! reproducible like everything else in this workspace.
//!
//! # Examples
//!
//! ```
//! use mds_harness::backoff::Backoff;
//! use std::time::Duration;
//!
//! let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(1), 7);
//! let first = b.next_delay();
//! assert!(first >= Duration::from_millis(50) && first <= Duration::from_millis(100));
//! for _ in 0..10 {
//!     assert!(b.next_delay() <= Duration::from_secs(1), "cap always holds");
//! }
//! b.reset(); // a success rewinds the schedule to the base delay
//! assert!(b.next_delay() <= Duration::from_millis(100));
//! ```

use crate::rng::Rng;
use std::time::Duration;

/// Draws a jittered delay uniformly from `[d/2, d]`.
///
/// The upper-half window keeps the mean close to the nominal delay (so a
/// server's `Retry-After` hint is still roughly honored) while spreading
/// synchronized retriers across half the window.
pub fn jittered(d: Duration, rng: &mut Rng) -> Duration {
    let nominal = d.as_micros().min(u64::MAX as u128) as u64;
    if nominal < 2 {
        return d;
    }
    let lo = nominal / 2;
    Duration::from_micros(rng.gen_range(lo..nominal + 1))
}

/// A capped exponential backoff schedule with full-window jitter.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: Rng,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per attempt, never
    /// exceeding `cap`. `seed` fixes the jitter stream.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base: base.max(Duration::from_micros(1)),
            cap: cap.max(base),
            attempt: 0,
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The nominal (un-jittered) delay for the next attempt.
    pub fn nominal(&self) -> Duration {
        let shift = self.attempt.min(32);
        self.base
            .checked_mul(1u32 << shift.min(31))
            .map_or(self.cap, |d| d.min(self.cap))
    }

    /// Consecutive failures recorded since the last [`Backoff::reset`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Returns the jittered delay for the next attempt and advances the
    /// schedule.
    pub fn next_delay(&mut self) -> Duration {
        let delay = jittered(self.nominal(), &mut self.rng);
        self.attempt = self.attempt.saturating_add(1);
        delay
    }

    /// Rewinds the schedule to the base delay (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_doubles_then_caps() {
        let b = |attempt| {
            let mut s = Backoff::new(Duration::from_millis(10), Duration::from_millis(65), 1);
            s.attempt = attempt;
            s.nominal()
        };
        assert_eq!(b(0), Duration::from_millis(10));
        assert_eq!(b(1), Duration::from_millis(20));
        assert_eq!(b(2), Duration::from_millis(40));
        assert_eq!(b(3), Duration::from_millis(65)); // capped
        assert_eq!(b(31), Duration::from_millis(65)); // no overflow
    }

    #[test]
    fn delays_stay_in_the_jitter_window_and_replay_by_seed() {
        let mut a = Backoff::new(Duration::from_millis(100), Duration::from_secs(2), 42);
        let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(2), 42);
        for _ in 0..12 {
            let nominal = a.nominal();
            let d = a.next_delay();
            assert!(d >= nominal / 2 && d <= nominal, "{d:?} vs {nominal:?}");
            assert_eq!(d, b.next_delay(), "same seed replays the same delays");
        }
        a.reset();
        assert_eq!(a.attempt(), 0);
        assert!(a.next_delay() <= Duration::from_millis(100));
    }

    #[test]
    fn jittered_handles_degenerate_durations() {
        let mut rng = Rng::seed_from_u64(3);
        assert_eq!(jittered(Duration::ZERO, &mut rng), Duration::ZERO);
        assert_eq!(
            jittered(Duration::from_micros(1), &mut rng),
            Duration::from_micros(1)
        );
    }
}
