//! Per-backend state the gateway tracks: health, breaker, counters.

use crate::breaker::Breaker;
use mds_harness::stats::Histogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Lock-free per-backend counters, rendered as labeled Prometheus
/// samples by the gateway's `/metrics`.
#[derive(Debug, Default)]
pub struct BackendStats {
    /// Upstream attempts sent to this backend (failovers included).
    pub attempts: AtomicU64,
    /// Attempts that failed at the transport level.
    pub failures: AtomicU64,
    /// Attempts the backend answered with `503` (shed or draining).
    pub sheds: AtomicU64,
    /// Upstream latency of attempts to this backend.
    pub latency: Histogram,
}

/// One upstream `mds-serve` backend as the gateway sees it.
#[derive(Debug)]
pub struct Backend {
    /// The backend's `host:port`.
    pub addr: String,
    /// Last readiness-probe verdict. Starts `true` (optimistic): the
    /// data path discovers a dead backend via its breaker even before
    /// the first probe lands.
    healthy: AtomicBool,
    breaker: Mutex<Breaker>,
    /// Counters for `/metrics` and `/v1/cluster`.
    pub stats: BackendStats,
}

impl Backend {
    /// A backend starting healthy with a closed breaker; `seed` fixes
    /// the breaker's cooldown jitter.
    pub fn new(addr: String, seed: u64) -> Backend {
        Backend {
            addr,
            healthy: AtomicBool::new(true),
            breaker: Mutex::new(Breaker::new(seed)),
            stats: BackendStats::default(),
        }
    }

    /// The last probe verdict.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Records a probe verdict; returns the previous one so the prober
    /// logs only actual changes.
    pub fn set_healthy(&self, healthy: bool) -> bool {
        self.healthy.swap(healthy, Ordering::SeqCst)
    }

    /// Runs `f` against this backend's breaker (poisoning is ignored:
    /// breaker state stays consistent under panic because every method
    /// completes its transition before returning).
    pub fn with_breaker<T>(&self, f: impl FnOnce(&mut Breaker) -> T) -> T {
        let mut guard = self.breaker.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Whether new traffic should consider this backend at all: probed
    /// healthy and the breaker would let a request through.
    pub fn in_rotation(&self, now: Instant) -> bool {
        self.is_healthy() && self.with_breaker(|b| b.would_allow(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_requires_health_and_a_willing_breaker() {
        let b = Backend::new("127.0.0.1:1".to_string(), 1);
        let now = Instant::now();
        assert!(b.in_rotation(now));
        assert!(b.set_healthy(false), "previous verdict was healthy");
        assert!(!b.in_rotation(now));
        b.set_healthy(true);
        b.with_breaker(|br| {
            for _ in 0..3 {
                br.record_failure(now);
            }
        });
        assert!(!b.in_rotation(now), "tripped breaker ejects the backend");
    }
}
