//! A three-state circuit breaker for one upstream backend.
//!
//! The breaker watches transport-level outcomes on the data path (a
//! connect failure, a timed-out read — *not* HTTP status codes, which
//! the gateway interprets itself) and cuts a persistently failing
//! backend out of rotation so requests stop paying its timeout:
//!
//! - **Closed** — traffic flows; three *consecutive* failures trip the
//!   breaker.
//! - **Open** — all traffic is refused for a cooldown drawn from the
//!   shared capped-exponential-with-jitter schedule
//!   ([`mds_harness::backoff::Backoff`]): 250 ms, doubled by each
//!   repeated trip up to a 5 s cap, and the jitter decorrelates a fleet
//!   of gateways rediscovering the same dead backend.
//! - **HalfOpen** — after the cooldown one trial request is let through;
//!   its success closes the breaker (and resets the cooldown schedule),
//!   its failure re-opens it.
//!
//! Every method takes `now: Instant` instead of reading the clock, so
//! tests drive the full state machine synthetically, and state changes
//! are returned as [`Transition`]s for the gateway's structured event
//! log.

use mds_harness::backoff::Backoff;
use std::time::{Duration, Instant};

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Traffic flows; failures are being counted.
    Closed,
    /// Traffic is refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed; one probe request at a time is allowed.
    HalfOpen,
}

impl State {
    /// Lowercase name for logs and `/v1/cluster` output.
    pub fn name(self) -> &'static str {
        match self {
            State::Closed => "closed",
            State::Open => "open",
            State::HalfOpen => "half-open",
        }
    }

    /// Numeric encoding for the Prometheus gauge (0 closed, 1 half-open,
    /// 2 open).
    pub fn as_gauge(self) -> u64 {
        match self {
            State::Closed => 0,
            State::HalfOpen => 1,
            State::Open => 2,
        }
    }
}

/// A state change, reported so the gateway can log it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The state before.
    pub from: State,
    /// The state after.
    pub to: State,
}

/// Consecutive data-path failures that trip Closed → Open.
const FAILURE_THRESHOLD: u32 = 3;

/// First open-state cooldown; doubles per consecutive trip.
const COOLDOWN: Duration = Duration::from_millis(250);

/// Upper bound on the (pre-jitter) cooldown.
const COOLDOWN_CAP: Duration = Duration::from_secs(5);

/// The circuit breaker itself. Not thread-safe; the gateway wraps each
/// backend's breaker in a `Mutex`.
#[derive(Debug)]
pub struct Breaker {
    state: State,
    consecutive_failures: u32,
    /// While Open: when the cooldown elapses.
    open_until: Option<Instant>,
    /// The escalating cooldown schedule; reset when the breaker closes.
    cooldown: Backoff,
    /// Trial requests currently in flight while HalfOpen (at most one).
    half_open_inflight: u32,
    opens: u64,
}

impl Breaker {
    /// A closed breaker; `seed` fixes the cooldown jitter stream.
    pub fn new(seed: u64) -> Breaker {
        Breaker {
            cooldown: Backoff::new(COOLDOWN, COOLDOWN_CAP, seed),
            state: State::Closed,
            consecutive_failures: 0,
            open_until: None,
            half_open_inflight: 0,
            opens: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Times the breaker has tripped open so far.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Whether a request *could* go through at `now`, without consuming
    /// a half-open trial permit. Used to filter the rotation; the actual
    /// attempt must call [`Breaker::try_acquire`].
    pub fn would_allow(&self, now: Instant) -> bool {
        match self.state {
            State::Closed | State::HalfOpen => true,
            State::Open => self.open_until.is_some_and(|until| now >= until),
        }
    }

    /// Asks to send one request at `now`. Open breakers whose cooldown
    /// elapsed move to HalfOpen and admit the request as the trial;
    /// HalfOpen admits at most one trial at a time.
    pub fn try_acquire(&mut self, now: Instant) -> (bool, Option<Transition>) {
        match self.state {
            State::Closed => (true, None),
            State::Open => {
                if self.open_until.is_some_and(|until| now >= until) {
                    let t = self.transition(State::HalfOpen);
                    self.half_open_inflight = 1;
                    (true, t)
                } else {
                    (false, None)
                }
            }
            State::HalfOpen => {
                if self.half_open_inflight == 0 {
                    self.half_open_inflight = 1;
                    (true, None)
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Returns an unused permit from [`Breaker::try_acquire`] (the
    /// gateway acquired but then could not attempt, e.g. the retry
    /// budget ran out).
    pub fn cancel_acquire(&mut self) {
        self.half_open_inflight = self.half_open_inflight.saturating_sub(1);
    }

    /// Records a successful data-path exchange; a half-open trial's
    /// success closes the breaker.
    pub fn record_success(&mut self, _now: Instant) -> Option<Transition> {
        self.half_open_inflight = self.half_open_inflight.saturating_sub(1);
        match self.state {
            State::Closed => {
                self.consecutive_failures = 0;
                None
            }
            State::HalfOpen => {
                self.consecutive_failures = 0;
                self.cooldown.reset();
                self.transition(State::Closed)
            }
            // A late success from a request issued before the trip: the
            // cooldown still runs its course.
            State::Open => None,
        }
    }

    /// Records a data-path failure.
    pub fn record_failure(&mut self, now: Instant) -> Option<Transition> {
        self.half_open_inflight = self.half_open_inflight.saturating_sub(1);
        match self.state {
            State::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.trip(now)
                } else {
                    None
                }
            }
            State::HalfOpen => self.trip(now),
            State::Open => None,
        }
    }

    fn trip(&mut self, now: Instant) -> Option<Transition> {
        self.opens += 1;
        self.open_until = Some(now + self.cooldown.next_delay());
        self.transition(State::Open)
    }

    fn transition(&mut self, to: State) -> Option<Transition> {
        let from = std::mem::replace(&mut self.state, to);
        (from != to).then_some(Transition { from, to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> Breaker {
        Breaker::new(42)
    }

    #[test]
    fn trips_after_threshold_consecutive_failures_only() {
        let mut b = breaker();
        let t0 = Instant::now();
        assert!(b.record_failure(t0).is_none());
        assert!(b.record_success(t0).is_none(), "success resets the count");
        assert!(b.record_failure(t0).is_none());
        assert!(b.record_failure(t0).is_none());
        let trip = b.record_failure(t0).expect("third consecutive trips");
        assert_eq!(trip.from, State::Closed);
        assert_eq!(trip.to, State::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.would_allow(t0), "open refuses immediately");
        let (ok, _) = b.try_acquire(t0);
        assert!(!ok);
    }

    #[test]
    fn cooldown_admits_a_half_open_trial_then_closes_on_success() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        // Past the cooldown cap the breaker must be willing again.
        let later = t0 + Duration::from_secs(6);
        assert!(b.would_allow(later));
        let (ok, t) = b.try_acquire(later);
        assert!(ok);
        assert_eq!(t.unwrap().to, State::HalfOpen);
        // Only one trial at a time.
        let (second, _) = b.try_acquire(later);
        assert!(!second, "half-open admits one trial");
        let closed = b.record_success(later).expect("trial success closes");
        assert_eq!(closed.to, State::Closed);
        let (flows, _) = b.try_acquire(later);
        assert!(flows);
    }

    #[test]
    fn half_open_failure_reopens_with_a_longer_cooldown() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let later = t0 + Duration::from_secs(6);
        b.try_acquire(later);
        let reopened = b.record_failure(later).expect("trial failure reopens");
        assert_eq!(reopened.from, State::HalfOpen);
        assert_eq!(reopened.to, State::Open);
        assert_eq!(b.opens(), 2);
        // The second cooldown is at least the (jittered) doubled base:
        // strictly more than half the first nominal delay after `later`.
        assert!(!b.would_allow(later + Duration::from_millis(100)));
    }

    #[test]
    fn cancel_acquire_returns_the_trial_permit() {
        let mut b = breaker();
        let t0 = Instant::now();
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let later = t0 + Duration::from_secs(6);
        let (ok, _) = b.try_acquire(later);
        assert!(ok);
        b.cancel_acquire();
        let (again, _) = b.try_acquire(later);
        assert!(again, "cancelled permit is available again");
    }
}
