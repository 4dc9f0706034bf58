//! The bounded job queue between the reactor and the workers.
//!
//! Backpressure is explicit: [`Bounded::push`] on a full (or closed)
//! queue hands the item straight back so the reactor can shed load with
//! a `503` + `Retry-After` instead of queuing unboundedly. [`Bounded::pop`]
//! blocks until an item arrives or the queue is closed and drained, which
//! is how graceful shutdown lets workers finish in-flight work.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Recovers a usable guard from a poisoned mutex: queue state is a plain
/// `VecDeque` that stays consistent even if a holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
pub struct Bounded<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    ready: Condvar,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items at once.
    pub fn new(capacity: usize) -> Bounded<T> {
        Bounded {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity,
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item`, or hands it back if the queue is full or closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = lock(&self.state);
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open and
    /// empty. `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = lock(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeues the oldest item without blocking. `None` when the queue
    /// is currently empty (open or closed). The event-driven reactor uses
    /// this to drain leftover jobs at shutdown when no workers exist.
    pub fn try_pop(&self) -> Option<T> {
        lock(&self.state).items.pop_front()
    }

    /// Closes the queue: pending items can still be popped, new pushes
    /// fail, and blocked poppers wake up.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued (the `/metrics` queue-depth gauge).
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// The fixed capacity this queue admits (the readiness probe compares
    /// it against [`Bounded::len`] to report saturation).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_fails_when_full_and_hands_the_item_back() {
        let q = Bounded::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok());
    }

    #[test]
    fn close_drains_then_yields_none() {
        let q = Bounded::new(4);
        q.push("a").unwrap();
        q.close();
        assert_eq!(q.push("b"), Err("b"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(Bounded::<u32>::new(1));
        let handle = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the popper a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn items_flow_producer_to_consumer() {
        let q = Arc::new(Bounded::new(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..20 {
            loop {
                match q.push(i) {
                    Ok(()) => break,
                    Err(_) => std::thread::yield_now(),
                }
            }
        }
        q.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }
}
