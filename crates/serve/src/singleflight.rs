//! Single-flight coalescing of identical in-flight computes.
//!
//! When N connections miss the plan cache on the same key at (nearly) the
//! same moment, computing the plan N times is pure waste — the inputs are
//! identical and the result is cacheable. This module collapses the N
//! misses into **one** compute: the first caller to join a key becomes the
//! *leader* and is responsible for enqueuing the compute job; everyone who
//! joins before the job completes is a *follower* and simply parks. When
//! the job finishes, [`SingleFlight::complete`] hands back every parked
//! waiter so all of them can be answered from the single result.
//!
//! The registry stores opaque waiter values — the event loop parks a
//! connection token plus enough request context to format the response —
//! so the compute pool never touches sockets, and a waiter whose
//! connection has since closed is discarded harmlessly at delivery time.
//! The leader holds no special capability after enqueuing the job: the
//! compute is owned by the pool, so a leader that disconnects mid-flight
//! cannot strand its followers.

use std::collections::HashMap;
use std::sync::Mutex;

/// A registry of in-flight computes keyed by cache key, each with its
/// queue of parked waiters.
pub struct SingleFlight<W> {
    inflight: Mutex<HashMap<u64, Vec<W>>>,
}

impl<W> Default for SingleFlight<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> SingleFlight<W> {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Join the flight for `key`, building the waiter via `make(is_leader)`.
    ///
    /// Returns `true` when this call created the flight — the caller is the
    /// leader and must enqueue exactly one compute job (or call
    /// [`complete`](Self::complete) immediately to fail everyone if it
    /// cannot). Returns `false` for followers, whose waiter is parked until
    /// the leader's job completes.
    pub fn join_with(&self, key: u64, make: impl FnOnce(bool) -> W) -> bool {
        let mut inflight = self.inflight.lock().expect("singleflight poisoned");
        match inflight.get_mut(&key) {
            Some(waiters) => {
                waiters.push(make(false));
                false
            }
            None => {
                inflight.insert(key, vec![make(true)]);
                true
            }
        }
    }

    /// End the flight for `key`, returning every parked waiter (leader
    /// included) for delivery. Unknown keys return an empty vec.
    #[must_use]
    pub fn complete(&self, key: u64) -> Vec<W> {
        self.inflight
            .lock()
            .expect("singleflight poisoned")
            .remove(&key)
            .unwrap_or_default()
    }

    /// Number of distinct keys currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inflight.lock().expect("singleflight poisoned").len()
    }

    /// Whether no computes are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_joiner_leads_rest_follow() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        assert!(flight.join_with(9, |leader| {
            assert!(leader);
            0
        }));
        for i in 1..5u32 {
            assert!(!flight.join_with(9, |leader| {
                assert!(!leader);
                i
            }));
        }
        assert_eq!(flight.len(), 1);
        let waiters = flight.complete(9);
        assert_eq!(waiters, vec![0, 1, 2, 3, 4]);
        assert!(flight.is_empty());
    }

    #[test]
    fn distinct_keys_are_independent_flights() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        assert!(flight.join_with(1, |_| 10));
        assert!(flight.join_with(2, |_| 20));
        assert_eq!(flight.len(), 2);
        assert_eq!(flight.complete(1), vec![10]);
        assert_eq!(flight.complete(2), vec![20]);
    }

    #[test]
    fn completing_an_unknown_key_is_empty_not_a_panic() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        assert!(flight.complete(404).is_empty());
    }

    #[test]
    fn key_can_be_rejoined_after_completion() {
        let flight: SingleFlight<u32> = SingleFlight::new();
        assert!(flight.join_with(5, |_| 1));
        let _ = flight.complete(5);
        assert!(
            flight.join_with(5, |_| 2),
            "a finished key starts a fresh flight with a fresh leader"
        );
    }
}
