//! A resident, coalescing memo table: `key → value` with single-flight
//! computation.
//!
//! The cell service keeps one of these alive for the life of the
//! process, `SimKey → Metrics`, so repeated requests are answered from
//! memory and *identical in-flight* requests are deduplicated: the first
//! requester claims the key and computes, every concurrent requester for
//! the same key parks on a condvar and receives the same value when it
//! is published. A claimant that fails (panicking simulation, dropped
//! connection before enqueueing) un-claims the key with
//! [`MemoTable::fail`] so waiters retry or error out instead of hanging
//! forever — the table can therefore never be wedged or corrupted by a
//! misbehaving request. (Workloads and prepared traces live in the
//! service `Runner`'s per-trace store, not here.)
//!
//! The table is deliberately append-only (no eviction): a `SimKey`'s
//! metrics are a pure function of the key, so entries never go stale,
//! and the value payloads are small (18 counters). Restarting the
//! server is the eviction policy.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
enum Slot<V> {
    /// Claimed: a computation is in flight.
    Pending,
    /// Published value.
    Ready(V),
}

/// Counter snapshot of a [`MemoTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from a `Ready` slot.
    pub hits: u64,
    /// Lookups that claimed the key (caller computes).
    pub misses: u64,
    /// Lookups that attached to an in-flight claim.
    pub coalesced: u64,
    /// Claims abandoned via [`MemoTable::fail`].
    pub failed: u64,
}

/// What [`MemoTable::schedule`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule<V> {
    /// The value is resident.
    Ready(V),
    /// Someone else is computing it; wait for the publication.
    InFlight,
    /// This caller claimed the key and **must** eventually call
    /// [`MemoTable::publish`] or [`MemoTable::fail`] for it.
    Claimed,
}

/// The in-flight computation a waiter was parked on was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeFailed;

impl std::fmt::Display for ComputeFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the in-flight computation for this key was abandoned")
    }
}

impl std::error::Error for ComputeFailed {}

/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct MemoTable<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    published: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    failed: AtomicU64,
}

impl<K: Eq + Hash + Copy, V: Clone> MemoTable<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        MemoTable {
            slots: Mutex::new(HashMap::new()),
            published: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }

    /// Published entries (in-flight claims excluded).
    pub fn len_ready(&self) -> usize {
        let slots = self.slots.lock().expect("memo table poisoned");
        slots.values().filter(|s| matches!(s, Slot::Ready(_))).count()
    }

    /// The value, if already published (no claiming, no counters).
    pub fn peek(&self, key: &K) -> Option<V> {
        let slots = self.slots.lock().expect("memo table poisoned");
        match slots.get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Looks the key up without blocking: a published value is a hit, an
    /// in-flight claim means "wait via [`MemoTable::wait`]", an empty
    /// slot is claimed for this caller.
    pub fn schedule(&self, key: K) -> Schedule<V> {
        let mut slots = self.slots.lock().expect("memo table poisoned");
        match slots.get(&key) {
            Some(Slot::Ready(v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Schedule::Ready(v.clone())
            }
            Some(Slot::Pending) => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                Schedule::InFlight
            }
            None => {
                slots.insert(key, Slot::Pending);
                self.misses.fetch_add(1, Ordering::Relaxed);
                Schedule::Claimed
            }
        }
    }

    /// Publishes a claimed key's value and wakes every waiter. The
    /// first publish wins: for a key that is not currently claimed
    /// (already published, abandoned, or never scheduled) this changes
    /// nothing and returns `false`.
    pub fn publish(&self, key: K, value: V) -> bool {
        let mut slots = self.slots.lock().expect("memo table poisoned");
        let Some(slot @ Slot::Pending) = slots.get_mut(&key) else {
            return false;
        };
        *slot = Slot::Ready(value);
        drop(slots);
        self.published.notify_all();
        true
    }

    /// Abandons a claim: the key becomes empty again (a later
    /// [`MemoTable::schedule`] re-claims it) and every waiter is woken
    /// to observe the failure. Publishing nothing after claiming would
    /// park waiters forever; this is the mandatory escape hatch.
    pub fn fail(&self, key: &K) {
        let mut slots = self.slots.lock().expect("memo table poisoned");
        if matches!(slots.get(key), Some(Slot::Pending)) {
            slots.remove(key);
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        drop(slots);
        self.published.notify_all();
    }

    /// Blocks until `key` is published, returning its value — or
    /// [`ComputeFailed`] if the claim was abandoned (the caller may
    /// re-[`schedule`](MemoTable::schedule) to retry).
    ///
    /// # Errors
    ///
    /// [`ComputeFailed`] when the in-flight computation was abandoned
    /// before publishing.
    pub fn wait(&self, key: &K) -> Result<V, ComputeFailed> {
        let mut slots = self.slots.lock().expect("memo table poisoned");
        loop {
            match slots.get(key) {
                Some(Slot::Ready(v)) => return Ok(v.clone()),
                Some(Slot::Pending) => {
                    slots = self.published.wait(slots).expect("memo table poisoned");
                }
                None => return Err(ComputeFailed),
            }
        }
    }

    /// Blocks until *any* of `pending` publishes, removes that key from
    /// `pending` and returns it with its value. Keys whose claims were
    /// abandoned are returned as the `Err` variant (and removed), so a
    /// streaming caller can report the failure and keep waiting on the
    /// rest.
    ///
    /// # Errors
    ///
    /// The failed key, when one of `pending`'s claims was abandoned.
    ///
    /// # Panics
    ///
    /// Panics if `pending` is empty — there would be nothing to wait
    /// for.
    pub fn wait_any(&self, pending: &mut Vec<K>) -> Result<(K, V), (K, ComputeFailed)> {
        assert!(!pending.is_empty(), "wait_any needs at least one pending key");
        let mut slots = self.slots.lock().expect("memo table poisoned");
        loop {
            for (i, key) in pending.iter().enumerate() {
                match slots.get(key) {
                    Some(Slot::Ready(v)) => {
                        let v = v.clone();
                        let key = pending.swap_remove(i);
                        return Ok((key, v));
                    }
                    Some(Slot::Pending) => {}
                    None => {
                        let key = pending.swap_remove(i);
                        return Err((key, ComputeFailed));
                    }
                }
            }
            slots = self.published.wait(slots).expect("memo table poisoned");
        }
    }

    /// Deadline-bounded [`wait_any`](MemoTable::wait_any): identical
    /// semantics, but returns `None` once `timeout` elapses without any
    /// of `pending` publishing or failing (`pending` is left intact).
    /// This is what lets a server handler put a hard ceiling on "waiting
    /// for a simulation someone else claimed" and answer with a typed
    /// timeout error instead of parking forever.
    ///
    /// # Errors
    ///
    /// The failed key, when one of `pending`'s claims was abandoned.
    ///
    /// # Panics
    ///
    /// Panics if `pending` is empty — there would be nothing to wait
    /// for.
    #[allow(clippy::type_complexity)]
    pub fn wait_any_for(
        &self,
        pending: &mut Vec<K>,
        timeout: Duration,
    ) -> Option<Result<(K, V), (K, ComputeFailed)>> {
        assert!(!pending.is_empty(), "wait_any_for needs at least one pending key");
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots.lock().expect("memo table poisoned");
        loop {
            for (i, key) in pending.iter().enumerate() {
                match slots.get(key) {
                    Some(Slot::Ready(v)) => {
                        let v = v.clone();
                        let key = pending.swap_remove(i);
                        return Some(Ok((key, v)));
                    }
                    Some(Slot::Pending) => {}
                    None => {
                        let key = pending.swap_remove(i);
                        return Some(Err((key, ComputeFailed)));
                    }
                }
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            // On wakeup — timed out or not — loop back and re-scan
            // under the lock: a publish may have raced the timeout, and
            // the deadline check above settles expiry.
            let (guard, _) =
                self.published.wait_timeout(slots, left).expect("memo table poisoned");
            slots = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn hit_miss_coalesce_lifecycle() {
        let t: MemoTable<u32, String> = MemoTable::new();
        assert_eq!(t.schedule(1), Schedule::Claimed);
        assert_eq!(t.schedule(1), Schedule::InFlight);
        t.publish(1, "one".into());
        assert_eq!(t.schedule(1), Schedule::Ready("one".into()));
        assert_eq!(t.peek(&1), Some("one".into()));
        assert_eq!(t.peek(&2), None);
        assert_eq!(t.len_ready(), 1);
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.coalesced, s.failed), (1, 1, 1, 0));
    }

    #[test]
    fn only_a_claimed_key_can_be_published_and_the_first_publish_wins() {
        let t: MemoTable<u32, u64> = MemoTable::new();
        assert!(!t.publish(3, 30), "an unscheduled key is not in flight");
        assert_eq!(t.peek(&3), None);
        assert_eq!(t.schedule(3), Schedule::Claimed);
        assert!(t.publish(3, 30));
        assert!(!t.publish(3, 31), "a second publish loses");
        assert_eq!(t.peek(&3), Some(30));
    }

    #[test]
    fn failed_claims_wake_waiters_and_allow_retry() {
        let t: Arc<MemoTable<u32, u64>> = Arc::new(MemoTable::new());
        assert_eq!(t.schedule(7), Schedule::Claimed);
        let waiter = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || t.wait(&7))
        };
        // Give the waiter a moment to park, then abandon the claim.
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.fail(&7);
        assert_eq!(waiter.join().unwrap(), Err(ComputeFailed));
        // The key is claimable again.
        assert_eq!(t.schedule(7), Schedule::Claimed);
        t.publish(7, 49);
        assert_eq!(t.wait(&7), Ok(49));
        assert_eq!(t.stats().failed, 1);
    }

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let t: Arc<MemoTable<u32, u64>> = Arc::new(MemoTable::new());
        let computed = Arc::new(AtomicUsize::new(0));
        let n = 16;
        let mut handles = Vec::new();
        for _ in 0..n {
            let t = Arc::clone(&t);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || loop {
                match t.schedule(42) {
                    Schedule::Ready(v) => return v,
                    Schedule::InFlight => match t.wait(&42) {
                        Ok(v) => return v,
                        Err(ComputeFailed) => continue,
                    },
                    Schedule::Claimed => {
                        // Simulate a slow computation so others coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        computed.fetch_add(1, Ordering::Relaxed);
                        t.publish(42, 4242);
                        return 4242;
                    }
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 4242, "every requester sees the same value");
        }
        assert_eq!(computed.load(Ordering::Relaxed), 1, "exactly one computation runs");
    }

    #[test]
    fn wait_any_for_times_out_and_then_delivers() {
        let t: Arc<MemoTable<u32, u64>> = Arc::new(MemoTable::new());
        assert_eq!(t.schedule(9), Schedule::Claimed);
        let mut pending = vec![9];
        // Nothing publishes: the bounded wait must expire, leaving the
        // pending set intact.
        let verdict = t.wait_any_for(&mut pending, std::time::Duration::from_millis(30));
        assert_eq!(verdict, None);
        assert_eq!(pending, vec![9]);
        // A publish from another thread is delivered well inside the
        // (generous) deadline.
        let publisher = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                t.publish(9, 81);
            })
        };
        let verdict = t.wait_any_for(&mut pending, std::time::Duration::from_secs(30));
        assert_eq!(verdict, Some(Ok((9, 81))));
        assert!(pending.is_empty());
        publisher.join().unwrap();
    }

    #[test]
    fn wait_any_returns_completions_in_publish_order() {
        let t: Arc<MemoTable<u32, u64>> = Arc::new(MemoTable::new());
        for k in [1, 2, 3] {
            assert_eq!(t.schedule(k), Schedule::Claimed);
        }
        let publisher = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for k in [2, 3] {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    t.publish(k, u64::from(k) * 10);
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                t.fail(&1);
            })
        };
        let mut pending = vec![1, 2, 3];
        let first = t.wait_any(&mut pending).unwrap();
        assert_eq!(first, (2, 20));
        let second = t.wait_any(&mut pending).unwrap();
        assert_eq!(second, (3, 30));
        // The abandoned key surfaces as an error, not a hang.
        assert_eq!(t.wait_any(&mut pending), Err((1, ComputeFailed)));
        assert!(pending.is_empty());
        publisher.join().unwrap();
    }
}
