//! Poison-recovering lock helpers.
//!
//! A panicking experiment job is caught by the worker's `catch_unwind`,
//! but if the panic unwound through a critical section the `Mutex` is
//! left *poisoned* and every later `lock().unwrap()` turns one bad job
//! into a permanently broken daemon. All shared state in this crate is
//! plain data (counters, queues, LRU vectors) whose invariants hold at
//! every await-free statement boundary, so recovering the guard is
//! always safe — the daemon keeps serving and the recovery is counted
//! so `/metrics` makes the event visible instead of silent.
//!
//! `clippy::unwrap_used` is denied crate-wide; these helpers are the
//! only sanctioned way to take a lock in `csd-serve`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Times a poisoned lock (or condvar wait) was recovered, process-wide.
/// A global rather than a `Metrics` field so the lock helpers stay
/// dependency-free (`Metrics` itself holds locks).
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of poisoned-lock recoveries (for `/metrics`).
pub fn poison_recoveries() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

/// Locks `m`, recovering (and counting) a poisoned guard instead of
/// propagating the panic of whichever thread died holding it.
pub fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// Waits on `cv`, recovering (and counting) a poisoned guard the same
/// way [`relock`] does.
pub fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|poisoned| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    #[test]
    fn relock_recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u64));
        let before = poison_recoveries();
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("die holding the lock");
        })
        .join();
        assert!(m.is_poisoned(), "panic while held must poison");
        assert_eq!(*relock(&m), 7, "data survives the recovery");
        assert!(poison_recoveries() > before, "recovery must be counted");
        // A recovered lock keeps working for every later taker.
        *relock(&m) = 8;
        assert_eq!(*relock(&m), 8);
    }

    #[test]
    fn rewait_survives_concurrent_poisoning() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut ready = relock(m);
                while !*ready {
                    ready = rewait(cv, ready);
                }
            })
        };
        let poisoner = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (m, _) = &*pair;
                let mut g = m.lock().unwrap();
                *g = true;
                panic!("poison while flag is set");
            })
        };
        let _ = poisoner.join();
        pair.1.notify_all();
        waiter.join().expect("waiter must survive the poisoning");
    }
}
