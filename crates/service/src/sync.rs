//! Poison-tolerant lock helpers.
//!
//! A worker panicking while holding a lock poisons it; for this service
//! every protected structure is either valid at all times (counters, maps
//! updated in single statements) or rebuilt per job, so the right response
//! to poison is to keep going with the data as-is rather than take the
//! whole engine down. These helpers are the single place that decision is
//! made — code elsewhere never calls `.lock().unwrap()`/`.expect(..)`.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Locks `m`, recovering the guard if a panicking holder poisoned it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Waits on `cv`, recovering the guard if the lock was poisoned while
/// parked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Waits on `cv` for at most `timeout` (spurious wake-ups included),
/// recovering the guard if the lock was poisoned while parked.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    let (guard, _) = cv
        .wait_timeout(guard, timeout)
        .unwrap_or_else(|e| e.into_inner());
    guard
}

/// Read-locks `l`, recovering from poison.
pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks `l`, recovering from poison.
pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Mutex::new(7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn rwlock_recovers_from_poison() {
        let l = RwLock::new(3u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = l.write().unwrap();
            panic!("poison it");
        }));
        assert_eq!(*read(&l), 3);
        *write(&l) = 4;
        assert_eq!(*read(&l), 4);
    }
}
