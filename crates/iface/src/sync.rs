//! The two `std::sync` additions every crate of the workspace shares.
//!
//! * Lock helpers that ignore poisoning.  A table keeps its locks across a
//!   panicking `insert_or_update` closure or a thread killed at a
//!   failpoint, and what such a lock guards (a migration log, a handle
//!   registry, a limbo list) is consistent between statements; refusing
//!   every later caller would wedge the whole table for one lost
//!   operation.
//! * [`CachePadded`], which keeps a hot atomic off its neighbours' lines.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock `mutex`, taking it over from a thread that panicked holding it.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock `rwlock`, whether or not a writer panicked holding it.
pub fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock `rwlock`, whether or not a writer panicked holding it.
pub fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A value aligned, and so padded, to 128 bytes: two 64-byte lines, since
/// x86-64's adjacent-line prefetcher pulls lines in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    /// Pad `value`.
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on another thread, which panics holding what `f` locked.
    fn panic_holding(f: impl FnOnce() + Send) {
        std::thread::scope(|s| assert!(s.spawn(f).join().is_err()));
    }

    #[test]
    fn a_poisoned_mutex_is_still_locked() {
        let mutex = Mutex::new(1u32);
        panic_holding(|| {
            let mut guard = lock(&mutex);
            *guard = 2;
            panic!("poisoning the mutex");
        });
        assert!(mutex.is_poisoned());
        *lock(&mutex) += 1;
        assert_eq!(*lock(&mutex), 3);
    }

    #[test]
    fn a_poisoned_rwlock_is_still_read_and_written() {
        let rwlock = RwLock::new(vec![1u32]);
        panic_holding(|| {
            let mut guard = write(&rwlock);
            guard.push(2);
            panic!("poisoning the rwlock");
        });
        assert!(rwlock.is_poisoned());
        write(&rwlock).push(3);
        assert_eq!(*read(&rwlock), [1, 2, 3]);
    }

    #[test]
    fn cache_padded_is_aligned_to_two_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 128);
        let mut padded = CachePadded::new(7u64);
        *padded += 1;
        assert_eq!(*padded, 8);
    }
}
