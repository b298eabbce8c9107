//! Dedicated migration thread pool (paper §5.3.2, "Using a Dedicated
//! Thread Pool").
//!
//! The `paGrow`/`psGrow` variants do not enslave application threads for
//! the migration; instead a pool of worker threads sleeps on a condition
//! variable and is woken whenever a migration has been prepared.  The pool
//! workers then pull migration blocks exactly like enslaved user threads
//! would, and go back to sleep when the migration is finished.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use growt_iface::sync::lock;

/// Shared state between the pool owner and its workers.
pub(crate) struct PoolShared {
    /// Monotonically increasing migration generation; bumped by the leader
    /// to wake the workers.
    generation: Mutex<u64>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    /// Number of workers currently executing a migration (diagnostics).
    active_workers: AtomicU64,
}

impl PoolShared {
    fn new() -> Self {
        PoolShared {
            generation: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active_workers: AtomicU64::new(0),
        }
    }

    /// Wake all workers for a new migration.
    pub(crate) fn signal_migration(&self) {
        let mut generation = lock(&self.generation);
        *generation += 1;
        self.wakeup.notify_all();
    }

    /// Number of workers currently inside a migration.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn active_workers(&self) -> u64 {
        self.active_workers.load(Ordering::Acquire)
    }
}

/// A pool of dedicated migration threads.
///
/// The pool is generic over the *work* closure: the growing table passes a
/// closure that participates in the current migration (pulls blocks until
/// none are left).  Workers hold only the closure and the shared state, so
/// the pool does not borrow from the table object.
pub(crate) struct MigrationPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl MigrationPool {
    /// Spawn `threads` workers executing `work` once per wake-up.
    ///
    /// Degrades gracefully when the OS refuses to spawn (thread-count or
    /// memory limits): the pool runs with however many workers could be
    /// created — including **zero**.  Migrations still complete in that
    /// case because application threads waiting for a replacement mount a
    /// rescue after a patience window (`Inner::wait_until_replaced`); they
    /// are just no longer asynchronous to the waiters.
    pub(crate) fn spawn<F>(threads: usize, work: F) -> Self
    where
        F: Fn() + Send + Sync + 'static,
    {
        let shared = Arc::new(PoolShared::new());
        let work = Arc::new(work);
        let workers: Vec<JoinHandle<()>> = (0..threads.max(1))
            .map_while(|i| {
                if growt_failpoints::fire("pool.spawn") {
                    return None;
                }
                let shared = Arc::clone(&shared);
                let work = Arc::clone(&work);
                std::thread::Builder::new()
                    .name(format!("growt-migrate-{i}"))
                    .spawn(move || {
                        let mut seen_generation = 0u64;
                        loop {
                            {
                                let generation = shared
                                    .wakeup
                                    .wait_while(lock(&shared.generation), |generation| {
                                        *generation == seen_generation
                                            && !shared.shutdown.load(Ordering::Acquire)
                                    })
                                    .unwrap_or_else(PoisonError::into_inner);
                                if shared.shutdown.load(Ordering::Acquire) {
                                    return;
                                }
                                seen_generation = *generation;
                            }
                            shared.active_workers.fetch_add(1, Ordering::AcqRel);
                            work();
                            shared.active_workers.fetch_sub(1, Ordering::AcqRel);
                        }
                    })
                    .ok()
            })
            .collect();
        MigrationPool { shared, workers }
    }

    /// Shared handle used by the growing table to signal migrations.
    pub(crate) fn shared(&self) -> Arc<PoolShared> {
        Arc::clone(&self.shared)
    }
}

impl Drop for MigrationPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.generation);
            self.shared.wakeup.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn workers_run_once_per_signal() {
        let runs = Arc::new(AtomicUsize::new(0));
        let runs_clone = Arc::clone(&runs);
        let pool = MigrationPool::spawn(3, move || {
            runs_clone.fetch_add(1, Ordering::SeqCst);
        });
        let shared = pool.shared();
        shared.signal_migration();
        // Wait for all three workers to have executed the closure.
        for _ in 0..1000 {
            if runs.load(Ordering::SeqCst) >= 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 3);
        shared.signal_migration();
        for _ in 0..1000 {
            if runs.load(Ordering::SeqCst) >= 6 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 6);
        drop(pool); // must join cleanly
    }

    #[test]
    fn shutdown_without_signal_joins() {
        let pool = MigrationPool::spawn(2, || {});
        assert_eq!(pool.shared().active_workers(), 0);
        drop(pool);
    }
}
