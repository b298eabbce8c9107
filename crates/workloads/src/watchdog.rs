//! Liveness watchdog for concurrency tests.
//!
//! A wedged lock-free test (livelock, lost wake-up, abandoned migration)
//! does not fail — it hangs until the CI harness kills the whole test
//! binary with no indication of *which* test or *where*.  [`with_watchdog`]
//! bounds a test body with a monitor thread that prints the offending
//! label and aborts the process when the deadline passes, turning a silent
//! hang into an attributable failure.  Used by the growing-stress and
//! fault-injection suites, whose whole point is driving the migration
//! protocol into corners where a liveness bug would otherwise hide.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run `body`, aborting the process with a diagnostic if it has not
/// returned within `timeout`.
///
/// The monitor is a plain thread polling a completion flag (no signals,
/// no alarm(2)), so it composes with any number of concurrently running
/// `#[test]`s; an abort takes the whole test binary down, which is the
/// correct severity for a liveness violation — the remaining tests would
/// only queue behind the wedged threads anyway.  `body` starts once the
/// monitor runs: a thread frees its spawn closure when it starts, and an
/// allocator-exact body must not count that free (on one CPU the monitor
/// may first run long after it was spawned).
pub fn with_watchdog<T>(label: &str, timeout: Duration, body: impl FnOnce() -> T) -> T {
    let done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let monitor = {
        let (done, started) = (Arc::clone(&done), Arc::clone(&started));
        let label = label.to_owned();
        std::thread::spawn(move || {
            started.store(true, Ordering::Release);
            let deadline = Instant::now() + timeout;
            while Instant::now() < deadline {
                if done.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            if !done.load(Ordering::Acquire) {
                eprintln!(
                    "watchdog: '{label}' still running after {timeout:?} — \
                     aborting the test binary (suspected livelock or \
                     deadlock; the hang is the failure)"
                );
                std::process::abort();
            }
        })
    };
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let result = body();
    done.store(true, Ordering::Release);
    let _ = monitor.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_results_through() {
        let value = with_watchdog("trivial", Duration::from_secs(5), || 41 + 1);
        assert_eq!(value, 42);
    }

    #[test]
    fn completion_beats_the_deadline() {
        // A body finishing just before the deadline must not abort.
        let value = with_watchdog("slow-ish", Duration::from_millis(200), || {
            std::thread::sleep(Duration::from_millis(50));
            7
        });
        assert_eq!(value, 7);
    }
}
