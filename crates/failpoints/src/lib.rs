//! Named, feature-gated fault-injection points.
//!
//! Every load-bearing protocol window in the reproduction — INFLIGHT
//! publication gaps, migration block claims, generation allocation, QSBR
//! retire/reclaim — carries a named call to [`fire`].  With the crate's
//! `enabled` feature **off** (the default, and what every production and
//! benchmark build uses), `fire` is an `#[inline(always)]` function that
//! returns the literal `false`: the optimizer deletes the call and the
//! instrumented paths are bit-for-bit the uninstrumented ones.
//!
//! With `enabled` on (selected by the `failpoints` feature of the
//! consuming crates), each named point can be configured at runtime with
//! an [`Action`] and a [`Trigger`]:
//!
//! * **Actions** — [`Action::Panic`] unwinds with a diagnostic message,
//!   [`Action::ExitThread`] unwinds with the [`ThreadExit`] sentinel
//!   payload (the test harness catches it to simulate a thread dying
//!   mid-protocol without tearing the process down), [`Action::Yield`] /
//!   [`Action::DelayMs`] widen race windows deterministically,
//!   [`Action::WaitFor`] holds one open until an event, and
//!   [`Action::FailAlloc`] makes `fire` return `true`, which fallible
//!   call sites translate into an allocation failure.
//! * **Triggers** — fire always, once, on the *k*-th visit, every *n*-th
//!   visit, or with a seeded pseudo-random probability (splitmix64 over
//!   the per-point visit counter, so a given seed reproduces the exact
//!   same schedule on every run).
//!
//! The registry is process-global; concurrent tests that configure
//! points must serialize themselves (the fault-injection suite does).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Panic payload used by [`Action::ExitThread`].
///
/// A thread "exiting" mid-protocol is simulated as an unwind carrying
/// this sentinel; test harnesses `catch_unwind`, check
/// `payload.is::<ThreadExit>()` and let the thread end quietly, which is
/// observationally a thread that died after its last protocol step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadExit;

/// What a triggered failpoint does.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// Unwind with a descriptive panic message.
    Panic,
    /// Unwind with the [`ThreadExit`] sentinel payload.
    ExitThread,
    /// Call `std::thread::yield_now()` the given number of times.
    Yield(u32),
    /// Sleep for the given number of milliseconds.
    DelayMs(u64),
    /// Hold the visiting thread until `until` returns `true` (polled once
    /// a millisecond) or `deadline_ms` have passed: a window held open
    /// until another thread has made its steps, however it is scheduled.
    WaitFor {
        /// The event the hold waits for.
        until: fn() -> bool,
        /// Longest hold in milliseconds.
        deadline_ms: u64,
    },
    /// Make [`fire`] return `true`; fallible call sites treat that as a
    /// failed allocation (or, generally, as "inject the failure").
    FailAlloc,
}

/// When a configured failpoint triggers its action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// On every visit.
    Always,
    /// On the first visit only.
    Once,
    /// On the `k`-th visit (0-based) only.
    Nth(u64),
    /// On every `n`-th visit (visit numbers `0, n, 2n, …`).
    Each(u64),
    /// With probability `num/den` per visit, decided by splitmix64 over
    /// `seed ^ visit_number` — deterministic for a fixed seed.
    Prob {
        /// Numerator of the firing probability.
        num: u64,
        /// Denominator of the firing probability.
        den: u64,
        /// Seed making the schedule reproducible.
        seed: u64,
    },
}

// `action`/`trigger` are only read by the enabled `fire`; the disabled
// build still compiles the registry (so configuration from a mixed test
// binary is harmless) but never consults it.
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
struct Point {
    action: Action,
    trigger: Trigger,
    /// Number of times `fire` reached this point.
    visits: u64,
    /// Number of times the trigger matched and the action ran.
    hits: u64,
}

/// Count of configured points; the `fire` fast path is a single relaxed
/// load of this when it is zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
static HITS_TOTAL: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<HashMap<String, Point>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Point>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Configure the failpoint `name` to run `action` when `trigger` matches.
/// Reconfiguring an existing point resets its visit and hit counters.
pub fn configure(name: &str, action: Action, trigger: Trigger) {
    let mut map = registry().lock().unwrap();
    if map
        .insert(
            name.to_owned(),
            Point {
                action,
                trigger,
                visits: 0,
                hits: 0,
            },
        )
        .is_none()
    {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Remove the configuration for `name` (a later `fire` is a no-op again).
pub fn remove(name: &str) {
    let mut map = registry().lock().unwrap();
    if map.remove(name).is_some() {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Remove every configured failpoint.
pub fn clear_all() {
    let mut map = registry().lock().unwrap();
    let removed = map.len();
    map.clear();
    ACTIVE.fetch_sub(removed, Ordering::Relaxed);
}

/// Number of times the failpoint `name` actually triggered its action.
pub fn hits(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .get(name)
        .map_or(0, |point| point.hits)
}

/// Number of times the failpoint `name` was visited (triggered or not).
pub fn visits(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .get(name)
        .map_or(0, |point| point.visits)
}

/// Total number of triggered actions across all points since process
/// start (cheap liveness signal for schedules that spray many points).
pub fn total_hits() -> u64 {
    HITS_TOTAL.load(Ordering::Relaxed)
}

/// Visit the failpoint `name`.
///
/// Returns `true` when a configured [`Action::FailAlloc`] triggered —
/// fallible call sites map that to an injected failure.  Every other
/// action (panic, thread exit, yield, delay) is performed inside and the
/// call returns `false`.  Unconfigured points return `false`.
#[cfg(feature = "enabled")]
pub fn fire(name: &str) -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let action = {
        let mut map = registry().lock().unwrap();
        let Some(point) = map.get_mut(name) else {
            return false;
        };
        let visit = point.visits;
        point.visits += 1;
        let triggered = match point.trigger {
            Trigger::Always => true,
            Trigger::Once => visit == 0,
            Trigger::Nth(k) => visit == k,
            Trigger::Each(n) => n != 0 && visit % n == 0,
            Trigger::Prob { num, den, seed } => den != 0 && splitmix64(seed ^ visit) % den < num,
        };
        if !triggered {
            return false;
        }
        point.hits += 1;
        HITS_TOTAL.fetch_add(1, Ordering::Relaxed);
        point.action
    };
    match action {
        Action::Panic => panic!("failpoint '{name}' injected panic"),
        Action::ExitThread => std::panic::panic_any(ThreadExit),
        Action::Yield(n) => {
            for _ in 0..n {
                std::thread::yield_now();
            }
            false
        }
        Action::DelayMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Action::WaitFor { until, deadline_ms } => {
            let start = std::time::Instant::now();
            while !until() && start.elapsed().as_millis() < u128::from(deadline_ms) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            false
        }
        Action::FailAlloc => true,
    }
}

/// Disabled-build stub: a constant `false` the optimizer erases.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn fire(_name: &str) -> bool {
    false
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    /// The registry is process-global; tests serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unconfigured_points_are_inert() {
        let _guard = lock();
        clear_all();
        assert!(!fire("nobody.configured.this"));
        assert_eq!(hits("nobody.configured.this"), 0);
    }

    #[test]
    fn fail_alloc_once_fires_exactly_once() {
        let _guard = lock();
        clear_all();
        configure("t.alloc", Action::FailAlloc, Trigger::Once);
        assert!(fire("t.alloc"));
        assert!(!fire("t.alloc"));
        assert!(!fire("t.alloc"));
        assert_eq!(hits("t.alloc"), 1);
        assert_eq!(visits("t.alloc"), 3);
        clear_all();
    }

    #[test]
    fn nth_and_each_triggers() {
        let _guard = lock();
        clear_all();
        configure("t.nth", Action::FailAlloc, Trigger::Nth(2));
        assert!(!fire("t.nth"));
        assert!(!fire("t.nth"));
        assert!(fire("t.nth"));
        assert!(!fire("t.nth"));
        configure("t.each", Action::FailAlloc, Trigger::Each(3));
        let fired: Vec<bool> = (0..7).map(|_| fire("t.each")).collect();
        assert_eq!(fired, [true, false, false, true, false, false, true]);
        clear_all();
    }

    #[test]
    fn prob_schedule_is_deterministic() {
        let _guard = lock();
        clear_all();
        let schedule = |seed| {
            configure(
                "t.prob",
                Action::FailAlloc,
                Trigger::Prob {
                    num: 1,
                    den: 4,
                    seed,
                },
            );
            (0..64).map(|_| fire("t.prob")).collect::<Vec<bool>>()
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 0 && fired < 64, "p=1/4 over 64 visits: {fired}");
        clear_all();
    }

    #[test]
    fn exit_thread_unwinds_with_the_sentinel() {
        let _guard = lock();
        clear_all();
        configure("t.exit", Action::ExitThread, Trigger::Always);
        let result = std::panic::catch_unwind(|| fire("t.exit"));
        let payload = result.expect_err("must unwind");
        assert!(payload.is::<ThreadExit>());
        clear_all();
    }

    #[test]
    fn panic_action_carries_the_point_name() {
        let _guard = lock();
        clear_all();
        configure("t.panic", Action::Panic, Trigger::Always);
        let result = std::panic::catch_unwind(|| fire("t.panic"));
        let payload = result.expect_err("must unwind");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("t.panic"));
        clear_all();
    }

    #[test]
    fn wait_for_holds_until_the_event_or_the_deadline() {
        static EVENT: AtomicUsize = AtomicUsize::new(0);
        fn happened() -> bool {
            EVENT.load(Ordering::SeqCst) != 0
        }
        let _guard = lock();
        clear_all();
        configure(
            "t.wait",
            Action::WaitFor {
                until: happened,
                deadline_ms: 20,
            },
            Trigger::Always,
        );
        let start = std::time::Instant::now();
        assert!(!fire("t.wait"));
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
        configure(
            "t.wait",
            Action::WaitFor {
                until: happened,
                deadline_ms: 10_000,
            },
            Trigger::Always,
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                EVENT.store(1, Ordering::SeqCst);
            });
            let start = std::time::Instant::now();
            fire("t.wait");
            assert!(start.elapsed() < std::time::Duration::from_secs(5));
        });
        clear_all();
    }

    #[test]
    fn reconfigure_resets_counters() {
        let _guard = lock();
        clear_all();
        configure("t.re", Action::FailAlloc, Trigger::Always);
        fire("t.re");
        fire("t.re");
        assert_eq!(hits("t.re"), 2);
        configure("t.re", Action::FailAlloc, Trigger::Once);
        assert_eq!(hits("t.re"), 0);
        assert!(fire("t.re"));
        assert!(!fire("t.re"));
        clear_all();
    }
}
