//! Fault-injection suite: crash-tolerant migration recovery and graceful
//! degradation under allocation failure (DESIGN.md §12).
//!
//! Each test configures named failpoints (`crates/failpoints`) to kill a
//! thread at a precise point inside the migration/publication protocol or
//! to fail a specific allocation, then asserts the three robustness
//! properties the seeded schedule is meant to threaten:
//!
//! * **exactness** — every operation that returned is visible with the
//!   right value, and quiescent scans match the confirmed-operation oracle
//!   (with at most the one in-flight operation of a killed thread open);
//! * **liveness** — surviving threads finish without the dead thread, via
//!   lease stealing, INFLIGHT repair and finalize-latch recovery; every
//!   body runs under [`with_watchdog`], so a wedge aborts attributably
//!   instead of hanging CI;
//! * **no leaks** — the limbo list drains without the dead participant,
//!   and [`growt_alloc_track`] (installed as the global allocator here)
//!   shows the heap returning to baseline after the table drops.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and clears the registry on entry and exit.
//!
//! Built only with `--features failpoints`; the whole file compiles away
//! otherwise.

#![cfg(feature = "failpoints")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

use growt_baselines::FollyStyle;
use growt_core::complex::{GrowingStringTable, StringKeyTable};
use growt_core::{GrowMap, GrowStrategy, GrowingOptions, GrowingTable};
use growt_failpoints::{clear_all, configure, hits, remove, Action, ThreadExit, Trigger};
use growt_iface::{ConcurrentMap, MapHandle};
use growt_workloads::with_watchdog;

#[global_allocator]
static GLOBAL: growt_alloc_track::TrackingAlloc = growt_alloc_track::TrackingAlloc;

/// Generous liveness bound; a healthy run finishes in seconds.
const LIVENESS: Duration = Duration::from_secs(300);

/// The failpoint registry is process-global state: tests take this lock,
/// clear the registry, run under a watchdog, and clear again on the way
/// out.  A poisoned lock just means an earlier test failed — its registry
/// garbage is cleared on entry, so the poison itself is ignored.
static REGISTRY: Mutex<()> = Mutex::new(());

fn serialized<T>(label: &str, body: impl FnOnce() -> T) -> T {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    clear_all();
    let result = with_watchdog(label, LIVENESS, body);
    clear_all();
    result
}

/// [`serialized`], once per way `GrowMap`'s block copier can run: as the
/// CPU allows — inside hardware transactions where it has RTM — and with
/// the `generic.copy.txn` failpoint refusing every transaction, which is
/// the locked path whatever the CPU.  `body` is told whether the locked
/// path is forced; it configures its own failpoints after that one.
fn on_both_copy_paths(label: &str, body: impl Fn(bool)) {
    for locked in [false, true] {
        serialized(label, || {
            if locked {
                configure("generic.copy.txn", Action::FailAlloc, Trigger::Always);
            }
            body(locked);
        });
    }
}

/// Insert `keys` (value = `3·key`), recording each *confirmed* insertion
/// (the call returned).  Returns `true` when the thread was killed by an
/// injected [`ThreadExit`]; any other panic propagates as a test failure.
fn insert_confirming(
    table: &GrowingTable,
    keys: impl Iterator<Item = u64>,
    confirmed: &mut Vec<u64>,
) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut handle = table.handle();
        for key in keys {
            handle.insert(key, key.wrapping_mul(3));
            confirmed.push(key);
        }
    }));
    match outcome {
        Ok(()) => false,
        Err(payload) => {
            assert!(
                payload.is::<ThreadExit>(),
                "only the injected thread exit may unwind out of a writer"
            );
            true
        }
    }
}

/// String-table analogue of [`insert_confirming`] (value = index).
fn insert_strings_confirming(
    table: &GrowingStringTable,
    prefix: &str,
    count: u64,
) -> (Vec<(String, u64)>, bool) {
    let mut confirmed = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut handle = table.handle();
        for i in 0..count {
            let key = format!("{prefix}-{i}");
            handle.insert(&key, i);
            confirmed.push((key, i));
        }
    }));
    let died = match outcome {
        Ok(()) => false,
        Err(payload) => {
            assert!(payload.is::<ThreadExit>(), "unexpected panic payload");
            true
        }
    };
    (confirmed, died)
}

// ---------------------------------------------------------------------
// Thread death during migration — lease stealing and rescue
// ---------------------------------------------------------------------

/// A writer is killed at the moment it has *claimed* a migration block but
/// copied nothing.  Its unwind releases the lease, the surviving writer
/// rescues the block, and the migration — and every confirmed insert —
/// survives exactly.
#[test]
fn thread_exit_during_migration_is_rescued_by_survivors() {
    serialized("thread-exit-migration", || {
        const PER_THREAD: u64 = 10_000;
        let table = GrowingTable::new(64);
        configure("grow.block.claimed", Action::ExitThread, Trigger::Once);

        let mut results: Vec<(Vec<u64>, bool)> = Vec::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let table = &table;
                    scope.spawn(move || {
                        let mut confirmed = Vec::new();
                        let keys = (0..PER_THREAD).map(move |i| 2 + t * PER_THREAD + i);
                        let died = insert_confirming(table, keys, &mut confirmed);
                        (confirmed, died)
                    })
                })
                .collect();
            for worker in workers {
                results.push(worker.join().unwrap());
            }
        });

        assert_eq!(hits("grow.block.claimed"), 1, "exactly one injected exit");
        let deaths = results.iter().filter(|(_, died)| *died).count();
        assert_eq!(deaths, 1, "the injected exit must kill exactly one writer");

        // Exactness: every confirmed insert is visible with its value.
        let mut handle = table.handle();
        for (confirmed, _) in &results {
            for &key in confirmed {
                assert_eq!(handle.find(key), Some(key.wrapping_mul(3)), "key {key}");
            }
        }
        drop(handle);

        // The quiescent scan may exceed the oracle by at most the one
        // insert that was in flight when its thread was killed.
        let confirmed_total: usize = results.iter().map(|(c, _)| c.len()).sum();
        let size = table.size_exact_quiescent();
        assert!(
            size >= confirmed_total && size <= confirmed_total + 1,
            "scan {size} vs {confirmed_total} confirmed inserts"
        );
        assert!(table.migrations_completed() >= 1, "growth never completed");
    });
}

/// The same kill under **bounded help** (`help_budget = 1`, DESIGN.md
/// §13): a drafted helper is killed at the moment it has claimed its one
/// budgeted block.  The budget must not weaken the rescue discipline —
/// the lease is released by the unwind, a survivor (or the waiters'
/// rescue pass) re-copies it, and every confirmed insert survives.
#[test]
fn budgeted_help_thread_exit_is_rescued() {
    serialized("thread-exit-budgeted-help", || {
        const PER_THREAD: u64 = 10_000;
        let table = GrowingTable::with_options(
            64,
            GrowingOptions {
                help_budget: Some(1),
                ..GrowingOptions::default()
            },
        );
        configure("grow.block.claimed", Action::ExitThread, Trigger::Once);

        let mut results: Vec<(Vec<u64>, bool)> = Vec::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let table = &table;
                    scope.spawn(move || {
                        let mut confirmed = Vec::new();
                        let keys = (0..PER_THREAD).map(move |i| 2 + t * PER_THREAD + i);
                        let died = insert_confirming(table, keys, &mut confirmed);
                        (confirmed, died)
                    })
                })
                .collect();
            for worker in workers {
                results.push(worker.join().unwrap());
            }
        });

        assert_eq!(hits("grow.block.claimed"), 1, "exactly one injected exit");
        let deaths = results.iter().filter(|(_, died)| *died).count();
        assert_eq!(deaths, 1, "the injected exit must kill exactly one writer");

        let mut handle = table.handle();
        for (confirmed, _) in &results {
            for &key in confirmed {
                assert_eq!(handle.find(key), Some(key.wrapping_mul(3)), "key {key}");
            }
        }
        drop(handle);

        let confirmed_total: usize = results.iter().map(|(c, _)| c.len()).sum();
        let size = table.size_exact_quiescent();
        assert!(
            size >= confirmed_total && size <= confirmed_total + 1,
            "scan {size} vs {confirmed_total} confirmed inserts"
        );
        assert!(table.migrations_completed() >= 1, "growth never completed");
    });
}

/// The *only* thread that ever touched the table is killed mid-migration,
/// abandoning a generation with a published job and unclaimed blocks.  The
/// next thread to arrive must steal the abandoned work and complete the
/// migration on its own.
#[test]
fn abandoned_migration_is_completed_by_the_next_thread() {
    serialized("abandoned-migration", || {
        let table = GrowingTable::new(64);
        configure("grow.block.claimed", Action::ExitThread, Trigger::Once);

        let mut confirmed = Vec::new();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut confirmed = Vec::new();
                let died = insert_confirming(&table, 2..20_000, &mut confirmed);
                assert!(died, "the sole writer must hit the injected exit");
                confirmed
            });
            confirmed = writer.join().unwrap();
        });
        assert_eq!(hits("grow.block.claimed"), 1);

        // A fresh thread inherits a table wedged mid-migration; its first
        // operations must adopt and finish the abandoned job.
        let mut handle = table.handle();
        for key in 1_000_000..1_010_000u64 {
            handle.insert(key, key);
        }
        for &key in &confirmed {
            assert_eq!(handle.find(key), Some(key.wrapping_mul(3)), "key {key}");
        }
        drop(handle);
        assert!(
            table.migrations_completed() >= 1,
            "abandoned job never finished"
        );
    });
}

// ---------------------------------------------------------------------
// Allocation failure — graceful degradation and recovery
// ---------------------------------------------------------------------

/// With every migration-target allocation failing, `try_insert` reports
/// `TryGrowError` once the current generation is truly full — while finds,
/// updates and erases keep being served from the old generation.  Lifting
/// the failure lets growth (and inserts) resume with nothing lost.
#[test]
fn word_table_degrades_and_recovers_on_allocation_failure() {
    serialized("word-alloc-failure", || {
        let table = GrowingTable::new(64);
        let mut handle = table.handle();
        configure("grow.prepare.alloc", Action::FailAlloc, Trigger::Always);

        let mut inserted = Vec::new();
        let mut saw_full = false;
        for key in 2..2_000u64 {
            match handle.try_insert(key, key.wrapping_mul(3)) {
                Ok(true) => inserted.push(key),
                Ok(false) => panic!("distinct keys cannot be duplicates"),
                Err(growt_iface::TryGrowError) => {
                    saw_full = true;
                    break;
                }
            }
        }
        assert!(saw_full, "a 64-cell table must eventually refuse inserts");
        assert!(!inserted.is_empty(), "some inserts must land before OOM");
        assert!(
            hits("grow.prepare.alloc") >= 1,
            "the allocation failpoint never triggered"
        );

        // Degraded, not dead: the old generation still serves everything
        // that does not need new memory.
        for &key in &inserted {
            assert_eq!(handle.find(key), Some(key.wrapping_mul(3)));
        }
        let probe = inserted[0];
        assert!(handle.update(probe, 5, |old, d| old + d));
        assert_eq!(handle.find(probe), Some(probe.wrapping_mul(3) + 5));
        let victim = *inserted.last().unwrap();
        assert!(handle.erase(victim));
        assert_eq!(handle.find(victim), None);

        // Recovery: memory is back, growth and inserts proceed.
        remove("grow.prepare.alloc");
        for key in 10_000..12_000u64 {
            handle.insert(key, key);
        }
        assert_eq!(handle.find(10_500), Some(10_500));
        assert_eq!(handle.find(probe), Some(probe.wrapping_mul(3) + 5));
        drop(handle);
        assert!(table.migrations_completed() >= 1, "growth never resumed");
    });
}

/// A single failed huge-page allocation must be absorbed by the infallible
/// path's backoff-and-retry loop without any caller-visible effect.
#[test]
fn transient_hugebox_failure_is_retried_transparently() {
    serialized("transient-hugebox-failure", || {
        let table = GrowingTable::new(64); // allocate before arming the failpoint
        configure("mem.hugebox.alloc", Action::FailAlloc, Trigger::Once);

        let mut handle = table.handle();
        for key in 2..20_002u64 {
            handle.insert(key, key);
        }
        for key in [2u64, 999, 10_000, 20_001] {
            assert_eq!(handle.find(key), Some(key));
        }
        drop(handle);
        assert_eq!(
            hits("mem.hugebox.alloc"),
            1,
            "the failure was never injected"
        );
        assert!(table.migrations_completed() >= 1);
        assert_eq!(table.size_exact_quiescent(), 20_000);
    });
}

/// String-table variant of the degradation test: `try_insert` errors under
/// injected OOM, in-place arithmetic keeps working, and lifting the
/// failure lets the table grow again.
#[test]
fn string_table_degrades_and_recovers_on_allocation_failure() {
    serialized("string-alloc-failure", || {
        let table = GrowingStringTable::new(64);
        let mut handle = table.handle();
        configure("string.prepare.alloc", Action::FailAlloc, Trigger::Always);

        let mut inserted = Vec::new();
        let mut saw_full = false;
        for i in 0..2_000u64 {
            let key = format!("deg-{i}");
            match handle.try_insert(&key, i) {
                Ok(true) => inserted.push((key, i)),
                Ok(false) => panic!("distinct keys cannot be duplicates"),
                Err(growt_iface::TryGrowError) => {
                    saw_full = true;
                    break;
                }
            }
        }
        assert!(saw_full, "a 64-cell table must eventually refuse inserts");
        assert!(!inserted.is_empty());

        for (key, value) in &inserted {
            assert_eq!(handle.find(key), Some(*value), "key {key}");
        }
        let (probe, value) = &inserted[0];
        assert_eq!(handle.fetch_add(probe, 5), Some(*value));
        assert_eq!(handle.find(probe), Some(value + 5));

        remove("string.prepare.alloc");
        for i in 0..2_000u64 {
            let key = format!("rec-{i}");
            assert_eq!(handle.try_insert(&key, i), Ok(true), "key {key}");
        }
        assert_eq!(handle.find("rec-1999"), Some(1_999));
        assert_eq!(handle.find(probe), Some(value + 5));
        drop(handle);
        assert!(table.migrations_completed() >= 1, "growth never resumed");
    });
}

/// With every pool-worker spawn failing, a pool-strategy table starts with
/// zero migration workers — and must still complete every migration,
/// because threads waiting on a replacement escalate to rescue duty.
#[test]
fn pool_spawn_failure_degrades_to_waiter_rescue() {
    serialized("pool-spawn-failure", || {
        configure("pool.spawn", Action::FailAlloc, Trigger::Always);
        let options = GrowingOptions {
            strategy: GrowStrategy::Pool,
            threads_hint: 3,
            ..GrowingOptions::default()
        };
        let table = GrowingTable::with_options(64, options);
        // Worker spawning stops at the first injected failure.
        assert_eq!(hits("pool.spawn"), 1, "worker spawning was not suppressed");
        remove("pool.spawn");

        const PER_THREAD: u64 = 8_000;
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let table = &table;
                scope.spawn(move || {
                    let mut handle = table.handle();
                    for i in 0..PER_THREAD {
                        let key = 2 + t * PER_THREAD + i;
                        handle.insert(key, key);
                    }
                });
            }
        });

        let mut handle = table.handle();
        for key in (2..2 + 2 * PER_THREAD).step_by(997) {
            assert_eq!(handle.find(key), Some(key));
        }
        drop(handle);
        assert_eq!(table.size_exact_quiescent(), 2 * PER_THREAD as usize);
        assert!(
            table.migrations_completed() >= 1,
            "no migration ever completed"
        );
    });
}

// ---------------------------------------------------------------------
// Publication-window death — INFLIGHT repair
// ---------------------------------------------------------------------

/// A string-table inserter dies between claiming a cell (INFLIGHT) and
/// publishing its key.  Probes that reach the abandoned claim must repair
/// it to a tombstone after bounded spinning instead of waiting forever,
/// and the key — never published — must be insertable again.
#[test]
fn abandoned_string_inflight_claim_is_repaired() {
    serialized("string-inflight-repair", || {
        let table = StringKeyTable::with_capacity(1_024);
        configure("string.inflight", Action::ExitThread, Trigger::Once);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let outcome = catch_unwind(AssertUnwindSafe(|| table.insert("victim", 7)));
                let payload = outcome.expect_err("the insert must die mid-publication");
                assert!(payload.is::<ThreadExit>());
            });
        });
        assert_eq!(hits("string.inflight"), 1);

        // The victim's claim is abandoned; these probes must repair it.
        assert!(table.insert("victim", 9), "the key was never published");
        assert_eq!(table.find("victim"), Some(9));
        assert!(table.insert("bystander", 1));
        assert_eq!(table.find("bystander"), Some(1));
    });
}

/// Same scenario against the folly-style baseline's publication window.
#[test]
fn abandoned_baseline_inflight_claim_is_repaired() {
    serialized("baseline-inflight-repair", || {
        let table = FollyStyle::with_capacity(256);
        configure("baseline.inflight", Action::ExitThread, Trigger::Once);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut handle = table.handle();
                    handle.insert(42, 7)
                }));
                let payload = outcome.expect_err("the insert must die mid-publication");
                assert!(payload.is::<ThreadExit>());
            });
        });
        assert_eq!(hits("baseline.inflight"), 1);

        let mut handle = table.handle();
        assert!(handle.insert(42, 9), "the key was never published");
        assert_eq!(handle.find(42), Some(9));
        assert!(handle.insert(43, 1));
        assert_eq!(handle.find(43), Some(1));
    });
}

// ---------------------------------------------------------------------
// Reclamation — limbo drains without the dead participant, heap returns
// to baseline
// ---------------------------------------------------------------------

/// A thread dies immediately after retiring an erased key's allocation.
/// Its handle unregisters from the QSBR domain during unwinding, so the
/// surviving participant alone must be able to drain the limbo list.
#[test]
fn qsbr_limbo_drains_after_eraser_thread_exit() {
    serialized("qsbr-drain-after-exit", || {
        let table = GrowingStringTable::new(256);
        {
            let mut handle = table.handle();
            for i in 0..100u64 {
                assert!(handle.insert(&format!("k-{i}"), i));
            }
        }
        configure("string.erase.retired", Action::ExitThread, Trigger::Once);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut handle = table.handle();
                    handle.erase("k-3"); // dies right after the retire
                    handle.erase("k-4"); // never reached
                }));
                let payload = outcome.expect_err("the first erase must exit the thread");
                assert!(payload.is::<ThreadExit>());
            });
        });
        assert_eq!(hits("string.erase.retired"), 1);

        let mut handle = table.handle();
        for _ in 0..256 {
            handle.quiesce();
            if table.stats().pending_reclamation == 0 {
                break;
            }
        }
        assert_eq!(
            table.stats().pending_reclamation,
            0,
            "the dead participant must not block reclamation"
        );
        // The erase that triggered the exit had already taken effect; the
        // one after it never ran.
        assert_eq!(handle.find("k-3"), None);
        assert_eq!(handle.find("k-4"), Some(4));
    });
}

/// End-to-end leak check: a writer killed mid-migration, erases, QSBR
/// draining, then the table drops — and the tracked heap returns to its
/// baseline.  Catches leaked generations, leaked key allocations and
/// leaked migration jobs alike.
#[test]
fn string_migration_thread_exit_leaks_nothing() {
    serialized("string-thread-exit-leak", || {
        // Warm up one-time lazy allocations (failpoint registry map,
        // thread bookkeeping) so they don't pollute the accounting below.
        {
            let warm = GrowingStringTable::new(64);
            let mut handle = warm.handle();
            handle.insert("warmup", 1);
            configure("warmup.noop", Action::Yield(0), Trigger::Once);
            clear_all();
        }

        let baseline = growt_alloc_track::current_bytes();
        {
            const PER_THREAD: u64 = 6_000;
            let table = GrowingStringTable::new(64);
            configure("string.block.claimed", Action::ExitThread, Trigger::Once);

            let mut results = Vec::new();
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..2u64)
                    .map(|t| {
                        let table = &table;
                        scope.spawn(move || {
                            insert_strings_confirming(table, &format!("w{t}"), PER_THREAD)
                        })
                    })
                    .collect();
                for worker in workers {
                    results.push(worker.join().unwrap());
                }
            });
            assert_eq!(hits("string.block.claimed"), 1);
            assert_eq!(
                results.iter().filter(|(_, died)| *died).count(),
                1,
                "the injected exit must kill exactly one writer"
            );

            // Exactness for everything confirmed, then erase half of it
            // and drain the limbo without the dead participant.
            let mut handle = table.handle();
            for (confirmed, _) in &results {
                for (key, value) in confirmed {
                    assert_eq!(handle.find(key), Some(*value), "key {key}");
                }
            }
            for (confirmed, _) in &results {
                for (key, _) in confirmed.iter().step_by(2) {
                    assert!(handle.erase(key), "key {key}");
                }
            }
            for _ in 0..256 {
                handle.quiesce();
                if table.stats().pending_reclamation == 0 {
                    break;
                }
            }
            assert_eq!(table.stats().pending_reclamation, 0);
            drop(handle);
            assert!(table.migrations_completed() >= 1);
        }
        let after = growt_alloc_track::current_bytes();
        assert!(
            after <= baseline + 128 * 1024,
            "leak suspected: {baseline} bytes before, {after} after \
             (slack 128 KiB; a leaked generation or key batch is far larger)"
        );
    });
}

/// Generic-map analogue of the migration kill schedules: a writer driving
/// a `GrowMap<String, [u64; 4]>` (boxed keys *and* boxed values) is killed
/// the moment it has claimed a migration block.  The shared coordinator
/// (DESIGN.md §14 runs the same §12 protocol for every table family) must
/// let the survivor steal the lease and finish; every confirmed insert
/// stays visible, the QSBR limbo drains without the dead participant, and
/// the allocator returns to baseline after the map drops.
#[test]
fn generic_migration_thread_exit_leaks_nothing() {
    /// Two writers fill a map from 64 cells; the first to claim a
    /// migration block dies there.  Checks exactness and the limbo, drops
    /// the map.
    fn kill_a_writer_mid_migration() {
        const PER_THREAD: u64 = 6_000;
        let map: GrowMap<String, [u64; 4]> = GrowMap::new(64);
        configure("generic.block.claimed", Action::ExitThread, Trigger::Once);

        let mut results = Vec::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let map = &map;
                    scope.spawn(move || {
                        let mut confirmed = Vec::new();
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            let mut handle = map.handle();
                            for i in 0..PER_THREAD {
                                let key = format!("g{t}-{i}");
                                handle.insert(&key, &[i, t, 0, 0]);
                                confirmed.push((key, [i, t, 0, 0]));
                            }
                        }));
                        let died = match outcome {
                            Ok(()) => false,
                            Err(payload) => {
                                assert!(payload.is::<ThreadExit>(), "unexpected panic payload");
                                true
                            }
                        };
                        (confirmed, died)
                    })
                })
                .collect();
            for worker in workers {
                results.push(worker.join().unwrap());
            }
        });
        assert_eq!(hits("generic.block.claimed"), 1);
        assert_eq!(
            results.iter().filter(|(_, died)| *died).count(),
            1,
            "the injected exit must kill exactly one writer"
        );

        // Exactness for everything confirmed, then erase half of it
        // and drain the limbo without the dead participant.
        let mut handle = map.handle();
        for (confirmed, _) in &results {
            for (key, value) in confirmed {
                assert_eq!(handle.find(key), Some(*value), "key {key}");
            }
        }
        for (confirmed, _) in &results {
            for (key, _) in confirmed.iter().step_by(2) {
                assert!(handle.erase(key), "key {key}");
            }
        }
        for _ in 0..256 {
            handle.quiesce();
            if map.pending_reclamation() == 0 {
                break;
            }
        }
        assert_eq!(map.pending_reclamation(), 0);
        drop(handle);
        assert!(map.migrations_completed() >= 1);
    }

    on_both_copy_paths("generic-thread-exit-leak", |_| {
        // Warm-up: the schedule itself, once.  Besides the one-time lazy
        // allocations of maps, threads and the registry, that is its
        // unwind: with `RUST_BACKTRACE` set the panic hook symbolises the
        // dying writer's stack, and the symboliser keeps what it loaded —
        // 7.5 MB of debug info on the first panic of the process, then a
        // little per frame it has not seen.
        kill_a_writer_mid_migration();

        let baseline = growt_alloc_track::current_bytes();
        kill_a_writer_mid_migration();
        let after = growt_alloc_track::current_bytes();
        assert!(
            after <= baseline + 128 * 1024,
            "leak suspected: {baseline} bytes before, {after} after \
             (slack 128 KiB; a leaked generation or key/value box is far larger)"
        );
    });
}

/// A block owner that is stalled — alive, but asleep for longer than the
/// waiters' patience — is rescued like a dead one: another thread re-copies
/// its block, finalizes, carries on, and soon migrates the *target* away.
/// When the owner wakes up it resumes a copy into a generation that is
/// itself frozen; it must notice and stop (every element of its block was
/// placed by the rescuer), not walk the frozen target looking for an empty
/// cell.  Seen in the wild on a box whose host takes a vCPU away for tens
/// of milliseconds: `generic migration found no empty target cell`.
#[test]
fn stalled_block_owner_outlived_by_its_target_stops_quietly() {
    /// Longer than the rescue patience (10 ms) plus the time the other
    /// writer needs for all its inserts and their migrations.
    const STALL_MS: u64 = 500;
    const PER_THREAD: u64 = 20_000;

    /// Two threads run `writer(0)` and `writer(1)`; the first to claim a
    /// migration block sleeps on it.
    fn with_one_stalled_owner(failpoint: &str, writer: impl Fn(u64) + Sync) {
        configure(failpoint, Action::DelayMs(STALL_MS), Trigger::Once);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let writer = &writer;
                scope.spawn(move || writer(t));
            }
        });
        assert_eq!(hits(failpoint), 1);
    }

    on_both_copy_paths("generic-stalled-owner", |_| {
        let map: GrowMap<u64, u64> = GrowMap::new(64);
        with_one_stalled_owner("generic.block.claimed", |t| {
            let mut handle = map.handle();
            for i in 0..PER_THREAD {
                assert!(handle.insert(&(2 + t * PER_THREAD + i), &i));
            }
        });
        assert!(map.migrations_completed() >= 3, "the target never moved on");
        assert_eq!(map.size_exact_quiescent(), 2 * PER_THREAD as usize);
        let mut handle = map.handle();
        for key in 2..2 + 2 * PER_THREAD {
            assert_eq!(handle.find(&key), Some((key - 2) % PER_THREAD));
        }
    });

    serialized("string-stalled-owner", || {
        let table = GrowingStringTable::new(64);
        with_one_stalled_owner("string.block.claimed", |t| {
            let mut handle = table.handle();
            for i in 0..PER_THREAD {
                assert!(handle.insert(&format!("s{t}-{i}"), i));
            }
        });
        assert!(
            table.migrations_completed() >= 3,
            "the target never moved on"
        );
        let mut handle = table.handle();
        for t in 0..2u64 {
            for i in 0..PER_THREAD {
                assert_eq!(handle.find(&format!("s{t}-{i}")), Some(i));
            }
        }
    });
}

/// The same stalled owner, one step earlier: it wakes after its block was
/// re-copied and the target **published, but not yet frozen** — a live
/// table.  Re-probing every element of the block there, it would find the
/// tombstone of a key erased in the meantime, walk past it and re-insert
/// the key into the next empty cell.  The copier asks before each chunk's
/// placement whether its lease is still live and the target unpublished,
/// and stops.
#[test]
fn stalled_block_owner_does_not_resurrect_a_key_erased_from_the_published_target() {
    /// Longer than the rescue patience (10 ms) plus the rescuer's copy,
    /// publication and erase.
    const STALL_MS: u64 = 400;

    on_both_copy_paths("generic-stalled-owner-erase", |locked| {
        // 128 cells: one block, so the stalled owner holds every key.
        let map: GrowMap<u64, u64> = GrowMap::new(32);
        configure(
            "generic.block.claimed",
            Action::DelayMs(STALL_MS),
            Trigger::Once,
        );
        let victim = 2u64;
        let (owner_inserted, rescuer_inserted) = std::thread::scope(|scope| {
            // The owner: inserts until its own growth trigger makes it the
            // leader of the first migration; it claims block 0 and sleeps.
            let owner = scope.spawn(|| {
                let mut handle = map.handle();
                let mut inserted = 0usize;
                for key in victim.. {
                    assert!(handle.insert(&key, &key));
                    inserted += 1;
                    if map.migrations_completed() >= 1 {
                        break;
                    }
                }
                inserted
            });
            // The rescuer: arrives once the owner sleeps, is drafted into
            // the migration, finds no block left, runs out of patience and
            // re-copies the owner's block; then erases one of its keys
            // from the published target.
            let rescuer = scope.spawn(|| {
                while hits("generic.block.claimed") == 0 {
                    std::thread::yield_now();
                }
                let mut handle = map.handle();
                let mut inserted = 0usize;
                for key in 1_000_000u64.. {
                    if map.migrations_completed() >= 1 {
                        break;
                    }
                    assert!(handle.insert(&key, &key));
                    inserted += 1;
                }
                assert!(handle.erase(&victim), "the rescue lost the key");
                assert_eq!(handle.find(&victim), None);
                inserted
            });
            (owner.join().unwrap(), rescuer.join().unwrap())
        });
        assert_eq!(hits("generic.block.claimed"), 1);
        assert_eq!(
            map.migrations_completed(),
            1,
            "a second migration hides the window"
        );
        let log = map.migration_log();
        assert_eq!(log.len(), 1);
        assert!(
            log[0].rescued >= 1,
            "the block was not rescued: {:?}",
            log[0]
        );
        if locked {
            assert_eq!(log[0].chunks_transactional, 0, "{:?}", log[0]);
        }

        let mut handle = map.handle();
        assert_eq!(handle.find(&victim), None, "the late owner resurrected it");
        assert_eq!(
            map.size_exact_quiescent(),
            owner_inserted + rescuer_inserted - 1
        );
    });
}
