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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use growt_baselines::FollyStyle;
use growt_core::complex::StringKeyTable;
use growt_core::{
    mem, membarrier, Consistency, GrowConfig, GrowMap, GrowStrategy, GrowingOptions, GrowingTable,
    MigrationMode,
};
use growt_failpoints::{clear_all, configure, hits, remove, visits, Action, ThreadExit, Trigger};
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

/// The two ways `GrowMap` can copy a migration's source (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyMode {
    /// Writers excluded behind `membarrier`, where the kernel has it: plain
    /// loads, nothing marked, plain-store placement.
    Exclusive,
    /// The `generic.membarrier` failpoint reports the barrier missing, so
    /// every migration marks: one locked `fetch_or` freezes each source
    /// cell.
    Marking,
}

impl CopyMode {
    /// The mode a migration that nobody holds up records in this one.
    fn expected(self) -> MigrationMode {
        if self == CopyMode::Exclusive && membarrier::available() {
            MigrationMode::Exclusive
        } else {
            MigrationMode::Marking
        }
    }
}

/// [`serialized`], once per [`CopyMode`].  `body` is told the mode; it
/// configures its own failpoints after the mode's.
fn on_each_copy_mode(label: &str, body: impl Fn(CopyMode)) {
    for mode in [CopyMode::Exclusive, CopyMode::Marking] {
        serialized(label, || {
            if mode == CopyMode::Marking {
                configure("generic.membarrier", Action::FailAlloc, Trigger::Always);
            }
            body(mode);
        });
    }
}

/// `{prefix}{i}` for even `i` and `{prefix}{i}-long` for odd `i`.  With a
/// prefix of at most three bytes and `i < 10⁴` the even keys have at most
/// seven bytes and live in their key words, and the odd ones are stored out
/// of line, so a schedule over them runs both forms of a `String` key.
fn mixed_key(prefix: &str, i: u64) -> String {
    let suffix = if i.is_multiple_of(2) { "" } else { "-long" };
    format!("{prefix}{i}{suffix}")
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

/// The `mem.hugebox.alloc` failpoint fails a request even when the pool
/// of idle mappings could serve it (it fires before the lookup), and the
/// pooled mapping stays for the next request.  22 MiB: a size no other
/// test in this process maps.
#[test]
fn the_hugebox_failpoint_fails_a_request_the_pool_could_serve() {
    use growt_core::mem::{pooled_bytes, HugeBox};
    const LEN: usize = (22 << 20) / 8;
    serialized("hugebox-failpoint-before-the-pool", || {
        let first: HugeBox<u64> = HugeBox::try_zeroed(LEN).expect("22 MiB");
        let (mapped, addr) = (first.is_mapped(), first.as_ptr() as usize);
        drop(first);
        configure("mem.hugebox.alloc", Action::FailAlloc, Trigger::Once);
        assert!(HugeBox::<u64>::try_zeroed(LEN).is_err());
        assert_eq!(hits("mem.hugebox.alloc"), 1);
        if mapped {
            assert!(pooled_bytes() >= 22 << 20, "the failed request took it");
        }
        let again: HugeBox<u64> = HugeBox::try_zeroed(LEN).expect("22 MiB");
        if mapped {
            assert_eq!(again.as_ptr() as usize, addr, "the pooled mapping is gone");
        }
    });
}

/// The degradation test on `GrowMap<String, u64>`, in each copy mode:
/// with every target allocation failing, `try_insert` errors once the
/// first generation is full, while finds and in-place updates keep being
/// served from it; lifting the failure lets the map grow again.
#[test]
fn string_table_degrades_and_recovers_on_allocation_failure() {
    const PREPARE: &str = "generic.prepare.alloc";
    on_each_copy_mode("string-alloc-failure", |_| {
        let table: GrowMap<String, u64> = GrowMap::new(64);
        let mut handle = table.handle();
        configure(PREPARE, Action::FailAlloc, Trigger::Always);

        let mut inserted = Vec::new();
        let mut saw_full = false;
        for i in 0..2_000u64 {
            let key = format!("deg-{i}");
            match handle.try_insert(&key, &i) {
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
        assert!(
            hits(PREPARE) >= 1,
            "the allocation failpoint never triggered"
        );
        assert_eq!(table.migrations_completed(), 0);

        for (key, value) in &inserted {
            assert_eq!(handle.find(key), Some(*value), "key {key}");
        }
        let (probe, value) = &inserted[0];
        assert!(handle.update(probe, |v| v + 5));
        assert_eq!(handle.find(probe), Some(value + 5));

        remove(PREPARE);
        for i in 0..2_000u64 {
            let key = format!("rec-{i}");
            assert_eq!(handle.try_insert(&key, &i), Ok(true), "key {key}");
        }
        assert_eq!(handle.find(&"rec-1999".to_string()), Some(1_999));
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

/// A thread dies immediately after retiring an erased key's allocation
/// (the `qsbr.retire` point fires after the limbo push).  Its handle
/// unregisters from the QSBR domain during unwinding, so the surviving
/// participant alone must be able to drain the limbo list.  The keys were
/// inserted across migrations, whose copies dereferenced them; they are
/// longer than seven bytes, so each has an allocation to retire.
#[test]
fn qsbr_limbo_drains_after_eraser_thread_exit() {
    on_each_copy_mode("qsbr-drain-after-exit", |mode| {
        let table: GrowMap<String, u64> = GrowMap::new(32);
        {
            let mut handle = table.handle();
            for i in 0..100u64 {
                assert!(handle.insert(&format!("long-key-{i}"), &i));
            }
        }
        let log = table.migration_log();
        assert!(!log.is_empty());
        assert!(log.iter().all(|r| r.mode == mode.expected()), "{log:?}");
        configure("qsbr.retire", Action::ExitThread, Trigger::Once);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut handle = table.handle();
                    handle.erase(&"long-key-3".to_string()); // dies right after the retire
                    handle.erase(&"long-key-4".to_string()); // never reached
                }));
                let payload = outcome.expect_err("the first erase must exit the thread");
                assert!(payload.is::<ThreadExit>());
            });
        });
        assert_eq!(hits("qsbr.retire"), 1);

        let mut handle = table.handle();
        for _ in 0..256 {
            handle.quiesce();
            if table.pending_reclamation() == 0 {
                break;
            }
        }
        assert_eq!(
            table.pending_reclamation(),
            0,
            "the dead participant must not block reclamation"
        );
        // The erase that triggered the exit had already taken effect; the
        // one after it never ran.
        assert_eq!(handle.find(&"long-key-3".to_string()), None);
        assert_eq!(handle.find(&"long-key-4".to_string()), Some(4));
    });
}

/// The short-key twin of `qsbr_limbo_drains_after_eraser_thread_exit`:
/// keys of at most seven bytes live in their key words, so erasing them
/// retires nothing.  With `qsbr.retire` armed to kill the eraser, every
/// short erase goes through without visiting it and the limbo stays empty;
/// the first long key's erase then dies there, as in the twin.
#[test]
fn qsbr_retire_is_never_visited_for_short_keys() {
    on_each_copy_mode("qsbr-short-keys", |mode| {
        let table: GrowMap<String, u64> = GrowMap::new(32);
        {
            let mut handle = table.handle();
            for i in 0..100u64 {
                assert!(handle.insert(&format!("k-{i}"), &i));
            }
            assert!(handle.insert(&"a long key".to_string(), &100));
        }
        let log = table.migration_log();
        assert!(!log.is_empty());
        assert!(log.iter().all(|r| r.mode == mode.expected()), "{log:?}");
        configure("qsbr.retire", Action::ExitThread, Trigger::Always);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut handle = table.handle();
                    for i in 0..100u64 {
                        assert!(handle.erase(&format!("k-{i}")));
                    }
                    assert_eq!(visits("qsbr.retire"), 0, "a short key was retired");
                    assert_eq!(table.pending_reclamation(), 0);
                    handle.erase(&"a long key".to_string()); // dies after the retire
                }));
                let payload = outcome.expect_err("the long key's erase must exit the thread");
                assert!(payload.is::<ThreadExit>());
            });
        });
        assert_eq!((visits("qsbr.retire"), hits("qsbr.retire")), (1, 1));

        let mut handle = table.handle();
        for i in 0..100u64 {
            assert_eq!(handle.find(&format!("k-{i}")), None);
        }
        assert_eq!(handle.find(&"a long key".to_string()), None);
        for _ in 0..256 {
            handle.quiesce();
            if table.pending_reclamation() == 0 {
                break;
            }
        }
        assert_eq!(table.pending_reclamation(), 0);
    });
}

/// The migration kill schedule with its leak check: a writer driving a
/// `GrowMap<String, [u64; 4]>` (boxed keys *and* boxed values) is killed
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
                                let key = mixed_key(&format!("g{t}-"), i);
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

        // Exactness for everything confirmed, then erase a third of it,
        // short keys and long, and drain the limbo without the dead
        // participant.
        let mut handle = map.handle();
        for (confirmed, _) in &results {
            for (key, value) in confirmed {
                assert_eq!(handle.find(key), Some(*value), "key {key}");
            }
        }
        for (confirmed, _) in &results {
            for (key, _) in confirmed.iter().step_by(3) {
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

    on_each_copy_mode("generic-thread-exit-leak", |_| {
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

    on_each_copy_mode("generic-stalled-owner", |_| {
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

    on_each_copy_mode("string-stalled-owner", |_| {
        let map: GrowMap<String, u64> = GrowMap::new(64);
        with_one_stalled_owner("generic.block.claimed", |t| {
            let mut handle = map.handle();
            for i in 0..PER_THREAD {
                assert!(handle.insert(&mixed_key(&format!("s{t}-"), i), &i));
            }
        });
        assert!(map.migrations_completed() >= 3, "the target never moved on");
        let mut handle = map.handle();
        for t in 0..2u64 {
            for i in 0..PER_THREAD {
                assert_eq!(handle.find(&mixed_key(&format!("s{t}-"), i)), Some(i));
            }
        }
    });
}

/// The same stalled owner, one step earlier: it wakes after its block was
/// re-copied and the target **published, but not yet frozen** — a live
/// table.  Re-probing every element of the block there, it would find the
/// tombstone of a key erased in the meantime, walk past it and re-insert
/// the key into the next empty cell.  The copier enters the placement gate
/// before each chunk's placement, finds its lease completed by the
/// rescuer, and stops.
#[test]
fn stalled_block_owner_does_not_resurrect_a_key_erased_from_the_published_target() {
    on_each_copy_mode("generic-stalled-owner-erase", |mode| {
        stalled_owner_then_erase(mode, "generic.block.claimed");
    });
}

/// The late owner one step later still: it has entered the placement gate
/// — its lease was live — and stalls between that check and its stores
/// (`generic.place.chunk`).  The rescuer completes the block meanwhile and
/// finalizes; without the gate the target is published, a key of the block
/// erased from it, and the owner's stores, when it wakes, put the key back.
/// The gate holds the publication until the owner has left it: its stores
/// land in the unpublished target, where they repeat the rescuer's, and the
/// erase comes after them.
#[test]
fn late_owner_stalled_inside_its_placement_cannot_resurrect_an_erased_key() {
    on_each_copy_mode("generic-late-owner-placement", |mode| {
        stalled_owner_then_erase(mode, "generic.place.chunk");
    });
}

/// The schedule of the two tests above: a map of 128 cells, so that its
/// first migration is one block and the stalled owner holds every key.  The
/// owner leads that migration and sleeps at `failpoint`; the rescuer, once
/// the owner sleeps, is drafted, finds no block left, runs out of patience
/// and re-copies the owner's block, then erases one of its keys from the
/// published target.  The key must stay erased, and the count exact.
fn stalled_owner_then_erase(mode: CopyMode, failpoint: &str) {
    /// Longer than the rescue patience (10 ms) plus the rescuer's copy,
    /// publication and erase.
    const STALL_MS: u64 = 400;

    let map: GrowMap<u64, u64> = GrowMap::new(32);
    configure(failpoint, Action::DelayMs(STALL_MS), Trigger::Once);
    let victim = 2u64;
    let (owner_inserted, rescuer_inserted) = std::thread::scope(|scope| {
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
        let rescuer = scope.spawn(|| {
            while hits(failpoint) == 0 {
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
    assert_eq!(hits(failpoint), 1);
    assert_eq!(
        map.migrations_completed(),
        1,
        "a second migration hides the window"
    );
    let log = map.migration_log();
    assert_eq!(log.len(), 1);
    let record = &log[0];
    assert!(record.rescued >= 1, "the block was not rescued: {record:?}");
    assert_eq!(record.mode, mode.expected(), "{record:?}");

    let mut handle = map.handle();
    assert_eq!(handle.find(&victim), None, "the late owner resurrected it");
    assert_eq!(
        map.size_exact_quiescent(),
        owner_inserted + rescuer_inserted - 1
    );
}

/// The stalled owner of [`stalled_owner_then_erase`] on the word table
/// (uaGrow's marking copy): it sleeps on its claimed block, the rescuer
/// re-copies it, publishes and erases a key of the block.  The owner's
/// copy enters the lease's placement gate before it places anything,
/// finds the lease completed, and stops.
#[test]
fn word_table_stalled_owner_does_not_resurrect_an_erased_key() {
    serialized("word-stalled-owner-erase", || {
        word_stalled_owner_then_erase(Consistency::AsyncMarking, "grow.block.claimed");
    });
}

/// The same schedule under the synchronized protocol (usGrow), whose copy
/// reads the excluded source with plain loads.
#[test]
fn synchronized_word_table_stalled_owner_does_not_resurrect_an_erased_key() {
    serialized("word-sync-stalled-owner-erase", || {
        word_stalled_owner_then_erase(Consistency::Synchronized, "grow.block.claimed");
    });
}

/// The owner stalls inside a pass through the placement gate, at its
/// first placement (`grow.place`): the rescuer completes the block, and
/// the finalizer holds the publication until the owner's pass is over, so
/// its stores land in the unpublished target and the erase comes after
/// them.
#[test]
fn word_table_late_owner_stalled_inside_its_placement_cannot_resurrect_an_erased_key() {
    serialized("word-late-owner-placement", || {
        word_stalled_owner_then_erase(Consistency::AsyncMarking, "grow.place");
    });
}

/// [`stalled_owner_then_erase`]'s schedule on a `GrowingTable` of the
/// given consistency: its first migration is one block, held by the
/// stalled owner; the rescuer erases the owner's first key from the
/// published target, and the key must stay erased, and the count exact.
fn word_stalled_owner_then_erase(consistency: Consistency, failpoint: &str) {
    const STALL_MS: u64 = 400;

    let options = GrowingOptions {
        consistency,
        ..GrowingOptions::default()
    };
    let table = GrowingTable::with_options(32, options);
    configure(failpoint, Action::DelayMs(STALL_MS), Trigger::Once);
    let victim = 2u64;
    let (owner_inserted, rescuer_inserted) = std::thread::scope(|scope| {
        let owner = scope.spawn(|| {
            let mut handle = table.handle();
            let mut inserted = 0usize;
            for key in victim.. {
                assert!(handle.insert(key, key));
                inserted += 1;
                if table.migrations_completed() >= 1 {
                    break;
                }
            }
            inserted
        });
        let rescuer = scope.spawn(|| {
            while hits(failpoint) == 0 {
                std::thread::yield_now();
            }
            let mut handle = table.handle();
            let mut inserted = 0usize;
            for key in 1_000_000u64.. {
                if table.migrations_completed() >= 1 {
                    break;
                }
                assert!(handle.insert(key, key));
                inserted += 1;
            }
            assert!(handle.erase(victim), "the rescue lost the key");
            assert_eq!(handle.find(victim), None);
            inserted
        });
        (owner.join().unwrap(), rescuer.join().unwrap())
    });
    assert_eq!(hits(failpoint), 1);
    assert_eq!(
        table.migrations_completed(),
        1,
        "a second migration hides the window"
    );
    let mut handle = table.handle();
    assert_eq!(handle.find(victim), None, "the late owner resurrected it");
    assert_eq!(
        table.size_exact_quiescent(),
        owner_inserted + rescuer_inserted - 1
    );
}

/// `GrowMap<String, u64>` and `GrowMap<String, [u64; 4]>` — boxed keys,
/// short and stored out of line, and boxed values too — grow through
/// several migrations that exclude their
/// one writer, with erases in between, and the allocator is back to its
/// baseline byte for byte once the map drops: no key or value box is
/// leaked or freed twice by a copy that reads with plain loads.
#[test]
fn exclusive_string_migrations_are_allocator_exact() {
    fn grow_and_drop<V>(value: impl Fn(u64) -> V)
    where
        V: growt_core::ValueRepr + PartialEq + std::fmt::Debug,
    {
        let map: GrowMap<String, V> = GrowMap::new(64);
        let mut handle = map.handle();
        for i in 0..5_000u64 {
            assert!(handle.insert(&mixed_key("ex-", i), &value(i)));
            if i % 3 == 0 {
                assert!(handle.erase(&mixed_key("ex-", i / 2)));
            }
        }
        let log = map.migration_log();
        assert!(log.len() >= 2, "{log:?}");
        for record in &log {
            assert_eq!(record.mode, CopyMode::Exclusive.expected(), "{record:?}");
            assert_eq!(record.chunks_locked, 0);
        }
        for i in (4_000..5_000u64).filter(|i| i % 7 == 1) {
            assert_eq!(handle.find(&mixed_key("ex-", i)), Some(value(i)));
        }
        drop(handle);
    }

    serialized("exclusive-string-migrations", || {
        // Warm-up: the one-time lazy allocations of the process.
        grow_and_drop(|i| i);
        let baseline = growt_alloc_track::current_bytes();
        grow_and_drop(|i| i);
        grow_and_drop(|i| [i, i + 1, i + 2, i + 3]);
        assert_eq!(growt_alloc_track::current_bytes(), baseline);
    });
}

/// A growth's leader holds in its preparation, before it allocates the
/// target, until the other writer has made 65 inserts since the hold began
/// (10 s at most).  Those inserts meet their growth trigger and return
/// instead of waiting for the preparation (DESIGN.md §13): the source still
/// has room, and the writer fills it until the migration runs.  A writer
/// that waited would make none, and the hold would end at its deadline.
/// Nothing is lost; nor when the allocation at the same point fails once.
#[test]
fn growth_preparation_is_waited_for_only_by_its_leader() {
    const PER_THREAD: u64 = 20_000;
    const PREPARE: &str = "generic.prepare.alloc";
    /// Inserts completed after the first preparation began and before the
    /// first migration was over.
    static DURING: AtomicU64 = AtomicU64::new(0);
    /// Length of the leader's hold, set when it ends.
    static HELD_NS: AtomicU64 = AtomicU64::new(0);

    /// The hold's event: the other writer is past the bound.
    fn other_writer_is_through() -> bool {
        static SINCE: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        let start = *SINCE.get_or_init(std::time::Instant::now);
        let through = DURING.load(Ordering::Relaxed) > 64;
        if through {
            HELD_NS.store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        through
    }

    /// Two writers fill a map of 4096 cells; returns `DURING`.
    fn two_writers(map: &GrowMap<u64, u64>) -> u64 {
        DURING.store(0, Ordering::Relaxed);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                scope.spawn(move || {
                    let mut handle = map.handle();
                    for i in 0..PER_THREAD {
                        assert!(handle.insert(&(2 + t * PER_THREAD + i), &i));
                        if map.migrations_completed() == 0 && hits(PREPARE) == 1 {
                            DURING.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        DURING.load(Ordering::Relaxed)
    }

    fn assert_exact(map: &GrowMap<u64, u64>) {
        assert_eq!(map.size_exact_quiescent(), 2 * PER_THREAD as usize);
        let mut handle = map.handle();
        for key in 2..2 + 2 * PER_THREAD {
            assert_eq!(handle.find(&key), Some((key - 2) % PER_THREAD), "key {key}");
        }
    }

    serialized("generic-slow-preparation", || {
        let map: GrowMap<u64, u64> = GrowMap::with_config(2048, GrowConfig::default(), 2);
        let hold = Action::WaitFor {
            until: other_writer_is_through,
            deadline_ms: 10_000,
        };
        configure(PREPARE, hold, Trigger::Once);
        let during = two_writers(&map);
        assert_eq!(hits(PREPARE), 1);
        // The source had ≈ 1600 free cells at its trigger.  A writer that
        // waited for the preparation would have stopped at its next flush,
        // within four inserts.
        assert!(during > 64, "{during} inserts during the preparation");
        let first = &map.migration_log()[0];
        assert!(
            first.prepare_ns >= HELD_NS.load(Ordering::Relaxed),
            "{first:?}"
        );
        assert_exact(&map);
    });

    serialized("generic-failed-preparation", || {
        let map: GrowMap<u64, u64> = GrowMap::with_config(2048, GrowConfig::default(), 2);
        configure(PREPARE, Action::FailAlloc, Trigger::Once);
        two_writers(&map);
        assert_eq!(hits(PREPARE), 1);
        assert!(map.migrations_completed() >= 1);
        assert_exact(&map);
    });
}

// ---------------------------------------------------------------------
// Clearing the next generation in slices (DESIGN.md §13)
// ---------------------------------------------------------------------

const PREPARE_ALLOC: &str = "generic.prepare.alloc";
const PREPARE_SLICE: &str = "generic.prepare.slice";

/// Count the elections of `GrowMap`'s migrations: a yield of nothing at
/// the allocation, visited once per election.
fn count_elections() {
    configure(PREPARE_ALLOC, Action::Yield(0), Trigger::Always);
}

/// Insert `key` (value `key + 1`) until the map elects a migration:
/// returns the keys inserted.  The electing insert returns with the
/// target allocated and its slices left to later writes.
fn insert_until_elected(
    handle: &mut growt_core::GrowMapHandle<'_, u64, u64>,
    from: u64,
) -> Vec<u64> {
    let elections = visits(PREPARE_ALLOC);
    let mut keys = Vec::new();
    for key in from.. {
        assert!(handle.insert(&key, &(key + 1)));
        keys.push(key);
        if visits(PREPARE_ALLOC) > elections {
            return keys;
        }
    }
    unreachable!()
}

/// Two writers fill a map over several migrations, and the first of them
/// to clear a slice of a target is killed inside it, before the slice is
/// cleared.  The slice is not counted, so the survivor clears it again and
/// leads the migration; every confirmed insert is there.  The killed write
/// clears in its prologue, before its insert, so its key never lands; the
/// size is still allowed one key more than the confirmed ones.
/// The writers are joined, not scoped: a joined thread has run its
/// thread-local destructors, whose frees the allocator-exact schedules
/// that follow would otherwise count.  An idle third handle keeps every
/// migration sliced, the first before the second writer has registered
/// and the later ones after the killed writer's handle is gone (a lone
/// handle's targets come cleared, DESIGN.md §13).
#[test]
fn a_clearer_killed_inside_a_slice_leaves_it_to_the_next() {
    const PER_THREAD: u64 = 20_000;
    on_each_copy_mode("killed-clearer", |mode| {
        let map = std::sync::Arc::new(GrowMap::<u64, u64>::with_config(
            2048,
            GrowConfig::default(),
            2,
        ));
        let idle = map.handle();
        configure(PREPARE_SLICE, Action::ExitThread, Trigger::Once);
        let confirmed: Vec<(Vec<u64>, bool)> = {
            let writers: Vec<_> = (0..2u64)
                .map(|t| {
                    let map = std::sync::Arc::clone(&map);
                    std::thread::spawn(move || {
                        let mut confirmed = Vec::new();
                        let killed = catch_unwind(AssertUnwindSafe(|| {
                            let mut handle = map.handle();
                            for key in 2 + t * PER_THREAD..2 + (t + 1) * PER_THREAD {
                                handle.insert(&key, &(key + 1));
                                confirmed.push(key);
                            }
                        }))
                        .map_err(|payload| assert!(payload.is::<ThreadExit>()))
                        .is_err();
                        (confirmed, killed)
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        };
        drop(idle);
        assert_eq!(hits(PREPARE_SLICE), 1);
        assert_eq!(confirmed.iter().filter(|(_, killed)| *killed).count(), 1);
        let mut handle = map.handle();
        for (keys, _) in &confirmed {
            for &key in keys {
                assert_eq!(handle.find(&key), Some(key + 1), "key {key}");
            }
        }
        let confirmed_count: usize = confirmed.iter().map(|(keys, _)| keys.len()).sum();
        let size = map.size_exact_quiescent();
        assert!(
            (confirmed_count..=confirmed_count + 1).contains(&size),
            "{size}"
        );
        let log = map.migration_log();
        assert!(log.len() >= 3, "{log:?}");
        for record in &log {
            assert!(record.slices > 0, "{record:?}");
            assert_eq!(record.mode, mode.expected(), "{record:?}");
        }
    });
}

/// The handle whose insert elected a migration is dropped while the
/// target waits for its slices; the writes of another handle clear them
/// all, one each, and the last leads the migration.  That handle is
/// registered before the election, so that the elector is not alone and
/// its target comes uncleared (DESIGN.md §13).
#[test]
fn a_migration_whose_elector_is_gone_is_finished_by_a_later_write() {
    on_each_copy_mode("elector-gone", |mode| {
        count_elections();
        let map: GrowMap<u64, u64> = GrowMap::with_config(2048, GrowConfig::default(), 2);
        let mut handle = map.handle();
        let mut elector = map.handle();
        let mut keys = insert_until_elected(&mut elector, 2);
        let elected = keys.len();
        drop(elector);
        assert_eq!(
            map.migrations_completed(),
            0,
            "led inside the electing insert"
        );
        let mut key = *keys.last().unwrap();
        while map.migrations_completed() == 0 {
            key += 1;
            assert!(handle.insert(&key, &(key + 1)));
            keys.push(key);
        }
        let record = &map.migration_log()[0];
        assert!(record.slices > 0 && record.clear_ns > 0, "{record:?}");
        assert_eq!(record.mode, mode.expected());
        // One write a slice, and the one that clears the last leads.
        assert_eq!(keys.len() - elected, record.slices, "{record:?}");
        for key in &keys {
            assert_eq!(handle.find(key), Some(key + 1), "key {key}");
        }
        assert_eq!(map.size_exact_quiescent(), keys.len());
    });
}

/// Every slice is skipped (the failpoint says so, as if another thread
/// held the clearing lock), so the writes land without clearing and the
/// target never becomes clear; the writer fills the source until an insert
/// finds it full.  That insert, instead of spinning, clears what is left:
/// once it has come back to the skipped slices in the one write, the
/// failpoint is lifted, and it clears every slice itself, leads the
/// migration and lands.  An idle second handle makes the target come
/// uncleared (a lone handle's comes cleared, DESIGN.md §13).
#[test]
fn a_write_that_finds_the_source_full_clears_what_is_left() {
    on_each_copy_mode("full-while-clearing", |mode| {
        count_elections();
        let map: GrowMap<u64, u64> = GrowMap::with_config(2048, GrowConfig::default(), 1);
        let _idle = map.handle();
        let mut handle = map.handle();
        let mut keys = insert_until_elected(&mut handle, 2);
        configure(PREPARE_SLICE, Action::FailAlloc, Trigger::Always);
        // Writes begun since the skipping started: each visits the
        // failpoint once in its prologue, so more visits than writes mean
        // a write is clearing what is left.  The watch is bounded, so that
        // the scope still ends when the writer fails an assertion.
        let writes = AtomicU64::new(0);
        let full = std::thread::scope(|s| {
            s.spawn(|| {
                let started = std::time::Instant::now();
                while visits(PREPARE_SLICE) <= writes.load(Ordering::SeqCst)
                    && started.elapsed() < Duration::from_secs(30)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                remove(PREPARE_SLICE);
            });
            let mut key = *keys.last().unwrap();
            loop {
                key += 1;
                writes.fetch_add(1, Ordering::SeqCst);
                assert!(handle.insert(&key, &(key + 1)));
                if map.migrations_completed() > 0 {
                    break key;
                }
                keys.push(key);
            }
        });
        assert!(keys.len() >= 2048 - 64, "full at {} keys", keys.len());
        keys.push(full);
        assert_eq!(map.migrations_completed(), 1);
        let record = &map.migration_log()[0];
        assert_eq!(record.slices_by_elector, record.slices, "{record:?}");
        assert_eq!(record.mode, mode.expected());
        for key in &keys {
            assert_eq!(handle.find(key), Some(key + 1), "key {key}");
        }
        assert_eq!(map.size_exact_quiescent(), keys.len());
    });
}

/// After the election only updates come, one handle's: each clears one
/// slice before it updates, and the one that clears the last leads the
/// migration and then updates in the new generation.  Every update is
/// there, exactly once.  An idle second handle makes the target come
/// uncleared (a lone handle's comes cleared, DESIGN.md §13).
#[test]
fn updates_alone_finish_the_clearing_and_the_migration() {
    on_each_copy_mode("updates-clear", |mode| {
        count_elections();
        let map: GrowMap<u64, u64> = GrowMap::with_config(2048, GrowConfig::default(), 1);
        let _idle = map.handle();
        let mut handle = map.handle();
        let keys = insert_until_elected(&mut handle, 2);
        let mut updates = 0;
        while map.migrations_completed() == 0 {
            let key = keys[updates % keys.len()];
            assert!(handle.update(&key, |v| v + 1));
            updates += 1;
        }
        let record = &map.migration_log()[0];
        assert!(record.slices > 0, "{record:?}");
        assert_eq!(record.mode, mode.expected());
        assert_eq!(updates, record.slices, "one slice an update: {record:?}");
        for (i, key) in keys.iter().enumerate() {
            let bumps = (updates / keys.len() + usize::from(i < updates % keys.len())) as u64;
            assert_eq!(handle.find(key), Some(key + 1 + bumps), "key {key}");
        }
        assert_eq!(map.size_exact_quiescent(), keys.len());
    });
}

/// The insert whose prologue clears the last slice leads the migration
/// before its own operation, so its key lands in the new generation: it is
/// found there, and counted there — the writing handle's estimate and the
/// quiescent size are both exact.  An idle second handle makes the target
/// come uncleared (a lone handle's comes cleared, DESIGN.md §13); it has
/// nothing buffered, so the estimate stays exact.
#[test]
fn the_write_that_clears_the_last_slice_leads_and_then_lands() {
    on_each_copy_mode("last-clearer-lands", |mode| {
        count_elections();
        let map: GrowMap<u64, u64> = GrowMap::with_config(2048, GrowConfig::default(), 1);
        let _idle = map.handle();
        let mut handle = map.handle();
        let mut keys = insert_until_elected(&mut handle, 2);
        let elected = keys.len();
        let capacity = map.current_capacity();
        let mut key = *keys.last().unwrap();
        while map.migrations_completed() == 0 {
            key += 1;
            assert!(handle.insert(&key, &(key + 1)));
            keys.push(key);
        }
        let record = &map.migration_log()[0];
        assert_eq!(record.mode, mode.expected());
        assert_eq!(keys.len() - elected, record.slices, "{record:?}");
        assert!(map.current_capacity() > capacity);
        assert_eq!(handle.find(&key), Some(key + 1), "the leader's own key");
        for key in &keys {
            assert_eq!(handle.find(key), Some(key + 1), "key {key}");
        }
        assert_eq!(map.size_exact_quiescent(), keys.len());
        assert_eq!(handle.size_estimate(), keys.len());
    });
}

/// Writes stop while the next generation waits for its slices: the old
/// generation keeps serving finds, exactly, and dropping the map frees the
/// unfinished target with everything else — the mapped bytes, the pool
/// and the heap are back where they were.  The target is a 2 MiB mapping
/// taken back from the pool, uncleared, where mappings are on.  A first
/// round warms up, as in `exclusive_string_migrations_are_allocator_exact`:
/// the process's and the watchdog's one-time allocations fall into it.
/// An idle second handle makes the target come uncleared (a lone handle's
/// comes cleared, DESIGN.md §13).
#[test]
fn writes_stopped_mid_clearing_leave_finds_exact_and_free_everything() {
    fn stop_mid_clearing() {
        let pooled = mem::pooled_bytes();
        let map: GrowMap<u64, u64> = GrowMap::with_config(20_000, GrowConfig::default(), 1);
        assert_eq!(map.current_capacity(), 1 << 16);
        let _idle = map.handle();
        let mut handle = map.handle();
        let mut keys = insert_until_elected(&mut handle, 2);
        if pooled >= 2 << 20 {
            assert_eq!(
                mem::pooled_bytes(),
                pooled - (2 << 20),
                "not the pooled array"
            );
        }
        let mut key = *keys.last().unwrap();
        for _ in 0..3 {
            key += 1;
            assert!(handle.insert(&key, &(key + 1)));
            keys.push(key);
        }
        assert_eq!(map.migrations_completed(), 0);
        assert_eq!(map.current_capacity(), 1 << 16);
        for key in &keys {
            assert_eq!(handle.find(key), Some(key + 1), "key {key}");
        }
        assert_eq!(handle.find(&(key + 1)), None);
        assert_eq!(map.size_exact_quiescent(), keys.len());
    }

    on_each_copy_mode("stopped-mid-clearing", |_| {
        count_elections();
        // A 2^17-cell array for the pool.
        drop(GrowMap::<u64, u64>::with_config(
            40_000,
            GrowConfig::default(),
            1,
        ));
        stop_mid_clearing();
        let baseline = (
            mem::mapped_bytes(),
            mem::pooled_bytes(),
            growt_alloc_track::current_bytes(),
        );
        stop_mid_clearing();
        assert_eq!(
            (
                mem::mapped_bytes(),
                mem::pooled_bytes(),
                growt_alloc_track::current_bytes()
            ),
            baseline
        );
    });
}
