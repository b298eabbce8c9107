//! Generic [`GenericMap`] conformance suite (DESIGN.md §14).
//!
//! The typed facade `GrowMap<K, V>` is driven through one harness at
//! three representative instantiations covering the packing matrix:
//!
//! * `GrowMap<u64, u64>` — inline key, inline value (the word-table
//!   configuration: probes and publishes exactly like `GrowingTable`);
//! * `GrowMap<String, u64>` — packed-reference key, inline value (the
//!   string-table configuration);
//! * `GrowMap<u64, [u64; 4]>` — inline key, pointer-packed value (the
//!   configuration only the generic map supports).
//!
//! Each instantiation runs the same checks through the `GenericMap` /
//! `GenericMapHandle` trait surface: a full single-threaded round-trip,
//! concurrent distinct-key inserts across migrations, concurrent
//! insert-or-update atomicity, batch operations matching the per-op loop
//! exactly (including duplicates inside one batch), and batches racing a
//! live migration.

use growt_repro::growt_core::{membarrier, GrowConfig, MigrationMode, MigrationRecord};
use growt_repro::prelude::*;

/// Smallest key index used by the suite (inline `u64` keys reserve the
/// encodings below 2; a margin keeps the suite honest about it).
const BASE: u64 = 32;

/// One instantiation of the conformance harness: how to make keys and
/// values from a test index, how to bump a value, and how to project a
/// value back to a number for exactness sums.
trait Fixture {
    type M: GenericMap<Self::K, Self::V>;
    type K: Clone + Send + Sync;
    type V: Clone + PartialEq + std::fmt::Debug + Send + Sync;

    fn key(i: u64) -> Self::K;
    fn val(i: u64) -> Self::V;
    /// A unit increment, used by the atomicity checks.
    fn bump(v: &Self::V) -> Self::V;
    fn weight(v: &Self::V) -> u64;
    /// Migration count of the concrete map (not part of the trait
    /// surface; exposed per fixture for the racing checks).
    fn migrations(map: &Self::M) -> u64;
    fn size_exact(map: &Self::M) -> usize;
}

struct InlineInline;
impl Fixture for InlineInline {
    type M = GrowMap<u64, u64>;
    type K = u64;
    type V = u64;

    fn key(i: u64) -> u64 {
        BASE + i
    }
    fn val(i: u64) -> u64 {
        i * 2 + 1
    }
    fn bump(v: &u64) -> u64 {
        v + 1
    }
    fn weight(v: &u64) -> u64 {
        *v
    }
    fn migrations(map: &Self::M) -> u64 {
        map.migrations_completed()
    }
    fn size_exact(map: &Self::M) -> usize {
        map.size_exact_quiescent()
    }
}

struct BoxedKey;
impl Fixture for BoxedKey {
    type M = GrowMap<String, u64>;
    type K = String;
    type V = u64;

    fn key(i: u64) -> String {
        format!("generic-key-{i}")
    }
    fn val(i: u64) -> u64 {
        i * 2 + 1
    }
    fn bump(v: &u64) -> u64 {
        v + 1
    }
    fn weight(v: &u64) -> u64 {
        *v
    }
    fn migrations(map: &Self::M) -> u64 {
        map.migrations_completed()
    }
    fn size_exact(map: &Self::M) -> usize {
        map.size_exact_quiescent()
    }
}

struct BoxedValue;
impl Fixture for BoxedValue {
    type M = GrowMap<u64, [u64; 4]>;
    type K = u64;
    type V = [u64; 4];

    fn key(i: u64) -> u64 {
        BASE + i
    }
    fn val(i: u64) -> [u64; 4] {
        [i, i + 1, i + 2, i + 3]
    }
    fn bump(v: &[u64; 4]) -> [u64; 4] {
        let mut next = *v;
        next[0] += 1;
        next
    }
    fn weight(v: &[u64; 4]) -> u64 {
        v[0]
    }
    fn migrations(map: &Self::M) -> u64 {
        map.migrations_completed()
    }
    fn size_exact(map: &Self::M) -> usize {
        map.size_exact_quiescent()
    }
}

/// Single-threaded round-trip over the full `GenericMapHandle` surface.
fn round_trip<F: Fixture>() {
    let map = F::M::with_capacity(2048);
    let mut h = map.handle();
    let name = F::M::map_name();

    for i in 0..512 {
        assert!(h.insert(&F::key(i), &F::val(i)), "{name}: first insert");
    }
    for i in 0..512 {
        assert!(!h.insert(&F::key(i), &F::val(0)), "{name}: dup insert");
        assert_eq!(h.find(&F::key(i)), Some(F::val(i)), "{name}: find");
    }
    assert_eq!(h.find(&F::key(100_000)), None, "{name}: absent key");

    // update only touches existing elements.
    assert!(h.update(&F::key(0), &|v| F::bump(v)), "{name}: update");
    assert_eq!(h.find(&F::key(0)), Some(F::bump(&F::val(0))));
    assert!(
        !h.update(&F::key(100_000), &|v| F::bump(v)),
        "{name}: update absent"
    );

    // insert_or_update inserts when absent, updates when present.
    assert!(h
        .insert_or_update(&F::key(1000), &F::val(7), &|v| F::bump(v))
        .inserted());
    assert!(!h
        .insert_or_update(&F::key(1000), &F::val(9), &|v| F::bump(v))
        .inserted());
    assert_eq!(h.find(&F::key(1000)), Some(F::bump(&F::val(7))));

    // try-variants succeed when no growth pressure exists.
    assert_eq!(h.try_insert(&F::key(2000), &F::val(1)), Ok(true));
    assert_eq!(h.try_insert(&F::key(2000), &F::val(2)), Ok(false));
    assert!(h
        .try_insert_or_update(&F::key(2000), &F::val(3), &|v| F::bump(v))
        .is_ok());

    // erase + reinsert.
    assert!(h.erase(&F::key(3)), "{name}: erase present");
    assert!(!h.erase(&F::key(3)), "{name}: erase absent");
    assert_eq!(h.find(&F::key(3)), None);
    assert!(h.insert(&F::key(3), &F::val(33)), "{name}: reinsert");
    assert_eq!(h.find(&F::key(3)), Some(F::val(33)));
    h.quiesce();
}

/// Concurrent distinct-key inserts from a tiny initial capacity: every
/// element must survive the growth migrations exactly once.
fn concurrent_inserts_across_migrations<F: Fixture>() {
    let map = F::M::with_capacity(16);
    let threads = 4u64;
    let per_thread = 2_000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            s.spawn(move || {
                let mut h = map.handle();
                for i in 0..per_thread {
                    let idx = t * per_thread + i;
                    assert!(h.insert(&F::key(idx), &F::val(idx)));
                }
                h.quiesce();
            });
        }
    });
    let name = F::M::map_name();
    assert!(F::migrations(&map) > 0, "{name}: never migrated");
    let mut h = map.handle();
    for idx in 0..threads * per_thread {
        assert_eq!(h.find(&F::key(idx)), Some(F::val(idx)), "{name}: lost");
    }
    assert_eq!(F::size_exact(&map), (threads * per_thread) as usize);
}

/// Concurrent insert-or-update on a small hot key set: the per-key unit
/// increments must sum exactly, across migrations.
fn upsert_atomicity<F: Fixture>() {
    let map = F::M::with_capacity(16);
    let threads = 4u64;
    let per_thread = 4_000u64;
    let distinct = 128u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            s.spawn(move || {
                let mut h = map.handle();
                for i in 0..per_thread {
                    let key = F::key((i.wrapping_mul(t + 1)) % distinct);
                    h.insert_or_update(&key, &F::val(0), &|v| F::bump(v));
                }
                h.quiesce();
            });
        }
    });
    let name = F::M::map_name();
    let mut h = map.handle();
    let base_weight = F::weight(&F::val(0));
    let mut increments = 0u64;
    let mut present = 0u64;
    for k in 0..distinct {
        if let Some(v) = h.find(&F::key(k)) {
            present += 1;
            increments += F::weight(&v) - base_weight;
        }
    }
    // Every operation either inserted the base value or applied one bump.
    assert_eq!(
        increments + present,
        threads * per_thread,
        "{name}: lost updates"
    );
    assert_eq!(F::size_exact(&map), present as usize);
}

/// Every `*_batch` default must produce exactly the per-op loop's results,
/// including duplicate keys inside one batch.
fn batch_matches_per_op<F: Fixture>() {
    let name = F::M::map_name();
    let mut elements: Vec<(F::K, F::V)> = (0..300).map(|i| (F::key(i), F::val(i))).collect();
    // Duplicates inside the batch: the per-op loop semantics decide.
    for i in 0..30 {
        elements.push((F::key(i), F::val(i + 500)));
    }

    let batched = F::M::with_capacity(1024);
    let looped = F::M::with_capacity(1024);
    let mut hb = batched.handle();
    let mut hl = looped.handle();

    let inserted_b = hb.insert_batch(&elements);
    let inserted_l = elements.iter().filter(|(k, v)| hl.insert(k, v)).count();
    assert_eq!(inserted_b, inserted_l, "{name}: insert_batch count");

    let keys: Vec<F::K> = (0..330).map(F::key).collect();
    let mut out_b = vec![None; keys.len()];
    hb.find_batch(&keys, &mut out_b);
    let out_l: Vec<Option<F::V>> = keys.iter().map(|k| hl.find(k)).collect();
    assert_eq!(out_b, out_l, "{name}: find_batch results");

    let upserts: Vec<(F::K, F::V)> = (250..350).map(|i| (F::key(i), F::val(i))).collect();
    let new_b = hb.insert_or_update_batch(&upserts, &|v| F::bump(v));
    let new_l = upserts
        .iter()
        .filter(|(k, v)| hl.insert_or_update(k, v, &|v| F::bump(v)).inserted())
        .count();
    assert_eq!(new_b, new_l, "{name}: insert_or_update_batch count");

    let erase_keys: Vec<F::K> = (200..280).map(F::key).collect();
    let erased_b = hb.erase_batch(&erase_keys);
    let erased_l = erase_keys.iter().filter(|k| hl.erase(k)).count();
    assert_eq!(erased_b, erased_l, "{name}: erase_batch count");

    let mut out_b = vec![None; keys.len()];
    hb.find_batch(&keys, &mut out_b);
    let out_l: Vec<Option<F::V>> = keys.iter().map(|k| hl.find(k)).collect();
    assert_eq!(out_b, out_l, "{name}: post-erase state diverged");
}

/// Batches racing a live migration must neither lose nor duplicate
/// elements: tiny initial capacity, four threads feeding disjoint batches.
fn batches_race_migration<F: Fixture>() {
    let map = F::M::with_capacity(16);
    let threads = 4u64;
    let batches = 8u64;
    let batch_len = 512u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            s.spawn(move || {
                let mut h = map.handle();
                for b in 0..batches {
                    let start = (t * batches + b) * batch_len;
                    let elements: Vec<(F::K, F::V)> = (start..start + batch_len)
                        .map(|i| (F::key(i), F::val(i)))
                        .collect();
                    let inserted = h.insert_batch(&elements);
                    assert_eq!(inserted, batch_len as usize, "batch lost elements");
                }
                h.quiesce();
            });
        }
    });
    let name = F::M::map_name();
    assert!(F::migrations(&map) > 0, "{name}: never migrated");
    let total = threads * batches * batch_len;
    let mut h = map.handle();
    let keys: Vec<F::K> = (0..total).map(F::key).collect();
    let mut out = vec![None; keys.len()];
    h.find_batch(&keys, &mut out);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, Some(F::val(i as u64)), "{name}: lost {i}");
    }
    assert_eq!(F::size_exact(&map), total as usize, "{name}: duplicates");
}

macro_rules! generic_conformance {
    ($($module:ident => $fixture:ty),+ $(,)?) => {
        $(
            mod $module {
                use super::*;

                #[test]
                fn round_trip() {
                    super::round_trip::<$fixture>();
                }

                #[test]
                fn concurrent_inserts_across_migrations() {
                    super::concurrent_inserts_across_migrations::<$fixture>();
                }

                #[test]
                fn upsert_atomicity() {
                    super::upsert_atomicity::<$fixture>();
                }

                #[test]
                fn batch_matches_per_op() {
                    super::batch_matches_per_op::<$fixture>();
                }

                #[test]
                fn batches_race_migration() {
                    super::batches_race_migration::<$fixture>();
                }
            }
        )+
    };
}

generic_conformance! {
    grow_map_u64_u64 => InlineInline,
    grow_map_string_u64 => BoxedKey,
    grow_map_u64_array => BoxedValue,
}

// ---------------------------------------------------------------------
// The per-migration phase record
// ---------------------------------------------------------------------

/// The mode a migration takes when no handle holds a write open for long:
/// writers excluded wherever the kernel has the heavy barrier.
fn unhindered_mode() -> MigrationMode {
    if membarrier::available() {
        MigrationMode::Exclusive
    } else {
        MigrationMode::Marking
    }
}

/// The freeze passes of a migration whose every block was copied once:
/// none in exclusive mode; marking, one per chunk of at most 64 cells of
/// each block's range, where a range is moved to cluster boundaries and
/// may wrap — so the source's cells over 64, plus at most two per block.
fn check_chunks_of_one_copy(record: &MigrationRecord) {
    let chunks = record.chunks_locked;
    match record.mode {
        MigrationMode::Exclusive => assert_eq!(chunks, 0, "{record:?}"),
        MigrationMode::Marking => {
            let least = record.from_capacity.div_ceil(64);
            assert!(
                (least..=least + 2 * record.blocks).contains(&chunks),
                "{record:?}"
            );
        }
    }
}

/// `insert_grow`'s table at one thread: 2^11 → 2^17 cells in six
/// migrations.  The log holds one record per migration, the records chain,
/// every migration is 8–16 leases of at most `migration_block` cells, the
/// lone thread copied every block itself, with nobody to exclude but
/// itself every migration excluded writers (where the kernel has the heavy
/// barrier) and so froze nothing, and every target came cleared from the
/// allocator: no slices for the lone handle to clear (DESIGN.md §13).
#[test]
fn migration_log_records_every_phase_of_the_last_migrations() {
    // The failpoint tests below would make these migrations mark.
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let map: GrowMap<u64, u64> = GrowMap::new(1024);
    assert!(map.migration_log().is_empty());
    let mut handle = map.handle();
    for key in 0..1u64 << 16 {
        handle.insert(&(BASE + key), &key);
    }
    drop(handle);

    let log = map.migration_log();
    assert_eq!(log.len() as u64, map.migrations_completed());
    assert_eq!(log.first().unwrap().from_capacity, 2048);
    assert_eq!(log.last().unwrap().to_capacity, map.current_capacity());
    for pair in log.windows(2) {
        assert_eq!(pair[0].to_capacity, pair[1].from_capacity);
        assert_eq!(pair[0].generation + 1, pair[1].generation);
        assert!(pair[0].live < pair[1].live);
    }
    let migration_block = GrowConfig::default().migration_block;
    for record in &log {
        assert!((8..=16).contains(&record.blocks), "{record:?}");
        assert!(record.block_size <= migration_block, "{record:?}");
        assert_eq!(
            record.blocks,
            record.from_capacity.div_ceil(record.block_size)
        );
        assert_eq!(record.blocks_by_leader, record.blocks, "{record:?}");
        assert_eq!(record.rescued, 0, "{record:?}");
        assert_eq!(record.mode, unhindered_mode(), "{record:?}");
        assert_eq!((record.slices, record.clear_ns), (0, 0), "{record:?}");
        check_chunks_of_one_copy(record);
        assert_eq!(record.longest_wait_ns, 0, "nobody waited: {record:?}");
        assert!(record.live > 0 && record.live as usize <= record.from_capacity);
        assert!(
            record.prepare_ns > 0 && record.copy_ns > 0 && record.finalize_ns > 0,
            "{record:?}"
        );
    }
}

/// The same fill beside an idle second handle: the writer is no longer
/// alone, so every target comes as the allocator hands it out and the
/// writes clear it in slices.  The last target, 2^17 cells, is a 2 MiB
/// mapping, which comes zero when fresh; a few are dropped into the pool
/// first, so that it is taken back from there, uncleared (DESIGN.md §11).
#[test]
fn an_idle_second_handle_keeps_the_targets_sliced() {
    // The failpoint tests below would make these migrations mark.
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let pooled: Vec<GrowMap<u64, u64>> = (0..4)
        .map(|_| GrowMap::with_config(40_000, GrowConfig::default(), 1))
        .collect();
    assert!(pooled.iter().all(|map| map.current_capacity() == 1 << 17));
    drop(pooled);
    let map: GrowMap<u64, u64> = GrowMap::new(1024);
    let _idle = map.handle();
    let mut handle = map.handle();
    for key in 0..1u64 << 16 {
        handle.insert(&(BASE + key), &key);
    }
    let log = map.migration_log();
    assert_eq!(log.len(), 6, "{log:?}");
    assert_eq!(log.last().unwrap().from_capacity, 1 << 16);
    for record in &log {
        assert!(record.slices > 0 && record.clear_ns > 0, "{record:?}");
        assert_eq!(record.mode, unhindered_mode(), "{record:?}");
    }
}

/// The log is a ring: it keeps the most recent 16 migrations.
#[test]
fn migration_log_keeps_the_last_sixteen() {
    let map: GrowMap<u64, u64> = GrowMap::new(2);
    let mut handle = map.handle();
    // Erasing what was inserted keeps the table small, so cleanup
    // migrations come quickly.
    let mut key = BASE;
    while map.migrations_completed() < 20 {
        handle.insert(&key, &key);
        handle.erase(&key);
        key += 1;
    }
    drop(handle);
    let completed = map.migrations_completed();
    let log = map.migration_log();
    assert_eq!(log.len(), 16);
    for pair in log.windows(2) {
        assert_eq!(pair[0].generation + 1, pair[1].generation);
    }
    // Generations are numbered from 1, so the n-th migration replaced
    // generation n.
    assert_eq!(log.last().unwrap().generation, completed);
}

/// Two writers finalize and log concurrently with each other's waits: still
/// one record per migration, in order.
#[test]
fn migration_log_stays_ordered_with_two_writers() {
    let map: GrowMap<u64, u64> = GrowMap::new(1024);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let map = &map;
            scope.spawn(move || {
                let mut handle = map.handle();
                for i in 0..1u64 << 15 {
                    handle.insert(&(BASE + 2 * i + t), &i);
                }
            });
        }
    });
    let log = map.migration_log();
    assert_eq!(log.len() as u64, map.migrations_completed());
    assert_eq!(log.last().unwrap().to_capacity, map.current_capacity());
    for pair in log.windows(2) {
        assert_eq!(pair[0].to_capacity, pair[1].from_capacity);
    }
    for record in &log {
        assert!(record.blocks_by_leader <= record.blocks, "{record:?}");
        assert!(record.copy_ns > 0, "{record:?}");
        // A rescue copies a block a second time, and stops its first
        // copier short.
        if record.rescued == 0 {
            check_chunks_of_one_copy(record);
        }
    }
    assert_eq!(map.size_exact_quiescent(), 1 << 16);
}

/// The counting's overshoot (DESIGN.md §8): with two writers buffering
/// their counts, every one of a chain of migrations starts by a load of
/// `0.6 + 1/16`, plus the two flushes in flight.  The writers take turns,
/// one insert each under a lock, so a migration one of them triggers is
/// over before the other's next insert: `live` then measures the counting
/// alone, not how many inserts the other writer fits into the leader's
/// preparation (which it may, DESIGN.md §13).
#[test]
fn growth_trigger_overshoots_by_at_most_a_sixteenth_with_two_writers() {
    use growt_repro::growt_core::count::flush_bound;
    const WRITERS: usize = 2;

    let map: GrowMap<u64, u64> = GrowMap::with_config(64, GrowConfig::default(), WRITERS);
    let turn = std::sync::Mutex::new(());
    std::thread::scope(|scope| {
        for t in 0..WRITERS as u64 {
            let (map, turn) = (&map, &turn);
            scope.spawn(move || {
                let mut handle = map.handle();
                for i in 0..1u64 << 14 {
                    let _turn = turn.lock().unwrap();
                    assert!(handle.insert(&(BASE + 2 * i + t), &i));
                }
            });
        }
    });
    let log = map.migration_log();
    assert!(log.len() >= 5, "{} migrations", log.len());
    for record in &log {
        let in_flight = 2 * flush_bound(WRITERS, record.from_capacity) as usize;
        let limit = (0.6 + 1.0 / 16.0) * record.from_capacity as f64 + in_flight as f64;
        assert!(record.live as f64 <= limit, "limit {limit}: {record:?}");
    }
    assert_eq!(map.size_exact_quiescent(), 1 << 15);
}

/// A writer that holds its write open past the leader's patience — its
/// `insert_or_update` closure sleeps, on the locked path of a map with two
/// handles — keeps that migration from excluding writers: it marks
/// instead, and says so.  The sleeper's update lands
/// once, on whichever generation it retries on, and nothing is lost.
#[test]
fn a_writer_busy_past_the_patience_makes_the_migration_mark() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    // The failpoint tests below would make this migration mark anyway.
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let map: GrowMap<u64, u64> = GrowMap::with_config(64, GrowConfig::default(), 2);
    map.handle().insert(&BASE, &0);
    let sleeping = AtomicBool::new(false);
    let slept = AtomicBool::new(false);
    // The inserter registers first: a lone handle runs its closure with its
    // busy flag lowered (DESIGN.md §8), so it keeps no migration waiting.
    let registered = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut handle = map.handle();
            while !registered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            handle.insert_or_update(&BASE, &0, |v| {
                if !slept.swap(true, Ordering::SeqCst) {
                    sleeping.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                }
                v + 1
            });
        });
        scope.spawn(|| {
            let mut handle = map.handle();
            registered.store(true, Ordering::SeqCst);
            while !sleeping.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let mut key = BASE + 1;
            while map.migrations_completed() == 0 {
                assert!(handle.insert(&key, &key));
                key += 1;
            }
        });
    });
    let first = &map.migration_log()[0];
    assert_eq!(first.mode, MigrationMode::Marking, "{first:?}");
    if membarrier::available() {
        // It waited out its patience before giving up.
        assert!(first.quiesce_ns >= 2_000_000, "{first:?}");
    }
    let mut handle = map.handle();
    assert_eq!(handle.find(&BASE), Some(1));
    let inserted = map.size_exact_quiescent() as u64 - 1;
    for key in BASE + 1..=BASE + inserted {
        assert_eq!(handle.find(&key), Some(key));
    }
}

// ---------------------------------------------------------------------
// The sole mode: a lone handle's writes store plainly
// ---------------------------------------------------------------------

/// `rounds` times, a lone handle bumps one key by `insert_or_update`
/// whose closure, the first time it runs, opens a second handle on the
/// same map, bumps the same key through it, inserts `fresh` new keys (so
/// the map migrates under the closure) and drops the handle.  Neither
/// registration waits for the write that runs it, and the outer write,
/// which found its cell changed, enters again: every bump lands once.
fn reentrant_bumps<K: KeyRepr, V: ValueRepr + PartialEq + std::fmt::Debug>(
    key: fn(u64) -> K,
    value: fn(u64) -> V,
    bump: fn(&V) -> V,
) {
    const ROUNDS: u64 = 200;
    const FRESH: u64 = 20;
    let map: GrowMap<K, V> = GrowMap::new(16);
    let mut handle = map.handle();
    handle.insert(&key(0), &value(0));
    for round in 0..ROUNDS {
        let calls = std::cell::Cell::new(0);
        handle.insert_or_update(&key(0), &value(0), |v| {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                let mut inner = map.handle();
                inner.insert_or_update(&key(0), &value(0), bump);
                for i in 0..FRESH {
                    assert!(inner.insert(&key(1 + round * FRESH + i), &value(i)));
                }
            }
            bump(v)
        });
        if membarrier::available() {
            // Alone, the outer write ran its closure unbusied, saw the
            // cell changed and entered again.
            assert_eq!(calls.get(), 2, "round {round}");
        }
    }
    assert!(map.migrations_completed() >= 5, "{:?}", map.migration_log());
    let expected = (0..2 * ROUNDS).fold(value(0), |v, _| bump(&v));
    assert_eq!(handle.find(&key(0)), Some(expected));
    for i in 0..ROUNDS * FRESH {
        assert_eq!(handle.find(&key(1 + i)), Some(value(i % FRESH)), "key {i}");
    }
    assert_eq!(map.size_exact_quiescent() as u64, 1 + ROUNDS * FRESH);
}

/// A write on the locked path whose closure drops the map's other handle,
/// which leaves its own handle alone, and then opens a second one: that
/// registration revokes the sole mode, but the write it runs in marked its
/// busy flag locked, so it does not wait for it.
fn reentrant_bump_on_the_locked_path() {
    let map: GrowMap<u64, u64> = GrowMap::new(16);
    let mut handle = map.handle();
    handle.insert(&BASE, &0);
    let other = std::cell::RefCell::new(Some(map.handle()));
    handle.insert_or_update(&BASE, &0, |v| {
        if other.borrow_mut().take().is_some() {
            map.handle().insert_or_update(&BASE, &0, |v| v + 1);
        }
        v + 1
    });
    assert_eq!(handle.find(&BASE), Some(2));
}

#[test]
fn a_closure_that_opens_a_handle_on_its_own_map_neither_deadlocks_nor_loses_a_bump() {
    reentrant_bumps::<u64, u64>(|i| BASE + i, |i| i, |v| v + 1);
    reentrant_bumps::<String, u64>(|i| format!("reentrant-{i}"), |i| i, |v| v + 1);
    reentrant_bumps::<u64, [u64; 4]>(|i| BASE + i, |i| [i; 4], |v| v.map(|x| x + 1));
    reentrant_bump_on_the_locked_path();
}

/// One thread bumps a small key set 10^5 times by `insert_or_update`, and
/// erases and re-inserts a key of its own now and then, while another
/// creates and drops handles in a loop, each bumping one key once: the
/// writer keeps changing between storing plainly, alone, and the locked
/// path, and no bump or erase is lost.
#[test]
fn handles_come_and_go_beside_a_writer_without_losing_an_update() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const UPSERTS: u64 = 100_000;
    const HOT: u64 = 8;
    let map: GrowMap<u64, u64> = GrowMap::new(16);
    let done = AtomicBool::new(false);
    let churned = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut handle = map.handle();
            for i in 0..UPSERTS {
                handle.insert_or_update(&(BASE + i % HOT), &1, |v| v + 1);
                if i % 64 == 0 {
                    let own = BASE + HOT + i;
                    assert!(handle.insert(&own, &i));
                    assert!(handle.erase(&own));
                    assert!(handle.insert(&own, &i));
                }
            }
            done.store(true, Ordering::SeqCst);
        });
        scope.spawn(|| {
            let mut n = 0u64;
            while !done.load(Ordering::SeqCst) {
                let mut handle = map.handle();
                handle.insert_or_update(&(BASE + n % HOT), &1, |v| v + 1);
                n += 1;
            }
            churned.store(n, Ordering::SeqCst);
        });
    });
    let churned = churned.load(Ordering::SeqCst);
    let mut handle = map.handle();
    let bumps: u64 = (0..HOT).map(|i| handle.find(&(BASE + i)).unwrap()).sum();
    assert_eq!(bumps, UPSERTS + churned, "lost or doubled updates");
    let own = UPSERTS.div_ceil(64);
    for i in (0..UPSERTS).step_by(64) {
        assert_eq!(handle.find(&(BASE + HOT + i)), Some(i));
    }
    assert_eq!(map.size_exact_quiescent() as u64, HOT + own);
}

/// Held in its insert between its prologue and its plain store (the
/// `generic.sole.store` failpoint), a lone handle keeps a second handle's
/// registration waiting until the store is made; then both write side by
/// side, and every key is found.
#[cfg(feature = "failpoints")]
#[test]
fn a_registration_waits_for_the_sole_write_it_revokes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use growt_failpoints::{configure, remove, Action, Trigger};

    const KEYS: u64 = 5_000;
    const HELD_KEY: u64 = BASE + KEYS;
    static HELD: AtomicBool = AtomicBool::new(false);
    static RELEASED: AtomicBool = AtomicBool::new(false);
    std::thread_local! {
        static HOLDER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    /// Holds the one thread that asked for it, until released.
    fn hold() -> bool {
        if !HOLDER.with(std::cell::Cell::get) {
            return true;
        }
        HELD.store(true, Ordering::SeqCst);
        RELEASED.load(Ordering::SeqCst)
    }

    if !membarrier::available() {
        return; // no sole mode to revoke
    }
    let map: GrowMap<u64, u64> = GrowMap::new(16);
    configure(
        "generic.sole.store",
        Action::WaitFor {
            until: hold,
            deadline_ms: 30_000,
        },
        Trigger::Always,
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut handle = map.handle();
            HOLDER.with(|holder| holder.set(true));
            assert!(handle.insert(&HELD_KEY, &7));
            HOLDER.with(|holder| holder.set(false));
            for i in (0..KEYS).step_by(2) {
                assert!(handle.insert(&(BASE + i), &i));
            }
        });
        while !HELD.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            RELEASED.store(true, Ordering::SeqCst);
        });
        let mut handle = map.handle();
        assert!(
            RELEASED.load(Ordering::SeqCst),
            "registered past a held write"
        );
        assert_eq!(handle.find(&HELD_KEY), Some(7));
        for i in (1..KEYS).step_by(2) {
            assert!(handle.insert(&(BASE + i), &i));
        }
    });
    remove("generic.sole.store");
    let mut handle = map.handle();
    for i in 0..KEYS {
        assert_eq!(handle.find(&(BASE + i)), Some(i), "key {i}");
    }
    assert_eq!(map.size_exact_quiescent() as u64, KEYS + 1);
}

/// A lone handle's migration skips the heavy barrier (DESIGN.md §15).
/// Held inside its copy, at its first block's claim, the lone leader lets
/// a second handle register and insert: that handle's first write sees the
/// growing flag, raised before it registered, and helps with or waits for
/// the migration, the held block rescued; it goes on through the later
/// migrations while the leader stays held.  Released, the leader's handle
/// inserts on, and no key of either handle is lost.
#[cfg(feature = "failpoints")]
#[test]
fn a_handle_registered_while_a_lone_leader_copies_loses_no_insert() {
    use std::sync::atomic::{AtomicBool, Ordering};

    use growt_failpoints::{configure, remove, Action, Trigger};

    const KEYS: u64 = 20_000;
    static HELD: AtomicBool = AtomicBool::new(false);
    static RELEASED: AtomicBool = AtomicBool::new(false);
    std::thread_local! {
        static HOLDER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    /// Holds the one thread that asked for it, until released.
    fn hold() -> bool {
        if !HOLDER.with(std::cell::Cell::get) {
            return true;
        }
        HELD.store(true, Ordering::SeqCst);
        RELEASED.load(Ordering::SeqCst)
    }

    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let map: GrowMap<u64, u64> = GrowMap::new(16);
    configure(
        "generic.block.claimed",
        Action::WaitFor {
            until: hold,
            deadline_ms: 30_000,
        },
        Trigger::Always,
    );
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut handle = map.handle();
            HOLDER.with(|holder| holder.set(true));
            for i in (0..KEYS).step_by(2) {
                assert!(handle.insert(&(BASE + i), &i));
            }
        });
        while !HELD.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut handle = map.handle();
        for i in (1..KEYS).step_by(2) {
            assert!(handle.insert(&(BASE + i), &i));
        }
        assert!(map.migrations_completed() > 1);
        assert!(!RELEASED.load(Ordering::SeqCst));
        RELEASED.store(true, Ordering::SeqCst);
    });
    remove("generic.block.claimed");
    let log = map.migration_log();
    let first = &log[0];
    assert_eq!(first.generation, 1, "{log:?}");
    assert_eq!(first.mode, unhindered_mode(), "{first:?}");
    assert_eq!(first.slices, 0, "elected alone: {first:?}");
    let mut handle = map.handle();
    for i in 0..KEYS {
        assert_eq!(handle.find(&(BASE + i)), Some(i), "key {i}");
    }
    assert_eq!(map.size_exact_quiescent() as u64, KEYS);
}

// ---------------------------------------------------------------------
// The marking copy, and its locked path, on any CPU and kernel
// ---------------------------------------------------------------------

/// The checks of the suite above that migrate.
#[cfg(feature = "failpoints")]
fn migrating_checks<F: Fixture>() {
    concurrent_inserts_across_migrations::<F>();
    upsert_atomicity::<F>();
    batches_race_migration::<F>();
}

/// `insert_grow`'s table at one thread, each of whose six records must
/// satisfy `check`.
#[cfg(feature = "failpoints")]
fn six_migrations(check: impl Fn(&MigrationRecord)) {
    let map: GrowMap<u64, u64> = GrowMap::new(1024);
    let mut handle = map.handle();
    for key in 0..1u64 << 16 {
        handle.insert(&(BASE + key), &key);
    }
    drop(handle);
    let log = map.migration_log();
    assert_eq!(log.len(), 6);
    log.iter().for_each(check);
}

/// With the `generic.membarrier` failpoint saying the heavy barrier is not
/// there, every migration marks — one locked `fetch_or` freezes each
/// source cell — and the checks that migrate hold.  (The registry is
/// process-global: tests running beside this one mark too, which none of
/// them minds.)
#[cfg(feature = "failpoints")]
#[test]
fn conformance_holds_when_migrations_mark() {
    use growt_failpoints::{configure, remove, Action, Trigger};

    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    configure("generic.membarrier", Action::FailAlloc, Trigger::Always);
    migrating_checks::<InlineInline>();
    migrating_checks::<BoxedKey>();
    migrating_checks::<BoxedValue>();
    remove("generic.membarrier");
}

/// Without the heavy barrier a lone handle's migrations mark too: the
/// skipped barrier of a lone leader (DESIGN.md §15) comes after the check
/// for it, not in its place.  Each record counts the freeze passes of one
/// copy of every block, and its target came cleared.
#[cfg(feature = "failpoints")]
#[test]
fn a_lone_handles_migrations_mark_without_the_barrier() {
    use growt_failpoints::{configure, remove, Action, Trigger};

    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    configure("generic.membarrier", Action::FailAlloc, Trigger::Always);
    six_migrations(|record| {
        assert_eq!(record.mode, MigrationMode::Marking, "{record:?}");
        assert_eq!(record.slices, 0, "{record:?}");
        check_chunks_of_one_copy(record);
    });
    remove("generic.membarrier");
}

/// Two threads bump a hot key set by `insert_or_update` while they insert
/// fresh keys that keep the map migrating, every migration marking: each
/// bump lands exactly once.  An inline value is updated by a CAS of its
/// value word alone, which the marking freeze defeats by flipping that
/// word (DESIGN.md §15).
#[cfg(feature = "failpoints")]
fn updates_stay_exact_when_migrations_mark<K: KeyRepr>(key: fn(u64) -> K) {
    const HOT: u64 = 16;
    const PER_THREAD: u64 = 10_000;
    let map: GrowMap<K, u64> = GrowMap::with_config(16, GrowConfig::default(), 2);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let map = &map;
            scope.spawn(move || {
                let mut handle = map.handle();
                for i in 0..PER_THREAD {
                    handle.insert_or_update(&key(i % HOT), &1, |v| v + 1);
                    assert!(handle.insert(&key(HOT + 2 * i + t), &0));
                }
            });
        }
    });
    let log = map.migration_log();
    assert!(map.migrations_completed() >= 10, "{log:?}");
    assert!(
        log.iter().all(|r| r.mode == MigrationMode::Marking),
        "{log:?}"
    );
    let mut handle = map.handle();
    let bumps: u64 = (0..HOT).map(|i| handle.find(&key(i)).unwrap()).sum();
    assert_eq!(bumps, 2 * PER_THREAD, "lost or doubled updates");
    assert_eq!(map.size_exact_quiescent() as u64, HOT + 2 * PER_THREAD);
}

#[cfg(feature = "failpoints")]
#[test]
fn insert_or_update_stays_exact_when_migrations_mark() {
    use growt_failpoints::{configure, remove, Action, Trigger};

    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    configure("generic.membarrier", Action::FailAlloc, Trigger::Always);
    updates_stay_exact_when_migrations_mark::<u64>(|i| BASE + i);
    // Short keys in their key words and long ones behind a pointer.
    updates_stay_exact_when_migrations_mark::<String>(|i| {
        if i.is_multiple_of(2) {
            format!("k{i}")
        } else {
            format!("long-key-{i}")
        }
    });
    remove("generic.membarrier");
}

/// Serializes the tests that configure the `generic.membarrier` failpoint
/// with the one that needs a migration to try excluding writers.
static FAILPOINTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
