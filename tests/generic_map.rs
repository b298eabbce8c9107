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

/// Chunks of 64 source cells in a migration whose every block was copied
/// once: blocks are multiples of the chunk from 2^8 cells up, so it is the
/// source's cells over 64.
fn chunks_copied_once(record: &growt_repro::growt_core::MigrationRecord) -> usize {
    assert_eq!(record.block_size % 64, 0, "{record:?}");
    record.from_capacity.div_ceil(64)
}

/// `insert_grow`'s table at one thread: 2^11 → 2^17 cells in six
/// migrations.  The log holds one record per migration, the records chain,
/// every migration is 8–16 leases of at most `migration_block` cells, the
/// lone thread copied every block itself, and every chunk of every block
/// went through one of the copier's two paths — the transactional one only
/// where the CPU has it.
#[test]
fn migration_log_records_every_phase_of_the_last_migrations() {
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
    let migration_block = growt_repro::growt_core::GrowConfig::default().migration_block;
    for record in &log {
        assert!((8..=16).contains(&record.blocks), "{record:?}");
        assert!(record.block_size <= migration_block, "{record:?}");
        assert_eq!(
            record.blocks,
            record.from_capacity.div_ceil(record.block_size)
        );
        assert_eq!(record.blocks_by_leader, record.blocks, "{record:?}");
        assert_eq!(record.rescued, 0, "{record:?}");
        assert_eq!(
            record.chunks_transactional + record.chunks_locked,
            chunks_copied_once(record),
            "{record:?}"
        );
        if !growt_repro::growt_htm::rtm::available() {
            assert_eq!(record.chunks_transactional, 0, "{record:?}");
        }
        assert_eq!(record.longest_wait_ns, 0, "nobody waited: {record:?}");
        assert!(record.live > 0 && record.live as usize <= record.from_capacity);
        assert!(
            record.prepare_ns > 0 && record.copy_ns > 0 && record.finalize_ns > 0,
            "{record:?}"
        );
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
            assert_eq!(
                record.chunks_transactional + record.chunks_locked,
                chunks_copied_once(record),
                "{record:?}"
            );
        }
    }
    assert_eq!(map.size_exact_quiescent(), 1 << 16);
}

// ---------------------------------------------------------------------
// The block copier's locked path, on any CPU
// ---------------------------------------------------------------------

/// Where the CPU has RTM the suite above migrates inside transactions and
/// reaches the locked instructions only through an abort.  With the
/// `generic.copy.txn` failpoint refusing every transaction, the checks
/// that migrate run once more on the locked path alone, and the log says
/// that is what ran.  (The registry is process-global: tests running
/// beside this one take the locked path too, which none of them minds.)
#[cfg(feature = "failpoints")]
#[test]
fn conformance_holds_on_the_locked_copy_path() {
    use growt_failpoints::{configure, remove, Action, Trigger};

    fn migrating_checks<F: Fixture>() {
        concurrent_inserts_across_migrations::<F>();
        upsert_atomicity::<F>();
        batches_race_migration::<F>();
    }

    configure("generic.copy.txn", Action::FailAlloc, Trigger::Always);
    migrating_checks::<InlineInline>();
    migrating_checks::<BoxedKey>();
    migrating_checks::<BoxedValue>();

    let map: GrowMap<u64, u64> = GrowMap::new(1024);
    let mut handle = map.handle();
    for key in 0..1u64 << 16 {
        handle.insert(&(BASE + key), &key);
    }
    drop(handle);
    let log = map.migration_log();
    assert_eq!(log.len(), 6);
    for record in &log {
        assert_eq!(record.chunks_transactional, 0, "{record:?}");
        assert_eq!(
            record.chunks_locked,
            chunks_copied_once(record),
            "{record:?}"
        );
    }
    remove("generic.copy.txn");
}
