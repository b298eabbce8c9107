//! Generic [`ConcurrentMap`] conformance suite.
//!
//! Every table type exported from `growt_repro::prelude` is driven through
//! the same checks via one generic harness, so that all implementations are
//! exercised through the single trait surface the benchmarks use rather
//! than per-crate ad-hoc smoke tests:
//!
//! * a single-threaded insert/find/update/upsert/erase round-trip,
//! * a multi-threaded distinct-key insert + find smoke test,
//! * for tables advertising atomic updates (Table 1), a concurrent
//!   insert-or-increment atomicity check,
//! * a batch-semantics suite: every `*_batch` operation must produce
//!   exactly the results of the per-op loop (including duplicate keys
//!   inside one batch), and batches racing a live migration must neither
//!   lose nor duplicate elements.
//!
//! Capability flags steer the variations: sequential reference tables run
//! the concurrent sections with one thread, and the atomicity check only
//! runs where `Capabilities::atomic_updates` is claimed.

use growt_repro::prelude::*;

/// Smallest key used by the suite: keys 0/1 (and a small reserved prefix)
/// are sentinel values in several open-addressing tables.
const BASE: u64 = 32;

fn concurrency_for<M: ConcurrentMap>(requested: usize) -> usize {
    // The sequential reference tables use no synchronization at all; the
    // whole harness (paper §8.1.4) only ever drives them single-threaded.
    if M::table_name().starts_with("sequential") {
        1
    } else {
        requested
    }
}

/// Single-threaded round-trip over the full `MapHandle` surface.
fn round_trip<M: ConcurrentMap>() {
    let table = M::with_capacity(2048);
    let mut h = table.handle();
    let name = M::table_name();

    // Fresh inserts succeed exactly once.
    for k in BASE..BASE + 512 {
        assert!(h.insert(k, k + 1), "{name}: first insert of {k}");
    }
    for k in BASE..BASE + 512 {
        assert!(!h.insert(k, 0), "{name}: duplicate insert of {k}");
        assert_eq!(h.find(k), Some(k + 1), "{name}: find({k})");
    }
    assert_eq!(h.find(BASE + 100_000), None, "{name}: absent key");

    // update / update_overwrite only touch existing elements.
    assert!(
        h.update(BASE, 5, |cur, d| cur + d),
        "{name}: update present"
    );
    assert_eq!(h.find(BASE), Some(BASE + 6));
    assert!(
        !h.update(BASE + 100_000, 5, |cur, d| cur + d),
        "{name}: update absent"
    );
    assert!(h.update_overwrite(BASE, 7), "{name}: overwrite present");
    assert_eq!(h.find(BASE), Some(7));

    // insert_or_update inserts when absent, updates when present.
    assert!(
        h.insert_or_update(BASE + 1000, 3, |c, d| c + d).inserted(),
        "{name}: upsert absent"
    );
    assert!(
        !h.insert_or_update(BASE + 1000, 4, |c, d| c + d).inserted(),
        "{name}: upsert present"
    );
    assert_eq!(h.find(BASE + 1000), Some(7), "{name}: upsert result");

    // insert_or_increment is the aggregation primitive of Fig. 5.
    assert!(h.insert_or_increment(BASE + 2000, 2).inserted());
    assert!(!h.insert_or_increment(BASE + 2000, 40).inserted());
    assert_eq!(h.find(BASE + 2000), Some(42), "{name}: increment result");

    // erase removes exactly once; erased keys can be re-inserted.
    assert!(h.erase(BASE + 1), "{name}: erase present");
    assert!(!h.erase(BASE + 1), "{name}: erase absent");
    assert_eq!(h.find(BASE + 1), None, "{name}: erased key gone");
    assert!(h.insert(BASE + 1, 99), "{name}: re-insert after erase");
    assert_eq!(h.find(BASE + 1), Some(99));

    h.quiesce();
}

/// Multi-threaded smoke: distinct-key inserts from several threads, then
/// concurrent finds; nothing may be lost.
fn concurrent_insert_find<M: ConcurrentMap>() {
    let threads = concurrency_for::<M>(4);
    let per_thread = 4_000u64;
    let total = per_thread * threads as u64;
    let table = M::with_capacity(total as usize);
    let name = M::table_name();

    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let table = &table;
            scope.spawn(move || {
                let mut h = table.handle();
                for i in 0..per_thread {
                    let k = BASE + t * per_thread + i;
                    assert!(h.insert(k, k), "{name}: parallel insert {k}");
                    if i % 1024 == 0 {
                        h.quiesce();
                    }
                }
                h.quiesce();
            });
        }
    });

    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let table = &table;
            scope.spawn(move || {
                let mut h = table.handle();
                for i in 0..per_thread {
                    let k = BASE + t * per_thread + i;
                    assert_eq!(h.find(k), Some(k), "{name}: parallel find {k}");
                }
                h.quiesce();
            });
        }
    });
}

/// Concurrent insert-or-increment on a small key universe: the sum of all
/// counters must equal the number of operations (no lost increments).
/// Only meaningful where the table claims atomic updates (Table 1).
fn concurrent_increment_atomicity<M: ConcurrentMap>() {
    if !M::capabilities().atomic_updates {
        return;
    }
    let threads = concurrency_for::<M>(4);
    let per_thread = 10_000u64;
    let universe = 97u64;
    let table = M::with_capacity(4 * universe as usize);
    let name = M::table_name();

    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let table = &table;
            scope.spawn(move || {
                let mut h = table.handle();
                for i in 0..per_thread {
                    h.insert_or_increment(BASE + (i * 31 + t) % universe, 1);
                    if i % 1024 == 0 {
                        h.quiesce();
                    }
                }
                h.quiesce();
            });
        }
    });

    let mut h = table.handle();
    let total: u64 = (0..universe).map(|k| h.find(BASE + k).unwrap_or(0)).sum();
    assert_eq!(
        total,
        per_thread * threads as u64,
        "{name}: lost increments under concurrent aggregation"
    );
}

/// Batch calls must be observably identical to the per-op loop: drive one
/// table with the batch API and a twin with single operations, comparing
/// every return value and the final contents — with duplicate keys inside
/// one batch, absent keys, and uneven batch lengths.
fn batch_matches_per_op<M: ConcurrentMap>() {
    let batched = M::with_capacity(4096);
    let looped = M::with_capacity(4096);
    let mut hb = batched.handle();
    let mut hl = looped.handle();
    let name = M::table_name();

    // 600 distinct keys, 300 of them repeated inside the same batch with a
    // different value: only the first occurrence of a key may insert.
    let mut elems: Vec<(u64, u64)> = (0..600u64).map(|i| (BASE + i, i + 1)).collect();
    elems.extend((0..300u64).map(|i| (BASE + 2 * i, 7_000 + i)));
    let by_batch = hb.insert_batch(&elems);
    let mut by_loop = 0;
    for &(k, v) in &elems {
        if hl.insert(k, v) {
            by_loop += 1;
        }
    }
    assert_eq!(by_batch, by_loop, "{name}: insert_batch count");

    // Lookups over present and absent keys.
    let keys: Vec<u64> = (0..700u64).map(|i| BASE + i).collect();
    let mut out = vec![None; keys.len()];
    hb.find_batch(&keys, &mut out);
    for (&k, &f) in keys.iter().zip(out.iter()) {
        assert_eq!(f, hl.find(k), "{name}: find_batch({k})");
    }

    // Updates, with keys repeated inside the batch (applied in order) and
    // absent keys interleaved.
    let mut updates: Vec<(u64, u64)> = (0..650u64).map(|i| (BASE + i, 10)).collect();
    updates.extend((0..100u64).map(|i| (BASE + 3 * i, 1)));
    let ub = hb.update_batch(&updates, |c, d| c.wrapping_add(d));
    let mut ul = 0;
    for &(k, d) in &updates {
        if hl.update(k, d, |c, d| c.wrapping_add(d)) {
            ul += 1;
        }
    }
    assert_eq!(ub, ul, "{name}: update_batch count");

    // Deletions, with duplicates (second occurrence finds nothing) and
    // absent keys.
    let mut erase: Vec<u64> = (0..400u64).map(|i| BASE + i).collect();
    erase.extend((0..100u64).map(|i| BASE + i));
    erase.extend((0..50u64).map(|i| BASE + 5_000 + i));
    let eb = hb.erase_batch(&erase);
    let mut el = 0;
    for &k in &erase {
        if hl.erase(k) {
            el += 1;
        }
    }
    assert_eq!(eb, el, "{name}: erase_batch count");

    // Final contents must coincide.
    let mut out = vec![None; keys.len()];
    hb.find_batch(&keys, &mut out);
    for (&k, &f) in keys.iter().zip(out.iter()) {
        assert_eq!(f, hl.find(k), "{name}: final contents at {k}");
    }
    hb.quiesce();
    hl.quiesce();
}

/// Concurrent batches racing live migrations: growing tables start tiny so
/// the batched inserts trigger (and re-batch across) several migrations;
/// non-growing tables still exercise concurrent batch execution.  Nothing
/// may be lost or duplicated, and `find_batch` must see every element.
fn batches_race_migration<M: ConcurrentMap>() {
    let threads = concurrency_for::<M>(4);
    let per_thread = 5_000u64;
    let total = per_thread * threads as u64;
    let capacity = if M::capabilities().growing == GrowthSupport::Full {
        64
    } else {
        total as usize
    };
    let table = M::with_capacity(capacity);
    let name = M::table_name();

    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let table = &table;
            scope.spawn(move || {
                let mut h = table.handle();
                let elems: Vec<(u64, u64)> = (0..per_thread)
                    .map(|i| {
                        let k = BASE + t * per_thread + i;
                        (k, k)
                    })
                    .collect();
                let mut inserted = 0;
                // 37 is deliberately coprime to the pipeline width so the
                // batches land unaligned.
                for chunk in elems.chunks(37) {
                    inserted += h.insert_batch(chunk);
                    h.quiesce();
                }
                assert_eq!(inserted, per_thread as usize, "{name}: lost batch inserts");
            });
        }
    });

    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            let table = &table;
            scope.spawn(move || {
                let mut h = table.handle();
                let keys: Vec<u64> = (0..per_thread).map(|i| BASE + t * per_thread + i).collect();
                let mut out = vec![None; keys.len()];
                h.find_batch(&keys, &mut out);
                for (&k, &f) in keys.iter().zip(out.iter()) {
                    assert_eq!(f, Some(k), "{name}: find_batch({k}) after race");
                }
                h.quiesce();
            });
        }
    });
}

macro_rules! conformance {
    ($($module:ident => $table:ty),+ $(,)?) => {
        $(
            mod $module {
                use super::*;

                #[test]
                fn round_trip() {
                    super::round_trip::<$table>();
                }

                #[test]
                fn concurrent_insert_find() {
                    super::concurrent_insert_find::<$table>();
                }

                #[test]
                fn concurrent_increment_atomicity() {
                    super::concurrent_increment_atomicity::<$table>();
                }

                #[test]
                fn batch_matches_per_op() {
                    super::batch_matches_per_op::<$table>();
                }

                #[test]
                fn batches_race_migration() {
                    super::batches_race_migration::<$table>();
                }
            }
        )+
    };
}

conformance! {
    // growt-core variants (§7).
    folklore => Folklore,
    folklore_crc => FolkloreCrc,
    folklore_simd => FolkloreSimd,
    ua_grow => UaGrow,
    ua_grow_crc => UaGrowCrc,
    us_grow => UsGrow,
    pa_grow => PaGrow,
    ps_grow => PsGrow,
    // Sequential references (§8.1.4).
    seq_table => SeqTable,
    seq_growing_table => SeqGrowingTable,
    // Competitor families (§8.1).
    cuckoo => Cuckoo,
    folly_style => FollyStyle,
    hopscotch => Hopscotch,
    junction_leapfrog => JunctionLeapfrog,
    junction_linear => JunctionLinear,
    lea_hash => LeaHash,
    phase_concurrent => PhaseConcurrent,
    rcu_qsbr => RcuQsbrTable,
    rcu => RcuTable,
    tbb_hash_map => TbbHashMap,
    tbb_unordered_map => TbbUnorderedMap,
}
