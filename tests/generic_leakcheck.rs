//! Allocation-exact reclamation of the generic map's out-of-line memory.
//!
//! `GrowMap<String, [u64; 4]>` exercises both packed representations at
//! once: every element owns a boxed key *and* a boxed value, updates
//! displace value boxes into the QSBR limbo list, and erases retire both
//! allocations.  The tracking allocator is installed as the binary's
//! global allocator, so "nothing leaked" is checked at the allocator
//! level: after the map and all handles drop, the live-byte counter must
//! return to its pre-map baseline — no matter how many migrations,
//! updates and deletions happened in between.
//!
//! Two further phases pin the `String` key storage: a key costs exactly
//! one allocation (the string tables' `⟨hash, len, bytes⟩` buffer, not a
//! box around a `String`), and keys at every length boundary of the byte
//! hash survive insert / find / update / erase across migrations.
//!
//! This file intentionally holds a single `#[test]` — a second
//! concurrently running test would pollute the allocator counters — so
//! the phases run one after the other inside it, each between two reads
//! of the live-byte counter.

use growt_repro::growt_alloc_track;
use growt_repro::prelude::*;

#[global_allocator]
static GLOBAL: growt_alloc_track::TrackingAlloc = growt_alloc_track::TrackingAlloc;

/// One-time lazy allocations (thread-local buffers, runtime statics) must
/// happen before the baseline is taken, so the leak check only sees the
/// map's own allocations.
fn warmup() {
    let map: GrowMap<String, [u64; 4]> = GrowMap::new(16);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let map = &map;
            s.spawn(move || {
                let mut h = map.handle();
                for i in 0..200u64 {
                    let key = format!("warm-{i}");
                    h.insert_or_update(&key, &[1, 0, 0, 0], &|v: &[u64; 4]| {
                        let mut n = *v;
                        n[0] += 1;
                        n
                    });
                    if i % 2 == 0 {
                        h.erase(&key);
                    }
                }
                h.quiesce();
            });
        }
    });
    drop(map);
}

/// Joined threads may still be mid-shutdown: `scope`/`join` return when a
/// worker signals completion, but the runtime frees the worker's own
/// bookkeeping (its `Thread` handle, TLS slots) moments later.  Wait for
/// the live-byte counter to hold still before trusting it.
fn settled_bytes() -> u64 {
    let mut last = growt_alloc_track::current_bytes();
    let mut stable = 0;
    for _ in 0..500 {
        std::thread::sleep(std::time::Duration::from_millis(2));
        let now = growt_alloc_track::current_bytes();
        if now == last {
            stable += 1;
            if stable >= 25 {
                break;
            }
        } else {
            stable = 0;
            last = now;
        }
    }
    last
}

/// Allocator calls made while one handle inserts `keys` into a map that
/// starts at 16 cells, and the migrations that took.
fn allocations_to_insert<K: KeyRepr>(keys: &[K]) -> (u64, u64) {
    let before = growt_alloc_track::allocation_count();
    let map: GrowMap<K, u64> = GrowMap::new(16);
    let mut h = map.handle();
    for key in keys {
        assert!(h.insert(key, &7));
    }
    drop(h);
    let calls = growt_alloc_track::allocation_count() - before;
    (calls, map.migrations_completed())
}

/// A `String` key is one allocation.  The same number of `u64` keys takes
/// the map through the same generations (and the same handle, coordinator
/// and QSBR bookkeeping) without any key allocation, so the difference
/// between the two counts is what the keys cost.
fn string_keys_cost_one_allocation_each() {
    const KEYS: u64 = 3_000;
    let words: Vec<u64> = (0..KEYS).map(|i| i + 2).collect();
    let strings: Vec<String> = (0..KEYS).map(|i| format!("one-allocation-{i}")).collect();
    let (word_calls, word_migrations) = allocations_to_insert(&words);
    let (string_calls, string_migrations) = allocations_to_insert(&strings);
    assert!(word_migrations >= 2, "never grew");
    assert_eq!(string_migrations, word_migrations);
    assert_eq!(
        string_calls - word_calls,
        KEYS,
        "allocations per String key must be exactly one"
    );
}

/// Keys on both sides of every length boundary of the byte hash (0, 1, 7,
/// 8, 9, 16 and 17 bytes), a very long one and multi-byte UTF-8 go through
/// every operation and at least two migrations, for an inline (`u64`) and
/// a boxed (`[u64; 4]`) value type.
fn edge_length_keys_round_trip<V>(value_of: impl Fn(u64) -> V)
where
    V: ValueRepr + PartialEq + std::fmt::Debug,
{
    let mut keys: Vec<String> = [0usize, 1, 7, 8, 9, 16, 17, 100_000]
        .iter()
        .map(|&len| {
            "abcdefghijklmnopqrstuvwxyz"
                .chars()
                .cycle()
                .take(len)
                .collect()
        })
        .collect();
    keys.extend(["ключ".to_string(), "鍵🔑".to_string(), "é".to_string()]);

    let map: GrowMap<String, V> = GrowMap::new(16);
    let mut h = map.handle();
    for (i, key) in keys.iter().enumerate() {
        assert!(h.insert(key, &value_of(i as u64)), "insert {i}");
        assert!(!h.insert(key, &value_of(99)), "re-insert {i}");
    }
    // Fillers push the table through growth while the edge keys sit in it.
    for i in 0..500u64 {
        assert!(h.insert(&format!("filler-{i}"), &value_of(i)));
    }
    assert!(map.migrations_completed() >= 2, "fewer than two migrations");
    for (i, key) in keys.iter().enumerate() {
        let i = i as u64;
        assert_eq!(h.find(key), Some(value_of(i)), "find {i}");
        assert!(h.update(key, |_| value_of(i + 1000)), "update {i}");
        assert!(!h
            .insert_or_update(key, &value_of(0), |_| value_of(i + 2000))
            .inserted());
        assert_eq!(h.find(key), Some(value_of(i + 2000)), "find updated {i}");
    }
    // A key that differs from a stored one only in its last byte, or only
    // in its length, is another key.
    assert_eq!(h.find(&"abcdefgi".to_string()), None);
    assert_eq!(h.find(&"abcdefghijklmnop\0".to_string()), None);
    for (i, key) in keys.iter().enumerate() {
        assert!(h.erase(key), "erase {i}");
        assert!(!h.erase(key), "second erase {i}");
        assert_eq!(h.find(key), None, "find erased {i}");
    }
    // Another doubling with tombstones in the table, then back in.
    for i in 500..2_000u64 {
        assert!(h.insert(&format!("filler-{i}"), &value_of(i)));
    }
    for (i, key) in keys.iter().enumerate() {
        assert!(h.insert(key, &value_of(i as u64)), "insert after erase {i}");
    }
    for i in 0..2_000u64 {
        assert_eq!(h.find(&format!("filler-{i}")), Some(value_of(i)));
    }
    assert_eq!(map.size_exact_quiescent(), 2_000 + keys.len());
}

/// Run `phase` and require the allocator's live bytes to return to where
/// they were: every key and value the phase stored was freed.
fn leak_checked(name: &str, phase: impl FnOnce()) {
    let baseline = settled_bytes();
    phase();
    let after = settled_bytes();
    assert_eq!(
        after,
        baseline,
        "{name} leaked {} bytes",
        after as i64 - baseline as i64
    );
}

#[test]
fn generic_map_reclaims_every_box_exactly() {
    warmup();
    leak_checked(
        "one allocation per key",
        string_keys_cost_one_allocation_each,
    );
    leak_checked("edge keys, inline values", || {
        edge_length_keys_round_trip(|i| i)
    });
    leak_checked("edge keys, boxed values", || {
        edge_length_keys_round_trip(|i| [i, i + 1, i + 2, i + 3])
    });
    let baseline = settled_bytes();

    {
        // Tiny initial capacity: the ingest crosses several growth
        // migrations while keys and values churn.
        let map: GrowMap<String, [u64; 4]> = GrowMap::new(16);
        let threads = 4u64;
        let per_thread = 2_500u64;
        let distinct = 600u64;

        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.handle();
                    for i in 0..per_thread {
                        let idx = (i.wrapping_mul(t + 1)) % distinct;
                        let key = format!("leak-{idx}");
                        // Insert, update (displacing a value box), and
                        // periodically erase (retiring both boxes).
                        h.insert_or_update(&key, &[1, t, 0, 0], &|v: &[u64; 4]| {
                            let mut n = *v;
                            n[0] += 1;
                            n
                        });
                        if i % 7 == 0 {
                            h.erase(&key);
                        }
                    }
                    h.quiesce();
                });
            }
        });

        assert!(map.migrations_completed() > 0, "never migrated");

        // A final handle quiescing alone cannot free what other
        // (dropped) handles retired only if the domain still thinks they
        // are active — dropping a handle unregisters it, so one surviving
        // handle's quiescent states drain the limbo list completely.
        let mut h = map.handle();
        h.quiesce();
        h.quiesce();
        drop(h);
        drop(map);
        // The QSBR domain drops with the map, releasing any remaining
        // deferred boxes.
    }

    // The counter must return to the baseline *exactly* — thread-shutdown
    // stragglers just mean it may take a few milliseconds to get there.
    let mut after = settled_bytes();
    for _ in 0..500 {
        if after == baseline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        after = growt_alloc_track::current_bytes();
    }
    assert_eq!(
        after,
        baseline,
        "generic map leaked {} bytes of key/value boxes",
        after as i64 - baseline as i64
    );
}
