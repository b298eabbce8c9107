//! String-key conformance suite (§5.7 complex keys) over
//! [`GenericMap`]`<String, u64>`.
//!
//! Both string tables — the bounded `stringFolklore` baseline
//! ([`StringKeyTable`]) and the growing, deleting `stringGrow`
//! (`GrowMap<String, u64>`) — are driven through one generic harness,
//! exactly like the word tables run through the [`ConcurrentMap`] suite in
//! `conformance.rs`:
//!
//! * a single-threaded round-trip over the full handle surface,
//! * publication-order checks (a found value is always fully published),
//! * concurrent word-count exactness: sum of all counts == number of
//!   words ingested, and count per word == occurrences,
//! * concurrent same-key insert races with exactly one winner,
//! * deletion round-trips (erase, reinsert, erase race single winner),
//! * signature-collision keys resolved by the full string compare,
//! * for the growing table, all of the above across live migrations, and
//!   (below the harness) cleanup migrations under a sliding window of
//!   erases, readers racing erasers, and finds racing growth.

use growt_repro::growt_core::GrowConfig;
use growt_repro::prelude::*;

fn threads() -> usize {
    4
}

/// `k` as the map's key type.
fn key(k: &str) -> String {
    k.to_string()
}

/// Key `i` of a mixed set: an even `i` gives `{prefix}{i}`, which must be
/// short (at most seven bytes, the key word itself), an odd `i` gives
/// `{prefix}{i}-long`, which is stored behind a reference.  A set of these
/// runs both key forms through one test.
fn mixed(prefix: &str, i: u64) -> String {
    if i.is_multiple_of(2) {
        let k = format!("{prefix}{i}");
        assert!(k.len() <= 7, "{k} is not a short key");
        k
    } else {
        format!("{prefix}{i}-long")
    }
}

/// The word-count update: add `delta` to the stored count.
fn add(delta: u64) -> impl Fn(&u64) -> u64 {
    move |c| c + delta
}

/// Single-threaded round-trip over the full `GenericMapHandle` surface.
fn round_trip<M: GenericMap<String, u64>>() {
    let table = M::with_capacity(2048);
    let mut h = table.handle();
    let name = M::map_name();

    for i in 0..512u64 {
        assert!(
            h.insert(&mixed("rt-", i), &(i + 1)),
            "{name}: insert rt-{i}"
        );
    }
    for i in 0..512u64 {
        assert!(!h.insert(&mixed("rt-", i), &0), "{name}: dup insert rt-{i}");
        assert_eq!(h.find(&mixed("rt-", i)), Some(i + 1), "{name}: find");
    }
    assert_eq!(h.find(&key("absent")), None, "{name}: absent key");

    assert!(h.update(&key("rt-0"), &add(5)), "{name}: update present");
    assert_eq!(h.find(&key("rt-0")), Some(6), "{name}: update result");
    assert!(!h.update(&key("absent"), &add(5)), "{name}: update absent");
    assert_eq!(h.find(&key("absent")), None, "{name}: update inserted");

    assert!(
        h.insert_or_update(&key("ioa"), &3, &add(3)).inserted(),
        "{name}: upsert absent"
    );
    assert!(
        !h.insert_or_update(&key("ioa"), &4, &add(4)).inserted(),
        "{name}: upsert present"
    );
    assert_eq!(h.find(&key("ioa")), Some(7), "{name}: upsert result");

    assert!(h.erase(&key("ioa")), "{name}: erase present");
    assert!(!h.erase(&key("ioa")), "{name}: erase absent");
    assert_eq!(h.find(&key("ioa")), None, "{name}: erased key gone");
    assert!(!h.update(&key("ioa"), &add(1)), "{name}: update erased");
    assert!(
        h.insert_or_update(&key("ioa"), &9, &add(9)).inserted(),
        "{name}: reinsert"
    );
    assert_eq!(h.find(&key("ioa")), Some(9), "{name}: reinsert value");

    // Empty, unicode and long keys are ordinary keys.
    assert!(h.insert(&key(""), &1), "{name}: empty key");
    assert!(
        h.insert(&key("wörter-zählen-🔢"), &2),
        "{name}: unicode key"
    );
    let long = "long-".repeat(4_000);
    assert!(h.insert(&long, &3), "{name}: long key");
    assert_eq!(h.find(&key("")), Some(1), "{name}");
    assert_eq!(h.find(&key("wörter-zählen-🔢")), Some(2), "{name}");
    assert_eq!(h.find(&long), Some(3), "{name}");

    h.quiesce();
}

/// Concurrent word-count exactness: after ingesting a Zipf word stream
/// with `insert_or_update(word, 1, +1)` from several threads, every
/// word's count equals its number of occurrences and the counts sum to
/// the stream length.  For growing tables the table starts tiny, so the ingest
/// crosses several migrations.
fn wordcount_exact<M: GenericMap<String, u64>>(initial_capacity: usize, ops: usize, vocab: usize) {
    let name = M::map_name();
    let corpus = word_corpus(ops, vocab, 1.0, 0xC0DE);
    let expected = corpus.expected_counts();
    let table = M::with_capacity(initial_capacity);
    let inserted = std::sync::atomic::AtomicU64::new(0);
    let p = threads();
    std::thread::scope(|s| {
        for t in 0..p {
            let table = &table;
            let corpus = &corpus;
            let inserted = &inserted;
            s.spawn(move || {
                let mut h = table.handle();
                let mut mine = 0u64;
                for (i, &w) in corpus.stream.iter().enumerate() {
                    if i % p == t {
                        let word = &corpus.vocabulary[w as usize];
                        if h.insert_or_update(word, &1, &add(1)).inserted() {
                            mine += 1;
                        }
                    }
                }
                inserted.fetch_add(mine, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let distinct = expected.iter().filter(|&&c| c > 0).count() as u64;
    assert_eq!(
        inserted.load(std::sync::atomic::Ordering::Relaxed),
        distinct,
        "{name}: insertions != distinct words (duplicate or lost keys)"
    );
    let mut h = table.handle();
    let mut total = 0u64;
    for (word, &count) in corpus.vocabulary.iter().zip(&expected) {
        let stored = h.find(word);
        assert_eq!(
            stored,
            (count > 0).then_some(count),
            "{name}: count for {word}"
        );
        total += stored.unwrap_or(0);
    }
    assert_eq!(
        total as usize,
        corpus.total_words(),
        "{name}: sum of counts != words ingested"
    );
}

/// Concurrent same-key insert races have exactly one winner — for the
/// growing table (which starts tiny) across its migrations.
fn insert_race_single_winner<M: GenericMap<String, u64>>(initial_capacity: usize) {
    let name = M::map_name();
    let table = M::with_capacity(initial_capacity);
    let wins = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads() {
            let table = &table;
            let wins = &wins;
            s.spawn(move || {
                let mut h = table.handle();
                for i in 0..1_000u64 {
                    if h.insert(&format!("race-{i}"), &i) {
                        wins.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        wins.load(std::sync::atomic::Ordering::Relaxed),
        1_000,
        "{name}: same-key insert races must have exactly one winner"
    );
    let mut h = table.handle();
    for i in 0..1_000u64 {
        assert_eq!(h.find(&format!("race-{i}")), Some(i), "{name}: race-{i}");
    }
}

/// Racing erases of the same keys, short and long: every key is erased
/// exactly once.
fn erase_race_single_winner<M: GenericMap<String, u64>>() {
    let name = M::map_name();
    let table = M::with_capacity(4_096);
    {
        let mut h = table.handle();
        for i in 0..1_000u64 {
            assert!(h.insert(&mixed("del-", i), &i));
        }
    }
    let erased = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads() {
            let table = &table;
            let erased = &erased;
            s.spawn(move || {
                let mut h = table.handle();
                for i in 0..1_000u64 {
                    if h.erase(&mixed("del-", i)) {
                        erased.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                h.quiesce();
            });
        }
    });
    assert_eq!(
        erased.load(std::sync::atomic::Ordering::Relaxed),
        1_000,
        "{name}: every key must be erased exactly once"
    );
    let mut h = table.handle();
    for i in 0..1_000u64 {
        assert_eq!(
            h.find(&mixed("del-", i)),
            None,
            "{name}: del-{i} resurrected"
        );
    }
}

/// Signature collisions (distinct strings with equal 14-bit signatures
/// colliding onto nearby cells) are resolved by the full key compare.
/// Every key is longer than seven bytes, so every key carries a signature.
fn values_survive_dense_collisions<M: GenericMap<String, u64>>() {
    let name = M::map_name();
    // A small capacity forces long shared probe runs, so keys with equal
    // signatures and overlapping probe paths exercise the compare path.
    let table = M::with_capacity(2_048);
    let mut h = table.handle();
    for i in 0..1_500u64 {
        assert!(
            h.insert(&format!("collide-{i}"), &(i * 3 + 1)),
            "{name}: col-{i}"
        );
    }
    for i in 0..1_500u64 {
        assert_eq!(
            h.find(&format!("collide-{i}")),
            Some(i * 3 + 1),
            "{name}: col-{i} got another key's value"
        );
    }
}

macro_rules! string_conformance {
    ($module:ident, $table:ty, $growing_initial:expr) => {
        mod $module {
            use super::*;

            #[test]
            fn round_trip() {
                super::round_trip::<$table>();
            }

            #[test]
            fn wordcount_exact_concurrent() {
                // Capacity chosen so bounded tables hold the vocabulary and
                // growing tables cross several migrations ($growing_initial
                // is tiny for those).
                wordcount_exact::<$table>($growing_initial, 60_000, 700);
            }

            #[test]
            fn insert_race_single_winner() {
                super::insert_race_single_winner::<$table>($growing_initial);
            }

            #[test]
            fn erase_race_single_winner() {
                super::erase_race_single_winner::<$table>();
            }

            #[test]
            fn values_survive_dense_collisions() {
                super::values_survive_dense_collisions::<$table>();
            }
        }
    };
}

string_conformance!(string_folklore, StringKeyTable, 2_048);
string_conformance!(string_grow, GrowMap<String, u64>, 32);

// ---------------------------------------------------------------------
// The growing table on its own: growth, cleanup, reclamation
// ---------------------------------------------------------------------

/// A map of 16 cells with a fixed thread hint, so the counter flush
/// bound (and with it the estimate's slack) does not depend on the box.
fn tiny_map() -> GrowMap<String, u64> {
    GrowMap::with_config(16, GrowConfig::default(), 4)
}

#[test]
fn growing_table_reports_growth() {
    let table = tiny_map();
    let mut h = table.handle();
    let n = 10_000u64;
    for i in 0..n {
        assert!(h.insert(&mixed("g-", i), &i), "insert g-{i}");
    }
    assert!(
        table.migrations_completed() > 0,
        "tiny growing table never migrated"
    );
    // The last growth's target is cleared a slice per write, and the write
    // that clears the last slice migrates (DESIGN.md §13): writes that
    // change nothing finish it.
    let first = mixed("g-", 0);
    for _ in 0..1024 {
        if table.current_capacity() >= 2 * n as usize {
            break;
        }
        assert!(h.update(&first, |v| *v));
    }
    assert!(table.current_capacity() >= 2 * n as usize);
    for i in 0..n {
        assert_eq!(h.find(&mixed("g-", i)), Some(i));
    }
    assert_eq!(table.size_exact_quiescent(), n as usize);
    h.flush_counts();
    let estimate = h.size_estimate();
    assert!(
        (estimate as i64 - n as i64).abs() <= 64,
        "estimate {estimate} vs {n}"
    );
}

/// A sliding window of 500 live keys over 20 000 insertions: the erases'
/// tombstones count towards the growth trigger, so cleanup migrations
/// keep the capacity bounded, and quiescing the only handle reclaims
/// every erased key.  Every key is longer than seven bytes, so every erase
/// retires an allocation.
#[test]
fn deletion_triggers_cleanup_and_bounds_capacity() {
    let table: GrowMap<String, u64> = GrowMap::with_config(1 << 10, GrowConfig::default(), 2);
    let mut h = table.handle();
    let window = 500u64;
    for i in 0..20_000u64 {
        assert!(h.insert(&format!("w-long-{i}"), &i));
        if i >= window {
            assert!(
                h.erase(&format!("w-long-{}", i - window)),
                "erase w-long-{}",
                i - window
            );
        }
    }
    assert!(table.migrations_completed() > 0, "cleanup never ran");
    for i in 20_000 - window..20_000 {
        assert_eq!(h.find(&format!("w-long-{i}")), Some(i));
    }
    assert_eq!(h.find(&key("w-long-0")), None);
    assert_eq!(table.size_exact_quiescent(), window as usize);
    assert!(
        table.current_capacity() <= 1 << 13,
        "capacity exploded: {}",
        table.current_capacity()
    );
    h.quiesce();
    assert_eq!(table.pending_reclamation(), 0);
}

/// Readers compare key bytes while an eraser retires the allocations into
/// the QSBR domain (every key is longer than seven bytes, so every erase
/// retires one).  No probe may touch freed memory; a use-after-free
/// would corrupt the byte compare and fail the value assertions.
#[test]
fn readers_race_erasers_safely() {
    let table: GrowMap<String, u64> = GrowMap::with_config(1 << 10, GrowConfig::default(), 4);
    let n = 2_000u64;
    {
        let mut h = table.handle();
        for i in 0..n {
            h.insert(&format!("re-long-{i}"), &(i + 1));
        }
    }
    std::thread::scope(|s| {
        for _ in 0..2 {
            let table = &table;
            s.spawn(move || {
                let mut h = table.handle();
                for _ in 0..20 {
                    for i in 0..n {
                        if let Some(v) = h.find(&format!("re-long-{i}")) {
                            assert_eq!(v, i + 1, "corrupted value for re-long-{i}");
                        }
                    }
                }
            });
        }
        let table = &table;
        s.spawn(move || {
            let mut h = table.handle();
            for i in 0..n {
                assert!(h.erase(&format!("re-long-{i}")));
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
        });
    });
    assert_eq!(table.size_exact_quiescent(), 0);
}

/// Readers chase a writer that grows the map from 16 cells: a key that
/// was found once is found again, with its value, through every
/// migration that follows, short keys and long ones alike.
#[test]
fn finds_remain_consistent_during_growth() {
    let table = tiny_map();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer_table = &table;
        let stop_ref = &stop;
        s.spawn(move || {
            let mut h = writer_table.handle();
            for i in 0..15_000u64 {
                h.insert(&mixed("c-", i), &i);
            }
            stop_ref.store(true, std::sync::atomic::Ordering::Release);
        });
        for _ in 0..2 {
            let table = &table;
            let stop_ref = &stop;
            s.spawn(move || {
                let mut h = table.handle();
                let mut frontier = 0u64;
                while !stop_ref.load(std::sync::atomic::Ordering::Acquire) {
                    for i in 0..frontier {
                        assert_eq!(h.find(&mixed("c-", i)), Some(i), "lost c-{i}");
                    }
                    if h.find(&mixed("c-", frontier + 500)).is_some() {
                        frontier += 500;
                    }
                }
            });
        }
    });
    assert_eq!(table.size_exact_quiescent(), 15_000);
}
