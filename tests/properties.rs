//! Property-based tests on the core data structures and their invariants,
//! 64 seeded cases each (`growt_workloads::cases`).

use std::collections::{HashMap, HashSet};

use growt_repro::prelude::*;
use growt_workloads::cases::{check, check_ops, draw};

const CASES: u32 = 64;

/// A small operation language for the model-based property test.
#[derive(Debug)]
enum Op {
    Insert(u64, u64),
    Find(u64),
    Upsert(u64, u64),
    Erase(u64),
    Overwrite(u64, u64),
}

/// A sequence whose length is drawn from `len`, each of the five kinds of
/// operation alike likely.
fn ops(rng: &mut Mt64, len: std::ops::Range<u64>) -> Vec<Op> {
    // A small key universe maximizes collisions, duplicate inserts and
    // delete/re-insert interactions.
    let len = draw(rng, len);
    (0..len)
        .map(|_| {
            let k = draw(rng, 2..200);
            match rng.next_below(5) {
                0 => Op::Insert(k, rng.next_u64()),
                1 => Op::Find(k),
                2 => Op::Upsert(k, draw(rng, 1..5)),
                3 => Op::Erase(k),
                _ => Op::Overwrite(k, rng.next_u64()),
            }
        })
        .collect()
}

fn run_model<M: ConcurrentMap>(ops: &[Op]) {
    run_model_with_capacity::<M>(ops, 16)
}

/// Replay `ops` on a fresh `M` and on a `HashMap`, compare every answer,
/// then sweep the model's contents through `find`.
fn run_model_with_capacity<M: ConcurrentMap>(ops: &[Op], capacity: usize) {
    let table = M::with_capacity(capacity);
    let mut handle = table.handle();
    let mut model: HashMap<u64, u64> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                assert_eq!(handle.insert(k, v), expected, "op {i}: {op:?}");
                model.entry(k).or_insert(v);
            }
            Op::Find(k) => {
                assert_eq!(handle.find(k), model.get(&k).copied(), "op {i}: {op:?}");
            }
            Op::Upsert(k, d) => {
                let expected = if model.contains_key(&k) {
                    InsertOrUpdate::Updated
                } else {
                    InsertOrUpdate::Inserted
                };
                assert_eq!(
                    handle.insert_or_update(k, d, |c, x| c.wrapping_add(x)),
                    expected,
                    "op {i}: {op:?}"
                );
                model
                    .entry(k)
                    .and_modify(|v| *v = v.wrapping_add(d))
                    .or_insert(d);
            }
            Op::Erase(k) => {
                assert_eq!(
                    handle.erase(k),
                    model.remove(&k).is_some(),
                    "op {i}: {op:?}"
                );
            }
            Op::Overwrite(k, v) => {
                let expected = model.contains_key(&k);
                assert_eq!(handle.update_overwrite(k, v), expected, "op {i}: {op:?}");
                if expected {
                    model.insert(k, v);
                }
            }
        }
    }
    for (&k, &v) in &model {
        assert_eq!(handle.find(k), Some(v), "the final sweep, key {k}");
    }
}

/// uaGrow behaves exactly like HashMap for arbitrary op sequences.
#[test]
fn ua_grow_matches_hashmap() {
    let name = "ua_grow_matches_hashmap";
    check_ops(name, CASES, |rng| ops(rng, 1..400), run_model::<UaGrow>);
}

/// usGrow (synchronized protocol, fetch-add specializations).
#[test]
fn us_grow_matches_hashmap() {
    let name = "us_grow_matches_hashmap";
    check_ops(name, CASES, |rng| ops(rng, 1..400), run_model::<UsGrow>);
}

/// Replay `ops` on a fresh `GrowMap` and on a `HashMap`, as
/// [`run_model_with_capacity`] does, with keys made by `key`.  With
/// `beside_idle`, a second handle is registered and left idle throughout:
/// the writes take the locked path, where alone they store plainly
/// (DESIGN.md §8).
fn run_grow_map_model<K: KeyRepr>(ops: &[Op], key: fn(u64) -> K, beside_idle: bool) {
    let map: GrowMap<K, u64> = GrowMap::new(16);
    let mut handle = map.handle();
    let idle = beside_idle.then(|| map.handle());
    let mut model: HashMap<u64, u64> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                assert_eq!(handle.insert(&key(k), &v), expected, "op {i}: {op:?}");
                model.entry(k).or_insert(v);
            }
            Op::Find(k) => {
                let found = handle.find(&key(k));
                assert_eq!(found, model.get(&k).copied(), "op {i}: {op:?}");
            }
            Op::Upsert(k, d) => {
                let expected = if model.contains_key(&k) {
                    InsertOrUpdate::Updated
                } else {
                    InsertOrUpdate::Inserted
                };
                let outcome = handle.insert_or_update(&key(k), &d, |c| c.wrapping_add(d));
                assert_eq!(outcome, expected, "op {i}: {op:?}");
                model
                    .entry(k)
                    .and_modify(|v| *v = v.wrapping_add(d))
                    .or_insert(d);
            }
            Op::Erase(k) => {
                let erased = handle.erase(&key(k));
                assert_eq!(erased, model.remove(&k).is_some(), "op {i}: {op:?}");
            }
            Op::Overwrite(k, v) => {
                let expected = model.contains_key(&k);
                assert_eq!(handle.update(&key(k), |_| v), expected, "op {i}: {op:?}");
                if expected {
                    model.insert(k, v);
                }
            }
        }
    }
    for (&k, &v) in &model {
        assert_eq!(handle.find(&key(k)), Some(v), "the final sweep, key {k}");
    }
    drop(idle);
    assert_eq!(map.size_exact_quiescent(), model.len());
}

/// `GrowMap` behaves exactly like HashMap, each case replayed twice: by a
/// lone handle, whose writes store plainly, and beside an idle second
/// handle, which puts them on the locked path.  Word keys, and `String`
/// keys both short (in the key word) and long (behind a pointer).
#[test]
fn grow_map_matches_hashmap() {
    check_ops(
        "grow_map_matches_hashmap",
        CASES,
        |rng| ops(rng, 1..400),
        |ops| {
            for beside_idle in [false, true] {
                run_grow_map_model::<u64>(ops, |k| k, beside_idle);
                run_grow_map_model::<String>(
                    ops,
                    |k| {
                        if k % 2 == 0 {
                            format!("k{k}")
                        } else {
                            format!("long-key-{k}")
                        }
                    },
                    beside_idle,
                );
            }
        },
    );
}

/// The bounded folklore table, sized for the whole key universe (it
/// cannot grow and its tombstones are never reclaimed, §5.4).
#[test]
fn folklore_matches_hashmap() {
    check_ops(
        "folklore_matches_hashmap",
        CASES,
        |rng| ops(rng, 1..300),
        |ops| run_model_with_capacity::<Folklore>(ops, 512),
    );
}

/// The sequential reference table is itself a faithful map.
#[test]
fn seq_table_matches_hashmap() {
    let name = "seq_table_matches_hashmap";
    check_ops(
        name,
        CASES,
        |rng| ops(rng, 1..400),
        run_model::<SeqGrowingTable>,
    );
}

/// Zipf samples always fall inside the configured universe, for any
/// exponent and universe size.
#[test]
fn zipf_samples_in_range() {
    check("zipf_samples_in_range", CASES, |rng| {
        let (s, n, seed) = (rng.next_f64() * 2.5, draw(rng, 1..100_000), rng.next_u64());
        let sampler = ZipfSampler::new(n, s);
        let mut rng = Mt64::new(seed);
        for _ in 0..200 {
            let k = sampler.sample(&mut rng);
            assert!(k >= 1 && k <= n, "s {s}, n {n}: sample {k}");
        }
    });
}

/// The scaling cell mapping is monotone in the hash value — the
/// property Lemma 1 (cluster migration) rests on.
#[test]
fn scaling_is_monotone() {
    check("scaling_is_monotone", CASES, |rng| {
        let mut hashes: Vec<u64> = (0..draw(rng, 2..200)).map(|_| rng.next_u64()).collect();
        let capacity = 1usize << draw(rng, 4..24);
        hashes.sort_unstable();
        let cells: Vec<usize> = hashes
            .iter()
            .map(|&h| growt_core::config::scale_to_capacity(h, capacity))
            .collect();
        for pair in cells.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        for (&h, &c) in hashes.iter().zip(&cells) {
            assert!(c < capacity);
            // Growing by γ=2 maps the cell into [2c, 2c+2) — the disjoint
            // target ranges of Lemma 1.
            let grown = growt_core::config::scale_to_capacity(h, capacity * 2);
            assert!(grown >= 2 * c && grown < 2 * (c + 1));
        }
    });
}

/// Migrating a randomly filled bounded table (with random tombstones)
/// into a larger one preserves exactly the live contents.
#[test]
fn migration_preserves_contents() {
    use growt_core::{migrate, BoundedTable};
    check("migration_preserves_contents", CASES, |rng| {
        let len = draw(rng, 1..400) as usize;
        let mut keys = HashSet::with_capacity(len);
        while keys.len() < len {
            keys.insert(draw(rng, 2..1_000_000));
        }
        let delete_every = draw(rng, 2..5) as usize;
        let log_growth = draw(rng, 0..3);
        let keys: Vec<u64> = keys.into_iter().collect();
        let src = BoundedTable::with_expected_elements(keys.len().max(4));
        for &k in &keys {
            assert!(matches!(
                src.insert(k, k ^ 0xABCD),
                growt_core::table::InsertOutcome::Inserted { .. }
            ));
        }
        let mut deleted = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            if i % delete_every == 0 {
                src.erase(k);
                deleted.push(k);
            }
        }
        let dst = BoundedTable::with_cells(src.capacity() << log_growth, 1);
        migrate::migrate_all_sequential(&src, &dst);
        for &k in &keys {
            if deleted.contains(&k) {
                assert_eq!(dst.find(k), None);
            } else {
                assert_eq!(dst.find(k), Some(k ^ 0xABCD));
            }
        }
    });
}

/// The three fingerprint-matching kernels (scalar reference, portable
/// SWAR, SSE2) are bit-identical on arbitrary group contents — the
/// striped probe may dispatch to any of them.
#[test]
fn probe_kernels_agree() {
    use growt_core::simd::{
        fingerprint, match_group_scalar, match_group_sse2, match_group_swar, GROUP,
    };
    check("probe_kernels_agree", CASES, |rng| {
        let group: [u8; GROUP] = std::array::from_fn(|_| rng.next_u64() as u8);
        let hash = rng.next_u64();
        // Probe both an arbitrary in-range fingerprint and bytes that can
        // also occur in the group itself (hit-heavy patterns).
        for fp in [fingerprint(hash), group[0] | 0x80, 0x80u8, 0xFFu8] {
            let reference = match_group_scalar(&group, fp);
            assert_eq!(match_group_swar(&group, fp), reference);
            if let Some(sse2) = match_group_sse2(&group, fp) {
                assert_eq!(sse2, reference);
            } else {
                // Only a disabled/absent SSE2 path may decline.
                assert!(
                    !cfg!(target_arch = "x86_64") || std::env::var_os("GROWT_NO_SIMD").is_some()
                );
            }
        }
    });
}

/// The striped-probe folklore table behaves exactly like HashMap for
/// arbitrary op sequences (same model as the scalar table above).
#[test]
fn folklore_simd_matches_hashmap() {
    check_ops(
        "folklore_simd_matches_hashmap",
        CASES,
        |rng| ops(rng, 1..300),
        |ops| run_model_with_capacity::<FolkloreSimd>(ops, 512),
    );
}

/// Up to `len` latency samples in `0..2·10⁹` ns.
fn samples(rng: &mut Mt64, len: std::ops::Range<u64>) -> Vec<u64> {
    (0..draw(rng, len))
        .map(|_| draw(rng, 0..2_000_000_000))
        .collect()
}

/// Merging N per-thread latency histograms is exactly the histogram of
/// the concatenated samples — the property the benchmark drivers rely
/// on when they record per-thread and merge once after the timed
/// region.
#[test]
fn histogram_merge_equals_concatenation() {
    check("histogram_merge_equals_concatenation", CASES, |rng| {
        let shards: Vec<Vec<u64>> = (0..draw(rng, 1..6)).map(|_| samples(rng, 0..60)).collect();
        let mut merged = LatencyHistogram::new();
        for shard in &shards {
            let mut h = LatencyHistogram::new();
            for &v in shard {
                h.record(v);
            }
            merged.merge(&h);
        }
        let mut direct = LatencyHistogram::new();
        for shard in &shards {
            for &v in shard {
                direct.record(v);
            }
        }
        assert_eq!(&merged, &direct);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert_eq!(merged.count(), total as u64);
    });
}

/// Percentile extraction is monotone in the percentile, bracketed by
/// the exact min/max, and never below the true percentile of the
/// recorded samples (log-linear buckets round *up* to the bucket edge).
#[test]
fn histogram_percentiles_are_monotone_and_bracketed() {
    check(
        "histogram_percentiles_are_monotone_and_bracketed",
        CASES,
        |rng| {
            let mut samples = samples(rng, 1..200);
            let mut h = LatencyHistogram::new();
            for &v in &samples {
                h.record(v);
            }
            samples.sort_unstable();
            let mut previous = 0u64;
            for pct in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                let value = h.value_at_percentile(pct);
                assert!(value >= previous, "p{pct} regressed");
                previous = value;
                assert!(value <= h.max());
                // Never below the true percentile (ranked sample).
                let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
                let exact = samples[rank.clamp(1, samples.len()) - 1];
                assert!(value >= exact, "p{pct}: {value} < exact {exact}");
            }
            assert_eq!(h.value_at_percentile(100.0), *samples.last().unwrap());
            assert_eq!(h.min(), samples[0]);
        },
    );
}

/// With `p` handles on a generation of `capacity` cells the approximate
/// counter never under-estimates by more than `capacity / 16` (nor by
/// more than `p` flush bounds), and is exact after all handles flush.
#[test]
fn approximate_count_error_bound() {
    use growt_core::count::{flush_bound, GlobalCount, LocalCount};
    check("approximate_count_error_bound", CASES, |rng| {
        let p = draw(rng, 1..16) as usize;
        let capacity = 1usize << draw(rng, 6..22);
        let per_handle = draw(rng, 1..200);
        let buffered = p * flush_bound(p, capacity) as usize;
        let global = GlobalCount::new();
        let mut locals: Vec<LocalCount> = (0..p)
            .map(|i| LocalCount::for_generation(p, capacity, i as u64 + 1))
            .collect();
        let mut truth = 0u64;
        for round in 0..per_handle {
            for local in locals.iter_mut() {
                local.record_insertion(&global);
                truth += 1;
                let estimate = global.insertions();
                assert!(
                    truth - estimate <= (capacity / 16).min(buffered) as u64,
                    "round {round}: estimate {estimate}, truth {truth}"
                );
            }
        }
        for local in locals.iter_mut() {
            local.flush(&global);
        }
        assert_eq!(global.insertions(), truth);
    });
}
