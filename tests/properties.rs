//! Property-based tests (proptest) on the core data structures and their
//! invariants.

use std::collections::HashMap;

use growt_repro::prelude::*;
use proptest::prelude::*;

/// A small operation language for the model-based property test.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Find(u64),
    Upsert(u64, u64),
    Erase(u64),
    Overwrite(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small key universe maximizes collisions, duplicate inserts and
    // delete/re-insert interactions.
    let key = 2u64..200;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Find),
        (key.clone(), 1u64..5).prop_map(|(k, d)| Op::Upsert(k, d)),
        key.clone().prop_map(Op::Erase),
        (key, any::<u64>()).prop_map(|(k, v)| Op::Overwrite(k, v)),
    ]
}

fn run_model<M: ConcurrentMap>(ops: &[Op]) -> Result<(), TestCaseError> {
    run_model_with_capacity::<M>(ops, 16)
}

fn run_model_with_capacity<M: ConcurrentMap>(
    ops: &[Op],
    capacity: usize,
) -> Result<(), TestCaseError> {
    let table = M::with_capacity(capacity);
    let mut handle = table.handle();
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                prop_assert_eq!(handle.insert(k, v), expected);
                model.entry(k).or_insert(v);
            }
            Op::Find(k) => {
                prop_assert_eq!(handle.find(k), model.get(&k).copied());
            }
            Op::Upsert(k, d) => {
                let expected = if model.contains_key(&k) {
                    InsertOrUpdate::Updated
                } else {
                    InsertOrUpdate::Inserted
                };
                prop_assert_eq!(
                    handle.insert_or_update(k, d, |c, x| c.wrapping_add(x)),
                    expected
                );
                model
                    .entry(k)
                    .and_modify(|v| *v = v.wrapping_add(d))
                    .or_insert(d);
            }
            Op::Erase(k) => {
                prop_assert_eq!(handle.erase(k), model.remove(&k).is_some());
            }
            Op::Overwrite(k, v) => {
                let expected = model.contains_key(&k);
                prop_assert_eq!(handle.update_overwrite(k, v), expected);
                if expected {
                    model.insert(k, v);
                }
            }
        }
    }
    for (&k, &v) in &model {
        prop_assert_eq!(handle.find(k), Some(v));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// uaGrow behaves exactly like HashMap for arbitrary op sequences.
    #[test]
    fn ua_grow_matches_hashmap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_model::<UaGrow>(&ops)?;
    }

    /// usGrow (synchronized protocol, fetch-add specializations).
    #[test]
    fn us_grow_matches_hashmap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_model::<UsGrow>(&ops)?;
    }

    /// The bounded folklore table, sized for the whole key universe (it
    /// cannot grow and its tombstones are never reclaimed, §5.4).
    #[test]
    fn folklore_matches_hashmap(ops in prop::collection::vec(op_strategy(), 1..300)) {
        run_model_with_capacity::<Folklore>(&ops, 512)?;
    }

    /// The sequential reference table is itself a faithful map.
    #[test]
    fn seq_table_matches_hashmap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_model::<SeqGrowingTable>(&ops)?;
    }

    /// Zipf samples always fall inside the configured universe, for any
    /// exponent and universe size.
    #[test]
    fn zipf_samples_in_range(s in 0.0f64..2.5, n in 1u64..100_000, seed in any::<u64>()) {
        let sampler = ZipfSampler::new(n, s);
        let mut rng = Mt64::new(seed);
        for _ in 0..200 {
            let k = sampler.sample(&mut rng);
            prop_assert!(k >= 1 && k <= n);
        }
    }

    /// The scaling cell mapping is monotone in the hash value — the
    /// property Lemma 1 (cluster migration) rests on.
    #[test]
    fn scaling_is_monotone(mut hashes in prop::collection::vec(any::<u64>(), 2..200),
                           log_capacity in 4u32..24) {
        let capacity = 1usize << log_capacity;
        hashes.sort_unstable();
        let cells: Vec<usize> = hashes
            .iter()
            .map(|&h| growt_core::config::scale_to_capacity(h, capacity))
            .collect();
        for pair in cells.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        for (&h, &c) in hashes.iter().zip(&cells) {
            prop_assert!(c < capacity);
            // Growing by γ=2 maps the cell into [2c, 2c+2) — the disjoint
            // target ranges of Lemma 1.
            let grown = growt_core::config::scale_to_capacity(h, capacity * 2);
            prop_assert!(grown >= 2 * c && grown < 2 * (c + 1));
        }
    }

    /// Migrating a randomly filled bounded table (with random tombstones)
    /// into a larger one preserves exactly the live contents.
    #[test]
    fn migration_preserves_contents(
        keys in prop::collection::hash_set(2u64..1_000_000, 1..400),
        delete_every in 2usize..5,
        log_growth in 0u32..3,
    ) {
        use growt_core::{migrate, BoundedTable};
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
                prop_assert_eq!(dst.find(k), None);
            } else {
                prop_assert_eq!(dst.find(k), Some(k ^ 0xABCD));
            }
        }
    }

    /// The three fingerprint-matching kernels (scalar reference, portable
    /// SWAR, SSE2) are bit-identical on arbitrary group contents — the
    /// striped probe may dispatch to any of them.
    #[test]
    fn probe_kernels_agree(bytes in prop::collection::vec(any::<u8>(), 16..17),
                           hash in any::<u64>()) {
        use growt_core::simd::{
            fingerprint, match_group_scalar, match_group_sse2, match_group_swar, GROUP,
        };
        let group: [u8; GROUP] = bytes.as_slice().try_into().unwrap();
        // Probe both an arbitrary in-range fingerprint and bytes that can
        // also occur in the group itself (hit-heavy patterns).
        for fp in [fingerprint(hash), group[0] | 0x80, 0x80u8, 0xFFu8] {
            let reference = match_group_scalar(&group, fp);
            prop_assert_eq!(match_group_swar(&group, fp), reference);
            if let Some(sse2) = match_group_sse2(&group, fp) {
                prop_assert_eq!(sse2, reference);
            } else {
                // Only a disabled/absent SSE2 path may decline.
                prop_assert!(
                    !cfg!(target_arch = "x86_64") || std::env::var_os("GROWT_NO_SIMD").is_some()
                );
            }
        }
    }

    /// The striped-probe folklore table behaves exactly like HashMap for
    /// arbitrary op sequences (same model as the scalar table above).
    #[test]
    fn folklore_simd_matches_hashmap(ops in prop::collection::vec(op_strategy(), 1..300)) {
        run_model_with_capacity::<FolkloreSimd>(&ops, 512)?;
    }

    /// uaGrow with striped probing: the stripe must stay coherent across
    /// migrations triggered by the op sequence.
    #[test]
    fn ua_grow_simd_matches_hashmap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_model::<UaGrowSimd>(&ops)?;
    }

    /// Merging N per-thread latency histograms is exactly the histogram of
    /// the concatenated samples — the property the benchmark drivers rely
    /// on when they record per-thread and merge once after the timed
    /// region.
    #[test]
    fn histogram_merge_equals_concatenation(
        shards in prop::collection::vec(
            prop::collection::vec(0u64..2_000_000_000, 0..60),
            1..6,
        )
    ) {
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
        prop_assert_eq!(&merged, &direct);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        prop_assert_eq!(merged.count(), total as u64);
    }

    /// Percentile extraction is monotone in the percentile, bracketed by
    /// the exact min/max, and never below the true percentile of the
    /// recorded samples (log-linear buckets round *up* to the bucket edge).
    #[test]
    fn histogram_percentiles_are_monotone_and_bracketed(
        mut samples in prop::collection::vec(0u64..2_000_000_000, 1..200)
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let mut previous = 0u64;
        for pct in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let value = h.value_at_percentile(pct);
            prop_assert!(value >= previous, "p{pct} regressed");
            previous = value;
            prop_assert!(value <= h.max());
            // Never below the true percentile (ranked sample).
            let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
            let exact = samples[rank.clamp(1, samples.len()) - 1];
            prop_assert!(value >= exact, "p{pct}: {value} < exact {exact}");
        }
        prop_assert_eq!(h.value_at_percentile(100.0), *samples.last().unwrap());
        prop_assert_eq!(h.min(), samples[0]);
    }

    /// With `p` handles on a generation of `capacity` cells the approximate
    /// counter never under-estimates by more than `capacity / 16` (nor by
    /// more than `p` flush bounds), and is exact after all handles flush.
    #[test]
    fn approximate_count_error_bound(
        p in 1usize..16,
        log2_capacity in 6u32..22,
        per_handle in 1usize..200,
    ) {
        use growt_core::count::{flush_bound, GlobalCount, LocalCount};
        let capacity = 1usize << log2_capacity;
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
                prop_assert!(truth - estimate <= (capacity / 16).min(buffered) as u64,
                    "round {round}: estimate {estimate}, truth {truth}");
            }
        }
        for local in locals.iter_mut() {
            local.flush(&global);
        }
        prop_assert_eq!(global.insertions(), truth);
    }
}
