//! Integration test: every table implementation in the workspace produces
//! the same results as a sequential reference model when driven with the
//! same (deterministic) operation sequence.

use std::collections::HashMap;

use growt_repro::prelude::*;
use growt_workloads::{uniform_distinct_keys, zipf_keys};

/// Replay a deterministic single-threaded mixed workload against a table
/// and against `HashMap`, comparing every result.
/// `capacity`: non-growing tables must be sized for the total number of
/// insertions because their tombstones are never reclaimed (paper §5.4).
fn model_check_with_capacity<M: ConcurrentMap>(ops: usize, capacity: usize) {
    let table = M::with_capacity(capacity);
    let mut handle = table.handle();
    let mut model: HashMap<u64, u64> = HashMap::new();

    let keys = zipf_keys(ops, 4096, 0.9, 12345);
    for (i, &key) in keys.iter().enumerate() {
        match i % 5 {
            0 | 1 => {
                let expected = !model.contains_key(&key);
                let got = handle.insert(key, key + i as u64);
                assert_eq!(
                    got,
                    expected,
                    "{}: insert({key}) at op {i}",
                    M::table_name()
                );
                model.entry(key).or_insert(key + i as u64);
            }
            2 => {
                let got = handle.find(key);
                assert_eq!(
                    got.is_some(),
                    model.contains_key(&key),
                    "{}: find({key}) presence at op {i}",
                    M::table_name()
                );
                if let (Some(got), Some(want)) = (got, model.get(&key)) {
                    assert_eq!(
                        got,
                        *want,
                        "{}: find({key}) value at op {i}",
                        M::table_name()
                    );
                }
            }
            3 => {
                let got = handle.insert_or_update(key, 1, |cur, d| cur.wrapping_add(d));
                let expected = if model.contains_key(&key) {
                    InsertOrUpdate::Updated
                } else {
                    InsertOrUpdate::Inserted
                };
                assert_eq!(
                    got,
                    expected,
                    "{}: upsert({key}) at op {i}",
                    M::table_name()
                );
                model
                    .entry(key)
                    .and_modify(|v| *v = v.wrapping_add(1))
                    .or_insert(1);
            }
            _ => {
                let got = handle.erase(key);
                let expected = model.remove(&key).is_some();
                assert_eq!(got, expected, "{}: erase({key}) at op {i}", M::table_name());
            }
        }
        handle.quiesce();
    }
    // Final contents agree.
    for (&key, &value) in &model {
        assert_eq!(
            handle.find(key),
            Some(value),
            "{}: final value of {key}",
            M::table_name()
        );
    }
}

/// Model check for tables that only support overwriting updates and may not
/// support general deletion semantics under this interface: inserts, finds,
/// overwrites only.
fn model_check_overwrite_only<M: ConcurrentMap>(ops: usize) {
    let table = M::with_capacity(ops);
    let mut handle = table.handle();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let keys = zipf_keys(ops, 4096, 0.9, 777);
    for (i, &key) in keys.iter().enumerate() {
        match i % 3 {
            0 => {
                let got = handle.insert(key, key);
                assert_eq!(
                    got,
                    !model.contains_key(&key),
                    "{}: insert {key}",
                    M::table_name()
                );
                model.entry(key).or_insert(key);
            }
            1 => {
                if model.contains_key(&key) {
                    assert!(handle.update_overwrite(key, i as u64));
                    model.insert(key, i as u64);
                }
            }
            _ => {
                let got = handle.find(key);
                assert_eq!(got.is_some(), model.contains_key(&key));
                if let Some(v) = got {
                    assert_eq!(v, model[&key]);
                }
            }
        }
        handle.quiesce();
    }
}

fn model_check<M: ConcurrentMap>(ops: usize) {
    model_check_with_capacity::<M>(ops, 1024);
}

#[test]
fn growt_variants_match_model() {
    model_check::<UaGrow>(20_000);
    model_check::<UsGrow>(20_000);
    model_check::<PaGrow>(20_000);
    model_check::<PsGrow>(20_000);
}

#[test]
fn folklore_matches_model() {
    // Non-growing tables are sized for the total number of insertions, as
    // the paper prescribes for tombstone-only deletion (§5.4).
    model_check_with_capacity::<Folklore>(20_000, 20_000);
}

#[test]
fn sequential_tables_match_model() {
    model_check_with_capacity::<SeqTable>(20_000, 20_000);
    model_check::<SeqGrowingTable>(20_000);
}

#[test]
fn chaining_baselines_match_model() {
    model_check::<LeaHash>(20_000);
    model_check::<TbbHashMap>(20_000);
    model_check::<TbbUnorderedMap>(20_000);
    model_check::<RcuTable>(20_000);
    model_check::<RcuQsbrTable>(20_000);
}

#[test]
fn open_addressing_baselines_match_model() {
    model_check::<Cuckoo>(20_000);
    model_check::<FollyStyle>(10_000);
    model_check_overwrite_only::<JunctionLinear>(20_000);
    model_check_overwrite_only::<JunctionLeapfrog>(20_000);
    model_check_overwrite_only::<Hopscotch>(20_000);
    model_check_overwrite_only::<PhaseConcurrent>(20_000);
}

#[test]
fn parallel_insert_find_agree_across_tables() {
    fn run<M: ConcurrentMap>() -> u64 {
        let keys = uniform_distinct_keys(30_000, 99);
        let table = M::with_capacity(keys.len());
        let m = insert_driver(&table, &keys, 4);
        assert_eq!(
            m.aux as usize,
            keys.len(),
            "{}: lost inserts",
            M::table_name()
        );
        let m = find_driver(&table, &keys, 4);
        assert_eq!(
            m.aux as usize,
            keys.len(),
            "{}: lost finds",
            M::table_name()
        );
        m.aux
    }
    let expected = 30_000u64;
    assert_eq!(run::<UaGrow>(), expected);
    assert_eq!(run::<UsGrow>(), expected);
    assert_eq!(run::<PaGrow>(), expected);
    assert_eq!(run::<PsGrow>(), expected);
    assert_eq!(run::<Folklore>(), expected);
    assert_eq!(run::<LeaHash>(), expected);
    assert_eq!(run::<Hopscotch>(), expected);
    assert_eq!(run::<Cuckoo>(), expected);
    assert_eq!(run::<FollyStyle>(), expected);
    assert_eq!(run::<TbbHashMap>(), expected);
    assert_eq!(run::<TbbUnorderedMap>(), expected);
    assert_eq!(run::<RcuTable>(), expected);
    assert_eq!(run::<RcuQsbrTable>(), expected);
    assert_eq!(run::<JunctionLinear>(), expected);
    assert_eq!(run::<JunctionLeapfrog>(), expected);
    assert_eq!(run::<PhaseConcurrent>(), expected);
}

#[test]
fn parallel_aggregation_agrees_on_supporting_tables() {
    fn run<M: ConcurrentMap>() {
        let keys = zipf_keys(60_000, 2_000, 1.0, 5);
        let table = M::with_capacity(4_096);
        // The sequential reference tables use no synchronization and are
        // only ever driven single-threaded (paper §8.1.4), exactly as the
        // bench harness clamps them.
        let threads = if M::table_name().starts_with("sequential") {
            1
        } else {
            4
        };
        aggregate_driver(&table, &keys, threads);
        let mut handle = table.handle();
        let total: u64 = (1..=2_000u64)
            .map(|k| handle.find(k + 16).unwrap_or(0))
            .sum();
        assert_eq!(total, 60_000, "{}: lost increments", M::table_name());
    }
    run::<UaGrow>();
    run::<UsGrow>();
    run::<PaGrow>();
    run::<PsGrow>();
    run::<Folklore>();
    run::<LeaHash>();
    run::<TbbHashMap>();
    run::<RcuTable>();
    run::<Cuckoo>();
    run::<FollyStyle>();
    run::<SeqGrowingTable>();
}
