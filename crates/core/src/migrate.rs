//! Parallel table migration (paper §5.3.1).
//!
//! Growing (and cleaning) the table means moving every live element of the
//! old `BoundedTable` into a freshly allocated one.  The paper's key
//! observation (Lemma 1) is that with the *scaling* cell mapping
//! `h_c(x) = ⌊h(x)·c/U⌋` and a growth factor γ ≥ 1, every maximal run of
//! non-empty cells (a **cluster**) maps into a target range that no other
//! cluster can touch.  Clusters can therefore be migrated completely
//! independently and without coordination between migrating threads.
//!
//! Deviation from the paper for crash tolerance: placements into the
//! target use a double-word CAS from the empty pair plus a same-key skip
//! (see [`place_sequential`]) instead of plain stores.  This makes block
//! copies *idempotent*, which is what lets the growing table re-copy a
//! block whose owner crashed or stalled mid-migration (DESIGN.md §12).
//! The CAS is uncontended in the fault-free case — Lemma 1 still
//! guarantees a single owner per target range unless a block is being
//! re-copied — but it is a locked instruction per live element all the
//! same: placing with plain stores measured 24 % quicker per source cell
//! on cache-resident tables (EXPERIMENTS.md "The grow pause, decomposed"),
//! which is the price of surviving a stalled block owner (DESIGN.md §12).
//!
//! Work is dealt out in blocks of at most
//! [`crate::config::MIGRATION_BLOCK`] cells (`crate::coord` scales them
//! with the capacity, DESIGN.md §6);
//! a thread that grabs block `d..e` migrates exactly those clusters that
//! *start* inside `d..e` (which may reach beyond `e`), and skips the prefix
//! of its block that belongs to a cluster started in an earlier block —
//! "implicitly moving the block borders to free cells" (Fig. 1b).
//!
//! Three per-block routines are provided:
//!
//! * [`migrate_block_marking`] — used by the **asynchronous** growing
//!   variants: every source cell is first frozen by setting its mark bit,
//!   so concurrent writers cannot modify an already-copied cell;
//! * [`migrate_block_exclusive`] — used by the **synchronized** variants,
//!   where the protocol guarantees that no writer is active during the
//!   migration, so marking can be skipped;
//! * [`migrate_block_rehash`] — a fallback that re-inserts elements with
//!   CAS; correct for any capacity ratio (used for shrinking, where Lemma 1
//!   does not apply, and as the baseline of the migration ablation).

use crate::cell::{unmark, DEL_KEY, EMPTY_KEY};
use crate::config::BATCH_PIPELINE;
use crate::prefetch::{prefetch_write, CELLS_PER_LINE};
use crate::table::BoundedTable;

/// How source cells are read/frozen during migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FreezeMode {
    /// Set the mark bit before reading (asynchronous protocol).
    Mark,
    /// Plain read (synchronized protocol: no concurrent writers).
    Plain,
}

/// Migrate the clusters starting in `[block_start, block_end)` from `src`
/// to `dst`, freezing every visited source cell with its mark bit.
/// Returns the number of live elements copied.
pub fn migrate_block_marking(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
) -> usize {
    migrate_block(src, dst, block_start, block_end, FreezeMode::Mark)
}

/// Migrate the clusters starting in `[block_start, block_end)` without
/// marking (caller must guarantee the absence of concurrent writers).
/// Returns the number of live elements copied.
pub fn migrate_block_exclusive(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
) -> usize {
    migrate_block(src, dst, block_start, block_end, FreezeMode::Plain)
}

/// Freeze (or just read) cell `index` of `src` and return its contents with
/// the mark bit stripped.
#[inline]
fn freeze(src: &BoundedTable, index: usize, mode: FreezeMode) -> (u64, u64) {
    match mode {
        FreezeMode::Mark => src.cell(index).mark_for_migration(),
        FreezeMode::Plain => {
            let (k, v) = src.cell(index).read();
            (unmark(k), v)
        }
    }
}

/// Place one live element into `dst` by sequential linear probing.  Returns
/// `true` if this call actually placed the element, `false` if an earlier
/// copy of the same block already had.
///
/// Placement is **idempotent**: a block whose owner crashed (or stalled)
/// mid-copy can be re-copied by a rescuing thread without creating
/// duplicates.  Two mechanisms make the re-copy safe:
///
/// * the probe skips a cell that already holds `key` (a previous copy of
///   this block placed it), and
/// * empty cells are claimed with a double-word CAS, so two concurrent
///   copies of the same cluster race cleanly — the loser re-reads the cell
///   and finds the key published.
///
/// Because every copy of a block freezes the same source cells and walks
/// the same clusters in the same order, all copies attempt the identical
/// placement sequence; the CAS therefore only ever loses to *itself*
/// (prefix determinism, DESIGN.md §12), and the final layout equals the
/// sequential migration layout regardless of how many times the block was
/// copied.
#[inline]
fn place_sequential(dst: &BoundedTable, key: u64, value: u64) -> bool {
    let capacity = dst.capacity();
    // `home_cell` uses the destination table's own hash selection, so the
    // migration stays correct for CRC-hashed tables too.
    let mut pos = dst.home_cell(key);
    loop {
        let existing = dst.cell(pos).load_key();
        if unmark(existing) == key {
            // An earlier (partial) copy of this block already placed the
            // element; keep that copy.
            return false;
        }
        if existing == EMPTY_KEY {
            growt_failpoints::fire("grow.place");
            if dst.cell(pos).cas_pair((EMPTY_KEY, 0), (key, value)).is_ok() {
                // Keep the destination's signature stripe coherent during
                // block placement (no-op for scalar-probed tables).
                // Readers are only admitted after the migration completes,
                // so the publish ordering is trivially satisfied here.
                dst.publish_occupied(pos, key);
                return true;
            }
            // Lost the claim to a concurrent copy of the same cluster;
            // re-read the cell — it may now hold `key`.
            continue;
        }
        pos = (pos + 1) & (capacity - 1);
    }
}

fn migrate_block(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
    mode: FreezeMode,
) -> usize {
    let capacity = src.capacity();
    debug_assert!(block_end <= capacity);
    debug_assert!(dst.capacity() >= capacity, "cluster migration needs γ ≥ 1");
    if block_start >= block_end {
        return 0;
    }

    let mask = capacity - 1;
    let mut migrated = 0usize;
    let mut index = block_start;

    // Prefetch-ahead policy: freezing walks the source linearly, so every
    // time the walk crosses into a new cache line the next source line is
    // prefetched (the freeze CAS then finds it in L1); target lines are
    // prefetched as soon as an element's destination is known — i.e. while
    // the rest of its cluster is still being frozen — by collecting each
    // cluster before placing it (hash → prefetch → probe, DESIGN.md).
    prefetch_write(src.cell(block_start));

    // Freeze the cell immediately before the block: its (frozen) emptiness
    // decides whether the first run of non-empty cells in this block is a
    // cluster start (we migrate it) or the tail of a cluster owned by an
    // earlier block (we only freeze and skip it).
    let prev = (block_start + capacity - 1) & mask;
    let (prev_key, _) = freeze(src, prev, mode);
    if prev_key != EMPTY_KEY {
        // Skip (but freeze) the foreign cluster tail.
        while index < block_end {
            if index.is_multiple_of(CELLS_PER_LINE) {
                prefetch_write(src.cell((index + CELLS_PER_LINE) & mask));
            }
            let (key, _) = freeze(src, index, mode);
            index += 1;
            if key == EMPTY_KEY {
                break;
            }
        }
        if index == block_end {
            // Check whether the foreign cluster covers the whole block; if
            // the last frozen cell was non-empty there is nothing left for
            // this block's owner to do.
            let (last_key, _) = src.cell(block_end - 1).read();
            if unmark(last_key) != EMPTY_KEY {
                return 0;
            }
        }
    }

    // Migrate clusters that start at or after `index` and before the block
    // end.  A cluster may extend past the block end (we own it entirely).
    // Each cluster is collected (freezing source cells and prefetching the
    // destination line of every live element) and only then placed, so the
    // target misses overlap with the source walk.  Placement happens in
    // collection order, producing exactly the layout a sequential
    // migration would (Lemma 1).
    let mut cluster: Vec<(u64, u64)> = Vec::new();
    while index < block_end {
        if index.is_multiple_of(CELLS_PER_LINE) {
            prefetch_write(src.cell((index + CELLS_PER_LINE) & mask));
        }
        let (key, value) = freeze(src, index, mode);
        index += 1;
        if key == EMPTY_KEY {
            continue;
        }
        // `index - 1` is the first cell of a cluster.
        cluster.clear();
        if key != DEL_KEY {
            prefetch_write(dst.cell(dst.home_cell(key)));
            cluster.push((key, value));
        }
        // Walk the rest of the cluster (possibly past the block end).
        let mut walked = 0usize;
        loop {
            if walked >= capacity {
                // Degenerate case: the table has no empty cell at all.  The
                // growth trigger fires long before this can happen; guard
                // against an endless walk anyway.
                break;
            }
            let wrapped = index & mask;
            if wrapped.is_multiple_of(CELLS_PER_LINE) {
                prefetch_write(src.cell((wrapped + CELLS_PER_LINE) & mask));
            }
            let (k, v) = freeze(src, wrapped, mode);
            index += 1;
            walked += 1;
            if k == EMPTY_KEY {
                break;
            }
            if k != DEL_KEY {
                prefetch_write(dst.cell(dst.home_cell(k)));
                cluster.push((k, v));
            }
        }
        for &(k, v) in &cluster {
            // Count only elements this call actually placed, so re-copies of
            // a crashed owner's block never double-count towards the size
            // estimate the post-migration counter reset is seeded with.
            if place_sequential(dst, k, v) {
                migrated += 1;
            }
        }
        // `index` is now one past the empty cell that ended the cluster.  If
        // the walk overshot the block end, every cluster starting in the
        // overshot range has already been handled by us.
        if index >= block_end {
            break;
        }
    }
    migrated
}

/// Fallback migration that re-inserts every live element of the block with
/// ordinary CAS insertions.  Correct for any target capacity (including
/// shrinking, where Lemma 1 does not hold).  When `mark` is true the source
/// cells are frozen first (asynchronous protocol).
pub fn migrate_block_rehash(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
    mark: bool,
) -> usize {
    let mode = if mark {
        FreezeMode::Mark
    } else {
        FreezeMode::Plain
    };
    let mut migrated = 0usize;
    // Pipelined in chunks: prefetch the chunk's source lines, freeze and
    // collect the live elements (prefetching each element's target line),
    // then run the CAS insertions — the same hash → prefetch → probe
    // shape as the batched table operations.
    let mut live: Vec<(u64, u64)> = Vec::with_capacity(BATCH_PIPELINE);
    let mut chunk_start = block_start;
    while chunk_start < block_end {
        let chunk_end = (chunk_start + BATCH_PIPELINE).min(block_end);
        for index in (chunk_start..chunk_end).step_by(CELLS_PER_LINE) {
            prefetch_write(src.cell(index));
        }
        live.clear();
        for index in chunk_start..chunk_end {
            let (key, value) = freeze(src, index, mode);
            if key != EMPTY_KEY && key != DEL_KEY {
                prefetch_write(dst.cell(dst.home_cell(key)));
                live.push((key, value));
            }
        }
        for &(key, value) in &live {
            match dst.insert(key, value) {
                crate::table::InsertOutcome::Inserted { .. } => migrated += 1,
                // The key can already be present if the source table briefly
                // contained the key twice (insert racing a deletion), or if
                // this block is being re-copied after its first owner
                // crashed; keep the first copy either way (re-copies are
                // idempotent, DESIGN.md §12).
                crate::table::InsertOutcome::AlreadyPresent => {}
                // Invariant, not a recoverable error: the coordinator sizes
                // the target for the live count before dealing out blocks
                // (`capacity_for`), so the rehash cannot run out of cells,
                // and migration targets are never themselves migrated while
                // blocks are outstanding, so `Migrating` is unreachable.  A
                // failure here means the capacity policy or the generation
                // state machine is broken — abort loudly rather than lose
                // elements.
                outcome => panic!("rehash migration failed: {outcome:?}"),
            }
        }
        chunk_start = chunk_end;
    }
    migrated
}

/// Sequentially migrate an entire table (helper for tests and for the
/// sequential reference path): clusters are processed in one block spanning
/// the whole table.
pub fn migrate_all_sequential(src: &BoundedTable, dst: &BoundedTable) -> usize {
    migrate_block_exclusive(src, dst, 0, src.capacity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::InsertOutcome;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn fill(table: &BoundedTable, keys: &[u64]) {
        for &k in keys {
            assert!(matches!(
                table.insert(k, k.wrapping_mul(10)),
                InsertOutcome::Inserted { .. }
            ));
        }
    }

    fn reference_contents(table: &BoundedTable) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        table.for_each(|k, v| {
            m.insert(k, v);
        });
        m
    }

    fn test_keys(n: usize, seed: u64) -> Vec<u64> {
        // Simple deterministic distinct keys spread over the key space,
        // avoiding the sentinel encodings and the reserved mark bit.
        (0..n as u64)
            .map(|i| {
                (crate::config::hash_key(i * 2654435761 + seed) | 0x100)
                    & crate::cell::MAX_MARKABLE_KEY
            })
            .collect()
    }

    #[test]
    fn sequential_migration_preserves_contents() {
        let src = BoundedTable::with_cells(1 << 12, 0);
        let keys = test_keys(1500, 1);
        fill(&src, &keys);
        let dst = BoundedTable::with_cells(1 << 13, 1);
        let migrated = migrate_all_sequential(&src, &dst);
        assert_eq!(migrated, keys.len());
        let before = reference_contents(&src);
        let after = reference_contents(&dst);
        assert_eq!(before, after);
        for &k in &keys {
            assert_eq!(dst.find(k), Some(k.wrapping_mul(10)));
        }
    }

    #[test]
    fn crc_hashed_cluster_migration_preserves_contents() {
        use crate::config::HashSelect;
        let src = BoundedTable::with_cells_hashed(1 << 11, 0, HashSelect::Crc);
        let keys = test_keys(800, 21);
        fill(&src, &keys);
        let dst = BoundedTable::with_cells_hashed(1 << 12, 1, HashSelect::Crc);
        let migrated = migrate_all_sequential(&src, &dst);
        assert_eq!(migrated, keys.len());
        for &k in &keys {
            assert_eq!(dst.find(k), Some(k.wrapping_mul(10)), "key {k} lost");
        }
    }

    #[test]
    fn migration_preserves_probe_invariant() {
        // After migration every element must still be findable, i.e. there
        // is no empty cell between an element's home cell and its location.
        let src = BoundedTable::with_cells(1 << 10, 0);
        let keys = test_keys(600, 7);
        fill(&src, &keys);
        let dst = BoundedTable::with_cells(1 << 11, 1);
        migrate_all_sequential(&src, &dst);
        for &k in &keys {
            assert_eq!(
                dst.find(k),
                Some(k.wrapping_mul(10)),
                "key {k} lost by migration"
            );
        }
    }

    #[test]
    fn block_migration_matches_sequential_result_count() {
        let src = BoundedTable::with_cells(1 << 12, 0);
        let keys = test_keys(2000, 3);
        fill(&src, &keys);

        // Parallel block migration with marking.
        let dst = BoundedTable::with_cells(1 << 13, 1);
        let block = 256;
        let nblocks = src.capacity() / block;
        let counter = AtomicUsize::new(0);
        let total = AtomicUsize::new(0);
        let src_ref = &src;
        let dst_ref = &dst;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    let b = counter.fetch_add(1, Ordering::Relaxed);
                    if b >= nblocks {
                        break;
                    }
                    let migrated =
                        migrate_block_marking(src_ref, dst_ref, b * block, (b + 1) * block);
                    total.fetch_add(migrated, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), keys.len());
        for &k in &keys {
            assert_eq!(dst.find(k), Some(k.wrapping_mul(10)));
        }
        // Every source cell (incl. empty ones) must have been frozen so no
        // late insertion can sneak into the retired table.
        let (_, _, marked) = src.scan_counts();
        assert_eq!(marked, src.capacity());
    }

    #[test]
    fn parallel_block_migration_equals_sequential_layout() {
        // Lemma 1: the parallel cluster migration produces exactly the
        // placement a sequential migration would produce.
        let src = BoundedTable::with_cells(1 << 11, 0);
        let keys = test_keys(1200, 11);
        fill(&src, &keys);

        let dst_seq = BoundedTable::with_cells(1 << 12, 1);
        migrate_all_sequential(&src, &dst_seq);

        let dst_par = BoundedTable::with_cells(1 << 12, 1);
        let block = 128;
        let nblocks = src.capacity() / block;
        let counter = AtomicUsize::new(0);
        let src_ref = &src;
        let dst_ref = &dst_par;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| loop {
                    let b = counter.fetch_add(1, Ordering::Relaxed);
                    if b >= nblocks {
                        break;
                    }
                    migrate_block_exclusive(src_ref, dst_ref, b * block, (b + 1) * block);
                });
            }
        });

        // Cell-by-cell identical placement.
        for i in 0..dst_seq.capacity() {
            assert_eq!(
                dst_seq.cell(i).read(),
                dst_par.cell(i).read(),
                "cell {i} differs from sequential migration"
            );
        }
    }

    #[test]
    fn tombstones_are_dropped_by_migration() {
        let src = BoundedTable::with_cells(1 << 10, 0);
        let keys = test_keys(300, 5);
        fill(&src, &keys);
        for &k in keys.iter().take(100) {
            src.erase(k);
        }
        let dst = BoundedTable::with_cells(1 << 10, 1); // γ = 1 cleanup
        let migrated = migrate_all_sequential(&src, &dst);
        assert_eq!(migrated, 200);
        let (live, tomb, _) = dst.scan_counts();
        assert_eq!((live, tomb), (200, 0));
        for &k in keys.iter().skip(100) {
            assert_eq!(dst.find(k), Some(k.wrapping_mul(10)));
        }
        for &k in keys.iter().take(100) {
            assert_eq!(dst.find(k), None);
        }
    }

    #[test]
    fn rehash_migration_supports_shrinking() {
        let src = BoundedTable::with_cells(1 << 12, 0);
        let keys = test_keys(400, 9);
        fill(&src, &keys);
        for &k in keys.iter().take(300) {
            src.erase(k);
        }
        // Only 100 live elements: shrink to a quarter of the capacity.
        let dst = BoundedTable::with_cells(1 << 10, 1);
        let migrated = Arc::new(AtomicUsize::new(0));
        let block = 512;
        let nblocks = src.capacity() / block;
        let counter = AtomicUsize::new(0);
        let counter_ref = &counter;
        let src_ref = &src;
        let dst_ref = &dst;
        let migrated_ref = Arc::clone(&migrated);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let migrated = Arc::clone(&migrated_ref);
                s.spawn(move || loop {
                    let b = counter_ref.fetch_add(1, Ordering::Relaxed);
                    if b >= nblocks {
                        break;
                    }
                    let n =
                        migrate_block_rehash(src_ref, dst_ref, b * block, (b + 1) * block, true);
                    migrated.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(migrated.load(Ordering::Relaxed), 100);
        for &k in keys.iter().skip(300) {
            assert_eq!(dst.find(k), Some(k.wrapping_mul(10)));
        }
    }

    #[test]
    fn cluster_spanning_block_boundary_migrated_once() {
        // Construct a cluster that crosses a block boundary and check that
        // block-wise migration neither loses nor duplicates it.
        let src = BoundedTable::with_cells(1 << 10, 0);
        let keys = test_keys(700, 13);
        fill(&src, &keys);
        let dst = BoundedTable::with_cells(1 << 11, 1);
        let block = 64; // small blocks → many boundary-crossing clusters
        let mut total = 0;
        for b in 0..(src.capacity() / block) {
            total += migrate_block_marking(&src, &dst, b * block, (b + 1) * block);
        }
        assert_eq!(total, keys.len());
        let (live, _, _) = dst.scan_counts();
        assert_eq!(live, keys.len(), "duplicates or losses in target table");
    }

    #[test]
    fn wrap_around_cluster_handled() {
        // Force elements into the last cells so a cluster wraps from the end
        // of the table to the beginning.
        let src = BoundedTable::with_cells(64, 0);
        let mut keys = Vec::new();
        let mut k = 2u64;
        while keys.len() < 6 {
            if src.home_cell(k) >= 61 && matches!(src.insert(k, k), InsertOutcome::Inserted { .. })
            {
                keys.push(k);
            }
            k += 1;
        }
        let dst = BoundedTable::with_cells(128, 1);
        let mut total = 0;
        for b in 0..(src.capacity() / 16) {
            total += migrate_block_marking(&src, &dst, b * 16, (b + 1) * 16);
        }
        assert_eq!(total, keys.len());
        for &k in &keys {
            assert_eq!(dst.find(k), Some(k));
        }
    }
}
