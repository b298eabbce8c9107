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
//! A copier enters its lease's placement gate (`MigrationJob::enter_placement`,
//! DESIGN.md §12) before every run of at most `PLACE_CHUNK` (64) placements,
//! and stops when the gate answers `None`: a rescuer completed the block,
//! and the target may be published, where a late store would bring back
//! a key erased since.
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

/// Placements per pass through the placement gate: a copier that slept
/// through its own rescue stores at most this many elements after its
/// lease was completed, all into the still unpublished target.
pub(crate) const PLACE_CHUNK: usize = 64;

/// Migrate the clusters starting in `[block_start, block_end)` from `src`
/// to `dst`, freezing every visited source cell with its mark bit.
/// Returns the number of live elements in those clusters (see
/// `migrate_block`), or `None` when `enter_placement` stopped the copy.
pub fn migrate_block_marking<P>(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
    enter_placement: impl FnMut() -> Option<P>,
) -> Option<usize> {
    let mode = FreezeMode::Mark;
    migrate_block(src, dst, block_start, block_end, mode, enter_placement)
}

/// Migrate the clusters starting in `[block_start, block_end)` without
/// marking (caller must guarantee the absence of concurrent writers).
/// Returns the number of live elements in those clusters (see
/// `migrate_block`), or `None` when `enter_placement` stopped the copy.
pub fn migrate_block_exclusive<P>(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
    enter_placement: impl FnMut() -> Option<P>,
) -> Option<usize> {
    let mode = FreezeMode::Plain;
    migrate_block(src, dst, block_start, block_end, mode, enter_placement)
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

/// Place one live element into `dst` by sequential linear probing, unless
/// an earlier copy of the same block already has.
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
fn place_sequential(dst: &BoundedTable, key: u64, value: u64) {
    let capacity = dst.capacity();
    // `home_cell` uses the destination table's own hash selection, so the
    // migration stays correct for CRC-hashed tables too.
    let mut pos = dst.home_cell(key);
    loop {
        let existing = dst.cell(pos).load_key();
        if unmark(existing) == key {
            // An earlier (partial) copy of this block already placed the
            // element; keep that copy.
            return;
        }
        if existing == EMPTY_KEY {
            growt_failpoints::fire("grow.place");
            if dst.cell(pos).cas_pair((EMPTY_KEY, 0), (key, value)).is_ok() {
                // Keep the destination's signature stripe coherent during
                // block placement (no-op for scalar-probed tables).
                // Readers are only admitted after the migration completes,
                // so the publish ordering is trivially satisfied here.
                dst.publish_occupied(pos, key);
                return;
            }
            // Lost the claim to a concurrent copy of the same cluster;
            // re-read the cell — it may now hold `key`.
            continue;
        }
        pos = (pos + 1) & (capacity - 1);
    }
}

/// Place `pending` into `dst` in order, entering the placement gate before
/// each run of at most [`PLACE_CHUNK`] elements, and empty it.  `false`
/// when the gate closed: someone else completed the block, and the target
/// may be published already.
fn place_gated<P>(
    dst: &BoundedTable,
    pending: &mut Vec<(u64, u64)>,
    enter_placement: &mut impl FnMut() -> Option<P>,
) -> bool {
    for run in pending.chunks(PLACE_CHUNK) {
        let Some(_pass) = enter_placement() else {
            return false;
        };
        for &(key, value) in run {
            place_sequential(dst, key, value);
        }
    }
    pending.clear();
    true
}

/// The cluster copy behind [`migrate_block_marking`] and
/// [`migrate_block_exclusive`].  Returns the live elements of the clusters
/// that start in the block, whether this call placed them or an earlier
/// copy of the block had: every complete copy reads the same frozen cells,
/// so every one answers the same, and the coordinator credits the answer
/// of the copy that completes the block, once.  Counting what a copy
/// placed instead would lose a slow owner's elements: a rescuer re-copies
/// the block, the migration finalizes, and the owner's credit comes too
/// late.  Placements go through [`place_gated`], in runs of up to
/// [`PLACE_CHUNK`] elements that may span clusters; `None` when the gate
/// stopped the copy.
fn migrate_block<P>(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
    mode: FreezeMode,
    mut enter_placement: impl FnMut() -> Option<P>,
) -> Option<usize> {
    let capacity = src.capacity();
    debug_assert!(block_end <= capacity);
    debug_assert!(dst.capacity() >= capacity, "cluster migration needs γ ≥ 1");
    if block_start >= block_end {
        return Some(0);
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
                return Some(0);
            }
        }
    }

    // Migrate clusters that start at or after `index` and before the block
    // end.  A cluster may extend past the block end (we own it entirely).
    // Each cluster is collected (freezing source cells and prefetching the
    // destination line of every live element) and placed once a run of
    // [`PLACE_CHUNK`] elements is pending, so the target misses overlap
    // with the source walk.  Placement happens in collection order,
    // producing exactly the layout a sequential migration would (Lemma 1).
    let mut pending: Vec<(u64, u64)> = Vec::new();
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
        if key != DEL_KEY {
            prefetch_write(dst.cell(dst.home_cell(key)));
            pending.push((key, value));
            migrated += 1;
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
                pending.push((k, v));
                migrated += 1;
            }
        }
        if pending.len() >= PLACE_CHUNK && !place_gated(dst, &mut pending, &mut enter_placement) {
            return None;
        }
        // `index` is now one past the empty cell that ended the cluster.  If
        // the walk overshot the block end, every cluster starting in the
        // overshot range has already been handled by us.
        if index >= block_end {
            break;
        }
    }
    place_gated(dst, &mut pending, &mut enter_placement).then_some(migrated)
}

/// Fallback migration that re-inserts every live element of the block with
/// ordinary CAS insertions.  Correct for any target capacity (including
/// shrinking, where Lemma 1 does not hold).  When `mark` is true the source
/// cells are frozen first (asynchronous protocol).  Returns the live
/// elements of the block's source cells, which, as with the cluster copy,
/// every complete copy answers the same (a key the source briefly held
/// twice counts twice); `None` when `enter_placement`, asked before each
/// chunk's insertions, stopped the copy.
pub fn migrate_block_rehash<P>(
    src: &BoundedTable,
    dst: &BoundedTable,
    block_start: usize,
    block_end: usize,
    mark: bool,
    mut enter_placement: impl FnMut() -> Option<P>,
) -> Option<usize> {
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
        migrated += live.len();
        let _pass = if live.is_empty() {
            None
        } else {
            Some(enter_placement()?)
        };
        for &(key, value) in &live {
            match dst.insert(key, value) {
                crate::table::InsertOutcome::Inserted { .. } => {}
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
    Some(migrated)
}

/// A placement gate that never closes, for a copy that no one else can
/// complete: a sequential migration, or a re-migration under the
/// finalization latch.
pub(crate) fn always_open() -> Option<()> {
    Some(())
}

/// Sequentially migrate an entire table (helper for tests and for the
/// sequential reference path): clusters are processed in one block spanning
/// the whole table.
pub fn migrate_all_sequential(src: &BoundedTable, dst: &BoundedTable) -> usize {
    migrate_block_exclusive(src, dst, 0, src.capacity(), always_open)
        .expect("an open gate never stops the copy")
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
                    let migrated = migrate_block_marking(
                        src_ref,
                        dst_ref,
                        b * block,
                        (b + 1) * block,
                        always_open,
                    )
                    .unwrap();
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
                    migrate_block_exclusive(
                        src_ref,
                        dst_ref,
                        b * block,
                        (b + 1) * block,
                        always_open,
                    );
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
                    let n = migrate_block_rehash(
                        src_ref,
                        dst_ref,
                        b * block,
                        (b + 1) * block,
                        true,
                        always_open,
                    )
                    .unwrap();
                    migrated.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(migrated.load(Ordering::Relaxed), 100);
        for &k in keys.iter().skip(300) {
            assert_eq!(dst.find(k), Some(k.wrapping_mul(10)));
        }
    }

    /// The coordinator credits a block's count from whichever copy
    /// completes the block, so a re-copy — a rescuer's, over a slow
    /// owner's placements — must count what the first copy counted.
    #[test]
    fn a_re_copy_counts_what_the_first_copy_counted() {
        let src = BoundedTable::with_cells(1 << 10, 0);
        let keys = test_keys(600, 17);
        fill(&src, &keys);
        let (dst, shrunk) = (
            BoundedTable::with_cells(1 << 11, 1),
            BoundedTable::with_cells(1 << 10, 1),
        );
        let block = 64;
        let (mut clusters, mut rehashed) = (0, 0);
        for b in 0..src.capacity() / block {
            let (start, end) = (b * block, (b + 1) * block);
            let first = migrate_block_marking(&src, &dst, start, end, always_open).unwrap();
            let again = migrate_block_marking(&src, &dst, start, end, always_open);
            assert_eq!(again, Some(first));
            let plain = migrate_block_exclusive(&src, &dst, start, end, always_open);
            assert_eq!(plain, Some(first));
            clusters += first;
            let first = migrate_block_rehash(&src, &shrunk, start, end, true, always_open);
            let again = migrate_block_rehash(&src, &shrunk, start, end, true, always_open);
            assert_eq!(again, first);
            rehashed += first.unwrap();
        }
        assert_eq!((clusters, rehashed), (keys.len(), keys.len()));
        for &k in &keys {
            assert_eq!(dst.find(k), Some(k.wrapping_mul(10)));
            assert_eq!(shrunk.find(k), Some(k.wrapping_mul(10)));
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
            total +=
                migrate_block_marking(&src, &dst, b * block, (b + 1) * block, always_open).unwrap();
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
            total += migrate_block_marking(&src, &dst, b * 16, (b + 1) * 16, always_open).unwrap();
        }
        assert_eq!(total, keys.len());
        for &k in &keys {
            assert_eq!(dst.find(k), Some(k));
        }
    }
}
