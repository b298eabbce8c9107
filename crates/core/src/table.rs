//! The bounded, lock-free linear-probing table (the *folklore* solution,
//! paper §4).
//!
//! [`BoundedTable`] is a fixed-capacity circular array of 128-bit
//! [`Cell`]s.  All modifications go through double-word CAS (or the
//! specialised single-word fast paths where the growing protocol allows
//! them); `find` performs no writes at all.  This type is used directly as
//! the non-growing `folklore` table of the evaluation and as the building
//! block of every growing variant (§5): the growing table owns a current
//! `BoundedTable` and migrates it into a larger one when it fills up.

use crate::cell::{is_marked, unmark, Cell, DEL_KEY, EMPTY_KEY, MARK_BIT};
use crate::config::{
    capacity_for, scale_to_capacity, HashSelect, ProbeSelect, BATCH_PIPELINE, PROBE_LIMIT,
};
use crate::mem::HugeBox;
use crate::prefetch::{prefetch_read, prefetch_write, CELLS_PER_LINE};
use crate::simd::{fingerprint, MetaStripe, GROUP, TOMB_BYTE};

/// Outcome of an insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new element was inserted after probing `probe` cells.
    Inserted {
        /// Number of cells inspected before the insertion succeeded.
        probe: usize,
    },
    /// An element with this key already exists (possibly as a frozen,
    /// marked cell).
    AlreadyPresent,
    /// The probe limit was reached — the table is (locally) full.
    Full,
    /// A marked cell was encountered: a migration is in progress and the
    /// operation must be retried on the new table.
    Migrating,
}

/// Per-cell outcome of one insert step (internal; the probe loop converts
/// it into an [`InsertOutcome`] with the probe count filled in).
enum InsertStep {
    Inserted,
    AlreadyPresent,
    Migrating,
}

/// Outcome of an update attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The stored value was updated.
    Updated,
    /// No element with this key exists.
    NotFound,
    /// A marked cell was encountered; retry on the new table.
    Migrating,
}

/// Outcome of an insert-or-update attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsertOutcome {
    /// The key was absent; a new element was inserted.
    Inserted,
    /// The key was present; its value was updated.
    Updated,
    /// The probe limit was reached.
    Full,
    /// A marked cell was encountered; retry on the new table.
    Migrating,
}

/// Outcome of a deletion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EraseOutcome {
    /// The element was replaced by a tombstone.
    Erased,
    /// No element with this key exists.
    NotFound,
    /// A marked cell was encountered; retry on the new table.
    Migrating,
}

/// A bounded lock-free linear probing hash table over word-sized keys and
/// values (the folklore table of §4).
pub struct BoundedTable {
    /// Hugepage-backed cell array (a zeroed cell *is* an empty cell, so
    /// allocation needs no per-cell construction; see `mem.rs`).
    cells: HugeBox<Cell>,
    capacity: usize,
    /// Table generation (0 for standalone tables; growing tables stamp
    /// every new table with an increasing version for diagnostics).
    version: u64,
    /// Hash function of the cell mapping.  Per-table so the CRC32-C path
    /// (§8.3) can be benchmarked side by side with the default mixer; all
    /// generations of a growing table share one selection (the cluster
    /// migration requires source and target to agree on the hash).
    hash: HashSelect,
    /// Signature metadata stripe for SIMD group probing (see
    /// [`crate::simd`]); present exactly when the table was built with
    /// [`ProbeSelect::Simd`] and the capacity spans at least one group.
    meta: Option<MetaStripe>,
}

impl BoundedTable {
    /// Create a table able to hold `expected_elements` elements with the
    /// paper's sizing rule (capacity = smallest power of two ≥ 2·n).
    pub fn with_expected_elements(expected_elements: usize) -> Self {
        Self::with_cells(capacity_for(expected_elements), 0)
    }

    /// Create a table with exactly `capacity` cells (must be a power of
    /// two), the given generation number and the default hash.
    pub fn with_cells(capacity: usize, version: u64) -> Self {
        Self::with_cells_hashed(capacity, version, HashSelect::default())
    }

    /// Create a table with exactly `capacity` cells (must be a power of
    /// two), the given generation number and the given hash selection.
    pub fn with_cells_hashed(capacity: usize, version: u64, hash: HashSelect) -> Self {
        Self::with_cells_configured(capacity, version, hash, ProbeSelect::default())
    }

    /// Create a table with exactly `capacity` cells (must be a power of
    /// two), the given generation number, hash selection and probe kernel
    /// selection.
    pub fn with_cells_configured(
        capacity: usize,
        version: u64,
        hash: HashSelect,
        probe: ProbeSelect,
    ) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        let meta =
            (probe == ProbeSelect::Simd && capacity >= GROUP).then(|| MetaStripe::new(capacity));
        BoundedTable {
            cells: HugeBox::zeroed(capacity),
            capacity,
            version,
            hash,
            meta,
        }
    }

    /// Fallible variant of [`BoundedTable::with_cells_hashed`]: the cell
    /// array is allocated through [`HugeBox::try_zeroed`], so an
    /// allocation failure is returned as a typed error instead of aborting
    /// the process.  The growing tables allocate every next generation
    /// through this path — on failure they keep serving the current
    /// generation.
    pub fn try_with_cells_hashed(
        capacity: usize,
        version: u64,
        hash: HashSelect,
    ) -> Result<Self, crate::mem::AllocError> {
        assert!(
            capacity.is_power_of_two(),
            "capacity must be a power of two"
        );
        Ok(BoundedTable {
            cells: HugeBox::try_zeroed(capacity)?,
            capacity,
            version,
            hash,
            meta: None,
        })
    }

    /// Number of cells.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Table generation number.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Access a cell by index (used by the migration and by tests).
    #[inline]
    pub(crate) fn cell(&self, index: usize) -> &Cell {
        &self.cells[index]
    }

    /// Hash selection of this table's cell mapping.
    #[inline]
    pub fn hash_select(&self) -> HashSelect {
        self.hash
    }

    /// Signature stripe, when this table maintains one (tests and
    /// diagnostics).
    #[cfg(test)]
    pub(crate) fn meta_stripe(&self) -> Option<&MetaStripe> {
        self.meta.as_ref()
    }

    /// First cell index probed for `key`.
    #[inline]
    pub fn home_cell(&self, key: u64) -> usize {
        scale_to_capacity(self.hash.hash(key), self.capacity)
    }

    /// Publish the stripe byte for a cell that was just claimed for `key`
    /// (called *after* the claiming CAS — the stripe is a filter, never an
    /// authority; see `simd.rs`).  No-op without a stripe.
    #[inline]
    pub(crate) fn publish_occupied(&self, index: usize, key: u64) {
        if let Some(meta) = &self.meta {
            meta.publish(index, fingerprint(self.hash.hash(key)));
        }
    }

    /// Publish the tombstone stripe byte for a cell that was just
    /// tombstoned (after the tombstone CAS).  No-op without a stripe.
    #[inline]
    pub(crate) fn publish_tombstone(&self, index: usize) {
        if let Some(meta) = &self.meta {
            meta.publish(index, TOMB_BYTE);
        }
    }

    /// Striped probe driver: walk the signature stripe in [`GROUP`]-byte
    /// steps from `home`, calling `on_candidate` for every cell whose
    /// stripe byte equals the fingerprint of `hash` (`Some` short-circuits
    /// the probe).  At the first **empty** stripe byte the walk stops
    /// being authoritative — a freshly claimed cell's byte may still be in
    /// flight, and migration marks are invisible to the stripe — so the
    /// probe hands over to the scalar segment via
    /// `on_tail(start, remaining_budget, cells_consumed)`, which confirms
    /// emptiness (or whatever the operation needs) on the cells
    /// themselves.  `exhausted` is returned when the probe budget runs out
    /// without ever seeing an empty byte.
    ///
    /// Skipping a non-empty, non-matching byte without reading its cell is
    /// sound because a cell only ever publishes `fingerprint(its key)` or
    /// the tombstone byte: a wrong fingerprint is never observable, so a
    /// mismatch proves the cell cannot hold this key (see `simd.rs`).
    #[inline]
    fn striped_probe<R>(
        &self,
        meta: &MetaStripe,
        hash: u64,
        home: usize,
        mut on_candidate: impl FnMut(&Cell, usize) -> Option<R>,
        on_tail: impl FnOnce(usize, usize, usize) -> R,
        exhausted: R,
    ) -> R {
        let fp = fingerprint(hash);
        let mask = self.capacity - 1;
        // Both capacity and PROBE_LIMIT are powers of two >= GROUP here, so
        // the budget is a whole number of groups — no partial group ever.
        let limit = self.capacity.min(PROBE_LIMIT);
        let mut base = home;
        let mut scanned = 0usize;
        while scanned < limit {
            let (candidates, empties) = meta.probe_group(base, fp);
            let until = if empties != 0 {
                empties.trailing_zeros() as usize
            } else {
                GROUP
            };
            let mut cand = candidates & ((1u32 << until) - 1);
            while cand != 0 {
                let i = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let index = (base + i) & mask;
                if let Some(result) = on_candidate(self.cell(index), index) {
                    return result;
                }
            }
            if until < GROUP {
                return on_tail(
                    (base + until) & mask,
                    limit - scanned - until,
                    scanned + until,
                );
            }
            scanned += GROUP;
            base = (base + GROUP) & mask;
        }
        exhausted
    }

    /// Advance a probe index and, whenever the run crosses into a new
    /// cache line, prefetch one line ahead.  Probe runs longer than one
    /// line (4 cells) otherwise pay a fresh cold miss per line; the
    /// prefetch overlaps that miss with the probes of the current line.
    #[inline]
    fn next_index_prefetched(&self, index: usize) -> usize {
        let next = (index + 1) & (self.capacity - 1);
        if next.is_multiple_of(CELLS_PER_LINE) {
            prefetch_read(self.cell((next + CELLS_PER_LINE) & (self.capacity - 1)));
        }
        next
    }

    /// Shared skeleton of every batched operation — the hash → prefetch →
    /// probe pipeline: cut `items` into [`BATCH_PIPELINE`]-sized chunks,
    /// hash every key in a chunk and prefetch its probe-entry lines, then
    /// run `probe` per item in slice order (so a batch is observably the
    /// per-op loop).  `write_hint` selects the prefetch flavour for
    /// modifying probes.  With a signature stripe the first pass prefetches
    /// the metadata line *and* the home cell line: the group filter reads
    /// the stripe first, but the candidate verify (or the empty-confirm)
    /// touches the home cell line in almost every probe, so hiding both
    /// misses beats saving the second hint.
    #[inline]
    fn batch_pipeline<T: Copy, R>(
        &self,
        items: &[T],
        out: &mut [R],
        label: &str,
        write_hint: bool,
        key_of: impl Fn(&T) -> u64,
        probe: impl Fn(&T, u64) -> R,
    ) {
        assert_eq!(items.len(), out.len(), "{label}: length mismatch");
        let mut hashes = [0u64; BATCH_PIPELINE];
        for (chunk, out_chunk) in items
            .chunks(BATCH_PIPELINE)
            .zip(out.chunks_mut(BATCH_PIPELINE))
        {
            for (slot, item) in hashes.iter_mut().zip(chunk.iter()) {
                let hash = self.hash.hash(key_of(item));
                *slot = hash;
                let home = scale_to_capacity(hash, self.capacity);
                if let Some(meta) = &self.meta {
                    meta.prefetch(home);
                }
                if write_hint {
                    prefetch_write(self.cell(home));
                } else {
                    prefetch_read(self.cell(home));
                }
            }
            for ((item, slot), &hash) in chunk.iter().zip(out_chunk.iter_mut()).zip(hashes.iter()) {
                *slot = probe(item, hash);
            }
        }
    }

    // ---------------------------------------------------------------------
    // Lookup
    // ---------------------------------------------------------------------

    /// Find the value stored for `key`.  Never writes; tolerates torn reads
    /// and marked cells (the value of a marked cell is frozen and therefore
    /// valid to return).
    pub fn find(&self, key: u64) -> Option<u64> {
        self.find_probe_hashed(key, self.hash.hash(key))
    }

    /// Probe for `key` from its precomputed master `hash` (the batched
    /// pipeline hashes and prefetches a whole block before running any
    /// probe, then calls this).
    #[inline]
    fn find_probe_hashed(&self, key: u64, hash: u64) -> Option<u64> {
        debug_assert!(!crate::cell::is_sentinel(key));
        debug_assert_eq!(hash, self.hash.hash(key));
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            // Kick off the home cell line fetch in parallel with the
            // stripe read: the candidate verify needs it in the common
            // (found, displacement < 4) case.
            prefetch_read(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                |cell, _| {
                    if unmark(cell.load_key()) == key {
                        // Key read before value: a torn read can only
                        // observe the newest value for this key (§4).
                        Some(Some(cell.load_value()))
                    } else {
                        None
                    }
                },
                |start, budget, _| self.find_probe_from(key, start, budget),
                None,
            );
        }
        self.find_probe_from(key, home, self.capacity.min(PROBE_LIMIT))
    }

    /// Scalar probe segment: scan up to `budget` cells from `start` (the
    /// home cell, or the continuation point where the striped filter saw
    /// its first empty stripe byte and must confirm on the cells).
    #[inline]
    fn find_probe_from(&self, key: u64, start: usize, budget: usize) -> Option<u64> {
        let mut index = start;
        for _ in 0..budget {
            let cell = self.cell(index);
            let stored_key = cell.load_key();
            let plain = unmark(stored_key);
            if plain == EMPTY_KEY {
                return None;
            }
            if plain == key {
                // Key read before value: a torn read can only observe the
                // newest value for this key (§4).
                return Some(cell.load_value());
            }
            index = self.next_index_prefetched(index);
        }
        None
    }

    /// Look up a whole batch of keys with the hash → prefetch → probe
    /// pipeline: home cells of up to [`BATCH_PIPELINE`] keys are computed
    /// and prefetched before the first probe runs, so the cold misses of a
    /// block overlap instead of serializing.  `out[i]` receives the result
    /// of `find(keys[i])`; never writes to the table.
    pub fn find_batch(&self, keys: &[u64], out: &mut [Option<u64>]) {
        self.batch_pipeline(
            keys,
            out,
            "find_batch",
            false,
            |&k| k,
            |&k, hash| self.find_probe_hashed(k, hash),
        );
    }

    // ---------------------------------------------------------------------
    // Insert
    // ---------------------------------------------------------------------

    /// Insert `⟨key, value⟩` if the key is not yet present.
    pub fn insert(&self, key: u64, value: u64) -> InsertOutcome {
        self.insert_probe_hashed(key, value, self.hash.hash(key))
    }

    /// Per-cell insert step: `None` means "occupied by another key, keep
    /// probing".  A successful claim publishes the stripe byte *after* the
    /// CAS (filter discipline, see `simd.rs`).
    #[inline]
    fn insert_cell(&self, cell: &Cell, index: usize, key: u64, value: u64) -> Option<InsertStep> {
        loop {
            let stored_key = cell.load_key();
            if stored_key == EMPTY_KEY {
                match cell.cas_pair((EMPTY_KEY, 0), (key, value)) {
                    Ok(()) => {
                        self.publish_occupied(index, key);
                        return Some(InsertStep::Inserted);
                    }
                    // Somebody claimed this cell first; re-examine it (it
                    // might now hold our key), cf. Algorithm 1 line 9.
                    Err(_) => continue,
                }
            }
            if is_marked(stored_key) && unmark(stored_key) == EMPTY_KEY {
                return Some(InsertStep::Migrating);
            }
            if unmark(stored_key) == key {
                return Some(InsertStep::AlreadyPresent);
            }
            return None;
        }
    }

    #[inline]
    fn insert_probe_hashed(&self, key: u64, value: u64, hash: u64) -> InsertOutcome {
        debug_assert!(!crate::cell::is_sentinel(key));
        debug_assert_eq!(
            key & MARK_BIT,
            0,
            "application keys must not use the mark bit"
        );
        debug_assert_eq!(hash, self.hash.hash(key));
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            prefetch_write(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                |cell, _| {
                    // A fingerprint candidate is never empty (bytes are
                    // published after the claiming CAS) and never a marked
                    // empty cell, so only the duplicate check applies.
                    if unmark(cell.load_key()) == key {
                        Some(InsertOutcome::AlreadyPresent)
                    } else {
                        None
                    }
                },
                |start, budget, consumed| {
                    self.insert_probe_from(key, value, start, budget, consumed)
                },
                InsertOutcome::Full,
            );
        }
        self.insert_probe_from(key, value, home, self.capacity.min(PROBE_LIMIT), 0)
    }

    /// Scalar insert segment (see [`BoundedTable::find_probe_from`] for
    /// the start/budget contract); `probe_base` cells were already
    /// accounted by the striped filter and only shift the reported probe
    /// count.
    fn insert_probe_from(
        &self,
        key: u64,
        value: u64,
        start: usize,
        budget: usize,
        probe_base: usize,
    ) -> InsertOutcome {
        let mut index = start;
        let mut probe = 0usize;
        while probe < budget {
            match self.insert_cell(self.cell(index), index, key, value) {
                Some(InsertStep::Inserted) => {
                    return InsertOutcome::Inserted {
                        probe: probe_base + probe,
                    }
                }
                Some(InsertStep::AlreadyPresent) => return InsertOutcome::AlreadyPresent,
                Some(InsertStep::Migrating) => return InsertOutcome::Migrating,
                None => {}
            }
            index = self.next_index_prefetched(index);
            probe += 1;
        }
        InsertOutcome::Full
    }

    /// Insert a batch of `⟨key, value⟩` pairs with the pipelined fast path
    /// (see [`BoundedTable::find_batch`]); `outcomes[i]` receives the
    /// outcome of `insert(elements[i])`.  The probes execute in slice
    /// order, so duplicate keys inside one batch behave exactly like the
    /// per-op loop: the first occurrence wins, later ones report
    /// [`InsertOutcome::AlreadyPresent`].
    pub fn insert_batch(&self, elements: &[(u64, u64)], outcomes: &mut [InsertOutcome]) {
        self.batch_pipeline(
            elements,
            outcomes,
            "insert_batch",
            true,
            |&(k, _)| k,
            |&(k, v), hash| self.insert_probe_hashed(k, v, hash),
        );
    }

    // ---------------------------------------------------------------------
    // Updates
    // ---------------------------------------------------------------------

    /// Update the value of `key` to `up(current, d)` using a full-cell CAS
    /// (mark-aware; safe under the asynchronous migration protocol).
    pub fn update_with(&self, key: u64, d: u64, up: impl Fn(u64, u64) -> u64) -> UpdateOutcome {
        self.update_probe_hashed(key, d, &up, self.hash.hash(key))
    }

    /// Per-cell step of the full-cell-CAS update: `Some` resolves the
    /// whole operation, `None` means "other key, keep probing".
    #[inline]
    fn update_cell(
        &self,
        cell: &Cell,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
    ) -> Option<UpdateOutcome> {
        loop {
            let (stored_key, stored_value) = cell.read();
            if stored_key == EMPTY_KEY || (is_marked(stored_key) && unmark(stored_key) == EMPTY_KEY)
            {
                return Some(UpdateOutcome::NotFound);
            }
            if is_marked(stored_key) && unmark(stored_key) == key {
                return Some(UpdateOutcome::Migrating);
            }
            if stored_key == key {
                let new_value = up(stored_value, d);
                match cell.cas_pair((key, stored_value), (key, new_value)) {
                    Ok(()) => return Some(UpdateOutcome::Updated),
                    // Lost a race: either a concurrent update (retry) or
                    // a migration mark (detected on the next read).
                    Err(_) => continue,
                }
            }
            return None;
        }
    }

    #[inline]
    fn update_probe_hashed(
        &self,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
        hash: u64,
    ) -> UpdateOutcome {
        debug_assert!(!crate::cell::is_sentinel(key));
        debug_assert_eq!(hash, self.hash.hash(key));
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            prefetch_write(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                // A candidate cell is never (marked) empty, so the
                // NotFound arm of update_cell cannot fire here.
                |cell, _| self.update_cell(cell, key, d, up),
                |start, budget, _| self.update_probe_from(key, d, up, start, budget),
                UpdateOutcome::NotFound,
            );
        }
        self.update_probe_from(key, d, up, home, self.capacity.min(PROBE_LIMIT))
    }

    fn update_probe_from(
        &self,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
        start: usize,
        budget: usize,
    ) -> UpdateOutcome {
        let mut index = start;
        for _ in 0..budget {
            if let Some(outcome) = self.update_cell(self.cell(index), key, d, up) {
                return outcome;
            }
            index = self.next_index_prefetched(index);
        }
        UpdateOutcome::NotFound
    }

    /// Apply `update_with` to a batch of `⟨key, d⟩` pairs with the
    /// pipelined fast path; `outcomes[i]` receives the outcome for
    /// `elements[i]`.  Probes execute in slice order (duplicate keys inside
    /// one batch are applied sequentially, like the per-op loop).
    pub fn update_batch_with(
        &self,
        elements: &[(u64, u64)],
        up: impl Fn(u64, u64) -> u64 + Copy,
        outcomes: &mut [UpdateOutcome],
    ) {
        self.batch_pipeline(
            elements,
            outcomes,
            "update_batch_with",
            true,
            |&(k, _)| k,
            |&(k, d), hash| self.update_probe_hashed(k, d, &up, hash),
        );
    }

    /// Update the value of `key` to `up(current, d)` with a single-word
    /// CAS on the value once the key word has been verified — no 128-bit
    /// CAS on the hot path.
    ///
    /// Like [`BoundedTable::update_overwrite_unsynchronized`] this is only
    /// legal where migrations cannot run concurrently (non-growing tables,
    /// or the synchronized growing protocol): a value-only CAS does not
    /// observe the mark bit, so under the asynchronous marking protocol it
    /// could modify a cell that has already been frozen and copied.
    /// Racing a concurrent `erase` is benign: the tombstone keeps the
    /// value word, so a value CAS that lands after the tombstone merely
    /// updates a dead cell — equivalent to the update linearizing
    /// immediately before the deletion.
    pub fn update_value_cas_unsynchronized(
        &self,
        key: u64,
        d: u64,
        up: impl Fn(u64, u64) -> u64,
    ) -> UpdateOutcome {
        self.update_value_cas_probe_hashed(key, d, &up, self.hash.hash(key))
    }

    /// Per-cell step of the value-CAS update (no mark handling — only
    /// legal where migrations cannot run concurrently).
    #[inline]
    fn value_cas_cell(
        &self,
        cell: &Cell,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
    ) -> Option<UpdateOutcome> {
        let stored_key = unmark(cell.load_key());
        if stored_key == EMPTY_KEY {
            return Some(UpdateOutcome::NotFound);
        }
        if stored_key == key {
            let mut current = cell.load_value();
            loop {
                match cell.cas_value(current, up(current, d)) {
                    Ok(()) => return Some(UpdateOutcome::Updated),
                    Err(observed) => current = observed,
                }
            }
        }
        None
    }

    #[inline]
    fn update_value_cas_probe_hashed(
        &self,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
        hash: u64,
    ) -> UpdateOutcome {
        debug_assert!(!crate::cell::is_sentinel(key));
        debug_assert_eq!(hash, self.hash.hash(key));
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            prefetch_write(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                // Candidates are never empty, so NotFound cannot fire here.
                |cell, _| self.value_cas_cell(cell, key, d, up),
                |start, budget, _| self.update_value_cas_probe_from(key, d, up, start, budget),
                UpdateOutcome::NotFound,
            );
        }
        self.update_value_cas_probe_from(key, d, up, home, self.capacity.min(PROBE_LIMIT))
    }

    fn update_value_cas_probe_from(
        &self,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
        start: usize,
        budget: usize,
    ) -> UpdateOutcome {
        let mut index = start;
        for _ in 0..budget {
            if let Some(outcome) = self.value_cas_cell(self.cell(index), key, d, up) {
                return outcome;
            }
            index = self.next_index_prefetched(index);
        }
        UpdateOutcome::NotFound
    }

    /// The pipelined batch form of
    /// [`BoundedTable::update_value_cas_unsynchronized`] (same legality
    /// caveat: only where migrations cannot run concurrently), so batched
    /// updates keep the single-word value-CAS fast path of the per-op
    /// call.  Never returns [`UpdateOutcome::Migrating`].
    pub fn update_batch_value_cas_unsynchronized(
        &self,
        elements: &[(u64, u64)],
        up: impl Fn(u64, u64) -> u64 + Copy,
        outcomes: &mut [UpdateOutcome],
    ) {
        self.batch_pipeline(
            elements,
            outcomes,
            "update_batch_value_cas_unsynchronized",
            true,
            |&(k, _)| k,
            |&(k, d), hash| self.update_value_cas_probe_hashed(k, d, &up, hash),
        );
    }

    /// Insert `⟨key, d⟩` or update an existing value to `up(current, d)`
    /// using full-cell CAS (mark-aware).
    pub fn upsert_with(&self, key: u64, d: u64, up: impl Fn(u64, u64) -> u64) -> UpsertOutcome {
        debug_assert!(!crate::cell::is_sentinel(key));
        self.upsert_probe_hashed(key, d, &up, self.hash.hash(key))
    }

    /// Per-cell step of the full-cell-CAS upsert.
    #[inline]
    fn upsert_cell(
        &self,
        cell: &Cell,
        index: usize,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
    ) -> Option<UpsertOutcome> {
        loop {
            let (stored_key, stored_value) = cell.read();
            if stored_key == EMPTY_KEY {
                match cell.cas_pair((EMPTY_KEY, 0), (key, d)) {
                    Ok(()) => {
                        self.publish_occupied(index, key);
                        return Some(UpsertOutcome::Inserted);
                    }
                    Err(_) => continue,
                }
            }
            if is_marked(stored_key) {
                let plain = unmark(stored_key);
                if plain == EMPTY_KEY || plain == key {
                    return Some(UpsertOutcome::Migrating);
                }
                return None;
            }
            if stored_key == key {
                let new_value = up(stored_value, d);
                match cell.cas_pair((key, stored_value), (key, new_value)) {
                    Ok(()) => return Some(UpsertOutcome::Updated),
                    Err(_) => continue,
                }
            }
            return None;
        }
    }

    #[inline]
    fn upsert_probe_hashed(
        &self,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
        hash: u64,
    ) -> UpsertOutcome {
        debug_assert_eq!(hash, self.hash.hash(key));
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            prefetch_write(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                // Candidates are never empty, so the insert arm of
                // upsert_cell cannot fire here; the update and Migrating
                // arms carry the semantics.
                |cell, index| self.upsert_cell(cell, index, key, d, up),
                |start, budget, _| self.upsert_probe_from(key, d, up, start, budget),
                UpsertOutcome::Full,
            );
        }
        self.upsert_probe_from(key, d, up, home, self.capacity.min(PROBE_LIMIT))
    }

    fn upsert_probe_from(
        &self,
        key: u64,
        d: u64,
        up: &impl Fn(u64, u64) -> u64,
        start: usize,
        budget: usize,
    ) -> UpsertOutcome {
        let mut index = start;
        for _ in 0..budget {
            if let Some(outcome) = self.upsert_cell(self.cell(index), index, key, d, up) {
                return outcome;
            }
            index = self.next_index_prefetched(index);
        }
        UpsertOutcome::Full
    }

    /// Overwrite the value of `key` with a single atomic store.
    ///
    /// Only legal under the *synchronized* growing protocol (§5.3.2), where
    /// updates and migrations are mutually excluded, or in non-growing
    /// tables; under the marking protocol this could resurrect a value in a
    /// cell that has already been copied.
    pub fn update_overwrite_unsynchronized(&self, key: u64, value: u64) -> UpdateOutcome {
        let hash = self.hash.hash(key);
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            prefetch_write(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                |cell, _| self.overwrite_cell(cell, key, value),
                |start, budget, _| self.overwrite_probe_from(key, value, start, budget),
                UpdateOutcome::NotFound,
            );
        }
        self.overwrite_probe_from(key, value, home, self.capacity.min(PROBE_LIMIT))
    }

    /// Per-cell step of the overwrite update (no occupancy change, so no
    /// stripe publish).
    #[inline]
    fn overwrite_cell(&self, cell: &Cell, key: u64, value: u64) -> Option<UpdateOutcome> {
        let stored_key = cell.load_key();
        if unmark(stored_key) == EMPTY_KEY {
            return Some(UpdateOutcome::NotFound);
        }
        if unmark(stored_key) == key {
            cell.store_value(value);
            return Some(UpdateOutcome::Updated);
        }
        None
    }

    fn overwrite_probe_from(
        &self,
        key: u64,
        value: u64,
        start: usize,
        budget: usize,
    ) -> UpdateOutcome {
        let mut index = start;
        for _ in 0..budget {
            if let Some(outcome) = self.overwrite_cell(self.cell(index), key, value) {
                return outcome;
            }
            index = self.next_index_prefetched(index);
        }
        UpdateOutcome::NotFound
    }

    /// Insert `⟨key, d⟩` or add `d` to the existing value with a
    /// fetch-and-add.
    ///
    /// Like [`BoundedTable::update_overwrite_unsynchronized`] this is only
    /// legal when migrations cannot run concurrently (synchronized
    /// protocol); it is the aggregation fast path of Fig. 5.
    pub fn upsert_fetch_add_unsynchronized(&self, key: u64, d: u64) -> UpsertOutcome {
        let hash = self.hash.hash(key);
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            prefetch_write(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                // Candidates are never empty: only the fetch-add arm fires.
                |cell, index| self.fetch_add_cell(cell, index, key, d),
                |start, budget, _| self.fetch_add_probe_from(key, d, start, budget),
                UpsertOutcome::Full,
            );
        }
        self.fetch_add_probe_from(key, d, home, self.capacity.min(PROBE_LIMIT))
    }

    /// Per-cell step of the fetch-add upsert.
    #[inline]
    fn fetch_add_cell(&self, cell: &Cell, index: usize, key: u64, d: u64) -> Option<UpsertOutcome> {
        loop {
            let stored_key = cell.load_key();
            if stored_key == EMPTY_KEY {
                match cell.cas_pair((EMPTY_KEY, 0), (key, d)) {
                    Ok(()) => {
                        self.publish_occupied(index, key);
                        return Some(UpsertOutcome::Inserted);
                    }
                    Err(_) => continue,
                }
            }
            if unmark(stored_key) == key {
                cell.fetch_add_value(d);
                return Some(UpsertOutcome::Updated);
            }
            return None;
        }
    }

    fn fetch_add_probe_from(&self, key: u64, d: u64, start: usize, budget: usize) -> UpsertOutcome {
        let mut index = start;
        for _ in 0..budget {
            if let Some(outcome) = self.fetch_add_cell(self.cell(index), index, key, d) {
                return outcome;
            }
            index = self.next_index_prefetched(index);
        }
        UpsertOutcome::Full
    }

    // ---------------------------------------------------------------------
    // Deletion
    // ---------------------------------------------------------------------

    /// Delete `key` by writing a tombstone (§5.4).  The value word is left
    /// untouched so concurrent torn reads still observe the pre-deletion
    /// element.
    pub fn erase(&self, key: u64) -> EraseOutcome {
        self.erase_probe_hashed(key, self.hash.hash(key))
    }

    /// Per-cell step of the tombstone deletion; a successful tombstone CAS
    /// publishes the tombstone stripe byte.
    #[inline]
    fn erase_cell(&self, cell: &Cell, index: usize, key: u64) -> Option<EraseOutcome> {
        loop {
            let (stored_key, stored_value) = cell.read();
            if stored_key == EMPTY_KEY || (is_marked(stored_key) && unmark(stored_key) == EMPTY_KEY)
            {
                return Some(EraseOutcome::NotFound);
            }
            if is_marked(stored_key) && unmark(stored_key) == key {
                return Some(EraseOutcome::Migrating);
            }
            if stored_key == key {
                match cell.cas_pair((key, stored_value), (DEL_KEY, stored_value)) {
                    Ok(()) => {
                        self.publish_tombstone(index);
                        return Some(EraseOutcome::Erased);
                    }
                    Err(_) => continue,
                }
            }
            return None;
        }
    }

    #[inline]
    fn erase_probe_hashed(&self, key: u64, hash: u64) -> EraseOutcome {
        debug_assert!(!crate::cell::is_sentinel(key));
        debug_assert_eq!(hash, self.hash.hash(key));
        let home = scale_to_capacity(hash, self.capacity);
        if let Some(meta) = &self.meta {
            prefetch_write(self.cell(home));
            return self.striped_probe(
                meta,
                hash,
                home,
                // Candidates are never (marked) empty, so NotFound cannot
                // fire here.
                |cell, index| self.erase_cell(cell, index, key),
                |start, budget, _| self.erase_probe_from(key, start, budget),
                EraseOutcome::NotFound,
            );
        }
        self.erase_probe_from(key, home, self.capacity.min(PROBE_LIMIT))
    }

    fn erase_probe_from(&self, key: u64, start: usize, budget: usize) -> EraseOutcome {
        let mut index = start;
        for _ in 0..budget {
            if let Some(outcome) = self.erase_cell(self.cell(index), index, key) {
                return outcome;
            }
            index = self.next_index_prefetched(index);
        }
        EraseOutcome::NotFound
    }

    /// Erase a batch of keys with the pipelined fast path; `outcomes[i]`
    /// receives the outcome of `erase(keys[i])`.  Probes execute in slice
    /// order, so a key occurring twice in one batch is erased exactly once
    /// (the second occurrence reports [`EraseOutcome::NotFound`]).
    pub fn erase_batch(&self, keys: &[u64], outcomes: &mut [EraseOutcome]) {
        self.batch_pipeline(
            keys,
            outcomes,
            "erase_batch",
            true,
            |&k| k,
            |&k, hash| self.erase_probe_hashed(k, hash),
        );
    }

    // ---------------------------------------------------------------------
    // Whole-table helpers (migration, diagnostics, iteration)
    // ---------------------------------------------------------------------

    /// Scan the whole table and count live elements, tombstones and marked
    /// cells: `(live, tombstones, marked)`.  Not linearizable; used for
    /// tests, diagnostics and the exact-count fallback of §5.2.
    pub fn scan_counts(&self) -> (usize, usize, usize) {
        let mut live = 0;
        let mut tombstones = 0;
        let mut marked = 0;
        for cell in self.cells.iter() {
            let key = cell.load_key();
            if is_marked(key) {
                marked += 1;
            }
            let plain = unmark(key);
            if plain == DEL_KEY {
                tombstones += 1;
            } else if plain != EMPTY_KEY {
                live += 1;
            }
        }
        (live, tombstones, marked)
    }

    /// Iterate over all live `⟨key, value⟩` pairs (snapshot semantics are
    /// only guaranteed in the absence of concurrent writers; intended for
    /// `forall`-style bulk reads, §4).
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for cell in self.cells.iter() {
            let (key, value) = cell.read();
            let plain = unmark(key);
            if plain != EMPTY_KEY && plain != DEL_KEY {
                f(plain, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_find_roundtrip() {
        let t = BoundedTable::with_expected_elements(1000);
        for k in 10..510u64 {
            assert!(matches!(t.insert(k, k * 2), InsertOutcome::Inserted { .. }));
        }
        for k in 10..510u64 {
            assert_eq!(t.find(k), Some(k * 2));
        }
        assert_eq!(t.find(100_000), None);
        let (live, tomb, marked) = t.scan_counts();
        assert_eq!((live, tomb, marked), (500, 0, 0));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let t = BoundedTable::with_expected_elements(16);
        assert!(matches!(t.insert(7, 1), InsertOutcome::Inserted { .. }));
        assert_eq!(t.insert(7, 2), InsertOutcome::AlreadyPresent);
        assert_eq!(t.find(7), Some(1));
    }

    #[test]
    fn crc_hashed_table_roundtrip() {
        let t = BoundedTable::with_cells_hashed(2048, 0, HashSelect::Crc);
        assert_eq!(t.hash_select(), HashSelect::Crc);
        for k in 10..510u64 {
            assert!(matches!(t.insert(k, k * 2), InsertOutcome::Inserted { .. }));
            assert_eq!(
                t.home_cell(k),
                scale_to_capacity(crate::crc::crc64_pair(k), t.capacity())
            );
        }
        for k in 10..510u64 {
            assert_eq!(t.find(k), Some(k * 2));
        }
        assert_eq!(t.erase(10), EraseOutcome::Erased);
        assert_eq!(t.find(10), None);
    }

    #[test]
    fn capacity_rule_matches_paper() {
        let t = BoundedTable::with_expected_elements(1000);
        assert!(t.capacity() >= 2000 && t.capacity() <= 4000 * 2);
        assert!(t.capacity().is_power_of_two());
    }

    #[test]
    fn update_existing_and_missing() {
        let t = BoundedTable::with_expected_elements(64);
        t.insert(5, 10);
        assert_eq!(
            t.update_with(5, 7, |cur, d| cur + d),
            UpdateOutcome::Updated
        );
        assert_eq!(t.find(5), Some(17));
        assert_eq!(
            t.update_with(6, 7, |cur, d| cur + d),
            UpdateOutcome::NotFound
        );
        assert_eq!(
            t.update_overwrite_unsynchronized(5, 99),
            UpdateOutcome::Updated
        );
        assert_eq!(t.find(5), Some(99));
        assert_eq!(
            t.update_overwrite_unsynchronized(6, 99),
            UpdateOutcome::NotFound
        );
    }

    #[test]
    fn upsert_inserts_then_updates() {
        let t = BoundedTable::with_expected_elements(64);
        assert_eq!(t.upsert_with(9, 1, |c, d| c + d), UpsertOutcome::Inserted);
        assert_eq!(t.upsert_with(9, 1, |c, d| c + d), UpsertOutcome::Updated);
        assert_eq!(t.upsert_with(9, 5, |c, d| c + d), UpsertOutcome::Updated);
        assert_eq!(t.find(9), Some(7));
        assert_eq!(
            t.upsert_fetch_add_unsynchronized(11, 3),
            UpsertOutcome::Inserted
        );
        assert_eq!(
            t.upsert_fetch_add_unsynchronized(11, 4),
            UpsertOutcome::Updated
        );
        assert_eq!(t.find(11), Some(7));
    }

    #[test]
    fn erase_leaves_tombstone() {
        let t = BoundedTable::with_expected_elements(64);
        t.insert(20, 200);
        t.insert(21, 210);
        assert_eq!(t.erase(20), EraseOutcome::Erased);
        assert_eq!(t.erase(20), EraseOutcome::NotFound);
        assert_eq!(t.find(20), None);
        assert_eq!(t.find(21), Some(210));
        let (live, tomb, _) = t.scan_counts();
        assert_eq!((live, tomb), (1, 1));
        // Deleted keys cannot be reinserted in the bounded folklore table
        // (the tombstone is not reused) — the element is simply placed in a
        // later cell, so it is findable again.
        assert!(matches!(t.insert(20, 201), InsertOutcome::Inserted { .. }));
        assert_eq!(t.find(20), Some(201));
    }

    #[test]
    fn probing_wraps_around_table_end() {
        let t = BoundedTable::with_cells(16, 0);
        // Find keys that hash to the last cell to force wrap-around.
        let mut colliding = Vec::new();
        let mut k = 2u64;
        while colliding.len() < 4 {
            if t.home_cell(k) == 15 {
                colliding.push(k);
            }
            k += 1;
        }
        for (i, &key) in colliding.iter().enumerate() {
            assert!(
                matches!(t.insert(key, i as u64), InsertOutcome::Inserted { .. }),
                "insert {i}"
            );
        }
        for (i, &key) in colliding.iter().enumerate() {
            assert_eq!(t.find(key), Some(i as u64));
        }
    }

    #[test]
    fn full_table_reports_full() {
        let t = BoundedTable::with_cells(16, 0);
        let mut inserted = 0;
        let mut k = 2u64;
        let mut full_seen = false;
        while k < 200 {
            match t.insert(k, k) {
                InsertOutcome::Inserted { .. } => inserted += 1,
                InsertOutcome::Full => {
                    full_seen = true;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        assert!(inserted <= 16);
        assert!(full_seen);
    }

    #[test]
    fn marked_cells_freeze_writers_but_not_readers() {
        let t = BoundedTable::with_expected_elements(64);
        t.insert(40, 400);
        let idx = {
            // Locate the cell that holds key 40.
            let mut i = t.home_cell(40);
            loop {
                if unmark(t.cell(i).load_key()) == 40 {
                    break i;
                }
                i = (i + 1) % t.capacity();
            }
        };
        t.cell(idx).mark_for_migration();
        // Readers still see the frozen value.
        assert_eq!(t.find(40), Some(400));
        // Writers must report the migration.
        assert_eq!(t.update_with(40, 1, |c, d| c + d), UpdateOutcome::Migrating);
        assert_eq!(t.upsert_with(40, 1, |c, d| c + d), UpsertOutcome::Migrating);
        assert_eq!(t.erase(40), EraseOutcome::Migrating);
        // Insert of a *different* key that probes into a marked empty cell
        // must also report the migration.
        let empty_idx = (idx + 1) % t.capacity();
        if t.cell(empty_idx).load_key() == EMPTY_KEY {
            t.cell(empty_idx).mark_for_migration();
        }
    }

    #[test]
    fn insert_into_marked_empty_cell_reports_migrating() {
        let t = BoundedTable::with_cells(16, 0);
        // Mark every cell (as the migration of a full block would).
        for i in 0..16 {
            t.cell(i).mark_for_migration();
        }
        assert_eq!(t.insert(5, 50), InsertOutcome::Migrating);
    }

    #[test]
    fn concurrent_inserts_unique_winner_per_key() {
        let t = Arc::new(BoundedTable::with_expected_elements(10_000));
        let successes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let t = Arc::clone(&t);
                let successes = Arc::clone(&successes);
                s.spawn(move || {
                    for k in 100..2100u64 {
                        if matches!(t.insert(k, thread), InsertOutcome::Inserted { .. }) {
                            successes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // Exactly one thread won each of the 2000 keys.
        assert_eq!(successes.load(std::sync::atomic::Ordering::Relaxed), 2000);
        let (live, _, _) = t.scan_counts();
        assert_eq!(live, 2000);
    }

    #[test]
    fn concurrent_upserts_aggregate_exactly() {
        let t = Arc::new(BoundedTable::with_expected_elements(1024));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let key = 100 + (i % 7);
                        assert!(!matches!(
                            t.upsert_with(key, 1, |c, d| c + d),
                            UpsertOutcome::Full | UpsertOutcome::Migrating
                        ));
                    }
                });
            }
        });
        let total: u64 = (0..7u64).map(|k| t.find(100 + k).unwrap()).sum();
        assert_eq!(total, 4 * 10_000);
    }

    #[test]
    fn batch_ops_match_per_op_loop() {
        // Drive one table with batch calls and a twin with the per-op
        // loop; every result and the final contents must coincide.
        let batched = BoundedTable::with_expected_elements(2048);
        let looped = BoundedTable::with_expected_elements(2048);
        // 100 distinct keys, each appearing twice (duplicates in-batch).
        let mut elems: Vec<(u64, u64)> = (0..100u64).map(|i| (10 + i * 3, i)).collect();
        let dup: Vec<(u64, u64)> = elems.iter().map(|&(k, v)| (k, v + 1000)).collect();
        elems.extend(dup);

        let mut outcomes = vec![InsertOutcome::Full; elems.len()];
        batched.insert_batch(&elems, &mut outcomes);
        for (&(k, v), &outcome) in elems.iter().zip(outcomes.iter()) {
            assert_eq!(outcome, looped.insert(k, v), "insert {k}");
        }

        let keys: Vec<u64> = elems.iter().map(|&(k, _)| k).chain(5000..5040).collect();
        let mut found = vec![None; keys.len()];
        batched.find_batch(&keys, &mut found);
        for (&k, &f) in keys.iter().zip(found.iter()) {
            assert_eq!(f, looped.find(k), "find {k}");
        }

        let mut up_outcomes = vec![UpdateOutcome::NotFound; elems.len()];
        batched.update_batch_with(&elems, |c, d| c.wrapping_add(d), &mut up_outcomes);
        for (&(k, d), &outcome) in elems.iter().zip(up_outcomes.iter()) {
            assert_eq!(
                outcome,
                looped.update_with(k, d, |c, d| c.wrapping_add(d)),
                "update {k}"
            );
        }

        // The value-CAS batch variant must report the same outcomes as the
        // full-cell-CAS batch (both tables see identical states here).
        let mut cas_outcomes = vec![UpdateOutcome::NotFound; elems.len()];
        batched.update_batch_value_cas_unsynchronized(
            &elems,
            |c, d| c.wrapping_add(d),
            &mut cas_outcomes,
        );
        let mut loop_outcomes = vec![UpdateOutcome::NotFound; elems.len()];
        looped.update_batch_with(&elems, |c, d| c.wrapping_add(d), &mut loop_outcomes);
        assert_eq!(cas_outcomes, loop_outcomes);

        let mut er_outcomes = vec![EraseOutcome::NotFound; keys.len()];
        batched.erase_batch(&keys, &mut er_outcomes);
        for (&k, &outcome) in keys.iter().zip(er_outcomes.iter()) {
            assert_eq!(outcome, looped.erase(k), "erase {k}");
        }

        assert_eq!(batched.scan_counts(), looped.scan_counts());
    }

    #[test]
    fn batch_insert_respects_migration_marks() {
        let t = BoundedTable::with_cells(16, 0);
        for i in 0..16 {
            t.cell(i).mark_for_migration();
        }
        let elems: Vec<(u64, u64)> = (2..10u64).map(|k| (k, k)).collect();
        let mut outcomes = vec![InsertOutcome::Full; elems.len()];
        t.insert_batch(&elems, &mut outcomes);
        assert!(outcomes.iter().all(|&o| o == InsertOutcome::Migrating));
    }

    #[test]
    fn update_value_cas_matches_full_cell_cas() {
        let t = BoundedTable::with_expected_elements(64);
        t.insert(5, 10);
        assert_eq!(
            t.update_value_cas_unsynchronized(5, 7, |c, d| c + d),
            UpdateOutcome::Updated
        );
        assert_eq!(t.find(5), Some(17));
        assert_eq!(
            t.update_value_cas_unsynchronized(6, 7, |c, d| c + d),
            UpdateOutcome::NotFound
        );
        // Concurrent value-CAS increments are exact.
        let t = Arc::new(BoundedTable::with_expected_elements(64));
        t.insert(9, 0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        assert_eq!(
                            t.update_value_cas_unsynchronized(9, 1, |c, d| c + d),
                            UpdateOutcome::Updated
                        );
                    }
                });
            }
        });
        assert_eq!(t.find(9), Some(40_000));
    }

    #[test]
    fn for_each_visits_live_elements_only() {
        let t = BoundedTable::with_expected_elements(128);
        for k in 2..66u64 {
            t.insert(k, k);
        }
        t.erase(10);
        t.erase(11);
        let mut seen = Vec::new();
        t.for_each(|k, v| {
            assert_eq!(k, v);
            seen.push(k);
        });
        seen.sort_unstable();
        assert_eq!(seen.len(), 62);
        assert!(!seen.contains(&10));
        assert!(!seen.contains(&11));
    }

    /// A striped table of the given capacity (the stripe exists whenever
    /// `capacity >= GROUP`).
    fn simd_table(capacity: usize) -> BoundedTable {
        BoundedTable::with_cells_configured(capacity, 0, HashSelect::Mix, ProbeSelect::Simd)
    }

    #[test]
    fn simd_table_roundtrip_and_stripe_coherent() {
        let t = simd_table(2048);
        assert!(t.meta_stripe().is_some());
        for k in 10..510u64 {
            assert!(matches!(t.insert(k, k * 2), InsertOutcome::Inserted { .. }));
        }
        for k in 10..510u64 {
            assert_eq!(t.find(k), Some(k * 2));
        }
        assert_eq!(t.find(100_000), None);
        assert_eq!(t.erase(10), EraseOutcome::Erased);
        assert_eq!(t.erase(10), EraseOutcome::NotFound);
        assert_eq!(t.find(10), None);

        // Every cell state is mirrored in the stripe: occupied cells carry
        // their key's fingerprint, tombstoned cells TOMB_BYTE, and
        // never-used cells stay 0.
        let meta = t.meta_stripe().unwrap();
        for i in 0..t.capacity() {
            let key = t.cell(i).load_key();
            let byte = meta.load(i);
            if key == EMPTY_KEY {
                assert_eq!(byte, 0, "cell {i}");
            } else if key == DEL_KEY {
                assert_eq!(byte, TOMB_BYTE, "cell {i}");
            } else {
                assert_eq!(byte, fingerprint(t.hash.hash(key)), "cell {i}");
            }
        }
    }

    #[test]
    fn simd_small_capacity_has_no_stripe_but_works() {
        // Below one probe group the stripe is skipped and every operation
        // takes the scalar path.
        let t = simd_table(8);
        assert!(t.meta_stripe().is_none());
        for k in 2..8u64 {
            assert!(matches!(t.insert(k, k), InsertOutcome::Inserted { .. }));
        }
        for k in 2..8u64 {
            assert_eq!(t.find(k), Some(k));
        }
        assert_eq!(t.erase(3), EraseOutcome::Erased);
        assert_eq!(t.find(3), None);
    }

    #[test]
    fn simd_matches_scalar_op_for_op() {
        // Same mixed sequence against a striped and a scalar table: every
        // outcome and the final contents must agree.
        let striped = simd_table(1024);
        let scalar = BoundedTable::with_cells(1024, 0);
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..6_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = 2 + (x >> 52); // small key range: plenty of collisions
            match x % 5 {
                0 => assert_eq!(
                    matches!(striped.insert(k, k), InsertOutcome::Inserted { .. }),
                    matches!(scalar.insert(k, k), InsertOutcome::Inserted { .. }),
                ),
                1 => assert_eq!(striped.find(k), scalar.find(k)),
                2 => assert_eq!(
                    striped.update_with(k, 3, |c, d| c + d),
                    scalar.update_with(k, 3, |c, d| c + d)
                ),
                3 => assert_eq!(
                    striped.upsert_with(k, 1, |c, d| c + d),
                    scalar.upsert_with(k, 1, |c, d| c + d)
                ),
                _ => assert_eq!(striped.erase(k), scalar.erase(k)),
            }
        }
        assert_eq!(striped.scan_counts(), scalar.scan_counts());
        striped.for_each(|k, v| assert_eq!(scalar.find(k), Some(v)));
    }

    #[test]
    fn simd_batches_match_per_op() {
        let batched = simd_table(4096);
        let looped = simd_table(4096);
        let keys: Vec<u64> = (2..1002u64).map(|k| k * 7 + 1).collect();
        let elems: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 2)).collect();

        let mut in_outcomes = vec![InsertOutcome::Full; elems.len()];
        batched.insert_batch(&elems, &mut in_outcomes);
        for &(k, v) in &elems {
            looped.insert(k, v);
        }
        assert!(in_outcomes
            .iter()
            .all(|&o| matches!(o, InsertOutcome::Inserted { .. })));

        let mut found = vec![None; keys.len()];
        batched.find_batch(&keys, &mut found);
        for (&k, &f) in keys.iter().zip(found.iter()) {
            assert_eq!(f, looped.find(k), "find {k}");
            assert_eq!(f, Some(k * 2));
        }

        let mut er_outcomes = vec![EraseOutcome::NotFound; keys.len()];
        batched.erase_batch(&keys[..500], &mut er_outcomes[..500]);
        for &k in &keys[..500] {
            assert_eq!(looped.erase(k), EraseOutcome::Erased);
        }
        assert_eq!(batched.scan_counts(), looped.scan_counts());
    }

    #[test]
    fn simd_concurrent_inserts_and_finds() {
        // Striped probing under real concurrency: publication of the
        // fingerprint byte races with readers, which must never miss a
        // completed insert.
        let t = Arc::new(simd_table(1 << 14));
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = 2 + thread * 10_000 + i;
                        assert!(matches!(t.insert(k, k), InsertOutcome::Inserted { .. }));
                        assert_eq!(t.find(k), Some(k));
                    }
                });
            }
        });
        for thread in 0..4u64 {
            for i in 0..2_000u64 {
                let k = 2 + thread * 10_000 + i;
                assert_eq!(t.find(k), Some(k));
            }
        }
        let (live, tomb, marked) = t.scan_counts();
        assert_eq!((live, tomb, marked), (8_000, 0, 0));
    }
}
