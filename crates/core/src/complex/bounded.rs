//! The bounded string-key table: §5.7 reference packing over a fixed-size
//! cell array, with folly-style `INFLIGHT` publication.
//!
//! Cells are **two separate atomic words** (key reference and value), so
//! a double-word CAS is not available and the insert must publish in two
//! steps.  The publication order is the whole correctness story:
//!
//! 1. claim the empty cell with `CAS(EMPTY → INFLIGHT)`;
//! 2. store the value;
//! 3. publish the packed key reference with a release store.
//!
//! Probes spin out the (very short) `INFLIGHT` window, so a published key
//! reference always carries its initialized value: `find` can never
//! return an unpublished `0`, and a concurrent `update` can never land
//! between an inserter's key CAS and its value store (the lost-delta race
//! of an earlier revision, where the key was published *first* and the
//! value written *after*).
//!
//! The window is also **crash-recoverable** (DESIGN.md §12): a probe that
//! spins past a long patience bound assumes the claimer died inside the
//! window and repairs the cell with `CAS(INFLIGHT → TOMBSTONE)`.  To keep
//! that safe against a claimer that was merely descheduled, step 3 is a
//! `CAS(INFLIGHT → packed)` rather than a plain store: a zombie claimer
//! whose cell was repaired loses the CAS, observes the repair, and
//! re-probes — it can never revive a tombstone into a duplicate key.
//!
//! Deletion writes a tombstone over the key reference; the key allocation
//! is pushed onto a deferred-free list released when the table is dropped
//! (the bounded baseline has no migrations to fold reclamation into —
//! `GrowMap` defers frees to a QSBR domain instead).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use growt_iface::sync::lock;
use growt_iface::{GenericMap, GenericMapHandle, InsertOrUpdate, TableFull, TryGrowError};

use growt_iface::inflight::{load_published_key, publish_key, INFLIGHT, REPAIRED_TOMBSTONE};

use super::{
    allocate_key, decode_keyref, free_key, hash_str, pack_keyref, signature_of, stored_matches,
};
use crate::config::{capacity_for, scale_to_capacity};

/// Key word of a never-used cell.
const EMPTY: u64 = 0;
/// Key word of a deleted cell (the allocation lives on the deferred list).
/// Identical to what a crashed in-flight claim is repaired to, so the
/// shared discipline's repairs look like ordinary deletions here.
const TOMBSTONE: u64 = REPAIRED_TOMBSTONE;

/// `true` when the key word is a published packed reference.
#[inline]
fn is_published(keyref: u64) -> bool {
    keyref != EMPTY && keyref != TOMBSTONE && keyref != INFLIGHT
}

/// `true` when the published packed reference `keyref` stores `key`,
/// whose master hash is `hash` and signature `signature`: the signature
/// first, the §5.7 pre-filter that decides most mismatches without
/// dereferencing, then the confirm `GrowMap<String, _>` runs too, header
/// word and bytes.
///
/// # Safety
///
/// `keyref` must be a packed reference whose allocation is still alive.
#[inline]
unsafe fn stores_key(keyref: u64, signature: u64, hash: u64, key: &str) -> bool {
    let (stored_signature, ptr) = decode_keyref(keyref);
    // SAFETY: the allocation is alive per the contract.
    stored_signature == signature && unsafe { stored_matches(ptr, hash, key) }
}

/// Outcome of a bounded insertion probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TryInsert {
    Inserted,
    Present,
    /// No empty cell on the probe path (tombstones are never reused).
    Full,
}

struct StringCell {
    keyref: AtomicU64,
    value: AtomicU64,
}

// SAFETY: all-zero bytes are `keyref == EMPTY` (0) and value 0 — exactly
// the never-used cell state `with_capacity` used to construct per cell.
unsafe impl crate::mem::ZeroInit for StringCell {}

/// A bounded concurrent hash map from string keys to `u64` values
/// (paper §5.7 over the folklore table of §4).
pub struct StringKeyTable {
    cells: crate::mem::HugeBox<StringCell>,
    capacity: usize,
    /// Key allocations of tombstoned cells; freed on drop.
    deferred: Mutex<Vec<*const u8>>,
}

impl StringKeyTable {
    /// Create a table for up to `expected_elements` string keys.
    pub fn with_capacity(expected_elements: usize) -> Self {
        let capacity = capacity_for(expected_elements.max(2));
        StringKeyTable {
            cells: crate::mem::HugeBox::zeroed(capacity),
            capacity,
            deferred: Mutex::new(Vec::new()),
        }
    }

    /// Number of cells.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `⟨key, value⟩`.  Returns `false` if the key is already
    /// present (the allocation is released again in that case) **or** if
    /// the probe found no empty cell — the bounded baseline never reuses
    /// tombstones, so every insert+erase cycle consumes one cell for
    /// good; [`StringKeyTable::insert_or_update`] turns the full-table
    /// case into a panic instead of looping, and the handle's
    /// `try_insert` into an error.
    pub fn insert(&self, key: &str, value: u64) -> bool {
        self.try_insert(key, value) == TryInsert::Inserted
    }

    fn try_insert(&self, key: &str, value: u64) -> TryInsert {
        // Owns the not-yet-published key allocation; freed on drop —
        // including an unwind from inside the publication window (an
        // injected fault there must not leak the allocation; the claimed
        // cell itself is repaired to a tombstone by later probes).
        struct PendingKey(Option<*const u8>);
        impl Drop for PendingKey {
            fn drop(&mut self) {
                if let Some(ptr) = self.0 {
                    // SAFETY: the allocation was never published.
                    unsafe { free_key(ptr) };
                }
            }
        }
        let hash = hash_str(key);
        let signature = signature_of(hash);
        let mut index = scale_to_capacity(hash, self.capacity);
        let mut allocation = PendingKey(None);
        'probe: {
            for _ in 0..self.capacity {
                let cell = &self.cells[index];
                loop {
                    let current = load_published_key(&cell.keyref);
                    if current == EMPTY {
                        let ptr = *allocation.0.get_or_insert_with(|| allocate_key(key, hash));
                        let packed = pack_keyref(signature, ptr);
                        match cell.keyref.compare_exchange(
                            EMPTY,
                            INFLIGHT,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => {
                                growt_failpoints::fire("string.inflight");
                                // Publication order (the §5.7 race fix):
                                // the value is initialized BEFORE the key
                                // reference becomes visible, so no probe
                                // can ever act on an unpublished value.
                                cell.value.store(value, Ordering::Release);
                                if publish_key(&cell.keyref, packed) {
                                    allocation.0 = None;
                                    break 'probe TryInsert::Inserted;
                                }
                                // We stalled inside the window so long
                                // that a probe declared us dead and
                                // repaired the cell to a tombstone.  The
                                // claim is lost for good (tombstones are
                                // never revived); keep the allocation and
                                // continue probing.
                                break;
                            }
                            Err(_) => continue, // re-examine the claimed cell
                        }
                    }
                    if current == TOMBSTONE {
                        // Tombstones are not reused by the bounded
                        // baseline (no migration ever reclaims them);
                        // probe past.
                        break;
                    }
                    // SAFETY: published references stay alive until drop.
                    if unsafe { stores_key(current, signature, hash, key) } {
                        break 'probe TryInsert::Present;
                    }
                    break;
                }
                index = (index + 1) & (self.capacity - 1);
            }
            TryInsert::Full
        }
    }

    /// The cell holding `key` and its published key word: the probe runs
    /// from the home cell to the first `EMPTY` one and passes over
    /// tombstones.
    fn locate(&self, key: &str) -> Option<(&StringCell, u64)> {
        let hash = hash_str(key);
        let signature = signature_of(hash);
        let mut index = scale_to_capacity(hash, self.capacity);
        for _ in 0..self.capacity {
            let cell = &self.cells[index];
            let current = load_published_key(&cell.keyref);
            if current == EMPTY {
                return None;
            }
            // SAFETY: published references stay alive until drop.
            if current != TOMBSTONE && unsafe { stores_key(current, signature, hash, key) } {
                return Some((cell, current));
            }
            index = (index + 1) & (self.capacity - 1);
        }
        None
    }

    /// Look up the value stored for `key`.  A returned value is always
    /// fully published: the `INFLIGHT` discipline guarantees the value
    /// store happened-before the key reference became visible.
    pub fn find(&self, key: &str) -> Option<u64> {
        self.locate(key)
            .map(|(cell, _)| cell.value.load(Ordering::Acquire))
    }

    /// Atomically replace the value of `key` by `up(current)`; returns
    /// `true` iff the key was present.  One read–derive–CAS loop on the
    /// value word, safe against concurrent insertion of the same key: the
    /// key reference only becomes visible after its value is initialized,
    /// so the update can never be overwritten by a late value store.
    pub fn update<F: Fn(&u64) -> u64>(&self, key: &str, up: F) -> bool {
        let Some((cell, current)) = self.locate(key) else {
            return false;
        };
        // The closure never declines, so this cannot fail.
        let _ = cell
            .value
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| Some(up(&v)));
        // A racing erase may have tombstoned the cell around the CAS: the
        // new value then landed in a value word nobody will ever read
        // again (tombstoned cells are skipped and never revived).  The key
        // word only transitions published → TOMBSTONE, so the re-read is
        // conclusive; linearize the update *after* the erase instead and
        // report the key as absent, so `insert_or_update` re-applies it —
        // no interleaving loses it.
        cell.keyref.load(Ordering::Acquire) == current
    }

    /// Insert `⟨key, value⟩` if absent, otherwise replace the stored value
    /// by `up(current)`; returns whether a new element was inserted.
    /// Loops until exactly one of the two is applied (a concurrent erase
    /// between a failed update and a failed insert restarts the attempt).
    ///
    /// # Panics
    ///
    /// When the probe finds neither the key nor an empty cell — the
    /// bounded baseline never reuses tombstones, so a workload that
    /// erases and reinserts eventually exhausts the fixed capacity.
    /// Failing loudly beats both silently dropping the update and
    /// retrying forever; size the table for the total number of
    /// *insertions*, or use `GrowMap`, whose cleanup migrations reclaim
    /// tombstones.
    pub fn insert_or_update<F: Fn(&u64) -> u64>(
        &self,
        key: &str,
        value: u64,
        up: F,
    ) -> InsertOrUpdate {
        match self.try_insert_or_update(key, value, up) {
            Ok(outcome) => outcome,
            Err(TableFull) => panic!(
                "StringKeyTable is full ({} cells, tombstones included): \
                 cannot apply insert_or_update",
                self.capacity
            ),
        }
    }

    /// Fallible [`StringKeyTable::insert_or_update`]: returns
    /// `Err(TableFull)` instead of panicking when the probe finds neither
    /// the key nor an empty cell, so callers that can shed load (or
    /// switch to a bigger table) get to decide.  Nothing is applied on
    /// error.
    pub fn try_insert_or_update<F: Fn(&u64) -> u64>(
        &self,
        key: &str,
        value: u64,
        up: F,
    ) -> Result<InsertOrUpdate, TableFull> {
        loop {
            if self.update(key, &up) {
                return Ok(InsertOrUpdate::Updated);
            }
            match self.try_insert(key, value) {
                TryInsert::Inserted => return Ok(InsertOrUpdate::Inserted),
                // The key appeared between the failed update and the
                // insert probe (or was erased mid-update): retry the
                // update.
                TryInsert::Present => continue,
                TryInsert::Full => return Err(TableFull),
            }
        }
    }

    /// Remove `key`, tombstoning its cell.  The key allocation is pushed
    /// onto the deferred-free list (released when the table drops), so
    /// concurrent readers still comparing against it stay safe.
    pub fn erase(&self, key: &str) -> bool {
        let Some((cell, current)) = self.locate(key) else {
            return false;
        };
        // The only way the CAS can fail is a racing eraser of the same key
        // winning first.
        let erased = cell
            .keyref
            .compare_exchange(current, TOMBSTONE, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if erased {
            let (_, ptr) = super::decode_keyref(current);
            lock(&self.deferred).push(ptr);
        }
        erased
    }

    /// Number of stored elements (linear scan; not linearizable).
    pub fn len_scan(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| is_published(c.keyref.load(Ordering::Relaxed)))
            .count()
    }
}

impl Drop for StringKeyTable {
    fn drop(&mut self) {
        for cell in self.cells.iter() {
            let keyref = cell.keyref.load(Ordering::Acquire);
            if is_published(keyref) {
                let (_, ptr) = super::decode_keyref(keyref);
                // SAFETY: published keyrefs always point to allocations
                // owned by this table; `Drop` has exclusive access.
                unsafe { free_key(ptr) };
            }
        }
        for ptr in lock(&self.deferred).drain(..) {
            // SAFETY: tombstoned allocations are owned solely by the
            // deferred list.
            unsafe { free_key(ptr) };
        }
    }
}

// SAFETY: the table owns its key allocations, which are immutable after
// publication; all shared mutation goes through atomics.
unsafe impl Send for StringKeyTable {}
// SAFETY: as above.
unsafe impl Sync for StringKeyTable {}

/// Per-thread handle of a [`StringKeyTable`] (trivial: the bounded table
/// carries no thread-local state).
pub struct StringKeyHandle<'a> {
    table: &'a StringKeyTable,
}

impl GenericMap<String, u64> for StringKeyTable {
    type Handle<'a> = StringKeyHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        StringKeyTable::with_capacity(capacity)
    }

    fn handle(&self) -> StringKeyHandle<'_> {
        StringKeyHandle { table: self }
    }

    fn map_name() -> &'static str {
        "stringFolklore"
    }
}

impl GenericMapHandle<String, u64> for StringKeyHandle<'_> {
    fn insert(&mut self, key: &String, value: &u64) -> bool {
        self.table.insert(key, *value)
    }

    fn find(&mut self, key: &String) -> Option<u64> {
        self.table.find(key)
    }

    fn update(&mut self, key: &String, up: &dyn Fn(&u64) -> u64) -> bool {
        self.table.update(key, up)
    }

    fn insert_or_update(
        &mut self,
        key: &String,
        value: &u64,
        up: &dyn Fn(&u64) -> u64,
    ) -> InsertOrUpdate {
        self.table.insert_or_update(key, *value, up)
    }

    fn erase(&mut self, key: &String) -> bool {
        self.table.erase(key)
    }

    fn size_estimate(&mut self) -> usize {
        self.table.len_scan()
    }

    /// A full table is an error here, not "already present": no cell is
    /// left for the key, and this table cannot grow to make one.
    fn try_insert(&mut self, key: &String, value: &u64) -> Result<bool, TryGrowError> {
        match self.table.try_insert(key, *value) {
            TryInsert::Inserted => Ok(true),
            TryInsert::Present => Ok(false),
            TryInsert::Full => Err(TryGrowError),
        }
    }

    fn try_insert_or_update(
        &mut self,
        key: &String,
        value: &u64,
        up: &dyn Fn(&u64) -> u64,
    ) -> Result<InsertOrUpdate, TryGrowError> {
        self.table
            .try_insert_or_update(key, *value, up)
            .map_err(|TableFull| TryGrowError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_find_strings() {
        let t = StringKeyTable::with_capacity(100);
        assert!(t.insert("alpha", 1));
        assert!(t.insert("beta", 2));
        assert!(!t.insert("alpha", 3));
        assert_eq!(t.find("alpha"), Some(1));
        assert_eq!(t.find("beta"), Some(2));
        assert_eq!(t.find("gamma"), None);
        assert_eq!(t.len_scan(), 2);
    }

    #[test]
    fn signature_collisions_resolved_by_full_compare() {
        // Keys engineered to have the same signature still compare correctly
        // because the full string is checked after the signature matches.
        let t = StringKeyTable::with_capacity(64);
        let a = "key-000".to_string();
        // Find another key with the same 14-bit signature.
        let mut b = None;
        for i in 0..200_000 {
            let candidate = format!("key-{i}");
            if candidate != a && signature_of(hash_str(&candidate)) == signature_of(hash_str(&a)) {
                b = Some(candidate);
                break;
            }
        }
        let b = b.expect("no signature collision found in 200k candidates");
        assert!(t.insert(&a, 1));
        assert!(t.insert(&b, 2));
        assert_eq!(t.find(&a), Some(1));
        assert_eq!(t.find(&b), Some(2));
    }

    #[test]
    fn concurrent_string_aggregation() {
        let t = Arc::new(StringKeyTable::with_capacity(1000));
        let words = [
            "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
        ];
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..8_000usize {
                        t.insert_or_update(words[i % words.len()], 1, |c| c + 1);
                    }
                });
            }
        });
        let total: u64 = words.iter().map(|w| t.find(w).unwrap()).sum();
        assert_eq!(total, 4 * 8_000);
        assert_eq!(t.len_scan(), words.len());
    }

    #[test]
    fn racing_insert_or_add_never_loses_a_delta() {
        // Regression test for the publication race of an earlier
        // revision: `insert` CASed the packed key reference into the cell
        // FIRST and stored the value AFTER, so a concurrent add racing
        // that window added its delta to the transient 0 and was then
        // silently overwritten by the inserter's late value store.  With
        // two threads hammering insert-or-add on a fresh key per round,
        // that code lost a delta within a few thousand rounds; the
        // INFLIGHT publication order makes the loss impossible.
        for round in 0..4_000u32 {
            let t = StringKeyTable::with_capacity(4);
            let key = format!("round-{round}");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let t = &t;
                    let key = key.as_str();
                    s.spawn(move || {
                        t.insert_or_update(key, 1, |c| c + 1);
                    });
                }
            });
            assert_eq!(
                t.find(&key),
                Some(2),
                "lost delta in round {round}: one add landed in the \
                 unpublished-value window"
            );
        }
    }

    #[test]
    fn find_never_observes_an_unpublished_value() {
        // Companion regression test: every value this test publishes is
        // non-zero, so any `find` that returns `Some(0)` has observed the
        // claimed-but-unpublished state the INFLIGHT spin must hide.
        let t = Arc::new(StringKeyTable::with_capacity(8_192));
        let total = 4_000u64;
        std::thread::scope(|s| {
            let writer = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..total {
                    writer.insert(&format!("pub-{i}"), 7_777);
                }
            });
            for _ in 0..2 {
                let reader = Arc::clone(&t);
                s.spawn(move || {
                    let mut hits = 0u64;
                    while hits < total {
                        hits = 0;
                        for i in 0..total {
                            if let Some(v) = reader.find(&format!("pub-{i}")) {
                                assert_eq!(v, 7_777, "unpublished value observed");
                                hits += 1;
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn erase_tombstones_and_later_probes_pass_over() {
        let t = StringKeyTable::with_capacity(64);
        assert!(t.insert("a", 1));
        assert!(t.insert("b", 2));
        assert!(t.erase("a"));
        assert!(!t.erase("a"));
        assert_eq!(t.find("a"), None);
        assert_eq!(t.find("b"), Some(2));
        assert_eq!(t.len_scan(), 1);
        // Reinsertion lands in a fresh cell (tombstones are not reused).
        assert!(t.insert("a", 10));
        assert_eq!(t.find("a"), Some(10));
        assert!(t.update("a", |v| v + 5));
        assert_eq!(t.find("a"), Some(15));
        assert!(t.erase("a"));
        assert!(!t.update("a", |v| v + 5), "update of an erased key");
    }

    #[test]
    fn insert_or_add_panics_instead_of_livelocking_on_a_full_table() {
        // Tombstones are never reused, so insert+erase cycles consume the
        // fixed capacity for good; insert_or_update must then fail loudly
        // rather than retry forever (the pre-fix loop spun indefinitely).
        let t = StringKeyTable::with_capacity(4);
        let cells = t.capacity();
        for i in 0..cells {
            assert!(t.insert(&format!("cycle-{i}"), 1), "cell {i}");
            assert!(t.erase(&format!("cycle-{i}")));
        }
        assert_eq!(t.len_scan(), 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.insert_or_update("does-not-fit", 1, |c| c + 1);
        }));
        assert!(result.is_err(), "full table must panic, not hang");
    }

    #[test]
    fn try_insert_on_a_full_table_is_an_error_not_a_duplicate() {
        // The plain `insert` answers `false` for both "present" and "no
        // cell left"; the handle's fallible insert must tell them apart.
        let t = StringKeyTable::with_capacity(32);
        assert_eq!(t.capacity(), 64);
        for i in 0..t.capacity() {
            assert!(t.insert(&format!("cycle-{i}"), 1), "cell {i}");
            assert!(t.erase(&format!("cycle-{i}")));
        }
        let mut h = GenericMap::handle(&t);
        assert_eq!(h.try_insert(&"fresh".to_string(), &1), Err(TryGrowError));
        assert_eq!(
            h.try_insert_or_update(&"fresh".to_string(), &1, &|c| c + 1),
            Err(TryGrowError)
        );
        assert_eq!(h.find(&"fresh".to_string()), None);
    }

    #[test]
    fn drop_frees_all_keys() {
        // Mostly a sanity check that Drop does not crash / double free,
        // including tombstoned allocations on the deferred list.
        let t = StringKeyTable::with_capacity(500);
        for i in 0..400 {
            assert!(t.insert(&format!("key-{i}"), i as u64));
        }
        for i in 0..100 {
            assert!(t.erase(&format!("key-{i}")));
        }
        drop(t);
    }

    #[test]
    fn unit_and_long_keys() {
        let t = StringKeyTable::with_capacity(16);
        let long = "x".repeat(10_000);
        assert!(t.insert("", 7));
        assert!(t.insert(&long, 8));
        assert_eq!(t.find(""), Some(7));
        assert_eq!(t.find(&long), Some(8));
    }
}
