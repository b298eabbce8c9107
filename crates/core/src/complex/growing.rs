//! The growing, deleting string-key table: §5.7 reference packing layered
//! on the growing machinery of this crate.
//!
//! [`GrowingStringTable`] reuses the word-table building blocks wholesale:
//!
//! * **cells** — 16-byte [`Cell`]s whose key word holds a packed reference
//!   (`signature << 48 | pointer`, bit 63 clear) and whose value word holds
//!   the counter, so insertion publishes `⟨reference, value⟩` with **one
//!   double-word CAS** (the structural fix of the bounded table's
//!   publication races: there is no in-flight window at all) and updates
//!   run the mark-aware full-cell CAS of the asynchronous protocol;
//! * **generations** — [`VersionedArc`]/[`CachedArc`] give the same
//!   zero-shared-traffic handle prologue as [`crate::grow::GrowHandle`]:
//!   the hot path borrows the current array from the handle-local cache
//!   with one version load, no shared refcount RMW;
//! * **counting** — [`GlobalCount`]/[`LocalCount`] drive the §5.2 growth
//!   trigger (`I ≥ α·capacity`), which also fires cleanup migrations on
//!   deletion-heavy workloads because `I` counts tombstones;
//! * **migration** — blocks of source cells are frozen with
//!   [`Cell::mark_for_migration`] and re-inserted into the target by
//!   *re-deriving the home cell from the master hash stored in the key
//!   allocation* (the rehash path of [`crate::migrate`]; the cluster
//!   shortcut of Lemma 1 would apply too, but a reference cell's position
//!   depends on the string hash, which only the allocation header knows
//!   without a dereference per probe);
//! * **reclamation** — deletion tombstones the reference and retires the
//!   key allocation into a [`QsbrDomain`]; it is freed only after every
//!   registered handle has passed a quiescent state, so no concurrent
//!   probe can dereference freed key bytes.  Retired *arrays* are still
//!   handled by the counted-pointer scheme; the QSBR domain only guards
//!   the key allocations, which outlive any single generation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use growt_iface::{InsertOrUpdate, StringMap, StringMapHandle};
use growt_reclaim::{CachedArc, QsbrDomain, QsbrParticipant, VersionedArc};

use super::{
    allocate_key, decode_keyref, free_key, hash_str, key_matches, pack_keyref, signature_of,
    stored_hash, KeyAllocation, POINTER_BITS,
};
use crate::cell::{is_marked, unmark, Cell, DEL_KEY, EMPTY_KEY};
use crate::config::{capacity_for, scale_to_capacity, GrowConfig, PROBE_LIMIT};
use crate::coord::{Coordinator, GrowProtocol, MigrationJob};
use crate::count::{GlobalCount, LocalCount};

/// `true` when an (unmarked) key word is a published packed reference.
#[inline]
fn is_packed(keyword: u64) -> bool {
    keyword >= (1 << POINTER_BITS)
}

/// One table generation: a power-of-two array of word-table cells whose
/// key words hold packed string references.  The array never owns the key
/// allocations (they outlive generations); the subsystem frees live keys
/// when the whole table drops and erased keys through the QSBR domain.
struct StringArray {
    cells: crate::mem::HugeBox<Cell>,
    capacity: usize,
    version: u64,
}

/// Per-element outcome of the array-level operations (mirrors the
/// word-table outcome enums, compressed to what the handle loop needs).
enum ArrayOutcome {
    /// A new element was inserted.
    Inserted,
    /// The key existed; `delta` was added (or, for plain insert, nothing
    /// happened).  Carries the previous value.
    Found(u64),
    /// The key is absent.
    NotFound,
    /// Probe limit reached: grow, then retry.
    Full,
    /// A marked cell was encountered: help the migration, then retry.
    Migrating,
}

enum EraseOutcome {
    /// The cell was tombstoned; the reference must be retired.
    Erased(*const u8),
    NotFound,
    Migrating,
}

impl StringArray {
    fn new(capacity: usize, version: u64) -> Self {
        Self::try_new(capacity, version).expect("initial string-table allocation failed")
    }

    /// Fallible constructor used by migrations: an OOM while allocating
    /// the next generation degrades to "keep serving the old one" (see
    /// [`StringInner::grow`]) instead of aborting.
    fn try_new(capacity: usize, version: u64) -> Result<Self, crate::mem::AllocError> {
        assert!(capacity.is_power_of_two());
        Ok(StringArray {
            // Zeroed cells are `Cell::new()` (EMPTY_KEY, value 0);
            // hugepage-backed once the generation reaches 2 MiB.
            cells: crate::mem::HugeBox::try_zeroed(capacity)?,
            capacity,
            version,
        })
    }

    #[inline]
    fn home_cell(&self, hash: u64) -> usize {
        scale_to_capacity(hash, self.capacity)
    }

    #[inline]
    fn probe_limit(&self) -> usize {
        self.capacity.min(PROBE_LIMIT)
    }

    /// Look up `key`.  Reads tolerate marked (frozen) cells: the frozen
    /// contents are the linearizable state at freeze time, exactly like
    /// the word table's stale-generation reads.
    fn find(&self, hash: u64, key: &str) -> Option<u64> {
        let signature = signature_of(hash);
        let mut index = self.home_cell(hash);
        for _ in 0..self.probe_limit() {
            // Key read before value (§4): the pair CAS publication means a
            // torn read can only observe a newer value for this key.
            let (k, v) = self.cells[index].read();
            let plain = unmark(k);
            if plain == EMPTY_KEY {
                return None;
            }
            // SAFETY: packed references observed through a live array are
            // QSBR-protected until this handle's next quiescent state.
            if is_packed(plain) && unsafe { key_matches(plain, signature, key) } {
                return Some(v);
            }
            index = (index + 1) & (self.capacity - 1);
        }
        None
    }

    /// Insert `⟨key, value⟩` if absent; `alloc` carries the (at most one)
    /// key allocation across retries so a migration loop never allocates
    /// twice.  On `Inserted` the allocation is consumed (published).
    fn insert(
        &self,
        hash: u64,
        key: &str,
        value: u64,
        alloc: &mut Option<*const u8>,
    ) -> ArrayOutcome {
        self.upsert(hash, key, value, alloc, false)
    }

    /// The word-count primitive: insert `⟨key, delta⟩` or atomically add
    /// `delta` to the existing value with the mark-aware full-cell CAS.
    fn upsert_add(
        &self,
        hash: u64,
        key: &str,
        delta: u64,
        alloc: &mut Option<*const u8>,
    ) -> ArrayOutcome {
        self.upsert(hash, key, delta, alloc, true)
    }

    fn upsert(
        &self,
        hash: u64,
        key: &str,
        value: u64,
        alloc: &mut Option<*const u8>,
        add: bool,
    ) -> ArrayOutcome {
        let signature = signature_of(hash);
        let mut index = self.home_cell(hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    return ArrayOutcome::Migrating;
                }
                if k == EMPTY_KEY {
                    let ptr = *alloc.get_or_insert_with(|| allocate_key(key, hash));
                    let packed = pack_keyref(signature, ptr);
                    match cell.cas_pair((EMPTY_KEY, 0), (packed, value)) {
                        Ok(()) => {
                            *alloc = None; // published: the table owns it now
                            return ArrayOutcome::Inserted;
                        }
                        Err(_) => continue, // re-examine the claimed cell
                    }
                }
                if k == DEL_KEY {
                    break; // tombstone: reclaimed by the next migration
                }
                // SAFETY: packed references observed through a live array
                // are QSBR-protected until the next quiescent state.
                if unsafe { key_matches(k, signature, key) } {
                    if !add {
                        return ArrayOutcome::Found(v);
                    }
                    // Mark-aware value update: the full-cell CAS fails if
                    // a migration froze the cell (or an eraser tombstoned
                    // it) after the read above, so no delta can leak into
                    // an already-copied or deleted cell.
                    match cell.cas_pair((k, v), (k, v.wrapping_add(value))) {
                        Ok(()) => return ArrayOutcome::Found(v),
                        Err(_) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        ArrayOutcome::Full
    }

    /// Add `delta` to an existing key (no insertion).
    fn fetch_add(&self, hash: u64, key: &str, delta: u64) -> ArrayOutcome {
        let signature = signature_of(hash);
        let mut index = self.home_cell(hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    return ArrayOutcome::Migrating;
                }
                if k == EMPTY_KEY {
                    return ArrayOutcome::NotFound;
                }
                if k == DEL_KEY {
                    break;
                }
                // SAFETY: see `upsert`.
                if unsafe { key_matches(k, signature, key) } {
                    match cell.cas_pair((k, v), (k, v.wrapping_add(delta))) {
                        Ok(()) => return ArrayOutcome::Found(v),
                        Err(_) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        ArrayOutcome::NotFound
    }

    /// Tombstone `key`.  The value word is preserved in the tombstone CAS
    /// expectation so a racing value update cannot be silently dropped,
    /// and the caller receives the reference pointer for deferred
    /// reclamation.
    fn erase(&self, hash: u64, key: &str) -> EraseOutcome {
        let signature = signature_of(hash);
        let mut index = self.home_cell(hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    if unmark(k) == EMPTY_KEY {
                        return EraseOutcome::NotFound;
                    }
                    // SAFETY: see `upsert`.
                    if is_packed(unmark(k)) && unsafe { key_matches(unmark(k), signature, key) } {
                        return EraseOutcome::Migrating;
                    }
                    break;
                }
                if k == EMPTY_KEY {
                    return EraseOutcome::NotFound;
                }
                if k == DEL_KEY {
                    break;
                }
                // SAFETY: see `upsert`.
                if unsafe { key_matches(k, signature, key) } {
                    match cell.cas_pair((k, v), (DEL_KEY, v)) {
                        Ok(()) => {
                            let (_, ptr) = decode_keyref(k);
                            return EraseOutcome::Erased(ptr);
                        }
                        Err(_) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        EraseOutcome::NotFound
    }

    /// Count live elements (quiescent scan).
    fn scan_live(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| is_packed(unmark(c.load_key())))
            .count()
    }
}

/// Freeze the cells `[block_start, block_end)` of `src` and re-insert the
/// live references into `dst`, re-deriving each home cell from the master
/// hash stored in the key allocation (the rehash migration path; correct
/// for any capacity ratio, including cleanup and shrink steps).  Returns
/// the number of live elements moved.
///
/// **Idempotent**: a block may be copied more than once when a rescuer
/// re-claims the lease of a crashed (or merely stalled) owner.  Marking
/// is a one-way freeze, so every copy observes the same frozen pairs, and
/// the placement loop skips a target cell that already holds the same
/// packed reference — pointer equality identifies the element, since each
/// key allocation is unique.  Only the copy that actually claims the
/// empty cell counts the element, so `migrated` stays exact.
fn migrate_string_block(
    src: &StringArray,
    dst: &StringArray,
    block_start: usize,
    block_end: usize,
) -> usize {
    let mut migrated = 0usize;
    for index in block_start..block_end {
        // Freeze: after the mark no writer can touch the cell, so the
        // returned ⟨reference, value⟩ pair is final.  Tombstones are
        // dropped here, which is exactly when their cells are reclaimed
        // (their allocations were already retired at erase time).
        let (k, v) = src.cells[index].mark_for_migration();
        if !is_packed(k) {
            continue;
        }
        let (_, ptr) = decode_keyref(k);
        // SAFETY: the reference was live when frozen; erased references
        // are only freed after all handles quiesce, and migrating threads
        // quiesce only between operations.
        let hash = unsafe { stored_hash(ptr) };
        let mut pos = dst.home_cell(hash);
        let mut walked = 0usize;
        loop {
            assert!(
                walked <= dst.capacity,
                "string migration found no empty target cell"
            );
            let existing = dst.cells[pos].load_key();
            if is_marked(existing) {
                // The target is itself being migrated, so this migration
                // was finalized long ago: a rescuer completed this block
                // while its owner (this thread) was stalled.  Nothing is
                // left to do — and a frozen target has no empty cell to
                // find.
                return migrated;
            }
            if existing == k {
                // An earlier copy of this block already placed the
                // reference; nothing to do (and nothing to count).
                break;
            }
            if existing == EMPTY_KEY {
                // Writers never touch the target before it is published,
                // and every source cell holds a distinct key, so claiming
                // an empty cell is the only synchronization migrators need
                // among themselves.
                match dst.cells[pos].cas_pair((EMPTY_KEY, 0), (k, v)) {
                    Ok(()) => {
                        migrated += 1;
                        break;
                    }
                    Err(_) => continue, // re-read the claimed cell
                }
            }
            pos = (pos + 1) & (dst.capacity - 1);
            walked += 1;
        }
    }
    migrated
}

/// Everything shared between handles and the owner.  The migration
/// machinery is the shared §12 coordinator ([`crate::coord`]); this table
/// instantiates it with the axes it needs — enslavement with asynchronous
/// marking, no pool, no synchronized quiescence, no degenerate-cluster
/// recovery (the rehash migration does not depend on empty cells) — via
/// its [`GrowProtocol`] impl below.
struct StringInner {
    current: VersionedArc<StringArray>,
    counts: GlobalCount,
    coordinator: Coordinator<StringArray>,
    grow: GrowConfig,
    threads_hint: usize,
    domain: Arc<QsbrDomain>,
    handle_seed: AtomicU64,
}

/// A concurrent, transparently growing hash map from string keys to `u64`
/// counters (paper §5.7 + §5.3), with deletion and QSBR-deferred key
/// reclamation.  The growing strategy is enslavement with asynchronous
/// marking (the paper's default, uaGrow).
pub struct GrowingStringTable {
    inner: Arc<StringInner>,
}

/// Point-in-time migration diagnostics of a [`GrowingStringTable`].
#[derive(Debug, Clone, Copy)]
pub struct StringMigrationStats {
    /// Completed migrations (growth, cleanup or shrink steps).
    pub migrations_completed: u64,
    /// Capacity of the current generation.
    pub current_capacity: usize,
    /// Key allocations retired but not yet reclaimed by the QSBR domain.
    pub pending_reclamation: usize,
}

impl GrowingStringTable {
    /// Create a table with an initial capacity hint, the given growth
    /// policy and an expected thread count (sizes the randomized counter
    /// flush threshold).
    pub fn with_config(initial_capacity: usize, grow: GrowConfig, threads_hint: usize) -> Self {
        let capacity = capacity_for(initial_capacity.max(2));
        GrowingStringTable {
            inner: Arc::new(StringInner {
                current: VersionedArc::new(StringArray::new(capacity, 1)),
                counts: GlobalCount::new(),
                coordinator: Coordinator::new(),
                grow,
                threads_hint: threads_hint.max(1),
                domain: Arc::new(QsbrDomain::new()),
                handle_seed: AtomicU64::new(0x9E3779B97F4A7C15),
            }),
        }
    }

    /// Create a table with the default growth policy.
    pub fn new(initial_capacity: usize) -> Self {
        Self::with_config(
            initial_capacity,
            GrowConfig::default(),
            crate::cpu::available_parallelism(),
        )
    }

    /// Obtain a per-thread handle.
    pub fn handle(&self) -> StringHandle<'_> {
        StringHandle::new(&self.inner)
    }

    /// Number of completed migrations (growth, cleanup or shrink steps).
    pub fn migrations_completed(&self) -> u64 {
        self.inner
            .coordinator
            .migrations_completed
            .load(Ordering::Acquire)
    }

    /// Capacity of the current table generation.
    pub fn current_capacity(&self) -> usize {
        self.inner.current.with_current(|a| a.capacity)
    }

    /// Approximate number of live elements (`I − D`, §5.2).
    pub fn size_estimate(&self) -> usize {
        self.inner.counts.live_estimate() as usize
    }

    /// Exact number of live elements, valid only in the absence of
    /// concurrent modifications.
    pub fn size_exact_quiescent(&self) -> usize {
        self.inner.current.with_current(|a| a.scan_live())
    }

    /// Migration and reclamation diagnostics.
    pub fn stats(&self) -> StringMigrationStats {
        StringMigrationStats {
            migrations_completed: self.migrations_completed(),
            current_capacity: self.current_capacity(),
            pending_reclamation: self.inner.domain.pending(),
        }
    }
}

impl Drop for GrowingStringTable {
    fn drop(&mut self) {
        // All handles are gone (they borrow `self`), so the current array
        // holds the only reachable copy of every live reference; retired
        // generations alias a subset of them and are never freed from.
        // Erased references live solely in the QSBR limbo list, whose
        // deferred drops run when the domain is dropped with the inner
        // (each deferred object is a `KeyAllocation`, so dropping it frees
        // the buffer exactly once).
        self.inner.current.with_current(|array| {
            for cell in array.cells.iter() {
                let k = unmark(cell.load_key());
                if is_packed(k) {
                    let (_, ptr) = decode_keyref(k);
                    // SAFETY: exclusive access; live references are owned
                    // by the subsystem and freed exactly here.
                    unsafe { free_key(ptr) };
                }
            }
        });
    }
}

/// The string table's instantiation of the shared §12 coordinator
/// ([`crate::coord`]): generations are [`StringArray`]s and block copies
/// run the rehash migration of [`migrate_string_block`].  Everything else
/// keeps the trait defaults — enslavement with asynchronous marking, no
/// pool to signal, no synchronized quiescence (hence `Leader = ()`), no
/// degenerate-cluster recovery (the rehash migration does not depend on
/// empty cells).  The `rehash` flag the generic `prepare_migration`
/// computes is ignored here: every string migration re-derives home cells
/// from the stored master hash, which is correct for any capacity ratio.
impl GrowProtocol for StringInner {
    type Gen = StringArray;
    type Leader = ();

    const FP_PREPARE_ALLOC: &'static str = "string.prepare.alloc";
    const FP_BLOCK_CLAIMED: &'static str = "string.block.claimed";
    const FP_FINALIZE: &'static str = "string.finalize";

    fn coord(&self) -> &Coordinator<StringArray> {
        &self.coordinator
    }

    fn generations(&self) -> &VersionedArc<StringArray> {
        &self.current
    }

    fn counts(&self) -> &GlobalCount {
        &self.counts
    }

    fn grow_config(&self) -> &GrowConfig {
        &self.grow
    }

    fn capacity_of(array: &StringArray) -> usize {
        array.capacity
    }

    fn alloc_generation(
        &self,
        _source: &StringArray,
        new_capacity: usize,
        version: u64,
    ) -> Result<StringArray, crate::mem::AllocError> {
        StringArray::try_new(new_capacity, version)
    }

    fn copy_range(&self, job: &MigrationJob<StringArray>, start: usize, end: usize) -> usize {
        migrate_string_block(&job.source, &job.target, start, end)
    }
}

// SAFETY: the raw pointers inside cells reference heap allocations whose
// lifetime is managed by the subsystem (QSBR for erased keys, table drop
// for live ones); all shared mutation goes through atomics.
unsafe impl Send for GrowingStringTable {}
unsafe impl Sync for GrowingStringTable {}

/// How many operations a handle performs between automatic quiescent-state
/// announcements.  Each announcement is a store to the participant's own
/// state plus an opportunistic reclamation attempt, so the cadence
/// amortizes the (mutex-protected) reclamation scan while keeping the
/// reclamation lag bounded by a few dozen operations per handle.
const QUIESCE_INTERVAL: u32 = 64;

/// Owns a not-yet-published key allocation across operation retries;
/// freed on drop — including an unwind out of a migration help call or an
/// injected fault — so a crashed operation never leaks the key buffer.
struct PendingAlloc(Option<*const u8>);

impl Drop for PendingAlloc {
    fn drop(&mut self) {
        if let Some(ptr) = self.0 {
            // SAFETY: allocated by this operation and never published.
            unsafe { free_key(ptr) };
        }
    }
}

/// Per-thread handle of a [`GrowingStringTable`] (§5.1).
pub struct StringHandle<'a> {
    inner: &'a StringInner,
    cached: CachedArc<StringArray>,
    local: LocalCount,
    qsbr: QsbrParticipant,
    since_quiesce: u32,
}

impl<'a> StringHandle<'a> {
    fn new(inner: &'a StringInner) -> Self {
        let seed = inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        StringHandle {
            cached: CachedArc::new(&inner.current),
            local: LocalCount::new(inner.threads_hint, seed),
            qsbr: inner.domain.register(),
            since_quiesce: 0,
            inner,
        }
    }

    /// The zero-shared-traffic operation prologue (§5.3.2): borrow the
    /// current generation from the handle-local cache — one version load,
    /// no `Arc::clone`, no shared refcount RMW.  Taken through disjoint
    /// fields so the caller keeps `&mut self` for the epilogue.
    #[inline]
    fn array_ref<'t>(
        cached: &'t mut CachedArc<StringArray>,
        local: &mut LocalCount,
        inner: &StringInner,
    ) -> &'t StringArray {
        let (array, refreshed) = cached.get_ref(&inner.current);
        if refreshed {
            Self::reset_local_counts(local, inner);
        }
        array
    }

    /// Refresh epilogue, once per handle per migration: pending local
    /// counts belong to an already-migrated generation whose elements the
    /// migration counted exactly.
    #[cold]
    fn reset_local_counts(local: &mut LocalCount, inner: &StringInner) {
        *local = LocalCount::new(
            inner.threads_hint,
            inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed),
        );
    }

    /// Operation epilogue: the handle holds no table references any more,
    /// so every [`QUIESCE_INTERVAL`] operations it announces a quiescent
    /// state, letting the domain free keys erased since the last
    /// announcement.  The announcement is one store to the participant's
    /// own state; the attached reclamation attempt takes the domain
    /// locks only while retired allocations are actually pending
    /// (`QsbrDomain::try_reclaim`'s empty-limbo fast path), so
    /// erase-free workloads pay no shared locking here.
    #[inline]
    fn op_done(&mut self) {
        self.since_quiesce += 1;
        if self.since_quiesce >= QUIESCE_INTERVAL {
            self.since_quiesce = 0;
            self.qsbr.quiescent();
        }
    }

    /// Handle a successful insertion: update the approximate count and
    /// trigger a migration when the fill threshold is reached.
    #[inline]
    fn after_insert(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold {
                self.inner.grow(version, &());
            }
        }
    }

    /// Best-effort variant of [`StringHandle::after_insert`] for the
    /// `try_*` operations: a growth trigger that cannot allocate is
    /// dropped (a later insert re-triggers it) instead of entering the
    /// infallible backoff loop.
    #[inline]
    fn after_insert_best_effort(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold {
                let _ = self.inner.try_grow(version, &());
            }
        }
    }

    #[inline]
    fn after_delete(&mut self) {
        self.local.record_deletion(&self.inner.counts);
    }

    /// Insert `⟨key, value⟩`; returns `true` iff the key was not present.
    pub fn insert(&mut self, key: &str, value: u64) -> bool {
        let hash = hash_str(key);
        let mut alloc = PendingAlloc(None);
        let inserted = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.insert(hash, key, value, &mut alloc.0) {
                ArrayOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break true;
                }
                ArrayOutcome::Found(_) | ArrayOutcome::NotFound => break false,
                ArrayOutcome::Full => self.inner.grow(version, &()),
                ArrayOutcome::Migrating => self.inner.help_or_wait(version),
            }
        };
        self.op_done();
        inserted
    }

    /// Fallible [`StringHandle::insert`]: when making room would require
    /// growing and the next generation cannot be allocated within a
    /// bounded number of retries, returns `Err(TryGrowError)` instead of
    /// blocking until memory appears.  The element is **not** inserted on
    /// error; the table stays valid and keeps serving its current
    /// generation.
    pub fn try_insert(&mut self, key: &str, value: u64) -> Result<bool, growt_iface::TryGrowError> {
        let hash = hash_str(key);
        let mut alloc = PendingAlloc(None);
        let result = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.insert(hash, key, value, &mut alloc.0) {
                ArrayOutcome::Inserted => {
                    self.after_insert_best_effort(capacity, version);
                    break Ok(true);
                }
                ArrayOutcome::Found(_) | ArrayOutcome::NotFound => break Ok(false),
                ArrayOutcome::Full => {
                    if self.inner.try_grow(version, &()).is_err() {
                        break Err(growt_iface::TryGrowError);
                    }
                }
                ArrayOutcome::Migrating => self.inner.help_or_wait(version),
            }
        };
        self.op_done();
        result
    }

    /// Look up the value stored for `key`.  May run on a slightly stale
    /// (frozen, immutable) generation, which is linearizable exactly like
    /// the word table's stale reads.
    pub fn find(&mut self, key: &str) -> Option<u64> {
        let hash = hash_str(key);
        let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
        let found = array.find(hash, key);
        self.op_done();
        found
    }

    /// Atomically add `delta` to the value of an existing `key`; returns
    /// the previous value.
    pub fn fetch_add(&mut self, key: &str, delta: u64) -> Option<u64> {
        let hash = hash_str(key);
        let result = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let version = array.version;
            match array.fetch_add(hash, key, delta) {
                ArrayOutcome::Found(old) => break Some(old),
                ArrayOutcome::NotFound => break None,
                ArrayOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: `fetch_add` never inserts and reports an
                // exhausted probe as `NotFound`, not `Full`.
                ArrayOutcome::Inserted | ArrayOutcome::Full => unreachable!(),
            }
        };
        self.op_done();
        result
    }

    /// Insert `⟨key, delta⟩` or atomically add `delta` to the existing
    /// value — the word-count primitive.  No interleaving with concurrent
    /// inserters, eraser or migrations can lose a delta.
    pub fn insert_or_add(&mut self, key: &str, delta: u64) -> InsertOrUpdate {
        let hash = hash_str(key);
        let mut alloc = PendingAlloc(None);
        let outcome = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert_add(hash, key, delta, &mut alloc.0) {
                ArrayOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break InsertOrUpdate::Inserted;
                }
                ArrayOutcome::Found(_) => break InsertOrUpdate::Updated,
                ArrayOutcome::Full => self.inner.grow(version, &()),
                ArrayOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: `upsert` reports an absent key by inserting
                // it (or `Full`), never as `NotFound`.
                ArrayOutcome::NotFound => unreachable!(),
            }
        };
        self.op_done();
        outcome
    }

    /// Fallible [`StringHandle::insert_or_add`]; see
    /// [`StringHandle::try_insert`] for the error contract.  The delta is
    /// **not** applied on error.
    pub fn try_insert_or_add(
        &mut self,
        key: &str,
        delta: u64,
    ) -> Result<InsertOrUpdate, growt_iface::TryGrowError> {
        let hash = hash_str(key);
        let mut alloc = PendingAlloc(None);
        let result = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert_add(hash, key, delta, &mut alloc.0) {
                ArrayOutcome::Inserted => {
                    self.after_insert_best_effort(capacity, version);
                    break Ok(InsertOrUpdate::Inserted);
                }
                ArrayOutcome::Found(_) => break Ok(InsertOrUpdate::Updated),
                ArrayOutcome::Full => {
                    if self.inner.try_grow(version, &()).is_err() {
                        break Err(growt_iface::TryGrowError);
                    }
                }
                ArrayOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: `upsert` reports an absent key by inserting
                // it (or `Full`), never as `NotFound`.
                ArrayOutcome::NotFound => unreachable!(),
            }
        };
        self.op_done();
        result
    }

    /// Delete `key`: tombstone the reference and retire the key
    /// allocation into the QSBR domain (freed once every handle has
    /// passed a quiescent state, §5.4 + §5.7).
    pub fn erase(&mut self, key: &str) -> bool {
        let hash = hash_str(key);
        let erased = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let version = array.version;
            match array.erase(hash, key) {
                EraseOutcome::Erased(ptr) => {
                    self.qsbr.retire(KeyAllocation(ptr));
                    // A thread dying right after retiring must not strand
                    // the allocation: the handle's Drop (participant
                    // unregistration) lets the domain reclaim it.
                    growt_failpoints::fire("string.erase.retired");
                    self.after_delete();
                    break true;
                }
                EraseOutcome::NotFound => break false,
                EraseOutcome::Migrating => self.inner.help_or_wait(version),
            }
        };
        self.op_done();
        erased
    }

    /// Announce a quiescent state immediately (also runs automatically
    /// every [`QUIESCE_INTERVAL`] operations).
    pub fn quiesce(&mut self) {
        self.since_quiesce = 0;
        self.qsbr.quiescent();
    }

    /// Approximate number of live elements.
    pub fn size_estimate(&mut self) -> usize {
        self.inner.counts.live_estimate() as usize
    }

    /// Flush the handle's buffered counter contributions.
    pub fn flush_counts(&mut self) {
        self.local.flush(&self.inner.counts);
    }
}

impl Drop for StringHandle<'_> {
    fn drop(&mut self) {
        self.local.flush(&self.inner.counts);
        // The participant's own Drop unregisters it from the domain and
        // runs a final reclamation attempt.
    }
}

impl StringMap for GrowingStringTable {
    type Handle<'a> = StringHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        GrowingStringTable::new(capacity)
    }

    fn handle(&self) -> StringHandle<'_> {
        GrowingStringTable::handle(self)
    }

    fn map_name() -> &'static str {
        "stringGrow"
    }

    fn growing() -> bool {
        true
    }
}

impl StringMapHandle for StringHandle<'_> {
    fn insert(&mut self, key: &str, value: u64) -> bool {
        StringHandle::insert(self, key, value)
    }

    fn find(&mut self, key: &str) -> Option<u64> {
        StringHandle::find(self, key)
    }

    fn fetch_add(&mut self, key: &str, delta: u64) -> Option<u64> {
        StringHandle::fetch_add(self, key, delta)
    }

    fn insert_or_add(&mut self, key: &str, delta: u64) -> InsertOrUpdate {
        StringHandle::insert_or_add(self, key, delta)
    }

    fn try_insert(&mut self, key: &str, value: u64) -> Result<bool, growt_iface::TryGrowError> {
        StringHandle::try_insert(self, key, value)
    }

    fn try_insert_or_add(
        &mut self,
        key: &str,
        delta: u64,
    ) -> Result<InsertOrUpdate, growt_iface::TryGrowError> {
        StringHandle::try_insert_or_add(self, key, delta)
    }

    fn erase(&mut self, key: &str) -> bool {
        StringHandle::erase(self, key)
    }

    fn quiesce(&mut self) {
        StringHandle::quiesce(self)
    }

    fn size_estimate(&mut self) -> usize {
        StringHandle::size_estimate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_table() -> GrowingStringTable {
        GrowingStringTable::with_config(16, GrowConfig::default(), 4)
    }

    #[test]
    fn grows_from_tiny_capacity_single_thread() {
        let table = tiny_table();
        let mut h = table.handle();
        let n = 20_000u64;
        for i in 0..n {
            assert!(h.insert(&format!("key-{i}"), i), "insert key-{i}");
        }
        assert!(table.migrations_completed() > 0, "never migrated");
        assert!(table.current_capacity() >= 2 * n as usize);
        for i in 0..n {
            assert_eq!(h.find(&format!("key-{i}")), Some(i), "find key-{i}");
        }
        assert_eq!(table.size_exact_quiescent(), n as usize);
        h.flush_counts();
        let estimate = h.size_estimate();
        assert!(
            (estimate as i64 - n as i64).abs() <= 64,
            "estimate {estimate} vs {n}"
        );
    }

    #[test]
    fn duplicate_inserts_have_one_winner_across_growth() {
        let table = tiny_table();
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let table = &table;
                let successes = &successes;
                s.spawn(move || {
                    let mut h = table.handle();
                    for i in 0..3_000u64 {
                        if h.insert(&format!("dup-{i}"), i) {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::Relaxed), 3_000);
        assert_eq!(table.size_exact_quiescent(), 3_000);
        assert!(table.migrations_completed() > 0);
    }

    #[test]
    fn word_aggregation_is_exact_across_growth() {
        let table = tiny_table();
        let threads = 4u64;
        let per_thread = 10_000u64;
        let distinct = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                s.spawn(move || {
                    let mut h = table.handle();
                    for i in 0..per_thread {
                        let word = format!("word-{}", (i.wrapping_mul(t + 1)) % distinct);
                        h.insert_or_add(&word, 1);
                    }
                });
            }
        });
        let mut h = table.handle();
        let mut total = 0u64;
        for w in 0..distinct {
            total += h.find(&format!("word-{w}")).unwrap_or(0);
        }
        assert_eq!(
            table.size_exact_quiescent(),
            distinct as usize,
            "duplicate keys survived a migration"
        );
        assert_eq!(total, threads * per_thread, "lost increments");
        assert!(table.migrations_completed() > 0, "no migration exercised");
    }

    #[test]
    fn deletion_triggers_cleanup_and_bounds_capacity() {
        let table = GrowingStringTable::with_config(1 << 10, GrowConfig::default(), 2);
        let mut h = table.handle();
        let window = 500u64;
        for i in 0..20_000u64 {
            assert!(h.insert(&format!("w-{i}"), i));
            if i >= window {
                assert!(
                    h.erase(&format!("w-{}", i - window)),
                    "erase w-{}",
                    i - window
                );
            }
        }
        assert!(table.migrations_completed() > 0, "cleanup never ran");
        for i in 20_000 - window..20_000 {
            assert_eq!(h.find(&format!("w-{i}")), Some(i));
        }
        assert_eq!(h.find("w-0"), None);
        assert_eq!(table.size_exact_quiescent(), window as usize);
        assert!(
            table.current_capacity() <= 1 << 13,
            "capacity exploded: {}",
            table.current_capacity()
        );
        // Quiescing the only handle reclaims every retired allocation.
        h.quiesce();
        assert_eq!(table.stats().pending_reclamation, 0);
    }

    #[test]
    fn erase_and_reinsert_round_trip() {
        let table = tiny_table();
        let mut h = table.handle();
        assert!(h.insert("transient", 5));
        assert_eq!(h.fetch_add("transient", 3), Some(5));
        assert!(h.erase("transient"));
        assert!(!h.erase("transient"));
        assert_eq!(h.find("transient"), None);
        assert_eq!(h.fetch_add("transient", 1), None);
        assert!(h.insert_or_add("transient", 9).inserted());
        assert_eq!(h.find("transient"), Some(9));
    }

    #[test]
    fn finds_remain_consistent_during_growth() {
        let table = tiny_table();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer_table = &table;
            let stop_ref = &stop;
            s.spawn(move || {
                let mut h = writer_table.handle();
                for i in 0..15_000u64 {
                    h.insert(&format!("c-{i}"), i);
                }
                stop_ref.store(true, Ordering::Release);
            });
            for _ in 0..2 {
                let table = &table;
                let stop_ref = &stop;
                s.spawn(move || {
                    let mut h = table.handle();
                    let mut frontier = 0u64;
                    while !stop_ref.load(Ordering::Acquire) {
                        for i in 0..frontier {
                            assert_eq!(h.find(&format!("c-{i}")), Some(i), "lost c-{i}");
                        }
                        if h.find(&format!("c-{}", frontier + 500)).is_some() {
                            frontier += 500;
                        }
                    }
                });
            }
        });
        assert_eq!(table.size_exact_quiescent(), 15_000);
    }

    #[test]
    fn readers_race_erasers_safely() {
        // Readers dereference key bytes while erasers concurrently retire
        // the allocations into the QSBR domain; under the quiescence
        // protocol no probe may ever touch freed memory (run under the
        // sanitizer-free test build this is a liveness/correctness smoke,
        // and any use-after-free corrupts the byte compare and fails the
        // value assertions).
        let table = GrowingStringTable::with_config(1 << 10, GrowConfig::default(), 4);
        let n = 2_000u64;
        {
            let mut h = table.handle();
            for i in 0..n {
                h.insert(&format!("re-{i}"), i + 1);
            }
        }
        std::thread::scope(|s| {
            // Two reader threads sweep all keys repeatedly.
            for _ in 0..2 {
                let table = &table;
                s.spawn(move || {
                    let mut h = table.handle();
                    for _ in 0..20 {
                        for i in 0..n {
                            if let Some(v) = h.find(&format!("re-{i}")) {
                                assert_eq!(v, i + 1, "corrupted value for re-{i}");
                            }
                        }
                    }
                });
            }
            // One eraser thread deletes everything, interleaved.
            let table = &table;
            s.spawn(move || {
                let mut h = table.handle();
                for i in 0..n {
                    assert!(h.erase(&format!("re-{i}")));
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(table.size_exact_quiescent(), 0);
    }

    #[test]
    fn concurrent_erase_has_single_winner() {
        let table = tiny_table();
        {
            let mut h = table.handle();
            for i in 0..2_000u64 {
                h.insert(&format!("e-{i}"), i);
            }
        }
        let erased = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let table = &table;
                let erased = &erased;
                s.spawn(move || {
                    let mut h = table.handle();
                    for i in 0..2_000u64 {
                        if h.erase(&format!("e-{i}")) {
                            erased.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            erased.load(Ordering::Relaxed),
            2_000,
            "double-counted erase"
        );
        assert_eq!(table.size_exact_quiescent(), 0);
    }
}
