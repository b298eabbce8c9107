//! The growing hash table framework (paper §5, §7).
//!
//! A [`GrowingTable`] owns the current [`BoundedTable`] generation through a
//! versioned counted pointer and replaces it by a migrated copy whenever the
//! approximate fill estimate reaches the growth threshold (or an insertion
//! runs out of probe budget).  The four variants evaluated in the paper are
//! obtained by combining two orthogonal strategy choices (§5.3.2, §7):
//!
//! * **who migrates** — [`GrowStrategy::Enslave`]: user threads that touch
//!   the table during a migration are recruited to pull migration blocks;
//!   [`GrowStrategy::Pool`]: a dedicated pool of migration threads is woken
//!   and application threads wait;
//! * **how consistency is ensured** — [`Consistency::AsyncMarking`]: every
//!   source cell is frozen with a mark bit before it is copied, writers
//!   detect the mark and retry on the new table;
//!   [`Consistency::Synchronized`]: a global growing flag plus per-handle
//!   busy flags guarantee that no table operation overlaps the migration,
//!   which allows plain fetch-and-add / store value updates.
//!
//! `uaGrow` = Enslave + AsyncMarking, `usGrow` = Enslave + Synchronized,
//! `paGrow` = Pool + AsyncMarking, `psGrow` = Pool + Synchronized — see
//! [`crate::variants`] for the public wrapper types.

pub(crate) mod pool;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use growt_iface::sync::lock;
use growt_reclaim::{CachedArc, VersionedArc};

use crate::cell::MAX_MARKABLE_KEY;
use crate::config::{capacity_for, GrowConfig, HashSelect};
use crate::coord::{Coordinator, GrowProtocol, MigrationJob, MigrationMode};
use crate::count::{GlobalCount, LocalCount};
use crate::migrate::{
    always_open, migrate_block_exclusive, migrate_block_marking, migrate_block_rehash,
};
use crate::table::{BoundedTable, EraseOutcome, InsertOutcome, UpdateOutcome, UpsertOutcome};

use pool::{MigrationPool, PoolShared};

/// Who performs the migration work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrowStrategy {
    /// Recruit ("enslave") user threads that access the table (§5.3.2).
    Enslave,
    /// Use a dedicated pool of migration threads (§5.3.2).
    Pool,
}

/// How consistency between table operations and the migration is ensured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Mark cells before copying them (asynchronous protocol).
    AsyncMarking,
    /// Exclude updates during migration with a growing flag and per-handle
    /// busy flags ((semi-)synchronized protocol).
    Synchronized,
}

/// Construction-time options of a [`GrowingTable`].
#[derive(Debug, Clone)]
pub struct GrowingOptions {
    /// Who migrates.
    pub strategy: GrowStrategy,
    /// Consistency protocol.
    pub consistency: Consistency,
    /// Growth policy constants (fill factor, block size, …).
    pub grow: GrowConfig,
    /// Expected number of accessing threads `p`: sizes the migration pool
    /// and the randomized counter flush threshold.
    pub threads_hint: usize,
    /// Hash function of the cell mapping, inherited by every table
    /// generation (default: the one-multiply fold; [`HashSelect::Crc`]
    /// selects the paper's hardware CRC32-C pair, §8.3).
    pub hash: HashSelect,
}

impl Default for GrowingOptions {
    fn default() -> Self {
        GrowingOptions {
            strategy: GrowStrategy::Enslave,
            consistency: Consistency::AsyncMarking,
            grow: GrowConfig::default(),
            threads_hint: crate::cpu::available_parallelism(),
            hash: HashSelect::default(),
        }
    }
}

/// Maximum number of elements a batched operation processes per
/// begin_op/end_op window.  Bounds how long a synchronized-protocol handle
/// can hold its busy flag (a migration leader spin-waits on it), while
/// still amortizing the prologue over many pipelined probes.
const BATCH_SEGMENT: usize = 512;

/// Which batched write operation [`GrowHandle::run_batch`] is driving
/// (selects the per-success counter bookkeeping).
#[derive(Clone, Copy)]
enum BatchKind {
    Insert,
    Update,
    Erase,
}

/// Classification of one per-element outcome inside a batch.
#[derive(Clone, Copy)]
enum BatchDisposition {
    /// The operation took effect (counted; insert/erase bookkeeping runs).
    Success,
    /// The operation completed without effect (duplicate insert, missing
    /// key) — done, not replayed.
    Noop,
    /// The element hit a full table: trigger a growth, then replay.
    RetryAfterGrow,
    /// The element hit a live migration: help/wait, then replay.
    RetryAfterMigration,
}

/// Per-handle shared flags (registered with the table).
pub(crate) struct HandleShared {
    /// 1 while the owning handle executes a table operation (synchronized
    /// protocol only).
    busy: AtomicU64,
    active: AtomicBool,
}

/// Everything shared between handles, pool workers and the owner.
pub(crate) struct Inner {
    current: VersionedArc<BoundedTable>,
    counts: GlobalCount,
    coordinator: Coordinator<BoundedTable>,
    handles: Mutex<Vec<Arc<HandleShared>>>,
    options: GrowingOptions,
    pool_shared: Mutex<Option<Arc<PoolShared>>>,
    handle_seed: AtomicU64,
}

/// A concurrent linear-probing hash table with transparent growing,
/// deletion with memory reclamation and approximate size counting.
pub struct GrowingTable {
    inner: Arc<Inner>,
    _pool: Option<MigrationPool>,
}

impl GrowingTable {
    /// Create a table with an initial capacity hint and the given options.
    pub fn with_options(initial_capacity: usize, options: GrowingOptions) -> Self {
        let capacity = capacity_for(initial_capacity.max(2));
        let inner = Arc::new(Inner {
            current: VersionedArc::new(BoundedTable::with_cells_hashed(capacity, 1, options.hash)),
            counts: GlobalCount::new(),
            coordinator: Coordinator::new(),
            handles: Mutex::new(Vec::new()),
            options: options.clone(),
            pool_shared: Mutex::new(None),
            handle_seed: AtomicU64::new(0x9E3779B97F4A7C15),
        });

        let pool = if options.strategy == GrowStrategy::Pool {
            let worker_inner = Arc::clone(&inner);
            let pool = MigrationPool::spawn(options.threads_hint, move || {
                worker_inner.participate();
            });
            *lock(&inner.pool_shared) = Some(pool.shared());
            Some(pool)
        } else {
            None
        };

        GrowingTable { inner, _pool: pool }
    }

    /// Create a table with the default (uaGrow) options.
    pub fn new(initial_capacity: usize) -> Self {
        Self::with_options(initial_capacity, GrowingOptions::default())
    }

    /// Obtain a per-thread handle.
    pub fn handle(&self) -> GrowHandle<'_> {
        GrowHandle::new(&self.inner)
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
        self.inner.current.with_current(|t| t.capacity())
    }

    /// Approximate number of live elements (`I − D`, §5.2).
    pub fn size_estimate(&self) -> usize {
        self.inner.counts.live_estimate() as usize
    }

    /// Exact number of live elements, valid only in the absence of
    /// concurrent modifications (§5.2: exact counting variant).
    pub fn size_exact_quiescent(&self) -> usize {
        self.inner.current.with_current(|t| t.scan_counts().0)
    }

    /// A counted reference to the current table generation.
    ///
    /// Diagnostics/tests only (e.g. `Arc::downgrade` to observe when a
    /// retired generation is freed): this **does** take the shared lock and
    /// bump the shared reference count — never call it per operation.
    pub fn current_generation(&self) -> Arc<BoundedTable> {
        self.inner.current.acquire().0
    }

    /// Number of counted references to the current table generation
    /// (excluding the temporary this call itself takes).  With no migration
    /// in flight this is `1 + live handles on this generation`, and it must
    /// stay **constant** across any burst of table operations — the
    /// zero-shared-traffic conformance tests assert exactly that.
    pub fn generation_strong_count(&self) -> usize {
        let (arc, _) = self.inner.current.acquire();
        Arc::strong_count(&arc) - 1
    }

    /// Total number of counted-pointer acquisitions so far (grows by
    /// O(handles × migrations), never per operation).
    pub fn generation_acquire_count(&self) -> u64 {
        self.inner.current.acquire_count()
    }

    /// The options this table was constructed with.
    pub fn options(&self) -> &GrowingOptions {
        &self.inner.options
    }
}

impl Inner {
    fn synchronized(&self) -> bool {
        self.options.consistency == Consistency::Synchronized
    }

    fn register_handle(&self) -> Arc<HandleShared> {
        let shared = Arc::new(HandleShared {
            busy: AtomicU64::new(0),
            active: AtomicBool::new(true),
        });
        lock(&self.handles).push(Arc::clone(&shared));
        shared
    }

    fn deregister_handle(&self, shared: &Arc<HandleShared>) {
        shared.active.store(false, Ordering::Release);
        shared.busy.store(0, Ordering::Release);
        let mut handles = lock(&self.handles);
        handles.retain(|h| !Arc::ptr_eq(h, shared));
    }
}

/// The word table's instantiation of the shared §12 coordinator
/// ([`crate::coord`]): generations are [`BoundedTable`]s, block copies
/// dispatch on the cluster/marking/exclusive migration kernels, and both
/// strategy axes (enslave/pool × marking/synchronized) map onto the trait
/// hooks.  The protocol itself — leases,
/// rescue, finalization latch, backoff degradation — lives entirely in the
/// trait's default methods.
impl GrowProtocol for Inner {
    type Gen = BoundedTable;

    const FP_PREPARE_ALLOC: &'static str = "grow.prepare.alloc";
    const FP_PREPARE_SLICE: &'static str = "grow.prepare.slice";
    const FP_BLOCK_CLAIMED: &'static str = "grow.block.claimed";
    const FP_FINALIZE: &'static str = "grow.finalize";

    fn coord(&self) -> &Coordinator<BoundedTable> {
        &self.coordinator
    }

    fn generations(&self) -> &VersionedArc<BoundedTable> {
        &self.current
    }

    fn counts(&self) -> &GlobalCount {
        &self.counts
    }

    fn grow_config(&self) -> &GrowConfig {
        &self.options.grow
    }

    fn capacity_of(table: &BoundedTable) -> usize {
        table.capacity()
    }

    fn alloc_generation(
        &self,
        source: &BoundedTable,
        new_capacity: usize,
        version: u64,
    ) -> Result<(BoundedTable, usize), crate::mem::AllocError> {
        // Allocated zeroed: the word table's targets have no slices.
        let table =
            BoundedTable::try_with_cells_hashed(new_capacity, version, source.hash_select())?;
        Ok((table, 0))
    }

    /// Every complete copy of a block counts the same live elements, so
    /// the copy that completes the block credits them, once; a late owner
    /// whose block a rescuer completed credits nothing, and stops at its
    /// next pass through the lease's placement gate, before its stores
    /// could reach a published target.
    fn copy_range(
        &self,
        job: &MigrationJob<BoundedTable>,
        block: usize,
        start: usize,
        end: usize,
    ) -> Option<usize> {
        let marking = job.mode == MigrationMode::Marking;
        let (src, dst) = (&*job.source, &*job.target);
        let gate = || job.enter_placement(block);
        if job.rehash {
            migrate_block_rehash(src, dst, start, end, marking, gate)
        } else if marking {
            migrate_block_marking(src, dst, start, end, gate)
        } else {
            migrate_block_exclusive(src, dst, start, end, gate)
        }
    }

    fn enslaves(&self) -> bool {
        self.options.strategy == GrowStrategy::Enslave
    }

    /// RCU-style exclusion (§5.3.2): raise the growing flag, then wait
    /// until every registered handle has been observed outside a table
    /// operation at least once.  The leader's own handle reads idle: every
    /// operation lowers its busy flag before it grows, helps or waits.
    fn quiesce_writers(&self) -> MigrationMode {
        if !self.synchronized() {
            return MigrationMode::Marking;
        }
        self.current.raise_flag();
        let handles = lock(&self.handles).clone();
        for shared in handles.iter() {
            while shared.active.load(Ordering::Acquire) && shared.busy.load(Ordering::SeqCst) != 0 {
                std::thread::yield_now();
            }
        }
        MigrationMode::Exclusive
    }

    fn signal_pool(&self) {
        if let Some(pool) = lock(&self.pool_shared).as_ref() {
            pool.signal_migration();
        }
    }

    /// Degenerate-case recovery: if the source table had **no empty cell at
    /// all** (possible when inserts race ahead of a lagging growth trigger
    /// and fill the table completely), the cluster migration finds no
    /// cluster *start* anywhere — every block owner defers to "an earlier
    /// block" — and nothing is copied.  Lemma 1 presupposes at least one
    /// empty cell, so this cannot happen in the paper's α ≤ 0.6 regime, but
    /// the implementation must not lose data when it does.  The last
    /// participant detects `migrated == 0` with a non-empty source and
    /// re-migrates everything with CAS re-insertion.
    fn recover_degenerate(&self, job: &Arc<MigrationJob<BoundedTable>>) {
        if job.rehash || job.progress.migrated.load(Ordering::Acquire) != 0 {
            return;
        }
        let (live, _, _) = job.source.scan_counts();
        if live == 0 {
            return;
        }
        let recovered = migrate_block_rehash(
            &job.source,
            &job.target,
            0,
            job.source.capacity(),
            job.mode == MigrationMode::Marking,
            always_open,
        )
        .expect("an open gate never stops the copy");
        job.progress
            .migrated
            .fetch_add(recovered as u64, Ordering::AcqRel);
    }
}

/// RAII busy-flag guard of the synchronized protocol (see
/// [`GrowHandle::begin_op`]).  `shared` is `None` under the marking
/// protocol, where operations need no busy window.
struct BusyGuard<'s> {
    shared: Option<&'s HandleShared>,
}

impl Drop for BusyGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            shared.busy.store(0, Ordering::Release);
        }
    }
}

/// Per-thread handle of a [`GrowingTable`] (§5.1).
pub struct GrowHandle<'a> {
    inner: &'a Inner,
    cached: CachedArc<BoundedTable>,
    local: LocalCount,
    shared: Arc<HandleShared>,
}

impl<'a> GrowHandle<'a> {
    fn new(inner: &'a Inner) -> Self {
        let seed = inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        let cached = CachedArc::new(&inner.current);
        GrowHandle {
            local: LocalCount::for_generation(
                inner.options.threads_hint,
                cached.cached().capacity(),
                seed,
            ),
            cached,
            shared: inner.register_handle(),
            inner,
        }
    }

    /// The zero-shared-traffic operation prologue (§5.3.2): borrow the
    /// current table generation from the handle-local cache.
    ///
    /// The fast path is one acquire-load of the shared version word plus a
    /// compare — **no `Arc::clone`, no shared reference-count RMW**.  The
    /// handle's cache keeps the generation's counted pointer alive for the
    /// duration of the borrow, so the borrow is always valid even if a
    /// migration publishes a newer generation mid-operation (the retired
    /// generation is immutable from that moment and every cell is frozen,
    /// which is what makes stale reads linearizable).
    ///
    /// Borrows are taken through disjoint fields (`cached`, `local`)
    /// instead of `&mut self` so callers can keep using the remaining
    /// handle state — in particular `after_insert`/`end_op` — once they
    /// captured `(capacity, version)` and dropped the table borrow.
    #[inline]
    fn table_ref<'t>(
        cached: &'t mut CachedArc<BoundedTable>,
        local: &mut LocalCount,
        inner: &Inner,
    ) -> &'t BoundedTable {
        let (table, refreshed) = cached.get_ref(&inner.current);
        if refreshed {
            Self::reset_local_counts(local, inner);
        }
        table
    }

    /// Refresh epilogue, once per handle per migration: pending local
    /// counts that belong to an already migrated generation are discarded
    /// (the migration counted those elements exactly), and the flush bound
    /// follows the new generation's capacity.  Out of line so the cached
    /// branch of [`GrowHandle::table_ref`] stays tight.
    #[cold]
    fn reset_local_counts(local: &mut LocalCount, inner: &Inner) {
        *local = LocalCount::for_generation(
            inner.options.threads_hint,
            inner.current.with_current(|t| t.capacity()),
            inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed),
        );
    }

    /// Synchronized-protocol prologue: announce the operation and make sure
    /// no migration is running.  No-op for the marking protocol.
    ///
    /// Returns an RAII guard that lowers the busy flag when dropped —
    /// **including on unwind**.  A panicking user closure (or an injected
    /// fault) inside the operation must not leave the flag raised: a
    /// migration leader spin-waits on every registered handle's busy flag
    /// for quiescence, so a stuck flag would wedge all future growth.
    /// An associated function over disjoint handle fields (not `&mut
    /// self`) so operations can keep borrowing the table cache while the
    /// guard is live.
    #[inline]
    fn begin_op<'s>(
        inner: &Inner,
        shared: &'s HandleShared,
        cached: &CachedArc<BoundedTable>,
    ) -> BusyGuard<'s> {
        if !inner.synchronized() {
            return BusyGuard { shared: None };
        }
        loop {
            shared.busy.store(1, Ordering::SeqCst);
            if inner.current.flagged() {
                shared.busy.store(0, Ordering::SeqCst);
                inner.help_or_wait(cached.cached_version());
                continue;
            }
            return BusyGuard {
                shared: Some(shared),
            };
        }
    }

    /// Handle a successful insertion: update the approximate count and
    /// trigger a migration when the fill threshold is reached.
    #[inline]
    fn after_insert(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.options.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold {
                self.inner.grow(version);
            }
        }
    }

    /// [`GrowHandle::after_insert`] for the `try_*` operations: the insert
    /// itself already succeeded, so a threshold-triggered growth that fails
    /// to allocate is simply dropped — a later operation's trigger (or an
    /// explicit retry) will re-attempt it.  This keeps `try_*` calls from
    /// blocking in the infallible backoff loop.
    #[inline]
    fn after_insert_best_effort(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.options.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold {
                let _ = self.inner.try_grow(version);
            }
        }
    }

    #[inline]
    fn after_delete(&mut self) {
        self.local.record_deletion(&self.inner.counts);
    }

    /// Insert `⟨k, v⟩`; returns `true` iff the key was not present.
    pub fn insert(&mut self, key: u64, value: u64) -> bool {
        assert!(
            (2..=MAX_MARKABLE_KEY).contains(&key),
            "key {key} is reserved"
        );
        let inner = self.inner;
        loop {
            let (capacity, version, outcome) = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                let (capacity, version) = (table.capacity(), table.version());
                let outcome = table.insert(key, value);
                (capacity, version, outcome)
            };
            match outcome {
                InsertOutcome::Inserted { .. } => {
                    self.after_insert(capacity, version);
                    return true;
                }
                InsertOutcome::AlreadyPresent => return false,
                InsertOutcome::Full => {
                    inner.grow(version);
                }
                InsertOutcome::Migrating => {
                    inner.help_or_wait(version);
                }
            }
        }
    }

    /// Fallible insert: like [`GrowHandle::insert`], but when the table is
    /// full and the replacement generation cannot be allocated (after a few
    /// short-backoff attempts) the error is reported instead of retrying
    /// forever.  The table keeps serving from the old generation; the
    /// caller decides whether to shed load, wait, or retry.
    pub fn try_insert(&mut self, key: u64, value: u64) -> Result<bool, growt_iface::TryGrowError> {
        assert!(
            (2..=MAX_MARKABLE_KEY).contains(&key),
            "key {key} is reserved"
        );
        let inner = self.inner;
        loop {
            let (capacity, version, outcome) = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                let (capacity, version) = (table.capacity(), table.version());
                let outcome = table.insert(key, value);
                (capacity, version, outcome)
            };
            match outcome {
                InsertOutcome::Inserted { .. } => {
                    self.after_insert_best_effort(capacity, version);
                    return Ok(true);
                }
                InsertOutcome::AlreadyPresent => return Ok(false),
                InsertOutcome::Full => {
                    if inner.try_grow(version).is_err() {
                        return Err(growt_iface::TryGrowError);
                    }
                }
                InsertOutcome::Migrating => {
                    inner.help_or_wait(version);
                }
            }
        }
    }

    /// Fallible insert-or-update (see [`GrowHandle::try_insert`] for the
    /// error contract).
    pub fn try_insert_or_update(
        &mut self,
        key: u64,
        d: u64,
        up: impl Fn(u64, u64) -> u64 + Copy,
    ) -> Result<bool, growt_iface::TryGrowError> {
        assert!(
            (2..=MAX_MARKABLE_KEY).contains(&key),
            "key {key} is reserved"
        );
        let inner = self.inner;
        loop {
            let (capacity, version, outcome) = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                let (capacity, version) = (table.capacity(), table.version());
                let outcome = table.upsert_with(key, d, up);
                (capacity, version, outcome)
            };
            match outcome {
                UpsertOutcome::Inserted => {
                    self.after_insert_best_effort(capacity, version);
                    return Ok(true);
                }
                UpsertOutcome::Updated => return Ok(false),
                UpsertOutcome::Full => {
                    if inner.try_grow(version).is_err() {
                        return Err(growt_iface::TryGrowError);
                    }
                }
                UpsertOutcome::Migrating => inner.help_or_wait(version),
            }
        }
    }

    /// Find the value stored for `key`.
    pub fn find(&mut self, key: u64) -> Option<u64> {
        // Reads never help with migrations and never write; they may run on
        // a slightly stale table generation, which is linearizable because
        // the retired generation is immutable (all cells frozen) from the
        // moment the new generation becomes visible.
        let table = Self::table_ref(&mut self.cached, &mut self.local, self.inner);
        table.find(key)
    }

    /// Update the element at `key` to `up(current, d)`.
    ///
    /// Under the synchronized protocol the busy-flag exclusion guarantees
    /// no migration overlaps the operation, so the update runs as a
    /// single-word CAS on the value once the key word is verified (no
    /// 128-bit CAS on the hot path); the marking protocol needs the
    /// mark-aware full-cell CAS.
    pub fn update(&mut self, key: u64, d: u64, up: impl Fn(u64, u64) -> u64 + Copy) -> bool {
        let inner = self.inner;
        if inner.synchronized() {
            let outcome = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                table.update_value_cas_unsynchronized(key, d, up)
            };
            return outcome == UpdateOutcome::Updated;
        }
        loop {
            let (version, outcome) = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                let version = table.version();
                let outcome = table.update_with(key, d, up);
                (version, outcome)
            };
            match outcome {
                UpdateOutcome::Updated => return true,
                UpdateOutcome::NotFound => return false,
                UpdateOutcome::Migrating => inner.help_or_wait(version),
            }
        }
    }

    /// Overwrite the value at `key`.  Under the synchronized protocol this
    /// uses a plain atomic store (the specialization discussed in §4/§8.4);
    /// under the marking protocol it must go through the full-cell CAS.
    pub fn update_overwrite(&mut self, key: u64, value: u64) -> bool {
        let inner = self.inner;
        if inner.synchronized() {
            let outcome = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                table.update_overwrite_unsynchronized(key, value)
            };
            outcome == UpdateOutcome::Updated
        } else {
            self.update(key, value, |_cur, new| new)
        }
    }

    /// Insert `⟨key, d⟩` or update the stored value to `up(current, d)`.
    /// Returns `true` iff a new element was inserted.
    pub fn insert_or_update(
        &mut self,
        key: u64,
        d: u64,
        up: impl Fn(u64, u64) -> u64 + Copy,
    ) -> bool {
        assert!(
            (2..=MAX_MARKABLE_KEY).contains(&key),
            "key {key} is reserved"
        );
        let inner = self.inner;
        loop {
            let (capacity, version, outcome) = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                let (capacity, version) = (table.capacity(), table.version());
                let outcome = table.upsert_with(key, d, up);
                (capacity, version, outcome)
            };
            match outcome {
                UpsertOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    return true;
                }
                UpsertOutcome::Updated => return false,
                UpsertOutcome::Full => inner.grow(version),
                UpsertOutcome::Migrating => inner.help_or_wait(version),
            }
        }
    }

    /// Insert-or-increment with the fetch-and-add fast path where the
    /// protocol allows it (§8.4, aggregation benchmark).
    pub fn insert_or_increment(&mut self, key: u64, d: u64) -> bool {
        if self.inner.synchronized() {
            assert!(
                (2..=MAX_MARKABLE_KEY).contains(&key),
                "key {key} is reserved"
            );
            let inner = self.inner;
            loop {
                let (capacity, version, outcome) = {
                    let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                    let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                    let (capacity, version) = (table.capacity(), table.version());
                    let outcome = table.upsert_fetch_add_unsynchronized(key, d);
                    (capacity, version, outcome)
                };
                match outcome {
                    UpsertOutcome::Inserted => {
                        self.after_insert(capacity, version);
                        return true;
                    }
                    UpsertOutcome::Updated => return false,
                    UpsertOutcome::Full => inner.grow(version),
                    UpsertOutcome::Migrating => inner.help_or_wait(version),
                }
            }
        } else {
            self.insert_or_update(key, d, |cur, add| cur.wrapping_add(add))
        }
    }

    /// Delete `key` (tombstone + eventual cleanup migration, §5.4).
    pub fn erase(&mut self, key: u64) -> bool {
        let inner = self.inner;
        loop {
            let (version, outcome) = {
                let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                let version = table.version();
                let outcome = table.erase(key);
                (version, outcome)
            };
            match outcome {
                EraseOutcome::Erased => {
                    self.after_delete();
                    return true;
                }
                EraseOutcome::NotFound => return false,
                EraseOutcome::Migrating => inner.help_or_wait(version),
            }
        }
    }

    // -----------------------------------------------------------------
    // Batched operations (§5.5 + DESIGN.md, hash → prefetch → probe)
    //
    // Each batch call runs the pipelined `BoundedTable` batch primitive
    // on the current table generation and then re-batches the stragglers:
    // elements whose outcome was `Migrating` (or `Full`, which triggers a
    // growth) are collected and replayed on the new table generation once
    // the migration has been helped with / waited for.  Every batch
    // returns exactly what the per-op loop in slice order would return
    // (duplicates included); note that the replay means a straggler can
    // linearize after a later element of the same batch, so distinct keys
    // may become visible to concurrent readers out of slice order while a
    // migration is in flight.  Batches are cut into
    // segments so that a synchronized-protocol handle never holds its busy
    // flag across an unbounded amount of work (which would stall a
    // migration leader waiting for quiescence).
    // -----------------------------------------------------------------

    /// Look up a whole batch of keys; `out[i]` receives `find(keys[i])`.
    /// Reads never retry: like [`GrowHandle::find`] they may run on a
    /// slightly stale (immutable) table generation.
    pub fn find_batch(&mut self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len(), "find_batch: length mismatch");
        let table = Self::table_ref(&mut self.cached, &mut self.local, self.inner);
        table.find_batch(keys, out);
    }

    /// Insert a batch of `⟨key, value⟩` pairs; returns the number of
    /// elements actually inserted.
    pub fn insert_batch(&mut self, elements: &[(u64, u64)]) -> usize {
        for &(key, _) in elements {
            assert!(
                (2..=MAX_MARKABLE_KEY).contains(&key),
                "key {key} is reserved"
            );
        }
        self.run_batch(
            BatchKind::Insert,
            elements,
            InsertOutcome::Full,
            |table, pending, outcomes| table.insert_batch(pending, outcomes),
            |outcome| match outcome {
                InsertOutcome::Inserted { .. } => BatchDisposition::Success,
                InsertOutcome::AlreadyPresent => BatchDisposition::Noop,
                InsertOutcome::Full => BatchDisposition::RetryAfterGrow,
                InsertOutcome::Migrating => BatchDisposition::RetryAfterMigration,
            },
        )
    }

    /// Update a batch of `⟨key, d⟩` pairs to `up(current, d)`; returns the
    /// number of elements that were present and updated.
    ///
    /// Like [`GrowHandle::update`], the synchronized protocol runs the
    /// whole batch through the single-word value-CAS fast path (no marks
    /// can appear inside the busy window); the marking protocol keeps the
    /// mark-aware full-cell CAS and re-batches `Migrating` stragglers.
    pub fn update_batch(
        &mut self,
        elements: &[(u64, u64)],
        up: impl Fn(u64, u64) -> u64 + Copy,
    ) -> usize {
        let classify = |outcome| match outcome {
            UpdateOutcome::Updated => BatchDisposition::Success,
            UpdateOutcome::NotFound => BatchDisposition::Noop,
            UpdateOutcome::Migrating => BatchDisposition::RetryAfterMigration,
        };
        if self.inner.synchronized() {
            self.run_batch(
                BatchKind::Update,
                elements,
                UpdateOutcome::NotFound,
                |table, pending, outcomes| {
                    table.update_batch_value_cas_unsynchronized(pending, up, outcomes)
                },
                classify,
            )
        } else {
            self.run_batch(
                BatchKind::Update,
                elements,
                UpdateOutcome::NotFound,
                |table, pending, outcomes| table.update_batch_with(pending, up, outcomes),
                classify,
            )
        }
    }

    /// Erase a batch of keys; returns the number of elements removed.
    pub fn erase_batch(&mut self, keys: &[u64]) -> usize {
        self.run_batch(
            BatchKind::Erase,
            keys,
            EraseOutcome::NotFound,
            |table, pending, outcomes| table.erase_batch(pending, outcomes),
            |outcome| match outcome {
                EraseOutcome::Erased => BatchDisposition::Success,
                EraseOutcome::NotFound => BatchDisposition::Noop,
                EraseOutcome::Migrating => BatchDisposition::RetryAfterMigration,
            },
        )
    }

    /// Shared segment-and-straggler replay loop of the three batched write
    /// operations: run the table-level batch primitive on the current
    /// generation, classify every outcome, compact the elements that must
    /// be replayed back into `pending`, trigger/help the migration, and
    /// repeat until the segment is drained.  Returns the number of
    /// `Success` outcomes; per-success bookkeeping (approximate counters,
    /// growth trigger) is selected by `kind`.
    fn run_batch<T: Copy, O: Copy>(
        &mut self,
        kind: BatchKind,
        elements: &[T],
        default_outcome: O,
        exec: impl Fn(&BoundedTable, &[T], &mut [O]),
        classify: impl Fn(O) -> BatchDisposition,
    ) -> usize {
        let inner = self.inner;
        let mut pending: Vec<T> = Vec::new();
        let mut outcomes: Vec<O> = Vec::new();
        let mut succeeded = 0usize;
        for segment in elements.chunks(BATCH_SEGMENT) {
            pending.clear();
            pending.extend_from_slice(segment);
            loop {
                outcomes.clear();
                outcomes.resize(pending.len(), default_outcome);
                // Borrowed, not cloned: the whole segment runs on one table
                // borrow, with (capacity, version) captured up front so the
                // classification loop below can use `&mut self` freely.
                let (capacity, version) = {
                    let _busy = Self::begin_op(inner, self.shared.as_ref(), &self.cached);
                    let table = Self::table_ref(&mut self.cached, &mut self.local, inner);
                    exec(table, &pending, &mut outcomes);
                    (table.capacity(), table.version())
                };
                let mut need_grow = false;
                let mut write = 0usize;
                for read in 0..pending.len() {
                    match classify(outcomes[read]) {
                        BatchDisposition::Success => {
                            succeeded += 1;
                            match kind {
                                BatchKind::Insert => self.after_insert(capacity, version),
                                BatchKind::Update => {}
                                BatchKind::Erase => self.after_delete(),
                            }
                        }
                        BatchDisposition::Noop => {}
                        BatchDisposition::RetryAfterGrow => {
                            need_grow = true;
                            pending[write] = pending[read];
                            write += 1;
                        }
                        BatchDisposition::RetryAfterMigration => {
                            pending[write] = pending[read];
                            write += 1;
                        }
                    }
                }
                pending.truncate(write);
                if pending.is_empty() {
                    break;
                }
                if need_grow {
                    inner.grow(version);
                } else {
                    inner.help_or_wait(version);
                }
            }
        }
        succeeded
    }

    /// Approximate number of live elements: the shared count (§5.2) plus
    /// this handle's own buffered insertions, minus its buffered
    /// deletions.  Exact for a lone handle; with `p` handles it misses
    /// the others' buffers, fewer than `(p − 1) ·`
    /// [`flush_bound`](crate::count::flush_bound) operations.
    pub fn size_estimate(&mut self) -> usize {
        // Buffered counts of an already migrated generation are void: the
        // migration counted its elements exactly.  The refresh drops them.
        Self::table_ref(&mut self.cached, &mut self.local, self.inner);
        self.local.live_estimate(&self.inner.counts) as usize
    }

    /// Flush the handle's buffered counter contributions.
    pub fn flush_counts(&mut self) {
        self.local.flush(&self.inner.counts);
    }
}

impl Drop for GrowHandle<'_> {
    fn drop(&mut self) {
        self.local.flush(&self.inner.counts);
        self.inner.deregister_handle(&self.shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(strategy: GrowStrategy, consistency: Consistency) -> GrowingOptions {
        GrowingOptions {
            strategy,
            consistency,
            threads_hint: 4,
            ..GrowingOptions::default()
        }
    }

    fn all_variants() -> Vec<(&'static str, GrowingOptions)> {
        vec![
            (
                "uaGrow",
                options(GrowStrategy::Enslave, Consistency::AsyncMarking),
            ),
            (
                "usGrow",
                options(GrowStrategy::Enslave, Consistency::Synchronized),
            ),
            (
                "paGrow",
                options(GrowStrategy::Pool, Consistency::AsyncMarking),
            ),
            (
                "psGrow",
                options(GrowStrategy::Pool, Consistency::Synchronized),
            ),
        ]
    }

    #[test]
    fn grows_from_tiny_capacity_single_thread() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(16, opts);
            let mut handle = table.handle();
            let n = 20_000u64;
            for k in 2..2 + n {
                assert!(handle.insert(k, k * 3), "{name}: insert {k}");
            }
            assert!(table.migrations_completed() > 0, "{name}: never migrated");
            assert!(table.current_capacity() >= 2 * n as usize, "{name}");
            for k in 2..2 + n {
                assert_eq!(handle.find(k), Some(k * 3), "{name}: find {k}");
            }
            assert_eq!(table.size_exact_quiescent(), n as usize, "{name}");
            // The approximate count is close to the truth once flushed.
            handle.flush_counts();
            let estimate = handle.size_estimate();
            assert!(
                (estimate as i64 - n as i64).abs() <= 64,
                "{name}: estimate {estimate} vs {n}"
            );
        }
    }

    /// A lone handle's estimate counts what it has buffered: exact after
    /// every insert and erase, across growth, with no flush.
    #[test]
    fn a_lone_handle_estimates_exactly_without_a_flush() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(1 << 12, opts);
            let mut handle = table.handle();
            let mut live = 0;
            for i in 0..20_000u64 {
                assert!(handle.insert(i + 2, i), "{name}");
                live += 1;
                if i % 3 == 0 {
                    assert!(handle.erase(i / 3 + 2), "{name}");
                    live -= 1;
                }
                assert_eq!(handle.size_estimate(), live, "{name}: after key {i}");
            }
            assert!(table.migrations_completed() > 0, "{name}: never migrated");
        }
    }

    #[test]
    fn parallel_growth_preserves_all_elements() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(64, opts);
            let threads = 4u64;
            let per_thread = 8_000u64;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let table = &table;
                    s.spawn(move || {
                        let mut handle = table.handle();
                        for i in 0..per_thread {
                            let key = 2 + t * per_thread + i;
                            assert!(handle.insert(key, key), "{name}");
                        }
                    });
                }
            });
            let total = (threads * per_thread) as usize;
            assert_eq!(table.size_exact_quiescent(), total, "{name}: lost elements");
            let mut handle = table.handle();
            for key in 2..2 + threads * per_thread {
                assert_eq!(handle.find(key), Some(key), "{name}: find {key}");
            }
            assert!(
                table.migrations_completed() >= 5,
                "{name}: too few migrations"
            );
        }
    }

    #[test]
    fn duplicate_inserts_have_exactly_one_winner_across_growth() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(32, opts);
            let successes = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let table = &table;
                    let successes = &successes;
                    s.spawn(move || {
                        let mut handle = table.handle();
                        for key in 2..4_002u64 {
                            if handle.insert(key, key) {
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert_eq!(successes.load(Ordering::Relaxed), 4_000, "{name}");
            assert_eq!(table.size_exact_quiescent(), 4_000, "{name}");
        }
    }

    #[test]
    fn aggregation_is_exact_across_growth() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(16, opts);
            let threads = 4u64;
            let per_thread = 10_000u64;
            let distinct = 500u64;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let table = &table;
                    s.spawn(move || {
                        let mut handle = table.handle();
                        for i in 0..per_thread {
                            let key = 2 + (i.wrapping_mul(t + 1)) % distinct;
                            handle.insert_or_increment(key, 1);
                        }
                    });
                }
            });
            let mut handle = table.handle();
            let mut total = 0u64;
            for key in 2..2 + distinct {
                total += handle.find(key).unwrap_or(0);
            }
            // No duplicate copies of a key may survive a migration.
            assert_eq!(
                table.size_exact_quiescent(),
                distinct as usize,
                "{name}: duplicate keys in table"
            );
            assert_eq!(total, threads * per_thread, "{name}: lost increments");
        }
    }

    #[test]
    fn deletion_triggers_cleanup_and_reclaims_cells() {
        let opts = options(GrowStrategy::Enslave, Consistency::AsyncMarking);
        let table = GrowingTable::with_options(1 << 12, opts);
        let mut handle = table.handle();
        let window = 2_000u64;
        // Insert/delete far more elements than the capacity could hold if
        // tombstones were never cleaned up.
        for i in 0..40_000u64 {
            let key = 2 + i;
            assert!(handle.insert(key, key));
            if i >= window {
                assert!(handle.erase(key - window), "erase {}", key - window);
            }
        }
        assert!(
            table.migrations_completed() > 0,
            "cleanup migration never ran"
        );
        // The live window is intact.
        for i in 40_000 - window..40_000 {
            assert_eq!(handle.find(2 + i), Some(2 + i));
        }
        assert_eq!(table.size_exact_quiescent(), window as usize);
        // The capacity stayed bounded (tombstones were reclaimed, not
        // accumulated).
        assert!(
            table.current_capacity() <= 1 << 14,
            "capacity exploded: {}",
            table.current_capacity()
        );
    }

    #[test]
    fn update_overwrite_and_fetch_add_under_growth() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(64, opts);
            let mut handle = table.handle();
            for key in 2..1_002u64 {
                handle.insert(key, 0);
            }
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let table = &table;
                    s.spawn(move || {
                        let mut handle = table.handle();
                        for round in 0..5u64 {
                            for key in 2..1_002u64 {
                                handle.update(key, round, |cur, d| cur.max(d));
                            }
                        }
                    });
                }
            });
            let mut handle = table.handle();
            for key in 2..1_002u64 {
                assert_eq!(handle.find(key), Some(4), "{name}: key {key}");
            }
            assert!(handle.update_overwrite(500, 99), "{name}");
            assert_eq!(handle.find(500), Some(99), "{name}");
            assert!(!handle.update_overwrite(1_000_000, 1), "{name}");
        }
    }

    #[test]
    fn finds_remain_consistent_during_growth() {
        let opts = options(GrowStrategy::Enslave, Consistency::AsyncMarking);
        let table = GrowingTable::with_options(32, opts);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            // Writer thread keeps inserting, forcing repeated migrations.
            let writer_table = &table;
            let stop_ref = &stop;
            s.spawn(move || {
                let mut handle = writer_table.handle();
                for key in 2..30_002u64 {
                    handle.insert(key, key);
                }
                stop_ref.store(true, Ordering::Release);
            });
            // Reader threads continuously verify already-inserted prefixes.
            for _ in 0..2 {
                let table = &table;
                let stop_ref = &stop;
                s.spawn(move || {
                    let mut handle = table.handle();
                    let mut verified_until = 2u64;
                    while !stop_ref.load(Ordering::Acquire) {
                        // Everything below the verified frontier must stay
                        // visible (no lost elements during migration).  The
                        // writer inserts keys in increasing order, so seeing
                        // the key *at* the next frontier proves every key
                        // below it has been inserted.
                        for key in 2..verified_until {
                            assert_eq!(handle.find(key), Some(key), "lost key {key}");
                        }
                        if handle.find(verified_until + 500).is_some() {
                            verified_until += 500;
                        }
                    }
                });
            }
        });
        assert_eq!(table.size_exact_quiescent(), 30_000);
    }

    #[test]
    fn batch_ops_across_growth_match_per_op_semantics() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(32, opts);
            let mut h = table.handle();
            let elems: Vec<(u64, u64)> = (2..8_002u64).map(|k| (k, k * 3)).collect();
            // The tiny initial capacity forces several migrations inside
            // this one batch: the Migrating/Full stragglers are re-batched
            // onto the new table generations.
            assert_eq!(h.insert_batch(&elems), elems.len(), "{name}");
            assert!(table.migrations_completed() > 0, "{name}: never migrated");
            // Re-inserting is a no-op, exactly like the per-op loop.
            assert_eq!(h.insert_batch(&elems[..100]), 0, "{name}");

            let keys: Vec<u64> = elems.iter().map(|&(k, _)| k).collect();
            let mut out = vec![None; keys.len()];
            h.find_batch(&keys, &mut out);
            for (&k, &f) in keys.iter().zip(out.iter()) {
                assert_eq!(f, Some(k * 3), "{name}: find_batch {k}");
            }

            assert_eq!(
                h.update_batch(&elems, |c, d| c.wrapping_add(d)),
                elems.len(),
                "{name}"
            );
            assert_eq!(h.find(2), Some(2 * 3 + 2 * 3), "{name}: update applied");

            assert_eq!(h.erase_batch(&keys[..4_000]), 4_000, "{name}");
            assert_eq!(h.erase_batch(&keys[..4_000]), 0, "{name}: double erase");
            assert_eq!(table.size_exact_quiescent(), 4_000, "{name}");
        }
    }

    #[test]
    fn concurrent_insert_batches_race_migrations_without_loss() {
        for (name, opts) in all_variants() {
            let table = GrowingTable::with_options(32, opts);
            let threads = 4u64;
            let per_thread = 6_000u64;
            std::thread::scope(|s| {
                for t in 0..threads {
                    let table = &table;
                    s.spawn(move || {
                        let mut h = table.handle();
                        let elems: Vec<(u64, u64)> = (0..per_thread)
                            .map(|i| {
                                let k = 2 + t * per_thread + i;
                                (k, k)
                            })
                            .collect();
                        let mut inserted = 0;
                        for chunk in elems.chunks(64) {
                            inserted += h.insert_batch(chunk);
                        }
                        assert_eq!(inserted, per_thread as usize, "{name}");
                    });
                }
            });
            assert_eq!(
                table.size_exact_quiescent(),
                (threads * per_thread) as usize,
                "{name}: lost elements in racing batches"
            );
            let mut h = table.handle();
            let keys: Vec<u64> = (2..2 + threads * per_thread).collect();
            let mut out = vec![None; keys.len()];
            h.find_batch(&keys, &mut out);
            for (&k, &f) in keys.iter().zip(out.iter()) {
                assert_eq!(f, Some(k), "{name}: find_batch {k}");
            }
        }
    }

    #[test]
    fn reserved_keys_are_rejected() {
        let table = GrowingTable::new(16);
        let mut handle = table.handle();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.insert(0, 1);
        }));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.insert(crate::cell::MARK_BIT, 1);
        }));
        assert!(result.is_err());
    }
    #[test]
    fn pool_variant_pure_updates_during_prefill_growth() {
        // Pure updates on a prefilled table that still migrates once.
        let opts = options(GrowStrategy::Pool, Consistency::AsyncMarking);
        let table = GrowingTable::with_options(16, opts);
        {
            let mut h = table.handle();
            for key in 2..502u64 {
                h.insert(key, 0);
            }
        }
        let threads = 4u64;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                s.spawn(move || {
                    let mut handle = table.handle();
                    for i in 0..per_thread {
                        let key = 2 + (i.wrapping_mul(t + 1)) % 500;
                        assert!(handle.update(key, 1, |c, d| c + d));
                    }
                });
            }
        });
        let mut handle = table.handle();
        let total: u64 = (2..502u64).map(|k| handle.find(k).unwrap()).sum();
        assert_eq!(
            total,
            threads * per_thread,
            "pa update-only lost increments"
        );
    }

    #[test]
    fn pool_variant_aggregation_without_migration() {
        // Same aggregation but table pre-sized: no migration can run.
        let opts = options(GrowStrategy::Pool, Consistency::AsyncMarking);
        let table = GrowingTable::with_options(1 << 14, opts);
        let threads = 4u64;
        let per_thread = 10_000u64;
        let distinct = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                s.spawn(move || {
                    let mut handle = table.handle();
                    for i in 0..per_thread {
                        let key = 2 + (i.wrapping_mul(t + 1)) % distinct;
                        handle.insert_or_increment(key, 1);
                    }
                });
            }
        });
        let mut handle = table.handle();
        let total: u64 = (2..2 + distinct).map(|k| handle.find(k).unwrap_or(0)).sum();
        assert_eq!(
            total,
            threads * per_thread,
            "pa no-migration lost increments"
        );
    }

    #[test]
    // Regression test for the full-table migration recovery (a completely
    // full source table used to be dropped entirely, losing increments).
    fn pool_variant_aggregation_with_full_table_migration() {
        let opts = options(GrowStrategy::Pool, Consistency::AsyncMarking);
        let table = GrowingTable::with_options(16, opts);
        let threads = 4u64;
        let per_thread = 10_000u64;
        let distinct = 500u64;
        let inserted = AtomicU64::new(0);
        let updated = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..threads {
                let table = &table;
                let inserted = &inserted;
                let updated = &updated;
                s.spawn(move || {
                    let mut handle = table.handle();
                    for i in 0..per_thread {
                        let key = 2 + (i.wrapping_mul(t + 1)) % distinct;
                        if handle.insert_or_increment(key, 1) {
                            inserted.fetch_add(1, Ordering::Relaxed);
                        } else {
                            updated.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let mut handle = table.handle();
        let total: u64 = (2..2 + distinct).map(|k| handle.find(k).unwrap_or(0)).sum();
        assert_eq!(
            inserted.load(Ordering::Relaxed) + updated.load(Ordering::Relaxed),
            threads * per_thread
        );
        assert_eq!(table.size_exact_quiescent(), distinct as usize);
        assert_eq!(total, threads * per_thread);
    }
}
