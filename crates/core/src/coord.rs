//! The shared growth/migration coordinator: the §12 protocol, exactly once.
//!
//! Every growing table in this crate replaces its current generation by a
//! migrated copy through the same protocol — leader election by an
//! `IDLE → PREPARING` CAS, fallible target allocation with graceful
//! degradation, steal-able block leases with rescue, a re-entrant
//! finalization latch, and a version-guarded generation publish.  Until
//! this module existed the protocol lived twice (once in [`crate::grow`]
//! for the word table, once in `complex/growing.rs` for the string table,
//! the latter documented as a deliberate mirror); now it lives here as the
//! default methods of [`GrowProtocol`], and each table contributes only
//! what actually differs:
//!
//! * **what a generation is** ([`GrowProtocol::Gen`]) and how to allocate
//!   ([`GrowProtocol::alloc_generation`]) and copy
//!   ([`GrowProtocol::copy_range`]) one;
//! * **strategy axes** — enslavement vs. pool
//!   ([`GrowProtocol::enslaves`], [`GrowProtocol::signal_pool`]),
//!   marking vs. synchronized ([`GrowProtocol::uses_marking`],
//!   [`GrowProtocol::quiesce_writers`]), the per-op help budget of
//!   DESIGN.md §13 ([`GrowProtocol::help_budget`]);
//! * **failpoint names**, so the fault-injection schedules keep targeting
//!   each table's migration independently;
//! * **degenerate-case recovery** ([`GrowProtocol::recover_degenerate`]),
//!   which only the word table's cluster migration needs.
//!
//! The protocol invariants (lease lifecycle, idempotent copies, unique
//! `CLAIMED → DONE` winner, unwind-safe guards) are documented once, on
//! the default methods below; DESIGN.md §12/§14 give the full argument.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use growt_reclaim::VersionedArc;
use parking_lot::Mutex;

use crate::config::{capacity_for, GrowConfig};
use crate::count::GlobalCount;

/// Migration coordinator states.
const STATE_IDLE: u64 = 0;
const STATE_PREPARING: u64 = 1;
const STATE_MIGRATING: u64 = 2;

/// Per-block lease states (crash-tolerant recovery, DESIGN.md §12).  A
/// block is **leased**, not owned: a participant that unwinds mid-copy
/// releases its lease (CLAIMED → FREE) through a drop guard, and a
/// rescuer may re-copy a block whose owner stalled — block copies are
/// idempotent (see `crate::migrate::place_sequential` and the rehash
/// placement loops), so a block may be copied any number of times as long
/// as it is *completed* exactly once (the CLAIMED → DONE transition has a
/// unique winner).
const BLOCK_FREE: u8 = 0;
const BLOCK_CLAIMED: u8 = 1;
const BLOCK_DONE: u8 = 2;

/// Finalization latch states: the latch serializes finalizers while
/// staying recoverable — a finalizer that unwinds resets the latch to
/// IDLE so the next participant can retry (every finalization step is
/// idempotent).
const FINALIZE_IDLE: u8 = 0;
const FINALIZE_RUNNING: u8 = 1;
const FINALIZE_DONE: u8 = 2;

/// Smallest block the capacity rule of [`block_size_for`] deals out.
const MIN_SCALED_BLOCK: usize = 256;
/// Leases a migration is split into while the configured block size allows.
const BLOCKS_PER_MIGRATION: usize = 16;
/// Migrations the per-table phase log remembers.
const MIGRATION_LOG_LEN: usize = 16;

/// Cells per block lease for a source of `old_capacity` cells:
/// `old_capacity / 16`, at least 256 cells, at most the configured
/// `migration_block`.  A fixed 4096-cell block made the 2^11- and
/// 2^12-cell migrations a single lease, so a second thread had nothing to
/// copy and slept through them; with the rule every table from 2^11 cells
/// up is 8–16 leases (DESIGN.md §6).
pub(crate) fn block_size_for(old_capacity: usize, migration_block: usize) -> usize {
    migration_block.min(MIN_SCALED_BLOCK.max(old_capacity / BLOCKS_PER_MIGRATION))
}

/// What one completed migration did and how long each phase took; the
/// entries of [`crate::generic::GrowMap::migration_log`].
///
/// Times are wall-clock nanoseconds.  `copy_ns` sums the block copies of
/// every participant, so at two threads it can exceed the migration's
/// duration; `longest_wait_ns` is the longest time a thread that had run
/// out of blocks (or was never drafted) waited for the publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Version of the generation that was migrated away.
    pub generation: u64,
    /// Cells of the source generation.
    pub from_capacity: usize,
    /// Cells of the target generation (equal for a cleanup migration).
    pub to_capacity: usize,
    /// Live elements moved.
    pub live: u64,
    /// Block leases the source was split into.
    pub blocks: usize,
    /// Source cells per lease.
    pub block_size: usize,
    /// Leader: quiescing writers, allocating and zeroing the target,
    /// installing the job.
    pub prepare_ns: u64,
    /// Freeze and copy, summed over all block copies (re-copies included).
    pub copy_ns: u64,
    /// Finalizer: counter reset, publication, job teardown.
    pub finalize_ns: u64,
    /// Longest wait of a thread with nothing left to copy.
    pub longest_wait_ns: u64,
    /// Blocks copied by the thread that prepared the migration.
    pub blocks_by_leader: usize,
    /// Block copies made by a waiter's rescue pass (0 unless a participant
    /// crashed or stalled past the rescue patience).
    pub rescued: usize,
    /// Chunks of 64 source cells frozen and placed inside hardware
    /// transactions, over all block copies (`GrowMap` on a CPU with RTM;
    /// 0 elsewhere).
    pub chunks_transactional: usize,
    /// Chunks of which a pass ran on the locked instructions: an aborted
    /// transaction's fallback, or no RTM.  With `chunks_transactional`, the
    /// chunks copied — `⌈block cells / 64⌉` per block copy (`GrowMap`; the
    /// word and string tables' copiers do not count).
    pub chunks_locked: usize,
}

/// All shared, per-migration state.  Participants clone the `Arc`, so a
/// straggler holding the job of an already finished migration simply finds
/// its block counter exhausted and leaves without touching a newer
/// migration.
pub(crate) struct MigrationJob<G> {
    pub(crate) source: Arc<G>,
    pub(crate) target: Arc<G>,
    pub(crate) expected_version: u64,
    next_block: AtomicUsize,
    blocks_done: AtomicUsize,
    total_blocks: usize,
    block_size: usize,
    pub(crate) migrated: AtomicU64,
    /// One lease word per block (`BLOCK_FREE`/`BLOCK_CLAIMED`/`BLOCK_DONE`).
    block_states: Box<[AtomicU8]>,
    /// Finalization latch (`FINALIZE_*`).
    finalize_state: AtomicU8,
    /// `true` when the target is smaller than the source (shrink/cleanup
    /// with rehash insertion instead of cluster migration; tables whose
    /// migration always rehashes ignore this).
    pub(crate) rehash: bool,
    /// `true` when source cells must be frozen (asynchronous protocol).
    pub(crate) marking: bool,
    // Phase accounting for the coordinator's `MigrationRecord`.
    leader: ThreadId,
    prepare_ns: u64,
    copy_ns: AtomicU64,
    blocks_by_leader: AtomicUsize,
    rescued: AtomicUsize,
    pub(crate) chunks_transactional: AtomicUsize,
    pub(crate) chunks_locked: AtomicUsize,
}

impl<G> MigrationJob<G> {
    /// `true` while the lease on the block starting at source cell `start`
    /// is still `CLAIMED`.  A copier whose lease has been completed by
    /// someone else (a rescuer, after the owner stalled past the patience)
    /// must stop placing: the target may already be published, and an
    /// element erased there since would be re-inserted (DESIGN.md §12).
    pub(crate) fn lease_live(&self, start: usize) -> bool {
        self.block_states[start / self.block_size].load(Ordering::Acquire) == BLOCK_CLAIMED
    }
}

/// The per-table coordinator cell: migration state machine, installed job,
/// synchronized-protocol growing flag and completion diagnostics.
pub(crate) struct Coordinator<G> {
    state: AtomicU64,
    job: Mutex<Option<Arc<MigrationJob<G>>>>,
    /// Set while a synchronized migration excludes table operations
    /// (stays `false` for marking-only tables).
    pub(crate) growing_flag: AtomicBool,
    /// Completed migrations (diagnostics / tests).
    pub(crate) migrations_completed: AtomicU64,
    /// Phase records of the last [`MIGRATION_LOG_LEN`] migrations, oldest
    /// first.  Locked once by the finalizer and once per waiter of a
    /// migration, never on an operation's path.
    log: Mutex<VecDeque<MigrationRecord>>,
}

impl<G> Coordinator<G> {
    pub(crate) fn new() -> Self {
        Coordinator {
            state: AtomicU64::new(STATE_IDLE),
            job: Mutex::new(None),
            growing_flag: AtomicBool::new(false),
            migrations_completed: AtomicU64::new(0),
            log: Mutex::new(VecDeque::new()),
        }
    }

    /// The phase records of the most recent migrations, oldest first.
    pub(crate) fn migration_log(&self) -> Vec<MigrationRecord> {
        self.log.lock().iter().cloned().collect()
    }

    /// Append `record`, dropping the oldest beyond [`MIGRATION_LOG_LEN`].
    /// A finalization retried after an unwind replaces its own entry.
    fn log_migration(&self, record: MigrationRecord) {
        let mut log = self.log.lock();
        if log
            .back()
            .is_some_and(|r| r.generation == record.generation)
        {
            log.pop_back();
        } else if log.len() == MIGRATION_LOG_LEN {
            log.pop_front();
        }
        log.push_back(record);
    }

    /// Apply `update` to the record of the migration that replaced
    /// generation `generation`, if the log still holds it.
    fn update_record(&self, generation: u64, update: impl FnOnce(&mut MigrationRecord)) {
        let mut log = self.log.lock();
        if let Some(record) = log.iter_mut().rev().find(|r| r.generation == generation) {
            update(record);
        }
    }
}

/// The trait seam between a growing table and the shared coordinator.
///
/// Implementors provide the generation type and the handful of hooks
/// below; the default methods are the complete migration protocol and are
/// **not meant to be overridden** — they exist as defaults (rather than
/// free functions) so call sites read as `inner.grow(...)` exactly like
/// before the refactor.
pub(crate) trait GrowProtocol {
    /// One table generation (the word table's `BoundedTable`, the string
    /// table's cell array, a typed map's cell array).
    type Gen;
    /// Leader context threaded from the operation that triggers a growth
    /// into [`GrowProtocol::quiesce_writers`] (the word table passes its
    /// per-handle busy flags so the leader can exempt itself from the
    /// synchronized quiescence wait; marking-only tables pass `()`).
    type Leader: ?Sized;

    /// Failpoint fired before the target-generation allocation
    /// (`FailAlloc` schedules inject an allocation failure here).
    const FP_PREPARE_ALLOC: &'static str;
    /// Failpoint fired right after a block lease is claimed.
    const FP_BLOCK_CLAIMED: &'static str;
    /// Failpoint fired at the start of finalization.
    const FP_FINALIZE: &'static str;

    fn coord(&self) -> &Coordinator<Self::Gen>;
    fn generations(&self) -> &VersionedArc<Self::Gen>;
    fn counts(&self) -> &GlobalCount;
    fn grow_config(&self) -> &GrowConfig;
    fn capacity_of(generation: &Self::Gen) -> usize;

    /// Allocate the target generation.  Fallible: an `Err` degrades to
    /// "keep serving the old generation" (the caller's guard restores the
    /// coordinator state and the growth is retried with backoff).
    fn alloc_generation(
        &self,
        source: &Self::Gen,
        new_capacity: usize,
        version: u64,
    ) -> Result<Self::Gen, crate::mem::AllocError>;

    /// Copy the source cells `[start, end)` of `job` into its target;
    /// returns the number of live elements moved.  Must be **idempotent**
    /// (a rescuer may re-copy the range) and must count an element only in
    /// the copy that actually claims its target cell, so `job.migrated`
    /// stays exact.
    fn copy_range(&self, job: &MigrationJob<Self::Gen>, start: usize, end: usize) -> usize;

    /// `true` under the asynchronous (mark-frozen) protocol.  Tables that
    /// only support marking keep the default.
    fn uses_marking(&self) -> bool {
        true
    }

    /// `true` when user threads are recruited into migrations (§5.3.2
    /// enslavement); `false` for the pool strategy, where they wait.
    fn enslaves(&self) -> bool {
        true
    }

    /// Per-op help budget for drafted helpers (DESIGN.md §13); the growth
    /// leader, pool workers and the rescue pass are never budgeted.
    fn help_budget(&self) -> Option<usize> {
        None
    }

    /// Synchronized-protocol exclusion: raise the growing flag and wait
    /// until no registered handle is inside a table operation.  No-op for
    /// marking tables.
    fn quiesce_writers(&self, _leader: &Self::Leader) {}

    /// Wake a dedicated migration pool, if the table has one.
    fn signal_pool(&self) {}

    /// Table-specific recovery run under the finalization latch before
    /// the counters are reset (the word table re-migrates a source with no
    /// empty cell, where the cluster migration of Lemma 1 degenerates).
    fn recover_degenerate(&self, _job: &Arc<MigrationJob<Self::Gen>>) {}

    // -----------------------------------------------------------------
    // The protocol (default methods; do not override)
    // -----------------------------------------------------------------

    /// Request that the generation observed at `observed_version` be
    /// replaced, then help or wait until it has been.
    ///
    /// Infallible: when the target cannot be allocated the old generation
    /// keeps serving and the attempt is retried with capped exponential
    /// backoff — operations that only need the *old* generation (finds,
    /// updates, erases) are never blocked by the failed growth, and a
    /// blocked insert becomes a retry loop instead of an abort (graceful
    /// degradation, DESIGN.md §12).  Use [`GrowProtocol::try_grow`] for
    /// the bounded-attempt variant behind the `try_*` handle operations.
    fn grow(&self, observed_version: u64, leader: &Self::Leader) {
        let mut backoff_us = 50u64;
        loop {
            if self.try_grow_once(observed_version, leader).is_ok() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_micros(backoff_us));
            backoff_us = (backoff_us * 2).min(5_000);
        }
    }

    /// Bounded-attempt growth used by the `try_*` handle operations:
    /// a few short-backoff attempts, then the allocation failure is
    /// reported to the caller instead of being retried forever.
    fn try_grow(
        &self,
        observed_version: u64,
        leader: &Self::Leader,
    ) -> Result<(), crate::mem::AllocError> {
        const ATTEMPTS: u32 = 8;
        let mut backoff_us = 50u64;
        let mut attempt = 0;
        loop {
            match self.try_grow_once(observed_version, leader) {
                Ok(()) => return Ok(()),
                Err(error) => {
                    attempt += 1;
                    if attempt >= ATTEMPTS {
                        return Err(error);
                    }
                    std::thread::sleep(std::time::Duration::from_micros(backoff_us));
                    backoff_us = (backoff_us * 2).min(5_000);
                }
            }
        }
    }

    /// One growth attempt.  `Ok(())` means the observed generation has been
    /// (or is being) replaced — or the trigger was stale; `Err` reports the
    /// allocation failure that kept the leader from installing a migration
    /// job (the coordinator is back in `IDLE` so any thread can retry).
    fn try_grow_once(
        &self,
        observed_version: u64,
        leader: &Self::Leader,
    ) -> Result<(), crate::mem::AllocError> {
        // Stale trigger: someone already replaced the generation.
        if self.generations().version() != observed_version {
            return Ok(());
        }
        match self.coord().state.compare_exchange(
            STATE_IDLE,
            STATE_PREPARING,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // Leader path.  From here until the job is published the
                // coordinator must never be left in PREPARING: the guard
                // restores IDLE (and lowers the growing flag) if
                // preparation fails *or unwinds*, so a crashed leader
                // cannot wedge every later growth attempt.
                struct PrepareGuard<'c, G> {
                    coordinator: &'c Coordinator<G>,
                    armed: bool,
                }
                impl<G> Drop for PrepareGuard<'_, G> {
                    fn drop(&mut self) {
                        if self.armed {
                            self.coordinator.growing_flag.store(false, Ordering::SeqCst);
                            self.coordinator.state.store(STATE_IDLE, Ordering::Release);
                        }
                    }
                }
                let mut guard = PrepareGuard {
                    coordinator: self.coord(),
                    armed: true,
                };
                // Re-check staleness now that we own the lock.
                if self.generations().version() != observed_version {
                    return Ok(());
                }
                self.prepare_migration(observed_version, leader)?;
                guard.armed = false;
                self.signal_pool();
                if self.enslaves() {
                    self.participate();
                }
                self.wait_until_replaced(observed_version);
                Ok(())
            }
            Err(_) => {
                self.help_or_wait(observed_version);
                Ok(())
            }
        }
    }

    /// Leader-only: allocate the target generation and publish the
    /// migration job.  The capacity policy is §5.2's: grow by at least the
    /// configured factor when the live estimate justifies it, shrink far
    /// below the shrink threshold, otherwise run a cleanup migration that
    /// only drops tombstones.  Fallible: an allocation failure leaves the
    /// table untouched (the caller's guard restores the coordinator).
    fn prepare_migration(
        &self,
        expected_version: u64,
        leader: &Self::Leader,
    ) -> Result<(), crate::mem::AllocError> {
        let started = Instant::now();
        self.quiesce_writers(leader);

        let (source, version) = self.generations().acquire();
        debug_assert_eq!(version, expected_version);
        let live = self.counts().live_estimate() as usize;
        let old_capacity = Self::capacity_of(&source);
        // Desired capacity from the live estimate (2·live … 4·live cells);
        // never shrink below a small minimum so tiny tables stay cheap to
        // migrate.
        let desired = capacity_for(live.max(1)).max(64);
        let new_capacity = if desired > old_capacity {
            // Grow by at least the configured factor.
            desired.max(old_capacity.saturating_mul(self.grow_config().growth_factor))
        } else if (live as f64) < self.grow_config().shrink_threshold * old_capacity as f64
            && desired < old_capacity
        {
            desired // shrink
        } else {
            old_capacity // cleanup migration (γ = 1): drop tombstones only
        };

        let block_size = block_size_for(old_capacity, self.grow_config().migration_block);
        let total_blocks = old_capacity.div_ceil(block_size);
        if growt_failpoints::fire(Self::FP_PREPARE_ALLOC) {
            return Err(crate::mem::AllocError {
                bytes: new_capacity * std::mem::size_of::<crate::cell::Cell>(),
            });
        }
        let target = Arc::new(self.alloc_generation(&source, new_capacity, version + 1)?);
        let job = Arc::new(MigrationJob {
            source,
            target,
            expected_version: version,
            next_block: AtomicUsize::new(0),
            blocks_done: AtomicUsize::new(0),
            total_blocks,
            block_size,
            migrated: AtomicU64::new(0),
            block_states: (0..total_blocks)
                .map(|_| AtomicU8::new(BLOCK_FREE))
                .collect(),
            finalize_state: AtomicU8::new(FINALIZE_IDLE),
            rehash: new_capacity < old_capacity,
            marking: self.uses_marking(),
            leader: std::thread::current().id(),
            prepare_ns: started.elapsed().as_nanos() as u64,
            copy_ns: AtomicU64::new(0),
            blocks_by_leader: AtomicUsize::new(0),
            rescued: AtomicUsize::new(0),
            chunks_transactional: AtomicUsize::new(0),
            chunks_locked: AtomicUsize::new(0),
        });
        *self.coord().job.lock() = Some(job);
        self.coord().state.store(STATE_MIGRATING, Ordering::Release);
        Ok(())
    }

    /// The currently installed migration job, if any.
    fn current_job(&self) -> Option<Arc<MigrationJob<Self::Gen>>> {
        self.coord().job.lock().as_ref().map(Arc::clone)
    }

    /// Pull migration blocks until none are left; the participant that
    /// completes the last block finalizes the migration.
    fn participate(&self) {
        self.participate_bounded(usize::MAX);
    }

    /// Pull migration blocks until none are left *or* this caller has
    /// copied `budget` blocks, whichever comes first (the bounded help of
    /// DESIGN.md §13).  Stopping early is always safe: a block is either
    /// untouched (the cursor simply never dealt it to us) or fully copied
    /// and completed under its lease, so the remaining participants — and,
    /// after the waiters' patience runs out, the rescue pass — observe
    /// exactly the states they would under help-until-done.
    fn participate_bounded(&self, budget: usize) {
        let Some(job) = self.current_job() else {
            return;
        };
        // Phase 1: deal out fresh blocks through the shared cursor.
        let mut copied = 0usize;
        while copied < budget {
            let block = job.next_block.fetch_add(1, Ordering::AcqRel);
            if block >= job.total_blocks {
                break;
            }
            if job.block_states[block]
                .compare_exchange(
                    BLOCK_FREE,
                    BLOCK_CLAIMED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                // A rescuer already (re-)claimed this block after its first
                // owner crashed and released the lease; the cursor moves on.
                continue;
            }
            self.copy_block(&job, block);
            copied += 1;
        }
        self.maybe_finalize(&job);
    }

    /// Copy one leased block into the target and complete the lease.
    ///
    /// The lease guard releases the claim (CLAIMED → FREE) if the copy
    /// unwinds — an injected fault or an allocation panic inside the copy
    /// must not strand the block forever; a rescuer will re-claim and
    /// re-copy it (idempotently).  Completion (CLAIMED → DONE) has exactly
    /// one winner even when a stalled owner races its own rescuer, so
    /// `blocks_done` counts every block exactly once.
    fn copy_block(&self, job: &Arc<MigrationJob<Self::Gen>>, block: usize) {
        struct Lease<'j, G> {
            job: &'j MigrationJob<G>,
            block: usize,
            completed: bool,
        }
        impl<G> Drop for Lease<'_, G> {
            fn drop(&mut self) {
                if !self.completed {
                    let _ = self.job.block_states[self.block].compare_exchange(
                        BLOCK_CLAIMED,
                        BLOCK_FREE,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                }
            }
        }
        let mut lease = Lease {
            job: job.as_ref(),
            block,
            completed: false,
        };
        growt_failpoints::fire(Self::FP_BLOCK_CLAIMED);
        let capacity = Self::capacity_of(&job.source);
        let start = block * job.block_size;
        let end = ((block + 1) * job.block_size).min(capacity);
        let copy_started = Instant::now();
        let migrated = self.copy_range(job, start, end);
        // Relaxed: statistics of the phase record, publishing nothing.
        job.copy_ns
            .fetch_add(copy_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if std::thread::current().id() == job.leader {
            job.blocks_by_leader.fetch_add(1, Ordering::Relaxed);
        }
        job.migrated.fetch_add(migrated as u64, Ordering::AcqRel);
        lease.completed = true;
        if job.block_states[block]
            .compare_exchange(
                BLOCK_CLAIMED,
                BLOCK_DONE,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            job.blocks_done.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Rescue pass for a migration that stopped making progress: re-claim
    /// released leases and re-copy claimed-but-stalled blocks, then try to
    /// finalize.  Entered from [`GrowProtocol::wait_until_replaced`] after
    /// a long patience window, so in the fault-free case it never runs;
    /// when it does, re-copying a block whose owner is merely slow (rather
    /// than dead) is wasteful but safe — copies are idempotent and
    /// completion has a single winner.
    fn rescue_stalled_blocks(&self, job: &Arc<MigrationJob<Self::Gen>>) {
        for block in 0..job.total_blocks {
            if self.generations().version() != job.expected_version {
                return; // someone finalized a replacement meanwhile
            }
            let rescue = match job.block_states[block].load(Ordering::Acquire) {
                BLOCK_DONE => false,
                // Released by a crashed owner's lease guard (or never
                // dealt out because the owner died between the cursor
                // fetch-add and the claim).
                BLOCK_FREE => job.block_states[block]
                    .compare_exchange(
                        BLOCK_FREE,
                        BLOCK_CLAIMED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok(),
                // CLAIMED: the owner may be alive but descheduled — a
                // re-copy is idempotent either way, so make progress
                // instead of trying to distinguish.
                _ => true,
            };
            if rescue {
                self.copy_block(job, block);
                job.rescued.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.maybe_finalize(job);
    }

    /// Finalize the migration once every block lease is DONE.  Re-entrant:
    /// any number of participants may call this; the latch picks one
    /// finalizer at a time, and a finalizer that unwinds releases the
    /// latch so the next caller retries (all finalization steps are
    /// idempotent — the generation publish is version-guarded).
    fn maybe_finalize(&self, job: &Arc<MigrationJob<Self::Gen>>) {
        while job.blocks_done.load(Ordering::Acquire) >= job.total_blocks {
            match job.finalize_state.compare_exchange(
                FINALIZE_IDLE,
                FINALIZE_RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.finalize(job);
                    return;
                }
                Err(FINALIZE_DONE) => return,
                // Another finalizer is mid-flight: wait for it to either
                // finish (DONE) or unwind (back to IDLE, then we retry).
                Err(_) => std::thread::yield_now(),
            }
        }
    }

    /// The single-finalizer body behind the latch in
    /// [`GrowProtocol::maybe_finalize`].  Idempotent by construction so
    /// that a first attempt that unwinds (injected fault) can be completed
    /// by a retry: the counter reset is a plain store, the publish is
    /// guarded by the expected version, and the coordinator teardown
    /// checks that the installed job is still this one.
    fn finalize(&self, job: &Arc<MigrationJob<Self::Gen>>) {
        struct Latch<'j, G> {
            job: &'j MigrationJob<G>,
            completed: bool,
        }
        impl<G> Drop for Latch<'_, G> {
            fn drop(&mut self) {
                let next = if self.completed {
                    FINALIZE_DONE
                } else {
                    FINALIZE_IDLE
                };
                self.job.finalize_state.store(next, Ordering::Release);
            }
        }
        let mut latch = Latch {
            job: job.as_ref(),
            completed: false,
        };
        growt_failpoints::fire(Self::FP_FINALIZE);
        let started = Instant::now();
        self.recover_degenerate(job);
        // All blocks are migrated: no writer can still succeed on the old
        // generation (every cell is frozen under the marking protocol;
        // under the synchronized protocol the growing flag excludes
        // writers), so the counters can be reset before the new generation
        // becomes visible.
        let live = job.migrated.load(Ordering::Acquire);
        self.counts().reset_after_migration(live);
        // Logged before the publication so that a waiter, released by it,
        // finds the record its wait belongs to.
        self.coord().log_migration(MigrationRecord {
            generation: job.expected_version,
            from_capacity: Self::capacity_of(&job.source),
            to_capacity: Self::capacity_of(&job.target),
            live,
            blocks: job.total_blocks,
            block_size: job.block_size,
            prepare_ns: job.prepare_ns,
            copy_ns: job.copy_ns.load(Ordering::Relaxed),
            finalize_ns: 0,
            longest_wait_ns: 0,
            blocks_by_leader: job.blocks_by_leader.load(Ordering::Relaxed),
            rescued: job.rescued.load(Ordering::Relaxed),
            chunks_transactional: job.chunks_transactional.load(Ordering::Relaxed),
            chunks_locked: job.chunks_locked.load(Ordering::Relaxed),
        });
        if self
            .generations()
            .publish_if(job.expected_version, Arc::clone(&job.target))
            .is_ok()
        {
            self.coord()
                .migrations_completed
                .fetch_add(1, Ordering::AcqRel);
        }
        {
            let mut slot = self.coord().job.lock();
            if slot.as_ref().is_some_and(|j| Arc::ptr_eq(j, job)) {
                *slot = None;
            }
        }
        self.coord().growing_flag.store(false, Ordering::SeqCst);
        latch.completed = true;
        self.coord().state.store(STATE_IDLE, Ordering::Release);
        let finalize_ns = started.elapsed().as_nanos() as u64;
        self.coord()
            .update_record(job.expected_version, |r| r.finalize_ns = finalize_ns);
    }

    /// Help with (enslavement) or wait for (pool) an in-flight migration of
    /// the generation `observed_version`.  Under a help budget a drafted
    /// helper copies at most that many blocks before falling through to
    /// the backoff wait; the growth leader (in
    /// [`GrowProtocol::try_grow_once`]) never comes through here and stays
    /// unbudgeted, so every migration retains at least one help-until-done
    /// participant.
    fn help_or_wait(&self, observed_version: u64) {
        if self.enslaves() {
            // The job may not be published yet (leader still preparing);
            // spin until there is something to do or the table changed.
            loop {
                if self.generations().version() != observed_version {
                    return;
                }
                match self.coord().state.load(Ordering::Acquire) {
                    STATE_MIGRATING => {
                        self.participate_bounded(self.help_budget().unwrap_or(usize::MAX));
                        self.wait_until_replaced(observed_version);
                        return;
                    }
                    STATE_IDLE => return,
                    _ => std::hint::spin_loop(),
                }
            }
        } else {
            self.wait_until_replaced(observed_version)
        }
    }

    /// Wait for the observed generation to be replaced: spin while the
    /// copy makes progress, then yield, then sleep with capped exponential
    /// backoff; mount the §12 rescue pass whenever another patience window
    /// of wall-clock time has gone by.
    ///
    /// A waiter is a thread with nothing left to copy, so what it waits
    /// for is the tail of the migration — at most one block per other
    /// participant, plus the finalization.  Sleeping through that (the
    /// shortest sleep the kernel grants is 50–100 µs, the 2^11-cell copy
    /// takes 27) added more to the trapped operation than the copy itself;
    /// spinning without bound starves the block owner when both share a
    /// CPU.  Hence: spin only while `blocks_done` moved within the last two
    /// block-copy times, a span derived from the job's block size.
    fn wait_until_replaced(&self, observed_version: u64) {
        /// Wall-clock time without a publication after which a waiter
        /// suspects the migration of being wedged and mounts a rescue
        /// (then again every this-long).  Large enough that a healthy
        /// migration always finishes first, small enough that an abandoned
        /// one recovers in milliseconds.
        const RESCUE_PATIENCE: Duration = Duration::from_millis(10);
        /// Backoff cap.  Same shape as the grow-retry backoff (50 µs
        /// doubling) but a much tighter cap: a waiter that oversleeps the
        /// publication adds its remaining sleep directly to the trapped
        /// op's latency, whereas the grow-retry path only delays a
        /// *re-attempt* after an allocation failure.
        const BACKOFF_CAP_US: u64 = 500;
        /// Yields between the end of the spinning and the first sleep.
        const YIELDS: u32 = 64;
        /// The spinning's span per source cell of a block: two block-copy
        /// times at the 10–20 ns a cell costs to freeze and copy
        /// (EXPERIMENTS.md "The grow pause, decomposed").
        const SPIN_NS_PER_CELL: u64 = 32;

        let replaced = || {
            self.generations().version() != observed_version
                || self.coord().state.load(Ordering::Acquire) == STATE_IDLE
        };
        if replaced() {
            return;
        }
        let started = Instant::now();
        let mut job = None;
        let mut blocks_seen = 0usize;
        let mut last_progress = started;
        let mut spin_window = Duration::ZERO;
        let mut yields = 0u32;
        let mut backoff_us = 50u64;
        let mut next_rescue = RESCUE_PATIENCE;
        while !replaced() {
            if job.is_none() {
                // Not installed yet when a pool-strategy waiter arrives
                // during the leader's preparation: it yields until it is.
                job = self
                    .current_job()
                    .filter(|j| j.expected_version == observed_version);
                if let Some(job) = &job {
                    spin_window = Duration::from_nanos(job.block_size as u64 * SPIN_NS_PER_CELL);
                }
            }
            let now = Instant::now();
            if let Some(job) = &job {
                let done = job.blocks_done.load(Ordering::Acquire);
                if done != blocks_seen {
                    blocks_seen = done;
                    last_progress = now;
                    yields = 0;
                    backoff_us = 50;
                }
            }
            if now - last_progress < spin_window {
                std::hint::spin_loop();
            } else if yields < YIELDS {
                yields += 1;
                std::thread::yield_now();
            } else {
                // Nothing moves: the owners are descheduled or gone.  Stop
                // burning the CPU they may be waiting for.
                std::thread::sleep(Duration::from_micros(backoff_us));
                backoff_us = (backoff_us * 2).min(BACKOFF_CAP_US);
            }
            if now - started >= next_rescue {
                next_rescue += RESCUE_PATIENCE;
                // The migration has not completed for a long time: its
                // participants may have crashed holding block leases or
                // an unfinished finalization.  Rescue instead of waiting
                // forever (this also recruits waiting application threads
                // under the Pool strategy — a documented deviation that
                // only matters when the pool itself died; DESIGN.md §12).
                if let Some(job) = &job {
                    self.rescue_stalled_blocks(job);
                }
            }
        }
        let waited_ns = started.elapsed().as_nanos() as u64;
        self.coord().update_record(observed_version, |r| {
            r.longest_wait_ns = r.longest_wait_ns.max(waited_ns)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MIGRATION_BLOCK;

    #[test]
    fn blocks_scale_with_capacity_under_the_configured_bound() {
        // The tables a second thread used to sleep through: 8–16 leases.
        for log2 in 11..=16 {
            let capacity = 1usize << log2;
            let block = block_size_for(capacity, MIGRATION_BLOCK);
            let blocks = capacity.div_ceil(block);
            assert!((8..=16).contains(&blocks), "2^{log2}: {blocks} blocks");
        }
        // `migration_block` stays the upper bound, whatever it is set to.
        for configured in [1, 64, 256, 1000, MIGRATION_BLOCK, 1 << 20] {
            for log2 in 1..=24 {
                let block = block_size_for(1usize << log2, configured);
                assert!((1..=configured).contains(&block));
            }
        }
        // Small tables are one lease; large ones keep the configured block.
        assert_eq!(block_size_for(64, MIGRATION_BLOCK), 256);
        assert_eq!(block_size_for(1 << 20, MIGRATION_BLOCK), MIGRATION_BLOCK);
    }
}
