//! The shared growth/migration coordinator: the §12 protocol, exactly once.
//!
//! Every growing table in this crate replaces its current generation by a
//! migrated copy through the same protocol — leader election by an
//! `IDLE → PREPARING` CAS, fallible target allocation with graceful
//! degradation, an uncleared target cleared in slices by the writers that
//! pass, steal-able block leases with rescue, a re-entrant
//! finalization latch, and a version-guarded generation publish.  Until
//! this module existed the protocol lived twice (once in [`crate::grow`]
//! for the word table, once in `complex/growing.rs` for the string table,
//! the latter documented as a deliberate mirror); now it lives here as the
//! default methods of [`GrowProtocol`], and each table contributes only
//! what actually differs:
//!
//! * **what a generation is** ([`GrowProtocol::Gen`]) and how to allocate
//!   ([`GrowProtocol::alloc_generation`]), clear
//!   ([`GrowProtocol::clear_slice`]) and copy
//!   ([`GrowProtocol::copy_range`]) one;
//! * **strategy axes** — enslavement vs. pool
//!   ([`GrowProtocol::enslaves`], [`GrowProtocol::signal_pool`]),
//!   marking vs. exclusive ([`GrowProtocol::quiesce_writers`], whose answer
//!   is the job's [`MigrationMode`]);
//! * **failpoint names**, so the fault-injection schedules keep targeting
//!   each table's migration independently;
//! * **degenerate-case recovery** ([`GrowProtocol::recover_degenerate`]),
//!   which only the word table's cluster migration needs.
//!
//! The protocol invariants (lease lifecycle, idempotent copies, unique
//! `CLAIMED → DONE` winner, the placement gate, unwind-safe guards) are
//! documented once, on the default methods below; DESIGN.md §12/§14 give
//! the full argument.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use growt_iface::sync::lock;
use growt_reclaim::VersionedArc;

use crate::config::{capacity_for, GrowConfig, GROWTH_FACTOR, SHRINK_THRESHOLD};
use crate::count::GlobalCount;

/// Migration coordinator states.
const STATE_IDLE: u64 = 0;
const STATE_PREPARING: u64 = 1;
const STATE_MIGRATING: u64 = 2;

/// Per-block lease states (crash-tolerant recovery, DESIGN.md §12).  A
/// block is **leased**, not owned: a participant that unwinds mid-copy
/// releases its lease (CLAIMED → FREE) through a drop guard, and a
/// rescuer may re-copy a block whose owner stalled — block copies are
/// idempotent (see `crate::migrate::place_sequential` and
/// `crate::generic`'s block copier), so a block may be copied any number
/// of times as long as it is *completed* exactly once (the CLAIMED → DONE
/// transition has a unique winner).
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
/// Bytes of an uncleared target that one passing write clears.  On a 2-vCPU
/// Xeon (2 MiB L2) a recycled target of 64 KiB–2 MiB clears 4 KiB in
/// 0.1–0.16 µs at the median and under 0.5 µs at p999, with other work
/// between the slices (8 KiB: 0.2–0.4 and 0.65 µs).  In `insert_grow`'s
/// flow, where a slice's lines are colder, 4 KiB read a higher unstalled
/// share than 8 KiB in 4 of 4 runs (EXPERIMENTS.md "PR 40"): a clearing
/// write must stay well under the 2 µs at which an operation counts as
/// stalled (DESIGN.md §13).
pub(crate) const CLEAR_SLICE_BYTES: usize = 4 << 10;

/// How a migration keeps writers from changing a source cell after the copy
/// has read it (DESIGN.md §12, §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMode {
    /// No writer runs while the migration does: the leader excluded them
    /// before dealing out blocks, so the copy reads source cells with
    /// plain loads and marks nothing.
    Exclusive,
    /// Writers run on; the copy freezes every source cell with the
    /// migration mark before it reads it (the asynchronous protocol).
    Marking,
}

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
/// out of blocks (or was never drafted) waited for the publication.  The
/// electing thread's part is `prepare_ns`; a target that came uncleared is
/// then cleared a slice per passing write over `clear_ns`, and the leader —
/// the thread that cleared the last slice, or the elector when there were
/// none — spends `quiesce_ns` before the copy.
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
    /// Elector: sizing and allocating the target, from the election on.
    pub prepare_ns: u64,
    /// From the election to the last slice of the target cleared; 0 when
    /// the target came cleared.
    pub clear_ns: u64,
    /// Slices of 4 KiB (`CLEAR_SLICE_BYTES`) the target was cleared in, one per
    /// passing write; 0 when it came cleared (a fresh mapping, or a table
    /// that allocates its generations zeroed).
    pub slices: usize,
    /// Slices the electing thread cleared itself.
    pub slices_by_elector: usize,
    /// Leader, once the target is clear: excluding the writers (raising
    /// the growing flag, the heavy barrier, waiting for busy handles) — or
    /// giving up on that, which makes the migration mark.
    pub quiesce_ns: u64,
    /// How the copy kept writers off the source.
    pub mode: MigrationMode,
    /// Freeze and copy, summed over all block copies (re-copies included).
    pub copy_ns: u64,
    /// Finalizer: counter reset, publication, job teardown.
    pub finalize_ns: u64,
    /// Longest wait of a thread with nothing left to copy.
    pub longest_wait_ns: u64,
    /// Blocks copied by the leader, the thread that installed the job.
    pub blocks_by_leader: usize,
    /// Block copies made by a waiter's rescue pass (0 unless a participant
    /// crashed or stalled past the rescue patience).
    pub rescued: usize,
    /// Chunks of at most 64 source cells that a marking migration froze,
    /// one locked instruction a cell, over all block copies: `⌈range cells /
    /// 64⌉` per (wrapped) piece of a block's range per copy (`GrowMap`; the
    /// word table's copiers do not count).  Always 0 in exclusive mode,
    /// which freezes nothing.  Placement is plain stores in every mode and
    /// counts nowhere.
    pub chunks_locked: usize,
}

/// All shared, per-migration state.  Participants clone the `Arc`, so a
/// straggler holding the job of an already finished migration simply finds
/// its block counter exhausted and leaves without touching a newer
/// migration.
///
/// Laid out for the copy (DESIGN.md §12): the fields every chunk reads —
/// `source`, `target`, `block_size`, the lease slots' slice and `mode` —
/// are written once, by the leader, and share no cache line with what the
/// copiers write.  A chunk's placement gate writes only its own lease's
/// slot ([`LeaseSlot`]); the once-per-block counters sit together in
/// [`Progress`], on lines of their own.
pub(crate) struct MigrationJob<G> {
    pub(crate) source: Arc<G>,
    pub(crate) target: Arc<G>,
    pub(crate) expected_version: u64,
    total_blocks: usize,
    block_size: usize,
    /// One slot per block lease, each on its own pair of cache lines.
    leases: Box<[LeaseSlot]>,
    /// `true` when the target is smaller than the source (shrink/cleanup
    /// with rehash insertion instead of cluster migration; tables whose
    /// migration always rehashes ignore this).
    pub(crate) rehash: bool,
    /// Whether writers were excluded or source cells must be frozen.
    pub(crate) mode: MigrationMode,
    // Phase accounting for the coordinator's `MigrationRecord`.
    leader: ThreadId,
    preparation: Preparation,
    pub(crate) progress: Progress,
}

/// The phase record's fields that are known once the job is installed.
#[derive(Clone, Copy)]
struct Preparation {
    prepare_ns: u64,
    clear_ns: u64,
    slices: usize,
    slices_by_elector: usize,
    quiesce_ns: u64,
}

/// A migration between its election and its job: the sized source, the
/// allocated target and, while the writers clear it, how far they got
/// (DESIGN.md §13).  The coordinator keeps it, under the clearing lock,
/// from the election until the last slice is clear.
pub(crate) struct Prepared<G> {
    source: Arc<G>,
    target: Arc<G>,
    expected_version: u64,
    total_blocks: usize,
    block_size: usize,
    rehash: bool,
    elected: Instant,
    elector: ThreadId,
    prepare_ns: u64,
    /// Slices the target needs cleared; 0 when it came cleared.
    slices: usize,
    /// Slices cleared, which is also the next one to clear: raised only
    /// once its slice is clear, so a clearer that unwinds inside a slice
    /// leaves it to the next one.
    cleared: usize,
    slices_by_elector: usize,
}

/// Restores `IDLE`, and lowers the growing flag and the clearing bit, when
/// a migration's preparation fails or unwinds before its job is installed:
/// a crashed elector or leader cannot wedge every later growth attempt.
struct PrepareGuard<'c, G> {
    coordinator: &'c Coordinator<G>,
    generations: &'c VersionedArc<G>,
    armed: bool,
}

impl<G> Drop for PrepareGuard<'_, G> {
    fn drop(&mut self) {
        if self.armed {
            self.generations.lower_flag();
            self.generations.lower_clearing();
            self.coordinator.state.store(STATE_IDLE, Ordering::Release);
        }
    }
}

/// A block lease: its state (`BLOCK_FREE`/`BLOCK_CLAIMED`/`BLOCK_DONE`)
/// and its placement gate's count of copiers inside
/// ([`MigrationJob::enter_placement`]).  Aligned to 128 bytes, the pair of
/// lines the adjacent-line prefetcher fetches together, so copiers of
/// different blocks never write a line in common; a late owner and its
/// rescuer share their block's slot.
#[repr(align(128))]
struct LeaseSlot {
    state: AtomicU8,
    placing: AtomicUsize,
}

/// A migration's once-per-block counters (and the finalization latch),
/// together on a 128-byte slot of their own: the copiers write them once
/// per block, never per chunk.
#[repr(align(128))]
pub(crate) struct Progress {
    next_block: AtomicUsize,
    blocks_done: AtomicUsize,
    /// Live elements credited by the copies that completed their blocks.
    pub(crate) migrated: AtomicU64,
    /// Finalization latch (`FINALIZE_*`).
    finalize_state: AtomicU8,
    copy_ns: AtomicU64,
    pub(crate) chunks_locked: AtomicUsize,
    blocks_by_leader: AtomicUsize,
    rescued: AtomicUsize,
}

impl<G> MigrationJob<G> {
    /// Enter the placement gate of lease `block` for one pass of its
    /// placements: `Some` while the lease is still `CLAIMED`, and then the
    /// target stays unpublished until the returned pass is dropped.  `None`
    /// once someone else completed the block (a rescuer, after the owner
    /// stalled past the patience): the target may be published already,
    /// and a store into it would overwrite what writers put there since
    /// (DESIGN.md §12).
    ///
    /// The lease's counter is raised *before* its state is read, both
    /// `SeqCst`, and [`GrowProtocol::finalize`] reads every lease's counter
    /// after all leases are `DONE` (behind a `SeqCst` fence): either this
    /// read sees `DONE`, or the finalizer sees the raised counter and waits
    /// for the pass.
    pub(crate) fn enter_placement(&self, block: usize) -> Option<PlacementPass<'_>> {
        let slot = &self.leases[block];
        slot.placing.fetch_add(1, Ordering::SeqCst);
        let pass = PlacementPass(&slot.placing);
        (slot.state.load(Ordering::SeqCst) == BLOCK_CLAIMED).then_some(pass)
    }

    /// Wait until no copier is inside the placement gate of any lease.
    /// Called with every lease `DONE`, so no new pass gets in; the one in
    /// flight is at most 64 placements long, unless its thread was
    /// descheduled in it.
    fn drain_placements(&self) {
        fence(Ordering::SeqCst);
        let mut spins = 0u32;
        for slot in self.leases.iter() {
            while slot.placing.load(Ordering::SeqCst) != 0 {
                if spins < 1024 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// A copier's stay in the placement gate of one lease; leaving it — also
/// by unwinding — lowers that lease's in-flight count.
pub(crate) struct PlacementPass<'j>(&'j AtomicUsize);

impl Drop for PlacementPass<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The per-table coordinator cell: migration state machine, the target
/// being cleared, the installed job and completion diagnostics.  (The
/// growing flag of a migration that excludes writers, and the clearing bit
/// raised while the record below holds a target, live in the generation
/// slot's version word: [`VersionedArc::raise_flag`],
/// [`VersionedArc::raise_clearing`].)
pub(crate) struct Coordinator<G> {
    state: AtomicU64,
    /// The prepared migration whose target waits for its slices; the lock
    /// is the clearing lock, which passing writers only try.  Boxed: it is
    /// there for a fraction of the table's life.
    clearing: Mutex<Option<Box<Prepared<G>>>>,
    job: Mutex<Option<Arc<MigrationJob<G>>>>,
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
            clearing: Mutex::new(None),
            job: Mutex::new(None),
            migrations_completed: AtomicU64::new(0),
            log: Mutex::new(VecDeque::new()),
        }
    }

    /// `true` from a migration's election until its job is installed —
    /// while the target is allocated, cleared in slices and the writers
    /// excluded: an insert that has landed and meets its growth trigger
    /// then returns instead of waiting (DESIGN.md §13).  The cheap check;
    /// [`GrowProtocol::try_grow_once`] closes the race with an election
    /// that is being won meanwhile.
    pub(crate) fn preparing(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_PREPARING
    }

    /// The phase records of the most recent migrations, oldest first.
    pub(crate) fn migration_log(&self) -> Vec<MigrationRecord> {
        lock(&self.log).iter().cloned().collect()
    }

    /// Append `record`, dropping the oldest beyond [`MIGRATION_LOG_LEN`].
    /// A finalization retried after an unwind replaces its own entry.
    fn log_migration(&self, record: MigrationRecord) {
        let mut log = lock(&self.log);
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
        let mut log = lock(&self.log);
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

    /// Failpoint fired before the target-generation allocation
    /// (`FailAlloc` schedules inject an allocation failure here).
    const FP_PREPARE_ALLOC: &'static str;
    /// Failpoint fired inside the clearing of one slice of an uncleared
    /// target, before the slice is cleared; `true` skips the slice, as if
    /// another thread held the clearing lock.
    const FP_PREPARE_SLICE: &'static str;
    /// Failpoint fired right after a block lease is claimed.
    const FP_BLOCK_CLAIMED: &'static str;
    /// Failpoint fired at the start of finalization.
    const FP_FINALIZE: &'static str;
    /// `true` when a shrinking migration must be one block: the table's
    /// copier places with plain stores, relying on Lemma 1's disjoint
    /// target ranges, and those need `γ ≥ 1`.  A copier that places by CAS
    /// keeps its blocks.
    const SHRINK_IN_ONE_BLOCK: bool = false;

    fn coord(&self) -> &Coordinator<Self::Gen>;
    fn generations(&self) -> &VersionedArc<Self::Gen>;
    fn counts(&self) -> &GlobalCount;
    fn grow_config(&self) -> &GrowConfig;
    fn capacity_of(generation: &Self::Gen) -> usize;

    /// Allocate the target generation, cleared or not: returns it and the
    /// slices of [`CLEAR_SLICE_BYTES`] it needs cleared
    /// ([`GrowProtocol::clear_slice`]) before anything reads it, 0 when it
    /// came cleared.  Fallible: an `Err` degrades to "keep serving the old
    /// generation" (the caller's guard restores the coordinator state and
    /// the growth is retried with backoff).
    fn alloc_generation(
        &self,
        source: &Self::Gen,
        new_capacity: usize,
        version: u64,
    ) -> Result<(Self::Gen, usize), crate::mem::AllocError>;

    /// Clear slice `slice` of a target that [`GrowProtocol::alloc_generation`]
    /// handed out uncleared.  The clearing lock keeps every other thread
    /// off the target meanwhile.  Tables whose generations come cleared
    /// have no slices and keep the default.
    fn clear_slice(_target: &Self::Gen, _slice: usize) {}

    /// Copy the block `[start, end)`, lease `block`, of `job`'s source into
    /// its target.  Must be **idempotent**: a rescuer may re-copy the block, also while
    /// its owner still copies.  Returns `None` when the copy stopped short
    /// because someone else completed the block, else the live elements to
    /// credit to `job.progress.migrated` — which the copy that completes the block
    /// does, once, so every complete copy must answer the same.
    fn copy_range(
        &self,
        job: &MigrationJob<Self::Gen>,
        block: usize,
        start: usize,
        end: usize,
    ) -> Option<usize>;

    /// `true` when user threads are recruited into migrations (§5.3.2
    /// enslavement); `false` for the pool strategy, where they wait.
    fn enslaves(&self) -> bool {
        true
    }

    /// Decide the migration's mode, once its target is allocated: a table
    /// that can exclude its writers raises the growing flag
    /// ([`VersionedArc::raise_flag`]) and waits until no handle is inside
    /// a write, then answers [`MigrationMode::Exclusive`]; one that cannot
    /// (or gives up waiting) answers [`MigrationMode::Marking`], the
    /// default.
    fn quiesce_writers(&self) -> MigrationMode {
        MigrationMode::Marking
    }

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
    /// Cold, as is that one: kept out of the operations' loops.
    #[cold]
    fn grow(&self, observed_version: u64) {
        let mut backoff_us = 50u64;
        loop {
            if self.try_grow_once(observed_version, false).is_ok() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_micros(backoff_us));
            backoff_us = (backoff_us * 2).min(5_000);
        }
    }

    /// Bounded-attempt growth used by the `try_*` handle operations:
    /// a few short-backoff attempts, then the allocation failure is
    /// reported to the caller instead of being retried forever.
    #[cold]
    fn try_grow(&self, observed_version: u64) -> Result<(), crate::mem::AllocError> {
        const ATTEMPTS: u32 = 8;
        let mut backoff_us = 50u64;
        let mut attempt = 0;
        loop {
            match self.try_grow_once(observed_version, false) {
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
    /// allocation failure that kept the elected thread from preparing a
    /// migration (the coordinator is back in `IDLE` so any thread can
    /// retry).
    ///
    /// The elected thread allocates the target.  One that came cleared it
    /// migrates at once, as the leader; one that came uncleared it leaves
    /// to the writers that pass, a slice each, and the thread that clears
    /// the last slice leads ([`GrowProtocol::clear_next_slice`]).  A thread
    /// that loses the election helps with the migration or waits for it —
    /// unless `skip_preparation` is set and the migration is still being
    /// prepared: an insert that has landed and met its growth trigger need
    /// not wait for that, nor, as the elector, clear the whole target
    /// (DESIGN.md §13).
    fn try_grow_once(
        &self,
        observed_version: u64,
        skip_preparation: bool,
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
                // Elected.  Until the target is handed on, the coordinator
                // must never be left in PREPARING: the guard restores IDLE
                // if the allocation fails *or unwinds*.
                let mut guard = PrepareGuard {
                    coordinator: self.coord(),
                    generations: self.generations(),
                    armed: true,
                };
                // Re-check staleness now that we own the lock.
                if self.generations().version() != observed_version {
                    return Ok(());
                }
                let prepared = self.allocate_target(observed_version)?;
                guard.armed = false;
                if prepared.slices == 0 {
                    self.lead(prepared);
                    return Ok(());
                }
                // The record and the clearing bit change together, under
                // the clearing lock: the bit is up exactly while a target
                // waits for its slices.
                {
                    let mut clearing = lock(&self.coord().clearing);
                    *clearing = Some(Box::new(prepared));
                    self.generations().raise_clearing();
                }
                if !skip_preparation {
                    self.help_or_wait(observed_version);
                }
                Ok(())
            }
            Err(STATE_PREPARING) if skip_preparation => Ok(()),
            Err(_) => {
                self.help_or_wait(observed_version);
                Ok(())
            }
        }
    }

    /// Elector-only: size and allocate the target generation.  The capacity
    /// policy is §5.2's: grow by at least the configured factor when the
    /// live estimate justifies it, shrink far below the shrink threshold,
    /// otherwise run a cleanup migration that only drops tombstones.
    /// Writers keep inserting into the source meanwhile, and while the
    /// target is cleared after it (DESIGN.md §13).  Fallible: an allocation
    /// failure leaves the table untouched (the caller's guard restores the
    /// coordinator).
    fn allocate_target(
        &self,
        expected_version: u64,
    ) -> Result<Prepared<Self::Gen>, crate::mem::AllocError> {
        let elected = Instant::now();
        let (source, version) = self.generations().acquire();
        debug_assert_eq!(version, expected_version);
        let live = self.counts().live_estimate() as usize;
        let old_capacity = Self::capacity_of(&source);
        // Desired capacity from the live estimate (2·live … 4·live cells);
        // never shrink below a small minimum so tiny tables stay cheap to
        // migrate.
        let desired = capacity_for(live.max(1)).max(64);
        let new_capacity = if desired > old_capacity {
            // Grow by at least the growth factor.
            desired.max(old_capacity.saturating_mul(GROWTH_FACTOR))
        } else if (live as f64) < SHRINK_THRESHOLD * old_capacity as f64 && desired < old_capacity {
            desired // shrink
        } else {
            old_capacity // cleanup migration (γ = 1): drop tombstones only
        };

        let rehash = new_capacity < old_capacity;
        let block_size = if rehash && Self::SHRINK_IN_ONE_BLOCK {
            old_capacity
        } else {
            block_size_for(old_capacity, self.grow_config().migration_block)
        };
        if growt_failpoints::fire(Self::FP_PREPARE_ALLOC) {
            return Err(crate::mem::AllocError {
                bytes: new_capacity * std::mem::size_of::<crate::cell::Cell>(),
            });
        }
        let (target, slices) = self.alloc_generation(&source, new_capacity, version + 1)?;
        Ok(Prepared {
            source,
            target: Arc::new(target),
            expected_version: version,
            total_blocks: old_capacity.div_ceil(block_size),
            block_size,
            rehash,
            elected,
            elector: std::thread::current().id(),
            prepare_ns: elected.elapsed().as_nanos() as u64,
            slices,
            cleared: 0,
            slices_by_elector: 0,
        })
    }

    /// Clear the next slice of the target that waits for them, unless
    /// another thread holds the clearing lock or no target waits; called
    /// in the prologue of a write that saw the clearing bit, its busy flag
    /// lowered, and by a thread that waits for the preparation.  The thread
    /// that clears the last slice lowers the bit and leads the migration
    /// ([`GrowProtocol::lead`]) before it returns.  `false` when there was
    /// nothing for this thread to clear.
    #[cold]
    fn clear_next_slice(&self) -> bool {
        let mut clearing = match self.coord().clearing.try_lock() {
            Ok(clearing) => clearing,
            // A clearer unwound inside a slice, which it did not count: the
            // slice is cleared again, here.
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        let Some(prepared) = clearing.as_mut() else {
            return false;
        };
        if growt_failpoints::fire(Self::FP_PREPARE_SLICE) {
            return false;
        }
        Self::clear_slice(&prepared.target, prepared.cleared);
        prepared.cleared += 1;
        if std::thread::current().id() == prepared.elector {
            prepared.slices_by_elector += 1;
        }
        if prepared.cleared < prepared.slices {
            return true;
        }
        let prepared = clearing.take().expect("the record was just cleared from");
        self.generations().lower_clearing();
        drop(clearing);
        self.lead(*prepared);
        true
    }

    /// Lead a prepared migration whose target is clear: install its job,
    /// then copy and wait for the publication.  Run by the elector when the
    /// target came cleared, else by the thread that cleared its last slice.
    fn lead(&self, prepared: Prepared<Self::Gen>) {
        let expected_version = prepared.expected_version;
        self.install_job(prepared);
        self.signal_pool();
        if self.enslaves() {
            self.participate();
        }
        self.wait_until_replaced(expected_version);
    }

    /// Decide the mode of a prepared migration
    /// ([`GrowProtocol::quiesce_writers`]) and publish its job.  The guard
    /// restores `IDLE` if this unwinds first; the target is then dropped,
    /// and the next trigger elects again.
    fn install_job(&self, prepared: Prepared<Self::Gen>) {
        let mut guard = PrepareGuard {
            coordinator: self.coord(),
            generations: self.generations(),
            armed: true,
        };
        let clear_ns = if prepared.slices == 0 {
            0
        } else {
            prepared.elected.elapsed().as_nanos() as u64
        };
        let quiesce_started = Instant::now();
        let mode = self.quiesce_writers();
        let job = Arc::new(MigrationJob {
            source: prepared.source,
            target: prepared.target,
            expected_version: prepared.expected_version,
            total_blocks: prepared.total_blocks,
            block_size: prepared.block_size,
            leases: (0..prepared.total_blocks)
                .map(|_| LeaseSlot {
                    state: AtomicU8::new(BLOCK_FREE),
                    placing: AtomicUsize::new(0),
                })
                .collect(),
            rehash: prepared.rehash,
            mode,
            leader: std::thread::current().id(),
            preparation: Preparation {
                prepare_ns: prepared.prepare_ns,
                clear_ns,
                slices: prepared.slices,
                slices_by_elector: prepared.slices_by_elector,
                quiesce_ns: quiesce_started.elapsed().as_nanos() as u64,
            },
            progress: Progress {
                next_block: AtomicUsize::new(0),
                blocks_done: AtomicUsize::new(0),
                migrated: AtomicU64::new(0),
                finalize_state: AtomicU8::new(FINALIZE_IDLE),
                copy_ns: AtomicU64::new(0),
                chunks_locked: AtomicUsize::new(0),
                blocks_by_leader: AtomicUsize::new(0),
                rescued: AtomicUsize::new(0),
            },
        });
        *lock(&self.coord().job) = Some(job);
        // Only from `PREPARING`: once the job is installed, a participant
        // (a pool worker woken late for the previous migration, a handle
        // that meets a marked cell) may copy every block and finalize it
        // before this line runs, and finalize's `IDLE` must stay.  A plain
        // store here put `MIGRATING` back over it with no job left to
        // finish, and every later growth waited forever.
        let _ = self.coord().state.compare_exchange(
            STATE_PREPARING,
            STATE_MIGRATING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        guard.armed = false;
    }

    /// The currently installed migration job, if any.
    fn current_job(&self) -> Option<Arc<MigrationJob<Self::Gen>>> {
        lock(&self.coord().job).as_ref().map(Arc::clone)
    }

    /// Pull migration blocks until none are left (§5.3.2's enslavement:
    /// help until done); the participant that completes the last block
    /// finalizes the migration.
    fn participate(&self) {
        let Some(job) = self.current_job() else {
            return;
        };
        // Deal out fresh blocks through the shared cursor.
        loop {
            let block = job.progress.next_block.fetch_add(1, Ordering::AcqRel);
            if block >= job.total_blocks {
                break;
            }
            if job.leases[block]
                .state
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
    /// `blocks_done` counts every block exactly once, and the winner alone
    /// credits the block's elements to `migrated`.  A copy that stopped
    /// short does not try: the lease it saw gone may be a rescuer's again.
    fn copy_block(&self, job: &Arc<MigrationJob<Self::Gen>>, block: usize) {
        struct Lease<'j, G> {
            job: &'j MigrationJob<G>,
            block: usize,
            completed: bool,
        }
        impl<G> Drop for Lease<'_, G> {
            fn drop(&mut self) {
                if !self.completed {
                    let _ = self.job.leases[self.block].state.compare_exchange(
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
        let copied = self.copy_range(job, block, start, end);
        // Relaxed: statistics of the phase record, publishing nothing.
        job.progress
            .copy_ns
            .fetch_add(copy_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if std::thread::current().id() == job.leader {
            job.progress
                .blocks_by_leader
                .fetch_add(1, Ordering::Relaxed);
        }
        lease.completed = true;
        let Some(migrated) = copied else {
            return;
        };
        if job.leases[block]
            .state
            .compare_exchange(
                BLOCK_CLAIMED,
                BLOCK_DONE,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            job.progress
                .migrated
                .fetch_add(migrated as u64, Ordering::AcqRel);
            job.progress.blocks_done.fetch_add(1, Ordering::AcqRel);
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
            let lease = &job.leases[block].state;
            let rescue = match lease.load(Ordering::Acquire) {
                BLOCK_DONE => false,
                // Released by a crashed owner's lease guard (or never
                // dealt out because the owner died between the cursor
                // fetch-add and the claim).
                BLOCK_FREE => lease
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
                job.progress.rescued.fetch_add(1, Ordering::Relaxed);
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
        while job.progress.blocks_done.load(Ordering::Acquire) >= job.total_blocks {
            match job.progress.finalize_state.compare_exchange(
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
    /// checks that the installed job is still this one.  It publishes only
    /// once the placement gate has drained, so no copier's store lands in
    /// a published target (DESIGN.md §12).
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
                self.job
                    .progress
                    .finalize_state
                    .store(next, Ordering::Release);
            }
        }
        let mut latch = Latch {
            job: job.as_ref(),
            completed: false,
        };
        growt_failpoints::fire(Self::FP_FINALIZE);
        let started = Instant::now();
        job.drain_placements();
        self.recover_degenerate(job);
        // All blocks are migrated: no writer can still succeed on the old
        // generation (every cell is frozen under the marking protocol; in
        // exclusive mode the growing flag keeps writers off), so the
        // counters can be reset before the new generation becomes visible.
        let live = job.progress.migrated.load(Ordering::Acquire);
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
            prepare_ns: job.preparation.prepare_ns,
            clear_ns: job.preparation.clear_ns,
            slices: job.preparation.slices,
            slices_by_elector: job.preparation.slices_by_elector,
            quiesce_ns: job.preparation.quiesce_ns,
            mode: job.mode,
            copy_ns: job.progress.copy_ns.load(Ordering::Relaxed),
            finalize_ns: 0,
            longest_wait_ns: 0,
            blocks_by_leader: job.progress.blocks_by_leader.load(Ordering::Relaxed),
            rescued: job.progress.rescued.load(Ordering::Relaxed),
            chunks_locked: job.progress.chunks_locked.load(Ordering::Relaxed),
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
            let mut slot = lock(&self.coord().job);
            if slot.as_ref().is_some_and(|j| Arc::ptr_eq(j, job)) {
                *slot = None;
            }
        }
        self.generations().lower_flag();
        latch.completed = true;
        self.coord().state.store(STATE_IDLE, Ordering::Release);
        let finalize_ns = started.elapsed().as_nanos() as u64;
        self.coord()
            .update_record(job.expected_version, |r| r.finalize_ns = finalize_ns);
    }

    /// Help with (enslavement) or wait for (pool) an in-flight migration of
    /// the generation `observed_version`: a drafted helper copies blocks
    /// until none are left, then waits for the copies still running.
    /// Cold: kept out of the operations' retry loops, as `grow` is.
    #[cold]
    fn help_or_wait(&self, observed_version: u64) {
        if self.enslaves() {
            // The job may not be published yet: the elector allocates the
            // target, the writers clear it, or the leader waits for busy
            // writers.  Clear what is left of the target; with nothing to
            // clear, spin, then yield the CPU the elector, a clearer or a
            // busy writer may need, until there is something to do or the
            // table changed.
            let mut spins = 0u32;
            loop {
                if self.generations().version() != observed_version {
                    return;
                }
                match self.coord().state.load(Ordering::Acquire) {
                    STATE_MIGRATING => {
                        self.participate();
                        self.wait_until_replaced(observed_version);
                        return;
                    }
                    STATE_IDLE => return,
                    _ if self.clear_next_slice() => {}
                    _ if spins < 1024 => {
                        spins += 1;
                        std::hint::spin_loop();
                    }
                    _ => std::thread::yield_now(),
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
        /// times at the 10–20 ns a cell costs to freeze and copy on the
        /// marking copy's locked path (EXPERIMENTS.md "The grow pause,
        /// decomposed"), generous for the others.
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
                let done = job.progress.blocks_done.load(Ordering::Acquire);
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

    /// The protocol alone: a generation is its capacity, a target comes
    /// with `slices` slices to clear, and a block copy only passes its
    /// lease's placement gate, as `GrowMap`'s copier does before each
    /// chunk's placement.
    struct Sizes {
        current: VersionedArc<usize>,
        counts: GlobalCount,
        coordinator: Coordinator<usize>,
        grow: GrowConfig,
        slices: usize,
    }

    impl GrowProtocol for Sizes {
        type Gen = usize;

        const FP_PREPARE_ALLOC: &'static str = "coord.tests.prepare.alloc";
        const FP_PREPARE_SLICE: &'static str = "coord.tests.prepare.slice";
        const FP_BLOCK_CLAIMED: &'static str = "coord.tests.block.claimed";
        const FP_FINALIZE: &'static str = "coord.tests.finalize";

        fn coord(&self) -> &Coordinator<usize> {
            &self.coordinator
        }

        fn generations(&self) -> &VersionedArc<usize> {
            &self.current
        }

        fn counts(&self) -> &GlobalCount {
            &self.counts
        }

        fn grow_config(&self) -> &GrowConfig {
            &self.grow
        }

        fn capacity_of(capacity: &usize) -> usize {
            *capacity
        }

        fn alloc_generation(
            &self,
            _source: &usize,
            new_capacity: usize,
            _version: u64,
        ) -> Result<(usize, usize), crate::mem::AllocError> {
            Ok((new_capacity, self.slices))
        }

        fn copy_range(
            &self,
            job: &MigrationJob<usize>,
            block: usize,
            _start: usize,
            _end: usize,
        ) -> Option<usize> {
            job.enter_placement(block).map(|_pass| 0)
        }
    }

    fn sizes(capacity: usize, slices: usize) -> Sizes {
        Sizes {
            current: VersionedArc::new(capacity),
            counts: GlobalCount::new(),
            coordinator: Coordinator::new(),
            grow: GrowConfig::default(),
            slices,
        }
    }

    /// A table of `capacity` cells with its migration job installed: 16
    /// leases of 256 cells at 4096 cells.
    fn migrating(capacity: usize) -> (Sizes, Arc<MigrationJob<usize>>) {
        let table = sizes(capacity, 0);
        let prepared = table.allocate_target(1).expect("nothing to allocate");
        table.install_job(prepared);
        let job = table.current_job().expect("installed");
        (table, job)
    }

    /// A late owner inside the placement gate of lease 5 holds the
    /// publication back while every lease is `DONE` — its rescuer completed
    /// lease 5 — and releases it when it leaves (DESIGN.md §12).
    #[test]
    fn a_placement_pass_on_a_later_lease_holds_the_publication_back() {
        let (table, job) = migrating(4096);
        assert_eq!(job.total_blocks, 16);
        let late = 5;
        // Its owner claimed the lease and was descheduled in its gate.
        job.leases[late]
            .state
            .store(BLOCK_CLAIMED, Ordering::SeqCst);
        let pass = job.enter_placement(late).expect("the lease is claimed");
        std::thread::scope(|s| {
            let rescuer = s.spawn(|| {
                table.participate(); // every lease but the late one
                table.rescue_stalled_blocks(&job); // that one, then finalize
            });
            while job.progress.blocks_done.load(Ordering::Acquire) < job.total_blocks {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(table.current.version(), 1, "published past a placement");
            assert!(!rescuer.is_finished());
            drop(pass);
            rescuer.join().unwrap();
        });
        assert_eq!(table.current.version(), 2);
        assert_eq!(
            table
                .coordinator
                .migrations_completed
                .load(Ordering::Acquire),
            1
        );
        assert_eq!(job.progress.rescued.load(Ordering::Relaxed), 1);
    }

    /// The cache lines of a value: first to last.
    fn lines<T: ?Sized>(value: &T) -> std::ops::RangeInclusive<usize> {
        let at = value as *const T as *const u8 as usize;
        at / 64..=(at + std::mem::size_of_val(value) - 1) / 64
    }

    /// Copiers of different leases write no line in common, and no copier
    /// writes a line that every chunk reads — nor any other field of the
    /// job.
    #[test]
    fn lease_slots_and_counters_keep_off_the_lines_each_chunk_reads() {
        // Eight jobs alive at once, so their addresses take every offset
        // from a line boundary that the allocator hands out.
        let jobs: Vec<_> = (0..8).map(|_| migrating(4096)).collect();
        for (_table, job) in &jobs {
            for pair in job.leases.windows(2) {
                let gap =
                    &pair[1] as *const LeaseSlot as usize - &pair[0] as *const LeaseSlot as usize;
                assert!(gap >= 128, "lease slots {gap} bytes apart");
            }
            let counters = lines(&job.progress);
            let read_per_chunk = [
                ("source", lines(&job.source)),
                ("target", lines(&job.target)),
                ("block_size", lines(&job.block_size)),
                ("leases", lines(&job.leases)),
                ("mode", lines(&job.mode)),
            ];
            let others = [
                ("expected_version", lines(&job.expected_version)),
                ("total_blocks", lines(&job.total_blocks)),
                ("rehash", lines(&job.rehash)),
                ("leader", lines(&job.leader)),
                ("preparation", lines(&job.preparation)),
            ];
            for (name, read) in read_per_chunk.into_iter().chain(others) {
                assert!(
                    read.end() < counters.start() || read.start() > counters.end(),
                    "{name} on lines {read:?}, the counters on {counters:?}"
                );
            }
        }
    }
    /// A target that comes with slices: the elector's insert returns with
    /// the clearing bit up and no job; each clearer clears one slice, the
    /// last one leads the migration, and the record tells who did what.
    #[test]
    fn an_uncleared_target_is_cleared_a_slice_a_write_and_led_by_the_last_clearer() {
        let table = sizes(4096, 3);
        table.try_grow_once(1, true).expect("nothing to allocate");
        assert!(table.coord().preparing());
        assert!(table.current.clearing());
        assert!(
            table.current_job().is_none(),
            "a job before the target is clear"
        );
        assert!(table.clear_next_slice(), "the elector's next write");
        assert!(table.clear_next_slice());
        assert!(table.current_job().is_none() && table.current.clearing());
        std::thread::scope(|s| {
            s.spawn(|| assert!(table.clear_next_slice(), "the last slice"));
        });
        assert!(!table.current.clearing());
        assert_eq!(
            table.current.version(),
            2,
            "the last clearer led the migration"
        );
        assert!(!table.clear_next_slice(), "nothing left to clear");
        let record = &table.coordinator.migration_log()[0];
        assert_eq!(
            (record.slices, record.slices_by_elector),
            (3, 2),
            "{record:?}"
        );
        assert!(record.clear_ns >= record.prepare_ns, "{record:?}");
        // A target that comes cleared is led by its elector at once.
        let table = sizes(4096, 0);
        table.try_grow_once(1, true).expect("nothing to allocate");
        assert_eq!(table.current.version(), 2);
        let record = &table.coordinator.migration_log()[0];
        assert_eq!(
            (record.slices, record.slices_by_elector, record.clear_ns),
            (0, 0, 0)
        );
    }

    /// A writer that waits for the preparation clears what is left itself,
    /// and leads; a clearer that holds the lock makes the others pass.
    #[test]
    fn a_waiter_clears_what_is_left_and_a_held_lock_is_passed_by() {
        let table = sizes(4096, 5);
        table.try_grow_once(1, true).expect("nothing to allocate");
        {
            let _held = lock(&table.coordinator.clearing);
            assert!(!table.clear_next_slice(), "a held lock is passed by");
        }
        table.help_or_wait(1);
        assert_eq!(table.current.version(), 2);
        let record = &table.coordinator.migration_log()[0];
        assert_eq!((record.slices, record.slices_by_elector), (5, 5));
    }
}
