//! Junction-style growing open-addressing tables (paper §8.1.1).
//!
//! Jeff Preshing's *junction* library provides several concurrent maps that
//! grow, like growt, by migrating a filled bounded table into a larger one,
//! but with three characteristic differences that this model reproduces:
//!
//! * values support only **overwriting** updates (no atomic
//!   read-modify-write through the interface — Table 1 "only overwrite"),
//!   which is why junction is absent from the aggregation benchmark;
//! * retired tables are reclaimed through a **QSBR** protocol: the
//!   application must periodically call a quiescence function (our driver
//!   does this through `quiesce`);
//! * the migration is executed by the thread that detects the full table
//!   while other threads keep using the old table until the swap —
//!   simpler, but the migration is not parallel, which is the main reason
//!   the junction tables trail the growt variants in Fig. 2b.
//!
//! Two probing disciplines are provided: [`JunctionLinear`] (plain linear
//! probing) and [`JunctionLeapfrog`] (a fixed-stride "leapfrog" probe that
//! models the delta-chained probing of the original Leapfrog map).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use growt_iface::sync::lock;
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};
use growt_reclaim::{CachedArc, QsbrDomain, VersionedArc};

use crate::util::{
    assert_user_key, capacity_for, hash_key, load_published_key, publish_key, scale,
};

const EMPTY: u64 = 0;
const TOMBSTONE: u64 = crate::util::REPAIRED_TOMBSTONE;
/// A cell claimed by an inserter whose value store has not been published
/// yet (same idiom as the folly-style table): probes spin out this short
/// window, so a *published* key always carries its value — a migration can
/// therefore never copy a half-initialized cell, only miss one entirely.
/// Not a valid user key — enforced by `assert_user_key` in the handle.
const INFLIGHT: u64 = crate::util::INFLIGHT;

struct Array {
    keys: Vec<AtomicU64>,
    values: Vec<AtomicU64>,
    capacity: usize,
    used: AtomicUsize,
}

impl Array {
    fn new(capacity: usize) -> Self {
        Array {
            keys: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            values: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            capacity,
            used: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn probe(&self, index: usize, step: usize, stride: usize) -> usize {
        (index + 1 + (step * stride)) & (self.capacity - 1)
    }

    /// Load the key at `index`, spinning out the in-flight insertion
    /// window so callers only ever observe `EMPTY`, `TOMBSTONE` or a
    /// published key (whose value store already happened-before the key
    /// store).
    #[inline]
    fn key_at(&self, index: usize) -> u64 {
        load_published_key(&self.keys[index])
    }

    /// `Ok(true)` inserted, `Ok(false)` already present, `Err(())` full.
    fn insert(&self, key: u64, value: u64, stride: usize) -> Result<bool, ()> {
        if self.used.load(Ordering::Relaxed) * 4 >= self.capacity * 3 {
            return Err(());
        }
        let mut index = scale(hash_key(key), self.capacity);
        let mut step = 0usize;
        let limit = self.capacity.min(512);
        while step < limit {
            let stored = self.key_at(index);
            if stored == key {
                return Ok(false);
            }
            if stored == EMPTY {
                match self.keys[index].compare_exchange(
                    EMPTY,
                    INFLIGHT,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // Initialize the value BEFORE publishing the key,
                        // so no probe (and no migration copy) ever sees a
                        // published key with a transient value.
                        self.values[index].store(value, Ordering::Release);
                        if publish_key(&self.keys[index], key) {
                            self.used.fetch_add(1, Ordering::Relaxed);
                            return Ok(true);
                        }
                        // Our stalled claim was repaired to a tombstone by
                        // a probe; the claim is lost for good — probe past
                        // (consuming the step is fine here: the cell is a
                        // tombstone, which `find_slot` also walks past).
                    }
                    Err(actual) if actual == key => return Ok(false),
                    // Lost the cell to a concurrent insert: re-examine the
                    // SAME cell at the SAME step.  Consuming a probe step
                    // here would desynchronize the strided sequence from
                    // `find_slot`'s and park the key off the probe path.
                    Err(_) => continue,
                }
            }
            index = self.probe(index, step, stride);
            step += 1;
        }
        Err(())
    }

    fn find_slot(&self, key: u64, stride: usize) -> Option<usize> {
        let mut index = scale(hash_key(key), self.capacity);
        for step in 0..self.capacity.min(512) {
            let stored = self.key_at(index);
            if stored == EMPTY {
                return None;
            }
            if stored == key {
                return Some(index);
            }
            index = self.probe(index, step, stride);
        }
        None
    }
}

struct JunctionCore {
    current: VersionedArc<Array>,
    qsbr: Arc<QsbrDomain>,
    migration_lock: Mutex<()>,
    stride: usize,
    /// Set while a migration is copying cells; used by the write paths to
    /// detect that their write may have raced the copy (landed in a cell
    /// the copy had already passed) and needs repair on the new array.
    migrating: std::sync::atomic::AtomicBool,
}

impl JunctionCore {
    fn migrate(&self, observed_version: u64) {
        // Single-threaded migration guarded by a lock (the detecting thread
        // performs it; latecomers wait on the same lock, then notice the
        // version changed).
        let _guard = lock(&self.migration_lock);
        let (old, version) = self.current.acquire();
        if version != observed_version {
            return; // someone else already migrated
        }
        self.migrating.store(true, Ordering::SeqCst);
        // If the copy hits the probe limit of the strided sequence (or the
        // load-factor guard), the target is doubled again and the copy
        // restarts: a dropped element here would be silently lost forever.
        let mut new_capacity = old.capacity * 2;
        let new = 'retry: loop {
            let new = Array::new(new_capacity);
            for i in 0..old.capacity {
                // key_at spins out in-flight claims, so a copied cell is
                // always a fully published ⟨key, value⟩ pair.
                let key = old.key_at(i);
                if key != EMPTY && key != TOMBSTONE {
                    let value = old.values[i].load(Ordering::Acquire);
                    if new.insert(key, value, self.stride).is_err() {
                        new_capacity *= 2;
                        continue 'retry;
                    }
                }
            }
            break new;
        };
        let retired = self.current.publish(Arc::new(new));
        self.migrating.store(false, Ordering::SeqCst);
        // The old array stays readable for in-flight readers until every
        // handle passes a quiescent state.
        self.qsbr.retire(Box::new(move || drop(retired)));
    }
}

macro_rules! junction_table {
    ($(#[$doc:meta])* $name:ident, $handle:ident, $display:literal, $stride:expr) => {
        $(#[$doc])*
        pub struct $name {
            core: JunctionCore,
        }

        /// Per-thread handle (caches the current array, participates in QSBR).
        pub struct $handle<'a> {
            table: &'a $name,
            cached: CachedArc<Array>,
            participant: growt_reclaim::QsbrParticipant,
        }

        impl ConcurrentMap for $name {
            type Handle<'a> = $handle<'a>;

            fn with_capacity(capacity: usize) -> Self {
                $name {
                    core: JunctionCore {
                        current: VersionedArc::new(Array::new(capacity_for(capacity))),
                        qsbr: Arc::new(QsbrDomain::new()),
                        migration_lock: Mutex::new(()),
                        stride: $stride,
                        migrating: std::sync::atomic::AtomicBool::new(false),
                    },
                }
            }

            fn handle(&self) -> $handle<'_> {
                $handle {
                    cached: CachedArc::new(&self.core.current),
                    participant: self.core.qsbr.register(),
                    table: self,
                }
            }

            fn capabilities() -> Capabilities {
                Capabilities {
                    name: $display,
                    interface: InterfaceStyle::QsbrFunction,
                    growing: GrowthSupport::Full,
                    atomic_updates: false,
                    overwrite_only: true,
                    deletion: true,
                    arbitrary_types: false,
                    note: "overwrite-only updates, QSBR reclamation",
                }
            }
        }

        impl $handle<'_> {
            fn array(&mut self) -> Arc<Array> {
                Arc::clone(self.cached.get(&self.table.core.current).0)
            }

            /// THE migration-overlap protocol, in one place: run `op`
            /// against the current array, then report whether it executed
            /// with no migration overlapping it (`true` = clean).  On
            /// overlap, the in-flight migration is drained before
            /// returning, so the caller's next round runs against the
            /// post-migration array.  A write that raced the copy may have
            /// been reverted in the new array, so callers loop — with an
            /// *idempotent* repair, as the rounds may repeat — until a
            /// round comes back clean.
            fn overlap_free(&mut self, op: impl FnOnce(&Array, u64)) -> bool {
                let array = self.array();
                let version = self.cached.cached_version();
                op(&array, version);
                if !self.table.core.migrating.load(Ordering::SeqCst)
                    && self.table.core.current.version() == version
                {
                    return true;
                }
                while self.table.core.migrating.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                false
            }

            /// Store `new(current)` into `k`'s cell if present.  A store
            /// can race with a migration that already copied the cell into
            /// the next array, silently reverting it; detect the overlap
            /// (same scheme as `insert`) and repeat the store on the fresh
            /// array so a reported-successful update is never lost.
            ///
            /// The committed value is computed once, from the first read,
            /// and re-stored verbatim on repair iterations: recomputing
            /// `new` against a value the migration copied *after* the
            /// store landed would apply an increment-style update twice.
            fn store_value(&mut self, k: Key, new: impl Fn(Value) -> Value) -> bool {
                let stride = self.table.core.stride;
                let mut committed: Option<Value> = None;
                let mut present = false;
                loop {
                    let clean = self.overlap_free(|array, _| {
                        present = match array.find_slot(k, stride) {
                            Some(slot) => {
                                let val = match committed {
                                    Some(val) => val,
                                    None => new(array.values[slot].load(Ordering::Acquire)),
                                };
                                array.values[slot].store(val, Ordering::Release);
                                committed = Some(val);
                                true
                            }
                            // Absent: never present, or erased concurrently
                            // after an earlier successful store.
                            None => false,
                        };
                    });
                    if !present {
                        return committed.is_some();
                    }
                    if clean {
                        return true;
                    }
                }
            }
        }

        impl MapHandle for $handle<'_> {
            fn insert(&mut self, k: Key, v: Value) -> bool {
                assert_user_key(k);
                let core = &self.table.core;
                loop {
                    let mut outcome = Err(());
                    let clean = self.overlap_free(|array, version| {
                        outcome = array.insert(k, v, core.stride);
                        if outcome.is_err() {
                            core.migrate(version);
                        }
                    });
                    match outcome {
                        // Present: the in-flight claim means the cell the
                        // duplicate was seen in is fully published, so a
                        // racing migration copies it intact — `false` holds
                        // whether or not the round was clean.
                        Ok(false) => return false,
                        Ok(true) if clean => return true,
                        Ok(true) => break,
                        Err(()) => continue, // migrated; retry on the new array
                    }
                }
                // The insert published in an array a migration was copying:
                // the copy may have passed our cell before the publish,
                // dropping the element.  Repair on the post-migration array,
                // and only stop once a round lands with no further migration
                // overlapping it.  Finding the key present is enough — a
                // copied cell is never half-initialized — though the value
                // may be a concurrent same-key writer's.  Residual anomalies
                // this cannot resolve without the per-cell versioning the
                // modeled design lacks: an insert that beat the copy on the
                // fresh array leaves both inserters reporting `true`, and a
                // repair round cannot tell "my publish was dropped by the
                // copy" from "my publish survived and a concurrent erase
                // removed it", so the re-insert can undo that erase.
                loop {
                    let mut stored = false;
                    let clean = self.overlap_free(|fresh, fresh_version| {
                        stored = if fresh.find_slot(k, core.stride).is_some() {
                            true
                        } else {
                            match fresh.insert(k, v, core.stride) {
                                Ok(_) => true,
                                Err(()) => {
                                    core.migrate(fresh_version);
                                    false
                                }
                            }
                        };
                    });
                    if stored && clean {
                        return true;
                    }
                }
            }

            fn find(&mut self, k: Key) -> Option<Value> {
                assert_user_key(k);
                let array = self.array();
                array
                    .find_slot(k, self.table.core.stride)
                    .map(|slot| array.values[slot].load(Ordering::Acquire))
            }

            fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
                // The original interface only supports overwriting stores;
                // read-modify-write updates are therefore not atomic (the
                // paper excludes junction from the aggregation benchmark for
                // exactly this reason).
                assert_user_key(k);
                self.store_value(k, |cur| up(cur, d))
            }

            fn update_overwrite(&mut self, k: Key, d: Value) -> bool {
                assert_user_key(k);
                self.store_value(k, |_| d)
            }

            fn insert_or_update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> InsertOrUpdate {
                if self.update(k, d, up) {
                    InsertOrUpdate::Updated
                } else if self.insert(k, d) {
                    InsertOrUpdate::Inserted
                } else {
                    self.update(k, d, up);
                    InsertOrUpdate::Updated
                }
            }

            fn erase(&mut self, k: Key) -> bool {
                assert_user_key(k);
                // Tombstoning can race with a migration that already copied
                // the live cell into the next array, silently resurrecting
                // the key; detect the overlap and repeat the erase on the
                // fresh array (same scheme as the write paths).  A CAS win
                // in an overlapped round does NOT count by itself — the copy
                // may have reverted it, and the retry round decides: key
                // still present means the tombstone was reverted and must be
                // re-raced (a concurrent eraser may legitimately win it),
                // key absent means it stuck (the copy skipped the
                // tombstoned cell).  Counting a reverted win outright would
                // let two concurrent erases of one element both report
                // `true`.  A retry round that observes the key present
                // supersedes any earlier reverted win (present means the
                // revert definitely happened, so only that round's CAS
                // counts), which narrows the residual double-`true` to the
                // case where a second eraser tombstones the resurrected
                // copy before our retry round observes it —
                // indistinguishable without per-cell versioning.
                let stride = self.table.core.stride;
                let mut pending = false;
                loop {
                    let mut result = false;
                    let clean = self.overlap_free(|array, _| {
                        result = match array.find_slot(k, stride) {
                            Some(slot) => array.keys[slot]
                                .compare_exchange(
                                    k,
                                    TOMBSTONE,
                                    Ordering::AcqRel,
                                    Ordering::Acquire,
                                )
                                .is_ok(),
                            None => pending,
                        };
                    });
                    if clean {
                        return result;
                    }
                    pending = result;
                }
            }

            fn quiesce(&mut self) {
                self.participant.quiescent();
            }
        }
    };
}

junction_table!(
    /// Junction "Linear"-style map: linear probing, overwrite-only values.
    JunctionLinear,
    JunctionLinearHandle,
    "junction-linear",
    0
);

junction_table!(
    /// Junction "Leapfrog"-style map: strided probing approximating the
    /// delta-chained probe sequences of the original.
    JunctionLeapfrog,
    JunctionLeapfrogHandle,
    "junction-leapfrog",
    3
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip_both() {
        fn roundtrip<M: ConcurrentMap>() {
            let t = M::with_capacity(128);
            let mut h = t.handle();
            for k in 2..600u64 {
                assert!(h.insert(k, k));
            }
            assert!(!h.insert(5, 9));
            for k in 2..600u64 {
                assert_eq!(h.find(k), Some(k));
            }
            assert!(h.update_overwrite(5, 50));
            assert_eq!(h.find(5), Some(50));
            assert!(h.erase(5));
            assert_eq!(h.find(5), None);
            h.quiesce();
        }
        roundtrip::<JunctionLinear>();
        roundtrip::<JunctionLeapfrog>();
    }

    #[test]
    fn grows_from_tiny_table() {
        let t = JunctionLinear::with_capacity(8);
        let mut h = t.handle();
        for k in 2..20_002u64 {
            assert!(h.insert(k, k * 2));
            if k % 1024 == 0 {
                h.quiesce();
            }
        }
        for k in 2..20_002u64 {
            assert_eq!(h.find(k), Some(k * 2));
        }
    }

    #[test]
    fn migration_overlap_repairs_updates_and_erases() {
        // Tiny table migrating constantly (one thread churns fresh inserts)
        // while a second thread overwrites a stable key range and a third
        // erases a disjoint one.  Exercises the overlap_free repair loops:
        // a reverted store shows up as a stale final value, a resurrected
        // tombstone as a find() hit on an erased key.
        let t = JunctionLinear::with_capacity(8);
        let mut h = t.handle();
        for k in 2..202u64 {
            assert!(h.insert(k, 1));
        }
        let rounds = 50u64;
        std::thread::scope(|s| {
            let t = &t;
            s.spawn(move || {
                let mut h = t.handle();
                for k in 10_000..30_000u64 {
                    h.insert(k, k);
                    if k % 512 == 0 {
                        h.quiesce();
                    }
                }
            });
            s.spawn(move || {
                let mut h = t.handle();
                for round in 0..rounds {
                    for k in 2..102u64 {
                        assert!(h.update_overwrite(k, round * 1_000 + k));
                    }
                    h.quiesce();
                }
            });
            s.spawn(move || {
                let mut h = t.handle();
                for k in 102..202u64 {
                    assert!(h.erase(k), "erase {k}");
                    h.quiesce();
                }
            });
        });
        let mut h = t.handle();
        for k in 2..102u64 {
            assert_eq!(
                h.find(k),
                Some((rounds - 1) * 1_000 + k),
                "stale value for {k}"
            );
        }
        for k in 102..202u64 {
            assert_eq!(h.find(k), None, "resurrected key {k}");
        }
    }

    #[test]
    fn concurrent_growth_preserves_elements() {
        let t = JunctionLeapfrog::with_capacity(16);
        std::thread::scope(|s| {
            for start in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..5_000u64 {
                        assert!(h.insert(start * 1_000_000 + i + 2, i));
                        if i % 512 == 0 {
                            h.quiesce();
                        }
                    }
                });
            }
        });
        let mut h = t.handle();
        for start in 0..4u64 {
            for i in 0..5_000u64 {
                assert_eq!(
                    h.find(start * 1_000_000 + i + 2),
                    Some(i),
                    "start {start} i {i}"
                );
            }
        }
    }
}
