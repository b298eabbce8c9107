//! A folly-`AtomicHashMap`-style table (paper §8.1.2).
//!
//! Facebook's `AtomicHashMap` is an open-addressing table over atomic
//! word-sized keys that cannot be resized in place: when the primary array
//! fills up, an **additional sub-map** is chained behind it, and lookups
//! have to search every chained sub-map.  The total growth is bounded by a
//! constant factor of the initial size (≈ 18× in the original; the paper's
//! Table 1 lists "const factor"), and lookups get slower on grown tables —
//! both properties are reproduced here and visible in Fig. 2b/3 and
//! Fig. 10 of the reproduction.
//!
//! Keys reserve `0` as the empty sentinel and `1` as the tombstone; cells
//! are claimed with a CAS on the key word only, then the value is written
//! (find tolerates the transient zero value exactly like the original).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use growt_iface::sync::lock;
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};

use crate::util::{
    assert_user_key, capacity_for, hash_key, load_published_key, publish_key, scale,
};

const EMPTY: u64 = 0;
const TOMBSTONE: u64 = crate::util::REPAIRED_TOMBSTONE;
/// A cell claimed by an inserter whose value store has not been published
/// yet.  Probes spin through this (very short) window instead of skipping,
/// so a published key is always paired with an initialized value — the
/// property the fetch-and-add fast path and the update CAS loop rely on.
/// Not a valid user key — enforced by `assert_user_key` in the handle.
const INFLIGHT: u64 = crate::util::INFLIGHT;
/// Maximum number of chained sub-maps (the original defaults to 14, with
/// each sub-map half the size of the previous growth step; we keep them
/// equally sized at half the primary size which gives the same ≈ bounded
/// overall growth factor).
const MAX_SUBMAPS: usize = 14;

struct SubMap {
    keys: Vec<AtomicU64>,
    values: Vec<AtomicU64>,
    capacity: usize,
    used: AtomicUsize,
}

impl SubMap {
    fn new(capacity: usize) -> Self {
        SubMap {
            keys: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            values: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            capacity,
            used: AtomicUsize::new(0),
        }
    }

    /// Load the key at `index`, spinning out the in-flight insertion window
    /// so callers only ever observe `EMPTY`, `TOMBSTONE` or a published key
    /// (whose value store already happened-before the key store).
    #[inline]
    fn key_at(&self, index: usize) -> u64 {
        load_published_key(&self.keys[index])
    }

    /// Try to insert; `Err(())` means this sub-map is full.
    fn insert(&self, key: u64, value: u64) -> Result<bool, ()> {
        if self.used.load(Ordering::Relaxed) * 10 >= self.capacity * 8 {
            return Err(());
        }
        let mut index = scale(hash_key(key), self.capacity);
        for _ in 0..self.capacity.min(1024) {
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
                        // Initialize the value BEFORE publishing the key:
                        // concurrent fetch-add / CAS updates must never see
                        // (and then be overwritten by) a transient zero.
                        self.values[index].store(value, Ordering::Release);
                        if publish_key(&self.keys[index], key) {
                            self.used.fetch_add(1, Ordering::Relaxed);
                            return Ok(true);
                        }
                        // We stalled inside the window so long that a probe
                        // declared us dead and repaired the claim to a
                        // tombstone; the claim is lost for good — probe
                        // past.
                    }
                    Err(actual) => {
                        if actual == key {
                            return Ok(false);
                        }
                        // Lost the claim race: re-examine the same cell.
                        continue;
                    }
                }
            }
            index = (index + 1) & (self.capacity - 1);
        }
        Err(())
    }

    fn find_slot(&self, key: u64) -> Option<usize> {
        let mut index = scale(hash_key(key), self.capacity);
        for _ in 0..self.capacity.min(1024) {
            let stored = self.key_at(index);
            if stored == EMPTY {
                return None;
            }
            if stored == key {
                return Some(index);
            }
            index = (index + 1) & (self.capacity - 1);
        }
        None
    }
}

/// Folly-style atomic hash map: a primary array plus chained overflow
/// sub-maps.
pub struct FollyStyle {
    submaps: Vec<SubMap>,
    /// Number of currently active sub-maps.
    active: AtomicUsize,
    grow_lock: Mutex<()>,
}

/// Per-thread handle (stateless).
pub struct FollyStyleHandle<'a> {
    table: &'a FollyStyle,
}

impl FollyStyle {
    fn activate_next(&self) {
        let _guard = lock(&self.grow_lock);
        let active = self.active.load(Ordering::Acquire);
        if active < self.submaps.len() {
            self.active.store(active + 1, Ordering::Release);
        }
    }
}

impl ConcurrentMap for FollyStyle {
    type Handle<'a> = FollyStyleHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        let primary = capacity_for(capacity);
        // Pre-allocate the descriptor for every possible sub-map but only
        // activate the primary; overflow maps are half the primary size.
        let mut submaps = Vec::with_capacity(MAX_SUBMAPS);
        submaps.push(SubMap::new(primary));
        for _ in 1..MAX_SUBMAPS {
            submaps.push(SubMap::new((primary / 2).max(64)));
        }
        FollyStyle {
            submaps,
            active: AtomicUsize::new(1),
            grow_lock: Mutex::new(()),
        }
    }

    fn handle(&self) -> FollyStyleHandle<'_> {
        FollyStyleHandle { table: self }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "folly",
            interface: InterfaceStyle::Standard,
            growing: GrowthSupport::Limited,
            atomic_updates: true,
            overwrite_only: false,
            deletion: true,
            arbitrary_types: false,
            note: "const-factor growth via chained sub-maps",
        }
    }
}

impl MapHandle for FollyStyleHandle<'_> {
    fn insert(&mut self, k: Key, v: Value) -> bool {
        assert_user_key(k);
        loop {
            let active = self.table.active.load(Ordering::Acquire);
            // The key may already live in any active sub-map.
            for submap in &self.table.submaps[..active] {
                if submap.find_slot(k).is_some() {
                    return false;
                }
            }
            match self.table.submaps[active - 1].insert(k, v) {
                Ok(result) => return result,
                Err(()) => {
                    if active >= MAX_SUBMAPS {
                        return false; // hard capacity bound reached
                    }
                    self.table.activate_next();
                }
            }
        }
    }

    fn find(&mut self, k: Key) -> Option<Value> {
        assert_user_key(k);
        let active = self.table.active.load(Ordering::Acquire);
        for submap in &self.table.submaps[..active] {
            if let Some(slot) = submap.find_slot(k) {
                return Some(submap.values[slot].load(Ordering::Acquire));
            }
        }
        None
    }

    fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
        assert_user_key(k);
        let active = self.table.active.load(Ordering::Acquire);
        for submap in &self.table.submaps[..active] {
            if let Some(slot) = submap.find_slot(k) {
                // CAS loop on the value word.
                loop {
                    let cur = submap.values[slot].load(Ordering::Acquire);
                    let new = up(cur, d);
                    if submap.values[slot]
                        .compare_exchange(cur, new, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> InsertOrUpdate {
        if self.update(k, d, up) {
            InsertOrUpdate::Updated
        } else if self.insert(k, d) {
            InsertOrUpdate::Inserted
        } else {
            // Insert lost a race with another insert of the same key.
            self.update(k, d, up);
            InsertOrUpdate::Updated
        }
    }

    fn insert_or_increment(&mut self, k: Key, d: Value) -> InsertOrUpdate {
        assert_user_key(k);
        // Fetch-and-add fast path, like the original.
        let active = self.table.active.load(Ordering::Acquire);
        for submap in &self.table.submaps[..active] {
            if let Some(slot) = submap.find_slot(k) {
                submap.values[slot].fetch_add(d, Ordering::AcqRel);
                return InsertOrUpdate::Updated;
            }
        }
        if self.insert(k, d) {
            InsertOrUpdate::Inserted
        } else {
            // Lost the race to another inserter (or the table is at its hard
            // bound): fall back to the update path once more.
            self.update(k, d, |cur, add| cur.wrapping_add(add));
            InsertOrUpdate::Updated
        }
    }

    fn erase(&mut self, k: Key) -> bool {
        assert_user_key(k);
        let active = self.table.active.load(Ordering::Acquire);
        for submap in &self.table.submaps[..active] {
            if let Some(slot) = submap.find_slot(k) {
                return submap.keys[slot]
                    .compare_exchange(k, TOMBSTONE, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let t = FollyStyle::with_capacity(1000);
        let mut h = t.handle();
        for k in 2..900u64 {
            assert!(h.insert(k, k * 2));
        }
        assert!(!h.insert(2, 0));
        for k in 2..900u64 {
            assert_eq!(h.find(k), Some(k * 2));
        }
        assert!(h.update(5, 3, |c, d| c + d));
        assert_eq!(h.find(5), Some(13));
        assert!(h.erase(5));
        assert_eq!(h.find(5), None);
    }

    #[test]
    fn grows_by_chaining_submaps() {
        let t = FollyStyle::with_capacity(256);
        let mut h = t.handle();
        let n = 3_000u64;
        for k in 2..2 + n {
            assert!(h.insert(k, k), "insert {k}");
        }
        assert!(
            t.active.load(Ordering::Relaxed) > 1,
            "never chained a sub-map"
        );
        for k in 2..2 + n {
            assert_eq!(h.find(k), Some(k));
        }
    }

    #[test]
    fn bounded_total_growth() {
        let t = FollyStyle::with_capacity(64);
        let mut h = t.handle();
        let mut inserted = 0u64;
        for k in 2..1_000_000u64 {
            if h.insert(k, k) {
                inserted += 1;
            } else {
                break;
            }
        }
        // The total capacity is a constant factor of the initial size
        // (primary + 13 half-sized overflow maps, each usable to 80 %).
        assert!(inserted < 64 * 40, "unbounded growth: {inserted}");
        // Further insertions keep failing: the bound is hard.
        assert!(!h.insert(5_000_000, 1));
    }

    #[test]
    fn concurrent_aggregation() {
        let t = FollyStyle::with_capacity(2048);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..4_000u64 {
                        h.insert_or_increment(2 + i % 41, 1);
                    }
                });
            }
        });
        let mut h = t.handle();
        let total: u64 = (0..41u64).map(|k| h.find(2 + k).unwrap()).sum();
        assert_eq!(total, 16_000);
    }
}
