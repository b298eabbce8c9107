//! Sequential reference hash tables (paper §8.1.4).
//!
//! The paper reports *absolute* speedups: every concurrent throughput is
//! normalized against a hand-optimized sequential hash table that uses no
//! atomic instructions at all.  Two variants are provided, mirroring the
//! paper's pair of sequential baselines:
//!
//! * [`SeqTable`] — fixed capacity, linear probing, no growing;
//! * [`SeqGrowingTable`] — same layout but doubles its capacity at a 60 %
//!   fill factor (so growing benchmarks are normalized against a sequential
//!   table that also pays for growing).
//!
//! Both implement [`ConcurrentMap`] so the same drivers can run them, but
//! they use no synchronization whatsoever: the harness only ever drives
//! them with a single thread, exactly like the paper.

#![warn(missing_docs)]

use std::cell::UnsafeCell;

use growt_iface::hash::hash_key;
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};

const EMPTY: u64 = 0;
const DELETED: u64 = 1;

#[inline]
fn scale(hash: u64, capacity: usize) -> usize {
    ((hash as u128 * capacity as u128) >> 64) as usize
}

fn capacity_for(expected: usize) -> usize {
    (expected.max(2) * 2).next_power_of_two()
}

struct SeqCore {
    keys: Vec<u64>,
    values: Vec<u64>,
    capacity: usize,
    len: usize,
    tombstones: usize,
    growing: bool,
}

impl SeqCore {
    fn new(expected: usize, growing: bool) -> Self {
        let capacity = capacity_for(expected);
        SeqCore {
            keys: vec![EMPTY; capacity],
            values: vec![0; capacity],
            capacity,
            len: 0,
            tombstones: 0,
            growing,
        }
    }

    #[inline]
    fn slot_for(&self, key: u64) -> SlotLookup {
        let mut index = scale(hash_key(key), self.capacity);
        let mut first_free = None;
        loop {
            let stored = self.keys[index];
            if stored == EMPTY {
                return SlotLookup {
                    found: None,
                    insert_at: first_free.unwrap_or(index),
                };
            }
            if stored == DELETED {
                if first_free.is_none() {
                    first_free = Some(index);
                }
            } else if stored == key {
                return SlotLookup {
                    found: Some(index),
                    insert_at: index,
                };
            }
            index = (index + 1) & (self.capacity - 1);
        }
    }

    fn maybe_grow(&mut self) {
        if !self.growing {
            return;
        }
        if (self.len + self.tombstones) * 10 >= self.capacity * 6 {
            let new_capacity = if self.len * 10 >= self.capacity * 3 {
                self.capacity * 2
            } else {
                self.capacity // cleanup only
            };
            let mut keys = vec![EMPTY; new_capacity];
            let mut values = vec![0u64; new_capacity];
            for i in 0..self.capacity {
                let k = self.keys[i];
                if k != EMPTY && k != DELETED {
                    let mut index = scale(hash_key(k), new_capacity);
                    while keys[index] != EMPTY {
                        index = (index + 1) & (new_capacity - 1);
                    }
                    keys[index] = k;
                    values[index] = self.values[i];
                }
            }
            self.keys = keys;
            self.values = values;
            self.capacity = new_capacity;
            self.tombstones = 0;
        }
    }

    fn insert(&mut self, key: u64, value: u64) -> bool {
        let slot = self.slot_for(key);
        if slot.found.is_some() {
            return false;
        }
        if !self.growing && (self.len + self.tombstones) >= self.capacity - 1 {
            return false;
        }
        if self.keys[slot.insert_at] == DELETED {
            self.tombstones -= 1;
        }
        self.keys[slot.insert_at] = key;
        self.values[slot.insert_at] = value;
        self.len += 1;
        self.maybe_grow();
        true
    }

    fn find(&self, key: u64) -> Option<u64> {
        self.slot_for(key).found.map(|i| self.values[i])
    }

    fn update(&mut self, key: u64, d: u64, up: fn(u64, u64) -> u64) -> bool {
        match self.slot_for(key).found {
            Some(i) => {
                self.values[i] = up(self.values[i], d);
                true
            }
            None => false,
        }
    }

    fn upsert(&mut self, key: u64, d: u64, up: fn(u64, u64) -> u64) -> InsertOrUpdate {
        match self.slot_for(key).found {
            Some(i) => {
                self.values[i] = up(self.values[i], d);
                InsertOrUpdate::Updated
            }
            None => {
                self.insert(key, d);
                InsertOrUpdate::Inserted
            }
        }
    }

    fn erase(&mut self, key: u64) -> bool {
        match self.slot_for(key).found {
            Some(i) => {
                self.keys[i] = DELETED;
                self.len -= 1;
                self.tombstones += 1;
                self.maybe_grow();
                true
            }
            None => false,
        }
    }
}

struct SlotLookup {
    found: Option<usize>,
    insert_at: usize,
}

macro_rules! seq_table {
    ($(#[$doc:meta])* $name:ident, $handle:ident, $growing:literal, $display:literal) => {
        $(#[$doc])*
        pub struct $name {
            core: UnsafeCell<SeqCore>,
        }

        // SAFETY: the sequential tables are driven by exactly one thread at a
        // time (the paper's sequential baseline); the harness upholds this.
        // (`Send` needs no impl: `SeqCore` holds only `Send` fields.)
        unsafe impl Sync for $name {}

        /// Single-threaded handle.
        pub struct $handle<'a> {
            table: &'a $name,
        }

        impl ConcurrentMap for $name {
            type Handle<'a> = $handle<'a>;

            fn with_capacity(capacity: usize) -> Self {
                $name {
                    core: UnsafeCell::new(SeqCore::new(capacity, $growing)),
                }
            }

            fn handle(&self) -> $handle<'_> {
                $handle { table: self }
            }

            fn capabilities() -> Capabilities {
                Capabilities {
                    name: $display,
                    interface: InterfaceStyle::Standard,
                    growing: if $growing {
                        GrowthSupport::Full
                    } else {
                        GrowthSupport::None
                    },
                    atomic_updates: false,
                    overwrite_only: false,
                    deletion: true,
                    arbitrary_types: true,
                    note: "sequential reference (1 thread only)",
                }
            }
        }

        impl $handle<'_> {
            #[allow(clippy::mut_from_ref)]
            fn core(&self) -> &mut SeqCore {
                // SAFETY: single-threaded use by contract (see type docs).
                unsafe { &mut *self.table.core.get() }
            }
        }

        impl MapHandle for $handle<'_> {
            fn insert(&mut self, k: Key, v: Value) -> bool {
                self.core().insert(k, v)
            }
            fn find(&mut self, k: Key) -> Option<Value> {
                self.core().find(k)
            }
            fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
                self.core().update(k, d, up)
            }
            fn insert_or_update(
                &mut self,
                k: Key,
                d: Value,
                up: fn(Value, Value) -> Value,
            ) -> InsertOrUpdate {
                self.core().upsert(k, d, up)
            }
            fn erase(&mut self, k: Key) -> bool {
                self.core().erase(k)
            }
            fn size_estimate(&mut self) -> usize {
                self.core().len
            }
        }
    };
}

seq_table!(
    /// Fixed-capacity sequential linear probing table (absolute-speedup
    /// baseline for the pre-initialized benchmarks).
    SeqTable,
    SeqTableHandle,
    false,
    "sequential"
);

seq_table!(
    /// Growing sequential linear probing table (absolute-speedup baseline
    /// for the growing benchmarks).
    SeqGrowingTable,
    SeqGrowingTableHandle,
    true,
    "sequential-growing"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_find_update_delete() {
        let t = SeqTable::with_capacity(100);
        let mut h = t.handle();
        for k in 2..80u64 {
            assert!(h.insert(k, k * 2));
        }
        assert!(!h.insert(5, 0));
        for k in 2..80u64 {
            assert_eq!(h.find(k), Some(k * 2));
        }
        assert!(h.update(10, 1, |c, d| c + d));
        assert_eq!(h.find(10), Some(21));
        assert!(h.erase(10));
        assert_eq!(h.find(10), None);
        assert!(!h.erase(10));
        assert_eq!(h.size_estimate(), 77);
    }

    #[test]
    fn deleted_slot_is_reused() {
        let t = SeqTable::with_capacity(4);
        let mut h = t.handle();
        assert!(h.insert(2, 1));
        assert!(h.erase(2));
        assert!(h.insert(3, 1));
        assert!(h.insert(4, 1));
        assert!(h.insert(5, 1));
        assert_eq!(h.size_estimate(), 3);
    }

    #[test]
    fn growing_table_grows() {
        let t = SeqGrowingTable::with_capacity(4);
        let mut h = t.handle();
        for k in 2..10_002u64 {
            assert!(h.insert(k, k));
        }
        for k in 2..10_002u64 {
            assert_eq!(h.find(k), Some(k));
        }
        assert_eq!(h.size_estimate(), 10_000);
    }

    #[test]
    fn growing_table_cleans_tombstones() {
        let t = SeqGrowingTable::with_capacity(1024);
        let mut h = t.handle();
        // Sliding window of live keys, far more operations than capacity.
        for i in 0..50_000u64 {
            assert!(h.insert(i + 2, i));
            if i >= 500 {
                assert!(h.erase(i + 2 - 500));
            }
        }
        assert_eq!(h.size_estimate(), 500);
        for i in 49_500..50_000u64 {
            assert_eq!(h.find(i + 2), Some(i));
        }
    }

    #[test]
    fn aggregation_upsert() {
        let t = SeqGrowingTable::with_capacity(8);
        let mut h = t.handle();
        for i in 0..10_000u64 {
            h.insert_or_increment(2 + i % 97, 1);
        }
        let total: u64 = (0..97u64).map(|k| h.find(2 + k).unwrap()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn fixed_table_reports_full() {
        let t = SeqTable::with_capacity(4);
        let mut h = t.handle();
        let mut inserted = 0;
        for k in 2..200u64 {
            if h.insert(k, k) {
                inserted += 1;
            }
        }
        assert!(inserted < 16);
    }
}
