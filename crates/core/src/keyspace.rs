//! Restoring the full 64-bit key space (paper §5.6).
//!
//! The growing tables reserve three key encodings: the empty key, the
//! deleted key, and — for the asynchronous variants — the topmost bit as
//! the migration mark, which halves the usable key space.  §5.6 shows how
//! to win everything back:
//!
//! * keys whose top bit is set are stored in a *second* sub-table with the
//!   top bit stripped (it is implicit in the choice of sub-table);
//! * elements whose key happens to equal one of the sentinel encodings are
//!   kept in dedicated special slots next to the table.
//!
//! [`FullKeyspaceTable`] wraps two [`GrowingTable`]s plus the special slots
//! and accepts **every** `u64` key.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use growt_iface::sync::lock;

use crate::cell::{DEL_KEY, EMPTY_KEY, MARK_BIT};
use crate::grow::{GrowHandle, GrowingOptions, GrowingTable};

/// Number of reserved key encodings that need special slots
/// (`EMPTY_KEY`, `DEL_KEY` and their top-bit twins).
const SPECIAL_SLOTS: usize = 4;

/// A growing hash table accepting the full 64-bit key space.
pub struct FullKeyspaceTable {
    /// Elements whose key has the top bit clear.
    low: GrowingTable,
    /// Elements whose key has the top bit set (stored with the bit
    /// stripped).
    high: GrowingTable,
    /// Special slots for the sentinel keys themselves.
    specials: [SpecialSlot; SPECIAL_SLOTS],
}

struct SpecialSlot {
    present: AtomicBool,
    value: AtomicU64,
    lock: Mutex<()>,
}

impl SpecialSlot {
    fn new() -> Self {
        SpecialSlot {
            present: AtomicBool::new(false),
            value: AtomicU64::new(0),
            lock: Mutex::new(()),
        }
    }
}

/// Which special slot a sentinel-valued key maps to, if any.
fn special_index(key: u64) -> Option<usize> {
    match key {
        EMPTY_KEY => Some(0),
        DEL_KEY => Some(1),
        k if k == EMPTY_KEY | MARK_BIT => Some(2),
        k if k == DEL_KEY | MARK_BIT => Some(3),
        _ => None,
    }
}

impl FullKeyspaceTable {
    /// Create a table with the given initial capacity hint and options
    /// (the options are applied to both sub-tables).
    pub fn with_options(initial_capacity: usize, options: GrowingOptions) -> Self {
        FullKeyspaceTable {
            low: GrowingTable::with_options(initial_capacity, options.clone()),
            high: GrowingTable::with_options(initial_capacity, options),
            specials: std::array::from_fn(|_| SpecialSlot::new()),
        }
    }

    /// Create a table with default (uaGrow) options.
    pub fn new(initial_capacity: usize) -> Self {
        Self::with_options(initial_capacity, GrowingOptions::default())
    }

    /// Obtain a per-thread handle.
    pub fn handle(&self) -> FullKeyspaceHandle<'_> {
        FullKeyspaceHandle {
            low: self.low.handle(),
            high: self.high.handle(),
            table: self,
        }
    }

    /// Approximate number of stored elements.
    pub fn size_estimate(&self) -> usize {
        self.low.size_estimate()
            + self.high.size_estimate()
            + self
                .specials
                .iter()
                .filter(|s| s.present.load(Ordering::Acquire))
                .count()
    }
}

/// Per-thread handle of a [`FullKeyspaceTable`].
pub struct FullKeyspaceHandle<'a> {
    low: GrowHandle<'a>,
    high: GrowHandle<'a>,
    table: &'a FullKeyspaceTable,
}

impl FullKeyspaceHandle<'_> {
    /// Insert `⟨key, value⟩`; any `u64` key is allowed.
    pub fn insert(&mut self, key: u64, value: u64) -> bool {
        if let Some(slot) = special_index(key) {
            let special = &self.table.specials[slot];
            let _guard = lock(&special.lock);
            if special.present.load(Ordering::Acquire) {
                false
            } else {
                special.value.store(value, Ordering::Release);
                special.present.store(true, Ordering::Release);
                true
            }
        } else if key & MARK_BIT == 0 {
            self.low.insert(key, value)
        } else {
            self.high.insert(key & !MARK_BIT, value)
        }
    }

    /// Find the value stored for `key`.
    pub fn find(&mut self, key: u64) -> Option<u64> {
        if let Some(slot) = special_index(key) {
            let special = &self.table.specials[slot];
            if special.present.load(Ordering::Acquire) {
                Some(special.value.load(Ordering::Acquire))
            } else {
                None
            }
        } else if key & MARK_BIT == 0 {
            self.low.find(key)
        } else {
            self.high.find(key & !MARK_BIT)
        }
    }

    /// Delete `key`.
    pub fn erase(&mut self, key: u64) -> bool {
        if let Some(slot) = special_index(key) {
            let special = &self.table.specials[slot];
            let _guard = lock(&special.lock);
            if special.present.load(Ordering::Acquire) {
                special.present.store(false, Ordering::Release);
                true
            } else {
                false
            }
        } else if key & MARK_BIT == 0 {
            self.low.erase(key)
        } else {
            self.high.erase(key & !MARK_BIT)
        }
    }

    /// Update the value for `key` to `up(current, d)`.
    pub fn update(&mut self, key: u64, d: u64, up: impl Fn(u64, u64) -> u64 + Copy) -> bool {
        if let Some(slot) = special_index(key) {
            let special = &self.table.specials[slot];
            let _guard = lock(&special.lock);
            if special.present.load(Ordering::Acquire) {
                let current = special.value.load(Ordering::Acquire);
                special.value.store(up(current, d), Ordering::Release);
                true
            } else {
                false
            }
        } else if key & MARK_BIT == 0 {
            self.low.update(key, d, up)
        } else {
            self.high.update(key & !MARK_BIT, d, up)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_every_key_region() {
        let table = FullKeyspaceTable::new(64);
        let mut h = table.handle();
        let keys = [
            0u64,          // EMPTY_KEY sentinel
            1,             // DEL_KEY sentinel
            2,             // ordinary low key
            MARK_BIT,      // marked-empty sentinel
            MARK_BIT | 1,  // marked-deleted sentinel
            MARK_BIT | 42, // ordinary high key
            u64::MAX,      // highest possible key
            (1 << 63) - 1, // highest low key
        ];
        for (i, &k) in keys.iter().enumerate() {
            assert!(h.insert(k, i as u64 + 100), "insert {k:#x}");
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(h.find(k), Some(i as u64 + 100), "find {k:#x}");
        }
        // Duplicate insertions are rejected everywhere.
        for &k in &keys {
            assert!(!h.insert(k, 0), "duplicate {k:#x}");
        }
    }

    #[test]
    fn low_and_high_keys_do_not_collide() {
        let table = FullKeyspaceTable::new(64);
        let mut h = table.handle();
        // A key and its top-bit twin are distinct elements.
        assert!(h.insert(77, 1));
        assert!(h.insert(77 | MARK_BIT, 2));
        assert_eq!(h.find(77), Some(1));
        assert_eq!(h.find(77 | MARK_BIT), Some(2));
        assert!(h.erase(77));
        assert_eq!(h.find(77), None);
        assert_eq!(h.find(77 | MARK_BIT), Some(2));
    }

    #[test]
    fn update_and_erase_special_slots() {
        let table = FullKeyspaceTable::new(16);
        let mut h = table.handle();
        assert!(!h.update(0, 5, |c, d| c + d));
        assert!(h.insert(0, 10));
        assert!(h.update(0, 5, |c, d| c + d));
        assert_eq!(h.find(0), Some(15));
        assert!(h.erase(0));
        assert!(!h.erase(0));
        assert_eq!(h.find(0), None);
    }

    #[test]
    fn size_estimate_counts_all_parts() {
        let table = FullKeyspaceTable::new(64);
        let mut h = table.handle();
        for k in 2..102u64 {
            h.insert(k, k);
        }
        for k in 2..52u64 {
            h.insert(k | MARK_BIT, k);
        }
        h.insert(0, 1);
        drop(h); // flush local counters
        let estimate = table.size_estimate();
        assert!(
            (estimate as i64 - 151).abs() <= 16,
            "estimate {estimate} far from 151"
        );
    }

    #[test]
    fn grows_in_both_subtables() {
        let table = FullKeyspaceTable::new(16);
        let mut h = table.handle();
        for k in 2..5_002u64 {
            assert!(h.insert(k, k));
            assert!(h.insert(k | MARK_BIT, k + 1));
        }
        for k in 2..5_002u64 {
            assert_eq!(h.find(k), Some(k));
            assert_eq!(h.find(k | MARK_BIT), Some(k + 1));
        }
    }
}
