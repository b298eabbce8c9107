//! The 128-bit table cell of the folklore linear-probing table (paper §4).
//!
//! A cell stores one `⟨key, value⟩` pair of machine words, 16-byte aligned
//! so the pair can be manipulated with one double-word compare-and-swap
//! (x86-64 `cmpxchg16b`) — the instruction the paper's implementation is
//! built on.  Reads are *not* atomic over the pair: `find` loads the key
//! and then the value as two 64-bit loads and tolerates torn reads exactly
//! as argued in §4 (the key is read first, the value second, so a torn
//! read can only observe a newer value for the right key, or miss an
//! element that was not fully inserted yet).
//!
//! Special key encodings (§4, §5.3.2, §5.4):
//!
//! * [`EMPTY_KEY`] — the cell has never held an element;
//! * [`DEL_KEY`]   — tombstone: the element was deleted, the cell remains
//!   occupied until the next migration;
//! * [`MARK_BIT`]  — set by the asynchronous migration to freeze a cell
//!   before copying it; writers must never modify a marked cell.
//!
//! When the crate is compiled without the `cmpxchg16b` target feature the
//! double-word CAS — and every single-word value mutation, which must not
//! interleave with the fallback's non-atomic read-modify-write of the
//! pair — falls back to a process-global striped lock; this keeps the
//! crate portable at the cost of lock-freedom (the benchmark build
//! enables the feature through `.cargo/config.toml`).  Reads stay
//! lock-free on every build.

use std::sync::atomic::{AtomicU64, Ordering};

/// Key value of a never-used cell.
pub const EMPTY_KEY: u64 = 0;
/// Key value of a tombstone (deleted element, §5.4).
pub const DEL_KEY: u64 = 1;
/// Bit set in the key word when the cell has been claimed by a migration
/// (asynchronous growing variants, §5.3.2).
pub const MARK_BIT: u64 = 1 << 63;
/// Largest key usable by applications when the marking protocol is in use
/// (the top bit is reserved; §5.6 describes how to win it back).
pub const MAX_MARKABLE_KEY: u64 = MARK_BIT - 1;

/// `true` if `key` is one of the reserved sentinel keys.
#[inline]
pub fn is_sentinel(key: u64) -> bool {
    key == EMPTY_KEY || key == DEL_KEY
}

/// `true` if the mark bit is set on `key`.
#[inline]
pub fn is_marked(key: u64) -> bool {
    key & MARK_BIT != 0
}

/// Strip the mark bit from `key`.
#[inline]
pub fn unmark(key: u64) -> u64 {
    key & !MARK_BIT
}

/// One 16-byte table cell.
#[repr(C, align(16))]
pub struct Cell {
    key: AtomicU64,
    value: AtomicU64,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            key: AtomicU64::new(EMPTY_KEY),
            value: AtomicU64::new(0),
        }
    }
}

/// Result of a double-word CAS: `Ok(())` on success, `Err((key, value))`
/// with the actually observed pair on failure.
pub type CasResult = Result<(), (u64, u64)>;

impl Cell {
    /// Create an empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load only the key word.
    #[inline]
    pub fn load_key(&self) -> u64 {
        self.key.load(Ordering::Acquire)
    }

    /// Load only the value word.
    #[inline]
    pub fn load_value(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Read the cell as `⟨key, value⟩`, key first (torn-read tolerant order
    /// used by `find`, §4).
    #[inline]
    pub fn read(&self) -> (u64, u64) {
        let key = self.key.load(Ordering::Acquire);
        let value = self.value.load(Ordering::Acquire);
        (key, value)
    }

    /// Non-atomic-pair store used only on cells that no other thread can
    /// access (freshly allocated target tables during migration, Lemma 1).
    #[inline]
    pub fn store_unsynchronized(&self, key: u64, value: u64) {
        self.value.store(value, Ordering::Relaxed);
        self.key.store(key, Ordering::Relaxed);
    }

    /// Double-word CAS of the whole cell from `expected` to `new`.
    #[inline]
    pub fn cas_pair(&self, expected: (u64, u64), new: (u64, u64)) -> CasResult {
        let expected128 = pack(expected.0, expected.1);
        let new128 = pack(new.0, new.1);
        match self.cas_u128(expected128, new128) {
            Ok(()) => Ok(()),
            Err(observed) => Err(unpack(observed)),
        }
    }

    /// CAS only the value word (the single-word update fast paths of the
    /// non-growing table and the synchronized growing variants, where the
    /// marking protocol does not constrain value updates).
    ///
    /// On the striped-lock fallback build this (like every value-word
    /// mutation) must take the stripe lock: the fallback `cas_pair` reads
    /// and rewrites the value word non-atomically under its lock, so a
    /// lock-free value CAS interleaving with it could be silently
    /// overwritten (lost update).
    #[cfg(all(target_arch = "x86_64", target_feature = "cmpxchg16b"))]
    #[inline]
    pub fn cas_value(&self, expected: u64, new: u64) -> Result<(), u64> {
        self.value
            .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    /// CAS only the value word (see the cmpxchg16b variant for the role;
    /// stripe-locked here so it cannot interleave with a fallback
    /// `cas_pair`'s read-modify-write of the same cell).
    #[cfg(not(all(target_arch = "x86_64", target_feature = "cmpxchg16b")))]
    pub fn cas_value(&self, expected: u64, new: u64) -> Result<(), u64> {
        let lock = fallback::stripe_for(self as *const Cell as usize);
        let _guard = lock.lock();
        let observed = self.value.load(Ordering::Relaxed);
        if observed == expected {
            self.value.store(new, Ordering::Relaxed);
            Ok(())
        } else {
            Err(observed)
        }
    }

    /// Unconditional atomic store of the value word (overwrite fast path).
    #[cfg(all(target_arch = "x86_64", target_feature = "cmpxchg16b"))]
    #[inline]
    pub fn store_value(&self, new: u64) {
        self.value.store(new, Ordering::Release);
    }

    /// Unconditional store of the value word, stripe-locked on the
    /// fallback build (same lost-update hazard as [`Cell::cas_value`]).
    #[cfg(not(all(target_arch = "x86_64", target_feature = "cmpxchg16b")))]
    pub fn store_value(&self, new: u64) {
        let lock = fallback::stripe_for(self as *const Cell as usize);
        let _guard = lock.lock();
        self.value.store(new, Ordering::Relaxed);
    }

    /// Atomic fetch-and-add on the value word (aggregation fast path).
    #[cfg(all(target_arch = "x86_64", target_feature = "cmpxchg16b"))]
    #[inline]
    pub fn fetch_add_value(&self, delta: u64) -> u64 {
        self.value.fetch_add(delta, Ordering::AcqRel)
    }

    /// Fetch-and-add on the value word, stripe-locked on the fallback
    /// build (same lost-update hazard as [`Cell::cas_value`]).
    #[cfg(not(all(target_arch = "x86_64", target_feature = "cmpxchg16b")))]
    pub fn fetch_add_value(&self, delta: u64) -> u64 {
        let lock = fallback::stripe_for(self as *const Cell as usize);
        let _guard = lock.lock();
        let old = self.value.load(Ordering::Relaxed);
        self.value.store(old.wrapping_add(delta), Ordering::Relaxed);
        old
    }

    /// Set the migration mark on this cell and return the cell contents at
    /// the moment the mark took effect (with the mark stripped from the
    /// key).  Idempotent: a re-copy of the block reads the same frozen pair.
    ///
    /// One locked instruction: `fetch_or` of [`MARK_BIT`] on the key word,
    /// then a plain load of the value word.  The value read is final
    /// because every writer that may run while a migration can mark is a
    /// full-cell [`Cell::cas_pair`] whose expected key is *unmarked* — it
    /// fails from the `fetch_or` on — and a CAS that succeeded before it
    /// wrote both words at once, ahead of the `fetch_or` in the cell's
    /// modification order.  The value-word-only operations
    /// ([`Cell::cas_value`], [`Cell::store_value`],
    /// [`Cell::fetch_add_value`]) do not look at the mark and are therefore
    /// illegal while a marking migration can run, as they were before
    /// (DESIGN.md §15 lists every writer).
    ///
    /// Orderings: the `AcqRel` RMW pairs with the `Release` half of the
    /// writers' CAS (the frozen pair and what a boxed word points to are
    /// visible to the copier) and publishes the mark to their `Acquire`
    /// key loads; the `Acquire` value load cannot move ahead of the RMW.
    #[cfg(all(target_arch = "x86_64", target_feature = "cmpxchg16b"))]
    #[inline]
    pub fn mark_for_migration(&self) -> (u64, u64) {
        let key = self.key.fetch_or(MARK_BIT, Ordering::AcqRel);
        let value = self.value.load(Ordering::Acquire);
        (unmark(key), value)
    }

    /// Set the migration mark (see the `cmpxchg16b` variant for the
    /// contract).  The fallback's `cas_pair` rewrites both words under the
    /// stripe lock without an atomic RMW, so the mark has to go through
    /// the same lock: read, then pair-CAS, retrying over concurrent
    /// modifications.
    #[cfg(not(all(target_arch = "x86_64", target_feature = "cmpxchg16b")))]
    pub fn mark_for_migration(&self) -> (u64, u64) {
        loop {
            let (key, value) = self.read();
            if is_marked(key) {
                return (unmark(key), value);
            }
            if self.cas_pair((key, value), (key | MARK_BIT, value)).is_ok() {
                return (key, value);
            }
        }
    }

    /// [`Cell::mark_for_migration`] for a caller inside a hardware
    /// transaction (`growt_htm::rtm`): a load and a store of the key word
    /// and a load of the value word, no locked instruction.  The commit
    /// makes the three one atomic step — a `cas_pair` that reaches the cell
    /// between them aborts the transaction — and that step is the freeze,
    /// with the contract of the `fetch_or` variant.  Outside a transaction
    /// the store could overwrite a concurrent writer's key word.
    ///
    /// `Relaxed` throughout: the accesses are atomics, so no schedule is a
    /// data race; what orders them against other threads is the commit,
    /// and the caller's `Acquire` fence after it stands in for the
    /// `fetch_or`'s acquire half (DESIGN.md §15).
    #[inline]
    pub(crate) fn mark_in_transaction(&self) -> (u64, u64) {
        let key = self.key.load(Ordering::Relaxed);
        self.key.store(key | MARK_BIT, Ordering::Relaxed);
        (unmark(key), self.value.load(Ordering::Relaxed))
    }

    // -- double word CAS backends -------------------------------------------

    #[cfg(all(target_arch = "x86_64", target_feature = "cmpxchg16b"))]
    #[inline]
    fn cas_u128(&self, expected: u128, new: u128) -> Result<(), u128> {
        // SAFETY: `Cell` is 16-byte aligned and `repr(C)`, so `self` points
        // to 16 readable/writable bytes; the target feature is statically
        // enabled for this compilation.  Mixing 64-bit atomic loads with a
        // 128-bit CAS on the same memory is the standard implementation
        // technique for this data structure on x86-64 (the paper's C++ code
        // does the same); x86-64 guarantees both access sizes are atomic.
        let dst = self as *const Cell as *mut u128;
        let observed = unsafe {
            core::arch::x86_64::cmpxchg16b(dst, expected, new, Ordering::AcqRel, Ordering::Acquire)
        };
        if observed == expected {
            Ok(())
        } else {
            Err(observed)
        }
    }

    #[cfg(not(all(target_arch = "x86_64", target_feature = "cmpxchg16b")))]
    #[inline]
    fn cas_u128(&self, expected: u128, new: u128) -> Result<(), u128> {
        // Portable fallback: a striped lock keyed by the cell address.  Not
        // lock-free, but correct; reads remain lock-free which preserves the
        // paper's most important property (find never writes).
        let lock = fallback::stripe_for(self as *const Cell as usize);
        let _guard = lock.lock();
        let (k, v) = (
            self.key.load(Ordering::Relaxed),
            self.value.load(Ordering::Relaxed),
        );
        let observed = pack(k, v);
        if observed == expected {
            let (nk, nv) = unpack(new);
            self.value.store(nv, Ordering::Relaxed);
            self.key.store(nk, Ordering::Relaxed);
            Ok(())
        } else {
            Err(observed)
        }
    }
}

#[inline]
fn pack(key: u64, value: u64) -> u128 {
    // Little-endian field order: the key is the first 8 bytes of the cell.
    (key as u128) | ((value as u128) << 64)
}

#[inline]
fn unpack(pair: u128) -> (u64, u64) {
    (pair as u64, (pair >> 64) as u64)
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "cmpxchg16b")))]
mod fallback {
    use parking_lot::Mutex;
    use std::sync::OnceLock;

    const STRIPES: usize = 1024;

    pub(super) fn stripe_for(addr: usize) -> &'static Mutex<()> {
        static LOCKS: OnceLock<Vec<Mutex<()>>> = OnceLock::new();
        let locks = LOCKS.get_or_init(|| (0..STRIPES).map(|_| Mutex::new(())).collect());
        &locks[(addr >> 4) & (STRIPES - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_cell_reads_empty() {
        let c = Cell::new();
        assert_eq!(c.read(), (EMPTY_KEY, 0));
        assert!(is_sentinel(c.load_key()));
    }

    #[test]
    fn key_helpers() {
        assert!(is_sentinel(EMPTY_KEY));
        assert!(is_sentinel(DEL_KEY));
        assert!(!is_sentinel(42));
        assert!(is_marked(42 | MARK_BIT));
        assert!(!is_marked(42));
        assert_eq!(unmark(42 | MARK_BIT), 42);
        assert_eq!(unmark(42), 42);
    }

    #[test]
    fn cas_pair_succeeds_and_fails_correctly() {
        let c = Cell::new();
        assert!(c.cas_pair((EMPTY_KEY, 0), (10, 100)).is_ok());
        assert_eq!(c.read(), (10, 100));
        // Wrong expectation fails and reports the observed contents.
        match c.cas_pair((EMPTY_KEY, 0), (11, 110)) {
            Err(observed) => assert_eq!(observed, (10, 100)),
            Ok(()) => panic!("CAS with stale expectation must fail"),
        }
        assert!(c.cas_pair((10, 100), (10, 200)).is_ok());
        assert_eq!(c.read(), (10, 200));
    }

    #[test]
    fn value_word_fast_paths() {
        let c = Cell::new();
        c.cas_pair((EMPTY_KEY, 0), (5, 1)).unwrap();
        assert_eq!(c.fetch_add_value(4), 1);
        assert_eq!(c.load_value(), 5);
        c.store_value(99);
        assert_eq!(c.load_value(), 99);
        assert!(c.cas_value(99, 7).is_ok());
        assert!(c.cas_value(99, 8).is_err());
        assert_eq!(c.load_value(), 7);
        // The key never changed.
        assert_eq!(c.load_key(), 5);
    }

    #[test]
    fn mark_freezes_cell() {
        let c = Cell::new();
        c.cas_pair((EMPTY_KEY, 0), (33, 333)).unwrap();
        let (k, v) = c.mark_for_migration();
        assert_eq!((k, v), (33, 333));
        assert!(is_marked(c.load_key()));
        // Writers performing a full-cell CAS with the unmarked key must fail.
        assert!(c.cas_pair((33, 333), (33, 444)).is_err());
        // Marking twice is idempotent.
        assert_eq!(c.mark_for_migration(), (33, 333));
    }

    #[test]
    fn mark_empty_cell_blocks_insertion() {
        let c = Cell::new();
        let (k, v) = c.mark_for_migration();
        assert_eq!((k, v), (EMPTY_KEY, 0));
        // An insert (CAS from the unmarked empty pair) must now fail.
        assert!(c.cas_pair((EMPTY_KEY, 0), (7, 70)).is_err());
    }

    /// The freeze against a live writer: a thread increments the value
    /// through `cas_pair` (every marking-protocol writer's shape) while
    /// another freezes the cell.  The pair the freeze returns is the
    /// cell's final content, and no CAS succeeds once it has returned.
    #[test]
    fn mark_races_a_cas_pair_writer_and_returns_the_final_value() {
        for round in 0..200u64 {
            let cell = Cell::new();
            cell.cas_pair((EMPTY_KEY, 0), (7, 0)).unwrap();
            let frozen = std::sync::OnceLock::new();
            // Successes the writer saw *after* the freeze had returned.
            let late_successes = AtomicU64::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut value = 0u64;
                    loop {
                        let frozen_before = frozen.get().is_some();
                        match cell.cas_pair((7, value), (7, value + 1)) {
                            Ok(()) => {
                                value += 1;
                                if frozen_before {
                                    late_successes.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Err((key, observed)) => {
                                assert_eq!(key, 7 | MARK_BIT, "only the mark defeats the writer");
                                assert_eq!(observed, value, "the writer's own last value");
                                break;
                            }
                        }
                    }
                });
                s.spawn(|| {
                    // Let the writer get going; vary how far.
                    while cell.load_value() < round * 8 {
                        std::thread::yield_now();
                    }
                    frozen.set(cell.mark_for_migration()).unwrap();
                });
            });
            let (key, value) = *frozen.get().unwrap();
            assert_eq!(key, 7);
            assert_eq!(
                cell.read(),
                (7 | MARK_BIT, value),
                "freeze missed an update"
            );
            assert_eq!(late_successes.load(Ordering::SeqCst), 0);
            assert!(cell.cas_pair((7, value), (7, value + 1)).is_err());
        }
    }

    #[test]
    fn concurrent_insert_race_has_single_winner() {
        let cell = Arc::new(Cell::new());
        let winners = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 1..=8u64 {
                let cell = Arc::clone(&cell);
                let winners = Arc::clone(&winners);
                s.spawn(move || {
                    if cell.cas_pair((EMPTY_KEY, 0), (100, t)).is_ok() {
                        winners.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::SeqCst), 1);
        let (k, v) = cell.read();
        assert_eq!(k, 100);
        assert!((1..=8).contains(&v));
    }

    #[test]
    fn concurrent_fetch_add_is_exact() {
        let cell = Arc::new(Cell::new());
        cell.cas_pair((EMPTY_KEY, 0), (9, 0)).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        cell.fetch_add_value(1);
                    }
                });
            }
        });
        assert_eq!(cell.read(), (9, 40_000));
    }

    #[test]
    fn cell_layout_is_16_bytes_aligned() {
        assert_eq!(std::mem::size_of::<Cell>(), 16);
        assert_eq!(std::mem::align_of::<Cell>(), 16);
    }
}
