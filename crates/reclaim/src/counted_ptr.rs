//! The paper's counted-pointer scheme for retiring old table versions
//! (§5.3.2, "Marking Moved Elements for Consistency").
//!
//! The current hash table array is owned by a reference-counted pointer.
//! Because acquiring a counted pointer costs an atomic increment on a
//! shared counter, handles do **not** acquire it per operation; instead
//! each handle caches a clone of the pointer together with the table's
//! version number and only re-acquires when the version changed.  The old
//! table is freed automatically once every handle has refreshed its cached
//! pointer (and any in-flight readers dropped their temporary clones).
//!
//! The version word also carries three bits a growing table raises: the
//! **flag** (bit 63) while a migration excludes its writers,
//! **clearing** (bit 62) while the next generation waits to be cleared in
//! slices by the writers that pass, and **sole** (bit 61, [`SOLE`]) while
//! the table has exactly one handle, whose writes may then store without a
//! locked instruction.  A writer learns of any of them from the version
//! load it makes anyway ([`CachedArc::get_ref_unless_flagged`]), so the
//! check costs no load of its own, and it clears its slice in a hook that
//! only the cold path runs, before its operation.  A reader ignores the
//! flag and the clearing bit, and every reader of the version number
//! ([`VersionedArc::version`]) ignores all three.  The sole bit is the one
//! a cache adopts: its cached word carries it, so that the compare of the
//! fast path holds, for readers and writers alike, while it stays raised.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use growt_iface::sync::lock;

/// The flag bit of the version word; versions count up from 1 and never
/// reach it.
const FLAG: u64 = 1 << 63;
/// The clearing bit of the version word, below the flag.
const CLEARING: u64 = 1 << 62;
/// The sole bit of the version word, below the clearing bit: raised while
/// the slot's owner has one writer, which may then write without locked
/// instructions.  A [`CachedArc`] keeps it in its cached word.
pub const SOLE: u64 = 1 << 61;
/// The version number's bits.
const VERSION: u64 = !(FLAG | CLEARING | SOLE);

/// A versioned, reference-counted slot holding the current value of type
/// `T` (in the hash table: the current table array).
pub struct VersionedArc<T> {
    current: Mutex<Arc<T>>,
    /// The version, with [`FLAG`], [`CLEARING`] and [`SOLE`] or-ed in
    /// while raised.
    version: AtomicU64,
    /// Number of [`VersionedArc::acquire`] calls ever made (diagnostics:
    /// the zero-shared-traffic conformance tests assert that a burst of
    /// table operations performs no acquisition at all).
    acquires: AtomicU64,
}

impl<T> VersionedArc<T> {
    /// Create a slot holding `initial` at version 1.
    pub fn new(initial: T) -> Self {
        VersionedArc {
            current: Mutex::new(Arc::new(initial)),
            version: AtomicU64::new(1),
            acquires: AtomicU64::new(0),
        }
    }

    /// The current version number (monotonically increasing).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire) & VERSION
    }

    /// Raise the flag.  `SeqCst`: the store side of the exclusion
    /// handshake a growing table builds on it.
    pub fn raise_flag(&self) {
        self.version.fetch_or(FLAG, Ordering::SeqCst);
    }

    /// Lower the flag (a no-op when it is not raised).
    pub fn lower_flag(&self) {
        self.version.fetch_and(!FLAG, Ordering::SeqCst);
    }

    /// `true` while the flag is raised.
    #[inline]
    pub fn flagged(&self) -> bool {
        self.version.load(Ordering::SeqCst) & FLAG != 0
    }

    /// Raise the clearing bit, which tells each writer that passes to
    /// clear a slice of the next generation.
    pub fn raise_clearing(&self) {
        self.version.fetch_or(CLEARING, Ordering::SeqCst);
    }

    /// Lower the clearing bit (a no-op when it is not raised).
    pub fn lower_clearing(&self) {
        self.version.fetch_and(!CLEARING, Ordering::SeqCst);
    }

    /// `true` while the clearing bit is raised.
    pub fn clearing(&self) -> bool {
        self.version.load(Ordering::SeqCst) & CLEARING != 0
    }

    /// Raise the sole bit.  `SeqCst`, a release: what the last other
    /// writer did happens before a write that sees the bit.
    pub fn raise_sole(&self) {
        self.version.fetch_or(SOLE, Ordering::SeqCst);
    }

    /// Lower the sole bit; `true` when it was raised.  `SeqCst`: the store
    /// side of the handshake that revokes the sole writer's plain stores.
    pub fn lower_sole(&self) -> bool {
        self.version.fetch_and(!SOLE, Ordering::SeqCst) & SOLE != 0
    }

    /// `true` while the version word is `word`, one that
    /// [`CachedArc::get_ref_unless_flagged`] returned: the same version,
    /// flag and sole bit.  The clearing bit is not compared: it asks
    /// writers to clear the next generation, and changes nothing in the
    /// current one.
    #[inline]
    pub fn still(&self, word: u64) -> bool {
        self.version.load(Ordering::Acquire) | CLEARING == word | CLEARING
    }

    /// Acquire a counted reference to the current value together with its
    /// version.  This takes the (short) lock — callers are expected to
    /// cache the result in a [`CachedArc`].
    ///
    /// # Refresh frequency
    ///
    /// In the hash table this lock is taken once per handle per table
    /// *migration*, not per operation: a handle re-acquires only when
    /// [`CachedArc::get`] observes a version change.  With the default
    /// doubling growth policy a table that ends up holding `n` elements
    /// migrates O(log n) times over its whole lifetime, so across a
    /// benchmark run of millions of operations per thread the mutex is
    /// contended a few dozen times in total — every other access is the
    /// version load + pointer dereference of the cached fast path.
    pub fn acquire(&self) -> (Arc<T>, u64) {
        let guard = lock(&self.current);
        let arc = Arc::clone(&guard);
        let version = self.version();
        self.acquires.fetch_add(1, Ordering::Relaxed);
        (arc, version)
    }

    /// Total number of [`VersionedArc::acquire`] calls so far.  Purely a
    /// diagnostic: the hot path never acquires, so this counter should grow
    /// by O(handles × migrations), not O(operations).
    pub fn acquire_count(&self) -> u64 {
        self.acquires.load(Ordering::Relaxed)
    }

    /// Publish `new` as the next version unconditionally.  Returns the
    /// previous value.  The flag and the clearing bit are left as they are.
    pub fn publish(&self, new: Arc<T>) -> Arc<T> {
        let mut guard = lock(&self.current);
        let old = std::mem::replace(&mut *guard, new);
        self.version.fetch_add(1, Ordering::AcqRel);
        old
    }

    /// Publish `new` only if the version still equals `expected_version`
    /// (i.e. no other thread finished a migration first).  On failure the
    /// current version is returned in the error.
    pub fn publish_if(&self, expected_version: u64, new: Arc<T>) -> Result<Arc<T>, u64> {
        let mut guard = lock(&self.current);
        let version = self.version();
        if version != expected_version {
            return Err(version);
        }
        let old = std::mem::replace(&mut *guard, new);
        self.version.fetch_add(1, Ordering::AcqRel);
        Ok(old)
    }

    /// Run `f` on the current value without caching (acquires the counted
    /// pointer for the duration of the call).
    pub fn with_current<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let (arc, _) = self.acquire();
        f(&arc)
    }
}

/// A handle-local cache of the current [`VersionedArc`] value.
///
/// `get` is the hot-path accessor: one relaxed-ish atomic load of the
/// version plus a pointer dereference when the cache is up to date — no
/// shared-counter traffic, exactly the optimization described in §5.3.2.
pub struct CachedArc<T> {
    cached: Arc<T>,
    version: u64,
}

impl<T> CachedArc<T> {
    /// Create a cache from the current value of `source`.
    pub fn new(source: &VersionedArc<T>) -> Self {
        let (cached, version) = source.acquire();
        CachedArc { cached, version }
    }

    /// Get the current value, refreshing the cache if a newer version has
    /// been published.  Returns `true` in the second tuple element when the
    /// cache was refreshed (the caller may need to re-run its operation on
    /// the new table).
    ///
    /// The refresh branch runs once per table migration per handle (see
    /// [`VersionedArc::acquire`] for the frequency analysis) and is marked
    /// `#[cold]` so the common cached branch compiles to a version load, a
    /// compare and a return — no spilled registers for the slow path.
    ///
    /// The flag and the clearing bit are ignored: a reader is not excluded
    /// by them.  The fast path compares the whole word, unmasked: the
    /// cached word never has either bit, so a raised bit fails the
    /// compare and is told apart on the cold path, like a newer version.
    /// Masking both bits before the compare (an `and` with a 62-bit
    /// constant) made `GrowMap`'s find-only benchmark 6–10 % slower.  The
    /// sole bit is adopted on the cold path, so a raised one costs one
    /// cold call per change, not one per operation.
    #[inline]
    pub fn get<'a>(&'a mut self, source: &VersionedArc<T>) -> (&'a Arc<T>, bool) {
        let word = source.version.load(Ordering::Acquire);
        if word == self.version {
            (&self.cached, false)
        } else {
            self.refresh_unless_current(source, word)
        }
    }

    #[cold]
    fn refresh_unless_current<'a>(
        &'a mut self,
        source: &VersionedArc<T>,
        word: u64,
    ) -> (&'a Arc<T>, bool) {
        let refreshed = word & VERSION != self.version & VERSION;
        if refreshed {
            self.refresh(source);
        }
        self.adopt_sole(word);
        (&self.cached, refreshed)
    }

    /// Take the sole bit of `word` into the cached word, where the fast
    /// path's compare will find it.
    #[inline]
    fn adopt_sole(&mut self, word: u64) {
        self.version = self.version & VERSION | word & SOLE;
    }

    /// [`CachedArc::get_ref`] for a writer that the flag excludes: `None`
    /// while the flag is raised, else the value and the compared word,
    /// whose [`SOLE`] bit says whether the writer may store without locked
    /// instructions.  The fast path is the same one load and one compare —
    /// the cached word never has the flag or the clearing bit, so a raised
    /// one fails the compare and is told apart on the cold path, as is a
    /// changed sole bit, which the cold path adopts without acquiring; it
    /// also runs the caller's two hooks:
    ///
    /// * `on_clearing`, once, when the word has the clearing bit; the word
    ///   is then loaded again, so that what the hook did (it may have
    ///   raised the flag, or published a newer version) is seen;
    /// * `on_refresh`, after the cache took a newer version.
    ///
    /// Neither hook nor its outcome is on the fast path: it returns the
    /// value and the word it loaded and nothing else, so a caller has no
    /// discriminant to test.
    #[inline]
    pub fn get_ref_unless_flagged<'a>(
        &'a mut self,
        source: &VersionedArc<T>,
        on_clearing: impl FnOnce(),
        on_refresh: impl FnOnce(),
    ) -> Option<(&'a T, u64)> {
        let word = source.version.load(Ordering::Acquire);
        if word == self.version {
            Some((self.cached.as_ref(), word))
        } else {
            self.refresh_unless_flagged(source, word, on_clearing, on_refresh)
        }
    }

    #[cold]
    fn refresh_unless_flagged<'a>(
        &'a mut self,
        source: &VersionedArc<T>,
        mut word: u64,
        on_clearing: impl FnOnce(),
        on_refresh: impl FnOnce(),
    ) -> Option<(&'a T, u64)> {
        if word & CLEARING != 0 {
            on_clearing();
            word = source.version.load(Ordering::Acquire);
        }
        if word & FLAG != 0 {
            return None;
        }
        if word & VERSION != self.version & VERSION {
            self.refresh(source);
            on_refresh();
        }
        self.adopt_sole(word);
        Some((self.cached.as_ref(), self.version))
    }

    /// Borrow-based variant of [`CachedArc::get`]: the same
    /// version-load-and-compare fast path, but the value is handed out as a
    /// plain `&T` borrowed from the handle-local cache instead of a
    /// `&Arc<T>` that invites a clone.  This is the operation prologue of
    /// the hash-table handles (§5.3.2): because the cache itself keeps the
    /// counted pointer alive for the duration of the borrow, the fast path
    /// touches **no shared cache line at all** beyond the read-only version
    /// word — zero reference-count RMWs per operation.
    #[inline]
    pub fn get_ref<'a>(&'a mut self, source: &VersionedArc<T>) -> (&'a T, bool) {
        let (arc, refreshed) = self.get(source);
        (arc.as_ref(), refreshed)
    }

    /// Slow path of [`CachedArc::get`]: re-acquire the counted pointer
    /// under the source's lock.  Kept out of line (`#[cold]`) so the hot
    /// cached branch stays tight.
    #[cold]
    fn refresh(&mut self, source: &VersionedArc<T>) -> &Arc<T> {
        let (arc, v) = source.acquire();
        self.cached = arc;
        self.version = v;
        &self.cached
    }

    /// The cached value without a staleness check (valid for read paths
    /// that tolerate operating on an old version).
    #[inline]
    pub fn cached(&self) -> &Arc<T> {
        &self.cached
    }

    /// The version of the cached value (without the sole bit).
    #[inline]
    pub fn cached_version(&self) -> u64 {
        self.version & VERSION
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct DropCounter(Arc<AtomicUsize>, #[allow(dead_code)] u64);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn acquire_and_version() {
        let slot = VersionedArc::new(7u64);
        assert_eq!(slot.version(), 1);
        let (v, ver) = slot.acquire();
        assert_eq!(*v, 7);
        assert_eq!(ver, 1);
        slot.publish(Arc::new(8));
        assert_eq!(slot.version(), 2);
        assert_eq!(slot.with_current(|x| *x), 8);
    }

    #[test]
    fn publish_if_detects_races() {
        let slot = VersionedArc::new(1u64);
        let v = slot.version();
        assert!(slot.publish_if(v, Arc::new(2)).is_ok());
        // Same expected version again must fail now.
        match slot.publish_if(v, Arc::new(3)) {
            Err(current) => assert_eq!(current, v + 1),
            Ok(_) => panic!("stale publish succeeded"),
        }
        assert_eq!(slot.with_current(|x| *x), 2);
    }

    #[test]
    fn cache_refreshes_only_on_version_change() {
        let slot = VersionedArc::new(10u64);
        let mut cache = CachedArc::new(&slot);
        let (val, refreshed) = cache.get(&slot);
        assert_eq!(**val, 10);
        assert!(!refreshed);
        slot.publish(Arc::new(11));
        let (val, refreshed) = cache.get(&slot);
        assert_eq!(**val, 11);
        assert!(refreshed);
        let (_, refreshed) = cache.get(&slot);
        assert!(!refreshed);
    }

    #[test]
    fn get_ref_borrows_without_touching_the_shared_count() {
        let slot = VersionedArc::new(5u64);
        let mut cache = CachedArc::new(&slot);
        let acquires_after_init = slot.acquire_count();
        let count_before = Arc::strong_count(cache.cached());
        for _ in 0..1000 {
            let (val, refreshed) = cache.get_ref(&slot);
            assert_eq!(*val, 5);
            assert!(!refreshed);
        }
        // No acquisition and no refcount traffic happened on the cached path.
        assert_eq!(slot.acquire_count(), acquires_after_init);
        assert_eq!(Arc::strong_count(cache.cached()), count_before);
        // A publish forces exactly one re-acquisition.
        slot.publish(Arc::new(6));
        let (val, refreshed) = cache.get_ref(&slot);
        assert_eq!(*val, 6);
        assert!(refreshed);
        assert_eq!(slot.acquire_count(), acquires_after_init + 1);
    }

    /// A writer's check with hooks that count: the value, how often the
    /// clearing hook ran, and whether the refresh hook ran.
    fn write_check(
        cache: &mut CachedArc<u64>,
        slot: &VersionedArc<u64>,
    ) -> (Option<u64>, u32, bool) {
        let (mut clears, mut refreshed) = (0, false);
        let value = cache
            .get_ref_unless_flagged(slot, || clears += 1, || refreshed = true)
            .map(|(value, _)| *value);
        (value, clears, refreshed)
    }

    #[test]
    fn the_flag_excludes_writers_and_is_invisible_to_readers() {
        let slot = VersionedArc::new(5u64);
        let mut cache = CachedArc::new(&slot);
        assert!(!slot.flagged());
        slot.raise_flag();
        assert!(slot.flagged());
        assert_eq!(slot.version(), 1);
        assert_eq!(write_check(&mut cache, &slot), (None, 0, false));
        assert_eq!(cache.get_ref(&slot), (&5, false));
        // A publication under the flag keeps it; lowering it lets the
        // writer through to the new value.
        slot.publish(Arc::new(6));
        assert_eq!(slot.version(), 2);
        assert_eq!(write_check(&mut cache, &slot), (None, 0, false));
        slot.lower_flag();
        assert!(!slot.flagged());
        assert_eq!(write_check(&mut cache, &slot), (Some(6), 0, true));
        assert_eq!(write_check(&mut cache, &slot), (Some(6), 0, false));
        assert!(slot.publish_if(2, Arc::new(7)).is_ok());
    }

    #[test]
    fn the_clearing_bit_reaches_writers_only_and_refreshes_nothing() {
        let slot = VersionedArc::new(5u64);
        let mut cache = CachedArc::new(&slot);
        let acquires = slot.acquire_count();
        slot.raise_clearing();
        assert!(slot.clearing() && !slot.flagged());
        assert_eq!(slot.version(), 1);
        assert_eq!(cache.get_ref(&slot), (&5, false));
        assert_eq!(write_check(&mut cache, &slot), (Some(5), 1, false));
        assert_eq!(
            slot.acquire_count(),
            acquires,
            "a raised bit is no new version"
        );
        // The flag still excludes while the bit is up.
        slot.raise_flag();
        assert_eq!(write_check(&mut cache, &slot), (None, 1, false));
        slot.lower_flag();
        slot.lower_clearing();
        assert!(!slot.clearing());
        assert_eq!(write_check(&mut cache, &slot), (Some(5), 0, false));
        // A newer version seen with the bit up: refreshed and told.
        slot.publish(Arc::new(6));
        slot.raise_clearing();
        assert_eq!(write_check(&mut cache, &slot), (Some(6), 1, true));
    }

    /// The clearing hook runs once in each cold call that sees the bit,
    /// however long the bit stays up, and never where the compare holds;
    /// readers take no hook and are not held up by the bit.
    #[test]
    fn the_clearing_hook_runs_once_per_cold_call_and_never_on_the_fast_path() {
        let slot = VersionedArc::new(5u64);
        let mut cache = CachedArc::new(&slot);
        for _ in 0..1000 {
            assert_eq!(write_check(&mut cache, &slot), (Some(5), 0, false));
        }
        slot.raise_clearing();
        for _ in 0..3 {
            assert_eq!(cache.get(&slot), (&Arc::new(5), false));
            assert_eq!(cache.get_ref(&slot), (&5, false));
            assert_eq!(write_check(&mut cache, &slot), (Some(5), 1, false));
        }
        slot.lower_clearing();
        for _ in 0..1000 {
            assert_eq!(write_check(&mut cache, &slot), (Some(5), 0, false));
        }
        assert_eq!(slot.acquire_count(), 1, "the bit refreshed a cache");
    }

    /// What the clearing hook does is seen by the writer that ran it: a
    /// flag it raised (a lead it started) returns `None`, and a version it
    /// published (a lead it finished) a refreshed value.
    #[test]
    fn a_flag_raised_by_the_clearing_hook_excludes_its_writer() {
        let slot = VersionedArc::new(5u64);
        let mut cache = CachedArc::new(&slot);
        slot.raise_clearing();
        let mut refreshed = false;
        let value = cache.get_ref_unless_flagged(
            &slot,
            || {
                slot.lower_clearing();
                slot.raise_flag();
            },
            || refreshed = true,
        );
        assert_eq!((value.map(|(v, _)| *v), refreshed), (None, false));
        slot.lower_flag();
        slot.raise_clearing();
        let value = cache.get_ref_unless_flagged(
            &slot,
            || {
                slot.lower_clearing();
                slot.raise_flag();
                slot.publish(Arc::new(6));
                slot.lower_flag();
            },
            || refreshed = true,
        );
        assert_eq!((value.map(|(v, _)| v), refreshed), (Some(&6), true));
        assert_eq!(write_check(&mut cache, &slot), (Some(6), 0, false));
    }

    /// The sole bit is adopted by a cold call and kept in the cached word:
    /// no acquisition, the writer is told through the returned word, and
    /// every later compare holds until the bit changes again.
    #[test]
    fn the_sole_bit_is_adopted_without_acquiring_and_returned_to_writers() {
        let slot = VersionedArc::new(5u64);
        let mut cache = CachedArc::new(&slot);
        let word = |cache: &mut CachedArc<u64>| {
            cache
                .get_ref_unless_flagged(&slot, || unreachable!(), || unreachable!())
                .map(|(_, word)| word)
        };
        assert_eq!(word(&mut cache), Some(1));
        slot.raise_sole();
        assert_eq!(slot.version(), 1);
        assert_eq!(word(&mut cache), Some(1 | SOLE));
        assert_eq!(cache.cached_version(), 1);
        assert_eq!(cache.get_ref(&slot), (&5, false));
        assert!(slot.lower_sole());
        assert!(!slot.lower_sole());
        assert_eq!(cache.get_ref(&slot), (&5, false));
        assert_eq!(word(&mut cache), Some(1));
        slot.raise_sole();
        slot.publish(Arc::new(6));
        let mut refreshed = false;
        let value = cache.get_ref_unless_flagged(&slot, || {}, || refreshed = true);
        assert_eq!((value, refreshed), (Some((&6, 2 | SOLE)), true));
        assert!(slot.still(2 | SOLE));
        slot.raise_clearing();
        assert!(slot.still(2 | SOLE) && !slot.still(2) && !slot.still(1 | SOLE));
        assert_eq!(
            slot.acquire_count(),
            2,
            "the sole bit was adopted without an acquisition"
        );
    }

    #[test]
    fn old_value_freed_after_all_caches_refresh() {
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = VersionedArc::new(DropCounter(Arc::clone(&drops), 0));
        let mut c1 = CachedArc::new(&slot);
        let mut c2 = CachedArc::new(&slot);
        slot.publish(Arc::new(DropCounter(Arc::clone(&drops), 1)));
        // The old value is still cached by both handles.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        c1.get(&slot);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        c2.get(&slot);
        // Now the last reference to version 0 is gone.
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_publish_and_read() {
        let slot = Arc::new(VersionedArc::new(0u64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let slot = Arc::clone(&slot);
                s.spawn(move || {
                    let mut cache = CachedArc::new(&slot);
                    for i in 0..1000u64 {
                        if i % 100 == 0 {
                            slot.publish(Arc::new(t * 10_000 + i));
                        }
                        let (val, _) = cache.get(&slot);
                        // The observed value is always one that was published.
                        let v = **val;
                        assert!(v == 0 || v % 100 == 0);
                    }
                });
            }
        });
    }
}
