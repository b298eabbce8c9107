//! The generic growing map: `GrowMap<K, V>` (DESIGN.md §14).
//!
//! The paper presents the growing table as a *general* concurrent hash
//! map, but the concrete tables of this crate speak two hard-coded
//! languages: `u64 → u64` ([`crate::grow::GrowingTable`]) and
//! `String → u64` ([`crate::complex::GrowingStringTable`]).  This module
//! closes the gap with two representation axes over the same 16-byte
//! [`Cell`]s and the same shared §12 coordinator ([`crate::coord`]):
//!
//! * [`KeyRepr`] — how a key maps onto the cell's **key word**.  Word
//!   sized keys encode *inline* (the word-table fast path: the probe
//!   compares one integer, exactly the cell ops of `GrowingTable`);
//!   everything else is stored out of line behind the §5.7 packed
//!   reference `signature << 48 | pointer` that the string table
//!   introduced.  What the pointer leads to is the key type's business
//!   (the storage hooks of [`KeyRepr`]): by default a `KeyBox<K>` holding
//!   the master hash and the typed key; for `String` the string tables'
//!   own `⟨hash, len, bytes⟩` buffer — one allocation, and hash, length
//!   and bytes behind one dependent load.
//! * [`ValueRepr`] — how a value maps onto the cell's **value word**.
//!   Word-sized values encode inline (atomic updates are one full-cell
//!   CAS); larger values live in a plain heap box whose raw pointer is
//!   the value word.  Value boxes need no signature: the key word decides
//!   equality, the value word is only ever dereferenced after a key
//!   match.
//!
//! Both out-of-line representations lean on the same two guarantees the
//! string table established:
//!
//! * **publication** is a double-word CAS of `⟨key word, value word⟩`
//!   into an empty cell, so there is no in-flight window at all;
//! * **reclamation** is QSBR-deferred: erased key boxes and replaced or
//!   erased value boxes are retired into the table's [`QsbrDomain`] and
//!   freed only after every handle has passed a quiescent state, so no
//!   concurrent probe can dereference freed memory.  Within one
//!   operation a handle never quiesces, which also makes the
//!   read–derive–CAS update loop ABA-safe: the old value pointer cannot
//!   be freed and reallocated while the updater still holds it.
//!
//! Growth is not reimplemented here: [`GenericInner`]'s [`GrowProtocol`]
//! impl instantiates the shared coordinator with a block copy that
//! re-derives each element's home cell from the master hash (stored in
//! the key allocation, or recomputed from the inline word), the same rehash
//! migration the string table uses — correct for growth, cleanup and
//! shrink steps alike.

use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use growt_htm::rtm;
use growt_iface::{GenericMap, GenericMapHandle, InsertOrUpdate, TryGrowError};
use growt_reclaim::{CachedArc, QsbrDomain, QsbrParticipant, VersionedArc};

use crate::cell::{is_marked, unmark, Cell, DEL_KEY, EMPTY_KEY, MAX_MARKABLE_KEY};
use crate::complex::{self, decode_keyref, pack_keyref, signature_of, POINTER_BITS};
use crate::config::{capacity_for, hash_key, scale_to_capacity, GrowConfig, PROBE_LIMIT};
pub use crate::coord::MigrationRecord;
use crate::coord::{Coordinator, GrowProtocol, MigrationJob};
use crate::count::{GlobalCount, LocalCount};
use crate::prefetch::prefetch_write;

// ---------------------------------------------------------------------------
// Representation axes
// ---------------------------------------------------------------------------

mod sealed {
    /// Argument of [`super::KeyRepr`]'s storage hooks; the module is
    /// private, so the type can be named only inside this crate.
    pub struct Sealed;
}
use sealed::Sealed;

/// How a key type maps onto the cell's key word.
///
/// Implementations fall into two families:
///
/// * **inline** (`INLINE = true`): the key itself is the word.  The
///   encoding must be injective, land in `2..=`[`MAX_MARKABLE_KEY`]
///   (`0`/`1` are the empty/tombstone sentinels, bit 63 is the migration
///   mark), and round-trip through [`KeyRepr::decode`].  Provided for
///   `u64` (identity, reserved encodings rejected) and `u32` (shifted by
///   the two sentinels, so the full `u32` range is usable).
/// * **boxed** (`INLINE = false`, the default): the key is cloned into a
///   heap allocation that also stores its master hash, and the word is
///   the §5.7 packed reference `signature << 48 | pointer`.  Only
///   [`KeyRepr::hash64`] can be customized; the packing is shared.
///
/// The master hash must be **deterministic and process-wide consistent**
/// (every thread must agree on a key's home cell); the default goes
/// through [`std::collections::hash_map::DefaultHasher`], which is
/// seed-free.
pub trait KeyRepr: Clone + Eq + std::hash::Hash + Send + Sync + 'static {
    /// `true` when keys encode directly into the cell key word.
    const INLINE: bool = false;

    /// The master hash (§5.7): the scaled top bits choose the home cell;
    /// for boxed keys the low bits provide the signature and the full
    /// value is stored with the key so migrations re-derive home cells
    /// without touching the key itself.
    fn hash64(&self) -> u64 {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }

    /// Encode an inline key into its cell word (`2..=`[`MAX_MARKABLE_KEY`]).
    fn encode(&self) -> u64 {
        unreachable!("KeyRepr::encode is only called when INLINE is true")
    }

    /// Decode an inline cell word back into the key.
    fn decode(_word: u64) -> Self {
        unreachable!("KeyRepr::decode is only called when INLINE is true")
    }

    // The out-of-line storage seam: four hooks that describe one
    // allocation format, and the only way the map creates, reads or frees
    // a boxed key.  Not part of the public API — the `Sealed` argument
    // cannot be named outside this crate, so no implementation out there
    // can override one of them and the unsafe code may rely on the four
    // agreeing with each other (the defaults, or the `String` overrides).

    /// Clone the key into a fresh allocation that also stores `hash`;
    /// the pointer must fit the 48 pointer bits of a packed reference.
    #[doc(hidden)]
    fn store(&self, hash: u64, _: Sealed) -> *const u8 {
        Box::into_raw(Box::new(KeyBox {
            hash,
            key: self.clone(),
        })) as *const u8
    }

    /// The master hash stored in the allocation.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`KeyRepr::store`] of this type and not have
    /// been freed.
    #[doc(hidden)]
    #[inline]
    unsafe fn stored_hash(ptr: *const u8, _: Sealed) -> u64 {
        // SAFETY: per the contract `ptr` is a live `KeyBox<Self>`.
        unsafe { (*(ptr as *const KeyBox<Self>)).hash }
    }

    /// `true` when the allocation stores `key`, whose master hash is
    /// `hash`: stored-hash equality is the pre-filter before the typed
    /// comparison.
    ///
    /// # Safety
    ///
    /// As for [`KeyRepr::stored_hash`].
    #[doc(hidden)]
    #[inline]
    unsafe fn stored_matches(ptr: *const u8, hash: u64, key: &Self, _: Sealed) -> bool {
        // SAFETY: per the contract `ptr` is a live `KeyBox<Self>`.
        let stored = unsafe { &*(ptr as *const KeyBox<Self>) };
        stored.hash == hash && stored.key == *key
    }

    /// Free the allocation.
    ///
    /// # Safety
    ///
    /// As for [`KeyRepr::stored_hash`], and no other thread may still
    /// dereference `ptr`.
    #[doc(hidden)]
    unsafe fn free_stored(ptr: *const u8, _: Sealed) {
        // SAFETY: per the contract this is the only free of the box that
        // `store` leaked.
        unsafe { drop(Box::from_raw(ptr as *mut KeyBox<Self>)) };
    }
}

impl KeyRepr for u64 {
    const INLINE: bool = true;

    #[inline]
    fn hash64(&self) -> u64 {
        hash_key(*self)
    }

    #[inline]
    fn encode(&self) -> u64 {
        // Same key-space contract as the word tables: 0/1 are sentinels,
        // bit 63 is the migration mark (§5.6 describes how to win the
        // reserved encodings back; `crate::keyspace` implements it).
        assert!(
            (2..=MAX_MARKABLE_KEY).contains(self),
            "key {self:#x} is reserved"
        );
        *self
    }

    #[inline]
    fn decode(word: u64) -> Self {
        word
    }
}

impl KeyRepr for u32 {
    const INLINE: bool = true;

    #[inline]
    fn hash64(&self) -> u64 {
        hash_key(u64::from(*self))
    }

    #[inline]
    fn encode(&self) -> u64 {
        // Shift past the two sentinels; the result stays far below the
        // mark bit, so the full u32 range is usable.
        u64::from(*self) + 2
    }

    #[inline]
    fn decode(word: u64) -> Self {
        (word - 2) as u32
    }
}

/// Strings hash and are stored exactly as in
/// [`crate::complex::GrowingStringTable`]: the word-at-a-time byte hash,
/// and one `⟨hash, len, bytes⟩` allocation per key in place of a `KeyBox`
/// around a `String` (two allocations, two dependent loads per candidate).
impl KeyRepr for String {
    #[inline]
    fn hash64(&self) -> u64 {
        complex::hash_str(self)
    }

    fn store(&self, hash: u64, _: Sealed) -> *const u8 {
        complex::allocate_key(self, hash)
    }

    #[inline]
    unsafe fn stored_hash(ptr: *const u8, _: Sealed) -> u64 {
        // SAFETY: the caller's contract is `complex::stored_hash`'s.
        unsafe { complex::stored_hash(ptr) }
    }

    #[inline]
    unsafe fn stored_matches(ptr: *const u8, hash: u64, key: &Self, _: Sealed) -> bool {
        // SAFETY: the caller's contract is that of the two accessors.
        unsafe { complex::stored_hash(ptr) == hash && complex::stored_bytes(ptr) == key.as_bytes() }
    }

    unsafe fn free_stored(ptr: *const u8, _: Sealed) {
        // SAFETY: the caller's contract is `complex::free_key`'s.
        unsafe { complex::free_key(ptr) }
    }
}

impl KeyRepr for (u32, u32) {
    /// Pairs pack into one word for hashing (not for storage: 64 bits of
    /// payload cannot share a word with the sentinels and the mark bit,
    /// so pair keys are boxed).
    #[inline]
    fn hash64(&self) -> u64 {
        hash_key((u64::from(self.0) << 32) | u64::from(self.1))
    }
}

/// How a value type maps onto the cell's value word.
///
/// * **inline** (`INLINE = true`): the value is the word.  Any encoding
///   works — the value word carries no sentinel once the key word is
///   published (empty cells are claimed with the full `⟨EMPTY, 0⟩` pair
///   CAS, so a published key can never be paired with an unpublished
///   value).  Provided for `u64`, `u32` and `()`.
/// * **boxed** (`INLINE = false`, the default): the value is cloned into
///   a plain `Box<V>` and the word is the raw pointer.  Atomic updates
///   allocate the derived value first and swing the value word with a
///   full-cell CAS; the displaced box is QSBR-retired.
pub trait ValueRepr: Clone + Send + Sync + 'static {
    /// `true` when values encode directly into the cell value word.
    const INLINE: bool = false;

    /// Encode an inline value into its cell word.
    fn encode_inline(&self) -> u64 {
        unreachable!("ValueRepr::encode_inline is only called when INLINE is true")
    }

    /// Decode an inline cell word back into the value.
    fn decode_inline(_word: u64) -> Self {
        unreachable!("ValueRepr::decode_inline is only called when INLINE is true")
    }
}

impl ValueRepr for u64 {
    const INLINE: bool = true;

    #[inline]
    fn encode_inline(&self) -> u64 {
        *self
    }

    #[inline]
    fn decode_inline(word: u64) -> Self {
        word
    }
}

impl ValueRepr for u32 {
    const INLINE: bool = true;

    #[inline]
    fn encode_inline(&self) -> u64 {
        u64::from(*self)
    }

    #[inline]
    fn decode_inline(word: u64) -> Self {
        word as u32
    }
}

/// Unit values make the map a concurrent set.
impl ValueRepr for () {
    const INLINE: bool = true;

    #[inline]
    fn encode_inline(&self) -> u64 {
        0
    }

    #[inline]
    fn decode_inline(_word: u64) -> Self {}
}

/// Fixed-size arrays are the canonical pointer-packed value: too wide for
/// the cell word, cheap to clone, no drop side effects.
impl<const N: usize> ValueRepr for [u64; N] {}

// ---------------------------------------------------------------------------
// Out-of-line allocations
// ---------------------------------------------------------------------------

/// The default heap allocation behind a boxed key ([`KeyRepr::store`]):
/// the full master hash (so migrations re-derive home cells and probes
/// pre-filter on hash equality without touching `K`) plus the typed key.
struct KeyBox<K> {
    hash: u64,
    key: K,
}

/// Key allocation behind a packed boxed-key word.
#[inline]
fn stored_ptr(word: u64) -> *const u8 {
    decode_keyref(word).1
}

/// `true` when an (unmarked) boxed-key word is a published packed
/// reference (sentinels are `< 2`, packed words are `≥ 2⁴⁸`).
#[inline]
fn is_packed(word: u64) -> bool {
    word >= (1 << POINTER_BITS)
}

/// Read the value behind a published value word.
///
/// # Safety
///
/// For boxed `V` the word must have been read from a cell of a live
/// generation and the calling handle must not have quiesced since.
#[inline]
unsafe fn read_value<V: ValueRepr>(word: u64) -> V {
    if V::INLINE {
        V::decode_inline(word)
    } else {
        // SAFETY: per the contract above the box is QSBR-protected.
        unsafe { (*(word as *const V)).clone() }
    }
}

/// An erased key allocation retired into the QSBR domain: dropping it
/// (after every handle quiesced, or at domain teardown) frees the
/// allocation exactly once.
struct RetiredKey<K: KeyRepr>(*const u8, PhantomData<K>);

// SAFETY: the allocation is plain heap memory holding a `K: Send`; the
// wrapper is only dropped when no thread can still dereference the pointer.
unsafe impl<K: KeyRepr> Send for RetiredKey<K> {}

impl<K: KeyRepr> Drop for RetiredKey<K> {
    fn drop(&mut self) {
        // SAFETY: by construction the wrapper holds the only free right.
        unsafe { K::free_stored(self.0, Sealed) };
    }
}

/// A displaced or erased value box retired into the QSBR domain.
struct RetiredValue<V>(*mut V);

// SAFETY: see `RetiredKey`.
unsafe impl<V: Send> Send for RetiredValue<V> {}

impl<V> Drop for RetiredValue<V> {
    fn drop(&mut self) {
        // SAFETY: by construction the wrapper holds the only free right.
        unsafe { drop(Box::from_raw(self.0)) };
    }
}

// ---------------------------------------------------------------------------
// The per-operation probe context
// ---------------------------------------------------------------------------

/// Everything an operation derives from its key once, up front: the
/// master hash, and either the encoded inline word or the 15-bit packing
/// signature.  The `K::INLINE` branches below are monomorphized away, so
/// the inline instantiation probes with one integer compare per cell —
/// the same cell ops as the word table.
struct Probe<'k, K: KeyRepr> {
    hash: u64,
    /// Inline keys: the encoded cell word.  Boxed keys: the signature.
    word_or_sig: u64,
    key: &'k K,
}

impl<'k, K: KeyRepr> Probe<'k, K> {
    #[inline]
    fn new(key: &'k K) -> Self {
        let hash = key.hash64();
        let word_or_sig = if K::INLINE {
            key.encode()
        } else {
            signature_of(hash)
        };
        Probe {
            hash,
            word_or_sig,
            key,
        }
    }

    /// `true` when the published (unmarked, non-sentinel) key word `k`
    /// stores this probe's key.
    ///
    /// # Safety
    ///
    /// For boxed keys, `k` must have been read from a cell of a live
    /// generation and the calling handle must not have quiesced since.
    #[inline]
    unsafe fn matches(&self, k: u64) -> bool {
        if K::INLINE {
            k == self.word_or_sig
        } else {
            if !is_packed(k) {
                return false;
            }
            let (sig, ptr) = decode_keyref(k);
            if sig != self.word_or_sig {
                return false;
            }
            // SAFETY: QSBR-protected per the contract above.
            unsafe { K::stored_matches(ptr, self.hash, self.key, Sealed) }
        }
    }
}

/// Owns the not-yet-published out-of-line allocations of an insertion
/// across operation retries, so a migration loop never allocates twice;
/// freed on drop — including an unwind out of a migration help call or an
/// injected fault — so a crashed operation never leaks them.  Publishing
/// the cell transfers ownership to the table ([`PendingCell::published`]).
struct PendingCell<K: KeyRepr, V: ValueRepr> {
    key_word: Option<u64>,
    value_word: Option<u64>,
    _marker: PhantomData<(K, V)>,
}

impl<K: KeyRepr, V: ValueRepr> PendingCell<K, V> {
    fn new() -> Self {
        PendingCell {
            key_word: None,
            value_word: None,
            _marker: PhantomData,
        }
    }

    /// The key word to publish, allocating the key at most once.
    #[inline]
    fn key_word(&mut self, probe: &Probe<'_, K>) -> u64 {
        if K::INLINE {
            probe.word_or_sig
        } else {
            *self.key_word.get_or_insert_with(|| {
                pack_keyref(probe.word_or_sig, probe.key.store(probe.hash, Sealed))
            })
        }
    }

    /// The value word to publish, allocating the value box at most once.
    #[inline]
    fn value_word(&mut self, value: &V) -> u64 {
        if V::INLINE {
            value.encode_inline()
        } else {
            *self
                .value_word
                .get_or_insert_with(|| Box::into_raw(Box::new(value.clone())) as u64)
        }
    }

    /// The claim CAS won: the table owns both allocations now.
    #[inline]
    fn published(&mut self) {
        self.key_word = None;
        self.value_word = None;
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for PendingCell<K, V> {
    fn drop(&mut self) {
        if let Some(word) = self.key_word.take() {
            // SAFETY: allocated by this operation and never published.
            unsafe { K::free_stored(stored_ptr(word), Sealed) };
        }
        if let Some(word) = self.value_word.take() {
            // SAFETY: allocated by this operation and never published.
            unsafe { drop(Box::from_raw(word as *mut V)) };
        }
    }
}

// ---------------------------------------------------------------------------
// The generic cell array (one table generation)
// ---------------------------------------------------------------------------

/// Per-element outcome of the array-level operations.
enum MapOutcome {
    /// A new element was inserted.
    Inserted,
    /// Plain insert: the key already exists.
    Present,
    /// The value was replaced; carries the displaced value box's word for
    /// QSBR retirement (`None` for inline values).
    Updated(Option<u64>),
    /// The key is absent.
    NotFound,
    /// Probe limit reached: grow, then retry.
    Full,
    /// A marked cell was encountered: help the migration, then retry.
    Migrating,
}

enum MapErase {
    /// The cell was tombstoned; carries the displaced words for QSBR
    /// retirement of their out-of-line allocations.
    Erased {
        key_word: u64,
        value_word: u64,
    },
    NotFound,
    Migrating,
}

/// One table generation: a power-of-two array of word-table cells whose
/// words are interpreted through `K`'s and `V`'s representations.  The
/// array never owns the out-of-line allocations (they outlive
/// generations); the subsystem frees live ones when the whole map drops
/// and displaced ones through the QSBR domain.
struct GenericArray<K: KeyRepr, V: ValueRepr> {
    cells: crate::mem::HugeBox<Cell>,
    capacity: usize,
    version: u64,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: KeyRepr, V: ValueRepr> GenericArray<K, V> {
    fn new(capacity: usize, version: u64) -> Self {
        Self::try_new(capacity, version).expect("initial generic-table allocation failed")
    }

    /// Fallible constructor used by migrations: an OOM while allocating
    /// the next generation degrades to "keep serving the old one".
    fn try_new(capacity: usize, version: u64) -> Result<Self, crate::mem::AllocError> {
        assert!(capacity.is_power_of_two());
        Ok(GenericArray {
            cells: crate::mem::HugeBox::try_zeroed(capacity)?,
            capacity,
            version,
            _marker: PhantomData,
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

    /// Look up the probe's key.  Reads tolerate marked (frozen) cells:
    /// the frozen contents are the linearizable state at freeze time.
    fn find(&self, probe: &Probe<'_, K>) -> Option<V> {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            // Key read before value (§4): the pair-CAS publication means
            // a torn read can only observe a newer value for this key.
            let (k, v) = self.cells[index].read();
            let plain = unmark(k);
            if plain == EMPTY_KEY {
                return None;
            }
            // SAFETY: out-of-line words observed through a live array are
            // QSBR-protected until this handle's next quiescent state.
            if plain != DEL_KEY && unsafe { probe.matches(plain) } {
                return Some(unsafe { read_value::<V>(v) });
            }
            index = (index + 1) & (self.capacity - 1);
        }
        None
    }

    /// Insert, or insert-or-update when `update` is given.  `pending`
    /// carries the (at most one) out-of-line allocation pair across
    /// retries; on `Inserted` it is consumed (published).
    fn upsert<F: Fn(&V) -> V>(
        &self,
        probe: &Probe<'_, K>,
        value: &V,
        update: Option<&F>,
        pending: &mut PendingCell<K, V>,
    ) -> MapOutcome {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    return MapOutcome::Migrating;
                }
                if k == EMPTY_KEY {
                    let key_word = pending.key_word(probe);
                    let value_word = pending.value_word(value);
                    match cell.cas_pair((EMPTY_KEY, 0), (key_word, value_word)) {
                        Ok(()) => {
                            pending.published();
                            return MapOutcome::Inserted;
                        }
                        Err(_) => continue, // re-examine the claimed cell
                    }
                }
                if k == DEL_KEY {
                    break; // tombstone: reclaimed by the next migration
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    let Some(up) = update else {
                        return MapOutcome::Present;
                    };
                    return match self.update_cell(cell, k, v, up) {
                        Ok(outcome) => outcome,
                        Err(()) => continue, // CAS failed: re-read the cell
                    };
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        MapOutcome::Full
    }

    /// Replace the value of an existing key (no insertion).
    fn update<F: Fn(&V) -> V>(&self, probe: &Probe<'_, K>, up: &F) -> MapOutcome {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    return MapOutcome::Migrating;
                }
                if k == EMPTY_KEY {
                    return MapOutcome::NotFound;
                }
                if k == DEL_KEY {
                    break;
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    match self.update_cell(cell, k, v, up) {
                        Ok(outcome) => return outcome,
                        Err(()) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        MapOutcome::NotFound
    }

    /// One read–derive–CAS update attempt on a matched cell.  The
    /// full-cell CAS is mark-aware: it fails if a migration froze the
    /// cell (or an eraser tombstoned it, or another updater won) after
    /// the read, so no derived value can leak into an already-copied or
    /// deleted cell.  `Err(())` asks the caller to re-read.
    #[inline]
    fn update_cell<F: Fn(&V) -> V>(
        &self,
        cell: &Cell,
        k: u64,
        v: u64,
        up: &F,
    ) -> Result<MapOutcome, ()> {
        // SAFETY: `v` was read from a live cell; the handle has not
        // quiesced since (QSBR also makes this ABA-safe: the old box
        // cannot be freed and reallocated within the operation).
        let current = unsafe { read_value::<V>(v) };
        let derived = up(&current);
        let new_word = if V::INLINE {
            derived.encode_inline()
        } else {
            Box::into_raw(Box::new(derived)) as u64
        };
        match cell.cas_pair((k, v), (k, new_word)) {
            Ok(()) => Ok(MapOutcome::Updated((!V::INLINE).then_some(v))),
            Err(_) => {
                if !V::INLINE {
                    // SAFETY: just allocated above, never published.
                    unsafe { drop(Box::from_raw(new_word as *mut V)) };
                }
                Err(())
            }
        }
    }

    /// Tombstone the probe's key.  The value word is preserved in the
    /// tombstone CAS expectation so a racing value update cannot be
    /// silently dropped; the caller receives both displaced words for
    /// deferred reclamation.
    fn erase(&self, probe: &Probe<'_, K>) -> MapErase {
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    let plain = unmark(k);
                    if plain == EMPTY_KEY {
                        return MapErase::NotFound;
                    }
                    // SAFETY: see `find`.
                    if plain != DEL_KEY && unsafe { probe.matches(plain) } {
                        return MapErase::Migrating;
                    }
                    break;
                }
                if k == EMPTY_KEY {
                    return MapErase::NotFound;
                }
                if k == DEL_KEY {
                    break;
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    match cell.cas_pair((k, v), (DEL_KEY, v)) {
                        Ok(()) => {
                            return MapErase::Erased {
                                key_word: k,
                                value_word: v,
                            }
                        }
                        Err(_) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity - 1);
        }
        MapErase::NotFound
    }

    /// Count live elements (quiescent scan).
    fn scan_live(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| unmark(c.load_key()) > DEL_KEY)
            .count()
    }
}

/// Source cells frozen, compacted and placed per round of
/// [`migrate_generic_block`]: a round's hash reads (one dependent load per
/// boxed key) and target lines are in flight together, its two stack
/// arrays (1.5 KiB) stay in L1, a late owner is found out within 64
/// placements, and a freeze transaction writes 32 cache lines (the cells
/// and the pairs it compacts).  16 to 256 measured alike on word keys
/// (EXPERIMENTS.md "The grow pause, decomposed").
const COPY_CHUNK: usize = 64;

/// Transactions a block copy may lose in a row before it runs the rest of
/// the block on the locked path.  One abort is a writer's conflict, a page
/// of the target touched for the first time, an interrupt; four in a row
/// is a block under writers, or a CPU that aborts everything.
const TXN_ABORTS_IN_A_ROW: u32 = 4;

/// What one call of [`migrate_generic_block`] did.
#[derive(Debug, Default)]
struct BlockCopy {
    /// Live elements whose target cell this copy claimed.
    migrated: usize,
    /// Chunks whose freeze and placement both committed as transactions.
    chunks_transactional: usize,
    /// Chunks with a pass on the locked path.
    chunks_locked: usize,
}

/// How a pass of the block copy touches cells.  The passes
/// ([`freeze_chunk`], [`place_chunk`]) exist once and take this as a value:
/// besides one body to keep right, it means the locked pass that follows an
/// abort executes the code and the stack of the pass that aborted — a page
/// of either that is missing faults *inside* a transaction, where the
/// fault is dropped and the page stays missing for the next one.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    /// The protocol's locked instructions: `fetch_or` to freeze a cell,
    /// `cmpxchg16b` to claim one.
    Locked,
    /// Plain loads and stores, which the hardware transaction around the
    /// pass makes one atomic step.
    Transactional,
}

/// Pass 1 of a chunk: freeze its cells and compact the live pairs into
/// `live`, without branching on a cell's content (at load 0.6 a live/empty
/// branch is a coin flip).  After the mark no writer can touch the cell,
/// so each pair is final.  Every pair is written to the next free slot and
/// the slot is kept only if the pair is live; tombstones are dropped here
/// (their allocations were already retired at erase time).
#[inline(always)]
fn freeze_chunk(access: Access, chunk: &[Cell], live: &mut [(u64, u64); COPY_CHUNK]) -> usize {
    let mut n = 0usize;
    for cell in chunk {
        let (k, v) = match access {
            Access::Locked => cell.mark_for_migration(),
            Access::Transactional => cell.mark_in_transaction(),
        };
        live[n] = (k, v);
        n += usize::from(k > DEL_KEY);
    }
    n
}

/// Pass 3 of a chunk: place `live` into `dst` in source order, probing
/// from `homes`.  Returns the elements whose cell this call claimed, and
/// `false` when the copy has to stop: the lease is gone, or the target is
/// frozen.
#[inline(always)]
fn place_chunk<K: KeyRepr, V: ValueRepr>(
    access: Access,
    dst: &GenericArray<K, V>,
    live: &[(u64, u64)],
    homes: &[usize],
    lease_live: &impl Fn() -> bool,
) -> (usize, bool) {
    if !lease_live() {
        return (0, false);
    }
    let mut placed = 0usize;
    for (&(k, v), &home) in live.iter().zip(homes) {
        let mut pos = home;
        let mut walked = 0usize;
        loop {
            if walked > dst.capacity {
                if access == Access::Transactional {
                    // The locked pass that follows the abort finds the
                    // same and says so; a panic in here would be rolled
                    // back with everything else.
                    // SAFETY: `Transactions::run` passes `Transactional`
                    // only inside a transaction, behind `rtm::available()`.
                    unsafe { rtm::abort() };
                }
                panic!("generic migration found no empty target cell");
            }
            let cell = &dst.cells[pos];
            let existing = cell.load_key();
            if is_marked(existing) {
                // The target is itself being migrated, so this migration
                // was finalized long ago: a rescuer completed this block
                // while its owner (this thread) was stalled.  Nothing is
                // left to do — and a frozen target has no empty cell to
                // find.
                return (placed, false);
            }
            if existing == k {
                // An earlier copy of this block already placed the
                // element; nothing to do (and nothing to count).
                break;
            }
            if existing == EMPTY_KEY {
                let claimed = match access {
                    Access::Locked => cell.cas_pair((EMPTY_KEY, 0), (k, v)).is_ok(),
                    // The read of `EMPTY_KEY` and the store commit
                    // together or not at all.
                    Access::Transactional => {
                        cell.store_unsynchronized(k, v);
                        true
                    }
                };
                if claimed {
                    placed += 1;
                    break;
                }
                continue; // re-read the claimed cell
            }
            pos = (pos + 1) & (dst.capacity - 1);
            walked += 1;
        }
    }
    (placed, true)
}

/// Runs the passes of one block copy, as hardware transactions for as
/// long as the hardware has them and they commit.
struct Transactions {
    /// Aborts in a row from here that switch transactions off; 0: off.
    aborts_left: u32,
}

impl Transactions {
    fn new() -> Self {
        Transactions {
            aborts_left: if rtm::available() {
                TXN_ABORTS_IN_A_ROW
            } else {
                0
            },
        }
    }

    /// Run `pass`: inside a transaction if they are on, and again with the
    /// locked instructions if that aborted — nothing an aborted pass did
    /// has happened.  Returns the pass's result and whether a transaction
    /// committed it.  The `generic.copy.txn` failpoint's `FailAlloc` counts
    /// as an abort; it is asked before `xbegin`, since inside the
    /// transaction its registry lock would be the abort.
    #[inline(always)]
    fn run<R>(&mut self, mut pass: impl FnMut(Access) -> R) -> (R, bool) {
        if self.aborts_left != 0 {
            if !growt_failpoints::fire("generic.copy.txn") {
                // SAFETY: `aborts_left` is non-zero only where
                // `rtm::available()`; `end` is reached only inside the
                // transaction `begin` started.
                unsafe {
                    if rtm::begin() == rtm::STARTED {
                        let result = pass(Access::Transactional);
                        rtm::end();
                        // The commit ordered the pass's `Relaxed` loads
                        // after the writers' `Release` CASes they read
                        // from; this tells the compiler (no instruction on
                        // x86-64).
                        fence(Ordering::Acquire);
                        self.aborts_left = TXN_ABORTS_IN_A_ROW;
                        return (result, true);
                    }
                }
            }
            self.aborts_left -= 1;
        }
        (pass(Access::Locked), false)
    }
}

/// Freeze the cells `[block_start, block_end)` of `src` and re-insert the
/// live elements into `dst`, re-deriving each home cell from the master
/// hash (stored in the key allocation for boxed keys, recomputed from the
/// decoded word for inline ones).  The rehash migration path — correct
/// for any capacity ratio, including cleanup and shrink steps.
///
/// The block is worked off in chunks of [`COPY_CHUNK`] source cells, three
/// passes per chunk:
///
/// 1. [`freeze_chunk`];
/// 2. hash every live key and prefetch its target line — independent
///    work, which the locked operations of pass 3 would serialize and
///    which has no business in a transaction's read set;
/// 3. [`place_chunk`].
///
/// **Two ways through a pass** (DESIGN.md §15).  Where the CPU has RTM,
/// passes 1 and 3 each run as one hardware transaction over plain loads
/// and stores ([`Access::Transactional`]): no locked instruction per cell
/// or per element, and the commit is the pass's one atomic step — a
/// writer's `cas_pair` on a cell of the chunk, or on a target cell the
/// placement read, aborts it.  An aborted pass has not happened and runs
/// again as [`Access::Locked`] — one `fetch_or` per source cell, one
/// `cmpxchg16b` per live element, the protocol's floor without
/// transactions; [`TXN_ABORTS_IN_A_ROW`] aborts hand the rest of the block
/// to that path.  Either way every check below is made.
///
/// **Idempotent**: marking is a one-way freeze, so every re-copy observes
/// the same frozen pairs in the same order, and the placement loop skips a
/// target cell that already holds the same key word — inline words
/// identify the key directly, packed words by allocation identity.  Only
/// the copy that claims the empty target cell counts the element, so
/// `migrated` stays exact.  The locked placement is a CAS from `(EMPTY, 0)`
/// and not a plain store, although this thread is the block's only copier
/// in the fault-free case: a copier that stalled and was rescued wakes up
/// into a *live* table (next paragraph), where a store would overwrite
/// elements.  The transactional placement's store is that CAS: the read
/// of `EMPTY` and the store commit together or not at all.
///
/// **Late owners.**  `lease_live` is asked once per chunk, before its
/// placement; it answers `false` once the block was completed by someone
/// else or the target was published, and the copy stops there.  Without
/// it a copier that slept through its own rescue would re-insert elements
/// that were erased from the published target in the meantime (it finds
/// their tombstone, walks on, and claims the next empty cell).  Inside the
/// transaction the words `lease_live` reads are part of the read set, so
/// a rescue or a publication after the check aborts the chunk's placement
/// instead of racing it; on the locked path the check is up to 64 CASes
/// old (DESIGN.md §12).  A marked target cell stops the copy as well: that
/// target has itself been migrated away, so this migration was finalized
/// long ago.
fn migrate_generic_block<K: KeyRepr, V: ValueRepr>(
    src: &GenericArray<K, V>,
    dst: &GenericArray<K, V>,
    block_start: usize,
    block_end: usize,
    lease_live: impl Fn() -> bool,
) -> BlockCopy {
    let mut copy = BlockCopy::default();
    let mut transactions = Transactions::new();
    let mut live = [(0u64, 0u64); COPY_CHUNK];
    let mut homes = [0usize; COPY_CHUNK];
    for chunk in src.cells[block_start..block_end].chunks(COPY_CHUNK) {
        let (n, froze_in_txn) = transactions.run(|access| freeze_chunk(access, chunk, &mut live));
        let live = &live[..n];
        for (&(k, _), home) in live.iter().zip(&mut homes) {
            let hash = if K::INLINE {
                K::decode(k).hash64()
            } else {
                // SAFETY: the reference was live when frozen; erased keys
                // are only freed after all handles quiesce, and migrating
                // threads quiesce only between operations.
                unsafe { K::stored_hash(stored_ptr(k), Sealed) }
            };
            *home = dst.home_cell(hash);
            prefetch_write(&dst.cells[*home]);
        }
        let ((migrated, go_on), placed_in_txn) =
            transactions.run(|access| place_chunk(access, dst, live, &homes, &lease_live));
        copy.migrated += migrated;
        if froze_in_txn && placed_in_txn {
            copy.chunks_transactional += 1;
        } else {
            copy.chunks_locked += 1;
        }
        if !go_on {
            break;
        }
    }
    copy
}

// ---------------------------------------------------------------------------
// The shared inner + coordinator instantiation
// ---------------------------------------------------------------------------

/// Everything shared between handles and the owner.  The migration
/// machinery is the shared §12 coordinator ([`crate::coord`]),
/// instantiated exactly like the string table's: enslavement with
/// asynchronous marking, no pool, no synchronized quiescence, no
/// degenerate-cluster recovery.
struct GenericInner<K: KeyRepr, V: ValueRepr> {
    current: VersionedArc<GenericArray<K, V>>,
    counts: GlobalCount,
    coordinator: Coordinator<GenericArray<K, V>>,
    grow: GrowConfig,
    threads_hint: usize,
    domain: Arc<QsbrDomain>,
    handle_seed: AtomicU64,
}

impl<K: KeyRepr, V: ValueRepr> GrowProtocol for GenericInner<K, V> {
    type Gen = GenericArray<K, V>;
    type Leader = ();

    const FP_PREPARE_ALLOC: &'static str = "generic.prepare.alloc";
    const FP_BLOCK_CLAIMED: &'static str = "generic.block.claimed";
    const FP_FINALIZE: &'static str = "generic.finalize";

    fn coord(&self) -> &Coordinator<GenericArray<K, V>> {
        &self.coordinator
    }

    fn generations(&self) -> &VersionedArc<GenericArray<K, V>> {
        &self.current
    }

    fn counts(&self) -> &GlobalCount {
        &self.counts
    }

    fn grow_config(&self) -> &GrowConfig {
        &self.grow
    }

    fn capacity_of(array: &GenericArray<K, V>) -> usize {
        array.capacity
    }

    fn alloc_generation(
        &self,
        _source: &GenericArray<K, V>,
        new_capacity: usize,
        version: u64,
    ) -> Result<GenericArray<K, V>, crate::mem::AllocError> {
        GenericArray::try_new(new_capacity, version)
    }

    fn copy_range(
        &self,
        job: &MigrationJob<GenericArray<K, V>>,
        start: usize,
        end: usize,
    ) -> usize {
        let copy = migrate_generic_block(&job.source, &job.target, start, end, || {
            job.lease_live(start) && self.current.version() == job.expected_version
        });
        // Relaxed: statistics of the phase record, publishing nothing.
        job.chunks_transactional
            .fetch_add(copy.chunks_transactional, Ordering::Relaxed);
        job.chunks_locked
            .fetch_add(copy.chunks_locked, Ordering::Relaxed);
        copy.migrated
    }
}

// ---------------------------------------------------------------------------
// The public facade
// ---------------------------------------------------------------------------

/// A concurrent, transparently growing hash map over arbitrary key and
/// value types — the typed facade over the word-table machinery.
///
/// Word-sized keys and values ([`KeyRepr::INLINE`]/[`ValueRepr::INLINE`])
/// are stored inline in the 16-byte cells, so `GrowMap<u64, u64>`
/// performs the same cell operations as [`crate::grow::GrowingTable`];
/// larger types go behind packed references with QSBR-deferred
/// reclamation, like [`crate::complex::GrowingStringTable`]'s keys.  The
/// growing strategy is enslavement with asynchronous marking (the
/// paper's default, uaGrow), run by the shared §12 coordinator.
///
/// ```
/// use growt_core::generic::GrowMap;
///
/// let map: GrowMap<String, u64> = GrowMap::new(16);
/// let mut h = map.handle();
/// h.insert(&"answer".to_string(), &42);
/// assert_eq!(h.find(&"answer".to_string()), Some(42));
/// h.insert_or_update(&"answer".to_string(), &1, |cur| cur + 1);
/// assert_eq!(h.find(&"answer".to_string()), Some(43));
/// ```
pub struct GrowMap<K: KeyRepr, V: ValueRepr> {
    inner: Arc<GenericInner<K, V>>,
}

impl<K: KeyRepr, V: ValueRepr> GrowMap<K, V> {
    /// Create a map with an initial capacity hint, the given growth
    /// policy and an expected thread count (sizes the randomized counter
    /// flush threshold).
    pub fn with_config(initial_capacity: usize, grow: GrowConfig, threads_hint: usize) -> Self {
        let capacity = capacity_for(initial_capacity.max(2));
        GrowMap {
            inner: Arc::new(GenericInner {
                current: VersionedArc::new(GenericArray::new(capacity, 1)),
                counts: GlobalCount::new(),
                coordinator: Coordinator::new(),
                grow,
                threads_hint: threads_hint.max(1),
                domain: Arc::new(QsbrDomain::new()),
                handle_seed: AtomicU64::new(0x9E3779B97F4A7C15),
            }),
        }
    }

    /// Create a map with the default growth policy.
    pub fn new(initial_capacity: usize) -> Self {
        Self::with_config(
            initial_capacity,
            GrowConfig::default(),
            crate::cpu::available_parallelism(),
        )
    }

    /// Obtain a per-thread handle (§5.1).
    pub fn handle(&self) -> GrowMapHandle<'_, K, V> {
        GrowMapHandle::new(&self.inner)
    }

    /// Number of completed migrations (growth, cleanup or shrink steps).
    pub fn migrations_completed(&self) -> u64 {
        self.inner
            .coordinator
            .migrations_completed
            .load(Ordering::Acquire)
    }

    /// What the most recent migrations (at most 16) did and how long their
    /// phases took, oldest first: capacities, block leases, time in
    /// prepare / copy / finalize, the longest wait, who copied.
    pub fn migration_log(&self) -> Vec<MigrationRecord> {
        self.inner.coordinator.migration_log()
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

    /// Out-of-line allocations retired but not yet reclaimed by the QSBR
    /// domain.
    pub fn pending_reclamation(&self) -> usize {
        self.inner.domain.pending()
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for GrowMap<K, V> {
    fn drop(&mut self) {
        // All handles are gone (they borrow `self`), so the current array
        // holds the only reachable copy of every live out-of-line
        // allocation; retired generations alias a subset of them and are
        // never freed from.  Displaced allocations live solely in the
        // QSBR limbo list, whose deferred drops run when the domain drops
        // with the inner.
        if K::INLINE && V::INLINE {
            return;
        }
        self.inner.current.with_current(|array| {
            for cell in array.cells.iter() {
                let (k, v) = cell.read();
                let plain = unmark(k);
                if plain > DEL_KEY {
                    if !K::INLINE {
                        // SAFETY: exclusive access; live keys are owned
                        // by the subsystem and freed exactly here.
                        unsafe { K::free_stored(stored_ptr(plain), Sealed) };
                    }
                    if !V::INLINE {
                        // SAFETY: as above — tombstoned cells' value
                        // words were already retired at erase time and
                        // are skipped with their key words.
                        unsafe { drop(Box::from_raw(v as *mut V)) };
                    }
                }
            }
        });
    }
}

// SAFETY: the raw pointers inside cells reference heap allocations whose
// lifetime is managed by the subsystem (QSBR for displaced ones, map drop
// for live ones); all shared mutation goes through atomics, and the
// KeyRepr/ValueRepr bounds make K and V themselves Send + Sync.
unsafe impl<K: KeyRepr, V: ValueRepr> Send for GrowMap<K, V> {}
unsafe impl<K: KeyRepr, V: ValueRepr> Sync for GrowMap<K, V> {}

/// Operations between automatic quiescent-state announcements (same
/// cadence rationale as the string table's handle).
const QUIESCE_INTERVAL: u32 = 64;

/// Per-thread handle of a [`GrowMap`] (§5.1).
pub struct GrowMapHandle<'a, K: KeyRepr, V: ValueRepr> {
    inner: &'a GenericInner<K, V>,
    cached: CachedArc<GenericArray<K, V>>,
    local: LocalCount,
    qsbr: QsbrParticipant,
    since_quiesce: u32,
}

impl<'a, K: KeyRepr, V: ValueRepr> GrowMapHandle<'a, K, V> {
    fn new(inner: &'a GenericInner<K, V>) -> Self {
        let seed = inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        GrowMapHandle {
            cached: CachedArc::new(&inner.current),
            local: LocalCount::new(inner.threads_hint, seed),
            qsbr: inner.domain.register(),
            since_quiesce: 0,
            inner,
        }
    }

    /// The zero-shared-traffic operation prologue (§5.3.2): borrow the
    /// current generation from the handle-local cache — one version load,
    /// no `Arc::clone`, no shared refcount RMW.
    #[inline]
    fn array_ref<'t>(
        cached: &'t mut CachedArc<GenericArray<K, V>>,
        local: &mut LocalCount,
        inner: &GenericInner<K, V>,
    ) -> &'t GenericArray<K, V> {
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
    fn reset_local_counts(local: &mut LocalCount, inner: &GenericInner<K, V>) {
        *local = LocalCount::new(
            inner.threads_hint,
            inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed),
        );
    }

    /// Operation epilogue: announce a quiescent state every
    /// [`QUIESCE_INTERVAL`] operations so the domain can free retired
    /// allocations.
    #[inline]
    fn op_done(&mut self) {
        self.since_quiesce += 1;
        if self.since_quiesce >= QUIESCE_INTERVAL {
            self.since_quiesce = 0;
            self.qsbr.quiescent();
        }
    }

    /// Handle a successful insertion: update the approximate count and
    /// trigger a migration when the fill threshold is reached (§5.2).
    #[inline]
    fn after_insert(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold {
                self.inner.grow(version, &());
            }
        }
    }

    /// Best-effort variant for the `try_*` operations: a growth trigger
    /// that cannot allocate is dropped (a later insert re-triggers it).
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

    /// Retire the out-of-line allocations displaced by an erase.
    #[inline]
    fn retire_erased(&mut self, key_word: u64, value_word: u64) {
        if !K::INLINE {
            self.qsbr
                .retire(RetiredKey::<K>(stored_ptr(key_word), PhantomData));
        }
        if !V::INLINE {
            self.qsbr.retire(RetiredValue::<V>(value_word as *mut V));
        }
    }

    /// Retire the value box displaced by an update, if any.
    #[inline]
    fn retire_updated(&mut self, displaced: Option<u64>) {
        if let Some(word) = displaced {
            self.qsbr.retire(RetiredValue::<V>(word as *mut V));
        }
    }

    /// Insert `⟨key, value⟩`; returns `true` iff the key was not present.
    pub fn insert(&mut self, key: &K, value: &V) -> bool {
        let probe = Probe::new(key);
        let mut pending = PendingCell::new();
        let inserted = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, None::<&fn(&V) -> V>, &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break true;
                }
                MapOutcome::Present => break false,
                MapOutcome::Full => self.inner.grow(version, &()),
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: plain upsert never updates and never reports
                // an absent key as anything but an insertion (or `Full`).
                MapOutcome::Updated(_) | MapOutcome::NotFound => unreachable!(),
            }
        };
        self.op_done();
        inserted
    }

    /// Fallible [`GrowMapHandle::insert`]: when making room would require
    /// growing and the next generation cannot be allocated within a
    /// bounded number of retries, returns `Err(TryGrowError)` instead of
    /// blocking until memory appears.  The element is **not** inserted on
    /// error; the map stays valid and keeps serving its current
    /// generation.
    pub fn try_insert(&mut self, key: &K, value: &V) -> Result<bool, TryGrowError> {
        let probe = Probe::new(key);
        let mut pending = PendingCell::new();
        let result = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, None::<&fn(&V) -> V>, &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert_best_effort(capacity, version);
                    break Ok(true);
                }
                MapOutcome::Present => break Ok(false),
                MapOutcome::Full => {
                    if self.inner.try_grow(version, &()).is_err() {
                        break Err(TryGrowError);
                    }
                }
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                MapOutcome::Updated(_) | MapOutcome::NotFound => unreachable!(),
            }
        };
        self.op_done();
        result
    }

    /// Look up the value stored for `key`.  May run on a slightly stale
    /// (frozen, immutable) generation, which is linearizable exactly like
    /// the word table's stale reads.
    pub fn find(&mut self, key: &K) -> Option<V> {
        let probe = Probe::new(key);
        let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
        let found = array.find(&probe);
        self.op_done();
        found
    }

    /// Atomically replace the value of an existing `key` by
    /// `up(current)`; returns `true` iff an element was present.  No
    /// concurrent interleaving with other updaters, erasers or migrations
    /// can lose an update.
    pub fn update<F: Fn(&V) -> V>(&mut self, key: &K, up: F) -> bool {
        let probe = Probe::new(key);
        let updated = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let version = array.version;
            match array.update(&probe, &up) {
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break true;
                }
                MapOutcome::NotFound => break false,
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: `update` never inserts and reports an
                // exhausted probe as `NotFound`, not `Full`.
                MapOutcome::Inserted | MapOutcome::Present | MapOutcome::Full => unreachable!(),
            }
        };
        self.op_done();
        updated
    }

    /// Insert `⟨key, value⟩` if absent, otherwise atomically replace the
    /// stored value by `up(current)` — the generalized aggregation
    /// primitive (`insert_or_update(&k, &1, |c| c + 1)` is the word-count
    /// loop of the paper's introduction).
    pub fn insert_or_update<F: Fn(&V) -> V>(
        &mut self,
        key: &K,
        value: &V,
        up: F,
    ) -> InsertOrUpdate {
        let probe = Probe::new(key);
        let mut pending = PendingCell::new();
        let outcome = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, Some(&up), &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break InsertOrUpdate::Inserted;
                }
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break InsertOrUpdate::Updated;
                }
                MapOutcome::Full => self.inner.grow(version, &()),
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: upsert reports an absent key by inserting it
                // (or `Full`), never as `NotFound` or `Present`.
                MapOutcome::NotFound | MapOutcome::Present => unreachable!(),
            }
        };
        self.op_done();
        outcome
    }

    /// Fallible [`GrowMapHandle::insert_or_update`]; see
    /// [`GrowMapHandle::try_insert`] for the error contract.  Neither the
    /// insertion nor the update is applied on error.
    pub fn try_insert_or_update<F: Fn(&V) -> V>(
        &mut self,
        key: &K,
        value: &V,
        up: F,
    ) -> Result<InsertOrUpdate, TryGrowError> {
        let probe = Probe::new(key);
        let mut pending = PendingCell::new();
        let result = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let (capacity, version) = (array.capacity, array.version);
            match array.upsert(&probe, value, Some(&up), &mut pending) {
                MapOutcome::Inserted => {
                    self.after_insert_best_effort(capacity, version);
                    break Ok(InsertOrUpdate::Inserted);
                }
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break Ok(InsertOrUpdate::Updated);
                }
                MapOutcome::Full => {
                    if self.inner.try_grow(version, &()).is_err() {
                        break Err(TryGrowError);
                    }
                }
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                MapOutcome::NotFound | MapOutcome::Present => unreachable!(),
            }
        };
        self.op_done();
        result
    }

    /// Delete `key`: tombstone the cell and retire its out-of-line
    /// allocations into the QSBR domain (freed once every handle has
    /// passed a quiescent state, §5.4 + §5.7).
    pub fn erase(&mut self, key: &K) -> bool {
        let probe = Probe::new(key);
        let erased = loop {
            let array = Self::array_ref(&mut self.cached, &mut self.local, self.inner);
            let version = array.version;
            match array.erase(&probe) {
                MapErase::Erased {
                    key_word,
                    value_word,
                } => {
                    self.retire_erased(key_word, value_word);
                    self.after_delete();
                    break true;
                }
                MapErase::NotFound => break false,
                MapErase::Migrating => self.inner.help_or_wait(version),
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

impl<K: KeyRepr, V: ValueRepr> Drop for GrowMapHandle<'_, K, V> {
    fn drop(&mut self) {
        self.local.flush(&self.inner.counts);
        // The participant's own Drop unregisters it from the domain and
        // runs a final reclamation attempt.
    }
}

impl<K: KeyRepr, V: ValueRepr> GenericMap<K, V> for GrowMap<K, V> {
    type Handle<'a> = GrowMapHandle<'a, K, V>;

    fn with_capacity(capacity: usize) -> Self {
        GrowMap::new(capacity)
    }

    fn handle(&self) -> GrowMapHandle<'_, K, V> {
        GrowMap::handle(self)
    }

    fn map_name() -> &'static str {
        "growMap"
    }
}

impl<K: KeyRepr, V: ValueRepr> GenericMapHandle<K, V> for GrowMapHandle<'_, K, V> {
    fn insert(&mut self, key: &K, value: &V) -> bool {
        GrowMapHandle::insert(self, key, value)
    }

    fn find(&mut self, key: &K) -> Option<V> {
        GrowMapHandle::find(self, key)
    }

    fn update(&mut self, key: &K, up: &dyn Fn(&V) -> V) -> bool {
        GrowMapHandle::update(self, key, up)
    }

    fn insert_or_update(&mut self, key: &K, value: &V, up: &dyn Fn(&V) -> V) -> InsertOrUpdate {
        GrowMapHandle::insert_or_update(self, key, value, up)
    }

    fn erase(&mut self, key: &K) -> bool {
        GrowMapHandle::erase(self, key)
    }

    fn quiesce(&mut self) {
        GrowMapHandle::quiesce(self)
    }

    fn size_estimate(&mut self) -> usize {
        GrowMapHandle::size_estimate(self)
    }

    fn try_insert(&mut self, key: &K, value: &V) -> Result<bool, TryGrowError> {
        GrowMapHandle::try_insert(self, key, value)
    }

    fn try_insert_or_update(
        &mut self,
        key: &K,
        value: &V,
        up: &dyn Fn(&V) -> V,
    ) -> Result<InsertOrUpdate, TryGrowError> {
        GrowMapHandle::try_insert_or_update(self, key, value, up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny<K: KeyRepr, V: ValueRepr>() -> GrowMap<K, V> {
        GrowMap::with_config(16, GrowConfig::default(), 4)
    }

    #[test]
    fn inline_map_round_trips_across_growth() {
        let map: GrowMap<u64, u64> = tiny();
        let mut h = map.handle();
        let n = 20_000u64;
        for i in 0..n {
            assert!(h.insert(&(i + 2), &(i * 3)));
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        for i in 0..n {
            assert_eq!(h.find(&(i + 2)), Some(i * 3));
        }
        assert_eq!(map.size_exact_quiescent(), n as usize);
    }

    #[test]
    fn u32_keys_use_the_full_range() {
        let map: GrowMap<u32, u32> = tiny();
        let mut h = map.handle();
        for k in [0u32, 1, 2, u32::MAX - 1, u32::MAX] {
            assert!(h.insert(&k, &k.wrapping_add(7)));
        }
        for k in [0u32, 1, 2, u32::MAX - 1, u32::MAX] {
            assert_eq!(h.find(&k), Some(k.wrapping_add(7)));
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_inline_u64_keys_are_rejected() {
        let map: GrowMap<u64, u64> = tiny();
        map.handle().insert(&1, &1);
    }

    #[test]
    fn boxed_keys_and_values_round_trip_across_growth() {
        let map: GrowMap<String, [u64; 4]> = tiny();
        let mut h = map.handle();
        let n = 5_000u64;
        for i in 0..n {
            assert!(h.insert(&format!("k-{i}"), &[i, i + 1, i + 2, i + 3]));
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        for i in 0..n {
            assert_eq!(h.find(&format!("k-{i}")), Some([i, i + 1, i + 2, i + 3]));
        }
        assert_eq!(map.size_exact_quiescent(), n as usize);
    }

    #[test]
    fn insert_or_update_aggregates_exactly_across_threads() {
        // The aggregation workload over a boxed value type: concurrent
        // read–derive–CAS updates must never lose an increment, even
        // while migrations freeze and re-place the cells.
        let map: GrowMap<u64, [u64; 4]> = tiny();
        let threads = 4u64;
        let per_thread = 5_000u64;
        let distinct = 100u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.handle();
                    for i in 0..per_thread {
                        let key = (i.wrapping_mul(t + 1)) % distinct + 2;
                        let lane = (i % 4) as usize;
                        let mut unit = [0u64; 4];
                        unit[lane] = 1;
                        h.insert_or_update(&key, &unit, |cur| {
                            let mut next = *cur;
                            next[lane] += 1;
                            next
                        });
                    }
                });
            }
        });
        let mut h = map.handle();
        let mut total = 0u64;
        for k in 0..distinct {
            let v = h.find(&(k + 2)).unwrap_or([0; 4]);
            total += v.iter().sum::<u64>();
        }
        assert_eq!(total, threads * per_thread, "lost increments");
        assert_eq!(map.size_exact_quiescent(), distinct as usize);
    }

    #[test]
    fn erase_and_reinsert_round_trip_with_boxed_values() {
        let map: GrowMap<String, [u64; 4]> = tiny();
        let mut h = map.handle();
        assert!(h.insert(&"transient".to_string(), &[5, 0, 0, 0]));
        assert!(h.update(&"transient".to_string(), |v| {
            let mut n = *v;
            n[0] += 3;
            n
        }));
        assert_eq!(h.find(&"transient".to_string()), Some([8, 0, 0, 0]));
        assert!(h.erase(&"transient".to_string()));
        assert!(!h.erase(&"transient".to_string()));
        assert_eq!(h.find(&"transient".to_string()), None);
        assert!(!h.update(&"transient".to_string(), |v| *v));
        assert!(h
            .insert_or_update(&"transient".to_string(), &[9, 9, 9, 9], |v| *v)
            .inserted());
        // Quiescing the only handle reclaims every retired allocation.
        h.quiesce();
        assert_eq!(map.pending_reclamation(), 0);
    }

    #[test]
    fn duplicate_inserts_have_one_winner_across_growth() {
        let map: GrowMap<String, u64> = tiny();
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let map = &map;
                let successes = &successes;
                s.spawn(move || {
                    let mut h = map.handle();
                    for i in 0..3_000u64 {
                        if h.insert(&format!("dup-{i}"), &i) {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::Relaxed), 3_000);
        assert_eq!(map.size_exact_quiescent(), 3_000);
        assert!(map.migrations_completed() > 0);
    }

    // -- the block copier ---------------------------------------------------

    /// A source generation for the copier tests: `keys(i)` for `i` in
    /// `0..inserted` inserted with value `i`, then every `erase_every`-th
    /// of them erased (0: none).  Returns the array and its live pairs.
    fn copier_source<K: KeyRepr>(
        capacity: usize,
        inserted: u64,
        erase_every: u64,
        keys: fn(u64) -> K,
    ) -> (GenericArray<K, u64>, Vec<(K, u64)>) {
        let array = GenericArray::new(capacity, 1);
        let mut live = Vec::new();
        for i in 0..inserted {
            let key = keys(i);
            let mut pending = PendingCell::new();
            let outcome = array.upsert(
                &Probe::new(&key),
                &i,
                None::<&fn(&u64) -> u64>,
                &mut pending,
            );
            assert!(matches!(outcome, MapOutcome::Inserted));
            if erase_every != 0 && i % erase_every == 0 {
                let MapErase::Erased { key_word, .. } = array.erase(&Probe::new(&key)) else {
                    panic!("a key just inserted must be erasable");
                };
                free_key_word::<K>(key_word);
            } else {
                live.push((key, i));
            }
        }
        (array, live)
    }

    fn free_key_word<K: KeyRepr>(word: u64) {
        if !K::INLINE {
            // SAFETY: single-threaded test code; the word was published by
            // `copier_source` and is freed exactly once.
            unsafe { K::free_stored(stored_ptr(word), Sealed) };
        }
    }

    /// Serializes the tests that configure `generic.copy.txn` or count
    /// transactional chunks: the failpoint registry is process-global.
    static COPY_PATH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `body` on each path through the copier this build can choose:
    /// as it comes — transactions where `rtm::available()` — and, with the
    /// failpoints compiled in, with `generic.copy.txn` failing every
    /// transaction before it begins.  `body` is told whether the locked
    /// path is certain.
    fn on_each_copy_path(body: impl Fn(bool)) {
        let _serial = COPY_PATH.lock().unwrap_or_else(|e| e.into_inner());
        body(!rtm::available());
        if cfg!(feature = "failpoints") {
            growt_failpoints::configure(
                "generic.copy.txn",
                growt_failpoints::Action::FailAlloc,
                growt_failpoints::Trigger::Always,
            );
            body(true);
            growt_failpoints::remove("generic.copy.txn");
        }
    }

    /// Copy every block of a fresh source `copies` times from each of
    /// `threads` threads at once; check the `migrated` sum, the chunk
    /// counts and the target's contents against `live`.
    fn copy_and_check<K: KeyRepr>(
        source: (GenericArray<K, u64>, Vec<(K, u64)>),
        target_capacity: usize,
        block: usize,
        copies: usize,
        threads: usize,
        locked: bool,
    ) {
        let (src, live) = source;
        let dst = GenericArray::<K, u64>::new(target_capacity, 2);
        let migrated = AtomicU64::new(0);
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for begin in (0..src.capacity).step_by(block) {
                        let end = (begin + block).min(src.capacity);
                        for _ in 0..copies {
                            let copy = migrate_generic_block(&src, &dst, begin, end, || true);
                            migrated.fetch_add(copy.migrated as u64, Ordering::Relaxed);
                            assert_eq!(
                                copy.chunks_transactional + copy.chunks_locked,
                                (end - begin).div_ceil(COPY_CHUNK)
                            );
                            if locked {
                                assert_eq!(copy.chunks_transactional, 0);
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(migrated.load(Ordering::Relaxed), live.len() as u64);
        assert_eq!(dst.scan_live(), live.len(), "duplicates or losses");
        assert!(src.cells.iter().all(|c| is_marked(c.load_key())));
        assert!(dst.cells.iter().all(|c| c.load_key() != DEL_KEY));
        for (key, value) in &live {
            assert_eq!(dst.find(&Probe::new(key)), Some(*value));
        }
        for cell in dst.cells.iter() {
            let word = cell.load_key();
            if word > DEL_KEY {
                free_key_word::<K>(word);
            }
        }
    }

    /// Once, three times over, and from two threads at once: the same
    /// target contents and an exact `migrated` sum, whatever the block
    /// size, whatever the block holds and whichever way the passes ran.
    fn copier_is_idempotent_for<K: KeyRepr>(keys: fn(u64) -> K) {
        // (source cells, inserted, erase every, target cells, block size)
        let shapes = [
            (1024, 600, 0, 2048, 100), // blocks that are no multiple of the chunk
            (1024, 600, 0, 2048, 64),
            (1024, 600, 0, 2048, 1),
            (64, 40, 0, 128, 256),     // a table smaller than one block
            (64, 64, 0, 128, 37),      // every cell full
            (256, 0, 0, 256, 100),     // every cell empty
            (1024, 600, 2, 1024, 100), // cleanup: half the cells are tombstones
            (1024, 600, 1, 64, 300),   // shrink: nothing but tombstones
        ];
        on_each_copy_path(|locked| {
            for (cells, inserted, erase_every, target, block) in shapes {
                for (copies, threads) in [(1, 1), (3, 1), (1, 2), (2, 2)] {
                    copy_and_check(
                        copier_source(cells, inserted, erase_every, keys),
                        target,
                        block,
                        copies,
                        threads,
                        locked,
                    );
                }
            }
        });
    }

    #[test]
    fn block_copies_are_idempotent_with_inline_keys() {
        copier_is_idempotent_for::<u64>(|i| hash_key(i) >> 2 | 2);
    }

    #[test]
    fn block_copies_are_idempotent_with_string_keys() {
        copier_is_idempotent_for::<String>(|i| format!("key-{i}"));
    }

    /// A copier whose lease is gone places nothing more, and a second
    /// copy completes the block with the count still exact.
    #[test]
    fn a_copier_without_its_lease_stops_and_a_re_copy_completes() {
        on_each_copy_path(|locked| {
            let (src, live) = copier_source::<u64>(1024, 600, 0, |i| hash_key(i) >> 2 | 2);
            let dst = GenericArray::<u64, u64>::new(2048, 2);
            // Counted in memory: the question a placement asked inside an
            // aborted transaction is rolled back with it, and the locked
            // pass asks again.
            let asked = std::cell::Cell::new(0);
            let first = migrate_generic_block(&src, &dst, 0, 1024, || {
                asked.set(asked.get() + 1);
                asked.get() <= 3 // lost after three chunks
            });
            assert_eq!(asked.get(), 4);
            assert_eq!(first.chunks_transactional + first.chunks_locked, 4);
            assert_eq!(dst.scan_live(), first.migrated);
            assert!(first.migrated < live.len());
            let second = migrate_generic_block(&src, &dst, 0, 1024, || true);
            assert_eq!(first.migrated + second.migrated, live.len());
            assert_eq!(dst.scan_live(), live.len());
            if locked {
                assert_eq!(first.chunks_transactional + second.chunks_transactional, 0);
            } else {
                // Over memory that has been touched a chunk gets through
                // both transactions unless something outside aborts them
                // (tests running beside this one do, four times in a row
                // once in 25 runs); a further re-copy changes nothing, so
                // it may be asked until one does.
                let committed = (0..64).any(|_| {
                    let again = migrate_generic_block(&src, &dst, 0, 1024, || true);
                    assert_eq!(again.migrated, 0);
                    again.chunks_transactional > 0
                });
                assert!(committed, "64 re-copies of 16 chunks, none transactional");
            }
        });
    }

    /// The freeze against live writers, through the whole copier: two
    /// threads bump values of a one-chunk source by `cas_pair` (every
    /// marking-protocol writer's shape) while a third copies it.  Whichever
    /// way the freeze ran — the writers abort most transactions, some
    /// commit between two CASes — each value it placed is its cell's final
    /// value, and no CAS succeeds once the copy has returned.
    #[test]
    fn freeze_races_cas_pair_writers_and_copies_the_final_values() {
        let _serial = COPY_PATH.lock().unwrap_or_else(|e| e.into_inner());
        let key_of = |i: u64| hash_key(i) >> 2 | 2;
        for round in 0..200u64 {
            let (src, live) = copier_source::<u64>(COPY_CHUNK, 40, 0, key_of);
            let dst = GenericArray::<u64, u64>::new(2 * COPY_CHUNK, 2);
            let copied = std::sync::atomic::AtomicBool::new(false);
            let late_successes = AtomicU64::new(0);
            let bumps = AtomicU64::new(0);
            // Each writer owns every other live cell, so the only thing
            // that defeats its CAS is the mark.
            let occupied: Vec<&Cell> = src
                .cells
                .iter()
                .filter(|c| c.load_key() > DEL_KEY)
                .collect();
            std::thread::scope(|s| {
                for writer in 0..2usize {
                    let (copied, late_successes, bumps) = (&copied, &late_successes, &bumps);
                    let mine: Vec<&Cell> =
                        occupied.iter().copied().skip(writer).step_by(2).collect();
                    s.spawn(move || {
                        'bumping: loop {
                            for cell in &mine {
                                let (k, v) = cell.read();
                                if is_marked(k) {
                                    break 'bumping; // as every writer does
                                }
                                let after_copy = copied.load(Ordering::SeqCst);
                                match cell.cas_pair((k, v), (k, v + 1)) {
                                    Ok(()) => {
                                        bumps.fetch_add(1, Ordering::Relaxed);
                                        if after_copy {
                                            late_successes.fetch_add(1, Ordering::SeqCst);
                                        }
                                    }
                                    Err((observed, _)) => {
                                        assert!(is_marked(observed), "only the mark defeats it");
                                        break 'bumping;
                                    }
                                }
                            }
                        }
                    });
                }
                s.spawn(|| {
                    // Let the writers get going; vary how far.
                    while bumps.load(Ordering::Relaxed) < round * 4 {
                        std::thread::yield_now();
                    }
                    let copy = migrate_generic_block(&src, &dst, 0, COPY_CHUNK, || true);
                    copied.store(true, Ordering::SeqCst);
                    assert_eq!(copy.migrated, live.len());
                });
            });
            assert_eq!(late_successes.load(Ordering::SeqCst), 0);
            for cell in src.cells.iter() {
                let (k, v) = cell.read();
                assert!(is_marked(k));
                if unmark(k) > DEL_KEY {
                    let key = u64::decode(unmark(k));
                    assert_eq!(
                        dst.find(&Probe::new(&key)),
                        Some(v),
                        "freeze missed an update"
                    );
                    assert!(cell.cas_pair((unmark(k), v), (unmark(k), v + 1)).is_err());
                }
            }
        }
    }

    /// Transactions made to abort by the failpoint — all of them, every
    /// second, every third, a coin flip — leave the source frozen and the
    /// target filled cell for cell as the locked path does, and count the
    /// same; and after four aborts in a row a block stops asking.
    #[cfg(feature = "failpoints")]
    #[test]
    fn forced_aborts_copy_what_the_locked_path_copies() {
        use growt_failpoints::{configure, remove, Action, Trigger};

        let _serial = COPY_PATH.lock().unwrap_or_else(|e| e.into_inner());

        // The hand-over: four refusals in a row and the block stops
        // asking; every refused pass ran once, locked.
        configure("generic.copy.txn", Action::FailAlloc, Trigger::Always);
        let mut transactions = Transactions::new();
        let start = if rtm::available() {
            TXN_ABORTS_IN_A_ROW
        } else {
            0
        };
        assert_eq!(transactions.aborts_left, start);
        for pass in 1..=6 {
            let mut ran = 0;
            let (access, committed) = transactions.run(|access| {
                ran += 1;
                access
            });
            assert!(access == Access::Locked && !committed && ran == 1);
            assert_eq!(transactions.aborts_left, start.saturating_sub(pass));
        }
        remove("generic.copy.txn");

        let words = |array: &GenericArray<u64, u64>| -> Vec<(u64, u64)> {
            array.cells.iter().map(Cell::read).collect()
        };
        let run = |trigger: Option<Trigger>| {
            let (src, _) = copier_source::<u64>(1024, 600, 3, |i| hash_key(i) >> 2 | 2);
            let dst = GenericArray::<u64, u64>::new(2048, 2);
            if let Some(trigger) = trigger {
                configure("generic.copy.txn", Action::FailAlloc, trigger);
            }
            let copy = migrate_generic_block(&src, &dst, 0, 1024, || true);
            remove("generic.copy.txn");
            assert_eq!(copy.chunks_transactional + copy.chunks_locked, 16);
            (copy, words(&src), words(&dst))
        };

        let (locked, locked_src, locked_dst) = run(Some(Trigger::Always));
        assert_eq!(locked.chunks_transactional, 0);
        let seeded = Trigger::Prob {
            num: 1,
            den: 2,
            seed: 22,
        };
        for trigger in [
            None,
            Some(Trigger::Each(2)),
            Some(Trigger::Each(3)),
            Some(seeded),
        ] {
            let (mixed, src, dst) = run(trigger);
            assert_eq!(mixed.migrated, locked.migrated, "{trigger:?}");
            assert_eq!(src, locked_src, "{trigger:?}");
            assert_eq!(dst, locked_dst, "{trigger:?}");
            if !rtm::available() {
                assert_eq!(mixed.chunks_transactional, 0);
            }
        }
    }

    #[test]
    fn pair_keys_work_as_a_dedup_set() {
        let map: GrowMap<(u32, u32), ()> = tiny();
        let mut h = map.handle();
        assert!(h.insert(&(1, 2), &()));
        assert!(!h.insert(&(1, 2), &()));
        assert!(h.insert(&(2, 1), &()));
        assert_eq!(h.find(&(1, 2)), Some(()));
        assert_eq!(h.find(&(3, 4)), None);
        assert!(h.erase(&(1, 2)));
        assert_eq!(h.find(&(1, 2)), None);
    }
}
