//! The generic growing map: `GrowMap<K, V>` (DESIGN.md §14).
//!
//! The paper presents the growing table as a *general* concurrent hash
//! map, but the word tables of this crate speak one hard-coded language,
//! `u64 → u64` ([`crate::grow::GrowingTable`]).  This module closes the
//! gap — `String → u64` is one instance of it — with two representation
//! axes over the same 16-byte [`Cell`]s and the same shared §12
//! coordinator ([`crate::coord`]):
//!
//! * [`KeyRepr`] — how a key maps onto the cell's **key word**.  Word
//!   sized keys encode *inline* (the word-table fast path: the probe
//!   compares one integer, exactly the cell ops of `GrowingTable`);
//!   everything else is stored out of line behind the §5.7 packed
//!   reference `signature << 48 | pointer` of [`crate::complex`].  What
//!   the pointer leads to is the key type's business
//!   (the storage hooks of [`KeyRepr`]): by default a `KeyBox<K>` holding
//!   the master hash and the typed key; for `String` the
//!   `⟨header, bytes⟩` buffer of the same module — one allocation whose
//!   8-byte header packs the hash's top 48 bits over the length, and
//!   header and bytes behind one dependent load.  A `String` of at
//!   most seven bytes needs none of it: its bytes fit the key word, as a
//!   *short word*.
//! * [`ValueRepr`] — how a value maps onto the cell's **value word**.
//!   Word-sized values encode inline (an update is one CAS of the value
//!   word, which a marking freeze defeats by flipping that word); larger
//!   values live in a plain heap box whose raw pointer is the value word.
//!   Value boxes need no signature: the key word decides equality, the
//!   value word is only ever dereferenced after a key match.
//!
//! Both out-of-line representations lean on two guarantees:
//!
//! * **publication** is a double-word CAS of `⟨key word, value word⟩`
//!   into an empty cell, so there is no in-flight window at all;
//! * **reclamation** is QSBR-deferred: erased key boxes and replaced or
//!   erased value boxes are retired into the table's [`QsbrDomain`] and
//!   freed only after every handle has passed a quiescent state, so no
//!   concurrent probe can dereference freed memory.  Within one
//!   operation a handle never quiesces, which also makes the
//!   read–derive–CAS update loop ABA-safe: the old value pointer cannot
//!   be freed and reallocated while the updater still holds it.  A map
//!   whose keys and values are both inline retires nothing, and its
//!   handles take no part in the domain at all; erasing a short `String`
//!   key retires nothing either.
//!
//! Growth is not reimplemented here: [`GenericInner`]'s [`GrowProtocol`]
//! impl instantiates the shared coordinator with a block copy that
//! re-derives each element's home cell from the master hash (stored in
//! the key allocation, or recomputed from the inline or short word) — correct for
//! growth, cleanup and shrink steps alike.  A migration keeps writers off
//! its source by excluding them (a busy flag per handle, the growing flag
//! in the version word, and `membarrier` on the leader's side) and then
//! copies with plain loads; where that does not work in time it marks.
//! Either way the copy places with plain stores (DESIGN.md §12, §15).

use std::convert::Infallible;
use std::marker::PhantomData;
use std::sync::atomic::{compiler_fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use growt_iface::sync::lock;
use growt_iface::{GenericMap, GenericMapHandle, InsertOrUpdate, TryGrowError};
use growt_reclaim::{CachedArc, QsbrDomain, QsbrParticipant, VersionedArc, SOLE};

use crate::cell::{is_marked, unmark, Cell, DEL_KEY, EMPTY_KEY, MAX_MARKABLE_KEY};
use crate::complex::{self, decode_keyref, pack_keyref, signature_of, POINTER_BITS, SIGNED_BITS};
use crate::config::{capacity_for, capacity_shift, hash_key, GrowConfig, PROBE_LIMIT};
use crate::coord::{Coordinator, GrowProtocol, MigrationJob, CLEAR_SLICE_BYTES};
pub use crate::coord::{MigrationMode, MigrationRecord};
use crate::count::{GlobalCount, LocalCount};
use crate::membarrier;
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
///   [`KeyRepr::hash64`] can be customized; the packing is shared.  A
///   `String` of at most seven bytes is the exception: it is its own
///   short word, and nothing is allocated for it ([`crate::complex`],
///   "Key reference layout").
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
    // a boxed key, plus the one that spares a short key all four.  Not
    // part of the public API — the `Sealed` argument cannot be named
    // outside this crate, so no implementation out there can override one
    // of them and the unsafe code may rely on the five agreeing with each
    // other (the defaults, or the `String` overrides).

    /// The key's short word ([`crate::complex::short_word`]) when the key
    /// lives in the key word itself; `None` (every boxed type but `String`,
    /// and a `String` of more than seven bytes) stores it out of line.  A
    /// short word's home cell comes from [`hash_key`] of the word, not from
    /// [`KeyRepr::hash64`].
    #[doc(hidden)]
    #[inline]
    fn short_word(&self, _: Sealed) -> Option<u64> {
        None
    }

    /// Clone the key into a fresh allocation that also stores `hash`;
    /// the pointer must fit the 48 pointer bits of a packed reference.
    #[doc(hidden)]
    fn store(&self, hash: u64, _: Sealed) -> *const u8 {
        Box::into_raw(Box::new(KeyBox {
            hash,
            key: self.clone(),
        })) as *const u8
    }

    /// The master hash stored in the allocation, or at least its bits
    /// 16..64: all that the home cell of an array of at most 2⁴⁸ cells
    /// reads.
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
        // reserved encodings back).
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

/// Strings of more than seven bytes hash and are stored exactly as in
/// [`crate::complex::StringKeyTable`]: the word-at-a-time byte hash, and
/// one `⟨header, bytes⟩` allocation per key, its header word the hash's
/// bits 16..64 over the length, in place of a `KeyBox` around a `String`
/// (two allocations, two dependent loads per candidate).
/// Shorter ones are their short word, which [`Probe`] hashes as a word.
impl KeyRepr for String {
    #[inline]
    fn hash64(&self) -> u64 {
        complex::hash_str(self)
    }

    #[inline]
    fn short_word(&self, _: Sealed) -> Option<u64> {
        complex::short_word(self.as_bytes())
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
        // SAFETY: the caller's contract is `complex::stored_matches`'s.
        unsafe { complex::stored_matches(ptr, hash, key) }
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
///   value), and a marking migration's freeze XORs a random word into it,
///   which readers undo.  Updates CAS the value word alone.  Provided for
///   `u64`, `u32` and `()`.
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

/// Everything an operation derives from its key once, up front: its home
/// hash, and the key word it looks for as `(word & mask) == want`.  The
/// `K::INLINE` branches below are monomorphized away, so the inline
/// instantiation probes with one integer compare per cell — the same cell
/// ops as the word table.  A boxed key's class is decided here, once:
///
/// * a short key (a `String` of at most seven bytes) wants its whole short
///   word, and its home is [`hash_key`] of that word;
/// * a long key hashes its bytes and wants its 14-bit signature under
///   [`SIGNED_BITS`], where the short tag is clear, so that no short word
///   passes; a match is confirmed behind the pointer.
struct Probe<'k, K: KeyRepr> {
    hash: u64,
    /// The key word (inline and short keys) or the signature bits of one
    /// (long keys) this probe looks for.
    want: u64,
    /// The bits of a cell's key word compared with `want`: all of them,
    /// or [`SIGNED_BITS`] for a long key.
    mask: u64,
    key: &'k K,
}

impl<'k, K: KeyRepr> Probe<'k, K> {
    #[inline]
    fn new(key: &'k K) -> Self {
        let (hash, want, mask) = if K::INLINE {
            (key.hash64(), key.encode(), u64::MAX)
        } else if let Some(word) = key.short_word(Sealed) {
            (hash_key(word), word, u64::MAX)
        } else {
            let hash = key.hash64();
            (hash, signature_of(hash) << POINTER_BITS, SIGNED_BITS)
        };
        Probe {
            hash,
            want,
            mask,
            key,
        }
    }

    /// `true` when the key is stored out of line: a boxed key with no
    /// short word.
    #[inline]
    fn is_stored(&self) -> bool {
        self.mask != u64::MAX
    }

    /// `true` when the unmarked key word `k` stores this probe's key.  No
    /// sentinel passes (an inline `want` is at least 2, a short word has its
    /// tag, a long key's signature is at least 1, [`signature_of`]), and
    /// only a long key's passing word is dereferenced: the one class branch
    /// an operation takes, on a compare that has already matched.
    ///
    /// # Safety
    ///
    /// For boxed keys, `k` must have been read from a cell of a live
    /// generation and the calling handle must not have quiesced since.
    #[inline]
    unsafe fn matches(&self, k: u64) -> bool {
        if K::INLINE {
            return k == self.want;
        }
        if k & self.mask != self.want {
            return false;
        }
        // SAFETY: QSBR-protected per the contract above.
        !self.is_stored()
            || unsafe { K::stored_matches(stored_ptr(k), self.hash, self.key, Sealed) }
    }
}

/// Owns the not-yet-published out-of-line allocations of an insertion
/// across operation retries, so a migration loop never allocates twice;
/// freed on drop — including an unwind out of a migration help call or an
/// injected fault — so a crashed operation never leaks them.  Publishing
/// the cell transfers ownership to the table ([`PendingCell::published`]).
///
/// A word is 0 while nothing is allocated for it (a packed reference is
/// at least 2⁴⁸, a box pointer is never null).  An inline key or value
/// never allocates, so every access to its word sits behind its `INLINE`
/// constant and the inline instantiation tests no flag, on publication or
/// on drop.  Nor does a short key: its word is the probe's, and the
/// pending key word stays 0.
struct PendingCell<K: KeyRepr, V: ValueRepr> {
    key_word: u64,
    value_word: u64,
    _marker: PhantomData<(K, V)>,
}

impl<K: KeyRepr, V: ValueRepr> PendingCell<K, V> {
    fn new() -> Self {
        PendingCell {
            key_word: 0,
            value_word: 0,
            _marker: PhantomData,
        }
    }

    /// The key word to publish, allocating the key at most once.
    #[inline]
    fn key_word(&mut self, probe: &Probe<'_, K>) -> u64 {
        if K::INLINE || !probe.is_stored() {
            return probe.want;
        }
        if self.key_word == 0 {
            let signature = probe.want >> POINTER_BITS;
            self.key_word = pack_keyref(signature, probe.key.store(probe.hash, Sealed));
        }
        self.key_word
    }

    /// The value word to publish, allocating the value box at most once.
    #[inline]
    fn value_word(&mut self, value: &V) -> u64 {
        if V::INLINE {
            return value.encode_inline();
        }
        if self.value_word == 0 {
            self.value_word = Box::into_raw(Box::new(value.clone())) as u64;
        }
        self.value_word
    }

    /// The claim CAS won: the table owns both allocations now.
    #[inline]
    fn published(&mut self) {
        if !K::INLINE {
            self.key_word = 0;
        }
        if !V::INLINE {
            self.value_word = 0;
        }
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for PendingCell<K, V> {
    fn drop(&mut self) {
        if !K::INLINE && self.key_word != 0 {
            // SAFETY: allocated by this operation and never published.
            unsafe { K::free_stored(stored_ptr(self.key_word), Sealed) };
        }
        if !V::INLINE && self.value_word != 0 {
            // SAFETY: allocated by this operation and never published.
            unsafe { drop(Box::from_raw(self.value_word as *mut V)) };
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
    /// A sole write's check after its closure failed: the write enters
    /// again, and learns there whether it still writes alone.
    Revoked,
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

/// Cells a plain inline insert reads at once before its probe loop
/// ([`GenericArray::claim_in_window`]).  Measured on `insert_grow`: 2
/// inserts slower, 4 no faster at a higher median latency, 8 loses most
/// of the gain (EXPERIMENTS.md, "the three-cell insert window").
const INSERT_WINDOW: usize = 3;

/// Cells in one slice of an uncleared migration target.
const CLEAR_SLICE_CELLS: usize = CLEAR_SLICE_BYTES / std::mem::size_of::<Cell>();

/// Publish `new` in a cell read empty: the locked pair CAS, `false` when
/// it lost the cell; for a sole write two plain stores, which no other
/// write can race (DESIGN.md §8).
#[inline(always)]
fn claim<const SOLE: bool>(cell: &Cell, new: (u64, u64)) -> bool {
    if SOLE {
        growt_failpoints::fire("generic.sole.store");
        cell.store_unsynchronized(new.0, new.1);
        return true;
    }
    cell.cas_pair((EMPTY_KEY, 0), new).is_ok()
}

/// One table generation: a power-of-two array of word-table cells whose
/// words are interpreted through `K`'s and `V`'s representations.  The
/// array never owns the out-of-line allocations (they outlive
/// generations); the subsystem frees live ones when the whole map drops
/// and displaced ones through the QSBR domain.
struct GenericArray<K: KeyRepr, V: ValueRepr> {
    cells: crate::mem::HugeBox<Cell>,
    /// [`capacity_shift`] of the capacity, stored in place of the capacity
    /// (`cells.len()`): computing it from the capacity at each use put the
    /// capacity's `lzcnt` on the path from key to home cell, and measured
    /// no faster than the multiply it replaced (EXPERIMENTS.md, "a
    /// one-multiply home hash").
    shift: u32,
    version: u64,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K: KeyRepr, V: ValueRepr> GenericArray<K, V> {
    fn new(capacity: usize, version: u64) -> Self {
        Self::try_new(capacity, version).expect("initial generic-table allocation failed")
    }

    /// Fallible constructor: an OOM degrades to an error.
    fn try_new(capacity: usize, version: u64) -> Result<Self, crate::mem::AllocError> {
        Self::with_cells(crate::mem::HugeBox::try_zeroed(capacity)?, version)
    }

    /// The constructor migrations use: the next generation's cells as the
    /// allocator hands them out, with the slices of [`CLEAR_SLICE_CELLS`]
    /// cells they need cleared before anything reads them (0 when they
    /// came zero).  An OOM degrades to "keep serving the old one".
    fn try_uncleared(
        capacity: usize,
        version: u64,
    ) -> Result<(Self, usize), crate::mem::AllocError> {
        // SAFETY: a target is not read before the coordinator has cleared
        // every slice of it (`GrowProtocol::clear_next_slice`), nor freed
        // from: the array owns no out-of-line allocation.
        let (cells, zero) = unsafe { crate::mem::HugeBox::try_uncleared(capacity)? };
        let slices = if zero {
            0
        } else {
            capacity.div_ceil(CLEAR_SLICE_CELLS)
        };
        Ok((Self::with_cells(cells, version)?, slices))
    }

    fn with_cells(
        cells: crate::mem::HugeBox<Cell>,
        version: u64,
    ) -> Result<Self, crate::mem::AllocError> {
        let capacity = cells.len();
        assert!(capacity.is_power_of_two() && capacity >= 2);
        // A shift of at least 16, so that a long `String` key's stored
        // header, whose low 16 bits are its length, homes like its hash.
        assert!(
            capacity as u64 <= 1 << (64 - complex::LEN_BITS),
            "more than 2^48 cells"
        );
        Ok(GenericArray {
            cells,
            shift: capacity_shift(capacity),
            version,
            _marker: PhantomData,
        })
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The scaled home cell (§5.3.1) of `hash`, by shift.
    #[inline]
    fn home_cell(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    #[inline]
    fn probe_limit(&self) -> usize {
        self.capacity().min(PROBE_LIMIT)
    }

    /// Look up the probe's key.  Reads tolerate marked (frozen) cells:
    /// the frozen contents are the linearizable state at freeze time.  An
    /// inline value is read key, value, key: the second key load says
    /// whether a flipping freeze came first ([`Cell::unflipped_value`]).
    /// A tombstone is walked past: no sentinel passes `matches`.
    fn find(&self, probe: &Probe<'_, K>) -> Option<V> {
        let (cells, mask) = (self.cells.as_ptr(), self.capacity() - 1);
        let mut index = self.home_cell(probe.hash);
        for _ in 0..self.probe_limit() {
            // SAFETY: `index` is below the capacity: the home cell is the
            // hash shifted down to the capacity's bits, each step masks it,
            // and `with_cells` asserts a power-of-two capacity.
            let cell = unsafe { &*cells.add(index) };
            // Key read before value (§4): the pair-CAS publication means
            // a torn read can only observe a newer value for this key.
            let (k, v) = cell.read();
            let plain = unmark(k);
            if plain == EMPTY_KEY {
                return None;
            }
            // SAFETY: out-of-line words observed through a live array are
            // QSBR-protected until this handle's next quiescent state.
            if unsafe { probe.matches(plain) } {
                let v = if V::INLINE {
                    cell.unflipped_value(v)
                } else {
                    v
                };
                // SAFETY: as above, for the value word read with the key.
                return Some(unsafe { read_value::<V>(v) });
            }
            index = (index + 1) & mask;
        }
        None
    }

    /// Insert, or insert-or-update when `update` is given.  `pending`
    /// carries the (at most one) out-of-line allocation pair across
    /// retries; on `Inserted` it is consumed (published).  `SOLE` is the
    /// write's mode (`WriteGuard::sole`): a sole write claims and updates
    /// with plain stores, the others with the locked CAS.
    fn upsert<const SOLE: bool, F: Fn(&V) -> V>(
        &self,
        probe: &Probe<'_, K>,
        value: &V,
        update: Option<&F>,
        pending: &mut PendingCell<K, V>,
        gate: &WriteGuard<'_, K, V>,
    ) -> MapOutcome {
        let mut index = self.home_cell(probe.hash);
        let mut probes = self.probe_limit();
        if K::INLINE && update.is_none() {
            match self.claim_in_window::<SOLE>(probe, value, index, pending) {
                Ok(()) => return MapOutcome::Inserted,
                Err(skipped) => {
                    index = (index + skipped) & (self.capacity() - 1);
                    probes = probes.saturating_sub(skipped);
                }
            }
        }
        for _ in 0..probes {
            let cell = &self.cells[index];
            loop {
                let (k, v) = cell.read();
                if is_marked(k) {
                    return MapOutcome::Migrating;
                }
                if k == EMPTY_KEY {
                    let new = (pending.key_word(probe), pending.value_word(value));
                    if !claim::<SOLE>(cell, new) {
                        continue; // re-examine the claimed cell
                    }
                    pending.published();
                    return MapOutcome::Inserted;
                }
                if k == DEL_KEY {
                    break; // tombstone: reclaimed by the next migration
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    let Some(up) = update else {
                        return MapOutcome::Present;
                    };
                    return match self.update_cell::<SOLE, F>(cell, k, v, up, gate) {
                        Ok(outcome) => outcome,
                        Err(()) => continue, // CAS failed: re-read the cell
                    };
                }
                break;
            }
            index = (index + 1) & (self.capacity() - 1);
        }
        MapOutcome::Full
    }

    /// A plain inline insert's first step (DESIGN.md §14): read the key
    /// words of the [`INSERT_WINDOW`] cells from `home` as independent
    /// loads, take the first that ends the probe — empty, this key, or
    /// marked — and claim it if it is empty.  The probe's exit becomes an
    /// index computed from the loads instead of a branch waiting on each of
    /// them.  `Err(skipped)` leaves every other outcome to the probe loop,
    /// which resumes `skipped` cells past `home`: at the ending cell, at a
    /// lost claim, or past the window when nothing in it ends the probe.
    #[inline]
    fn claim_in_window<const SOLE: bool>(
        &self,
        probe: &Probe<'_, K>,
        value: &V,
        home: usize,
        pending: &mut PendingCell<K, V>,
    ) -> Result<(), usize> {
        let mask = self.capacity() - 1;
        let (mut ends, mut empty) = (0u32, 0u32);
        for i in 0..INSERT_WINDOW {
            let k = self.cells[(home + i) & mask].load_key();
            ends |= u32::from((k == EMPTY_KEY) | (k == probe.want) | is_marked(k)) << i;
            empty |= u32::from(k == EMPTY_KEY) << i;
        }
        if ends == 0 {
            return Err(INSERT_WINDOW);
        }
        let first = ends.trailing_zeros() as usize;
        if empty >> first & 1 == 0 {
            return Err(first);
        }
        let new = (pending.key_word(probe), pending.value_word(value));
        if !claim::<SOLE>(&self.cells[(home + first) & mask], new) {
            return Err(first);
        }
        pending.published();
        Ok(())
    }

    /// Replace the value of an existing key (no insertion).
    fn update<const SOLE: bool, F: Fn(&V) -> V>(
        &self,
        probe: &Probe<'_, K>,
        up: &F,
        gate: &WriteGuard<'_, K, V>,
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
                    return MapOutcome::NotFound;
                }
                if k == DEL_KEY {
                    break;
                }
                // SAFETY: see `find`.
                if unsafe { probe.matches(k) } {
                    match self.update_cell::<SOLE, F>(cell, k, v, up, gate) {
                        Ok(outcome) => return outcome,
                        Err(()) => continue,
                    }
                }
                break;
            }
            index = (index + 1) & (self.capacity() - 1);
        }
        MapOutcome::NotFound
    }

    /// One read–derive–CAS update attempt on a matched cell, whose key `k`
    /// and then value `v` were read.  `Err(())` asks the caller to re-read.
    ///
    /// An inline value is replaced by a CAS of the value word alone, after
    /// the key is loaded once more and found to be `k`.  A marking
    /// migration freezes inline values with the flip
    /// ([`Cell::mark_and_flip_for_migration`]): a `v` read before the
    /// freeze fails the CAS, unless an update in between stored `v` XOR the
    /// process's random [`crate::cell::frozen_flip`] (probability 2⁻⁶³ a
    /// race); a `v` read after it is the flipped word, and then the second
    /// key load, which comes after the value load, sees the mark.  So no
    /// update lands in a copied cell, and `up` never sees a flipped word.
    /// A CAS that lands on a tombstone after an erase is linearized before
    /// that erase; tombstones are never reused, so nothing observes it.
    ///
    /// A boxed value keeps the full-cell CAS, which fails on a frozen, an
    /// erased or an updated cell alike: against an erase, a value CAS
    /// would let the eraser and this updater both retire the displaced box.
    ///
    /// A sole write stores the new value word plainly, but `up` may open a
    /// handle on this map and write through it, so it runs with the busy
    /// flag lowered ([`WriteGuard::call_unbusied`]): such a registration
    /// does not wait for the write that is running the closure.  The store
    /// follows only if afterwards the write is still alone, on the same
    /// generation, and the cell still holds `(k, v)`; else `Revoked`.
    #[inline]
    fn update_cell<const SOLE: bool, F: Fn(&V) -> V>(
        &self,
        cell: &Cell,
        k: u64,
        v: u64,
        up: &F,
        gate: &WriteGuard<'_, K, V>,
    ) -> Result<MapOutcome, ()> {
        if SOLE {
            let (new_value, alone) = if V::INLINE {
                gate.call_unbusied(|| up(&V::decode_inline(v)))
            } else {
                // SAFETY: as below, for the locked path.
                let current = unsafe { read_value::<V>(v) };
                gate.call_unbusied(|| up(&current))
            };
            if !alone || cell.read() != (k, v) {
                return Ok(MapOutcome::Revoked);
            }
            return Ok(if V::INLINE {
                cell.store_unsynchronized(k, new_value.encode_inline());
                MapOutcome::Updated(None)
            } else {
                let new_word = Box::into_raw(Box::new(new_value)) as u64;
                cell.store_unsynchronized(k, new_word);
                MapOutcome::Updated(Some(v))
            });
        }
        if V::INLINE {
            if cell.load_key() != k {
                return Err(());
            }
            let new_word = up(&V::decode_inline(v)).encode_inline();
            return match cell.cas_value(v, new_word) {
                Ok(()) => Ok(MapOutcome::Updated(None)),
                Err(_) => Err(()),
            };
        }
        // SAFETY: `v` was read from a live cell; the handle has not
        // quiesced since (QSBR also makes this ABA-safe: the old box
        // cannot be freed and reallocated within the operation).
        let current = unsafe { read_value::<V>(v) };
        let new_word = Box::into_raw(Box::new(up(&current))) as u64;
        match cell.cas_pair((k, v), (k, new_word)) {
            Ok(()) => Ok(MapOutcome::Updated(Some(v))),
            Err(_) => {
                // SAFETY: just allocated above, never published.
                unsafe { drop(Box::from_raw(new_word as *mut V)) };
                Err(())
            }
        }
    }

    /// Tombstone the probe's key.  The value word is preserved in the
    /// tombstone CAS expectation so a racing value update cannot be
    /// silently dropped; the caller receives both displaced words for
    /// deferred reclamation.  A sole write stores the tombstone plainly.
    fn erase<const SOLE: bool>(&self, probe: &Probe<'_, K>) -> MapErase {
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
                    if SOLE {
                        cell.store_unsynchronized(DEL_KEY, v);
                    } else if cell.cas_pair((k, v), (DEL_KEY, v)).is_err() {
                        continue;
                    }
                    return MapErase::Erased {
                        key_word: k,
                        value_word: v,
                    };
                }
                break;
            }
            index = (index + 1) & (self.capacity() - 1);
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
/// placements (the placement gate holds a publication back for at most
/// one round).  16 to 256 measured alike on word keys (EXPERIMENTS.md
/// "The grow pause, decomposed").
const COPY_CHUNK: usize = 64;

/// What one call of [`migrate_generic_block`] did.
#[derive(Debug, Default)]
struct BlockCopy {
    /// Live elements in the block's range: the same for every complete
    /// copy of the block, whoever else copies it.
    live: usize,
    /// `false` when the copy stopped short: the placement gate turned it
    /// away because someone else completed the block.
    complete: bool,
    /// Chunks frozen by a marking copy, one locked instruction a cell
    /// ([`freeze_cell`]).
    chunks_locked: usize,
}

/// Pass 1 of a chunk: read (and, marking, freeze) its cells and compact the
/// live pairs into `live`, without branching on a cell's content (at load
/// 0.6 a live/empty branch is a coin flip).  Once read here a pair is
/// final: no writer runs (exclusive) or the mark stops every writer
/// (marking).  Every pair is written to the next free slot and the slot is
/// kept only if the pair is live; tombstones are dropped here (their
/// allocations were already retired at erase time).
///
/// `mode` says how a cell is read: exclusive, a plain load of each word is
/// the cell's final content and nothing is marked; marking, one locked
/// instruction per cell freezes it ([`freeze_cell`]).
#[inline(always)]
fn freeze_chunk<V: ValueRepr>(
    mode: MigrationMode,
    chunk: &[Cell],
    live: &mut [(u64, u64); COPY_CHUNK],
) -> usize {
    let mut n = 0usize;
    for cell in chunk {
        let (k, v) = match mode {
            MigrationMode::Exclusive => cell.read(),
            MigrationMode::Marking => freeze_cell::<V>(cell),
        };
        live[n] = (k, v);
        n += usize::from(k > DEL_KEY);
    }
    n
}

/// The marking freeze of one source cell, returning its pair as it was.
/// Inline values take the flipping freeze, one `cmpxchg16b`
/// ([`Cell::mark_and_flip_for_migration`]), which lets their updates CAS the
/// value word alone; boxed values keep the `fetch_or` of
/// [`Cell::mark_for_migration`].
#[inline(always)]
fn freeze_cell<V: ValueRepr>(cell: &Cell) -> (u64, u64) {
    if V::INLINE {
        cell.mark_and_flip_for_migration()
    } else {
        cell.mark_for_migration()
    }
}

/// Pass 3 of a chunk: place `live` into `dst` in source order, probing
/// from `homes`, with plain stores.  Called only inside the placement gate
/// ([`MigrationJob::enter_placement`]), so `dst` is unpublished and only
/// copies of this block write the cells it reaches (module docs of
/// [`migrate_generic_block`]).
#[inline(always)]
fn place_chunk<K: KeyRepr, V: ValueRepr>(
    dst: &GenericArray<K, V>,
    live: &[(u64, u64)],
    homes: &[usize],
) {
    growt_failpoints::fire("generic.place.chunk");
    for (&(k, v), &home) in live.iter().zip(homes) {
        let mut pos = home;
        let mut walked = 0usize;
        loop {
            assert!(
                walked <= dst.capacity(),
                "generic migration found no empty target cell"
            );
            let cell = &dst.cells[pos];
            let existing = cell.load_key();
            if existing == k {
                // Another copy of this block placed the element already.
                break;
            }
            if existing == EMPTY_KEY {
                cell.store_unsynchronized(k, v);
                break;
            }
            pos = (pos + 1) & (dst.capacity() - 1);
            walked += 1;
        }
    }
}

/// The source cells the block `[start, end)` copies, moved to cluster
/// boundaries: from one past the first empty cell at or after `start − 1`
/// to one past the first empty cell at or after `end − 1`.  So a block
/// skips the tail of a cluster that began in the block before and runs
/// past its end to finish its own last one — "implicitly moving the block
/// borders to free cells" (paper Fig. 1b, `crate::migrate`).  Positions
/// count on past the capacity, so the range of the block that holds the
/// wrap-around cluster ends beyond it.  The ranges of all blocks tile the
/// table and each is a union of whole clusters.
///
/// Only `EMPTY` tests on key words, no dereference.  Marking, every cell
/// tested is frozen first, so that every block that tests it sees the same
/// answer.  A source with no empty cell at all is one cluster, which the
/// first block copies whole.
fn cluster_range<K: KeyRepr, V: ValueRepr>(
    src: &GenericArray<K, V>,
    start: usize,
    end: usize,
    mode: MigrationMode,
) -> (usize, usize) {
    let capacity = src.capacity();
    let empty = |i: usize| {
        let cell = &src.cells[i & (capacity - 1)];
        let key = match mode {
            MigrationMode::Exclusive => cell.load_key(),
            MigrationMode::Marking => freeze_cell::<V>(cell).0,
        };
        key == EMPTY_KEY
    };
    // One past the first empty cell at or after `at − capacity`.
    let boundary = |at: usize| {
        (at..at + capacity)
            .find(|&i| empty(i))
            .map(|i| i + 1 - capacity)
    };
    match boundary(start + capacity - 1) {
        Some(from) => (
            from,
            boundary(end + capacity - 1).expect("the empty cell found above stays empty"),
        ),
        None if start == 0 => (0, capacity),
        None => (0, 0),
    }
}

/// Copy the block `[block_start, block_end)` of `src` into `dst`,
/// re-deriving each element's home cell from the master hash (stored in
/// the key allocation for boxed keys, recomputed from the decoded word for
/// inline ones): the rehash migration path, the one copier `GrowMap` has.
///
/// **Ranges** ([`cluster_range`]): the block copies whole clusters.  With
/// the scaled home cells of `GenericArray` and a target at least as large
/// as the source (growth and cleanup), Lemma 1 (paper §5.3.1) makes the
/// target cells that the placement of one cluster reads or writes disjoint
/// from those of every other cluster.  So nobody but another copy of the
/// same block writes where this copy places, and placement is a plain
/// store.  A shrink has no such lemma; its migration is one block
/// (`GrowProtocol::SHRINK_IN_ONE_BLOCK`).
///
/// The range is worked off in chunks of at most [`COPY_CHUNK`] source
/// cells, three passes per chunk:
///
/// 1. [`freeze_chunk`], as `mode` says: plain loads when writers are
///    excluded, one locked freeze a cell when the migration marks;
/// 2. hash every live key and prefetch its target line — independent
///    work, kept out of the freeze loop;
/// 3. [`place_chunk`], inside the placement gate (`enter_placement`).
///
/// **Idempotent, also against a concurrent copy of the same block.**  The
/// source the copies read is final (excluded or frozen), so every copy
/// places the same elements in the same order, and each element goes to
/// the one cell that order determines for it: by the time a copy places
/// element *i*, it has placed or found elements 0 … *i*−1 at their cells,
/// and no later element lies between *i*'s home and its cell.  So a copy
/// stores only an element into that element's cell — the same words
/// whichever copy stores them — and skips a cell that already holds the
/// key word.  The block's `live` count is what the freeze saw, the same
/// for every complete copy; the coordinator credits it once, for the copy
/// that completes the lease.
///
/// **Late owners.**  `enter_placement` is asked once per chunk, before its
/// placement; it answers `None` once the block was completed by someone
/// else, and the copy stops there, incomplete.  A `Some` holds the
/// publication of the target back until it is dropped after the chunk's
/// placement, so no store of a copy that slept through its own rescue
/// lands in a published table, where it would overwrite what writers put
/// there since (DESIGN.md §12).
fn migrate_generic_block<K: KeyRepr, V: ValueRepr, P>(
    src: &GenericArray<K, V>,
    dst: &GenericArray<K, V>,
    block_start: usize,
    block_end: usize,
    mode: MigrationMode,
    mut enter_placement: impl FnMut() -> Option<P>,
) -> BlockCopy {
    let mut copy = BlockCopy {
        complete: true,
        ..BlockCopy::default()
    };
    let mut live = [(0u64, 0u64); COPY_CHUNK];
    let mut homes = [0usize; COPY_CHUNK];
    let (from, to) = cluster_range(src, block_start, block_end, mode);
    let capacity = src.capacity();
    let pieces = [
        (from, to.min(capacity)),
        (from.max(capacity) - capacity, to.saturating_sub(capacity)),
    ];
    let chunks = pieces
        .into_iter()
        .filter(|(lo, hi)| lo < hi)
        .flat_map(|(lo, hi)| src.cells[lo..hi].chunks(COPY_CHUNK));
    for chunk in chunks {
        // Each arm passes its mode as a constant, so that the inlined
        // freeze loop is compiled once per mode, with no branch per cell.
        let n = match mode {
            MigrationMode::Exclusive => {
                freeze_chunk::<V>(MigrationMode::Exclusive, chunk, &mut live)
            }
            MigrationMode::Marking => {
                copy.chunks_locked += 1;
                freeze_chunk::<V>(MigrationMode::Marking, chunk, &mut live)
            }
        };
        let live = &live[..n];
        copy.live += n;
        for (&(k, _), home) in live.iter().zip(&mut homes) {
            let hash = if K::INLINE {
                K::decode(k).hash64()
            } else if complex::is_short(k) {
                hash_key(k) // a short word is its own key: no load
            } else {
                // One header load; a `String`'s holds the hash's bits
                // 16..64, which are all that `home_cell` reads.
                // SAFETY: the reference was live when read; erased keys
                // are only freed after all handles quiesce, and migrating
                // threads quiesce only between operations.
                unsafe { K::stored_hash(stored_ptr(k), Sealed) }
            };
            *home = dst.home_cell(hash);
            prefetch_write(&dst.cells[*home]);
        }
        let Some(_pass) = enter_placement() else {
            copy.complete = false;
            break;
        };
        place_chunk(dst, live, &homes);
    }
    copy
}

// ---------------------------------------------------------------------------
// The shared inner + coordinator instantiation
// ---------------------------------------------------------------------------

/// How long a growth leader waits for busy handles before the migration
/// marks instead of excluding them.  An operation is well under a
/// microsecond; a handle busy for this long was descheduled inside one, or
/// its `insert_or_update` closure blocks — or the closure runs an operation
/// on the same map that is now leading this growth.
const QUIESCE_PATIENCE: Duration = Duration::from_millis(2);

/// A handle's busy flag, alone on its cache line: raised for the duration
/// of each write operation (insert, update, erase and their `try_*` forms),
/// read by a growth leader that excludes writers (DESIGN.md §12) and by
/// the registration that revokes the sole mode (§8).  [`BUSY`] while the
/// write may store plainly, [`BUSY_LOCKED`] once a write that runs a
/// closure has taken the locked path, [`IDLE`] between writes.
#[repr(align(64))]
struct BusyFlag(AtomicU8);

const IDLE: u8 = 0;
const BUSY: u8 = 1;
const BUSY_LOCKED: u8 = 2;

impl BusyFlag {
    /// Before the version load, which the compiler must not hoist above
    /// the store (the CPU is kept from it by the leader's `membarrier`).
    #[inline]
    fn raise(&self) {
        self.0.store(BUSY, Ordering::Relaxed);
        compiler_fence(Ordering::SeqCst);
    }

    /// Release: the write's cell operations happen before a leader's
    /// `Acquire` read of `IDLE`, and so before its copy reads the cells.
    #[inline]
    fn lower(&self) {
        self.0.store(IDLE, Ordering::Release);
    }

    /// The write saw no sole bit: whatever it stores, it stores with a
    /// locked instruction, so a registration need not wait for it — and
    /// must not, since the write's closure may be that registration.
    #[inline]
    fn locked(&self) {
        self.0.store(BUSY_LOCKED, Ordering::Release);
    }

    /// `Acquire`: what a write stored is visible once this reads that it
    /// ended.
    #[inline]
    fn state(&self) -> u8 {
        self.0.load(Ordering::Acquire)
    }
}

/// A write's pass, from [`GrowMapHandle::enter_write`]: the version word
/// its prologue compared, and the busy flag, which it lowers when the
/// write ends — also when it unwinds, so a panicking closure or an
/// injected fault cannot leave a leader or a registration waiting.
struct WriteGuard<'b, K: KeyRepr, V: ValueRepr> {
    busy: &'b BusyFlag,
    generations: &'b VersionedArc<GenericArray<K, V>>,
    word: u64,
}

/// What a write's prologue hands it: the current generation and its pass.
type Entered<'t, K, V> = (&'t GenericArray<K, V>, WriteGuard<'t, K, V>);

impl<K: KeyRepr, V: ValueRepr> WriteGuard<'_, K, V> {
    /// `true` when the write is its map's only one: the compared word has
    /// the sole bit, raised while the map has one handle (DESIGN.md §8).
    #[inline]
    fn sole(&self) -> bool {
        self.word & SOLE != 0
    }

    /// The write takes the locked path: say so on the busy flag, so that a
    /// registration made from its closure does not wait for it.
    #[inline]
    fn locked(&self) {
        self.busy.locked();
    }

    /// Run a sole write's closure with the busy flag lowered, then raise
    /// it and load the version word again: `true` when that still holds
    /// the compared word ([`VersionedArc::still`]), so that no registration
    /// has revoked the mode since without waiting for this write, and no
    /// migration has excluded writers or published.  The same handshake as
    /// the prologue's, against the registration's barrier.
    #[inline]
    fn call_unbusied<R>(&self, f: impl FnOnce() -> R) -> (R, bool) {
        self.busy.lower();
        let result = f();
        self.busy.raise();
        (result, self.generations.still(self.word))
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for WriteGuard<'_, K, V> {
    #[inline]
    fn drop(&mut self) {
        self.busy.lower();
    }
}

/// Everything shared between handles and the owner.  The migration
/// machinery is the shared §12 coordinator ([`crate::coord`]),
/// instantiated as enslavement, no pool, no degenerate-cluster recovery
/// (the copier's ranges cover that case), and with writers excluded behind
/// `membarrier` where that works in time, marking otherwise.
struct GenericInner<K: KeyRepr, V: ValueRepr> {
    current: VersionedArc<GenericArray<K, V>>,
    counts: GlobalCount,
    coordinator: Coordinator<GenericArray<K, V>>,
    grow: GrowConfig,
    threads_hint: usize,
    domain: Arc<QsbrDomain>,
    handle_seed: AtomicU64,
    /// The busy flags of the live handles.
    writers: Mutex<Vec<Arc<BusyFlag>>>,
}

impl<K: KeyRepr, V: ValueRepr> GrowProtocol for GenericInner<K, V> {
    type Gen = GenericArray<K, V>;

    const FP_PREPARE_ALLOC: &'static str = "generic.prepare.alloc";
    const FP_PREPARE_SLICE: &'static str = "generic.prepare.slice";
    const FP_BLOCK_CLAIMED: &'static str = "generic.block.claimed";
    const FP_FINALIZE: &'static str = "generic.finalize";
    const SHRINK_IN_ONE_BLOCK: bool = true;

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
        array.capacity()
    }

    fn alloc_generation(
        &self,
        _source: &GenericArray<K, V>,
        new_capacity: usize,
        version: u64,
    ) -> Result<(GenericArray<K, V>, usize), crate::mem::AllocError> {
        // A lone handle would clear every slice itself, one a write: the
        // elector clears the target in one pass instead, and leads at once
        // (DESIGN.md §13).  A write, not a zeroed allocation, whose fresh
        // pages the copy would fault twice: by its load, then its store.
        let (array, slices) = GenericArray::try_uncleared(new_capacity, version)?;
        if slices > 0 && lock(&self.writers).len() <= 1 {
            // SAFETY: nothing else reaches the target before it is returned.
            unsafe { array.cells.clear(0..array.capacity()) };
            return Ok((array, 0));
        }
        Ok((array, slices))
    }

    fn clear_slice(target: &GenericArray<K, V>, slice: usize) {
        let start = slice * CLEAR_SLICE_CELLS;
        let end = (start + CLEAR_SLICE_CELLS).min(target.capacity());
        // SAFETY: the clearing lock is held, and nothing reads a target
        // before its job is installed, after its last slice.
        unsafe { target.cells.clear(start..end) };
    }

    fn copy_range(
        &self,
        job: &MigrationJob<GenericArray<K, V>>,
        block: usize,
        start: usize,
        end: usize,
    ) -> Option<usize> {
        let copy = migrate_generic_block(&job.source, &job.target, start, end, job.mode, || {
            job.enter_placement(block)
        });
        // Relaxed: statistics of the phase record, publishing nothing; an
        // exclusive copy locks no chunk and leaves the line alone.
        if copy.chunks_locked != 0 {
            job.progress
                .chunks_locked
                .fetch_add(copy.chunks_locked, Ordering::Relaxed);
        }
        copy.complete.then_some(copy.live)
    }

    /// Exclude the writers: raise the growing flag in the version word,
    /// make every running thread execute a full barrier (`membarrier`),
    /// then wait until every handle's busy flag reads `false`.  The other
    /// half of the handshake is [`GrowMapHandle::enter_write`]: a write
    /// that raised its flag before the barrier is seen busy here, one that
    /// raises it after sees the growing flag and waits for the migration.
    /// Without the barrier (the kernel lacks it, or the `generic.membarrier`
    /// failpoint says so), or with a handle still busy after
    /// [`QUIESCE_PATIENCE`], the migration marks.  A leader that is its
    /// map's only handle skips the barrier and the wait (DESIGN.md §15).
    fn quiesce_writers(&self) -> MigrationMode {
        if growt_failpoints::fire("generic.membarrier") || !membarrier::available() {
            return MigrationMode::Marking;
        }
        self.current.raise_flag();
        // A snapshot, so that creating or dropping a handle does not wait
        // for this wait: a handle registered after the raise sees the flag
        // on its first write, since it takes the lock after this one.  The
        // leader is a handle of the map, idle while it leads, so a snapshot
        // of one holds nobody who could be writing.
        let writers = lock(&self.writers).clone();
        if writers.len() <= 1 {
            return MigrationMode::Exclusive;
        }
        if !membarrier::heavy_barrier() {
            return MigrationMode::Marking;
        }
        let started = Instant::now();
        for writer in writers.iter() {
            if !wait_while(
                writer,
                |state| state != IDLE,
                || started.elapsed() < QUIESCE_PATIENCE,
            ) {
                return MigrationMode::Marking;
            }
        }
        MigrationMode::Exclusive
    }
}

/// Poll `writer`'s busy flag until it reads other than `busy`: spin, then
/// yield the CPU, which the busy handle's thread may be waiting for, as
/// long as `patient`; `false` when patience ran out first.
fn wait_while(writer: &BusyFlag, busy: fn(u8) -> bool, patient: impl Fn() -> bool) -> bool {
    /// Polls of a busy flag before the waiter starts yielding its CPU.
    const SPINS: u32 = 256;
    let mut spins = 0u32;
    while busy(writer.state()) {
        if spins < SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else if patient() {
            std::thread::yield_now();
        } else {
            return false;
        }
    }
    true
}

impl<K: KeyRepr, V: ValueRepr> GenericInner<K, V> {
    /// Add a new handle's busy flag to the writers (DESIGN.md §8).  The
    /// first handle raises the sole bit, where the heavy barrier that
    /// revokes it exists.  The second lowers it, and before it can write
    /// waits out the sole handle's write, if that may store plainly: the
    /// handshake of [`GrowProtocol::quiesce_writers`], the bit in place of
    /// the growing flag, with no patience — a sole write ends without
    /// waiting for anyone, and runs no closure while [`BUSY`].
    fn register(&self, busy: Arc<BusyFlag>) {
        let mut writers = lock(&self.writers);
        match writers.as_slice() {
            [] if membarrier::available() => self.current.raise_sole(),
            // The guard lowers the bit, and is true when it was raised.
            [sole] if self.current.lower_sole() => {
                // Registered for the command, the process cannot see it
                // fail (membarrier(2)).
                assert!(membarrier::heavy_barrier(), "the heavy barrier failed");
                wait_while(sole, |state| state == BUSY, || true);
            }
            _ => {}
        }
        writers.push(busy);
    }

    /// Remove a dropped handle's busy flag; the one handle it leaves
    /// writes alone again.
    fn unregister(&self, busy: &Arc<BusyFlag>) {
        let mut writers = lock(&self.writers);
        writers.retain(|writer| !Arc::ptr_eq(writer, busy));
        if writers.len() == 1 && membarrier::available() {
            self.current.raise_sole();
        }
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
/// reclamation, in the §5.7 format of [`crate::complex`].  The growing
/// strategy is enslavement, run by the shared §12 coordinator; a migration
/// excludes writers — the paper's synchronized protocol, behind an
/// asymmetric fence so that the operations pay no fence — and marks, the
/// paper's asynchronous protocol, where it cannot.
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
                writers: Mutex::new(Vec::new()),
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
        self.inner.current.with_current(|a| a.capacity())
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
                    if !K::INLINE && !complex::is_short(plain) {
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
// SAFETY: as for `Send`: a shared map hands out handles whose operations
// touch cells through atomics only.
unsafe impl<K: KeyRepr, V: ValueRepr> Sync for GrowMap<K, V> {}

/// Operations between automatic quiescent-state announcements.  Each
/// announcement is a store to the participant's own state plus an
/// opportunistic reclamation attempt, so the cadence amortizes the
/// (mutex-protected) reclamation scan while keeping the reclamation lag
/// bounded by a few dozen operations per handle.
const QUIESCE_INTERVAL: u32 = 64;

/// Per-thread handle of a [`GrowMap`] (§5.1).
pub struct GrowMapHandle<'a, K: KeyRepr, V: ValueRepr> {
    inner: &'a GenericInner<K, V>,
    cached: CachedArc<GenericArray<K, V>>,
    local: LocalCount,
    /// The handle's place in the QSBR domain: only where the map can
    /// retire something ([`GrowMapHandle::RECLAIMS`]).
    qsbr: Option<QsbrParticipant>,
    since_quiesce: u32,
    busy: Arc<BusyFlag>,
}

/// What a full generation makes the infallible writes do: grow, waiting
/// for memory as long as it takes.
#[inline(always)]
fn grow_blocking<K: KeyRepr, V: ValueRepr>(
    inner: &GenericInner<K, V>,
    version: u64,
) -> Result<(), Infallible> {
    inner.grow(version);
    Ok(())
}

/// What a full generation makes the fallible writes do: grow within a
/// bounded number of allocation retries, or fail.
#[inline(always)]
fn grow_or_fail<K: KeyRepr, V: ValueRepr>(
    inner: &GenericInner<K, V>,
    version: u64,
) -> Result<(), TryGrowError> {
    inner.try_grow(version).map_err(|_| TryGrowError)
}

impl<'a, K: KeyRepr, V: ValueRepr> GrowMapHandle<'a, K, V> {
    /// `false` when keys and values are both inline: no operation allocates
    /// out of line, so nothing is ever retired, no handle registers with
    /// the QSBR domain and [`GrowMapHandle::op_done`] compiles to nothing.
    const RECLAIMS: bool = !(K::INLINE && V::INLINE);

    #[inline]
    fn new(inner: &'a GenericInner<K, V>) -> Self {
        let seed = inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        let cached = CachedArc::new(&inner.current);
        let busy = Arc::new(BusyFlag(AtomicU8::new(IDLE)));
        inner.register(Arc::clone(&busy));
        GrowMapHandle {
            local: LocalCount::for_generation(inner.threads_hint, cached.cached().capacity(), seed),
            cached,
            qsbr: Self::RECLAIMS.then(|| inner.domain.register()),
            since_quiesce: 0,
            busy,
            inner,
        }
    }

    /// The read prologue (§5.3.2): borrow the current generation from the
    /// handle-local cache — one version load, no `Arc::clone`, no shared
    /// refcount RMW.  A read needs nothing more: a migration never changes
    /// its source, and a read of the source that began before the
    /// publication is linearized before it.
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

    /// The write prologue: raise the handle's busy flag, then borrow the
    /// current generation as [`GrowMapHandle::array_ref`] does — unless a
    /// migration excludes writers, in which case the flag is lowered again
    /// and `None` says to wait for it ([`GrowMapHandle::wait_for_growth`]).
    /// The growing flag is a bit of the version word the borrow loads
    /// anyway, so the fast path adds two stores to the handle's own cache
    /// line and no shared load.  No CPU fence either: between the flag
    /// store and the version load the compiler must not reorder, and the
    /// CPU is made to by the leader's `membarrier`
    /// ([`GrowProtocol::quiesce_writers`]).  The returned guard holds the
    /// compared word, whose sole bit picks the write's instantiation, and
    /// lowers the flag when the write ends, before the write leads, helps
    /// or waits for a migration.  A clearing bit fails the same compare;
    /// that cold path clears a slice of the next generation with the flag
    /// lowered, as its last slice leads (DESIGN.md §13), then raises it
    /// again and reloads the version, so a write that led goes on in the
    /// new one.
    #[inline]
    fn enter_write<'t>(
        cached: &'t mut CachedArc<GenericArray<K, V>>,
        local: &mut LocalCount,
        inner: &'t GenericInner<K, V>,
        busy: &'t BusyFlag,
    ) -> Option<Entered<'t, K, V>> {
        busy.raise();
        let mut guard = WriteGuard {
            busy,
            generations: &inner.current,
            word: 0,
        };
        let (array, word) = cached.get_ref_unless_flagged(
            &inner.current,
            || {
                busy.lower();
                inner.clear_next_slice();
                busy.raise();
            },
            || Self::reset_local_counts(local, inner),
        )?;
        guard.word = word;
        Some((array, guard))
    }

    /// A write found the growing flag raised: help with, or wait for, the
    /// migration of the current generation.
    #[cold]
    #[inline(never)]
    fn wait_for_growth(inner: &GenericInner<K, V>) {
        inner.help_or_wait(inner.current.version());
    }

    /// Refresh epilogue, once per handle per migration: pending local
    /// counts belong to an already-migrated generation whose elements the
    /// migration counted exactly, and the flush bound follows the new
    /// generation's capacity.
    #[cold]
    fn reset_local_counts(local: &mut LocalCount, inner: &GenericInner<K, V>) {
        *local = LocalCount::for_generation(
            inner.threads_hint,
            inner.current.with_current(|a| a.capacity()),
            inner.handle_seed.fetch_add(0x9E37_79B9, Ordering::Relaxed),
        );
    }

    /// Operation epilogue: announce a quiescent state every
    /// [`QUIESCE_INTERVAL`] operations so the domain can free retired
    /// allocations.
    #[inline]
    fn op_done(&mut self) {
        if !Self::RECLAIMS {
            return;
        }
        self.since_quiesce += 1;
        if self.since_quiesce >= QUIESCE_INTERVAL {
            self.quiesce();
        }
    }

    /// The handle's participant, which a map that retires always has.
    #[inline]
    fn qsbr(&self) -> &QsbrParticipant {
        self.qsbr
            .as_ref()
            .expect("a handle of a map that retires is registered")
    }

    /// Handle a successful insertion: update the approximate count and
    /// trigger a migration when the fill threshold is reached (§5.2).
    ///
    /// The insert has landed and the source still has room, so this never
    /// waits for the preparation of the migration: while one is prepared,
    /// the handle returns, clears a slice of the target at the start of
    /// each later write, and joins the copy when a later flush finds it
    /// running or a later insert meets a marked cell (DESIGN.md §13).  The
    /// elector returns as well, once it has allocated the target.  A target
    /// that cannot be allocated is left to the next flush, which meets the
    /// trigger again.
    #[inline]
    fn after_insert(&mut self, capacity: usize, version: u64) {
        if let Some((insertions, _)) = self.local.record_insertion(&self.inner.counts) {
            let threshold = self.inner.grow.grow_threshold * capacity as f64;
            if insertions as f64 >= threshold && !self.inner.coordinator.preparing() {
                Self::request_growth(self.inner, version);
            }
        }
    }

    /// The election [`GrowMapHandle::after_insert`] asks for, out of line:
    /// it is reached about once per handle per migration.
    #[cold]
    #[inline(never)]
    fn request_growth(inner: &GenericInner<K, V>, version: u64) {
        let _ = inner.try_grow_once(version, true);
    }

    #[inline]
    fn after_delete(&mut self) {
        self.local.record_deletion(&self.inner.counts);
    }

    /// Retire the out-of-line allocations displaced by an erase; a short
    /// word has none.
    #[inline]
    fn retire_erased(&mut self, key_word: u64, value_word: u64) {
        if !K::INLINE && !complex::is_short(key_word) {
            self.qsbr()
                .retire(RetiredKey::<K>(stored_ptr(key_word), PhantomData));
        }
        if !V::INLINE {
            self.qsbr().retire(RetiredValue::<V>(value_word as *mut V));
        }
    }

    /// Retire the value box displaced by an update, if any.
    #[inline]
    fn retire_updated(&mut self, displaced: Option<u64>) {
        if let Some(word) = displaced {
            self.qsbr().retire(RetiredValue::<V>(word as *mut V));
        }
    }

    /// Insert `⟨key, value⟩`; returns `true` iff the key was not present.
    ///
    /// Out of line: the wrapper is small, and without the attribute it
    /// would carry its whole loop into every caller.
    #[inline(never)]
    pub fn insert(&mut self, key: &K, value: &V) -> bool {
        let Ok(inserted) = self.insert_driven(key, value, grow_blocking);
        inserted
    }

    /// Fallible [`GrowMapHandle::insert`]: when making room would require
    /// growing and the next generation cannot be allocated within a
    /// bounded number of retries, returns `Err(TryGrowError)` instead of
    /// blocking until memory appears.  The element is **not** inserted on
    /// error; the map stays valid and keeps serving its current
    /// generation.
    pub fn try_insert(&mut self, key: &K, value: &V) -> Result<bool, TryGrowError> {
        self.insert_driven(key, value, grow_or_fail)
    }

    /// The loop of [`GrowMapHandle::insert`] and
    /// [`GrowMapHandle::try_insert`]; `on_full` makes room in a full
    /// generation or gives up with its error.
    #[inline(always)]
    fn insert_driven<E>(
        &mut self,
        key: &K,
        value: &V,
        on_full: impl Fn(&GenericInner<K, V>, u64) -> Result<(), E>,
    ) -> Result<bool, E> {
        let probe = Probe::new(key);
        let mut pending = PendingCell::new();
        let result = loop {
            let Some((array, gate)) =
                Self::enter_write(&mut self.cached, &mut self.local, self.inner, &self.busy)
            else {
                Self::wait_for_growth(self.inner);
                continue;
            };
            let (capacity, version) = (array.capacity(), array.version);
            let outcome = if gate.sole() {
                array.upsert::<true, fn(&V) -> V>(&probe, value, None, &mut pending, &gate)
            } else {
                array.upsert::<false, fn(&V) -> V>(&probe, value, None, &mut pending, &gate)
            };
            drop(gate);
            match outcome {
                MapOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break Ok(true);
                }
                MapOutcome::Present => break Ok(false),
                MapOutcome::Full => {
                    if let Err(error) = on_full(self.inner, version) {
                        break Err(error);
                    }
                }
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                // Invariant: plain upsert never updates, runs no closure
                // and never reports an absent key as anything but an
                // insertion (or `Full`).
                MapOutcome::Updated(_) | MapOutcome::NotFound | MapOutcome::Revoked => {
                    unreachable!()
                }
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
    /// can lose an update.  `up` may be called more than once, and may
    /// open and use other handles on this map.  The `Clone`, `Eq` and
    /// `Hash` of `K` and `V` run inside the write and must not: a handle
    /// registered there waits for the write of a map's only handle
    /// (DESIGN.md §8).
    pub fn update<F: Fn(&V) -> V>(&mut self, key: &K, up: F) -> bool {
        let probe = Probe::new(key);
        let updated = loop {
            let Some((array, gate)) =
                Self::enter_write(&mut self.cached, &mut self.local, self.inner, &self.busy)
            else {
                Self::wait_for_growth(self.inner);
                continue;
            };
            let version = array.version;
            let outcome = if gate.sole() {
                array.update::<true, F>(&probe, &up, &gate)
            } else {
                gate.locked();
                array.update::<false, F>(&probe, &up, &gate)
            };
            drop(gate);
            match outcome {
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break true;
                }
                MapOutcome::NotFound => break false,
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                MapOutcome::Revoked => {}
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
    /// loop of the paper's introduction).  `up` as for
    /// [`GrowMapHandle::update`].  Out of line, as
    /// [`GrowMapHandle::insert`] is.
    #[inline(never)]
    pub fn insert_or_update<F: Fn(&V) -> V>(
        &mut self,
        key: &K,
        value: &V,
        up: F,
    ) -> InsertOrUpdate {
        let Ok(outcome) = self.insert_or_update_driven(key, value, up, grow_blocking);
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
        self.insert_or_update_driven(key, value, up, grow_or_fail)
    }

    /// The loop of [`GrowMapHandle::insert_or_update`] and
    /// [`GrowMapHandle::try_insert_or_update`]; `on_full` as in
    /// [`GrowMapHandle::insert_driven`].
    #[inline(always)]
    fn insert_or_update_driven<F: Fn(&V) -> V, E>(
        &mut self,
        key: &K,
        value: &V,
        up: F,
        on_full: impl Fn(&GenericInner<K, V>, u64) -> Result<(), E>,
    ) -> Result<InsertOrUpdate, E> {
        let probe = Probe::new(key);
        let mut pending = PendingCell::new();
        let result = loop {
            let Some((array, gate)) =
                Self::enter_write(&mut self.cached, &mut self.local, self.inner, &self.busy)
            else {
                Self::wait_for_growth(self.inner);
                continue;
            };
            let (capacity, version) = (array.capacity(), array.version);
            let outcome = if gate.sole() {
                array.upsert::<true, F>(&probe, value, Some(&up), &mut pending, &gate)
            } else {
                gate.locked();
                array.upsert::<false, F>(&probe, value, Some(&up), &mut pending, &gate)
            };
            drop(gate);
            match outcome {
                MapOutcome::Inserted => {
                    self.after_insert(capacity, version);
                    break Ok(InsertOrUpdate::Inserted);
                }
                MapOutcome::Updated(displaced) => {
                    self.retire_updated(displaced);
                    break Ok(InsertOrUpdate::Updated);
                }
                MapOutcome::Full => {
                    if let Err(error) = on_full(self.inner, version) {
                        break Err(error);
                    }
                }
                MapOutcome::Migrating => self.inner.help_or_wait(version),
                MapOutcome::Revoked => {}
                // Invariant: upsert reports an absent key by inserting it
                // (or `Full`), never as `NotFound` or `Present`.
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
            let Some((array, gate)) =
                Self::enter_write(&mut self.cached, &mut self.local, self.inner, &self.busy)
            else {
                Self::wait_for_growth(self.inner);
                continue;
            };
            let version = array.version;
            let outcome = if gate.sole() {
                array.erase::<true>(&probe)
            } else {
                array.erase::<false>(&probe)
            };
            drop(gate);
            match outcome {
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
    /// every [`QUIESCE_INTERVAL`] operations).  Nothing to announce where
    /// keys and values are inline.
    pub fn quiesce(&mut self) {
        if let Some(qsbr) = &self.qsbr {
            self.since_quiesce = 0;
            qsbr.quiescent();
        }
    }

    /// Approximate number of live elements: the shared count (§5.2) plus
    /// this handle's own buffered insertions, minus its buffered
    /// deletions.  Exact for a lone handle; with `p` handles it misses
    /// the others' buffers, fewer than `(p − 1) ·`
    /// [`flush_bound`](crate::count::flush_bound) operations.
    pub fn size_estimate(&mut self) -> usize {
        // Buffered counts of an already migrated generation are void: the
        // migration counted its elements exactly.  The refresh drops them.
        Self::array_ref(&mut self.cached, &mut self.local, self.inner);
        self.local.live_estimate(&self.inner.counts) as usize
    }

    /// Flush the handle's buffered counter contributions.
    pub fn flush_counts(&mut self) {
        self.local.flush(&self.inner.counts);
    }
}

impl<K: KeyRepr, V: ValueRepr> Drop for GrowMapHandle<'_, K, V> {
    fn drop(&mut self) {
        self.local.flush(&self.inner.counts);
        self.inner.unregister(&self.busy);
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
    use crate::cell::{frozen_flip, MARK_BIT};
    use crate::config::scale_to_capacity;
    use std::collections::{HashMap, HashSet};

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
        // Short keys (the key word itself) and long ones (stored out of line).
        let key = |i: u64| {
            if i.is_multiple_of(2) {
                format!("k-{i}")
            } else {
                format!("long-key-{i}")
            }
        };
        for i in 0..n {
            assert!(h.insert(&key(i), &[i, i + 1, i + 2, i + 3]));
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        for i in 0..n {
            assert_eq!(h.find(&key(i)), Some([i, i + 1, i + 2, i + 3]));
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

    /// A lone handle's estimate counts what it has buffered: exact after
    /// every insert and erase, across growth, with no flush.
    #[test]
    fn a_lone_handle_estimates_exactly_without_a_flush() {
        let map: GrowMap<u64, u64> = GrowMap::with_config(1 << 12, GrowConfig::default(), 2);
        let mut h = map.handle();
        let mut live = 0;
        for i in 0..20_000u64 {
            assert!(h.insert(&(i + 2), &i));
            live += 1;
            if i % 3 == 0 {
                assert!(h.erase(&(i / 3 + 2)));
                live -= 1;
            }
            assert_eq!(h.size_estimate(), live, "after key {i}");
        }
        assert!(map.migrations_completed() > 0, "never migrated");
    }

    /// Inline keys and values retire nothing, so their handles neither
    /// register with the QSBR domain nor count operations towards an
    /// announcement; boxed keys still do, and the erases of long ones (short
    /// keys retire nothing: `erasing_short_keys_retires_nothing`) drain.
    #[test]
    fn only_maps_that_retire_take_part_in_reclamation() {
        let words: GrowMap<u64, u64> = tiny();
        let mut h = words.handle();
        for i in 0..1000u64 {
            h.insert(&(i + 2), &i);
            h.insert_or_update(&(i + 2), &0, |v| v + 1);
            assert_eq!(h.find(&(i + 2)), Some(i + 1));
        }
        for i in 0..500u64 {
            assert!(h.erase(&(i + 2)));
        }
        h.quiesce();
        assert!(h.qsbr.is_none(), "an inline map's handle registered");
        assert_eq!(h.since_quiesce, 0, "an inline map's handle ticked");

        let strings: GrowMap<String, u64> = tiny();
        let mut h = strings.handle();
        assert!(h.qsbr.is_some());
        for i in 0..1000u64 {
            h.insert(&format!("long-key-{i}"), &i);
        }
        for i in 0..500u64 {
            assert!(h.erase(&format!("long-key-{i}")));
        }
        // The erases since the last announcement wait in limbo until the
        // next one, which ordinary operations bring.
        assert!(strings.pending_reclamation() > 0);
        for i in 0..QUIESCE_INTERVAL {
            h.find(&format!("long-key-{i}"));
        }
        assert_eq!(strings.pending_reclamation(), 0, "limbo did not drain");
    }

    /// The short-key twin: a map of `String` keys of at most seven bytes
    /// takes part in reclamation like any boxed-key map, but its erases put
    /// nothing into limbo, across growth and with no announcement between.
    #[test]
    fn erasing_short_keys_retires_nothing() {
        let strings: GrowMap<String, u64> = tiny();
        let mut h = strings.handle();
        assert!(h.qsbr.is_some());
        for i in 0..1000u64 {
            assert!(h.insert(&format!("k-{i}"), &i));
        }
        assert!(strings.migrations_completed() > 0, "never migrated");
        h.quiesce();
        for i in 0..500u64 {
            assert!(h.erase(&format!("k-{i}")));
            assert!(h.update(&format!("k-{}", i + 500), |v| v + 1));
        }
        assert_eq!(strings.pending_reclamation(), 0, "a short key was retired");
        for i in 0..1000u64 {
            let expected = (i >= 500).then_some(i + 1);
            assert_eq!(h.find(&format!("k-{i}")), expected);
        }
    }

    /// Keys one byte or one length apart on both sides of the short/long
    /// boundary are different keys, each with its own value, across growth
    /// and through erase.
    #[test]
    fn short_and_long_neighbours_are_distinct_keys() {
        let keys = [
            "",
            "\0",
            "a",
            "a\0",
            "\0a",
            "é",
            "abcdef",
            "abcdefg",
            "abcdefg\0",
            "abcdefgh",
            "abcdeé",
            "abcdefé",
            "\0\0\0\0\0\0\0",
            "\0\0\0\0\0\0\0\0",
        ]
        .map(String::from);
        let map: GrowMap<String, u64> = tiny();
        let mut h = map.handle();
        for (i, key) in keys.iter().enumerate() {
            assert!(h.insert(key, &(i as u64)), "{key:?}");
        }
        for i in 0..2_000u64 {
            h.insert(&format!("{i}"), &i);
        }
        assert!(map.migrations_completed() > 0, "never migrated");
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(h.find(key), Some(i as u64), "{key:?}");
        }
        for key in keys.iter().step_by(2) {
            assert!(h.erase(key), "{key:?}");
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(h.find(key), (i % 2 == 1).then_some(i as u64), "{key:?}");
        }
    }

    /// A short key's probe never matches a long key's packed reference, and
    /// a long key's probe never a short word, even where the short word's
    /// bits 48..62 spell the long key's signature.
    #[test]
    fn short_and_long_probes_never_cross() {
        // A long key whose signature is a seven-byte short word's bits
        // 48..62 (byte 6, the length 7, three zero bits) for an ASCII byte.
        let long = (0u64..)
            .map(|i| format!("a long key {i}"))
            .find(|k| signature_of(k.hash64()) >> 7 == 7 << 1)
            .expect("a signature in 0x700..0x780");
        let signature = signature_of(long.hash64());
        let short = format!("abcdef{}", char::from(signature as u8));
        let long_probe = Probe::new(&long);
        let short_probe = Probe::new(&short);
        let short_word = short_probe.want;
        let signature_bits = (1 << complex::SIGNATURE_BITS) - 1;
        assert_eq!(short_word >> POINTER_BITS & signature_bits, signature);
        let mut pending = PendingCell::<String, u64>::new();
        let packed = pending.key_word(&long_probe);
        assert_eq!(
            PendingCell::<String, u64>::new().key_word(&short_probe),
            short_word
        );
        // SAFETY: `packed` is the live allocation `pending` owns and frees.
        unsafe {
            assert!(long_probe.matches(packed) && short_probe.matches(short_word));
            assert!(
                !long_probe.matches(short_word),
                "a long probe matched a short word"
            );
            assert!(
                !short_probe.matches(packed),
                "a short probe matched a packed reference"
            );
        }
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

    // -- the insert window --------------------------------------------------

    /// A `GrowMap<K, u64>` of exactly `capacity` cells that does not grow
    /// below load 0.9.
    fn presized<K: KeyRepr>(capacity: usize, threads: usize) -> GrowMap<K, u64> {
        let grow = GrowConfig {
            grow_threshold: 0.9,
            ..GrowConfig::default()
        };
        let map = GrowMap::with_config(capacity / 2, grow, threads);
        assert_eq!(map.current_capacity(), capacity);
        map
    }

    /// The `n` smallest keys whose home is one of the cells `homes`.
    fn keys_homed_in(capacity: usize, homes: std::ops::Range<usize>, n: usize) -> Vec<u64> {
        homed_keys(capacity, homes, n, |i| i + 2)
    }

    /// The first `n` of `key(0), key(1), …` whose home is one of the cells
    /// `homes`.
    fn homed_keys<K: KeyRepr>(
        capacity: usize,
        homes: std::ops::Range<usize>,
        n: usize,
        key: impl Fn(u64) -> K,
    ) -> Vec<K> {
        (0u64..)
            .map(key)
            .filter(|k| homes.contains(&scale_to_capacity(Probe::new(k).hash, capacity)))
            .take(n)
            .collect()
    }

    /// Every cell of the current generation as `(key word, value word)`.
    fn cell_words(map: &GrowMap<u64, u64>) -> Vec<(u64, u64)> {
        map.inner
            .current
            .with_current(|a| a.cells.iter().map(Cell::read).collect())
    }

    /// Scan the array: no cell is marked, every live key sits at most once
    /// with its value and with no empty cell between its home and its cell
    /// (the linear-probing invariant), the live keys are exactly `live`,
    /// and each of them is found.
    fn assert_probing_invariant(map: &GrowMap<u64, u64>, live: &HashMap<u64, u64>) {
        let cells = cell_words(map);
        let mask = cells.len() - 1;
        let mut seen = HashSet::new();
        for (at, &(k, v)) in cells.iter().enumerate() {
            assert!(!is_marked(k), "cell {at} is marked");
            if k <= DEL_KEY {
                continue;
            }
            assert!(seen.insert(k), "key {k} is stored twice");
            assert_eq!(live.get(&k), Some(&v), "key {k} in cell {at}");
            let home = scale_to_capacity(hash_key(k), cells.len());
            let mut i = home;
            while i != at {
                assert_ne!(
                    cells[i].0, EMPTY_KEY,
                    "empty cell {i} between key {k}'s home {home} and its cell {at}"
                );
                i = (i + 1) & mask;
            }
        }
        assert_eq!(seen.len(), live.len(), "live keys missing from the array");
        let mut h = map.handle();
        for (k, v) in live {
            assert_eq!(h.find(k), Some(*v), "key {k}");
        }
    }

    /// Inserting every live key again returns `false` and stores nothing.
    fn assert_reinserts_store_nothing(map: &GrowMap<u64, u64>, live: &HashMap<u64, u64>) {
        let before = cell_words(map);
        let mut h = map.handle();
        for k in live.keys() {
            assert!(!h.insert(k, &0), "key {k} inserted twice");
        }
        assert!(cell_words(map) == before, "a present key's insert wrote");
    }

    /// Presized tables of 8 to 2¹² cells filled to load 0.6 through the
    /// window: a crowd of keys homed in the last three cells makes windows
    /// wrap, and an erase phase leaves tombstones inside windows.  After
    /// each phase the linear-probing invariant holds and present keys
    /// insert nothing.
    #[test]
    fn the_insert_window_keeps_linear_probing_across_wraps_and_tombstones() {
        for capacity in (3..=12).map(|b| 1usize << b) {
            let map = presized(capacity, 2);
            let mut h = map.handle();
            let mut live = HashMap::new();
            let full = capacity * 6 / 10;
            let crowd = keys_homed_in(
                capacity,
                capacity - 3..capacity,
                (capacity / 8).clamp(3, 16),
            );
            let mut others = (2u64..).filter(|k| !crowd.contains(k));
            let insert = |h: &mut GrowMapHandle<'_, u64, u64>, live: &mut HashMap<_, _>, k| {
                assert!(h.insert(&k, &(k * 7)), "key {k} was absent");
                live.insert(k, k * 7);
            };
            for &k in &crowd {
                insert(&mut h, &mut live, k);
            }
            while live.len() < capacity * 3 / 10 {
                insert(&mut h, &mut live, others.next().unwrap());
            }
            assert_probing_invariant(&map, &live);
            assert_reinserts_store_nothing(&map, &live);

            let mut erased: Vec<u64> = live
                .keys()
                .copied()
                .filter(|&k| k % 3 == 0 || k == crowd[0])
                .collect();
            erased.sort_unstable();
            for k in &erased {
                assert!(h.erase(k));
                live.remove(k);
            }
            assert_probing_invariant(&map, &live);

            // Tombstones fill cells, so the load counts them.
            let mut used = live.len() + erased.len();
            for &k in erased.iter().take(2) {
                insert(&mut h, &mut live, k);
                used += 1;
            }
            while used < full {
                insert(&mut h, &mut live, others.next().unwrap());
                used += 1;
            }
            assert_probing_invariant(&map, &live);
            assert_reinserts_store_nothing(&map, &live);
            assert_eq!(map.migrations_completed(), 0, "{capacity} cells grew");
        }
    }

    // -- the find walk ------------------------------------------------------

    /// Fill presized maps of 8 to 2^12 cells to load 0.6, a crowd homed in
    /// the last three cells first, so that the last cell is taken and a
    /// probe from it wraps to cell 0, then erase every third key.  Every
    /// live key is found with its value; every erased key, and every key
    /// never inserted (four of them homed among the crowd), reads `None`.
    fn find_walks_past_tombstones_and_across_the_wrap<K: KeyRepr + std::fmt::Debug>(
        key: impl Fn(u64) -> K + Copy,
    ) {
        for capacity in (3..=12).map(|b| 1usize << b) {
            let map = presized::<K>(capacity, 2);
            let mut h = map.handle();
            let homes = capacity - 3..capacity;
            let mut keys = homed_keys(capacity, homes, (capacity / 8).clamp(3, 16) + 4, key);
            let mut absent = keys.split_off(keys.len() - 4);
            let mut others: Vec<K> = (0u64..)
                .map(key)
                .filter(|k| !keys.contains(k) && !absent.contains(k))
                .take(capacity * 6 / 10 - keys.len() + 64)
                .collect();
            absent.extend(others.split_off(others.len() - 64));
            keys.extend(others);
            for (i, k) in keys.iter().enumerate() {
                assert!(h.insert(k, &(i as u64 * 7)), "{k:?} was absent");
            }
            for k in keys.iter().step_by(3) {
                assert!(h.erase(k), "{k:?} was present");
            }
            for (i, k) in keys.iter().enumerate() {
                let value = (i % 3 != 0).then_some(i as u64 * 7);
                assert_eq!(h.find(k), value, "{k:?} in {capacity} cells");
            }
            for k in &absent {
                assert_eq!(h.find(k), None, "{k:?} in {capacity} cells");
            }
            assert_eq!(map.migrations_completed(), 0, "{capacity} cells grew");
        }
    }

    #[test]
    fn a_find_walks_past_tombstones_and_across_the_wrap() {
        find_walks_past_tombstones_and_across_the_wrap(|i| i + 2);
        find_walks_past_tombstones_and_across_the_wrap(mixed_string_key);

        // A long key whose hash has no signature bits wants the smallest
        // signature, 1: it too walks past a tombstone at its home.
        let low = (0u64..)
            .map(|i| format!("long-key-low-{i}"))
            .find(|k| k.hash64() & ((1 << complex::SIGNATURE_BITS) - 1) == 0)
            .expect("a hash with no signature bits");
        let capacity = 64;
        let home = scale_to_capacity(low.hash64(), capacity);
        let map = presized::<String>(capacity, 2);
        let mut h = map.handle();
        let before = homed_keys(capacity, home..home + 1, 1, |i| format!("k{i}"));
        assert!(h.insert(&before[0], &1) && h.erase(&before[0]));
        assert_eq!(h.find(&low), None);
        assert!(h.insert(&low, &2));
        assert_eq!(h.find(&low), Some(2));
    }

    /// A generation whose every cell is a tombstone, plain or marked, has no
    /// empty cell to end a miss: the probe limit ends it, with `None`.
    #[test]
    fn a_find_over_a_generation_of_tombstones_ends() {
        for capacity in [8, 2 * PROBE_LIMIT] {
            for tombstone in [DEL_KEY, DEL_KEY | MARK_BIT] {
                let words = GenericArray::<u64, u64>::new(capacity, 1);
                let strings = GenericArray::<String, u64>::new(capacity, 1);
                for cell in words.cells.iter().chain(strings.cells.iter()) {
                    cell.store_unsynchronized(tombstone, 0);
                }
                for i in 0..16 {
                    assert_eq!(words.find(&Probe::new(&(i + 2))), None);
                    assert_eq!(strings.find(&Probe::new(&mixed_string_key(i))), None);
                }
            }
        }
    }

    /// The array takes a home cell by shift; it must be the scaled cell
    /// (§5.3.1) that the copier's Lemma 1 ranges and `keys_homed_in` use.
    #[test]
    fn the_home_cell_by_shift_is_the_scaled_cell() {
        for bits in 1..=12 {
            let array = GenericArray::<u64, u64>::new(1 << bits, 1);
            for k in (2u64..2000).chain([u64::MAX >> 1, 1 << 62]) {
                let hash = hash_key(k);
                assert_eq!(array.home_cell(hash), scale_to_capacity(hash, 1 << bits));
            }
        }
    }

    /// A marked cell ends the window: an insert whose first ending cell is
    /// marked reports `Migrating` even with an empty cell right behind it,
    /// and a window with no ending cell hands the probe on past itself.
    #[test]
    fn a_marked_cell_in_the_window_reports_migrating() {
        let capacity = 64;
        let homed = keys_homed_in(capacity, 10..11, 3);
        let array = GenericArray::<u64, u64>::new(capacity, 1);
        let gate = LockedGate::new();
        let insert = |k: u64| {
            let mut pending = PendingCell::new();
            array.upsert::<false, fn(&u64) -> u64>(
                &Probe::new(&k),
                &k,
                None,
                &mut pending,
                &gate.guard(),
            )
        };
        assert!(matches!(insert(homed[0]), MapOutcome::Inserted));
        assert!(matches!(insert(homed[1]), MapOutcome::Inserted));
        freeze_cell::<u64>(&array.cells[11]);
        assert!(matches!(insert(homed[2]), MapOutcome::Migrating));
        assert_eq!(array.cells[12].load_key(), EMPTY_KEY);

        // Cells 20..=22 hold other keys and 23 a tombstone: the window ends
        // nowhere, and the loop claims cell 24.
        let behind = keys_homed_in(capacity, 20..21, 5);
        for &k in &behind[..4] {
            assert!(matches!(insert(k), MapOutcome::Inserted));
        }
        assert!(matches!(
            array.erase::<false>(&Probe::new(&behind[3])),
            MapErase::Erased { .. }
        ));
        assert!(matches!(insert(behind[4]), MapOutcome::Inserted));
        assert_eq!(array.cells[24].load_key(), behind[4]);
    }

    /// Two threads insert the same keys, in the same order, into a presized
    /// map between loads 0.3 and 0.6: each key is inserted exactly once,
    /// and the quiescent size is exact.
    #[test]
    fn racing_inserts_of_the_same_keys_have_one_winner_each() {
        let capacity = 1 << 14;
        for round in 0..4u64 {
            let map = presized(capacity, 2);
            let mut live = HashMap::new();
            let mut h = map.handle();
            let base = 2 + round * capacity as u64;
            for k in base..base + (capacity * 3 / 10) as u64 {
                assert!(h.insert(&k, &k));
                live.insert(k, k);
            }
            let contested: Vec<u64> = (0..(capacity * 3 / 10) as u64)
                .map(|i| hash_key(i + round) >> 2 | 1 << 60)
                .collect();
            // The racers meet before every key, so that its two claims
            // overlap as often as the CPUs allow.
            let arrived = AtomicU64::new(0);
            let wins: Vec<Vec<bool>> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..2u64)
                    .map(|t| {
                        let (map, contested, arrived) = (&map, &contested, &arrived);
                        s.spawn(move || {
                            let mut h = map.handle();
                            let mut met = 0;
                            let mut inserted = Vec::with_capacity(contested.len());
                            for k in contested {
                                met += 2;
                                arrived.fetch_add(1, Ordering::AcqRel);
                                let mut spins = 0u32;
                                while arrived.load(Ordering::Acquire) < met {
                                    spins += 1;
                                    if spins.is_multiple_of(64) {
                                        std::thread::yield_now();
                                    } else {
                                        std::hint::spin_loop();
                                    }
                                }
                                inserted.push(h.insert(k, &t));
                            }
                            inserted
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            for (i, k) in contested.iter().enumerate() {
                assert!(
                    wins[0][i] != wins[1][i],
                    "key {k}: wins {} and {}",
                    wins[0][i],
                    wins[1][i]
                );
                live.insert(*k, u64::from(wins[1][i]));
            }
            assert_eq!(map.migrations_completed(), 0);
            assert_eq!(map.size_exact_quiescent(), live.len());
            assert_probing_invariant(&map, &live);
        }
    }

    // -- the block copier ---------------------------------------------------

    /// A source generation for the copier tests: `keys(i)` for `i` in
    /// `0..inserted` inserted with value `i`, then every `erase_every`-th
    /// of them erased (0: none).  Returns the array and its live pairs.
    /// What a locked write passes the array's operations, for calling them
    /// directly: the guard of a write on the locked path.
    struct LockedGate<K: KeyRepr, V: ValueRepr> {
        busy: BusyFlag,
        generations: VersionedArc<GenericArray<K, V>>,
    }

    impl<K: KeyRepr, V: ValueRepr> LockedGate<K, V> {
        fn new() -> Self {
            LockedGate {
                busy: BusyFlag(AtomicU8::new(BUSY_LOCKED)),
                generations: VersionedArc::new(GenericArray::new(2, 1)),
            }
        }

        fn guard(&self) -> WriteGuard<'_, K, V> {
            WriteGuard {
                busy: &self.busy,
                generations: &self.generations,
                word: 1,
            }
        }
    }

    fn copier_source<K: KeyRepr>(
        capacity: usize,
        inserted: u64,
        erase_every: u64,
        keys: fn(u64) -> K,
    ) -> (GenericArray<K, u64>, Vec<(K, u64)>) {
        let array = GenericArray::new(capacity, 1);
        let gate = LockedGate::new();
        let mut live = Vec::new();
        for i in 0..inserted {
            let key = keys(i);
            let mut pending = PendingCell::new();
            let outcome = array.upsert::<false, fn(&u64) -> u64>(
                &Probe::new(&key),
                &i,
                None,
                &mut pending,
                &gate.guard(),
            );
            assert!(matches!(outcome, MapOutcome::Inserted));
            if erase_every != 0 && i % erase_every == 0 {
                let MapErase::Erased { key_word, .. } = array.erase::<false>(&Probe::new(&key))
                else {
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
        if !K::INLINE && !complex::is_short(word) {
            // SAFETY: single-threaded test code; the word was published by
            // `copier_source` and is freed exactly once.
            unsafe { K::free_stored(stored_ptr(word), Sealed) };
        }
    }

    fn word_key(i: u64) -> u64 {
        hash_key(i) >> 2 | 2
    }

    /// Run `body` in each way a migration can copy: exclusive, then
    /// marking.
    fn on_each_copy_mode(body: impl Fn(MigrationMode)) {
        for mode in [MigrationMode::Exclusive, MigrationMode::Marking] {
            body(mode);
        }
    }

    /// Copy every block of a fresh source `copies` times from each of
    /// `threads` threads at once.  Every complete copy of a block must
    /// report the same `live` count, and the blocks' counts sum to the live
    /// elements; the target must hold exactly them.
    fn copy_and_check<K: KeyRepr>(
        source: (GenericArray<K, u64>, Vec<(K, u64)>),
        target_capacity: usize,
        block: usize,
        copies: usize,
        threads: usize,
        mode: MigrationMode,
    ) {
        let (src, live) = source;
        let dst = GenericArray::<K, u64>::new(target_capacity, 2);
        let blocks = src.capacity().div_ceil(block);
        let counted: Vec<std::sync::Mutex<Option<usize>>> =
            (0..blocks).map(|_| std::sync::Mutex::new(None)).collect();
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for (b, begin) in (0..src.capacity()).step_by(block).enumerate() {
                        let end = (begin + block).min(src.capacity());
                        for _ in 0..copies {
                            let copy =
                                migrate_generic_block(&src, &dst, begin, end, mode, || Some(()));
                            assert!(copy.complete);
                            let mut seen = lock(&counted[b]);
                            assert_eq!(*seen.get_or_insert(copy.live), copy.live, "block {b}");
                            if mode == MigrationMode::Exclusive {
                                assert_eq!(copy.chunks_locked, 0);
                            }
                        }
                    }
                });
            }
        });
        let total: usize = counted.iter().map(|c| lock(c).unwrap()).sum();
        assert_eq!(total, live.len());
        assert_eq!(dst.scan_live(), live.len(), "duplicates or losses");
        let marked = src.cells.iter().filter(|c| is_marked(c.load_key())).count();
        match mode {
            MigrationMode::Exclusive => assert_eq!(marked, 0),
            MigrationMode::Marking => assert_eq!(marked, src.capacity()),
        }
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
    /// target contents and an exact count, whatever the block size, whatever
    /// the block holds and whichever way the source was read.
    fn copier_is_idempotent_for<K: KeyRepr>(keys: fn(u64) -> K) {
        // (source cells, inserted, erase every, target cells, block size)
        let shapes = [
            (1024, 600, 0, 2048, 100), // blocks that are no multiple of the chunk
            (1024, 600, 0, 2048, 64),
            (1024, 600, 0, 2048, 1),
            (1024, 600, 0, 4096, 128), // growth by four
            (64, 40, 0, 128, 256),     // a table smaller than one block
            (64, 64, 0, 128, 37),      // every cell full: one cluster, no empty cell
            (256, 0, 0, 256, 100),     // every cell empty
            (1024, 600, 2, 1024, 100), // cleanup: half the cells are tombstones
            (1024, 600, 1, 64, 300),   // shrink: nothing but tombstones
        ];
        on_each_copy_mode(|mode| {
            for (cells, inserted, erase_every, target, block) in shapes {
                for (copies, threads) in [(1, 1), (3, 1), (1, 2), (2, 2)] {
                    copy_and_check(
                        copier_source(cells, inserted, erase_every, keys),
                        target,
                        block,
                        copies,
                        threads,
                        mode,
                    );
                }
            }
        });
    }

    #[test]
    fn block_copies_are_idempotent_with_inline_keys() {
        copier_is_idempotent_for::<u64>(word_key);
    }

    /// Every other key short: `k0`…`k999` are its own short word,
    /// `long-key-…` a packed reference.
    fn mixed_string_key(i: u64) -> String {
        if i.is_multiple_of(2) {
            format!("k{i}")
        } else {
            format!("long-key-{i}")
        }
    }

    #[test]
    fn block_copies_are_idempotent_with_string_keys() {
        copier_is_idempotent_for::<String>(mixed_string_key);
    }

    /// The blocks' ranges tile the table — every source cell lies in exactly
    /// one block's range — and each begins one past an empty cell: at any
    /// load, for any block size, with the wrap-around cluster, and with no
    /// empty cell at all (the first block takes everything).
    #[test]
    fn cluster_ranges_tile_the_source() {
        for (cells, inserted, block) in [
            (1024, 600, 100),
            (1024, 900, 64),
            (1024, 1000, 7),
            (64, 64, 16),
            (64, 63, 16),
            (256, 0, 32),
        ] {
            let (src, _) = copier_source::<u64>(cells, inserted, 0, word_key);
            let mut covered = vec![0u32; cells];
            for begin in (0..cells).step_by(block) {
                let end = (begin + block).min(cells);
                let (from, to) = cluster_range(&src, begin, end, MigrationMode::Exclusive);
                assert!(from <= to && to - from <= cells, "{from}..{to}");
                if from < to && to - from < cells {
                    let before = (from + cells - 1) % cells;
                    assert_eq!(src.cells[before].load_key(), EMPTY_KEY);
                    assert_eq!(src.cells[(to - 1) % cells].load_key(), EMPTY_KEY);
                }
                for i in from..to {
                    covered[i % cells] += 1;
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "{cells}/{inserted}/{block}"
            );
        }
    }

    /// A copier turned away by the placement gate places nothing more and
    /// reports an incomplete copy; a second copy completes the block.  The
    /// block is one in the middle of the source, whose range starts past
    /// the cluster that runs into it.
    #[test]
    fn a_copier_without_its_lease_stops_and_a_re_copy_completes() {
        on_each_copy_mode(|mode| {
            let (src, _) = copier_source::<u64>(1024, 600, 0, word_key);
            let (begin, end) = (256, 768);
            let (from, to) = cluster_range(&src, begin, end, MigrationMode::Exclusive);
            assert!(begin <= from && to < src.capacity());
            let in_block = (from..to)
                .filter(|&i| src.cells[i].load_key() > DEL_KEY)
                .count();
            let dst = GenericArray::<u64, u64>::new(2048, 2);
            let mut asked = 0;
            let first = migrate_generic_block(&src, &dst, begin, end, mode, || {
                asked += 1;
                (asked <= 3).then_some(()) // lost after three chunks
            });
            assert_eq!(asked, 4);
            assert!(!first.complete);
            assert!(dst.scan_live() <= first.live && first.live < in_block);
            let second = migrate_generic_block(&src, &dst, begin, end, mode, || Some(()));
            assert!(second.complete);
            assert_eq!(second.live, in_block);
            assert_eq!(dst.scan_live(), in_block);
            match mode {
                MigrationMode::Exclusive => {
                    assert_eq!(first.chunks_locked + second.chunks_locked, 0)
                }
                MigrationMode::Marking => {
                    // A chunk is frozen before the gate is asked for it.
                    assert_eq!(first.chunks_locked, 4);
                    assert_eq!(second.chunks_locked, (to - from).div_ceil(COPY_CHUNK));
                }
            }
        });
    }

    /// An exclusive copy reads what a marking copy freezes and places it
    /// into the same cells, block by block and in any order of the blocks.
    /// It leaves the source as it was; a marking copy leaves every source
    /// cell marked and, the values being inline, its value word flipped.
    fn copies_place_alike_for<K: KeyRepr>(keys: fn(u64) -> K) {
        let words = |array: &GenericArray<K, u64>| -> Vec<(u64, u64)> {
            array.cells.iter().map(Cell::read).collect()
        };
        // One source for every copy, so that boxed keys' packed words are
        // the same in every target; exclusive copies run first.
        let (src, _) = copier_source::<K>(1024, 700, 5, keys);
        let original = words(&src);
        let copy = |mode: MigrationMode, reverse: bool| {
            let dst = GenericArray::<K, u64>::new(2048, 2);
            let mut starts: Vec<usize> = (0..1024).step_by(96).collect();
            if reverse {
                starts.reverse();
            }
            for begin in starts {
                let end = (begin + 96).min(1024);
                assert!(migrate_generic_block(&src, &dst, begin, end, mode, || Some(())).complete);
            }
            words(&dst)
        };
        let exclusive = copy(MigrationMode::Exclusive, false);
        on_each_copy_mode(|mode| {
            for reverse in [false, true] {
                assert!(
                    copy(mode, reverse) == exclusive,
                    "{mode:?}, reverse {reverse}"
                );
            }
            let left = original.iter().map(|&(k, v)| match mode {
                MigrationMode::Exclusive => (k, v),
                MigrationMode::Marking => (k | MARK_BIT, v ^ frozen_flip()),
            });
            assert!(words(&src).into_iter().eq(left), "{mode:?}");
        });
        for (k, _) in original {
            if k > DEL_KEY {
                free_key_word::<K>(k);
            }
        }
    }

    #[test]
    fn exclusive_and_marking_copies_place_alike() {
        copies_place_alike_for::<u64>(word_key);
        copies_place_alike_for::<String>(mixed_string_key);
    }

    /// The freeze against live writers, through the whole copier: two
    /// threads bump values of a one-chunk source by `cas_pair` (the shape
    /// of inserts, erases and boxed-value updates) while a third copies it.
    /// Each value the freeze placed is its cell's final value, unflipped,
    /// and no CAS succeeds once the copy has returned.
    #[test]
    fn freeze_races_cas_pair_writers_and_copies_the_final_values() {
        for round in 0..200u64 {
            let (src, live) = copier_source::<u64>(COPY_CHUNK, 40, 0, word_key);
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
                    let copy = migrate_generic_block(
                        &src,
                        &dst,
                        0,
                        COPY_CHUNK,
                        MigrationMode::Marking,
                        || Some(()),
                    );
                    copied.store(true, Ordering::SeqCst);
                    assert_eq!(copy.live, live.len());
                });
            });
            assert_eq!(late_successes.load(Ordering::SeqCst), 0);
            for cell in src.cells.iter() {
                let (k, flipped) = cell.read();
                let v = flipped ^ frozen_flip();
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

    /// The flipping freeze against value-word updates, through the whole
    /// copier: two threads bump the values of a one-chunk source through
    /// `GenericArray::upsert` — key, value, key, value CAS — while a third
    /// copies it marking.  No update succeeds once the copy has returned,
    /// and the target holds every update that succeeded.
    #[test]
    fn value_word_updates_racing_a_marking_copy_lose_nothing() {
        let bump = |v: &u64| v + 1;
        for round in 0..200u64 {
            let (src, live) = copier_source::<u64>(COPY_CHUNK, 40, 0, word_key);
            let dst = GenericArray::<u64, u64>::new(2 * COPY_CHUNK, 2);
            let copied = std::sync::atomic::AtomicBool::new(false);
            let late_successes = AtomicU64::new(0);
            let bumps = AtomicU64::new(0);
            // Successful updates per key, by either writer.
            let landed: Vec<AtomicU64> = live.iter().map(|_| AtomicU64::new(0)).collect();
            std::thread::scope(|s| {
                for writer in 0..2usize {
                    let (src, live, landed) = (&src, &live, &landed);
                    let (copied, late_successes, bumps) = (&copied, &late_successes, &bumps);
                    s.spawn(move || {
                        let mut pending = PendingCell::new();
                        let gate = LockedGate::new();
                        let gate = gate.guard();
                        'bumping: loop {
                            for (i, (key, _)) in live.iter().enumerate().skip(writer).step_by(2) {
                                let after_copy = copied.load(Ordering::SeqCst);
                                let probe = Probe::new(key);
                                match src.upsert::<false, _>(
                                    &probe,
                                    &0,
                                    Some(&bump),
                                    &mut pending,
                                    &gate,
                                ) {
                                    MapOutcome::Updated(None) => {
                                        landed[i].fetch_add(1, Ordering::Relaxed);
                                        bumps.fetch_add(1, Ordering::Relaxed);
                                        if after_copy {
                                            late_successes.fetch_add(1, Ordering::SeqCst);
                                        }
                                    }
                                    MapOutcome::Migrating => break 'bumping,
                                    _ => panic!("a present key is updated or migrating"),
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
                    let copy = migrate_generic_block(
                        &src,
                        &dst,
                        0,
                        COPY_CHUNK,
                        MigrationMode::Marking,
                        || Some(()),
                    );
                    copied.store(true, Ordering::SeqCst);
                    assert_eq!(copy.live, live.len());
                });
            });
            assert_eq!(late_successes.load(Ordering::SeqCst), 0);
            for ((key, value), landed) in live.iter().zip(&landed) {
                let expected = value + landed.load(Ordering::Relaxed);
                assert_eq!(dst.find(&Probe::new(key)), Some(expected), "lost an update");
                assert_eq!(src.find(&Probe::new(key)), Some(expected), "frozen source");
            }
        }
    }

    /// A map whose values are boxed keeps the `fetch_or` freeze: a marking
    /// copy marks each source cell and leaves its value word — a pointer —
    /// as it was, and the target finds every value.
    #[test]
    fn boxed_values_freeze_without_the_flip() {
        let src = GenericArray::<u64, [u64; 2]>::new(256, 1);
        let gate = LockedGate::new();
        let keys: Vec<u64> = (0..100).map(word_key).collect();
        for (i, key) in (0u64..).zip(&keys) {
            let mut pending = PendingCell::new();
            let outcome = src.upsert::<false, fn(&[u64; 2]) -> [u64; 2]>(
                &Probe::new(key),
                &[i, i + 1],
                None,
                &mut pending,
                &gate.guard(),
            );
            assert!(matches!(outcome, MapOutcome::Inserted));
        }
        let before: Vec<(u64, u64)> = src.cells.iter().map(Cell::read).collect();
        let dst = GenericArray::<u64, [u64; 2]>::new(512, 2);
        let copy = migrate_generic_block(&src, &dst, 0, 256, MigrationMode::Marking, || Some(()));
        assert_eq!(copy.live, keys.len());
        let after = src.cells.iter().map(Cell::read);
        assert!(after.eq(before.iter().map(|&(k, v)| (k | MARK_BIT, v))));
        for (i, key) in (0u64..).zip(&keys) {
            assert_eq!(dst.find(&Probe::new(key)), Some([i, i + 1]));
        }
        for &(k, v) in &before {
            if k > DEL_KEY {
                // SAFETY: single-threaded test code; each published box is
                // freed once, here.
                unsafe { drop(Box::from_raw(v as *mut [u64; 2])) };
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
