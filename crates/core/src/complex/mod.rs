//! Complex (non-word) key support via indirection (paper §5.7).
//!
//! The fast tables of this crate restrict keys and values to machine words
//! so that cells can be manipulated with double-word CAS.  §5.7 outlines
//! how to lift the restriction for keys: store a *reference* to the actual
//! key in the key word and put a **signature** — spare bits of the master
//! hash function — into the unused high bits of the pointer, so that most
//! failed comparisons are decided without dereferencing.
//!
//! Two concrete tables make that outline real for string keys:
//!
//! * [`StringKeyTable`] — a **bounded** lock-free linear-probing table
//!   (the folklore baseline of the complex-key world).  Its cells are two
//!   separate atomic words, so insertion publishes with the folly-style
//!   `INFLIGHT` discipline: the value is written *before* the key
//!   reference becomes visible, and probes spin out the (very short)
//!   in-flight window.  A `find` can therefore never observe an
//!   unpublished value and a concurrent `fetch_add` can never lose its
//!   delta to a late value store.
//! * [`GrowingStringTable`] — the growing, deleting subsystem: 16-byte
//!   [`crate::cell::Cell`]s (key reference + counter) published with one
//!   double-word CAS, transparent growth through mark-frozen rehash
//!   migrations that re-derive each cell from the master hash stored in
//!   the key allocation, and deletion whose key-allocation free is
//!   deferred to a QSBR domain ([`growt_reclaim::QsbrDomain`]) so no
//!   concurrent reader can dereference freed key bytes.
//!
//! ## Key reference layout
//!
//! A published key word packs `signature << 48 | pointer`:
//!
//! * bits 0..48 — the virtual address of the key allocation (x86-64 /
//!   AArch64 user-space pointers fit in 48 bits; asserted on allocation);
//! * bits 48..63 — a 15-bit signature taken from the master hash, never 0
//!   so a published word is always `≥ 2⁴⁸`;
//! * bit 63 — kept clear, so the growing table can reuse the word-table
//!   sentinels unchanged: [`crate::cell::EMPTY_KEY`],
//!   [`crate::cell::DEL_KEY`] and the migration [`crate::cell::MARK_BIT`]
//!   all live outside the packed range.
//!
//! The key allocation itself is a length-prefixed byte buffer that also
//! stores the full 64-bit master hash: `⟨hash: u64, len: u64, bytes⟩`.
//! Storing the hash is what lets a migration *re-derive the target cell*
//! of a reference without re-hashing (or even reading) the string bytes,
//! and lets probes skip the byte comparison whenever the signature
//! already disagrees.  `GrowMap<String, _>` ([`crate::generic`]) stores
//! its keys in the same format through the same functions, so all three
//! string-keyed tables share one hash and one allocation per key.

mod bounded;
mod growing;

pub use bounded::StringKeyTable;
pub use growing::{GrowingStringTable, StringHandle, StringMigrationStats};

use crate::config::hash_bytes;

/// Number of low bits of a packed key word that hold the pointer.
pub(crate) const POINTER_BITS: u32 = 48;
const POINTER_MASK: u64 = (1 << POINTER_BITS) - 1;
/// 15-bit signature (bit 63 stays clear for the migration mark bit).
const SIGNATURE_MASK: u64 = 0x7FFF;

/// The **master hash** of §5.7 for string keys: [`hash_bytes`] over the
/// UTF-8 bytes.  The scaled top bits choose the cell, the low bits provide
/// the signature, and the full value is stored in the key allocation so
/// migrations can re-derive the cell without touching the string bytes.
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Signature of a master hash: low bits (the cell position comes from the
/// scaled high bits, so signature and position are nearly independent),
/// never 0 so a packed word is never mistaken for a sentinel.
#[inline]
pub(crate) fn signature_of(hash: u64) -> u64 {
    (hash & SIGNATURE_MASK).max(1)
}

/// Pack a signature and a key-allocation pointer into one key word.
#[inline]
pub(crate) fn pack_keyref(signature: u64, ptr: *const u8) -> u64 {
    let addr = ptr as u64;
    assert_eq!(
        addr & !POINTER_MASK,
        0,
        "key allocation outside the 48-bit address range"
    );
    (signature << POINTER_BITS) | addr
}

/// Split a packed key word into `(signature, pointer)`.
#[inline]
pub(crate) fn decode_keyref(keyref: u64) -> (u64, *const u8) {
    (keyref >> POINTER_BITS, (keyref & POINTER_MASK) as *const u8)
}

/// Allocate a key as a `⟨hash, len, bytes⟩` buffer and leak it; the raw
/// pointer is what gets packed into the table.  Freed with [`free_key`].
pub(crate) fn allocate_key(key: &str, hash: u64) -> *const u8 {
    let mut buf = Vec::with_capacity(16 + key.len());
    buf.extend_from_slice(&hash.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u64).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    let boxed: Box<[u8]> = buf.into_boxed_slice();
    Box::into_raw(boxed) as *const u8
}

/// Master hash stored in the allocation header.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed.
#[inline]
pub(crate) unsafe fn stored_hash(ptr: *const u8) -> u64 {
    unsafe { u64::from_le_bytes(std::ptr::read(ptr as *const [u8; 8])) }
}

/// Key bytes stored in the allocation.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed; the
/// returned slice must not outlive the allocation.
#[inline]
pub(crate) unsafe fn stored_bytes<'a>(ptr: *const u8) -> &'a [u8] {
    unsafe {
        let len = u64::from_le_bytes(std::ptr::read(ptr.add(8) as *const [u8; 8])) as usize;
        std::slice::from_raw_parts(ptr.add(16), len)
    }
}

/// Compare the stored key behind a packed word against `key`, using the
/// signature as the cheap §5.7 pre-filter: a mismatching signature decides
/// the comparison without dereferencing the pointer.
///
/// # Safety
///
/// `keyref` must be a packed word whose allocation is still alive.
#[inline]
unsafe fn key_matches(keyref: u64, signature: u64, key: &str) -> bool {
    let (stored_sig, ptr) = decode_keyref(keyref);
    if stored_sig != signature {
        return false;
    }
    unsafe { stored_bytes(ptr) == key.as_bytes() }
}

/// Free a key allocation created by [`allocate_key`].
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`], must not have been freed, and no
/// other thread may still dereference it (which is exactly what the
/// growing table's QSBR domain guarantees before calling this).
pub(crate) unsafe fn free_key(ptr: *const u8) {
    unsafe {
        let len = u64::from_le_bytes(std::ptr::read(ptr.add(8) as *const [u8; 8])) as usize;
        let slice = std::ptr::slice_from_raw_parts_mut(ptr as *mut u8, len + 16);
        drop(Box::from_raw(slice));
    }
}

/// Owning wrapper of one key allocation: dropping it frees the buffer.
/// This is what gets retired into the QSBR domain on deletion — dropping
/// the deferred object (whether through reclamation or domain teardown)
/// releases the memory exactly once.
struct KeyAllocation(*const u8);

// SAFETY: the allocation is plain heap memory; the wrapper is only ever
// dropped when no thread can still dereference the pointer.
unsafe impl Send for KeyAllocation {}

impl Drop for KeyAllocation {
    fn drop(&mut self) {
        // SAFETY: by construction the wrapper holds the only free right.
        unsafe { free_key(self.0) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_and_stays_unmarked() {
        let hash = hash_str("round-trip");
        let ptr = allocate_key("round-trip", hash);
        let sig = signature_of(hash);
        let packed = pack_keyref(sig, ptr);
        assert!(packed >= 1 << POINTER_BITS, "packed word below 2^48");
        assert_eq!(packed & crate::cell::MARK_BIT, 0, "mark bit must be clear");
        let (s2, p2) = decode_keyref(packed);
        assert_eq!(s2, sig);
        assert_eq!(p2, ptr);
        // SAFETY: freshly allocated above, freed exactly once below.
        unsafe {
            assert_eq!(stored_hash(ptr), hash);
            assert_eq!(stored_bytes(ptr), "round-trip".as_bytes());
            assert!(key_matches(packed, sig, "round-trip"));
            assert!(!key_matches(packed, sig ^ 1, "round-trip"));
            assert!(!key_matches(packed, sig, "round-trap"));
            free_key(ptr);
        }
    }

    #[test]
    fn signatures_are_never_zero() {
        for h in [0u64, 1, SIGNATURE_MASK, u64::MAX, 0x8000] {
            let s = signature_of(h);
            assert!((1..=SIGNATURE_MASK).contains(&s));
        }
    }

    #[test]
    fn empty_and_long_keys_survive_allocation() {
        for key in ["", "x", &"y".repeat(100_000)] {
            let hash = hash_str(key);
            let ptr = allocate_key(key, hash);
            // SAFETY: freshly allocated, freed once via the wrapper.
            unsafe {
                assert_eq!(stored_bytes(ptr), key.as_bytes());
                assert_eq!(stored_hash(ptr), hash);
            }
            drop(KeyAllocation(ptr));
        }
    }
}
