//! Complex (non-word) key support via indirection (paper §5.7).
//!
//! The fast tables of this crate restrict keys and values to machine words
//! so that cells can be manipulated with double-word CAS.  §5.7 outlines
//! how to lift the restriction for keys: store a *reference* to the actual
//! key in the key word and put a **signature** — spare bits of the master
//! hash function — into the unused high bits of the pointer, so that most
//! failed comparisons are decided without dereferencing.
//!
//! This module holds that key format and the one table that uses it
//! without growing:
//!
//! * [`StringKeyTable`] — a **bounded** lock-free linear-probing table
//!   (the folklore baseline of the complex-key world).  Its cells are two
//!   separate atomic words, so insertion publishes with the folly-style
//!   `INFLIGHT` discipline: the value is written *before* the key
//!   reference becomes visible, and probes spin out the (very short)
//!   in-flight window.  A `find` can therefore never observe an
//!   unpublished value and a concurrent `update` can never lose its
//!   result to a late value store.
//!
//! The growing, deleting string table is `GrowMap<String, u64>`
//! ([`crate::generic`]): 16-byte [`crate::cell::Cell`]s published with one
//! double-word CAS, rehash migrations that re-derive each cell from the
//! master hash stored in the key allocation, and key frees deferred to a
//! QSBR domain ([`growt_reclaim::QsbrDomain`]).
//!
//! ## Key reference layout
//!
//! A published key word of `GrowMap<String, _>` has one of two forms, and
//! the bounded table uses the second alone:
//!
//! * a **short word** holds a key of at most 7 bytes itself: bit 62 is
//!   its tag (`SHORT_TAG`), bits 56..59 hold the length and bits 0..56
//!   the bytes, little-endian, zero above the length.  No allocation
//!   stands behind it, so a short key is never dereferenced, compared
//!   byte by byte, retired or freed; its home cell comes from
//!   [`crate::config::hash_key`] of the word (`short_word`).
//! * a **packed reference** `signature << 48 | pointer`:
//!   * bits 0..48 — the virtual address of the key allocation (x86-64 /
//!     AArch64 user-space pointers fit in 48 bits; asserted on
//!     allocation);
//!   * bits 48..62 — a 14-bit signature taken from the master hash, never
//!     0, so a published reference is always `≥ 2⁴⁸`.
//!
//! Bit 62 tells the two forms apart, and bit 63 stays clear in both, so
//! `GrowMap` reuses the word-table sentinels unchanged:
//! [`crate::cell::EMPTY_KEY`] (0), [`crate::cell::DEL_KEY`] (1) and the
//! migration [`crate::cell::MARK_BIT`] all live outside both forms.  A
//! probe compares `(word & mask) == want` per cell: a short key wants its
//! whole word, a long key wants its signature with the tag clear
//! (`SIGNED_BITS`), so a short word never matches a long key's probe,
//! nor a packed reference a short key's, whatever their other bits.
//!
//! The key allocation itself is one header word followed by the bytes:
//! `⟨header, bytes⟩`, where `header = hash & !0xFFFF | min(len, 0xFFFF)`
//! ([`header`]) packs the master hash's bits 16..64 over the key's
//! length.  A key of 65 535 bytes or more saturates the length field
//! and keeps its full length in a second word, `⟨header, len: u64,
//! bytes⟩`.  The hash bits are what lets a migration *re-derive the
//! target cell* of a reference without re-hashing (or even reading) the
//! string bytes: a home cell reads only the top `log₂ capacity` bits of
//! the hash, and a `GrowMap` array holds at most 2⁴⁸ cells, so the 16
//! bits the length takes are never among them.  A probe whose signature matched compares
//! the header with its own `header(hash, len)`, so one word decides most
//! remaining mismatches before the bytes at `ptr + 8` are compared
//! ([`stored_matches`]).  `GrowMap<String, _>` stores its long keys in
//! the same format through the same functions, so both string-keyed
//! tables share one hash, one allocation and one confirm per long key.

mod bounded;

pub use bounded::StringKeyTable;

use crate::config::hash_bytes;

/// Number of low bits of a packed key word that hold the pointer.
pub(crate) const POINTER_BITS: u32 = 48;
const POINTER_MASK: u64 = (1 << POINTER_BITS) - 1;
/// Width of a packed reference's signature, bits 48..62: bit 62 is the
/// short tag and bit 63 the migration mark bit.
pub(crate) const SIGNATURE_BITS: u32 = 14;
const SIGNATURE_MASK: u64 = (1 << SIGNATURE_BITS) - 1;
/// Tag of a short word; clear in every packed reference.
const SHORT_TAG: u64 = 1 << 62;
/// Longest key a short word holds.
const MAX_SHORT_LEN: usize = 7;
/// Position of a short word's length field (bits 56..59).
const SHORT_LEN_SHIFT: u32 = 56;
/// The bits of a cell's key word a long key's probe compares: the
/// signature, and the short tag, which its `want` has clear.
pub(crate) const SIGNED_BITS: u64 = SIGNATURE_MASK << POINTER_BITS | SHORT_TAG;

/// The **master hash** of §5.7 for string keys: [`hash_bytes`] over the
/// UTF-8 bytes.  The scaled top bits choose the cell, the low bits provide
/// the signature, and the full value is stored in the key allocation so
/// migrations can re-derive the cell without touching the string bytes.
#[inline]
pub(crate) fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Bits of a key allocation's header word that hold the length; the
/// master hash fills the 48 above them.
pub(crate) const LEN_BITS: u32 = 16;
/// The length field of a header word, and the length from which a key's
/// full length moves to the word after the header.
const LEN_FIELD: u64 = (1 << LEN_BITS) - 1;

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

/// The short word of a key of at most [`MAX_SHORT_LEN`] bytes, `None` for
/// a longer one.  The bytes come from two four-byte loads that overlap
/// where the key is shorter than eight bytes, and from its first, middle
/// and last byte where it is shorter than four: no loop, and no copy into
/// a buffer, which compiles to a `memcpy` call per key.
#[inline]
pub(crate) fn short_word(bytes: &[u8]) -> Option<u64> {
    let len = bytes.len();
    if len > MAX_SHORT_LEN {
        return None;
    }
    let payload = if len >= 4 {
        let low = u32::from_le_bytes(bytes[..4].try_into().expect("4-byte window"));
        let high = u32::from_le_bytes(bytes[len - 4..].try_into().expect("4-byte window"));
        u64::from(low) | u64::from(high) << (8 * (len - 4))
    } else if len > 0 {
        let mid = len / 2;
        u64::from(bytes[0])
            | u64::from(bytes[mid]) << (8 * mid)
            | u64::from(bytes[len - 1]) << (8 * (len - 1))
    } else {
        0
    };
    Some(SHORT_TAG | (len as u64) << SHORT_LEN_SHIFT | payload)
}

/// `true` when an unmarked, published key word is a short word.
#[inline]
pub(crate) fn is_short(word: u64) -> bool {
    word & SHORT_TAG != 0
}

/// The header word of a key allocation: the master hash's bits 16..64
/// over the key's length, saturated at `0xFFFF`.
#[inline]
pub(crate) fn header(hash: u64, len: usize) -> u64 {
    hash & !LEN_FIELD | (len as u64).min(LEN_FIELD)
}

/// Allocate a key as a `⟨header, bytes⟩` buffer — `⟨header, len, bytes⟩`
/// from 65 535 bytes on — and leak it; the raw pointer is what gets
/// packed into the table.  Freed with [`free_key`].
pub(crate) fn allocate_key(key: &str, hash: u64) -> *const u8 {
    let len = key.len();
    let escaped = len as u64 >= LEN_FIELD;
    let mut buf = Vec::with_capacity(if escaped { 16 } else { 8 } + len);
    buf.extend_from_slice(&header(hash, len).to_le_bytes());
    if escaped {
        buf.extend_from_slice(&(len as u64).to_le_bytes());
    }
    buf.extend_from_slice(key.as_bytes());
    let boxed: Box<[u8]> = buf.into_boxed_slice();
    Box::into_raw(boxed) as *const u8
}

/// The little-endian word at `ptr`.
///
/// # Safety
///
/// `ptr` must be valid for reading 8 bytes.
#[inline]
unsafe fn read_word(ptr: *const u8) -> u64 {
    // SAFETY: per the contract; `read` takes no alignment from the byte
    // array type.
    unsafe { u64::from_le_bytes(std::ptr::read(ptr as *const [u8; 8])) }
}

/// The key bytes of the allocation at `ptr`, whose header word is `head`.
///
/// # Safety
///
/// As for [`stored_bytes`], and `head` must be the allocation's header.
#[inline]
unsafe fn bytes_behind<'a>(ptr: *const u8, head: u64) -> &'a [u8] {
    // SAFETY: per the contract `ptr` is a live buffer laid out by
    // `allocate_key`: the bytes follow the header, or the full length
    // that follows a saturated length field.
    unsafe {
        let len = head & LEN_FIELD;
        if len < LEN_FIELD {
            std::slice::from_raw_parts(ptr.add(8), len as usize)
        } else {
            std::slice::from_raw_parts(ptr.add(16), read_word(ptr.add(8)) as usize)
        }
    }
}

/// The master hash stored in the allocation header, with its low 16 bits
/// clear: the bits a home cell of a table of at most 2⁴⁸ cells reads.
/// With debug assertions on, it checks the header against a fresh hash of
/// the stored bytes, so every migration in a debug build re-verifies each
/// long key it moves.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`], with the key's [`hash_bytes`] as
/// its hash, and not have been freed.
#[inline]
pub(crate) unsafe fn stored_hash(ptr: *const u8) -> u64 {
    // SAFETY: per the contract `ptr` is a live buffer whose first word is
    // its header.
    let head = unsafe { read_word(ptr) };
    #[cfg(debug_assertions)]
    {
        // SAFETY: as above, and the slice dies in this block.
        let bytes = unsafe { bytes_behind(ptr, head) };
        assert_eq!(
            head,
            header(hash_bytes(bytes), bytes.len()),
            "key header disagrees with its bytes"
        );
    }
    head & !LEN_FIELD
}

/// Key bytes stored in the allocation.
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`] and not have been freed; the
/// returned slice must not outlive the allocation.
#[inline]
pub(crate) unsafe fn stored_bytes<'a>(ptr: *const u8) -> &'a [u8] {
    // SAFETY: per the contract `ptr` is a live buffer whose first word is
    // its header, alive for as long as the caller keeps the slice.
    unsafe { bytes_behind(ptr, read_word(ptr)) }
}

/// `true` when the allocation at `ptr` stores `key`, whose master hash is
/// `hash`: the stored header against `header(hash, key.len())` — hash bits
/// and length in one compare — and then the bytes.  The confirm of both
/// string tables, after their signature compare has matched.
///
/// # Safety
///
/// As for [`stored_bytes`].
#[inline]
pub(crate) unsafe fn stored_matches(ptr: *const u8, hash: u64, key: &str) -> bool {
    // SAFETY: per the contract `ptr` is a live buffer whose first word is
    // its header; the bytes are compared only behind a matching one.
    unsafe {
        let head = read_word(ptr);
        head == header(hash, key.len()) && bytes_behind(ptr, head) == key.as_bytes()
    }
}

/// Free a key allocation created by [`allocate_key`].
///
/// # Safety
///
/// `ptr` must come from [`allocate_key`], must not have been freed, and no
/// other thread may still dereference it (which is exactly what
/// `GrowMap`'s QSBR domain guarantees before calling this).
pub(crate) unsafe fn free_key(ptr: *const u8) {
    // SAFETY: per the contract `ptr` is the live, unshared buffer that
    // `allocate_key` leaked as a `Box<[u8]>`, which ends where its bytes
    // end; it is rebuilt with that length and dropped once.
    unsafe {
        let bytes = stored_bytes(ptr);
        let size = bytes.as_ptr().offset_from(ptr) as usize + bytes.len();
        let slice = std::ptr::slice_from_raw_parts_mut(ptr as *mut u8, size);
        drop(Box::from_raw(slice));
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
            assert_eq!(stored_hash(ptr), hash & !LEN_FIELD);
            assert_eq!(stored_bytes(ptr), "round-trip".as_bytes());
            assert!(stored_matches(ptr, hash, "round-trip"));
            assert!(!stored_matches(ptr, hash ^ 1 << 16, "round-trip"));
            assert!(!stored_matches(ptr, hash, "round-trap"));
            assert!(!stored_matches(ptr, hash, "round-trip!"));
            free_key(ptr);
        }
    }

    /// The key a short word holds: its length field and that many bytes.
    fn short_bytes(word: u64) -> Vec<u8> {
        let len = (word >> SHORT_LEN_SHIFT & 7) as usize;
        word.to_le_bytes()[..len].to_vec()
    }

    /// Every key of at most seven bytes round-trips through its short word
    /// and no two share one: exhaustively up to two bytes over an alphabet
    /// with NUL and non-ASCII bytes, and for strided keys of three to seven
    /// bytes.  The word is tagged, unmarked and zero above the key.
    #[test]
    fn short_words_round_trip_and_are_injective() {
        let alphabet = [0u8, 1, b'a', b'z', 0x7F, 0x80, 0xC3, 0xFF];
        let mut keys: Vec<Vec<u8>> = vec![Vec::new()];
        for &a in &alphabet {
            keys.push(vec![a]);
            keys.extend(alphabet.iter().map(|&b| vec![a, b]));
        }
        for len in 3..=MAX_SHORT_LEN {
            for i in 0..2_000u32 {
                let key = (0..len).map(|j| alphabet[(i as usize >> (2 * j)) % 8] ^ j as u8);
                keys.push(key.collect());
            }
        }
        keys.sort();
        keys.dedup();
        let mut words = std::collections::HashSet::new();
        for key in &keys {
            let word = short_word(key).expect("at most seven bytes");
            assert!(
                is_short(word) && word & crate::cell::MARK_BIT == 0,
                "{key:?}"
            );
            assert_eq!(short_bytes(word), *key);
            assert_eq!((word & ((1 << 56) - 1)) >> (8 * key.len()), 0, "{key:?}");
            assert!(words.insert(word), "{key:?} shares its word");
        }
        assert_ne!(short_word(b"a"), short_word(b"a\0"));
        assert_ne!(short_word(b""), short_word(b"\0"));
        let seven = "é€ab".as_bytes();
        assert_eq!(short_bytes(short_word(seven).unwrap()), seven);
        for long in [&b"abcdefg\0"[..], b"abcdefgh", "é€abc".as_bytes()] {
            assert_eq!(short_word(long), None, "{long:?}");
        }
    }

    /// The two forms never overlap: every packed reference has the short
    /// tag clear, so no short word equals one, and a long key's probe
    /// ([`SIGNED_BITS`]) sees the tag of every short word
    /// (`generic::tests::short_and_long_probes_never_cross` probes both
    /// ways with equal signature bits).
    #[test]
    fn short_words_and_packed_references_never_overlap() {
        let ptr = allocate_key("a longer key", 7);
        for sig in 1..=SIGNATURE_MASK {
            let packed = pack_keyref(sig, ptr);
            assert!(!is_short(packed) && packed >= 1 << POINTER_BITS);
            assert_eq!(packed & crate::cell::MARK_BIT, 0);
        }
        assert_eq!(SIGNED_BITS & SHORT_TAG, SHORT_TAG);
        // SAFETY: allocated above, freed once.
        unsafe { free_key(ptr) };
    }

    /// The header keeps the master hash's bits 16..64 and the length, up
    /// to the escape at 65 535 bytes, past which the allocation keeps the
    /// full length; and the stored hash gives every `GenericArray` (at
    /// most 2⁴⁸ cells, so a shift of at least 16) the home cell of the
    /// full hash, `hash >> shift`.
    #[test]
    fn header_round_trips_the_home_bits_and_the_length() {
        let lengths = [0, 1, 8, 15, 16, 0xFFFE, 0xFFFF, 0x10000, 1 << 20];
        let hashes = [
            0,
            1,
            0xFFFF,
            0x1_0000,
            u64::MAX,
            1 << 63,
            0x9E37_79B9_7F4A_7C15,
        ];
        for &hash in &hashes {
            for &len in &lengths {
                let head = header(hash, len);
                assert_eq!(head & !LEN_FIELD, hash & !LEN_FIELD, "{hash:#x}");
                assert_eq!(head & LEN_FIELD, (len as u64).min(LEN_FIELD), "{len}");
                for shift in 16..=63 {
                    let home = (head & !LEN_FIELD) >> shift;
                    assert_eq!(home, hash >> shift, "{hash:#x} {shift}");
                }
            }
        }
        for len in lengths {
            let key = "k".repeat(len);
            let hash = hash_str(&key);
            let ptr = allocate_key(&key, hash);
            // SAFETY: freshly allocated above, freed exactly once here.
            unsafe {
                assert_eq!(stored_hash(ptr), hash & !LEN_FIELD, "{len}");
                assert_eq!(stored_bytes(ptr).len(), len);
                assert_eq!(
                    stored_bytes(ptr).as_ptr(),
                    ptr.add(if len < 0xFFFF { 8 } else { 16 })
                );
                free_key(ptr);
            }
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
            // SAFETY: freshly allocated above, freed exactly once here.
            unsafe {
                assert_eq!(stored_bytes(ptr), key.as_bytes());
                assert_eq!(stored_hash(ptr), hash & !LEN_FIELD);
                assert!(stored_matches(ptr, hash, key));
                free_key(ptr);
            }
        }
    }
}
