//! SIMD fingerprint probing over a contiguous signature stripe
//! (F14/SwissTable-style group probing, ROADMAP item 4; DESIGN.md §11).
//!
//! The scalar probe loop pays one 16-byte cell read per probed position, so
//! a displacement-`d` lookup touches `d/4` cache lines of the cell array.
//! The [`MetaStripe`] compresses each cell to **one byte** — a 7-bit
//! fingerprint of the master hash plus an occupancy bit — in a separate
//! contiguous array, so one 16-byte compare (`_mm_cmpeq_epi8` +
//! `_mm_movemask_epi8`, or a bit-equivalent `u64` SWAR fallback) filters
//! 16 cells at once and a whole 64-cell cache line of metadata replaces
//! four cache lines of cells.
//!
//! # Byte encoding
//!
//! | byte          | meaning                                             |
//! |---------------|-----------------------------------------------------|
//! | `0x00`        | cell empty (never occupied, or publish still racing) |
//! | `0x01`        | tombstone (deleted element)                         |
//! | `0x80 │ fp`   | occupied, 7-bit fingerprint `fp` of the master hash |
//!
//! The fingerprint takes the **low** 7 bits of the hash; the cell index
//! uses the **high** `log₂ c` bits (scaling function, §5.3.1), so the two
//! are independent and fingerprint collisions within a probe window are
//! ≈ 1/128 per occupied cell.
//!
//! # The stripe is a filter, never an authority
//!
//! Stripe bytes are published with `Release` stores **after** the cell CAS
//! that makes the element (or tombstone) visible.  Probes therefore treat
//! the stripe as advisory in both directions:
//!
//! * a fingerprint **hit** only nominates the cell — the probe always
//!   verifies the actual key in the cell (same check the scalar loop does);
//! * a stripe **empty** byte is only authoritative-absent after the probe
//!   confirms emptiness on the cells themselves (a freshly CASed cell's
//!   byte may still be in flight, and a migration-marked empty cell is
//!   invisible to the stripe entirely).
//!
//! Under that discipline a stale byte is always safe: a false positive is
//! rejected by the cell key compare, and a false-negative window is
//! bounded by the publishing store and caught by the cell-confirm step.
//! The 16-byte group loads are plain (non-atomic) reads that may race
//! with concurrent byte stores; every byte observed — torn set or not —
//! is either the old or the new value of that cell's slot, and both are
//! handled by the filter discipline above.  Mixing access sizes on the
//! same memory is the same implementation technique the 128-bit cell CAS
//! already relies on (see `cell.rs`).
//!
//! # Mirror tail
//!
//! The stripe allocates `capacity + GROUP` bytes: the first `GROUP` bytes
//! are mirrored at `[capacity..capacity+GROUP)` (both copies written by
//! [`MetaStripe::publish`]), so a group load starting at any index
//! `< capacity` never reads out of bounds and the probe loop needs no
//! wrap-around special case inside a group.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::mem::HugeBox;

/// Cells filtered per SIMD/SWAR step (one `_mm_cmpeq_epi8`).
pub const GROUP: usize = 16;

/// Stripe byte of a never-occupied (or not-yet-published) cell.
pub const EMPTY_BYTE: u8 = 0x00;

/// Stripe byte of a tombstoned cell: occupied for probe-termination
/// purposes, but matching no fingerprint (bit 7 clear).
pub const TOMB_BYTE: u8 = 0x01;

/// 7-bit fingerprint of a master hash value, tagged with the occupancy
/// bit: `0x80 | (hash & 0x7F)`.  Never collides with [`EMPTY_BYTE`] or
/// [`TOMB_BYTE`] (bit 7 set), and independent of the cell index (which
/// uses the high hash bits).
#[inline]
pub fn fingerprint(hash: u64) -> u8 {
    0x80 | (hash as u8 & 0x7F)
}

// ---------------------------------------------------------------------------
// Group-match kernels.  All three return the same canonical pair of masks:
// bit `i` of `candidates` ⇔ byte `i` equals the fingerprint, bit `i` of
// `empties` ⇔ byte `i` is EMPTY_BYTE.
// ---------------------------------------------------------------------------

/// Scalar reference kernel: the ground truth the SIMD and SWAR kernels are
/// tested against (and the clearest statement of the mask contract).
pub fn match_group_scalar(group: &[u8; GROUP], fp: u8) -> (u32, u32) {
    let mut candidates = 0u32;
    let mut empties = 0u32;
    for (i, &b) in group.iter().enumerate() {
        if b == fp {
            candidates |= 1 << i;
        }
        if b == EMPTY_BYTE {
            empties |= 1 << i;
        }
    }
    (candidates, empties)
}

/// All-bytes-0x7F mask for the SWAR zero-byte test.
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Return a word with bit 7 of byte `i` set exactly when byte `i` of `v`
/// is zero.  Unlike the classic `(v - 0x01…) & !v & 0x80…` trick this form
/// has no cross-byte borrow: `(v & 0x7F) + 0x7F` stays within each byte,
/// its bit 7 is set iff the low 7 bits are non-zero, and OR-ing `v` back
/// in covers the high bit — so bit 7 ends up clear only for a fully zero
/// byte, then the complement isolates it.
#[inline]
fn zero_byte_high_bits(v: u64) -> u64 {
    !(((v & LOW7) + LOW7) | v | LOW7)
}

/// Convert a [`zero_byte_high_bits`] word (0x80 per matching byte) into a
/// canonical bit-per-byte mask.
#[inline]
fn high_bits_to_mask(mut z: u64) -> u32 {
    let mut mask = 0u32;
    while z != 0 {
        mask |= 1 << (z.trailing_zeros() >> 3);
        z &= z - 1;
    }
    mask
}

/// Portable SWAR kernel: two unaligned `u64` loads, XOR against the
/// broadcast fingerprint, zero-byte detection.  Bit-equivalent to
/// [`match_group_scalar`] (tested) and used whenever SSE2 is unavailable
/// or disabled via `GROWT_NO_SIMD`.
#[inline]
pub fn match_group_swar(group: &[u8; GROUP], fp: u8) -> (u32, u32) {
    // Infallible: both slices are compile-time 8-byte windows of a
    // `[u8; 16]`, so `try_into` can never see a length mismatch.
    let lo = u64::from_le_bytes(group[0..8].try_into().unwrap());
    let hi = u64::from_le_bytes(group[8..16].try_into().unwrap());
    let fp_bcast = 0x0101_0101_0101_0101u64 * fp as u64;
    let cand_lo = zero_byte_high_bits(lo ^ fp_bcast);
    let cand_hi = zero_byte_high_bits(hi ^ fp_bcast);
    let empty_lo = zero_byte_high_bits(lo);
    let empty_hi = zero_byte_high_bits(hi);
    (
        high_bits_to_mask(cand_lo) | (high_bits_to_mask(cand_hi) << 8),
        high_bits_to_mask(empty_lo) | (high_bits_to_mask(empty_hi) << 8),
    )
}

/// SSE2 kernel: one 16-byte load, two byte-compares, two movemasks.
/// Returns `None` when SSE2 may not be used (non-x86-64, or disabled via
/// `GROWT_NO_SIMD`), so callers and tests can fall through to the SWAR
/// kernel explicitly.
#[inline]
pub fn match_group_sse2(group: &[u8; GROUP], fp: u8) -> Option<(u32, u32)> {
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::has_sse2() {
        // SAFETY: a &[u8; 16] is 16 readable bytes; SSE2 presence checked.
        return Some(unsafe { sse2_raw(group.as_ptr(), fp) });
    }
    let _ = (group, fp);
    None
}

/// SSE2 group match over 16 raw bytes.
///
/// # Safety
///
/// `p` must point to 16 readable bytes and the CPU must support SSE2
/// (always true on x86-64; the gate exists for the `GROWT_NO_SIMD`
/// override, not for hardware reasons).
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn sse2_raw(p: *const u8, fp: u8) -> (u32, u32) {
    use std::arch::x86_64::*;
    // SAFETY: the caller guarantees 16 readable bytes at `p` (the unaligned
    // load) and SSE2 (every intrinsic here), per `# Safety` above.
    unsafe {
        let group = _mm_loadu_si128(p as *const __m128i);
        let candidates = _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_set1_epi8(fp as i8))) as u32;
        let empties = _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_setzero_si128())) as u32;
        (candidates, empties)
    }
}

/// SWAR group match over 16 raw bytes.
///
/// # Safety
///
/// `p` must point to 16 readable bytes.
#[inline]
unsafe fn swar_raw(p: *const u8, fp: u8) -> (u32, u32) {
    // SAFETY: the caller guarantees 16 readable bytes at `p`, per
    // `# Safety` above; the read needs no alignment.
    let group = unsafe { std::ptr::read_unaligned(p as *const [u8; GROUP]) };
    match_group_swar(&group, fp)
}

// ---------------------------------------------------------------------------
// The stripe.
// ---------------------------------------------------------------------------

/// Contiguous signature metadata stripe of a [`crate::table::BoundedTable`]:
/// one byte per cell plus a [`GROUP`]-byte mirror tail (see the module
/// docs for the encoding, the filter discipline, and the memory-ordering
/// argument).
pub struct MetaStripe {
    /// `capacity + GROUP` bytes, hugepage-backed like the cell array.
    bytes: HugeBox<AtomicU8>,
    capacity: usize,
    /// Dispatch decision cached at construction (one branch per group
    /// instead of a feature-cache load).
    use_sse2: bool,
}

impl MetaStripe {
    /// Allocate an all-empty stripe for a table of `capacity` cells.
    /// `capacity` must be a power of two of at least [`GROUP`] so the
    /// probe budget divides evenly into groups.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= GROUP,
            "stripe requires a power-of-two capacity >= {GROUP}, got {capacity}"
        );
        MetaStripe {
            bytes: HugeBox::zeroed(capacity + GROUP),
            capacity,
            use_sse2: cfg!(target_arch = "x86_64") && crate::cpu::has_sse2(),
        }
    }

    /// Publish the stripe byte for cell `index` (Release, after the cell
    /// CAS that the byte describes), keeping the mirror tail coherent.
    #[inline]
    pub fn publish(&self, index: usize, byte: u8) {
        self.bytes[index].store(byte, Ordering::Release);
        if index < GROUP {
            self.bytes[self.capacity + index].store(byte, Ordering::Release);
        }
    }

    /// Load one stripe byte (tests and diagnostics).
    #[inline]
    pub fn load(&self, index: usize) -> u8 {
        self.bytes[index].load(Ordering::Acquire)
    }

    /// Match the 16 stripe bytes starting at `base` (`< capacity`; the
    /// mirror tail covers the wrap) against fingerprint `fp`.  Returns the
    /// canonical `(candidates, empties)` masks — bit `i` refers to cell
    /// `(base + i) & (capacity - 1)`.
    #[inline]
    pub fn probe_group(&self, base: usize, fp: u8) -> (u32, u32) {
        debug_assert!(base < self.capacity);
        let p = self.bytes.as_ptr() as *const u8;
        // SAFETY: base < capacity and the stripe holds capacity + GROUP
        // bytes, so [base, base + GROUP) is in bounds.  The plain 16-byte
        // read racing with concurrent publishes is discussed in the module
        // docs (filter-only semantics make every observable byte safe).
        unsafe {
            let p = p.add(base);
            #[cfg(target_arch = "x86_64")]
            if self.use_sse2 {
                return sse2_raw(p, fp);
            }
            swar_raw(p, fp)
        }
    }

    /// Prefetch the metadata cache line containing `index` (the batched
    /// pipeline's first pass prefetches the stripe line instead of four
    /// cell lines per probe window).
    #[inline]
    pub fn prefetch(&self, index: usize) {
        crate::prefetch::prefetch_read(&self.bytes[index]);
    }

    /// `true` when the stripe is backed by a hugepage-hinted mapping.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap deterministic byte patterns for the kernel sweeps.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_group(state: &mut u64) -> [u8; GROUP] {
        let mut g = [0u8; GROUP];
        for b in g.iter_mut() {
            // Bias towards the interesting alphabet: empties, tombstones,
            // and a small fingerprint set to force collisions.
            *b = match splitmix(state) % 5 {
                0 => EMPTY_BYTE,
                1 => TOMB_BYTE,
                _ => fingerprint(splitmix(state) % 7),
            };
        }
        g
    }

    #[test]
    fn fingerprint_never_collides_with_sentinels() {
        let mut state = 1u64;
        for _ in 0..10_000 {
            let fp = fingerprint(splitmix(&mut state));
            assert!(fp & 0x80 != 0);
            assert_ne!(fp, EMPTY_BYTE);
            assert_ne!(fp, TOMB_BYTE);
        }
        assert_eq!(fingerprint(0), 0x80);
        assert_eq!(fingerprint(0x7F), 0xFF);
        assert_eq!(fingerprint(0x80), 0x80); // only the low 7 bits
    }

    #[test]
    fn swar_matches_scalar_on_random_patterns() {
        let mut state = 42u64;
        for _ in 0..20_000 {
            let g = random_group(&mut state);
            let fp = fingerprint(splitmix(&mut state) % 9);
            assert_eq!(
                match_group_swar(&g, fp),
                match_group_scalar(&g, fp),
                "group {g:02x?} fp {fp:#04x}"
            );
        }
    }

    #[test]
    fn sse2_matches_scalar_on_random_patterns() {
        let mut state = 7u64;
        let mut compared = false;
        for _ in 0..20_000 {
            let g = random_group(&mut state);
            let fp = fingerprint(splitmix(&mut state) % 9);
            if let Some(masks) = match_group_sse2(&g, fp) {
                assert_eq!(masks, match_group_scalar(&g, fp), "group {g:02x?}");
                compared = true;
            }
        }
        // On x86-64 without GROWT_NO_SIMD the SIMD path must actually run.
        if cfg!(target_arch = "x86_64") && std::env::var_os("GROWT_NO_SIMD").is_none() {
            assert!(compared, "SSE2 kernel unexpectedly unavailable");
        }
    }

    #[test]
    fn kernels_agree_on_structured_edge_patterns() {
        let mut patterns: Vec<[u8; GROUP]> = vec![
            [EMPTY_BYTE; GROUP],
            [TOMB_BYTE; GROUP],
            [fingerprint(3); GROUP],
            [0xFF; GROUP],
            [0x80; GROUP],
        ];
        // Single-byte planted matches at every offset.
        for i in 0..GROUP {
            let mut g = [TOMB_BYTE; GROUP];
            g[i] = fingerprint(3);
            patterns.push(g);
            let mut g = [fingerprint(3); GROUP];
            g[i] = EMPTY_BYTE;
            patterns.push(g);
        }
        for g in &patterns {
            for fp in [fingerprint(3), fingerprint(4), EMPTY_BYTE, TOMB_BYTE] {
                let scalar = match_group_scalar(g, fp);
                assert_eq!(match_group_swar(g, fp), scalar);
                if let Some(m) = match_group_sse2(g, fp) {
                    assert_eq!(m, scalar);
                }
            }
        }
    }

    #[test]
    fn stripe_publish_probe_roundtrip() {
        let stripe = MetaStripe::new(64);
        let fp = fingerprint(0x1234);
        stripe.publish(5, fp);
        stripe.publish(9, fingerprint(0x1235));
        stripe.publish(20, TOMB_BYTE);
        let (cand, empt) = stripe.probe_group(0, fp);
        assert_eq!(cand, 1 << 5, "only cell 5 carries this fingerprint");
        // Bytes 0..16 except 5 and 9 are empty.
        assert_eq!(empt, 0xFFFF & !(1 << 5) & !(1 << 9));
        // The tombstone is neither candidate nor empty.
        let (cand2, empt2) = stripe.probe_group(16, fp);
        assert_eq!(cand2, 0);
        assert_eq!(empt2, 0xFFFF & !(1 << 4)); // cell 20 = base 16 + 4
    }

    #[test]
    fn stripe_mirror_tail_covers_wraparound_groups() {
        let stripe = MetaStripe::new(32);
        let fp = fingerprint(77);
        stripe.publish(2, fp); // also mirrored at 32 + 2
        stripe.publish(31, fp);
        // A group based at 31 spans [31, 47): cell 31 at bit 0 and the
        // mirrored cell 2 at bit 3 (31 + 3 ≡ 2 mod 32).
        let (cand, _) = stripe.probe_group(31, fp);
        assert_eq!(cand & 1, 1, "cell 31 itself");
        assert_eq!((cand >> 3) & 1, 1, "wrapped cell 2 via the mirror tail");
        // Re-publishing over a mirrored slot keeps both copies coherent.
        stripe.publish(2, TOMB_BYTE);
        let (cand_after, _) = stripe.probe_group(31, fp);
        assert_eq!((cand_after >> 3) & 1, 0);
        assert_eq!(stripe.load(32 + 2), TOMB_BYTE);
    }

    #[test]
    fn probe_group_dispatch_matches_scalar_reference() {
        // Whatever kernel probe_group dispatched to (SSE2 here, SWAR under
        // GROWT_NO_SIMD) must agree with the scalar reference on the same
        // byte window.
        let stripe = MetaStripe::new(GROUP); // minimum capacity
        let mut state = 99u64;
        for _ in 0..1000 {
            let g = random_group(&mut state);
            for (i, &b) in g.iter().enumerate() {
                stripe.publish(i, b);
            }
            let fp = fingerprint(splitmix(&mut state) % 9);
            for base in 0..GROUP {
                let mut window = [0u8; GROUP];
                for (j, w) in window.iter_mut().enumerate() {
                    *w = g[(base + j) % GROUP];
                }
                assert_eq!(
                    stripe.probe_group(base, fp),
                    match_group_scalar(&window, fp),
                    "base {base} group {g:02x?}"
                );
            }
        }
    }
}
