//! Sizing, hashing and scaling policy of the tables (paper §5.3.1, §7).

/// Default maximum fill factor before a growing migration is triggered
/// (§7: "When the table is approximately 60% filled, a migration is
/// started").
pub const DEFAULT_GROW_THRESHOLD: f64 = 0.6;

/// Default growth factor γ (§7: "With each migration, we double the
/// capacity").
pub const DEFAULT_GROWTH_FACTOR: usize = 2;

/// Cell-block size used by the migration (§7: "The migration works in
/// cell-blocks of the size 4096").
pub const MIGRATION_BLOCK: usize = 4096;

/// Number of probed cells after which an insertion gives up and reports a
/// full table.  For correctly sized tables this is never reached; growing
/// tables treat it as an additional growth trigger (safety net on top of
/// the fill-factor trigger).
pub const PROBE_LIMIT: usize = 8192;

/// Width of the software pipeline used by the batched table operations
/// (hash → prefetch → probe, §5.5 / DESIGN.md): how many home cells are
/// hashed and prefetched before the first probe of the block runs.  16
/// in-flight lines sit comfortably below the line-fill-buffer capacity of
/// every x86-64 core this crate targets while already hiding most of the
/// DRAM latency.
pub const BATCH_PIPELINE: usize = 16;

/// Compute the number of cells for an expected number of elements: the
/// smallest power of two that is at least twice the expectation
/// (§7: `2n ≤ size ≤ 4n`).
///
/// Saturating at the top of the address space: for
/// `expected_elements > 2⁶²` the doubled request has no representable
/// power-of-two ceiling (`next_power_of_two` would panic in debug builds
/// and wrap to 0 in release builds), so the result clamps to the largest
/// representable power of two, `2⁶³`.  The `2n ≤ size` headroom guarantee
/// necessarily no longer holds in that regime — such a table could never
/// be allocated anyway, but sizing arithmetic (e.g. a growth-factor
/// multiplication on an already huge capacity) must not panic or wrap.
pub fn capacity_for(expected_elements: usize) -> usize {
    const MAX_POW2: usize = 1 << (usize::BITS - 1);
    let min = expected_elements.max(2).saturating_mul(2);
    if min > MAX_POW2 {
        MAX_POW2
    } else {
        min.next_power_of_two()
    }
}

/// The default hash function of all tables in this crate: the splitmix64 /
/// MurmurHash3 finalizer — a cheap bijective mixer.  The paper uses two
/// hardware CRC32-C instructions instead; that path is available per table
/// via [`HashSelect::Crc`] (see [`crate::crc`]), and DESIGN.md documents
/// the trade-off (both are cheap, statistically uniform full-word hashes).
#[inline]
pub fn hash_key(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Odd 64-bit constants of the byte-string kernel (the wyhash secrets: bit
/// counts near 32, no byte repeated).
const FOLD_START: u64 = 0xA076_1D64_78BD_642F;
const FOLD_LEN: u64 = 0xE703_7ED1_A0B4_28DB;
const FOLD_STEP: u64 = 0x8EBC_6AF0_9C88_C6E3;
const FOLD_FINAL: u64 = 0x5899_65CC_7537_4CC3;

/// Both halves of the 128-bit product, xor-ed: every input bit reaches the
/// low *and* the high end of the result, which one `wrapping_mul` (low
/// half only) cannot do.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The master hash (§5.7) of every byte-string key in this crate — the
/// bounded and the growing string table and `GrowMap<String, _>` share it,
/// so a key has one home cell and one signature whichever table holds it.
///
/// Word at a time: the length goes into the start value, a long key costs
/// one [`fold`] per eight bytes, the last (up to) sixteen bytes are read as
/// two possibly overlapping windows instead of a byte loop, and one last
/// `fold` finishes.  Both ends of the result must avalanche, because both
/// are used: [`scale_to_capacity`] takes the home cell from the top bits
/// and the packed key reference takes its 15-bit signature from the
/// bottom.  Seed-free and little-endian by definition, so every thread —
/// and every platform — agrees on a key's cell.
///
/// Keys of 4 to 16 bytes — nearly every word of a text — take one path
/// without a branch on their length: which bytes the two windows cover is
/// arithmetic on `len`.  The lengths of consecutive words are as good as
/// random, so a branch per length class (4..=7 / 8 / 9..=16) is
/// mispredicted on every other word, which costs more than the hash.
#[inline]
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    #[inline]
    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
    }
    #[inline]
    fn half(bytes: &[u8], at: usize) -> u64 {
        u64::from(u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("4-byte window"),
        ))
    }

    let len = bytes.len();
    let mut h = FOLD_START ^ (len as u64).wrapping_mul(FOLD_LEN);
    let (first, last) = if len > 16 {
        // Whole words that end before the last sixteen bytes, then those.
        let mut at = 0;
        while at + 16 < len {
            h = fold(h ^ word(bytes, at), FOLD_STEP);
            at += 8;
        }
        (word(bytes, len - 16), word(bytes, len - 8))
    } else if len >= 4 {
        // Two four-byte reads from each end, `apart` bytes apart: the
        // first and the last four bytes (each read twice) below 8, the
        // first and the last eight bytes from 8 on, all sixteen at 16.
        let apart = (len >> 3) << 2;
        (
            half(bytes, 0) << 32 | half(bytes, apart),
            half(bytes, len - 4) << 32 | half(bytes, len - 4 - apart),
        )
    } else if len > 0 {
        let picks =
            u64::from(bytes[0]) << 16 | u64::from(bytes[len >> 1]) << 8 | u64::from(bytes[len - 1]);
        (picks, 0)
    } else {
        (0, 0)
    };
    h = fold(h ^ first, FOLD_STEP);
    fold(fold(h ^ last, FOLD_STEP), FOLD_FINAL)
}

/// Which hash function a table instance uses for its cell mapping.
///
/// The selection is **per table** (a field of the table, not a process
/// global) so benchmarks can measure both paths side by side and tests
/// cannot interfere with each other.  All generations of one growing table
/// inherit the selection — the cluster migration (Lemma 1) requires source
/// and target to agree on the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashSelect {
    /// The splitmix64 finalizer ([`hash_key`], the software default).
    #[default]
    Mix,
    /// The paper's two-seed CRC32-C pair (§8.3), executed with the
    /// hardware `crc32q` instruction when the CPU has SSE4.2 and falling
    /// back to the table-driven software port otherwise.
    Crc,
}

impl HashSelect {
    /// Hash `x` with the selected function.
    #[inline]
    pub fn hash(self, x: u64) -> u64 {
        match self {
            HashSelect::Mix => hash_key(x),
            HashSelect::Crc => crate::crc::crc64_pair(x),
        }
    }
}

/// Which probe kernel a table instance uses.
///
/// Like [`HashSelect`] the selection is **per table** so benchmarks can
/// measure both paths side by side, and all generations of one growing
/// table inherit it.  [`ProbeSelect::Simd`] attaches a signature metadata
/// stripe (see [`crate::simd`]) to the table and probes 16 cells per
/// compare; the kernel degrades from SSE2 to the portable SWAR matcher
/// when SSE2 is unavailable or `GROWT_NO_SIMD` is set, and a table whose
/// capacity is below one probe group keeps the scalar loop until it grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeSelect {
    /// The scalar probe loop over the cell array (default).
    #[default]
    Scalar,
    /// Group probing over the signature stripe (SSE2 or SWAR).
    Simd,
}

/// Map a full-width hash value to a cell index of a table with `capacity`
/// cells using the *scaling* function of §5.3.1:
/// `h_c(x) = ⌊h(x) · c / U⌋` with `U = 2⁶⁴`.
///
/// The mapping is monotone in the hash value, which is exactly the property
/// Lemma 1 (cluster migration) relies on.  For power-of-two capacities it
/// reduces to taking the most significant `log₂ c` bits.
#[inline]
pub fn scale_to_capacity(hash: u64, capacity: usize) -> usize {
    ((hash as u128 * capacity as u128) >> 64) as usize
}

/// Configuration shared by every growing-table variant.
#[derive(Debug, Clone, Copy)]
pub struct GrowConfig {
    /// Fill factor α at which a migration is triggered.
    pub grow_threshold: f64,
    /// Growth factor γ used when the live count justifies growing.
    pub growth_factor: usize,
    /// Upper bound of the migration block size in cells: a source of
    /// fewer than 16 such blocks is split into blocks of a sixteenth of
    /// its capacity, but not below 256 cells (DESIGN.md §6).
    pub migration_block: usize,
    /// Fraction of the capacity below which a cleanup migration shrinks the
    /// table instead of keeping its size.
    pub shrink_threshold: f64,
}

impl Default for GrowConfig {
    fn default() -> Self {
        GrowConfig {
            grow_threshold: DEFAULT_GROW_THRESHOLD,
            growth_factor: DEFAULT_GROWTH_FACTOR,
            migration_block: MIGRATION_BLOCK,
            shrink_threshold: 0.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_has_headroom_and_power_of_two() {
        for n in [1usize, 2, 3, 100, 4096, 5000, 1 << 20] {
            let c = capacity_for(n);
            assert!(c.is_power_of_two());
            assert!(c >= 2 * n, "capacity {c} for {n}");
            assert!(c <= 4 * n.max(1), "capacity {c} too large for {n}");
        }
    }

    #[test]
    fn capacity_saturates_instead_of_overflowing() {
        const MAX_POW2: usize = 1 << (usize::BITS - 1);
        // Largest input whose doubled request still has a representable
        // power-of-two ceiling.
        assert_eq!(capacity_for(1 << 62), MAX_POW2);
        // Beyond it the computation used to panic (debug) or wrap to 0
        // (release); it must clamp to the largest power of two instead.
        assert_eq!(capacity_for((1 << 62) + 1), MAX_POW2);
        assert_eq!(capacity_for(usize::MAX / 2), MAX_POW2);
        assert_eq!(capacity_for(usize::MAX), MAX_POW2);
        assert!(capacity_for(usize::MAX).is_power_of_two());
    }

    #[test]
    fn scaling_is_monotone_and_in_range() {
        let capacity = 1 << 16;
        let mut last = 0usize;
        for i in 0..1000u64 {
            let h = i << 48; // increasing hash values
            let cell = scale_to_capacity(h, capacity);
            assert!(cell < capacity);
            assert!(cell >= last, "scaling must be monotone");
            last = cell;
        }
        assert_eq!(scale_to_capacity(u64::MAX, capacity), capacity - 1);
        assert_eq!(scale_to_capacity(0, capacity), 0);
    }

    #[test]
    fn scaling_matches_top_bits_for_power_of_two() {
        let capacity = 1 << 20;
        for x in [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF0] {
            let h = hash_key(x);
            assert_eq!(scale_to_capacity(h, capacity), (h >> (64 - 20)) as usize);
        }
    }

    #[test]
    fn growing_preserves_scaled_order() {
        // The property behind Lemma 1: growing by γ scales positions
        // monotonically, i.e. h_c(x) ≤ h_c(y) implies h_{γc}(x) ≤ h_{γc}(y).
        let c = 1 << 10;
        let mut hashes: Vec<u64> = (0..4000u64).map(hash_key).collect();
        hashes.sort_unstable();
        let small: Vec<usize> = hashes.iter().map(|&h| scale_to_capacity(h, c)).collect();
        let large: Vec<usize> = hashes
            .iter()
            .map(|&h| scale_to_capacity(h, 2 * c))
            .collect();
        for w in small.windows(2).zip(large.windows(2)) {
            assert!(w.0[0] <= w.0[1]);
            assert!(w.1[0] <= w.1[1]);
        }
        // And the target position lies inside [γ·pos, γ·(pos+1)).
        for (&h, &pos) in hashes.iter().zip(&small) {
            let target = scale_to_capacity(h, 2 * c);
            assert!(target >= 2 * pos && target < 2 * (pos + 1));
        }
    }

    #[test]
    fn hash_select_dispatch() {
        assert_eq!(HashSelect::Mix.hash(77), hash_key(77));
        assert_eq!(HashSelect::Crc.hash(77), crate::crc::crc64_pair(77));
        assert_eq!(HashSelect::default(), HashSelect::Mix);
        // The scaling mapping stays monotone for both hashes (Lemma 1 only
        // needs monotonicity of the mapping, not any hash property).
        for hash in [HashSelect::Mix, HashSelect::Crc] {
            let mut hs: Vec<u64> = (0..1000u64).map(|x| hash.hash(x)).collect();
            hs.sort_unstable();
            let cells: Vec<usize> = hs.iter().map(|&h| scale_to_capacity(h, 1 << 16)).collect();
            assert!(cells.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn hash_bytes_matches_pinned_vectors() {
        // One length per branch and boundary of the kernel: empty, byte
        // picks, four-byte windows (coinciding, overlapping), eight-byte
        // windows (coinciding, overlapping by 7, by 1), all sixteen bytes,
        // one loop step, several.  Computed by an independent
        // implementation; a slip in a window's offset or in the byte order
        // moves them.
        let letters = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        for (len, want) in [
            (0, 0x2DDE_ADAE_A19A_1A5Bu64),
            (1, 0x7ACE_D635_7897_E543),
            (3, 0x82A0_D3DD_A790_0AD2),
            (4, 0x90F1_B6DD_AADB_7FAB),
            (7, 0xCA3A_9E2D_E391_FBD8),
            (8, 0xCCFC_6B6C_0314_50E2),
            (9, 0x55A3_1C56_DEF2_E337),
            (15, 0x54FD_F256_88B2_6F39),
            (16, 0x7DE9_4FAA_8138_EC10),
            (17, 0xD67A_12DD_063B_7A05),
            (40, 0x77DA_2933_D211_2D02),
        ] {
            assert_eq!(hash_bytes(&letters[..len]), want, "length {len}");
        }
    }

    #[test]
    fn hash_bytes_sees_the_length_and_the_last_byte() {
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"a\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(&[0; 8]), hash_bytes(&[0; 16]));
        for len in 1..=40 {
            let mut key = vec![b'x'; len];
            let before = hash_bytes(&key);
            key[len - 1] ^= 1;
            assert_ne!(hash_bytes(&key), before, "length {len}");
        }
    }

    /// The home cell comes from the top bits of the hash and the signature
    /// from the bottom 15, so both ends must spread keys that differ only
    /// at their end.  Returns (χ² of the 4096 top-12-bit buckets, largest
    /// bucket, distinct signatures) over the keys `key_of(0..2^14)`.
    fn spread(key_of: impl Fn(u32) -> Vec<u8>) -> (f64, usize, usize) {
        const KEYS: u32 = 1 << 14;
        const BUCKETS: usize = 1 << 12;
        let mut buckets = [0usize; BUCKETS];
        let mut signatures = std::collections::HashSet::new();
        for i in 0..KEYS {
            let hash = hash_bytes(&key_of(i));
            buckets[scale_to_capacity(hash, BUCKETS)] += 1;
            signatures.insert(crate::complex::signature_of(hash));
        }
        let mean = f64::from(KEYS) / BUCKETS as f64;
        let chi2 = buckets
            .iter()
            .map(|&count| (count as f64 - mean).powi(2) / mean)
            .sum();
        let largest = *buckets.iter().max().expect("non-empty");
        (chi2, largest, signatures.len())
    }

    #[test]
    fn hash_bytes_spreads_both_ends() {
        let counter = |i: u32| format!("k-{i}").into_bytes();
        // A long common prefix and two differing bytes at the very end:
        // where a byte-at-a-time multiplicative hash is weakest, because its
        // last bytes hardly reach its top bits (FNV-1a: χ² 2.4 million, one
        // bucket of 640).
        let suffix = |i: u32| {
            let mut key = b"the/quick/brown/fox/jumps/over/the/lazy/dog/".to_vec();
            key.extend([(i >> 7) as u8, (i & 127) as u8]);
            key
        };
        for (family, (chi2, largest, signatures)) in
            [("counter", spread(counter)), ("suffix", spread(suffix))]
        {
            // 4095 degrees of freedom: mean 4095, standard deviation 90.5.
            assert!(chi2 < 4095.0 + 6.0 * 90.5, "{family}: χ² {chi2}");
            // Poisson(4) over 4096 buckets tops out at 13–15.
            assert!(largest <= 20, "{family}: a bucket of {largest}");
            // 32767·(1 − e^(−16384/32767)) = 12 893 distinct values expected.
            assert!(
                (12_500..=13_300).contains(&signatures),
                "{family}: {signatures} distinct signatures"
            );
        }
    }

    #[test]
    fn default_config_matches_paper_constants() {
        let cfg = GrowConfig::default();
        assert!((cfg.grow_threshold - 0.6).abs() < 1e-9);
        assert_eq!(cfg.growth_factor, 2);
        assert_eq!(cfg.migration_block, 4096);
    }
}
