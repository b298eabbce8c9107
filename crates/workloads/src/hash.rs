//! Hash functions used by the tables and the workload generators.
//!
//! The paper (§8.3) hashes keys with two hardware CRC32-C instructions with
//! different seeds, one for the upper and one for the lower 32 bits of the
//! hash value.  We provide
//!
//! * [`crc64_pair`] — a faithful software port of that construction built
//!   on a table-driven CRC32-C (Castagnoli) implementation, and
//! * [`mix64`] — a multiply–xorshift finalizer (the splitmix64
//!   finalizer), bijective and with a known inverse.
//!
//! Neither is the tables' home hash: that is the one-multiply fold
//! `growt_iface::hash::hash_key` (DESIGN.md §8).
//!
//! On x86-64 CPUs with SSE4.2 the CRC kernel dispatches to the hardware
//! `crc32q` instruction ([`crc32c_u64`] checks the cached std feature
//! detection once per call), so `HashKind::Crc` runs the paper's actual
//! two-instruction hash; the table-driven port ([`crc32c_u64_sw`]) remains
//! as the fallback and as the reference the hardware path is tested
//! against.

/// CRC32-C (Castagnoli) polynomial, reflected representation.
const CRC32C_POLY_REFLECTED: u32 = 0x82F6_3B78;

/// Lazily built 8-bit lookup table for CRC32-C.
fn crc32c_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC32C_POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        table
    })
}

/// Software CRC32-C over the 8 bytes of `x`, starting from `seed`.
///
/// This matches the semantics of chaining the x86 `crc32q` instruction over
/// one 64-bit operand with an initial accumulator of `seed` — it is the
/// reference the hardware kernel is tested against and the fallback on
/// CPUs without SSE4.2.
pub fn crc32c_u64_sw(seed: u32, x: u64) -> u32 {
    let table = crc32c_table();
    let mut crc = seed;
    for byte in x.to_le_bytes() {
        crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Hardware kernel: one `crc32q` instruction.
///
/// # Safety
///
/// The caller must guarantee the CPU supports SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_u64_hw(seed: u32, x: u64) -> u32 {
    std::arch::x86_64::_mm_crc32_u64(seed as u64, x) as u32
}

/// `true` when the hardware CRC32-C instruction (SSE4.2) can be used on
/// this CPU (cached detection; `GROWT_NO_SIMD` in the environment forces
/// the software port, mirroring `growt-core::cpu` so the tables and the
/// workload generators always agree on the kernel).
#[inline]
pub fn crc32c_hw_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        if std::env::var_os("GROWT_NO_SIMD").is_some() {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("sse4.2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// CRC32-C over the 8 bytes of `x`, starting from `seed`: the hardware
/// `crc32q` instruction when available (§8.3), the table-driven software
/// port otherwise.
#[inline]
pub fn crc32c_u64(seed: u32, x: u64) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if crc32c_hw_available() {
        // SAFETY: feature presence checked (or guaranteed by the build).
        return unsafe { crc32c_u64_hw(seed, x) };
    }
    crc32c_u64_sw(seed, x)
}

/// The paper's hash: two CRC32-C passes with different seeds concatenated
/// into a 64-bit hash value.  Routed through the hardware kernel when
/// available — two `crc32q` instructions per key, exactly §8.3.
#[inline]
pub fn crc64_pair(x: u64) -> u64 {
    let hi = crc32c_u64(0x9747_B28C, x) as u64;
    let lo = crc32c_u64(0x1B87_3593, x) as u64;
    (hi << 32) | lo
}

/// Multiply–xorshift finalizer (the splitmix64 / MurmurHash3 finalizer).
///
/// Bijective on `u64`, cheap, and statistically uniform.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Inverse of [`mix64`]; used in tests to show the finalizer is a bijection
/// (junction-style tables rely on invertible hash functions, §8.1.1).
pub fn mix64_inverse(mut x: u64) -> u64 {
    // Invert x ^= x >> 31 (and the implied >> 62 term).
    x ^= (x >> 31) ^ (x >> 62);
    x = x.wrapping_mul(0x319642B2D24D8EC3); // modular inverse of 0x94D049BB133111EB
    x ^= (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(0x96DE1B173F119089); // modular inverse of 0xBF58476D1CE4E5B9
    x ^= (x >> 30) ^ (x >> 60);
    x
}

/// Which hash function a table/driver should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashKind {
    /// The multiply–xorshift finalizer (default).
    #[default]
    Mix,
    /// The paper's CRC32-C pair.
    Crc,
}

impl HashKind {
    /// Hash `x` with the selected function.
    #[inline]
    pub fn hash(self, x: u64) -> u64 {
        match self {
            HashKind::Mix => mix64(x),
            HashKind::Crc => crc64_pair(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // CRC32-C of the 9 ASCII digits "123456789" is 0xE3069283; we check
        // our 8-byte kernel by computing it byte-wise through the table.
        let table = crc32c_table();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in b"123456789" {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        assert_eq!(crc ^ 0xFFFF_FFFF, 0xE306_9283);
    }

    #[test]
    fn crc_u64_differs_by_seed() {
        let a = crc32c_u64(1, 0xDEAD_BEEF);
        let b = crc32c_u64(2, 0xDEAD_BEEF);
        assert_ne!(a, b);
    }

    #[test]
    fn hardware_crc_matches_software_port() {
        if !crc32c_hw_available() {
            // No hardware path on this CPU: the dispatcher must agree with
            // the software port trivially; nothing further to compare.
            assert_eq!(crc32c_u64(7, 42), crc32c_u64_sw(7, 42));
            return;
        }
        // Known vectors through the dispatching kernel (hardware here)
        // against the table-driven software port, seed-chained exactly like
        // crc32q.
        for (seed, x) in [
            (0u32, 0u64),
            (0x9747_B28C, 0x0123_4567_89AB_CDEF),
            (0x1B87_3593, u64::MAX),
            (0xFFFF_FFFF, 0x3931_3837_3635_3433), // "456789" tail bytes
        ] {
            assert_eq!(
                crc32c_u64(seed, x),
                crc32c_u64_sw(seed, x),
                "seed {seed:#x} x {x:#x}"
            );
        }
        // Pseudo-random sweep, and the pair construction end to end.
        let mut rng = crate::mt64::SplitMix64::new(4242);
        for _ in 0..10_000 {
            let x = rng.next_u64();
            assert_eq!(crc32c_u64(1, x), crc32c_u64_sw(1, x), "x = {x:#x}");
            let hi = crc32c_u64_sw(0x9747_B28C, x) as u64;
            let lo = crc32c_u64_sw(0x1B87_3593, x) as u64;
            assert_eq!(crc64_pair(x), (hi << 32) | lo, "x = {x:#x}");
        }
    }

    #[test]
    fn crc64_pair_spreads_low_bits() {
        // Sequential keys must not map to sequential cells.
        let h0 = crc64_pair(0);
        let h1 = crc64_pair(1);
        let h2 = crc64_pair(2);
        assert_ne!(h1.wrapping_sub(h0), h2.wrapping_sub(h1));
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        for x in [0u64, 1, 2, 3, u64::MAX, 0x1234_5678_9ABC_DEF0, 42] {
            assert_eq!(mix64_inverse(mix64(x)), x, "x = {x:#x}");
        }
        let mut rng = crate::mt64::SplitMix64::new(99);
        for _ in 0..10_000 {
            let x = rng.next_u64();
            assert_eq!(mix64_inverse(mix64(x)), x);
        }
    }

    #[test]
    fn mix64_uniform_bucket_spread() {
        // Hash 1..=N into 64 buckets and check no bucket is pathological.
        let n = 64 * 1024u64;
        let mut buckets = [0u32; 64];
        for x in 1..=n {
            buckets[(mix64(x) >> 58) as usize] += 1;
        }
        let expected = (n / 64) as f64;
        for &b in &buckets {
            assert!((b as f64) > expected * 0.8 && (b as f64) < expected * 1.2);
        }
    }

    #[test]
    fn hash_kind_dispatch() {
        assert_eq!(HashKind::Mix.hash(77), mix64(77));
        assert_eq!(HashKind::Crc.hash(77), crc64_pair(77));
    }
}
