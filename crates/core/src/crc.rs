//! CRC32-C (Castagnoli) hashing for the table cell mapping (paper §8.3).
//!
//! The paper hashes every key with **two hardware CRC32-C instructions**
//! using different seeds, concatenated into one 64-bit hash value.  This
//! module provides that construction with three layers:
//!
//! * [`crc32c_u64_sw`] — a table-driven software port (byte-at-a-time over
//!   the reflected Castagnoli polynomial), bit-identical to chaining the
//!   x86 `crc32q` instruction over one 64-bit operand;
//! * a hardware kernel built on `_mm_crc32_u64` (SSE4.2), compiled on
//!   x86-64 and selected at runtime via the std feature-detection cache
//!   (one relaxed load + predictable branch per call — or free when the
//!   build already enables `target-feature=+sse4.2`);
//! * [`crc64_pair`] — the paper's two-seed construction on top of
//!   whichever kernel is available.
//!
//! The seeds match `growt-workloads::hash::crc64_pair`, so the workload
//! generators and the tables agree on the hash whenever both select CRC.

/// CRC32-C (Castagnoli) polynomial, reflected representation.
const CRC32C_POLY_REFLECTED: u32 = 0x82F6_3B78;

/// Seed of the upper 32 hash bits (must match `growt-workloads::hash`).
pub const CRC_SEED_HI: u32 = 0x9747_B28C;
/// Seed of the lower 32 hash bits (must match `growt-workloads::hash`).
pub const CRC_SEED_LO: u32 = 0x1B87_3593;

/// Lazily built 8-bit lookup table for the software CRC32-C kernel.
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

/// Software CRC32-C over the 8 bytes of `x`, starting from `seed` — the
/// table-driven fallback, semantically identical to the `crc32q`
/// instruction with an initial accumulator of `seed`.
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
/// this CPU.  Delegates to the shared feature cache of [`crate::cpu`]
/// (one relaxed load per call), which also honours the `GROWT_NO_SIMD`
/// override so the table-driven port can be forced for testing.
#[inline]
pub fn crc32c_hw_available() -> bool {
    crate::cpu::has_sse42()
}

/// CRC32-C over the 8 bytes of `x` starting from `seed`: the hardware
/// instruction when available, the table-driven port otherwise.
#[inline]
pub fn crc32c_u64(seed: u32, x: u64) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if crc32c_hw_available() {
        // SAFETY: feature presence checked (or guaranteed by the build).
        return unsafe { crc32c_u64_hw(seed, x) };
    }
    crc32c_u64_sw(seed, x)
}

/// The paper's hash (§8.3): two CRC32-C passes with different seeds
/// concatenated into a 64-bit hash value.  Uses the hardware kernel when
/// available — two `crc32q` instructions per key.
#[inline]
pub fn crc64_pair(x: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if crc32c_hw_available() {
        // SAFETY: feature presence checked (or guaranteed by the build).
        let hi = unsafe { crc32c_u64_hw(CRC_SEED_HI, x) } as u64;
        // SAFETY: as above.
        let lo = unsafe { crc32c_u64_hw(CRC_SEED_LO, x) } as u64;
        return (hi << 32) | lo;
    }
    crc64_pair_sw(x)
}

/// Software-only form of [`crc64_pair`] (reference for tests).
pub fn crc64_pair_sw(x: u64) -> u64 {
    let hi = crc32c_u64_sw(CRC_SEED_HI, x) as u64;
    let lo = crc32c_u64_sw(CRC_SEED_LO, x) as u64;
    (hi << 32) | lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_kernel_known_vector() {
        // CRC32-C("123456789") = 0xE3069283, computed byte-wise through the
        // same table the 8-byte kernel uses.
        let table = crc32c_table();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in b"123456789" {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        assert_eq!(crc ^ 0xFFFF_FFFF, 0xE306_9283);
    }

    #[test]
    fn hardware_matches_software_port() {
        if !crc32c_hw_available() {
            return; // nothing to compare against on this CPU
        }
        // Known vectors plus a pseudo-random sweep: the dispatching kernel
        // (hardware here) must be bit-identical to the table-driven port.
        for x in [0u64, 1, 2, 0xDEAD_BEEF, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(crc32c_u64(CRC_SEED_HI, x), crc32c_u64_sw(CRC_SEED_HI, x));
            assert_eq!(crc32c_u64(CRC_SEED_LO, x), crc32c_u64_sw(CRC_SEED_LO, x));
            assert_eq!(crc64_pair(x), crc64_pair_sw(x), "x = {x:#x}");
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            assert_eq!(crc64_pair(x), crc64_pair_sw(x), "x = {x:#x}");
        }
    }

    #[test]
    fn pair_spreads_sequential_keys() {
        let h0 = crc64_pair(0);
        let h1 = crc64_pair(1);
        let h2 = crc64_pair(2);
        assert_ne!(h1.wrapping_sub(h0), h2.wrapping_sub(h1));
    }

    #[test]
    fn pair_uniform_bucket_spread() {
        // Hash 1..=N into 64 buckets via the top bits (the scaling mapping
        // uses exactly those) and check no bucket is pathological.
        let n = 64 * 1024u64;
        let mut buckets = [0u32; 64];
        for x in 1..=n {
            buckets[(crc64_pair(x) >> 58) as usize] += 1;
        }
        let expected = (n / 64) as f64;
        for &b in &buckets {
            assert!((b as f64) > expected * 0.8 && (b as f64) < expected * 1.2);
        }
    }
}
