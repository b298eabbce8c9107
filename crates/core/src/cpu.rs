//! Runtime CPU-feature detection shared by every hardware-accelerated
//! kernel in this crate (the CRC32-C hash of [`crate::crc`] and the SIMD
//! group probe of [`crate::simd`]), and the cached CPU count behind the
//! tables' default thread hint.
//!
//! Detection runs once per process (cached in a `OnceLock`); afterwards a
//! query is a relaxed load of a plain bool.  Setting the environment
//! variable `GROWT_NO_SIMD` (to any value) forces every query to report
//! `false`, so the portable fallbacks — the table-driven CRC port and the
//! u64-SWAR group matcher — can be exercised on hardware that would
//! otherwise never take them.  The override is read once, at first query;
//! it cannot be toggled mid-process (the tables cache no feature state, so
//! this is purely a detection-time decision).

use std::sync::OnceLock;

#[derive(Clone, Copy)]
struct CpuFlags {
    sse2: bool,
    sse42: bool,
}

fn flags() -> CpuFlags {
    static FLAGS: OnceLock<CpuFlags> = OnceLock::new();
    *FLAGS.get_or_init(|| {
        if std::env::var_os("GROWT_NO_SIMD").is_some() {
            return CpuFlags {
                sse2: false,
                sse42: false,
            };
        }
        #[cfg(target_arch = "x86_64")]
        {
            CpuFlags {
                sse2: std::arch::is_x86_feature_detected!("sse2"),
                sse42: std::arch::is_x86_feature_detected!("sse4.2"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFlags {
                sse2: false,
                sse42: false,
            }
        }
    })
}

/// `std::thread::available_parallelism()` (4 where it cannot tell), asked
/// once per process: std re-reads the cgroup files on every call (13 µs),
/// which is most of the cost of creating a small table.  Sizes the
/// randomized counter-flush threshold of tables created without an
/// explicit thread hint.  std answers for the *calling thread* (its
/// affinity mask, capped by the cgroup quota) and the first caller's
/// answer is kept: a process whose first table is created on a thread
/// pinned to one CPU keeps the hint 1, and a later change of the quota is
/// not followed.  The hint was never more than a guess at the handle
/// count; `with_config` takes the real one.
pub(crate) fn available_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// `true` when SSE2 16-byte compares may be used (x86-64 and not disabled
/// via `GROWT_NO_SIMD`).  Gates the SIMD group probe of [`crate::simd`].
#[inline]
pub fn has_sse2() -> bool {
    flags().sse2
}

/// `true` when SSE4.2 may be used (x86-64, CPU support and not disabled
/// via `GROWT_NO_SIMD`).  Gates the hardware `crc32q` kernel of
/// [`crate::crc`].
#[inline]
pub fn has_sse42() -> bool {
    flags().sse42
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_are_stable_and_consistent() {
        // Repeated queries must agree (cached detection).
        assert_eq!(has_sse2(), has_sse2());
        assert_eq!(has_sse42(), has_sse42());
        // SSE4.2 implies SSE2 on every real CPU; with the env override
        // both are false, so the implication holds either way.
        if has_sse42() {
            assert!(has_sse2());
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            assert!(!has_sse2());
            assert!(!has_sse42());
        }
    }
}
