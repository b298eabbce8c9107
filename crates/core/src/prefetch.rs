//! Portable cache-line prefetch helpers for the software-pipelined hot
//! paths (batched operations, long probe runs, migration block copies).
//!
//! The tables are memory-bound: in steady state almost every table access
//! touches a cold cache line, so single-op throughput is capped by DRAM
//! latency.  The batched operation pipeline (hash → prefetch → probe, see
//! DESIGN.md) issues a prefetch for every home cell of a block of keys
//! before running any probe, keeping many misses in flight per thread
//! instead of paying them one at a time.
//!
//! On x86-64 both helpers lower to `prefetcht0` via
//! [`core::arch::x86_64::_mm_prefetch`].  [`prefetch_write`] deliberately
//! does *not* use the write-intent hint (`prefetchw`): the instruction
//! needs the separate `prfchw` target feature and `prefetcht0` already
//! pulls the line into L1, which is where all of the win is — the
//! read-for-ownership upgrade is cheap once the line is local.  That
//! sentence was a guess until it was measured (EXPERIMENTS.md "Open
//! findings", PR 22): `prefetchw` on the home cell ahead of `upsert`'s
//! first read made `aggregate_zipf` *slower*, `mops_1t` 107.8 / 106.8 /
//! 106.8 → 101.9 / 102.6 / 100.7 with `lat_p50_ns` unchanged — the
//! exclusive request costs more than the upgrade it saves when the line
//! is already local, as a Zipf head's is.  On other architectures both
//! helpers compile to nothing; the batch pipeline then degenerates to the
//! plain per-op loop with a little extra arithmetic.

/// Number of 16-byte table cells per 64-byte cache line.  Probe loops use
/// this to prefetch one line ahead when a probe run crosses a line
/// boundary.
pub const CELLS_PER_LINE: usize = 4;

/// Hint the CPU to pull the cache line containing `t` towards L1 for a
/// future read.  Never faults; a dangling or unmapped address is merely a
/// wasted hint (the referenced `&T` here is always valid anyway).
#[inline(always)]
pub fn prefetch_read<T>(t: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it performs no memory access that could
    // fault and has no architectural effect other than cache state.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            t as *const T as *const i8,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = t;
}

/// Hint the CPU to pull the cache line containing `t` towards L1 ahead of
/// a modification (CAS or store).  See the module docs for why this is the
/// same instruction as [`prefetch_read`] on x86-64.
#[inline(always)]
pub fn prefetch_write<T>(t: &T) {
    prefetch_read(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_safe_no_op_semantically() {
        // Prefetching must not alter the value and must accept any
        // reference, including one into the middle of an array.
        let data = [7u64; 32];
        for x in &data {
            prefetch_read(x);
            prefetch_write(x);
        }
        assert!(data.iter().all(|&x| x == 7));
    }

    #[test]
    fn cells_per_line_matches_cell_layout() {
        assert_eq!(
            64 / std::mem::size_of::<crate::cell::Cell>(),
            CELLS_PER_LINE
        );
    }
}
