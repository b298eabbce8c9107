//! Allocation tracking for the figures' memory columns.
//!
//! **Allocation tracking** (Fig. 10): "the memory consumption is measured
//! by logging the size of each allocation and deallocation during the
//! execution (done by replacing allocation methods)".  [`TrackingAlloc`]
//! is a `GlobalAlloc` wrapper that does exactly that; the figure harness
//! installs it as the global allocator and reads [`current_bytes`] /
//! [`peak_bytes`] around each run.
//!
//! The paper's other allocation device, the **user-space memory pool**
//! (§7) — table arrays taken from Intel TBB's pool, so that the memory a
//! growing migration gets is already mapped and skips the kernel — lives
//! with the arrays themselves: `growt_core::mem::HugeBox` keeps freed cell
//! arrays of 2 MiB and more, up to 64 MiB, and hands them to the next
//! request of the same size, cleared.  Those mappings never pass through
//! the global allocator, so this crate does not see them either; the
//! figures add `growt_core::mem::mapped_bytes()`.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Tracking allocator
// ---------------------------------------------------------------------------

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static DEALLOCATED: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` wrapper around the system allocator that records every
/// allocation and deallocation size.
///
/// Install it in a binary with:
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: growt_alloc_track::TrackingAlloc = growt_alloc_track::TrackingAlloc;
/// ```
pub struct TrackingAlloc;

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees (a fresh, suitably aligned block of the
// layout's size, or null; frees and reallocations of blocks it handed
// out) are this allocator's.  The bookkeeping around each call only
// touches relaxed atomics and saturating arithmetic: it never allocates,
// so it cannot re-enter the allocator, and it never panics, so it cannot
// unwind out of it.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract (a
        // non-zero-sized layout), which is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout` (the
        // caller's contract), i.e. from `System` with that layout.
        unsafe { System.dealloc(ptr, layout) };
        DEALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`: the caller's layout contract is
        // `System.alloc_zeroed`'s.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and `new_size`
        // is non-zero and does not overflow when rounded up to the
        // alignment (the caller's contract), which is `System.realloc`'s.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            DEALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            record_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[inline]
fn record_alloc(size: u64) {
    ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
    // Saturating: between the two loads other threads may allocate and
    // free more than is live, and an overflow panic inside the allocator
    // aborts the process (a `GlobalAlloc` must not unwind).
    let live = (ALLOCATED.fetch_add(size, Ordering::Relaxed) + size)
        .saturating_sub(DEALLOCATED.load(Ordering::Relaxed));
    // Best-effort peak tracking; exact enough for Fig. 10 reporting.
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Bytes currently allocated (allocated − deallocated) since process start
/// or the last [`reset_counters`] call.
pub fn current_bytes() -> u64 {
    ALLOCATED
        .load(Ordering::Relaxed)
        .saturating_sub(DEALLOCATED.load(Ordering::Relaxed))
}

/// Peak live bytes observed.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Total number of allocations performed.
pub fn allocation_count() -> u64 {
    ALLOCATION_COUNT.load(Ordering::Relaxed)
}

/// Total bytes handed out by the allocator (ignoring frees).
pub fn total_allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Reset the peak/count statistics to the current live level (used between
/// benchmark configurations).
pub fn reset_counters() {
    let live = current_bytes();
    PEAK.store(live, Ordering::Relaxed);
    ALLOCATION_COUNT.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_manual_records() {
        // The tracking allocator is not installed as the global allocator in
        // unit tests; exercise the bookkeeping directly.
        let before = total_allocated_bytes();
        record_alloc(1024);
        assert!(total_allocated_bytes() >= before + 1024);
        assert!(allocation_count() >= 1);
        reset_counters();
        assert_eq!(allocation_count(), 0);
    }
}
