//! Allocation tracking and a pre-touched memory pool.
//!
//! Two pieces of the paper's methodology live here:
//!
//! * **Allocation tracking** (Fig. 10): "the memory consumption is measured
//!   by logging the size of each allocation and deallocation during the
//!   execution (done by replacing allocation methods)".  [`TrackingAlloc`]
//!   is a `GlobalAlloc` wrapper that does exactly that; the figure harness
//!   installs it as the global allocator and reads [`current_bytes`] /
//!   [`peak_bytes`] around each run.
//!
//! * **User-space memory pool** (§7): the paper allocates table arrays from
//!   Intel TBB's memory pool so that the virtual memory handed to a growing
//!   migration is already mapped, bypassing a kernel lock.  [`PagePool`]
//!   reproduces the semantics: buffers are pre-touched on first
//!   acquisition and recycled on release, so a growing step never pays the
//!   page-fault storm again.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use growt_iface::sync::lock;

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

// ---------------------------------------------------------------------------
// Page pool
// ---------------------------------------------------------------------------

/// A recycled, pre-touched buffer handed out by [`PagePool`].
pub struct PooledBuffer {
    data: Vec<u8>,
}

impl PooledBuffer {
    /// Size of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Mutable view of the buffer contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// A user-space memory pool with pre-touched, recyclable buffers.
///
/// `acquire(n)` returns a zeroed buffer of at least `n` bytes.  Buffers
/// given back with `release` are reused by later acquisitions of the same
/// or smaller size, so repeated growing steps do not go back to the kernel
/// for fresh pages — the property the paper gets from TBB's pool.
pub struct PagePool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Number of acquisitions served from the free list.
    hits: AtomicUsize,
    /// Number of acquisitions that had to allocate fresh memory.
    misses: AtomicUsize,
    /// Maximum number of buffers kept on the free list.
    max_cached: usize,
}

impl Default for PagePool {
    fn default() -> Self {
        Self::new()
    }
}

impl PagePool {
    /// Create an empty pool keeping at most 16 buffers cached.
    pub fn new() -> Self {
        Self::with_max_cached(16)
    }

    /// Create an empty pool with an explicit cache limit.
    pub fn with_max_cached(max_cached: usize) -> Self {
        PagePool {
            free: Mutex::new(Vec::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            max_cached,
        }
    }

    /// Acquire a zeroed buffer of at least `bytes` bytes.
    pub fn acquire(&self, bytes: usize) -> PooledBuffer {
        {
            let mut free = lock(&self.free);
            if let Some(pos) = free.iter().position(|b| b.capacity() >= bytes) {
                let mut data = free.swap_remove(pos);
                self.hits.fetch_add(1, Ordering::Relaxed);
                data.clear();
                data.resize(bytes, 0);
                return PooledBuffer { data };
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Fresh allocation: zeroing it here is the "pre-touch" that maps the
        // pages before the buffer reaches the (timed) migration.
        let data = vec![0u8; bytes];
        PooledBuffer { data }
    }

    /// Return a buffer to the pool for reuse.
    pub fn release(&self, buffer: PooledBuffer) {
        let mut free = lock(&self.free);
        if free.len() < self.max_cached {
            free.push(buffer.data);
        }
    }

    /// `(hits, misses)` acquisition statistics.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of buffers currently cached.
    pub fn cached(&self) -> usize {
        lock(&self.free).len()
    }
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

    #[test]
    fn pool_reuses_buffers() {
        let pool = PagePool::new();
        let buf = pool.acquire(4096);
        assert_eq!(buf.len(), 4096);
        pool.release(buf);
        assert_eq!(pool.cached(), 1);
        let buf2 = pool.acquire(1024);
        // The 4096-byte buffer is large enough and must be reused.
        let (hits, misses) = pool.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        assert_eq!(buf2.len(), 1024);
        assert_eq!(pool.cached(), 0);
    }

    #[test]
    fn pool_buffers_are_zeroed_on_reuse() {
        let pool = PagePool::new();
        let mut buf = pool.acquire(128);
        buf.as_mut_slice().fill(0xAB);
        pool.release(buf);
        let buf2 = pool.acquire(128);
        assert!(buf2.data.iter().all(|&b| b == 0));
    }

    #[test]
    fn pool_respects_cache_limit() {
        let pool = PagePool::with_max_cached(2);
        let buffers: Vec<_> = (0..4).map(|_| pool.acquire(64)).collect();
        for b in buffers {
            pool.release(b);
        }
        assert_eq!(pool.cached(), 2);
    }

    #[test]
    fn concurrent_pool_usage() {
        let pool = std::sync::Arc::new(PagePool::with_max_cached(8));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..200 {
                        let mut b = pool.acquire(512 + (i % 7) * 64);
                        b.as_mut_slice()[0] = 1;
                        pool.release(b);
                    }
                });
            }
        });
        let (hits, misses) = pool.stats();
        assert_eq!(hits + misses, 4 * 200);
        assert!(hits > 0);
    }
}
