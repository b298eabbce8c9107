//! Dynamic block scheduler (paper §8.3).
//!
//! "The work is distributed between threads dynamically.  While there is
//! work to do, threads reserve blocks of 4096 operations to execute (using
//! an atomic counter)."  [`BlockScheduler`] is exactly that: a shared
//! fetch-and-add cursor over an operation range, dealing out fixed-size
//! blocks.

use std::sync::atomic::{AtomicUsize, Ordering};

use growt_iface::sync::CachePadded;

/// Default block size used by the paper (4096 operations).
pub const DEFAULT_BLOCK: usize = 4096;

/// A shared work-dealing cursor over `0..total` in blocks of `block` items.
pub struct BlockScheduler {
    cursor: CachePadded<AtomicUsize>,
    total: usize,
    block: usize,
}

impl BlockScheduler {
    /// Create a scheduler over `total` operations with the default block
    /// size of 4096.
    pub fn new(total: usize) -> Self {
        Self::with_block(total, DEFAULT_BLOCK)
    }

    /// Create a scheduler with an explicit block size.
    pub fn with_block(total: usize, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        BlockScheduler {
            cursor: CachePadded::new(AtomicUsize::new(0)),
            total,
            block,
        }
    }

    /// Reserve the next block.  Returns the half-open range of operation
    /// indices this thread should execute, or `None` when all work has been
    /// dealt out.
    #[inline]
    pub fn next_block(&self) -> Option<std::ops::Range<usize>> {
        let start = self.cursor.fetch_add(self.block, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + self.block).min(self.total))
    }

    /// Total number of operations managed by this scheduler.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn deals_every_index_exactly_once_single_thread() {
        let sched = BlockScheduler::with_block(10_000, 64);
        let mut seen = vec![false; 10_000];
        while let Some(range) = sched.next_block() {
            for i in range {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn deals_every_index_exactly_once_multi_thread() {
        let total = 100_000;
        let sched = Arc::new(BlockScheduler::with_block(total, 128));
        let counters: Arc<Vec<std::sync::atomic::AtomicU8>> = Arc::new(
            (0..total)
                .map(|_| std::sync::atomic::AtomicU8::new(0))
                .collect(),
        );
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let sched = Arc::clone(&sched);
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    while let Some(range) = sched.next_block() {
                        for i in range {
                            counters[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn empty_and_partial_blocks() {
        let sched = BlockScheduler::with_block(0, 16);
        assert!(sched.next_block().is_none());

        let sched = BlockScheduler::with_block(10, 16);
        assert_eq!(sched.next_block(), Some(0..10));
        assert!(sched.next_block().is_none());
    }
}
