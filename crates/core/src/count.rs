//! Approximate element counting (paper §5.2).
//!
//! An exact, shared element counter would serialize every insertion on one
//! cache line.  Instead each handle keeps local insertion/deletion counters
//! and flushes them into the global counters `I` and `D` only every Θ(p)
//! operations, with the flush threshold randomized to provably de-correlate
//! the flushes.  `I` (the number of non-empty cells, i.e. insertions
//! including tombstones) drives the growth trigger; `I − D` estimates the
//! live size.
//!
//! The threshold is drawn from `1..=`[`flush_bound`]`(p, capacity)` =
//! `min(64·p, capacity / (16·p))`, at least 1.  `64·p`: Θ(p), as the
//! paper asks, with a constant that makes the flush's locked `fetch_add`
//! — a transfer of the counter's line between cores — a small share of an
//! insert (at `p = 2`, one flush per 64.5 operations on average).
//! `capacity / (16·p)`: each of `p` handles buffers fewer than that many
//! operations, so `I` trails the true count by less than `capacity / 16`
//! and a 0.6 growth trigger fires by a load of 0.66 at the latest — which
//! also keeps a 64-cell table from buffering its way into `Full`.  On the
//! small generations of a growing table the second term is the smaller
//! one; the first takes over from `capacity = 1024·p²` on (DESIGN.md §8).

use std::sync::atomic::{AtomicU64, Ordering};

use growt_iface::sync::CachePadded;

/// Global approximate counters of a table generation.
#[derive(Debug, Default)]
pub struct GlobalCount {
    /// Successful insertions (= number of non-empty cells, §5.4).
    insertions: CachePadded<AtomicU64>,
    /// Successful deletions (tombstones written).
    deletions: CachePadded<AtomicU64>,
}

impl GlobalCount {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to the exact values produced by a finished migration
    /// (`I = migrated live elements`, `D = 0`, §5.2).
    pub fn reset_after_migration(&self, live_elements: u64) {
        self.insertions.store(live_elements, Ordering::Release);
        self.deletions.store(0, Ordering::Release);
    }

    /// Add a flushed batch of local counts.
    #[inline]
    pub fn flush(&self, insertions: u64, deletions: u64) -> u64 {
        if deletions > 0 {
            self.deletions.fetch_add(deletions, Ordering::AcqRel);
        }
        if insertions > 0 {
            self.insertions.fetch_add(insertions, Ordering::AcqRel) + insertions
        } else {
            self.insertions.load(Ordering::Acquire)
        }
    }

    /// Current global insertion count `I` (lower bound on non-empty cells).
    #[inline]
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Acquire)
    }

    /// Current global deletion count `D`.
    #[inline]
    pub fn deletions(&self) -> u64 {
        self.deletions.load(Ordering::Acquire)
    }

    /// Estimated number of live elements `S = I − D`.
    #[inline]
    pub fn live_estimate(&self) -> u64 {
        self.insertions().saturating_sub(self.deletions())
    }
}

/// Flush threshold ceiling per thread: the `64·p` of the module docs.
const FLUSHES_PER_THREAD: usize = 64;
/// The growth trigger overshoots by at most `capacity / OVERSHOOT_DIVISOR`.
const OVERSHOOT_DIVISOR: usize = 16;

/// Ceiling of the randomized flush threshold of a handle on a generation of
/// `capacity` cells in a table used by about `threads` threads:
/// `min(64·p, capacity / (16·p))`, at least 1 (module docs).
pub fn flush_bound(threads: usize, capacity: usize) -> u32 {
    let p = threads.clamp(1, u16::MAX as usize);
    (FLUSHES_PER_THREAD * p)
        .min(capacity / (OVERSHOOT_DIVISOR * p))
        .max(1) as u32
}

/// Handle-local counter with randomized flush threshold (§5.2: "between 1
/// and p" — here between 1 and [`flush_bound`]).
#[derive(Debug)]
pub struct LocalCount {
    pending_insertions: u32,
    pending_deletions: u32,
    threshold: u32,
    /// Upper bound for the randomized threshold ([`flush_bound`]).
    threshold_bound: u32,
    /// Cheap handle-local RNG state for re-randomizing the threshold.
    rng_state: u64,
}

impl LocalCount {
    /// Create the local counter of a handle on a generation of `capacity`
    /// cells, in a table accessed by roughly `threads` threads.  Handles
    /// create a fresh one whenever they move to a new generation.
    pub fn for_generation(threads: usize, capacity: usize, seed: u64) -> Self {
        let mut counter = LocalCount {
            pending_insertions: 0,
            pending_deletions: 0,
            threshold: 1,
            threshold_bound: flush_bound(threads, capacity),
            rng_state: seed | 1,
        };
        counter.rerandomize();
        counter
    }

    /// A counter tied to no generation's size: the `64·p` bound alone.
    pub fn new(threads: usize, seed: u64) -> Self {
        Self::for_generation(threads, usize::MAX, seed)
    }

    fn rerandomize(&mut self) {
        // xorshift64*; only needs to be cheap and decorrelated per handle.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let r = x.wrapping_mul(0x2545F4914F6CDD1D) >> 32;
        self.threshold = 1 + (r as u32 % self.threshold_bound);
    }

    /// Record one successful insertion.  Returns `Some((I_after, D))` if the
    /// local counters were flushed into `global` (the caller then checks the
    /// growth trigger), `None` otherwise.
    #[inline]
    pub fn record_insertion(&mut self, global: &GlobalCount) -> Option<(u64, u64)> {
        self.pending_insertions += 1;
        self.maybe_flush(global)
    }

    /// Record one successful deletion.
    #[inline]
    pub fn record_deletion(&mut self, global: &GlobalCount) -> Option<(u64, u64)> {
        self.pending_deletions += 1;
        self.maybe_flush(global)
    }

    #[inline]
    fn maybe_flush(&mut self, global: &GlobalCount) -> Option<(u64, u64)> {
        if self.pending_insertions + self.pending_deletions >= self.threshold {
            Some(self.flush(global))
        } else {
            None
        }
    }

    /// Force a flush of the pending local counts (called when a handle is
    /// dropped or a migration begins).
    pub fn flush(&mut self, global: &GlobalCount) -> (u64, u64) {
        let i = global.flush(
            u64::from(self.pending_insertions),
            u64::from(self.pending_deletions),
        );
        self.pending_insertions = 0;
        self.pending_deletions = 0;
        self.rerandomize();
        (i, global.deletions())
    }

    /// The live-size estimate `I − D` as the owner of this counter sees it:
    /// the global figures with its own buffered insertions and deletions
    /// added.  What it still misses are the other handles' buffers, fewer
    /// than `flush_bound` operations each.
    pub fn live_estimate(&self, global: &GlobalCount) -> u64 {
        (global.insertions() + u64::from(self.pending_insertions))
            .saturating_sub(global.deletions() + u64::from(self.pending_deletions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_counters_start_128_bytes_apart() {
        let count = GlobalCount::new();
        let insertions = &count.insertions as *const _ as usize;
        let deletions = &count.deletions as *const _ as usize;
        assert_eq!(insertions.abs_diff(deletions), 128);
        assert_eq!(std::mem::align_of::<GlobalCount>(), 128);
    }

    #[test]
    fn thresholds_lie_under_the_flush_bound() {
        for p in [1usize, 2, 7, 48] {
            for capacity in [2usize, 64, 1 << 11, 1 << 14, 1 << 20, usize::MAX] {
                let bound = (FLUSHES_PER_THREAD * p)
                    .min(capacity / (OVERSHOOT_DIVISOR * p))
                    .max(1) as u32;
                assert_eq!(flush_bound(p, capacity), bound);
                for seed in 0..20u64 {
                    let mut c = LocalCount::for_generation(p, capacity, seed);
                    for _ in 0..8 {
                        assert!(
                            (1..=bound).contains(&c.threshold),
                            "p={p} capacity={capacity}: {}",
                            c.threshold
                        );
                        c.rerandomize();
                    }
                }
            }
        }
        assert_eq!(
            LocalCount::new(2, 7).threshold_bound,
            flush_bound(2, usize::MAX)
        );
        assert_eq!(flush_bound(2, 64), 2);
    }

    #[test]
    fn exact_total_after_final_flush() {
        let global = GlobalCount::new();
        let mut locals: Vec<LocalCount> = (0..4).map(|i| LocalCount::new(4, i)).collect();
        let mut expected_i = 0u64;
        let mut expected_d = 0u64;
        for step in 0..10_000 {
            let l = &mut locals[step % 4];
            if step % 5 == 0 {
                l.record_deletion(&global);
                expected_d += 1;
            } else {
                l.record_insertion(&global);
                expected_i += 1;
            }
        }
        for l in &mut locals {
            l.flush(&global);
        }
        assert_eq!(global.insertions(), expected_i);
        assert_eq!(global.deletions(), expected_d);
        assert_eq!(global.live_estimate(), expected_i - expected_d);
    }

    #[test]
    fn undercount_stays_below_a_sixteenth_of_the_capacity() {
        // Each of the p handles buffers fewer than `capacity / (16·p)`
        // operations, so the growth trigger sees all but `capacity / 16`.
        for (p, capacity) in [
            (1usize, 64usize),
            (2, 64),
            (2, 1 << 11),
            (8, 1 << 12),
            (4, 1 << 20),
        ] {
            let global = GlobalCount::new();
            let mut locals: Vec<LocalCount> = (0..p)
                .map(|i| LocalCount::for_generation(p, capacity, i as u64))
                .collect();
            let mut true_count = 0u64;
            for round in 0..1000 {
                for l in locals.iter_mut() {
                    l.record_insertion(&global);
                    true_count += 1;
                    let estimate = global.insertions();
                    assert!(
                        true_count - estimate <= (capacity / 16) as u64,
                        "p={p} capacity={capacity} round {round}: estimate {estimate} true {true_count}"
                    );
                }
            }
        }
    }

    #[test]
    fn reset_after_migration() {
        let global = GlobalCount::new();
        global.flush(100, 40);
        assert_eq!(global.live_estimate(), 60);
        global.reset_after_migration(60);
        assert_eq!(global.insertions(), 60);
        assert_eq!(global.deletions(), 0);
        assert_eq!(global.live_estimate(), 60);
    }

    #[test]
    fn concurrent_flushes_do_not_lose_counts() {
        let global = std::sync::Arc::new(GlobalCount::new());
        let per_thread = 50_000u64;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let global = std::sync::Arc::clone(&global);
                s.spawn(move || {
                    let mut local = LocalCount::new(4, t);
                    for _ in 0..per_thread {
                        local.record_insertion(&global);
                    }
                    local.flush(&global);
                });
            }
        });
        assert_eq!(global.insertions(), 4 * per_thread);
    }
}
