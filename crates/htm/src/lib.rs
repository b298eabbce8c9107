//! Restricted transactional memory for the tables: the real primitive
//! ([`rtm`], Intel TSX) and a software simulation of it ([`HtmDomain`]).
//!
//! Section 6 of the paper speeds up single-cell operations of the folklore
//! table by wrapping the *sequential* code of an operation in an Intel TSX
//! (RTM) transaction: on commit the whole group of plain memory accesses
//! becomes atomic, on abort the table falls back to its CAS-based
//! implementation.  The evaluation (§8.4, Fig. 9) instantiates
//! `tsxfolklore` and TSX variants of the growing tables from this.
//!
//! **[`rtm`] is that primitive**: `xbegin` / `xend` / `xabort` through
//! stable `asm!`, and [`rtm::available`], which reads CPUID once.  Its one
//! user is `GrowMap`'s block copier (`growt-core`, `generic.rs::
//! migrate_generic_block`, DESIGN.md §15): it freezes and places 64 source
//! cells per pair of transactions and keeps the locked instructions as the
//! fallback of every aborted one.
//!
//! **[`HtmDomain`] is a software simulation** from before the tree had the
//! instructions, kept for the word tables' `tsxfolklore` / `with_htm`
//! variants of Fig. 9 until ROADMAP item 8 decides on them.  It has the
//! same structural properties, documented as a substitution in DESIGN.md
//! §5:
//!
//! * a transaction *declares* the cell it operates on; conflicts are
//!   detected per cache-line-sized stripe, mirroring RTM's cache-line
//!   granularity conflict detection;
//! * a conflicting transaction **aborts** (it never blocks) and the caller
//!   retries a bounded number of times before taking the fallback path —
//!   exactly the retry/fallback structure required for real RTM, which has
//!   no progress guarantee;
//! * commit/abort/fallback statistics are recorded so the harness can
//!   report abort rates for Fig. 9.
//!
//! The simulation is conservative: speculative execution of the body is
//! protected by the stripe ownership, so the "sequential" closure really
//! runs free of data races (as it would inside a real transaction).

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_utils::CachePadded;

pub mod rtm;

/// Result of attempting a transactional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The speculative path committed after `retries` aborts.
    Committed {
        /// Number of aborts before the successful attempt.
        retries: u32,
    },
    /// All attempts aborted; the caller's fallback path was used.
    FellBack,
}

/// Aggregate transaction statistics (shared, updated with relaxed atomics).
#[derive(Debug, Default)]
pub struct TxStats {
    /// Successfully committed transactions.
    pub commits: AtomicU64,
    /// Aborted attempts (a single operation can abort several times).
    pub aborts: AtomicU64,
    /// Operations that exhausted their retries and used the fallback.
    pub fallbacks: AtomicU64,
}

impl TxStats {
    /// Fraction of attempts that aborted, in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.aborts.load(Ordering::Relaxed) as f64;
        let commits = self.commits.load(Ordering::Relaxed) as f64;
        let total = aborts + commits;
        if total == 0.0 {
            0.0
        } else {
            aborts / total
        }
    }

    /// Reset all counters.
    pub fn reset(&self) {
        self.commits.store(0, Ordering::Relaxed);
        self.aborts.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
    }

    /// Snapshot `(commits, aborts, fallbacks)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.commits.load(Ordering::Relaxed),
            self.aborts.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
        )
    }
}

/// A software transactional-memory domain with stripe-granular conflict
/// detection.
pub struct HtmDomain {
    /// One ownership word per stripe.  0 = free, otherwise owner tag.
    stripes: Vec<CachePadded<AtomicU64>>,
    mask: usize,
    /// Transaction statistics.
    pub stats: TxStats,
    /// Maximum speculative attempts before falling back (the paper's TSX
    /// code uses a small retry budget as well).
    max_attempts: u32,
}

impl HtmDomain {
    /// Create a domain with `stripes` conflict-detection stripes (rounded
    /// up to a power of two).  One stripe corresponds to one cache line of
    /// table cells in the simulated model.
    pub fn new(stripes: usize) -> Self {
        let n = stripes.next_power_of_two().max(1);
        HtmDomain {
            stripes: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            mask: n - 1,
            stats: TxStats::default(),
            max_attempts: 8,
        }
    }

    /// Change the retry budget (mainly for tests and ablations).
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    #[inline]
    fn stripe_for(&self, line: usize) -> &AtomicU64 {
        &self.stripes[line & self.mask]
    }

    /// Execute `body` "transactionally" on the cache line `line`.
    ///
    /// `body` is attempted speculatively up to the retry budget; while it
    /// runs, no other transaction on the same stripe can run (they abort
    /// instead — they do not wait, mirroring RTM).  If every attempt
    /// aborts, `fallback` is executed; the fallback must be implemented
    /// with the table's ordinary atomic operations and may run concurrently
    /// with speculative bodies of *other* lines.
    pub fn execute<R>(
        &self,
        line: usize,
        mut body: impl FnMut() -> R,
        fallback: impl FnOnce() -> R,
    ) -> (R, TxOutcome) {
        let stripe = self.stripe_for(line);
        let tag = 1u64;
        let mut retries = 0u32;
        while retries < self.max_attempts {
            // Try to become the exclusive speculative owner of the stripe.
            match stripe.compare_exchange(0, tag, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => {
                    let result = body();
                    stripe.store(0, Ordering::Release);
                    self.stats.commits.fetch_add(1, Ordering::Relaxed);
                    return (result, TxOutcome::Committed { retries });
                }
                Err(_) => {
                    // Conflict → abort. RTM aborts are more expensive than a
                    // failed CAS; model that with a short exponential pause.
                    self.stats.aborts.fetch_add(1, Ordering::Relaxed);
                    retries += 1;
                    for _ in 0..(1u32 << retries.min(6)) {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
        (fallback(), TxOutcome::FellBack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::Arc;

    #[test]
    fn uncontended_transactions_commit() {
        let domain = HtmDomain::new(64);
        let mut x = 0u64;
        for i in 0..100 {
            let (_, outcome) = domain.execute(i, || x += 1, || unreachable!());
            assert!(matches!(outcome, TxOutcome::Committed { retries: 0 }));
        }
        assert_eq!(x, 100);
        assert_eq!(domain.stats.snapshot(), (100, 0, 0));
        assert_eq!(domain.stats.abort_rate(), 0.0);
    }

    #[test]
    fn stripes_rounded_to_power_of_two() {
        assert_eq!(HtmDomain::new(100).stripes(), 128);
        assert_eq!(HtmDomain::new(1).stripes(), 1);
        assert_eq!(HtmDomain::new(0).stripes(), 1);
    }

    #[test]
    fn contention_causes_aborts_but_preserves_counts() {
        let domain = Arc::new(HtmDomain::new(1)); // everything conflicts
        let counter = Arc::new(StdAtomicU64::new(0));
        let total_ops = 4 * 5_000u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let domain = Arc::clone(&domain);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for i in 0..5_000usize {
                        // Body and fallback both perform the increment
                        // atomically so the final count is exact either way.
                        domain.execute(
                            i,
                            || counter.fetch_add(1, Ordering::Relaxed),
                            || counter.fetch_add(1, Ordering::Relaxed),
                        );
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), total_ops);
        let (commits, _aborts, fallbacks) = domain.stats.snapshot();
        assert_eq!(commits + fallbacks, total_ops);
        // Note: whether aborts actually occur depends on real thread overlap
        // (on a single hardware thread the OS may serialize the loops), so
        // the count invariant above is the portable assertion.
    }

    #[test]
    fn fallback_used_when_budget_exhausted() {
        let domain = HtmDomain::new(1).with_max_attempts(1);
        // Manually occupy the stripe to force an abort.
        domain.stripes[0].store(1, Ordering::SeqCst);
        let (r, outcome) = domain.execute(0, || 1, || 2);
        assert_eq!(r, 2);
        assert_eq!(outcome, TxOutcome::FellBack);
        let (_, aborts, fallbacks) = domain.stats.snapshot();
        assert_eq!(aborts, 1);
        assert_eq!(fallbacks, 1);
        domain.stripes[0].store(0, Ordering::SeqCst);
        domain.stats.reset();
        assert_eq!(domain.stats.snapshot(), (0, 0, 0));
    }
}
