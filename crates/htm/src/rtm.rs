//! Intel RTM (TSX restricted transactional memory): `xbegin`, `xend` and
//! `xabort` through stable `asm!`, and the CPUID test that says whether
//! they may be executed.
//!
//! A transaction runs ordinary loads and stores; when it commits they take
//! effect as one atomic group, with the ordering of a locked instruction,
//! and when it aborts — another core touched a line of its read or write
//! set, it overflowed the L1, it faulted, an interrupt arrived, it asked to
//! — memory and registers are put back to what they were at `xbegin` and
//! control resumes there with a status in `eax`.  Nothing guarantees that a
//! transaction ever commits, so every user keeps a non-transactional path
//! and decides how often to try before taking it.
//!
//! For the compiler the rollback means [`begin`] is an instruction that
//! returns once: either [`STARTED`], or an abort status after a speculative
//! execution of which no trace is left.  The `asm!` blocks are memory
//! clobbers, so no access moves across a transaction's boundary.
//!
//! [`available`] is `false` — and everything else here compiles to a stub
//! that is never reached — on targets other than x86-64 and on builds
//! without the `cmpxchg16b` target feature: there `growt-core`'s cells are
//! updated under a striped lock by plain stores, and a transaction that
//! does not read the lock word cannot see such a writer.
//!
//! ```
//! use growt_htm::rtm;
//! use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
//!
//! let (a, b) = (AtomicU64::new(1), AtomicU64::new(2));
//! // SAFETY: `begin` behind `available`, `end` inside the transaction.
//! let swapped = rtm::available() && unsafe {
//!     if rtm::begin() == rtm::STARTED {
//!         let old = a.load(Relaxed);
//!         a.store(b.load(Relaxed), Relaxed);
//!         b.store(old, Relaxed);
//!         rtm::end();
//!         true
//!     } else {
//!         false // aborted: nothing happened
//!     }
//! };
//! if swapped {
//!     assert_eq!((a.into_inner(), b.into_inner()), (2, 1));
//! }
//! ```

/// What [`begin`] returns when the transaction has started.  Every other
/// value is the status of an abort: bit 0 set by [`abort`] (and `0xff` in
/// bits 31:24), bit 1 "a retry may succeed", bit 2 conflict with another
/// core, bit 3 capacity; 0 for a fault or an interrupt.
pub const STARTED: u32 = !0;

#[cfg(all(target_arch = "x86_64", target_feature = "cmpxchg16b"))]
mod imp {
    use std::arch::asm;
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    use std::sync::OnceLock;

    /// `true` when this CPU executes RTM transactions: CPUID.(7,0):EBX\[11\]
    /// (`RTM`) set and EDX\[11\] (`RTM_ALWAYS_ABORT`, the microcode's way of
    /// switching TSX off while keeping the instructions decodable) clear.
    /// Read once per process.
    #[inline]
    pub fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            if __cpuid(0).eax < 7 {
                return false;
            }
            let leaf = __cpuid_count(7, 0);
            leaf.ebx & (1 << 11) != 0 && leaf.edx & (1 << 11) == 0
        })
    }

    /// Start a transaction.  Returns [`super::STARTED`] inside it; returns
    /// an abort status when it was rolled back, at whatever point.
    ///
    /// # Safety
    ///
    /// [`available`] must have returned `true`: on a CPU without RTM the
    /// instruction is undefined.
    #[inline(always)]
    pub unsafe fn begin() -> u32 {
        debug_assert!(available(), "xbegin on a CPU without RTM");
        let mut status = super::STARTED;
        // An abort resumes at the label with the status in eax and every
        // other register as it was here, which is all the block declares.
        asm!("xbegin 2f", "2:", inout("eax") status, options(nostack));
        status
    }

    /// Commit the transaction started by the matching [`begin`].
    ///
    /// # Safety
    ///
    /// Must be executed inside a transaction: outside one, `xend` raises a
    /// general-protection fault.
    #[inline(always)]
    pub unsafe fn end() {
        asm!("xend", options(nostack));
    }

    /// Abort the running transaction: its [`begin`] returns a status with
    /// bit 0 set and `0xff` in bits 31:24.  Does nothing outside a
    /// transaction.
    ///
    /// # Safety
    ///
    /// [`available`] must have returned `true`.
    #[inline(always)]
    pub unsafe fn abort() {
        asm!("xabort 0xff", options(nostack));
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "cmpxchg16b")))]
mod imp {
    /// `false`: no RTM on this target, or cells that are written under a
    /// lock a transaction does not see (module docs).
    #[inline(always)]
    pub fn available() -> bool {
        false
    }

    /// Never reached: [`available`] is `false`.
    ///
    /// # Safety
    ///
    /// [`available`] must have returned `true`.
    pub unsafe fn begin() -> u32 {
        unreachable!("rtm::begin without rtm::available")
    }

    /// Never reached: [`available`] is `false`.
    ///
    /// # Safety
    ///
    /// Must be executed inside a transaction.
    pub unsafe fn end() {
        unreachable!("rtm::end without rtm::available")
    }

    /// Never reached: [`available`] is `false`.
    ///
    /// # Safety
    ///
    /// [`available`] must have returned `true`.
    pub unsafe fn abort() {
        unreachable!("rtm::abort without rtm::available")
    }
}

pub use imp::{abort, available, begin, end};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Sixty-four 16-byte cells, the block copier's unit.
    fn cells() -> Vec<AtomicU64> {
        // Written, not zero-allocated: a first touch inside a transaction
        // is a page fault, and a page fault is an abort.
        (0..128)
            .map(|i| AtomicU64::new(std::hint::black_box(i)))
            .collect()
    }

    #[test]
    fn availability_is_stable_and_false_without_the_instructions() {
        assert_eq!(available(), available());
        if !cfg!(all(target_arch = "x86_64", target_feature = "cmpxchg16b")) {
            assert!(!available());
        }
    }

    #[test]
    fn a_committed_transaction_keeps_its_stores() {
        if !available() {
            return;
        }
        let cells = cells();
        // An interrupt can abort any one attempt; not sixty-four in a row.
        let committed = (0..64).any(|_| {
            // SAFETY: `available()` was checked; `end` runs inside.
            unsafe {
                if begin() != STARTED {
                    return false;
                }
                for cell in cells.iter().step_by(2) {
                    let key = cell.load(Ordering::Relaxed);
                    cell.store(key | 1 << 63, Ordering::Relaxed);
                }
                end();
                true
            }
        });
        assert!(committed, "64 uncontended transactions, none committed");
        for (i, cell) in cells.iter().enumerate() {
            let expected = if i % 2 == 0 {
                i as u64 | 1 << 63
            } else {
                i as u64
            };
            assert_eq!(cell.load(Ordering::Relaxed), expected);
        }
    }

    #[test]
    fn an_aborted_transaction_leaves_no_trace() {
        if !available() {
            return;
        }
        let cells = cells();
        // SAFETY: `available()` was checked; `abort` runs inside.
        let status = unsafe {
            let status = begin();
            if status == STARTED {
                for cell in &cells {
                    cell.store(u64::MAX, Ordering::Relaxed);
                }
                abort();
                unreachable!("xabort returned inside a transaction");
            }
            status
        };
        // An interrupt may have got in first (status without bit 0); the
        // rollback is the same.
        if status & 1 != 0 {
            assert_eq!(status >> 24, 0xff);
        }
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.load(Ordering::Relaxed), i as u64);
        }
    }

    #[test]
    fn abort_outside_a_transaction_does_nothing() {
        if available() {
            // SAFETY: `available()` was checked.
            unsafe { abort() };
        }
    }
}
