//! The heavy side of an asymmetric fence: Linux `membarrier(2)`.
//!
//! A Dekker-style handshake — one side stores its flag and then loads the
//! other's — needs a full fence between the store and the load on *both*
//! sides, because x86-64 lets a load pass an earlier store to another
//! address.  When one side runs on every table operation and the other once
//! per migration, the fence can be moved entirely to the rare side:
//! `MEMBARRIER_CMD_PRIVATE_EXPEDITED` makes every thread of the process
//! that is running at the moment execute a full memory barrier (an
//! interprocessor interrupt), and a thread that is not running gets one
//! from the context switch.  So the frequent side needs only a compiler
//! fence: whatever it had stored before the barrier is visible to the rare
//! side after it, and whatever it loads after the barrier sees what the
//! rare side stored before.  This is folly's `asymmetricHeavyBarrier`; the
//! growing map builds its writer exclusion on it (DESIGN.md §12, §15).
//!
//! The commands are issued as raw system calls, like the ones of
//! [`crate::mem`] and [`crate::cpu`] (no `libc` in the dependency tree).
//! The process registers for the expedited command once, at first use.
//! Where the kernel lacks it (older than 4.14, not Linux, not x86-64) or
//! the registration fails, [`available`] is `false` and callers fall back
//! to a protocol that needs no heavy barrier.

use std::sync::OnceLock;

/// `MEMBARRIER_CMD_PRIVATE_EXPEDITED`.
const CMD_PRIVATE_EXPEDITED: u64 = 1 << 3;
/// `MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED`.
const CMD_REGISTER_PRIVATE_EXPEDITED: u64 = 1 << 4;

/// The mask `MEMBARRIER_CMD_QUERY` answers with: one bit per command the
/// kernel supports; `None` where the call fails or does not exist.
pub fn query() -> Option<u64> {
    sys::membarrier(0).ok()
}

/// `true` when [`heavy_barrier`] works in this process: the kernel has the
/// private expedited command and the process is registered for it (on the
/// first call).
pub fn available() -> bool {
    static REGISTERED: OnceLock<bool> = OnceLock::new();
    *REGISTERED.get_or_init(|| {
        query().is_some_and(|mask| mask & CMD_PRIVATE_EXPEDITED != 0)
            && sys::membarrier(CMD_REGISTER_PRIVATE_EXPEDITED).is_ok()
    })
}

/// Execute a full memory barrier on every running thread of the process;
/// `false` when it could not be issued (then nothing is promised).  Costs
/// a system call and an interrupt per CPU that runs one of the threads:
/// 2 µs measured with the other vCPU of a 2-vCPU box busy.
pub fn heavy_barrier() -> bool {
    available() && sys::membarrier(CMD_PRIVATE_EXPEDITED).is_ok()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_MEMBARRIER: usize = 324;

    /// `membarrier(cmd, 0, 0)`: the non-negative result, or the errno.
    pub(super) fn membarrier(cmd: u64) -> Result<u64, isize> {
        // SAFETY: membarrier takes integer arguments only and touches no
        // memory of the caller.
        let ret = unsafe { crate::mem::sys::syscall6(SYS_MEMBARRIER, cmd as usize, 0, 0, 0, 0, 0) };
        if ret < 0 {
            Err(-ret)
        } else {
            Ok(ret as u64)
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    pub(super) fn membarrier(_cmd: u64) -> Result<u64, isize> {
        Err(38) // ENOSYS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_stable_and_agrees_with_the_query() {
        assert_eq!(available(), available());
        if available() {
            let mask = query().expect("registered, so the query works");
            assert_ne!(mask & CMD_PRIVATE_EXPEDITED, 0, "{mask:#x}");
            assert!(heavy_barrier());
        } else {
            assert!(!heavy_barrier());
        }
    }
}
