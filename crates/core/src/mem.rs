//! Backing storage for the big flat arrays of the tables (cell arrays and
//! the signature stripe): 2 MB-hugepage-hinted anonymous mappings with a
//! graceful fallback to the global allocator.
//!
//! The paper's tables are GB-scale flat arrays probed at random positions,
//! which makes them worst-case inputs for a 4 KB TLB: with base pages a
//! 32 MB cell array spans 8192 TLB entries, so nearly every probe pays a
//! page walk on top of its cache miss.  [`HugeBox`] therefore backs any
//! allocation of at least [`HUGEPAGE_THRESHOLD`] bytes with a fresh
//! anonymous `mmap` and hints it with `madvise(MADV_HUGEPAGE)`, letting
//! the kernel promote the range to 2 MB pages where transparent huge
//! pages are enabled.  Anonymous mappings are delivered pre-zeroed, so no
//! element-wise construction loop runs for table generations, the dominant
//! allocation of every growing migration.  They are also populated before
//! they are handed out (`MADV_POPULATE_WRITE`, or one write per 4 KiB page
//! on kernels older than 5.14): a migration target's page faults then
//! happen in its leader's preparation, while the other threads keep
//! inserting, and not inside the copy, where a fault stalls every copier
//! (DESIGN.md §11).
//!
//! A dropped mapping is not unmapped at once: it goes to one process-wide
//! pool of idle mappings, and a later request of the same size takes it
//! back instead of asking the kernel for fresh zeroed pages — the paper's
//! TBB memory pool (§7).  [`HugeBox::try_zeroed`] clears it with
//! `write_bytes`; [`HugeBox::try_uncleared`] hands it back as its last
//! owner left it, with the global allocator's `alloc` in place of
//! `alloc_zeroed`, for a caller that clears it later in slices
//! ([`HugeBox::clear`], DESIGN.md §13).  The pool holds
//! at most [`POOL_CAP_BYTES`]; a drop past that unmaps.  An idle mapping
//! is `PROT_NONE`, so a stale access into a retired generation faults as
//! it would after `munmap`.
//!
//! Fallback matrix (every step degrades gracefully):
//!
//! | condition                                   | behaviour                     |
//! |---------------------------------------------|-------------------------------|
//! | allocation < 2 MB                           | global allocator (zeroed)     |
//! | not Linux/x86-64                             | global allocator (zeroed)     |
//! | `GROWT_NO_HUGEPAGES` set in the environment | global allocator (zeroed)     |
//! | an idle mapping of the same size is pooled  | take it, clear it (`try_zeroed`) |
//! | `mmap` fails (e.g. overcommit limit)        | global allocator (zeroed)     |
//! | `madvise` fails (THP disabled)              | keep the mapping, plain pages |
//! | `MADV_POPULATE_WRITE` unknown (`EINVAL`)    | populate by one write per 4 KiB |
//! | `mbind` fails / single node / > 64 nodes    | keep the mapping, no policy   |
//! | global allocator also fails                 | `try_zeroed` → [`AllocError`]; `zeroed` aborts (OOM policy) |
//!
//! With the `numa-interleave` cargo feature the mapping is additionally
//! bound with `mbind(MPOL_INTERLEAVE)` across all online NUMA nodes, so
//! the random-access cell array spreads its pages (and therefore its
//! memory-controller load) over every socket instead of faulting them all
//! on the first-touch node.  The container this crate is usually built in
//! has no `libc` crate, so the system calls are issued directly
//! (`syscall` instruction); on other platforms the code compiles to the
//! plain-allocator path.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, Range};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use growt_iface::sync::lock;

/// Bytes of all live [`HugeBox`] mappings in the process, bumped where a
/// box maps, unmaps or moves to and from the pool: never on an
/// operation's path.
static MAPPED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Bytes the live [`HugeBox`]es of the process hold as anonymous mappings
/// (whole huge pages each).  The global allocator never sees them, so a
/// count of its bytes misses every cell array of 2 MB or more.  Idle
/// pooled mappings are not counted here but in [`pooled_bytes`].
pub fn mapped_bytes() -> usize {
    MAPPED_BYTES.load(Ordering::Relaxed)
}

/// Most bytes of idle mappings the pool keeps: glibc's default maximum
/// trim threshold (twice its largest dynamic mmap threshold, 32 MiB on
/// 64-bit), i.e. what `malloc` itself may keep of freed memory.  It holds
/// one round of the benchmark's churn (16 tables of a 2 MiB last target).
pub const POOL_CAP_BYTES: usize = 64 << 20;

/// What a `failpoints` build fills an uncleared slice with: as a cell's
/// key word, `0x5A5A…5A` is a live key and carries no mark.
#[cfg_attr(not(feature = "failpoints"), allow(dead_code))]
const POISON: u8 = 0x5A;

/// Slots the pool needs: every pooled mapping is at least one huge page.
const POOL_SLOTS: usize = POOL_CAP_BYTES / HUGEPAGE_THRESHOLD;

/// Idle mappings, kept in a fixed array so that the pool never allocates
/// (the allocator-exact tests count every heap byte).
struct Pool {
    /// `(address, bytes)` of each idle mapping; the first `len` are used.
    idle: [(usize, usize); POOL_SLOTS],
    len: usize,
    /// Sum of the used slots' bytes, at most [`POOL_CAP_BYTES`].
    bytes: usize,
}

impl Pool {
    /// Take out an idle mapping of exactly `bytes`, if one is pooled.
    fn take(&mut self, bytes: usize) -> Option<NonNull<u8>> {
        let slot = self.idle[..self.len]
            .iter()
            .position(|&(_, b)| b == bytes)?;
        let (addr, _) = self.idle[slot];
        self.len -= 1;
        self.idle[slot] = self.idle[self.len];
        self.bytes -= bytes;
        NonNull::new(addr as *mut u8)
    }

    /// Keep the mapping `ptr` of `bytes` unless that passes the cap.
    fn put(&mut self, ptr: NonNull<u8>, bytes: usize) -> bool {
        if self.bytes + bytes > POOL_CAP_BYTES {
            return false;
        }
        // `len < POOL_SLOTS` here: each used slot holds ≥ one huge page.
        self.idle[self.len] = (ptr.as_ptr() as usize, bytes);
        self.len += 1;
        self.bytes += bytes;
        true
    }
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    idle: [(0, 0); POOL_SLOTS],
    len: 0,
    bytes: 0,
});

/// Bytes of idle mappings the pool holds for reuse, at most
/// [`POOL_CAP_BYTES`].
pub fn pooled_bytes() -> usize {
    lock(&POOL).bytes
}

/// A pooled mapping of exactly `bytes`, readable and writable again (its
/// contents are whatever its last owner left).
fn take_pooled(bytes: usize) -> Option<NonNull<u8>> {
    let ptr = lock(&POOL).take(bytes)?;
    if sys::protect(ptr, bytes, true) {
        Some(ptr)
    } else {
        sys::unmap(ptr, bytes);
        None
    }
}

/// Pool the mapping `ptr` of `bytes`, made inaccessible first, or unmap it
/// when the pool is full.
fn retire_mapping(ptr: NonNull<u8>, bytes: usize) {
    if !(sys::protect(ptr, bytes, false) && lock(&POOL).put(ptr, bytes)) {
        sys::unmap(ptr, bytes);
    }
}

/// A backing-slice allocation failed: the requested layout could not be
/// satisfied by either the mapping path or the global allocator (or an
/// injected `mem.hugebox.alloc` failpoint simulated exactly that).
///
/// Surfaced by [`HugeBox::try_zeroed`]; the infallible [`HugeBox::zeroed`]
/// maps it to the global allocator's abort path instead.  Callers that can
/// degrade — the growing tables keep serving their current generation when
/// the next one cannot be allocated — use the `try_` constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Requested allocation size in bytes (`usize::MAX` when the layout
    /// itself overflowed).
    pub bytes: usize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed to allocate {} bytes of table storage",
            self.bytes
        )
    }
}

impl std::error::Error for AllocError {}

/// Minimum allocation size (in bytes) that is backed by a hugepage-hinted
/// mapping: the x86-64 huge page size.  Below it a mapping could never be
/// promoted, so the global allocator is used directly.
pub const HUGEPAGE_THRESHOLD: usize = 2 * 1024 * 1024;

/// Marker for element types whose all-zero byte pattern is a valid,
/// initialized instance (atomics over integers, plain integers, and
/// structs thereof).  [`HugeBox::zeroed`] relies on this to hand out
/// `mmap`-zeroed (or `alloc_zeroed`) memory without running per-element
/// constructors.
///
/// # Safety
///
/// Implementors must guarantee that the all-zero bit pattern is a valid
/// value of `Self` and that `Self` has no drop glue.
pub unsafe trait ZeroInit {}

// SAFETY: integer atomics are repr(transparent) over their integer and
// zero is a valid value; none has drop glue.
unsafe impl ZeroInit for std::sync::atomic::AtomicU8 {}
// SAFETY: as above.
unsafe impl ZeroInit for std::sync::atomic::AtomicU64 {}
// SAFETY: zero is a valid integer and integers have no drop glue.
unsafe impl ZeroInit for u8 {}
// SAFETY: as above.
unsafe impl ZeroInit for u64 {}

// SAFETY: a zeroed cell is exactly `Cell::new()` — EMPTY_KEY is 0 and the
// value word starts at 0; the atomics have no drop glue.
unsafe impl ZeroInit for crate::cell::Cell {}

/// `true` when hugepage-hinted mappings are disabled for this process via
/// the `GROWT_NO_HUGEPAGES` environment variable (read once).
fn hugepages_disabled() -> bool {
    use std::sync::OnceLock;
    static DISABLED: OnceLock<bool> = OnceLock::new();
    *DISABLED.get_or_init(|| std::env::var_os("GROWT_NO_HUGEPAGES").is_some())
}

/// An owned, fixed-length slice allocated through the hugepage-aware
/// policy above.  Dereferences to `[T]`; the backing storage is either an
/// anonymous mapping (≥ [`HUGEPAGE_THRESHOLD`], Linux/x86-64) or a global
/// allocator block, and is released on drop: a mapping to the pool of
/// idle ones, or unmapped when that is full.
pub struct HugeBox<T> {
    ptr: NonNull<T>,
    len: usize,
    /// Length in bytes of the `mmap` backing; 0 when the global allocator
    /// (or no storage at all, for `len == 0`) backs the slice.
    mapped_bytes: usize,
}

// SAFETY: HugeBox owns its storage exclusively; sharing semantics are
// exactly those of Box<[T]>.
unsafe impl<T: Send> Send for HugeBox<T> {}
// SAFETY: as above.
unsafe impl<T: Sync> Sync for HugeBox<T> {}

impl<T: ZeroInit> HugeBox<T> {
    /// Allocate a zero-initialized slice of `len` elements, aborting the
    /// process on allocation failure (the global allocator's OOM policy).
    ///
    /// Bounded tables built once at startup keep this loud behavior; the
    /// growing tables allocate their next generations through
    /// [`HugeBox::try_zeroed`] so an OOM during a migration degrades to
    /// "keep serving the old generation" instead of aborting.
    pub fn zeroed(len: usize) -> Self {
        match Self::try_zeroed(len) {
            Ok(slice) => slice,
            Err(_) => {
                let layout = Layout::array::<T>(len).expect("allocation size overflow");
                handle_alloc_error(layout)
            }
        }
    }

    /// Fallible variant of [`HugeBox::zeroed`]: returns [`AllocError`]
    /// when neither the mapping path nor the global allocator can satisfy
    /// the request (checked via the non-aborting `alloc_zeroed` result),
    /// or when the `mem.hugebox.alloc` failpoint injects a failure.
    pub fn try_zeroed(len: usize) -> Result<Self, AllocError> {
        Self::allocate(len, true).map(|(slice, _)| slice)
    }

    /// [`HugeBox::try_zeroed`] without the clearing: a pooled mapping comes
    /// back as its last owner left it, and the global allocator's block
    /// from `alloc`.  The flag says whether the slice is zero all the same
    /// (a fresh mapping, or no storage at all).
    ///
    /// With the `failpoints` feature what comes uncleared is filled with
    /// `0x5A`, so that a cell read before it is cleared breaks the
    /// exactness checks.
    ///
    /// # Safety
    ///
    /// When the flag is `false`, no element may be read before
    /// [`HugeBox::clear`] has cleared it.
    pub unsafe fn try_uncleared(len: usize) -> Result<(Self, bool), AllocError> {
        let (slice, zero) = Self::allocate(len, false)?;
        #[cfg(feature = "failpoints")]
        if !zero {
            let bytes = len * std::mem::size_of::<T>();
            // SAFETY: the owned allocation, not read before it is cleared.
            unsafe { slice.ptr.as_ptr().cast::<u8>().write_bytes(POISON, bytes) };
        }
        Ok((slice, zero))
    }

    /// The allocation behind both constructors; `zero` says to clear what
    /// does not come zero.  Returns the slice and whether it is zero.
    fn allocate(len: usize, zero: bool) -> Result<(Self, bool), AllocError> {
        let Ok(layout) = Layout::array::<T>(len) else {
            return Err(AllocError { bytes: usize::MAX });
        };
        assert!(
            layout.align() <= 4096,
            "HugeBox element alignment exceeds the page size"
        );
        if layout.size() == 0 {
            let slice = HugeBox {
                ptr: NonNull::dangling(),
                len,
                mapped_bytes: 0,
            };
            return Ok((slice, true));
        }
        if growt_failpoints::fire("mem.hugebox.alloc") {
            return Err(AllocError {
                bytes: layout.size(),
            });
        }
        if layout.size() >= HUGEPAGE_THRESHOLD && !hugepages_disabled() {
            // Round the mapping up to whole huge pages: a 2 MB-aligned
            // length is what khugepaged can actually collapse.
            let mapped_bytes = layout.size().div_ceil(HUGEPAGE_THRESHOLD) * HUGEPAGE_THRESHOLD;
            let taken = match take_pooled(mapped_bytes) {
                Some(ptr) => {
                    if zero {
                        // SAFETY: a pooled mapping of `mapped_bytes ≥
                        // layout.size()` bytes, writable again and ours alone.
                        unsafe { ptr.as_ptr().write_bytes(0, layout.size()) };
                    }
                    Some((ptr, zero))
                }
                None => sys::map_hugepage_hinted(mapped_bytes).map(|ptr| (ptr, true)),
            };
            if let Some((ptr, is_zero)) = taken {
                MAPPED_BYTES.fetch_add(mapped_bytes, Ordering::Relaxed);
                let slice = HugeBox {
                    ptr: ptr.cast(),
                    len,
                    mapped_bytes,
                };
                return Ok((slice, is_zero));
            }
        }
        // SAFETY: layout has non-zero size.  Zeroed, the block is a valid
        // [T; len] (ZeroInit); not zeroed, the caller of `try_uncleared`
        // clears it before reading.
        let raw = unsafe {
            if zero {
                alloc_zeroed(layout)
            } else {
                alloc(layout)
            }
        };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            return Err(AllocError {
                bytes: layout.size(),
            });
        };
        let slice = HugeBox {
            ptr,
            len,
            mapped_bytes: 0,
        };
        Ok((slice, zero))
    }

    /// Write zeros over the elements `range`: one slice of an array that
    /// [`HugeBox::try_uncleared`] handed out, or any range of one in use.
    ///
    /// # Safety
    ///
    /// No other thread may access those elements meanwhile.
    pub unsafe fn clear(&self, range: Range<usize>) {
        assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: inside the owned allocation, by the assert; zero is a
        // valid `T` (ZeroInit), and the caller keeps every other access
        // off the range.
        unsafe {
            self.ptr
                .as_ptr()
                .add(range.start)
                .write_bytes(0, range.end - range.start)
        };
    }

    /// `true` when the slice is backed by a hugepage-hinted mapping (used
    /// by tests and diagnostics).
    pub fn is_mapped(&self) -> bool {
        self.mapped_bytes != 0
    }
}

impl<T> Deref for HugeBox<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: ptr/len describe the owned, initialized allocation.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T> Drop for HugeBox<T> {
    fn drop(&mut self) {
        if self.mapped_bytes != 0 {
            MAPPED_BYTES.fetch_sub(self.mapped_bytes, Ordering::Relaxed);
            retire_mapping(self.ptr.cast(), self.mapped_bytes);
        } else if self.len != 0 && std::mem::size_of::<T>() != 0 {
            // Invariant, not a reachable failure: the same `Layout::array`
            // succeeded in `try_zeroed` for this very `len`, or the box
            // would not exist.
            let layout = Layout::array::<T>(self.len).expect("layout re-derivation");
            // SAFETY: allocated with alloc_zeroed and this exact layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) mod sys {
    //! Raw Linux x86-64 system calls (no `libc` in the dependency tree).

    use std::ptr::NonNull;

    const SYS_MMAP: usize = 9;
    const SYS_MPROTECT: usize = 10;
    const SYS_MUNMAP: usize = 11;
    const SYS_MADVISE: usize = 28;
    #[cfg(feature = "numa-interleave")]
    const SYS_MBIND: usize = 237;

    const PROT_NONE: usize = 0;
    const PROT_READ_WRITE: usize = 0x3;
    /// `MAP_PRIVATE | MAP_ANONYMOUS`.
    const MAP_PRIVATE_ANON: usize = 0x22;
    const MADV_HUGEPAGE: usize = 14;
    const MADV_POPULATE_WRITE: usize = 23;
    const EINVAL: isize = 22;
    const PAGE: usize = 4096;

    /// Issue a raw system call with up to six arguments.
    ///
    /// # Safety
    ///
    /// The caller must pass arguments valid for the requested syscall.
    pub(crate) unsafe fn syscall6(
        nr: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the caller passes arguments valid for syscall `nr`, per
        // `# Safety` above; the kernel clobbers only `rcx` and `r11`, which
        // are declared, and touches no stack.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Map `bytes` of zeroed anonymous memory, hint it towards huge pages
    /// and fault it in.  Returns `None` when the mapping itself fails; the
    /// hint, the population (and the optional NUMA policy) are best-effort.
    pub(super) fn map_hugepage_hinted(bytes: usize) -> Option<NonNull<u8>> {
        // SAFETY: anonymous private mapping with no fd; arguments follow
        // the mmap(2) contract.
        let addr = unsafe {
            syscall6(
                SYS_MMAP,
                0,
                bytes,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANON,
                usize::MAX, // fd = -1
                0,
            )
        };
        // Errors are returned as -errno in [-4095, -1].
        if (-4095..0).contains(&addr) {
            return None;
        }
        let ptr = NonNull::new(addr as *mut u8)?;
        // SAFETY: the range was just mapped by us.
        unsafe { syscall6(SYS_MADVISE, addr as usize, bytes, MADV_HUGEPAGE, 0, 0, 0) };
        #[cfg(feature = "numa-interleave")]
        interleave(addr as usize, bytes);
        // SAFETY: as above.
        let populated = unsafe {
            syscall6(
                SYS_MADVISE,
                addr as usize,
                bytes,
                MADV_POPULATE_WRITE,
                0,
                0,
                0,
            )
        };
        if populated == -EINVAL {
            // Before Linux 5.14: fault the pages in by hand.  Writing the
            // zero the page already holds changes nothing else.
            for offset in (0..bytes).step_by(PAGE) {
                // SAFETY: `offset < bytes`, inside our fresh writable
                // mapping, which nothing else references yet.
                unsafe { ptr.as_ptr().add(offset).write_volatile(0) };
            }
        }
        Some(ptr)
    }

    /// Unmap a range previously returned by [`map_hugepage_hinted`].
    pub(super) fn unmap(ptr: NonNull<u8>, bytes: usize) {
        // SAFETY: ptr/bytes come from our own mmap.
        unsafe { syscall6(SYS_MUNMAP, ptr.as_ptr() as usize, bytes, 0, 0, 0, 0) };
    }

    /// Make a range previously returned by [`map_hugepage_hinted`]
    /// readable and writable, or inaccessible; `false` when `mprotect`
    /// fails.
    pub(super) fn protect(ptr: NonNull<u8>, bytes: usize, read_write: bool) -> bool {
        let prot = if read_write {
            PROT_READ_WRITE
        } else {
            PROT_NONE
        };
        // SAFETY: ptr/bytes come from our own mmap; only the protection of
        // our own range changes.
        unsafe { syscall6(SYS_MPROTECT, ptr.as_ptr() as usize, bytes, prot, 0, 0, 0) == 0 }
    }

    /// Best-effort `mbind(MPOL_INTERLEAVE)` over all online NUMA nodes.
    /// Skipped (silently) with a single node, more than 64 nodes, or an
    /// unreadable topology — the mapping works either way, only the page
    /// placement differs.
    #[cfg(feature = "numa-interleave")]
    fn interleave(addr: usize, bytes: usize) {
        const MPOL_INTERLEAVE: usize = 3;
        let Some(mask) = online_node_mask() else {
            return;
        };
        if mask.count_ones() < 2 {
            return;
        }
        // SAFETY: addr/bytes describe our fresh mapping; the node mask is
        // one u64 and maxnode covers it.
        unsafe {
            syscall6(
                SYS_MBIND,
                addr,
                bytes,
                MPOL_INTERLEAVE,
                (&mask) as *const u64 as usize,
                65, // maxnode: bits 0..64 are meaningful
                0,
            );
        }
    }

    /// Parse `/sys/devices/system/node/online` (e.g. `0`, `0-3`, `0,2-3`)
    /// into a bit mask; `None` on parse failure or nodes ≥ 64.
    #[cfg(feature = "numa-interleave")]
    fn online_node_mask() -> Option<u64> {
        let text = std::fs::read_to_string("/sys/devices/system/node/online").ok()?;
        let mut mask = 0u64;
        for part in text.trim().split(',') {
            let (lo, hi) = match part.split_once('-') {
                Some((lo, hi)) => (lo.parse::<u32>().ok()?, hi.parse::<u32>().ok()?),
                None => {
                    let n = part.parse::<u32>().ok()?;
                    (n, n)
                }
            };
            if hi >= 64 || lo > hi {
                return None;
            }
            for node in lo..=hi {
                mask |= 1u64 << node;
            }
        }
        (mask != 0).then_some(mask)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    //! Non-Linux/x86-64 stub: every allocation takes the global-allocator
    //! path.

    use std::ptr::NonNull;

    pub(super) fn map_hugepage_hinted(_bytes: usize) -> Option<NonNull<u8>> {
        None
    }

    pub(super) fn unmap(_ptr: NonNull<u8>, _bytes: usize) {
        unreachable!("no mapping can exist on this platform");
    }

    pub(super) fn protect(_ptr: NonNull<u8>, _bytes: usize, _read_write: bool) -> bool {
        unreachable!("no mapping can exist on this platform");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn small_allocation_uses_heap_and_is_zeroed() {
        let b: HugeBox<u64> = HugeBox::zeroed(1024);
        assert!(!b.is_mapped());
        assert_eq!(b.len(), 1024);
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn empty_allocation() {
        let b: HugeBox<u64> = HugeBox::zeroed(0);
        assert_eq!(b.len(), 0);
        assert!(!b.is_mapped());
    }

    #[test]
    fn try_zeroed_succeeds_and_reports_layout_overflow() {
        let b: HugeBox<u64> = HugeBox::try_zeroed(256).expect("plain allocation");
        assert!(b.iter().all(|&x| x == 0));
        let overflow = HugeBox::<u64>::try_zeroed(usize::MAX / 2);
        assert!(overflow.is_err(), "layout overflow must be a typed error");
    }

    #[test]
    fn large_allocation_is_zeroed_and_usable() {
        // 4 MB of AtomicU64: takes the mapped path on Linux/x86-64 (unless
        // disabled), the heap path elsewhere — zeroed and writable either
        // way.
        let n = (2 * HUGEPAGE_THRESHOLD) / std::mem::size_of::<AtomicU64>();
        let b: HugeBox<AtomicU64> = HugeBox::zeroed(n);
        assert_eq!(b.len(), n);
        if cfg!(all(target_os = "linux", target_arch = "x86_64"))
            && std::env::var_os("GROWT_NO_HUGEPAGES").is_none()
        {
            assert!(b.is_mapped(), "large allocation should be mmap-backed");
            assert!(
                mapped_bytes() >= 2 * HUGEPAGE_THRESHOLD,
                "the mapping is counted"
            );
        }
        assert!(b.iter().all(|x| x.load(Ordering::Relaxed) == 0));
        b[0].store(7, Ordering::Relaxed);
        b[n - 1].store(9, Ordering::Relaxed);
        assert_eq!(b[0].load(Ordering::Relaxed), 7);
        assert_eq!(b[n - 1].load(Ordering::Relaxed), 9);
    }

    /// Pages of `[addr, addr + bytes)` the kernel reports resident
    /// (`mincore`).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn resident_pages(addr: *const u8, bytes: usize) -> usize {
        const SYS_MINCORE: usize = 27;
        let mut pages = vec![0u8; bytes.div_ceil(4096)];
        // SAFETY: the range is one live mapping of ours; `pages` holds one
        // byte per 4 KiB page of it.
        let ret = unsafe {
            sys::syscall6(
                SYS_MINCORE,
                addr as usize,
                bytes,
                pages.as_mut_ptr() as usize,
                0,
                0,
                0,
            )
        };
        assert_eq!(ret, 0, "mincore failed");
        pages.iter().filter(|&&page| page & 1 != 0).count()
    }

    /// A mapped array comes back faulted in: the first write to it does not
    /// fault (DESIGN.md §11).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn mapped_allocation_comes_back_resident() {
        let n = (2 * HUGEPAGE_THRESHOLD) / std::mem::size_of::<u64>();
        let b: HugeBox<u64> = HugeBox::try_zeroed(n).expect("4 MiB");
        if !b.is_mapped() {
            return; // mappings disabled: the heap path, nothing to check
        }
        let bytes = n * std::mem::size_of::<u64>();
        assert_eq!(
            resident_pages(b.as_ptr().cast(), bytes),
            bytes / 4096,
            "mapped cell array not resident after try_zeroed"
        );
        assert!(b.iter().all(|&x| x == 0));
    }

    /// The permissions `/proc/self/maps` gives the mapping around `addr`,
    /// e.g. `rw-p`.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn permissions_at(addr: usize) -> String {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        for line in maps.lines() {
            let mut fields = line.split_whitespace();
            let (range, perms) = (fields.next().unwrap(), fields.next().unwrap());
            let (start, end) = range.split_once('-').unwrap();
            let start = usize::from_str_radix(start, 16).unwrap();
            let end = usize::from_str_radix(end, 16).unwrap();
            if (start..end).contains(&addr) {
                return perms.to_owned();
            }
        }
        panic!("{addr:#x} is not mapped");
    }

    /// A dropped mapping waits in the pool inaccessible, and the next
    /// request of its size takes it back cleared.  The pool is
    /// process-wide and the tests run in parallel, so each test that goes
    /// through it has a size of its own (here 14 MiB).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn a_pooled_mapping_comes_back_zeroed_at_the_same_address() {
        let n = (14 << 20) / std::mem::size_of::<u64>();
        let first: HugeBox<AtomicU64> = HugeBox::try_zeroed(n).expect("14 MiB");
        if !first.is_mapped() {
            return; // mappings disabled: the heap path, no pool
        }
        for word in first.iter() {
            word.store(u64::MAX, Ordering::Relaxed);
        }
        let addr = first.as_ptr() as usize;
        drop(first);
        assert!(pooled_bytes() >= 14 << 20, "the mapping was not pooled");
        assert_eq!(permissions_at(addr), "---p", "an idle mapping is PROT_NONE");
        let second: HugeBox<AtomicU64> = HugeBox::try_zeroed(n).expect("14 MiB");
        assert_eq!(second.as_ptr() as usize, addr, "not served from the pool");
        assert_eq!(permissions_at(addr), "rw-p");
        assert!(second.iter().all(|x| x.load(Ordering::Relaxed) == 0));
    }

    /// The pool keeps exact sizes, and refuses a mapping that would take
    /// its idle bytes past the cap (the drop then unmaps).
    #[test]
    fn the_pool_keeps_exact_sizes_up_to_its_cap() {
        let mut pool = Pool {
            idle: [(0, 0); POOL_SLOTS],
            len: 0,
            bytes: 0,
        };
        let at = |addr: usize| NonNull::new(addr as *mut u8).unwrap();
        // Fill it with huge pages: exactly `POOL_SLOTS` fit, no more.
        for slot in 0..POOL_SLOTS {
            assert!(pool.put(at(0x1000 * (slot + 1)), HUGEPAGE_THRESHOLD));
        }
        assert_eq!(pool.bytes, POOL_CAP_BYTES);
        assert!(
            !pool.put(at(0xdead_0000), HUGEPAGE_THRESHOLD),
            "past the cap"
        );
        assert_eq!(pool.take(2 * HUGEPAGE_THRESHOLD), None, "sizes are exact");
        let taken = pool.take(HUGEPAGE_THRESHOLD).unwrap();
        assert_eq!(pool.bytes, POOL_CAP_BYTES - HUGEPAGE_THRESHOLD);
        // The freed room holds a page again, but not two.
        assert!(!pool.put(at(0xbeef_0000), 2 * HUGEPAGE_THRESHOLD));
        assert!(pool.put(taken, HUGEPAGE_THRESHOLD));
        while pool.take(HUGEPAGE_THRESHOLD).is_some() {}
        assert_eq!((pool.len, pool.bytes), (0, 0));
        assert!(!pool.put(at(0x1000), POOL_CAP_BYTES + HUGEPAGE_THRESHOLD));
    }

    /// A mapping bigger than the cap is unmapped on drop, as before the
    /// pool: its range is gone (`mincore` answers `ENOMEM`).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn a_mapping_past_the_cap_is_unmapped_on_drop() {
        const SYS_MINCORE: usize = 27;
        const ENOMEM: isize = 12;
        let bytes = POOL_CAP_BYTES + 2 * HUGEPAGE_THRESHOLD;
        let b: HugeBox<u8> = HugeBox::try_zeroed(bytes).expect("68 MiB");
        if !b.is_mapped() {
            return;
        }
        let addr = b.as_ptr() as usize;
        drop(b);
        assert!(pooled_bytes() <= POOL_CAP_BYTES);
        let mut pages = vec![0u8; bytes / 4096];
        // SAFETY: `mincore` only writes one byte per page of the range
        // into `pages`, which is that long; the range itself is not read.
        let ret = unsafe {
            sys::syscall6(
                SYS_MINCORE,
                addr,
                bytes,
                pages.as_mut_ptr() as usize,
                0,
                0,
                0,
            )
        };
        assert_eq!(ret, -ENOMEM, "the mapping past the cap is still there");
    }

    /// An uncleared slice comes back as its last owner left it when it is
    /// pooled (here 18 MiB, a size of its own) — poisoned, in a
    /// `failpoints` build — zero when fresh, and `clear` zeroes exactly its
    /// range.
    #[test]
    fn an_uncleared_slice_is_zero_after_clear() {
        let n = (18 << 20) / std::mem::size_of::<u64>();
        let first: HugeBox<AtomicU64> = HugeBox::try_zeroed(n).expect("18 MiB");
        for word in first.iter() {
            word.store(u64::MAX, Ordering::Relaxed);
        }
        let (mapped, addr) = (first.is_mapped(), first.as_ptr() as usize);
        drop(first);
        // SAFETY: nothing is read before it is cleared, or known zero —
        // but a pooled mapping, which holds what it was left.
        let (second, zero) = unsafe { HugeBox::<AtomicU64>::try_uncleared(n) }.expect("18 MiB");
        if mapped && second.as_ptr() as usize == addr {
            assert!(!zero, "a pooled mapping came back cleared");
            let left = if cfg!(feature = "failpoints") {
                u64::from_ne_bytes([POISON; 8])
            } else {
                u64::MAX
            };
            assert_eq!(second[n - 1].load(Ordering::Relaxed), left);
        }
        if !zero {
            // SAFETY: this thread alone has the slice.
            unsafe { second.clear(0..n / 2) };
            assert!(second[..n / 2]
                .iter()
                .all(|x| x.load(Ordering::Relaxed) == 0));
            // SAFETY: as above.
            unsafe { second.clear(n / 2..n) };
        }
        assert!(second.iter().all(|x| x.load(Ordering::Relaxed) == 0));
        // SAFETY: zero-sized: nothing to read.
        let (empty, zero) = unsafe { HugeBox::<u64>::try_uncleared(0) }.unwrap();
        assert!(zero && empty.is_empty());
    }

    #[test]
    fn alignment_matches_element_type() {
        #[repr(C, align(16))]
        struct Wide([u64; 2]);
        // SAFETY: zeroed [u64; 2] is valid, no drop glue.
        unsafe impl ZeroInit for Wide {}
        let b: HugeBox<Wide> = HugeBox::zeroed(8);
        assert_eq!(b.as_ptr() as usize % 16, 0);
        let big: HugeBox<Wide> = HugeBox::zeroed(HUGEPAGE_THRESHOLD / 16 + 1);
        assert_eq!(big.as_ptr() as usize % 16, 0);
    }

    #[test]
    fn drop_releases_both_backings() {
        for _ in 0..4 {
            let small: HugeBox<u64> = HugeBox::zeroed(16);
            let large: HugeBox<u64> = HugeBox::zeroed(HUGEPAGE_THRESHOLD / 8);
            drop(small);
            drop(large);
        }
    }
}
