//! Cell arrays recycled through the pool of idle mappings (`mem.rs`,
//! DESIGN.md §11): a dropped table's arrays become the next table's
//! migration targets, cleared, and the process-wide counts say where every
//! mapped byte is.
//!
//! The pool and both counts are process-wide, so the tests of this file
//! take one lock and nothing else in the process maps an array: every
//! delta below is exact (an earlier test may have left its arrays pooled).

use std::sync::Mutex;

use growt_repro::growt_core::mem::{self, HugeBox, HUGEPAGE_THRESHOLD};
use growt_repro::growt_core::GrowMap;

static SERIAL: Mutex<()> = Mutex::new(());

/// Whether arrays of 2 MiB and more are mappings here, and so pooled.
fn mapped_arrays() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
        && std::env::var_os("GROWT_NO_HUGEPAGES").is_none()
}

/// Table A grows to 2^18 cells and is dropped; table B then grows through
/// the same sizes with other keys.  Its 2^16 → 2^17 migration takes A's
/// 2 MiB array from the pool — the one A's keys were copied into and out
/// of — and none of A's keys shows through.
#[test]
fn a_table_grows_into_the_cleared_arrays_of_a_dropped_one() {
    const A_KEYS: u64 = 1 << 17;
    const B_KEYS: u64 = 1 << 16;
    const B_BASE: u64 = 1 << 40;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mapped, pooled) = (mem::mapped_bytes(), mem::pooled_bytes());
    let cells_bytes = (1usize << 17) * 16;
    assert_eq!(
        cells_bytes, HUGEPAGE_THRESHOLD,
        "a 2^17-cell array is one huge page"
    );

    let a: GrowMap<u64, u64> = GrowMap::new(1024);
    {
        let mut handle = a.handle();
        for key in 2..2 + A_KEYS {
            assert!(handle.insert(&key, &!key));
        }
    }
    assert!(a.migration_log().iter().any(|r| r.to_capacity == 1 << 18));
    drop(a);
    let pooled_before_b = mem::pooled_bytes();
    if mapped_arrays() {
        // A's 2^17- and 2^18-cell arrays, 2 and 4 MiB.
        assert_eq!(pooled_before_b, pooled + 3 * HUGEPAGE_THRESHOLD);
        assert_eq!(mem::mapped_bytes(), mapped);
    }

    let b: GrowMap<u64, u64> = GrowMap::new(1024);
    {
        let mut handle = b.handle();
        for i in 0..B_KEYS {
            assert!(handle.insert(&(B_BASE + i), &i));
        }
    }
    let log = b.migration_log();
    let last = log.last().expect("B migrated");
    assert_eq!((last.from_capacity, last.to_capacity), (1 << 16, 1 << 17));
    if mapped_arrays() {
        // The only mapped target of B's growth came from the pool.
        assert_eq!(mem::pooled_bytes(), pooled_before_b - HUGEPAGE_THRESHOLD);
        assert_eq!(mem::mapped_bytes(), mapped + HUGEPAGE_THRESHOLD);
    }
    assert_eq!(b.size_exact_quiescent(), B_KEYS as usize);
    let mut handle = b.handle();
    for key in 2..2 + A_KEYS {
        assert_eq!(handle.find(&key), None, "A's key {key} in B");
    }
    for i in 0..B_KEYS {
        assert_eq!(handle.find(&(B_BASE + i)), Some(i));
    }
    drop(handle);
    drop(b);
    if mapped_arrays() {
        assert_eq!(mem::pooled_bytes(), pooled_before_b);
        assert_eq!(mem::mapped_bytes(), mapped);
    }
}

/// `mapped_bytes` counts live boxes only, `pooled_bytes` idle mappings:
/// a box moves between the two as it is dropped and asked for again.
#[test]
fn mapped_bytes_counts_live_boxes_and_pooled_bytes_idle_ones() {
    const BYTES: usize = 18 << 20;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mapped, pooled) = (mem::mapped_bytes(), mem::pooled_bytes());
    let live: HugeBox<u64> = HugeBox::zeroed(BYTES / 8);
    if !live.is_mapped() {
        assert!(!mapped_arrays());
        assert_eq!((mem::mapped_bytes(), mem::pooled_bytes()), (mapped, pooled));
        return;
    }
    assert_eq!(
        (mem::mapped_bytes(), mem::pooled_bytes()),
        (mapped + BYTES, pooled)
    );
    drop(live);
    assert_eq!(
        (mem::mapped_bytes(), mem::pooled_bytes()),
        (mapped, pooled + BYTES)
    );
    let again: HugeBox<u64> = HugeBox::zeroed(BYTES / 8);
    assert_eq!(
        (mem::mapped_bytes(), mem::pooled_bytes()),
        (mapped + BYTES, pooled)
    );
    drop(again);
    assert_eq!(
        (mem::mapped_bytes(), mem::pooled_bytes()),
        (mapped, pooled + BYTES)
    );
}
