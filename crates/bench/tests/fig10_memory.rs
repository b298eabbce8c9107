//! Fig. 10's memory column counts a table's whole footprint: the cell
//! arrays of 2 MB or more are anonymous mappings that the global
//! allocator never sees, and used to read as a few hundred bytes.  One
//! test in a binary of its own, so that no other test allocates or frees
//! while it measures.

use growt_bench::{fig10_footprint, GROWING_INITIAL};
use growt_core::UaGrow;
use growt_workloads::uniform_distinct_keys;

#[global_allocator]
static GLOBAL: growt_alloc_track::TrackingAlloc = growt_alloc_track::TrackingAlloc;

#[test]
fn a_million_element_ua_grow_row_counts_its_cell_arrays() {
    let keys = uniform_distinct_keys(1_000_000, 777);
    let (_table, bytes) = fig10_footprint::<UaGrow>(GROWING_INITIAL, &keys);
    // 10^6 elements need at least 2^21 cells of 16 bytes: 32 MiB.
    assert!(bytes >= 16 << 20, "{bytes} B for 10^6 elements");
}
