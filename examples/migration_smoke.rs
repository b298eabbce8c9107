//! Migration smoke: which way does `GrowMap` copy on this kernel?
//!
//! Prints, first, the mask `membarrier`'s `QUERY` answers and whether the
//! process could register for the private expedited barrier — without it
//! no migration can exclude writers, and every one marks — then the mode
//! and the copy time per source cell of each migration of a fresh
//! `GrowMap<u64, u64>` growing from 2^11 to 2^17 cells at one thread.
//! An `Exclusive` migration copies with plain loads, a `Marking` one
//! freezes each source cell with a locked `fetch_or` (DESIGN.md §15).
//! Run it before trusting a before/after of the grow pause, and name the
//! mode with the numbers.
//!
//! Run with: `cargo run -q --release --example migration_smoke`

use growt_repro::growt_core::{membarrier, GrowMap};

fn main() {
    match membarrier::query() {
        Some(mask) => println!("membarrier QUERY = {mask:#x}"),
        None => println!("membarrier QUERY failed"),
    }
    println!("membarrier::available() = {}", membarrier::available());
    let map: GrowMap<u64, u64> = GrowMap::new(1024);
    let mut handle = map.handle();
    for key in 2..2 + (1u64 << 16) {
        handle.insert(&key, &key);
    }
    drop(handle);
    for record in map.migration_log() {
        println!(
            "migration {} -> {} cells: {:?}, copy {:.1} ns a source cell",
            record.from_capacity,
            record.to_capacity,
            record.mode,
            record.copy_ns as f64 / record.from_capacity as f64
        );
    }
}
