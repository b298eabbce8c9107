//! Migration smoke: which way does `GrowMap` copy on this kernel and CPU?
//!
//! Prints, first, the mask `membarrier`'s `QUERY` answers and whether the
//! process could register for the private expedited barrier — without it
//! no migration can exclude writers, and every one marks — then the mode
//! and the copy time per source cell of each migration of a fresh
//! `GrowMap<u64, u64>` growing from 2^11 to 2^17 cells at one thread.
//! Last come `rtm::available()` and how many of 1024 transactions that
//! each mark 64 table cells (the marking freeze of the block copier,
//! DESIGN.md §15) committed, and what one took: where that says `false`,
//! or counts far fewer than 1024, a marking copy freezes on the locked
//! instructions.  Run it before trusting a before/after of the grow
//! pause, and name the mode and the path with the numbers.
//!
//! Run with: `cargo run -q --release --example rtm_smoke`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use growt_repro::growt_core::{membarrier, GrowMap};
use growt_repro::growt_htm::rtm;

const TRANSACTIONS: usize = 1024;
/// Words per transaction: 64 cells of a key and a value word.
const WORDS: usize = 128;

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

    println!("rtm::available() = {}", rtm::available());
    if !rtm::available() {
        return;
    }
    // Written, not zero-allocated: a page touched for the first time
    // inside a transaction aborts it.
    let words: Vec<AtomicU64> = (0..TRANSACTIONS * WORDS)
        .map(|i| AtomicU64::new(std::hint::black_box(i as u64)))
        .collect();
    let started = Instant::now();
    let commits = words
        .chunks(WORDS)
        .filter(|chunk| {
            // SAFETY: `available()` was checked; `end` runs inside the
            // transaction `begin` started.
            unsafe {
                if rtm::begin() != rtm::STARTED {
                    return false;
                }
                for key in chunk.iter().step_by(2) {
                    let word = key.load(Ordering::Relaxed);
                    key.store(word | 1 << 63, Ordering::Relaxed);
                }
                rtm::end();
                true
            }
        })
        .count();
    let ns = started.elapsed().as_nanos() / TRANSACTIONS as u128;
    println!("{commits} of {TRANSACTIONS} 64-cell transactions committed, {ns} ns each");
}
