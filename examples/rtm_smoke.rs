//! RTM smoke: does this CPU run hardware transactions, and do they commit?
//!
//! Prints two lines: `rtm::available()`, and how many of 1024 transactions
//! that each mark 64 table cells (the freeze of `GrowMap`'s block copier,
//! DESIGN.md §15) committed and what one took.  Run it before trusting a
//! before/after of the grow pause: where the first line says `false`, or
//! the second counts far fewer than 1024, the copier is on its locked
//! path and the two commits measure the same code.
//!
//! Run with: `cargo run -q --release --example rtm_smoke`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use growt_repro::growt_htm::rtm;

const TRANSACTIONS: usize = 1024;
/// Words per transaction: 64 cells of a key and a value word.
const WORDS: usize = 128;

fn main() {
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
