//! Migration smoke: which way does `GrowMap` copy on this kernel?
//!
//! Prints, first, the mask `membarrier`'s `QUERY` answers and whether the
//! process could register for the private expedited barrier — without it
//! no migration can exclude writers, and every one marks — then the mode
//! and the copy time per source cell of each migration of a fresh
//! `GrowMap<u64, u64>` growing from 2^11 to 2^17 cells at one thread.
//! An `Exclusive` migration copies with plain loads, a `Marking` one
//! freezes each source cell with one locked instruction — for these inline
//! values the `cmpxchg16b` that marks the key and flips the value word
//! (DESIGN.md §15).  Run it before trusting a before/after of the grow
//! pause, and name the mode with the numbers.  A lone handle grows like a
//! sequential table: its elector clears each target in one pass, counted
//! in `prepare`, so this table's lines read `0 slices`, and its leader
//! skips the heavy barrier (DESIGN.md §13, §15).
//!
//! It then fills a second table the same way from one thread beside an
//! idle second handle, which puts the migrations on the path of a map
//! written from several handles: targets that come uncleared, cleared a
//! slice per write.  A third table is filled from two threads, which
//! start together, each inserting every other key, and prints per
//! migration the copy time per source cell summed over both participants,
//! the longest wait of a thread left with nothing to copy, and the blocks
//! the leader copied of all the leases: the two-thread baseline of the
//! grow pause.
//!
//! Each migration line also gives the elector's preparation (allocating
//! the target), then the clearing of a target that came uncleared: the
//! time from the election to its last slice, the slices, and how many of
//! them the electing thread cleared — the writers that pass clear one each
//! (DESIGN.md §13).  Each table adds the bytes of idle mappings the process
//! pools (`mem::pooled_bytes`) before its fill and after it.  Each table's
//! 2^17-cell array (2 MiB) is pooled when it drops, so the last target of
//! the tables after the first is that array, recycled and uncleared: the
//! pool reads 2 MiB before their fills and 0 after them (DESIGN.md §11).
//!
//! Built with `--features failpoints`, it fills a fourth table with the
//! `generic.membarrier` failpoint forced, so that every migration marks,
//! and prints that table's copy cost as well: both modes' per-cell cost.
//!
//! Last, one line says whether a lone handle's writes store without a
//! locked instruction here (DESIGN.md §8): the time an insert into a
//! presized table takes from its only handle, and beside an idle second
//! handle, which puts the writes on the locked path.  Where the kernel has
//! no heavy barrier both fills take the locked path, and read alike.
//!
//! Run with: `cargo run -q --release --example migration_smoke`

use std::sync::Barrier;
use std::time::Instant;

use growt_repro::growt_core::{mem, membarrier, GrowMap};

/// Fill a fresh table from 2^11 to 2^17 cells from `threads` threads,
/// thread `t` inserting the keys `t` apart from the last, beside an idle
/// handle if `beside_idle`, and print its migrations.
fn fill_and_report(threads: u64, beside_idle: bool) {
    let pooled_before = mem::pooled_bytes();
    let map: GrowMap<u64, u64> = GrowMap::new(1024);
    let idle = beside_idle.then(|| map.handle());
    // Every thread has its handle before any inserts: a thread that started
    // late would find the early migrations run by the other alone.
    let start = Barrier::new(threads as usize);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (map, start) = (&map, &start);
            s.spawn(move || {
                let mut handle = map.handle();
                start.wait();
                for key in (2 + t..2 + (1u64 << 16)).step_by(threads as usize) {
                    handle.insert(&key, &key);
                }
            });
        }
    });
    drop(idle);
    for record in map.migration_log() {
        print!(
            "migration {} -> {} cells: {:?}, prepare {:.1} us, cleared in {:.1} us \
             ({} slices, {} by the elector), copy {:.1} ns a source cell",
            record.from_capacity,
            record.to_capacity,
            record.mode,
            record.prepare_ns as f64 / 1e3,
            record.clear_ns as f64 / 1e3,
            record.slices,
            record.slices_by_elector,
            record.copy_ns as f64 / record.from_capacity as f64
        );
        if threads > 1 {
            print!(
                ", longest wait {} ns, {}/{} blocks by the leader",
                record.longest_wait_ns, record.blocks_by_leader, record.blocks
            );
        }
        println!();
    }
    println!(
        "pooled idle mappings: {} bytes before the fill, {} after",
        pooled_before,
        mem::pooled_bytes()
    );
}

/// The fastest of 200 fills of 2^10 keys into a table presized for them
/// (no migration; cells that the allocator recycles and the cache keeps),
/// in ns an insert: from a lone handle, and beside an idle second handle.
/// The two kinds of fill alternate.
fn fill_ns() -> [f64; 2] {
    const KEYS: u64 = 1 << 10;
    let mut fastest = [f64::INFINITY; 2];
    for _ in 0..200 {
        for (beside_idle, fastest) in [false, true].into_iter().zip(&mut fastest) {
            let map: GrowMap<u64, u64> = GrowMap::new(4 * KEYS as usize);
            let mut handle = map.handle();
            let idle = beside_idle.then(|| map.handle());
            let started = Instant::now();
            for key in 2..2 + KEYS {
                handle.insert(&key, &key);
            }
            *fastest = fastest.min(started.elapsed().as_nanos() as f64 / KEYS as f64);
            drop(idle);
        }
    }
    fastest
}

fn main() {
    match membarrier::query() {
        Some(mask) => println!("membarrier QUERY = {mask:#x}"),
        None => println!("membarrier QUERY failed"),
    }
    println!("membarrier::available() = {}", membarrier::available());
    fill_and_report(1, false);
    println!("from one thread beside an idle handle:");
    fill_and_report(1, true);
    println!("from two threads:");
    fill_and_report(2, false);
    #[cfg(feature = "failpoints")]
    {
        use growt_failpoints::{configure, remove, Action, Trigger};

        println!("with the generic.membarrier failpoint forced:");
        configure("generic.membarrier", Action::FailAlloc, Trigger::Always);
        fill_and_report(1, false);
        remove("generic.membarrier");
    }
    let [alone, beside_idle] = fill_ns();
    println!(
        "presized fill: {alone:.1} ns an insert from a lone handle, \
         {beside_idle:.1} ns beside an idle one"
    );
}
