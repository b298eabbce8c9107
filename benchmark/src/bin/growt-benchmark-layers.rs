//! The layer probes: each layer's public functions timed from outside, one
//! thread, data inside the L2, on the inputs of the workload being traced.
//!
//! ```text
//! growt-benchmark-layers --workload <name> --seed <n> [--quick]   (the gate's options)
//! ```
//!
//! Prints one `name<TAB>value<TAB>unit` line per probe; `growt-benchmark
//! --trace 1` runs this binary and folds the lines into its result.  The
//! public items each probe calls are listed in README.md ("Pinned API").
//! A probe's figure is the quickest of its rounds, in core cycles shown as
//! ns at the nominal clock: only the undisturbed figure repeats on a shared
//! host (README.md, "Estimators").

use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use growt_benchmark::driver::{worker_threads, Options};
use growt_benchmark::metrics::{Metrics, PROBE_LAYER};
use growt_benchmark::opwrap::clock_scale;
use growt_benchmark::pool::{pin_current_thread, SpinBarrier};
use growt_benchmark::workloads::{
    insert_keys, lookup_inputs, wordcount_inputs, zipf_inputs, ABSENT, INITIAL_CAPACITY,
    LOOKUP_RESIDENT, VALUE_SALT,
};
use growt_repro::growt_core::cell::Cell;
use growt_repro::growt_core::config::{hash_key, HashSelect, ProbeSelect};
use growt_repro::growt_core::count::{GlobalCount, LocalCount};
use growt_repro::growt_core::crc::{crc32c_hw_available, crc64_pair};
use growt_repro::growt_core::mem::HugeBox;
use growt_repro::growt_core::migrate::migrate_all_sequential;
use growt_repro::growt_core::simd::{
    fingerprint, match_group_sse2, match_group_swar, MetaStripe, GROUP,
};
use growt_repro::growt_core::table::BoundedTable;
use growt_repro::growt_reclaim::QsbrDomain;
use growt_repro::growt_workloads::{Clock, SplitMix64};
use growt_repro::prelude::{ConcurrentMap, GrowMap, MapHandle, SeqGrowingTable, UaGrow};

/// Cells of the probes' bounded tables: `lookup_resident`'s table.
const CELLS: usize = 2 * LOOKUP_RESIDENT;

/// Timed rounds per probe, and the clock that times them.
struct Rounds {
    rounds: usize,
    clock: Clock,
}

impl Rounds {
    /// Quickest ns per op over the rounds, at the nominal core clock — the
    /// footing the gate's unit times are on; `prepare` runs untimed before
    /// each round's `pass`, which performs `ops` operations.
    fn ns_per_op<S>(
        &self,
        ops: usize,
        mut prepare: impl FnMut() -> S,
        mut pass: impl FnMut(&mut S),
    ) -> f64 {
        (0..self.rounds)
            .map(|_| {
                let mut state = prepare();
                let start = self.clock.now();
                pass(&mut state);
                let nanos = self.clock.delta_ns(start, self.clock.now());
                nanos as f64 * clock_scale(&self.clock) / ops as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

fn filled_table(probe: ProbeSelect, pairs: &[(u64, u64)]) -> BoundedTable {
    let table = BoundedTable::with_cells_configured(CELLS, 1, HashSelect::default(), probe);
    for &(key, value) in pairs {
        black_box(table.insert(key, value));
    }
    table
}

/// `config`, `crc`: the hash kernels, as a dependent chain (a table
/// operation cannot start probing before its hash is known).
fn hash_probes(rounds: &Rounds, keys: &[u64], m: &mut Metrics) {
    m.set(
        "config.hash_key_ns",
        rounds.ns_per_op(
            keys.len(),
            || 0u64,
            |x| {
                for &k in keys {
                    *x = hash_key(*x ^ k);
                }
                black_box(*x);
            },
        ),
    );
    m.set(
        "crc.crc64_pair_ns",
        rounds.ns_per_op(
            keys.len(),
            || 0u64,
            |x| {
                for &k in keys {
                    *x = crc64_pair(*x ^ k);
                }
                black_box(*x);
            },
        ),
    );
    m.set("crc.hw", crc32c_hw_available() as u64 as f64);
}

/// `cell`: the cell primitives over an L1-resident array, and one cell
/// fought over by all worker threads.
fn cell_probes(rounds: &Rounds, m: &mut Metrics) {
    const N: usize = 2048;
    let fresh = || -> Vec<Cell> { (0..N).map(|_| Cell::new()).collect() };
    let occupied = || {
        let cells = fresh();
        for (i, cell) in cells.iter().enumerate() {
            cell.store_unsynchronized(i as u64 + 16, 7);
        }
        cells
    };
    m.set(
        "cell.read_ns",
        rounds.ns_per_op(16 * N, occupied, |cells| {
            let mut sum = 0u64;
            for _ in 0..16 {
                for cell in cells.iter() {
                    let (k, v) = cell.read();
                    sum = sum.wrapping_add(k ^ v);
                }
            }
            black_box(sum);
        }),
    );
    m.set(
        "cell.cas_pair_ns",
        rounds.ns_per_op(N, fresh, |cells| {
            for (i, cell) in cells.iter().enumerate() {
                black_box(cell.cas_pair((0, 0), (i as u64 + 16, 7)).is_ok());
            }
        }),
    );
    m.set(
        "cell.cas_value_ns",
        rounds.ns_per_op(16 * N, occupied, |cells| {
            for round in 0..16 {
                for cell in cells.iter() {
                    black_box(cell.cas_value(7 + round, 8 + round).is_ok());
                }
            }
        }),
    );
    m.set(
        "cell.fetch_add_ns",
        rounds.ns_per_op(16 * N, occupied, |cells| {
            for _ in 0..16 {
                for cell in cells.iter() {
                    black_box(cell.fetch_add_value(1));
                }
            }
        }),
    );
    m.set(
        "cell.mark_ns",
        rounds.ns_per_op(N, occupied, |cells| {
            for cell in cells.iter() {
                black_box(cell.mark_for_migration());
            }
        }),
    );

    // One cell, every worker thread incrementing it by value CAS: what a
    // hot key of aggregate_zipf costs.  Reported per successful increment
    // of one thread.
    const INCREMENTS: u64 = 1 << 17;
    let threads = worker_threads();
    let contended = (0..rounds.rounds)
        .map(|_| {
            let cell = Arc::new(Cell::new());
            cell.store_unsynchronized(16, 0);
            let barrier = Arc::new(SpinBarrier::new());
            let spent: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|cpu| {
                        let (cell, barrier) = (Arc::clone(&cell), Arc::clone(&barrier));
                        scope.spawn(move || {
                            pin_current_thread(cpu);
                            barrier.wait(threads);
                            let start = Instant::now();
                            for _ in 0..INCREMENTS {
                                let mut seen = cell.load_value();
                                while let Err(now) = cell.cas_value(seen, seen + 1) {
                                    seen = now;
                                }
                            }
                            start.elapsed().as_nanos() as f64 / INCREMENTS as f64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("contended-cell thread panicked"))
                    .collect()
            });
            assert_eq!(cell.load_value(), threads as u64 * INCREMENTS);
            spent.iter().sum::<f64>() / threads as f64
        })
        .fold(f64::INFINITY, f64::min);
    m.set("cell.cas_value_contended_ns", contended);
}

/// `simd`: the 16-byte group match and the stripe probe.
fn simd_probes(rounds: &Rounds, keys: &[u64], m: &mut Metrics) {
    let groups: Vec<[u8; GROUP]> = keys
        .iter()
        .take(4096)
        .map(|&k| {
            hash_key(k)
                .to_le_bytes()
                .repeat(2)
                .try_into()
                .expect("16 bytes")
        })
        .collect();
    m.set(
        "simd.match_group_ns",
        rounds.ns_per_op(
            16 * groups.len(),
            || (),
            |_| {
                let mut sum = 0u32;
                for round in 0..16u8 {
                    for group in &groups {
                        let fp = 0x80 | round;
                        let (candidates, empties) = match_group_sse2(group, fp)
                            .unwrap_or_else(|| match_group_swar(group, fp));
                        sum = sum.wrapping_add(candidates ^ empties);
                    }
                }
                black_box(sum);
            },
        ),
    );
    let stripe = MetaStripe::new(CELLS);
    for (i, &k) in keys.iter().enumerate() {
        stripe.publish(i * 2 % CELLS, fingerprint(hash_key(k)));
    }
    m.set(
        "simd.probe_group_ns",
        rounds.ns_per_op(
            keys.len(),
            || (),
            |_| {
                let mut sum = 0u32;
                for &k in keys {
                    let hash = hash_key(k);
                    let base = (hash >> 40) as usize & (CELLS - 1);
                    let (candidates, empties) = stripe.probe_group(base, fingerprint(hash));
                    sum = sum.wrapping_add(candidates ^ empties);
                }
                black_box(sum);
            },
        ),
    );
}

/// `table`: the bounded folklore table at `lookup_resident`'s size and load.
fn table_probes(rounds: &Rounds, pairs: &[(u64, u64)], absent: &[u64], m: &mut Metrics) {
    let hits: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    let find_all = |table: &BoundedTable, keys: &[u64]| {
        let mut sum = 0u64;
        for &k in keys {
            sum = sum.wrapping_add(table.find(k).unwrap_or(ABSENT));
        }
        black_box(sum);
    };
    for (probe, hit_name, miss_name) in [
        (
            ProbeSelect::default(),
            "table.find_hit_ns",
            "table.find_miss_ns",
        ),
        (
            ProbeSelect::Simd,
            "table.find_hit_simd_ns",
            "table.find_miss_simd_ns",
        ),
    ] {
        let table = filled_table(probe, pairs);
        m.set(
            hit_name,
            rounds.ns_per_op(hits.len(), || (), |_| find_all(&table, &hits)),
        );
        m.set(
            miss_name,
            rounds.ns_per_op(
                8 * absent.len(),
                || (),
                |_| {
                    for _ in 0..8 {
                        find_all(&table, absent);
                    }
                },
            ),
        );
    }
    let table = filled_table(ProbeSelect::default(), pairs);
    m.set(
        "table.find_batch16_ns",
        rounds.ns_per_op(
            hits.len(),
            || [None; 16],
            |out| {
                for batch in hits.chunks_exact(16) {
                    table.find_batch(batch, out);
                    black_box(&out);
                }
            },
        ),
    );
    m.set(
        "table.upsert_ns",
        rounds.ns_per_op(
            hits.len(),
            || (),
            |_| {
                for &k in &hits {
                    black_box(table.upsert_with(k, 1, |current, delta| current + delta));
                }
            },
        ),
    );
    m.set(
        "table.insert_ns",
        rounds.ns_per_op(
            pairs.len(),
            || BoundedTable::with_cells(CELLS, 1),
            |table| {
                for &(k, v) in pairs {
                    black_box(table.insert(k, v));
                }
            },
        ),
    );
    m.set(
        "table.erase_ns",
        rounds.ns_per_op(
            hits.len(),
            || filled_table(ProbeSelect::default(), pairs),
            |table| {
                for &k in &hits {
                    black_box(table.erase(k));
                }
            },
        ),
    );
}

/// `table.find_hit_dram_*`: the same find on a 64 MiB table — the regime
/// no gated number is taken in, reported with its spread to show why.
fn dram_probe(quick: bool, m: &mut Metrics) {
    let cells: usize = if quick { 1 << 18 } else { 1 << 22 };
    let table = BoundedTable::with_cells(cells, 1);
    let mut rng = SplitMix64::new(0xD7A3);
    let keys: Vec<u64> = (0..cells / 2)
        .map(|_| (rng.next_u64() >> 1).max(16))
        .collect();
    for &k in &keys {
        black_box(table.insert(k, k));
    }
    let mut windows: Vec<f64> = keys
        .chunks(keys.len() / 8)
        .take(8)
        .map(|window| {
            let start = Instant::now();
            let mut sum = 0u64;
            for &k in window.iter().step_by(4) {
                sum = sum.wrapping_add(table.find(k).unwrap_or(ABSENT));
            }
            black_box(sum);
            start.elapsed().as_nanos() as f64 / window.len().div_ceil(4) as f64
        })
        .collect();
    windows.sort_by(|a, b| a.total_cmp(b));
    let middle = windows[windows.len() / 2];
    m.set("table.find_hit_dram_ns", middle);
    m.set(
        "table.find_hit_dram_spread",
        (windows[windows.len() - 1] - windows[0]) / middle,
    );
}

/// `count`, `mem`, `migrate`, `reclaim`: what the growth path is made of.
fn growth_probes(rounds: &Rounds, pairs: &[(u64, u64)], m: &mut Metrics) {
    const RECORDS: usize = 1 << 20;
    m.set(
        "count.record_ns",
        rounds.ns_per_op(
            RECORDS,
            || {
                (
                    GlobalCount::new(),
                    LocalCount::new(worker_threads(), 0x5EED),
                )
            },
            |(global, local)| {
                for _ in 0..RECORDS {
                    black_box(local.record_insertion(global));
                }
            },
        ),
    );

    // Allocate zeroed and touch every page: what a migration pays for its
    // target before it copies anything.
    let mut anon_huge = 0.0;
    for (name, bytes) in [
        ("mem.zeroed_2m_gib_s", 2usize << 20),
        ("mem.zeroed_32m_gib_s", 32 << 20),
    ] {
        let words = bytes / 8;
        let ns_per_byte = rounds.ns_per_op(
            bytes,
            || (),
            |_| {
                let memory: HugeBox<AtomicU64> = HugeBox::zeroed(words);
                for word in memory.iter().step_by(512) {
                    word.store(1, Ordering::Relaxed);
                }
                black_box(&memory);
                if bytes > 2 << 20 {
                    anon_huge = anon_huge_frac(memory.as_ptr() as usize, bytes);
                }
            },
        );
        m.set(name, 1e9 / ns_per_byte / (1u64 << 30) as f64);
    }
    m.set("mem.anon_huge_frac", anon_huge);

    // 2^16 cells at the growth threshold's load into 2^17.
    let loaded = (CELLS as f64 * 0.6) as usize;
    let source = filled_table(ProbeSelect::default(), &pairs[..loaded]);
    let ns_per_cell = rounds.ns_per_op(
        CELLS,
        || BoundedTable::with_cells(2 * CELLS, 2),
        |target| {
            black_box(migrate_all_sequential(&source, target));
        },
    );
    m.set("migrate.seq_mcells_s", 1e3 / ns_per_cell);

    const RETIRES: usize = 1 << 16;
    let domain = Arc::new(QsbrDomain::new());
    m.set(
        "reclaim.retire_quiesce_ns",
        rounds.ns_per_op(
            RETIRES,
            || domain.register(),
            |participant| {
                for i in 0..RETIRES {
                    participant.retire(i as u64);
                    if i % 64 == 63 {
                        participant.quiescent();
                    }
                }
                participant.quiescent();
            },
        ),
    );
    m.set("reclaim.pending_end", domain.pending() as f64);
}

/// Share of the mapping that holds `address` which the kernel backs with
/// transparent huge pages, from `/proc/self/smaps`; 0 where unreadable.
fn anon_huge_frac(address: usize, bytes: usize) -> f64 {
    let Ok(smaps) = std::fs::read_to_string("/proc/self/smaps") else {
        return 0.0;
    };
    let mut inside = false;
    for line in smaps.lines() {
        if let Some((range, _)) = line.split_once(' ') {
            if let Some((from, to)) = range.split_once('-') {
                if let (Ok(from), Ok(to)) = (
                    usize::from_str_radix(from, 16),
                    usize::from_str_radix(to, 16),
                ) {
                    inside = (from..to).contains(&address);
                    continue;
                }
            }
        }
        if inside {
            if let Some(kb) = line.strip_prefix("AnonHugePages:") {
                let kb: f64 = kb
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0.0);
                return (kb * 1024.0 / bytes as f64).min(1.0);
            }
        }
    }
    0.0
}

/// `generic`, `grow`, `seq`, `driver.loop_ns`: the facade, its hand-written
/// predecessor and the sequential table, on the traced workload's inputs.
fn facade_probes(rounds: &Rounds, workload: &str, seed: u64, m: &mut Metrics) {
    let (prefill, stream) = lookup_inputs(seed);

    // The 7:1 hit/miss stream of lookup_resident, in storage order.
    let map: GrowMap<u64, u64> = GrowMap::new(LOOKUP_RESIDENT);
    let mut handle = map.handle();
    for (k, v) in &prefill {
        handle.insert(k, v);
    }
    let generic_find = rounds.ns_per_op(
        stream.len(),
        || (),
        |_| {
            let mut sum = 0u64;
            for (k, _) in &stream {
                sum = sum.wrapping_add(handle.find(k).unwrap_or(ABSENT));
            }
            black_box(sum);
        },
    );
    m.set("generic.find_ns", generic_find);
    if let (Some(hit), Some(miss)) = (m.get("table.find_hit_ns"), m.get("table.find_miss_ns")) {
        // What the facade adds over the bare table on the same stream: a
        // difference of two probes, so 0 where it is inside their noise.
        m.set(
            "generic.prologue_ns",
            (generic_find - (7.0 * hit + miss) / 8.0).max(0.0),
        );
    }
    drop(handle);

    // The harness's own loop around an op: stream load, result check,
    // stride step — lookup_resident's loop with the find taken out.
    m.set(
        "driver.loop_ns",
        rounds.ns_per_op(
            16 * stream.len(),
            || (),
            |_| {
                let mask = stream.len() - 1;
                let (mut at, mut failed) = (0usize, 0u64);
                for _ in 0..16 * stream.len() {
                    let (key, want) = stream[at];
                    let got = black_box(Some(black_box(key) ^ VALUE_SALT));
                    failed += (got.unwrap_or(ABSENT) != want) as u64;
                    at = (at + 12345) & mask;
                }
                black_box(failed);
            },
        ),
    );

    let table = UaGrow::with_capacity(LOOKUP_RESIDENT);
    let mut handle = table.handle();
    for &(k, v) in &prefill {
        handle.insert(k, v);
    }
    m.set(
        "grow.find_ns",
        rounds.ns_per_op(
            stream.len(),
            || (),
            |_| {
                let mut sum = 0u64;
                for &(k, _) in &stream {
                    sum = sum.wrapping_add(handle.find(k).unwrap_or(ABSENT));
                }
                black_box(sum);
            },
        ),
    );
    drop(handle);

    // insert_grow's table fill: 2^16 distinct keys into a 2048-cell table.
    let keys = insert_keys(seed);
    m.set(
        "generic.insert_ns",
        rounds.ns_per_op(
            keys.len(),
            || GrowMap::<u64, u64>::new(INITIAL_CAPACITY),
            |map| {
                let mut handle = map.handle();
                for k in &keys {
                    black_box(handle.insert(k, &(k ^ VALUE_SALT)));
                }
            },
        ),
    );
    m.set(
        "grow.insert_ns",
        rounds.ns_per_op(
            keys.len(),
            || UaGrow::with_capacity(INITIAL_CAPACITY),
            |table| {
                let mut handle = table.handle();
                for &k in &keys {
                    black_box(handle.insert(k, k ^ VALUE_SALT));
                }
            },
        ),
    );

    // aggregate_zipf's rep: a fresh table and a few stream cycles (a
    // rep's 32 add nothing but time).
    let (universe, zipf) = zipf_inputs(seed);
    const CYCLES: usize = 8;
    m.set(
        "generic.upsert_ns",
        rounds.ns_per_op(
            CYCLES * zipf.len(),
            || GrowMap::<u64, u64>::new(INITIAL_CAPACITY),
            |map| {
                let mut handle = map.handle();
                for _ in 0..CYCLES {
                    for &index in &zipf {
                        black_box(
                            handle.insert_or_update(&universe[index as usize], &1, |c| c + 1),
                        );
                    }
                }
            },
        ),
    );

    // wordcount_string's pieces.
    let (vocabulary, words) = wordcount_inputs(seed);
    m.set(
        "generic.string_insert_ns",
        rounds.ns_per_op(
            vocabulary.len(),
            || GrowMap::<String, u64>::new(INITIAL_CAPACITY),
            |map| {
                let mut handle = map.handle();
                for word in &vocabulary {
                    black_box(handle.insert(word, &1));
                }
            },
        ),
    );
    m.set(
        "generic.string_upsert_ns",
        rounds.ns_per_op(
            CYCLES * words.len(),
            || GrowMap::<String, u64>::new(INITIAL_CAPACITY),
            |map| {
                let mut handle = map.handle();
                for _ in 0..CYCLES {
                    for &index in &words {
                        black_box(
                            handle.insert_or_update(&vocabulary[index as usize], &1, |c| c + 1),
                        );
                    }
                }
            },
        ),
    );
    let map: GrowMap<String, u64> = GrowMap::new(INITIAL_CAPACITY);
    let mut handle = map.handle();
    for word in &vocabulary {
        handle.insert(word, &1);
    }
    m.set(
        "generic.string_find_ns",
        rounds.ns_per_op(
            words.len(),
            || (),
            |_| {
                let mut sum = 0u64;
                for &index in &words {
                    sum = sum
                        .wrapping_add(handle.find(&vocabulary[index as usize]).unwrap_or(ABSENT));
                }
                black_box(sum);
            },
        ),
    );
    drop(handle);

    // The sequential table on the traced workload's own stream: the
    // paper's absolute-speedup baseline.  It has no string keys, so
    // wordcount_string is given std's HashMap instead.
    let seq_ns = match workload {
        "lookup_resident" => {
            let table = SeqGrowingTable::with_capacity(LOOKUP_RESIDENT);
            let mut handle = table.handle();
            for &(k, v) in &prefill {
                handle.insert(k, v);
            }
            rounds.ns_per_op(
                stream.len(),
                || (),
                |_| {
                    let mut sum = 0u64;
                    for &(k, _) in &stream {
                        sum = sum.wrapping_add(handle.find(k).unwrap_or(ABSENT));
                    }
                    black_box(sum);
                },
            )
        }
        "insert_grow" => rounds.ns_per_op(
            keys.len(),
            || SeqGrowingTable::with_capacity(INITIAL_CAPACITY),
            |table| {
                let mut handle = table.handle();
                for &k in &keys {
                    black_box(handle.insert(k, k ^ VALUE_SALT));
                }
            },
        ),
        "aggregate_zipf" => rounds.ns_per_op(
            CYCLES * zipf.len(),
            || SeqGrowingTable::with_capacity(INITIAL_CAPACITY),
            |table| {
                let mut handle = table.handle();
                for _ in 0..CYCLES {
                    for &index in &zipf {
                        black_box(handle.insert_or_increment(universe[index as usize], 1));
                    }
                }
            },
        ),
        _ => rounds.ns_per_op(
            CYCLES * words.len(),
            std::collections::HashMap::<&str, u64>::new,
            |counts| {
                for _ in 0..CYCLES {
                    for &index in &words {
                        *counts
                            .entry(vocabulary[index as usize].as_str())
                            .or_insert(0) += 1;
                    }
                }
                black_box(counts.len());
            },
        ),
    };
    m.set("seq.mops_1t", 1e3 / seq_ns);
}

fn main() -> ExitCode {
    // The gate's own options: the probes read --workload, --seed, --quick.
    let Options {
        workload,
        seed,
        quick,
        ..
    } = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("growt-benchmark-layers: {problem}");
            return ExitCode::from(2);
        }
    };
    pin_current_thread(0);
    let rounds = Rounds {
        rounds: if quick { 2 } else { 15 },
        clock: Clock::calibrated(),
    };
    let (prefill, stream) = lookup_inputs(seed);
    let hits: Vec<u64> = prefill.iter().map(|p| p.0).collect();
    let absent: Vec<u64> = stream
        .iter()
        .filter(|s| s.1 == ABSENT)
        .map(|s| s.0)
        .collect();

    let grown: Vec<(u64, u64)> = insert_keys(seed).iter().map(|&k| (k, k)).collect();

    let mut metrics = Metrics::default();
    hash_probes(&rounds, &hits, &mut metrics);
    cell_probes(&rounds, &mut metrics);
    simd_probes(&rounds, &hits, &mut metrics);
    table_probes(&rounds, &prefill, &absent, &mut metrics);
    dram_probe(quick, &mut metrics);
    growth_probes(&rounds, &grown, &mut metrics);
    facade_probes(&rounds, &workload, seed, &mut metrics);
    print!("{}", metrics.to_table(&[&PROBE_LAYER]));
    ExitCode::SUCCESS
}
