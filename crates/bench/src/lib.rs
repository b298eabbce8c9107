//! Benchmark harness regenerating the tables and figures of the paper's
//! evaluation (§8.4).
//!
//! Every experiment of the paper has a runner function here that produces a
//! [`Figure`] (a set of per-table series over a common x axis, printed as
//! TSV).  The `figure` binary dispatches on the experiment id (`fig2a`,
//! `fig4b`, `table1`, …); `EXPERIMENTS.md` records the measured output next
//! to the paper's reported behaviour.
//!
//! The op counts are scaled down from the paper's 10⁸ (configurable with
//! `--ops`); DESIGN.md §4 documents why the *shape* of the results is the
//! reproduction target rather than absolute numbers.

#![warn(missing_docs)]

use growt_baselines::{
    Cuckoo, FollyStyle, Hopscotch, JunctionLeapfrog, JunctionLinear, LeaHash, PhaseConcurrent,
    RcuQsbrTable, RcuTable, TbbHashMap, TbbUnorderedMap,
};
use growt_core::{
    Folklore, FolkloreCrc, FolkloreSimd, GrowMap, PaGrow, PsGrow, StringKeyTable, UaGrow,
    UaGrowCrc, UaGrowK1, UaGrowK16, UaGrowK4, UaGrowSimd, UsGrow,
};
use growt_iface::{capability_row, Capabilities, ConcurrentMap, GenericMap};
use growt_seq::{SeqGrowingTable, SeqTable};
use growt_workloads::{
    aggregate_driver, deletion_driver, deletion_workload, dense_prefill_keys, find_batch_driver,
    find_driver, generic_aggregate_driver, generic_wordcount_driver, insert_batch_driver,
    insert_driver, mixed_driver, mixed_workload, prefill, uniform_distinct_keys, uniform_keys,
    update_driver, word_corpus, zipf_keys, zipf_mixed_latency_driver, zipf_mixed_workload, Figure,
    LatencyHistogram, Repetitions, Series, ZipfMixedWorkload, LAT_CLASS_FIND, LAT_CLASS_INSERT,
    LAT_CLASS_UPDATE,
};

/// Harness configuration (op counts, thread grid, repetitions).
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Number of operations per data point (paper: 10⁸).
    pub ops: usize,
    /// Thread counts for scaling figures (paper: 1..48 / 1..64).
    pub threads: Vec<usize>,
    /// Whether `threads` came from an explicit `--threads` override, in
    /// which case figures with their own built-in thread grid (`fig11`)
    /// honor the override instead.
    pub threads_overridden: bool,
    /// Repetitions per data point (paper: 5).
    pub reps: usize,
    /// Zipf exponents for the contention figures (paper Fig. 4/5).
    pub zipf_s: Vec<f64>,
    /// Write percentages for the mixed figure (paper Fig. 7).
    pub write_percents: Vec<u32>,
    /// Thread count used for fixed-p figures (paper: 48).
    pub contention_threads: usize,
    /// Vocabulary size (distinct words) of the `wordcount` figure.
    pub wordcount_vocab: usize,
    /// Zipf exponent of the `wordcount` word stream (natural text ≈ 1).
    pub wordcount_zipf: f64,
    /// Also write machine-readable JSON output where a figure supports it
    /// (`ablation_batch` → `BENCH_hotpath.json`).
    pub json: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            ops: 1_000_000,
            threads: vec![1, 2, 4, 8],
            threads_overridden: false,
            reps: 1,
            zipf_s: vec![0.25, 0.5, 0.75, 0.85, 0.95, 1.0, 1.25, 1.5, 2.0],
            write_percents: vec![10, 20, 30, 40, 50, 60, 70, 80],
            contention_threads: 4,
            wordcount_vocab: 1 << 16,
            wordcount_zipf: 1.0,
            json: false,
        }
    }
}

/// Initial capacity used for the "efficiently growing" benchmarks (paper:
/// 4096).
pub const GROWING_INITIAL: usize = 4096;

/// The sequential reference tables use no synchronization at all and are
/// only ever driven with a single thread (paper §8.1.4); every runner
/// clamps the thread count for them.
fn effective_threads<M: ConcurrentMap>(requested: usize) -> usize {
    if M::table_name().starts_with("sequential") {
        1
    } else {
        requested
    }
}

// ---------------------------------------------------------------------------
// Generic per-table runners
// ---------------------------------------------------------------------------

/// Prefill helper that respects the single-thread restriction of the
/// sequential reference tables.
fn prefill_for<M: ConcurrentMap>(table: &M, keys: &[u64]) {
    if M::table_name().starts_with("sequential") {
        insert_driver(table, keys, 1);
    } else {
        prefill(table, keys);
    }
}

fn insert_series<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    capacity_of: impl Fn(usize) -> usize,
) -> Series {
    let mut series = Series::new(M::table_name());
    for &p in &cfg.threads {
        let mut reps = Repetitions::new();
        for rep in 0..cfg.reps {
            let keys = uniform_distinct_keys(cfg.ops, 1000 + rep as u64);
            let table = M::with_capacity(capacity_of(cfg.ops));
            reps.push(insert_driver(&table, &keys, effective_threads::<M>(p)));
        }
        series.push(p as f64, reps.mean_mops());
    }
    series
}

fn find_series<M: ConcurrentMap>(cfg: &HarnessConfig, successful: bool) -> Series {
    let mut series = Series::new(M::table_name());
    let keys = uniform_distinct_keys(cfg.ops, 1000);
    let lookup = if successful {
        keys.clone()
    } else {
        uniform_keys(cfg.ops, 999_999)
    };
    for &p in &cfg.threads {
        let mut reps = Repetitions::new();
        for _ in 0..cfg.reps {
            let table = M::with_capacity(cfg.ops);
            prefill_for::<M>(&table, &keys);
            reps.push(find_driver(&table, &lookup, effective_threads::<M>(p)));
        }
        series.push(p as f64, reps.mean_mops());
    }
    series
}

fn zipf_update_series<M: ConcurrentMap>(cfg: &HarnessConfig, universe: u64) -> Series {
    let mut series = Series::new(M::table_name());
    let prefill_keys = dense_prefill_keys(universe);
    for &s in &cfg.zipf_s {
        let keys = zipf_keys(cfg.ops, universe, s, 4200 + (s * 100.0) as u64);
        let mut reps = Repetitions::new();
        for _ in 0..cfg.reps {
            let table = M::with_capacity(universe as usize);
            prefill_for::<M>(&table, &prefill_keys);
            reps.push(update_driver(
                &table,
                &keys,
                effective_threads::<M>(cfg.contention_threads),
            ));
        }
        series.push(s, reps.mean_mops());
    }
    series
}

fn zipf_find_series<M: ConcurrentMap>(cfg: &HarnessConfig, universe: u64) -> Series {
    let mut series = Series::new(M::table_name());
    let prefill_keys = dense_prefill_keys(universe);
    for &s in &cfg.zipf_s {
        let keys = zipf_keys(cfg.ops, universe, s, 4300 + (s * 100.0) as u64);
        let mut reps = Repetitions::new();
        for _ in 0..cfg.reps {
            let table = M::with_capacity(universe as usize);
            prefill_for::<M>(&table, &prefill_keys);
            reps.push(find_driver(
                &table,
                &keys,
                effective_threads::<M>(cfg.contention_threads),
            ));
        }
        series.push(s, reps.mean_mops());
    }
    series
}

fn aggregation_series<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    universe: u64,
    growing: bool,
) -> Series {
    let mut series = Series::new(M::table_name());
    for &s in &cfg.zipf_s {
        let keys = zipf_keys(cfg.ops, universe, s, 4400 + (s * 100.0) as u64);
        let mut reps = Repetitions::new();
        for _ in 0..cfg.reps {
            let capacity = if growing { GROWING_INITIAL } else { cfg.ops };
            let table = M::with_capacity(capacity);
            reps.push(aggregate_driver(
                &table,
                &keys,
                effective_threads::<M>(cfg.contention_threads),
            ));
        }
        series.push(s, reps.mean_mops());
    }
    series
}

fn deletion_series<M: ConcurrentMap>(cfg: &HarnessConfig, thread_grid: &[usize]) -> Series {
    let mut series = Series::new(M::table_name());
    let window = (cfg.ops / 10).max(8192 * 8);
    let wl = deletion_workload(cfg.ops, window, 5100);
    for &p in thread_grid {
        let mut reps = Repetitions::new();
        for _ in 0..cfg.reps {
            let table = M::with_capacity(window + window / 2);
            prefill_for::<M>(&table, &wl.prefill);
            reps.push(deletion_driver(&table, &wl, effective_threads::<M>(p)));
        }
        series.push(p as f64, reps.mean_mops());
    }
    series
}

fn mixed_series<M: ConcurrentMap>(cfg: &HarnessConfig, growing: bool) -> Series {
    let mut series = Series::new(M::table_name());
    let p = cfg.contention_threads;
    for &wp in &cfg.write_percents {
        let wl = mixed_workload(cfg.ops, wp, 8192 * p, 8192 * p, 6100 + wp as u64);
        let mut reps = Repetitions::new();
        for _ in 0..cfg.reps {
            let inserts = 8192 * p + (cfg.ops * wp as usize) / 100;
            let capacity = if growing { GROWING_INITIAL } else { inserts };
            let table = M::with_capacity(capacity);
            prefill_for::<M>(&table, &wl.prefill);
            reps.push(mixed_driver(&table, &wl, effective_threads::<M>(p)));
        }
        series.push(wp as f64, reps.mean_mops());
    }
    series
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

/// Fig. 2a: insertions into a pre-initialized (non-growing) table.
pub fn fig2a(cfg: &HarnessConfig) -> Figure {
    let mut fig = Figure::new("fig2a-insert-preinitialized", "threads");
    macro_rules! series {
        ($t:ty) => {
            fig.push(insert_series::<$t>(cfg, |ops| ops));
        };
    }
    series!(SeqTable);
    series!(Folklore);
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    series!(PhaseConcurrent);
    series!(Hopscotch);
    series!(LeaHash);
    series!(FollyStyle);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(TbbUnorderedMap);
    series!(RcuTable);
    series!(JunctionLinear);
    series!(JunctionLeapfrog);
    fig
}

/// Fig. 2b: insertions into a growing table (initial capacity 4096; tables
/// with limited growing start at half the final size).
pub fn fig2b(cfg: &HarnessConfig) -> Figure {
    let mut fig = Figure::new("fig2b-insert-growing", "threads");
    macro_rules! growing {
        ($t:ty) => {
            fig.push(insert_series::<$t>(cfg, |_| GROWING_INITIAL));
        };
    }
    macro_rules! semi {
        ($t:ty) => {
            fig.push(insert_series::<$t>(cfg, |ops| ops / 2));
        };
    }
    fig.push(insert_series::<SeqGrowingTable>(cfg, |_| GROWING_INITIAL));
    growing!(UaGrow);
    growing!(UsGrow);
    growing!(PaGrow);
    growing!(PsGrow);
    growing!(JunctionLinear);
    growing!(JunctionLeapfrog);
    growing!(TbbHashMap);
    growing!(TbbUnorderedMap);
    growing!(RcuTable);
    growing!(RcuQsbrTable);
    semi!(FollyStyle);
    semi!(Cuckoo);
    fig
}

/// Fig. 3a: successful finds.  Fig. 3b: unsuccessful finds.
pub fn fig3(cfg: &HarnessConfig, successful: bool) -> Figure {
    let id = if successful {
        "fig3a-find-successful"
    } else {
        "fig3b-find-unsuccessful"
    };
    let mut fig = Figure::new(id, "threads");
    macro_rules! series {
        ($t:ty) => {
            fig.push(find_series::<$t>(cfg, successful));
        };
    }
    series!(SeqTable);
    series!(Folklore);
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    series!(PhaseConcurrent);
    series!(Hopscotch);
    series!(LeaHash);
    series!(FollyStyle);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(TbbUnorderedMap);
    series!(RcuTable);
    series!(JunctionLinear);
    series!(JunctionLeapfrog);
    fig
}

/// Fig. 4a: overwriting updates under Zipf contention.
pub fn fig4a(cfg: &HarnessConfig) -> Figure {
    let universe = (cfg.ops as u64).max(1 << 14);
    let mut fig = Figure::new("fig4a-update-contention", "zipf-s");
    macro_rules! series {
        ($t:ty) => {
            fig.push(zipf_update_series::<$t>(cfg, universe));
        };
    }
    series!(SeqTable);
    series!(Folklore);
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    series!(Hopscotch);
    series!(LeaHash);
    series!(FollyStyle);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(TbbUnorderedMap);
    series!(RcuTable);
    series!(JunctionLinear);
    series!(JunctionLeapfrog);
    fig
}

/// Fig. 4b: successful finds under Zipf contention.
pub fn fig4b(cfg: &HarnessConfig) -> Figure {
    let universe = (cfg.ops as u64).max(1 << 14);
    let mut fig = Figure::new("fig4b-find-contention", "zipf-s");
    macro_rules! series {
        ($t:ty) => {
            fig.push(zipf_find_series::<$t>(cfg, universe));
        };
    }
    series!(SeqTable);
    series!(Folklore);
    series!(UaGrow);
    series!(UsGrow);
    series!(PhaseConcurrent);
    series!(Hopscotch);
    series!(LeaHash);
    series!(FollyStyle);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(TbbUnorderedMap);
    series!(RcuTable);
    series!(JunctionLinear);
    series!(JunctionLeapfrog);
    fig
}

/// Fig. 5a/5b: aggregation (insert-or-increment) with and without growing.
/// Only tables whose interface supports atomic read-modify-write updates
/// participate (paper §8.4).
pub fn fig5(cfg: &HarnessConfig, growing: bool) -> Figure {
    let universe = (cfg.ops as u64).max(1 << 14);
    let id = if growing {
        "fig5b-aggregation-growing"
    } else {
        "fig5a-aggregation-preinitialized"
    };
    let mut fig = Figure::new(id, "zipf-s");
    macro_rules! series {
        ($t:ty) => {
            fig.push(aggregation_series::<$t>(cfg, universe, growing));
        };
    }
    series!(SeqGrowingTable);
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    if !growing {
        series!(Folklore);
    }
    series!(FollyStyle);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(LeaHash);
    series!(RcuTable);
    fig
}

/// Fig. 6: alternating insertions and deletions (sliding window).
pub fn fig6(cfg: &HarnessConfig) -> Figure {
    let mut fig = Figure::new("fig6-deletions", "threads");
    let grid: Vec<usize> = cfg.threads.clone();
    macro_rules! series {
        ($t:ty) => {
            fig.push(deletion_series::<$t>(cfg, &grid));
        };
    }
    series!(SeqGrowingTable);
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    // No `PhaseConcurrent`: its contract forbids inserts and erases in one
    // phase, and Fig. 6 mixes them in every step; driven that way it loses
    // keys and its operations can spin without end.
    series!(Hopscotch);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(LeaHash);
    series!(RcuTable);
    fig
}

/// Fig. 7a/7b: mixed insertions and finds over the write percentage.
pub fn fig7(cfg: &HarnessConfig, growing: bool) -> Figure {
    let id = if growing {
        "fig7b-mixed-growing"
    } else {
        "fig7a-mixed-preinitialized"
    };
    let mut fig = Figure::new(id, "write-percent");
    macro_rules! series {
        ($t:ty) => {
            fig.push(mixed_series::<$t>(cfg, growing));
        };
    }
    series!(SeqGrowingTable);
    if !growing {
        series!(Folklore);
        series!(Hopscotch);
        series!(PhaseConcurrent);
    }
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    series!(FollyStyle);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(LeaHash);
    series!(RcuTable);
    series!(JunctionLinear);
    fig
}

/// Fig. 8a: pool-based vs. enslavement-based growing, insertions.
pub fn fig8a(cfg: &HarnessConfig) -> Figure {
    let mut fig = Figure::new("fig8a-pool-vs-enslavement-insert", "threads");
    macro_rules! series {
        ($t:ty) => {
            fig.push(insert_series::<$t>(cfg, |_| GROWING_INITIAL));
        };
    }
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    fig
}

/// Fig. 8b: pool-based vs. enslavement-based growing, insert+delete cycles.
pub fn fig8b(cfg: &HarnessConfig) -> Figure {
    let mut fig = Figure::new("fig8b-pool-vs-enslavement-deletions", "threads");
    let grid: Vec<usize> = cfg.threads.clone();
    macro_rules! series {
        ($t:ty) => {
            fig.push(deletion_series::<$t>(cfg, &grid));
        };
    }
    series!(UaGrow);
    series!(UsGrow);
    series!(PaGrow);
    series!(PsGrow);
    fig
}

/// A table `M` of `capacity` cells holding `keys`, and the bytes it took
/// to build it: the delta of the global allocator's tracked bytes (when
/// [`growt_alloc_track::TrackingAlloc`] is the global allocator) plus that
/// of [`growt_core::mem::mapped_bytes`], the cell arrays of 2 MB or more,
/// which are anonymous mappings the allocator never sees.  Fig. 10's
/// memory column.
pub fn fig10_footprint<M: ConcurrentMap>(capacity: usize, keys: &[u64]) -> (M, usize) {
    growt_alloc_track::reset_counters();
    let tracked = growt_alloc_track::current_bytes();
    let mapped = growt_core::mem::mapped_bytes();
    let table = M::with_capacity(capacity);
    prefill_for::<M>(&table, keys);
    let bytes = growt_alloc_track::current_bytes().saturating_sub(tracked) as usize
        + growt_core::mem::mapped_bytes().saturating_sub(mapped);
    (table, bytes)
}

/// Fig. 10: memory consumption vs. unsuccessful-find throughput for
/// different initial capacities.  Returns rows of
/// `(table, init-capacity-factor, bytes, MOps/s)`, the bytes as
/// [`fig10_footprint`] counts them.
pub fn fig10(cfg: &HarnessConfig) -> String {
    let mut out =
        String::from("# fig10-memory-vs-throughput\ntable\tinit-factor\tapprox-bytes\tmops\n");
    let factors: &[(f64, &str)] = &[
        (0.0, "4096"),
        (0.5, "0.5x"),
        (1.0, "1.0x"),
        (1.5, "1.5x"),
        (2.0, "2.0x"),
        (3.0, "3.0x"),
    ];
    let keys = uniform_distinct_keys(cfg.ops, 777);
    let misses = uniform_keys(cfg.ops, 778);

    fn run_one<M: ConcurrentMap>(
        out: &mut String,
        cfg: &HarnessConfig,
        keys: &[u64],
        misses: &[u64],
        factor: f64,
        label: &str,
    ) {
        let capacity = if factor == 0.0 {
            GROWING_INITIAL
        } else {
            (cfg.ops as f64 * factor) as usize
        };
        let (table, bytes) = fig10_footprint::<M>(capacity, keys);
        let m = find_driver(
            &table,
            misses,
            effective_threads::<M>(cfg.contention_threads),
        );
        out.push_str(&format!(
            "{}\t{}\t{}\t{:.3}\n",
            M::table_name(),
            label,
            bytes,
            m.mops()
        ));
    }

    macro_rules! series {
        ($t:ty) => {
            for &(factor, label) in factors {
                // Non-growing tables cannot start below the element count.
                run_one::<$t>(
                    &mut out,
                    cfg,
                    &keys,
                    &misses,
                    factor.max(
                        if <$t as ConcurrentMap>::capabilities().growing
                            == growt_iface::GrowthSupport::None
                        {
                            1.0
                        } else {
                            factor
                        },
                    ),
                    label,
                );
            }
        };
    }
    series!(UaGrow);
    series!(UsGrow);
    series!(Folklore);
    series!(FollyStyle);
    series!(Cuckoo);
    series!(TbbHashMap);
    series!(RcuTable);
    series!(JunctionLinear);
    series!(LeaHash);
    series!(Hopscotch);
    out
}

/// Fig. 11a/11b: the 4-socket experiment — the same insert-growing and
/// unsuccessful-find workloads run over a wider (oversubscribed) thread
/// grid.
pub fn fig11(cfg: &HarnessConfig, finds: bool) -> Figure {
    let mut wide = cfg.clone();
    if !cfg.threads_overridden {
        wide.threads = vec![1, 2, 4, 8, 16, 32, 64];
    }
    if finds {
        let mut fig = fig3(&wide, false);
        fig.id = "fig11b-find-unsuccessful-wide".into();
        fig
    } else {
        let mut fig = fig2b(&wide);
        fig.id = "fig11a-insert-growing-wide".into();
        fig
    }
}

/// Ablation: migration block size (DESIGN.md §6).
pub fn ablation_block(cfg: &HarnessConfig) -> Figure {
    use growt_core::{GrowConfig, GrowingOptions, GrowingTable};
    let mut fig = Figure::new("ablation-migration-block-size", "block-size");
    let mut series = Series::new("uaGrow insert-growing");
    for &block in &[256usize, 1024, 4096, 16384] {
        let keys = uniform_distinct_keys(cfg.ops, 31);
        let options = GrowingOptions {
            grow: GrowConfig {
                migration_block: block,
                ..GrowConfig::default()
            },
            threads_hint: cfg.contention_threads,
            ..GrowingOptions::default()
        };
        let table = GrowingTable::with_options(GROWING_INITIAL, options);
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for t in 0..cfg.contention_threads {
                let table = &table;
                let keys = &keys;
                scope.spawn(move || {
                    let mut handle = table.handle();
                    for key in keys.iter().skip(t).step_by(cfg.contention_threads) {
                        handle.insert(*key, *key);
                    }
                });
            }
        });
        let mops = cfg.ops as f64 / start.elapsed().as_secs_f64() / 1e6;
        series.push(block as f64, mops);
    }
    fig.push(series);
    fig
}

/// Batch sizes K swept by [`ablation_batch_points`].  K = 1 is measured with the
/// plain per-op drivers, so it is the true single-op baseline rather than
/// a batch call of length one.
pub const BATCH_SIZES: [usize; 5] = [1, 8, 16, 32, 64];

/// One measured point of the batched-hot-path sweep (`ablation_batch`).
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Table implementation name (e.g. "folklore").
    pub table: &'static str,
    /// Operation: "insert" or "find".
    pub op: &'static str,
    /// Number of driver threads.
    pub threads: usize,
    /// Batch size K (1 = per-op loop baseline).
    pub batch: usize,
    /// Mean throughput over the repetitions, in MOps/s.
    pub mops: f64,
}

/// Shared insert/find sweep skeleton of `ablation_batch` and `scaling`:
/// for every (threads, K) combination measure insertions into a fresh
/// pre-sized table and finds on one shared prefilled table (the find
/// sweep is read-only, so one table serves every combination); K = 1 runs
/// the true per-op drivers, K > 1 the batch drivers.  Each measurement is
/// reported through `record(op, threads, batch, mean_mops)`.
fn insert_find_sweep<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    batch_sizes: &[usize],
    mut record: impl FnMut(&'static str, usize, usize, f64),
) {
    let keys = uniform_distinct_keys(cfg.ops, 1000);
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let find_table = M::with_capacity(cfg.ops);
    prefill_for::<M>(&find_table, &keys);
    for &p in &cfg.threads {
        let p_eff = effective_threads::<M>(p);
        for &k in batch_sizes {
            let mut reps = Repetitions::new();
            for _ in 0..cfg.reps {
                let table = M::with_capacity(cfg.ops);
                reps.push(if k == 1 {
                    insert_driver(&table, &keys, p_eff)
                } else {
                    insert_batch_driver(&table, &pairs, p_eff, k)
                });
            }
            record("insert", p, k, reps.mean_mops());

            let mut reps = Repetitions::new();
            for _ in 0..cfg.reps {
                reps.push(if k == 1 {
                    find_driver(&find_table, &keys, p_eff)
                } else {
                    find_batch_driver(&find_table, &keys, p_eff, k)
                });
            }
            record("find", p, k, reps.mean_mops());
        }
    }
}

fn batch_points_for<M: ConcurrentMap>(cfg: &HarnessConfig, points: &mut Vec<BatchPoint>) {
    insert_find_sweep::<M>(cfg, &BATCH_SIZES, |op, threads, batch, mops| {
        points.push(BatchPoint {
            table: M::table_name(),
            op,
            threads,
            batch,
            mops,
        });
    });
}

/// Ablation: batched hot paths (hash → prefetch → probe, DESIGN.md).
///
/// Sweeps the batch size K over [`BATCH_SIZES`] for insertions into and
/// finds on a pre-initialized table, for the folklore table and the
/// default growing variant — each on both probe strategies (scalar linear
/// probe and the striped SIMD fingerprint probe) — across the configured
/// thread grid.
pub fn ablation_batch_points(cfg: &HarnessConfig) -> Vec<BatchPoint> {
    let mut points = Vec::new();
    batch_points_for::<Folklore>(cfg, &mut points);
    batch_points_for::<FolkloreSimd>(cfg, &mut points);
    batch_points_for::<UaGrow>(cfg, &mut points);
    batch_points_for::<UaGrowSimd>(cfg, &mut points);
    points
}

/// Append `(x, y)` to the series labeled `label`, creating the series on
/// first use — the shared skeleton of every point-list → [`Figure`]
/// builder (`batch`, `scaling`, `probe`, `wordcount`, `latency`).
fn push_series_point(fig: &mut Figure, label: String, x: f64, y: f64) {
    match fig.series.iter_mut().find(|s| s.label == label) {
        Some(series) => series.push(x, y),
        None => {
            let mut series = Series::new(label);
            series.push(x, y);
            fig.push(series);
        }
    }
}

/// Render the batch sweep as a [`Figure`] (x axis = K, one series per
/// table × operation × thread count).
pub fn batch_points_figure(points: &[BatchPoint]) -> Figure {
    let mut fig = Figure::new("ablation-batch-hot-paths", "batch-K");
    for point in points {
        let label = format!("{} {} p={}", point.table, point.op, point.threads);
        push_series_point(&mut fig, label, point.batch as f64, point.mops);
    }
    fig
}

// ---------------------------------------------------------------------------
// Thread-scaling figure (`scaling`): per-op vs. batched hot paths after the
// zero-shared-traffic handle prologue, on both hash paths.
// ---------------------------------------------------------------------------

/// Batch size used by the batched series of the `scaling` figure (the
/// pipeline width, the sweet spot of the `ablation_batch` sweep).
pub const SCALING_BATCH: usize = 16;

/// One measured point of the thread-scaling sweep (`scaling`).
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Base table name ("folklore", "folklore-simd", "uaGrow" or
    /// "uaGrow-simd"); the hash path is recorded separately in `hash`.
    pub table: &'static str,
    /// Operation: "insert" or "find".
    pub op: &'static str,
    /// Hash path: "mix" (the one-multiply fold, `config::hash_key`) or "crc"
    /// (two-seed CRC32-C, hardware `crc32q` where available).
    pub hash: &'static str,
    /// Number of driver threads.
    pub threads: usize,
    /// Batch size K (1 = per-op loop, [`SCALING_BATCH`] = pipelined).
    pub batch: usize,
    /// Mean throughput over the repetitions, in MOps/s.
    pub mops: f64,
}

fn scaling_points_for<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    table: &'static str,
    hash: &'static str,
    points: &mut Vec<ScalingPoint>,
) {
    insert_find_sweep::<M>(cfg, &[1, SCALING_BATCH], |op, threads, batch, mops| {
        points.push(ScalingPoint {
            table,
            op,
            hash,
            threads,
            batch,
            mops,
        });
    });
}

/// The thread-scaling sweep: insertions into and finds on a pre-sized
/// table for the folklore table and the default growing variant, per-op
/// (K = 1) and pipelined (K = [`SCALING_BATCH`]), on both hash paths
/// (the one-multiply fold and the paper's CRC32-C pair) and on the striped
/// SIMD fingerprint probe (`*-simd`, fold hashing), across the
/// configured thread grid.  This is the trajectory record for the
/// zero-shared-traffic handle prologue and the striped probe: per-op
/// throughput must move with the thread count.
pub fn scaling_points(cfg: &HarnessConfig) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    scaling_points_for::<Folklore>(cfg, "folklore", "mix", &mut points);
    scaling_points_for::<FolkloreCrc>(cfg, "folklore", "crc", &mut points);
    scaling_points_for::<FolkloreSimd>(cfg, "folklore-simd", "mix", &mut points);
    scaling_points_for::<UaGrow>(cfg, "uaGrow", "mix", &mut points);
    scaling_points_for::<UaGrowCrc>(cfg, "uaGrow", "crc", &mut points);
    scaling_points_for::<UaGrowSimd>(cfg, "uaGrow-simd", "mix", &mut points);
    points
}

/// Render the scaling sweep as a [`Figure`] (x axis = threads, one series
/// per table × operation × hash × batch size).
pub fn scaling_figure(points: &[ScalingPoint]) -> Figure {
    let mut fig = Figure::new("scaling-hot-paths", "threads");
    for point in points {
        let label = format!(
            "{} {} {} K={}",
            point.table, point.op, point.hash, point.batch
        );
        push_series_point(&mut fig, label, point.threads as f64, point.mops);
    }
    fig
}

// ---------------------------------------------------------------------------
// Probe-regime figure (`ablation_probe`): scalar vs. striped SIMD probing
// across load factors, on find-hit and find-miss key streams.
// ---------------------------------------------------------------------------

/// Load factors α swept by [`ablation_probe_points`].
pub const PROBE_LOADS: [f64; 3] = [0.5, 0.75, 0.9];

/// Cell count of the bounded tables of the `ablation_probe` sweep.  Fixed
/// (rather than derived from `--ops`) so the swept load factors are exact;
/// large enough that the cell array does not fit in L2, small enough that
/// the α = 0.9 prefill stays cheap.
pub const PROBE_CAPACITY: usize = 1 << 18;

/// One measured point of the probe-regime sweep (`ablation_probe`).
#[derive(Debug, Clone)]
pub struct ProbePoint {
    /// Table implementation name ("folklore" or "folklore-simd").
    pub table: &'static str,
    /// Operation: "find_hit" (every looked-up key is resident) or
    /// "find_miss" (none is).
    pub op: &'static str,
    /// Load factor α of the probed table (live cells / capacity).
    pub load: f64,
    /// Number of driver threads.
    pub threads: usize,
    /// Mean throughput over the repetitions, in MOps/s.
    pub mops: f64,
}

fn probe_points_for<M: ConcurrentMap>(cfg: &HarnessConfig, points: &mut Vec<ProbePoint>) {
    for &load in &PROBE_LOADS {
        let live = (load * PROBE_CAPACITY as f64) as usize;
        let keys = uniform_distinct_keys(live, 1000);
        // `with_capacity(n)` sizes for n expected elements (2n cells
        // rounded up to a power of two), so half the target cell count
        // yields exactly [`PROBE_CAPACITY`] cells.
        let table = M::with_capacity(PROBE_CAPACITY / 2);
        prefill_for::<M>(&table, &keys);
        // Both lookup streams are cfg.ops long: hits cycle the resident
        // keys, misses draw fresh uniform keys (a collision with the
        // resident set in a 2^64 key space is negligible).
        let hits: Vec<u64> = keys.iter().copied().cycle().take(cfg.ops).collect();
        let misses = uniform_keys(cfg.ops, 999_999);
        for &p in &cfg.threads {
            let p_eff = effective_threads::<M>(p);
            for (op, stream) in [("find_hit", &hits), ("find_miss", &misses)] {
                let mut reps = Repetitions::new();
                for _ in 0..cfg.reps {
                    reps.push(find_driver(&table, stream, p_eff));
                }
                points.push(ProbePoint {
                    table: M::table_name(),
                    op,
                    load,
                    threads: p,
                    mops: reps.mean_mops(),
                });
            }
        }
    }
}

/// The probe-regime sweep: finds on a fixed-capacity folklore table at
/// the [`PROBE_LOADS`] load factors, with all-resident (`find_hit`) and
/// all-absent (`find_miss`) key streams, scalar vs. striped SIMD probe,
/// across the configured thread grid.  This isolates the regime the
/// signature stripe is built for — long probe runs, where one 16-byte
/// fingerprint comparison replaces up to sixteen cell-line touches —
/// which the half-full all-resident `scaling` sweep never enters.
pub fn ablation_probe_points(cfg: &HarnessConfig) -> Vec<ProbePoint> {
    let mut points = Vec::new();
    probe_points_for::<Folklore>(cfg, &mut points);
    probe_points_for::<FolkloreSimd>(cfg, &mut points);
    points
}

/// Render the probe sweep as a [`Figure`] (x axis = threads, one series
/// per table × operation × load factor).
pub fn probe_points_figure(points: &[ProbePoint]) -> Figure {
    let mut fig = Figure::new("ablation-probe-regimes", "threads");
    for point in points {
        let label = format!("{} {} load={}", point.table, point.op, point.load);
        push_series_point(&mut fig, label, point.threads as f64, point.mops);
    }
    fig
}

// ---------------------------------------------------------------------------
// Word-count figure (`wordcount`): string-key aggregation throughput on the
// §5.7 complex keys, growing and bounded.
// ---------------------------------------------------------------------------

/// One measured point of the word-count sweep (`wordcount`).
#[derive(Debug, Clone)]
pub struct WordCountPoint {
    /// Table implementation name ("stringGrow" or "stringFolklore").
    pub table: &'static str,
    /// Number of driver threads.
    pub threads: usize,
    /// Vocabulary size (distinct words).
    pub vocab: usize,
    /// Zipf exponent of the word stream.
    pub zipf: f64,
    /// Mean aggregation throughput over the repetitions, in MOps/s.
    pub mops: f64,
}

fn wordcount_points_for<M: GenericMap<String, u64>>(
    cfg: &HarnessConfig,
    table: &'static str,
    capacity: usize,
    points: &mut Vec<WordCountPoint>,
) {
    let vocab = cfg.wordcount_vocab.max(1);
    for &p in &cfg.threads {
        let mut reps = Repetitions::new();
        for rep in 0..cfg.reps {
            let corpus = word_corpus(cfg.ops, vocab, cfg.wordcount_zipf, 9_000 + rep as u64);
            let map = M::with_capacity(capacity);
            reps.push(generic_wordcount_driver(&map, &corpus, p));
        }
        points.push(WordCountPoint {
            table,
            threads: p,
            vocab,
            zipf: cfg.wordcount_zipf,
            mops: reps.mean_mops(),
        });
    }
}

/// The word-count sweep: `insert_or_update(word, 1, +1)` over a
/// Zipf-distributed word stream (the aggregation use case of the paper's
/// introduction, on string keys via §5.7), across the configured thread
/// grid, for `stringGrow` — `GrowMap<String, u64>`, started at the
/// standard tiny initial capacity so the run crosses several migrations —
/// and `stringFolklore`, the bounded [`StringKeyTable`] pre-sized to the
/// vocabulary.
pub fn wordcount_points(cfg: &HarnessConfig) -> Vec<WordCountPoint> {
    let mut points = Vec::new();
    wordcount_points_for::<GrowMap<String, u64>>(cfg, "stringGrow", GROWING_INITIAL, &mut points);
    wordcount_points_for::<StringKeyTable>(
        cfg,
        "stringFolklore",
        cfg.wordcount_vocab.max(1),
        &mut points,
    );
    points
}

/// Render the word-count sweep as a [`Figure`] (x axis = threads, one
/// series per table).
pub fn wordcount_figure(points: &[WordCountPoint]) -> Figure {
    let mut fig = Figure::new("wordcount-string-aggregation", "threads");
    for point in points {
        let label = point.table.to_string();
        push_series_point(&mut fig, label, point.threads as f64, point.mops);
    }
    fig
}

/// Serialize a word-count sweep as one figure block for
/// [`merge_hotpath_json`] (key `wordcount`).
pub fn wordcount_points_block(cfg: &HarnessConfig, points: &[WordCountPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"table\": \"{}\", \"threads\": {}, \"vocab\": {}, \"zipf\": {}, \"mops\": {:.3}}}",
                p.table, p.threads, p.vocab, p.zipf, p.mops
            )
        })
        .collect();
    figure_block_json("wordcount", cfg, &rows)
}

// ---------------------------------------------------------------------------
// Typed-facade figure (`typed`): the generic GrowMap<K, V> against the
// specialized tables it claims to subsume.
// ---------------------------------------------------------------------------

/// One measured point of the typed-facade sweep (`typed`).
#[derive(Debug, Clone)]
pub struct TypedPoint {
    /// Table implementation name ("uaGrow" or "growMap").
    pub table: &'static str,
    /// Workload name ("aggregate-u64").
    pub workload: &'static str,
    /// Number of driver threads.
    pub threads: usize,
    /// Mean aggregation throughput over the repetitions, in MOps/s.
    pub mops: f64,
}

/// The typed-facade sweep: the same Zipf aggregation workload driven
/// through the word table's interface and through `GrowMap`'s generic
/// one, across the configured thread grid, both tables started at the
/// standard tiny growing capacity so every run crosses migrations.
///
/// `aggregate-u64` — `insert_or_increment` on [`UaGrow`] versus
/// `insert_or_update(+1)` on `GrowMap<u64, u64>`.  The inline/inline
/// instantiation compiles to the same cell operations as the word table,
/// so the two curves should coincide (within noise) — the "abstraction
/// costs nothing" claim of DESIGN.md §14, measured.  (String keys have
/// one growing table, `GrowMap<String, u64>`, measured by `wordcount`.)
pub fn typed_points(cfg: &HarnessConfig) -> Vec<TypedPoint> {
    let mut points = Vec::new();
    let universe = (cfg.ops / 10).max(64) as u64;
    for &p in &cfg.threads {
        let mut ua = Repetitions::new();
        let mut generic = Repetitions::new();
        for rep in 0..cfg.reps {
            let keys = zipf_keys(cfg.ops, universe, cfg.wordcount_zipf, 11_000 + rep as u64);
            let table = UaGrow::with_capacity(GROWING_INITIAL);
            ua.push(aggregate_driver(&table, &keys, p));
            let map: GrowMap<u64, u64> = GrowMap::with_capacity(GROWING_INITIAL);
            generic.push(generic_aggregate_driver(&map, &keys, p));
        }
        points.push(TypedPoint {
            table: "uaGrow",
            workload: "aggregate-u64",
            threads: p,
            mops: ua.mean_mops(),
        });
        points.push(TypedPoint {
            table: "growMap",
            workload: "aggregate-u64",
            threads: p,
            mops: generic.mean_mops(),
        });
    }
    points
}

/// Render the typed-facade sweep as a [`Figure`] (x axis = threads, one
/// series per workload/table pair).
pub fn typed_figure(points: &[TypedPoint]) -> Figure {
    let mut fig = Figure::new("typed-generic-map", "threads");
    for point in points {
        let label = format!("{}/{}", point.workload, point.table);
        push_series_point(&mut fig, label, point.threads as f64, point.mops);
    }
    fig
}

/// Serialize a typed-facade sweep as one figure block for
/// [`merge_hotpath_json`] (key `typed`).
pub fn typed_points_block(cfg: &HarnessConfig, points: &[TypedPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"table\": \"{}\", \"workload\": \"{}\", \"threads\": {}, \"mops\": {:.3}}}",
                p.table, p.workload, p.threads, p.mops
            )
        })
        .collect();
    figure_block_json("typed", cfg, &rows)
}

// ---------------------------------------------------------------------------
// Tail-latency figure (`latency`): per-op latency percentiles of a mixed
// Zipf workload that crosses several migrations, across help budgets.
// ---------------------------------------------------------------------------

/// Initial capacity of the growing tables in the `latency` figure: small
/// enough that the default `--ops` crosses many migrations (the workload
/// inserts ~25% of `ops` fresh keys from ~2k cells), so the recorded tail
/// contains the grow pause this figure exists to expose.
pub const LATENCY_INITIAL: usize = 1024;
/// Resident keys inserted before the timed region of the `latency` figure.
pub const LATENCY_PREFILL: usize = 512;
/// Insert share of the mixed `latency` workload, in percent.
pub const LATENCY_INSERT_PERCENT: u32 = 25;
/// Update share of the mixed `latency` workload, in percent (the rest
/// are finds).
pub const LATENCY_UPDATE_PERCENT: u32 = 25;
/// Zipf exponent of the find/update key choice in the `latency` figure
/// (mild skew: contended hot keys without degenerating to one key).
pub const LATENCY_ZIPF_S: f64 = 1.05;

/// One measured point of the tail-latency sweep (`latency`).
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Table implementation name ("folklore", "uaGrow", "uaGrow-k1", …).
    pub table: &'static str,
    /// Operation class: "insert", "find" or "update".
    pub op: &'static str,
    /// Number of driver threads.
    pub threads: usize,
    /// Mean throughput of the whole mixed workload (all op classes), in
    /// MOps/s — repeated on each op row of the same configuration.
    pub mops: f64,
    /// Median op latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile op latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile op latency in nanoseconds.
    pub p999_ns: u64,
    /// Worst observed op latency in nanoseconds.
    pub max_ns: u64,
    /// Completed migrations per repetition (0 for the pre-sized folklore
    /// control — the figure is meaningless if this is < 4 for the growing
    /// tables).
    pub migrations: u64,
}

fn latency_points_for<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    capacity: impl Fn(&ZipfMixedWorkload) -> usize,
    migrations: impl Fn(&M) -> u64,
    points: &mut Vec<LatencyPoint>,
) {
    for &p in &cfg.threads {
        let p_eff = effective_threads::<M>(p);
        let mut reps = Repetitions::new();
        let mut merged = vec![LatencyHistogram::new(); 3];
        let mut migrated = 0u64;
        for rep in 0..cfg.reps {
            let workload = zipf_mixed_workload(
                cfg.ops,
                LATENCY_INSERT_PERCENT,
                LATENCY_UPDATE_PERCENT,
                LATENCY_PREFILL,
                LATENCY_ZIPF_S,
                7_000 + rep as u64,
            );
            let table = M::with_capacity(capacity(&workload));
            prefill_for::<M>(&table, &workload.prefill);
            let result = zipf_mixed_latency_driver(&table, &workload, p_eff);
            reps.push(result.measurement);
            for (acc, thread) in merged.iter_mut().zip(result.histograms.iter()) {
                acc.merge(thread);
            }
            migrated += migrations(&table);
        }
        let mops = reps.mean_mops();
        let migrations = migrated / cfg.reps.max(1) as u64;
        for (class, op) in [
            (LAT_CLASS_INSERT, "insert"),
            (LAT_CLASS_FIND, "find"),
            (LAT_CLASS_UPDATE, "update"),
        ] {
            let hist = &merged[class];
            points.push(LatencyPoint {
                table: M::table_name(),
                op,
                threads: p,
                mops,
                p50_ns: hist.value_at_percentile(50.0),
                p99_ns: hist.value_at_percentile(99.0),
                p999_ns: hist.value_at_percentile(99.9),
                max_ns: hist.max(),
                migrations,
            });
        }
    }
}

/// The tail-latency sweep: a mixed Zipf insert/find/update workload
/// (25/50/25) started from a tiny table so it crosses several migrations,
/// with every op bracketed by calibrated clock reads into per-thread
/// histograms.  Compares help-until-done (`uaGrow`) against bounded help
/// with k ∈ {1, 4, 16} (`uaGrow-k*`), the migration thread pool
/// (`paGrow` — the first recorded numbers for [`growt_core::PaGrow`]) and
/// the pre-sized folklore table as the no-migration control.  This is the
/// trajectory record for the grow pause: the growing tables' p999 must
/// move toward the folklore control as the help budget shrinks.
pub fn latency_points(cfg: &HarnessConfig) -> Vec<LatencyPoint> {
    let mut points = Vec::new();
    latency_points_for::<Folklore>(
        cfg,
        |w| w.prefill.len() + w.insert_count(),
        |_| 0,
        &mut points,
    );
    latency_points_for::<UaGrow>(
        cfg,
        |_| LATENCY_INITIAL,
        |t| t.inner().migrations_completed(),
        &mut points,
    );
    latency_points_for::<UaGrowK1>(
        cfg,
        |_| LATENCY_INITIAL,
        |t| t.inner().migrations_completed(),
        &mut points,
    );
    latency_points_for::<UaGrowK4>(
        cfg,
        |_| LATENCY_INITIAL,
        |t| t.inner().migrations_completed(),
        &mut points,
    );
    latency_points_for::<UaGrowK16>(
        cfg,
        |_| LATENCY_INITIAL,
        |t| t.inner().migrations_completed(),
        &mut points,
    );
    latency_points_for::<PaGrow>(
        cfg,
        |_| LATENCY_INITIAL,
        |t| t.inner().migrations_completed(),
        &mut points,
    );
    points
}

/// Render the tail-latency sweep as a [`Figure`] (x axis = threads, one
/// series per table × operation × percentile, values in nanoseconds).
pub fn latency_figure(points: &[LatencyPoint]) -> Figure {
    let mut fig = Figure::new("latency-tail-ns", "threads");
    for point in points {
        for (pct, value) in [
            ("p50", point.p50_ns),
            ("p99", point.p99_ns),
            ("p999", point.p999_ns),
            ("max", point.max_ns),
        ] {
            let label = format!("{} {} {}", point.table, point.op, pct);
            push_series_point(&mut fig, label, point.threads as f64, value as f64);
        }
    }
    fig
}

// ---------------------------------------------------------------------------
// BENCH_hotpath.json: the accumulated perf-trajectory record
// ---------------------------------------------------------------------------

/// Assemble one figure block of the `BENCH_hotpath.json` record from
/// pre-rendered result rows.
fn figure_block_json(figure: &str, cfg: &HarnessConfig, rows: &[String]) -> String {
    let mut out = String::from("    {\n");
    out.push_str(&format!("      \"figure\": \"{figure}\",\n"));
    out.push_str(&format!("      \"ops\": {},\n", cfg.ops));
    out.push_str(&format!("      \"reps\": {},\n", cfg.reps));
    out.push_str("      \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("        {row}{comma}\n"));
    }
    out.push_str("      ]\n    }");
    out
}

/// Serialize a batch sweep as one figure block for
/// [`merge_hotpath_json`] (key `ablation_batch`).
pub fn batch_points_block(cfg: &HarnessConfig, points: &[BatchPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"table\": \"{}\", \"op\": \"{}\", \"threads\": {}, \"batch\": {}, \"mops\": {:.3}}}",
                p.table, p.op, p.threads, p.batch, p.mops
            )
        })
        .collect();
    figure_block_json("ablation_batch", cfg, &rows)
}

/// Serialize a probe-regime sweep as one figure block for
/// [`merge_hotpath_json`] (key `ablation_probe`).
pub fn probe_points_block(cfg: &HarnessConfig, points: &[ProbePoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"table\": \"{}\", \"op\": \"{}\", \"load\": {}, \"threads\": {}, \"mops\": {:.3}}}",
                p.table, p.op, p.load, p.threads, p.mops
            )
        })
        .collect();
    figure_block_json("ablation_probe", cfg, &rows)
}

/// Serialize a tail-latency sweep as one figure block for
/// [`merge_hotpath_json`] (key `latency`).
pub fn latency_points_block(cfg: &HarnessConfig, points: &[LatencyPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"table\": \"{}\", \"op\": \"{}\", \"threads\": {}, \"mops\": {:.3}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}, \"migrations\": {}}}",
                p.table, p.op, p.threads, p.mops, p.p50_ns, p.p99_ns, p.p999_ns, p.max_ns, p.migrations
            )
        })
        .collect();
    figure_block_json("latency", cfg, &rows)
}

/// Serialize a scaling sweep as one figure block for
/// [`merge_hotpath_json`] (key `scaling`).
pub fn scaling_points_block(cfg: &HarnessConfig, points: &[ScalingPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"table\": \"{}\", \"op\": \"{}\", \"hash\": \"{}\", \"threads\": {}, \"batch\": {}, \"mops\": {:.3}}}",
                p.table, p.op, p.hash, p.threads, p.batch, p.mops
            )
        })
        .collect();
    figure_block_json("scaling", cfg, &rows)
}

/// Find the index of the bracket matching `s[open]` (which must be `{` or
/// `[`), skipping over string literals.  Returns `None` on malformed input.
fn matching_bracket(s: &str, open: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let (open_ch, close_ch) = match bytes[open] {
        b'{' => (b'{', b'}'),
        b'[' => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            _ if b == open_ch => depth += 1,
            _ if b == close_ch => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extract the string value of `"key": "value"` after `from` (best-effort
/// scan over the JSON formats this harness itself emits).
fn json_string_value(s: &str, key: &str, from: usize) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = s[from..].find(&pat)? + from + pat.len();
    let rest = &s[at..];
    let q1 = rest.find('"')?;
    let q2 = rest[q1 + 1..].find('"')? + q1 + 1;
    Some(rest[q1 + 1..q2].to_string())
}

/// Split a `BENCH_hotpath.json` document into `(figure_key, block_text)`
/// pairs.  Understands both the current container format (`"figures": [...]`)
/// — which may legitimately hold zero blocks — and the legacy single-figure
/// v1 format (top-level `"figure"` key), which is converted into one
/// equivalent block.  Returns `None` when the document matches neither
/// format (the caller must then refuse to overwrite it).
fn extract_figure_blocks(existing: &str) -> Option<Vec<(String, String)>> {
    if let Some(arr_key) = existing.find("\"figures\":") {
        let open = existing[arr_key..].find('[').map(|i| i + arr_key)?;
        let close = matching_bracket(existing, open)?;
        let mut blocks = Vec::new();
        let mut at = open + 1;
        while at < close {
            let Some(obj_open) = existing[at..close].find('{').map(|i| i + at) else {
                break; // no further object: a (possibly empty) valid array
            };
            let obj_close = matching_bracket(existing, obj_open)?;
            let block = existing[obj_open..=obj_close].to_string();
            let key = json_string_value(&block, "figure", 0).unwrap_or_default();
            blocks.push((key, format!("    {}", block.trim_start())));
            at = obj_close + 1;
        }
        Some(blocks)
    } else if let Some(key) = json_string_value(existing, "figure", 0) {
        // Legacy v1: one flat record.  Rebuild an equivalent block from its
        // fields (schema/unit move to the container).
        let ops = json_number_value(existing, "ops").unwrap_or_default();
        let reps = json_number_value(existing, "reps").unwrap_or_default();
        let results = existing
            .find("\"results\":")
            .and_then(|k| existing[k..].find('[').map(|i| i + k))
            .and_then(|open| matching_bracket(existing, open).map(|close| (open, close)))
            .map(|(open, close)| existing[open..=close].to_string())
            .unwrap_or_else(|| "[]".to_string());
        let block = format!(
            "    {{\n      \"figure\": \"{key}\",\n      \"ops\": {ops},\n      \"reps\": {reps},\n      \"results\": {results}\n    }}",
        );
        Some(vec![(key, block)])
    } else {
        None
    }
}

/// Extract the raw text of `"key": <number>`.
fn json_number_value(s: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = s.find(&pat)? + pat.len();
    let rest = s[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    (end > 0).then(|| rest[..end].to_string())
}

/// Merge one figure `block` (from [`batch_points_block`] or
/// [`scaling_points_block`]) into an existing `BENCH_hotpath.json`
/// document, **replacing** the block with the same figure key and keeping
/// every other figure — the perf trajectory accumulates one entry per
/// figure across PRs instead of being overwritten.
///
/// Output schema (`growt-bench/hotpath-v2`):
///
/// ```json
/// {
///   "schema": "growt-bench/hotpath-v2",
///   "unit": "mops",
///   "figures": [
///     {"figure": "ablation_batch", "ops": 1000000, "reps": 1, "results": [...]},
///     {"figure": "scaling", "ops": 1000000, "reps": 1, "results": [...]}
///   ]
/// }
/// ```
///
/// A legacy v1 document (single flat figure) is upgraded in place: its
/// record becomes the first entry of the `figures` array, so no measured
/// point is ever dropped by a later run.
///
/// # Panics
///
/// If `existing` holds non-empty content in neither the v2 container nor
/// the legacy v1 format (truncated or hand-mangled JSON), the function
/// refuses to proceed rather than silently rewriting the file with only
/// the new figure — overwriting would destroy the recorded perf
/// trajectory the merge contract promises to preserve.  A well-formed
/// container with an *empty* `figures` array is fine.
pub fn merge_hotpath_json(existing: Option<&str>, figure: &str, block: &str) -> String {
    let existing = existing.filter(|text| !text.trim().is_empty());
    let mut blocks = match existing {
        Some(text) => extract_figure_blocks(text).expect(
            "existing BENCH_hotpath.json content could not be parsed; refusing to \
             overwrite the recorded perf trajectory (fix or remove the file first)",
        ),
        None => Vec::new(),
    };
    match blocks.iter_mut().find(|(key, _)| key == figure) {
        Some((_, existing_block)) => *existing_block = block.to_string(),
        None => blocks.push((figure.to_string(), block.to_string())),
    }
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"growt-bench/hotpath-v2\",\n");
    out.push_str("  \"unit\": \"mops\",\n");
    out.push_str("  \"figures\": [\n");
    for (i, (_, b)) in blocks.iter().enumerate() {
        let comma = if i + 1 == blocks.len() { "" } else { "," };
        out.push_str(b);
        out.push_str(comma);
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Table 1: the functionality overview of every implementation.
pub fn table1() -> String {
    let mut rows: Vec<Capabilities> = vec![
        UaGrow::capabilities(),
        UsGrow::capabilities(),
        PaGrow::capabilities(),
        PsGrow::capabilities(),
        JunctionLinear::capabilities(),
        JunctionLeapfrog::capabilities(),
        TbbHashMap::capabilities(),
        TbbUnorderedMap::capabilities(),
        FollyStyle::capabilities(),
        Cuckoo::capabilities(),
        RcuTable::capabilities(),
        RcuQsbrTable::capabilities(),
        Folklore::capabilities(),
        PhaseConcurrent::capabilities(),
        Hopscotch::capabilities(),
        LeaHash::capabilities(),
        SeqTable::capabilities(),
        SeqGrowingTable::capabilities(),
    ];
    let mut out = String::from(
        "# table1-functionality-overview\nname\tinterface\tgrowing\tatomic-updates\tdeletion\tarbitrary-types\tnote\n",
    );
    for caps in rows.drain(..) {
        let row = capability_row(&caps);
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            row[0], row[1], row[2], row[3], row[4], row[5], row[6]
        ));
    }
    out
}

/// A fast smoke run of every figure with tiny sizes (used by tests).
pub fn smoke_config() -> HarnessConfig {
    HarnessConfig {
        ops: 20_000,
        threads: vec![1, 2],
        threads_overridden: false,
        reps: 1,
        zipf_s: vec![0.5, 1.0],
        write_percents: vec![20, 60],
        contention_threads: 2,
        wordcount_vocab: 500,
        wordcount_zipf: 1.0,
        json: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_tables() {
        let t = table1();
        for name in [
            "uaGrow",
            "usGrow",
            "paGrow",
            "psGrow",
            "folklore",
            "cuckoo",
            "folly",
            "rcu-urcu",
            "rcu-qsbr",
            "hopscotch",
            "LeaHash",
            "phase-concurrent",
            "junction-linear",
            "junction-leapfrog",
            "tbb-hash-map",
            "tbb-unordered-map",
            "sequential",
            "sequential-growing",
        ] {
            assert!(t.contains(name), "missing {name} in table 1");
        }
    }

    #[test]
    fn smoke_fig2a_and_fig2b() {
        let cfg = smoke_config();
        let a = fig2a(&cfg);
        assert!(a.series.len() >= 15);
        assert!(a.series.iter().all(|s| s.points.len() == cfg.threads.len()));
        assert!(a.to_tsv().contains("folklore"));
        let b = fig2b(&cfg);
        assert!(b.series.len() >= 10);
    }

    #[test]
    fn smoke_contention_and_aggregation() {
        let cfg = smoke_config();
        let f4a = fig4a(&cfg);
        assert!(f4a
            .series
            .iter()
            .all(|s| s.points.len() == cfg.zipf_s.len()));
        let f5b = fig5(&cfg, true);
        assert!(f5b
            .series
            .iter()
            .all(|s| s.points.iter().all(|&(_, y)| y >= 0.0)));
    }

    #[test]
    fn smoke_ablation_batch_and_json() {
        let mut cfg = smoke_config();
        cfg.ops = 10_000;
        let points = ablation_batch_points(&cfg);
        // 4 tables (scalar + simd probes) × 2 ops × |threads| ×
        // |BATCH_SIZES| points.
        assert_eq!(points.len(), 4 * 2 * cfg.threads.len() * BATCH_SIZES.len());
        assert!(points.iter().all(|p| p.mops > 0.0));
        assert!(points.iter().any(|p| p.table == "folklore-simd"));
        assert!(points.iter().any(|p| p.table == "uaGrow-simd"));
        let fig = batch_points_figure(&points);
        assert_eq!(fig.series.len(), 4 * 2 * cfg.threads.len());
        assert!(fig
            .series
            .iter()
            .all(|s| s.points.len() == BATCH_SIZES.len()));
        assert!(fig.to_tsv().contains("folklore find p=2"));
        let json = merge_hotpath_json(None, "ablation_batch", &batch_points_block(&cfg, &points));
        assert!(json.contains("\"schema\": \"growt-bench/hotpath-v2\""));
        assert!(json.contains("\"figure\": \"ablation_batch\""));
        assert!(json.contains("\"table\": \"uaGrow\""));
        // Crude structural validity: balanced braces/brackets, one result
        // object per point.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("{\"table\"").count(), points.len());
    }

    #[test]
    fn smoke_scaling_points_and_figure() {
        let mut cfg = smoke_config();
        cfg.ops = 10_000;
        let points = scaling_points(&cfg);
        // 6 table instantiations (2 tables × {mix, crc} hashing + the two
        // -simd probes) × 2 ops × |threads| × 2 batch sizes.
        assert_eq!(points.len(), 6 * 2 * cfg.threads.len() * 2);
        assert!(points.iter().all(|p| p.mops > 0.0));
        for hash in ["mix", "crc"] {
            for table in ["folklore", "uaGrow"] {
                assert!(
                    points.iter().any(|p| p.hash == hash && p.table == table),
                    "missing {table}/{hash} series"
                );
            }
        }
        // The striped-probe series hash with the default mixer only.
        for table in ["folklore-simd", "uaGrow-simd"] {
            assert!(
                points.iter().any(|p| p.table == table && p.hash == "mix"),
                "missing {table} series"
            );
            assert!(!points.iter().any(|p| p.table == table && p.hash == "crc"));
        }
        let fig = scaling_figure(&points);
        assert_eq!(fig.series.len(), 6 * 2 * 2);
        assert!(fig
            .series
            .iter()
            .all(|s| s.points.len() == cfg.threads.len()));
        assert!(fig.to_tsv().contains("folklore find crc K=16"));
        let json = merge_hotpath_json(None, "scaling", &scaling_points_block(&cfg, &points));
        assert!(json.contains("\"hash\": \"crc\""));
        assert_eq!(json.matches("{\"table\"").count(), points.len());
    }

    #[test]
    fn smoke_ablation_probe_points_and_json() {
        let mut cfg = smoke_config();
        cfg.ops = 10_000;
        let points = ablation_probe_points(&cfg);
        // 2 tables × |PROBE_LOADS| × |threads| × {find_hit, find_miss}.
        assert_eq!(points.len(), 2 * PROBE_LOADS.len() * cfg.threads.len() * 2);
        assert!(points.iter().all(|p| p.mops > 0.0));
        for table in ["folklore", "folklore-simd"] {
            for op in ["find_hit", "find_miss"] {
                assert!(
                    points.iter().any(|p| p.table == table && p.op == op),
                    "missing {table}/{op} series"
                );
            }
        }
        assert!(points.iter().any(|p| p.load == 0.9));
        let fig = probe_points_figure(&points);
        assert_eq!(fig.series.len(), 2 * PROBE_LOADS.len() * 2);
        assert!(fig
            .series
            .iter()
            .all(|s| s.points.len() == cfg.threads.len()));
        assert!(fig.to_tsv().contains("folklore-simd find_miss load=0.9"));
        let json = merge_hotpath_json(None, "ablation_probe", &probe_points_block(&cfg, &points));
        assert!(json.contains("\"figure\": \"ablation_probe\""));
        assert!(json.contains("\"op\": \"find_miss\""));
        assert!(json.contains("\"load\": 0.9"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("{\"table\"").count(), points.len());
    }

    #[test]
    fn smoke_wordcount_points_and_json() {
        let mut cfg = smoke_config();
        cfg.ops = 10_000;
        let points = wordcount_points(&cfg);
        // 2 tables × |threads| points.
        assert_eq!(points.len(), 2 * cfg.threads.len());
        assert!(points.iter().all(|p| p.mops > 0.0));
        assert!(points.iter().all(|p| p.vocab == cfg.wordcount_vocab));
        for table in ["stringGrow", "stringFolklore"] {
            assert!(
                points.iter().any(|p| p.table == table),
                "missing {table} series"
            );
        }
        let fig = wordcount_figure(&points);
        assert_eq!(fig.series.len(), 2);
        assert!(fig
            .series
            .iter()
            .all(|s| s.points.len() == cfg.threads.len()));
        assert!(fig.to_tsv().contains("stringGrow"));
        // Merging wordcount into a record that already holds the scaling
        // figure must keep both figure keys.
        let scaling = merge_hotpath_json(
            None,
            "scaling",
            &figure_block_json("scaling", &cfg, &["{\"table\": \"folklore\"}".to_string()]),
        );
        let merged = merge_hotpath_json(
            Some(&scaling),
            "wordcount",
            &wordcount_points_block(&cfg, &points),
        );
        assert!(merged.contains("\"figure\": \"scaling\""));
        assert!(merged.contains("\"figure\": \"wordcount\""));
        assert!(merged.contains("\"table\": \"stringFolklore\""));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    }

    #[test]
    fn smoke_typed_points_and_json() {
        let mut cfg = smoke_config();
        cfg.ops = 10_000;
        let points = typed_points(&cfg);
        // 1 workload × 2 tables × |threads| points.
        assert_eq!(points.len(), 2 * cfg.threads.len());
        assert!(points.iter().all(|p| p.mops > 0.0));
        for table in ["uaGrow", "growMap"] {
            assert!(
                points.iter().any(|p| p.table == table),
                "missing {table} series"
            );
        }
        let fig = typed_figure(&points);
        assert_eq!(fig.series.len(), 2);
        assert!(fig
            .series
            .iter()
            .all(|s| s.points.len() == cfg.threads.len()));
        assert!(fig.to_tsv().contains("aggregate-u64/growMap"));
        // Merging typed into a record that already holds every prior
        // figure key must preserve all of them.
        let prior = [
            "ablation_batch",
            "scaling",
            "wordcount",
            "ablation_probe",
            "latency",
        ];
        let mut merged = None::<String>;
        for figure in prior {
            merged = Some(merge_hotpath_json(
                merged.as_deref(),
                figure,
                &figure_block_json(figure, &cfg, &["{\"table\": \"x\"}".to_string()]),
            ));
        }
        let merged = merge_hotpath_json(
            merged.as_deref(),
            "typed",
            &typed_points_block(&cfg, &points),
        );
        for figure in prior {
            assert!(
                merged.contains(&format!("\"figure\": \"{figure}\"")),
                "merge dropped {figure}"
            );
        }
        assert!(merged.contains("\"figure\": \"typed\""));
        assert!(merged.contains("\"table\": \"growMap\""));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    }

    #[test]
    fn smoke_latency_points_and_json() {
        let mut cfg = smoke_config();
        cfg.ops = 10_000;
        let points = latency_points(&cfg);
        // 6 tables (folklore control, uaGrow, k1/k4/k16, paGrow) × 3 op
        // classes × |threads|.
        assert_eq!(points.len(), 6 * 3 * cfg.threads.len());
        assert!(points.iter().all(|p| p.mops > 0.0));
        for table in [
            "folklore",
            "uaGrow",
            "uaGrow-k1",
            "uaGrow-k4",
            "uaGrow-k16",
            "paGrow",
        ] {
            assert!(
                points.iter().any(|p| p.table == table),
                "missing {table} series"
            );
        }
        for p in &points {
            assert!(
                p.p50_ns <= p.p99_ns && p.p99_ns <= p.p999_ns && p.p999_ns <= p.max_ns,
                "{} {}: percentiles not monotonic",
                p.table,
                p.op
            );
            if p.table == "folklore" {
                assert_eq!(p.migrations, 0, "pre-sized control migrated");
            } else {
                assert!(p.migrations >= 1, "{}: never migrated", p.table);
            }
        }
        let fig = latency_figure(&points);
        assert_eq!(fig.series.len(), 6 * 3 * 4);
        assert!(fig.to_tsv().contains("uaGrow-k1 insert p999"));
        let json = merge_hotpath_json(None, "latency", &latency_points_block(&cfg, &points));
        assert!(json.contains("\"figure\": \"latency\""));
        assert!(json.contains("\"p999_ns\""));
        assert!(json.contains("\"migrations\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("{\"table\"").count(), points.len());
    }

    #[test]
    fn fig11_honors_thread_override() {
        let mut cfg = smoke_config();
        cfg.ops = 5_000;
        cfg.threads = vec![2];
        cfg.threads_overridden = true;
        let fig = fig11(&cfg, true);
        assert!(fig.series.iter().all(|s| s.points.len() == 1));
        assert!(fig.series.iter().all(|s| s.points[0].0 == 2.0));
    }

    #[test]
    fn hotpath_json_merges_by_figure_key() {
        let cfg = smoke_config();
        let batch = BatchPoint {
            table: "folklore",
            op: "find",
            threads: 2,
            batch: 16,
            mops: 12.5,
        };
        let scaling = ScalingPoint {
            table: "uaGrow",
            op: "insert",
            hash: "crc",
            threads: 4,
            batch: 1,
            mops: 9.25,
        };
        // Fresh file, then append a second figure: both survive.
        let v2 = merge_hotpath_json(
            None,
            "ablation_batch",
            &batch_points_block(&cfg, std::slice::from_ref(&batch)),
        );
        let merged = merge_hotpath_json(
            Some(&v2),
            "scaling",
            &scaling_points_block(&cfg, std::slice::from_ref(&scaling)),
        );
        assert!(merged.contains("\"figure\": \"ablation_batch\""));
        assert!(merged.contains("\"figure\": \"scaling\""));
        assert!(merged.contains("\"mops\": 12.500"));
        assert!(merged.contains("\"mops\": 9.250"));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
        assert_eq!(merged.matches('[').count(), merged.matches(']').count());

        // Re-running a figure replaces its block instead of duplicating it.
        let mut faster = batch.clone();
        faster.mops = 14.0;
        let rerun = merge_hotpath_json(
            Some(&merged),
            "ablation_batch",
            &batch_points_block(&cfg, &[faster]),
        );
        assert_eq!(rerun.matches("\"figure\": \"ablation_batch\"").count(), 1);
        assert!(rerun.contains("\"mops\": 14.000"));
        assert!(!rerun.contains("\"mops\": 12.500"));
        assert!(rerun.contains("\"mops\": 9.250"), "other figure dropped");

        // A legacy v1 document is upgraded without losing its points.
        let v1 = format!(
            "{{\n  \"schema\": \"growt-bench/hotpath-v1\",\n  \"figure\": \"ablation_batch\",\n  \"ops\": {},\n  \"reps\": 1,\n  \"unit\": \"mops\",\n  \"results\": [\n    {{\"table\": \"folklore\", \"op\": \"find\", \"threads\": 8, \"batch\": 1, \"mops\": 25.551}}\n  ]\n}}\n",
            cfg.ops
        );
        let upgraded = merge_hotpath_json(
            Some(&v1),
            "scaling",
            &scaling_points_block(&cfg, &[scaling]),
        );
        assert!(upgraded.contains("\"schema\": \"growt-bench/hotpath-v2\""));
        assert!(upgraded.contains("\"mops\": 25.551"), "v1 point lost");
        assert!(upgraded.contains("\"figure\": \"scaling\""));
        assert_eq!(upgraded.matches('{').count(), upgraded.matches('}').count());

        // Whitespace-only existing content is treated as a fresh file.
        let fresh = merge_hotpath_json(Some("  \n"), "scaling", "    {\"figure\": \"scaling\"}");
        assert!(fresh.contains("\"figure\": \"scaling\""));

        // A well-formed container with an empty figures array is valid
        // (e.g. hand-edited to drop stale entries), not a parse failure.
        let empty = "{\n  \"schema\": \"growt-bench/hotpath-v2\",\n  \"unit\": \"mops\",\n  \"figures\": [\n  ]\n}\n";
        let refilled = merge_hotpath_json(Some(empty), "scaling", "    {\"figure\": \"scaling\"}");
        assert!(refilled.contains("\"figure\": \"scaling\""));
        assert_eq!(refilled.matches("\"figure\":").count(), 1);
    }

    #[test]
    fn hotpath_merge_preserves_checked_in_figure_keys() {
        // The repository's recorded perf trajectory: merging any one figure
        // into it must keep every other recorded figure key intact (the
        // contract each re-recording run relies on).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
        let existing = match std::fs::read_to_string(path) {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return, // no recorded trajectory yet (fresh checkout)
        };
        let cfg = smoke_config();
        let point = ScalingPoint {
            table: "folklore-simd",
            op: "find",
            hash: "mix",
            threads: 4,
            batch: 1,
            mops: 1.0,
        };
        let merged = merge_hotpath_json(
            Some(&existing),
            "scaling",
            &scaling_points_block(&cfg, std::slice::from_ref(&point)),
        );
        for (key, _) in extract_figure_blocks(&existing).expect("checked-in record parses") {
            assert!(
                merged.contains(&format!("\"figure\": \"{key}\"")),
                "figure key {key} lost by merge"
            );
        }
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    }

    #[test]
    #[should_panic(expected = "refusing to overwrite")]
    fn hotpath_json_refuses_to_clobber_unparseable_trajectory() {
        // Non-empty content without a recognizable figure block must never
        // be silently replaced: the recorded trajectory would be lost.
        merge_hotpath_json(
            Some("{ \"schema\": \"growt-bench/hotpath-v2\", \"figures\": garbage"),
            "scaling",
            "    {\"figure\": \"scaling\"}",
        );
    }

    #[test]
    fn core_and_workloads_crc_hash_agree() {
        // The tables (growt-core::crc) and the workload generators
        // (growt-workloads::hash) each carry a CRC32-C kernel; the seeds
        // and the construction must stay bit-identical or benchmarks that
        // mix both would silently skew.  This crate depends on both, so
        // the invariant is enforced here.
        assert_eq!(
            growt_core::crc::crc32c_hw_available(),
            growt_workloads::crc32c_hw_available()
        );
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for i in 0..10_000u64 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ i;
            assert_eq!(
                growt_core::crc::crc64_pair(x),
                growt_workloads::crc64_pair(x),
                "crc64_pair diverged at x = {x:#x}"
            );
            assert_eq!(
                growt_core::crc::crc32c_u64_sw(growt_core::crc::CRC_SEED_HI, x),
                growt_workloads::crc32c_u64_sw(growt_core::crc::CRC_SEED_HI, x),
                "software kernels diverged at x = {x:#x}"
            );
        }
    }

    #[test]
    fn smoke_deletion_mixed_ablation() {
        let cfg = smoke_config();
        assert!(!fig6(&cfg).series.is_empty());
        assert!(!fig7(&cfg, true).series.is_empty());
        assert!(!fig8a(&cfg).series.is_empty());
        assert!(!ablation_block(&cfg).series[0].points.is_empty());
        assert!(fig10(&cfg).lines().count() > 10);
    }
}
