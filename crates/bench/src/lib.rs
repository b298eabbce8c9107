//! Benchmark harness regenerating the tables and figures of the paper's
//! evaluation (§8.4).
//!
//! Every measured figure has a runner here that returns a [`Record`]: a
//! list of [`Point`]s, each the configuration it was measured at (table,
//! operation, threads, …) and what was measured (MOps/s and its spread
//! over the repetitions, latency percentiles, bytes).  One renderer draws
//! any record as TSV ([`Record::to_tsv`]) and one serializer writes it as a
//! block of `BENCH_hotpath.json` ([`Record::block`], [`merge_hotpath_json`]).
//! The `figure` binary looks the id up in [`FIGURES`]; `table1` is the one
//! id that measures nothing.  `EXPERIMENTS.md` records the measured output
//! next to the paper's reported behaviour.
//!
//! The op counts are scaled down from the paper's 10⁸ (configurable with
//! `--ops`); DESIGN.md §4 documents why the *shape* of the results is the
//! reproduction target rather than absolute numbers.

#![warn(missing_docs)]

use std::fmt;

use growt_baselines::{
    Cuckoo, FollyStyle, Hopscotch, JunctionLeapfrog, JunctionLinear, LeaHash, PhaseConcurrent,
    RcuQsbrTable, RcuTable, TbbHashMap, TbbUnorderedMap,
};
use growt_core::{
    Folklore, FolkloreCrc, FolkloreSimd, GrowMap, PaGrow, PsGrow, StringKeyTable, UaGrow,
    UaGrowCrc, UsGrow,
};
use growt_iface::{capability_row, Capabilities, ConcurrentMap, GenericMap, GrowthSupport};
use growt_seq::{SeqGrowingTable, SeqTable};
use growt_workloads::{
    aggregate_driver, deletion_driver, deletion_workload, dense_prefill_keys, find_batch_driver,
    find_driver, generic_aggregate_driver, generic_wordcount_driver, insert_batch_driver,
    insert_driver, mixed_driver, mixed_workload, prefill, uniform_distinct_keys, uniform_keys,
    update_driver, word_corpus, zipf_keys, zipf_mixed_latency_driver, zipf_mixed_workload, Figure,
    LatencyHistogram, Measurement, Repetitions, Series, LAT_CLASS_FIND, LAT_CLASS_INSERT,
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
    /// Also merge each figure's record into `BENCH_hotpath.json`.
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

/// Where a growing benchmark starts a table that ends with `elements`
/// elements: at [`GROWING_INITIAL`] cells, or at half the element count for
/// a table whose growth is limited (folly, cuckoo), as the paper's Fig. 2b
/// does.  From 4096 cells such a table tops out long before (folly near
/// 61 000 keys), and its row would time failing inserts.
pub fn growing_start<M: ConcurrentMap>(elements: usize) -> usize {
    if M::capabilities().growing == GrowthSupport::Limited {
        elements / 2
    } else {
        GROWING_INITIAL
    }
}

// ---------------------------------------------------------------------------
// The record: one point type, one TSV renderer, one JSON block
// ---------------------------------------------------------------------------

/// One field value of a [`Point`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A name: table, operation, hash path, workload.
    Str(&'static str),
    /// A count: threads, batch size, nanoseconds, bytes, migrations.
    Int(u64),
    /// A real number: a Zipf exponent, a load factor, MOps/s, a spread.
    Float(f64),
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl Value {
    /// The value as a number; a name reads as NaN.
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Value::Str(_) => f64::NAN,
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        }
    }
}

/// Names as they are, counts as integers, reals to three decimals without
/// trailing zeros (`12.5`, `0.9`, `1`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Str(v) => f.write_str(v),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                let text = format!("{v:.3}");
                f.write_str(text.trim_end_matches('0').trim_end_matches('.'))
            }
        }
    }
}

/// One measured point of a figure: the configuration it was measured at
/// (`dims`: table, operation, threads, …) and what was measured
/// (`metrics`: MOps/s and its spread, latency percentiles, bytes), each an
/// ordered list of named fields.  Its JSON row lists the dims, then the
/// metrics.
#[derive(Debug, Clone, Default)]
pub struct Point {
    /// The configuration, `table` first.
    pub dims: Vec<(&'static str, Value)>,
    /// The measurements.
    pub metrics: Vec<(&'static str, Value)>,
}

impl Point {
    /// A point of `table`, with no other field yet.
    pub(crate) fn new(table: &'static str) -> Self {
        Point::default().dim("table", table)
    }

    /// Append the dimension `name`.
    pub(crate) fn dim(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        self.dims.push((name, value.into()));
        self
    }

    /// Append the metric `name`.
    pub(crate) fn metric(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        self.metrics.push((name, value.into()));
        self
    }

    /// Append `mops`, the mean throughput of `reps`, and `spread`, its
    /// [`Repetitions::spread`].
    pub(crate) fn mops(self, reps: &Repetitions) -> Self {
        self.metric("mops", reps.mean_mops())
            .metric("spread", reps.spread())
    }

    /// The field `name`, dimension or metric.
    pub(crate) fn get(&self, name: &str) -> Option<Value> {
        self.dims
            .iter()
            .chain(&self.metrics)
            .find(|(field, _)| *field == name)
            .map(|&(_, value)| value)
    }

    /// The point as one JSON object on one line.
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .dims
            .iter()
            .chain(&self.metrics)
            .map(|(name, value)| match value {
                Value::Str(v) => format!("\"{name}\": \"{v}\""),
                v => format!("\"{name}\": {v}"),
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A measured figure: its points, and which fields to draw.
#[derive(Debug, Clone)]
pub struct Record {
    /// The figure id, also its key in `BENCH_hotpath.json` ("fig2a").
    pub id: &'static str,
    /// The heading of its TSV table ("fig2a-insert-preinitialized").
    pub title: &'static str,
    /// The dimension on the x axis.
    pub x: &'static str,
    /// The metrics drawn: one series each per combination of the other
    /// dimensions.
    pub y: &'static [&'static str],
    /// The measured points.
    pub points: Vec<Point>,
}

impl Record {
    /// The record as a [`Figure`]: x is the dimension [`Record::x`], and
    /// every combination of the other dimensions is one series per metric
    /// of [`Record::y`], labelled by its names (`folklore find`) and its
    /// numbers (`threads=2`), and by the metric when there are several.
    pub(crate) fn to_figure(&self) -> Figure {
        let mut fig = Figure::new(self.title, self.x);
        for point in &self.points {
            let x = point.get(self.x).map_or(f64::NAN, Value::as_f64);
            let others: Vec<String> = point
                .dims
                .iter()
                .filter(|(name, _)| *name != self.x)
                .map(|(name, value)| match value {
                    Value::Str(v) => v.to_string(),
                    v => format!("{name}={v}"),
                })
                .collect();
            for &metric in self.y {
                let mut label = others.join(" ");
                if self.y.len() > 1 {
                    label = format!("{label} {metric}");
                }
                let y = point.get(metric).map_or(f64::NAN, Value::as_f64);
                match fig.series.iter_mut().find(|s| s.label == label) {
                    Some(series) => series.push(x, y),
                    None => {
                        let mut series = Series::new(label);
                        series.push(x, y);
                        fig.push(series);
                    }
                }
            }
        }
        fig
    }

    /// The record as a TSV table.
    pub fn to_tsv(&self) -> String {
        self.to_figure().to_tsv()
    }

    /// The record as one figure block of `BENCH_hotpath.json`, for
    /// [`merge_hotpath_json`]: its id, the run's `ops` and `reps`, and one
    /// result row per point.
    pub fn block(&self, cfg: &HarnessConfig) -> String {
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|point| format!("        {}", point.json()))
            .collect();
        format!(
            "    {{\n      \"figure\": \"{}\",\n      \"ops\": {},\n      \"reps\": {},\n      \"results\": [\n{}\n      ]\n    }}",
            self.id,
            cfg.ops,
            cfg.reps,
            rows.join(",\n")
        )
    }
}

/// A figure runner.
pub type Runner = fn(&HarnessConfig) -> Record;

/// Every measured figure: its id and its runner, in `figure all` order.
pub const FIGURES: [(&str, Runner); 23] = [
    ("fig2a", fig2a),
    ("fig2b", fig2b),
    ("fig3a", fig3a),
    ("fig3b", fig3b),
    ("fig4a", fig4a),
    ("fig4b", fig4b),
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig6", fig6),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("fig8a", fig8a),
    ("fig8b", fig8b),
    ("fig10", fig10),
    ("fig11a", fig11a),
    ("fig11b", fig11b),
    ("ablation_block", ablation_block),
    ("ablation_batch", ablation_batch),
    ("ablation_probe", ablation_probe),
    ("scaling", scaling),
    ("wordcount", wordcount),
    ("typed", typed),
    ("latency", latency),
];

// ---------------------------------------------------------------------------
// Generic per-table runners
// ---------------------------------------------------------------------------

/// `$run::<T>(args…)` for each table type `T` in the list.
macro_rules! for_tables {
    ($run:ident $args:tt: $($table:ty),+ $(,)?) => {
        $( $run::<$table> $args; )+
    };
}

/// `reps` runs of `run(rep)`.
fn repeat(reps: usize, run: impl FnMut(usize) -> Measurement) -> Repetitions {
    let mut out = Repetitions::new();
    (0..reps).map(run).for_each(|m| out.push(m));
    out
}

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
    out: &mut Vec<Point>,
    capacity_of: impl Fn(usize) -> usize,
) {
    for &p in &cfg.threads {
        let reps = repeat(cfg.reps, |rep| {
            let keys = uniform_distinct_keys(cfg.ops, 1000 + rep as u64);
            let table = M::with_capacity(capacity_of(cfg.ops));
            insert_driver(&table, &keys, effective_threads::<M>(p))
        });
        out.push(Point::new(M::table_name()).dim("threads", p).mops(&reps));
    }
}

fn find_series<M: ConcurrentMap>(cfg: &HarnessConfig, out: &mut Vec<Point>, successful: bool) {
    let keys = uniform_distinct_keys(cfg.ops, 1000);
    let lookup = if successful {
        keys.clone()
    } else {
        uniform_keys(cfg.ops, 999_999)
    };
    for &p in &cfg.threads {
        let reps = repeat(cfg.reps, |_| {
            let table = M::with_capacity(cfg.ops);
            prefill_for::<M>(&table, &keys);
            find_driver(&table, &lookup, effective_threads::<M>(p))
        });
        out.push(Point::new(M::table_name()).dim("threads", p).mops(&reps));
    }
}

/// Overwriting updates (`finds == false`) or successful finds on a
/// prefilled universe, over Zipf exponents, at the contention thread count.
fn contention_series<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    out: &mut Vec<Point>,
    universe: u64,
    finds: bool,
) {
    let prefill_keys = dense_prefill_keys(universe);
    let p = cfg.contention_threads;
    for &s in &cfg.zipf_s {
        let seed = if finds { 4300 } else { 4200 } + (s * 100.0) as u64;
        let keys = zipf_keys(cfg.ops, universe, s, seed);
        let reps = repeat(cfg.reps, |_| {
            let table = M::with_capacity(universe as usize);
            prefill_for::<M>(&table, &prefill_keys);
            if finds {
                find_driver(&table, &keys, effective_threads::<M>(p))
            } else {
                update_driver(&table, &keys, effective_threads::<M>(p))
            }
        });
        let point = Point::new(M::table_name()).dim("threads", p);
        out.push(point.dim("zipf", s).mops(&reps));
    }
}

/// Fig. 2b's insertions into a growing table, started by [`growing_start`].
fn growing_insert_series<M: ConcurrentMap>(cfg: &HarnessConfig, out: &mut Vec<Point>) {
    insert_series::<M>(cfg, out, growing_start::<M>);
}

/// The table an aggregation of `cfg.ops` keys from `universe` starts with:
/// room for every key, or a growing start for at most that many.
fn aggregation_start<M: ConcurrentMap>(cfg: &HarnessConfig, universe: u64, growing: bool) -> M {
    let elements = cfg.ops.min(universe as usize);
    M::with_capacity(if growing {
        growing_start::<M>(elements)
    } else {
        cfg.ops
    })
}

fn aggregation_series<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    out: &mut Vec<Point>,
    universe: u64,
    growing: bool,
) {
    let p = cfg.contention_threads;
    for &s in &cfg.zipf_s {
        let keys = zipf_keys(cfg.ops, universe, s, 4400 + (s * 100.0) as u64);
        let reps = repeat(cfg.reps, |_| {
            let table = aggregation_start::<M>(cfg, universe, growing);
            aggregate_driver(&table, &keys, effective_threads::<M>(p))
        });
        let point = Point::new(M::table_name()).dim("threads", p);
        out.push(point.dim("zipf", s).mops(&reps));
    }
}

fn deletion_series<M: ConcurrentMap>(cfg: &HarnessConfig, out: &mut Vec<Point>) {
    let window = (cfg.ops / 10).max(8192 * 8);
    let wl = deletion_workload(cfg.ops, window, 5100);
    for &p in &cfg.threads {
        let reps = repeat(cfg.reps, |_| {
            let table = M::with_capacity(window + window / 2);
            prefill_for::<M>(&table, &wl.prefill);
            deletion_driver(&table, &wl, effective_threads::<M>(p))
        });
        out.push(Point::new(M::table_name()).dim("threads", p).mops(&reps));
    }
}

/// The table Fig. 7's mixed workload of `wp` percent writes starts with:
/// room for its prefill and its insertions, or a growing start for them.
fn mixed_start<M: ConcurrentMap>(cfg: &HarnessConfig, wp: u32, growing: bool) -> M {
    let inserts = 8192 * cfg.contention_threads + (cfg.ops * wp as usize) / 100;
    M::with_capacity(if growing {
        growing_start::<M>(inserts)
    } else {
        inserts
    })
}

fn mixed_series<M: ConcurrentMap>(cfg: &HarnessConfig, out: &mut Vec<Point>, growing: bool) {
    let p = cfg.contention_threads;
    for &wp in &cfg.write_percents {
        let wl = mixed_workload(cfg.ops, wp, 8192 * p, 8192 * p, 6100 + wp as u64);
        let reps = repeat(cfg.reps, |_| {
            let table = mixed_start::<M>(cfg, wp, growing);
            prefill_for::<M>(&table, &wl.prefill);
            mixed_driver(&table, &wl, effective_threads::<M>(p))
        });
        let point = Point::new(M::table_name()).dim("threads", p);
        out.push(point.dim("write_percent", wp as usize).mops(&reps));
    }
}

/// A record drawn as MOps/s over `x`.
fn throughput(
    id: &'static str,
    title: &'static str,
    x: &'static str,
    points: Vec<Point>,
) -> Record {
    Record {
        id,
        title,
        x,
        y: &["mops"],
        points,
    }
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

/// Fig. 2a: insertions into a pre-initialized (non-growing) table.
pub fn fig2a(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    for_tables!(insert_series(cfg, &mut out, |ops| ops):
        SeqTable, Folklore, UaGrow, UsGrow, PaGrow, PsGrow, PhaseConcurrent, Hopscotch, LeaHash,
        FollyStyle, Cuckoo, TbbHashMap, TbbUnorderedMap, RcuTable, JunctionLinear, JunctionLeapfrog);
    throughput("fig2a", "fig2a-insert-preinitialized", "threads", out)
}

/// Fig. 2b: insertions into a growing table (initial capacity 4096; tables
/// with limited growing start at half the final size, [`growing_start`]).
pub fn fig2b(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    for_tables!(growing_insert_series(cfg, &mut out):
        SeqGrowingTable, UaGrow, UsGrow, PaGrow, PsGrow, JunctionLinear, JunctionLeapfrog,
        TbbHashMap, TbbUnorderedMap, RcuTable, RcuQsbrTable, FollyStyle, Cuckoo);
    throughput("fig2b", "fig2b-insert-growing", "threads", out)
}

fn fig3(cfg: &HarnessConfig, successful: bool) -> Vec<Point> {
    let mut out = Vec::new();
    for_tables!(find_series(cfg, &mut out, successful):
        SeqTable, Folklore, UaGrow, UsGrow, PaGrow, PsGrow, PhaseConcurrent, Hopscotch, LeaHash,
        FollyStyle, Cuckoo, TbbHashMap, TbbUnorderedMap, RcuTable, JunctionLinear, JunctionLeapfrog);
    out
}

/// Fig. 3a: successful finds.
pub fn fig3a(cfg: &HarnessConfig) -> Record {
    throughput("fig3a", "fig3a-find-successful", "threads", fig3(cfg, true))
}

/// Fig. 3b: unsuccessful finds.
pub fn fig3b(cfg: &HarnessConfig) -> Record {
    throughput(
        "fig3b",
        "fig3b-find-unsuccessful",
        "threads",
        fig3(cfg, false),
    )
}

/// Fig. 4a: overwriting updates under Zipf contention.
pub fn fig4a(cfg: &HarnessConfig) -> Record {
    let universe = (cfg.ops as u64).max(1 << 14);
    let mut out = Vec::new();
    for_tables!(contention_series(cfg, &mut out, universe, false):
        SeqTable, Folklore, UaGrow, UsGrow, PaGrow, PsGrow, Hopscotch, LeaHash, FollyStyle, Cuckoo,
        TbbHashMap, TbbUnorderedMap, RcuTable, JunctionLinear, JunctionLeapfrog);
    throughput("fig4a", "fig4a-update-contention", "zipf", out)
}

/// Fig. 4b: successful finds under Zipf contention.
pub fn fig4b(cfg: &HarnessConfig) -> Record {
    let universe = (cfg.ops as u64).max(1 << 14);
    let mut out = Vec::new();
    for_tables!(contention_series(cfg, &mut out, universe, true):
        SeqTable, Folklore, UaGrow, UsGrow, PhaseConcurrent, Hopscotch, LeaHash, FollyStyle,
        Cuckoo, TbbHashMap, TbbUnorderedMap, RcuTable, JunctionLinear, JunctionLeapfrog);
    throughput("fig4b", "fig4b-find-contention", "zipf", out)
}

/// Aggregation (insert-or-increment) with and without growing.  Only tables
/// whose interface supports atomic read-modify-write updates participate
/// (paper §8.4).
fn fig5(cfg: &HarnessConfig, growing: bool) -> Vec<Point> {
    let universe = (cfg.ops as u64).max(1 << 14);
    let mut out = Vec::new();
    for_tables!(aggregation_series(cfg, &mut out, universe, growing):
        SeqGrowingTable, UaGrow, UsGrow, PaGrow, PsGrow);
    if !growing {
        for_tables!(aggregation_series(cfg, &mut out, universe, growing): Folklore);
    }
    for_tables!(aggregation_series(cfg, &mut out, universe, growing):
        FollyStyle, Cuckoo, TbbHashMap, LeaHash, RcuTable);
    out
}

/// Fig. 5a: aggregation into a pre-initialized table.
pub fn fig5a(cfg: &HarnessConfig) -> Record {
    throughput(
        "fig5a",
        "fig5a-aggregation-preinitialized",
        "zipf",
        fig5(cfg, false),
    )
}

/// Fig. 5b: aggregation into a growing table.
pub fn fig5b(cfg: &HarnessConfig) -> Record {
    throughput(
        "fig5b",
        "fig5b-aggregation-growing",
        "zipf",
        fig5(cfg, true),
    )
}

/// Fig. 6: alternating insertions and deletions (sliding window).
pub fn fig6(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    // No `PhaseConcurrent`: its contract forbids inserts and erases in one
    // phase, and Fig. 6 mixes them in every step; driven that way it loses
    // keys and its operations can spin without end.
    for_tables!(deletion_series(cfg, &mut out):
        SeqGrowingTable, UaGrow, UsGrow, PaGrow, PsGrow, Hopscotch, Cuckoo, TbbHashMap, LeaHash,
        RcuTable);
    throughput("fig6", "fig6-deletions", "threads", out)
}

/// Mixed insertions and finds over the write percentage.
fn fig7(cfg: &HarnessConfig, growing: bool) -> Vec<Point> {
    let mut out = Vec::new();
    for_tables!(mixed_series(cfg, &mut out, growing): SeqGrowingTable);
    if !growing {
        for_tables!(mixed_series(cfg, &mut out, growing): Folklore, Hopscotch, PhaseConcurrent);
    }
    for_tables!(mixed_series(cfg, &mut out, growing):
        UaGrow, UsGrow, PaGrow, PsGrow, FollyStyle, Cuckoo, TbbHashMap, LeaHash, RcuTable,
        JunctionLinear);
    out
}

/// Fig. 7a: mixed insertions and finds on a pre-initialized table.
pub fn fig7a(cfg: &HarnessConfig) -> Record {
    throughput(
        "fig7a",
        "fig7a-mixed-preinitialized",
        "write_percent",
        fig7(cfg, false),
    )
}

/// Fig. 7b: mixed insertions and finds on a growing table.
pub fn fig7b(cfg: &HarnessConfig) -> Record {
    throughput(
        "fig7b",
        "fig7b-mixed-growing",
        "write_percent",
        fig7(cfg, true),
    )
}

/// Fig. 8a: pool-based vs. enslavement-based growing, insertions.
pub fn fig8a(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    for_tables!(insert_series(cfg, &mut out, |_| GROWING_INITIAL): UaGrow, UsGrow, PaGrow, PsGrow);
    throughput("fig8a", "fig8a-pool-vs-enslavement-insert", "threads", out)
}

/// Fig. 8b: pool-based vs. enslavement-based growing, insert+delete cycles.
pub fn fig8b(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    for_tables!(deletion_series(cfg, &mut out): UaGrow, UsGrow, PaGrow, PsGrow);
    throughput(
        "fig8b",
        "fig8b-pool-vs-enslavement-deletions",
        "threads",
        out,
    )
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

fn fig10_series<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    out: &mut Vec<Point>,
    keys: &[u64],
    misses: &[u64],
) {
    let p = cfg.contention_threads;
    for factor in [0.0f64, 0.5, 1.0, 1.5, 2.0, 3.0] {
        // Non-growing tables cannot start below the element count.
        let start = if M::capabilities().growing == GrowthSupport::None {
            factor.max(1.0)
        } else {
            factor
        };
        let capacity = if start == 0.0 {
            growing_start::<M>(keys.len())
        } else {
            (cfg.ops as f64 * start) as usize
        };
        let (table, bytes) = fig10_footprint::<M>(capacity, keys);
        let reps = repeat(cfg.reps, |_| {
            find_driver(&table, misses, effective_threads::<M>(p))
        });
        let point = Point::new(M::table_name()).dim("threads", p);
        out.push(
            point
                .dim("init_factor", factor)
                .mops(&reps)
                .metric("bytes", bytes),
        );
    }
}

/// Fig. 10: memory consumption vs. unsuccessful-find throughput for
/// different initial capacities: `init_factor` times the element count,
/// where 0 is the growing start of [`growing_start`] (a table that cannot
/// grow starts at 1×), `bytes` as [`fig10_footprint`] counts them.
pub fn fig10(cfg: &HarnessConfig) -> Record {
    let keys = uniform_distinct_keys(cfg.ops, 777);
    let misses = uniform_keys(cfg.ops, 778);
    let mut out = Vec::new();
    for_tables!(fig10_series(cfg, &mut out, &keys, &misses):
        UaGrow, UsGrow, Folklore, FollyStyle, Cuckoo, TbbHashMap, RcuTable, JunctionLinear,
        LeaHash, Hopscotch);
    Record {
        y: &["bytes", "mops"],
        ..throughput("fig10", "fig10-memory-vs-throughput", "init_factor", out)
    }
}

/// Fig. 11's thread grid: the 4-socket experiment's, unless `--threads`
/// overrides it.
fn wide(cfg: &HarnessConfig) -> HarnessConfig {
    let mut wide = cfg.clone();
    if !cfg.threads_overridden {
        wide.threads = vec![1, 2, 4, 8, 16, 32, 64];
    }
    wide
}

/// Fig. 11a: the 4-socket experiment — Fig. 2b's insert-growing workload
/// over a wider (oversubscribed) thread grid.
pub fn fig11a(cfg: &HarnessConfig) -> Record {
    let points = fig2b(&wide(cfg)).points;
    throughput("fig11a", "fig11a-insert-growing-wide", "threads", points)
}

/// Fig. 11b: Fig. 3b's unsuccessful finds over the wider thread grid.
pub fn fig11b(cfg: &HarnessConfig) -> Record {
    let points = fig3(&wide(cfg), false);
    throughput("fig11b", "fig11b-find-unsuccessful-wide", "threads", points)
}

/// Ablation: migration block size (DESIGN.md §6).
pub fn ablation_block(cfg: &HarnessConfig) -> Record {
    use growt_core::{GrowConfig, GrowingOptions, GrowingTable};
    let p = cfg.contention_threads;
    let keys = uniform_distinct_keys(cfg.ops, 31);
    let mut out = Vec::new();
    for block in [256usize, 1024, 4096, 16384] {
        let reps = repeat(cfg.reps, |_| {
            let options = GrowingOptions {
                grow: GrowConfig {
                    migration_block: block,
                    ..GrowConfig::default()
                },
                threads_hint: p,
                ..GrowingOptions::default()
            };
            let table = GrowingTable::with_options(GROWING_INITIAL, options);
            growt_workloads::stats::time(|| {
                std::thread::scope(|scope| {
                    for t in 0..p {
                        let (table, keys) = (&table, &keys);
                        scope.spawn(move || {
                            let mut handle = table.handle();
                            for key in keys.iter().skip(t).step_by(p) {
                                handle.insert(*key, *key);
                            }
                        });
                    }
                });
                (cfg.ops, 0)
            })
        });
        out.push(
            Point::new("uaGrow")
                .dim("threads", p)
                .dim("block", block)
                .mops(&reps),
        );
    }
    throughput(
        "ablation_block",
        "ablation-migration-block-size",
        "block",
        out,
    )
}

/// Batch sizes K swept by [`ablation_batch`].  K = 1 is measured with the
/// plain per-op drivers, so it is the true single-op baseline rather than
/// a batch call of length one.
pub const BATCH_SIZES: [usize; 5] = [1, 8, 16, 32, 64];

/// Shared insert/find sweep skeleton of `ablation_batch` and `scaling`:
/// for every (threads, K) combination measure insertions into a fresh
/// pre-sized table and finds on one shared prefilled table (the find
/// sweep is read-only, so one table serves every combination); K = 1 runs
/// the true per-op drivers, K > 1 the batch drivers.  `head(op)` starts
/// each point; the sweep adds `threads`, `batch` and the throughput.
fn insert_find_sweep<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    out: &mut Vec<Point>,
    batch_sizes: &[usize],
    head: impl Fn(&'static str) -> Point,
) {
    let keys = uniform_distinct_keys(cfg.ops, 1000);
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let find_table = M::with_capacity(cfg.ops);
    prefill_for::<M>(&find_table, &keys);
    for &p in &cfg.threads {
        let p_eff = effective_threads::<M>(p);
        for &k in batch_sizes {
            let inserts = repeat(cfg.reps, |_| {
                let table = M::with_capacity(cfg.ops);
                if k == 1 {
                    insert_driver(&table, &keys, p_eff)
                } else {
                    insert_batch_driver(&table, &pairs, p_eff, k)
                }
            });
            out.push(
                head("insert")
                    .dim("threads", p)
                    .dim("batch", k)
                    .mops(&inserts),
            );
            let finds = repeat(cfg.reps, |_| {
                if k == 1 {
                    find_driver(&find_table, &keys, p_eff)
                } else {
                    find_batch_driver(&find_table, &keys, p_eff, k)
                }
            });
            out.push(head("find").dim("threads", p).dim("batch", k).mops(&finds));
        }
    }
}

fn batch_series<M: ConcurrentMap>(cfg: &HarnessConfig, out: &mut Vec<Point>) {
    insert_find_sweep::<M>(cfg, out, &BATCH_SIZES, |op| {
        Point::new(M::table_name()).dim("op", op)
    });
}

/// Ablation: batched hot paths (hash → prefetch → probe, DESIGN.md).
///
/// Sweeps the batch size K over [`BATCH_SIZES`] for insertions into and
/// finds on a pre-initialized table, for the folklore table on both probe
/// strategies (scalar linear probe and the striped SIMD fingerprint probe)
/// and the default growing variant, across the configured thread grid.
pub fn ablation_batch(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    for_tables!(batch_series(cfg, &mut out): Folklore, FolkloreSimd, UaGrow);
    throughput("ablation_batch", "ablation-batch-hot-paths", "batch", out)
}

/// Batch size used by the batched series of the `scaling` figure (the
/// pipeline width, the sweet spot of the `ablation_batch` sweep).
pub const SCALING_BATCH: usize = 16;

/// `scaling`'s sweep of `M`, recorded as the base table `table` ("uaGrow")
/// on the hash path `hash`: "mix" (the one-multiply fold,
/// `config::hash_key`) or "crc" (two-seed CRC32-C, hardware `crc32q` where
/// available).
fn scaling_series<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    out: &mut Vec<Point>,
    table: &'static str,
    hash: &'static str,
) {
    insert_find_sweep::<M>(cfg, out, &[1, SCALING_BATCH], |op| {
        Point::new(table).dim("op", op).dim("hash", hash)
    });
}

/// The thread-scaling sweep: insertions into and finds on a pre-sized
/// table for the folklore table and the default growing variant, per-op
/// (K = 1) and pipelined (K = [`SCALING_BATCH`]), on both hash paths
/// (the one-multiply fold and the paper's CRC32-C pair) and, for the
/// folklore table, on the striped SIMD fingerprint probe
/// (`folklore-simd`, fold hashing), across the configured thread grid.  This is the trajectory record for the
/// zero-shared-traffic handle prologue and the striped probe: per-op
/// throughput must move with the thread count.
pub fn scaling(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    scaling_series::<Folklore>(cfg, &mut out, "folklore", "mix");
    scaling_series::<FolkloreCrc>(cfg, &mut out, "folklore", "crc");
    scaling_series::<FolkloreSimd>(cfg, &mut out, "folklore-simd", "mix");
    scaling_series::<UaGrow>(cfg, &mut out, "uaGrow", "mix");
    scaling_series::<UaGrowCrc>(cfg, &mut out, "uaGrow", "crc");
    throughput("scaling", "scaling-hot-paths", "threads", out)
}

/// Load factors α swept by [`ablation_probe`].
pub const PROBE_LOADS: [f64; 3] = [0.5, 0.75, 0.9];

/// Cell count of the bounded tables of the `ablation_probe` sweep.  Fixed
/// (rather than derived from `--ops`) so the swept load factors are exact;
/// large enough that the cell array does not fit in L2, small enough that
/// the α = 0.9 prefill stays cheap.
pub const PROBE_CAPACITY: usize = 1 << 18;

fn probe_series<M: ConcurrentMap>(cfg: &HarnessConfig, out: &mut Vec<Point>) {
    for load in PROBE_LOADS {
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
            for (op, stream) in [("find_hit", &hits), ("find_miss", &misses)] {
                let reps = repeat(cfg.reps, |_| {
                    find_driver(&table, stream, effective_threads::<M>(p))
                });
                let point = Point::new(M::table_name()).dim("op", op);
                out.push(point.dim("load", load).dim("threads", p).mops(&reps));
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
pub fn ablation_probe(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    for_tables!(probe_series(cfg, &mut out): Folklore, FolkloreSimd);
    throughput("ablation_probe", "ablation-probe-regimes", "threads", out)
}

fn wordcount_series<M: GenericMap<String, u64>>(
    cfg: &HarnessConfig,
    out: &mut Vec<Point>,
    table: &'static str,
    capacity: usize,
) {
    let vocab = cfg.wordcount_vocab.max(1);
    for &p in &cfg.threads {
        let reps = repeat(cfg.reps, |rep| {
            let corpus = word_corpus(cfg.ops, vocab, cfg.wordcount_zipf, 9_000 + rep as u64);
            let map = M::with_capacity(capacity);
            generic_wordcount_driver(&map, &corpus, p)
        });
        let point = Point::new(table).dim("threads", p).dim("vocab", vocab);
        out.push(point.dim("zipf", cfg.wordcount_zipf).mops(&reps));
    }
}

/// The word-count sweep: `insert_or_update(word, 1, +1)` over a
/// Zipf-distributed word stream (the aggregation use case of the paper's
/// introduction, on string keys via §5.7), across the configured thread
/// grid, for `stringGrow` — `GrowMap<String, u64>`, started at the
/// standard tiny initial capacity so the run crosses several migrations —
/// and `stringFolklore`, the bounded [`StringKeyTable`] pre-sized to the
/// vocabulary.
pub fn wordcount(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    wordcount_series::<GrowMap<String, u64>>(cfg, &mut out, "stringGrow", GROWING_INITIAL);
    let vocab = cfg.wordcount_vocab.max(1);
    wordcount_series::<StringKeyTable>(cfg, &mut out, "stringFolklore", vocab);
    throughput("wordcount", "wordcount-string-aggregation", "threads", out)
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
pub fn typed(cfg: &HarnessConfig) -> Record {
    let universe = (cfg.ops / 10).max(64) as u64;
    let keys = |rep: usize| zipf_keys(cfg.ops, universe, cfg.wordcount_zipf, 11_000 + rep as u64);
    let mut out = Vec::new();
    for &p in &cfg.threads {
        let ua = repeat(cfg.reps, |rep| {
            aggregate_driver(&UaGrow::with_capacity(GROWING_INITIAL), &keys(rep), p)
        });
        let generic = repeat(cfg.reps, |rep| {
            let map: GrowMap<u64, u64> = GrowMap::with_capacity(GROWING_INITIAL);
            generic_aggregate_driver(&map, &keys(rep), p)
        });
        for (table, reps) in [("uaGrow", ua), ("growMap", generic)] {
            let point = Point::new(table).dim("workload", "aggregate-u64");
            out.push(point.dim("threads", p).mops(&reps));
        }
    }
    throughput("typed", "typed-generic-map", "threads", out)
}

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

/// `latency`'s points of `M`, one per thread count and op class: the
/// whole mixed workload's throughput, the class's latency percentiles in
/// nanoseconds, and the completed migrations per repetition.  A table
/// that cannot grow is pre-sized for the workload.
fn latency_series<M: ConcurrentMap>(
    cfg: &HarnessConfig,
    out: &mut Vec<Point>,
    migrations: impl Fn(&M) -> u64,
) {
    let growing = M::capabilities().growing != GrowthSupport::None;
    for &p in &cfg.threads {
        let mut merged = vec![LatencyHistogram::new(); 3];
        let mut migrated = 0u64;
        let reps = repeat(cfg.reps, |rep| {
            let workload = zipf_mixed_workload(
                cfg.ops,
                LATENCY_INSERT_PERCENT,
                LATENCY_UPDATE_PERCENT,
                LATENCY_PREFILL,
                LATENCY_ZIPF_S,
                7_000 + rep as u64,
            );
            let capacity = if growing {
                LATENCY_INITIAL
            } else {
                workload.prefill.len() + workload.insert_count()
            };
            let table = M::with_capacity(capacity);
            prefill_for::<M>(&table, &workload.prefill);
            let result = zipf_mixed_latency_driver(&table, &workload, effective_threads::<M>(p));
            for (acc, thread) in merged.iter_mut().zip(result.histograms.iter()) {
                acc.merge(thread);
            }
            migrated += migrations(&table);
            result.measurement
        });
        let migrations = migrated / cfg.reps.max(1) as u64;
        for (class, op) in [
            (LAT_CLASS_INSERT, "insert"),
            (LAT_CLASS_FIND, "find"),
            (LAT_CLASS_UPDATE, "update"),
        ] {
            let hist = &merged[class];
            let point = Point::new(M::table_name()).dim("op", op).dim("threads", p);
            out.push(
                point
                    .mops(&reps)
                    .metric("p50_ns", hist.value_at_percentile(50.0))
                    .metric("p99_ns", hist.value_at_percentile(99.0))
                    .metric("p999_ns", hist.value_at_percentile(99.9))
                    .metric("max_ns", hist.max())
                    .metric("migrations", migrations),
            );
        }
    }
}

/// The tail-latency sweep: a mixed Zipf insert/find/update workload
/// (25/50/25) started from a tiny table so it crosses several migrations,
/// with every op bracketed by calibrated clock reads into per-thread
/// histograms.  Compares enslavement (`uaGrow`, help until done), the
/// migration thread pool (`paGrow`) and the pre-sized folklore table as
/// the no-migration control.  This is the trajectory record for the grow
/// pause: how far the growing tables' p999 sits from the folklore
/// control.
pub fn latency(cfg: &HarnessConfig) -> Record {
    let mut out = Vec::new();
    for_tables!(latency_series(cfg, &mut out, |_| 0): Folklore);
    for_tables!(latency_series(cfg, &mut out, |t| t.inner().migrations_completed()):
        UaGrow, PaGrow);
    Record {
        y: &["p50_ns", "p99_ns", "p999_ns", "max_ns"],
        ..throughput("latency", "latency-tail-ns", "threads", out)
    }
}

// ---------------------------------------------------------------------------
// BENCH_hotpath.json: the accumulated perf-trajectory record
// ---------------------------------------------------------------------------

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

/// Extract the string value of `"key": "value"` (best-effort scan over the
/// JSON this harness itself emits).
fn json_string_value(s: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = s.find(&pat)? + pat.len();
    let rest = &s[at..];
    let q1 = rest.find('"')?;
    let q2 = rest[q1 + 1..].find('"')? + q1 + 1;
    Some(rest[q1 + 1..q2].to_string())
}

/// Split a `BENCH_hotpath.json` document into `(figure_key, block_text)`
/// pairs.  The `"figures": [...]` array may legitimately hold zero blocks.
/// Returns `None` when the document has no such array or a block in it
/// does not close (the caller must then refuse to overwrite it).
fn extract_figure_blocks(existing: &str) -> Option<Vec<(String, String)>> {
    let arr_key = existing.find("\"figures\":")?;
    let open = existing[arr_key..].find('[').map(|i| i + arr_key)?;
    let close = matching_bracket(existing, open)?;
    let mut blocks = Vec::new();
    let mut at = open + 1;
    while let Some(obj_open) = existing[at..close].find('{').map(|i| i + at) {
        let obj_close = matching_bracket(existing, obj_open)?;
        let block = &existing[obj_open..=obj_close];
        let key = json_string_value(block, "figure").unwrap_or_default();
        blocks.push((key, format!("    {}", block.trim_start())));
        at = obj_close + 1;
    }
    Some(blocks)
}

/// Merge one figure `block` ([`Record::block`]) into an existing
/// `BENCH_hotpath.json` document, **replacing** the block with the same
/// figure key in place and keeping every other figure — the perf
/// trajectory accumulates one entry per figure across PRs instead of being
/// overwritten.
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
/// # Panics
///
/// If `existing` holds non-empty content that is not such a container
/// (truncated or hand-mangled JSON), the function refuses to proceed
/// rather than silently rewriting the file with only the new figure —
/// overwriting would destroy the recorded perf trajectory the merge
/// contract promises to preserve.  A well-formed container with an
/// *empty* `figures` array is fine.
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
    let blocks: Vec<String> = blocks.into_iter().map(|(_, b)| b).collect();
    format!(
        "{{\n  \"schema\": \"growt-bench/hotpath-v2\",\n  \"unit\": \"mops\",\n  \"figures\": [\n{}\n  ]\n}}\n",
        blocks.join(",\n")
    )
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

/// A fast smoke run of every figure with tiny sizes (used by tests): the
/// thread grid {1, 2} holds for `fig11a`/`fig11b` too.
pub fn smoke_config() -> HarnessConfig {
    HarnessConfig {
        ops: 20_000,
        threads: vec![1, 2],
        threads_overridden: true,
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
    use growt_iface::MapHandle;
    use growt_workloads::MixedOp;

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

    /// Folly, whose growth is limited, loses no insert in the growing
    /// series at the start they give it: fig5b's aggregation, fig7b's
    /// mixed workload and fig10's prefill, each driven as its series
    /// drives it, past the 61 000 keys it holds from 4096 cells.
    #[test]
    fn a_limited_table_starts_where_every_insert_of_a_growing_series_lands() {
        let cfg = HarnessConfig {
            ops: 200_000,
            contention_threads: 2,
            ..smoke_config()
        };
        let universe = cfg.ops as u64;
        let keys = zipf_keys(cfg.ops, universe, 0.25, 4425);
        let distinct = keys.iter().collect::<std::collections::HashSet<_>>().len();
        let table = aggregation_start::<FollyStyle>(&cfg, universe, true);
        let aggregated = aggregate_driver(&table, &keys, 2);
        assert_eq!(aggregated.aux as usize, distinct, "aggregation insertions");
        let mut h = table.handle();
        assert!(
            keys.iter().all(|&k| h.find(k).is_some()),
            "an aggregated key is missing"
        );

        let wl = mixed_workload(cfg.ops, 80, 8192 * 2, 8192 * 2, 6180);
        let table = mixed_start::<FollyStyle>(&cfg, 80, true);
        prefill_for::<FollyStyle>(&table, &wl.prefill);
        mixed_driver(&table, &wl, 2);
        let mut h = table.handle();
        for op in &wl.ops {
            if let MixedOp::Insert(k) = *op {
                assert_eq!(h.find(k), Some(k), "a mixed insertion is missing");
            }
        }

        let keys = uniform_distinct_keys(cfg.ops, 777);
        let (table, _) =
            fig10_footprint::<FollyStyle>(growing_start::<FollyStyle>(keys.len()), &keys);
        let mut h = table.handle();
        assert!(
            keys.iter().all(|&k| h.find(k) == Some(k)),
            "a fig10 key is missing"
        );
    }

    #[test]
    fn smoke_fig2a_and_fig2b() {
        let cfg = smoke_config();
        let a = fig2a(&cfg).to_figure();
        assert!(a.series.len() >= 15);
        assert!(a.series.iter().all(|s| s.points.len() == cfg.threads.len()));
        assert!(a.to_tsv().contains("folklore"));
        let b = fig2b(&cfg).to_figure();
        assert!(b.series.len() >= 10);
    }

    #[test]
    fn smoke_contention_and_aggregation() {
        let cfg = smoke_config();
        let f4a = fig4a(&cfg).to_figure();
        assert!(f4a
            .series
            .iter()
            .all(|s| s.points.len() == cfg.zipf_s.len()));
        let f5b = fig5b(&cfg).to_figure();
        assert!(f5b
            .series
            .iter()
            .all(|s| s.points.iter().all(|&(_, y)| y >= 0.0)));
    }

    /// The string field `name` of every point of `record`.
    fn names<'r>(record: &'r Record, name: &'r str) -> impl Iterator<Item = &'static str> + 'r {
        record.points.iter().map(move |p| match p.get(name) {
            Some(Value::Str(v)) => v,
            other => panic!("{}: {name} is {other:?}", record.id),
        })
    }

    /// The number field `name` of every point of `record`.
    fn numbers<'r>(record: &'r Record, name: &'r str) -> impl Iterator<Item = f64> + 'r {
        record
            .points
            .iter()
            .map(move |p| p.get(name).map_or(f64::NAN, Value::as_f64))
    }

    /// What a smoke run of figure `id` must hold beyond the common
    /// checks: its point count, tables and series, and the TSV label of
    /// one series.
    fn check_figure(cfg: &HarnessConfig, record: &Record) {
        let p = cfg.threads.len();
        let has = |table: &str| names(record, "table").any(|t| t == table);
        let series = record.to_figure().series;
        let tsv = record.to_tsv();
        match record.id {
            "ablation_batch" => {
                // 3 tables (folklore on both probes, uaGrow) × 2 ops ×
                // |threads| × |K|; the growing table has no striped probe.
                assert_eq!(record.points.len(), 3 * 2 * p * BATCH_SIZES.len());
                assert!(has("folklore-simd") && has("uaGrow"));
                assert_eq!(series.len(), 3 * 2 * p);
                assert!(series.iter().all(|s| s.points.len() == BATCH_SIZES.len()));
                assert!(tsv.contains("folklore find threads=2"));
            }
            "scaling" => {
                // 5 instantiations (2 tables × {mix, crc} + folklore-simd)
                // × 2 ops × |threads| × 2 batch sizes.
                assert_eq!(record.points.len(), 5 * 2 * p * 2);
                let pairs: Vec<_> = names(record, "table").zip(names(record, "hash")).collect();
                for table in ["folklore", "uaGrow"] {
                    for hash in ["mix", "crc"] {
                        assert!(pairs.contains(&(table, hash)), "missing {table}/{hash}");
                    }
                }
                // The striped-probe series hashes with the default mixer
                // only, and only the bounded table has one.
                assert!(pairs.contains(&("folklore-simd", "mix")));
                assert!(!pairs.contains(&("folklore-simd", "crc")));
                assert_eq!(series.len(), 5 * 2 * 2);
                assert!(series.iter().all(|s| s.points.len() == p));
                assert!(tsv.contains("folklore find crc batch=16"));
            }
            "ablation_probe" => {
                // 2 tables × |PROBE_LOADS| × |threads| × {find_hit, find_miss}.
                assert_eq!(record.points.len(), 2 * PROBE_LOADS.len() * p * 2);
                let pairs: Vec<_> = names(record, "table").zip(names(record, "op")).collect();
                for table in ["folklore", "folklore-simd"] {
                    for op in ["find_hit", "find_miss"] {
                        assert!(pairs.contains(&(table, op)), "missing {table}/{op}");
                    }
                }
                assert!(numbers(record, "load").any(|load| load == 0.9));
                assert_eq!(series.len(), 2 * PROBE_LOADS.len() * 2);
                assert!(series.iter().all(|s| s.points.len() == p));
                assert!(tsv.contains("folklore-simd find_miss load=0.9"));
            }
            "wordcount" => {
                assert_eq!(record.points.len(), 2 * p);
                assert!(numbers(record, "vocab").all(|v| v == cfg.wordcount_vocab as f64));
                assert!(has("stringGrow") && has("stringFolklore"));
                assert_eq!(series.len(), 2);
                assert!(series.iter().all(|s| s.points.len() == p));
            }
            "typed" => {
                assert_eq!(record.points.len(), 2 * p);
                assert!(has("uaGrow") && has("growMap"));
                assert_eq!(series.len(), 2);
                assert!(series.iter().all(|s| s.points.len() == p));
                assert!(tsv.contains("growMap aggregate-u64"));
            }
            "latency" => {
                // 3 tables (folklore control, uaGrow, paGrow) × 3 op
                // classes × |threads|, drawn as 4 percentiles.
                let tables = ["folklore", "uaGrow", "paGrow"];
                assert_eq!(record.points.len(), tables.len() * 3 * p);
                assert!(tables.iter().all(|t| has(t)), "a latency table is missing");
                for point in &record.points {
                    let pct: Vec<f64> = ["p50_ns", "p99_ns", "p999_ns", "max_ns"]
                        .map(|name| point.get(name).unwrap().as_f64())
                        .to_vec();
                    assert!(
                        pct.windows(2).all(|w| w[0] <= w[1]),
                        "{point:?}: not monotonic"
                    );
                    let migrations = point.get("migrations").unwrap().as_f64();
                    if point.get("table") == Some(Value::Str("folklore")) {
                        assert_eq!(migrations, 0.0, "pre-sized control migrated");
                    } else {
                        assert!(migrations >= 1.0, "{point:?}: never migrated");
                    }
                }
                assert_eq!(series.len(), tables.len() * 3 * 4);
                assert!(tsv.contains("uaGrow insert p999_ns"));
            }
            "fig4a" | "fig4b" | "fig5a" | "fig5b" => {
                assert!(series.iter().all(|s| s.points.len() == cfg.zipf_s.len()));
            }
            "fig7a" | "fig7b" => {
                assert!(series
                    .iter()
                    .all(|s| s.points.len() == cfg.write_percents.len()));
            }
            "fig10" => {
                // 10 tables × 6 initial capacities, drawn as bytes and MOps/s
                // (the bytes read 0 here, without the tracking allocator:
                // `tests/fig10_memory.rs` checks them).
                assert_eq!(record.points.len(), 10 * 6);
                assert!(tsv.contains("uaGrow threads=2 bytes"));
            }
            "ablation_block" => assert_eq!(record.points.len(), 4),
            _ => {
                assert!(series.iter().all(|s| s.points.len() == p), "{}", record.id);
            }
        }
    }

    /// The checks every smoke record must pass: at least one point,
    /// every point carrying the drawn fields (and `spread` beside each
    /// `mops`), the id's own checks, and one JSON row per point. Returns
    /// the record's block.
    fn check_record(cfg: &HarnessConfig, id: &str, record: &Record) -> String {
        assert_eq!(record.id, id);
        assert!(!record.points.is_empty(), "{id}: no points");
        for point in &record.points {
            for field in ["table", record.x].iter().chain(record.y) {
                assert!(point.get(field).is_some(), "{id}: no {field} in {point:?}");
            }
            if let Some(mops) = point.get("mops") {
                assert!(mops.as_f64() > 0.0, "{id}: {point:?}");
                assert!(point.get("spread").is_some(), "{id}: no spread");
            }
        }
        check_figure(cfg, record);
        let block = record.block(cfg);
        assert_eq!(block.matches("{\"table\"").count(), record.points.len());
        block
    }

    /// Runs the measured figure `id` at [`smoke_config`] through
    /// [`check_record`] and merges its block into a fresh record.
    fn smoke(id: &str) -> (Record, String) {
        let cfg = smoke_config();
        let (_, run) = FIGURES.iter().find(|(name, _)| *name == id).unwrap();
        let record = run(&cfg);
        let block = check_record(&cfg, id, &record);
        let json = merge_hotpath_json(None, id, &block);
        assert!(json.contains("\"schema\": \"growt-bench/hotpath-v2\""));
        assert!(json.contains(&format!("\"figure\": \"{id}\"")));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches("{\"table\"").count(), record.points.len());
        (record, json)
    }

    /// Merges `record` into a record holding a one-point stand-in block
    /// for each of `prior`, and checks that every key survives once.
    fn merge_over(prior: &[&'static str], record: &Record) -> String {
        let cfg = smoke_config();
        let mut doc = None::<String>;
        for &id in prior {
            let stand_in = Record {
                id,
                title: id,
                x: "threads",
                y: &["mops"],
                points: vec![Point::new("x")],
            };
            doc = Some(merge_hotpath_json(
                doc.as_deref(),
                id,
                &stand_in.block(&cfg),
            ));
        }
        let merged = merge_hotpath_json(doc.as_deref(), record.id, &record.block(&cfg));
        for id in prior.iter().chain([&record.id]) {
            let key = format!("\"figure\": \"{id}\"");
            assert_eq!(
                merged.matches(&key).count(),
                1,
                "merge lost or doubled {id}"
            );
        }
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
        merged
    }

    #[test]
    fn smoke_ablation_batch_and_json() {
        let (_, json) = smoke("ablation_batch");
        assert!(json.contains("\"table\": \"uaGrow\""));
        assert!(json.contains("\"batch\""));
        assert!(!json.contains("uaGrow-simd"));
    }

    #[test]
    fn smoke_scaling_points_and_figure() {
        let (_, json) = smoke("scaling");
        assert!(json.contains("\"hash\": \"crc\""));
        assert!(!json.contains("uaGrow-simd"));
    }

    #[test]
    fn smoke_ablation_probe_points_and_json() {
        let (_, json) = smoke("ablation_probe");
        assert!(json.contains("\"op\": \"find_miss\""));
        assert!(json.contains("\"load\": 0.9"));
    }

    #[test]
    fn smoke_wordcount_points_and_json() {
        let (record, json) = smoke("wordcount");
        assert!(record.to_tsv().contains("stringGrow"));
        assert!(json.contains("\"table\": \"stringFolklore\""));
        // Merged into a record that already holds the scaling figure, it
        // keeps both figure keys.
        let merged = merge_over(&["scaling"], &record);
        assert!(merged.contains("\"table\": \"stringFolklore\""));
    }

    #[test]
    fn smoke_typed_points_and_json() {
        let (record, json) = smoke("typed");
        assert!(record.to_tsv().contains("growMap aggregate-u64"));
        assert!(json.contains("\"workload\": \"aggregate-u64\""));
        // Merged into a record that already holds every other hot-path
        // key, it keeps all of them.
        let prior = [
            "ablation_batch",
            "scaling",
            "wordcount",
            "ablation_probe",
            "latency",
        ];
        let merged = merge_over(&prior, &record);
        assert!(merged.contains("\"table\": \"growMap\""));
    }

    #[test]
    fn smoke_latency_points_and_json() {
        let (_, json) = smoke("latency");
        assert!(json.contains("\"p999_ns\""));
        assert!(json.contains("\"migrations\""));
        assert!(!json.contains("uaGrow-k"));
    }

    /// Every measured id at [`smoke_config`] through [`check_record`],
    /// and a block that replaces itself in place when merged again.
    #[test]
    fn every_measured_figure_records_and_merges_in_place() {
        let cfg = smoke_config();
        let mut doc = None::<String>;
        let mut blocks = Vec::new();
        for (id, run) in FIGURES {
            let block = check_record(&cfg, id, &run(&cfg));
            let merged = merge_hotpath_json(doc.as_deref(), id, &block);
            assert_eq!(merged.matches(&format!("\"figure\": \"{id}\"")).count(), 1);
            assert_eq!(merged.matches('{').count(), merged.matches('}').count());
            doc = Some(merged);
            blocks.push((id, block));
        }
        // Merged again into the whole record, each block takes its own
        // place: the document does not change.
        let doc = doc.unwrap();
        for (id, block) in &blocks {
            assert_eq!(merge_hotpath_json(Some(&doc), id, block), doc, "{id} moved");
        }
        assert!(doc.contains("\"schema\": \"growt-bench/hotpath-v2\""));
        assert!(doc.contains("\"hash\": \"crc\""));
        assert!(doc.contains("\"p999_ns\""));
    }

    #[test]
    fn fig11_honors_thread_override() {
        let mut cfg = smoke_config();
        cfg.ops = 5_000;
        cfg.threads = vec![2];
        cfg.threads_overridden = true;
        let record = fig11b(&cfg);
        assert!(!record.points.is_empty());
        assert!(record
            .points
            .iter()
            .all(|p| p.get("threads") == Some(Value::Int(2))));
    }

    #[test]
    fn hotpath_json_merges_by_figure_key() {
        let cfg = smoke_config();
        let record = |id, mops: f64| Record {
            points: vec![Point::new("folklore")
                .dim("op", "find")
                .dim("threads", 2usize)
                .metric("mops", mops)],
            ..throughput(id, "test", "threads", Vec::new())
        };
        // Fresh file, then append a second figure: both survive.
        let v2 = merge_hotpath_json(
            None,
            "ablation_batch",
            &record("ablation_batch", 12.5).block(&cfg),
        );
        let merged = merge_hotpath_json(Some(&v2), "scaling", &record("scaling", 9.25).block(&cfg));
        assert!(merged.contains("\"figure\": \"ablation_batch\""));
        assert!(merged.contains("\"figure\": \"scaling\""));
        assert!(merged.contains("\"mops\": 12.5}"));
        assert!(merged.contains("\"mops\": 9.25}"));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
        assert_eq!(merged.matches('[').count(), merged.matches(']').count());

        // Re-running a figure replaces its block instead of duplicating it.
        let rerun = merge_hotpath_json(
            Some(&merged),
            "ablation_batch",
            &record("ablation_batch", 14.0).block(&cfg),
        );
        assert_eq!(rerun.matches("\"figure\": \"ablation_batch\"").count(), 1);
        assert!(rerun.contains("\"mops\": 14}"));
        assert!(!rerun.contains("\"mops\": 12.5}"));
        assert!(rerun.contains("\"mops\": 9.25}"), "other figure dropped");
        assert!(
            rerun.find("ablation_batch") < rerun.find("\"scaling\""),
            "block moved"
        );

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
        let point = Point::new("folklore-simd")
            .dim("threads", 4usize)
            .metric("mops", 1.0);
        let record = Record {
            points: vec![point],
            ..throughput("scaling", "test", "threads", Vec::new())
        };
        let merged = merge_hotpath_json(Some(&existing), "scaling", &record.block(&cfg));
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
        assert!(!fig6(&cfg).points.is_empty());
        assert!(!fig7b(&cfg).points.is_empty());
        assert!(!fig8a(&cfg).points.is_empty());
        assert!(!ablation_block(&cfg).points.is_empty());
        assert!(fig10(&cfg).to_tsv().lines().count() > 6);
    }
}
