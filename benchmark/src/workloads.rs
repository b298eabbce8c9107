//! The four workloads.  Each owns its seeded inputs and their sequential
//! oracle, builds fresh tables, issues a fixed number of operations
//! through an [`OpWrap`], and checks what came back.
//!
//! Only the facade is used: `GrowMap::{new, handle, migrations_completed,
//! current_capacity, size_exact_quiescent}` and the handle's `insert`,
//! `find`, `insert_or_update`.
//!
//! Sizes are constants — the same for every seed — chosen so that table
//! plus input stream stay inside one core's L2 (README.md, "Workloads").

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use growt_repro::growt_alloc_track as alloc_track;
use growt_repro::growt_workloads::keys::RESERVED_KEYS;
use growt_repro::growt_workloads::{
    uniform_distinct_keys, word_vocabulary, Clock, Mt64, SplitMix64, WordCorpus, ZipfSampler,
};
use growt_repro::prelude::{GrowMap, KeyRepr};

use crate::opwrap::{Handicap, Mode, OpWrap, PlainOps, Recorded, TimedOps, CHUNK};
use crate::pool::Worker;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "lookup_resident",
    "insert_grow",
    "aggregate_zipf",
    "wordcount_string",
];

/// Stored value of key `k` in the workloads that insert `u64` pairs.
pub const VALUE_SALT: u64 = 0x5851_F42D_4C95_7F2D;
/// "No value" in a precomputed expectation (no stored value equals it).
pub const ABSENT: u64 = u64::MAX;
/// Bytes of one table cell.
const CELL_BYTES: u64 = 16;
/// Cell arrays of at least this size are mapped in multiples of it,
/// bypassing the tracked allocator (`growt_core::mem::HUGEPAGE_THRESHOLD`).
const MAPPED_FROM_BYTES: u64 = 2 << 20;

/// What one worker did in one rep.
pub struct RepOut {
    /// The timed region and what was issued and checked.
    pub counts: Counts,
    /// Unit times, latencies and spans, as the rep's mode has them.
    pub recorded: Recorded,
}

/// The counts a workload hands back from a build or a rep.
#[derive(Default)]
pub struct Counts {
    /// Clock reading when the worker entered the timed region.
    pub start: u64,
    /// Clock reading when it left.
    pub end: u64,
    /// Table operations issued inside the timed region, each result
    /// compared with the oracle as it came back.
    pub ops: u64,
    /// Further oracle comparisons, made outside the region.
    pub checks: u64,
    /// Results of either kind that disagreed with the oracle.
    pub failed: u64,
}

impl Counts {
    fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.failed += !ok as u64;
    }
}

/// Per-rep settings chosen by the driver.
#[derive(Clone, Copy)]
pub struct RepCtx {
    /// Instrumentation.
    pub mode: Mode,
    /// Record spans as well (the traced run).
    pub traced: bool,
    /// Added per-op work (`aa.sh` only).
    pub handicap: Handicap,
    /// Running number of the rep in the run; varies the access order.
    pub rep_no: u64,
}

/// Result of the dedicated 1-thread pass: numbers that repeat exactly for
/// a given seed.
#[derive(Debug, Default)]
pub struct Exact {
    /// Bytes held by the table after the pass (tracked + mapped).
    pub table_bytes: u64,
    /// Live elements.
    pub elems: u64,
    /// Completed migrations.
    pub migrations: u64,
    /// Final capacity, cells.
    pub capacity: u64,
    /// Operations of the pass whose allocations were counted.
    pub ops: u64,
    /// Allocator calls during those operations.
    pub allocs: u64,
    /// Bytes requested during those operations.
    pub alloc_bytes: u64,
    /// Oracle comparisons made besides the operations' own results.
    pub checks: u64,
    /// Results that disagreed with the oracle.
    pub failed: u64,
}

/// A workload as the driver sees it.
pub trait Workload: Send + Sync {
    /// Build what a block of reps shares (run on worker 0 alone).
    fn build_block(&self, w: &Worker<'_>, ctx: RepCtx) -> RepOut;
    /// One rep, run on `w.parties` workers at once.
    fn rep(&self, w: &Worker<'_>, ctx: RepCtx) -> RepOut;
    /// The exact pass.  Run while the process has no other thread, so that
    /// the allocator's counters see this pass only.
    fn exact_pass(&self, clock: Clock) -> Exact;
    /// Whether the workers of a rep write to memory the others use.  It
    /// decides which end of the unit-time distribution repeats from run to
    /// run (README.md, "Estimators").
    fn threads_interact(&self) -> bool;
    /// How long [`make`] spent building the sequential oracle, seconds: the
    /// checker's apparatus, not the inputs', which `setup_s` leaves out (a
    /// 2 MiB `HashMap` is the most weather-exposed work of a set-up).
    fn oracle_seconds(&self) -> f64;
}

/// The workload-specific part, generic over the op wrapper.
pub trait Body: Send + Sync {
    /// See [`Workload::threads_interact`].
    const THREADS_INTERACT: bool;
    /// See [`Workload::build_block`].
    fn build<W: OpWrap>(&self, _wrap: &mut W) -> Counts {
        Counts::default()
    }
    /// See [`Workload::rep`].
    fn run<W: OpWrap>(&self, w: &Worker<'_>, wrap: &mut W, rep_no: u64) -> Counts;
    /// See [`Workload::exact_pass`].
    fn exact(&self, clock: Clock) -> Exact;
    /// See [`Workload::oracle_seconds`]; 0 where the oracle is a count
    /// array filled in passing.
    fn oracle_seconds(&self) -> f64 {
        0.0
    }
}

/// Run `stage` under the wrapper `ctx.mode` selects, inside a span `name`.
fn staged<W: OpWrap>(
    mut wrap: W,
    name: &'static str,
    stage: impl FnOnce(&mut W) -> Counts,
) -> RepOut {
    wrap.span_begin(name);
    let counts = stage(&mut wrap);
    wrap.span_end(counts.ops);
    RepOut {
        counts,
        recorded: wrap.finish(),
    }
}

/// Expands to the `match` over [`Mode`] that monomorphizes `$stage` (an
/// expression generic in its wrapper argument) once per wrapper type.
macro_rules! by_mode {
    ($w:expr, $ctx:expr, $name:expr, |$wrap:ident| $stage:expr) => {
        match $ctx.mode {
            Mode::Plain => staged(
                PlainOps::new($w.clock, $ctx.handicap, $ctx.traced),
                $name,
                |$wrap| $stage,
            ),
            Mode::Timed => staged(
                TimedOps::new($w.clock, $ctx.handicap, $ctx.traced),
                $name,
                |$wrap| $stage,
            ),
        }
    };
}

impl<B: Body> Workload for B {
    fn build_block(&self, w: &Worker<'_>, ctx: RepCtx) -> RepOut {
        by_mode!(w, ctx, "block.build", |wrap| self.build(wrap))
    }

    fn rep(&self, w: &Worker<'_>, ctx: RepCtx) -> RepOut {
        by_mode!(w, ctx, "rep", |wrap| self.run(w, wrap, ctx.rep_no))
    }

    fn exact_pass(&self, clock: Clock) -> Exact {
        self.exact(clock)
    }

    fn threads_interact(&self) -> bool {
        B::THREADS_INTERACT
    }

    fn oracle_seconds(&self) -> f64 {
        Body::oracle_seconds(self)
    }
}

/// Build the named workload's inputs from `seed`.  `quick` shortens the
/// reps (same tables, fewer operations); its numbers are not comparable
/// with a full run's.
pub fn make(name: &str, seed: u64, quick: bool) -> Option<Arc<dyn Workload>> {
    Some(match name {
        "lookup_resident" => Arc::new(LookupResident::new(seed, quick)),
        "insert_grow" => Arc::new(InsertGrow::new(seed, quick)),
        "aggregate_zipf" => Arc::new(Aggregate::zipf(seed, quick)),
        "wordcount_string" => Arc::new(Aggregate::wordcount(seed, quick)),
        _ => return None,
    })
}

/// Allocator counters at a point in time.
struct AllocMark {
    live: u64,
    calls: u64,
    bytes: u64,
}

impl AllocMark {
    fn now() -> Self {
        AllocMark {
            live: alloc_track::current_bytes(),
            calls: alloc_track::allocation_count(),
            bytes: alloc_track::total_allocated_bytes(),
        }
    }
}

/// Bytes a table of `capacity` cells holds, given the growth of tracked
/// live bytes since before it was created: a cell array the allocator did
/// not see was mapped, in whole multiples of [`MAPPED_FROM_BYTES`].
fn table_bytes(tracked: u64, capacity: usize) -> u64 {
    let cells = capacity as u64 * CELL_BYTES;
    if tracked >= cells {
        tracked
    } else {
        tracked + cells.div_ceil(MAPPED_FROM_BYTES) * MAPPED_FROM_BYTES
    }
}

/// A slot through which worker 0 hands a rep's fresh table(s) to the rest.
struct Shared<T>(Mutex<Option<Arc<T>>>);

impl<T> Shared<T> {
    fn empty() -> Self {
        Shared(Mutex::new(None))
    }

    /// Worker 0 creates the value, everyone gets it.  Two barriers: the
    /// value is published before anyone reads, and read by everyone before
    /// [`Shared::retire`] may clear it.
    fn publish(&self, w: &Worker<'_>, create: impl FnOnce() -> T) -> Arc<T> {
        if w.tid == 0 {
            *self.0.lock().expect("slot poisoned") = Some(Arc::new(create()));
        }
        w.barrier();
        let value = Arc::clone(
            self.0
                .lock()
                .expect("slot poisoned")
                .as_ref()
                .expect("published"),
        );
        w.barrier();
        value
    }

    /// Worker 0 empties the slot; the value drops with its last `Arc`.
    fn retire(&self, w: &Worker<'_>) {
        if w.tid == 0 {
            self.0.lock().expect("slot poisoned").take();
        }
    }
}

/// The contiguous share of `len` items that worker `tid` of `parties` owns.
fn share(len: usize, tid: usize, parties: usize) -> std::ops::Range<usize> {
    len * tid / parties..len * (tid + 1) / parties
}

// ---------------------------------------------------------------------------
// lookup_resident
// ---------------------------------------------------------------------------

/// Finds on a prefilled, never-growing table: the read path alone.
struct LookupResident {
    seed: u64,
    /// The resident pairs, in insertion order.
    prefill: Vec<(u64, u64)>,
    /// Probe key and the oracle's answer for it ([`ABSENT`] for none);
    /// every eighth entry is a key that was never inserted.
    stream: Vec<(u64, u64)>,
    oracle_s: f64,
    finds_per_rep: usize,
    table: RwLock<Option<Arc<GrowMap<u64, u64>>>>,
}

/// `(key, value)` pairs.
pub type Pairs = Vec<(u64, u64)>;

/// Resident keys of `lookup_resident`.
pub const LOOKUP_RESIDENT: usize = 1 << 14;

/// The keys of `lookup_resident`: the resident ones, then an eighth as many
/// that are never inserted.
fn lookup_keys(seed: u64) -> Vec<u64> {
    uniform_distinct_keys(LOOKUP_RESIDENT + LOOKUP_RESIDENT / 8, seed)
}

/// The inputs of `lookup_resident`: the pairs to prefill, and the probe
/// stream as `(key, the sequential oracle's answer or [`ABSENT`])`, every
/// eighth key one that was never inserted.
pub fn lookup_inputs(seed: u64) -> (Pairs, Pairs) {
    lookup_pairs(&lookup_keys(seed))
}

fn lookup_pairs(keys: &[u64]) -> (Pairs, Pairs) {
    let (resident, absent) = keys.split_at(LOOKUP_RESIDENT);
    let prefill: Vec<(u64, u64)> = resident.iter().map(|&k| (k, k ^ VALUE_SALT)).collect();
    let oracle: HashMap<u64, u64> = prefill.iter().copied().collect();
    let stream = (0..LOOKUP_RESIDENT)
        .map(|i| {
            let key = if i % 8 == 7 {
                absent[i / 8]
            } else {
                resident[i]
            };
            (key, oracle.get(&key).copied().unwrap_or(ABSENT))
        })
        .collect();
    (prefill, stream)
}

impl LookupResident {
    fn new(seed: u64, quick: bool) -> Self {
        let keys = lookup_keys(seed);
        let checking = Instant::now();
        let (prefill, stream) = lookup_pairs(&keys);
        LookupResident {
            seed,
            prefill,
            stream,
            oracle_s: checking.elapsed().as_secs_f64(),
            finds_per_rep: if quick { 1 << 18 } else { 1 << 22 },
            table: RwLock::new(None),
        }
    }

    fn built<W: OpWrap>(&self, wrap: &mut W, counts: &mut Counts) -> GrowMap<u64, u64> {
        wrap.span_begin("generic.build");
        let map = GrowMap::new(LOOKUP_RESIDENT);
        wrap.span_end(0);
        wrap.span_begin("generic.prefill");
        let mut handle = map.handle();
        for (key, value) in &self.prefill {
            counts.check(handle.insert(key, value));
        }
        drop(handle);
        wrap.span_end(self.prefill.len() as u64);
        counts.check(map.size_exact_quiescent() == self.prefill.len());
        map
    }
}

impl Body for LookupResident {
    const THREADS_INTERACT: bool = false;

    fn build<W: OpWrap>(&self, wrap: &mut W) -> Counts {
        let mut counts = Counts::default();
        let map = self.built(wrap, &mut counts);
        *self.table.write().expect("table lock poisoned") = Some(Arc::new(map));
        counts
    }

    fn run<W: OpWrap>(&self, w: &Worker<'_>, wrap: &mut W, rep_no: u64) -> Counts {
        let map = Arc::clone(
            self.table
                .read()
                .expect("table lock poisoned")
                .as_ref()
                .expect("block built before its reps"),
        );
        let mut handle = map.handle();
        let gauge = || map.migrations_completed();
        // Visit the stream in a per-rep, per-worker odd-stride order.
        let mut rng = SplitMix64::new(self.seed ^ (rep_no << 8) ^ w.tid as u64);
        let mask = self.stream.len() - 1;
        let stride = (rng.next_u64() as usize | 1) & mask;
        let mut at = rng.next_u64() as usize & mask;
        let mut counts = Counts {
            start: w.sync(),
            ..Counts::default()
        };
        for _ in 0..self.finds_per_rep / CHUNK {
            wrap.unit_begin();
            for _ in 0..CHUNK {
                let (key, want) = self.stream[at];
                let got = wrap.op(&gauge, || handle.find(&key));
                counts.failed += (got.unwrap_or(ABSENT) != want) as u64;
                at = (at + stride) & mask;
            }
            wrap.unit_end(CHUNK as u64);
        }
        counts.end = w.clock.now();
        counts.ops = self.finds_per_rep as u64;
        counts
    }

    fn oracle_seconds(&self) -> f64 {
        self.oracle_s
    }

    fn exact(&self, clock: Clock) -> Exact {
        let mut counts = Counts::default();
        let before = AllocMark::now();
        let map = self.built(
            &mut PlainOps::new(clock, Handicap::NONE, false),
            &mut counts,
        );
        let built = AllocMark::now();
        // The handle's own allocations are not the finds'.
        let mut handle = map.handle();
        let finding = AllocMark::now();
        for (key, want) in &self.stream {
            counts.failed += (handle.find(key).unwrap_or(ABSENT) != *want) as u64;
        }
        let after = AllocMark::now();
        drop(handle);
        Exact {
            table_bytes: table_bytes(built.live - before.live, map.current_capacity()),
            elems: map.size_exact_quiescent() as u64,
            migrations: map.migrations_completed(),
            capacity: map.current_capacity() as u64,
            ops: self.stream.len() as u64,
            allocs: after.calls - finding.calls,
            alloc_bytes: after.bytes - finding.bytes,
            checks: counts.checks,
            failed: counts.failed,
        }
    }
}

// ---------------------------------------------------------------------------
// insert_grow
// ---------------------------------------------------------------------------

/// Distinct-key inserts into small fresh tables: the growth path.
struct InsertGrow {
    keys: Vec<u64>,
    oracle: HashMap<u64, u64>,
    oracle_s: f64,
    tables_per_rep: usize,
    tables: Shared<Vec<GrowMap<u64, u64>>>,
}

/// The distinct keys `insert_grow` fills each of its tables with.
pub fn insert_keys(seed: u64) -> Vec<u64> {
    uniform_distinct_keys(1 << 16, seed)
}

/// Capacity hint every growing table of the benchmark starts from.
pub const INITIAL_CAPACITY: usize = 1024;

impl InsertGrow {
    fn new(seed: u64, quick: bool) -> Self {
        let keys = insert_keys(seed);
        let checking = Instant::now();
        let oracle = keys.iter().map(|&k| (k, k ^ VALUE_SALT)).collect();
        InsertGrow {
            keys,
            oracle,
            oracle_s: checking.elapsed().as_secs_f64(),
            tables_per_rep: if quick { 2 } else { 16 },
            tables: Shared::empty(),
        }
    }

    /// Insert `keys` into `map` through `wrap`: one unit, so that every
    /// unit holds the table's whole growth history.
    fn fill<W: OpWrap>(map: &GrowMap<u64, u64>, keys: &[u64], wrap: &mut W, counts: &mut Counts) {
        let gauge = || map.migrations_completed();
        wrap.unit_begin();
        let mut handle = map.handle();
        for chunk in keys.chunks(CHUNK) {
            wrap.span_begin("chunk");
            for key in chunk {
                let inserted = wrap.op(&gauge, || handle.insert(key, &(key ^ VALUE_SALT)));
                counts.failed += !inserted as u64;
            }
            wrap.span_end(chunk.len() as u64);
        }
        drop(handle);
        wrap.unit_end(keys.len() as u64);
        counts.ops += keys.len() as u64;
    }

    fn verify(&self, map: &GrowMap<u64, u64>, keys: &[u64], counts: &mut Counts) {
        let mut handle = map.handle();
        for key in keys {
            counts.check(handle.find(key) == self.oracle.get(key).copied());
        }
    }
}

impl Body for InsertGrow {
    const THREADS_INTERACT: bool = true;

    fn run<W: OpWrap>(&self, w: &Worker<'_>, wrap: &mut W, rep_no: u64) -> Counts {
        wrap.span_begin("generic.build");
        let tables = self.tables.publish(w, || {
            (0..self.tables_per_rep)
                .map(|_| GrowMap::new(INITIAL_CAPACITY))
                .collect()
        });
        wrap.span_end(0);
        let mine = &self.keys[share(self.keys.len(), w.tid, w.parties)];
        let mut counts = Counts {
            start: w.sync(),
            ..Counts::default()
        };
        for (index, map) in tables.iter().enumerate() {
            // All workers fill the same table: nobody starts the next one
            // until this one is full.
            if index > 0 {
                w.barrier();
            }
            Self::fill(map, mine, wrap, &mut counts);
        }
        counts.end = w.clock.now();
        w.barrier();

        wrap.span_begin("verify");
        if w.tid == 0 {
            for map in tables.iter() {
                counts.check(map.size_exact_quiescent() == self.keys.len());
            }
        }
        let sampled = &tables[rep_no as usize % tables.len()];
        self.verify(sampled, mine, &mut counts);
        wrap.span_end(0);
        w.barrier();
        self.tables.retire(w);
        counts
    }

    fn oracle_seconds(&self) -> f64 {
        self.oracle_s
    }

    fn exact(&self, clock: Clock) -> Exact {
        let mut counts = Counts::default();
        let before = AllocMark::now();
        let map = GrowMap::new(INITIAL_CAPACITY);
        Self::fill(
            &map,
            &self.keys,
            &mut PlainOps::new(clock, Handicap::NONE, false),
            &mut counts,
        );
        let after = AllocMark::now();
        self.verify(&map, &self.keys, &mut counts);
        Exact {
            table_bytes: table_bytes(after.live - before.live, map.current_capacity()),
            elems: map.size_exact_quiescent() as u64,
            migrations: map.migrations_completed(),
            capacity: map.current_capacity() as u64,
            ops: counts.ops,
            allocs: after.calls - before.calls,
            alloc_bytes: after.bytes - before.bytes,
            checks: counts.checks,
            failed: counts.failed,
        }
    }
}

// ---------------------------------------------------------------------------
// aggregate_zipf and wordcount_string
// ---------------------------------------------------------------------------

/// `insert_or_update(key, 1, +1)` over a cycled Zipf stream of indices
/// into a dictionary of keys, on a fresh table per rep: contended value
/// updates (`u64` keys) or the complex-key path (`String` keys).
struct Aggregate<K: KeyRepr> {
    dictionary: Vec<K>,
    /// Indices into `dictionary`; length a power of two.
    stream: Vec<u32>,
    /// Oracle: occurrences of each dictionary entry in one stream cycle.
    occurrences: Vec<u64>,
    /// Stream cycles each worker issues per rep.
    cycles: usize,
    table: Shared<GrowMap<K, u64>>,
}

/// `len` Zipf(1.0)-distributed indices into a dictionary of `universe`
/// entries, most frequent first.
fn zipf_indices(universe: usize, len: usize, seed: u64) -> Vec<u32> {
    let sampler = ZipfSampler::new(universe as u64, 1.0);
    let mut rng = Mt64::new(seed);
    (0..len)
        .map(|_| (sampler.sample(&mut rng) - 1) as u32)
        .collect()
}

/// Entries of one cycle of a Zipf stream.  With the dictionaries below,
/// stream, dictionary and table stay within ~600 KiB: a 1.3 MiB set (2^15
/// keys under a 2^17-entry stream) lost 20 % of its 1-thread rate for
/// minutes at a time while `lookup_resident`'s 768 KiB, measured in between,
/// did not move (README.md, "Workloads").
const ZIPF_STREAM: usize = 1 << 16;

/// The inputs of `aggregate_zipf`: the key universe (Zipf rank order) and
/// one stream cycle of indices into it.  6 631 ± 33 of the 2^13 keys occur
/// in a cycle: 2^14 cells at load 0.40, midway between the loads (0.3,
/// 0.6) at which a seed would end with a table of another size.
pub fn zipf_inputs(seed: u64) -> (Vec<u64>, Vec<u32>) {
    const UNIVERSE: usize = 1 << 13;
    let dictionary = (1..=UNIVERSE as u64).map(|k| k + RESERVED_KEYS).collect();
    (dictionary, zipf_indices(UNIVERSE, ZIPF_STREAM, seed))
}

/// The inputs of `wordcount_string`: the vocabulary (Zipf rank order) and
/// one stream cycle of indices into it.  3 896 ± 13 of the 2^12 words occur
/// in a cycle: 2^13 cells at load 0.48.
///
/// The words are the same for every seed and only their order in the
/// stream is seeded: which words are hot — their lengths, the cells they
/// hash to — is worth ±10 % of this workload's speed, and the seed is
/// there to vary the input, not the program's luck.
pub fn wordcount_inputs(seed: u64) -> (Vec<String>, Vec<u32>) {
    const VOCABULARY: usize = 1 << 12;
    (
        word_vocabulary(VOCABULARY, 0x5743_5953),
        zipf_indices(VOCABULARY, ZIPF_STREAM, seed),
    )
}

impl Aggregate<u64> {
    /// 2^21 updates per worker and rep.
    fn zipf(seed: u64, quick: bool) -> Self {
        let (dictionary, stream) = zipf_inputs(seed);
        Self::over(dictionary, stream, if quick { 1 } else { 32 })
    }
}

impl Aggregate<String> {
    /// 2^19 updates per worker and rep.
    fn wordcount(seed: u64, quick: bool) -> Self {
        let (vocabulary, stream) = wordcount_inputs(seed);
        let corpus = WordCorpus { vocabulary, stream };
        let expected = corpus.expected_counts();
        let workload = Self::over(corpus.vocabulary, corpus.stream, if quick { 1 } else { 8 });
        assert_eq!(workload.occurrences, expected, "the two oracles disagree");
        workload
    }
}

impl<K: KeyRepr> Aggregate<K> {
    fn over(dictionary: Vec<K>, stream: Vec<u32>, cycles: usize) -> Self {
        assert!(stream.len().is_power_of_two());
        let mut occurrences = vec![0u64; dictionary.len()];
        for &index in &stream {
            occurrences[index as usize] += 1;
        }
        Aggregate {
            dictionary,
            stream,
            occurrences,
            cycles,
            table: Shared::empty(),
        }
    }

    /// Issue `cycles` stream cycles starting at `offset`, one unit per chunk.
    fn ingest<W: OpWrap>(
        &self,
        map: &GrowMap<K, u64>,
        offset: usize,
        cycles: usize,
        wrap: &mut W,
    ) -> u64 {
        let gauge = || map.migrations_completed();
        let mut handle = map.handle();
        let mask = self.stream.len() - 1;
        let ops = cycles * self.stream.len();
        let mut at = offset;
        for _ in 0..ops / CHUNK {
            wrap.unit_begin();
            for _ in 0..CHUNK {
                let key = &self.dictionary[self.stream[at & mask] as usize];
                wrap.op(&gauge, || {
                    handle.insert_or_update(key, &1, |count| count + 1)
                });
                at += 1;
            }
            wrap.unit_end(CHUNK as u64);
        }
        ops as u64
    }

    /// Compare the counts of dictionary entries `range` with the oracle's,
    /// `passes` stream cycles having been ingested in total.
    fn verify(
        &self,
        map: &GrowMap<K, u64>,
        range: std::ops::Range<usize>,
        passes: u64,
        counts: &mut Counts,
    ) {
        let mut handle = map.handle();
        for index in range {
            let want = match self.occurrences[index] {
                0 => None,
                n => Some(n * passes),
            };
            counts.check(handle.find(&self.dictionary[index]) == want);
        }
    }

    fn distinct(&self) -> usize {
        self.occurrences.iter().filter(|&&n| n > 0).count()
    }
}

impl<K: KeyRepr> Body for Aggregate<K> {
    const THREADS_INTERACT: bool = true;

    fn run<W: OpWrap>(&self, w: &Worker<'_>, wrap: &mut W, _rep_no: u64) -> Counts {
        wrap.span_begin("generic.build");
        let map = self.table.publish(w, || GrowMap::new(INITIAL_CAPACITY));
        wrap.span_end(0);
        let offset = share(self.stream.len(), w.tid, w.parties).start;
        let mut counts = Counts {
            start: w.sync(),
            ..Counts::default()
        };
        counts.ops = self.ingest(&map, offset, self.cycles, wrap);
        counts.end = w.clock.now();
        w.barrier();

        wrap.span_begin("verify");
        let passes = (self.cycles * w.parties) as u64;
        let mine = share(self.dictionary.len(), w.tid, w.parties);
        self.verify(&map, mine, passes, &mut counts);
        if w.tid == 0 {
            counts.check(map.size_exact_quiescent() == self.distinct());
        }
        wrap.span_end(0);
        w.barrier();
        self.table.retire(w);
        counts
    }

    fn exact(&self, clock: Clock) -> Exact {
        let mut counts = Counts::default();
        let before = AllocMark::now();
        let map = GrowMap::new(INITIAL_CAPACITY);
        let ops = self.ingest(&map, 0, 1, &mut PlainOps::new(clock, Handicap::NONE, false));
        let after = AllocMark::now();
        self.verify(&map, 0..self.dictionary.len(), 1, &mut counts);
        Exact {
            table_bytes: table_bytes(after.live - before.live, map.current_capacity()),
            elems: map.size_exact_quiescent() as u64,
            migrations: map.migrations_completed(),
            capacity: map.current_capacity() as u64,
            ops,
            allocs: after.calls - before.calls,
            alloc_bytes: after.bytes - before.bytes,
            checks: counts.checks,
            failed: counts.failed,
        }
    }
}
