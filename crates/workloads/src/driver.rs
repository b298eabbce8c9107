//! Generic multi-threaded benchmark drivers.
//!
//! The paper drives every table through the same measurement loop: `p`
//! threads pull blocks of 4096 operations from a shared counter and execute
//! them against the table through their private handles (§8.3).  The
//! functions here implement that loop once, generically over
//! [`ConcurrentMap`], and are reused by the integration tests, the examples
//! and the figure harness.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use growt_iface::{ConcurrentMap, GenericMap, GenericMapHandle, MapHandle};

use crate::keys::{DeletionWorkload, MixedOp, MixedWorkload, ZipfMixedOp, ZipfMixedWorkload};
use crate::latency::{Clock, LatencyHistogram};
use crate::scheduler::BlockScheduler;
use crate::stats::Measurement;
use crate::words::WordCorpus;

/// Run `total` operations on `table` with `threads` threads.
///
/// `op` is called once per operation index with the thread's handle; its
/// return value is accumulated into the measurement's `aux` counter (used
/// e.g. to count successful finds).  The elapsed time covers the whole
/// parallel region, matching the paper's timed section.
pub fn run_parallel<M, F>(table: &M, threads: usize, total: usize, op: F) -> Measurement
where
    M: ConcurrentMap,
    F: Fn(&mut M::Handle<'_>, usize) -> u64 + Sync,
{
    assert!(threads > 0);
    let scheduler = BlockScheduler::new(total);
    let aux_total = AtomicU64::new(0);
    let op = &op;
    let scheduler = &scheduler;
    let aux_ref = &aux_total;

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut handle = table.handle();
                let mut aux = 0u64;
                while let Some(range) = scheduler.next_block() {
                    for i in range {
                        aux = aux.wrapping_add(op(&mut handle, i));
                    }
                    // One quiescent point per block: QSBR-style tables
                    // reclaim memory here, everyone else ignores it.
                    handle.quiesce();
                }
                aux_ref.fetch_add(aux, Ordering::Relaxed);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        seconds,
        ops: total,
        aux: aux_total.load(Ordering::Relaxed),
    }
}

/// Insert all `keys` (value = key) with `threads` threads.
/// `aux` counts successful insertions.
pub fn insert_driver<M: ConcurrentMap>(table: &M, keys: &[u64], threads: usize) -> Measurement {
    run_parallel(table, threads, keys.len(), |h, i| {
        u64::from(h.insert(keys[i], keys[i]))
    })
}

/// Look up all `keys`; `aux` counts hits.
pub fn find_driver<M: ConcurrentMap>(table: &M, keys: &[u64], threads: usize) -> Measurement {
    run_parallel(table, threads, keys.len(), |h, i| {
        u64::from(h.find(keys[i]).is_some())
    })
}

/// Overwrite-update all `keys` with value `i`; `aux` counts keys found.
pub fn update_driver<M: ConcurrentMap>(table: &M, keys: &[u64], threads: usize) -> Measurement {
    run_parallel(table, threads, keys.len(), |h, i| {
        u64::from(h.update_overwrite(keys[i], i as u64))
    })
}

/// Insert-or-increment all `keys` (the aggregation workload of Fig. 5);
/// `aux` counts the insertions (i.e. distinct keys seen first).
pub fn aggregate_driver<M: ConcurrentMap>(table: &M, keys: &[u64], threads: usize) -> Measurement {
    run_parallel(table, threads, keys.len(), |h, i| {
        u64::from(h.insert_or_increment(keys[i], 1).inserted())
    })
}

/// The mixed insert/find workload of Fig. 7; `aux` counts successful finds.
pub fn mixed_driver<M: ConcurrentMap>(
    table: &M,
    workload: &MixedWorkload,
    threads: usize,
) -> Measurement {
    run_parallel(table, threads, workload.ops.len(), |h, i| {
        match workload.ops[i] {
            MixedOp::Insert(k) => {
                h.insert(k, k);
                0
            }
            MixedOp::Find(k) => u64::from(h.find(k).is_some()),
        }
    })
}

/// The deletion workload of Fig. 6: each step performs one insertion and
/// one deletion ("1 Op = insert + delete"); `aux` counts successful
/// deletions.
///
/// Step `i` deletes the key that step `i − window` inserted.  Blocks are
/// handed out as threads ask, so a thread descheduled inside its block lets
/// the others run more than `window` steps past it, and the delete would
/// miss a key whose insertion has not run yet.  Such a delete waits for
/// that insertion ([`erase_once_inserted`]): each step raises its flag once
/// its insertion has returned.  A delete that misses a key whose insertion
/// is done is the table's miss, and counts as one: retrying until every key
/// lands would never end on a table that loses keys, as the phase-concurrent
/// one does when insertions and erases share a phase.
pub fn deletion_driver<M: ConcurrentMap>(
    table: &M,
    workload: &DeletionWorkload,
    threads: usize,
) -> Measurement {
    let window = workload.prefill.len();
    let inserted: Vec<AtomicBool> = workload
        .steps
        .iter()
        .map(|_| AtomicBool::new(false))
        .collect();
    run_parallel(table, threads, workload.steps.len(), |h, i| {
        let (ins, del) = workload.steps[i];
        h.insert(ins, ins);
        inserted[i].store(true, Ordering::Release);
        if h.erase(del) {
            return 1;
        }
        match i.checked_sub(window) {
            Some(step) => u64::from(erase_once_inserted(h, del, &inserted[step])),
            None => 0,
        }
    })
}

/// How long a delete waits for its key's insertion before the run is
/// declared stuck: far beyond any descheduling, short of a hung test.
const INSERTION_PATIENCE: Duration = Duration::from_secs(60);

/// A delete that missed its key: yield until the step that inserts the key
/// has raised `inserted`, then erase once more.
#[cold]
#[inline(never)]
fn erase_once_inserted<H: MapHandle>(h: &mut H, key: u64, inserted: &AtomicBool) -> bool {
    let started = Instant::now();
    while !inserted.load(Ordering::Acquire) {
        assert!(
            started.elapsed() < INSERTION_PATIENCE,
            "the insertion of key {key} did not run within {INSERTION_PATIENCE:?}"
        );
        std::thread::yield_now();
    }
    h.erase(key)
}

/// Result of a latency-recording workload execution: the usual throughput
/// [`Measurement`] plus one merged [`LatencyHistogram`] per operation
/// class (nanoseconds).
#[derive(Debug, Clone)]
pub struct LatencyMeasurement {
    /// Wall-clock throughput of the whole timed region.
    pub measurement: Measurement,
    /// One histogram per operation class, merged over all threads.
    pub histograms: Vec<LatencyHistogram>,
}

/// Operation-class index of insertions in [`LatencyMeasurement::histograms`].
pub const LAT_CLASS_INSERT: usize = 0;
/// Operation-class index of finds in [`LatencyMeasurement::histograms`].
pub const LAT_CLASS_FIND: usize = 1;
/// Operation-class index of updates in [`LatencyMeasurement::histograms`].
pub const LAT_CLASS_UPDATE: usize = 2;

/// Latency-recording twin of [`run_parallel`]: `op` returns the operation
/// class (`< classes`) and the aux contribution; every call is bracketed
/// by two [`Clock`] reads and the delta is recorded into the thread's
/// private histogram for that class — the recording path performs **zero
/// shared writes** (§5.2 discipline), the per-thread histograms are merged
/// once after the timed region.
pub fn run_parallel_latency<M, F>(
    table: &M,
    threads: usize,
    total: usize,
    classes: usize,
    op: F,
) -> LatencyMeasurement
where
    M: ConcurrentMap,
    F: Fn(&mut M::Handle<'_>, usize) -> (usize, u64) + Sync,
{
    assert!(threads > 0);
    assert!(classes > 0);
    let scheduler = BlockScheduler::new(total);
    let aux_total = AtomicU64::new(0);
    let merged = Mutex::new(vec![LatencyHistogram::new(); classes]);
    let clock = Clock::calibrated();
    let op = &op;
    let scheduler = &scheduler;
    let aux_ref = &aux_total;
    let merged_ref = &merged;
    let clock_ref = &clock;

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut handle = table.handle();
                let mut aux = 0u64;
                let mut local = vec![LatencyHistogram::new(); classes];
                while let Some(range) = scheduler.next_block() {
                    for i in range {
                        let t0 = clock_ref.now();
                        let (class, a) = op(&mut handle, i);
                        let t1 = clock_ref.now();
                        local[class].record(clock_ref.delta_ns(t0, t1));
                        aux = aux.wrapping_add(a);
                    }
                    handle.quiesce();
                }
                aux_ref.fetch_add(aux, Ordering::Relaxed);
                let mut merged = merged_ref.lock().unwrap();
                for (global, thread_local) in merged.iter_mut().zip(local.iter()) {
                    global.merge(thread_local);
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    LatencyMeasurement {
        measurement: Measurement {
            seconds,
            ops: total,
            aux: aux_total.load(Ordering::Relaxed),
        },
        histograms: merged.into_inner().unwrap(),
    }
}

/// Latency-recording twin of [`run_parallel_batched`]: each *batch call*
/// is one sample (the latency a caller of the batched interface actually
/// observes), recorded into the class returned by `op` alongside the aux
/// contribution.
pub fn run_parallel_batched_latency<M, S, F>(
    table: &M,
    threads: usize,
    total: usize,
    batch: usize,
    classes: usize,
    state: impl Fn() -> S + Sync,
    op: F,
) -> LatencyMeasurement
where
    M: ConcurrentMap,
    F: Fn(&mut M::Handle<'_>, std::ops::Range<usize>, &mut S) -> (usize, u64) + Sync,
{
    assert!(threads > 0);
    assert!(batch > 0);
    assert!(classes > 0);
    let scheduler = BlockScheduler::new(total);
    let aux_total = AtomicU64::new(0);
    let merged = Mutex::new(vec![LatencyHistogram::new(); classes]);
    let clock = Clock::calibrated();
    let op = &op;
    let state = &state;
    let scheduler = &scheduler;
    let aux_ref = &aux_total;
    let merged_ref = &merged;
    let clock_ref = &clock;

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut handle = table.handle();
                let mut scratch = state();
                let mut aux = 0u64;
                let mut local = vec![LatencyHistogram::new(); classes];
                while let Some(range) = scheduler.next_block() {
                    let mut lo = range.start;
                    while lo < range.end {
                        let hi = (lo + batch).min(range.end);
                        let t0 = clock_ref.now();
                        let (class, a) = op(&mut handle, lo..hi, &mut scratch);
                        let t1 = clock_ref.now();
                        local[class].record(clock_ref.delta_ns(t0, t1));
                        aux = aux.wrapping_add(a);
                        lo = hi;
                    }
                    handle.quiesce();
                }
                aux_ref.fetch_add(aux, Ordering::Relaxed);
                let mut merged = merged_ref.lock().unwrap();
                for (global, thread_local) in merged.iter_mut().zip(local.iter()) {
                    global.merge(thread_local);
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    LatencyMeasurement {
        measurement: Measurement {
            seconds,
            ops: total,
            aux: aux_total.load(Ordering::Relaxed),
        },
        histograms: merged.into_inner().unwrap(),
    }
}

/// The mixed Zipf insert/find/update workload with per-op latency
/// recording (the measurement half of the tail-latency figure).  Classes:
/// [`LAT_CLASS_INSERT`], [`LAT_CLASS_FIND`], [`LAT_CLASS_UPDATE`]; `aux`
/// counts successful finds.
pub fn zipf_mixed_latency_driver<M: ConcurrentMap>(
    table: &M,
    workload: &ZipfMixedWorkload,
    threads: usize,
) -> LatencyMeasurement {
    run_parallel_latency(
        table,
        threads,
        workload.ops.len(),
        3,
        |h, i| match workload.ops[i] {
            ZipfMixedOp::Insert(k) => {
                h.insert(k, k);
                (LAT_CLASS_INSERT, 0)
            }
            ZipfMixedOp::Find(k) => (LAT_CLASS_FIND, u64::from(h.find(k).is_some())),
            ZipfMixedOp::Update(k) => {
                h.update_overwrite(k, i as u64);
                (LAT_CLASS_UPDATE, 0)
            }
        },
    )
}

/// Run `total` operations in batches of `batch` through `op`, which is
/// called once per batch with the thread's handle, the half-open index
/// range of the batch, and a per-thread scratch state built by `state`
/// before the timed loop (e.g. a reusable result buffer — nothing needs
/// to be allocated inside the measured region); `op`'s return value is
/// accumulated into `aux`.
///
/// This is the batched twin of [`run_parallel`]: threads still pull blocks
/// of 4096 operations from the shared scheduler (§8.3), but execute each
/// block as `⌈4096/batch⌉` batch calls instead of 4096 single-op calls —
/// the driver-side entry point of the hash → prefetch → probe pipeline.
pub fn run_parallel_batched<M, S, F>(
    table: &M,
    threads: usize,
    total: usize,
    batch: usize,
    state: impl Fn() -> S + Sync,
    op: F,
) -> Measurement
where
    M: ConcurrentMap,
    F: Fn(&mut M::Handle<'_>, std::ops::Range<usize>, &mut S) -> u64 + Sync,
{
    assert!(threads > 0);
    assert!(batch > 0);
    let scheduler = BlockScheduler::new(total);
    let aux_total = AtomicU64::new(0);
    let op = &op;
    let state = &state;
    let scheduler = &scheduler;
    let aux_ref = &aux_total;

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut handle = table.handle();
                let mut scratch = state();
                let mut aux = 0u64;
                while let Some(range) = scheduler.next_block() {
                    let mut lo = range.start;
                    while lo < range.end {
                        let hi = (lo + batch).min(range.end);
                        aux = aux.wrapping_add(op(&mut handle, lo..hi, &mut scratch));
                        lo = hi;
                    }
                    handle.quiesce();
                }
                aux_ref.fetch_add(aux, Ordering::Relaxed);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        seconds,
        ops: total,
        aux: aux_total.load(Ordering::Relaxed),
    }
}

/// Insert all `elements` through [`growt_iface::MapHandle::insert_batch`]
/// in batches of `batch`; `aux` counts successful insertions.
pub fn insert_batch_driver<M: ConcurrentMap>(
    table: &M,
    elements: &[(u64, u64)],
    threads: usize,
    batch: usize,
) -> Measurement {
    run_parallel_batched(
        table,
        threads,
        elements.len(),
        batch,
        || (),
        |h, range, _| h.insert_batch(&elements[range]) as u64,
    )
}

/// Look up all `keys` through [`growt_iface::MapHandle::find_batch`] in
/// batches of `batch`; `aux` counts hits.  The per-thread scratch is the
/// reused result buffer.
pub fn find_batch_driver<M: ConcurrentMap>(
    table: &M,
    keys: &[u64],
    threads: usize,
    batch: usize,
) -> Measurement {
    run_parallel_batched(
        table,
        threads,
        keys.len(),
        batch,
        || vec![None; batch],
        |h, range, out| {
            let chunk = &keys[range];
            let results = &mut out[..chunk.len()];
            h.find_batch(chunk, results);
            results.iter().filter(|r| r.is_some()).count() as u64
        },
    )
}

/// Update all `elements` through [`growt_iface::MapHandle::update_batch`]
/// (wrapping-add updates) in batches of `batch`; `aux` counts keys found.
pub fn update_batch_driver<M: ConcurrentMap>(
    table: &M,
    elements: &[(u64, u64)],
    threads: usize,
    batch: usize,
) -> Measurement {
    run_parallel_batched(
        table,
        threads,
        elements.len(),
        batch,
        || (),
        |h, range, _| h.update_batch(&elements[range], |cur, d| cur.wrapping_add(d)) as u64,
    )
}

/// Erase all `keys` through [`growt_iface::MapHandle::erase_batch`] in
/// batches of `batch`; `aux` counts successful deletions.
pub fn erase_batch_driver<M: ConcurrentMap>(
    table: &M,
    keys: &[u64],
    threads: usize,
    batch: usize,
) -> Measurement {
    run_parallel_batched(
        table,
        threads,
        keys.len(),
        batch,
        || (),
        |h, range, _| h.erase_batch(&keys[range]) as u64,
    )
}

/// The [`run_parallel`] measurement loop over the typed map interface:
/// `p` threads pull 4096-operation blocks and drive them through private
/// [`GenericMapHandle`]s.  The per-block [`GenericMapHandle::quiesce`]
/// call is where QSBR-backed tables reclaim retired allocations.
pub fn run_parallel_generic<K, V, M, F>(map: &M, threads: usize, total: usize, op: F) -> Measurement
where
    M: GenericMap<K, V>,
    F: Fn(&mut M::Handle<'_>, usize) -> u64 + Sync,
{
    assert!(threads > 0);
    let scheduler = BlockScheduler::new(total);
    let aux_total = AtomicU64::new(0);
    let op = &op;
    let scheduler = &scheduler;
    let aux_ref = &aux_total;

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut handle = map.handle();
                let mut aux = 0u64;
                while let Some(range) = scheduler.next_block() {
                    for i in range {
                        aux = aux.wrapping_add(op(&mut handle, i));
                    }
                    handle.quiesce();
                }
                aux_ref.fetch_add(aux, Ordering::Relaxed);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        seconds,
        ops: total,
        aux: aux_total.load(Ordering::Relaxed),
    }
}

/// The aggregation workload over the typed map interface: one
/// `insert_or_update(key, 1, +1)` per stream position — semantically the
/// word-table `insert_or_increment`, expressed through the generic
/// update closure; `aux` counts insertions (distinct keys seen first).
pub fn generic_aggregate_driver<M: GenericMap<u64, u64>>(
    map: &M,
    keys: &[u64],
    threads: usize,
) -> Measurement {
    run_parallel_generic(map, threads, keys.len(), |h, i| {
        u64::from(h.insert_or_update(&keys[i], &1, &|c| c + 1).inserted())
    })
}

/// The word-count workload: every stream position performs one
/// `insert_or_update(word, 1, +1)` (the aggregation primitive of the
/// paper's introduction, over string keys); `aux` counts the insertions,
/// i.e. the distinct words seen first.
pub fn generic_wordcount_driver<M: GenericMap<String, u64>>(
    map: &M,
    corpus: &WordCorpus,
    threads: usize,
) -> Measurement {
    run_parallel_generic(map, threads, corpus.stream.len(), |h, i| {
        let word = &corpus.vocabulary[corpus.stream[i] as usize];
        u64::from(h.insert_or_update(word, &1, &|c| c + 1).inserted())
    })
}

/// Sequentially prefill `table` with `keys` (un-timed setup step used by
/// the find/update/deletion benchmarks).
pub fn prefill<M: ConcurrentMap>(table: &M, keys: &[u64]) {
    // Use a moderate number of threads: prefilling 10⁷ keys sequentially
    // would dominate harness run time.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8);
    insert_driver(table, keys, threads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use growt_iface::{Capabilities, InsertOrUpdate};
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// A trivially correct reference table (mutex around a HashMap) used to
    /// validate the drivers themselves.
    struct RefTable {
        inner: Mutex<HashMap<u64, u64>>,
    }

    struct RefHandle<'a> {
        table: &'a RefTable,
    }

    impl ConcurrentMap for RefTable {
        type Handle<'a> = RefHandle<'a>;
        fn with_capacity(_capacity: usize) -> Self {
            RefTable {
                inner: Mutex::new(HashMap::new()),
            }
        }
        fn handle(&self) -> RefHandle<'_> {
            RefHandle { table: self }
        }
        fn capabilities() -> Capabilities {
            Capabilities::new("reference")
        }
    }

    impl MapHandle for RefHandle<'_> {
        fn insert(&mut self, k: u64, v: u64) -> bool {
            let mut m = self.table.inner.lock().unwrap();
            if let std::collections::hash_map::Entry::Vacant(e) = m.entry(k) {
                e.insert(v);
                true
            } else {
                false
            }
        }
        fn find(&mut self, k: u64) -> Option<u64> {
            self.table.inner.lock().unwrap().get(&k).copied()
        }
        fn update(&mut self, k: u64, d: u64, up: fn(u64, u64) -> u64) -> bool {
            let mut m = self.table.inner.lock().unwrap();
            if let Some(v) = m.get_mut(&k) {
                *v = up(*v, d);
                true
            } else {
                false
            }
        }
        fn insert_or_update(&mut self, k: u64, d: u64, up: fn(u64, u64) -> u64) -> InsertOrUpdate {
            let mut m = self.table.inner.lock().unwrap();
            match m.get_mut(&k) {
                Some(v) => {
                    *v = up(*v, d);
                    InsertOrUpdate::Updated
                }
                None => {
                    m.insert(k, d);
                    InsertOrUpdate::Inserted
                }
            }
        }
        fn erase(&mut self, k: u64) -> bool {
            self.table.inner.lock().unwrap().remove(&k).is_some()
        }
        fn size_estimate(&mut self) -> usize {
            self.table.inner.lock().unwrap().len()
        }
    }

    /// A trivially correct string-map reference (mutex around a HashMap)
    /// used to validate the word-count driver itself.
    struct RefWordMap {
        inner: Mutex<HashMap<String, u64>>,
    }

    struct RefWordHandle<'a> {
        map: &'a RefWordMap,
    }

    impl GenericMap<String, u64> for RefWordMap {
        type Handle<'a> = RefWordHandle<'a>;
        fn with_capacity(_capacity: usize) -> Self {
            RefWordMap {
                inner: Mutex::new(HashMap::new()),
            }
        }
        fn handle(&self) -> RefWordHandle<'_> {
            RefWordHandle { map: self }
        }
        fn map_name() -> &'static str {
            "string-reference"
        }
    }

    impl GenericMapHandle<String, u64> for RefWordHandle<'_> {
        fn insert(&mut self, key: &String, value: &u64) -> bool {
            let mut m = self.map.inner.lock().unwrap();
            if m.contains_key(key) {
                return false;
            }
            m.insert(key.clone(), *value);
            true
        }
        fn find(&mut self, key: &String) -> Option<u64> {
            self.map.inner.lock().unwrap().get(key).copied()
        }
        fn update(&mut self, key: &String, up: &dyn Fn(&u64) -> u64) -> bool {
            let mut m = self.map.inner.lock().unwrap();
            m.get_mut(key).map(|v| *v = up(v)).is_some()
        }
        fn insert_or_update(
            &mut self,
            key: &String,
            value: &u64,
            up: &dyn Fn(&u64) -> u64,
        ) -> InsertOrUpdate {
            let mut m = self.map.inner.lock().unwrap();
            match m.get_mut(key) {
                Some(v) => {
                    *v = up(v);
                    InsertOrUpdate::Updated
                }
                None => {
                    m.insert(key.clone(), *value);
                    InsertOrUpdate::Inserted
                }
            }
        }
        fn erase(&mut self, key: &String) -> bool {
            self.map.inner.lock().unwrap().remove(key).is_some()
        }
    }

    #[test]
    fn wordcount_driver_matches_ground_truth() {
        let corpus = crate::words::word_corpus(40_000, 300, 1.0, 5);
        let expected = corpus.expected_counts();
        let distinct = expected.iter().filter(|&&c| c > 0).count();
        let map = RefWordMap::with_capacity(300);
        let m = generic_wordcount_driver(&map, &corpus, 4);
        assert_eq!(m.aux as usize, distinct, "insertions != distinct words");
        let mut h = map.handle();
        for (word, &count) in corpus.vocabulary.iter().zip(&expected) {
            assert_eq!(h.find(word), (count > 0).then_some(count), "word {word}");
        }
        let total: u64 = corpus.vocabulary.iter().filter_map(|w| h.find(w)).sum();
        assert_eq!(total as usize, corpus.total_words());
    }

    #[test]
    fn insert_then_find_all_hit() {
        let keys = crate::keys::uniform_distinct_keys(20_000, 1);
        let table = RefTable::with_capacity(keys.len());
        let m = insert_driver(&table, &keys, 4);
        assert_eq!(m.aux as usize, keys.len());
        let m = find_driver(&table, &keys, 4);
        assert_eq!(m.aux as usize, keys.len());
        assert!(m.mops() > 0.0);
    }

    #[test]
    fn aggregate_counts_distinct_keys() {
        let keys = crate::keys::zipf_keys(30_000, 500, 1.0, 2);
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        let table = RefTable::with_capacity(1000);
        let m = aggregate_driver(&table, &keys, 4);
        assert_eq!(m.aux as usize, distinct.len());
        // Total count stored must equal number of operations.
        let mut h = table.handle();
        let total: u64 = distinct.iter().map(|&&k| h.find(k).unwrap()).sum();
        assert_eq!(total as usize, keys.len());
    }

    #[test]
    fn mixed_driver_all_finds_succeed() {
        // The lag must exceed the maximum execution reordering window of
        // `threads × block = 4 × 4096` operations (the paper uses
        // `8192 · p` for the same reason).
        let threads = 4;
        let lag = 8192 * threads;
        let wl = crate::keys::mixed_workload(60_000, 40, lag, lag, 3);
        let table = RefTable::with_capacity(60_000);
        prefill(&table, &wl.prefill);
        let m = mixed_driver(&table, &wl, threads);
        let finds = wl
            .ops
            .iter()
            .filter(|o| matches!(o, MixedOp::Find(_)))
            .count();
        // With concurrent execution a find can overtake "its" insert, but
        // the lag construction makes that overwhelmingly unlikely; allow a
        // tiny slack exactly like the paper does.
        assert!(m.aux as usize >= finds - finds / 100);
    }

    #[test]
    fn deletion_driver_keeps_window() {
        // Every delete lands: one that runs ahead of its key's insertion
        // (a thread descheduled inside its block lets the other run past
        // the window) waits for that insertion.
        let wl = crate::keys::deletion_workload(30_000, 20_000, 4);
        let table = RefTable::with_capacity(64_000);
        prefill(&table, &wl.prefill);
        let m = deletion_driver(&table, &wl, 2);
        assert_eq!(m.aux as usize, wl.steps.len());
        let mut h = table.handle();
        assert_eq!(h.size_estimate(), 20_000);
    }

    #[test]
    fn batch_drivers_match_per_op_drivers() {
        let keys = crate::keys::uniform_distinct_keys(20_000, 9);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        for batch in [1usize, 7, 16, 64] {
            let table = RefTable::with_capacity(keys.len());
            let m = insert_batch_driver(&table, &pairs, 4, batch);
            assert_eq!(m.aux as usize, keys.len(), "batch {batch}");
            let m = find_batch_driver(&table, &keys, 4, batch);
            assert_eq!(m.aux as usize, keys.len(), "batch {batch}");
            let m = update_batch_driver(&table, &pairs, 4, batch);
            assert_eq!(m.aux as usize, keys.len(), "batch {batch}");
            let m = erase_batch_driver(&table, &keys, 4, batch);
            assert_eq!(m.aux as usize, keys.len(), "batch {batch}");
            let mut h = table.handle();
            assert_eq!(h.size_estimate(), 0, "batch {batch}");
        }
    }

    #[test]
    fn batch_driver_handles_total_not_divisible_by_batch() {
        let keys = crate::keys::uniform_distinct_keys(10_001, 11);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 1)).collect();
        let table = RefTable::with_capacity(keys.len());
        let m = insert_batch_driver(&table, &pairs, 2, 64);
        assert_eq!(m.aux as usize, keys.len());
        let m = find_batch_driver(&table, &keys, 2, 64);
        assert_eq!(m.aux as usize, keys.len());
    }

    #[test]
    fn update_driver_touches_only_existing() {
        let keys = crate::keys::uniform_distinct_keys(5_000, 5);
        let table = RefTable::with_capacity(5_000);
        prefill(&table, &keys[..2_500]);
        let m = update_driver(&table, &keys, 2);
        assert_eq!(m.aux, 2_500);
    }
}
