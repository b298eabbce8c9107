//! Criterion micro-benchmarks: one group per paper experiment family.
//!
//! These complement the `figure` binary: Criterion gives statistically
//! robust per-operation timings for the core workloads, while the binary
//! regenerates the full figure series.  Sizes are kept small so that
//! `cargo bench` terminates quickly; use the binary for full sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use growt_baselines::{Cuckoo, FollyStyle, LeaHash, TbbHashMap};
use growt_bench::GROWING_INITIAL;
use growt_core::{Folklore, UaGrow, UsGrow};
use growt_iface::ConcurrentMap;
use growt_seq::SeqGrowingTable;
use growt_workloads::{
    aggregate_driver, deletion_driver, deletion_workload, find_driver, insert_driver, prefill,
    uniform_distinct_keys, uniform_keys, update_driver, zipf_keys,
};

const OPS: usize = 100_000;
const THREADS: usize = 4;

fn bench_insert_prefilled(c: &mut Criterion) {
    let keys = uniform_distinct_keys(OPS, 1);
    let mut group = c.benchmark_group("fig2a_insert_prefilled");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.throughput(Throughput::Elements(OPS as u64));
    macro_rules! bench {
        ($t:ty, $name:literal) => {
            group.bench_function(BenchmarkId::from_parameter($name), |b| {
                b.iter(|| {
                    let table = <$t>::with_capacity(OPS);
                    insert_driver(&table, &keys, THREADS)
                })
            });
        };
    }
    bench!(Folklore, "folklore");
    bench!(UaGrow, "uaGrow");
    bench!(UsGrow, "usGrow");
    bench!(LeaHash, "LeaHash");
    bench!(Cuckoo, "cuckoo");
    bench!(TbbHashMap, "tbb-hash-map");
    bench!(FollyStyle, "folly");
    // The sequential reference table uses no synchronization: 1 thread only.
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| {
            let table = SeqGrowingTable::with_capacity(OPS);
            insert_driver(&table, &keys, 1)
        })
    });
    group.finish();
}

fn bench_insert_growing(c: &mut Criterion) {
    let keys = uniform_distinct_keys(OPS, 2);
    let mut group = c.benchmark_group("fig2b_insert_growing");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.throughput(Throughput::Elements(OPS as u64));
    macro_rules! bench {
        ($t:ty, $name:literal) => {
            group.bench_function(BenchmarkId::from_parameter($name), |b| {
                b.iter(|| {
                    let table = <$t>::with_capacity(GROWING_INITIAL);
                    insert_driver(&table, &keys, THREADS)
                })
            });
        };
    }
    bench!(UaGrow, "uaGrow");
    bench!(UsGrow, "usGrow");
    bench!(TbbHashMap, "tbb-hash-map");
    // The sequential reference table uses no synchronization: 1 thread only.
    group.bench_function(BenchmarkId::from_parameter("sequential"), |b| {
        b.iter(|| {
            let table = SeqGrowingTable::with_capacity(GROWING_INITIAL);
            insert_driver(&table, &keys, 1)
        })
    });
    group.finish();
}

fn bench_find(c: &mut Criterion) {
    let keys = uniform_distinct_keys(OPS, 3);
    let misses = uniform_keys(OPS, 4);
    let mut group = c.benchmark_group("fig3_find");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.throughput(Throughput::Elements(OPS as u64));
    macro_rules! bench {
        ($t:ty, $name:literal) => {
            let table = <$t>::with_capacity(OPS);
            prefill(&table, &keys);
            group.bench_function(BenchmarkId::new("successful", $name), |b| {
                b.iter(|| find_driver(&table, &keys, THREADS))
            });
            group.bench_function(BenchmarkId::new("unsuccessful", $name), |b| {
                b.iter(|| find_driver(&table, &misses, THREADS))
            });
        };
    }
    bench!(Folklore, "folklore");
    bench!(UaGrow, "uaGrow");
    bench!(LeaHash, "LeaHash");
    bench!(TbbHashMap, "tbb-hash-map");
    group.finish();
}

fn bench_contention(c: &mut Criterion) {
    let universe = 1 << 14;
    let mut group = c.benchmark_group("fig4_fig5_contention");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.throughput(Throughput::Elements(OPS as u64));
    for s in [0.5f64, 1.05] {
        let keys = zipf_keys(OPS, universe, s, 50 + (s * 10.0) as u64);
        let dense = growt_workloads::dense_prefill_keys(universe);
        macro_rules! bench_update {
            ($t:ty, $name:literal) => {
                let table = <$t>::with_capacity(universe as usize);
                prefill(&table, &dense);
                group.bench_function(BenchmarkId::new(format!("update_s{s}"), $name), |b| {
                    b.iter(|| update_driver(&table, &keys, THREADS))
                });
            };
        }
        bench_update!(Folklore, "folklore");
        bench_update!(UsGrow, "usGrow");
        bench_update!(TbbHashMap, "tbb-hash-map");
        macro_rules! bench_aggregate {
            ($t:ty, $name:literal) => {
                group.bench_function(BenchmarkId::new(format!("aggregate_s{s}"), $name), |b| {
                    b.iter(|| {
                        let table = <$t>::with_capacity(GROWING_INITIAL);
                        aggregate_driver(&table, &keys, THREADS)
                    })
                });
            };
        }
        bench_aggregate!(UaGrow, "uaGrow");
        bench_aggregate!(UsGrow, "usGrow");
    }
    group.finish();
}

fn bench_deletion(c: &mut Criterion) {
    let wl = deletion_workload(OPS, OPS / 4, 7);
    let mut group = c.benchmark_group("fig6_deletion");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(400));
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.throughput(Throughput::Elements(OPS as u64));
    macro_rules! bench {
        ($t:ty, $name:literal) => {
            group.bench_function(BenchmarkId::from_parameter($name), |b| {
                b.iter(|| {
                    let table = <$t>::with_capacity(OPS / 4 + OPS / 8);
                    prefill(&table, &wl.prefill);
                    deletion_driver(&table, &wl, THREADS)
                })
            });
        };
    }
    bench!(UaGrow, "uaGrow");
    bench!(UsGrow, "usGrow");
    bench!(Cuckoo, "cuckoo");
    bench!(TbbHashMap, "tbb-hash-map");
    group.finish();
}

criterion_group!(
    benches,
    bench_insert_prefilled,
    bench_insert_growing,
    bench_find,
    bench_contention,
    bench_deletion
);
criterion_main!(benches);
