//! # growt-repro
//!
//! A Rust reproduction of *"Concurrent Hash Tables: Fast and General?(!)"*
//! (Tobias Maier, Peter Sanders, Roman Dementiev; PPoPP 2016) — the *growt*
//! family of lock-free, growable linear-probing hash tables, together with
//! every substrate the paper's evaluation depends on: the competitor
//! tables, sequential baselines, workload generators and the benchmark
//! harness that regenerates each figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use growt_repro::prelude::*;
//!
//! // uaGrow: the paper's default growing table (user-thread migration,
//! // asynchronous marking).
//! let table = UaGrow::with_capacity(16);   // initial size hint only
//! let mut handle = table.handle();          // one handle per thread
//! assert!(handle.insert(42, 7));
//! assert_eq!(handle.find(42), Some(7));
//! handle.insert_or_increment(42, 1);
//! assert_eq!(handle.find(42), Some(8));
//! ```
//!
//! ## Crate map
//!
//! * [`growt_core`] — folklore table, growing variants, migration, counting;
//! * [`growt_baselines`] — the six competitor families of §8.1;
//! * [`growt_seq`] — sequential reference tables (absolute speedups);
//! * [`growt_workloads`] — MT19937-64, Zipf keys, drivers, figures;
//! * [`growt_reclaim`] — QSBR / epochs / counted pointers;
//! * [`growt_htm`] — restricted transactional memory: Intel RTM, and the
//!   simulation the TSX table variants run on;
//! * [`growt_alloc_track`] — allocation tracking and the page pool.

#![warn(missing_docs)]

pub use growt_alloc_track;
pub use growt_baselines;
pub use growt_core;
pub use growt_htm;
pub use growt_iface;
pub use growt_reclaim;
pub use growt_seq;
pub use growt_workloads;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use growt_baselines::{
        Cuckoo, FollyStyle, Hopscotch, JunctionLeapfrog, JunctionLinear, LeaHash, PhaseConcurrent,
        RcuQsbrTable, RcuTable, TbbHashMap, TbbUnorderedMap,
    };
    pub use growt_core::{
        Folklore, FolkloreCrc, FolkloreSimd, GrowMap, GrowMapHandle, GrowingOptions,
        GrowingStringTable, GrowingTable, HashSelect, KeyRepr, PaGrow, ProbeSelect, PsGrow,
        StringKeyTable, TsxFolklore, UaGrow, UaGrowCrc, UaGrowK1, UaGrowK16, UaGrowK4, UaGrowSimd,
        UsGrow, ValueRepr,
    };
    pub use growt_iface::{
        Capabilities, ConcurrentMap, GenericMap, GenericMapHandle, GrowthSupport, InsertOrUpdate,
        MapHandle, StringMap, StringMapHandle,
    };
    pub use growt_seq::{SeqGrowingTable, SeqTable};
    pub use growt_workloads::{
        aggregate_driver, deletion_driver, erase_batch_driver, find_batch_driver, find_driver,
        insert_batch_driver, insert_driver, mixed_driver, prefill, uniform_distinct_keys,
        update_batch_driver, word_corpus, word_vocabulary, wordcount_driver, zipf_keys,
        zipf_mixed_latency_driver, zipf_mixed_workload, Clock, LatencyHistogram,
        LatencyMeasurement, Mt64, WordCorpus, ZipfMixedOp, ZipfMixedWorkload, ZipfSampler,
    };
}
