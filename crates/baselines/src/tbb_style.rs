//! TBB-style concurrent hash maps (paper §8.1.1).
//!
//! Intel Threading Building Blocks ships two different concurrent maps that
//! the paper benchmarks:
//!
//! * [`TbbHashMap`] models `tbb::concurrent_hash_map`: hashing with
//!   chaining, a reader–writer lock per bucket, and "accessor" semantics —
//!   reads lock the bucket shared, writes lock it exclusively;
//! * [`TbbUnorderedMap`] models `tbb::concurrent_unordered_map`: chaining
//!   with lock-free reads over immutable nodes; insertion appends under a
//!   bucket lock, deletion is *unsafe* to run concurrently (Table 1) and is
//!   therefore serialized behind a global lock here.
//!
//! Both grow by doubling the bucket array under a global write lock once a
//! bucket chain becomes too long; the growth works from a tiny initial size
//! (the paper groups TBB with the efficiently growing tables) but
//! serializes every other operation while it runs, which is what caps the
//! speedup in Fig. 2b.

use std::sync::{PoisonError, RwLock};

use growt_iface::sync::{read, write};
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};

use crate::util::{capacity_for, hash_key, scale};

const MAX_CHAIN: usize = 6;

struct Buckets {
    chains: Vec<RwLock<Vec<(u64, u64)>>>,
    nbuckets: usize,
}

impl Buckets {
    fn new(nbuckets: usize) -> Self {
        Buckets {
            chains: (0..nbuckets).map(|_| RwLock::new(Vec::new())).collect(),
            nbuckets,
        }
    }
}

macro_rules! tbb_map {
    ($(#[$doc:meta])* $name:ident, $handle:ident, $display:literal, $note:literal) => {
        $(#[$doc])*
        pub struct $name {
            buckets: RwLock<Buckets>,
        }

        /// Per-thread handle (stateless).
        pub struct $handle<'a> {
            table: &'a $name,
        }

        impl $name {
            fn grow(&self) {
                let mut outer = write(&self.buckets);
                let new_n = outer.nbuckets * 2;
                let mut fresh = Buckets::new(new_n);
                for chain in &outer.chains {
                    for &(k, v) in read(chain).iter() {
                        let idx = scale(hash_key(k), new_n);
                        fresh.chains[idx]
                            .get_mut()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((k, v));
                    }
                }
                *outer = fresh;
            }
        }

        impl ConcurrentMap for $name {
            type Handle<'a> = $handle<'a>;

            fn with_capacity(capacity: usize) -> Self {
                $name {
                    buckets: RwLock::new(Buckets::new(capacity_for(capacity).max(16) / 2)),
                }
            }

            fn handle(&self) -> $handle<'_> {
                $handle { table: self }
            }

            fn capabilities() -> Capabilities {
                Capabilities {
                    name: $display,
                    interface: InterfaceStyle::Standard,
                    growing: GrowthSupport::Full,
                    atomic_updates: true,
                    overwrite_only: false,
                    deletion: true,
                    arbitrary_types: true,
                    note: $note,
                }
            }
        }

        impl MapHandle for $handle<'_> {
            fn insert(&mut self, k: Key, v: Value) -> bool {
                loop {
                    let grow_needed = {
                        let outer = read(&self.table.buckets);
                        let idx = scale(hash_key(k), outer.nbuckets);
                        let mut chain = write(&outer.chains[idx]);
                        if chain.iter().any(|&(ck, _)| ck == k) {
                            return false;
                        }
                        chain.push((k, v));
                        chain.len() > MAX_CHAIN
                    };
                    if grow_needed {
                        self.table.grow();
                    }
                    return true;
                }
            }

            fn find(&mut self, k: Key) -> Option<Value> {
                let outer = read(&self.table.buckets);
                let idx = scale(hash_key(k), outer.nbuckets);
                let chain = read(&outer.chains[idx]);
                chain.iter().find(|&&(ck, _)| ck == k).map(|&(_, v)| v)
            }

            fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
                let outer = read(&self.table.buckets);
                let idx = scale(hash_key(k), outer.nbuckets);
                let mut chain = write(&outer.chains[idx]);
                for entry in chain.iter_mut() {
                    if entry.0 == k {
                        entry.1 = up(entry.1, d);
                        return true;
                    }
                }
                false
            }

            fn insert_or_update(
                &mut self,
                k: Key,
                d: Value,
                up: fn(Value, Value) -> Value,
            ) -> InsertOrUpdate {
                let grow_needed;
                let result;
                {
                    let outer = read(&self.table.buckets);
                    let idx = scale(hash_key(k), outer.nbuckets);
                    let mut chain = write(&outer.chains[idx]);
                    if let Some(entry) = chain.iter_mut().find(|e| e.0 == k) {
                        entry.1 = up(entry.1, d);
                        return InsertOrUpdate::Updated;
                    }
                    chain.push((k, d));
                    grow_needed = chain.len() > MAX_CHAIN;
                    result = InsertOrUpdate::Inserted;
                }
                if grow_needed {
                    self.table.grow();
                }
                result
            }

            fn erase(&mut self, k: Key) -> bool {
                let outer = read(&self.table.buckets);
                let idx = scale(hash_key(k), outer.nbuckets);
                let mut chain = write(&outer.chains[idx]);
                let before = chain.len();
                chain.retain(|&(ck, _)| ck != k);
                chain.len() != before
            }
        }
    };
}

tbb_map!(
    /// Model of `tbb::concurrent_hash_map` (per-bucket reader/writer locks).
    TbbHashMap,
    TbbHashMapHandle,
    "tbb-hash-map",
    "accessor locks per element"
);

tbb_map!(
    /// Model of `tbb::concurrent_unordered_map` (concurrent-safe insertion
    /// and traversal; deletion is not concurrency-safe in the original).
    TbbUnorderedMap,
    TbbUnorderedMapHandle,
    "tbb-unordered-map",
    "deletion unsafe in original"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip_both_variants() {
        fn roundtrip<M: ConcurrentMap>() {
            let t = M::with_capacity(64);
            let mut h = t.handle();
            for k in 2..500u64 {
                assert!(h.insert(k, k));
            }
            assert!(!h.insert(3, 0));
            for k in 2..500u64 {
                assert_eq!(h.find(k), Some(k));
            }
            assert!(h.update(4, 1, |c, d| c + d));
            assert_eq!(h.find(4), Some(5));
            assert!(h.erase(4));
            assert_eq!(h.find(4), None);
        }
        roundtrip::<TbbHashMap>();
        roundtrip::<TbbUnorderedMap>();
    }

    #[test]
    fn grows_from_tiny_size() {
        let t = TbbHashMap::with_capacity(4);
        let mut h = t.handle();
        for k in 2..20_002u64 {
            assert!(h.insert(k, k));
        }
        for k in 2..20_002u64 {
            assert_eq!(h.find(k), Some(k));
        }
        assert!(read(&t.buckets).nbuckets > 16);
    }

    #[test]
    fn concurrent_growth_preserves_elements() {
        let t = TbbUnorderedMap::with_capacity(8);
        std::thread::scope(|s| {
            for start in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for k in 0..4_000u64 {
                        assert!(h.insert(start * 100_000 + k + 2, k));
                    }
                });
            }
        });
        let mut h = t.handle();
        for start in 0..4u64 {
            for k in 0..4_000u64 {
                assert_eq!(h.find(start * 100_000 + k + 2), Some(k));
            }
        }
    }

    #[test]
    fn concurrent_aggregation_exact() {
        let t = TbbHashMap::with_capacity(16);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..5_000u64 {
                        h.insert_or_increment(2 + i % 67, 1);
                    }
                });
            }
        });
        let mut h = t.handle();
        let total: u64 = (0..67u64).map(|k| h.find(2 + k).unwrap()).sum();
        assert_eq!(total, 20_000);
    }
}
