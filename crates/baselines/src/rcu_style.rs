//! RCU-style hash table (userspace-RCU family, paper §8.1.1).
//!
//! The Userspace RCU library's hash table combines read-copy-update
//! reclamation with lock-free split-ordered-list growth.  This model keeps
//! the two properties that matter for the paper's comparisons — reads never
//! block behind writers of *other* elements and never write shared memory
//! beyond grabbing a shared reference, while structural changes are
//! comparatively expensive — with a simpler structure:
//!
//! * every bucket holds an immutable chain behind a reader–writer lock;
//!   readers only clone the chain's `Arc` (shared lock, no contention with
//!   other readers) and then traverse without any lock;
//! * writers rebuild the affected chain copy-on-write and publish it, so
//!   concurrent readers keep traversing their snapshot (the RCU idea);
//! * growing doubles the bucket array under a global write lock and
//!   re-links every chain — correct but slow, matching the "very slow"
//!   growth entry of Table 1 and the flat curves of Fig. 2b.
//!
//! Two wrappers mirror the paper's pair of RCU variants: [`RcuTable`]
//! (default flavour) and [`RcuQsbrTable`], whose handles additionally
//! require periodic quiescent-state announcements (served by `quiesce`,
//! which the benchmark driver calls after every operation block).

use std::sync::{Arc, RwLock};

use growt_iface::sync::{read, write};
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};
use growt_reclaim::QsbrDomain;

use crate::util::{capacity_for, hash_key, scale};

/// Immutable chain node.
struct Node {
    key: u64,
    value: u64,
    next: Option<Arc<Node>>,
}

type Chain = Option<Arc<Node>>;

struct Buckets {
    chains: Vec<RwLock<Chain>>,
    nbuckets: usize,
}

impl Buckets {
    fn new(nbuckets: usize) -> Self {
        Buckets {
            chains: (0..nbuckets).map(|_| RwLock::new(None)).collect(),
            nbuckets,
        }
    }
}

fn chain_find(mut chain: &Chain, key: u64) -> Option<u64> {
    while let Some(node) = chain {
        if node.key == key {
            return Some(node.value);
        }
        chain = &node.next;
    }
    None
}

/// Rebuild `chain` with `key` mapped to `value`; `Some(len)` if the key was
/// already present (len = chain length).
fn chain_with(chain: &Chain, key: u64, value: u64) -> (Chain, bool, usize) {
    // Copy the whole chain (copy-on-write), replacing or appending the key.
    let mut entries: Vec<(u64, u64)> = Vec::new();
    let mut cursor = chain;
    let mut replaced = false;
    while let Some(node) = cursor {
        if node.key == key {
            entries.push((key, value));
            replaced = true;
        } else {
            entries.push((node.key, node.value));
        }
        cursor = &node.next;
    }
    if !replaced {
        entries.push((key, value));
    }
    let len = entries.len();
    let mut rebuilt: Chain = None;
    for (k, v) in entries.into_iter().rev() {
        rebuilt = Some(Arc::new(Node {
            key: k,
            value: v,
            next: rebuilt,
        }));
    }
    (rebuilt, replaced, len)
}

fn chain_without(chain: &Chain, key: u64) -> (Chain, bool) {
    let mut entries: Vec<(u64, u64)> = Vec::new();
    let mut cursor = chain;
    let mut removed = false;
    while let Some(node) = cursor {
        if node.key == key {
            removed = true;
        } else {
            entries.push((node.key, node.value));
        }
        cursor = &node.next;
    }
    let mut rebuilt: Chain = None;
    for (k, v) in entries.into_iter().rev() {
        rebuilt = Some(Arc::new(Node {
            key: k,
            value: v,
            next: rebuilt,
        }));
    }
    (rebuilt, removed)
}

const MAX_CHAIN: usize = 8;

macro_rules! rcu_table {
    ($(#[$doc:meta])* $name:ident, $handle:ident, $display:literal, $iface:expr, $note:literal) => {
        $(#[$doc])*
        pub struct $name {
            buckets: RwLock<Buckets>,
            qsbr: Arc<QsbrDomain>,
        }

        /// Per-thread handle.
        pub struct $handle<'a> {
            table: &'a $name,
            participant: growt_reclaim::QsbrParticipant,
        }

        impl $name {
            fn grow(&self) {
                let mut outer = write(&self.buckets);
                let new_n = outer.nbuckets * 2;
                let fresh = Buckets::new(new_n);
                for chain_lock in &outer.chains {
                    let mut cursor = read(&chain_lock).clone();
                    while let Some(node) = cursor {
                        let idx = scale(hash_key(node.key), new_n);
                        let mut target = write(&fresh.chains[idx]);
                        let (rebuilt, _, _) = chain_with(&target, node.key, node.value);
                        *target = rebuilt;
                        cursor = node.next.clone();
                    }
                }
                let old = std::mem::replace(&mut *outer, fresh);
                // The retired bucket array (and its chains) is freed once all
                // readers have passed a quiescent state.
                self.qsbr.retire(Box::new(move || drop(old)));
            }
        }

        impl ConcurrentMap for $name {
            type Handle<'a> = $handle<'a>;

            fn with_capacity(capacity: usize) -> Self {
                $name {
                    buckets: RwLock::new(Buckets::new(capacity_for(capacity).max(16) / 2)),
                    qsbr: Arc::new(QsbrDomain::new()),
                }
            }

            fn handle(&self) -> $handle<'_> {
                $handle {
                    participant: self.qsbr.register(),
                    table: self,
                }
            }

            fn capabilities() -> Capabilities {
                Capabilities {
                    name: $display,
                    interface: $iface,
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
                let grow_needed;
                let inserted;
                {
                    let outer = read(&self.table.buckets);
                    let idx = scale(hash_key(k), outer.nbuckets);
                    let mut chain = write(&outer.chains[idx]);
                    if chain_find(&chain, k).is_some() {
                        return false;
                    }
                    let (rebuilt, _, len) = chain_with(&chain, k, v);
                    let old = std::mem::replace(&mut *chain, rebuilt);
                    drop(chain);
                    self.participant.retire(old);
                    grow_needed = len > MAX_CHAIN;
                    inserted = true;
                }
                if grow_needed {
                    self.table.grow();
                }
                inserted
            }

            fn find(&mut self, k: Key) -> Option<Value> {
                let outer = read(&self.table.buckets);
                let idx = scale(hash_key(k), outer.nbuckets);
                // Clone the chain head under the shared lock, then traverse
                // the immutable snapshot without any lock (the RCU pattern).
                let snapshot = read(&outer.chains[idx]).clone();
                drop(outer);
                chain_find(&snapshot, k)
            }

            fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
                let outer = read(&self.table.buckets);
                let idx = scale(hash_key(k), outer.nbuckets);
                let mut chain = write(&outer.chains[idx]);
                match chain_find(&chain, k) {
                    Some(cur) => {
                        let (rebuilt, _, _) = chain_with(&chain, k, up(cur, d));
                        let old = std::mem::replace(&mut *chain, rebuilt);
                        drop(chain);
                        self.participant.retire(old);
                        true
                    }
                    None => false,
                }
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
                    let (new_value, was_present) = match chain_find(&chain, k) {
                        Some(cur) => (up(cur, d), true),
                        None => (d, false),
                    };
                    let (rebuilt, _, len) = chain_with(&chain, k, new_value);
                    let old = std::mem::replace(&mut *chain, rebuilt);
                    drop(chain);
                    self.participant.retire(old);
                    grow_needed = len > MAX_CHAIN;
                    result = if was_present {
                        InsertOrUpdate::Updated
                    } else {
                        InsertOrUpdate::Inserted
                    };
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
                let (rebuilt, removed) = chain_without(&chain, k);
                if removed {
                    let old = std::mem::replace(&mut *chain, rebuilt);
                    drop(chain);
                    self.participant.retire(old);
                }
                removed
            }

            fn quiesce(&mut self) {
                self.participant.quiescent();
            }
        }
    };
}

rcu_table!(
    /// Default-flavour userspace-RCU-style table (`urcu`).
    RcuTable,
    RcuTableHandle,
    "rcu-urcu",
    InterfaceStyle::RegisterThread,
    "copy-on-write chains, RCU reclamation"
);

rcu_table!(
    /// QSBR-flavour RCU table: the application must regularly announce
    /// quiescent states (done in `quiesce`).
    RcuQsbrTable,
    RcuQsbrTableHandle,
    "rcu-qsbr",
    InterfaceStyle::QsbrFunction,
    "requires periodic quiescent calls"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let t = RcuTable::with_capacity(64);
        let mut h = t.handle();
        for k in 2..600u64 {
            assert!(h.insert(k, k));
        }
        assert!(!h.insert(3, 9));
        for k in 2..600u64 {
            assert_eq!(h.find(k), Some(k));
        }
        assert!(h.update(5, 2, |c, d| c + d));
        assert_eq!(h.find(5), Some(7));
        assert!(h.erase(5));
        assert_eq!(h.find(5), None);
        h.quiesce();
    }

    #[test]
    fn grows_and_keeps_elements() {
        let t = RcuQsbrTable::with_capacity(4);
        let mut h = t.handle();
        for k in 2..10_002u64 {
            assert!(h.insert(k, k * 2));
            if k % 512 == 0 {
                h.quiesce();
            }
        }
        for k in 2..10_002u64 {
            assert_eq!(h.find(k), Some(k * 2));
        }
    }

    #[test]
    fn concurrent_mixed_usage() {
        let t = RcuTable::with_capacity(128);
        std::thread::scope(|s| {
            for start in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..3_000u64 {
                        let k = start * 1_000_000 + i + 2;
                        assert!(h.insert(k, i));
                        assert_eq!(h.find(k), Some(i));
                        if i % 3 == 0 {
                            assert!(h.erase(k));
                        }
                        if i % 256 == 0 {
                            h.quiesce();
                        }
                    }
                });
            }
        });
        let mut h = t.handle();
        let mut live = 0;
        for start in 0..4u64 {
            for i in 0..3_000u64 {
                if h.find(start * 1_000_000 + i + 2).is_some() {
                    live += 1;
                }
            }
        }
        assert_eq!(live, 4 * 2_000);
    }

    #[test]
    fn aggregation_exact() {
        let t = RcuQsbrTable::with_capacity(32);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..4_000u64 {
                        h.insert_or_increment(2 + i % 29, 1);
                        if i % 512 == 0 {
                            h.quiesce();
                        }
                    }
                });
            }
        });
        let mut h = t.handle();
        let total: u64 = (0..29u64).map(|k| h.find(2 + k).unwrap()).sum();
        assert_eq!(total, 16_000);
    }
}
