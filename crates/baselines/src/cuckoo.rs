//! Bucketized cuckoo hashing with fine-grained locks, modeled on the
//! libcuckoo design of Li et al. (paper §2, §8.1.2).
//!
//! Every key has two candidate buckets (two hash functions), each bucket
//! holds four slots.  Insertion first tries both buckets; if both are full
//! it searches a short displacement path (a bounded BFS over candidate
//! buckets) and moves elements along the path to make room.  Writes
//! serialize on a global write lock (a simplification of libcuckoo's
//! striped write locks that keeps this model safe Rust); lookups take the
//! striped lock of the primary bucket — the property that makes cuckoo
//! collapse under read contention in the paper's Fig. 4b (a factor of
//! thousands).
//!
//! Growing rehashes the whole table under a global write lock, which is why
//! the paper groups libcuckoo with the "limited growing" tables ("slow").

use std::sync::{Mutex, MutexGuard, RwLock};

use growt_iface::sync::{lock, read, write};
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};

use crate::util::{capacity_for, hash_key, hash_key_alt, scale};

const SLOTS: usize = 4;
const LOCK_STRIPES: usize = 512;
const MAX_PATH: usize = 500;

#[derive(Clone, Copy, Default)]
struct Entry {
    occupied: bool,
    key: u64,
    value: u64,
}

struct Inner {
    buckets: Vec<[Entry; SLOTS]>,
    nbuckets: usize,
}

impl Inner {
    fn new(nbuckets: usize) -> Self {
        Inner {
            buckets: vec![[Entry::default(); SLOTS]; nbuckets],
            nbuckets,
        }
    }

    #[inline]
    fn bucket_pair(&self, key: u64) -> (usize, usize) {
        (
            scale(hash_key(key), self.nbuckets),
            scale(hash_key_alt(key), self.nbuckets),
        )
    }

    fn find_in(&self, bucket: usize, key: u64) -> Option<(usize, u64)> {
        for (slot, entry) in self.buckets[bucket].iter().enumerate() {
            if entry.occupied && entry.key == key {
                return Some((slot, entry.value));
            }
        }
        None
    }

    fn free_slot(&self, bucket: usize) -> Option<usize> {
        self.buckets[bucket].iter().position(|e| !e.occupied)
    }

    /// Breadth-first search for a displacement path ending in a free slot.
    /// Returns the chain of (bucket, slot) moves to perform, last element is
    /// the free destination.
    fn find_path(&self, start_a: usize, start_b: usize) -> Option<Vec<(usize, usize)>> {
        use std::collections::VecDeque;
        let mut queue: VecDeque<Vec<usize>> = VecDeque::new();
        queue.push_back(vec![start_a]);
        queue.push_back(vec![start_b]);
        let mut explored = 0;
        while let Some(path) = queue.pop_front() {
            let bucket = *path.last().unwrap();
            if let Some(slot) = self.free_slot(bucket) {
                // Convert the bucket path into concrete (bucket, slot) moves.
                let mut moves = Vec::with_capacity(path.len());
                moves.push((bucket, slot));
                for window in path.windows(2).rev() {
                    let (from_bucket, to_bucket) = (window[0], window[1]);
                    // Pick a slot in from_bucket whose alternate bucket is to_bucket.
                    let slot = self.buckets[from_bucket].iter().position(|e| {
                        e.occupied && {
                            let (a, b) = self.bucket_pair(e.key);
                            (a == from_bucket && b == to_bucket)
                                || (b == from_bucket && a == to_bucket)
                        }
                    })?;
                    moves.push((from_bucket, slot));
                }
                moves.reverse();
                return Some(moves);
            }
            explored += 1;
            if explored > MAX_PATH || path.len() > 5 {
                continue;
            }
            // Expand: every occupant's alternate bucket is a neighbor.
            for entry in self.buckets[bucket].iter().filter(|e| e.occupied) {
                let (a, b) = self.bucket_pair(entry.key);
                let alternate = if a == bucket { b } else { a };
                let mut next = path.clone();
                next.push(alternate);
                queue.push_back(next);
            }
        }
        None
    }

    /// Apply `up` to `k`'s value in place if present in either bucket.
    /// Requires exclusive access (write lock held).
    fn update_in_place(&mut self, k: u64, d: u64, up: fn(u64, u64) -> u64) -> bool {
        let (a, b) = self.bucket_pair(k);
        for bucket in [a, b] {
            if let Some((slot, cur)) = self.find_in(bucket, k) {
                self.buckets[bucket][slot].value = up(cur, d);
                return true;
            }
        }
        false
    }

    /// Place a key known to be absent: free slot in either bucket, else a
    /// displacement path.  Returns `false` if no room is found (caller must
    /// grow and retry).  Requires exclusive access (write lock held).
    fn place(&mut self, k: u64, v: u64) -> bool {
        let (a, b) = self.bucket_pair(k);
        for bucket in [a, b] {
            if let Some(slot) = self.free_slot(bucket) {
                self.buckets[bucket][slot] = Entry {
                    occupied: true,
                    key: k,
                    value: v,
                };
                return true;
            }
        }
        if let Some(moves) = self.find_path(a, b) {
            // Shift elements along the path (from the end backwards).
            for window in moves.windows(2).rev() {
                let (to_bucket, to_slot) = window[1];
                let (from_bucket, from_slot) = window[0];
                self.buckets[to_bucket][to_slot] = self.buckets[from_bucket][from_slot];
                self.buckets[from_bucket][from_slot].occupied = false;
            }
            let (first_bucket, first_slot) = moves[0];
            self.buckets[first_bucket][first_slot] = Entry {
                occupied: true,
                key: k,
                value: v,
            };
            return true;
        }
        false
    }
}

/// Bucketized cuckoo hash table with striped locks.
pub struct Cuckoo {
    inner: RwLock<Inner>,
    locks: Vec<Mutex<()>>,
}

/// Per-thread handle (stateless).
pub struct CuckooHandle<'a> {
    table: &'a Cuckoo,
}

impl Cuckoo {
    fn lock_two(&self, a: usize, b: usize) -> (MutexGuard<'_, ()>, Option<MutexGuard<'_, ()>>) {
        let (first, second) = (a.min(b) % LOCK_STRIPES, a.max(b) % LOCK_STRIPES);
        let g1 = lock(&self.locks[first]);
        let g2 = if second != first {
            Some(lock(&self.locks[second]))
        } else {
            None
        };
        (g1, g2)
    }

    /// Grow by rehashing everything into twice as many buckets (global
    /// write lock — intentionally slow, like the modeled library).  If the
    /// doubled table still cannot place every element in one of its two
    /// buckets, the target size is doubled again and the rehash restarts.
    fn grow(&self) {
        let mut inner = write(&self.inner);
        let mut new_n = inner.nbuckets * 2;
        'retry: loop {
            let mut fresh = Inner::new(new_n);
            for bucket in &inner.buckets {
                for entry in bucket.iter().filter(|e| e.occupied) {
                    let (a, b) = fresh.bucket_pair(entry.key);
                    let target = if fresh.free_slot(a).is_some() { a } else { b };
                    if let Some(slot) = fresh.free_slot(target) {
                        fresh.buckets[target][slot] = *entry;
                    } else {
                        new_n *= 2;
                        continue 'retry;
                    }
                }
            }
            *inner = fresh;
            return;
        }
    }
}

impl ConcurrentMap for Cuckoo {
    type Handle<'a> = CuckooHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        let nbuckets = (capacity_for(capacity) / SLOTS).max(4);
        Cuckoo {
            inner: RwLock::new(Inner::new(nbuckets)),
            locks: (0..LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
        }
    }

    fn handle(&self) -> CuckooHandle<'_> {
        CuckooHandle { table: self }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "cuckoo",
            interface: InterfaceStyle::Standard,
            growing: GrowthSupport::Limited,
            atomic_updates: true,
            overwrite_only: false,
            deletion: true,
            arbitrary_types: true,
            note: "growing is slow (global rehash)",
        }
    }
}

impl MapHandle for CuckooHandle<'_> {
    fn insert(&mut self, k: Key, v: Value) -> bool {
        loop {
            {
                // All structural changes go through the global write lock
                // (see the module doc); the striped locks only cover the
                // read path.
                let mut inner = write(&self.table.inner);
                let (a, b) = inner.bucket_pair(k);
                if inner.find_in(a, k).is_some() || inner.find_in(b, k).is_some() {
                    return false;
                }
                if inner.place(k, v) {
                    return true;
                }
            }
            // No path found: grow and retry.
            self.table.grow();
        }
    }

    fn find(&mut self, k: Key) -> Option<Value> {
        let inner = read(&self.table.inner);
        let (a, b) = inner.bucket_pair(k);
        // Lookups lock the primary bucket, like the modeled library.
        let (_g1, _g2) = self.table.lock_two(a, a);
        if let Some((_, v)) = inner.find_in(a, k) {
            return Some(v);
        }
        drop(_g1);
        let (_g1, _g2) = self.table.lock_two(b, b);
        inner.find_in(b, k).map(|(_, v)| v)
    }

    fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
        let mut inner = write(&self.table.inner);
        inner.update_in_place(k, d, up)
    }

    fn insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> InsertOrUpdate {
        // Update and insert must happen in ONE write-lock critical section:
        // composing the public `update` and `insert` (which take the lock
        // separately) lets a concurrent upsert of the same key slip between
        // them and drops this thread's update ("lost increment").
        loop {
            {
                let mut inner = write(&self.table.inner);
                if inner.update_in_place(k, d, up) {
                    return InsertOrUpdate::Updated;
                }
                if inner.place(k, d) {
                    return InsertOrUpdate::Inserted;
                }
            }
            // No room even after displacement: grow and retry.
            self.table.grow();
        }
    }

    fn erase(&mut self, k: Key) -> bool {
        let mut inner = write(&self.table.inner);
        let (a, b) = inner.bucket_pair(k);
        for bucket in [a, b] {
            if let Some((slot, _)) = inner.find_in(bucket, k) {
                inner.buckets[bucket][slot].occupied = false;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let t = Cuckoo::with_capacity(1000);
        let mut h = t.handle();
        for k in 2..800u64 {
            assert!(h.insert(k, k + 1), "insert {k}");
        }
        assert!(!h.insert(2, 0));
        for k in 2..800u64 {
            assert_eq!(h.find(k), Some(k + 1));
        }
        assert!(h.update(3, 10, |c, d| c + d));
        assert_eq!(h.find(3), Some(14));
        assert!(h.erase(3));
        assert_eq!(h.find(3), None);
    }

    #[test]
    fn grows_when_overfull() {
        let t = Cuckoo::with_capacity(64);
        let mut h = t.handle();
        for k in 2..2_002u64 {
            assert!(h.insert(k, k), "insert {k}");
        }
        for k in 2..2_002u64 {
            assert_eq!(h.find(k), Some(k));
        }
    }

    #[test]
    fn concurrent_aggregation() {
        let t = Cuckoo::with_capacity(4096);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..4_000u64 {
                        h.insert_or_increment(2 + i % 53, 1);
                    }
                });
            }
        });
        let mut h = t.handle();
        let total: u64 = (0..53u64).map(|k| h.find(2 + k).unwrap()).sum();
        assert_eq!(total, 16_000);
    }
}
