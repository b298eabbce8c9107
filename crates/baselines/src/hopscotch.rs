//! Hopscotch hashing (Herlihy, Shavit, Tzafrir 2008), paper §8.1.3.
//!
//! Open addressing where every element is kept within a fixed-size
//! *neighborhood* (H consecutive cells) of its home bucket; insertion makes
//! room by displacing elements backwards in hop-sized steps.  The original
//! implementation used in the paper exposes only a hash-*set* interface;
//! like the paper we treat `insert ≅ put` and `find ≅ contains`, but store
//! a value word as well so the common map benchmarks can run.
//!
//! Writes lock the (striped) segment of the home bucket; finds read the
//! cells without locking, accepting the same torn-read arguments as the
//! folklore table.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

use growt_iface::sync::lock;
use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};

use crate::util::{assert_user_key, capacity_for, hash_key, scale};

/// Neighborhood size (the classic choice).
const H: usize = 32;
const EMPTY: u64 = 0;
/// In-flight claim on an empty cell: taken with CAS by an inserter whose
/// probe ran past its own stripe, published as the real key afterwards.
/// Not a valid user key — enforced by `assert_user_key` in the handle.
const RESERVED: u64 = u64::MAX;
const LOCK_STRIPES: usize = 1024;

struct Slot {
    key: AtomicU64,
    value: AtomicU64,
    /// Bitmap: bit i set ⇒ the element homed here lives at offset i.
    hop_info: AtomicU32,
}

/// Hopscotch hash map with striped write locks and lock-free reads.
///
/// # Lock ordering
///
/// The displacement lock is ordered *before* every stripe lock: an inserter
/// that needs to displace releases its home stripe lock first, then takes
/// the displacement lock and re-acquires stripe locks under it (see
/// [`Hopscotch::insert_displaced`]).  Every other operation holds at most
/// one stripe lock and never blocks on a second lock while holding it, so
/// the only thread that ever holds several locks is the (unique) holder of
/// the displacement lock — no cycle is possible.
pub struct Hopscotch {
    slots: Vec<Slot>,
    locks: Vec<Mutex<()>>,
    /// Serializes the (rare) displacement path, which reaches into other
    /// buckets' neighborhoods and is not covered by one stripe lock.
    /// Ordered before all stripe locks; see the struct-level doc.
    displacement_lock: Mutex<()>,
    capacity: usize,
}

/// Per-thread handle (stateless).
pub struct HopscotchHandle<'a> {
    table: &'a Hopscotch,
}

/// Outcome of the in-stripe insert attempt ([`Hopscotch::insert_fast`]).
enum FastInsert {
    /// Inserted within the neighborhood.
    Inserted,
    /// No free cell could be claimed anywhere: table full.
    Full,
    /// A cell was claimed (`RESERVED`) at this index but lies outside the
    /// neighborhood; the caller must release the stripe lock and finish
    /// through [`Hopscotch::insert_displaced`].
    NeedsDisplacement(usize),
}

/// Outcome of the displacement path ([`Hopscotch::insert_displaced`]).
enum DisplacedInsert {
    Inserted,
    /// The key was inserted concurrently while no stripe lock was held.
    AlreadyPresent,
    /// Displacement could not make room: table full.
    Full,
}

impl Hopscotch {
    #[inline]
    fn lock_for(&self, bucket: usize) -> &Mutex<()> {
        &self.locks[bucket % LOCK_STRIPES]
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        scale(hash_key(key), self.capacity)
    }

    /// Try to move an element from the neighborhood window ending just
    /// before `free` closer to its own home, freeing an earlier slot.
    /// Returns the new free slot on success.
    ///
    /// The caller must own `free` (hold its `RESERVED` claim), the
    /// table-wide displacement lock, and — acquired *after* the
    /// displacement lock — the stripe lock `held_stripe` of the key being
    /// inserted; the claim is transferred to the returned slot.  The move
    /// additionally takes the stripe lock of the *moved* key's home (unless
    /// it is `held_stripe`), excluding a concurrent update or erase of that
    /// key from racing with the copy.  Waiting on those stripe locks while
    /// holding the displacement lock is safe because no thread blocks on
    /// the displacement lock while holding a stripe lock (see the
    /// struct-level lock-ordering doc), so every stripe holder eventually
    /// releases.  `hop_info` words are modified with atomic RMW ops because
    /// inserters under other stripe locks `fetch_or` them concurrently.
    fn hop_backwards(&self, free: usize, held_stripe: usize) -> Option<usize> {
        // Look at the H-1 slots before `free`; any element homed there whose
        // neighborhood still covers `free` can be moved into `free`.
        for distance in (1..H).rev() {
            let candidate_home = (free + self.capacity - distance) & (self.capacity - 1);
            let candidate_stripe = candidate_home % LOCK_STRIPES;
            let _stripe_guard = if candidate_stripe != held_stripe {
                Some(lock(&self.locks[candidate_stripe]))
            } else {
                None
            };
            // Re-read under the candidate's stripe lock: the bitmap may
            // have changed while the lock was being acquired.
            let info = self.slots[candidate_home].hop_info.load(Ordering::Acquire);
            // Find the earliest member of candidate_home's neighborhood.
            for offset in 0..distance {
                if info & (1 << offset) != 0 {
                    let from = (candidate_home + offset) & (self.capacity - 1);
                    // Move `from` → `free`.
                    let key = self.slots[from].key.load(Ordering::Acquire);
                    let value = self.slots[from].value.load(Ordering::Acquire);
                    self.slots[free].value.store(value, Ordering::Release);
                    self.slots[free].key.store(key, Ordering::Release);
                    self.slots[candidate_home]
                        .hop_info
                        .fetch_or(1 << distance, Ordering::AcqRel);
                    self.slots[candidate_home]
                        .hop_info
                        .fetch_and(!(1u32 << offset), Ordering::AcqRel);
                    self.slots[from].key.store(RESERVED, Ordering::Release);
                    return Some(from);
                }
            }
        }
        None
    }

    /// Locate `k` in `home`'s neighborhood.  Returns `(slot index, hop
    /// offset)`.  The stripe lock of `home` must be held.
    fn slot_of(&self, home: usize, k: u64) -> Option<(usize, usize)> {
        let info = self.slots[home].hop_info.load(Ordering::Acquire);
        for offset in 0..H {
            if info & (1 << offset) != 0 {
                let idx = (home + offset) & (self.capacity - 1);
                if self.slots[idx].key.load(Ordering::Acquire) == k {
                    return Some((idx, offset));
                }
            }
        }
        None
    }

    /// Update `k` in place if present in its neighborhood.  The stripe lock
    /// of `home` must be held.
    fn update_locked(&self, home: usize, k: u64, d: u64, up: fn(u64, u64) -> u64) -> bool {
        match self.slot_of(home, k) {
            Some((idx, _)) => {
                let cur = self.slots[idx].value.load(Ordering::Acquire);
                self.slots[idx].value.store(up(cur, d), Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Publish `⟨k, v⟩` into the claimed slot `free` (`distance < H` cells
    /// from `home`) and link it into `home`'s neighborhood bitmap.
    #[inline]
    fn publish(&self, home: usize, free: usize, distance: usize, k: u64, v: u64) {
        self.slots[free].value.store(v, Ordering::Release);
        self.slots[free].key.store(k, Ordering::Release);
        self.slots[home]
            .hop_info
            .fetch_or(1 << distance, Ordering::AcqRel);
    }

    /// Insert `k` (known absent from its neighborhood) if it fits without
    /// displacement.  The stripe lock of `home` must be held.
    ///
    /// The probe sequence may run past the stripe covered by `home`'s lock,
    /// so the free slot is *claimed* with a CAS (`EMPTY → RESERVED`): two
    /// inserts with different home buckets can race for the same empty cell
    /// and only one wins it.  If the claimed cell lies outside the
    /// neighborhood the claim is handed back to the caller, which must drop
    /// the stripe lock and finish via [`Hopscotch::insert_displaced`] —
    /// displacing under the stripe lock would invert the displacement-first
    /// lock order and deadlock against a second displacing inserter.
    fn insert_fast(&self, home: usize, k: u64, v: u64) -> FastInsert {
        // Claim a free slot by linear probing from home.
        let mut free = home;
        let mut probed = 0usize;
        loop {
            if self.slots[free].key.load(Ordering::Acquire) == EMPTY
                && self.slots[free]
                    .key
                    .compare_exchange(EMPTY, RESERVED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                break;
            }
            free = (free + 1) & (self.capacity - 1);
            probed += 1;
            if probed >= self.capacity {
                return FastInsert::Full;
            }
        }
        let distance = (free + self.capacity - home) & (self.capacity - 1);
        if distance >= H {
            return FastInsert::NeedsDisplacement(free);
        }
        self.publish(home, free, distance, k, v);
        FastInsert::Inserted
    }

    /// Finish an insert whose claimed cell `free` lies outside the
    /// neighborhood: hop it backwards until it is within reach of `home`.
    /// Must be called WITHOUT any stripe lock held; the claim on `free` (a
    /// `RESERVED` key, invisible to every probe) is the caller's.
    ///
    /// Locks are taken in displacement-first order — the table-wide
    /// displacement lock, then `home`'s stripe lock, then (inside
    /// `hop_backwards`) the moved keys' stripe locks — which is what makes
    /// concurrent displacing inserters deadlock-free; see the struct-level
    /// doc.  At the 4× head-room this table allocates it is a cold path.
    ///
    /// Because the home stripe lock was released while queueing for the
    /// displacement lock, a concurrent insert of the same key may have
    /// landed in between; that is re-checked here and reported as
    /// [`DisplacedInsert::AlreadyPresent`].
    fn insert_displaced(&self, home: usize, k: u64, v: u64, mut free: usize) -> DisplacedInsert {
        let _displace = lock(&self.displacement_lock);
        let _guard = lock(self.lock_for(home));
        if self.contains_locked(home, k) {
            self.slots[free].key.store(EMPTY, Ordering::Release);
            return DisplacedInsert::AlreadyPresent;
        }
        let mut distance = (free + self.capacity - home) & (self.capacity - 1);
        while distance >= H {
            match self.hop_backwards(free, home % LOCK_STRIPES) {
                Some(new_free) => {
                    free = new_free;
                    distance = (free + self.capacity - home) & (self.capacity - 1);
                }
                None => {
                    // Cannot make room (would trigger resize): release the
                    // claimed cell again.
                    self.slots[free].key.store(EMPTY, Ordering::Release);
                    return DisplacedInsert::Full;
                }
            }
        }
        self.publish(home, free, distance, k, v);
        DisplacedInsert::Inserted
    }

    /// `true` if `k` is present in its neighborhood.  The stripe lock of
    /// `home` must be held (or torn reads accepted).
    fn contains_locked(&self, home: usize, k: u64) -> bool {
        self.slot_of(home, k).is_some()
    }
}

impl ConcurrentMap for Hopscotch {
    type Handle<'a> = HopscotchHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        // The benchmarked implementation cannot resize; allocate generous
        // head-room (4× the usual) so neighborhood overflow is not hit in
        // the benchmark regimes.
        let capacity = capacity_for(capacity) * 4;
        Hopscotch {
            slots: (0..capacity)
                .map(|_| Slot {
                    key: AtomicU64::new(EMPTY),
                    value: AtomicU64::new(0),
                    hop_info: AtomicU32::new(0),
                })
                .collect(),
            locks: (0..LOCK_STRIPES).map(|_| Mutex::new(())).collect(),
            displacement_lock: Mutex::new(()),
            capacity,
        }
    }

    fn handle(&self) -> HopscotchHandle<'_> {
        HopscotchHandle { table: self }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "hopscotch",
            interface: InterfaceStyle::SetInterface,
            growing: GrowthSupport::None,
            atomic_updates: false,
            overwrite_only: false,
            deletion: true,
            arbitrary_types: false,
            note: "neighborhood H=32",
        }
    }
}

impl MapHandle for HopscotchHandle<'_> {
    fn insert(&mut self, k: Key, v: Value) -> bool {
        assert_user_key(k);
        let t = self.table;
        let home = t.home(k);
        let guard = lock(t.lock_for(home));
        if t.contains_locked(home, k) {
            return false;
        }
        match t.insert_fast(home, k, v) {
            FastInsert::Inserted => true,
            FastInsert::Full => false,
            FastInsert::NeedsDisplacement(free) => {
                // Displacement-first lock order: give up the stripe lock
                // before queueing on the displacement lock.
                drop(guard);
                match t.insert_displaced(home, k, v, free) {
                    DisplacedInsert::Inserted => true,
                    DisplacedInsert::AlreadyPresent | DisplacedInsert::Full => false,
                }
            }
        }
    }

    fn find(&mut self, k: Key) -> Option<Value> {
        assert_user_key(k);
        let t = self.table;
        let home = t.home(k);
        // Lock-free probe, retried when the neighborhood bitmap changes
        // underneath it: a displacement moves a member and flips two bits,
        // and a probe overlapping the move can otherwise miss a
        // continuously-present key (bitmap snapshot taken before the new
        // offset bit was set, old slot checked after the copy).  The
        // original algorithm guards this with per-bucket timestamps; the
        // bitmap re-read serves the same purpose here.  A miss only counts
        // once the bitmap is observed unchanged across the probe; after a
        // few displaced retries fall back to the exact stripe-locked
        // lookup (any displacement of this neighborhood's members holds
        // this stripe lock, so it cannot race).
        for _ in 0..8 {
            let info = t.slots[home].hop_info.load(Ordering::Acquire);
            let mut displaced = false;
            for offset in 0..H {
                if info & (1 << offset) != 0 {
                    let idx = (home + offset) & (t.capacity - 1);
                    if t.slots[idx].key.load(Ordering::Acquire) == k {
                        let value = t.slots[idx].value.load(Ordering::Acquire);
                        // Re-check the key: the slot may have been displaced
                        // and re-published under a different key between the
                        // two loads, making `value` another key's.  (An
                        // erase + re-insert of `k` into the same slot
                        // between the loads is ABA this torn-read model
                        // accepts, like the folklore table.)
                        if t.slots[idx].key.load(Ordering::Acquire) == k {
                            return Some(value);
                        }
                        displaced = true;
                        break;
                    }
                }
            }
            if !displaced && t.slots[home].hop_info.load(Ordering::Acquire) == info {
                return None;
            }
        }
        let _guard = lock(t.lock_for(home));
        t.slot_of(home, k)
            .map(|(idx, _)| t.slots[idx].value.load(Ordering::Acquire))
    }

    fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
        assert_user_key(k);
        let t = self.table;
        let home = t.home(k);
        let _guard = lock(t.lock_for(home));
        t.update_locked(home, k, d, up)
    }

    fn insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> InsertOrUpdate {
        // One critical section for the update-or-insert decision: composing
        // the public `update` and `insert` would release the stripe lock in
        // between and let a concurrent upsert of the same key drop this
        // thread's update.  Only the (cold) displacement path gives up the
        // stripe lock, and a same-key insert sneaking into that window is
        // detected and retried as an update.
        assert_user_key(k);
        let t = self.table;
        let home = t.home(k);
        loop {
            let guard = lock(t.lock_for(home));
            if t.update_locked(home, k, d, up) {
                return InsertOrUpdate::Updated;
            }
            match t.insert_fast(home, k, d) {
                FastInsert::Inserted => return InsertOrUpdate::Inserted,
                // Table full: count it as an update attempt on a
                // best-effort basis (mirrors the set-only interface of the
                // original).
                FastInsert::Full => return InsertOrUpdate::Updated,
                FastInsert::NeedsDisplacement(free) => {
                    drop(guard);
                    match t.insert_displaced(home, k, d, free) {
                        DisplacedInsert::Inserted => return InsertOrUpdate::Inserted,
                        DisplacedInsert::Full => return InsertOrUpdate::Updated,
                        DisplacedInsert::AlreadyPresent => continue,
                    }
                }
            }
        }
    }

    fn erase(&mut self, k: Key) -> bool {
        assert_user_key(k);
        let t = self.table;
        let home = t.home(k);
        let _guard = lock(t.lock_for(home));
        match t.slot_of(home, k) {
            Some((idx, offset)) => {
                t.slots[idx].key.store(EMPTY, Ordering::Release);
                t.slots[home]
                    .hop_info
                    .fetch_and(!(1 << offset), Ordering::AcqRel);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip_and_delete() {
        let t = Hopscotch::with_capacity(1024);
        let mut h = t.handle();
        for k in 2..600u64 {
            assert!(h.insert(k, k * 3), "insert {k}");
        }
        assert!(!h.insert(5, 0));
        for k in 2..600u64 {
            assert_eq!(h.find(k), Some(k * 3));
        }
        assert!(h.erase(10));
        assert_eq!(h.find(10), None);
        assert!(!h.erase(10));
        assert!(h.update(11, 1, |c, d| c + d));
        assert_eq!(h.find(11), Some(34));
    }

    #[test]
    fn displacement_keeps_elements_findable() {
        // Small table forces hopping.
        let t = Hopscotch::with_capacity(128);
        let mut h = t.handle();
        let mut inserted = Vec::new();
        for k in 2..200u64 {
            if h.insert(k, k) {
                inserted.push(k);
            }
        }
        assert!(inserted.len() > 100);
        for &k in &inserted {
            assert_eq!(h.find(k), Some(k), "lost {k} after displacement");
        }
    }

    #[test]
    fn concurrent_displacement_does_not_deadlock() {
        // Small table at high load: many inserts land outside their
        // neighborhood and take the displacement path from several threads
        // at once.  With displacement taken under the stripe lock this
        // deadlocks (stripe → displacement → other stripe vs. stripe →
        // displacement); with displacement-first ordering it must finish.
        let t = Hopscotch::with_capacity(64);
        let inserted = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for start in 0..4u64 {
                let (t, inserted) = (&t, &inserted);
                s.spawn(move || {
                    let mut h = t.handle();
                    for i in 0..100u64 {
                        let k = 1_000_000 * start + i + 2;
                        if h.insert(k, i) {
                            lock(inserted).push((k, i));
                        }
                    }
                });
            }
        });
        // Every key that reported success must be findable.
        let keys = inserted.into_inner().unwrap();
        assert!(!keys.is_empty());
        let mut h = t.handle();
        for (k, v) in keys {
            assert_eq!(h.find(k), Some(v), "lost key {k}");
        }
    }

    #[test]
    fn concurrent_inserts() {
        let t = Hopscotch::with_capacity(20_000);
        std::thread::scope(|s| {
            for start in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    let mut h = t.handle();
                    for k in 0..2_000u64 {
                        assert!(h.insert(1_000_000 * start + k + 2, k));
                    }
                });
            }
        });
        let mut h = t.handle();
        for start in 0..4u64 {
            for k in 0..2_000u64 {
                assert_eq!(h.find(1_000_000 * start + k + 2), Some(k));
            }
        }
    }
}
