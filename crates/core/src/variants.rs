//! The public table types of the evaluation (paper §7, Table 1) and their
//! [`ConcurrentMap`] implementations.
//!
//! * [`Folklore`] — the bounded, non-growing lock-free table of §4;
//! * [`TsxFolklore`] — the same table with single-cell operations wrapped
//!   in (simulated) hardware transactions (§6);
//! * [`UaGrow`], [`UsGrow`], [`PaGrow`], [`PsGrow`] — the four growing
//!   variants: **u**ser-thread vs. **p**ool migration × **a**synchronous
//!   marking vs. **s**ynchronized exclusion (§5.3.2, §7);
//! * [`UaGrowTsx`], [`UsGrowTsx`] — growing variants instantiated on top of
//!   the TSX-style folklore table (Fig. 9b).

use growt_iface::{
    Capabilities, ConcurrentMap, GrowthSupport, InsertOrUpdate, InterfaceStyle, Key, MapHandle,
    Value,
};

use crate::config::{capacity_for, HashSelect, ProbeSelect};
use crate::grow::{Consistency, GrowHandle, GrowStrategy, GrowingOptions, GrowingTable};
use crate::table::{BoundedTable, EraseOutcome, InsertOutcome, UpdateOutcome, UpsertOutcome};

/// Per-call scratch size of the allocation-free batch overrides (a
/// multiple of the table pipeline width, see `config::BATCH_PIPELINE`).
const BATCH_CHUNK: usize = 64;

/// Shared wrapper of the folklore batch overrides: run the table-level
/// batch primitive over `BATCH_CHUNK`-sized chunks against a fixed-size
/// outcome scratch (no allocation on the fast path) and count the
/// outcomes `success` accepts.
fn count_batched<T: Copy, O: Copy>(
    items: &[T],
    default_outcome: O,
    run: impl Fn(&[T], &mut [O]),
    success: impl Fn(O) -> bool,
) -> usize {
    let mut outcomes = [default_outcome; BATCH_CHUNK];
    let mut count = 0;
    for chunk in items.chunks(BATCH_CHUNK) {
        let out = &mut outcomes[..chunk.len()];
        run(chunk, out);
        count += out.iter().filter(|&&o| success(o)).count();
    }
    count
}

// ---------------------------------------------------------------------------
// Folklore (bounded, non-growing)
// ---------------------------------------------------------------------------

/// The bounded lock-free linear-probing table (§4): word-sized keys and
/// values, no growing, tombstone deletion without memory reclamation.
pub struct Folklore {
    table: BoundedTable,
}

/// Per-thread handle of [`Folklore`] (stateless: the folklore table needs no
/// thread-local data).
pub struct FolkloreHandle<'a> {
    table: &'a BoundedTable,
}

impl ConcurrentMap for Folklore {
    type Handle<'a> = FolkloreHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        Folklore {
            table: BoundedTable::with_expected_elements(capacity),
        }
    }

    fn handle(&self) -> FolkloreHandle<'_> {
        FolkloreHandle { table: &self.table }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "folklore",
            interface: InterfaceStyle::Standard,
            growing: GrowthSupport::None,
            atomic_updates: true,
            overwrite_only: false,
            deletion: false,
            arbitrary_types: false,
            note: "bounded; tombstones only",
        }
    }
}

impl MapHandle for FolkloreHandle<'_> {
    fn insert(&mut self, k: Key, v: Value) -> bool {
        matches!(self.table.insert(k, v), InsertOutcome::Inserted { .. })
    }

    fn find(&mut self, k: Key) -> Option<Value> {
        self.table.find(k)
    }

    fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
        // Non-growing table: no marking protocol can interleave, so the
        // single-word value-CAS fast path is always legal (§4).
        self.table.update_value_cas_unsynchronized(k, d, up) == UpdateOutcome::Updated
    }

    fn insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> InsertOrUpdate {
        match self.table.upsert_with(k, d, up) {
            UpsertOutcome::Inserted => InsertOrUpdate::Inserted,
            _ => InsertOrUpdate::Updated,
        }
    }

    fn erase(&mut self, k: Key) -> bool {
        self.table.erase(k) == EraseOutcome::Erased
    }

    fn find_batch(&mut self, keys: &[Key], out: &mut [Option<Value>]) {
        self.table.find_batch(keys, out);
    }

    fn insert_batch(&mut self, elements: &[(Key, Value)]) -> usize {
        count_batched(
            elements,
            InsertOutcome::Full,
            |chunk, out| self.table.insert_batch(chunk, out),
            |o| matches!(o, InsertOutcome::Inserted { .. }),
        )
    }

    fn update_batch(&mut self, elements: &[(Key, Value)], up: fn(Value, Value) -> Value) -> usize {
        // Same value-CAS fast path as the single-op `update` above.
        count_batched(
            elements,
            UpdateOutcome::NotFound,
            |chunk, out| {
                self.table
                    .update_batch_value_cas_unsynchronized(chunk, up, out)
            },
            |o| o == UpdateOutcome::Updated,
        )
    }

    fn erase_batch(&mut self, keys: &[Key]) -> usize {
        count_batched(
            keys,
            EraseOutcome::NotFound,
            |chunk, out| self.table.erase_batch(chunk, out),
            |o| o == EraseOutcome::Erased,
        )
    }

    fn update_overwrite(&mut self, k: Key, d: Value) -> bool {
        // Non-growing table: no marking protocol, so the single-word store
        // specialization is always legal (§4).
        self.table.update_overwrite_unsynchronized(k, d) == UpdateOutcome::Updated
    }

    fn insert_or_increment(&mut self, k: Key, d: Value) -> InsertOrUpdate {
        match self.table.upsert_fetch_add_unsynchronized(k, d) {
            UpsertOutcome::Inserted => InsertOrUpdate::Inserted,
            _ => InsertOrUpdate::Updated,
        }
    }

    fn size_estimate(&mut self) -> usize {
        self.table.scan_counts().0
    }
}

// ---------------------------------------------------------------------------
// TsxFolklore (bounded, transactional fast path)
// ---------------------------------------------------------------------------

/// The bounded folklore table with single-cell modifications wrapped in
/// (simulated) restricted hardware transactions, falling back to the atomic
/// path on abort (§6, §7 "tsxfolklore").
pub struct TsxFolklore {
    table: BoundedTable,
    htm: growt_htm::HtmDomain,
}

/// Per-thread handle of [`TsxFolklore`].
pub struct TsxFolkloreHandle<'a> {
    table: &'a BoundedTable,
    htm: &'a growt_htm::HtmDomain,
}

impl TsxFolklore {
    /// Commit/abort/fallback statistics of the transactional fast path.
    pub fn htm_stats(&self) -> (u64, u64, u64) {
        self.htm.stats.snapshot()
    }
}

impl ConcurrentMap for TsxFolklore {
    type Handle<'a> = TsxFolkloreHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        let table = BoundedTable::with_expected_elements(capacity);
        let stripes = (table.capacity() / 4).max(64);
        TsxFolklore {
            table,
            htm: growt_htm::HtmDomain::new(stripes),
        }
    }

    fn handle(&self) -> TsxFolkloreHandle<'_> {
        TsxFolkloreHandle {
            table: &self.table,
            htm: &self.htm,
        }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "tsxfolklore",
            interface: InterfaceStyle::Standard,
            growing: GrowthSupport::None,
            atomic_updates: true,
            overwrite_only: false,
            deletion: false,
            arbitrary_types: false,
            note: "simulated RTM fast path",
        }
    }
}

impl TsxFolkloreHandle<'_> {
    #[inline]
    fn transactional<R>(&self, k: Key, op: impl Fn() -> R) -> R {
        let line = self.table.home_cell(k) >> 2;
        let (result, _) = self.htm.execute(line, &op, &op);
        result
    }
}

impl MapHandle for TsxFolkloreHandle<'_> {
    fn insert(&mut self, k: Key, v: Value) -> bool {
        self.transactional(k, || {
            matches!(self.table.insert(k, v), InsertOutcome::Inserted { .. })
        })
    }

    fn find(&mut self, k: Key) -> Option<Value> {
        // Lookups do not need a transaction (§8.4).
        self.table.find(k)
    }

    fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
        self.transactional(k, || {
            self.table.update_with(k, d, up) == UpdateOutcome::Updated
        })
    }

    fn insert_or_update(
        &mut self,
        k: Key,
        d: Value,
        up: fn(Value, Value) -> Value,
    ) -> InsertOrUpdate {
        self.transactional(k, || match self.table.upsert_with(k, d, up) {
            UpsertOutcome::Inserted => InsertOrUpdate::Inserted,
            _ => InsertOrUpdate::Updated,
        })
    }

    fn erase(&mut self, k: Key) -> bool {
        self.transactional(k, || self.table.erase(k) == EraseOutcome::Erased)
    }

    fn insert_or_increment(&mut self, k: Key, d: Value) -> InsertOrUpdate {
        self.transactional(k, || {
            match self.table.upsert_fetch_add_unsynchronized(k, d) {
                UpsertOutcome::Inserted => InsertOrUpdate::Inserted,
                _ => InsertOrUpdate::Updated,
            }
        })
    }

    fn size_estimate(&mut self) -> usize {
        self.table.scan_counts().0
    }
}

// ---------------------------------------------------------------------------
// Growing variants
// ---------------------------------------------------------------------------

macro_rules! growing_variant {
    ($(#[$doc:meta])* $name:ident, $handle:ident, $strategy:expr, $consistency:expr,
     $display:literal, $htm:literal) => {
        growing_variant!($(#[$doc])* $name, $handle, $strategy, $consistency,
            $display, $htm, HashSelect::Mix, ProbeSelect::Scalar);
    };
    ($(#[$doc:meta])* $name:ident, $handle:ident, $strategy:expr, $consistency:expr,
     $display:literal, $htm:literal, $hash:expr) => {
        growing_variant!($(#[$doc])* $name, $handle, $strategy, $consistency,
            $display, $htm, $hash, ProbeSelect::Scalar);
    };
    ($(#[$doc:meta])* $name:ident, $handle:ident, $strategy:expr, $consistency:expr,
     $display:literal, $htm:literal, $hash:expr, $probe:expr) => {
        growing_variant!($(#[$doc])* $name, $handle, $strategy, $consistency,
            $display, $htm, $hash, $probe, None);
    };
    ($(#[$doc:meta])* $name:ident, $handle:ident, $strategy:expr, $consistency:expr,
     $display:literal, $htm:literal, $hash:expr, $probe:expr, $budget:expr) => {
        $(#[$doc])*
        pub struct $name {
            table: GrowingTable,
        }

        /// Per-thread handle (wraps [`GrowHandle`]).
        pub struct $handle<'a> {
            handle: GrowHandle<'a>,
        }

        impl $name {
            /// Access the underlying [`GrowingTable`] (statistics, options).
            pub fn inner(&self) -> &GrowingTable {
                &self.table
            }
        }

        impl ConcurrentMap for $name {
            type Handle<'a> = $handle<'a>;

            fn with_capacity(capacity: usize) -> Self {
                let options = GrowingOptions {
                    strategy: $strategy,
                    consistency: $consistency,
                    threads_hint: crate::cpu::available_parallelism(),
                    use_htm: $htm,
                    hash: $hash,
                    probe: $probe,
                    help_budget: $budget,
                    ..GrowingOptions::default()
                };
                $name {
                    table: GrowingTable::with_options(capacity, options),
                }
            }

            fn handle(&self) -> $handle<'_> {
                $handle {
                    handle: self.table.handle(),
                }
            }

            fn capabilities() -> Capabilities {
                Capabilities {
                    name: $display,
                    interface: InterfaceStyle::Handles,
                    growing: GrowthSupport::Full,
                    atomic_updates: true,
                    overwrite_only: false,
                    deletion: true,
                    arbitrary_types: false,
                    note: "",
                }
            }
        }

        impl MapHandle for $handle<'_> {
            fn insert(&mut self, k: Key, v: Value) -> bool {
                self.handle.insert(k, v)
            }

            fn find(&mut self, k: Key) -> Option<Value> {
                self.handle.find(k)
            }

            fn update(&mut self, k: Key, d: Value, up: fn(Value, Value) -> Value) -> bool {
                self.handle.update(k, d, up)
            }

            fn insert_or_update(
                &mut self,
                k: Key,
                d: Value,
                up: fn(Value, Value) -> Value,
            ) -> InsertOrUpdate {
                if self.handle.insert_or_update(k, d, up) {
                    InsertOrUpdate::Inserted
                } else {
                    InsertOrUpdate::Updated
                }
            }

            fn erase(&mut self, k: Key) -> bool {
                self.handle.erase(k)
            }

            fn update_overwrite(&mut self, k: Key, d: Value) -> bool {
                self.handle.update_overwrite(k, d)
            }

            fn insert_or_increment(&mut self, k: Key, d: Value) -> InsertOrUpdate {
                if self.handle.insert_or_increment(k, d) {
                    InsertOrUpdate::Inserted
                } else {
                    InsertOrUpdate::Updated
                }
            }

            fn find_batch(&mut self, keys: &[Key], out: &mut [Option<Value>]) {
                self.handle.find_batch(keys, out);
            }

            fn insert_batch(&mut self, elements: &[(Key, Value)]) -> usize {
                self.handle.insert_batch(elements)
            }

            fn update_batch(
                &mut self,
                elements: &[(Key, Value)],
                up: fn(Value, Value) -> Value,
            ) -> usize {
                self.handle.update_batch(elements, up)
            }

            fn erase_batch(&mut self, keys: &[Key]) -> usize {
                self.handle.erase_batch(keys)
            }

            fn size_estimate(&mut self) -> usize {
                self.handle.size_estimate()
            }

            fn quiesce(&mut self) {}
        }
    };
}

growing_variant!(
    /// `uaGrow`: growing by **enslaving user threads**, consistency by
    /// **asynchronous marking** (§7).  The paper's default variant.
    UaGrow,
    UaGrowHandle,
    GrowStrategy::Enslave,
    Consistency::AsyncMarking,
    "uaGrow",
    false
);

growing_variant!(
    /// `usGrow`: growing by **enslaving user threads**, consistency by the
    /// **(semi-)synchronized** protocol, which enables fetch-and-add /
    /// store update specializations (§7).
    UsGrow,
    UsGrowHandle,
    GrowStrategy::Enslave,
    Consistency::Synchronized,
    "usGrow",
    false
);

growing_variant!(
    /// `paGrow`: growing by a **dedicated migration thread pool**,
    /// consistency by **asynchronous marking** (§7).
    PaGrow,
    PaGrowHandle,
    GrowStrategy::Pool,
    Consistency::AsyncMarking,
    "paGrow",
    false
);

growing_variant!(
    /// `psGrow`: growing by a **dedicated migration thread pool**,
    /// consistency by the **(semi-)synchronized** protocol (§7).
    PsGrow,
    PsGrowHandle,
    GrowStrategy::Pool,
    Consistency::Synchronized,
    "psGrow",
    false
);

growing_variant!(
    /// `uaGrow-k1`: [`UaGrow`] with a **help budget of one block** —
    /// a thread drafted into a live migration copies at most one block
    /// before waiting with backoff (bounded cooperative help,
    /// DESIGN.md §13).  The growth leader stays unbudgeted.
    UaGrowK1,
    UaGrowK1Handle,
    GrowStrategy::Enslave,
    Consistency::AsyncMarking,
    "uaGrow-k1",
    false,
    HashSelect::Mix,
    ProbeSelect::Scalar,
    Some(1)
);

growing_variant!(
    /// `uaGrow-k4`: [`UaGrow`] with a help budget of four blocks
    /// (DESIGN.md §13).
    UaGrowK4,
    UaGrowK4Handle,
    GrowStrategy::Enslave,
    Consistency::AsyncMarking,
    "uaGrow-k4",
    false,
    HashSelect::Mix,
    ProbeSelect::Scalar,
    Some(4)
);

growing_variant!(
    /// `uaGrow-k16`: [`UaGrow`] with a help budget of sixteen blocks
    /// (DESIGN.md §13).
    UaGrowK16,
    UaGrowK16Handle,
    GrowStrategy::Enslave,
    Consistency::AsyncMarking,
    "uaGrow-k16",
    false,
    HashSelect::Mix,
    ProbeSelect::Scalar,
    Some(16)
);

growing_variant!(
    /// `uaGrow` on top of the TSX-style folklore table: single-cell
    /// operations run through the simulated-RTM fast path (Fig. 9b).
    UaGrowTsx,
    UaGrowTsxHandle,
    GrowStrategy::Enslave,
    Consistency::AsyncMarking,
    "uaGrow-TSX",
    true
);

growing_variant!(
    /// `usGrow` on top of the TSX-style folklore table (Fig. 9b).
    UsGrowTsx,
    UsGrowTsxHandle,
    GrowStrategy::Enslave,
    Consistency::Synchronized,
    "usGrow-TSX",
    true
);

growing_variant!(
    /// `uaGrow` hashing with the paper's hardware CRC32-C pair instead of
    /// the splitmix64 mixer (§8.3) — the `scaling` figure measures this
    /// against [`UaGrow`] to quantify the hash substitution.
    UaGrowCrc,
    UaGrowCrcHandle,
    GrowStrategy::Enslave,
    Consistency::AsyncMarking,
    "uaGrow-crc",
    false,
    HashSelect::Crc
);

growing_variant!(
    /// `uaGrow` probing through the signature metadata stripe: every table
    /// generation keeps a one-byte fingerprint per cell and matches 16
    /// fingerprints per probe step (SSE2, portable SWAR fallback) — the
    /// `scaling` figure measures this against [`UaGrow`] to quantify the
    /// striped probe under growing and migration.
    UaGrowSimd,
    UaGrowSimdHandle,
    GrowStrategy::Enslave,
    Consistency::AsyncMarking,
    "uaGrow-simd",
    false,
    HashSelect::Mix,
    ProbeSelect::Simd
);

// ---------------------------------------------------------------------------
// FolkloreCrc (bounded, CRC32-C cell mapping)
// ---------------------------------------------------------------------------

/// The bounded folklore table hashing with the paper's hardware CRC32-C
/// pair instead of the splitmix64 mixer (§8.3).  Shares
/// [`FolkloreHandle`] with [`Folklore`]; only the cell mapping differs.
pub struct FolkloreCrc {
    table: BoundedTable,
}

impl ConcurrentMap for FolkloreCrc {
    type Handle<'a> = FolkloreHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        FolkloreCrc {
            table: BoundedTable::with_cells_hashed(capacity_for(capacity), 0, HashSelect::Crc),
        }
    }

    fn handle(&self) -> FolkloreHandle<'_> {
        FolkloreHandle { table: &self.table }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "folklore-crc",
            ..Folklore::capabilities()
        }
    }
}

// ---------------------------------------------------------------------------
// FolkloreSimd (bounded, striped fingerprint probing)
// ---------------------------------------------------------------------------

/// The bounded folklore table probing through the signature metadata
/// stripe: one fingerprint byte per cell, 16 candidates matched per probe
/// step (SSE2 `pcmpeqb`/`pmovmskb`, portable SWAR fallback).  Shares
/// [`FolkloreHandle`] with [`Folklore`]; only the probe strategy differs.
pub struct FolkloreSimd {
    table: BoundedTable,
}

impl ConcurrentMap for FolkloreSimd {
    type Handle<'a> = FolkloreHandle<'a>;

    fn with_capacity(capacity: usize) -> Self {
        FolkloreSimd {
            table: BoundedTable::with_cells_configured(
                capacity_for(capacity),
                0,
                HashSelect::Mix,
                ProbeSelect::Simd,
            ),
        }
    }

    fn handle(&self) -> FolkloreHandle<'_> {
        FolkloreHandle { table: &self.table }
    }

    fn capabilities() -> Capabilities {
        Capabilities {
            name: "folklore-simd",
            ..Folklore::capabilities()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke<M: ConcurrentMap>() {
        let table = M::with_capacity(1024);
        let mut h = table.handle();
        assert!(h.insert(10, 100));
        assert!(!h.insert(10, 101));
        assert_eq!(h.find(10), Some(100));
        assert_eq!(h.find(11), None);
        assert!(h.update(10, 5, |c, d| c + d));
        assert_eq!(h.find(10), Some(105));
        assert!(h.update_overwrite(10, 7));
        assert_eq!(h.find(10), Some(7));
        assert!(h.insert_or_update(11, 1, |c, d| c + d).inserted());
        assert!(!h.insert_or_update(11, 1, |c, d| c + d).inserted());
        assert_eq!(h.find(11), Some(2));
        assert!(h.insert_or_increment(12, 3).inserted());
        assert!(!h.insert_or_increment(12, 4).inserted());
        assert_eq!(h.find(12), Some(7));
    }

    #[test]
    fn folklore_smoke() {
        smoke::<Folklore>();
        let table = Folklore::with_capacity(64);
        let mut h = table.handle();
        assert!(h.insert(5, 50));
        assert!(h.erase(5));
        assert!(!h.erase(5));
        assert_eq!(h.find(5), None);
    }

    #[test]
    fn tsx_folklore_smoke_and_stats() {
        smoke::<TsxFolklore>();
        let table = TsxFolklore::with_capacity(64);
        let mut h = table.handle();
        for k in 2..40u64 {
            h.insert(k, k);
        }
        let (commits, _, fallbacks) = table.htm_stats();
        assert!(commits + fallbacks >= 38);
    }

    #[test]
    fn growing_variants_smoke() {
        smoke::<UaGrow>();
        smoke::<UsGrow>();
        smoke::<PaGrow>();
        smoke::<PsGrow>();
        smoke::<UaGrowTsx>();
        smoke::<UsGrowTsx>();
        smoke::<UaGrowCrc>();
        smoke::<UaGrowSimd>();
    }

    #[test]
    fn simd_variants_grow_and_roundtrip() {
        // The striped probe strategy must be inherited by every generation
        // and survive migrations, deletions, and plain bounded operation.
        smoke::<FolkloreSimd>();
        let table = UaGrowSimd::with_capacity(16);
        let mut h = table.handle();
        for k in 2..10_002u64 {
            assert!(h.insert(k, k * 3));
        }
        assert!(table.inner().migrations_completed() > 0);
        for k in 2..10_002u64 {
            assert_eq!(h.find(k), Some(k * 3));
        }
        for k in 2..1_002u64 {
            assert!(h.erase(k));
            assert_eq!(h.find(k), None);
        }
        assert_eq!(FolkloreSimd::table_name(), "folklore-simd");
        assert_eq!(UaGrowSimd::table_name(), "uaGrow-simd");
    }

    #[test]
    fn crc_variants_grow_and_roundtrip() {
        // The CRC-hashed tables must survive migrations (cell mapping is
        // inherited by every generation) and plain bounded operation.
        smoke::<FolkloreCrc>();
        let table = UaGrowCrc::with_capacity(16);
        let mut h = table.handle();
        for k in 2..10_002u64 {
            assert!(h.insert(k, k * 3));
        }
        assert!(table.inner().migrations_completed() > 0);
        for k in 2..10_002u64 {
            assert_eq!(h.find(k), Some(k * 3));
        }
        assert_eq!(FolkloreCrc::table_name(), "folklore-crc");
        assert_eq!(UaGrowCrc::table_name(), "uaGrow-crc");
    }

    #[test]
    fn growing_variants_delete() {
        fn del<M: ConcurrentMap>() {
            let table = M::with_capacity(128);
            let mut h = table.handle();
            for k in 2..102u64 {
                assert!(h.insert(k, k));
            }
            for k in 2..52u64 {
                assert!(h.erase(k));
            }
            for k in 2..52u64 {
                assert_eq!(h.find(k), None);
            }
            for k in 52..102u64 {
                assert_eq!(h.find(k), Some(k));
            }
        }
        del::<UaGrow>();
        del::<UsGrow>();
        del::<PaGrow>();
        del::<PsGrow>();
    }

    #[test]
    fn capabilities_match_table_1() {
        assert_eq!(Folklore::capabilities().growing, GrowthSupport::None);
        assert!(!Folklore::capabilities().deletion);
        for caps in [
            UaGrow::capabilities(),
            UsGrow::capabilities(),
            PaGrow::capabilities(),
            PsGrow::capabilities(),
        ] {
            assert_eq!(caps.growing, GrowthSupport::Full);
            assert!(caps.atomic_updates);
            assert!(caps.deletion);
            assert_eq!(caps.interface, InterfaceStyle::Handles);
        }
        assert_eq!(UaGrow::table_name(), "uaGrow");
    }
}
