//! # growt-core
//!
//! Lock-free linear-probing hash tables with scalable, transparent growing —
//! a Rust reproduction of the data structures from *"Concurrent Hash Tables:
//! Fast and General?(!)"* (Maier, Sanders, Dementiev; PPoPP 2016).
//!
//! The crate provides, bottom-up:
//!
//! * [`cell`] — the 16-byte table cell manipulated with double-word CAS;
//! * [`table`] — the bounded **folklore** table (§4): insert / find /
//!   update / insert-or-update / tombstone deletion, all lock-free;
//! * [`count`] — approximate size counting with handle-local counters (§5.2);
//! * [`crc`] — the paper's two-seed CRC32-C hash (§8.3), hardware
//!   `crc32q` when SSE4.2 is present, table-driven port otherwise;
//! * [`migrate`] — the cluster-based parallel migration (§5.3.1, Lemma 1);
//! * [`grow`] — the growing table framework combining the enslavement/pool
//!   and marking/synchronized strategies (§5.3.2);
//! * [`variants`] — the public table types used in the evaluation:
//!   `Folklore`, `UaGrow`, `UsGrow`, `PaGrow`, `PsGrow` (§7), with
//!   `FolkloreCrc`/`UaGrowCrc` on the paper's CRC32-C hash (§8.3) and
//!   `FolkloreSimd` on the striped fingerprint probe, which only the
//!   bounded table keeps (DESIGN.md §11);
//! * [`prefetch`] — cache-line prefetch helpers for the batched
//!   (hash → prefetch → probe) hot paths;
//! * [`complex`] — complex (non-word) key support via indirection with
//!   hash signatures (§5.7): the packed key format and the bounded
//!   [`complex::StringKeyTable`] baseline;
//! * [`generic`] — the typed facade [`generic::GrowMap`]`<K, V>`: arbitrary
//!   keys and values over the same cells and the same shared migration
//!   coordinator, inline when word-sized and packed behind QSBR-reclaimed
//!   references otherwise (§14 of DESIGN.md).  `GrowMap<String, u64>` is
//!   the growing, deleting string table;
//! * [`membarrier`] — the heavy side of the asymmetric fence behind
//!   `GrowMap`'s writer exclusion during a migration.

#![warn(missing_docs)]
// Every `unsafe` block and impl says why it is sound, and an `unsafe fn`
// body is no blanket `unsafe` block: each unsafe operation in it sits in a
// block of its own with its reason.
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cell;
pub mod complex;
pub mod config;
pub(crate) mod coord;
pub mod count;
pub mod cpu;
pub mod crc;
pub mod generic;
pub mod grow;
pub mod mem;
pub mod membarrier;
pub mod migrate;
pub mod prefetch;
pub mod simd;
pub mod table;
pub mod variants;

pub use complex::StringKeyTable;
pub use config::{capacity_for, GrowConfig, HashSelect, ProbeSelect};
pub use generic::{GrowMap, GrowMapHandle, KeyRepr, MigrationMode, MigrationRecord, ValueRepr};
pub use grow::{Consistency, GrowHandle, GrowStrategy, GrowingOptions, GrowingTable};
pub use table::BoundedTable;
pub use variants::{
    Folklore, FolkloreCrc, FolkloreSimd, PaGrow, PsGrow, UaGrow, UaGrowCrc, UsGrow,
};
