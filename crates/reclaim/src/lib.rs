//! Memory-reclamation substrates for the reproduction of *"Concurrent Hash
//! Tables: Fast and General?(!)"* (PPoPP 2016).
//!
//! Concurrent hash tables that replace their backing array (growing) or
//! unlink nodes must defer freeing memory until no thread can still be
//! reading it.  Two schemes serve the tables here:
//!
//! * [`counted_ptr`] — the paper's own scheme (§5.3.2): a versioned,
//!   reference-counted pointer to the current table, cached per handle so
//!   the shared counter is touched only once per table version;
//! * [`qsbr`] — quiescent-state-based reclamation as used by the junction
//!   tables, the RCU-QSBR variant and `GrowMap`'s out-of-line keys and
//!   values (the application must periodically announce quiescence).

#![warn(missing_docs)]

pub mod counted_ptr;
pub mod qsbr;

pub use counted_ptr::{CachedArc, VersionedArc, SOLE};
pub use qsbr::{QsbrDomain, QsbrParticipant};
