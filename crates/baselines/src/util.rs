//! Shared helpers for the baseline implementations.

use std::sync::atomic::AtomicU64;

// The `INFLIGHT` publication discipline (claim → store value → publish
// key, with crash repair after a patience bound) is shared with the
// growing-table crate; the single definition lives in
// `growt_iface::inflight` and is re-exported here so baseline code keeps
// its historical paths.
pub use growt_iface::inflight::{load_published_key, INFLIGHT, REPAIRED_TOMBSTONE};

/// Publish a claimed cell: `INFLIGHT → key` (see
/// [`growt_iface::inflight::publish_key`]).  The baseline wrapper fires
/// the `baseline.inflight` failpoint *before* the publication CAS — the
/// crash-tolerance tests kill an inserter inside the in-flight window
/// here and assert a probe repairs the cell.
#[inline]
pub fn publish_key(cell: &AtomicU64, key: u64) -> bool {
    growt_failpoints::fire("baseline.inflight");
    growt_iface::inflight::publish_key(cell, key)
}

/// The home hash of every word key in the reproduction.
pub use growt_iface::hash::hash_key;

/// A second, independent mixer for tables that need two hash functions
/// (cuckoo hashing).
#[inline]
pub fn hash_key_alt(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// Map a hash value onto `capacity` slots (top-bits scaling, monotone).
#[inline]
pub fn scale(hash: u64, capacity: usize) -> usize {
    ((hash as u128 * capacity as u128) >> 64) as usize
}

/// Round a requested element count up to a power-of-two slot count with
/// head-room.
pub fn capacity_for(expected: usize) -> usize {
    (expected.max(2) * 2).next_power_of_two()
}

/// Reject the key encodings the word-based baselines reserve for
/// themselves: `0`/`1` serve as empty/tombstone sentinels and `u64::MAX`
/// as an in-flight claim.  Analogous to growt-core's "key is reserved"
/// assertion — core additionally rejects the upper key half, which it
/// uses for mark bits; the baselines have no mark bits, so only the
/// sentinel encodings are excluded here.  The guard makes a caller
/// handing in a sentinel fail loudly instead of corrupting a table or
/// wedging a probe loop (inserting `u64::MAX` into the folly-style
/// table, for instance, would publish a cell that looks permanently
/// in-flight and stall every probe through it).  The workload generators
/// only produce keys in `2..1 << 63`, valid for every table family.
#[inline]
pub fn assert_user_key(key: u64) {
    assert!(key >= 2 && key != u64::MAX, "key {key} is reserved");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_keys_are_rejected() {
        assert_user_key(u64::MAX);
    }

    #[test]
    fn helpers_behave() {
        assert!(capacity_for(1000).is_power_of_two());
        assert!(capacity_for(1000) >= 2000);
        assert_ne!(hash_key(7), hash_key_alt(7));
        assert!(scale(u64::MAX, 1024) == 1023);
        assert!(scale(0, 1024) == 0);
    }
}
