//! Pre-generated key sets for the paper's benchmarks (§8.3).
//!
//! All benchmarks in the paper pre-compute their key sequences before the
//! timed region starts ("key generation is done prior to the benchmark
//! execution"), so that generation cost — in particular for skewed
//! sequences — never pollutes the measurement.  The helpers here build
//! exactly the key sets used in §8.4:
//!
//! * uniformly random distinct keys for insertions,
//! * fresh uniformly random keys for unsuccessful finds,
//! * Zipf-skewed sequences for the contention and aggregation benchmarks,
//! * the "fair" find-key construction of the mixed benchmark (Fig. 7),
//! * the sliding-window insert/delete pairing of the deletion benchmark
//!   (Fig. 6).

use crate::mt64::Mt64;
use crate::zipf::ZipfSampler;

/// Keys `0` and `1` are reserved by some table implementations (empty /
/// deleted sentinels); generated keys always avoid a small reserved prefix
/// so every implementation can ingest the same sequence.
pub const RESERVED_KEYS: u64 = 16;

/// The topmost bit is reserved by the asynchronous growing variants as the
/// migration mark (§5.3.2); generated keys stay below it so that every
/// implementation can ingest the same sequence.  (§5.6 describes how the
/// full key space can be restored.)
pub const KEY_LIMIT: u64 = 1 << 63;

/// Generate `n` uniformly random keys (not necessarily distinct) from the
/// full key space, avoiding the reserved sentinel range.
pub fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Mt64::new(seed);
    (0..n)
        .map(|_| loop {
            let k = rng.next_u64() & (KEY_LIMIT - 1);
            if k >= RESERVED_KEYS {
                return k;
            }
        })
        .collect()
}

/// Generate `n` *distinct* uniformly random keys.
///
/// Uses the fact that MT19937-64 collisions over the 64-bit space are
/// vanishingly rare but still verifies distinctness, retrying duplicates,
/// so that "insert n elements" really creates n table entries.
pub fn uniform_distinct_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Mt64::new(seed);
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.next_u64() & (KEY_LIMIT - 1);
        if k >= RESERVED_KEYS && seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

/// Generate `n` keys following Zipf(s) over the universe `1..=universe`,
/// shifted past the reserved range (paper Fig. 4/5: universe `10⁸`).
pub fn zipf_keys(n: usize, universe: u64, s: f64, seed: u64) -> Vec<u64> {
    let mut rng = Mt64::new(seed);
    let sampler = ZipfSampler::new(universe, s);
    (0..n)
        .map(|_| sampler.sample(&mut rng) + RESERVED_KEYS)
        .collect()
}

/// The dense key range `1..=universe` (shifted past the reserved range)
/// used to pre-fill tables for the contention benchmarks: before measuring
/// updates/finds under Zipf skew, the paper inserts every key of the
/// universe once.
pub fn dense_prefill_keys(universe: u64) -> Vec<u64> {
    (1..=universe).map(|k| k + RESERVED_KEYS).collect()
}

/// One operation of a mixed workload (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedOp {
    /// Insert the key.
    Insert(u64),
    /// Look the key up (expected to be present by construction).
    Find(u64),
}

/// The mixed insert/find workload of Fig. 7.
///
/// `write_percent` of the operations are insertions of fresh uniform keys;
/// the rest are finds.  Finds are generated "fairly" (§8.4): a find looks
/// for a key inserted at least `lag` operations earlier in the sequence, so
/// that almost all finds succeed and the probed keys sample the whole
/// table rather than only the earliest insertions.
pub struct MixedWorkload {
    /// Keys inserted before the timed region starts (`pre = 8192·p` in the
    /// paper) so that early finds have something to hit.
    pub prefill: Vec<u64>,
    /// The operation sequence of the timed region.
    pub ops: Vec<MixedOp>,
}

/// Build a [`MixedWorkload`].
///
/// * `n` — number of timed operations,
/// * `write_percent` — percentage (0..=100) of insertions,
/// * `prefill` — number of keys inserted before the timed region,
/// * `lag` — minimum distance (in *insertions*) between an insertion and a
///   find that may target it.
pub fn mixed_workload(
    n: usize,
    write_percent: u32,
    prefill: usize,
    lag: usize,
    seed: u64,
) -> MixedWorkload {
    assert!(write_percent <= 100);
    let mut rng = Mt64::new(seed);
    // All insert keys (prefill + those inside the sequence) come from one
    // distinct pool, mirroring the paper's single pre-generated key array.
    let expected_inserts = prefill + (n * write_percent as usize) / 100 + 16;
    let pool = uniform_distinct_keys(expected_inserts + n / 64 + 16, seed ^ 0x9E37);
    let mut next_insert = 0usize;

    let prefill_keys: Vec<u64> = (0..prefill)
        .map(|_| {
            let k = pool[next_insert];
            next_insert += 1;
            k
        })
        .collect();

    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let is_write = rng.next_below(100) < write_percent as u64;
        if is_write && next_insert < pool.len() {
            ops.push(MixedOp::Insert(pool[next_insert]));
            next_insert += 1;
        } else {
            // Choose a key inserted at least `lag` insertions ago (or any
            // prefill key when not enough insertions have happened yet).
            let newest_allowed = next_insert.saturating_sub(lag).max(1);
            let idx = rng.next_below(newest_allowed as u64) as usize;
            ops.push(MixedOp::Find(pool[idx]));
        }
    }
    MixedWorkload {
        prefill: prefill_keys,
        ops,
    }
}

/// One operation of the tail-latency workload (`figure latency`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZipfMixedOp {
    /// Insert a fresh key (drives the table through its migrations).
    Insert(u64),
    /// Look up a Zipf-hot resident key (never traps on a migration).
    Find(u64),
    /// Overwrite-update a Zipf-hot resident key (traps when its cell is
    /// frozen by a live migration).
    Update(u64),
}

/// The mixed insert/find/update workload of the tail-latency figure.
///
/// Unlike the throughput-oriented [`MixedWorkload`] (Fig. 7), this
/// workload is built to *provoke* migrations while keeping a skewed
/// resident working set: insertions stream fresh distinct keys (growing
/// the table through as many generations as the op budget allows), while
/// finds and updates target the prefilled keys with Zipf(s)-distributed
/// popularity, so the read/update tail can be measured against keys that
/// are resident for the whole run.
pub struct ZipfMixedWorkload {
    /// Keys inserted before the timed region (the Zipf universe of the
    /// finds and updates).
    pub prefill: Vec<u64>,
    /// The operation sequence of the timed region.
    pub ops: Vec<ZipfMixedOp>,
}

impl ZipfMixedWorkload {
    /// Number of insert operations in the timed sequence.
    pub fn insert_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| matches!(o, ZipfMixedOp::Insert(_)))
            .count()
    }
}

/// Build a [`ZipfMixedWorkload`].
///
/// * `n` — number of timed operations,
/// * `insert_percent` / `update_percent` — percentage (their sum ≤ 100)
///   of insertions and updates; the rest are finds,
/// * `prefill` — number of resident keys (≥ 1), the Zipf universe,
/// * `s` — Zipf exponent of the find/update key popularity,
/// * `seed` — generator seed (the sequence is deterministic).
pub fn zipf_mixed_workload(
    n: usize,
    insert_percent: u32,
    update_percent: u32,
    prefill: usize,
    s: f64,
    seed: u64,
) -> ZipfMixedWorkload {
    assert!(insert_percent + update_percent <= 100);
    assert!(prefill >= 1, "finds/updates need a resident universe");
    let mut rng = Mt64::new(seed);
    let expected_inserts = (n * insert_percent as usize) / 100 + n / 64 + 16;
    let pool = uniform_distinct_keys(prefill + expected_inserts, seed ^ 0xA5A5);
    let (prefill_keys, insert_keys) = pool.split_at(prefill);
    let sampler = ZipfSampler::new(prefill as u64, s);

    let mut next_insert = 0usize;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.next_below(100) as u32;
        if roll < insert_percent && next_insert < insert_keys.len() {
            ops.push(ZipfMixedOp::Insert(insert_keys[next_insert]));
            next_insert += 1;
        } else {
            // Zipf rank 1..=prefill — the most popular rank maps to the
            // first prefill key.
            let rank = sampler.sample(&mut rng) as usize;
            let key = prefill_keys[rank - 1];
            if roll < insert_percent + update_percent {
                ops.push(ZipfMixedOp::Update(key));
            } else {
                ops.push(ZipfMixedOp::Find(key));
            }
        }
    }
    ZipfMixedWorkload {
        prefill: prefill_keys.to_vec(),
        ops,
    }
}

/// The deletion benchmark of Fig. 6: a sliding window over one key array.
///
/// The table is prefilled with the first `window` keys; afterwards each
/// step inserts key `window + i` and deletes key `i`, keeping the table at
/// a constant size of `window` elements.
pub struct DeletionWorkload {
    /// Keys inserted before the timed region.
    pub prefill: Vec<u64>,
    /// Pairs `(insert_key, delete_key)` executed in order.
    pub steps: Vec<(u64, u64)>,
}

/// Build a [`DeletionWorkload`] with `n` insert+delete steps over a window
/// of `window` live elements.
pub fn deletion_workload(n: usize, window: usize, seed: u64) -> DeletionWorkload {
    let keys = uniform_distinct_keys(n + window, seed);
    let prefill = keys[..window].to_vec();
    let steps = (0..n).map(|i| (keys[window + i], keys[i])).collect();
    DeletionWorkload { prefill, steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distinct_really_distinct() {
        let keys = uniform_distinct_keys(10_000, 3);
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        assert!(keys
            .iter()
            .all(|&k| (RESERVED_KEYS..KEY_LIMIT).contains(&k)));
    }

    #[test]
    fn uniform_keys_deterministic() {
        assert_eq!(uniform_keys(100, 5), uniform_keys(100, 5));
        assert_ne!(uniform_keys(100, 5), uniform_keys(100, 6));
    }

    #[test]
    fn zipf_keys_in_universe() {
        let keys = zipf_keys(10_000, 1000, 1.1, 7);
        assert!(keys
            .iter()
            .all(|&k| k > RESERVED_KEYS && k <= 1000 + RESERVED_KEYS));
        // Skew: the most common key should appear much more often than the
        // average key.
        let mut counts = std::collections::HashMap::new();
        for &k in &keys {
            *counts.entry(k).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 500, "max frequency {max} too small for s = 1.1");
    }

    #[test]
    fn dense_prefill_is_dense() {
        let keys = dense_prefill_keys(100);
        assert_eq!(keys.len(), 100);
        assert_eq!(keys[0], 1 + RESERVED_KEYS);
        assert_eq!(keys[99], 100 + RESERVED_KEYS);
    }

    #[test]
    fn mixed_workload_respects_write_percentage() {
        let wl = mixed_workload(100_000, 30, 1000, 8192, 11);
        assert_eq!(wl.prefill.len(), 1000);
        let writes = wl
            .ops
            .iter()
            .filter(|o| matches!(o, MixedOp::Insert(_)))
            .count();
        let frac = writes as f64 / wl.ops.len() as f64;
        assert!((frac - 0.30).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn mixed_workload_finds_target_inserted_keys() {
        let wl = mixed_workload(50_000, 50, 500, 1000, 13);
        // Replay the sequence; every find key must have been inserted
        // earlier (prefill or sequence) — the "fair generation" guarantee.
        let mut inserted: std::collections::HashSet<u64> = wl.prefill.iter().copied().collect();
        let mut missing = 0usize;
        for op in &wl.ops {
            match op {
                MixedOp::Insert(k) => {
                    inserted.insert(*k);
                }
                MixedOp::Find(k) => {
                    if !inserted.contains(k) {
                        missing += 1;
                    }
                }
            }
        }
        // The paper tolerates a negligible number of not-yet-inserted find
        // keys (usually below 1000 of 10⁸); with the lag construction and a
        // sequential replay there must be none at all.
        assert_eq!(missing, 0);
    }

    #[test]
    fn zipf_mixed_workload_shape() {
        let wl = zipf_mixed_workload(100_000, 25, 25, 1000, 1.05, 19);
        assert_eq!(wl.prefill.len(), 1000);
        assert_eq!(wl.ops.len(), 100_000);
        let resident: std::collections::HashSet<u64> = wl.prefill.iter().copied().collect();
        let mut inserts = 0usize;
        let mut updates = 0usize;
        let mut inserted = std::collections::HashSet::new();
        for op in &wl.ops {
            match op {
                ZipfMixedOp::Insert(k) => {
                    inserts += 1;
                    assert!(!resident.contains(k), "insert key already resident");
                    assert!(inserted.insert(*k), "insert key repeated");
                }
                ZipfMixedOp::Update(k) => {
                    updates += 1;
                    assert!(resident.contains(k), "update key not resident");
                }
                ZipfMixedOp::Find(k) => {
                    assert!(resident.contains(k), "find key not resident");
                }
            }
        }
        assert_eq!(inserts, wl.insert_count());
        let insert_frac = inserts as f64 / wl.ops.len() as f64;
        let update_frac = updates as f64 / wl.ops.len() as f64;
        assert!(
            (insert_frac - 0.25).abs() < 0.02,
            "insert fraction {insert_frac}"
        );
        assert!(
            (update_frac - 0.25).abs() < 0.02,
            "update fraction {update_frac}"
        );
        // Determinism.
        let again = zipf_mixed_workload(100_000, 25, 25, 1000, 1.05, 19);
        assert_eq!(wl.ops, again.ops);
    }

    #[test]
    fn deletion_workload_window_invariant() {
        let wl = deletion_workload(10_000, 500, 17);
        assert_eq!(wl.prefill.len(), 500);
        assert_eq!(wl.steps.len(), 10_000);
        // Replaying must keep exactly `window` live keys at every step.
        let mut live: std::collections::HashSet<u64> = wl.prefill.iter().copied().collect();
        for (ins, del) in &wl.steps {
            assert!(live.insert(*ins), "inserted key already live");
            assert!(live.remove(del), "deleted key was not live");
            assert_eq!(live.len(), 500);
        }
    }
}
