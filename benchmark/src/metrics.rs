//! Every metric the benchmark prints, by name and unit, in the order
//! `BENCHMARK.json` lists them (`tests/contract.rs` holds the two lists
//! against each other).  Definitions, directions, bounds and the layer →
//! end-to-end table are in README.md.

use std::collections::BTreeMap;

/// The gated metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("mops_1t", "MOps/s"),
    ("lat_p50_ns", "ns"),
    ("unstalled_frac", "ratio"),
    ("mem_bytes_per_elem", "B/elem"),
];

/// The per-layer metrics the gate binary takes itself during a traced run.
pub const DRIVER_LAYER: [(&str, &str); 28] = [
    ("driver.mops", "MOps/s"),
    ("workloads.keygen_s", "s"),
    ("generic.build_s", "s"),
    ("coord.migrations", "count"),
    ("coord.final_capacity", "cells"),
    ("coord.stall_ops", "count"),
    ("coord.stall_mean_us", "us"),
    ("coord.stall_max_us", "us"),
    ("alloc.allocs_per_op", "1/op"),
    ("alloc.bytes_per_op", "B/op"),
    ("driver.seq_ratio", "ratio"),
    ("driver.seq_ratio_1t", "ratio"),
    ("driver.lat_p95_ns", "ns"),
    ("driver.lat_p99_ns", "ns"),
    ("driver.lat_p999_ns", "ns"),
    ("driver.lat_max_us", "us"),
    ("driver.scaling", "ratio"),
    ("driver.rep_iqr_frac", "ratio"),
    ("driver.block_spread_frac", "ratio"),
    ("driver.clock_overhead_ns", "ns"),
    ("driver.warmup_s", "s"),
    ("driver.steal_frac", "ratio"),
    ("driver.calib_l2_ns", "ns"),
    ("driver.calib_dram_ns", "ns"),
    ("driver.pinned", "count"),
    ("driver.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// The per-layer metrics `growt-benchmark-layers` takes by calling into
/// the layers' public functions.
pub const PROBE_LAYER: [(&str, &str); 39] = [
    ("config.hash_key_ns", "ns"),
    ("crc.crc64_pair_ns", "ns"),
    ("crc.hw", "count"),
    ("cell.read_ns", "ns"),
    ("cell.cas_pair_ns", "ns"),
    ("cell.cas_value_ns", "ns"),
    ("cell.fetch_add_ns", "ns"),
    ("cell.mark_ns", "ns"),
    ("cell.cas_value_contended_ns", "ns"),
    ("simd.match_group_ns", "ns"),
    ("simd.probe_group_ns", "ns"),
    ("table.find_hit_ns", "ns"),
    ("table.find_miss_ns", "ns"),
    ("table.insert_ns", "ns"),
    ("table.upsert_ns", "ns"),
    ("table.erase_ns", "ns"),
    ("table.find_hit_simd_ns", "ns"),
    ("table.find_miss_simd_ns", "ns"),
    ("table.find_batch16_ns", "ns"),
    ("table.find_hit_dram_ns", "ns"),
    ("table.find_hit_dram_spread", "ratio"),
    ("count.record_ns", "ns"),
    ("mem.zeroed_2m_gib_s", "GiB/s"),
    ("mem.zeroed_32m_gib_s", "GiB/s"),
    ("mem.anon_huge_frac", "ratio"),
    ("migrate.seq_mcells_s", "Mcells/s"),
    ("grow.find_ns", "ns"),
    ("grow.insert_ns", "ns"),
    ("generic.find_ns", "ns"),
    ("generic.insert_ns", "ns"),
    ("generic.upsert_ns", "ns"),
    ("generic.prologue_ns", "ns"),
    ("generic.string_find_ns", "ns"),
    ("generic.string_upsert_ns", "ns"),
    ("generic.string_insert_ns", "ns"),
    ("reclaim.retire_quiesce_ns", "ns"),
    ("reclaim.pending_end", "count"),
    ("seq.mops_1t", "MOps/s"),
    ("driver.loop_ns", "ns"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` for the listed metric `name`.  Panics on a name no
    /// list knows, so a typo cannot print an unlisted metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let listed = END_TO_END
            .iter()
            .chain(&DRIVER_LAYER)
            .chain(&PROBE_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.0.insert(listed.0, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics of `list` as the contract's JSON object, or the names
    /// that are missing or not finite.
    pub fn to_json(
        &self,
        lists: &[&[(&'static str, &'static str)]],
    ) -> Result<String, Vec<String>> {
        let mut fields = Vec::new();
        let mut bad = Vec::new();
        for (name, unit) in lists.iter().flat_map(|l| l.iter()) {
            match self.get(name) {
                Some(v) if v.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                _ => bad.push(name.to_string()),
            }
        }
        if bad.is_empty() {
            Ok(format!("{{{}}}", fields.join(", ")))
        } else {
            Err(bad)
        }
    }

    /// One `name<TAB>value<TAB>unit` line per metric of `list` that has a
    /// value: the human-readable table, and how the probe binary hands its
    /// numbers to the gate binary.
    pub fn to_table(&self, lists: &[&[(&'static str, &'static str)]]) -> String {
        lists
            .iter()
            .flat_map(|l| l.iter())
            .filter_map(|(name, unit)| Some(format!("{name}\t{}\t{unit}\n", self.get(name)?)))
            .collect()
    }
}
