//! The benchmark against its contract: the names in `BENCHMARK.json` and
//! the names the binary prints are the same, every workload's quick run
//! ends correct, and the exact numbers repeat for a seed.

mod common;

use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Mutex;

use common::Json;
use growt_benchmark::metrics::{DRIVER_LAYER, END_TO_END, PROBE_LAYER};
use growt_benchmark::workloads::WORKLOADS;

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// The tests of this file run in parallel threads, but a benchmark process
/// wants the machine to itself: its workers spin at barriers.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run the gate binary in quick mode and return its result line.
fn quick_run(workload: &str, seed: u64, trace: bool) -> Json {
    let _alone = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let output = Command::new(env!("CARGO_BIN_EXE_growt-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("running growt-benchmark");
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        stdout.contains("comparable=false"),
        "a quick run must say it is not comparable"
    );
    Json::parse(stdout.trim_end().lines().last().expect("a result line"))
}

fn names(list: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn spec_names(spec: &Json, section: &str) -> BTreeSet<(String, String)> {
    spec.get(section)
        .list()
        .iter()
        .map(|m| {
            (
                m.get("name").text().to_string(),
                m.get("unit").text().to_string(),
            )
        })
        .collect()
}

fn printed_names(result: &Json) -> BTreeSet<(String, String)> {
    result
        .get("metrics")
        .fields()
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").number().is_finite());
            (name.clone(), m.get("unit").text().to_string())
        })
        .collect()
}

fn assert_correct(result: &Json, what: &str) {
    assert_eq!(result.fields().len(), 4, "{what}: exactly four keys");
    assert_eq!(result.get("correct"), &Json::Bool(true), "{what}");
    assert_eq!(result.get("failed").number(), 0.0, "{what}");
    assert!(result.get("attempted").number() >= 1.0, "{what}");
}

#[test]
fn benchmark_json_and_the_code_list_the_same_names() {
    let spec = spec();
    assert_eq!(spec_names(&spec, "end_to_end"), names(&END_TO_END));
    let mut per_layer = names(&DRIVER_LAYER);
    per_layer.extend(names(&PROBE_LAYER));
    assert_eq!(
        per_layer.len(),
        DRIVER_LAYER.len() + PROBE_LAYER.len(),
        "a name is listed twice"
    );
    assert_eq!(spec_names(&spec, "per_layer"), per_layer);
    let workloads: Vec<&str> = spec
        .get("workloads")
        .list()
        .iter()
        .map(|w| w.get("name").text())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    // The set-up metric the contract asks for, by its fixed definition.
    let setup = &spec.get("end_to_end").list()[0];
    assert_eq!(
        (
            setup.get("name").text(),
            setup.get("unit").text(),
            setup.get("better").text()
        ),
        ("setup_s", "s", "lower")
    );
}

#[test]
fn every_workload_runs_correct_and_prints_the_end_to_end_names() {
    let expected = spec_names(&spec(), "end_to_end");
    for workload in WORKLOADS {
        let result = quick_run(workload, 3, false);
        assert_correct(&result, workload);
        assert_eq!(printed_names(&result), expected, "{workload}");
    }
}

#[test]
fn a_traced_run_prints_the_per_layer_names_and_repeats_its_exact_numbers() {
    let expected = spec_names(&spec(), "per_layer");
    for workload in ["insert_grow", "wordcount_string"] {
        let first = quick_run(workload, 5, true);
        let again = quick_run(workload, 5, true);
        assert_correct(&first, workload);
        assert_eq!(printed_names(&first), expected, "{workload}");
        for exact in [
            "coord.migrations",
            "coord.final_capacity",
            "alloc.allocs_per_op",
            "alloc.bytes_per_op",
        ] {
            let value = |run: &Json| run.get("metrics").get(exact).get("value").number();
            assert_eq!(
                value(&first),
                value(&again),
                "{workload}: {exact} must repeat exactly"
            );
        }
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("trace-{workload}-5.json"));
        let trace = Json::parse(&std::fs::read_to_string(path).expect("the span file"));
        assert!(!trace.get("spans").list().is_empty());
    }
    let memory = |seed| {
        quick_run("wordcount_string", seed, false)
            .get("metrics")
            .get("mem_bytes_per_elem")
            .get("value")
            .number()
    };
    assert_eq!(
        memory(9),
        memory(9),
        "mem_bytes_per_elem must repeat exactly"
    );
}

#[test]
fn the_layers_separate() {
    let lookup = quick_run("lookup_resident", 4, true);
    let metric = |run: &Json, name: &str| run.get("metrics").get(name).get("value").number();
    assert_eq!(metric(&lookup, "coord.migrations"), 0.0);
    assert_eq!(metric(&lookup, "alloc.allocs_per_op"), 0.0);
    let grow = quick_run("insert_grow", 4, true);
    assert!(metric(&grow, "coord.migrations") >= 6.0);
    let words = quick_run("wordcount_string", 4, true);
    assert!(metric(&words, "alloc.allocs_per_op") > 0.0);
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [vec!["--workload", "nonsense"], vec!["--seed", "x"], vec![]] {
        let output = Command::new(env!("CARGO_BIN_EXE_growt-benchmark"))
            .args(&args)
            .output()
            .expect("running growt-benchmark");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
