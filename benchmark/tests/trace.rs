//! The span file: it parses, and every span's parent exists.

mod common;

use common::Json;
use growt_benchmark::trace::{SpanBuf, Trace};
use growt_repro::growt_workloads::Clock;

#[test]
fn trace_file_parses_and_every_parent_exists() {
    let clock = Clock::calibrated();
    let mut trace = Trace::new(clock);
    trace.begin("block");
    trace.begin("rep.threads");
    for worker in 0..2 {
        let mut buf = SpanBuf::new();
        buf.begin("rep", clock.now());
        buf.begin("unit", clock.now());
        buf.stalled_op(clock.now(), clock.now(), (3, 4));
        buf.end(clock.now(), 4096);
        buf.end(clock.now(), 4096);
        assert_eq!(buf.len(), 3);
        trace.splice(worker, buf);
    }
    trace.end(8192);
    trace.end(0);
    assert_eq!(trace.spans().len(), 8);

    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unit/trace-test-7.json");
    trace
        .write(&path, "test", 7)
        .expect("writing the trace file");
    let parsed = Json::parse(&std::fs::read_to_string(&path).expect("reading it back"));
    assert_eq!(parsed.get("workload").text(), "test");
    assert_eq!(parsed.get("seed").number(), 7.0);

    let spans = parsed.get("spans").list();
    assert_eq!(spans.len(), 8);
    let ids: Vec<f64> = spans.iter().map(|s| s.get("id").number()).collect();
    let mut roots = 0;
    for span in spans {
        assert!(span.get("end").number() >= span.get("start").number());
        match span.get("parent") {
            Json::Null => roots += 1,
            parent => assert!(ids.contains(&parent.number()), "dangling parent {parent:?}"),
        }
    }
    assert_eq!(roots, 1, "only the block span has no parent");

    // A worker's top-level span hangs under the main thread's open span;
    // a stalled op carries the migration counts around it.
    let rep = spans
        .iter()
        .find(|s| s.get("name").text() == "rep")
        .unwrap();
    let rep_threads = spans
        .iter()
        .find(|s| s.get("name").text() == "rep.threads")
        .unwrap();
    assert_eq!(rep.get("parent").number(), rep_threads.get("id").number());
    assert_eq!(rep.get("thread").number(), 1.0);
    let stalled = spans
        .iter()
        .find(|s| s.get("name").text() == "op.stalled")
        .unwrap();
    assert_eq!(stalled.get("migrations_before").number(), 3.0);
    assert_eq!(stalled.get("migrations_after").number(), 4.0);
}
