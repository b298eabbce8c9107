//! The estimators against hand-computed cases.

use growt_benchmark::driver::{concurrent_unit_ns, Measured};
use growt_benchmark::estimators::{iqr_frac, median, quantile, quartiles, LatRec, STALL_NS};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    assert_eq!(
        quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
        [15.0, 30.0, 45.0]
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert!((iqr_frac(&ten) - 1.0).abs() < 1e-12);
    assert_eq!(iqr_frac(&[5.0]), 0.0);
}

#[test]
fn quantile_interpolates_between_ranks() {
    let mut values = [40.0f32, 10.0, 30.0, 20.0, 50.0];
    assert_eq!(quantile(&mut values, 0.0), 10.0);
    assert_eq!(quantile(&mut values, 0.5), 30.0);
    assert_eq!(quantile(&mut values, 1.0), 50.0);
    assert_eq!(quantile(&mut values, 0.125), 15.0);
    assert!(quantile(&mut [], 0.5).is_nan());
}

#[test]
fn stall_share_is_time_weighted() {
    let mut lat = LatRec::new();
    // 98 ops of 100 ns, one at the threshold (not a stall), one of 10 µs.
    for _ in 0..98 {
        lat.record(100);
    }
    lat.record(STALL_NS);
    lat.record(10_000);
    assert_eq!(lat.count(), 100);
    assert_eq!(lat.sum_ns(), 9_800 + STALL_NS + 10_000);
    assert_eq!(lat.max_ns(), 10_000);
    let expected = 1.0 - 10_000.0 / (9_800.0 + STALL_NS as f64 + 10_000.0);
    assert!((lat.unstalled_frac() - expected).abs() < 1e-12);
    assert_eq!(LatRec::new().unstalled_frac(), 1.0);
}

#[test]
fn the_run_reports_the_stall_share_of_its_little_disturbed_reps() {
    // Eleven latency reps: the host took a vCPU away during two of them.
    let mut measured = Measured {
        rep_unstalled: vec![
            0.78, 0.30, 0.77, 0.79, 0.76, 0.80, 0.55, 0.78, 0.77, 0.81, 0.79,
        ],
        ..Measured::default()
    };
    // Sorted: .30 .55 .76 .77 .77 .78 .78 .79 .79 .80 .81; rank 0.9 × 10 = 9.
    assert!((measured.unstalled_frac() - 0.80).abs() < 1e-6);
}

#[test]
fn latency_quantiles_interpolate_inside_a_bin_and_reach_the_stalls() {
    let mut lat = LatRec::new();
    for _ in 0..50 {
        lat.record(20);
    }
    for _ in 0..50 {
        lat.record(30);
    }
    // Rank 50 is the last of the 20 ns ops: the top of bin 20.
    assert_eq!(lat.quantile(0.5), 21.0);
    // Rank 25 is half-way through bin 20.
    assert_eq!(lat.quantile(0.25), 20.5);
    assert_eq!(lat.quantile(0.75), 30.5);
    lat.record(5_000);
    lat.record(9_000);
    assert_eq!(lat.quantile(1.0), 9_000.0);
    assert_eq!(lat.max_ns(), 9_000);

    let mut other = LatRec::new();
    other.record(20);
    other.record(12_000);
    lat.merge(&other);
    assert_eq!(lat.count(), 104);
    assert_eq!(lat.max_ns(), 12_000);
}

#[test]
fn independent_workers_are_taken_one_by_one() {
    // Two workers, units of 100 ops; times in ticks = ns.
    let a = [(0, 1_000, 100), (1_000, 3_000, 100)];
    let b = [(0, 1_500, 100), (1_500, 3_500, 100)];
    let ns = concurrent_unit_ns(&[&a, &b], false, |from, to| to - from);
    // b's second unit ends after a is done and is left out.
    assert_eq!(ns, vec![10.0, 20.0, 15.0]);
}

#[test]
fn interacting_workers_are_summed_over_each_window() {
    // Worker a: one unit of 100 ops over [0, 1000); worker b: two units of
    // 100 ops over [0, 500) and [500, 1000).
    let a = [(0, 1_000, 100)];
    let b = [(0, 500, 100), (500, 1_000, 100)];
    let ns = concurrent_unit_ns(&[&a, &b], true, |from, to| to - from);
    // a's window: 100 + 200 ops in 1000 ns by 2 workers: 1000 * 2 / 300.
    // b's windows: 100 own + 50 of a's in 500 ns: 500 * 2 / 150.
    let expected = [
        1_000.0 * 2.0 / 300.0,
        500.0 * 2.0 / 150.0,
        500.0 * 2.0 / 150.0,
    ];
    assert_eq!(ns.len(), 3);
    for (got, want) in ns.iter().zip(expected) {
        assert!((*got as f64 - want).abs() < 1e-4, "{got} vs {want}");
    }
    // One worker alone: the unit's own time per op.
    let alone = concurrent_unit_ns(&[&a], true, |from, to| to - from);
    assert_eq!(alone, vec![10.0]);
}
