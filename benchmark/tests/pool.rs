//! The worker pool and its spin barrier.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use growt_benchmark::pool::{Pool, SpinBarrier};
use growt_repro::growt_workloads::Clock;

#[test]
fn spin_barrier_releases_all_parties_once_per_round() {
    const PARTIES: usize = 4;
    const ROUNDS: usize = 200;
    let barrier = Arc::new(SpinBarrier::new());
    let arrived = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..PARTIES)
        .map(|_| {
            let (barrier, arrived) = (Arc::clone(&barrier), Arc::clone(&arrived));
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    barrier.wait(PARTIES);
                    // Nobody passes before everyone of this round arrived,
                    // and nobody of the next round has arrived before
                    // everyone passed the second barrier.
                    assert_eq!(arrived.load(Ordering::SeqCst), round * PARTIES);
                    barrier.wait(PARTIES);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("a barrier party panicked");
    }
    assert_eq!(arrived.load(Ordering::SeqCst), ROUNDS * PARTIES);
}

#[test]
fn pool_runs_jobs_on_the_asked_workers_and_orders_results() {
    let pool = Pool::spawn(3, Clock::calibrated());
    assert_eq!(pool.threads(), 3);
    let all = pool.run(0, 3, |w| {
        w.barrier();
        (w.tid, w.parties)
    });
    assert_eq!(all, vec![(0, 3), (1, 3), (2, 3)]);
    // A single-worker job on the last worker sees itself as party 0 of 1.
    let one = pool.run(2, 1, |w| {
        let started = w.sync();
        (w.tid, w.parties, w.clock.now() >= started)
    });
    assert_eq!(one, vec![(0, 1, true)]);
    // The pool is reusable and results keep their job's type.
    let text = pool.run(1, 2, |w| format!("worker {}", w.tid));
    assert_eq!(text, vec!["worker 0".to_string(), "worker 1".to_string()]);
}
