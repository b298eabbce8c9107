//! Worker threads: created once, pinned, asleep between reps, and released
//! into a timed region by a spin barrier so that no futex wake-up latency
//! lands inside a measurement.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use growt_repro::growt_workloads::Clock;

/// A reusable barrier that spins instead of sleeping.
///
/// `arrived` counts the parties of the current round; the last arrival
/// resets it and bumps `round`, which the others spin on.  The `Release`
/// store of `round` pairs with the spinners' `Acquire` loads, so writes
/// made before `wait` are visible to every party after it.
#[derive(Default)]
pub struct SpinBarrier {
    arrived: AtomicUsize,
    round: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier with nobody waiting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Block (spinning) until `parties` threads have called `wait` in this
    /// round.  All callers of one round must pass the same `parties`.
    pub fn wait(&self, parties: usize) {
        let round = self.round.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.round.store(round.wrapping_add(1), Ordering::Release);
        } else {
            while self.round.load(Ordering::Acquire) == round {
                std::hint::spin_loop();
            }
        }
    }
}

/// Pin the calling thread to `cpu`.  Returns `false` (and changes nothing)
/// where the raw syscall is unavailable or refused.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpu: usize) -> bool {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1u64 << (cpu % 64);
    let ret: isize;
    // SAFETY: sched_setaffinity(0, len, mask) reads `len` bytes from
    // `mask`, which is a live array of exactly that size; the kernel
    // writes nothing back.  rcx and r11 are clobbered by `syscall`.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Pinning is a Linux/x86-64 nicety; elsewhere the benchmark runs unpinned.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// What a job sees of the worker running it.
pub struct Worker<'a> {
    /// This worker's index among the job's parties, `0..parties`.
    pub tid: usize,
    /// Number of workers running the job.
    pub parties: usize,
    /// The run's calibrated clock.
    pub clock: Clock,
    barrier: &'a SpinBarrier,
}

impl Worker<'_> {
    /// Spin until every party of the job has arrived.
    pub fn barrier(&self) {
        self.barrier.wait(self.parties);
    }

    /// Barrier, then this worker's clock reading: the start of a timed
    /// region.  A rep lasts from the earliest start to the latest end
    /// reading over its workers.
    pub fn sync(&self) -> u64 {
        self.barrier();
        self.clock.now()
    }
}

type Output = Box<dyn Any + Send>;
type Job = Arc<dyn Fn(&Worker<'_>) -> Output + Send + Sync>;

/// A fixed set of pinned worker threads running one job at a time.
///
/// Between jobs the workers sleep in a channel receive; the caller sleeps
/// in a channel receive while a job runs, so with `threads == nproc` the
/// workers have the machine to themselves.
pub struct Pool {
    jobs: Vec<Sender<(Job, usize, usize)>>,
    results: Receiver<(usize, Output)>,
    handles: Vec<JoinHandle<()>>,
    pinned: Arc<AtomicUsize>,
}

impl Pool {
    /// Spawn `threads` workers; worker `i` pins itself to CPU `i`.
    pub fn spawn(threads: usize, clock: Clock) -> Self {
        let barrier = Arc::new(SpinBarrier::new());
        let pinned = Arc::new(AtomicUsize::new(0));
        let (result_tx, results) = channel::<(usize, Output)>();
        let (ready_tx, ready_rx) = channel::<()>();
        let mut jobs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for index in 0..threads {
            let (job_tx, job_rx) = channel::<(Job, usize, usize)>();
            jobs.push(job_tx);
            let barrier = Arc::clone(&barrier);
            let pinned = Arc::clone(&pinned);
            let result_tx = result_tx.clone();
            let ready_tx = ready_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("bench-worker-{index}"))
                    .spawn(move || {
                        if pin_current_thread(index) {
                            // Statistic only; read after `ready`.
                            pinned.fetch_add(1, Ordering::Relaxed);
                        }
                        let _ = ready_tx.send(());
                        while let Ok((job, first, parties)) = job_rx.recv() {
                            let worker = Worker {
                                tid: index - first,
                                parties,
                                clock,
                                barrier: &barrier,
                            };
                            if result_tx.send((worker.tid, job(&worker))).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawning a benchmark worker"),
            );
        }
        for _ in 0..threads {
            ready_rx.recv().expect("a benchmark worker died at start");
        }
        Pool {
            jobs,
            results,
            handles,
            pinned,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.jobs.len()
    }

    /// How many workers managed to pin themselves.
    pub fn pinned(&self) -> usize {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Run `job` on workers `first..first + parties` and return their
    /// results in `tid` order.  Panics if a worker panicked.
    pub fn run<R: Send + 'static>(
        &self,
        first: usize,
        parties: usize,
        job: impl Fn(&Worker<'_>) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        assert!(parties >= 1 && first + parties <= self.threads());
        let job: Job = Arc::new(move |w: &Worker<'_>| Box::new(job(w)) as Output);
        for tx in &self.jobs[first..first + parties] {
            tx.send((Arc::clone(&job), first, parties))
                .expect("a benchmark worker died");
        }
        let mut out: Vec<Option<R>> = (0..parties).map(|_| None).collect();
        for _ in 0..parties {
            let (tid, result) = self.results.recv().expect("a benchmark worker panicked");
            out[tid] = Some(*result.downcast::<R>().expect("the job's own result type"));
        }
        out.into_iter()
            .map(|r| r.expect("one result per worker"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            // A worker's panic already surfaced in `run`; nothing to add.
            let _ = handle.join();
        }
    }
}
