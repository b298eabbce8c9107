//! The run: set-up, blocks of reps, the exact pass — and the numbers they
//! reduce to.
//!
//! Run shape (README.md, "Run shape"): a block builds what its reps share
//! on a fresh allocation and then interleaves three reps at `T` threads,
//! three at one thread and one latency rep; every reported timing is a
//! quantile over the units of all the run's reps (README.md,
//! "Estimators"), so one disturbed rep or one unlucky page placement does
//! not carry into the result.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use growt_repro::growt_workloads::Clock;

use crate::estimators::{iqr_frac, median, quantile, LatRec};
use crate::opwrap::{clock_scale, Handicap, Mode, Recorded, NOMINAL_GHZ, NOMINAL_REFERENCE_NS};
use crate::pool::Pool;
use crate::trace::Trace;
use crate::workloads::{self, Exact, RepCtx, RepOut, Workload, WORKLOADS};

/// Throughput reps per thread count and block.
const REPS_PER_BLOCK: usize = 3;
/// Stretches of blocks per full run, each begun by set-ups: spread over the
/// run so that some set-ups meet a quiet moment.
const STRETCHES: usize = 10;
/// Set-ups at the start of a stretch; the last one's bench is measured.  A
/// set-up takes 2 ms, so forty of them cost a run nothing, and `setup_s` is
/// their [`SETUP_QUANTILE`].
pub const SETUPS_PER_STRETCH: usize = 4;
/// The quantile of unit times reported where interference can only slow a
/// unit down (one thread, or threads that share nothing they write): low
/// enough to sit in the undisturbed mode when a vCPU spends most of a run
/// disturbed, high enough not to chase the luckiest units (README.md,
/// "Estimators").
pub const QUIET_QUANTILE: f64 = 0.02;
/// The quantile reported for reps whose threads interact: their fast tail
/// is made of moments when the threads did *not* interact (one stalled, or
/// the host ran both vCPUs on one core), and it comes and goes.
pub const TYPICAL_QUANTILE: f64 = 0.5;
/// The quantile of chunk medians reported for the latency reps of such
/// workloads: above the moments without contention.
pub const CONTENDED_QUANTILE: f64 = 0.75;
/// The quantile of the latency reps' unstalled shares reported: stalls from
/// outside (the host taking a vCPU away, interrupts) only ever lower a
/// rep's share, and every rep holds all the stalls its tables cause.
pub const UNSTALLED_QUANTILE: f64 = 0.9;
/// The quantile of a run's set-up times reported: page faults, thread
/// creation and the neighbours only ever slow a set-up down.
pub const SETUP_QUANTILE: f64 = 0.25;
/// `run_seconds` of `BENCHMARK.json`, the default of `--seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

/// Command-line options of the gate binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
    /// Take the per-layer metrics (traced run) instead of the gated ones.
    pub trace: bool,
    /// Short reps, one stretch, two blocks: a smoke test, not comparable.
    pub quick: bool,
    /// Fence every op and spin this long before it, ns (`aa.sh`'s
    /// vacuity proof only).
    pub handicap_ns: Option<f64>,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

impl Options {
    /// Parse the arguments after the program name.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut options = Options {
            workload: String::new(),
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            handicap_ns: None,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut args = args;
        while let Some(flag) = args.next() {
            if flag == "--quick" {
                options.quick = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => options.workload = value,
                "--seed" => options.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    options.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                        return Err(bad("between 0 and 600"));
                    }
                }
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--handicap-ns" => {
                    let nanos = value.parse().map_err(|_| bad("a number"))?;
                    if !(0.0..=1e6).contains(&nanos) {
                        return Err(bad("between 0 and 1e6"));
                    }
                    options.handicap_ns = Some(nanos);
                }
                "--out-dir" => options.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if !WORKLOADS.contains(&options.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(options)
    }
}

/// Worker threads of a run: `min(nproc, 4)`.
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Operations attempted and results found wrong, over a whole run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Table operations issued plus oracle comparisons made.
    pub attempted: u64,
    /// Comparisons that disagreed with the oracle.
    pub failed: u64,
}

/// How long the parts of one set-up took, seconds at the nominal core clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Input generation (the oracle's construction taken out).
    pub keygen_s: f64,
    /// First block build.
    pub build_s: f64,
    /// Both and the workers' spawning: what `setup_s` reports.
    pub total_s: f64,
}

/// One rep reduced to numbers.
pub struct RepResult {
    /// Million operations per second, barrier release → last worker done.
    pub mops: f64,
    /// Nominal core clock over the rep's measured one.
    pub clock_scale: f64,
    /// ns per op (of one worker, at the nominal clock) of each unit.
    pub unit_ns: Vec<f32>,
    /// What the workers' wrappers recorded in a latency rep, pooled.
    pub recorded: Recorded,
}

/// A run after set-up: inputs generated, workers running, tables warm.
pub struct Bench {
    workload: Arc<dyn Workload>,
    pool: Pool,
    clock: Clock,
    handicap: Handicap,
    rep_no: u64,
    /// Running totals for the result line.
    pub tally: Tally,
}

impl Bench {
    /// Set up: generate the inputs, spawn the workers and build the first
    /// block — what `setup_s` times.  `clock` and `handicap` are calibrated
    /// once per process, by the caller: fixed spins of the harness's own.
    /// [`Bench::warm_up`] follows, outside `setup_s`.
    pub fn setup(
        options: &Options,
        clock: Clock,
        handicap: Handicap,
        mut trace: Option<&mut Trace>,
    ) -> (Bench, SetupTimes) {
        let begun = Instant::now();
        span(&mut trace, "workloads.keygen");
        let workload = workloads::make(&options.workload, options.seed, options.quick)
            .expect("workload name checked by Options::parse");
        unspan(&mut trace, 0);
        let oracle_s = workload.oracle_seconds();
        let keygen_s = begun.elapsed().as_secs_f64() - oracle_s;

        let mut bench = Bench {
            workload,
            pool: Pool::spawn(worker_threads(), clock),
            clock,
            handicap,
            rep_no: 0,
            tally: Tally::default(),
        };
        let building = Instant::now();
        bench.build_block(&mut trace);
        let build_s = building.elapsed().as_secs_f64();
        let total_s = begun.elapsed().as_secs_f64() - oracle_s;
        // Like every timing of a run: at the nominal core clock.
        let scale = clock_scale(&clock);
        let times = SetupTimes {
            keygen_s: keygen_s * scale,
            build_s: build_s * scale,
            total_s: total_s * scale,
        };
        (bench, times)
    }

    /// One untimed `T`-thread rep before the first measured one; returns
    /// how long it took, seconds.  It is not part of `setup_s` because it is
    /// a `T`-thread rep timed as a whole: it follows the host's placement of
    /// the vCPUs for minutes at a time (up to +41 % on two workloads in one
    /// 20-minute series), and the set-up work a change to the library can
    /// move — table creation and prefill — is all before it.
    pub fn warm_up(&mut self, trace: &mut Option<&mut Trace>) -> f64 {
        let warming = Instant::now();
        self.rep(0, self.threads(), Mode::Plain, trace);
        warming.elapsed().as_secs_f64()
    }

    /// Whether the workload's threads interact.
    pub fn threads_interact(&self) -> bool {
        self.workload.threads_interact()
    }

    /// Worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Workers that pinned themselves to a CPU.
    pub fn pinned(&self) -> usize {
        self.pool.pinned()
    }

    fn ctx(&mut self, mode: Mode, traced: bool) -> RepCtx {
        self.rep_no += 1;
        RepCtx {
            mode,
            traced,
            handicap: self.handicap,
            rep_no: self.rep_no,
        }
    }

    /// Nominal core clock over the one a worker saw in a rep: the median of
    /// the reference readings it took after its units.
    fn clock_scale(&self, reference: &[u64]) -> f64 {
        if reference.is_empty() {
            return 1.0;
        }
        let readings: Vec<f64> = reference.iter().map(|&ticks| ticks as f64).collect();
        NOMINAL_REFERENCE_NS / self.clock.delta_ns(0, median(&readings) as u64) as f64
    }

    /// Fold the workers' outputs of one job into the tally, the trace and
    /// one [`RepResult`].
    fn collect(
        &mut self,
        first: usize,
        outs: Vec<RepOut>,
        trace: &mut Option<&mut Trace>,
    ) -> RepResult {
        let mut ops = 0;
        let mut start = u64::MAX;
        let mut end = 0;
        let mut pooled = Recorded::default();
        let clock_scales: Vec<f64> = outs
            .iter()
            .map(|o| self.clock_scale(&o.recorded.reference))
            .collect();
        let clock_scale = clock_scales.iter().sum::<f64>() / clock_scales.len().max(1) as f64;
        let per_worker: Vec<&[(u64, u64, u32)]> =
            outs.iter().map(|o| o.recorded.units.as_slice()).collect();
        let mut unit_ns =
            concurrent_unit_ns(&per_worker, self.workload.threads_interact(), |from, to| {
                self.clock.delta_ns(from, to)
            });
        for value in &mut unit_ns {
            *value *= clock_scale as f32;
        }
        for (tid, out) in outs.into_iter().enumerate() {
            let counts = out.counts;
            ops += counts.ops;
            start = start.min(counts.start);
            end = end.max(counts.end);
            self.tally.attempted += counts.ops + counts.checks;
            self.tally.failed += counts.failed;
            let Recorded {
                chunk_p50_ns,
                lat,
                spans,
                ..
            } = out.recorded;
            let scale = clock_scales[tid] as f32;
            pooled
                .chunk_p50_ns
                .extend(chunk_p50_ns.iter().map(|ns| ns * scale));
            if let Some(rec) = lat {
                pooled.lat.get_or_insert_with(LatRec::new).merge(&rec);
            }
            if let (Some(trace), Some(spans)) = (trace.as_deref_mut(), spans) {
                trace.splice(first + tid, spans);
            }
        }
        let nanos = self.clock.delta_ns(start, end).max(1);
        RepResult {
            mops: ops as f64 * 1e3 / nanos as f64,
            clock_scale,
            unit_ns,
            recorded: pooled,
        }
    }

    /// Build a fresh block on worker 0.
    pub fn build_block(&mut self, trace: &mut Option<&mut Trace>) {
        let workload = Arc::clone(&self.workload);
        let ctx = self.ctx(Mode::Plain, trace.is_some());
        span(trace, "block.build");
        let outs = self.pool.run(0, 1, move |w| workload.build_block(w, ctx));
        self.collect(0, outs, trace);
        unspan(trace, 0);
    }

    /// Run one rep on workers `first..first + parties`.
    pub fn rep(
        &mut self,
        first: usize,
        parties: usize,
        mode: Mode,
        trace: &mut Option<&mut Trace>,
    ) -> RepResult {
        let workload = Arc::clone(&self.workload);
        let ctx = self.ctx(mode, trace.is_some());
        span(
            trace,
            match (mode, parties) {
                (Mode::Timed, _) => "rep.latency",
                (Mode::Plain, 1) => "rep.1t",
                (Mode::Plain, _) => "rep.threads",
            },
        );
        let outs = self.pool.run(first, parties, move |w| workload.rep(w, ctx));
        let result = self.collect(first, outs, trace);
        unspan(trace, 0);
        result
    }

    /// Measure blocks into `m` until `deadline`, and at least `min_blocks`.
    pub fn measure(
        &mut self,
        deadline: Instant,
        min_blocks: usize,
        m: &mut Measured,
        trace: &mut Option<&mut Trace>,
    ) {
        let threads = self.threads();
        let begun = Instant::now();
        let mut blocks = 0;
        while blocks < min_blocks || Instant::now() < deadline {
            span(trace, "block");
            self.build_block(trace);
            let mut block = Vec::with_capacity(REPS_PER_BLOCK);
            for turn in 0..REPS_PER_BLOCK {
                let rep = self.rep(0, threads, Mode::Plain, trace);
                block.push(rep.mops);
                m.clock_scales.push(rep.clock_scale);
                m.unit_ns.extend(rep.unit_ns);
                // 1-thread reps take the workers in turn, so that one
                // vCPU having a bad minute does not decide `mops_1t`.
                let single = (blocks * REPS_PER_BLOCK + turn) % threads;
                m.unit_ns_1t
                    .extend(self.rep(single, 1, Mode::Plain, trace).unit_ns);
            }
            let rep = self.rep(0, threads, Mode::Timed, trace).recorded;
            m.chunk_p50_ns.extend(rep.chunk_p50_ns);
            let lat = rep.lat.expect("a latency rep records latencies");
            m.rep_unstalled.push(lat.unstalled_frac() as f32);
            m.lat.merge(&lat);
            m.block_mops.push(median(&block));
            m.rep_mops.extend(block);
            blocks += 1;
            unspan(trace, 0);
        }
        m.seconds += begun.elapsed().as_secs_f64();
    }

    /// End the run: join the workers, then run the exact pass on the
    /// calling thread — the only one left, so the allocator's counters see
    /// nothing else (a sleeping worker's channel can still allocate).
    pub fn finish(self) -> (Exact, Tally) {
        let Bench {
            workload,
            pool,
            clock,
            mut tally,
            ..
        } = self;
        drop(pool);
        let exact = workload.exact_pass(clock);
        tally.attempted += exact.ops + exact.checks;
        tally.failed += exact.failed;
        (exact, tally)
    }
}

/// Every worker's units as ns per operation of one of `T` equal workers,
/// so that `T × 1000 ÷` a value is the throughput of all of them, MOps/s.
///
/// Workers that do not interact are taken one by one: a unit's own time
/// over its own operations.  For workers that do, a unit is a window, and
/// the operations are those that *all* workers completed meanwhile (a
/// worker's progress inside one of its units taken as uniform): one core
/// tends to keep a fought-over cache line, so single workers' rates spread
/// widely while their sum stays put.
///
/// Units that began before every worker had begun, or ended after the
/// first one was done, are left out: what a worker does while another is
/// absent says nothing about `T` threads.
pub fn concurrent_unit_ns(
    workers: &[&[(u64, u64, u32)]],
    interact: bool,
    delta_ns: impl Fn(u64, u64) -> u64,
) -> Vec<f32> {
    let all_begun = workers
        .iter()
        .filter_map(|units| units.first().map(|u| u.0))
        .max()
        .unwrap_or(0);
    let first_done = workers
        .iter()
        .filter_map(|units| units.last().map(|u| u.1))
        .min()
        .unwrap_or(0);
    let mut out = Vec::new();
    for window_owner in workers {
        // Where the scan of each worker's units resumes: one worker's
        // windows come in time order, so nothing before the last hit can
        // overlap the next.
        let mut resume = vec![0usize; workers.len()];
        for &(from, to, own_ops) in window_owner.iter() {
            if from < all_begun || to > first_done || to <= from {
                continue;
            }
            let nanos = delta_ns(from, to) as f64;
            if !interact {
                out.push((nanos / own_ops as f64) as f32);
                continue;
            }
            let mut ops = 0.0f64;
            for (units, resume) in workers.iter().zip(resume.iter_mut()) {
                while *resume < units.len() && units[*resume].1 <= from {
                    *resume += 1;
                }
                for &(start, end, unit_ops) in &units[*resume..] {
                    if start >= to {
                        break;
                    }
                    let overlap = end.min(to) - start.max(from);
                    ops += unit_ops as f64 * overlap as f64 / (end - start).max(1) as f64;
                }
            }
            out.push((nanos * workers.len() as f64 / ops) as f32);
        }
    }
    out
}

fn span(trace: &mut Option<&mut Trace>, name: &'static str) {
    if let Some(trace) = trace {
        trace.begin(name);
    }
}

fn unspan(trace: &mut Option<&mut Trace>, ops: u64) {
    if let Some(trace) = trace {
        trace.end(ops);
    }
}

/// What the measured blocks of a run recorded, pooled over blocks, reps
/// and workers.
#[derive(Default)]
pub struct Measured {
    /// ns per op of every unit of the `T`-thread reps.
    pub unit_ns: Vec<f32>,
    /// ns per op of every unit of the 1-thread reps.
    pub unit_ns_1t: Vec<f32>,
    /// Median per-op latency of every chunk of the latency reps, ns.
    pub chunk_p50_ns: Vec<f32>,
    /// Unstalled share of every latency rep.
    pub rep_unstalled: Vec<f32>,
    /// All latency reps' records merged.
    pub lat: LatRec,
    /// MOps/s of every `T`-thread rep, barrier release → last worker done.
    pub rep_mops: Vec<f64>,
    /// Median `rep_mops` of each block.
    pub block_mops: Vec<f64>,
    /// Nominal over measured core clock of every `T`-thread rep.
    pub clock_scales: Vec<f64>,
    /// Wall time the blocks took.
    pub seconds: f64,
}

impl Measured {
    /// `driver.mops`: `T` workers at the unit time the workload's kind of
    /// rep repeats at — as far as it does: where the workers write to shared
    /// lines it follows the host's placement of the vCPUs, which is why it
    /// is not gated (README.md, "Why `mops` is not gated").
    pub fn mops(&mut self, threads: usize, interact: bool) -> f64 {
        let q = if interact {
            TYPICAL_QUANTILE
        } else {
            QUIET_QUANTILE
        };
        threads as f64 * 1e3 / quantile(&mut self.unit_ns, q)
    }

    /// `mops_1t`: the undisturbed unit time of the 1-thread reps.
    pub fn mops_1t(&mut self) -> f64 {
        1e3 / quantile(&mut self.unit_ns_1t, QUIET_QUANTILE)
    }

    /// `lat_p50_ns`: the chunk median of the latency reps that repeats.
    pub fn lat_p50_ns(&mut self, interact: bool) -> f64 {
        let q = if interact {
            CONTENDED_QUANTILE
        } else {
            QUIET_QUANTILE
        };
        quantile(&mut self.chunk_p50_ns, q)
    }

    /// `unstalled_frac`: the share of a latency rep's summed per-op latency
    /// that went into operations no slower than 2 µs, of the little-disturbed
    /// reps.  Every rep of a growing workload holds its tables' whole growth.
    pub fn unstalled_frac(&mut self) -> f64 {
        quantile(&mut self.rep_unstalled, UNSTALLED_QUANTILE)
    }

    /// Median core clock of the `T`-thread reps, GHz.
    pub fn core_ghz(&self) -> f64 {
        NOMINAL_GHZ / median(&self.clock_scales)
    }

    /// `driver.rep_iqr_frac`: spread of whole `T`-thread reps — the weather.
    pub fn rep_iqr_frac(&self) -> f64 {
        iqr_frac(&self.rep_mops)
    }

    /// `driver.block_spread_frac`: spread of the block medians.
    pub fn block_spread_frac(&self) -> f64 {
        iqr_frac(&self.block_mops)
    }
}

/// Mean cost, ns, of the two clock reads that bracket an op in a latency
/// rep (included in `lat_p50_ns`).
pub fn clock_overhead_ns(clock: Clock) -> f64 {
    const READS: u64 = 1 << 20;
    let mut sum = 0u64;
    for _ in 0..READS {
        let start = clock.now();
        let end = clock.now();
        sum += end.saturating_sub(start);
    }
    clock.delta_ns(0, sum) as f64 / READS as f64
}

/// Number of stretches an untraced run is cut into.
pub fn stretches(options: &Options) -> usize {
    if options.quick {
        1
    } else {
        STRETCHES
    }
}
