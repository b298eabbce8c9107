//! The harness's call wrapper: every table operation a workload issues
//! goes through [`OpWrap::op`], so one rep loop serves the throughput reps,
//! the per-op-timed latency rep and the traced run.
//!
//! A rep is cut into *units* — a fixed amount of work per worker, a few
//! dozen microseconds to a few milliseconds long, which the workers of a
//! rep begin together.  The run's figures are low quantiles over thousands
//! of units (README.md, "Estimators"): on the shared host a vCPU alternates,
//! seconds at a time, between an undisturbed and a ~35 % slower mode, and
//! only the undisturbed mode repeats from run to run.

use std::hint::black_box;

use growt_repro::growt_workloads::Clock;

use crate::estimators::{LatRec, STALL_NS};
use crate::trace::SpanBuf;

/// Operations per chunk: the unit of the streaming workloads, and the
/// stretch over which a latency rep takes one median.
pub const CHUNK: usize = 4096;

/// How a rep's operations are wrapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Units timed, ops untouched: the throughput reps.
    Plain,
    /// Every op bracketed by two clock reads: the latency rep.
    Timed,
}

/// `aa.sh`'s proof that the bounds can be tripped: before every op a spin
/// of a known length between two fences.  The fences alone cost far more
/// than the spin (they stop consecutive operations from overlapping), so
/// both of the sets `aa.sh` compares run fenced and only the spin differs
/// between them: a slowdown whose size is known by construction.  No real
/// run has a handicap.
#[derive(Clone, Copy, Debug, Default)]
pub struct Handicap {
    /// `None`: no fences, no spin.
    iters: Option<u32>,
    /// What the spin takes at the nominal core clock, ns.
    nanos: f64,
}

impl Handicap {
    /// No fences, no spin.
    pub const NONE: Handicap = Handicap {
        iters: None,
        nanos: 0.0,
    };

    /// Fences and a spin of about `nanos` (at the nominal core clock) per
    /// op: the dependent-multiply loop below is timed here, and the
    /// iteration count rounded to the nearest whole number.
    pub fn calibrated(nanos: f64, clock: &Clock) -> Self {
        const PROBE_ITERS: u32 = 1 << 22;
        let probe = Handicap {
            iters: Some(PROBE_ITERS),
            nanos: 0.0,
        };
        let start = clock.now();
        probe.spin();
        let per_iter =
            clock.delta_ns(start, clock.now()) as f64 * clock_scale(clock) / PROBE_ITERS as f64;
        let iters = (nanos / per_iter).round();
        Handicap {
            iters: Some(iters as u32),
            nanos: iters * per_iter,
        }
    }

    /// What the spin takes at the nominal core clock, ns.
    pub fn nanos(self) -> f64 {
        self.nanos
    }

    #[inline(always)]
    fn spin(self) {
        let Some(iters) = self.iters else {
            return;
        };
        // Nothing consumes the chain, so unfenced the core would run it in
        // the shadow of the previous operation's cache misses (fence before)
        // and of this one's (fence after).
        fence();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..iters {
            x = black_box(x.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        }
        fence();
    }
}

/// Wait until every earlier instruction has completed.
#[inline(always)]
fn fence() {
    // SAFETY: LFENCE is part of SSE2, which every x86-64 CPU has.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_lfence();
    }
}

/// Steps of the reference chain timed after every unit.
const REFERENCE_STEPS: u32 = 1024;
/// Core cycles one step takes (a 3-cycle multiply feeding a 1-cycle
/// rotate, on every x86-64 core of the last fifteen years).
const CYCLES_PER_STEP: f64 = 4.0;
/// The core clock timings are reported at, GHz.
pub const NOMINAL_GHZ: f64 = 3.8;
/// What [`reference_ticks`] reads at the nominal clock, ns.
pub const NOMINAL_REFERENCE_NS: f64 = REFERENCE_STEPS as f64 * CYCLES_PER_STEP / NOMINAL_GHZ;

/// Time a fixed dependent multiply-rotate chain: a reading of the core
/// clock, which turbo moves by several per cent from one second to the
/// next while the time-stamp counter ticks at a constant rate.  There is no
/// PMU in the sandbox, so this chain is the cycle counter.  The quicker of
/// two halves is kept, so that an interrupt in one of them does not read as
/// a slow clock.
#[inline(never)]
fn reference_ticks(clock: &Clock) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut best = u64::MAX;
    for _ in 0..2 {
        let start = clock.now();
        for _ in 0..REFERENCE_STEPS / 2 {
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(7);
        }
        x = black_box(x);
        best = best.min(clock.now().saturating_sub(start));
    }
    2 * best
}

/// Nominal core clock over the one the reference chain reads right now:
/// what a timing taken just before is multiplied by.
pub fn clock_scale(clock: &Clock) -> f64 {
    NOMINAL_REFERENCE_NS / clock.delta_ns(0, reference_ticks(clock)).max(1) as f64
}

/// What a wrapper recorded over one worker's rep.
#[derive(Default)]
pub struct Recorded {
    /// Clock readings at the start and the end of each unit, and the
    /// operations it held, in order.
    pub units: Vec<(u64, u64, u32)>,
    /// Latency rep: median per-op latency of each chunk of [`CHUNK`] ops, ns.
    pub chunk_p50_ns: Vec<f32>,
    /// Latency rep: every op's latency.
    pub lat: Option<LatRec>,
    /// Clock ticks the reference chain took after each unit.
    pub reference: Vec<u64>,
    /// Traced run: the worker's spans.
    pub spans: Option<SpanBuf>,
}

/// Wraps the operations of one worker in one rep.
pub trait OpWrap {
    /// Run one operation.  `gauge` reads the map's completed-migration
    /// count; only the traced latency rep calls it.
    fn op<R>(&mut self, gauge: &impl Fn() -> u64, f: impl FnOnce() -> R) -> R;
    /// A unit of work begins.
    fn unit_begin(&mut self);
    /// The unit ends after `ops` operations.
    fn unit_end(&mut self, ops: u64);
    /// A named stretch of other harness work begins (a table build, a
    /// verification pass); recorded by the traced run only.
    fn span_begin(&mut self, name: &'static str);
    /// The innermost open stretch ends.
    fn span_end(&mut self, ops: u64);
    /// Hand back what was recorded.
    fn finish(self) -> Recorded;
}

/// Spans, when the run is traced.
struct Tracing {
    clock: Clock,
    spans: Option<SpanBuf>,
}

impl Tracing {
    fn new(clock: Clock, traced: bool) -> Self {
        Tracing {
            clock,
            spans: traced.then(SpanBuf::new),
        }
    }

    fn begin(&mut self, name: &'static str) {
        if let Some(spans) = &mut self.spans {
            spans.begin(name, self.clock.now());
        }
    }

    fn end(&mut self, ops: u64) {
        if let Some(spans) = &mut self.spans {
            spans.end(self.clock.now(), ops);
        }
    }
}

/// [`Mode::Plain`]: two clock reads per unit, nothing per op.
pub struct PlainOps {
    handicap: Handicap,
    tracing: Tracing,
    unit_start: u64,
    units: Vec<(u64, u64, u32)>,
    reference: Vec<u64>,
}

impl PlainOps {
    /// Wrapper for a throughput rep.
    pub fn new(clock: Clock, handicap: Handicap, traced: bool) -> Self {
        PlainOps {
            handicap,
            tracing: Tracing::new(clock, traced),
            unit_start: 0,
            units: Vec::with_capacity(1 << 11),
            reference: Vec::with_capacity(1 << 11),
        }
    }
}

impl OpWrap for PlainOps {
    #[inline(always)]
    fn op<R>(&mut self, _gauge: &impl Fn() -> u64, f: impl FnOnce() -> R) -> R {
        self.handicap.spin();
        f()
    }

    #[inline]
    fn unit_begin(&mut self) {
        self.tracing.begin("unit");
        self.unit_start = self.tracing.clock.now();
    }

    #[inline]
    fn unit_end(&mut self, ops: u64) {
        let end = self.tracing.clock.now();
        self.units.push((self.unit_start, end, ops as u32));
        self.tracing.end(ops);
        self.reference.push(reference_ticks(&self.tracing.clock));
    }

    fn span_begin(&mut self, name: &'static str) {
        self.tracing.begin(name);
    }

    fn span_end(&mut self, ops: u64) {
        self.tracing.end(ops);
    }

    fn finish(self) -> Recorded {
        Recorded {
            units: self.units,
            reference: self.reference,
            spans: self.tracing.spans,
            ..Recorded::default()
        }
    }
}

/// Bins of the per-chunk latency histogram: 1 ns each, slower ops share
/// the last one (a chunk's median sits far below).
const CHUNK_BINS: usize = 1024;

/// [`Mode::Timed`]: every op bracketed by two clock reads.
pub struct TimedOps {
    handicap: Handicap,
    tracing: Tracing,
    lat: LatRec,
    chunk_hist: Box<[u16; CHUNK_BINS]>,
    chunk_ops: usize,
    chunk_p50_ns: Vec<f32>,
    reference: Vec<u64>,
}

impl TimedOps {
    /// Wrapper for a latency rep.
    pub fn new(clock: Clock, handicap: Handicap, traced: bool) -> Self {
        TimedOps {
            handicap,
            tracing: Tracing::new(clock, traced),
            lat: LatRec::new(),
            chunk_hist: Box::new([0; CHUNK_BINS]),
            chunk_ops: 0,
            chunk_p50_ns: Vec::with_capacity(1 << 11),
            reference: Vec::with_capacity(1 << 11),
        }
    }

    /// Close a chunk: record the median of its histogram and clear it.
    #[cold]
    fn chunk_done(&mut self) {
        let half = (self.chunk_ops / 2) as u32;
        let mut below = 0u32;
        for (bin, count) in self.chunk_hist.iter_mut().enumerate() {
            let here = *count as u32;
            *count = 0;
            if below <= half && below + here > half {
                // Interpolate inside the 1 ns bin by rank.
                self.chunk_p50_ns
                    .push(bin as f32 + (half - below) as f32 / here as f32);
            }
            below += here;
        }
        self.chunk_ops = 0;
    }
}

impl OpWrap for TimedOps {
    #[inline(always)]
    fn op<R>(&mut self, gauge: &impl Fn() -> u64, f: impl FnOnce() -> R) -> R {
        let clock = self.tracing.clock;
        let before = match self.tracing.spans {
            Some(_) => gauge(),
            None => 0,
        };
        let start = clock.now();
        self.handicap.spin();
        let result = f();
        let end = clock.now();
        let nanos = clock.delta_ns(start, end);
        self.lat.record(nanos);
        self.chunk_hist[(nanos as usize).min(CHUNK_BINS - 1)] += 1;
        self.chunk_ops += 1;
        if self.chunk_ops == CHUNK {
            self.chunk_done();
        }
        if nanos > STALL_NS {
            if let Some(spans) = &mut self.tracing.spans {
                spans.stalled_op(start, end, (before, gauge()));
            }
        }
        result
    }

    fn unit_begin(&mut self) {
        self.tracing.begin("unit");
    }

    fn unit_end(&mut self, ops: u64) {
        self.tracing.end(ops);
        self.reference.push(reference_ticks(&self.tracing.clock));
    }

    fn span_begin(&mut self, name: &'static str) {
        self.tracing.begin(name);
    }

    fn span_end(&mut self, ops: u64) {
        self.tracing.end(ops);
    }

    fn finish(self) -> Recorded {
        Recorded {
            chunk_p50_ns: self.chunk_p50_ns,
            lat: Some(self.lat),
            reference: self.reference,
            spans: self.tracing.spans,
            ..Recorded::default()
        }
    }
}
