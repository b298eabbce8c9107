//! The estimators every reported number goes through: medians, quartiles
//! and quantiles over units or reps, and the per-op latency recorder behind
//! `unstalled_frac` and the tail percentiles.

/// Latency above which an operation counts as stalled (the growth pause,
/// a page fault, a timer tick), in nanoseconds.
pub const STALL_NS: u64 = 2_000;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// numbers printed here and by `aa.sh` agree with the driver's.  Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolated linearly between
/// the two nearest ranks; `NaN` for an empty slice.  Sorts `values`.
pub fn quantile(values: &mut [f32], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_unstable_by(|a, b| a.total_cmp(b));
    let at = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let low = at.floor() as usize;
    let high = at.ceil() as usize;
    let weight = at - low as f64;
    values[low] as f64 * (1.0 - weight) + values[high] as f64 * weight
}

/// Interquartile range as a share of the median: the spread figure the
/// driver holds against a metric's bound.  0 for fewer than two values.
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Per-op latency record of one thread in one latency rep (mergeable).
///
/// Latencies up to [`STALL_NS`] are counted in 1 ns bins, slower ones are
/// kept exactly.  The workload crate's `LatencyHistogram` is not used
/// because its log-linear buckets are 2 ns wide at 40 ns — a 5 % step,
/// wider than the spread of `lat_p50_ns` between runs — and it cannot give
/// the time-weighted stall share.
#[derive(Clone, Debug)]
pub struct LatRec {
    fast: Box<[u64]>,
    fast_sum: u64,
    slow: Vec<u64>,
    slow_sum: u64,
}

impl Default for LatRec {
    fn default() -> Self {
        Self::new()
    }
}

impl LatRec {
    /// An empty record; room for the slow ops of one rep is reserved so
    /// recording does not allocate inside a timed bracket.
    pub fn new() -> Self {
        LatRec {
            fast: vec![0u64; STALL_NS as usize + 1].into_boxed_slice(),
            fast_sum: 0,
            slow: Vec::with_capacity(1 << 15),
            slow_sum: 0,
        }
    }

    /// Record one operation's latency.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        if nanos <= STALL_NS {
            self.fast[nanos as usize] += 1;
            self.fast_sum += nanos;
        } else {
            self.slow.push(nanos);
            self.slow_sum += nanos;
        }
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &LatRec) {
        for (mine, theirs) in self.fast.iter_mut().zip(other.fast.iter()) {
            *mine += theirs;
        }
        self.fast_sum += other.fast_sum;
        self.slow.extend_from_slice(&other.slow);
        self.slow_sum += other.slow_sum;
    }

    /// Number of operations recorded.
    pub fn count(&self) -> u64 {
        self.fast.iter().sum::<u64>() + self.slow.len() as u64
    }

    /// Sum of all recorded latencies, ns.
    pub fn sum_ns(&self) -> u64 {
        self.fast_sum + self.slow_sum
    }

    /// Slowest operation, ns.
    pub fn max_ns(&self) -> u64 {
        match self.slow.iter().max() {
            Some(&m) => m,
            None => self.fast.iter().rposition(|&c| c > 0).unwrap_or(0) as u64,
        }
    }

    /// Share of the recorded time spent in operations that did not stall:
    /// `1 − Σ latency(op > STALL_NS) ÷ Σ latency(all ops)`.  1 when
    /// nothing was recorded.
    pub fn unstalled_frac(&self) -> f64 {
        let total = self.sum_ns();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.slow_sum as f64 / total as f64
    }

    /// The `q`-quantile (0 < q ≤ 1) of the recorded latencies, ns.  Inside
    /// a 1 ns bin the value is interpolated by rank, so a median sitting
    /// between two bins moves smoothly instead of jumping a whole bin.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).clamp(0.0, total as f64);
        let mut below = 0u64;
        for (bin, &count) in self.fast.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                return bin as f64 + (rank - below as f64) / count as f64;
            }
            below += count;
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        let index = ((rank - below as f64).ceil() as usize).clamp(1, slow.len()) - 1;
        slow[index] as f64
    }
}
