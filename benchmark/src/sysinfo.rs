//! The machine a run was taken on (fingerprint) and how quiet it was
//! while the run lasted (weather).  Reported with every run, never used
//! to filter one.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use growt_repro::growt_workloads::SplitMix64;

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Commit the checkout is at, read from `.git` by hand (no subprocess);
/// `"none"` outside a git checkout.
fn git_sha() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read_trimmed(&format!(".git/{reference}")) {
        return sha;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|sha| sha.trim().to_string())
            })
        })
        .unwrap_or_else(|| "none".into())
}

/// The machine and toolchain, as `(key, value)` pairs.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let thp = read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled")
        .and_then(|modes| {
            modes
                .split_whitespace()
                .find_map(|m| m.strip_prefix('[')?.strip_suffix(']').map(str::to_string))
        })
        .unwrap_or_else(unknown);
    let cache = |index: u32| {
        read_trimmed(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
        .unwrap_or_else(unknown)
    };
    vec![
        ("cpu_model", cpu_model),
        (
            "online_cpus",
            read_trimmed("/sys/devices/system/cpu/online").unwrap_or_else(unknown),
        ),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| unknown()),
        ),
        ("l2", cache(2)),
        ("l3", cache(3)),
        ("thp", thp),
        (
            "kernel",
            read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
        ),
        ("rustc", env!("GROWT_BENCH_RUSTC").to_string()),
        ("git_sha", git_sha()),
    ]
}

/// Cumulative `(steal, total)` jiffies of all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already contained in user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_frac(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Mean latency, ns, of a dependent load chain over `bytes` of memory
/// visited one cache line at a time in a random cyclic order: ~L2 latency
/// at 1 MiB, memory latency at 128 MiB.  A weather gauge: what it reads
/// at the end of a run against the start says whether the neighbours got
/// louder.
pub fn pointer_chase_ns(bytes: usize, steps: usize) -> f64 {
    const LINE_WORDS: usize = 8;
    let lines = bytes / (LINE_WORDS * 8);
    assert!(lines >= 2);
    // Sattolo's algorithm: a uniformly random single cycle.
    let mut order: Vec<u32> = (0..lines as u32).collect();
    let mut rng = SplitMix64::new(0x5EED ^ bytes as u64);
    for i in (1..lines).rev() {
        order.swap(i, rng.next_below(i as u64) as usize);
    }
    let mut memory = vec![0usize; lines * LINE_WORDS];
    for (line, &next) in order.iter().enumerate() {
        memory[line * LINE_WORDS] = next as usize * LINE_WORDS;
    }
    let mut at = 0usize;
    for _ in 0..lines.min(steps) {
        at = memory[at];
    }
    let start = Instant::now();
    for _ in 0..steps {
        at = memory[at];
    }
    let elapsed = start.elapsed();
    black_box(at);
    elapsed.as_nanos() as f64 / steps as f64
}
