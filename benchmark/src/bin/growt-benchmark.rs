//! The gate: one workload, one process, the five end-to-end metrics — or,
//! with `--trace 1`, the traced run and the per-layer metrics.
//!
//! ```text
//! growt-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--quick]
//! ```
//!
//! Everything printed before the last line is for people; the last line of
//! standard output is the result object `BENCHMARK.json`'s contract asks for.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use growt_benchmark::driver::{self, Bench, Measured, Options, SetupTimes, Tally};
use growt_benchmark::estimators::quantile;
use growt_benchmark::metrics::{Metrics, DRIVER_LAYER, END_TO_END, PROBE_LAYER};
use growt_benchmark::opwrap::Handicap;
use growt_benchmark::sysinfo;
use growt_benchmark::trace::Trace;
use growt_benchmark::workloads::Exact;
use growt_repro::growt_alloc_track::TrackingAlloc;
use growt_repro::growt_workloads::Clock;

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// A run is reported as disturbed above this share of stolen CPU time ...
const DISTURBED_STEAL: f64 = 0.02;
/// ... or when the L2 pointer chase ends this far from where it started.
const DISTURBED_L2_DRIFT: f64 = 0.05;

/// Weather at the start of a run.
struct Weather {
    jiffies: Option<(u64, u64)>,
    l2_ns: f64,
    dram_ns: f64,
}

impl Weather {
    fn start(quick: bool) -> Self {
        Weather {
            jiffies: sysinfo::cpu_jiffies(),
            l2_ns: sysinfo::pointer_chase_ns(1 << 20, 1 << 20),
            dram_ns: if quick {
                0.0
            } else {
                sysinfo::pointer_chase_ns(128 << 20, 1 << 18)
            },
        }
    }

    /// Close the run: fill in the weather metrics, print the weather line,
    /// and say whether the run was disturbed.
    fn finish(&self, measured: &Measured, metrics: &mut Metrics) -> bool {
        let l2_end = sysinfo::pointer_chase_ns(1 << 20, 1 << 20);
        let steal = sysinfo::steal_frac(self.jiffies, sysinfo::cpu_jiffies());
        let drift = (l2_end / self.l2_ns - 1.0).abs();
        let disturbed = steal > DISTURBED_STEAL || drift > DISTURBED_L2_DRIFT;
        metrics.set("driver.steal_frac", steal);
        metrics.set("driver.calib_l2_ns", self.l2_ns);
        metrics.set("driver.calib_dram_ns", self.dram_ns);
        metrics.set("driver.rep_iqr_frac", measured.rep_iqr_frac());
        println!(
            "weather {{\"driver.calib_l2_ns\": {}, \"calib_l2_end_ns\": {l2_end}, \
             \"driver.calib_dram_ns\": {}, \"driver.steal_frac\": {steal}, \
             \"driver.rep_iqr_frac\": {}, \"core_ghz\": {}, \"disturbed\": {disturbed}}}",
            self.l2_ns,
            self.dram_ns,
            measured.rep_iqr_frac(),
            measured.core_ghz()
        );
        disturbed
    }
}

fn print_header(options: &Options) {
    println!(
        "growt-benchmark v1 workload={} seed={} threads={} seconds={} trace={} comparable={}",
        options.workload,
        options.seed,
        driver::worker_threads(),
        options.seconds,
        options.trace as u8,
        !options.quick && options.handicap_ns.is_none(),
    );
    let fields: Vec<String> = sysinfo::fingerprint()
        .into_iter()
        .map(|(key, value)| format!("\"{key}\": \"{}\"", value.replace(['"', '\\'], " ")))
        .collect();
    println!("fingerprint {{{}}}", fields.join(", "));
}

/// Print the result line; the exit code says whether a result was printed.
fn print_result(
    tally: Tally,
    metrics: &Metrics,
    lists: &[&[(&'static str, &'static str)]],
) -> ExitCode {
    print!("{}", metrics.to_table(lists));
    match metrics.to_json(lists) {
        Ok(json) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {json}}}",
                tally.failed == 0 && tally.attempted > 0,
                tally.attempted.max(1),
                tally.failed,
            );
            ExitCode::SUCCESS
        }
        Err(missing) => {
            eprintln!(
                "no result: metrics missing or not finite: {}",
                missing.join(", ")
            );
            ExitCode::FAILURE
        }
    }
}

fn add(total: &mut Tally, part: Tally) {
    total.attempted += part.attempted;
    total.failed += part.failed;
}

/// The five gated metrics, and the `T`-thread rate that is reported beside
/// them.
fn set_run_metrics(
    metrics: &mut Metrics,
    setups: &[SetupTimes],
    threads: usize,
    interact: bool,
    measured: &mut Measured,
    exact: &Exact,
) {
    let mut totals: Vec<f32> = setups.iter().map(|s| s.total_s as f32).collect();
    metrics.set("setup_s", quantile(&mut totals, driver::SETUP_QUANTILE));
    metrics.set("driver.mops", measured.mops(threads, interact));
    metrics.set("mops_1t", measured.mops_1t());
    metrics.set("lat_p50_ns", measured.lat_p50_ns(interact));
    metrics.set("unstalled_frac", measured.unstalled_frac());
    metrics.set(
        "mem_bytes_per_elem",
        exact.table_bytes as f64 / exact.elems.max(1) as f64,
    );
}

/// The untraced run: `--seconds` cut into stretches, each stretch a few
/// set-ups and then blocks on the last one's bench; then the exact pass.
fn gated(options: &Options) -> ExitCode {
    let weather = Weather::start(options.quick);
    let clock = Clock::calibrated();
    let handicap = match options.handicap_ns {
        Some(nanos) => Handicap::calibrated(nanos, &clock),
        None => Handicap::NONE,
    };
    let mut tally = Tally::default();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut measured = Measured::default();
    let stretches = driver::stretches(options);
    let seconds = if options.quick { 0.0 } else { options.seconds };
    let min_blocks = if options.quick { 2 } else { 1 };
    let begun = Instant::now();
    let mut bench = None;
    for stretch in 1..=stretches {
        for _ in 0..driver::SETUPS_PER_STRETCH {
            // Drop the previous bench (joining its workers) before timing
            // the next set-up.
            if let Some(Bench { tally: done, .. }) = bench.take() {
                add(&mut tally, done);
            }
            let (fresh, times) = Bench::setup(options, clock, handicap, None);
            setups.push(times);
            bench = Some(fresh);
        }
        let mut fresh = bench.take().expect("just set up");
        fresh.warm_up(&mut None);
        let deadline = begun + Duration::from_secs_f64(seconds * stretch as f64 / stretches as f64);
        fresh.measure(deadline, min_blocks, &mut measured, &mut None);
        bench = Some(fresh);
    }
    let bench = bench.expect("at least one stretch");
    let (threads, interact) = (bench.threads(), bench.threads_interact());
    let pinned = bench.pinned();
    let (exact, last) = bench.finish();
    add(&mut tally, last);

    let mut metrics = Metrics::default();
    set_run_metrics(
        &mut metrics,
        &setups,
        threads,
        interact,
        &mut measured,
        &exact,
    );
    let disturbed = weather.finish(&measured, &mut metrics);
    println!(
        "shape {{\"blocks\": {}, \"units\": {}, \"units_1t\": {}, \"latency_chunks\": {}, \
         \"latency_ops\": {}, \"setups\": {}, \"measured_s\": {}, \"pinned\": {}, \
         \"handicap_ns\": {}, \"disturbed\": {disturbed}}}",
        measured.block_mops.len(),
        measured.unit_ns.len(),
        measured.unit_ns_1t.len(),
        measured.chunk_p50_ns.len(),
        measured.lat.count(),
        setups.len(),
        measured.seconds,
        pinned,
        handicap.nanos(),
    );
    // For people: the `T`-thread rate, measured but not gated.
    print!("{}", metrics.to_table(&[&[("driver.mops", "MOps/s")]]));
    print_result(tally, &metrics, &[&END_TO_END])
}

/// Run the layer probes and fold their table into `metrics`.
fn run_probes(options: &Options, metrics: &mut Metrics) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path unknown: {e}"))?;
    let probes = exe.with_file_name("growt-benchmark-layers");
    let mut command = Command::new(&probes);
    command
        .arg("--workload")
        .arg(&options.workload)
        .arg("--seed")
        .arg(options.seed.to_string());
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {}: {e}", probes.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} failed: {}",
            probes.display(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut fields = line.split('\t');
        if let (Some(name), Some(Ok(value))) = (fields.next(), fields.next().map(str::parse::<f64>))
        {
            if PROBE_LAYER.iter().any(|(n, _)| *n == name) {
                metrics.set(name, value);
            }
        }
    }
    Ok(())
}

/// The per-op time the probes predict for the workload's 1-thread rep.
fn predicted_op_ns(workload: &str, metrics: &Metrics) -> Option<f64> {
    let probe = match workload {
        "lookup_resident" => "generic.find_ns",
        "insert_grow" => "generic.insert_ns",
        "aggregate_zipf" => "generic.upsert_ns",
        _ => "generic.string_upsert_ns",
    };
    Some(metrics.get(probe)? + metrics.get("driver.loop_ns")?)
}

/// The traced run: a short untraced stretch for reference, two traced
/// blocks, the exact pass, the layer probes.
fn traced(options: &Options) -> ExitCode {
    let weather = Weather::start(options.quick);
    let clock = Clock::calibrated();
    let mut trace = Trace::new(clock);
    let (mut bench, setup) = Bench::setup(options, clock, Handicap::NONE, Some(&mut trace));
    let warmup_s = bench.warm_up(&mut Some(&mut trace));
    let threads = bench.threads();
    let seconds = if options.quick {
        0.0
    } else {
        options.seconds / 4.0
    };
    let mut reference = Measured::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    bench.measure(deadline, 2, &mut reference, &mut None);
    let mut with_spans = Measured::default();
    bench.measure(Instant::now(), 2, &mut with_spans, &mut Some(&mut trace));
    let interact = bench.threads_interact();
    let pinned = bench.pinned();
    let (exact, tally) = bench.finish();

    let mut metrics = Metrics::default();
    set_run_metrics(
        &mut metrics,
        &[setup],
        threads,
        interact,
        &mut reference,
        &exact,
    );
    let mops = metrics.get("driver.mops").expect("set above");
    let mops_1t = metrics.get("mops_1t").expect("set above");
    if let Err(problem) = run_probes(options, &mut metrics) {
        eprintln!("no result: {problem}");
        return ExitCode::FAILURE;
    }

    metrics.set("workloads.keygen_s", setup.keygen_s);
    metrics.set("generic.build_s", setup.build_s);
    metrics.set("driver.warmup_s", warmup_s);
    metrics.set("coord.migrations", exact.migrations as f64);
    metrics.set("coord.final_capacity", exact.capacity as f64);
    metrics.set(
        "alloc.allocs_per_op",
        exact.allocs as f64 / exact.ops as f64,
    );
    metrics.set(
        "alloc.bytes_per_op",
        exact.alloc_bytes as f64 / exact.ops as f64,
    );

    // Stalled ops of the traced latency reps during which a migration
    // completed: the growth pause as one thread's operation saw it.
    let growth_stalls: Vec<f64> = trace
        .spans()
        .iter()
        .filter(|s| s.migrations.is_some_and(|(before, after)| after > before))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    metrics.set("coord.stall_ops", growth_stalls.len() as f64);
    metrics.set(
        "coord.stall_mean_us",
        // (`sum()` of no stalls is -0.0.)
        growth_stalls.iter().fold(0.0, |sum, us| sum + us) / growth_stalls.len().max(1) as f64,
    );
    metrics.set(
        "coord.stall_max_us",
        growth_stalls.iter().copied().fold(0.0, f64::max),
    );

    let lat = &reference.lat;
    metrics.set("driver.lat_p95_ns", lat.quantile(0.95));
    metrics.set("driver.lat_p99_ns", lat.quantile(0.99));
    metrics.set("driver.lat_p999_ns", lat.quantile(0.999));
    metrics.set("driver.lat_max_us", lat.max_ns() as f64 / 1e3);
    metrics.set("driver.scaling", mops / mops_1t);
    metrics.set("driver.block_spread_frac", reference.block_spread_frac());
    metrics.set("driver.clock_overhead_ns", driver::clock_overhead_ns(clock));
    metrics.set("driver.pinned", pinned as f64);
    metrics.set(
        "trace.overhead_frac",
        1.0 - with_spans.mops(threads, interact) / mops,
    );
    metrics.set("trace.spans", trace.spans().len() as f64);
    if let Some(sequential) = metrics.get("seq.mops_1t") {
        metrics.set("driver.seq_ratio", mops / sequential);
        metrics.set("driver.seq_ratio_1t", mops_1t / sequential);
    }
    let op_ns = 1e3 / mops_1t;
    if let Some(predicted) = predicted_op_ns(&options.workload, &metrics) {
        metrics.set("driver.residual_frac", (op_ns - predicted).abs() / op_ns);
        println!(
            "reconstruction {{\"measured_op_ns\": {op_ns}, \"predicted_op_ns\": {predicted}, \
             \"config.hash_key_ns\": {}, \"table.find_hit_ns\": {}, \"generic.prologue_ns\": {}, \
             \"driver.loop_ns\": {}}}",
            metrics.get("config.hash_key_ns").unwrap_or(f64::NAN),
            metrics.get("table.find_hit_ns").unwrap_or(f64::NAN),
            metrics.get("generic.prologue_ns").unwrap_or(f64::NAN),
            metrics.get("driver.loop_ns").unwrap_or(f64::NAN),
        );
    }
    let disturbed = weather.finish(&reference, &mut metrics);

    let path = options
        .out_dir
        .join(format!("trace-{}-{}.json", options.workload, options.seed));
    if let Err(e) = trace.write(&path, &options.workload, options.seed) {
        eprintln!("no result: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "shape {{\"reference_blocks\": {}, \"traced_blocks\": {}, \"trace_file\": \"{}\", \
         \"disturbed\": {disturbed}}}",
        reference.block_mops.len(),
        with_spans.block_mops.len(),
        path.display(),
    );
    // For people: the short reference stretch's end-to-end numbers.
    print!("{}", metrics.to_table(&[&END_TO_END]));
    print_result(tally, &metrics, &[&DRIVER_LAYER, &PROBE_LAYER])
}

fn main() -> ExitCode {
    // A panicking worker would leave its peers spinning at a barrier and
    // the main thread waiting for them: leave at once instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("growt-benchmark: {problem}");
            return ExitCode::from(2);
        }
    };
    print_header(&options);
    if options.trace {
        traced(&options)
    } else {
        gated(&options)
    }
}
