//! Regenerate the tables and figures of the paper's evaluation.
//!
//! ```text
//! cargo run -p growt-bench --release --bin figure -- <id> [--ops N] [--threads 1,2,4]
//!                                                        [--reps R] [--contention-threads P]
//!                                                        [--json]
//! ```
//!
//! `<id>` is `table1`, `all`, or one of the measured ids of
//! [`growt_bench::FIGURES`]: `fig2a`, `fig2b`, `fig3a`, `fig3b`, `fig4a`,
//! `fig4b`, `fig5a`, `fig5b`, `fig6`, `fig7a`, `fig7b`, `fig8a`, `fig8b`,
//! `fig10`, `fig11a`, `fig11b`, `ablation_block`, `ablation_batch`,
//! `ablation_probe`, `scaling`, `wordcount`, `typed`, `latency`.
//! Output is TSV on stdout (one block per figure).  With `--json`, every
//! measured id also merges its record into the machine-readable
//! perf-trajectory record `BENCH_hotpath.json` (schema
//! `growt-bench/hotpath-v2`) in the current directory: the file keeps one
//! block per figure id across runs, and a re-run replaces its own block in
//! place.  The whole record is reproduced by
//!
//! ```text
//! cargo run -p growt-bench --release --bin figure -- all --json --ops 1000000 --reps 3 --threads 1,2
//! ```
//!
//! The `wordcount` sweep takes `--vocab N` (vocabulary size, i.e.
//! distinct words).  `--threads` overrides the thread grid of every sweep,
//! including the figures that otherwise use a built-in wide grid
//! (`fig11a`/`fig11b`).

use growt_bench::*;

/// Install the tracking allocator so that Fig. 10 can report memory usage.
#[global_allocator]
static GLOBAL: growt_alloc_track::TrackingAlloc = growt_alloc_track::TrackingAlloc;

fn parse_args() -> (Vec<String>, HarnessConfig) {
    let mut cfg = HarnessConfig::default();
    let mut ids = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => {
                cfg.ops = args
                    .next()
                    .expect("--ops N")
                    .parse()
                    .expect("numeric --ops");
            }
            "--reps" => {
                cfg.reps = args
                    .next()
                    .expect("--reps R")
                    .parse()
                    .expect("numeric --reps");
            }
            "--threads" => {
                cfg.threads = args
                    .next()
                    .expect("--threads list")
                    .split(',')
                    .map(|t| t.parse().expect("numeric thread count"))
                    .collect();
                cfg.threads_overridden = true;
            }
            "--contention-threads" => {
                cfg.contention_threads = args
                    .next()
                    .expect("--contention-threads P")
                    .parse()
                    .expect("numeric thread count");
            }
            "--zipf" => {
                cfg.zipf_s = args
                    .next()
                    .expect("--zipf list")
                    .split(',')
                    .map(|s| s.parse().expect("numeric zipf exponent"))
                    .collect();
            }
            "--vocab" => {
                cfg.wordcount_vocab = args
                    .next()
                    .expect("--vocab N")
                    .parse()
                    .expect("numeric --vocab");
            }
            "--json" => {
                cfg.json = true;
            }
            other if other.starts_with("--") => panic!("unknown option {other}"),
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids.push("table1".to_string());
    }
    (ids, cfg)
}

/// Merge `record` into `BENCH_hotpath.json` in the current directory
/// (creating the file if needed).
fn write_hotpath_json(record: &Record, cfg: &HarnessConfig) {
    let existing = std::fs::read_to_string("BENCH_hotpath.json").ok();
    let merged = merge_hotpath_json(existing.as_deref(), record.id, &record.block(cfg));
    std::fs::write("BENCH_hotpath.json", merged).expect("failed to write BENCH_hotpath.json");
    eprintln!(
        "[figure] merged {} into BENCH_hotpath.json ({} points)",
        record.id,
        record.points.len()
    );
}

fn run(id: &str, cfg: &HarnessConfig) {
    eprintln!(
        "[figure] running {id} (ops = {}, threads = {:?})",
        cfg.ops, cfg.threads
    );
    let start = std::time::Instant::now();
    let output = if id == "table1" {
        table1()
    } else if let Some((_, measure)) = FIGURES.iter().find(|(known, _)| *known == id) {
        let record = measure(cfg);
        if cfg.json {
            write_hotpath_json(&record, cfg);
        }
        record.to_tsv()
    } else {
        let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
        eprintln!("[figure] unknown figure id `{id}`");
        eprintln!("[figure] valid ids: table1, {} (or `all`)", ids.join(", "));
        std::process::exit(2);
    };
    println!("{output}");
    eprintln!("[figure] {id} took {:.1} s", start.elapsed().as_secs_f64());
}

fn main() {
    let (ids, cfg) = parse_args();
    for id in &ids {
        if id == "all" {
            run("table1", &cfg);
            for (id, _) in FIGURES {
                run(id, &cfg);
            }
        } else {
            run(id, &cfg);
        }
    }
}
