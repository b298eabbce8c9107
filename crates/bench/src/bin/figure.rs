//! Regenerate the tables and figures of the paper's evaluation.
//!
//! ```text
//! cargo run -p growt-bench --release --bin figure -- <id> [--ops N] [--threads 1,2,4]
//!                                                        [--reps R] [--contention-threads P]
//!                                                        [--json]
//! ```
//!
//! `<id>` is one of: `table1`, `fig2a`, `fig2b`, `fig3a`, `fig3b`, `fig4a`,
//! `fig4b`, `fig5a`, `fig5b`, `fig6`, `fig7a`, `fig7b`, `fig8a`, `fig8b`,
//! `fig10`, `fig11a`, `fig11b`, `ablation_block`,
//! `ablation_batch`, `ablation_probe`, `scaling`, `wordcount`, `typed`,
//! `latency`, or `all`.
//! Output is TSV on stdout (one block per figure).  With `--json`,
//! `ablation_batch`, `ablation_probe`, `scaling`, `wordcount`, `typed`
//! and `latency` additionally merge their results into the
//! machine-readable perf-trajectory record `BENCH_hotpath.json` (schema
//! `growt-bench/hotpath-v2`) in the current directory: the file
//! accumulates one entry per figure key across runs (and upgrades legacy
//! v1 files in place) instead of being overwritten.  The `wordcount`
//! sweep takes `--vocab N` (vocabulary size, i.e. distinct words).
//! `--threads` overrides the thread grid of every sweep, including the
//! figures that otherwise use a built-in wide grid (`fig11a`/`fig11b`).

use growt_bench::*;

/// Every figure id the harness can regenerate, in `all` execution order.
const FIGURE_IDS: [&str; 24] = [
    "table1",
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fig10",
    "fig11a",
    "fig11b",
    "ablation_block",
    "ablation_batch",
    "ablation_probe",
    "scaling",
    "wordcount",
    "typed",
    "latency",
];

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

/// Merge one figure block into `BENCH_hotpath.json` in the current
/// directory (creating or upgrading the file as needed).
fn write_hotpath_json(figure: &str, block: &str, points: usize) {
    let existing = std::fs::read_to_string("BENCH_hotpath.json").ok();
    let merged = merge_hotpath_json(existing.as_deref(), figure, block);
    std::fs::write("BENCH_hotpath.json", merged).expect("failed to write BENCH_hotpath.json");
    eprintln!("[figure] merged {figure} into BENCH_hotpath.json ({points} points)");
}

fn run(id: &str, cfg: &HarnessConfig) {
    eprintln!(
        "[figure] running {id} (ops = {}, threads = {:?})",
        cfg.ops, cfg.threads
    );
    let output = match id {
        "table1" => table1(),
        "fig2a" => fig2a(cfg).to_tsv(),
        "fig2b" => fig2b(cfg).to_tsv(),
        "fig3a" => fig3(cfg, true).to_tsv(),
        "fig3b" => fig3(cfg, false).to_tsv(),
        "fig4a" => fig4a(cfg).to_tsv(),
        "fig4b" => fig4b(cfg).to_tsv(),
        "fig5a" => fig5(cfg, false).to_tsv(),
        "fig5b" => fig5(cfg, true).to_tsv(),
        "fig6" => fig6(cfg).to_tsv(),
        "fig7a" => fig7(cfg, false).to_tsv(),
        "fig7b" => fig7(cfg, true).to_tsv(),
        "fig8a" => fig8a(cfg).to_tsv(),
        "fig8b" => fig8b(cfg).to_tsv(),
        "fig10" => fig10(cfg),
        "fig11a" => fig11(cfg, false).to_tsv(),
        "fig11b" => fig11(cfg, true).to_tsv(),
        "ablation_block" => ablation_block(cfg).to_tsv(),
        "ablation_batch" => {
            let points = ablation_batch_points(cfg);
            if cfg.json {
                let block = batch_points_block(cfg, &points);
                write_hotpath_json("ablation_batch", &block, points.len());
            }
            batch_points_figure(&points).to_tsv()
        }
        "ablation_probe" => {
            let points = ablation_probe_points(cfg);
            if cfg.json {
                let block = probe_points_block(cfg, &points);
                write_hotpath_json("ablation_probe", &block, points.len());
            }
            probe_points_figure(&points).to_tsv()
        }
        "scaling" => {
            let points = scaling_points(cfg);
            if cfg.json {
                let block = scaling_points_block(cfg, &points);
                write_hotpath_json("scaling", &block, points.len());
            }
            scaling_figure(&points).to_tsv()
        }
        "wordcount" => {
            let points = wordcount_points(cfg);
            if cfg.json {
                let block = wordcount_points_block(cfg, &points);
                write_hotpath_json("wordcount", &block, points.len());
            }
            wordcount_figure(&points).to_tsv()
        }
        "typed" => {
            let points = typed_points(cfg);
            if cfg.json {
                let block = typed_points_block(cfg, &points);
                write_hotpath_json("typed", &block, points.len());
            }
            typed_figure(&points).to_tsv()
        }
        "latency" => {
            let points = latency_points(cfg);
            if cfg.json {
                let block = latency_points_block(cfg, &points);
                write_hotpath_json("latency", &block, points.len());
            }
            latency_figure(&points).to_tsv()
        }
        other => {
            eprintln!("[figure] unknown figure id `{other}`");
            eprintln!("[figure] valid ids: {} (or `all`)", FIGURE_IDS.join(", "));
            std::process::exit(2);
        }
    };
    println!("{output}");
}

fn main() {
    let (ids, cfg) = parse_args();
    for id in &ids {
        if id == "all" {
            for id in FIGURE_IDS {
                run(id, &cfg);
            }
        } else {
            run(id, &cfg);
        }
    }
}
