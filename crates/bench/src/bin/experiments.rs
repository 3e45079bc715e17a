//! The Lethe experiment harness: one subcommand per figure/table of the
//! paper's evaluation (SIGMOD 2020, §5).
//!
//! ```text
//! cargo run -p lethe-bench --release --bin experiments -- <experiment> [--ops N] [--entries N] [--lookups N]
//!
//! experiments:
//!   fig6a   space amplification vs %deletes
//!   fig6b   #compactions vs %deletes
//!   fig6c   total data written vs %deletes
//!   fig6d   read throughput vs %deletes
//!   fig6e   tombstone age distribution
//!   fig6f   normalized bytes written over time
//!   fig6g   latency vs data size
//!   fig6h   % full page drops vs delete selectivity
//!   fig6i   lookup cost vs delete-tile granularity
//!   fig6j   avg I/Os per operation vs selectivity
//!   fig6k   CPU vs I/O time trade-off
//!   fig6l   sort/delete key correlation
//!   fig1    qualitative comparison (radar chart, quantified)
//!   table2  analytical cost model
//!   all     run everything at the default scale
//! ```
//!
//! All experiments run on stores built in memory — the same device, WAL and
//! manifest as on disk, on a `MemVfs` — with the paper's latency constants
//! (100 µs/page I/O, 80 ns/hash) applied to the counted I/O, so they
//! regenerate the *shape* of every figure in seconds; pass larger
//! `--ops`/`--entries` to scale up.

use lethe_bench::figures::{delete_sweep, kiwi, summary};

struct Args {
    experiment: String,
    ops: u64,
    entries: u64,
    lookups: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        ops: 60_000,
        entries: 40_000,
        lookups: 3_000,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--ops" => args.ops = iter.next().and_then(|v| v.parse().ok()).unwrap_or(args.ops),
            "--entries" => {
                args.entries = iter.next().and_then(|v| v.parse().ok()).unwrap_or(args.entries)
            }
            "--lookups" => {
                args.lookups = iter.next().and_then(|v| v.parse().ok()).unwrap_or(args.lookups)
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if args.experiment.is_empty() => args.experiment = other.to_string(),
            other => {
                eprintln!("unrecognised argument: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    if args.experiment.is_empty() {
        args.experiment = "all".to_string();
    }
    args
}

fn print_usage() {
    eprintln!(
        "usage: experiments <fig6a|fig6b|fig6c|fig6d|fig6e|fig6f|fig6g|fig6h|fig6i|fig6j|fig6k|fig6l|fig1|table2|all> \
         [--ops N] [--entries N] [--lookups N]"
    );
}

fn run(experiment: &str, args: &Args) -> bool {
    match experiment {
        "fig6a" => delete_sweep::fig6a(args.ops, args.lookups),
        "fig6b" => delete_sweep::fig6b(args.ops, args.lookups),
        "fig6c" => delete_sweep::fig6c(args.ops, args.lookups),
        "fig6d" => delete_sweep::fig6d(args.ops, args.lookups),
        "fig6e" => delete_sweep::fig6e(args.ops),
        "fig6f" => delete_sweep::fig6f(args.ops),
        "fig6g" => delete_sweep::fig6g(args.ops),
        "fig6h" => kiwi::fig6h(args.entries),
        "fig6i" => kiwi::fig6i(args.entries, args.lookups),
        "fig6j" => kiwi::fig6j(args.entries / 2, args.lookups.min(2_000)),
        "fig6k" => kiwi::fig6k(args.entries, args.ops.min(30_000)),
        "fig6l" => kiwi::fig6l(args.entries / 2, 200),
        "fig1" => summary::fig1(args.ops, args.lookups),
        "table2" => summary::print_table2(),
        _ => return false,
    }
    true
}

fn main() {
    let args = parse_args();
    let start = std::time::Instant::now();
    if args.experiment == "all" {
        for exp in [
            "table2", "fig1", "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "fig6g",
            "fig6h", "fig6i", "fig6j", "fig6k", "fig6l",
        ] {
            eprintln!("\n=== running {exp} ===");
            run(exp, &args);
        }
    } else if !run(&args.experiment, &args) {
        eprintln!("unknown experiment: {}", args.experiment);
        print_usage();
        std::process::exit(2);
    }
    eprintln!("\n(completed in {:.1?})", start.elapsed());
}
