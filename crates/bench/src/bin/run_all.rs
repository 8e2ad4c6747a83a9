//! Runs every table/figure harness plus the ablations, the CC-workload
//! search and the iterative feedback search in one process, printing each
//! report (the source for EXPERIMENTS.md).
//!
//! Experiments are independent, so they fan out through a `nada-exec`
//! work pool of their own, with a small width — each experiment already
//! parallelizes its training runs internally (on the process-wide pool),
//! so a few concurrent experiments saturate the machine without
//! oversubscribing it.

use nada_bench::experiments as exp;
use std::time::Instant;

/// Concurrent experiments (each fans out its own training runs).
const EXPERIMENT_WORKERS: usize = 2;

/// One named experiment entry point.
type Experiment = (&'static str, fn(&nada_bench::cli::HarnessOptions) -> String);

fn main() {
    let opts = nada_bench::cli::parse_args(std::env::args());
    let runs: Vec<Experiment> = vec![
        ("table1", exp::table1::run),
        ("table2", exp::table2::run),
        ("table3", exp::table3::run),
        ("figure3", exp::figure3::run),
        ("figure4", exp::figure4::run),
        ("table4", exp::table4::run),
        ("table5", exp::table5::run),
        ("figure5", exp::figure5::run),
        ("ablations", exp::ablations::run),
        ("cc_search", exp::cc_search::run),
        ("stress", exp::stress::run),
        // The feedback loop needs at least two rounds to feed anything
        // back; a plain `run_all` must still showcase it.
        ("iterate", |opts| {
            let mut opts = opts.clone();
            opts.rounds = opts.rounds.max(2);
            exp::iterate::run(&opts)
        }),
    ];
    let t0 = Instant::now();
    let reports = nada_exec::WorkPool::new(EXPERIMENT_WORKERS).map(runs, &|(name, run)| {
        let started = Instant::now();
        // Isolate per-experiment panics so one broken harness cannot
        // discard every other finished report, and note completions on
        // stderr as they happen (stdout keeps the deterministic order).
        let report = std::panic::catch_unwind(|| run(&opts))
            .unwrap_or_else(|_| format!("== {name}: PANICKED (see stderr) =="));
        eprintln!("[{name} finished in {:?}]", started.elapsed());
        (name, report, started.elapsed())
    });
    for (name, report, took) in reports {
        println!("{report}");
        println!("[{name} completed in {took:?}]\n");
    }
    println!("[run_all completed in {:?}]", t0.elapsed());
}
