//! The design-space autotuner.
//!
//! Searches backend family × family parameters × L2 latency × ISA
//! variant per workload, scores every visited point on simulated
//! cycles, estimated energy and register-file area, and writes the
//! non-dominated Pareto frontier as `BENCH_tune.json` (schema
//! `mom3d-tune/v1` — no wall-clock fields, so same-seed runs are
//! byte-identical):
//!
//! ```text
//! mom3d-tune [SEED] [--tune-seed N] [--budget N] [--smoke] [--small]
//!            [--threads N] [--json PATH] [--backend ID]
//!            [--params K=V,...] [--cache-dir PATH]
//!            [--coordinator ADDR]
//! ```
//!
//! Defaults: seed 7, full geometry, budget 60 per `(workload, family)`,
//! every non-ideal registered backend, L2 latencies 20/40/60. `--smoke`
//! is the CI configuration (reduced geometry, budget 12). `--backend`
//! restricts the search to one family and `--params` overrides that
//! family's baseline design point (malformed values warn on stderr and
//! fall back to the defaults — the run never dies on a typo).
//! `--coordinator` evaluates on a resident `mom3d-serve` process (an
//! address containing `/` is a unix socket path, else `host:port`)
//! after verifying the server runs the same seed and geometry.

use mom3d_bench::cli::{parse_or_exit, parse_tune_args, TUNE_USAGE};
use mom3d_bench::tune::{tune, Executor, TuneReport};
use mom3d_bench::Runner;

fn main() {
    let args = parse_or_exit(parse_tune_args, TUNE_USAGE);
    let cfg = args.tune_config();
    let report: Result<TuneReport, String> = match &args.coordinator {
        Some(endpoint) => match Executor::connect(endpoint, cfg.seed, cfg.small) {
            Ok(mut exec) => {
                println!("tuning via {}", exec.describe());
                tune(&cfg, &mut exec)
            }
            Err(e) => Err(e),
        },
        None => {
            let mut runner =
                if cfg.small { Runner::small(cfg.seed) } else { Runner::new(cfg.seed) }
                    .with_cache(args.cache());
            let mut exec = Executor::Local { runner: &mut runner, threads: args.threads() };
            println!("tuning via {}", exec.describe());
            tune(&cfg, &mut exec)
        }
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: tuning failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.frontier_table());
    let path = args.json_path();
    if let Err(e) = report.write_json(&path) {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", path.display());
}
