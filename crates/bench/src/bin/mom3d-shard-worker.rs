//! One distributed-sweep worker process.
//!
//! A plain protocol client of the `mom3d-shard` coordinator: claims
//! cell batches, hydrates workloads from the shared image cache,
//! simulates over the standard `Runner`/sweep paths and streams every
//! result back, until the coordinator grants an empty batch:
//!
//! ```text
//! mom3d-shard-worker (--tcp ADDR | --unix PATH) [--id N]
//!                    [--cache-dir PATH] [--abort-after N]
//! ```
//!
//! Everything else (seed, geometry, which cells) comes over the wire in
//! the grant. `--abort-after N` is fault injection for the kill-resume
//! tests: the worker drops its connection and exits mid-shard after N
//! cells, like a crash.

use mom3d_bench::cli::{parse_or_exit, parse_shard_worker_args, SHARD_WORKER_USAGE};
use mom3d_bench::shard::run_worker;

fn main() {
    let args = parse_or_exit(parse_shard_worker_args, SHARD_WORKER_USAGE);
    match run_worker(&args.endpoint, &args.config) {
        Ok(summary) => {
            eprintln!(
                "mom3d-shard-worker {}: {} cell(s) over {} grant(s), bye",
                args.config.id, summary.cells, summary.grants
            );
        }
        Err(e) => {
            eprintln!("error: worker {} failed: {e}", args.config.id);
            std::process::exit(1);
        }
    }
}
