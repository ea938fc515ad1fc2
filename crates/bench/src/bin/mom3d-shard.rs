//! The distributed-sweep coordinator.
//!
//! Partitions a sweep grid over `mom3d-shard-worker` processes,
//! journals completed cells to a durable manifest for crash-resume, and
//! writes the merged schema-v5 `BENCH_sweep.json` — bit-identical (per
//! cell) to a single-process `all` run over the same grid:
//!
//! ```text
//! mom3d-shard [SEED] [--workers N] [--batch N]
//!             [--grid full|extended] [--small] [--manifest PATH]
//!             [--resume] [--json PATH] [--cache-dir PATH]
//!             [--tcp ADDR | --unix PATH]
//!             [--chaos-seed N] [--chaos-profile P]
//! ```
//!
//! Defaults: seed 7, 2 workers, the paper's full grid, `--tcp
//! 127.0.0.1:0` (kernel-assigned port). `--resume` requires
//! `--manifest` and replays its completed cells instead of
//! re-simulating them. `--workers 0` spawns nothing and serves
//! externally-launched workers only.
//!
//! `--chaos-seed`/`--chaos-profile` wrap every accepted worker
//! connection in the deterministic fault injector
//! (`mom3d_bench::faults`). Either flag defaults the other (seed 1,
//! profile `mixed`).
//!
//! A readiness line (`listening on …`) and one `spawned worker N
//! (pid P)` line per worker are printed to stdout — the kill-resume
//! tests and CI parse the pids to SIGKILL a worker mid-run.

use mom3d_bench::cli::{parse_or_exit, parse_shard_args, SHARD_USAGE};
use mom3d_bench::shard::coordinate;
use mom3d_bench::sweep;

fn main() {
    let args = parse_or_exit(parse_shard_args, SHARD_USAGE);
    let grid = if args.extended { sweep::extended_grid() } else { sweep::full_grid() };
    let report = match coordinate(args.endpoint(), &grid, &args.config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: sharded sweep failed: {e}");
            std::process::exit(1);
        }
    };
    let sharding = report.sharding.as_ref().expect("coordinate fills the sharding block");
    println!(
        "swept {} cells ({} fresh, {} resumed) over {} worker(s), {} steal(s), in {:?}",
        report.cells.len(),
        report.fresh_cells(),
        sharding.resumed_cells,
        sharding.workers.len(),
        sharding.steals,
        report.wall
    );
    for w in &sharding.workers {
        println!(
            "  worker {}: {} cell(s), p50 {} ns, p99 {} ns",
            w.id, w.cells, w.cell_ns.p50, w.cell_ns.p99
        );
    }
    let path = args.json_path();
    if let Err(e) = report.write_json(&path) {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}
