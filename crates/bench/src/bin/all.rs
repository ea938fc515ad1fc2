//! Runs the complete experiment matrix in paper order — the run behind
//! the committed `RESULTS.md` paper-fidelity record, and the one binary
//! that prints the paper's outputs: Table 2, Figures 3, 6 and 7,
//! Tables 1 and 3, Figures 9 and 10, Table 4 and Figure 11, each block
//! separated by one blank line.
//!
//! The whole matrix is simulated up front by the parallel sweep engine;
//! the figure and table formatters below then read the pre-filled
//! cache. A machine-readable report with wall-clock per cell is written
//! to `BENCH_sweep.json`.
//!
//! ```text
//! all [SEED] [--threads N] [--json PATH] [--all-backends] [--small] [--cache-dir PATH]
//! ```
//!
//! `--threads` sets the sweep's worker count (default: every core) and
//! `--json` the report path; `--all-backends` extends
//! the sweep to every backend in the memory-backend registry and
//! appends the registry-driven backend matrix to the report;
//! `--small` sweeps the reduced integration-test geometry (a fast
//! whole-pipeline smoke, e.g. for CI checks of the JSON schema);
//! `--cache-dir` enables the
//! cross-invocation workload-image cache, so a warm start skips every
//! workload build+verify — the hit/miss counters are printed on stderr
//! and embedded in the JSON report.

use mom3d_bench::cli::{parse_all_args, parse_or_exit, ALL_USAGE};
use mom3d_bench::{
    backend_matrix, fig10, fig11, fig3, fig6, fig7, fig9, sweep, table1, table2, table3, table4,
    Runner,
};

fn main() {
    let args = parse_or_exit(parse_all_args, ALL_USAGE);
    let seed = args.seed();
    let mut r = if args.small { Runner::small(seed) } else { Runner::new(seed) };
    r = r.with_cache(args.cache());
    println!("mom3d full experiment matrix (seed {seed})");
    println!("=========================================\n");

    // The grid covers every (workload, variant) pair table1 needs, so
    // the sweep's task queue builds every workload once.
    let grid = if args.all_backends { sweep::extended_grid() } else { sweep::full_grid() };
    let report = sweep::run(&mut r, &grid, args.threads());
    eprintln!(
        "sweep: {} cells ({} simulated) on {} threads in {:.2?}",
        report.cells.len(),
        report.fresh_cells(),
        report.threads,
        report.wall
    );
    if let Some(cache) = r.cache() {
        let stats = cache.stats();
        eprintln!(
            "workload cache: {} hits, {} misses, {} rejected (dir {})",
            stats.hits,
            stats.misses,
            stats.rejected,
            cache.dir().display()
        );
    }

    print!("{}", table2());
    println!();
    print!("{}", fig3(&mut r));
    println!();
    print!("{}", fig6(&mut r));
    println!();
    print!("{}", fig7(&mut r));
    println!();
    print!("{}", table1(&mut r));
    println!();
    print!("{}", table3());
    println!();
    print!("{}", fig9(&mut r));
    println!();
    print!("{}", fig10(&mut r));
    println!();
    print!("{}", table4(&mut r));
    println!();
    print!("{}", fig11(&mut r));
    if args.all_backends {
        println!();
        print!("{}", backend_matrix(&mut r));
    }

    let path = args.json_path();
    match report.write_json(&path) {
        Ok(()) => eprintln!("sweep report written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
