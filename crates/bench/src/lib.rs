//! # mom3d-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Binary | Paper result |
//! |--------|--------------|
//! | `fig3` | slowdown of realistic memory systems (MOM) |
//! | `fig6` | effective memory bandwidth (words/access) |
//! | `fig7` | vector-cache traffic reduction from 3D reuse |
//! | `fig9` | slowdown across ISA × memory-system configurations |
//! | `fig10` | normalized execution time vs. L2 latency (20/40/60) |
//! | `fig11` | L2 + 3D-RF average power per memory system |
//! | `table1` | per-dimension vector lengths of memory instructions |
//! | `table2` | processor configurations |
//! | `table3` | register-file areas (exact reproduction) |
//! | `table4` | L2 cache activity |
//! | `all` | everything above in paper order |
//! | `ablation` | beyond-paper ablations + a registry-driven sweep of every memory backend |
//!
//! Every binary accepts an optional seed argument
//! (`cargo run -p mom3d-bench --bin fig9 -- 42`). Workloads are verified
//! against their scalar references before being timed, so the harness
//! can only report numbers produced by functionally correct traces.
//!
//! Cold starts are cacheable across invocations: with `--cache-dir
//! PATH` (or `MOM3D_WORKLOAD_CACHE`), built-and-verified workloads are
//! persisted as versioned binary images and later invocations load
//! them instead of rebuilding ([`WorkloadCache`], [`Runner`]'s
//! `load_or_build`). Corrupt or stale images always fall back to a
//! rebuild. On a cache miss the cold path itself is pipelined: workload
//! builds and their emulator verify runs fan out as separate work items
//! over the sweep worker pool ([`sweep::prebuild_workloads`]).
//!
//! Every cell of the experiment matrix is an independent simulation, so
//! the binaries fill the [`Runner`] cache through the parallel [`sweep`]
//! engine (worker count: `--threads` on `all`, else
//! `MOM3D_SWEEP_THREADS`, default all cores) and only then format their
//! reports; `all` additionally writes the machine-readable
//! `BENCH_sweep.json` with wall-clock per cell (`--json`/
//! `MOM3D_SWEEP_JSON`).
//!
//! Memory systems are open-ended: cells are keyed by
//! [`mom3d_cpu::BackendId`], so any backend in the
//! [`mom3d_cpu::BackendRegistry`] can be swept. `all --all-backends`
//! extends the paper grid to every registered backend
//! ([`sweep::extended_grid`]) and prints the registry-driven
//! [`backend_matrix`] comparison.
//!
//! The harness is also servable: `mom3d-serve` keeps one [`Runner`],
//! the verified workloads and the `SimKey → Metrics` memo table
//! resident in a long-lived process and answers simulation requests
//! over a length-prefixed binary [`protocol`] (TCP or unix sockets),
//! deduplicating identical in-flight cells ([`memo`]) and streaming
//! sweep results as they complete ([`serve`]); `mom3d-load` replays
//! thousands of concurrent mixed requests against it, verifies every
//! reply bit-for-bit against in-process execution and writes
//! `BENCH_serve.json` with p50/p99 latency and requests/sec
//! ([`load`]).
//!
//! The design space is searchable: `mom3d-tune` explores backend
//! family × family parameters × L2 latency × ISA variant per workload
//! ([`tune`]) — exhaustively when a family's space fits the budget,
//! otherwise by deterministic seeded hill-climbing with restarts —
//! scoring every point on cycles, a capacitance-model energy estimate
//! and register-file area at once, and writes the non-dominated Pareto
//! frontier as `BENCH_tune.json` (schema `mom3d-tune/v1`, free of
//! wall-clock fields so same-seed runs are byte-identical). Evaluations
//! run through the local [`sweep`] engine or, with `--coordinator`, a
//! resident `mom3d-serve` process.
//!
//! Sweeps also scale out across processes: `mom3d-shard` partitions a
//! grid over worker processes that hydrate workloads from the shared
//! on-disk cache and stream per-cell metrics back over the same frame
//! [`protocol`] ([`shard`]). Completed cells are journaled to a
//! durable, checksummed [`manifest`], so a run killed at any point —
//! SIGKILL included — resumes without re-simulating finished cells,
//! and the merged report is bit-identical to a single-process sweep.
//!
//! The whole distributed stack is hostile-tested: [`faults`] is a
//! deterministic, seeded chaos layer (an in-process proxy plus stream
//! and file shims, reachable via `--chaos-seed`/`--chaos-profile` on
//! the server binaries) that drops, delays, stalls, truncates,
//! bit-flips and black-holes traffic from a SplitMix64 schedule, and
//! the stack survives it by construction: deadlines on every socket, a
//! retrying client with seeded backoff ([`protocol::RetryClient`]),
//! grant leases in the shard coordinator, and backpressure with typed
//! `ERR_OVERLOADED` shedding in the server — always bit-identical
//! metrics or a typed error, never a wrong answer, never a hang.
//!
//! **Place in the dataflow**: the top of the stack — the only crate
//! that depends on everything. It owns the experiment loop
//! (build → verify → time → report), the in-memory [`Runner`] cache,
//! the on-disk [`WorkloadCache`], the parallel [`sweep`] engine and
//! the resident simulation server; the committed `RESULTS.md`
//! paper-fidelity record is produced by its `all` binary.

mod cache;
pub mod cli;
pub mod faults;
pub mod json;
pub mod load;
pub mod manifest;
pub mod memo;
pub mod protocol;
mod report;
mod runner;
pub mod serve;
mod server;
pub mod shard;
pub mod stats;
pub mod sweep;
pub mod tune;

pub use cache::{CacheStats, WorkloadCache};
pub use report::{
    backend_matrix, fig10, fig11, fig3, fig6, fig7, fig9, table1, table2, table3, table4, Fig10,
    Fig11, SlowdownReport, Table1, Table4, TrafficReport,
};
pub use runner::{Runner, SimKey, WorkloadTiming};

/// The standard entry point of the figure/table binaries: parses the
/// shared `[SEED] [--cache-dir PATH]` grammar from [`std::env::args`]
/// and returns a full-geometry [`Runner`] with the workload-image cache
/// resolved (flag, else `MOM3D_WORKLOAD_CACHE`, else none). Prints
/// usage and exits with status 2 on a parse error.
pub fn runner_from_args() -> Runner {
    match cli::parse_common_args(std::env::args().skip(1)) {
        Ok(args) => Runner::new(args.seed()).with_cache(args.cache()),
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::COMMON_USAGE);
            std::process::exit(2);
        }
    }
}
