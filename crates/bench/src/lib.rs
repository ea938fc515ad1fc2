//! # mom3d-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. One
//! binary per job:
//!
//! | Binary | Job |
//! |--------|-----|
//! | `all` | every paper output in paper order: Table 2, Figures 3, 6 and 7, Tables 1 and 3, Figures 9 and 10, Table 4, Figure 11 |
//! | `ablation` | beyond-paper ablations + a registry-driven sweep of every memory backend |
//! | `mom3d-serve` | the resident simulation server |
//! | `mom3d-load` | seeded, bit-checked load against a server |
//! | `mom3d-shard` | a sweep partitioned over worker processes |
//! | `mom3d-shard-worker` | one worker of a sharded sweep |
//! | `mom3d-tune` | the design-space autotuner |
//!
//! Every binary except `mom3d-load` and `mom3d-shard-worker` accepts an
//! optional seed argument (`cargo run -p mom3d-bench --bin all -- 42`);
//! a worker takes its seed from the coordinator's grant. All of them
//! parse their command line through [`cli`], so a mistyped flag exits
//! with status 2 and the usage line. Flags are the only settings; no
//! environment variable stands in for one. Workloads are verified
//! against their scalar references before being timed, so the harness
//! can only report numbers produced by functionally correct traces.
//!
//! Cold starts are cacheable across invocations: with `--cache-dir
//! PATH`, built-and-verified workloads are persisted as versioned
//! binary images and later invocations load them instead of rebuilding
//! ([`WorkloadCache`], [`Runner`]'s `load_or_build`). Corrupt or stale
//! images always fall back to a rebuild. On a cache miss the cold path
//! itself is parallel: each worker of the sweep's per-trace task queue
//! builds and verifies the trace it claims, then simulates on it
//! ([`sweep::run`], [`sweep::prebuild_workloads`]).
//!
//! Every cell of the experiment matrix is an independent simulation, so
//! `all` fills the [`Runner`] cache through the parallel [`sweep`]
//! engine (worker count: `--threads`, default all cores) and only then
//! formats its reports; it also writes the machine-readable
//! `BENCH_sweep.json` with wall-clock per cell (path: `--json`).
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
//! [`protocol`] ([`shard`]). The coordinator is the same cell service
//! as `mom3d-serve`, run with no local threads, so both answer one
//! dialect and a worker can attach to either. Completed cells are
//! journaled to a durable, checksummed [`manifest`], so a run killed at
//! any point — SIGKILL included — resumes without re-simulating
//! finished cells, and the merged report is bit-identical to a
//! single-process sweep.
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

