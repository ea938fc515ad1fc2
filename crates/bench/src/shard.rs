//! Distributed sharded sweeps: the coordinator and the pull-based
//! worker that scale the [`crate::sweep`] engine across processes with
//! crash-resume.
//!
//! The **coordinator** ([`coordinate`]) is the cell service of
//! [`crate::serve`] with no local threads: it binds an [`Endpoint`],
//! claims the whole grid onto the service's work queue, optionally
//! spawns and supervises `mom3d-shard-worker` child processes, and
//! returns once every cell is published. Each **worker**
//! ([`run_worker`]) is a plain protocol client of that service — of a
//! coordinator or of a resident `mom3d-serve` alike: it claims a batch
//! (`SHARD_CLAIM` → `SHARD_GRANT`), hydrates workloads from the shared
//! on-disk image cache, simulates over the existing
//! [`crate::Runner`]/[`crate::sweep`] paths, streams every result back
//! (`CELL_DONE`, fire-and-forget) and closes the batch with
//! `SHARD_FIN`. The grant carries the seed and geometry, so a worker
//! needs no configuration beyond the service's address — the wire
//! protocol is what a multi-machine deployment would speak.
//!
//! Correctness invariants, pinned by `tests/shard_determinism.rs` and
//! `crates/bench/tests/shard.rs`:
//!
//! * **Bit-identity.** Every cell is a pure deterministic simulation
//!   keyed by [`SimKey`], so the merged [`SweepReport`] is bit-identical
//!   to a single-process [`sweep::run`] regardless of worker count,
//!   scheduling, steals or crashes.
//! * **Crash-resume.** Published cells are journaled to a durable
//!   checksummed [`crate::manifest`]; a killed run resumes with those
//!   cells replayed (`reused: true`, counted in
//!   [`Sharding::resumed_cells`]) and never re-simulated.
//! * **First publish wins.** Work stealing, lease expiry and worker
//!   crashes can put one cell in flight twice; the first `CELL_DONE` is
//!   published to the service's memo table (and journaled), later
//!   duplicates are counted and dropped.
//! * **Failure containment.** A worker that dies mid-shard only
//!   returns its outstanding cells to the queue (and is respawned, with
//!   a bounded budget, when the coordinator owns the process); a
//!   stalled one loses its grant when the lease expires
//!   ([`ShardConfig::lease`]). Frame damage costs one connection after
//!   an [`ERR_PROTOCOL`](crate::protocol::ERR_PROTOCOL) reply. Workers
//!   reconnect with seeded backoff ([`crate::faults::Backoff`]) after
//!   any typed error and re-claim; first-publish-wins makes the overlap
//!   harmless.

use crate::faults::{Backoff, ChaosConfig};
use crate::manifest::{self, Manifest};
use crate::protocol::{Client, Endpoint, Hello, Request, Response, MAX_SWEEP_CELLS};
use crate::runner::{simulate_prepared, Runner, SimKey, WorkloadTiming};
use crate::serve::{CellService, ServerHandle, DEFAULT_LEASE};
use crate::server::{self, Core};
use crate::stats;
use crate::sweep::{self, CellResult, Sharding, SweepReport, WorkerStats};
use crate::WorkloadCache;
use mom3d_cpu::PreparedTrace;
use mom3d_kernels::{IsaVariant, WorkloadKind};
use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Crashed-worker respawn budget per worker slot.
const RESPAWN_LIMIT: u32 = 5;

/// Bound on consecutive reconnect-and-no-progress sessions before a
/// worker gives up (guards against retry-looping at a dead or
/// perpetually hostile service).
const WORKER_SESSION_STRIKES: u32 = 20;

/// How a [`coordinate`] run is configured.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Workload data seed (rides along in every grant).
    pub seed: u64,
    /// Sweep reduced-geometry workloads.
    pub small: bool,
    /// Worker **processes** to spawn and supervise. `0` = spawn none
    /// and serve externally-launched workers only (how the in-process
    /// tests drive [`run_worker`] threads).
    pub workers: usize,
    /// `--threads` passed to each spawned worker (0 = worker default:
    /// all cores).
    pub worker_threads: usize,
    /// Cells per grant (0 = auto: about four grants per worker, so
    /// stragglers leave stealable tails without per-cell claim
    /// round-trips).
    pub batch: usize,
    /// Durable manifest path for crash-resume journaling (`None` = no
    /// journal).
    pub manifest: Option<PathBuf>,
    /// Resume from an existing manifest instead of truncating it.
    pub resume: bool,
    /// Workload-image cache directory passed to spawned workers (the
    /// shared hydration source).
    pub cache_dir: Option<PathBuf>,
    /// Grant lease (`DEFAULT_LEASE` when zero): a worker connection
    /// that stops claiming/completing for this long has its granted
    /// cells requeued, so a stalled-but-alive worker cannot wedge the
    /// sweep. Claims and `CELL_DONE`s are the heartbeats.
    pub lease: Duration,
    /// Coordinator-side fault injection: wrap every accepted worker
    /// connection in a seeded [`ChaosStream`](crate::faults::ChaosStream)
    /// (lane = connection ordinal).
    pub chaos: Option<ChaosConfig>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            seed: 7,
            small: false,
            workers: 2,
            worker_threads: 0,
            batch: 0,
            manifest: None,
            resume: false,
            cache_dir: None,
            lease: Duration::ZERO,
            chaos: None,
        }
    }
}

fn effective_batch(requested: usize, fresh: usize, workers: usize) -> usize {
    let batch = if requested > 0 {
        requested
    } else {
        let grants = workers.max(2) * 4;
        fresh.div_ceil(grants)
    };
    batch.clamp(1, MAX_SWEEP_CELLS as usize)
}

/// One supervised worker process slot.
struct ChildSlot {
    id: u32,
    child: Option<Child>,
    respawns: u32,
}

fn spawn_worker(endpoint: &Endpoint, id: u32, config: &ShardConfig) -> io::Result<Child> {
    let exe = std::env::current_exe()?.with_file_name("mom3d-shard-worker");
    let mut cmd = Command::new(exe);
    match endpoint {
        Endpoint::Tcp(addr) => cmd.arg("--tcp").arg(addr),
        Endpoint::Unix(path) => cmd.arg("--unix").arg(path),
    };
    cmd.arg("--id").arg(id.to_string());
    if config.worker_threads > 0 {
        cmd.arg("--threads").arg(config.worker_threads.to_string());
    }
    if let Some(dir) = &config.cache_dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    cmd.spawn()
}

/// Cells of `grid` not yet published.
fn unfinished(state: &CellService, grid: &[SimKey]) -> usize {
    grid.iter().filter(|key| state.memo.peek(key).is_none()).count()
}

/// Runs until the grid is complete: polls for crashed worker processes
/// and respawns each (bounded by [`RESPAWN_LIMIT`]) while work remains.
///
/// With no owned workers (`children` empty), externally-launched
/// workers are trusted to finish the sweep and this only waits — until
/// a client's `SHUTDOWN` ends the run early.
fn supervise(
    state: &CellService,
    grid: &[SimKey],
    children: &mut [ChildSlot],
    config: &ShardConfig,
) -> io::Result<()> {
    loop {
        {
            let q = state.lock();
            let left = unfinished(state, grid);
            if left == 0 {
                return Ok(());
            }
            if state.core.shutting_down() {
                return Err(io::Error::other(format!(
                    "shut down by a client with {left} of {} cell(s) unfinished",
                    grid.len()
                )));
            }
            drop(state.wait_tick(q));
        }
        for slot in children.iter_mut() {
            if let Some(child) = slot.child.as_mut() {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        slot.child = None;
                        if unfinished(state, grid) > 0 {
                            eprintln!(
                                "warning: worker {} exited ({status}) with work remaining",
                                slot.id
                            );
                        }
                    }
                    Ok(None) => {}
                    Err(e) => eprintln!("warning: polling worker {} failed: {e}", slot.id),
                }
            }
            if slot.child.is_none() && slot.respawns > 0 && unfinished(state, grid) > 0 {
                slot.respawns -= 1;
                match spawn_worker(&state.core.endpoint, slot.id, config) {
                    Ok(child) => {
                        println!("spawned worker {} (pid {})", slot.id, child.id());
                        slot.child = Some(child);
                    }
                    Err(e) => eprintln!("warning: respawning worker {} failed: {e}", slot.id),
                }
            }
        }
        if !children.is_empty()
            && children.iter().all(|s| s.child.is_none() && s.respawns == 0)
        {
            let left = unfinished(state, grid);
            if left == 0 {
                return Ok(());
            }
            return Err(io::Error::other(format!(
                "all {} worker slot(s) exhausted their respawn budget with {left} \
                 cell(s) unfinished",
                children.len()
            )));
        }
    }
}

/// Waits briefly for each worker process to exit on its own (it will,
/// after an empty grant), then kills what is left.
fn reap(children: &mut [ChildSlot]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for slot in children.iter_mut() {
        let Some(child) = slot.child.as_mut() else { continue };
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
        slot.child = None;
    }
}

/// Runs a distributed sweep of `grid` and blocks until it completes,
/// returning a report bit-identical (per cell) to [`sweep::run`] over
/// the same grid, with the schema-v5 [`Sharding`] block filled in.
///
/// Binds `endpoint` (a `:0` TCP port is resolved), prints a readiness
/// line and one `spawned worker N (pid P)` line per worker process to
/// stdout (both machine-parsed by the kill-resume tests and CI), then
/// serves the cell service until every cell of the grid is published.
/// Cells already in the manifest (with `resume`) are replayed, reported
/// `reused` with zero wall-clock, and never granted.
///
/// # Errors
///
/// Propagates bind/spawn/manifest-I/O failures, and reports a client's
/// `SHUTDOWN` before the grid completed or worker attrition the respawn
/// budget could not cover, naming the unfinished cell count.
pub fn coordinate(
    endpoint: Endpoint,
    grid: &[SimKey],
    config: &ShardConfig,
) -> io::Result<SweepReport> {
    let start = Instant::now();
    let unique = sweep::unique_cells(grid);
    let total = unique.len();

    let (manifest_handle, resumed) = match &config.manifest {
        Some(path) if config.resume => {
            let (m, r) = manifest::resume(path, config.seed, config.small, &unique)?;
            (Some(m), r.cells)
        }
        Some(path) => {
            (Some(Manifest::create(path, config.seed, config.small, &unique)?), Vec::new())
        }
        None => (None, Vec::new()),
    };
    let resumed_cells = resumed.len() as u64;

    let (listener, endpoint) = server::bind(endpoint)?;
    // Cap 0: the coordinator takes the default connection cap.
    let core = Core::new(endpoint.clone(), 0, config.chaos, None);
    let runner = if config.small { Runner::small(config.seed) } else { Runner::new(config.seed) };
    let hello = Hello { seed: config.seed, small: config.small, threads: 0 };
    let mut service = CellService::new(core, runner, hello);
    let fresh = service.preload(&unique, &resumed);
    service.batch = effective_batch(config.batch, fresh, config.workers);
    service.lease = if config.lease.is_zero() { DEFAULT_LEASE } else { config.lease };
    service.lock().manifest = manifest_handle;
    println!(
        "mom3d-shard listening on {endpoint}; {fresh} of {total} cell(s) to simulate \
         ({resumed_cells} resumed)"
    );
    let mut handle = ServerHandle::start(service, listener, 0);
    let state = Arc::clone(&handle.state);

    let mut children: Vec<ChildSlot> = (0..config.workers as u32)
        .map(|id| ChildSlot { id, child: None, respawns: RESPAWN_LIMIT })
        .collect();
    let mut result: io::Result<()> = Ok(());
    if total > 0 {
        for slot in &mut children {
            match spawn_worker(&endpoint, slot.id, config) {
                Ok(child) => {
                    println!("spawned worker {} (pid {})", slot.id, child.id());
                    slot.child = Some(child);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
    }
    if result.is_ok() {
        result = supervise(&state, &unique, &mut children, config);
    }

    // One shutdown path for success and failure: latch, wake parked
    // claims (they reply with empty grants) and the accept loop, reap
    // the worker processes, then join the service and drain the open
    // connections.
    state.begin_shutdown();
    reap(&mut children);
    handle.join();

    let q = state.lock();
    if q.duplicates > 0 {
        eprintln!(
            "note: {} duplicate result(s) dropped (work stealing / crash requeue overlap)",
            q.duplicates
        );
    }
    if q.lease_expiries > 0 {
        eprintln!(
            "note: {} grant lease(s) expired and were requeued (silent/stalled workers)",
            q.lease_expiries
        );
    }
    result?;

    let resumed_set: HashSet<SimKey> = resumed.iter().map(|&(k, _)| k).collect();
    let cells: Vec<CellResult> = unique
        .iter()
        .map(|&key| {
            let metrics = state.memo.peek(&key).expect("every cell is published");
            let reused = resumed_set.contains(&key);
            // Replayed cells cost nothing; workload build/verify happened
            // inside a worker process, so the phase breakdown is zero.
            let wall = if reused { 0 } else { q.walls.get(&key).copied().unwrap_or(0) };
            let (wall, workload) = (Duration::from_nanos(wall), WorkloadTiming::default());
            CellResult { key, metrics, wall, workload, reused }
        })
        .collect();
    let mut workers: Vec<WorkerStats> = q
        .workers
        .iter()
        .map(|(&id, acct)| WorkerStats {
            id,
            cells: acct.cells,
            wall: acct.last.duration_since(acct.first),
            cell_ns: stats::percentiles(&mut acct.walls.clone()),
        })
        .collect();
    workers.sort_by_key(|w| w.id);
    let threads = workers.len().max(1);
    let steals = q.steals;
    drop(q);

    Ok(SweepReport {
        seed: config.seed,
        small: config.small,
        threads,
        wall: start.elapsed(),
        workload_cache: None,
        sharding: Some(Sharding { workers, steals, resumed_cells }),
        cells,
    })
}

/// How one [`run_worker`] call is configured.
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Self-reported worker id (attributes the report's per-worker
    /// stats).
    pub id: u32,
    /// Prebuild worker threads (0 = all cores).
    pub threads: usize,
    /// Workload-image cache to hydrate workloads from.
    pub cache_dir: Option<PathBuf>,
    /// Fault injection: silently drop the connection and return after
    /// streaming this many `CELL_DONE`s in total — a crash simulator
    /// for the kill-resume tests (no `SHARD_FIN`, cells left granted).
    pub abort_after: Option<usize>,
    /// Fault injection: after streaming this many `CELL_DONE`s in
    /// total, go silent for [`WorkerConfig::stall_for`] with the
    /// connection **open** — a stalled-not-dead worker. The
    /// service's grant lease must requeue the rest of the grant.
    pub stall_after: Option<usize>,
    /// How long a [`WorkerConfig::stall_after`] stall lasts before the
    /// worker retires.
    pub stall_for: Duration,
    /// Client-side fault injection: wrap every dialed connection in a
    /// seeded [`ChaosStream`](crate::faults::ChaosStream) (lane = dial
    /// ordinal).
    pub chaos: Option<ChaosConfig>,
}

/// What a worker did, for logging and test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Cells simulated and streamed back.
    pub cells: u64,
    /// Grants processed.
    pub grants: u64,
}

/// Per-frame I/O deadline a worker arms on every dialed connection.
const WORKER_IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Dials the service, retrying up to `attempts` (50 ms apart), and
/// arms deadlines (plus the configured chaos wrap) on the connection.
fn dial(
    endpoint: &Endpoint,
    config: &WorkerConfig,
    conn_seq: &mut u64,
    attempts: u32,
) -> io::Result<Client> {
    let mut last: Option<io::Error> = None;
    for _ in 0..attempts {
        match Client::dial(endpoint, config.chaos.as_ref(), conn_seq, Some(WORKER_IO_TIMEOUT)) {
            Ok(client) => return Ok(client),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(last
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "connect retries exhausted")))
}

fn unexpected(context: &str, resp: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected service reply to {context}: {resp:?}"),
    )
}

/// Runs one shard worker to completion: claim, hydrate, simulate,
/// stream, repeat — until the service (a coordinator or a resident
/// `mom3d-serve`) grants an empty batch at shutdown.
///
/// The [`Runner`] is built lazily from the first grant's seed and
/// geometry (the worker itself needs no sweep configuration) and kept
/// for the whole session, so workloads and metrics stay memoized across
/// grants. Workload builds go through [`sweep::prebuild_workloads`] and
/// the image cache in `config.cache_dir`, the same cold path as every
/// other harness entry point. The service queues the grid trace by
/// trace, so a grant's cells of one trace are adjacent; each such run
/// simulates on one shared [`PreparedTrace`], as [`sweep::run`] does,
/// and still streams a `CELL_DONE` per cell.
///
/// **Fault discipline**: any mid-session transport or framing failure
/// (reset, bit-flipped frame, expired deadline, any typed error)
/// drops the connection, sleeps one seeded-backoff rung and redials —
/// the service requeues the abandoned grant and re-grants on the
/// next claim, and first-publish-wins makes any re-simulation
/// harmless. A redial that finds nobody listening is how service
/// normally ends: results are fire-and-forget and already delivered,
/// so the worker just retires. Reconnect loops without progress are
/// bounded by `WORKER_SESSION_STRIKES`.
///
/// # Errors
///
/// Propagates first-connect failures and strike-budget exhaustion.
pub fn run_worker(endpoint: &Endpoint, config: &WorkerConfig) -> io::Result<WorkerSummary> {
    let threads = if config.threads == 0 { sweep::default_threads() } else { config.threads };
    let mut runner: Option<Runner> = None;
    let mut summary = WorkerSummary::default();
    let mut conn_seq: u64 = 0;
    let mut strikes: u32 = 0;
    let mut backoff = Backoff::new(
        0x5348_4152_4457_u64 ^ u64::from(config.id), // "SHARDW" ^ id
        Duration::from_millis(5),
        Duration::from_millis(200),
    );
    // The service may still be binding when a spawned worker
    // starts; the first dial waits up to ~5 s.
    let mut client = dial(endpoint, config, &mut conn_seq, 100)?;
    let mut progressed = false;
    loop {
        // One session over `client`; breaks out with the transient
        // error that ended it.
        let session_error: io::Error = 'session: {
            loop {
                let reply = match client.round_trip(&Request::ShardClaim { worker: config.id }) {
                    Ok(reply) => reply,
                    Err(e) => break 'session e,
                };
                let (seed, small, cells) = match reply {
                    Response::ShardGrant { seed, small, cells } => (seed, small, cells),
                    // Every typed error is transient, ERR_UNSUPPORTED
                    // included: the service speaks every request, so
                    // that code means wire damage to the claim's opcode.
                    Response::Error { code, message } => {
                        break 'session io::Error::other(format!(
                            "service error on claim (code {code}): {message}"
                        ));
                    }
                    other => break 'session unexpected("SHARD_CLAIM", &other),
                };
                if cells.is_empty() {
                    return Ok(summary); // the service is shutting down
                }
                summary.grants += 1;
                progressed = true;
                let runner = runner.get_or_insert_with(|| {
                    let base = if small { Runner::small(seed) } else { Runner::new(seed) };
                    base.with_cache(WorkloadCache::resolve(config.cache_dir.as_deref()))
                });
                let pairs: Vec<(WorkloadKind, IsaVariant)> =
                    cells.iter().map(|c| (c.kind, c.variant)).collect();
                sweep::prebuild_workloads(runner, &pairs, threads);
                let mut completed: u32 = 0;
                // Each run of one trace's cells shares that trace's
                // decode, dependence graph and warmed caches.
                for run in cells.chunk_by(|a, b| (a.kind, a.variant) == (b.kind, b.variant)) {
                    let wl = runner.workload_arc(run[0].kind, run[0].variant);
                    let prepared = PreparedTrace::new(wl.trace());
                    for key in run {
                        let t0 = Instant::now();
                        let metrics = runner.cached_metrics(key).unwrap_or_else(|| {
                            let metrics = simulate_prepared(key, &prepared);
                            runner.insert_metrics(*key, metrics);
                            metrics
                        });
                        let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        if let Err(e) =
                            client.send(&Request::CellDone { key: *key, wall_ns, metrics })
                        {
                            break 'session e;
                        }
                        completed += 1;
                        summary.cells += 1;
                        if config.abort_after.is_some_and(|n| summary.cells >= n as u64) {
                            // Vanish mid-shard like a crashed process: no
                            // FIN, just a dropped connection. The
                            // service requeues the rest of the grant.
                            return Ok(summary);
                        }
                        if config.stall_after.is_some_and(|n| summary.cells >= n as u64) {
                            // Go silent with the connection *open* — the
                            // stalled-not-dead failure mode. The
                            // service's grant lease requeues the rest
                            // of this grant; this worker then retires.
                            std::thread::sleep(config.stall_for);
                            return Ok(summary);
                        }
                    }
                }
                match client.round_trip(&Request::ShardFin { completed }) {
                    Ok(Response::Done { .. }) => {}
                    Ok(other) => break 'session unexpected("SHARD_FIN", &other),
                    Err(e) => break 'session e,
                }
            }
        };
        // Transient failure: strike (unless the session made
        // progress), back off, redial.
        if progressed {
            strikes = 0;
            backoff.reset();
        } else {
            strikes += 1;
            if strikes >= WORKER_SESSION_STRIKES {
                return Err(io::Error::other(format!(
                    "worker {} made no progress over {strikes} reconnect(s); \
                     last error: {session_error}",
                    config.id
                )));
            }
        }
        progressed = false;
        std::thread::sleep(backoff.next_delay());
        client = match dial(endpoint, config, &mut conn_seq, 10) {
            Ok(client) => client,
            // Nobody listening: the service exited — normal end of
            // service once the sweep completed elsewhere.
            Err(_) => return Ok(summary),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_batch_scales_with_grid_and_workers() {
        // ~4 grants per worker, never zero, capped at the protocol's
        // grant limit.
        assert_eq!(effective_batch(0, 46, 2), 6);
        assert_eq!(effective_batch(0, 46, 4), 3);
        assert_eq!(effective_batch(0, 3, 8), 1);
        assert_eq!(effective_batch(0, 0, 2), 1);
        // workers == 0 (external workers) plans as if for two.
        assert_eq!(effective_batch(0, 46, 0), 6);
        // An explicit batch wins but is still clamped.
        assert_eq!(effective_batch(9, 46, 2), 9);
        assert_eq!(effective_batch(1 << 30, 46, 2), MAX_SWEEP_CELLS as usize);
        assert_eq!(effective_batch(0, 1 << 30, 1), MAX_SWEEP_CELLS as usize);
    }
}
