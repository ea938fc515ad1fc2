//! Distributed sharded sweeps: a coordinator/worker pair that scales
//! the [`crate::sweep`] engine across processes with crash-resume.
//!
//! One **coordinator** ([`coordinate`]) owns a sweep grid. It binds an
//! [`Endpoint`], optionally spawns `mom3d-shard-worker` child
//! processes, and hands out batches of [`SimKey`]s on demand. Each
//! **worker** ([`run_worker`]) is a plain protocol client: it claims a
//! batch (`SHARD_CLAIM` → `SHARD_GRANT`), hydrates workloads from the
//! shared on-disk image cache, simulates over the existing
//! [`crate::Runner`]/[`crate::sweep`] paths, streams every result back
//! (`CELL_DONE`, fire-and-forget) and closes the batch with
//! `SHARD_FIN`. The grant carries the seed and geometry, so a worker
//! needs no configuration beyond the coordinator's address — the wire
//! protocol is what a multi-machine deployment would speak.
//!
//! Correctness invariants, pinned by `tests/shard_determinism.rs` and
//! `crates/bench/tests/shard.rs`:
//!
//! * **Bit-identity.** Every cell is a pure deterministic simulation
//!   keyed by [`SimKey`], so the merged [`SweepReport`] is bit-identical
//!   to a single-process [`sweep::run`] regardless of worker count,
//!   scheduling, steals or crashes.
//! * **Crash-resume.** Completed cells are journaled to a durable
//!   checksummed [`crate::manifest`]; a killed run resumes with those
//!   cells replayed (`reused: true`, counted in
//!   [`Sharding::resumed_cells`]) and never re-simulated.
//! * **First completion wins.** Work stealing and worker crashes can
//!   put one cell in flight twice; the first `CELL_DONE` is recorded
//!   (and journaled), later duplicates are counted and dropped.
//! * **Failure containment.** A worker that dies mid-shard only
//!   returns its outstanding cells to the queue (and is respawned, with
//!   a bounded budget, when the coordinator owns the process). Frame
//!   damage costs one connection after an
//!   [`ERR_PROTOCOL`](crate::protocol::ERR_PROTOCOL) reply;
//!   non-shard requests get [`ERR_UNSUPPORTED`] on a usable connection.
//!   Binding, connections and the drain on shutdown are the server core
//!   shared with `mom3d-serve` (`crate::server`).
//! * **Grant leases.** Every claim and `CELL_DONE` is a heartbeat; a
//!   connection holding a grant that goes silent past the lease
//!   (`DEFAULT_LEASE`, configurable via [`ShardConfig::lease`]) has
//!   its grant requeued — a stalled-but-alive worker can delay a sweep
//!   but never wedge it. Workers reconnect with seeded backoff
//!   ([`crate::faults::Backoff`]) and re-claim; first-completion-wins
//!   makes the overlap harmless.

use crate::faults::{Backoff, ChaosConfig};
use crate::manifest::{self, Manifest};
use crate::protocol::{
    Client, Endpoint, Hello, Request, Response, Stream, ERR_UNSUPPORTED, MAX_SWEEP_CELLS,
};
use crate::runner::{Runner, SimKey, WorkloadTiming};
use crate::server::{self, respond, Core, Service};
use crate::stats;
use crate::sweep::{self, CellResult, Sharding, SweepReport, WorkerStats};
use crate::WorkloadCache;
use mom3d_cpu::Metrics;
use mom3d_kernels::{IsaVariant, WorkloadKind};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Crashed-worker respawn budget per worker slot.
const RESPAWN_LIMIT: u32 = 5;

/// Grant lease when [`ShardConfig::lease`] is zero: a connection
/// holding granted cells whose last claim/completion is older than
/// this has its grant requeued. Generous — `CELL_DONE` arrives per
/// cell, so any live worker refreshes its lease far more often.
const DEFAULT_LEASE: Duration = Duration::from_secs(120);

/// Bound on consecutive reconnect-and-no-progress sessions before a
/// worker gives up (guards against retry-looping at a dead or
/// perpetually hostile coordinator).
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

/// Per-worker-id bookkeeping for the report's [`WorkerStats`].
struct WorkerAccount {
    cells: u64,
    walls: Vec<u64>,
    first: Instant,
    last: Instant,
}

/// Everything behind the coordinator's one mutex.
struct Queue {
    /// Cells not yet granted to anyone.
    pending: VecDeque<SimKey>,
    /// Cells granted per connection and not yet completed; requeued
    /// wholesale when the connection dies, halved by a steal.
    granted: HashMap<u64, Vec<SimKey>>,
    /// Which worker id each connection claimed as (stats attribution).
    conn_worker: HashMap<u64, u32>,
    /// First recorded result per cell.
    done: HashMap<SimKey, Metrics>,
    /// Simulation wall-clock (ns) per freshly-completed cell.
    walls: HashMap<SimKey, u64>,
    manifest: Option<Manifest>,
    /// One append failed; warn once and stop pretending the journal is
    /// complete.
    manifest_broken: bool,
    workers: HashMap<u32, WorkerAccount>,
    steals: u64,
    /// Results dropped because the cell was already done (stealing and
    /// crash-requeue both make this legal) or outside the grid.
    duplicates: u64,
    /// Last request (claim / `CELL_DONE` / fin / ping) per connection —
    /// the heartbeat the lease is checked against.
    activity: HashMap<u64, Instant>,
    /// Grants requeued because their connection went silent past the
    /// lease.
    lease_expiries: u64,
}

struct CoordState {
    core: Core,
    queue: Mutex<Queue>,
    /// Notified on every completion, requeue and shutdown — wakes both
    /// claim-waiters and the supervision loop.
    changed: Condvar,
    total: usize,
    grid: HashSet<SimKey>,
    batch: usize,
    hello: Hello,
    lease: Duration,
}

impl CoordState {
    /// Refreshes `conn_id`'s lease heartbeat.
    fn touch(&self, conn_id: u64) {
        let mut q = self.queue.lock().expect("shard queue poisoned");
        q.activity.insert(conn_id, Instant::now());
    }

    /// Requeues the grants of every connection whose heartbeat is older
    /// than the lease. The connection itself is left alone: if the
    /// stalled worker revives, its late results still dedupe through
    /// first-completion-wins, and its next claim re-registers it.
    fn expire_leases(&self) {
        let now = Instant::now();
        let mut q = self.queue.lock().expect("shard queue poisoned");
        let expired: Vec<u64> = q
            .granted
            .iter()
            .filter(|(_, cells)| !cells.is_empty())
            .filter(|(id, _)| {
                q.activity.get(id).is_none_or(|&t| now.duration_since(t) > self.lease)
            })
            .map(|(&id, _)| id)
            .collect();
        if expired.is_empty() {
            return;
        }
        for id in expired {
            let Some(cells) = q.granted.remove(&id) else { continue };
            let mut requeued = 0usize;
            for key in cells.into_iter().rev() {
                if !q.done.contains_key(&key) {
                    q.pending.push_front(key);
                    requeued += 1;
                }
            }
            q.lease_expiries += 1;
            eprintln!(
                "warning: worker connection {id} went silent past its lease ({:.1}s); \
                 {requeued} granted cell(s) requeued",
                self.lease.as_secs_f64()
            );
        }
        drop(q);
        self.changed.notify_all();
    }
}

/// Serves one `SHARD_CLAIM`: pop a pending batch, else steal half of
/// the largest outstanding grant, else wait for either to become
/// possible. Empty return = the sweep is complete (or shutting down)
/// and the worker should exit.
fn claim(state: &CoordState, conn_id: u64, worker: u32) -> Vec<SimKey> {
    let mut q = state.queue.lock().expect("shard queue poisoned");
    q.conn_worker.insert(conn_id, worker);
    q.workers.entry(worker).or_insert_with(|| {
        let now = Instant::now();
        WorkerAccount { cells: 0, walls: Vec::new(), first: now, last: now }
    });
    loop {
        if q.done.len() >= state.total || state.core.shutting_down() {
            return Vec::new();
        }
        if !q.pending.is_empty() {
            let n = state.batch.min(q.pending.len());
            let cells: Vec<SimKey> = q.pending.drain(..n).collect();
            q.granted.entry(conn_id).or_default().extend(&cells);
            // The claim may have parked for a while: the lease clock
            // starts at grant time, not at request time.
            q.activity.insert(conn_id, Instant::now());
            return cells;
        }
        // Work stealing: re-partition the straggler. The victim still
        // simulates its stolen tail; whoever finishes a cell first wins
        // and the loser's result is dropped as a duplicate.
        let victim = q
            .granted
            .iter()
            .filter(|&(&id, cells)| id != conn_id && cells.len() >= 2)
            .max_by_key(|&(_, cells)| cells.len())
            .map(|(&id, _)| id);
        if let Some(victim) = victim {
            let outstanding = q.granted.get_mut(&victim).expect("victim is present");
            let stolen = outstanding.split_off(outstanding.len() - outstanding.len() / 2);
            q.steals += 1;
            q.granted.entry(conn_id).or_default().extend(&stolen);
            q.activity.insert(conn_id, Instant::now());
            return stolen;
        }
        q = state.changed.wait(q).expect("shard queue poisoned");
    }
}

/// Records one `CELL_DONE`: first completion wins, is journaled and
/// attributed; duplicates and out-of-grid cells are counted and
/// dropped.
fn record(state: &CoordState, conn_id: u64, key: SimKey, wall_ns: u64, metrics: Metrics) {
    let mut q = state.queue.lock().expect("shard queue poisoned");
    if !state.grid.contains(&key) {
        q.duplicates += 1;
    } else if let Some(first) = q.done.get(&key) {
        if *first != metrics {
            // Determinism means this can only happen with a buggy or
            // hostile worker; the first (journaled) result stands.
            eprintln!(
                "warning: divergent duplicate result for {} {} on {} (l2 {}) dropped",
                key.kind, key.variant, key.memory, key.l2_latency
            );
        }
        q.duplicates += 1;
    } else {
        q.done.insert(key, metrics);
        q.walls.insert(key, wall_ns);
        if let Some(m) = q.manifest.as_mut() {
            if let Err(e) = m.append(&key, &metrics) {
                if !q.manifest_broken {
                    eprintln!(
                        "warning: shard manifest append failed ({e}); \
                         a resumed run will re-simulate from here"
                    );
                }
                q.manifest_broken = true;
            }
        }
        if let Some(&worker) = q.conn_worker.get(&conn_id) {
            if let Some(acct) = q.workers.get_mut(&worker) {
                acct.cells += 1;
                acct.walls.push(wall_ns);
                acct.last = Instant::now();
            }
        }
    }
    // Retire the cell from every outstanding grant — after a steal it
    // can be in two of them.
    for outstanding in q.granted.values_mut() {
        outstanding.retain(|&c| c != key);
    }
    drop(q);
    state.changed.notify_all();
}

impl Service for CoordState {
    const WHO: &'static str = "mom3d-shard coordinator";
    const REDIRECT: &'static str =
        "simulation requests are served by mom3d-serve; this is the mom3d-shard coordinator";
    /// Workers are silent only while simulating one cell, so this is
    /// sized like the lease, not like a request/response gap.
    const IDLE_TIMEOUT: Duration = Duration::from_secs(600);
    /// Grants and FIN acks are small; a worker that never drains its
    /// socket is dead.
    const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

    fn core(&self) -> &Core {
        &self.core
    }

    fn handle(&self, conn_id: u64, stream: &mut Stream, req: Request) -> Option<bool> {
        self.touch(conn_id);
        Some(match req {
            Request::ShardClaim { worker } => {
                let cells = claim(self, conn_id, worker);
                let grant =
                    Response::ShardGrant { seed: self.hello.seed, small: self.hello.small, cells };
                respond(stream, &grant).is_ok()
            }
            Request::CellDone { key, wall_ns, metrics } => {
                // Fire-and-forget: no reply, the worker is already
                // simulating the next cell.
                record(self, conn_id, key, wall_ns, metrics);
                true
            }
            Request::ShardFin { completed } => {
                respond(stream, &Response::Done { results: completed }).is_ok()
            }
            Request::Ping => respond(stream, &Response::Pong(self.hello)).is_ok(),
            Request::Sim(_) | Request::Sweep(_) | Request::Stats | Request::Shutdown => return None,
        })
    }

    /// Wakes claim waiters (they reply with empty grants) and the
    /// supervision loop. Taking the queue lock first means no claim can
    /// be between its latch check and its wait.
    fn wake(&self) {
        drop(self.queue.lock().expect("shard queue poisoned"));
        self.changed.notify_all();
    }

    /// A dead connection's unfinished cells go back to the queue.
    fn closed(&self, conn_id: u64) {
        let mut q = self.queue.lock().expect("shard queue poisoned");
        q.conn_worker.remove(&conn_id);
        q.activity.remove(&conn_id);
        if let Some(cells) = q.granted.remove(&conn_id) {
            for key in cells.into_iter().rev() {
                if !q.done.contains_key(&key) {
                    q.pending.push_front(key);
                }
            }
        }
        drop(q);
        self.changed.notify_all();
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

fn remaining(state: &CoordState) -> usize {
    let q = state.queue.lock().expect("shard queue poisoned");
    state.total - q.done.len()
}

/// Runs until the grid is complete: polls for crashed worker processes
/// and respawns each (bounded by [`RESPAWN_LIMIT`]) while work remains.
///
/// With no owned workers (`children` empty), externally-launched
/// workers are trusted to finish the sweep and this only waits.
fn supervise(
    state: &CoordState,
    children: &mut [ChildSlot],
    endpoint: &Endpoint,
    config: &ShardConfig,
) -> io::Result<()> {
    loop {
        {
            let q = state.queue.lock().expect("shard queue poisoned");
            if q.done.len() >= state.total {
                return Ok(());
            }
            let _ = state
                .changed
                .wait_timeout(q, Duration::from_millis(100))
                .expect("shard queue poisoned");
        }
        // Liveness: every supervision tick checks grant leases, so a
        // stalled-but-alive worker (open connection, no progress) has
        // its cells requeued instead of wedging the sweep.
        state.expire_leases();
        for slot in children.iter_mut() {
            if let Some(child) = slot.child.as_mut() {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        slot.child = None;
                        if remaining(state) > 0 {
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
            if slot.child.is_none() && slot.respawns > 0 && remaining(state) > 0 {
                slot.respawns -= 1;
                match spawn_worker(endpoint, slot.id, config) {
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
            let left = remaining(state);
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
/// serves claims until every cell has a recorded result. Cells already
/// in the manifest (with `resume`) are replayed, reported `reused` with
/// zero wall-clock, and never granted.
///
/// # Errors
///
/// Propagates bind/spawn/manifest-I/O failures, and reports worker
/// attrition the respawn budget could not cover.
pub fn coordinate(
    endpoint: Endpoint,
    grid: &[SimKey],
    config: &ShardConfig,
) -> io::Result<SweepReport> {
    let start = Instant::now();
    let mut seen = HashSet::new();
    let unique: Vec<SimKey> = grid.iter().copied().filter(|&c| seen.insert(c)).collect();
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
    let done: HashMap<SimKey, Metrics> = resumed.iter().copied().collect();
    let pending: VecDeque<SimKey> =
        unique.iter().copied().filter(|k| !done.contains_key(k)).collect();
    let fresh = pending.len();
    let batch = effective_batch(config.batch, fresh, config.workers);

    let (listener, endpoint) = server::bind(endpoint)?;
    println!(
        "mom3d-shard listening on {endpoint}; {fresh} of {total} cell(s) to simulate \
         ({resumed_cells} resumed)"
    );

    let state = Arc::new(CoordState {
        // Cap 0: the coordinator takes the default connection cap.
        core: Core::new(endpoint.clone(), 0, config.chaos, None),
        queue: Mutex::new(Queue {
            pending,
            granted: HashMap::new(),
            conn_worker: HashMap::new(),
            done,
            walls: HashMap::new(),
            manifest: manifest_handle,
            manifest_broken: false,
            workers: HashMap::new(),
            steals: 0,
            duplicates: 0,
            activity: HashMap::new(),
            lease_expiries: 0,
        }),
        changed: Condvar::new(),
        total,
        grid: unique.iter().copied().collect(),
        batch,
        hello: Hello { seed: config.seed, small: config.small, threads: 0 },
        lease: if config.lease.is_zero() { DEFAULT_LEASE } else { config.lease },
    });
    let accept = server::spawn_accept(Arc::clone(&state), listener);

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
        result = supervise(&state, &mut children, &endpoint, config);
    }

    // One shutdown path for success and failure: latch, wake claim
    // waiters (they reply with empty grants) and the accept loop, reap
    // the worker processes, then drain the open connections.
    state.begin_shutdown();
    let _ = accept.join();
    reap(&mut children);
    state.core.drain();
    result?;

    let q = state.queue.lock().expect("shard queue poisoned");
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
    let resumed_set: HashSet<SimKey> = resumed.iter().map(|&(k, _)| k).collect();
    let cells: Vec<CellResult> = unique
        .iter()
        .map(|&key| {
            let metrics = *q.done.get(&key).expect("every cell has a recorded result");
            if resumed_set.contains(&key) {
                CellResult {
                    key,
                    metrics,
                    wall: Duration::ZERO,
                    workload: WorkloadTiming::default(),
                    reused: true,
                }
            } else {
                let wall = Duration::from_nanos(q.walls.get(&key).copied().unwrap_or(0));
                // Workload build/verify happened inside a worker
                // process; the coordinator never builds, so the phase
                // breakdown reports zero.
                CellResult { key, metrics, wall, workload: WorkloadTiming::default(), reused: false }
            }
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
    /// coordinator's grant lease must requeue the rest of the grant.
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

/// Dials the coordinator, retrying up to `attempts` (50 ms apart), and
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
        format!("unexpected coordinator reply to {context}: {resp:?}"),
    )
}

/// Runs one shard worker to completion: claim, hydrate, simulate,
/// stream, repeat — until the coordinator grants an empty batch.
///
/// The [`Runner`] is built lazily from the first grant's seed and
/// geometry (the worker itself needs no sweep configuration) and kept
/// for the whole session, so workloads and metrics stay memoized across
/// grants. Workload builds go through [`sweep::prebuild_workloads`] and
/// the image cache in `config.cache_dir`, the same cold path as every
/// other harness entry point.
///
/// **Fault discipline**: any mid-session transport or framing failure
/// (reset, bit-flipped frame, expired deadline, typed transient error)
/// drops the connection, sleeps one seeded-backoff rung and redials —
/// the coordinator requeues the abandoned grant and re-grants on the
/// next claim, and first-completion-wins makes any re-simulation
/// harmless. A redial that finds nobody listening is how service
/// normally ends: results are fire-and-forget and already delivered,
/// so the worker just retires. Reconnect loops without progress are
/// bounded by `WORKER_SESSION_STRIKES`.
///
/// # Errors
///
/// Propagates first-connect failures, a coordinator that answers
/// claims with [`ERR_UNSUPPORTED`] (wrong endpoint), and strike-budget
/// exhaustion.
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
    // The coordinator may still be binding when a spawned worker
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
                    Response::Error { code: ERR_UNSUPPORTED, message } => {
                        // Wrong endpoint (e.g. mom3d-serve): retrying
                        // cannot help.
                        return Err(io::Error::other(format!(
                            "coordinator refused the claim: {message}"
                        )));
                    }
                    Response::Error { code, message } => {
                        break 'session io::Error::other(format!(
                            "coordinator error on claim (code {code}): {message}"
                        ));
                    }
                    other => break 'session unexpected("SHARD_CLAIM", &other),
                };
                if cells.is_empty() {
                    return Ok(summary); // the sweep is complete
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
                for key in &cells {
                    let t0 = Instant::now();
                    let metrics =
                        runner.metrics(key.kind, key.variant, key.memory, key.l2_latency);
                    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    if let Err(e) = client.send(&Request::CellDone { key: *key, wall_ns, metrics })
                    {
                        break 'session e;
                    }
                    completed += 1;
                    summary.cells += 1;
                    if config.abort_after.is_some_and(|n| summary.cells >= n as u64) {
                        // Vanish mid-shard like a crashed process: no
                        // FIN, just a dropped connection. The
                        // coordinator requeues the rest of the grant.
                        return Ok(summary);
                    }
                    if config.stall_after.is_some_and(|n| summary.cells >= n as u64) {
                        // Go silent with the connection *open* — the
                        // stalled-not-dead failure mode. The
                        // coordinator's grant lease requeues the rest
                        // of this grant; this worker then retires.
                        std::thread::sleep(config.stall_for);
                        return Ok(summary);
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
            // Nobody listening: the coordinator exited — normal end of
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
