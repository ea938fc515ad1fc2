//! The cell service: `mom3d-serve` and the `mom3d-shard` coordinator.
//!
//! Every number the harness reports is a cell: a pure, deterministic
//! simulation keyed by [`SimKey`]. This module keeps the cells'
//! results, the verified workloads (behind [`Arc`]) and one work queue
//! **resident in one long-lived process**, so the steady-state cost of
//! a repeated request is one memo lookup plus two frames on a socket.
//!
//! Architecture (all std, no tokio):
//!
//! * the server core (`crate::server`) binds the [`Endpoint`], runs the
//!   accept loop and one handler thread per connection, and decodes
//!   [`Request`]s ([`crate::protocol`]);
//! * one handler answers all eight requests against the resident
//!   `SimKey → Metrics` [`MemoTable`], the only result store: published
//!   cells answer immediately, identical in-flight cells coalesce onto
//!   the running simulation, and fresh cells are claimed and pushed onto
//! * **one work queue**, drained two ways: local pool threads (the
//!   [`crate::sweep`] worker-count policy, sharing its [`Runner`]
//!   build/verify and `simulate` paths) pop one cell at a time, and
//!   pull-based workers ([`crate::shard::run_worker`]) take batches with
//!   `SHARD_CLAIM` and stream each result back as a `CELL_DONE`. Either
//!   way the result is published to the memo table, waking every handler
//!   streaming that cell. The first publish wins; a `CELL_DONE` for a
//!   cell that is not in flight is counted and dropped;
//! * workloads resolve through a second memo table, so concurrent
//!   requests for different cells of one workload build it exactly
//!   once — hydrated from the on-disk workload-image cache when one is
//!   attached.
//!
//! [`serve`] runs the service with N local threads. The coordinator
//! ([`crate::shard::coordinate`]) runs the same service with none, its
//! grid pre-claimed and its resumed cells pre-published. So a worker
//! attaches to either, and both speak one dialect.
//!
//! Grants to workers are leased: every claim and `CELL_DONE` is a
//! heartbeat, and the lease tick (run by every loop that waits on the
//! queue) requeues the grant of a connection silent past the lease, so
//! a stalled-but-alive worker can delay the cells it holds but never
//! wedge them. An idle claim steals half of
//! the largest outstanding grant, and a dead connection's unfinished
//! cells go back to the queue.
//!
//! Failure containment: frame-level damage costs one connection,
//! request-level damage costs one error reply, and a panicking local
//! simulation un-claims its cell ([`ClaimGuard`] semantics inside the
//! pool) so waiters get an [`ERR_SIM_FAILED`] reply instead of a hang.
//! A client disconnecting mid-stream kills only its handler thread —
//! scheduled simulations complete and stay memoized for the next
//! requester. The memo table is never corrupted by a misbehaving
//! client; `tests/serve.rs` pins all of this.
//!
//! Robustness under hostile load: on top of the core's deadlines,
//! connection cap and once-per-class frame warnings, waits on
//! in-flight simulations are bounded (`RESULT_DEADLINE` →
//! `ERR_TIMEOUT`), and requests over the pending-work bound are
//! **shed** with a typed [`ERR_OVERLOADED`] reply (clients back off and
//! retry — requests are `SimKey`s and replies memoized, so retries are
//! idempotent). Shutdown is a **graceful drain** that finishes queued
//! local simulations, answers parked claims with empty grants, refuses
//! new work, force-closes only the stragglers and flushes a final
//! counter/memo-stat line. `--chaos-seed` wraps every accepted
//! connection in a seeded [`ChaosStream`](crate::faults::ChaosStream)
//! for hostile self-testing.

use crate::faults::ChaosConfig;
use crate::manifest::Manifest;
use crate::memo::{ClaimGuard, MemoTable, Schedule};
use crate::protocol::{
    CellReply, Endpoint, Hello, Request, Response, ServeCounters, Stream, ERR_OVERLOADED,
    ERR_SIM_FAILED, ERR_TIMEOUT,
};
use crate::runner::{simulate, Runner, SimKey};
use crate::server::{self, respond, Core, Listener};
use crate::sweep;
use crate::WorkloadCache;
use mom3d_cpu::Metrics;
use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::server::DEFAULT_CONNECTION_CAP;

/// Pending-work queue bound when [`ServeConfig::queue_limit`] is 0: a
/// request arriving while this many cells are already queued is shed
/// with [`ERR_OVERLOADED`] instead of growing the backlog without
/// bound.
pub const DEFAULT_QUEUE_LIMIT: usize = 1024;

/// Ceiling on "waiting for a cell someone is computing": past this the
/// handler answers [`ERR_TIMEOUT`] instead of parking forever. Generous
/// — full-geometry cells take seconds, not minutes.
const RESULT_DEADLINE: Duration = Duration::from_secs(600);

/// Grant lease when none is configured: a connection holding granted
/// cells whose last claim/completion is older than this has its grant
/// requeued. Generous — `CELL_DONE` arrives per cell, so any live
/// worker refreshes its lease far more often.
pub(crate) const DEFAULT_LEASE: Duration = Duration::from_secs(120);

/// Period of the lease tick ([`CellService::wait_tick`]).
const LEASE_TICK: Duration = Duration::from_millis(100);

/// How a [`ServerHandle`] is configured.
#[derive(Debug)]
pub struct ServeConfig {
    /// Workload data seed.
    pub seed: u64,
    /// Serve reduced-geometry workloads (the integration-test geometry).
    pub small: bool,
    /// Simulation worker threads (0 = every available core, the
    /// [`sweep::default_threads`] policy).
    pub threads: usize,
    /// Workload-image cache to hydrate workloads from (and persist
    /// fresh builds into).
    pub cache: Option<WorkloadCache>,
    /// Build and verify every paper workload at boot (via the parallel
    /// [`sweep::prebuild_workloads`] pipeline) instead of lazily on
    /// first request.
    pub prebuild: bool,
    /// Bound on the pending-work queue (0 = [`DEFAULT_QUEUE_LIMIT`]).
    /// `SIM`/`SWEEP` requests arriving at or over the bound are shed
    /// with [`ERR_OVERLOADED`] — clients back off and retry.
    pub queue_limit: usize,
    /// Bound on concurrent connections (0 =
    /// [`DEFAULT_CONNECTION_CAP`]). Accepts beyond it are refused with
    /// one [`ERR_OVERLOADED`] frame.
    pub max_connections: usize,
    /// Server-side fault injection: every accepted connection is
    /// wrapped in a seeded [`ChaosStream`](crate::faults::ChaosStream)
    /// (lane = connection ordinal), so the server's own replies are
    /// damaged deterministically.
    pub chaos: Option<ChaosConfig>,
    /// Fault hook: panic the accept loop after this many accepted
    /// connections. Exists so tests can pin that the unix-socket file
    /// is unlinked even when the accept loop dies by panic.
    pub accept_panic_after: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 7,
            small: false,
            threads: 0,
            cache: None,
            prebuild: false,
            queue_limit: 0,
            max_connections: 0,
            chaos: None,
            accept_panic_after: None,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    sims_executed: AtomicU64,
    workloads_built: AtomicU64,
    results_streamed: AtomicU64,
    shed: AtomicU64,
}

/// Per-worker-id bookkeeping for a sharded report's per-worker stats.
#[derive(Debug)]
pub(crate) struct WorkerAccount {
    pub(crate) cells: u64,
    pub(crate) walls: Vec<u64>,
    pub(crate) first: Instant,
    pub(crate) last: Instant,
}

/// The work queue and everything that changes with it, behind one
/// mutex.
#[derive(Debug, Default)]
pub(crate) struct Queue {
    /// Claimed cells nobody runs yet.
    pub(crate) pending: VecDeque<SimKey>,
    /// Cells granted per connection and not yet published; requeued
    /// wholesale when the connection dies or its lease expires, halved
    /// by a steal.
    granted: HashMap<u64, Vec<SimKey>>,
    /// Which worker id each connection claimed as (stats attribution).
    conn_worker: HashMap<u64, u32>,
    /// Last claim / `CELL_DONE` / fin per connection — the heartbeat
    /// the lease is checked against.
    activity: HashMap<u64, Instant>,
    /// Simulation wall-clock (ns) per cell a worker published.
    pub(crate) walls: HashMap<SimKey, u64>,
    pub(crate) workers: HashMap<u32, WorkerAccount>,
    /// Crash-resume journal of every cell a worker publishes.
    pub(crate) manifest: Option<Manifest>,
    /// One append failed; warn once and stop pretending the journal is
    /// complete.
    manifest_broken: bool,
    pub(crate) steals: u64,
    /// `CELL_DONE`s dropped because their cell was not in flight:
    /// already published (stealing and requeues make that legal) or
    /// never requested.
    pub(crate) duplicates: u64,
    /// Grants requeued because their connection went silent past the
    /// lease.
    pub(crate) lease_expiries: u64,
}

impl Queue {
    /// Records `cells` as granted to `conn_id`; the lease clock starts
    /// now, not when the (possibly long-parked) claim arrived.
    fn grant(&mut self, conn_id: u64, cells: Vec<SimKey>) -> Vec<SimKey> {
        self.granted.entry(conn_id).or_default().extend(&cells);
        self.activity.insert(conn_id, Instant::now());
        cells
    }
}

/// Shared state of one cell service: the core, the resident tables and
/// the work queue.
#[derive(Debug)]
pub(crate) struct CellService {
    pub(crate) core: Core,
    runner: Runner,
    hello: Hello,
    workloads: MemoTable<(WorkloadKind, IsaVariant), Arc<Workload>>,
    /// Every result, local or remote: the service's only result store.
    pub(crate) memo: MemoTable<SimKey, Metrics>,
    queue: Mutex<Queue>,
    /// Notified on every enqueue, requeue, completion and shutdown; wakes
    /// every waiter in [`CellService::wait_tick`].
    pub(crate) changed: Condvar,
    counters: Counters,
    queue_limit: usize,
    /// Cells per grant.
    pub(crate) batch: usize,
    pub(crate) lease: Duration,
}

impl CellService {
    /// An idle service: empty queue and tables, the default queue bound
    /// and lease, one cell per grant.
    pub(crate) fn new(core: Core, runner: Runner, hello: Hello) -> CellService {
        CellService {
            core,
            runner,
            hello,
            workloads: MemoTable::new(),
            memo: MemoTable::new(),
            queue: Mutex::new(Queue::default()),
            changed: Condvar::new(),
            counters: Counters::default(),
            queue_limit: DEFAULT_QUEUE_LIMIT,
            batch: 1,
            lease: DEFAULT_LEASE,
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("work queue poisoned")
    }

    /// Claims every fresh cell of `grid` onto the queue, after
    /// publishing the `resumed` ones. Returns how many were queued.
    ///
    /// The cells are queued trace by trace, in first-occurrence order
    /// as [`sweep::run`] orders its jobs, so the cells of a grant that
    /// share a trace are adjacent and a worker prepares that trace once.
    pub(crate) fn preload(&mut self, grid: &[SimKey], resumed: &[(SimKey, Metrics)]) -> usize {
        for &(key, metrics) in resumed {
            self.memo.schedule(key);
            self.memo.publish(key, metrics);
        }
        let mut fresh: Vec<SimKey> = grid
            .iter()
            .copied()
            .filter(|&key| matches!(self.memo.schedule(key), Schedule::Claimed))
            .collect();
        sweep::sort_by_trace(&mut fresh);
        let q = self.queue.get_mut().expect("work queue poisoned");
        q.pending.extend(fresh);
        q.pending.len()
    }

    fn counters_snapshot(&self) -> ServeCounters {
        let memo = self.memo.stats();
        ServeCounters {
            connections: self.core.connections.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            memo_hits: memo.hits,
            memo_misses: memo.misses,
            memo_coalesced: memo.coalesced,
            sims_executed: self.counters.sims_executed.load(Ordering::Relaxed),
            workloads_built: self.counters.workloads_built.load(Ordering::Relaxed),
            protocol_errors: self.core.protocol_errors.load(Ordering::Relaxed),
            results_streamed: self.counters.results_streamed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            refused_connections: self.core.refused.load(Ordering::Relaxed),
        }
    }

    fn enqueue(&self, key: SimKey) {
        self.lock().pending.push_back(key);
        self.changed.notify_all();
    }

    /// Backpressure gate, checked before any `SIM`/`SWEEP` does work:
    /// a draining server or a full pending-work queue answers
    /// [`ERR_OVERLOADED`] (and counts the shed) instead of accepting
    /// unbounded backlog. Requests are `SimKey`s and replies are
    /// memoized, so a shed-then-retried request is idempotent.
    fn shed_reply(&self) -> Option<Response> {
        let message = if self.core.shutting_down() {
            "server is draining: no new work accepted".to_string()
        } else {
            let queued = self.lock().pending.len();
            if queued < self.queue_limit {
                return None;
            }
            format!("pending-work queue is full ({queued} cell(s) queued); back off and retry")
        };
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        Some(Response::Error { code: ERR_OVERLOADED, message })
    }

    /// Serves one decoded request on connection `conn_id`. Returns
    /// whether the connection stays open.
    pub(crate) fn handle(&self, conn_id: u64, stream: &mut Stream, req: Request) -> bool {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Ping => respond(stream, &Response::Pong(self.hello)).is_ok(),
            Request::Stats => respond(stream, &Response::Stats(self.counters_snapshot())).is_ok(),
            Request::Shutdown => {
                let _ = respond(stream, &Response::Bye);
                self.begin_shutdown();
                false
            }
            Request::Sim(_) | Request::Sweep(_) if let Some(reply) = self.shed_reply() => {
                respond(stream, &reply).is_ok()
            }
            Request::Sim(key) => stream_cells(self, stream, &[key]).is_some(),
            Request::Sweep(cells) => stream_cells(self, stream, &cells)
                .is_some_and(|results| respond(stream, &Response::Done { results }).is_ok()),
            Request::ShardClaim { worker } => {
                let cells = self.claim(conn_id, worker);
                let (seed, small) = (self.hello.seed, self.hello.small);
                respond(stream, &Response::ShardGrant { seed, small, cells }).is_ok()
            }
            Request::CellDone { key, wall_ns, metrics } => {
                // Fire-and-forget: no reply, the worker is already
                // simulating the next cell.
                self.record(conn_id, key, wall_ns, metrics);
                true
            }
            Request::ShardFin { completed } => {
                self.lock().activity.insert(conn_id, Instant::now());
                respond(stream, &Response::Done { results: completed }).is_ok()
            }
        }
    }

    /// Serves one `SHARD_CLAIM`: pop a pending batch, else steal half of
    /// the largest outstanding grant, else wait for either to become
    /// possible. Empty return = the service is shutting down and the
    /// worker should exit.
    fn claim(&self, conn_id: u64, worker: u32) -> Vec<SimKey> {
        let mut q = self.lock();
        q.conn_worker.insert(conn_id, worker);
        q.workers.entry(worker).or_insert_with(|| {
            let now = Instant::now();
            WorkerAccount { cells: 0, walls: Vec::new(), first: now, last: now }
        });
        loop {
            if self.core.shutting_down() {
                return Vec::new();
            }
            if !q.pending.is_empty() {
                let n = self.batch.min(q.pending.len());
                let cells: Vec<SimKey> = q.pending.drain(..n).collect();
                return q.grant(conn_id, cells);
            }
            // Work stealing: re-partition the straggler. The victim still
            // simulates its stolen tail; whoever publishes a cell first
            // wins and the loser's result is dropped as a duplicate.
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
                return q.grant(conn_id, stolen);
            }
            q = self.wait_tick(q);
        }
    }

    /// Records one `CELL_DONE`: the first publish wins, is journaled and
    /// attributed; a result for a cell not in flight is counted and
    /// dropped.
    fn record(&self, conn_id: u64, key: SimKey, wall_ns: u64, metrics: Metrics) {
        let mut guard = self.lock();
        let q = &mut *guard;
        q.activity.insert(conn_id, Instant::now());
        if self.memo.publish(key, metrics) {
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
            if let Some(acct) = q.conn_worker.get(&conn_id).and_then(|w| q.workers.get_mut(w)) {
                acct.cells += 1;
                acct.walls.push(wall_ns);
                acct.last = Instant::now();
            }
        } else {
            if self.memo.peek(&key).is_some_and(|first| first != metrics) {
                // Determinism means this can only happen with a buggy or
                // hostile worker; the first (journaled) result stands.
                eprintln!(
                    "warning: divergent duplicate result for {} {} on {} (l2 {}) dropped",
                    key.kind, key.variant, key.memory, key.l2_latency
                );
            }
            q.duplicates += 1;
        }
        // Retire the cell from every outstanding grant — after a steal it
        // can be in two of them.
        for outstanding in q.granted.values_mut() {
            outstanding.retain(|&c| c != key);
        }
        drop(guard);
        self.changed.notify_all();
    }

    /// Puts the unpublished cells of a revoked grant back at the front
    /// of the queue; returns how many went back.
    fn requeue(&self, q: &mut Queue, cells: Vec<SimKey>) -> usize {
        let before = q.pending.len();
        for key in cells.into_iter().rev() {
            if self.memo.peek(&key).is_none() {
                q.pending.push_front(key);
            }
        }
        q.pending.len() - before
    }

    /// Requeues the grants of every connection whose heartbeat is older
    /// than the lease. The connection itself is left alone: if the
    /// stalled worker revives, its late results still dedupe through
    /// first-publish-wins, and its next claim re-registers it. Returns
    /// whether any grant expired.
    fn expire_leases(&self, q: &mut Queue) -> bool {
        let now = Instant::now();
        let expired: Vec<u64> = q
            .granted
            .iter()
            .filter(|(_, cells)| !cells.is_empty())
            .filter(|(id, _)| {
                q.activity.get(id).is_none_or(|&t| now.duration_since(t) > self.lease)
            })
            .map(|(&id, _)| id)
            .collect();
        for &id in &expired {
            let cells = q.granted.remove(&id).unwrap_or_default();
            let requeued = self.requeue(q, cells);
            q.lease_expiries += 1;
            eprintln!(
                "warning: worker connection {id} went silent past its lease ({:.1}s); \
                 {requeued} granted cell(s) requeued",
                self.lease.as_secs_f64()
            );
        }
        !expired.is_empty()
    }

    /// Waits for a queue change or one [`LEASE_TICK`], then expires
    /// stale grants. Every loop that waits on the queue (idle local
    /// threads, parked claims, the coordinator's supervision) goes
    /// through here, so together they are the periodic lease tick of
    /// both modes and no thread exists just to keep time.
    pub(crate) fn wait_tick<'a>(&self, q: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        let (mut q, _) = self.changed.wait_timeout(q, LEASE_TICK).expect("work queue poisoned");
        if self.expire_leases(&mut q) {
            self.changed.notify_all();
        }
        q
    }

    /// Called once when connection `conn_id` ends, panic included: its
    /// unfinished cells go back to the queue.
    pub(crate) fn closed(&self, conn_id: u64) {
        let mut q = self.lock();
        q.conn_worker.remove(&conn_id);
        q.activity.remove(&conn_id);
        if let Some(cells) = q.granted.remove(&conn_id) {
            self.requeue(&mut q, cells);
        }
        drop(q);
        self.changed.notify_all();
    }

    /// Sets the latch and wakes the accept loop and every waiter on the
    /// queue. Taking the queue lock first means no waiter can be between
    /// its latch check and its wait.
    pub(crate) fn begin_shutdown(&self) {
        self.core.begin_shutdown();
        drop(self.lock());
        self.changed.notify_all();
    }
}

/// Resolves a workload into residence, building (or image-cache
/// loading) it exactly once across all concurrent requesters.
///
/// Panics propagate to the worker's `catch_unwind`; the [`ClaimGuard`]
/// un-claims the pair so a failed build is retryable.
fn resolve_workload(
    state: &CellService,
    kind: WorkloadKind,
    variant: IsaVariant,
) -> Arc<Workload> {
    loop {
        match state.workloads.schedule((kind, variant)) {
            Schedule::Ready(wl) => return wl,
            Schedule::InFlight => {
                if let Ok(wl) = state.workloads.wait(&(kind, variant)) {
                    return wl;
                }
                // The in-flight build was abandoned; retry (and possibly
                // claim it ourselves this time).
            }
            Schedule::Claimed => {
                let guard = ClaimGuard::new(&state.workloads, (kind, variant));
                let (wl, _timing, _cached) = state.runner.load_or_build(kind, variant);
                let wl = Arc::new(wl);
                state.counters.workloads_built.fetch_add(1, Ordering::Relaxed);
                guard.publish(Arc::clone(&wl));
                return wl;
            }
        }
    }
}

/// One local-pool iteration: simulate a queued cell and publish (or,
/// on panic, un-claim) it.
fn run_cell(state: &CellService, key: SimKey) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let wl = resolve_workload(state, key.kind, key.variant);
        simulate(&key, &wl)
    }));
    match result {
        Ok(metrics) => {
            state.counters.sims_executed.fetch_add(1, Ordering::Relaxed);
            state.memo.publish(key, metrics);
        }
        Err(_) => {
            // The panic message already went to stderr via the default
            // hook; un-claim so waiters error out and a retry is
            // possible.
            state.memo.fail(&key);
        }
    }
}

fn local_loop(state: &CellService) {
    loop {
        let key = {
            let mut q = state.lock();
            loop {
                if let Some(key) = q.pending.pop_front() {
                    break key;
                }
                if state.core.shutting_down() {
                    return; // drained + shutting down
                }
                q = state.wait_tick(q);
            }
        };
        run_cell(state, key);
    }
}

/// Streams the results of `cells` (deduped): memo hits immediately,
/// then the rest **in completion order** as they publish, queueing
/// every fresh cell. A cell whose simulation failed gets an
/// [`ERR_SIM_FAILED`] reply and the stream carries on. Returns the
/// results sent, or `None` once the connection is done for (it died,
/// or [`RESULT_DEADLINE`] passed without a publish: that gets one
/// [`ERR_TIMEOUT`] reply, and the cells stay queued and memoize, so a
/// retrying client re-requests exactly the ones it never received).
fn stream_cells(state: &CellService, stream: &mut Stream, cells: &[SimKey]) -> Option<u32> {
    let mut results: u32 = 0;
    let mut pending: Vec<SimKey> = Vec::new();
    for key in sweep::unique_cells(cells) {
        match state.memo.schedule(key) {
            Schedule::Ready(metrics) => {
                state.counters.results_streamed.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Result(CellReply { key, memo_hit: true, metrics });
                // On a dead connection queued cells still complete and
                // memoize.
                respond(stream, &reply).ok()?;
                results += 1;
            }
            Schedule::InFlight => pending.push(key),
            Schedule::Claimed => {
                state.enqueue(key);
                pending.push(key);
            }
        }
    }
    while !pending.is_empty() {
        let Some(step) = state.memo.wait_any_for(&mut pending, RESULT_DEADLINE) else {
            let reply = Response::Error {
                code: ERR_TIMEOUT,
                message: format!(
                    "no result within {}s; {} cell(s) undelivered",
                    RESULT_DEADLINE.as_secs(),
                    pending.len()
                ),
            };
            let _ = respond(stream, &reply);
            return None;
        };
        let reply = match step {
            Ok((key, metrics)) => {
                state.counters.results_streamed.fetch_add(1, Ordering::Relaxed);
                results += 1;
                Response::Result(CellReply { key, memo_hit: false, metrics })
            }
            Err((key, _)) => Response::Error {
                code: ERR_SIM_FAILED,
                message: format!(
                    "simulation of {} {} on {} failed server-side",
                    key.kind, key.variant, key.memory
                ),
            },
        };
        respond(stream, &reply).ok()?;
    }
    Some(results)
}

/// A running service. Dropping the handle does **not** stop it — call
/// [`ServerHandle::wait`] (block until a client sends `SHUTDOWN`) or
/// [`ServerHandle::shutdown`] (stop it now).
#[derive(Debug)]
pub struct ServerHandle {
    pub(crate) state: Arc<CellService>,
    /// The local pool and the accept loop; all of them return once
    /// shutdown has begun.
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Starts `state` on `listener` with `local_threads` pool threads.
    pub(crate) fn start(state: CellService, listener: Listener, local_threads: usize) -> Self {
        let state = Arc::new(state);
        // Pool first: the spawn order decides which allocator arenas the
        // simulation threads inherit, and spawning the accept loop first
        // measurably raised the served benchmark's peak resident set.
        let mut threads: Vec<JoinHandle<()>> = (0..local_threads)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("mom3d-sim-{i}"))
                    .spawn(move || local_loop(&state))
                    .expect("spawning a simulation worker")
            })
            .collect();
        threads.push(server::spawn_accept(Arc::clone(&state), listener));
        ServerHandle { state, threads }
    }

    /// The endpoint the server actually listens on (for `tcp:…:0`, the
    /// kernel-assigned port is resolved in).
    pub fn endpoint(&self) -> &Endpoint {
        &self.state.core.endpoint
    }

    /// Cumulative counter snapshot (same numbers a `STATS` request
    /// reports).
    pub fn counters(&self) -> ServeCounters {
        self.state.counters_snapshot()
    }

    /// Joins every service thread — they return once shutdown has
    /// begun and the local pool has run every queued cell — then drains
    /// the open connections.
    pub(crate) fn join(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.state.core.drain();
    }

    /// Blocks until the server shuts down (a client sent `SHUTDOWN`),
    /// then joins the worker pool and drains the open connections.
    pub fn wait(mut self) {
        self.join();
        // Flush the final counter/memo-stat snapshot so a drained
        // server leaves a trace of what it did.
        let c = self.state.counters_snapshot();
        eprintln!(
            "mom3d-serve drained: {} connection(s) ({} refused), {} request(s), \
             {} sim(s) executed, memo {} hit(s) / {} miss(es) / {} coalesced, \
             {} result(s) streamed, {} shed, {} protocol error(s)",
            c.connections,
            c.refused_connections,
            c.requests,
            c.sims_executed,
            c.memo_hits,
            c.memo_misses,
            c.memo_coalesced,
            c.results_streamed,
            c.shed,
            c.protocol_errors
        );
    }

    /// Stops the server: no new connections, the worker pool drains its
    /// queue (publishing every scheduled cell) and exits.
    pub fn shutdown(self) {
        self.state.begin_shutdown();
        self.wait();
    }
}

/// Binds `endpoint` and starts serving on background threads.
///
/// A unix-socket endpoint takes ownership of its path: a stale file
/// from a previous run is removed before binding, and the file is
/// removed again on shutdown.
///
/// # Errors
///
/// Propagates the bind error (address in use, bad address, permission).
pub fn serve(endpoint: Endpoint, config: ServeConfig) -> io::Result<ServerHandle> {
    let threads = if config.threads == 0 { sweep::default_threads() } else { config.threads };
    let runner = if config.small { Runner::small(config.seed) } else { Runner::new(config.seed) };
    let (listener, endpoint) = server::bind(endpoint)?;
    let hello = Hello {
        seed: config.seed,
        small: config.small,
        threads: threads.min(u32::MAX as usize) as u32,
    };
    let core = Core::new(endpoint, config.max_connections, config.chaos, config.accept_panic_after);
    let mut state = CellService::new(core, runner.with_cache(config.cache), hello);
    if config.queue_limit > 0 {
        state.queue_limit = config.queue_limit;
    }
    if config.prebuild {
        let pairs: Vec<(WorkloadKind, IsaVariant)> = WorkloadKind::ALL
            .into_iter()
            .flat_map(|k| IsaVariant::ALL.map(|v| (k, v)))
            .collect();
        sweep::prebuild_workloads(&mut state.runner, &pairs, threads);
        for &(kind, variant) in &pairs {
            if let Schedule::Claimed = state.workloads.schedule((kind, variant)) {
                state.workloads.publish((kind, variant), state.runner.workload_arc(kind, variant));
            }
        }
        state.counters.workloads_built.store(pairs.len() as u64, Ordering::Relaxed);
    }
    Ok(ServerHandle::start(state, listener, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, Client, RetryClient, RetryPolicy};
    use mom3d_cpu::MemorySystemKind;
    use std::time::Instant;

    fn test_config() -> ServeConfig {
        ServeConfig { seed: 5, small: true, threads: 2, ..Default::default() }
    }

    fn unix_endpoint(name: &str) -> Endpoint {
        Endpoint::Unix(
            std::env::temp_dir().join(format!("mom3d-serve-unit-{}-{name}.sock", std::process::id())),
        )
    }

    #[test]
    fn ping_reports_identity_and_shutdown_stops_the_server() {
        let handle = serve(unix_endpoint("ping"), test_config()).expect("server binds");
        let endpoint = handle.endpoint().clone();
        let mut client = Client::connect(&endpoint).expect("client connects");
        let pong = client.round_trip(&Request::Ping).unwrap();
        assert_eq!(pong, Response::Pong(Hello { seed: 5, small: true, threads: 2 }));
        assert_eq!(client.round_trip(&Request::Shutdown).unwrap(), Response::Bye);
        handle.wait();
        // The socket file is gone, and connecting fails.
        assert!(endpoint.connect().is_err());
    }

    #[test]
    fn sim_matches_in_process_execution_and_memoizes() {
        let handle = serve(unix_endpoint("sim"), test_config()).expect("server binds");
        let key = SimKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 20,
        };
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let Response::Result(first) = client.round_trip(&Request::Sim(key)).unwrap() else {
            panic!("expected a result");
        };
        assert_eq!(first.key, key);
        assert!(!first.memo_hit, "first request must simulate");

        let Response::Result(second) = client.round_trip(&Request::Sim(key)).unwrap() else {
            panic!("expected a result");
        };
        assert!(second.memo_hit, "second request must be a memo hit");
        assert_eq!(first.metrics, second.metrics);

        // Bit-identical to direct in-process execution.
        let mut r = Runner::small(5);
        let direct = r.metrics(key.kind, key.variant, key.memory, key.l2_latency);
        assert_eq!(first.metrics, direct);

        let counters = handle.counters();
        assert_eq!(counters.sims_executed, 1);
        assert_eq!(counters.memo_hits, 1);
        assert_eq!(counters.memo_misses, 1);
        handle.shutdown();
    }

    #[test]
    fn tcp_endpoint_resolves_port_zero() {
        let handle =
            serve(Endpoint::Tcp("127.0.0.1:0".into()), test_config()).expect("server binds");
        let Endpoint::Tcp(addr) = handle.endpoint().clone() else { panic!("expected tcp") };
        assert!(!addr.ends_with(":0"), "port must be resolved, got {addr}");
        let mut client = Client::connect(&Endpoint::Tcp(addr)).unwrap();
        assert!(matches!(client.round_trip(&Request::Ping).unwrap(), Response::Pong(_)));
        handle.shutdown();
    }

    #[test]
    fn overload_sheds_typed_and_retrying_clients_converge() {
        let config =
            ServeConfig { seed: 5, small: true, threads: 1, queue_limit: 1, ..Default::default() };
        let handle = serve(unix_endpoint("shed"), config).expect("server binds");
        let endpoint = handle.endpoint().clone();

        // A full-matrix sweep keeps the single worker busy for a while
        // (every workload must be built first), holding the pending
        // queue over its 1-cell bound.
        let cells: Vec<SimKey> = WorkloadKind::ALL
            .into_iter()
            .flat_map(|kind| {
                IsaVariant::ALL.map(|variant| SimKey {
                    kind,
                    variant,
                    // MOM+3D code needs a backend with a 3D register
                    // file; the plain vector cache panics on it.
                    memory: match variant {
                        IsaVariant::Mom3d => MemorySystemKind::VectorCache3d.into(),
                        _ => MemorySystemKind::VectorCache.into(),
                    },
                    l2_latency: 20,
                })
            })
            .collect();
        let sweeper = {
            let endpoint = endpoint.clone();
            let cells = cells.clone();
            std::thread::spawn(move || {
                let mut client = RetryClient::new(endpoint, RetryPolicy::default());
                client.sweep(&cells)
            })
        };

        // Wait until the backlog demonstrably exists, then a raw
        // (non-retrying) client must be shed with the typed error.
        let deadline = Instant::now() + Duration::from_secs(60);
        while handle.state.lock().pending.len() < 5 {
            assert!(Instant::now() < deadline, "the sweep backlog never built up");
            std::thread::sleep(Duration::from_millis(1));
        }
        let probe = SimKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 40,
        };
        let mut raw = Client::connect(&endpoint).unwrap();
        let resp = raw.round_trip(&Request::Sim(probe)).unwrap();
        let Response::Error { code, message } = resp else {
            panic!("expected a shed reply, got {resp:?}")
        };
        assert_eq!(code, ERR_OVERLOADED);
        assert!(message.contains("queue is full"), "unexpected shed message: {message}");

        // A retrying client converges to the bit-identical answer
        // anyway once the backlog drains.
        let policy = RetryPolicy {
            attempts: 500,
            max_delay: Duration::from_millis(50),
            ..Default::default()
        };
        let mut retrying = RetryClient::new(endpoint, policy);
        let reply = retrying.sim(&probe).expect("retry converges after shedding");
        let mut r = Runner::small(5);
        assert_eq!(
            reply.metrics,
            r.metrics(probe.kind, probe.variant, probe.memory, probe.l2_latency)
        );

        // The big sweep itself was never shed (it entered before the
        // backlog) and is bit-identical cell for cell.
        let swept = sweeper.join().unwrap().expect("sweep completes");
        assert_eq!(swept.len(), cells.len());
        for reply in &swept {
            let direct =
                r.metrics(reply.key.kind, reply.key.variant, reply.key.memory, reply.key.l2_latency);
            assert_eq!(reply.metrics, direct);
        }
        assert!(handle.counters().shed >= 1, "the raw probe's shed must be counted");
        handle.shutdown();
    }

    #[test]
    fn a_poisoned_cell_surfaces_an_error_instead_of_spinning() {
        let handle = serve(unix_endpoint("poison"), test_config()).expect("server binds");
        // MOM+3D code on the plain vector cache (no 3D register file)
        // panics in the simulator every single time. The retry layer
        // must burn its bounded budget and surface an error — an
        // unbounded re-request loop here once pinned a worker at 100%
        // CPU while panic output grew the process without limit.
        let poisoned = SimKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom3d,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 20,
        };
        let policy = RetryPolicy {
            attempts: 3,
            max_delay: Duration::from_millis(5),
            ..Default::default()
        };
        let mut client = RetryClient::new(handle.endpoint().clone(), policy);
        let err = client.sweep(&[poisoned]).expect_err("a poisoned sweep must fail, not spin");
        assert!(err.to_string().contains("failed"), "unexpected sweep error: {err}");
        let err = client.sim(&poisoned).expect_err("a poisoned SIM must fail, not spin");
        assert!(err.to_string().contains("failed"), "unexpected sim error: {err}");
        handle.shutdown();
    }

    #[test]
    fn the_connection_cap_refuses_with_a_typed_error() {
        let config = ServeConfig {
            seed: 5,
            small: true,
            threads: 1,
            max_connections: 1,
            ..Default::default()
        };
        let handle = serve(unix_endpoint("cap"), config).expect("server binds");
        let endpoint = handle.endpoint().clone();
        let mut first = Client::connect(&endpoint).unwrap();
        assert!(matches!(first.round_trip(&Request::Ping).unwrap(), Response::Pong(_)));

        // Over the cap: the server pushes one typed refusal frame and
        // closes without waiting for a request.
        let mut refused = endpoint.connect().unwrap();
        let frame = read_frame(&mut refused).expect("the refusal frame arrives");
        let resp = Response::decode(&frame).expect("the refusal frame decodes");
        let Response::Error { code, message } = resp else {
            panic!("expected a refusal, got {resp:?}")
        };
        assert_eq!(code, ERR_OVERLOADED);
        assert!(message.contains("connection cap"), "unexpected refusal: {message}");
        assert_eq!(handle.counters().refused_connections, 1);
        drop(refused);

        // Freeing the admitted slot re-opens the door.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut third = Client::connect(&endpoint).unwrap();
            if matches!(third.round_trip(&Request::Ping), Ok(Response::Pong(_))) {
                break;
            }
            assert!(Instant::now() < deadline, "the connection slot was never freed");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
    }

    #[test]
    fn drain_refuses_new_work_but_still_answers_stats() {
        let handle = serve(unix_endpoint("drain"), test_config()).expect("server binds");
        let key = SimKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 20,
        };
        let mut client = Client::connect(handle.endpoint()).unwrap();
        assert!(matches!(
            client.round_trip(&Request::Sim(key)).unwrap(),
            Response::Result(_)
        ));

        handle.state.begin_shutdown();
        // New work is refused with the typed drain error — even for a
        // memoized key: drain means *no* new work.
        let resp = client.round_trip(&Request::Sim(key)).unwrap();
        let Response::Error { code, message } = resp else {
            panic!("expected a drain refusal, got {resp:?}")
        };
        assert_eq!(code, ERR_OVERLOADED);
        assert!(message.contains("draining"), "unexpected drain message: {message}");
        // ...but introspection still works mid-drain.
        let Response::Stats(stats) = client.round_trip(&Request::Stats).unwrap() else {
            panic!("expected stats mid-drain")
        };
        assert_eq!(stats.shed, 1);
        drop(client);
        handle.wait();
    }

    #[test]
    fn a_panicking_accept_loop_still_unlinks_the_socket() {
        let endpoint = unix_endpoint("panic-guard");
        let Endpoint::Unix(path) = endpoint.clone() else { unreachable!() };
        let config = ServeConfig {
            seed: 5,
            small: true,
            threads: 1,
            accept_panic_after: Some(1),
            ..Default::default()
        };
        let handle = serve(endpoint.clone(), config).expect("server binds");
        assert!(path.exists(), "the socket file must exist after bind");

        // The first accept fires the injected panic; the drop-guard
        // must unlink the socket file on the unwind path.
        let _ = endpoint.connect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while path.exists() {
            assert!(
                Instant::now() < deadline,
                "the socket file survived the accept-loop panic"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown(); // reap the worker pool; accept is already dead
    }
}
