//! `mom3d-serve`: a resident simulation server.
//!
//! Every experiment binary pays process startup, workload-image cache
//! probing, workload hydration and sweep setup per invocation. This
//! module keeps all of that **resident in one long-lived process**:
//! verified workloads (behind [`Arc`]), and the `SimKey → Metrics` memo
//! table survive across requests, so the steady-state cost of a
//! repeated simulation request is one memo lookup plus two frames on a
//! socket.
//!
//! Architecture (all std, no tokio):
//!
//! * the shared server core (`crate::server`, also under the
//!   `mom3d-shard` coordinator) binds the [`Endpoint`], runs the accept
//!   loop and one handler thread per connection, and decodes
//!   [`Request`]s ([`crate::protocol`]);
//! * this module answers them against the resident [`MemoTable`]:
//!   published cells answer immediately, identical in-flight cells
//!   coalesce onto the running simulation, and fresh cells are claimed
//!   and scheduled onto
//! * a **simulation worker pool** (the same worker-count policy as the
//!   [`crate::sweep`] engine, sharing its [`Runner`] build/verify and
//!   `simulate` paths), which publishes each result to the memo table,
//!   waking every handler streaming that cell;
//! * workloads resolve through a second memo table, so concurrent
//!   requests for different cells of one workload build it exactly
//!   once — hydrated from the on-disk workload-image cache when one is
//!   attached.
//!
//! Failure containment: frame-level damage costs one connection,
//! request-level damage costs one error reply, and a panicking
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
//! idempotent). Shutdown is a **graceful drain** that finishes
//! in-flight simulations, refuses new work, force-closes only the
//! stragglers and flushes a final counter/memo-stat line.
//! `--chaos-seed` wraps every accepted connection in a seeded
//! [`ChaosStream`](crate::faults::ChaosStream) for hostile self-testing.

use crate::faults::ChaosConfig;
use crate::memo::{ClaimGuard, MemoTable, Schedule};
use crate::protocol::{
    CellReply, Endpoint, Hello, Request, Response, ServeCounters, Stream, ERR_OVERLOADED,
    ERR_SIM_FAILED, ERR_TIMEOUT,
};
use crate::runner::{simulate, Runner, SimKey};
use crate::server::{self, respond, Core, Service};
use crate::sweep;
use crate::WorkloadCache;
use mom3d_cpu::Metrics;
use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};
use std::collections::{HashSet, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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

/// Shared state of one server: the core, the resident tables and the
/// job queue.
#[derive(Debug)]
struct ServeState {
    core: Core,
    runner: Runner,
    hello: Hello,
    workloads: MemoTable<(WorkloadKind, IsaVariant), Arc<Workload>>,
    memo: MemoTable<SimKey, Metrics>,
    queue: Mutex<VecDeque<SimKey>>,
    queue_ready: Condvar,
    counters: Counters,
    queue_limit: usize,
}

impl ServeState {
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
        let mut queue = self.queue.lock().expect("job queue poisoned");
        queue.push_back(key);
        drop(queue);
        self.queue_ready.notify_one();
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
            let queued = self.queue.lock().expect("job queue poisoned").len();
            if queued < self.queue_limit {
                return None;
            }
            format!("pending-work queue is full ({queued} cell(s) queued); back off and retry")
        };
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
        Some(Response::Error { code: ERR_OVERLOADED, message })
    }
}

impl Service for ServeState {
    const WHO: &'static str = "mom3d-serve handler";
    // Shard traffic belongs to the mom3d-shard coordinator; a worker
    // pointed at the wrong endpoint gets a typed error (and a usable
    // connection), not a hang or a close.
    const REDIRECT: &'static str =
        "shard opcodes are served by the mom3d-shard coordinator, not mom3d-serve";
    /// A connection idle this long is reclaimed (the client reconnects
    /// on its next request).
    const IDLE_TIMEOUT: Duration = Duration::from_secs(300);
    const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

    fn core(&self) -> &Core {
        &self.core
    }

    fn handle(&self, _conn_id: u64, stream: &mut Stream, req: Request) -> Option<bool> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        Some(match req {
            Request::Ping => respond(stream, &Response::Pong(self.hello)).is_ok(),
            Request::Stats => respond(stream, &Response::Stats(self.counters_snapshot())).is_ok(),
            Request::Shutdown => {
                let _ = respond(stream, &Response::Bye);
                self.begin_shutdown();
                false
            }
            Request::Sim(key) => match self.shed_reply() {
                Some(reply) => respond(stream, &reply).is_ok(),
                None => serve_sim(self, stream, key),
            },
            Request::Sweep(cells) => match self.shed_reply() {
                Some(reply) => respond(stream, &reply).is_ok(),
                None => serve_sweep(self, stream, cells),
            },
            Request::ShardClaim { .. } | Request::CellDone { .. } | Request::ShardFin { .. } => {
                return None
            }
        })
    }

    /// Wakes the worker pool. Taking the queue lock first means no
    /// worker can be between its latch check and its wait.
    fn wake(&self) {
        drop(self.queue.lock().expect("job queue poisoned"));
        self.queue_ready.notify_all();
    }
}

/// Resolves a workload into residence, building (or image-cache
/// loading) it exactly once across all concurrent requesters.
///
/// Panics propagate to the worker's `catch_unwind`; the [`ClaimGuard`]
/// un-claims the pair so a failed build is retryable.
fn resolve_workload(
    state: &ServeState,
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

/// One worker-pool iteration: simulate a claimed cell and publish (or,
/// on panic, un-claim) it.
fn run_cell(state: &ServeState, key: SimKey) {
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

fn worker_loop(state: &ServeState) {
    loop {
        let key = {
            let mut queue = state.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(key) = queue.pop_front() {
                    break key;
                }
                if state.core.shutting_down() {
                    return; // drained + shutting down
                }
                queue = state.queue_ready.wait(queue).expect("job queue poisoned");
            }
        };
        run_cell(state, key);
    }
}

/// Waits (deadline-bounded) for `key` to publish, mapping abandonment
/// to [`ERR_SIM_FAILED`] and deadline expiry to [`ERR_TIMEOUT`]. The
/// error reply is boxed to keep the happy path's `Result` small.
fn wait_bounded(state: &ServeState, key: SimKey) -> Result<Metrics, Box<Response>> {
    let mut pending = vec![key];
    match state.memo.wait_any_for(&mut pending, RESULT_DEADLINE) {
        Some(Ok((_, metrics))) => Ok(metrics),
        Some(Err(_)) => Err(Box::new(Response::Error {
            code: ERR_SIM_FAILED,
            message: format!(
                "simulation of {} {} on {} failed server-side",
                key.kind, key.variant, key.memory
            ),
        })),
        None => Err(Box::new(Response::Error {
            code: ERR_TIMEOUT,
            message: format!(
                "simulation of {} {} on {} did not complete within {}s",
                key.kind,
                key.variant,
                key.memory,
                RESULT_DEADLINE.as_secs()
            ),
        })),
    }
}

/// Obtains one cell's metrics: memo hit, coalesce onto an in-flight
/// simulation, or claim + schedule onto the worker pool and wait
/// (bounded by [`RESULT_DEADLINE`]).
fn obtain(state: &ServeState, key: SimKey) -> Result<(Metrics, bool), Box<Response>> {
    match state.memo.schedule(key) {
        Schedule::Ready(m) => Ok((m, true)),
        Schedule::InFlight => wait_bounded(state, key).map(|m| (m, false)),
        Schedule::Claimed => {
            state.enqueue(key);
            wait_bounded(state, key).map(|m| (m, false))
        }
    }
}

/// Serves one `SIM` request. Returns false when the connection died.
fn serve_sim(state: &ServeState, stream: &mut Stream, key: SimKey) -> bool {
    let resp = match obtain(state, key) {
        Ok((metrics, memo_hit)) => {
            state.counters.results_streamed.fetch_add(1, Ordering::Relaxed);
            Response::Result(CellReply { key, memo_hit, metrics })
        }
        Err(error) => *error,
    };
    respond(stream, &resp).is_ok()
}

/// Serves one `SWEEP` request: dedupes the grid, answers memo hits
/// immediately, schedules the misses, then streams the remaining cells
/// **in completion order** as the worker pool publishes them.
fn serve_sweep(state: &ServeState, stream: &mut Stream, cells: Vec<SimKey>) -> bool {
    let mut seen = HashSet::new();
    let unique: Vec<SimKey> = cells.into_iter().filter(|c| seen.insert(*c)).collect();

    let mut results: u32 = 0;
    let mut pending: Vec<SimKey> = Vec::new();
    for key in unique {
        match state.memo.schedule(key) {
            Schedule::Ready(metrics) => {
                state.counters.results_streamed.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Result(CellReply { key, memo_hit: true, metrics });
                if respond(stream, &reply).is_err() {
                    return false; // scheduled cells still complete + memoize
                }
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
        let step = match state.memo.wait_any_for(&mut pending, RESULT_DEADLINE) {
            Some(step) => step,
            None => {
                // Nothing published for the whole deadline. Reply typed
                // and close: the undelivered cells stay scheduled and
                // memoize when they finish, and a retrying client
                // re-requests exactly the cells it never received.
                let reply = Response::Error {
                    code: ERR_TIMEOUT,
                    message: format!(
                        "no sweep result within {}s; {} cell(s) undelivered",
                        RESULT_DEADLINE.as_secs(),
                        pending.len()
                    ),
                };
                let _ = respond(stream, &reply);
                return false;
            }
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
        if respond(stream, &reply).is_err() {
            return false;
        }
    }
    respond(stream, &Response::Done { results }).is_ok()
}

/// A running server. Dropping the handle does **not** stop the server —
/// call [`ServerHandle::wait`] (block until a client sends `SHUTDOWN`)
/// or [`ServerHandle::shutdown`] (stop it now).
#[derive(Debug)]
pub struct ServerHandle {
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
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


    /// Blocks until the server shuts down (a client sent `SHUTDOWN`),
    /// then joins the worker pool and drains the open connections.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // With the worker pool joined, every scheduled cell is
        // published: the drain only waits for handlers to finish
        // streaming.
        self.state.core.drain();
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
    let mut runner = if config.small { Runner::small(config.seed) } else { Runner::new(config.seed) };
    runner = runner.with_cache(config.cache);

    let (listener, endpoint) = server::bind(endpoint)?;

    let workloads = MemoTable::new();
    let built = if config.prebuild {
        let pairs: Vec<(WorkloadKind, IsaVariant)> = WorkloadKind::ALL
            .into_iter()
            .flat_map(|k| IsaVariant::ALL.map(|v| (k, v)))
            .collect();
        sweep::prebuild_workloads(&mut runner, &pairs, threads);
        for &(kind, variant) in &pairs {
            if let Schedule::Claimed = workloads.schedule((kind, variant)) {
                workloads.publish((kind, variant), runner.workload_arc(kind, variant));
            }
        }
        pairs.len() as u64
    } else {
        0
    };

    let hello = Hello {
        seed: config.seed,
        small: config.small,
        threads: threads.min(u32::MAX as usize) as u32,
    };
    let state = Arc::new(ServeState {
        core: Core::new(endpoint, config.max_connections, config.chaos, config.accept_panic_after),
        runner,
        hello,
        workloads,
        memo: MemoTable::new(),
        queue: Mutex::new(VecDeque::new()),
        queue_ready: Condvar::new(),
        counters: Counters::default(),
        queue_limit: if config.queue_limit == 0 { DEFAULT_QUEUE_LIMIT } else { config.queue_limit },
    });
    state.counters.workloads_built.store(built, Ordering::Relaxed);

    let workers: Vec<JoinHandle<()>> = (0..threads)
        .map(|i| {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("mom3d-sim-{i}"))
                .spawn(move || worker_loop(&state))
                .expect("spawning a simulation worker")
        })
        .collect();
    let accept = server::spawn_accept(Arc::clone(&state), listener);

    Ok(ServerHandle { state, accept: Some(accept), workers })
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
        while handle.state.queue.lock().unwrap().len() < 5 {
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
