//! Parallel sweep engine for the experiment matrix.
//!
//! The paper's evaluation is a cross-product of workloads × ISA variants
//! × memory systems × L2 latencies, and every cell of that product is an
//! independent pure computation: build + verify a workload (once per
//! `(workload, variant)` pair), then run one deterministic timing
//! simulation. This module exploits that independence:
//!
//! 1. [`prebuild_workloads`] builds and verifies the needed workloads in
//!    parallel (building dominates the cold-start cost — each build runs
//!    the functional emulator against the scalar reference);
//! 2. [`run`] partitions the simulation cells over [`std::thread::scope`]
//!    workers pulling from an atomic work queue, sharing the verified
//!    workloads read-only behind [`Arc`];
//! 3. the per-worker [`Metrics`] are merged back into the [`Runner`]
//!    cache in deterministic (enumeration) order, so the figure/table
//!    formatters downstream see exactly what a serial run would have
//!    computed — bit-identical, since each cell's simulation is pure and
//!    its configuration is derived from the same [`SimKey::config`].
//!
//! Worker count comes from [`threads_from_env`] (`MOM3D_SWEEP_THREADS`,
//! default: all available cores). [`SweepReport::write_json`] emits a
//! machine-readable `BENCH_sweep.json` with wall-clock per cell.
//!
//! ```no_run
//! use mom3d_bench::{fig9, sweep, Runner};
//!
//! let mut r = Runner::new(7);
//! let report = sweep::run(&mut r, &sweep::full_grid(), sweep::threads_from_env());
//! println!("{} cells in {:?}", report.cells.len(), report.wall);
//! print!("{}", fig9(&mut r)); // served entirely from the cache
//! report.write_json(&sweep::json_path_from_env()).unwrap();
//! ```

use crate::cache::CacheStats;
use crate::json::json_string;
use crate::runner::{simulate, verify_timed, Runner, SimKey, WorkloadTiming};
use crate::stats::Percentiles;
use mom3d_cpu::{BackendId, BackendRegistry, MemorySystemKind, Metrics};
use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// The sweep hands workloads and metrics across threads; keep that a
// compile-time fact rather than a runtime surprise.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Workload>();
    assert_send_sync::<Metrics>();
    assert_send_sync::<SimKey>();
};

/// One simulated cell of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult {
    /// Which cell.
    pub key: SimKey,
    /// The simulation's metrics (bit-identical to a serial run).
    pub metrics: Metrics,
    /// Wall-clock of this cell's simulation phase ([`Duration::ZERO`]
    /// when the cell was served from the runner's cache).
    pub wall: Duration,
    /// Build/verify wall-clock of the cell's workload. The workload is
    /// built once and shared, so cells over the same
    /// `(workload, variant)` pair repeat the same phase numbers; cells
    /// whose workload was already cached before the sweep report zero.
    pub workload: WorkloadTiming,
    /// True when the cell was already cached and not re-simulated.
    pub reused: bool,
}

/// What one worker process contributed to a distributed sweep
/// ([`crate::shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's id (`--id` of `mom3d-shard-worker`).
    pub id: u32,
    /// Cells this worker completed (first publish wins; a cell a
    /// worker re-simulated after losing the race is not counted).
    pub cells: u64,
    /// Wall-clock between the worker's first claim and its last
    /// completed cell, as observed by the coordinator.
    pub wall: Duration,
    /// p50/p99/max of this worker's per-cell simulation wall-clock, in
    /// nanoseconds (summarized by [`crate::stats::percentiles`], the
    /// same nearest-rank convention as the load generator's report).
    pub cell_ns: Percentiles,
}

/// The distributed-execution block of a sharded sweep's report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sharding {
    /// Per-worker contribution, sorted by worker id.
    pub workers: Vec<WorkerStats>,
    /// Shard re-partitions: batches stolen from a straggler's grant and
    /// re-issued to an idle worker.
    pub steals: u64,
    /// Cells replayed from the crash-resume manifest instead of being
    /// re-simulated (`0` on a fresh run).
    pub resumed_cells: u64,
}

/// Everything one [`run`] call did, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The runner's data seed.
    pub seed: u64,
    /// True when reduced-geometry workloads were swept.
    pub small: bool,
    /// Worker threads actually spawned for the simulation phase (the
    /// requested count, clamped to the number of uncached cells — 1
    /// when everything was served from the cache).
    pub threads: usize,
    /// End-to-end wall-clock of the sweep (workload building included).
    pub wall: Duration,
    /// Workload-image cache counters, when the runner has a cache
    /// attached (`None` = uncached run). The counters are the cache's
    /// cumulative totals at the end of this run, so on a warm start a
    /// hit count equal to the workload count proves every build was
    /// skipped.
    pub workload_cache: Option<CacheStats>,
    /// Distributed-execution statistics when the sweep ran sharded over
    /// worker processes ([`crate::shard::coordinate`]); `None` for an
    /// in-process [`run`].
    pub sharding: Option<Sharding>,
    /// Per-cell results, in enumeration order.
    pub cells: Vec<CellResult>,
}

impl SweepReport {
    /// Roll-up of every cell's counters (via [`Metrics::merge`]):
    /// aggregate simulated cycles, instructions, activity across the
    /// whole sweep.
    pub fn total(&self) -> Metrics {
        let mut total = Metrics::default();
        for cell in &self.cells {
            total.merge(&cell.metrics);
        }
        total
    }

    /// Cells actually simulated by this run (not served from cache).
    pub fn fresh_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.reused).count()
    }

    /// The report as a JSON document (the `BENCH_sweep.json` schema,
    /// `mom3d/sweep/v5`).
    ///
    /// v3 replaced the per-cell `wall_ns` of v2 with a `phases` object
    /// breaking the cell's cost into workload build, verification and
    /// simulation wall-clock; v4 added the top-level `workload_cache`
    /// object (enabled flag plus hit/miss/rejected counters of the
    /// cross-invocation workload-image cache), so a warm start is
    /// machine-checkable: `hits` equals the workload count and every
    /// cell's `build_ns`/`verify_ns` collapses to the image-load time;
    /// v5 adds the top-level `sharding` block (`null` for in-process
    /// sweeps): per-worker cell counts, wall-clock and per-cell latency
    /// percentiles, plus work-steal and manifest-resume counters of a
    /// distributed [`crate::shard`] run.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024 + 512 * self.cells.len());
        s.push_str("{\n");
        s.push_str("  \"schema\": \"mom3d/sweep/v5\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"small\": {},\n", self.small));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"wall_ns\": {},\n", self.wall.as_nanos()));
        let cache = self.workload_cache.unwrap_or_default();
        s.push_str(&format!(
            "  \"workload_cache\": {{\"enabled\": {}, \"hits\": {}, \"misses\": {}, \
             \"rejected\": {}}},\n",
            self.workload_cache.is_some(),
            cache.hits,
            cache.misses,
            cache.rejected
        ));
        match &self.sharding {
            None => s.push_str("  \"sharding\": null,\n"),
            Some(sh) => {
                let workers: Vec<String> = sh
                    .workers
                    .iter()
                    .map(|w| {
                        format!(
                            "{{\"id\": {}, \"cells\": {}, \"wall_ns\": {}, \
                             \"cell_p50_ns\": {}, \"cell_p99_ns\": {}, \"cell_max_ns\": {}}}",
                            w.id,
                            w.cells,
                            w.wall.as_nanos(),
                            w.cell_ns.p50,
                            w.cell_ns.p99,
                            w.cell_ns.max
                        )
                    })
                    .collect();
                s.push_str(&format!(
                    "  \"sharding\": {{\"workers\": [{}], \"steals\": {}, \
                     \"resumed_cells\": {}}},\n",
                    workers.join(", "),
                    sh.steals,
                    sh.resumed_cells
                ));
            }
        }
        s.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            // Workload labels and backend ids are arbitrary strings (any
            // registered backend is sweepable), so they are escaped —
            // a backend id containing `"` or `\` must not corrupt the
            // document.
            s.push_str(&format!(
                "    {{\"workload\": {}, \"isa\": {}, \"memory\": {}, \
                 \"l2_latency\": {}, \"phases\": {{\"build_ns\": {}, \"verify_ns\": {}, \
                 \"sim_ns\": {}}}, \"reused\": {}, \"metrics\": {}}}{}\n",
                json_string(&cell.key.kind.to_string()),
                json_string(&cell.key.variant.to_string()),
                json_string(&cell.key.memory.to_string()),
                cell.key.l2_latency,
                cell.workload.build.as_nanos(),
                cell.workload.verify.as_nanos(),
                cell.wall.as_nanos(),
                cell.reused,
                metrics_json(&cell.metrics),
                if i + 1 == self.cells.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"totals\": {}\n", metrics_json(&self.total())));
        s.push_str("}\n");
        s
    }

    /// Writes [`SweepReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn metrics_json(m: &Metrics) -> String {
    format!(
        "{{\"cycles\": {}, \"instructions\": {}, \"packed_ops\": {}, \
         \"vec_mem_instrs\": {}, \"scalar_mem_instrs\": {}, \"port_accesses\": {}, \
         \"l2_activity\": {}, \"vec_words\": {}, \"mov3d_instrs\": {}, \
         \"mov3d_words\": {}, \"d3_writes\": {}, \"l2_scalar_accesses\": {}, \
         \"l2_hits\": {}, \"l2_misses\": {}, \"l1_accesses\": {}, \
         \"coherence_invalidations\": {}, \"dram_row_hits\": {}, \
         \"dram_row_misses\": {}}}",
        m.cycles,
        m.instructions,
        m.packed_ops,
        m.vec_mem_instrs,
        m.scalar_mem_instrs,
        m.port_accesses,
        m.l2_activity,
        m.vec_words,
        m.mov3d_instrs,
        m.mov3d_words,
        m.d3_writes,
        m.l2_scalar_accesses,
        m.l2_hits,
        m.l2_misses,
        m.l1_accesses,
        m.coherence_invalidations,
        m.dram_row_hits,
        m.dram_row_misses,
    )
}

/// The default worker-thread count: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker-thread count: `MOM3D_SWEEP_THREADS` when set to a positive
/// integer, otherwise every available core. A set-but-invalid value
/// (zero, non-numeric, non-unicode) falls back to the default with a
/// warning on stderr — printed once per process, not once per call
/// (every experiment binary consults this several times) — rather than
/// being silently ignored.
pub fn threads_from_env() -> usize {
    threads_from_value(std::env::var_os("MOM3D_SWEEP_THREADS").as_deref())
}

/// Once-flag for the invalid-`MOM3D_SWEEP_THREADS` warning (the same
/// dedupe idiom as `WorkloadCache::store_warned`).
static THREADS_WARNED: AtomicBool = AtomicBool::new(false);

/// The parsing/fallback policy behind [`threads_from_env`], separated
/// from the environment so it can be tested without `set_var` (which
/// is unsound next to concurrent `getenv` calls in a parallel test
/// binary).
fn threads_from_value(raw: Option<&std::ffi::OsStr>) -> usize {
    let Some(raw) = raw else {
        return default_threads();
    };
    match raw.to_str().and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => {
            let fallback = default_threads();
            if !THREADS_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: MOM3D_SWEEP_THREADS={raw:?} is not a positive integer; \
                     using the default ({fallback} threads)"
                );
            }
            fallback
        }
    }
}

/// Where the JSON report goes: `MOM3D_SWEEP_JSON` when set, otherwise
/// `BENCH_sweep.json` in the working directory.
pub fn json_path_from_env() -> PathBuf {
    std::env::var_os("MOM3D_SWEEP_JSON").map_or_else(|| PathBuf::from("BENCH_sweep.json"), PathBuf::from)
}

/// What one worker produced for one `(workload, variant)` pair.
type PreparedWorkload = (usize, Workload, WorkloadTiming, bool);

/// Shared state of the prebuild pipeline (guarded by one mutex; a
/// condvar wakes idle workers when verify jobs appear or the pipeline
/// drains).
struct PrebuildState {
    /// Next index of `todo` to claim for the cache-load/build stage.
    next_build: usize,
    /// Built-but-unverified workloads waiting for a verify worker:
    /// `(index, workload, build wall-clock)`.
    verify_q: Vec<(usize, Workload, Duration)>,
    /// Finished pairs: `(index, workload, timing, from_cache)`.
    done: Vec<PreparedWorkload>,
    /// Pairs not yet in `done`.
    remaining: usize,
    /// A worker panicked; everyone else should stop waiting.
    failed: bool,
}

/// Makes every listed workload available in the runner's in-memory
/// cache, using all of `threads` scoped workers for the cold path and
/// the runner's workload-image cache (when attached) to skip it.
///
/// The cold path is a two-stage pipeline over one worker pool rather
/// than a fused build+verify per pair: a worker that finishes **building**
/// a workload pushes it onto a verify queue and moves on, and any idle
/// worker picks the verification up. Build and emulator-verify of
/// *different ISA variants of the same workload* (and of different
/// workloads) therefore overlap freely — previously a pair's
/// verification was stuck behind its own build on the same worker, so
/// the slowest build+verify chain bounded the cold start.
///
/// With an image cache attached, each pair first attempts a cache load
/// (in parallel too); hits skip both stages, misses flow down the
/// pipeline and are persisted after their verification passes.
///
/// # Panics
///
/// Panics if any workload fails to build or verify (see
/// [`Runner::build_workload`]), or if a worker thread panics.
pub fn prebuild_workloads(
    runner: &mut Runner,
    pairs: &[(WorkloadKind, IsaVariant)],
    threads: usize,
) {
    let mut seen = HashSet::new();
    let todo: Vec<(WorkloadKind, IsaVariant)> = pairs
        .iter()
        .copied()
        .filter(|&(k, v)| seen.insert((k, v)) && !runner.has_workload(k, v))
        .collect();
    if todo.is_empty() {
        return;
    }
    let shared: &Runner = runner;
    let state = Mutex::new(PrebuildState {
        next_build: 0,
        verify_q: Vec::new(),
        done: Vec::with_capacity(todo.len()),
        remaining: todo.len(),
        failed: false,
    });
    let cvar = Condvar::new();
    std::thread::scope(|s| {
        // Each pair runs at most one stage (build or verify) at a time,
        // so more than one worker per pair can never be simultaneously
        // busy.
        let workers = threads.clamp(1, todo.len());
        for _ in 0..workers {
            s.spawn(|| {
                let mut guard = state.lock().expect("prebuild state poisoned");
                loop {
                    if guard.failed {
                        break;
                    }
                    // Verification first: it retires pairs and keeps the
                    // queue from growing unboundedly.
                    if let Some((i, wl, build)) = guard.verify_q.pop() {
                        drop(guard);
                        let step = run_step(&state, &cvar, || {
                            let (digest, verify) = verify_timed(&wl);
                            if let Some(cache) = shared.cache() {
                                let key = shared.image_key(wl.kind(), wl.variant());
                                cache.store(&wl, &key, digest);
                            }
                            verify
                        });
                        guard = state.lock().expect("prebuild state poisoned");
                        guard.done.push((i, wl, WorkloadTiming { build, verify: step }, false));
                        guard.remaining -= 1;
                        cvar.notify_all();
                        continue;
                    }
                    if guard.next_build < todo.len() {
                        let i = guard.next_build;
                        guard.next_build += 1;
                        drop(guard);
                        let (kind, variant) = todo[i];
                        let outcome = run_step(&state, &cvar, || {
                            if let Some(cache) = shared.cache() {
                                let t0 = Instant::now();
                                if let Some(wl) = cache.load(&shared.image_key(kind, variant)) {
                                    return (wl, t0.elapsed(), true);
                                }
                            }
                            let (wl, build) = shared.build_workload_unverified(kind, variant);
                            (wl, build, false)
                        });
                        guard = state.lock().expect("prebuild state poisoned");
                        match outcome {
                            (wl, load, true) => {
                                let timing =
                                    WorkloadTiming { build: load, verify: Duration::ZERO };
                                guard.done.push((i, wl, timing, true));
                                guard.remaining -= 1;
                            }
                            (wl, build, false) => guard.verify_q.push((i, wl, build)),
                        }
                        cvar.notify_all();
                        continue;
                    }
                    if guard.remaining == 0 {
                        break;
                    }
                    // Nothing to do yet: another worker's build will feed
                    // the verify queue (or finish the pipeline).
                    guard = cvar.wait(guard).expect("prebuild state poisoned");
                }
            });
        }
    });
    let mut done = state.into_inner().expect("prebuild state poisoned").done;
    done.sort_by_key(|&(i, ..)| i);
    for (_, wl, timing, _) in done {
        runner.insert_workload_timed(Arc::new(wl), timing);
    }
}

/// Runs one pipeline stage outside the lock, making sure a panicking
/// stage wakes every waiting worker (otherwise the scope would deadlock
/// joining workers parked on the condvar) before the panic propagates.
fn run_step<T>(
    state: &Mutex<PrebuildState>,
    cvar: &Condvar,
    step: impl FnOnce() -> T,
) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
        Ok(v) => v,
        Err(payload) => {
            if let Ok(mut guard) = state.lock() {
                guard.failed = true;
            }
            cvar.notify_all();
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs a sweep: simulates every not-yet-cached cell of `cells` on
/// `threads` worker threads and merges the metrics into the runner's
/// cache, returning per-cell results (cached cells included, flagged
/// `reused`) in first-occurrence enumeration order.
///
/// Workers pull cells from a shared atomic queue (cells differ wildly in
/// cost — `mpeg2 encode` dwarfs `gsm encode` — so static partitioning
/// would idle most threads); determinism is unaffected because every
/// cell is an independent pure simulation and results are published in
/// enumeration order.
///
/// # Panics
///
/// Panics if a workload fails to build/verify, a simulation fails, or a
/// worker thread panics.
pub fn run(runner: &mut Runner, cells: &[SimKey], threads: usize) -> SweepReport {
    let start = Instant::now();
    let threads = threads.max(1);

    let unique = unique_cells(cells);

    // Phase 1: make every needed workload available behind an Arc.
    let pairs: Vec<(WorkloadKind, IsaVariant)> = unique
        .iter()
        .filter(|c| runner.cached_metrics(c).is_none())
        .map(|c| (c.kind, c.variant))
        .collect();
    prebuild_workloads(runner, &pairs, threads);

    // Phase 2: simulate the uncached cells.
    let mut jobs: Vec<(SimKey, Arc<Workload>)> = Vec::new();
    for &c in &unique {
        if runner.cached_metrics(&c).is_none() {
            jobs.push((c, runner.workload_arc(c.kind, c.variant)));
        }
    }
    let next = AtomicUsize::new(0);
    let mut fresh: Vec<(usize, Metrics, Duration)> = Vec::with_capacity(jobs.len());
    let workers = threads.clamp(1, jobs.len().max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((key, wl)) = jobs.get(i) else { break };
                        let t0 = Instant::now();
                        let metrics = simulate(key, wl);
                        out.push((i, metrics, t0.elapsed()));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            fresh.extend(h.join().expect("sweep worker panicked"));
        }
    });

    // Phase 3: publish into the runner cache in enumeration order.
    fresh.sort_by_key(|&(i, ..)| i);
    let mut walls: HashMap<SimKey, Duration> = HashMap::with_capacity(fresh.len());
    for (i, metrics, wall) in fresh {
        runner.insert_metrics(jobs[i].0, metrics);
        walls.insert(jobs[i].0, wall);
    }

    let cells = unique
        .into_iter()
        .map(|key| {
            let metrics = runner.cached_metrics(&key).expect("cell simulated or cached");
            let workload = runner.workload_timing(key.kind, key.variant);
            match walls.get(&key) {
                Some(&wall) => CellResult { key, metrics, wall, workload, reused: false },
                None => {
                    CellResult { key, metrics, wall: Duration::ZERO, workload, reused: true }
                }
            }
        })
        .collect();
    SweepReport {
        seed: runner.seed(),
        small: runner.is_small(),
        threads: workers,
        wall: start.elapsed(),
        workload_cache: runner.cache().map(|c| c.stats()),
        sharding: None,
        cells,
    }
}

fn cell(
    kind: WorkloadKind,
    variant: IsaVariant,
    memory: impl Into<BackendId>,
    l2_latency: u32,
) -> SimKey {
    SimKey { kind, variant, memory: memory.into(), l2_latency }
}

/// Figure 3 cells: MOM on ideal (baseline), multi-banked and vector
/// cache, all workloads, 20-cycle L2.
pub fn cells_fig3() -> Vec<SimKey> {
    let mut cells = Vec::new();
    for kind in WorkloadKind::ALL {
        for memory in [
            MemorySystemKind::Ideal,
            MemorySystemKind::MultiBanked,
            MemorySystemKind::VectorCache,
        ] {
            cells.push(cell(kind, IsaVariant::Mom, memory, 20));
        }
    }
    cells
}

/// Figure 6 / Figure 11 / Table 4 cells: the three realistic memory
/// systems under their native ISA variants.
pub fn cells_fig6() -> Vec<SimKey> {
    let mut cells = Vec::new();
    for kind in WorkloadKind::ALL {
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20));
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20));
        cells.push(cell(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20));
    }
    cells
}

/// Figure 7 cells: MOM vs MOM+3D traffic on the vector cache only (the
/// multi-banked column of [`cells_fig6`] is not read by the Figure 7
/// formatter).
pub fn cells_fig7() -> Vec<SimKey> {
    let mut cells = Vec::new();
    for kind in WorkloadKind::ALL {
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20));
        cells.push(cell(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20));
    }
    cells
}

/// Figure 9 cells: the full ISA × memory-system slowdown matrix.
pub fn cells_fig9() -> Vec<SimKey> {
    let mut cells = Vec::new();
    for kind in WorkloadKind::ALL {
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::Ideal, 20));
        cells.push(cell(kind, IsaVariant::Mmx, MemorySystemKind::MultiBanked, 20));
        cells.push(cell(kind, IsaVariant::Mmx, MemorySystemKind::Ideal, 20));
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20));
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20));
        cells.push(cell(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20));
    }
    cells
}

/// Figure 10 cells: the L2-latency sweep (20/40/60 cycles) on the four
/// workloads the paper plots.
pub fn cells_fig10() -> Vec<SimKey> {
    let kinds = [
        WorkloadKind::Mpeg2Decode,
        WorkloadKind::Mpeg2Encode,
        WorkloadKind::GsmEncode,
        WorkloadKind::JpegEncode,
    ];
    let mut cells = Vec::new();
    for kind in kinds {
        for l2 in [20, 40, 60] {
            cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, l2));
            cells.push(cell(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, l2));
        }
    }
    cells
}

/// Workload pairs Table 1 needs (trace statistics only — no simulation).
pub fn pairs_table1() -> Vec<(WorkloadKind, IsaVariant)> {
    WorkloadKind::ALL
        .into_iter()
        .flat_map(|k| [(k, IsaVariant::Mom), (k, IsaVariant::Mom3d)])
        .collect()
}

/// Every cell any figure or table binary needs — the `all` binary's
/// sweep, and the full-geometry Figure 9 reproduction grid.
pub fn full_grid() -> Vec<SimKey> {
    let mut cells = Vec::new();
    cells.extend(cells_fig3());
    cells.extend(cells_fig6());
    cells.extend(cells_fig9());
    cells.extend(cells_fig10());
    unique_cells(&cells)
}

/// `cells` without repeats, each key at its first occurrence: the one
/// grid dedupe every sweep, server and client path uses.
pub fn unique_cells(cells: &[SimKey]) -> Vec<SimKey> {
    let mut seen = HashSet::with_capacity(cells.len());
    cells.iter().copied().filter(|&c| seen.insert(c)).collect()
}

/// Cells for every registered backend *beyond* the four paper
/// organizations (the opt-in extra-backend sweep dimension): each extra
/// backend runs every workload under the MOM ISA — plus MOM+3D when the
/// backend has a 3D register file — at the default L2 latency. Purely
/// registry-driven: a backend registered at startup shows up here (and
/// in the [`crate::backend_matrix`] report) without any hand-listing.
pub fn cells_extra_backends() -> Vec<SimKey> {
    let mut cells = Vec::new();
    for entry in BackendRegistry::entries() {
        if MemorySystemKind::parse(entry.id).is_some() {
            continue; // the paper grid already covers these
        }
        for kind in WorkloadKind::ALL {
            cells.push(cell(kind, IsaVariant::Mom, entry.backend_id(), 20));
            if entry.has_3d {
                cells.push(cell(kind, IsaVariant::Mom3d, entry.backend_id(), 20));
            }
        }
    }
    cells
}

/// [`full_grid`] plus [`cells_extra_backends`] — what
/// `all --all-backends` sweeps. The two are disjoint by construction
/// (the extras skip every paper id, and the paper grid emits nothing
/// else), so no dedup is needed; [`run`] deduplicates defensively
/// anyway.
pub fn extended_grid() -> Vec<SimKey> {
    let mut cells = full_grid();
    cells.extend(cells_extra_backends());
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_has_no_duplicates_and_covers_figures() {
        let grid = full_grid();
        let set: HashSet<_> = grid.iter().copied().collect();
        assert_eq!(set.len(), grid.len());
        for cells in [cells_fig3(), cells_fig6(), cells_fig7(), cells_fig9(), cells_fig10()] {
            for c in cells {
                assert!(set.contains(&c), "{c:?} missing from full grid");
            }
        }
        // 5 workloads x 6 fig9 configs + fig10 extras; everything else
        // overlaps.
        assert_eq!(grid.len(), 30 + 4 * 2 * 2);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = SweepReport {
            seed: 7,
            small: true,
            threads: 2,
            wall: Duration::from_nanos(5),
            workload_cache: Some(CacheStats { hits: 2, misses: 1, rejected: 0 }),
            sharding: Some(Sharding {
                workers: vec![WorkerStats {
                    id: 1,
                    cells: 2,
                    wall: Duration::from_nanos(9),
                    cell_ns: Percentiles { p50: 4, p99: 5, max: 5 },
                }],
                steals: 1,
                resumed_cells: 3,
            }),
            cells: vec![
                CellResult {
                    key: cell(
                        WorkloadKind::GsmEncode,
                        IsaVariant::Mom,
                        MemorySystemKind::VectorCache,
                        20,
                    ),
                    metrics: Metrics { cycles: 1, ..Default::default() },
                    wall: Duration::from_nanos(3),
                    workload: WorkloadTiming {
                        build: Duration::from_nanos(11),
                        verify: Duration::from_nanos(7),
                    },
                    reused: false,
                },
                // A hostile registered-backend name: quotes, backslash
                // and a control byte must come out escaped, not raw.
                CellResult {
                    key: cell(
                        WorkloadKind::GsmEncode,
                        IsaVariant::Mom,
                        BackendId::new("evil\"back\\slash\nbackend"),
                        20,
                    ),
                    metrics: Metrics::default(),
                    wall: Duration::ZERO,
                    workload: WorkloadTiming::default(),
                    reused: false,
                },
            ],
        };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"schema\": \"mom3d/sweep/v5\""));
        assert!(json.contains(
            "\"workload_cache\": {\"enabled\": true, \"hits\": 2, \"misses\": 1, \"rejected\": 0}"
        ));
        // v5 sharding block: per-worker stats plus steal/resume counters.
        assert!(json.contains(
            "\"sharding\": {\"workers\": [{\"id\": 1, \"cells\": 2, \"wall_ns\": 9, \
             \"cell_p50_ns\": 4, \"cell_p99_ns\": 5, \"cell_max_ns\": 5}], \
             \"steals\": 1, \"resumed_cells\": 3}"
        ));
        // An in-process sweep reports the block as null, not absent.
        let mut serial = report.clone();
        serial.sharding = None;
        assert!(serial.to_json().contains("\"sharding\": null"));
        assert!(json.contains("\"dram_row_hits\": 0"));
        assert!(json.contains("\"workload\": \"gsm encode\""));
        assert!(json.contains("\"memory\": \"vector-cache\""));
        // v3 per-cell phase breakdown: build, verify and sim wall-clock.
        assert!(json.contains(
            "\"phases\": {\"build_ns\": 11, \"verify_ns\": 7, \"sim_ns\": 3}"
        ));
        assert!(json.contains("\"cycles\": 1"));
        // The hostile backend name is escaped into a single valid JSON
        // string: no raw quote/backslash/newline survives inside it.
        assert!(json.contains("\"memory\": \"evil\\\"back\\\\slash\\nbackend\""));
        assert!(!json.contains("evil\"back"));
    }

    #[test]
    fn sweep_records_phase_breakdown() {
        let mut r = Runner::small(3);
        let cells = [cell(WorkloadKind::GsmEncode, IsaVariant::Mom, MemorySystemKind::Ideal, 20)];
        let report = run(&mut r, &cells, 1);
        let c = &report.cells[0];
        assert!(!c.reused);
        assert!(c.workload.build > Duration::ZERO, "build phase must be timed");
        assert!(c.wall > Duration::ZERO, "sim phase must be timed");
        // A second sweep over the same cell reuses both the workload and
        // the metrics: the sim phase reports zero, the workload phases
        // keep their recorded cost.
        let again = run(&mut r, &cells, 1);
        assert!(again.cells[0].reused);
        assert_eq!(again.cells[0].wall, Duration::ZERO);
        assert_eq!(again.cells[0].workload, c.workload);
    }

    #[test]
    fn threads_env_parsing() {
        // Exercised through the pure value parser: mutating the real
        // environment here would race the concurrent `getenv` calls of
        // other tests in this binary.
        let default = default_threads();
        let parse = |v: Option<&str>| threads_from_value(v.map(std::ffi::OsStr::new));
        assert_eq!(parse(None), default);
        assert_eq!(parse(Some("3")), 3);
        assert_eq!(parse(Some(" 8 ")), 8, "surrounding whitespace is tolerated");
        // Invalid values fall back to the default (with a warning on
        // stderr) instead of being silently ignored.
        for bad in ["0", "-2", "lots", "", " "] {
            assert_eq!(parse(Some(bad)), default, "MOM3D_SWEEP_THREADS={bad:?}");
        }
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn extra_backend_cells_cover_registry_only_backends() {
        let extras = cells_extra_backends();
        // dram-burst, hbm-wide and pim-vector are registered but not
        // paper organizations, so the extended grid must pick each up
        // for every workload — with no figure binary naming any of them.
        for id in ["dram-burst", "hbm-wide", "pim-vector"] {
            let backend = BackendId::new(id);
            for kind in WorkloadKind::ALL {
                assert!(
                    extras.contains(&cell(kind, IsaVariant::Mom, backend, 20)),
                    "{kind:?} on {id} missing from the extra-backend cells"
                );
            }
        }
        // No paper backend sneaks in.
        for c in &extras {
            assert_eq!(MemorySystemKind::parse(c.memory.as_str()), None, "{c:?}");
        }
        // The extended grid is the full grid plus the extras, deduped.
        let ext = extended_grid();
        let set: HashSet<_> = ext.iter().copied().collect();
        assert_eq!(set.len(), ext.len());
        for c in full_grid().into_iter().chain(extras) {
            assert!(set.contains(&c));
        }
    }
}
