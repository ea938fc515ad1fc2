//! Parallel sweep engine for the experiment matrix.
//!
//! The paper's evaluation is a cross-product of workloads × ISA variants
//! × memory systems × L2 latencies, and every cell of that product is an
//! independent pure computation: build + verify a workload (once per
//! `(workload, variant)` pair), then run one deterministic timing
//! simulation. This module exploits that independence with one queue of
//! per-trace tasks over [`std::thread::scope`] workers ([`run`]):
//!
//! * a worker claims a trace and takes its state from the [`Runner`]'s
//!   per-trace store, which loads the workload from the image cache or
//!   builds and verifies it (building dominates the cold-start cost —
//!   each build runs the functional emulator against the scalar
//!   reference) and prepares the trace once
//!   ([`mom3d_cpu::PreparedTrace`]: decode, wakeup lists, warmed
//!   caches); the worker then runs the trace's cells on it;
//! * an idle worker starts the next trace nobody has started, and once
//!   none is left joins the trace with the most unclaimed cells, getting
//!   the same `PreparedTrace` from the store (waiting if it is still
//!   being prepared); there is no barrier between building and
//!   simulating. A worker holds a trace's state only while it runs
//!   cells of it, so the last worker to move on frees it;
//! * the per-worker [`Metrics`] are merged back into the [`Runner`]
//!   cache in deterministic (enumeration) order, so the figure/table
//!   formatters downstream see exactly what a serial run would have
//!   computed — bit-identical, since each cell's simulation is pure and
//!   its configuration is derived from the same [`SimKey::config`].
//!
//! [`prebuild_workloads`] is the same queue with no cells.
//!
//! Callers pass the worker count ([`default_threads`]: all available
//! cores). [`SweepReport::write_json`] emits a machine-readable
//! `BENCH_sweep.json` with wall-clock per cell.
//!
//! ```no_run
//! use mom3d_bench::{fig9, sweep, Runner};
//!
//! let mut r = Runner::new(7);
//! let report = sweep::run(&mut r, &sweep::full_grid(), sweep::default_threads());
//! println!("{} cells in {:?}", report.cells.len(), report.wall);
//! print!("{}", fig9(&mut r)); // served entirely from the cache
//! report.write_json("BENCH_sweep.json".as_ref()).unwrap();
//! ```

use crate::cache::CacheStats;
use crate::json::json_string;
use crate::runner::{Runner, SimKey, WorkloadTiming};
use crate::stats::Percentiles;
use mom3d_cpu::{BackendId, BackendRegistry, MemorySystemKind, Metrics};
use mom3d_kernels::{IsaVariant, Workload, WorkloadKind};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::ops::Range;
use std::sync::Mutex;
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
    /// Wall-clock of this cell's simulation phase, its trace's
    /// preparation included when this cell did the preparing
    /// ([`Duration::ZERO`] when the cell was served from the runner's
    /// cache).
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

/// Makes every listed workload resident in the runner's per-trace
/// store: [`run`]'s task queue with no cells, so `threads` workers each
/// claim a pair and load it from the runner's workload-image cache (when
/// attached) or build and verify it, and store a fresh image only after
/// it verifies.
///
/// # Panics
///
/// Panics if any workload fails to build or verify (see
/// [`Runner::load_or_build`]), or if a worker thread panics.
pub fn prebuild_workloads(
    runner: &mut Runner,
    pairs: &[(WorkloadKind, IsaVariant)],
    threads: usize,
) {
    let mut seen = HashSet::new();
    let tasks: Vec<TraceTask> = pairs
        .iter()
        .filter(|&&pair| seen.insert(pair))
        .map(|&(kind, variant)| TraceTask { kind, variant, jobs: 0..0 })
        .collect();
    execute(runner, &tasks, &[], threads);
}

/// Runs a sweep: simulates every not-yet-cached cell of `cells` on
/// `threads` worker threads and merges the metrics into the runner's
/// cache, returning per-cell results (cached cells included, flagged
/// `reused`) in first-occurrence enumeration order.
///
/// The work is one queue of per-trace tasks, in first-occurrence order.
/// A worker claims a trace, takes its [`mom3d_cpu::PreparedTrace`] from
/// the runner's store (which loads or builds and verifies the workload
/// and prepares the trace, once) and runs the trace's cells on it. A worker
/// out of cells of its own drops the trace's state and starts the next
/// trace nobody has started, or once none is left joins the trace with
/// the most unclaimed cells, sharing its `PreparedTrace` through the
/// store. No trace's state outlives the return. Determinism is
/// unaffected because every cell is an independent pure simulation and
/// results are published in enumeration order.
///
/// # Panics
///
/// Panics if a workload fails to build/verify, a simulation fails, or a
/// worker thread panics.
pub fn run(runner: &mut Runner, cells: &[SimKey], threads: usize) -> SweepReport {
    let start = Instant::now();
    let unique = unique_cells(cells);
    let mut jobs: Vec<SimKey> =
        unique.iter().copied().filter(|c| runner.cached_metrics(c).is_none()).collect();
    sort_by_trace(&mut jobs);
    let mut tasks = Vec::new();
    let mut first = 0;
    for trace in jobs.chunk_by(|a, b| (a.kind, a.variant) == (b.kind, b.variant)) {
        let (kind, variant) = (trace[0].kind, trace[0].variant);
        tasks.push(TraceTask { kind, variant, jobs: first..first + trace.len() });
        first += trace.len();
    }
    let mut walls: HashMap<SimKey, Duration> = HashMap::with_capacity(jobs.len());
    for (j, metrics, wall) in execute(runner, &tasks, &jobs, threads) {
        runner.insert_metrics(jobs[j], metrics);
        walls.insert(jobs[j], wall);
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
        threads: threads.clamp(1, jobs.len().max(1)),
        wall: start.elapsed(),
        workload_cache: runner.cache().map(|c| c.stats()),
        sharding: None,
        cells,
    }
}

/// One trace of the task queue: the cells to simulate on it, as a
/// range of the job list.
struct TraceTask {
    kind: WorkloadKind,
    variant: IsaVariant,
    jobs: Range<usize>,
}

/// What the workers of [`execute`] share, behind one mutex.
struct Queue {
    /// The first task no worker has started.
    next: usize,
    /// Each task's jobs no worker has claimed.
    unclaimed: Vec<Range<usize>>,
}

/// Runs `tasks` on up to `threads` scoped workers (see [`run`]).
/// Returns every job's metrics and wall-clock, in job order.
fn execute(
    runner: &Runner,
    tasks: &[TraceTask],
    jobs: &[SimKey],
    threads: usize,
) -> Vec<(usize, Metrics, Duration)> {
    let units: usize = tasks.iter().map(|t| t.jobs.len().max(1)).sum();
    if units == 0 {
        return Vec::new();
    }
    let unclaimed = tasks.iter().map(|t| t.jobs.clone()).collect();
    let queue = Mutex::new(Queue { next: 0, unclaimed });
    let mut fresh: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.clamp(1, units))
            .map(|_| s.spawn(|| work(runner, tasks, jobs, &queue)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep worker panicked")).collect()
    });
    fresh.sort_by_key(|&(j, ..)| j);
    fresh
}

/// One worker of [`execute`]: claims and runs steps until none is left,
/// holding the state of the trace it works on until it moves on.
fn work(
    runner: &Runner,
    tasks: &[TraceTask],
    jobs: &[SimKey],
    queue: &Mutex<Queue>,
) -> Vec<(usize, Metrics, Duration)> {
    let mut done = Vec::new();
    let mut held = None;
    let mut mine = None;
    while let Some((t, job)) = next_claim(queue, mine) {
        let Some(job) = job else {
            runner.resident(tasks[t].kind, tasks[t].variant);
            continue;
        };
        mine = Some(t);
        let (metrics, wall) = runner.simulate_held(&jobs[job], &mut held);
        done.push((job, metrics, wall));
    }
    done
}

/// The next step for a worker last busy on task `mine`: a job of that
/// task, else the next task nobody has started (with its first job, if
/// it has any), else a job of the task with the most unclaimed jobs;
/// `None` once nothing is left.
fn next_claim(queue: &Mutex<Queue>, mine: Option<usize>) -> Option<(usize, Option<usize>)> {
    let mut q = queue.lock().expect("sweep queue poisoned");
    if let Some(t) = mine {
        if let Some(job) = q.unclaimed[t].next() {
            return Some((t, Some(job)));
        }
    }
    if q.next < q.unclaimed.len() {
        let t = q.next;
        q.next += 1;
        return Some((t, q.unclaimed[t].next()));
    }
    let t = (0..q.unclaimed.len()).max_by_key(|&t| q.unclaimed[t].len())?;
    Some((t, Some(q.unclaimed[t].next()?)))
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
fn cells_fig3() -> Vec<SimKey> {
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

/// Figure 6 / Figure 7 / Figure 11 / Table 4 cells: the three realistic
/// memory systems under their native ISA variants.
fn cells_fig6() -> Vec<SimKey> {
    let mut cells = Vec::new();
    for kind in WorkloadKind::ALL {
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::MultiBanked, 20));
        cells.push(cell(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, 20));
        cells.push(cell(kind, IsaVariant::Mom3d, MemorySystemKind::VectorCache3d, 20));
    }
    cells
}

/// Figure 9 cells: the full ISA × memory-system slowdown matrix.
fn cells_fig9() -> Vec<SimKey> {
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
fn cells_fig10() -> Vec<SimKey> {
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

/// Every cell any paper figure or table needs — the `all` binary's
/// sweep: the cells of Figures 3, 6 and 9, then Figure 10's extra
/// latencies, each key at its first occurrence.
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

/// Sorts `cells` trace by trace: traces in first-occurrence order, the
/// cells of a trace in their given order. This is the order [`run`]
/// simulates its jobs in, so one trace's cells run back to back.
pub(crate) fn sort_by_trace(cells: &mut [SimKey]) {
    let mut first: HashMap<(WorkloadKind, IsaVariant), usize> = HashMap::new();
    for c in cells.iter() {
        let next = first.len();
        first.entry((c.kind, c.variant)).or_insert(next);
    }
    cells.sort_by_key(|c| first[&(c.kind, c.variant)]);
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
    use std::sync::Arc;

    #[test]
    fn full_grid_has_no_duplicates() {
        let grid = full_grid();
        let set: HashSet<_> = grid.iter().copied().collect();
        assert_eq!(set.len(), grid.len());
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

    /// No trace's prepared state is alive once [`run`] returns: every
    /// worker dropped what it held, and the store keeps only weak
    /// handles.
    #[test]
    fn no_prepared_trace_outlives_a_sweep() {
        let cells: Vec<SimKey> = [WorkloadKind::GsmEncode, WorkloadKind::JpegDecode]
            .into_iter()
            .flat_map(|kind| {
                [20, 40, 60]
                    .map(|l2| cell(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, l2))
            })
            .collect();
        for threads in [1, 3] {
            let mut r = Runner::small(3);
            assert_eq!(run(&mut r, &cells, threads).fresh_cells(), cells.len());
            assert_eq!(r.live_prepared(), 0, "{threads} workers");
        }
    }

    /// A cell on an unregistered backend panics out of [`run`] at 1, 2
    /// and 4 workers while the other traces' cells are in flight, and
    /// no worker is left waiting: the call returns within the deadline.
    #[test]
    fn an_unregistered_backend_panics_out_of_run_at_any_worker_count() {
        let mut cells = Vec::new();
        for kind in [WorkloadKind::GsmEncode, WorkloadKind::JpegDecode, WorkloadKind::Mpeg2Decode] {
            for memory in [MemorySystemKind::Ideal, MemorySystemKind::VectorCache] {
                cells.push(cell(kind, IsaVariant::Mom, memory, 20));
            }
        }
        let bogus = BackendId::new("no-such-backend");
        cells.insert(3, cell(WorkloadKind::JpegDecode, IsaVariant::Mom, bogus, 20));
        for threads in [1, 2, 4] {
            let cells = cells.clone();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut r = Runner::small(3);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(&mut r, &cells, threads)
                }));
                tx.send(outcome.is_err()).expect("the test is waiting");
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(300))
                .unwrap_or_else(|_| panic!("{threads} workers: run never returned"));
            assert!(panicked, "{threads} workers: the bogus cell must panic out of run");
        }
    }

    /// Eight workers on two traces, with a runner that already holds one
    /// workload and two cells' metrics, so six workers can only join a
    /// trace another one started: the results equal the serial runner's
    /// bit for bit, and the cached cells and workload are reused.
    #[test]
    fn eight_workers_on_two_traces_equal_the_serial_runner() {
        let mut grid = Vec::new();
        for kind in [WorkloadKind::GsmEncode, WorkloadKind::JpegEncode] {
            for memory in [MemorySystemKind::Ideal, MemorySystemKind::MultiBanked] {
                grid.push(cell(kind, IsaVariant::Mom, memory, 20));
            }
            for l2 in [20, 40, 60] {
                grid.push(cell(kind, IsaVariant::Mom, MemorySystemKind::VectorCache, l2));
            }
            grid.push(cell(kind, IsaVariant::Mom, BackendId::new("dram-burst"), 20));
        }
        let mut serial = Runner::small(5);
        let expected: Vec<Metrics> = grid
            .iter()
            .map(|c| serial.metrics(c.kind, c.variant, c.memory, c.l2_latency))
            .collect();

        let mut r = Runner::small(5);
        let held = r.workload_arc(WorkloadKind::JpegEncode, IsaVariant::Mom);
        let held_timing = r.workload_timing(WorkloadKind::JpegEncode, IsaVariant::Mom);
        for i in [1, 8] {
            r.insert_metrics(grid[i], expected[i]);
        }
        let report = run(&mut r, &grid, 8);
        assert_eq!(report.threads, 8);
        assert_eq!(report.fresh_cells(), grid.len() - 2);
        for (i, (c, m)) in report.cells.iter().zip(&expected).enumerate() {
            assert_eq!(c.key, grid[i]);
            assert_eq!(c.metrics, *m, "{:?}", c.key);
            assert_eq!(c.reused, i == 1 || i == 8, "{:?}", c.key);
            assert_eq!(r.cached_metrics(&c.key), Some(*m));
        }
        let now = r.workload_arc(WorkloadKind::JpegEncode, IsaVariant::Mom);
        assert!(Arc::ptr_eq(&held, &now), "the held workload is not rebuilt");
        assert_eq!(r.workload_timing(WorkloadKind::JpegEncode, IsaVariant::Mom), held_timing);
        assert!(r.workload_timing(WorkloadKind::GsmEncode, IsaVariant::Mom).build > Duration::ZERO);
    }

    #[test]
    fn extra_backend_cells_cover_registry_only_backends() {
        let extras = cells_extra_backends();
        // dram-burst, hbm-wide and pim-vector are registered but not
        // paper organizations, so the extended grid must pick each up
        // for every workload — with no binary naming any of them.
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
