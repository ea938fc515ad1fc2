//! The four workloads: set-up, the untraced closed loop that gives the
//! end-to-end metrics, and the traced operations that give the
//! per-layer metrics. All run in this one process with at most two
//! worker threads and two client connections.

use crate::check::{Reference, Tally};
use crate::grids;
use crate::layers::{codec_probe, replay_cell, run_cell, vaccess_repeats, OpTrace, Sample};
use crate::metrics::{self, Counters, MetricList, END_TO_END};
use crate::stats::{self, median, median_of_medians, ratio, windowed_tail};
use crate::trace::{Span, Tracer};
use crate::Args;
use mom3d_bench::protocol::{CellReply, Endpoint, Request, Response, RetryClient, RetryPolicy};
use mom3d_bench::serve::{serve, ServeConfig, ServerHandle};
use mom3d_bench::shard::{coordinate, run_worker, ShardConfig, WorkerConfig, WorkerSummary};
use mom3d_bench::sweep::{self, SweepReport};
use mom3d_bench::{Runner, SimKey, WorkloadCache};
use mom3d_cpu::Metrics;
use mom3d_kernels::{decode_workload, IsaVariant, Workload, WorkloadKind};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["paper-cold", "design-space", "served", "sharded"];

/// Worker threads of every sweep, server and shard, and the number of
/// served client connections (the benchmark host has two cores).
const THREADS: usize = 2;

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Samples per window of every tail (see [`windowed_tail`]): a tail is
/// the 89th percentile of each window of 100 sweeps, cells, passes or
/// requests, the median over windows. Larger windows reach further into
/// the tail but read mostly the host's scheduling noise at these
/// latencies.
const TAIL_WINDOW: usize = 100;

/// With tracing on, every this-many-th served pass is traced: a traced
/// pass records a span per request, and a run makes tens of thousands
/// of passes.
const SERVED_TRACE_EVERY: u64 = 64;

/// Served requests per second one client connection is expected never
/// to exceed (about four times this host's rate). Each client reserves
/// room for the latencies of a whole run up front: a record that grew
/// by reallocation made the timed phase's peak resident set jump by
/// tens of MB at moments that depended on the host's speed.
const SERVED_MAX_RATE: f64 = 250_000.0;

/// What one benchmark run produced.
pub struct Output {
    pub metrics: MetricList,
    pub tally: Tally,
    pub counters: Counters,
    /// Correctness problems other than mismatching results.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

pub fn run(args: &Args, work: &Path) -> Output {
    match args.workload.as_str() {
        "paper-cold" => paper_cold(args),
        "design-space" => design_space(args, work),
        "served" => served(args, work),
        "sharded" => sharded(args, work),
        other => unreachable!("workload {other:?} passed argument validation"),
    }
}

/// Runs `make` [`SETUP_REPS`] times, handing every result but the last
/// to `discard`, and returns the last with the median set-up time. The
/// heap is trimmed after each discard: pages a discarded set-up freed,
/// left interleaved with the next set-up's, could not be trimmed later
/// and made the resident set of the timed phase vary by a fifth.
fn setup_reps<S>(mut make: impl FnMut(usize) -> S, mut discard: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            discard(prev);
            metrics::fresh_heap();
        }
        let t0 = Instant::now();
        last = Some(make(rep));
        times.push(t0.elapsed().as_secs_f64());
    }
    eprintln!("setup: {times:.3?} s");
    (
        last.expect("at least one set-up"),
        median(&times).expect("set-up times"),
    )
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Distinct `(workload, variant)` pairs of `cells`, in first-use order.
fn pairs_of(cells: &[SimKey]) -> Vec<(WorkloadKind, IsaVariant)> {
    let mut pairs = Vec::new();
    for c in cells {
        if !pairs.contains(&(c.kind, c.variant)) {
            pairs.push((c.kind, c.variant));
        }
    }
    pairs
}

fn check_cells(
    reference: &Reference,
    cells: impl IntoIterator<Item = (SimKey, Metrics)>,
) -> Vec<String> {
    cells
        .into_iter()
        .filter_map(|(k, m)| reference.check(&k, &m).err())
        .collect()
}

// ---------------------------------------------------------------------------
// Sweep workloads: paper-cold, design-space, sharded
// ---------------------------------------------------------------------------

/// Everything a sweep workload's set-up leaves behind.
struct SweepSetup {
    grid: Vec<SimKey>,
    reference: Reference,
    /// The verified workloads of the grid, from the reference's runner.
    workloads: Workloads,
}

type Workloads = HashMap<(WorkloadKind, IsaVariant), Arc<Workload>>;

impl SweepSetup {
    /// Takes the reference and workloads of a runner that simulated
    /// `grid`.
    fn new(grid: Vec<SimKey>, reference: Reference, runner: &mut Runner) -> SweepSetup {
        let workloads = pairs_of(&grid)
            .into_iter()
            .map(|(k, v)| ((k, v), runner.workload_arc(k, v)))
            .collect();
        SweepSetup {
            grid,
            reference,
            workloads,
        }
    }
}

/// Fills a fresh image cache in `dir` with the workloads of `grid` and
/// computes the reference on the same runner.
fn cached_setup(seed: u64, grid: &[SimKey], dir: &Path) -> (Runner, Reference) {
    let _ = std::fs::remove_dir_all(dir);
    let mut runner = Runner::new(seed).with_cache(WorkloadCache::open(dir));
    assert!(
        runner.cache().is_some(),
        "cannot create the image cache in {}",
        dir.display()
    );
    sweep::prebuild_workloads(&mut runner, &pairs_of(grid), THREADS);
    let reference = Reference::compute(&mut runner, grid);
    (runner, reference)
}

/// Results of a sweep workload's timed phase.
#[derive(Default)]
struct SweepRun {
    reports: Vec<SweepReport>,
    traced_walls: Vec<f64>,
    samples: Vec<Sample>,
    tally: Tally,
    elapsed_s: f64,
    /// Peak resident set of each untraced operation, MB.
    peak_rss: Vec<f64>,
}

/// Simulated cells and their results, in grid order.
type Cells = Vec<(SimKey, Metrics)>;

/// A traced operation's wall time and its cells' results.
type TracedOp = io::Result<(f64, Cells)>;

/// The closed loop: one operation after another until `args.seconds`
/// have passed. With tracing on, untraced and traced operations
/// alternate, so both see the same machine conditions.
fn drive_sweep(
    args: &Args,
    reference: &Reference,
    tracer: &Tracer,
    mut untraced: impl FnMut() -> io::Result<SweepReport>,
    mut traced: impl FnMut(&OpTrace) -> TracedOp,
) -> SweepRun {
    let mut run = SweepRun::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut op = 0;
    loop {
        metrics::fresh_heap();
        metrics::reset_peak_rss();
        let result = untraced();
        run.peak_rss.push(metrics::peak_rss_mb());
        match result {
            Ok(rep) => {
                let errors = check_cells(reference, rep.cells.iter().map(|c| (c.key, c.metrics)));
                run.tally.record(errors, None);
                run.reports.push(rep);
            }
            Err(e) => run.tally.record(Vec::new(), Some(e.to_string())),
        }
        if args.trace {
            op += 1;
            metrics::fresh_heap();
            let t = OpTrace::new(tracer, op);
            match traced(&t) {
                Ok((wall, cells)) => {
                    run.tally.record(check_cells(reference, cells), None);
                    run.traced_walls.push(wall);
                    run.samples.push(t.into_sample());
                }
                Err(e) => run.tally.record(Vec::new(), Some(e.to_string())),
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    run.elapsed_s = secs(start.elapsed());
    run
}

/// Per-operation work of a sweep: cells, simulated instructions and
/// cycles. Identical for every operation of a run.
fn sweep_work(rep: &SweepReport) -> [u64; 3] {
    let total = rep.total();
    [rep.cells.len() as u64, total.instructions, total.cycles]
}

fn work_counters(names: [&str; 3], values: [u64; 3]) -> Counters {
    names
        .iter()
        .zip(values)
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect()
}

/// End-to-end metrics of a sweep workload. A "request" of a sweep is
/// one cell: its simulation wall time as the sweep engine measured it.
/// Rates are per sweep, medians over sweeps, like the sweep times.
fn sweep_end_to_end(setup_s: f64, run: &SweepRun) -> MetricList {
    let walls: Vec<f64> = run.reports.iter().map(|r| secs(r.wall)).collect();
    let cells: Vec<f64> = run
        .reports
        .iter()
        .flat_map(|r| r.cells.iter().map(|c| secs(c.wall) * 1e6))
        .collect();
    let mut per_cell: HashMap<SimKey, Vec<f64>> = HashMap::new();
    for c in run.reports.iter().flat_map(|r| &r.cells) {
        per_cell.entry(c.key).or_default().push(secs(c.wall) * 1e6);
    }
    let per_sweep = |rate: fn(&SweepReport) -> f64| -> f64 {
        let rates: Vec<f64> = run.reports.iter().map(|r| rate(r) / secs(r.wall)).collect();
        median(&rates).unwrap_or(0.0)
    };
    let (sweep_tail, sweep_pct) = windowed_tail(&walls, TAIL_WINDOW).unwrap_or((0.0, 0.0));
    let (req_tail, req_pct) = windowed_tail(&cells, TAIL_WINDOW).unwrap_or((0.0, 0.0));
    eprintln!(
        "sweeps: {} and cells: {} (tails = median over windows of {TAIL_WINDOW} of p{:.1} and p{:.1})",
        walls.len(),
        cells.len(),
        sweep_pct * 100.0,
        req_pct * 100.0
    );
    let values = [
        setup_s,
        median(&walls).unwrap_or(0.0),
        sweep_tail,
        per_sweep(|r| r.total().instructions as f64 / 1e6),
        median_of_medians(per_cell.values().map(Vec::as_slice)).unwrap_or(0.0),
        req_tail,
        per_sweep(|r| r.cells.len() as f64),
        median(&run.peak_rss).unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n.to_string(), v, u))
        .collect()
}

/// Layer values a sweep workload measures once per run rather than per
/// traced operation.
fn sweep_extras(setup: &SweepSetup, run: &SweepRun, threads: usize) -> Sample {
    let busy: Vec<f64> = run
        .reports
        .iter()
        .map(|r| r.cells.iter().map(|c| ns(c.wall)).sum())
        .collect();
    let eff: Vec<f64> = run
        .reports
        .iter()
        .zip(&busy)
        .map(|(r, &b)| stats::parallel_eff(b, threads, ns(r.wall)))
        .collect();
    let untraced = median(&run.reports.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
    let traced = median(&run.traced_walls);
    let (repeated, total) = vaccess_repeats(setup.workloads.values().map(|w| w.trace()));
    let mut extra = Sample::new();
    extra.insert("sweep.busy_ns".into(), median(&busy).unwrap_or(0.0));
    extra.insert("sweep.parallel_eff".into(), median(&eff).unwrap_or(0.0));
    if let (Some(u), Some(t)) = (untraced, traced) {
        extra.insert("trace.overhead_frac".into(), (t - u) / u);
    }
    extra.insert(
        "mem.vaccess_repeat_frac".into(),
        ratio(repeated as f64, total as f64),
    );
    extra.insert(
        "cpu.trace_replays".into(),
        ratio(setup.grid.len() as f64, setup.workloads.len() as f64),
    );
    extra.insert(
        "failed_frac".into(),
        stats::failed_frac(run.tally.failed, run.tally.attempted),
    );
    extra
}

/// Assembles a sweep workload's output from its set-up and timed phase.
fn sweep_output(
    args: &Args,
    setup: &SweepSetup,
    setup_s: f64,
    run: SweepRun,
    tracer: Tracer,
) -> Output {
    let mut problems = Vec::new();
    let mut counters = Counters::new();
    if let Some(first) = run.reports.first() {
        let w = sweep_work(first);
        if run.reports.iter().any(|r| sweep_work(r) != w) {
            problems
                .push("sweep work (cells, instructions, cycles) differs between operations".into());
        }
        counters = work_counters(["op.cells", "op.sim_instrs", "op.sim_cycles"], w);
    }
    let metrics = if args.trace {
        let extra = sweep_extras(setup, &run, THREADS);
        let (m, layer_counters, unsteady) = metrics::roll_up(&run.samples, &extra);
        counters.extend(layer_counters);
        problems.extend(unsteady);
        m
    } else {
        sweep_end_to_end(setup_s, &run)
    };
    Output {
        metrics,
        tally: run.tally,
        counters,
        problems,
        spans: tracer.spans(),
    }
}

/// One sweep done through direct calls into the layers, each in a span
/// under the operation's root: `load` produces a verified workload for
/// each `(workload, variant)` pair (build and verify, or an image-cache
/// load), then every cell is simulated. Two threads pull pairs, then
/// cells, from shared queues, as the sweep engine's workers do. Returns
/// the operation's wall time, its results and the workloads.
fn traced_sweep(
    t: &OpTrace,
    grid: &[SimKey],
    load: impl Fn(WorkloadKind, IsaVariant) -> io::Result<Workload> + Sync,
) -> io::Result<(f64, Cells, Workloads)> {
    let pairs = pairs_of(grid);
    let next = AtomicUsize::new(0);
    let loaded: Mutex<io::Result<Workloads>> = Mutex::new(Ok(Workloads::new()));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                while let Some(&(k, v)) = pairs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let wl = load(k, v);
                    let mut guard = loaded.lock().expect("loaded workloads poisoned");
                    match (wl, guard.as_mut()) {
                        (Ok(wl), Ok(map)) => {
                            map.insert((k, v), Arc::new(wl));
                        }
                        (Err(e), _) => *guard = Err(e),
                        (Ok(_), Err(_)) => break,
                    }
                }
            });
        }
    });
    let loaded = match loaded.into_inner().expect("loaded workloads poisoned") {
        Ok(map) => map,
        Err(e) => {
            t.end_root("sweep");
            return Err(e);
        }
    };
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, SimKey, Metrics)>> = Mutex::default();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(key) = grid.get(i) else { break };
                let m = run_cell(t, None, key, loaded[&(key.kind, key.variant)].trace());
                results.lock().expect("results poisoned").push((i, *key, m));
            });
        }
    });
    let wall = t.end_root("sweep") as f64 / 1e9;
    let mut results = results.into_inner().expect("results poisoned");
    results.sort_by_key(|r| r.0);
    Ok((
        wall,
        results.into_iter().map(|(_, k, m)| (k, m)).collect(),
        loaded,
    ))
}

/// Replays every cell through the simulator's internal layers (see
/// [`replay_cell`]); with `simulate`, first simulates it in a `cpu.run`
/// span, for operations whose cells ran where the benchmark cannot time
/// them (the shard workers).
fn replay_cells(t: &OpTrace, cells: &[(SimKey, Metrics)], workloads: &Workloads, simulate: bool) {
    t.group("replay", |id| {
        for (key, _) in cells {
            let trace = workloads[&(key.kind, key.variant)].trace();
            if simulate {
                run_cell(t, Some(id), key, trace);
            }
            replay_cell(t, id, key, trace);
        }
    });
}

/// Loads every pair's image through a fresh handle on the cache, each
/// in a `cache.load` span.
fn load_probe(
    t: &OpTrace,
    parent: u64,
    dir: &Path,
    seed: u64,
    pairs: &[(WorkloadKind, IsaVariant)],
) -> io::Result<()> {
    let cache =
        WorkloadCache::open(dir).ok_or_else(|| io::Error::other("image cache unavailable"))?;
    let keys = Runner::new(seed);
    for &(k, v) in pairs {
        t.timed(Some(parent), "cache.load", &["cache.load_ns"], || {
            cache.load(&keys.image_key(k, v))
        })
        .ok_or_else(|| io::Error::other(format!("image cache miss for {k} {v}")))?;
    }
    add_cache_stats(t, &cache);
    Ok(())
}

/// Decodes every pair's cached image on its own, each in a
/// `kernels.image_decode` span, so the codec's share of a load shows.
fn decode_probe(
    t: &OpTrace,
    parent: u64,
    dir: &Path,
    seed: u64,
    pairs: &[(WorkloadKind, IsaVariant)],
) -> io::Result<()> {
    let cache =
        WorkloadCache::open(dir).ok_or_else(|| io::Error::other("image cache unavailable"))?;
    let keys = Runner::new(seed);
    for &(k, v) in pairs {
        let key = keys.image_key(k, v);
        let bytes = std::fs::read(cache.image_path(&key))?;
        t.timed(
            Some(parent),
            "kernels.image_decode",
            &["kernels.image_decode_ns"],
            || decode_workload(&bytes, &key),
        )
        .map_err(|e| io::Error::other(format!("decoding {k} {v}: {e}")))?;
        t.add("kernels.image_bytes", bytes.len() as f64);
    }
    Ok(())
}

fn add_cache_stats(t: &OpTrace, cache: &WorkloadCache) {
    let s = cache.stats();
    t.add("cache.hits", s.hits as f64);
    t.add("cache.misses", s.misses as f64);
    t.add("cache.rejected", s.rejected as f64);
}

/// `paper-cold`: what `all` costs a user. Each operation is a fresh
/// in-memory runner with no image cache sweeping the 46-cell full grid
/// on two threads: 15 builds, 15 verifies, 46 simulations.
fn paper_cold(args: &Args) -> Output {
    let seed = args.seed;
    let grid = sweep::full_grid();
    let (setup, setup_s) = setup_reps(
        |_| {
            let mut runner = Runner::new(seed);
            let reference = Reference::compute(&mut runner, &grid);
            SweepSetup::new(grid.clone(), reference, &mut runner)
        },
        drop,
    );
    let tracer = Tracer::new();
    let cold = Runner::new(seed);
    let run = drive_sweep(
        args,
        &setup.reference,
        &tracer,
        || Ok(sweep::run(&mut Runner::new(seed), &grid, THREADS)),
        |t| {
            let (wall, cells, workloads) = traced_sweep(t, &grid, |k, v| {
                let wl = t.timed(None, "kernels.build", &["kernels.build_ns"], || {
                    cold.build_workload_unverified(k, v).0
                });
                t.add("kernels.build_instrs", wl.trace().len() as f64);
                t.timed(None, "emu.verify", &["emu.verify_ns"], || {
                    wl.verify_digested()
                })
                .map_err(|e| io::Error::other(format!("verifying {k} {v}: {e}")))?;
                t.add("emu.verify_instrs", wl.trace().len() as f64);
                Ok(wl)
            })?;
            replay_cells(t, &cells, &workloads, false);
            Ok((wall, cells))
        },
    );
    sweep_output(args, &setup, setup_s, run, tracer)
}

/// `design-space`: a fixed sample of the tuner's design space swept on
/// the seed's data from a warm image cache, so image decode and the
/// stateful backends do the work while build and verify do none.
fn design_space(args: &Args, work: &Path) -> Output {
    let seed = args.seed;
    let grid = grids::design_space_sample();
    let pairs = pairs_of(&grid);
    let dir = work.join("cache");
    let (setup, setup_s) = setup_reps(
        |_| {
            let (mut runner, reference) = cached_setup(seed, &grid, &dir);
            SweepSetup::new(grid.clone(), reference, &mut runner)
        },
        drop,
    );
    let tracer = Tracer::new();
    let keys = Runner::new(seed);
    let run = drive_sweep(
        args,
        &setup.reference,
        &tracer,
        || {
            let mut runner = Runner::new(seed).with_cache(WorkloadCache::open(&dir));
            let rep = sweep::run(&mut runner, &grid, THREADS);
            match rep.workload_cache {
                Some(c) if c.hits == pairs.len() as u64 && c.misses == 0 => Ok(rep),
                other => Err(io::Error::other(format!("image cache not warm: {other:?}"))),
            }
        },
        |t| {
            let cache =
                WorkloadCache::open(&dir).ok_or_else(|| io::Error::other("no image cache"))?;
            let (wall, cells, workloads) = traced_sweep(t, &grid, |k, v| {
                t.timed(None, "cache.load", &["cache.load_ns"], || {
                    cache.load(&keys.image_key(k, v))
                })
                .ok_or_else(|| io::Error::other(format!("image cache miss for {k} {v}")))
            })?;
            add_cache_stats(t, &cache);
            t.group("probe", |id| decode_probe(t, id, &dir, seed, &pairs))?;
            replay_cells(t, &cells, &workloads, false);
            Ok((wall, cells))
        },
    );
    sweep_output(args, &setup, setup_s, run, tracer)
}

/// Runs `f`, inside a span when the operation is traced.
fn maybe_timed<T>(t: Option<&OpTrace>, span: &str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.timed(None, span, &[], f),
        None => f(),
    }
}

/// One sharded sweep: the coordinator and two workers as threads of
/// this process on a fresh unix socket, the workers hydrating from the
/// image cache in `dir`.
fn shard_op(
    seed: u64,
    grid: &[SimKey],
    dir: &Path,
    sock: PathBuf,
    t: Option<&OpTrace>,
) -> io::Result<(SweepReport, Vec<WorkerSummary>)> {
    let endpoint = Endpoint::Unix(sock.clone());
    let config = ShardConfig {
        seed,
        workers: 0,
        ..ShardConfig::default()
    };
    let out = std::thread::scope(|s| {
        let coordinator = s.spawn(|| {
            maybe_timed(t, "shard.coordinate", || {
                coordinate(endpoint.clone(), grid, &config)
            })
        });
        // Workers dial once the coordinator listens, so no operation
        // pays a worker's 50 ms redial pause.
        let t0 = Instant::now();
        while !sock.exists() && !coordinator.is_finished() && t0.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_micros(100));
        }
        let workers: Vec<_> = (0..THREADS as u32)
            .map(|id| {
                let config = WorkerConfig {
                    id,
                    threads: 1,
                    cache_dir: Some(dir.to_path_buf()),
                    ..WorkerConfig::default()
                };
                let endpoint = &endpoint;
                s.spawn(move || maybe_timed(t, "shard.worker", || run_worker(endpoint, &config)))
            })
            .collect();
        let summaries: Vec<io::Result<WorkerSummary>> = workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        let report = coordinator.join().expect("shard coordinator panicked")?;
        Ok((
            report,
            summaries.into_iter().collect::<io::Result<Vec<_>>>()?,
        ))
    });
    let _ = std::fs::remove_file(&sock);
    out
}

/// The frames one sharded sweep exchanges: per grant a claim, the grant,
/// one `CELL_DONE` per cell, the fin and its ack; then each worker's
/// last claim and the empty grant that retires it. Grants hold the
/// coordinator's automatic batch for two workers (about four each).
fn shard_frames(seed: u64, rep: &SweepReport) -> (Vec<Request>, Vec<Response>) {
    let (mut reqs, mut resps) = (Vec::new(), Vec::new());
    let batch = rep.cells.len().div_ceil(2 * 4).max(1);
    for chunk in rep.cells.chunks(batch) {
        reqs.push(Request::ShardClaim { worker: 0 });
        let cells = chunk.iter().map(|c| c.key).collect();
        resps.push(Response::ShardGrant {
            seed,
            small: false,
            cells,
        });
        for c in chunk {
            let wall_ns = c.wall.as_nanos() as u64;
            reqs.push(Request::CellDone {
                key: c.key,
                wall_ns,
                metrics: c.metrics,
            });
        }
        reqs.push(Request::ShardFin {
            completed: chunk.len() as u32,
        });
        resps.push(Response::Done {
            results: chunk.len() as u32,
        });
    }
    for worker in 0..THREADS as u32 {
        reqs.push(Request::ShardClaim { worker });
        resps.push(Response::ShardGrant {
            seed,
            small: false,
            cells: Vec::new(),
        });
    }
    (reqs, resps)
}

/// `sharded`: the full grid through the shard coordinator and two
/// in-process workers over a unix socket, both hydrating from one warm
/// image cache.
fn sharded(args: &Args, work: &Path) -> Output {
    let seed = args.seed;
    let grid = sweep::full_grid();
    let pairs = pairs_of(&grid);
    let dir = work.join("cache");
    let (setup, setup_s) = setup_reps(
        |_| {
            let (mut runner, reference) = cached_setup(seed, &grid, &dir);
            SweepSetup::new(grid.clone(), reference, &mut runner)
        },
        drop,
    );
    let tracer = Tracer::new();
    let socks = AtomicU64::new(0);
    let sock = || {
        work.join(format!(
            "shard-{}.sock",
            socks.fetch_add(1, Ordering::Relaxed)
        ))
    };
    let run = drive_sweep(
        args,
        &setup.reference,
        &tracer,
        || shard_op(seed, &grid, &dir, sock(), None).map(|(rep, _)| rep),
        |t| {
            let (rep, summaries) = shard_op(seed, &grid, &dir, sock(), Some(t))?;
            let wall = t.end_root("sharded-sweep") as f64 / 1e9;
            let cells: Vec<(SimKey, Metrics)> =
                rep.cells.iter().map(|c| (c.key, c.metrics)).collect();
            t.group("probe", |id| -> io::Result<()> {
                let inproc = t.timed(Some(id), "sweep.inprocess", &[], || {
                    sweep::run(
                        &mut Runner::new(seed).with_cache(WorkloadCache::open(&dir)),
                        &grid,
                        THREADS,
                    )
                });
                t.add("shard.overhead_ns", ns(rep.wall) - ns(inproc.wall));
                let (reqs, resps) = shard_frames(seed, &rep);
                codec_probe(t, Some(id), &reqs, &resps);
                load_probe(t, id, &dir, seed, &pairs)?;
                decode_probe(t, id, &dir, seed, &pairs)
            })?;
            let sharding = rep.sharding.clone().unwrap_or_default();
            t.add(
                "shard.grants",
                summaries.iter().map(|s| s.grants).sum::<u64>() as f64,
            );
            t.add("shard.steals", sharding.steals as f64);
            let per_worker: Vec<f64> = sharding.workers.iter().map(|w| w.cells as f64).collect();
            let (lo, hi) = per_worker
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
            t.add("shard.imbalance", ratio(hi, lo));
            replay_cells(t, &cells, &setup.workloads, true);
            Ok((wall, cells))
        },
    );
    sweep_output(args, &setup, setup_s, run, tracer)
}

// ---------------------------------------------------------------------------
// Served
// ---------------------------------------------------------------------------

/// What the served set-up leaves running.
struct ServedSetup {
    handle: ServerHandle,
    reference: Reference,
    endpoint: Endpoint,
    cache_dir: PathBuf,
}

/// One client connection's closed loop.
#[derive(Default)]
struct ClientRun {
    latencies_us: Vec<f64>,
    pass_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    samples: Vec<Sample>,
    /// Simulated instructions and cycles of every complete pass.
    pass_work: Vec<[u64; 2]>,
    instrs: u64,
    tally: Tally,
    retries: u64,
    timeouts: u64,
}

fn retry_client(endpoint: &Endpoint, seed: u64) -> RetryClient {
    RetryClient::new(
        endpoint.clone(),
        RetryPolicy {
            seed,
            ..RetryPolicy::default()
        },
    )
}

/// One served request: a `SIM` round trip, checked against the
/// reference. Returns the reply when it arrived.
fn sim_request(
    client: &mut RetryClient,
    key: &SimKey,
    reference: &Reference,
    tally: &mut Tally,
) -> Option<CellReply> {
    match client.sim(key) {
        Ok(reply) => {
            let errors = if reply.key == *key {
                reference
                    .check(key, &reply.metrics)
                    .err()
                    .into_iter()
                    .collect()
            } else {
                vec![format!(
                    "reply for {:?} to a request for {key:?}",
                    reply.key
                )]
            };
            tally.record(errors, None);
            Some(reply)
        }
        Err(e) => {
            tally.record(Vec::new(), Some(format!("SIM {key:?}: {e}")));
            None
        }
    }
}

/// Boots the server on a fresh warm image cache (`prebuild` hydrates
/// every paper workload from it), computes the reference, and visits
/// every key once so the memo table holds it.
fn served_setup(seed: u64, work: &Path, rep: usize, keys: &[SimKey]) -> io::Result<ServedSetup> {
    let cache_dir = work.join(format!("cache-{rep}"));
    let (_, reference) = cached_setup(seed, keys, &cache_dir);
    let endpoint = Endpoint::Unix(work.join(format!("serve-{rep}.sock")));
    let config = ServeConfig {
        seed,
        threads: THREADS,
        cache: WorkloadCache::open(&cache_dir),
        prebuild: true,
        ..ServeConfig::default()
    };
    let handle = serve(endpoint.clone(), config)?;
    let mut client = retry_client(&endpoint, seed);
    let mut tally = Tally::default();
    for key in keys {
        sim_request(&mut client, key, &reference, &mut tally);
    }
    if tally.failed > 0 {
        handle.shutdown();
        return Err(io::Error::other(format!(
            "set-up visit failed: {}",
            tally.first_error.unwrap_or_default()
        )));
    }
    Ok(ServedSetup {
        handle,
        reference,
        endpoint,
        cache_dir,
    })
}

/// `served`: two clients in closed loops of `SIM` round trips against
/// an in-process server whose memo table already holds every key of
/// the extended grid. A client's "sweep" is one pass over the grid in
/// a seeded order.
fn served(args: &Args, work: &Path) -> Output {
    let seed = args.seed;
    let keys = sweep::extended_grid();
    let (setup, setup_s) = setup_reps(
        |rep| served_setup(seed, work, rep, &keys),
        |s| {
            if let Ok(s) = s {
                s.handle.shutdown();
            }
        },
    );
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            let mut tally = Tally::default();
            tally.record(Vec::new(), Some(e.to_string()));
            let problems = vec![format!("served set-up: {e}")];
            return Output {
                metrics: Vec::new(),
                tally,
                counters: Counters::new(),
                problems,
                spans: Vec::new(),
            };
        }
    };

    let tracer = Tracer::new();
    let ops = AtomicU64::new(0);
    metrics::fresh_heap();
    metrics::reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let clients: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|c| {
                let (setup, keys, tracer, ops) = (&setup, &keys, &tracer, &ops);
                s.spawn(move || {
                    let mut run = ClientRun {
                        latencies_us: Vec::with_capacity((args.seconds * SERVED_MAX_RATE) as usize),
                        ..ClientRun::default()
                    };
                    let mut client = retry_client(&setup.endpoint, seed ^ (c + 1));
                    let mut pass = 0u64;
                    while Instant::now() < deadline {
                        let order = grids::served_pass(keys, seed, c, pass);
                        let traced = args.trace && pass % SERVED_TRACE_EVERY == 1;
                        pass += 1;
                        let t = traced
                            .then(|| OpTrace::new(tracer, ops.fetch_add(1, Ordering::Relaxed) + 1));
                        let mut exchanged = Vec::new();
                        let mut work = [0u64; 2];
                        let failed_before = run.tally.failed;
                        let t0 = Instant::now();
                        for key in &order {
                            let r0 = Instant::now();
                            let reply = maybe_timed(t.as_ref(), "client.sim", || {
                                sim_request(&mut client, key, &setup.reference, &mut run.tally)
                            });
                            run.latencies_us.push(secs(r0.elapsed()) * 1e6);
                            if let Some(reply) = reply {
                                work[0] += reply.metrics.instructions;
                                work[1] += reply.metrics.cycles;
                                if t.is_some() {
                                    exchanged.push(reply);
                                }
                            }
                        }
                        let wall = secs(t0.elapsed());
                        run.instrs += work[0];
                        if run.tally.failed == failed_before {
                            run.pass_work.push(work);
                        }
                        match t {
                            Some(t) => {
                                run.traced_walls
                                    .push(t.end_root("served-pass") as f64 / 1e9);
                                let reqs: Vec<Request> =
                                    exchanged.iter().map(|r| Request::Sim(r.key)).collect();
                                let resps: Vec<Response> =
                                    exchanged.into_iter().map(Response::Result).collect();
                                t.group("probe", |id| codec_probe(&t, Some(id), &reqs, &resps));
                                run.samples.push(t.into_sample());
                            }
                            None => run.pass_walls.push(wall),
                        }
                    }
                    let fc = client.counters();
                    (run.retries, run.timeouts) = (fc.retries, fc.timeouts);
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("served client panicked"))
            .collect()
    });
    let elapsed_s = secs(start.elapsed());
    let peak_rss = metrics::peak_rss_mb();
    let counters = setup.handle.counters();

    let mut extra = Sample::new();
    if args.trace {
        // The set-up's image-cache hydration, probed once.
        let t = OpTrace::new(&tracer, ops.fetch_add(1, Ordering::Relaxed) + 1);
        t.end_root("setup-probe");
        let pairs: Vec<(WorkloadKind, IsaVariant)> = WorkloadKind::ALL
            .into_iter()
            .flat_map(|k| IsaVariant::ALL.map(|v| (k, v)))
            .collect();
        let probed = t.group("probe", |id| {
            load_probe(&t, id, &setup.cache_dir, seed, &pairs)
                .and_then(|()| decode_probe(&t, id, &setup.cache_dir, seed, &pairs))
        });
        if let Err(e) = probed {
            eprintln!("warning: image probe failed: {e}");
        }
        extra.extend(t.into_sample());
    }
    setup.handle.shutdown();
    let timing = ServedTiming {
        setup_s,
        elapsed_s,
        peak_rss,
    };
    served_output(args, timing, clients, counters, extra, tracer)
}

/// `samples` cut to a whole number of [`TAIL_WINDOW`]s (all of them when
/// there is less than one window).
fn whole_windows(samples: &[f64]) -> &[f64] {
    match samples.len() {
        n if n < TAIL_WINDOW => samples,
        n => &samples[..n - n % TAIL_WINDOW],
    }
}

/// Set-up time, timed-phase length and peak memory of a served run.
struct ServedTiming {
    setup_s: f64,
    elapsed_s: f64,
    peak_rss: f64,
}

fn served_output(
    args: &Args,
    timing: ServedTiming,
    clients: Vec<ClientRun>,
    server: mom3d_bench::protocol::ServeCounters,
    mut extra: Sample,
    tracer: Tracer,
) -> Output {
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let (mut lat, mut walls, mut traced, mut samples, mut work) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut instrs, mut retries, mut timeouts) = (0u64, 0u64, 0u64);
    for c in clients {
        tally.merge(c.tally);
        // Whole windows per client, so no window spans two connections.
        lat.extend_from_slice(whole_windows(&c.latencies_us));
        walls.extend_from_slice(whole_windows(&c.pass_walls));
        traced.extend(c.traced_walls);
        samples.extend(c.samples);
        work.extend(c.pass_work);
        instrs += c.instrs;
        retries += c.retries;
        timeouts += c.timeouts;
    }
    let mut counters = Counters::new();
    if let Some(&w) = work.first() {
        if work.iter().any(|x| *x != w) {
            problems.push("simulated work differs between served passes".into());
        }
        counters.insert("pass.sim_instrs".into(), w[0].to_string());
        counters.insert("pass.sim_cycles".into(), w[1].to_string());
    }
    let requests = tally.attempted;
    let metrics = if args.trace {
        let memo = server.memo_hits + server.memo_misses + server.memo_coalesced;
        extra.insert("serve.requests".into(), server.requests as f64);
        extra.insert(
            "serve.memo_hit_ratio".into(),
            ratio(server.memo_hits as f64, memo as f64),
        );
        extra.insert("serve.sims_executed".into(), server.sims_executed as f64);
        extra.insert("serve.shed".into(), server.shed as f64);
        extra.insert(
            "serve.protocol_errors".into(),
            server.protocol_errors as f64,
        );
        extra.insert("client.retries".into(), retries as f64);
        extra.insert("client.timeouts".into(), timeouts as f64);
        if let (Some(u), Some(t)) = (median(&walls), median(&traced)) {
            extra.insert("trace.overhead_frac".into(), (t - u) / u);
        }
        extra.insert(
            "failed_frac".into(),
            stats::failed_frac(tally.failed, tally.attempted),
        );
        let (m, layer_counters, unsteady) = metrics::roll_up(&samples, &extra);
        counters.extend(layer_counters);
        problems.extend(unsteady);
        m
    } else {
        let (sweep_tail, sweep_pct) = windowed_tail(&walls, TAIL_WINDOW).unwrap_or((0.0, 0.0));
        let (req_tail, req_pct) = windowed_tail(&lat, TAIL_WINDOW).unwrap_or((0.0, 0.0));
        eprintln!(
            "passes: {} and requests: {requests} (tails = median over windows of {TAIL_WINDOW} of p{:.1} and p{:.1})",
            walls.len(),
            sweep_pct * 100.0,
            req_pct * 100.0
        );
        let values = [
            timing.setup_s,
            median(&walls).unwrap_or(0.0),
            sweep_tail,
            instrs as f64 / timing.elapsed_s / 1e6,
            median(&lat).unwrap_or(0.0),
            req_tail,
            requests as f64 / timing.elapsed_s,
            timing.peak_rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u))
            .collect()
    };
    Output {
        metrics,
        tally,
        counters,
        problems,
        spans: tracer.spans(),
    }
}
