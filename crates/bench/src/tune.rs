//! Design-space autotuner over the parameterized backend zoo.
//!
//! The paper evaluates a handful of hand-picked memory organizations;
//! the registry turns "memory organization" into an open, *parameterized*
//! family ([`mom3d_cpu::BackendRegistry`], [`mom3d_mem::ParamSpec`]).
//! This module searches the joint design space
//!
//! > backend family × family parameters × L2 latency × ISA variant
//!
//! per workload, scoring every visited point on three axes at once —
//! simulated **cycles**, a capacitance-model **energy** estimate, and
//! the register-file **area** of the ISA configuration — and reports
//! the non-dominated (Pareto) frontier.
//!
//! Search strategy, per `(workload, family)`:
//!
//! * the family's **baseline** (plain base id, MOM ISA, lowest L2
//!   latency) is always evaluated first, so every family appears in the
//!   report whatever the budget;
//! * when the family's whole space fits the evaluation budget, it is
//!   enumerated **exhaustively**;
//! * otherwise a deterministic seeded **hill-climb with restarts**
//!   explores it: each restart draws a random scalarization of the
//!   three objectives and steepest-descends over single-knob
//!   mutations until no neighbor improves. Randomness comes from a
//!   [`SmallRng`] seeded from the tune seed, the workload and the
//!   family id — same seed, same walk, bit for bit.
//!
//! Evaluations execute through an [`Executor`]: [`Executor::Local`]
//! drives the in-process parallel [`crate::sweep`] engine,
//! [`Executor::Remote`] batches cells to a resident `mom3d-serve` process over the binary
//! [`crate::protocol`]. Either way a design point is just a [`SimKey`]
//! with a parameterized backend id, so every number the tuner reports
//! is bit-identical to what a direct [`crate::sweep::run`] of the same
//! key produces. Points are never simulated twice: the tuner's own
//! visited table serves repeats (`dedup_hits`) and the executor's memo
//! layer catches anything already resident (`memo_hits`).
//!
//! [`TuneReport::to_json`] writes the `mom3d-tune/v1` schema —
//! deliberately free of wall-clock or other nondeterministic fields,
//! so two runs with the same seeds produce byte-identical documents.

use crate::json::json_string;
use crate::protocol::{CellReply, Endpoint, Hello, RetryClient, RetryPolicy};
use crate::runner::{Runner, SimKey};
use crate::sweep;
use mom3d_cpu::{BackendEntry, BackendRegistry, Metrics};
use mom3d_kernels::{IsaVariant, WorkloadKind};
use mom3d_power::{row_activate_energy, ConfigArea, L2Params, ProcessParams, RegFileSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// What to search and how hard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneConfig {
    /// Workload data seed (the [`Runner`] seed).
    pub seed: u64,
    /// Search seed: drives restarts and scalarization weights only.
    /// Changing it explores differently; the metrics of any visited
    /// point are unaffected.
    pub tune_seed: u64,
    /// True to tune reduced-geometry workloads.
    pub small: bool,
    /// Maximum fresh evaluations per `(workload, family)`. Families
    /// whose whole space fits are enumerated exhaustively.
    pub budget: usize,
    /// L2 latencies to search (the paper's Figure 10 axis).
    pub l2_latencies: Vec<u32>,
    /// Workloads to tune.
    pub workloads: Vec<WorkloadKind>,
    /// Restrict the search to one backend family (base id), e.g. from
    /// `--backend dram-burst`. `None` = every non-ideal family.
    pub backend: Option<String>,
    /// Parameter overrides for the restricted family's baseline point
    /// (from `--params`); resolved by [`resolve_start_params`].
    pub start_params: Vec<(&'static str, u64)>,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 7,
            tune_seed: 7,
            small: false,
            budget: 60,
            l2_latencies: vec![20, 40, 60],
            workloads: WorkloadKind::ALL.to_vec(),
            backend: None,
            start_params: Vec::new(),
        }
    }
}

impl TuneConfig {
    /// The CI smoke configuration: reduced-geometry workloads and a
    /// budget small enough that every family hill-climbs briefly.
    pub fn smoke(seed: u64) -> Self {
        TuneConfig { seed, tune_seed: seed, small: true, budget: 12, ..TuneConfig::default() }
    }
}

/// Once-flag for the invalid-`--params` warning: one warning per
/// process, not one per resolution.
static PARAMS_WARNED: AtomicBool = AtomicBool::new(false);

/// Resolves a raw `--params key=value,...` string against `base`'s
/// [`mom3d_mem::ParamSpec`]s. A malformed or unknown pair does **not**
/// abort the run and does **not** silently pretend the flag worked: it
/// warns once on stderr — naming the offending pair and the keys the
/// family actually takes — and falls back to the family defaults.
pub fn resolve_start_params(base: &str, raw: &str) -> Vec<(&'static str, u64)> {
    match BackendRegistry::try_parse(&format!("{base}?{raw}")) {
        Ok(id) => id.params().collect(),
        Err(e) => {
            if !PARAMS_WARNED.swap(true, Ordering::Relaxed) {
                let valid: Vec<&str> = BackendRegistry::get(base)
                    .map(|entry| entry.params.iter().map(|p| p.key).collect())
                    .unwrap_or_default();
                eprintln!(
                    "warning: --params {raw:?}: {e}; using the {base:?} defaults (valid keys: {})",
                    if valid.is_empty() { "none".to_owned() } else { valid.join(", ") }
                );
            }
            Vec::new()
        }
    }
}

/// One executed design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eval {
    /// The design point (workload, ISA, parameterized backend id, L2).
    pub key: SimKey,
    /// The simulation's metrics, bit-identical to [`crate::sweep::run`].
    pub metrics: Metrics,
    /// Objective 1: simulated cycles.
    pub cycles: u64,
    /// Objective 2: estimated memory-path energy in joules
    /// ([`CostModel::energy_j`]).
    pub energy_j: f64,
    /// Objective 3: register-file area of the ISA configuration, in
    /// square wire tracks ([`CostModel::area_wt2`]).
    pub area_wt2: u64,
    /// True when the executor served the metrics from a cache/memo
    /// layer instead of simulating.
    pub memo_hit: bool,
}

impl Eval {
    /// The minimized objective vector: (cycles, energy, area).
    pub fn objectives(&self) -> (u64, f64, u64) {
        (self.cycles, self.energy_j, self.area_wt2)
    }
}

/// `a` Pareto-dominates `b` (minimizing all three objectives): no
/// worse everywhere, strictly better somewhere.
pub fn dominates(a: (u64, f64, u64), b: (u64, f64, u64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2)
}

/// Indices of the non-dominated points of `objs`, in input order.
/// Exact-duplicate objective tuples keep their first occurrence only,
/// so the frontier is a minimal set.
pub fn pareto_frontier(objs: &[(u64, f64, u64)]) -> Vec<usize> {
    let mut frontier = Vec::new();
    'outer: for (i, &p) in objs.iter().enumerate() {
        for (j, &q) in objs.iter().enumerate() {
            if dominates(q, p) || (q == p && j < i) {
                continue 'outer;
            }
        }
        frontier.push(i);
    }
    frontier
}

/// The energy/area scoring model behind the tuner's second and third
/// objectives — the same capacitance models as the Figure 11 report,
/// extended with a per-row-miss activate charge.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    process: ProcessParams,
    e_l2: f64,
    e_rf3d: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        let process = ProcessParams::default();
        CostModel {
            process,
            e_l2: L2Params::default().access_energy(&process),
            e_rf3d: process.regfile_access_energy(&RegFileSpec::dreg_3d()),
        }
    }
}

impl CostModel {
    /// Estimated memory-path energy of one simulation, in joules:
    /// every L2-level access (vector + scalar, the Figure 11 activity)
    /// at the L2 SRAM access energy, every 3D-register-file write or
    /// `3dvmov` word at the 3D RF access energy, and — for backends
    /// that model DRAM rows — every row miss at the activate energy of
    /// that design point's row size
    /// ([`mom3d_power::row_activate_energy`]).
    pub fn energy_j(&self, key: &SimKey, m: &Metrics) -> f64 {
        let row_bytes = BackendRegistry::build(key.memory, &key.config().backend_params())
            .map_or(0, |b| b.activate_row_bytes());
        let activate = row_activate_energy(&self.process, row_bytes);
        m.total_l2_activity() as f64 * self.e_l2
            + (m.d3_writes + m.mov3d_words) as f64 * self.e_rf3d
            + m.dram_row_misses as f64 * activate
    }

    /// Register-file area of the ISA configuration, in square wire
    /// tracks (the Table 3 totals).
    pub fn area_wt2(&self, variant: IsaVariant) -> u64 {
        match variant {
            IsaVariant::Mmx => ConfigArea::mmx(),
            IsaVariant::Mom => ConfigArea::mom(),
            IsaVariant::Mom3d => ConfigArea::mom_3d(),
        }
        .total_wire_tracks()
    }

    /// Scores one executed cell.
    pub fn eval(&self, key: SimKey, metrics: Metrics, memo_hit: bool) -> Eval {
        Eval {
            key,
            metrics,
            cycles: metrics.cycles,
            energy_j: self.energy_j(&key, &metrics),
            area_wt2: self.area_wt2(key.variant),
            memo_hit,
        }
    }
}

/// Where evaluations execute. Either way a batch returns results for
/// exactly the requested cells (any order) with metrics bit-identical
/// to [`crate::sweep::run`] of the same keys.
pub enum Executor<'r> {
    /// In-process execution over the parallel sweep engine, on
    /// `threads` workers of `runner`.
    Local {
        /// The runner holding workloads and the metrics cache.
        runner: &'r mut Runner,
        /// Sweep worker threads.
        threads: usize,
    },
    /// Remote execution against a resident `mom3d-serve` process: cells
    /// go out as batched `SWEEP` requests through the retry layer
    /// ([`RetryClient`]), so a long tuning run rides out dropped
    /// connections, expired deadlines and `ERR_OVERLOADED` shedding — a
    /// mid-sweep reconnect re-requests only the undelivered cells.
    /// Built by [`Executor::connect`].
    Remote {
        /// The retrying client of the server (boxed: it is far larger
        /// than the local variant).
        client: Box<RetryClient>,
        /// The server's identity, as its `PING` reply gave it.
        hello: Hello,
    },
}

impl Executor<'_> {
    /// Connects to a resident server for [`Executor::Remote`]. Pings the
    /// server (retrying) and refuses to tune against one whose seed or
    /// geometry differs from the tuner's — mixed identities would
    /// silently blend incomparable numbers.
    ///
    /// # Errors
    ///
    /// A message describing the connection failure or the identity
    /// mismatch.
    pub fn connect(endpoint: &Endpoint, seed: u64, small: bool) -> Result<Self, String> {
        let mut client = RetryClient::new(endpoint.clone(), RetryPolicy::default());
        let hello = client.ping().map_err(|e| format!("{endpoint}: PING failed: {e}"))?;
        if hello.seed != seed || hello.small != small {
            return Err(format!(
                "{endpoint}: server identity mismatch: server runs seed {} ({} geometry), \
                 tuner wants seed {seed} ({} geometry)",
                hello.seed,
                if hello.small { "small" } else { "full" },
                if small { "small" } else { "full" }
            ));
        }
        Ok(Executor::Remote { client: Box::new(client), hello })
    }

    /// Executes a batch of cells.
    ///
    /// # Errors
    ///
    /// A human-readable message when remote execution fails (transport
    /// failure, server-side rejection).
    fn run(&mut self, cells: &[SimKey]) -> Result<Vec<(SimKey, Metrics, bool)>, String> {
        match self {
            Executor::Local { runner, threads } => {
                let report = sweep::run(runner, cells, *threads);
                Ok(report.cells.into_iter().map(|c| (c.key, c.metrics, c.reused)).collect())
            }
            // RetryClient::sweep chunks, reconnects and resumes
            // internally; it returns every requested cell or a terminal
            // error.
            Executor::Remote { client, .. } => {
                let replies = client
                    .sweep(cells)
                    .map_err(|e| format!("{}: sweep failed: {e}", client.endpoint()))?;
                Ok(replies
                    .into_iter()
                    .map(|CellReply { key, memo_hit, metrics }| (key, metrics, memo_hit))
                    .collect())
            }
        }
    }

    /// One-line description for the run header.
    pub fn describe(&self) -> String {
        match self {
            Executor::Local { threads, .. } => format!("local sweep engine, {threads} threads"),
            Executor::Remote { client, hello } => {
                format!("coordinator {} ({} threads)", client.endpoint(), hello.threads)
            }
        }
    }
}

/// One family's share of a workload's search.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// The family's base id.
    pub base: &'static str,
    /// Human-readable name.
    pub display_name: &'static str,
    /// Size of the family's full space (params × L2 × ISA).
    pub space: usize,
    /// True when the space fit the budget and was fully enumerated.
    pub exhaustive: bool,
    /// Fresh evaluations executed.
    pub evals: usize,
    /// Point requests served from the tuner's visited table.
    pub dedup_hits: usize,
    /// Fresh evaluations the executor served from its memo/cache layer.
    pub memo_hits: usize,
    /// The always-evaluated baseline point.
    pub baseline: Eval,
}

/// One workload's search outcome.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Total space across families.
    pub space: usize,
    /// Per-family statistics, in registry order.
    pub families: Vec<FamilyReport>,
    /// Every distinct point executed, in evaluation order.
    pub visited: Vec<Eval>,
    /// The non-dominated subset of `visited`, sorted by
    /// (cycles, energy, area, id).
    pub frontier: Vec<Eval>,
}

/// Everything one [`tune`] call did.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Workload data seed.
    pub seed: u64,
    /// Search seed.
    pub tune_seed: u64,
    /// True for reduced-geometry workloads.
    pub small: bool,
    /// Per-`(workload, family)` evaluation budget.
    pub budget: usize,
    /// The searched L2 latencies.
    pub l2_latencies: Vec<u32>,
    /// Per-workload outcomes, in configuration order.
    pub workloads: Vec<WorkloadReport>,
}

/// The search lattice of one family: every tunable knob's candidate
/// list plus the L2 and ISA axes.
struct Lattice {
    entry: BackendEntry,
    variants: Vec<IsaVariant>,
    l2s: Vec<u32>,
}

/// A lattice point: one candidate index per knob, then the L2 and ISA
/// indices.
type Point = Vec<usize>;

impl Lattice {
    fn new(entry: BackendEntry, l2s: &[u32]) -> Lattice {
        let mut variants = vec![IsaVariant::Mmx, IsaVariant::Mom];
        if entry.has_3d {
            variants.push(IsaVariant::Mom3d);
        }
        Lattice { entry, variants, l2s: l2s.to_vec() }
    }

    /// Cardinality of each axis: one entry per knob, then L2, then ISA.
    fn dims(&self) -> Vec<usize> {
        let mut dims: Vec<usize> =
            self.entry.params.iter().map(|s| s.candidates.len()).collect();
        dims.push(self.l2s.len());
        dims.push(self.variants.len());
        dims
    }

    fn space(&self) -> usize {
        self.dims().iter().product()
    }

    /// The default point: every knob at its spec default (snapping any
    /// `overrides` that exactly match a candidate), lowest L2, MOM ISA.
    fn default_point(&self, overrides: &[(&str, u64)]) -> Point {
        let mut p: Point = self
            .entry
            .params
            .iter()
            .map(|s| {
                let value = overrides
                    .iter()
                    .find(|&&(k, _)| k == s.key)
                    .map_or(s.default, |&(_, v)| v);
                s.candidates
                    .iter()
                    .position(|&c| c == value)
                    .unwrap_or_else(|| {
                        s.candidates.iter().position(|&c| c == s.default).expect("default listed")
                    })
            })
            .collect();
        p.push(0);
        let mom = self
            .variants
            .iter()
            .position(|&v| v == IsaVariant::Mom)
            .expect("MOM is always searched");
        p.push(mom);
        p
    }

    /// The design point as a simulation key.
    fn key(&self, kind: WorkloadKind, p: &Point) -> SimKey {
        let nparams = self.entry.params.len();
        let pairs: Vec<(&str, u64)> = self
            .entry
            .params
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.candidates[p[i]] != s.default)
            .map(|(i, s)| (s.key, s.candidates[p[i]]))
            .collect();
        let memory = BackendRegistry::make_id(self.entry.id, &pairs)
            .expect("candidate values round-trip through their own specs");
        SimKey {
            kind,
            variant: self.variants[p[nparams + 1]],
            memory,
            l2_latency: self.l2s[p[nparams]],
        }
    }

    /// Every point of the space, in lexicographic order.
    fn enumerate(&self) -> Vec<Point> {
        let dims = self.dims();
        let mut points = Vec::with_capacity(self.space());
        let mut p: Point = vec![0; dims.len()];
        loop {
            points.push(p.clone());
            let mut axis = dims.len();
            loop {
                if axis == 0 {
                    return points;
                }
                axis -= 1;
                p[axis] += 1;
                if p[axis] < dims[axis] {
                    break;
                }
                p[axis] = 0;
            }
        }
    }

    /// Every single-axis mutation of `p`, in axis/candidate order.
    fn neighbors(&self, p: &Point) -> Vec<Point> {
        let dims = self.dims();
        let mut out = Vec::new();
        for (axis, &card) in dims.iter().enumerate() {
            for value in 0..card {
                if value != p[axis] {
                    let mut q = p.clone();
                    q[axis] = value;
                    out.push(q);
                }
            }
        }
        out
    }

    /// A uniformly random point.
    fn random(&self, rng: &mut SmallRng) -> Point {
        self.dims().iter().map(|&card| rng.gen_range(0..card)).collect()
    }
}

/// Stable per-`(workload, family)` search seed: FNV-1a over the tune
/// seed, the workload name and the family id, so adding a family or a
/// workload never perturbs the walks of the others.
fn search_seed(tune_seed: u64, kind: WorkloadKind, base: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ tune_seed;
    for byte in kind.name().bytes().chain([0u8]).chain(base.bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mutable search state shared by the exhaustive and hill-climb paths
/// of one `(workload, family)` search.
struct SearchState<'a, 'r> {
    exec: &'a mut Executor<'r>,
    cost: &'a CostModel,
    visited: &'a mut HashMap<SimKey, Eval>,
    order: &'a mut Vec<SimKey>,
    evals: usize,
    dedup_hits: usize,
    memo_hits: usize,
}

impl SearchState<'_, '_> {
    /// Fresh evaluations still allowed under `budget`.
    fn remaining(&self, budget: usize) -> usize {
        budget.saturating_sub(self.evals)
    }

    /// Evaluates `keys` (already-visited keys are dedup hits), keeping
    /// at most `limit` fresh evaluations. Results land in the visited
    /// table in request order, whatever order the executor returns.
    fn eval(&mut self, keys: &[SimKey], limit: usize) -> Result<(), String> {
        let mut fresh: Vec<SimKey> = Vec::new();
        for &key in keys {
            if self.visited.contains_key(&key) || fresh.contains(&key) {
                self.dedup_hits += 1;
            } else if fresh.len() < limit {
                fresh.push(key);
            }
        }
        if fresh.is_empty() {
            return Ok(());
        }
        let mut results: HashMap<SimKey, (Metrics, bool)> = self
            .exec
            .run(&fresh)?
            .into_iter()
            .map(|(key, metrics, memo)| (key, (metrics, memo)))
            .collect();
        for key in fresh {
            let (metrics, memo_hit) = results
                .remove(&key)
                .ok_or_else(|| format!("executor returned no result for {key:?}"))?;
            let eval = self.cost.eval(key, metrics, memo_hit);
            self.visited.insert(key, eval);
            self.order.push(key);
            self.evals += 1;
            if memo_hit {
                self.memo_hits += 1;
            }
        }
        Ok(())
    }
}

/// Searches one `(workload, family)` pair.
fn search_family(
    kind: WorkloadKind,
    lattice: &Lattice,
    cfg: &TuneConfig,
    state: &mut SearchState<'_, '_>,
) -> Result<FamilyReport, String> {
    let budget = cfg.budget.max(1);
    let overrides: &[(&str, u64)] =
        if cfg.backend.as_deref() == Some(lattice.entry.id) { &cfg.start_params } else { &[] };

    // The baseline: the family's (possibly --params-overridden) default
    // design point, evaluated before anything else so the family is
    // represented whatever the budget.
    let start = lattice.default_point(overrides);
    let baseline_key = lattice.key(kind, &start);
    state.eval(&[baseline_key], 1)?;
    let baseline = state.visited[&baseline_key];

    let space = lattice.space();
    let exhaustive = space <= budget;
    if exhaustive {
        let keys: Vec<SimKey> =
            lattice.enumerate().iter().map(|p| lattice.key(kind, p)).collect();
        let limit = state.remaining(budget);
        state.eval(&keys, limit)?;
    } else {
        let mut rng = SmallRng::seed_from_u64(search_seed(cfg.tune_seed, kind, lattice.entry.id));
        let norm = (
            baseline.cycles.max(1) as f64,
            if baseline.energy_j > 0.0 { baseline.energy_j } else { 1.0 },
            baseline.area_wt2.max(1) as f64,
        );
        let mut restarts = 0usize;
        while state.remaining(budget) > 0 && restarts < 64 {
            let (mut current, weights) = if restarts == 0 {
                (start.clone(), (1.0, 1.0, 1.0))
            } else {
                let w = |rng: &mut SmallRng| rng.gen_range(1u64..=100) as f64 / 100.0;
                (lattice.random(&mut rng), (w(&mut rng), w(&mut rng), w(&mut rng)))
            };
            restarts += 1;
            let score = |state: &SearchState<'_, '_>, p: &Point| -> Option<f64> {
                let e = state.visited.get(&lattice.key(kind, p))?;
                Some(
                    weights.0 * e.cycles as f64 / norm.0
                        + weights.1 * e.energy_j / norm.1
                        + weights.2 * e.area_wt2 as f64 / norm.2,
                )
            };
            let limit = state.remaining(budget);
            state.eval(&[lattice.key(kind, &current)], limit)?;
            while state.remaining(budget) > 0 {
                let Some(here) = score(state, &current) else { break };
                let neighbors = lattice.neighbors(&current);
                let keys: Vec<SimKey> =
                    neighbors.iter().map(|p| lattice.key(kind, p)).collect();
                let limit = state.remaining(budget);
                state.eval(&keys, limit)?;
                // Steepest descent, first-wins on ties: evaluation order
                // is deterministic, so the walk is too.
                let best = neighbors
                    .iter()
                    .filter_map(|p| score(state, p).map(|s| (p, s)))
                    .fold(None::<(&Point, f64)>, |acc, (p, s)| match acc {
                        Some((_, sb)) if sb <= s => acc,
                        _ => Some((p, s)),
                    });
                match best {
                    Some((p, s)) if s < here => current = p.clone(),
                    _ => break,
                }
            }
        }
    }

    Ok(FamilyReport {
        base: lattice.entry.id,
        display_name: lattice.entry.display_name,
        space,
        exhaustive,
        evals: state.evals,
        dedup_hits: state.dedup_hits,
        memo_hits: state.memo_hits,
        baseline,
    })
}

/// Runs the whole configured search through `exec`.
///
/// # Errors
///
/// A human-readable message when the backend restriction names no
/// registered family or the executor fails.
pub fn tune(cfg: &TuneConfig, exec: &mut Executor) -> Result<TuneReport, String> {
    let families: Vec<BackendEntry> = BackendRegistry::entries()
        .into_iter()
        .filter(|e| !e.is_ideal)
        .filter(|e| cfg.backend.as_deref().is_none_or(|b| b == e.id))
        .collect();
    if families.is_empty() {
        let known: Vec<&str> = BackendRegistry::entries()
            .iter()
            .filter(|e| !e.is_ideal)
            .map(|e| e.id)
            .collect();
        return Err(format!(
            "--backend {:?} names no tunable backend family (known: {})",
            cfg.backend.as_deref().unwrap_or(""),
            known.join(", ")
        ));
    }
    if cfg.l2_latencies.is_empty() {
        return Err("no L2 latencies to search".into());
    }
    let cost = CostModel::default();
    let mut workloads = Vec::with_capacity(cfg.workloads.len());
    for &kind in &cfg.workloads {
        let mut visited: HashMap<SimKey, Eval> = HashMap::new();
        let mut order: Vec<SimKey> = Vec::new();
        let mut reports = Vec::with_capacity(families.len());
        for &entry in &families {
            let lattice = Lattice::new(entry, &cfg.l2_latencies);
            let mut state = SearchState {
                exec: &mut *exec,
                cost: &cost,
                visited: &mut visited,
                order: &mut order,
                evals: 0,
                dedup_hits: 0,
                memo_hits: 0,
            };
            reports.push(search_family(kind, &lattice, cfg, &mut state)?);
        }
        let visited_evals: Vec<Eval> = order.iter().map(|k| visited[k]).collect();
        let objs: Vec<(u64, f64, u64)> = visited_evals.iter().map(Eval::objectives).collect();
        let mut frontier: Vec<Eval> =
            pareto_frontier(&objs).into_iter().map(|i| visited_evals[i]).collect();
        frontier.sort_by(|a, b| {
            (a.cycles, a.energy_j.to_bits(), a.area_wt2, a.key.memory.as_str()).cmp(&(
                b.cycles,
                b.energy_j.to_bits(),
                b.area_wt2,
                b.key.memory.as_str(),
            ))
        });
        workloads.push(WorkloadReport {
            kind,
            space: reports.iter().map(|f| f.space).sum(),
            families: reports,
            visited: visited_evals,
            frontier,
        });
    }
    Ok(TuneReport {
        seed: cfg.seed,
        tune_seed: cfg.tune_seed,
        small: cfg.small,
        budget: cfg.budget,
        l2_latencies: cfg.l2_latencies.clone(),
        workloads,
    })
}

fn point_json(e: &Eval) -> String {
    let params: Vec<String> =
        e.key.memory.params().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
    format!(
        "{{\"memory\": {}, \"base\": {}, \"params\": {{{}}}, \"isa\": {}, \
         \"l2_latency\": {}, \"cycles\": {}, \"energy_j\": {:.6e}, \"area_wt2\": {}}}",
        json_string(e.key.memory.as_str()),
        json_string(e.key.memory.base()),
        params.join(", "),
        json_string(&e.key.variant.to_string()),
        e.key.l2_latency,
        e.cycles,
        e.energy_j,
        e.area_wt2,
    )
}

impl TuneReport {
    /// The report as the `mom3d-tune/v1` JSON document.
    ///
    /// The schema carries **no wall-clock or host-dependent fields**:
    /// two runs with the same seeds and budget produce byte-identical
    /// documents, which CI exploits.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"schema\": \"mom3d-tune/v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"tune_seed\": {},\n", self.tune_seed));
        s.push_str(&format!("  \"small\": {},\n", self.small));
        s.push_str(&format!("  \"budget\": {},\n", self.budget));
        let l2s: Vec<String> = self.l2_latencies.iter().map(u32::to_string).collect();
        s.push_str(&format!("  \"l2_latencies\": [{}],\n", l2s.join(", ")));
        s.push_str("  \"workloads\": [\n");
        for (wi, w) in self.workloads.iter().enumerate() {
            let evals: usize = w.families.iter().map(|f| f.evals).sum();
            let dedup: usize = w.families.iter().map(|f| f.dedup_hits).sum();
            let memo: usize = w.families.iter().map(|f| f.memo_hits).sum();
            s.push_str(&format!(
                "    {{\"workload\": {}, \"space\": {}, \"visited\": {}, \"evals\": {}, \
                 \"dedup_hits\": {}, \"memo_hits\": {},\n",
                json_string(&w.kind.to_string()),
                w.space,
                w.visited.len(),
                evals,
                dedup,
                memo,
            ));
            s.push_str("     \"families\": [\n");
            for (fi, f) in w.families.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"base\": {}, \"display_name\": {}, \"space\": {}, \
                     \"exhaustive\": {}, \"evals\": {}, \"dedup_hits\": {}, \
                     \"memo_hits\": {}, \"baseline\": {}}}{}\n",
                    json_string(f.base),
                    json_string(f.display_name),
                    f.space,
                    f.exhaustive,
                    f.evals,
                    f.dedup_hits,
                    f.memo_hits,
                    point_json(&f.baseline),
                    if fi + 1 == w.families.len() { "" } else { "," }
                ));
            }
            s.push_str("     ],\n");
            s.push_str("     \"frontier\": [\n");
            for (pi, p) in w.frontier.iter().enumerate() {
                s.push_str(&format!(
                    "      {}{}\n",
                    point_json(p),
                    if pi + 1 == w.frontier.len() { "" } else { "," }
                ));
            }
            s.push_str("     ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if wi + 1 == self.workloads.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Writes [`TuneReport::to_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The human-readable frontier table.
    pub fn frontier_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Pareto frontiers: cycles vs energy vs area (seed {}, tune seed {}, budget {}, {} \
             geometry)\n",
            self.seed,
            self.tune_seed,
            self.budget,
            if self.small { "small" } else { "full" }
        ));
        for w in &self.workloads {
            let evals: usize = w.families.iter().map(|f| f.evals).sum();
            let dedup: usize = w.families.iter().map(|f| f.dedup_hits).sum();
            let memo: usize = w.families.iter().map(|f| f.memo_hits).sum();
            s.push_str(&format!(
                "\n{}: {} of {} design points visited ({} evaluations, {} dedup hits, {} memo \
                 hits)\n",
                w.kind,
                w.visited.len(),
                w.space,
                evals,
                dedup,
                memo
            ));
            s.push_str(&format!(
                "  {:<34} {:<7} {:>3} {:>10} {:>12} {:>11}\n",
                "memory", "isa", "L2", "cycles", "energy (nJ)", "area (wt2)"
            ));
            for p in &w.frontier {
                s.push_str(&format!(
                    "  {:<34} {:<7} {:>3} {:>10} {:>12.3} {:>11}\n",
                    p.key.memory.to_string(),
                    p.key.variant.to_string(),
                    p.key.l2_latency,
                    p.cycles,
                    p.energy_j * 1e9,
                    p.area_wt2
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict_and_partial() {
        let a = (10u64, 1.0f64, 100u64);
        assert!(!dominates(a, a), "a point never dominates itself");
        assert!(dominates((9, 1.0, 100), a), "better on one axis, equal elsewhere");
        assert!(dominates((9, 0.5, 50), a), "better everywhere");
        assert!(!dominates((9, 2.0, 100), a), "a trade-off dominates nothing");
        assert!(!dominates((11, 0.5, 50), a));
    }

    #[test]
    fn frontier_single_point() {
        assert_eq!(pareto_frontier(&[(5, 1.0, 9)]), vec![0]);
        assert_eq!(pareto_frontier(&[]), Vec::<usize>::new());
    }

    #[test]
    fn frontier_drops_dominated_and_duplicate_points() {
        let objs = [
            (10, 1.0, 100), // frontier
            (12, 2.0, 200), // dominated by 0
            (10, 1.0, 100), // exact duplicate of 0: dropped
            (8, 3.0, 100),  // frontier (cycles trade-off)
            (10, 0.5, 300), // frontier (energy/area trade-off)
        ];
        assert_eq!(pareto_frontier(&objs), vec![0, 3, 4]);
    }

    #[test]
    fn frontier_keeps_one_axis_ties() {
        // Same cycles, opposite energy/area trade-offs: both survive.
        let objs = [(10, 1.0, 200), (10, 2.0, 100)];
        assert_eq!(pareto_frontier(&objs), vec![0, 1]);
        // But an equal-cycles point worse on both other axes dies.
        let objs = [(10, 1.0, 200), (10, 2.0, 300)];
        assert_eq!(pareto_frontier(&objs), vec![0]);
    }

    #[test]
    fn family_spaces_are_registry_driven() {
        // params × L2(3) × ISA(2 or 3): extend a family's ParamSpecs
        // and the tuner's space grows without touching this module.
        let l2s = [20u32, 40, 60];
        let expect = [
            ("multi-banked", 9 * 3 * 2),
            ("vector-cache", 3 * 3 * 2),
            ("vector-cache-3d", 3 * 3 * 3),
            ("dram-burst", 81 * 3 * 2),
            ("hbm-wide", 81 * 3 * 2),
            ("pim-vector", 27 * 3 * 2),
        ];
        for (id, space) in expect {
            let lattice = Lattice::new(BackendRegistry::get(id).unwrap(), &l2s);
            assert_eq!(lattice.space(), space, "{id}");
            assert_eq!(lattice.enumerate().len(), space, "{id}");
        }
    }

    #[test]
    fn lattice_points_round_trip_to_canonical_keys() {
        let lattice = Lattice::new(BackendRegistry::get("dram-burst").unwrap(), &[20, 40]);
        let base = lattice.default_point(&[]);
        let key = lattice.key(WorkloadKind::GsmEncode, &base);
        // All-default knobs collapse to the plain base id.
        assert_eq!(key.memory.as_str(), "dram-burst");
        assert_eq!((key.variant, key.l2_latency), (IsaVariant::Mom, 20));
        // A mutated knob shows up as a canonical suffix.
        let mut p = base.clone();
        p[0] = 0; // act: candidates [2, 6, 12], default 6 at index 1
        let key = lattice.key(WorkloadKind::GsmEncode, &p);
        assert_eq!(key.memory.as_str(), "dram-burst?act=2");
        // Neighbors mutate exactly one axis each.
        let neighbors = lattice.neighbors(&base);
        let dims = lattice.dims();
        assert_eq!(neighbors.len(), dims.iter().map(|d| d - 1).sum::<usize>());
        for n in &neighbors {
            let diff = n.iter().zip(&base).filter(|(a, b)| a != b).count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn start_params_snap_into_the_lattice() {
        let lattice = Lattice::new(BackendRegistry::get("dram-burst").unwrap(), &[20]);
        // row=4096 is a candidate: the baseline moves there.
        let p = lattice.default_point(&[("row", 4096)]);
        let key = lattice.key(WorkloadKind::GsmEncode, &p);
        assert_eq!(key.memory.as_str(), "dram-burst?row=4096");
        // row=999 is valid for the family but not a search candidate:
        // the lattice start falls back to the default.
        let p = lattice.default_point(&[("row", 999)]);
        let key = lattice.key(WorkloadKind::GsmEncode, &p);
        assert_eq!(key.memory.as_str(), "dram-burst");
    }

    #[test]
    fn resolve_start_params_warns_and_falls_back() {
        assert_eq!(
            resolve_start_params("dram-burst", "row=512,banks=16"),
            vec![("banks", 16), ("row", 512)],
        );
        // Unknown key, malformed pair, unknown family: defaults, no
        // panic (a warning lands on stderr, once per process).
        assert_eq!(resolve_start_params("dram-burst", "bogus=1"), Vec::new());
        assert_eq!(resolve_start_params("dram-burst", "banks"), Vec::new());
        assert_eq!(resolve_start_params("no-such", "banks=4"), Vec::new());
    }

    #[test]
    fn search_seed_separates_workloads_and_families() {
        let s = search_seed(7, WorkloadKind::GsmEncode, "dram-burst");
        assert_eq!(s, search_seed(7, WorkloadKind::GsmEncode, "dram-burst"));
        assert_ne!(s, search_seed(8, WorkloadKind::GsmEncode, "dram-burst"));
        assert_ne!(s, search_seed(7, WorkloadKind::JpegEncode, "dram-burst"));
        assert_ne!(s, search_seed(7, WorkloadKind::GsmEncode, "hbm-wide"));
    }

    #[test]
    fn exhaustive_tune_of_one_family_visits_the_whole_space() {
        let cfg = TuneConfig {
            seed: 3,
            tune_seed: 3,
            small: true,
            budget: 50,
            l2_latencies: vec![20],
            workloads: vec![WorkloadKind::JpegDecode],
            backend: Some("vector-cache".into()),
            start_params: Vec::new(),
        };
        let mut runner = Runner::small(3);
        let mut exec = Executor::Local { runner: &mut runner, threads: 2 };
        let report = tune(&cfg, &mut exec).unwrap();
        assert_eq!(report.workloads.len(), 1);
        let w = &report.workloads[0];
        assert_eq!(w.families.len(), 1);
        let f = &w.families[0];
        // width {2,4,8} × L2 {20} × ISA {MMX, MOM} = 6 points.
        assert!(f.exhaustive);
        assert_eq!((f.space, f.evals), (6, 6));
        assert_eq!(w.visited.len(), 6);
        // The baseline was re-requested by the exhaustive enumeration:
        // served from the visited table, never re-simulated.
        assert!(f.dedup_hits >= 1);
        assert_eq!(f.baseline.key.memory.as_str(), "vector-cache");
        // The frontier is non-empty, non-dominated and sorted.
        assert!(!w.frontier.is_empty());
        for (i, a) in w.frontier.iter().enumerate() {
            for (j, b) in w.frontier.iter().enumerate() {
                if i != j {
                    assert!(!dominates(a.objectives(), b.objectives()), "{i} dominates {j}");
                }
            }
            if i > 0 {
                assert!(w.frontier[i - 1].cycles <= a.cycles, "frontier sorted by cycles");
            }
        }
        // Every visited point is bit-identical to a direct simulation
        // of the same key on a fresh runner.
        let mut fresh = Runner::small(3);
        for e in &w.visited {
            let direct =
                fresh.metrics(e.key.kind, e.key.variant, e.key.memory, e.key.l2_latency);
            assert_eq!(direct, e.metrics, "{:?}", e.key);
        }
        // JSON sanity: schema tag, balanced structure, family id.
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mom3d-tune/v1\""));
        assert!(json.contains("\"base\": \"vector-cache\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("wall"), "determinism: no wall-clock in the tune schema");
        // The frontier table mentions the workload and the backend.
        let table = report.frontier_table();
        assert!(table.contains("jpeg decode"));
        assert!(table.contains("vector-cache"));
    }

    #[test]
    fn hill_climb_respects_budget_and_seeds_baseline() {
        let cfg = TuneConfig {
            seed: 3,
            tune_seed: 9,
            small: true,
            budget: 7,
            l2_latencies: vec![20, 40],
            workloads: vec![WorkloadKind::JpegDecode],
            backend: Some("hbm-wide".into()),
            start_params: Vec::new(),
        };
        let mut runner = Runner::small(3);
        let mut exec = Executor::Local { runner: &mut runner, threads: 2 };
        let report = tune(&cfg, &mut exec).unwrap();
        let f = &report.workloads[0].families[0];
        assert!(!f.exhaustive, "81 × 2 × 2 points cannot fit a budget of 7");
        assert_eq!(f.space, 81 * 2 * 2);
        assert!(f.evals <= 7, "budget respected, got {}", f.evals);
        assert_eq!(f.baseline.key.memory.as_str(), "hbm-wide");
        assert_eq!(report.workloads[0].visited[0].key, f.baseline.key);
        // Same seeds, fresh state: the identical walk.
        let mut runner2 = Runner::small(3);
        let mut exec2 = Executor::Local { runner: &mut runner2, threads: 1 };
        let again = tune(&cfg, &mut exec2).unwrap();
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn unknown_backend_restriction_errors() {
        let cfg = TuneConfig {
            backend: Some("no-such-family".into()),
            ..TuneConfig::default()
        };
        let mut runner = Runner::small(1);
        let mut exec = Executor::Local { runner: &mut runner, threads: 1 };
        let err = tune(&cfg, &mut exec).unwrap_err();
        assert!(err.contains("no-such-family"));
        assert!(err.contains("dram-burst"), "error lists the known families");
    }
}
