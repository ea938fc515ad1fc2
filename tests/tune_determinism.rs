//! The autotuner must be reproducible end to end: with the same data
//! seed and tune seed, two independent runs — at different worker
//! counts — serialize to byte-identical `BENCH_tune.json`, and every
//! design point the search visits carries [`Metrics`] bit-identical to
//! a direct `Runner::metrics` simulation of the same [`SimKey`]. The
//! search is an optimization over *which* points to simulate, never
//! over *how* they are simulated.

use mom3d::kernels::WorkloadKind;
use mom3d_bench::tune::{dominates, tune, Executor, TuneConfig, TuneReport};
use mom3d_bench::Runner;

const SEED: u64 = 7;
const TUNE_SEED: u64 = 11;

/// Reduced-geometry config exercising both search paths: at one L2
/// latency the vector-cache family (6 points) fits the budget and is
/// swept exhaustively, while dram-burst/hbm-wide/pim-vector (54–162
/// points) fall back to seeded hill-climbing.
fn cfg() -> TuneConfig {
    TuneConfig {
        seed: SEED,
        tune_seed: TUNE_SEED,
        small: true,
        budget: 6,
        l2_latencies: vec![20],
        workloads: vec![WorkloadKind::GsmEncode, WorkloadKind::JpegDecode],
        backend: None,
        start_params: Vec::new(),
    }
}

fn run(threads: usize) -> TuneReport {
    let mut runner = Runner::small(SEED);
    let mut exec = Executor::Local { runner: &mut runner, threads };
    tune(&cfg(), &mut exec).expect("tuning succeeds")
}

/// Same seeds, fresh runners, different worker counts → the same JSON,
/// byte for byte. The schema carries no wall-clock fields, so this is
/// an exact equality, not a tolerance check.
#[test]
fn same_seed_tune_runs_are_byte_identical() {
    let a = run(1).to_json();
    let b = run(4).to_json();
    assert_eq!(a, b, "same-seed tune runs must serialize identically");
    assert!(a.contains("\"schema\": \"mom3d-tune/v1\""), "schema tag missing:\n{a}");
    assert!(!a.contains("wall"), "wall-clock fields would break determinism:\n{a}");
}

/// Every visited point replays bit-identically on a fresh runner, the
/// frontier is drawn from the visited set and is mutually non-dominated,
/// and the two registry-only backends are searched without any binary
/// naming them.
#[test]
fn visited_points_match_direct_simulation() {
    let report = run(2);
    let mut fresh = Runner::small(SEED);
    for w in &report.workloads {
        let bases: Vec<&str> = w.families.iter().map(|f| f.base).collect();
        for base in ["hbm-wide", "pim-vector"] {
            assert!(bases.contains(&base), "{}: family {base} not searched", w.kind);
        }
        assert!(!w.visited.is_empty() && !w.frontier.is_empty());
        for e in &w.visited {
            let direct =
                fresh.metrics(e.key.kind, e.key.variant, e.key.memory, e.key.l2_latency);
            assert_eq!(e.metrics, direct, "{:?}: tuned metrics diverge from direct", e.key);
        }
        for p in &w.frontier {
            assert!(
                w.visited.iter().any(|e| e.key == p.key),
                "{:?}: frontier point was never visited",
                p.key
            );
            assert!(
                !w.frontier.iter().any(|q| dominates(q.objectives(), p.objectives())),
                "{:?}: dominated point on the frontier",
                p.key
            );
        }
    }
}
