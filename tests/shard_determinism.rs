//! Distributed sharding must be a pure deployment choice: the merged
//! [`SweepReport`] is bit-identical to the serial `Runner::metrics`
//! path for every cell, at any worker count, across crashes and
//! manifest resumes — and a resumed run never re-simulates a completed
//! cell.
//!
//! These tests drive the real coordinator ([`shard::coordinate`]) and
//! real workers ([`shard::run_worker`]) over real unix sockets, but as
//! threads of this process so the worker count, crash points and
//! manifest contents are exactly controlled. The process-level layer
//! (SIGKILL, `--resume`, manifest corruption on the shipped binaries)
//! lives in `crates/bench/tests/shard.rs`.

use mom3d::cpu::{BackendId, MemorySystemKind, Metrics};
use mom3d::kernels::{IsaVariant, WorkloadKind};
use mom3d_bench::manifest::Manifest;
use mom3d_bench::protocol::Endpoint;
use mom3d_bench::shard::{coordinate, run_worker, ShardConfig, WorkerConfig, WorkerSummary};
use mom3d_bench::sweep::SweepReport;
use mom3d_bench::{Runner, SimKey};
use std::path::PathBuf;
use std::time::Duration;

const SEED: u64 = 11;

/// The same small-but-representative grid as `sweep_determinism.rs`:
/// two workloads, every paper memory system plus the registry-only
/// DRAM-burst backend, and a non-default L2 latency. 12 cells.
fn grid() -> Vec<SimKey> {
    let mut cells = Vec::new();
    for kind in [WorkloadKind::GsmEncode, WorkloadKind::JpegDecode] {
        for (variant, memory) in [
            (IsaVariant::Mom, MemorySystemKind::Ideal.id()),
            (IsaVariant::Mom, MemorySystemKind::MultiBanked.id()),
            (IsaVariant::Mom, MemorySystemKind::VectorCache.id()),
            (IsaVariant::Mom3d, MemorySystemKind::VectorCache3d.id()),
            (IsaVariant::Mom, BackendId::new("dram-burst")),
        ] {
            cells.push(SimKey { kind, variant, memory, l2_latency: 20 });
        }
        cells.push(SimKey {
            kind,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 60,
        });
    }
    cells
}

fn serial_metrics(cells: &[SimKey]) -> Vec<Metrics> {
    let mut r = Runner::small(SEED);
    cells.iter().map(|c| r.metrics(c.kind, c.variant, c.memory, c.l2_latency)).collect()
}

fn tmp(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mom3d-shard-determinism-{}-{name}.{ext}",
        std::process::id()
    ))
}

/// Runs one sharded sweep: the coordinator in one thread (spawning no
/// worker processes), one [`run_worker`] thread per entry of
/// `worker_aborts` (`Some(n)` = crash after `n` cells in total).
/// Returns the merged report and each surviving worker's summary.
fn run_sharded(
    name: &str,
    worker_aborts: &[Option<usize>],
    config: ShardConfig,
) -> (SweepReport, Vec<WorkerSummary>) {
    let sock = tmp(name, "sock");
    let endpoint = Endpoint::Unix(sock);
    let cells = grid();

    let coordinator = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || coordinate(endpoint, &cells, &config))
    };
    let workers: Vec<_> = worker_aborts
        .iter()
        .enumerate()
        .map(|(id, &abort_after)| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let config = WorkerConfig {
                    id: id as u32,
                    threads: 1,
                    abort_after,
                    ..WorkerConfig::default()
                };
                run_worker(&endpoint, &config)
            })
        })
        .collect();

    let summaries = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread panicked").expect("worker failed"))
        .collect();
    let report = coordinator
        .join()
        .expect("coordinator thread panicked")
        .expect("coordinator failed");
    (report, summaries)
}

fn assert_bit_identical(report: &SweepReport, cells: &[SimKey], serial: &[Metrics]) {
    assert_eq!(report.cells.len(), cells.len());
    for ((cell, &key), expected) in report.cells.iter().zip(cells).zip(serial) {
        assert_eq!(cell.key, key, "merged report must keep grid enumeration order");
        assert_eq!(
            cell.metrics, *expected,
            "sharded sweep diverged from the serial path on {key:?}"
        );
    }
}

#[test]
fn sharded_sweep_is_bit_identical_to_serial_at_any_worker_count() {
    let cells = grid();
    let serial = serial_metrics(&cells);
    for workers in [1usize, 2, 4] {
        let aborts = vec![None; workers];
        let config = ShardConfig {
            seed: SEED,
            small: true,
            workers: 0, // worker *threads* below, no spawned processes
            batch: 2,   // several grants per worker, so scheduling actually varies
            ..ShardConfig::default()
        };
        let (report, summaries) =
            run_sharded(&format!("identity-{workers}w"), &aborts, config);

        assert_bit_identical(&report, &cells, &serial);
        assert!(report.cells.iter().all(|c| !c.reused), "nothing was resumed");
        let sharding = report.sharding.as_ref().expect("sharded runs fill the block");
        assert_eq!(sharding.resumed_cells, 0);
        // Every completed cell is attributed to exactly one worker:
        // the per-worker counts partition the grid.
        let attributed: u64 = sharding.workers.iter().map(|w| w.cells).sum();
        assert_eq!(attributed, cells.len() as u64, "{workers} workers");
        // Each worker simulated at least what it was credited with
        // (steals can make a worker simulate more than it wins).
        let simulated: u64 = summaries.iter().map(|s| s.cells).sum();
        assert!(simulated >= attributed);
    }
}

#[test]
fn a_crashed_worker_costs_no_completed_cell() {
    let cells = grid();
    let serial = serial_metrics(&cells);
    // Worker 0 vanishes mid-shard after 3 cells — no FIN, dropped
    // connection, exactly like a SIGKILLed process. Worker 1 survives.
    // Worker 1 starts only once worker 0 has returned at its crash
    // point: started together, worker 1 could drain the grid before
    // worker 0 reached 3 cells.
    let config = ShardConfig {
        seed: SEED,
        small: true,
        workers: 0,
        batch: 2,
        ..ShardConfig::default()
    };
    let endpoint = Endpoint::Unix(tmp("crash", "sock"));
    let coordinator = {
        let endpoint = endpoint.clone();
        let cells = cells.clone();
        std::thread::spawn(move || coordinate(endpoint, &cells, &config))
    };
    let summaries: Vec<WorkerSummary> = [Some(3), None]
        .into_iter()
        .enumerate()
        .map(|(id, abort_after)| {
            let config =
                WorkerConfig { id: id as u32, threads: 1, abort_after, ..WorkerConfig::default() };
            run_worker(&endpoint, &config).expect("worker failed")
        })
        .collect();
    let report =
        coordinator.join().expect("coordinator thread panicked").expect("coordinator failed");

    assert_bit_identical(&report, &cells, &serial);
    assert_eq!(summaries[0].cells, 3, "the crash point is exact");
    let sharding = report.sharding.as_ref().expect("sharded runs fill the block");
    // The crash loses no completed cell and completes no cell twice:
    // attribution still partitions the whole grid.
    let attributed: u64 = sharding.workers.iter().map(|w| w.cells).sum();
    assert_eq!(attributed, cells.len() as u64);
    assert_eq!(sharding.resumed_cells, 0);
}

#[test]
fn a_stalled_worker_cannot_wedge_the_sweep() {
    // Worker 0 completes ONE cell of its two-cell grant and then goes
    // silent with the connection OPEN — the stalled-not-dead failure
    // mode a dropped-connection detector cannot see. Its residual
    // one-cell grant is also unstealable (stealing needs >= 2 cells),
    // so only the grant lease can unblock the sweep.
    let cells = grid();
    let serial = serial_metrics(&cells);
    let sock = tmp("stall", "sock");
    let endpoint = Endpoint::Unix(sock);
    let config = ShardConfig {
        seed: SEED,
        small: true,
        workers: 0,
        batch: 2,
        lease: Duration::from_millis(300),
        ..ShardConfig::default()
    };

    let coordinator = {
        let endpoint = endpoint.clone();
        let cells = cells.clone();
        std::thread::spawn(move || coordinate(endpoint, &cells, &config))
    };
    let staller = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let config = WorkerConfig {
                id: 0,
                threads: 1,
                stall_after: Some(1),
                stall_for: Duration::from_secs(2),
                ..WorkerConfig::default()
            };
            run_worker(&endpoint, &config)
        })
    };
    let survivor = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let config = WorkerConfig { id: 1, threads: 1, ..WorkerConfig::default() };
            run_worker(&endpoint, &config)
        })
    };

    let stalled = staller.join().expect("staller thread panicked").expect("staller failed");
    let _ = survivor.join().expect("survivor thread panicked").expect("survivor failed");
    let report =
        coordinator.join().expect("coordinator thread panicked").expect("coordinator failed");

    // The merged report is exact despite the stall — the lease requeued
    // the abandoned cell and the survivor finished it.
    assert_bit_identical(&report, &cells, &serial);
    assert_eq!(stalled.cells, 1, "the stall point is exact");
    let sharding = report.sharding.as_ref().expect("sharded runs fill the block");
    let attributed: u64 = sharding.workers.iter().map(|w| w.cells).sum();
    assert_eq!(attributed, cells.len() as u64, "attribution still partitions the grid");
}

#[test]
fn an_injected_crash_mid_append_resumes_exactly_the_complement() {
    // Satellite of the fault-injection layer: instead of chopping bytes
    // off a finished file, stage the crash itself — a manifest whose
    // file rejects writes mid-way through the fifth record, exactly
    // what a process death mid-`append` leaves on disk.
    use mom3d_bench::faults::WriteFault;
    let cells = grid();
    let serial = serial_metrics(&cells);
    let path = tmp("resume-shortwrite", "mwm");
    let _ = std::fs::remove_file(&path);

    // Measure the clean sizes of 4 and 5 records so the fault budget
    // lands inside record five.
    let (four, five) = {
        let mut m = Manifest::create(&path, SEED, true, &cells).unwrap();
        for (key, metrics) in cells.iter().zip(&serial).take(4) {
            m.append(key, metrics).unwrap();
        }
        drop(m);
        let four = std::fs::read(&path).unwrap().len() as u64;
        let mut m = Manifest::create(&path, SEED, true, &cells).unwrap();
        for (key, metrics) in cells.iter().zip(&serial).take(5) {
            m.append(key, metrics).unwrap();
        }
        drop(m);
        (four, std::fs::read(&path).unwrap().len() as u64)
    };
    assert!(five > four + 2, "record five must span multiple bytes");

    // The "crashing" writer: dies (four + five) / 2 bytes in.
    let fault = WriteFault { fail_after: (four + five) / 2 };
    let mut m = Manifest::create_with_fault(&path, SEED, true, &cells, Some(fault)).unwrap();
    for (key, metrics) in cells.iter().zip(&serial).take(4) {
        m.append(key, metrics).unwrap();
    }
    m.append(&cells[4], &serial[4]).expect_err("the fifth append dies mid-record");
    drop(m);

    // Resume trusts the four whole records and re-grants exactly the
    // complement — the torn fifth record re-simulates with the rest.
    let config = ShardConfig {
        seed: SEED,
        small: true,
        workers: 0,
        batch: 2,
        manifest: Some(path.clone()),
        resume: true,
        ..ShardConfig::default()
    };
    let (report, summaries) = run_sharded("resume-shortwrite", &[None], config);

    assert_bit_identical(&report, &cells, &serial);
    let sharding = report.sharding.as_ref().expect("sharded runs fill the block");
    assert_eq!(sharding.resumed_cells, 4);
    assert_eq!(summaries[0].cells, (cells.len() - 4) as u64, "exactly the complement re-ran");
    for (i, cell) in report.cells.iter().enumerate() {
        assert_eq!(cell.reused, i < 4, "cell {i}");
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_manifest_resume_never_resimulates_completed_cells() {
    let cells = grid();
    let serial = serial_metrics(&cells);
    let path = tmp("resume-partial", "mwm");
    let _ = std::fs::remove_file(&path);

    // A previous run completed the first 5 cells before dying: journal
    // exactly those, the way the coordinator would have.
    const DONE: usize = 5;
    {
        let mut m = Manifest::create(&path, SEED, true, &cells).unwrap();
        for (key, metrics) in cells.iter().zip(&serial).take(DONE) {
            m.append(key, metrics).unwrap();
        }
    }

    let config = ShardConfig {
        seed: SEED,
        small: true,
        workers: 0,
        batch: 2,
        manifest: Some(path.clone()),
        resume: true,
        ..ShardConfig::default()
    };
    let (report, summaries) = run_sharded("resume-partial", &[None], config);

    assert_bit_identical(&report, &cells, &serial);
    let sharding = report.sharding.as_ref().expect("sharded runs fill the block");
    assert_eq!(sharding.resumed_cells, DONE as u64);
    for (i, cell) in report.cells.iter().enumerate() {
        assert_eq!(cell.reused, i < DONE, "cell {i}");
        if cell.reused {
            assert_eq!(cell.wall, Duration::ZERO, "replayed cells cost nothing");
        }
    }
    // Zero re-simulation of completed cells: the one worker simulated
    // exactly the remainder.
    assert_eq!(summaries[0].cells, (cells.len() - DONE) as u64);
    let attributed: u64 = sharding.workers.iter().map(|w| w.cells).sum();
    assert_eq!(attributed, (cells.len() - DONE) as u64);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_complete_manifest_resumes_with_no_worker_at_all() {
    let cells = grid();
    let serial = serial_metrics(&cells);
    let path = tmp("resume-full", "mwm");
    let _ = std::fs::remove_file(&path);
    {
        let mut m = Manifest::create(&path, SEED, true, &cells).unwrap();
        for (key, metrics) in cells.iter().zip(&serial) {
            m.append(key, metrics).unwrap();
        }
    }

    // Nothing to simulate, so no worker is launched: the coordinator
    // replays the journal and returns.
    let config = ShardConfig {
        seed: SEED,
        small: true,
        workers: 0,
        manifest: Some(path.clone()),
        resume: true,
        ..ShardConfig::default()
    };
    let (report, _) = run_sharded("resume-full", &[], config);

    assert_bit_identical(&report, &cells, &serial);
    assert!(report.cells.iter().all(|c| c.reused));
    let sharding = report.sharding.as_ref().expect("sharded runs fill the block");
    assert_eq!(sharding.resumed_cells, cells.len() as u64);
    assert!(sharding.workers.is_empty());
    assert_eq!(sharding.steals, 0);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_truncated_manifest_resumes_its_valid_prefix() {
    let cells = grid();
    let serial = serial_metrics(&cells);
    let path = tmp("resume-truncated", "mwm");
    let _ = std::fs::remove_file(&path);
    {
        let mut m = Manifest::create(&path, SEED, true, &cells).unwrap();
        for (key, metrics) in cells.iter().zip(&serial) {
            m.append(key, metrics).unwrap();
        }
    }
    // A crash mid-append leaves a torn final record: chop 10 bytes off
    // the tail, which lands inside the last cell frame.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

    let config = ShardConfig {
        seed: SEED,
        small: true,
        workers: 0,
        batch: 2,
        manifest: Some(path.clone()),
        resume: true,
        ..ShardConfig::default()
    };
    let (report, summaries) = run_sharded("resume-truncated", &[None], config);

    // The valid prefix is trusted, the torn record is re-simulated, and
    // the merged result is still exact.
    assert_bit_identical(&report, &cells, &serial);
    let sharding = report.sharding.as_ref().expect("sharded runs fill the block");
    assert_eq!(sharding.resumed_cells, (cells.len() - 1) as u64);
    assert_eq!(summaries[0].cells, 1, "only the torn cell re-simulates");
    assert!(report.cells.last().map(|c| !c.reused).unwrap());

    let _ = std::fs::remove_file(&path);
}
