//! Process-level fault injection for the `mom3d-shard` coordinator and
//! its workers: SIGKILLed workers are respawned and cost no completed
//! cell; a SIGKILLed coordinator resumes from its manifest with
//! `--resume` and never re-simulates journaled work; a corrupted
//! manifest degrades to its valid prefix but never to a wrong cell;
//! protocol abuse against the coordinator socket costs at most the
//! abuser's own connection; and a worker treats every typed error on a
//! claim as transient. Every merged result is compared per cell
//! against the in-process serial sweep — bit-identity is the contract
//! under every failure mode.

use mom3d_bench::manifest::Manifest;
use mom3d_bench::protocol::{
    read_frame, write_frame, Client, Endpoint, Request, Response, ERR_MALFORMED,
    ERR_PROTOCOL, ERR_UNSUPPORTED, OP_CELL_DONE,
};
use mom3d_bench::shard::{coordinate, run_worker, ShardConfig, WorkerConfig};
use mom3d_bench::{sweep, Runner, SimKey};
use mom3d_cpu::MemorySystemKind;
use mom3d_kernels::{IsaVariant, WorkloadKind};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 9;

fn tmp(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mom3d-shard-it-{}-{name}.{ext}", std::process::id()))
}

/// The serial ground truth: the full paper grid swept in-process, as a
/// list of per-cell signatures (identity + metrics, timing stripped).
fn serial_signatures() -> Vec<String> {
    let mut runner = Runner::small(SEED);
    let report = sweep::run(&mut runner, &sweep::full_grid(), 4);
    cell_signatures(&report.to_json())
}

/// One comparable string per cell: the identity prefix (workload, ISA,
/// memory, L2) plus the `"metrics"` object. Wall-clock and phase
/// timings legitimately differ between runs and are dropped.
fn cell_signatures(json: &str) -> Vec<String> {
    json.lines()
        .filter(|l| l.contains("\"workload\":"))
        .map(|l| {
            let identity = l.split("\"phases\"").next().expect("cell line has phases");
            let metrics = l.split("\"metrics\": ").nth(1).expect("cell line has metrics");
            format!("{identity}{}", metrics.trim_end_matches(','))
        })
        .collect()
}

/// Pulls `"key": <number>` out of a JSON document (first occurrence).
fn json_u64(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = json.find(&needle).unwrap_or_else(|| panic!("{key} missing from JSON"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("number follows the key")
}

/// Sum of per-worker `"cells"` counts in the `"sharding"` block.
fn attributed_cells(json: &str) -> u64 {
    let line = json
        .lines()
        .find(|l| l.contains("\"sharding\": {"))
        .expect("sharded JSON has a sharding line");
    let mut sum = 0;
    let mut rest = line;
    while let Some(at) = rest.find("\"cells\": ") {
        rest = &rest[at + "\"cells\": ".len()..];
        sum += rest
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .expect("number follows cells");
    }
    sum
}

/// Collects a child stream's lines in the background so tests can poll
/// for readiness/pid lines while the process runs.
fn tail(r: impl Read + Send + 'static) -> Arc<Mutex<Vec<String>>> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    std::thread::spawn(move || {
        for line in BufReader::new(r).lines().map_while(Result::ok) {
            sink.lock().unwrap().push(line);
        }
    });
    lines
}

struct Coordinator {
    child: Child,
    stdout: Arc<Mutex<Vec<String>>>,
    stderr: Arc<Mutex<Vec<String>>>,
}

fn start_coordinator(args: &[&str]) -> Coordinator {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mom3d-shard"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mom3d-shard spawns");
    let stdout = tail(child.stdout.take().expect("stdout piped"));
    let stderr = tail(child.stderr.take().expect("stderr piped"));
    Coordinator { child, stdout, stderr }
}

fn wait_for_line(
    lines: &Arc<Mutex<Vec<String>>>,
    pred: impl Fn(&str) -> bool,
    what: &str,
) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(line) = lines.lock().unwrap().iter().find(|l| pred(l)) {
            return line.clone();
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn wait_success(child: Child, what: &str) {
    let status = wait_exit(child, what);
    assert!(status.success(), "{what} exited with {status}");
}

fn wait_exit(mut child: Child, what: &str) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match child.try_wait().expect("child pollable") {
            Some(status) => return status,
            None => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    panic!("{what} did not finish in time");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn worker_pid(line: &str) -> String {
    line.split("(pid ")
        .nth(1)
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or_else(|| panic!("unparseable spawn line: {line}"))
        .to_string()
}

fn sigkill(pid: &str) {
    let status = Command::new("kill").args(["-9", pid]).status().expect("kill runs");
    assert!(status.success(), "kill -9 {pid} failed");
}

fn read_json(path: &PathBuf) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn a_sigkilled_worker_is_respawned_and_the_sweep_stays_exact() {
    let sock = tmp("kill-worker", "sock");
    let json_path = tmp("kill-worker", "json");
    let manifest = tmp("kill-worker", "mwm");
    let _ = std::fs::remove_file(&manifest);
    let seed = SEED.to_string();
    let coord = start_coordinator(&[
        &seed,
        "--small",
        "--workers",
        "2",
        "--batch",
        "4",
        "--manifest",
        manifest.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
        "--unix",
        sock.to_str().unwrap(),
    ]);

    // SIGKILL worker 0 the moment its pid is announced — before or
    // during its first batch. The supervision loop must respawn it.
    let line =
        wait_for_line(&coord.stdout, |l| l.starts_with("spawned worker 0"), "worker 0 pid");
    sigkill(&worker_pid(&line));
    wait_success(coord.child, "mom3d-shard");

    let spawns = coord
        .stdout
        .lock()
        .unwrap()
        .iter()
        .filter(|l| l.starts_with("spawned worker"))
        .count();
    assert!(spawns >= 3, "expected a respawn beyond the two initial workers: {spawns}");

    let json = read_json(&json_path);
    assert!(json.contains("\"schema\": \"mom3d/sweep/v5\""));
    assert_eq!(cell_signatures(&json), serial_signatures(), "kill changed results");
    // Attribution still partitions the grid: the kill completed no cell
    // twice and lost none.
    assert_eq!(attributed_cells(&json), sweep::full_grid().len() as u64);

    for p in [&sock, &json_path, &manifest] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_sigkilled_coordinator_resumes_from_its_manifest() {
    let sock = tmp("kill-coord", "sock");
    let json_path = tmp("kill-coord", "json");
    let manifest = tmp("kill-coord", "mwm");
    let _ = std::fs::remove_file(&manifest);
    let seed = SEED.to_string();
    let args = [
        seed.as_str(),
        "--small",
        "--workers",
        "2",
        "--batch",
        "2",
        "--manifest",
        manifest.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
        "--unix",
        sock.to_str().unwrap(),
    ];

    // First run: SIGKILL the coordinator as soon as the manifest holds
    // at least one journaled cell.
    let mut coord = start_coordinator(&args);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        // Header record is ~50 bytes; any cell record pushes past 200.
        if std::fs::metadata(&manifest).map(|m| m.len() > 200).unwrap_or(false) {
            break;
        }
        assert!(Instant::now() < deadline, "no cell was ever journaled");
        std::thread::sleep(Duration::from_millis(5));
    }
    coord.child.kill().expect("SIGKILL the coordinator");
    let _ = coord.child.wait();

    // Second run: --resume replays the journal and finishes the rest.
    let resume_args: Vec<&str> = args.iter().copied().chain(["--resume"]).collect();
    let coord = start_coordinator(&resume_args);
    wait_success(coord.child, "resumed mom3d-shard");

    let json = read_json(&json_path);
    assert_eq!(cell_signatures(&json), serial_signatures(), "resume changed results");
    let total = sweep::full_grid().len() as u64;
    let resumed = json_u64(&json, "resumed_cells");
    assert!(resumed >= 1, "the journaled cell must be replayed");
    // Zero re-simulation of completed cells: the workers were granted
    // exactly the complement of the journal.
    assert_eq!(attributed_cells(&json), total - resumed);

    for p in [&sock, &json_path, &manifest] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_corrupted_manifest_degrades_to_its_valid_prefix_never_to_wrong_cells() {
    let sock = tmp("corrupt", "sock");
    let json_path = tmp("corrupt", "json");
    let manifest = tmp("corrupt", "mwm");
    let _ = std::fs::remove_file(&manifest);

    // A fully complete journal, written the way the coordinator would.
    let grid = sweep::full_grid();
    let mut runner = Runner::small(SEED);
    {
        let mut m = Manifest::create(&manifest, SEED, true, &grid).unwrap();
        for key in &grid {
            let metrics = runner.metrics(key.kind, key.variant, key.memory, key.l2_latency);
            m.append(key, &metrics).unwrap();
        }
    }
    // Storage damage: flip one byte mid-file and tear the final record.
    let mut bytes = std::fs::read(&manifest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    bytes.truncate(bytes.len() - 10);
    std::fs::write(&manifest, &bytes).unwrap();

    let seed = SEED.to_string();
    let coord = start_coordinator(&[
        &seed,
        "--small",
        "--workers",
        "2",
        "--resume",
        "--manifest",
        manifest.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
        "--unix",
        sock.to_str().unwrap(),
    ]);
    wait_success(coord.child, "mom3d-shard over a corrupted manifest");

    let json = read_json(&json_path);
    // Damaged records re-simulate; surviving records replay; nothing is
    // ever wrong.
    assert_eq!(cell_signatures(&json), serial_signatures(), "corruption leaked through");
    let resumed = json_u64(&json, "resumed_cells");
    let total = grid.len() as u64;
    assert!(resumed < total, "the flipped and torn records must not be trusted");
    assert_eq!(attributed_cells(&json), total - resumed);

    for p in [&sock, &json_path, &manifest] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn protocol_abuse_costs_at_most_the_abusers_connection() {
    let sock = tmp("fuzz", "sock");
    let json_path = tmp("fuzz", "json");
    let manifest = tmp("fuzz", "mwm");
    let _ = std::fs::remove_file(&manifest);
    let seed = SEED.to_string();
    // --workers 0: the coordinator serves externally-launched workers,
    // so the abuse below happens while the sweep is genuinely live.
    let args = [
        seed.as_str(),
        "--small",
        "--workers",
        "0",
        "--batch",
        "8",
        "--manifest",
        manifest.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
        "--unix",
        sock.to_str().unwrap(),
    ];
    let coord = start_coordinator(&args);
    wait_for_line(&coord.stdout, |l| l.contains("listening on"), "readiness line");
    let endpoint = Endpoint::Unix(sock.clone());

    // A never-assigned opcode: typed error, connection stays usable.
    let mut stream = Client::connect(&endpoint).unwrap().into_stream();
    write_frame(&mut stream, 0x7F, b"").unwrap();
    let frame = read_frame(&mut stream).expect("coordinator replies");
    let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
        panic!("expected an error reply");
    };
    assert_eq!(code, ERR_UNSUPPORTED);

    // A torn CELL_DONE payload on the same connection: typed error,
    // still usable.
    write_frame(&mut stream, OP_CELL_DONE, &[1, 2, 3]).unwrap();
    let frame = read_frame(&mut stream).expect("coordinator replies");
    let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
        panic!("expected an error reply");
    };
    assert_eq!(code, ERR_MALFORMED);

    // A well-formed CELL_DONE for a cell outside the grid: silently
    // dropped (fire-and-forget has no reply channel), never merged.
    let mut client = Client::from_stream(stream);
    let foreign = SimKey {
        kind: WorkloadKind::GsmEncode,
        variant: IsaVariant::Mom,
        memory: MemorySystemKind::VectorCache.into(),
        l2_latency: 9999,
    };
    client
        .send(&Request::CellDone { key: foreign, wall_ns: 1, metrics: Default::default() })
        .unwrap();
    // The coordinator is the cell service: introspection is answered.
    assert!(matches!(client.round_trip(&Request::Stats).unwrap(), Response::Stats(_)));
    assert!(matches!(client.round_trip(&Request::Ping).unwrap(), Response::Pong(_)));
    drop(client);

    // Frame-level damage: one ERR_PROTOCOL reply, then the coordinator
    // closes that connection (and only that connection).
    let mut stream = Client::connect(&endpoint).unwrap().into_stream();
    stream.write_all(b"NOPE\x01\x00\x00\x00\x00").unwrap();
    stream.flush().unwrap();
    let frame = read_frame(&mut stream).expect("one best-effort error frame");
    let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
        panic!("expected an error reply");
    };
    assert_eq!(code, ERR_PROTOCOL);
    assert!(read_frame(&mut stream).is_err(), "closed after frame damage");

    // A SHUTDOWN ends the run before any cell was simulated: the
    // coordinator fails naming what is left, with the foreign cell
    // dropped as a duplicate.
    let mut client = Client::connect(&endpoint).unwrap();
    assert_eq!(client.round_trip(&Request::Shutdown).unwrap(), Response::Bye);
    let status = wait_exit(coord.child, "mom3d-shard after SHUTDOWN");
    assert!(!status.success(), "an unfinished sweep must fail");
    let total = sweep::full_grid().len();
    let unfinished = format!("{total} of {total} cell(s) unfinished");
    wait_for_line(&coord.stderr, |l| l.contains(&unfinished), "the unfinished-cells error");
    let note = wait_for_line(
        &coord.stderr,
        |l| l.contains("duplicate result(s) dropped"),
        "the duplicate-drop note",
    );
    assert!(note.contains("1 duplicate"), "exactly the foreign cell: {note}");

    // Resuming from that manifest with a real worker finishes the grid,
    // bit-identical.
    let resume_args: Vec<&str> = args.iter().copied().chain(["--resume"]).collect();
    let coord = start_coordinator(&resume_args);
    wait_for_line(&coord.stdout, |l| l.contains("listening on"), "readiness line");
    let worker = Command::new(env!("CARGO_BIN_EXE_mom3d-shard-worker"))
        .args(["--unix", sock.to_str().unwrap(), "--id", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("mom3d-shard-worker spawns");
    wait_success(coord.child, "resumed mom3d-shard");
    wait_success(worker, "mom3d-shard-worker");

    let json = read_json(&json_path);
    assert_eq!(cell_signatures(&json), serial_signatures(), "abuse changed results");

    for p in [&sock, &json_path, &manifest] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn a_worker_redials_after_an_unsupported_reply_to_its_claim() {
    // The frame checksum does not cover the header, so wire damage can
    // turn a claim into a non-request opcode, which the service answers
    // with ERR_UNSUPPORTED. That is transient like every typed error: the
    // worker ends the session, backs off and redials.
    let sock = tmp("unsupported-claim", "sock");
    let _ = std::fs::remove_file(&sock);
    let listener = UnixListener::bind(&sock).expect("stub binds");
    let stub = std::thread::spawn(move || {
        let replies = [
            Response::Error { code: ERR_UNSUPPORTED, message: "opcode 0x86 is not a request".into() },
            Response::ShardGrant { seed: SEED, small: true, cells: Vec::new() },
        ];
        for reply in replies {
            let (mut conn, _) = listener.accept().expect("the worker dials");
            let frame = read_frame(&mut conn).expect("a claim arrives");
            assert!(matches!(Request::decode(&frame), Ok(Request::ShardClaim { worker: 4 })));
            let (opcode, payload) = reply.encode();
            write_frame(&mut conn, opcode, &payload).unwrap();
        }
    });
    let config = WorkerConfig { id: 4, threads: 1, ..WorkerConfig::default() };
    let summary = run_worker(&Endpoint::Unix(sock.clone()), &config)
        .expect("ERR_UNSUPPORTED on a claim is transient");
    assert_eq!(summary.cells, 0);
    stub.join().expect("the stub saw both claims");
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn an_idle_connection_is_closed_by_the_time_coordinate_returns() {
    // The coordinator drains on shutdown like mom3d-serve: a connection
    // that went quiet after one request is force-closed before
    // coordinate() returns, instead of parking a handler thread (and the
    // coordinator state it holds) for the 600 s idle deadline.
    let sock = tmp("idle-drain", "sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let coordinator = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let config = ShardConfig { seed: SEED, small: true, workers: 0, ..Default::default() };
            coordinate(endpoint, &sweep::full_grid(), &config)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut idle = loop {
        match Client::connect(&endpoint) {
            Ok(client) => break client,
            Err(e) => {
                assert!(Instant::now() < deadline, "the coordinator never listened: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    assert!(matches!(idle.round_trip(&Request::Ping).unwrap(), Response::Pong(_)));

    let worker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            run_worker(&endpoint, &WorkerConfig { threads: 1, ..Default::default() })
        })
    };
    let report = coordinator.join().unwrap().expect("the sweep completes");
    assert_eq!(report.fresh_cells(), sweep::full_grid().len());

    let mut stream = idle.into_stream();
    stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut byte = [0u8; 1];
    let read = stream.read(&mut byte);
    assert!(matches!(read, Ok(0)), "the idle connection must read EOF, got {read:?}");
    worker.join().unwrap().expect("the worker retires cleanly");
    let _ = std::fs::remove_file(&sock);
}
