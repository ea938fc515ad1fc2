//! The `mom3d-serve` failure surface: a misbehaving client may cost
//! itself its own connection, but never the server, never another
//! client's results, and never the integrity of the resident memo
//! table. Frame-level damage (truncation, absurd lengths, bad magic)
//! closes the one connection; payload-level damage (garbage opcodes,
//! unknown backends, oversized sweeps) costs one error reply and the
//! connection stays usable; a disconnect mid-stream leaves scheduled
//! simulations to complete and memoize for the next requester; and N
//! identical in-flight requests coalesce onto one simulation.

use mom3d_bench::protocol::{
    read_frame, write_frame, Client, Endpoint, Frame, Request, Response, RetryClient,
    RetryPolicy, ServeCounters,
    ERR_MALFORMED, ERR_PROTOCOL, ERR_TOO_MANY_CELLS, ERR_UNKNOWN_BACKEND, ERR_UNSUPPORTED,
    MAX_FRAME_PAYLOAD, MAX_SWEEP_CELLS, OP_PONG, OP_SIM, OP_SWEEP, PROTOCOL_MAGIC,
};
use mom3d_bench::serve::{serve, ServeConfig, ServerHandle};
use mom3d_bench::shard::{run_worker, WorkerConfig};
use mom3d_bench::{Runner, SimKey};
use mom3d_cpu::MemorySystemKind;
use mom3d_kernels::{IsaVariant, WorkloadKind};
use std::io::Write;
use std::time::{Duration, Instant};

const SEED: u64 = 9;

fn start(name: &str) -> ServerHandle {
    let path = std::env::temp_dir()
        .join(format!("mom3d-serve-test-{}-{name}.sock", std::process::id()));
    let config = ServeConfig { seed: SEED, small: true, threads: 2, ..ServeConfig::default() };
    serve(Endpoint::Unix(path), config).expect("server binds")
}

fn key(l2_latency: u32) -> SimKey {
    SimKey {
        kind: WorkloadKind::GsmEncode,
        variant: IsaVariant::Mom,
        memory: MemorySystemKind::VectorCache.into(),
        l2_latency,
    }
}

/// Polls the server's counters until `pred` holds (the worker pool is
/// asynchronous, so some assertions need to wait for it to catch up).
fn wait_for_counters(handle: &ServerHandle, pred: impl Fn(&ServeCounters) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let counters = handle.counters();
        if pred(&counters) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting on counters: {counters:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn garbage_opcode_gets_an_error_and_the_connection_stays_usable() {
    let handle = start("garbage-opcode");
    let mut stream = handle.endpoint().connect().unwrap();
    // A perfectly framed request with an opcode the server does not
    // serve (a response opcode, and a never-assigned one).
    for opcode in [OP_PONG, 0x7F] {
        write_frame(&mut stream, opcode, b"").unwrap();
        let frame = read_frame(&mut stream).expect("server replies");
        let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
            panic!("expected an error reply");
        };
        assert_eq!(code, ERR_UNSUPPORTED, "opcode {opcode:#04x}");
    }
    // The connection survived both: a Ping still round-trips.
    let mut client = Client::from_stream(stream);
    assert!(matches!(client.round_trip(&Request::Ping).unwrap(), Response::Pong(_)));
    handle.shutdown();
}

#[test]
fn an_attached_worker_stays_bit_identical_and_stray_results_never_memoize() {
    // mom3d-serve speaks the worker dialect too: a CELL_DONE for a key
    // nobody requested is dropped (never memoized), and a pull-based
    // worker attached to the server shares its queue with the local
    // pool without changing a single bit of what clients receive.
    let handle = start("attached-worker");
    let endpoint = handle.endpoint().clone();
    let mut runner = Runner::small(SEED);

    let stray = key(99);
    let mut client = Client::connect(&endpoint).unwrap();
    client
        .send(&Request::CellDone { key: stray, wall_ns: 5, metrics: Default::default() })
        .unwrap();
    let Response::Result(reply) = client.round_trip(&Request::Sim(stray)).unwrap() else {
        panic!("expected a result");
    };
    assert!(!reply.memo_hit, "the stray CELL_DONE must not have entered the memo table");
    let direct = runner.metrics(stray.kind, stray.variant, stray.memory, stray.l2_latency);
    assert_eq!(reply.metrics, direct);

    let worker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            run_worker(&endpoint, &WorkerConfig { id: 3, threads: 1, ..WorkerConfig::default() })
        })
    };
    // Two requests so far; the worker's claim is the third.
    wait_for_counters(&handle, |c| c.requests >= 3);

    // Sweep fresh grids until the worker has published at least one
    // cell (the local pool races it for every queued cell); every
    // streamed result is bit-identical to serial execution.
    let mut swept = 0u64;
    for round in 0..20u32 {
        let cells: Vec<SimKey> = [WorkloadKind::GsmEncode, WorkloadKind::JpegDecode]
            .into_iter()
            .flat_map(|kind| {
                (0..3).map(move |i| SimKey { kind, l2_latency: 100 + 3 * round + i, ..key(0) })
            })
            .collect();
        let mut sweeper = RetryClient::new(endpoint.clone(), RetryPolicy::default());
        for reply in sweeper.sweep(&cells).expect("the sweep completes") {
            let k = reply.key;
            assert_eq!(reply.metrics, runner.metrics(k.kind, k.variant, k.memory, k.l2_latency));
        }
        swept += cells.len() as u64;
        if handle.counters().sims_executed < swept + 1 {
            break;
        }
    }
    let local = handle.counters().sims_executed;
    assert!(local < swept + 1, "the attached worker never published a cell");
    handle.shutdown();
    let summary = worker.join().unwrap().expect("the worker retires on the shutdown grant");
    assert!(summary.cells >= swept + 1 - local);
}

#[test]
fn malformed_payloads_get_typed_errors_on_a_live_connection() {
    let handle = start("malformed");
    let mut stream = handle.endpoint().connect().unwrap();

    // SIM with an unknown workload-kind code.
    write_frame(&mut stream, OP_SIM, &[200]).unwrap();
    let frame = read_frame(&mut stream).unwrap();
    let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
        panic!("expected an error");
    };
    assert_eq!(code, ERR_MALFORMED);

    // SIM naming a backend that is not registered.
    let mut p = vec![0, 0];
    p.extend_from_slice(&20u32.to_le_bytes());
    p.extend_from_slice(&7u16.to_le_bytes());
    p.extend_from_slice(b"badback");
    write_frame(&mut stream, OP_SIM, &p).unwrap();
    let frame = read_frame(&mut stream).unwrap();
    let Response::Error { code, message } = Response::decode(&frame).unwrap() else {
        panic!("expected an error");
    };
    assert_eq!(code, ERR_UNKNOWN_BACKEND);
    assert!(message.contains("badback"), "the error names the backend: {message}");

    // SWEEP claiming more cells than the limit.
    let mut p = Vec::new();
    p.extend_from_slice(&(MAX_SWEEP_CELLS + 1).to_le_bytes());
    write_frame(&mut stream, OP_SWEEP, &p).unwrap();
    let frame = read_frame(&mut stream).unwrap();
    let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
        panic!("expected an error");
    };
    assert_eq!(code, ERR_TOO_MANY_CELLS);

    // After three rejected requests the connection still works, and no
    // simulation was ever scheduled.
    let mut client = Client::from_stream(stream);
    assert!(matches!(client.round_trip(&Request::Ping).unwrap(), Response::Pong(_)));
    let counters = handle.counters();
    assert_eq!(counters.sims_executed, 0);
    assert_eq!(counters.memo_misses, 0);
    handle.shutdown();
}

#[test]
fn frame_level_damage_closes_only_the_damaged_connection() {
    let handle = start("frame-damage");

    // Absurd length prefix: one ERR_PROTOCOL reply, then close.
    let mut stream = handle.endpoint().connect().unwrap();
    let mut head = Vec::new();
    head.extend_from_slice(&PROTOCOL_MAGIC);
    head.push(OP_SIM);
    head.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    stream.write_all(&head).unwrap();
    stream.flush().unwrap();
    let frame = read_frame(&mut stream).expect("one best-effort error frame");
    let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
        panic!("expected an error");
    };
    assert_eq!(code, ERR_PROTOCOL);
    assert!(
        read_frame(&mut stream).is_err(),
        "the server must close after frame-level damage"
    );

    // Bad magic: same contract.
    let mut stream = handle.endpoint().connect().unwrap();
    stream.write_all(b"NOPE\x01\x00\x00\x00\x00").unwrap();
    stream.flush().unwrap();
    let frame = read_frame(&mut stream).expect("one best-effort error frame");
    let Response::Error { code, .. } = Response::decode(&frame).unwrap() else {
        panic!("expected an error");
    };
    assert_eq!(code, ERR_PROTOCOL);
    assert!(read_frame(&mut stream).is_err());

    // Truncated frame: the header promises payload that never comes.
    // Nothing to reply to — the server just drops the connection.
    let mut stream = handle.endpoint().connect().unwrap();
    let mut partial = Vec::new();
    partial.extend_from_slice(&PROTOCOL_MAGIC);
    partial.push(OP_SIM);
    partial.extend_from_slice(&100u32.to_le_bytes());
    partial.extend_from_slice(b"only a few bytes");
    stream.write_all(&partial).unwrap();
    stream.flush().unwrap();
    stream.shutdown_write();
    assert!(read_frame(&mut stream).is_err(), "no valid reply to a truncated frame");

    wait_for_counters(&handle, |c| c.protocol_errors >= 3);
    // The server itself is unharmed: a fresh client gets served.
    let mut client = Client::connect(handle.endpoint()).unwrap();
    assert!(matches!(client.round_trip(&Request::Ping).unwrap(), Response::Pong(_)));
    handle.shutdown();
}

#[test]
fn disconnect_mid_stream_leaves_completed_work_memoized() {
    let handle = start("disconnect");
    let cells: Vec<SimKey> = (0..4).map(|i| key(18 + i)).collect();

    // Request a sweep and vanish without reading a single result.
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.send(&Request::Sweep(cells.clone())).unwrap();
    drop(client);

    // The scheduled simulations complete anyway and stay memoized.
    let unique = cells.len() as u64;
    wait_for_counters(&handle, |c| c.sims_executed >= unique);

    // A second client sweeping the same grid is served entirely from
    // the memo table — nothing re-simulates.
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.send(&Request::Sweep(cells.clone())).unwrap();
    let mut results = 0u32;
    loop {
        match client.recv().unwrap() {
            Response::Result(r) => {
                assert!(r.memo_hit, "{:?} must be served from the memo table", r.key);
                results += 1;
            }
            Response::Done { results: n } => {
                assert_eq!(n, results);
                break;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(results as usize, cells.len());
    assert_eq!(handle.counters().sims_executed, unique, "nothing re-simulated");
    handle.shutdown();
}

#[test]
fn identical_inflight_requests_coalesce_onto_one_simulation() {
    let handle = start("coalesce");
    let key = key(20);
    const CLIENTS: usize = 8;

    // N clients fire the same cold key as simultaneously as a barrier
    // can make them. Exactly one simulation may run; everyone gets the
    // same bits.
    let barrier = std::sync::Barrier::new(CLIENTS);
    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = &barrier;
                let endpoint = handle.endpoint();
                scope.spawn(move || {
                    let mut client = Client::connect(endpoint).unwrap();
                    barrier.wait();
                    let Response::Result(r) = client.round_trip(&Request::Sim(key)).unwrap()
                    else {
                        panic!("expected a result");
                    };
                    r
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(replies.len(), CLIENTS);
    let first = &replies[0];
    for r in &replies {
        assert_eq!(r.key, key);
        assert_eq!(r.metrics, first.metrics, "every coalesced reply is bit-identical");
    }
    // ... and bit-identical to direct in-process execution.
    let mut runner = Runner::small(SEED);
    let direct = runner.metrics(key.kind, key.variant, key.memory, key.l2_latency);
    assert_eq!(first.metrics, direct);

    let counters = handle.counters();
    assert_eq!(counters.sims_executed, 1, "N identical requests must run one simulation");
    assert_eq!(
        counters.memo_misses, 1,
        "exactly one request claims the cell; the rest coalesce or memo-hit"
    );
    assert_eq!(
        counters.memo_hits + counters.memo_coalesced + counters.memo_misses,
        CLIENTS as u64
    );
    assert_eq!(counters.results_streamed, CLIENTS as u64);
    handle.shutdown();
}

#[test]
fn raw_frame_damage_is_rejected_before_any_allocation() {
    // Pure codec-level checks over an in-memory buffer: the absurd
    // length prefix is rejected from the 9-byte header alone — no
    // payload read, no `Vec` sized by attacker-controlled bytes.
    let mut buf = Vec::new();
    buf.extend_from_slice(&PROTOCOL_MAGIC);
    buf.push(OP_SIM);
    buf.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(read_frame(&mut buf.as_slice()).is_err());

    // A maximal-length claim just over the limit is equally dead.
    let mut buf = Vec::new();
    buf.extend_from_slice(&PROTOCOL_MAGIC);
    buf.push(OP_SIM);
    buf.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    assert!(read_frame(&mut buf.as_slice()).is_err());

    // At the limit the length itself is fine; the frame then dies on
    // truncation (no payload follows), not on the bound.
    let mut buf = Vec::new();
    buf.extend_from_slice(&PROTOCOL_MAGIC);
    buf.push(OP_SIM);
    buf.extend_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
    assert!(read_frame(&mut buf.as_slice()).is_err());

    // And a well-formed frame still decodes, proving the checks above
    // rejected damage, not the codec.
    let mut buf = Vec::new();
    write_frame(&mut buf, OP_SIM, b"payload").unwrap();
    assert_eq!(
        read_frame(&mut buf.as_slice()).unwrap(),
        Frame { opcode: OP_SIM, payload: b"payload".to_vec() }
    );
}

#[test]
fn request_shutdown_stops_the_server_and_then_finds_it_gone() {
    let handle = start("shutdown");
    let endpoint = handle.endpoint().clone();
    let mut client = RetryClient::new(endpoint.clone(), RetryPolicy::default());
    assert!(client.request_shutdown().expect("shutdown acked"), "a live server acks");
    handle.wait();
    // The socket is unlinked on drain: a second request finds nothing
    // to stop, which is success, not an error.
    let mut again = RetryClient::new(endpoint, RetryPolicy::default());
    assert!(!again.request_shutdown().expect("a gone server is not an error"));
}
