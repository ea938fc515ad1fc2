//! The `mom3d-serve` wire protocol: length-prefixed, checksummed binary
//! frames over TCP or unix-domain sockets.
//!
//! The protocol is hand-rolled over [`std::net`]/[`std::os::unix::net`]
//! (no tokio, no serde — the build environment vendors everything) and
//! reuses the codec idiom of the workload-image format
//! (`mom3d_kernels::image`): little-endian fixed-width integers, a
//! magic, explicit length prefixes, and an FNV-1a checksum
//! ([`mom3d_emu::checksum64`]) so a damaged frame is detected instead
//! of misinterpreted.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"M3S2" (protocol version folded in)
//! 4       1     opcode
//! 5       4     payload length (LE; at most MAX_FRAME_PAYLOAD)
//! 9       n     payload
//! 9+n     8     checksum64(payload) ^ opcode·K (LE)
//! ```
//!
//! The trailer mixes in the opcode (`K` is an odd constant), so a
//! damaged opcode is caught like damaged payload: otherwise one flipped
//! bit would turn a `PING` (`0x01`) into a `SHUTDOWN` (`0x05`).
//!
//! Frame-level damage (bad magic, oversized length, checksum mismatch)
//! is unrecoverable — the receiver cannot re-synchronize the stream —
//! so the server answers with one [`ERR_PROTOCOL`] error frame
//! (best-effort) and closes the connection. *Payload*-level problems in
//! a well-framed request (unknown workload kind, unregistered backend
//! id, too many sweep cells) are answered with an error frame and the
//! connection stays usable.
//!
//! # Requests and responses
//!
//! | Request    | Payload                        | Reply |
//! |------------|--------------------------------|-------|
//! | `PING`     | —                              | `PONG` (server seed + geometry) |
//! | `SIM`      | one [`SimKey`]                 | one `RESULT` |
//! | `SWEEP`    | cell count + that many keys    | `RESULT` per unique cell, **in completion order**, then `DONE` |
//! | `STATS`    | —                              | `STATS_REPLY` ([`ServeCounters`]) |
//! | `SHUTDOWN` | —                              | `BYE`, then the server stops accepting |
//!
//! A `RESULT` carries the echoed [`SimKey`] (streams complete out of
//! order), a memo-hit flag and the full [`Metrics`] — bit-identical to
//! what an in-process [`crate::Runner`] computes for the same key.
//!
//! The pull-based worker opcodes ([`crate::shard`]) ride the same
//! framing and belong to the same dialect:
//!
//! | Request       | Payload                          | Reply |
//! |---------------|----------------------------------|-------|
//! | `SHARD_CLAIM` | worker id                        | `SHARD_GRANT` (seed + geometry + cell batch; an empty batch means "the service is shutting down, exit") |
//! | `CELL_DONE`   | key + sim wall-clock + [`Metrics`] | — (fire-and-forget stream) |
//! | `SHARD_FIN`   | cells completed in this grant    | `DONE` (ack; echoes the completed count) |
//!
//! `mom3d-serve` and the `mom3d-shard` coordinator are one cell service
//! ([`crate::serve`]) and answer all eight requests. [`ERR_UNSUPPORTED`]
//! therefore comes only from [`Request::decode`], for an opcode that is
//! not a request — in practice a frame header damaged on the wire.

use crate::faults::{chaos_wrap, Backoff, ChaosConfig};
use crate::runner::SimKey;
use mom3d_cpu::{BackendRegistry, Metrics};
use mom3d_kernels::{IsaVariant, WorkloadKind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Magic bytes opening every frame; the digit is the protocol version.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"M3S2";

/// Upper bound on a frame's payload. Large enough for a maximal sweep
/// response, small enough that an absurd length prefix (attack or
/// corruption) is rejected before any allocation happens.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 20;

/// Upper bound on the cells of one `SWEEP` request.
pub const MAX_SWEEP_CELLS: u32 = 4096;

/// Request opcodes (client → server).
pub const OP_PING: u8 = 0x01;
/// Simulate one cell.
pub const OP_SIM: u8 = 0x02;
/// Simulate a grid, streaming per-cell results.
pub const OP_SWEEP: u8 = 0x03;
/// Server counter snapshot.
pub const OP_STATS: u8 = 0x04;
/// Stop accepting connections and exit.
pub const OP_SHUTDOWN: u8 = 0x05;
/// A shard worker asking the coordinator for a batch of cells.
pub const OP_SHARD_CLAIM: u8 = 0x06;
/// A shard worker streaming one completed cell back (no reply frame —
/// completions are fire-and-forget on the worker's one connection).
pub const OP_CELL_DONE: u8 = 0x07;
/// A shard worker reporting its current grant finished.
pub const OP_SHARD_FIN: u8 = 0x08;

/// Response opcodes (server → client).
pub const OP_PONG: u8 = 0x81;
/// One cell's metrics.
pub const OP_RESULT: u8 = 0x82;
/// End of a `SWEEP` stream.
pub const OP_DONE: u8 = 0x83;
/// Counter snapshot reply.
pub const OP_STATS_REPLY: u8 = 0x84;
/// Request- or frame-level error.
pub const OP_ERROR: u8 = 0x85;
/// Shutdown acknowledged.
pub const OP_BYE: u8 = 0x86;
/// Reply to `SHARD_CLAIM`: the worker's next batch of cells (empty =
/// the sweep is complete, the worker should exit).
pub const OP_SHARD_GRANT: u8 = 0x87;

/// Error code: request payload failed to decode (wrong length, unknown
/// kind/variant code, non-UTF-8 backend id, …).
pub const ERR_MALFORMED: u8 = 1;
/// Error code: the backend id is not in the [`BackendRegistry`].
pub const ERR_UNKNOWN_BACKEND: u8 = 2;
/// Error code: the simulation (or its workload build) panicked
/// server-side; the cell is un-claimed and may be retried.
pub const ERR_SIM_FAILED: u8 = 3;
/// Error code: frame-level damage; the server closes the connection.
pub const ERR_PROTOCOL: u8 = 4;
/// Error code: well-formed frame whose opcode is not a request (a
/// response or unassigned opcode, e.g. a request opcode damaged on the
/// wire).
pub const ERR_UNSUPPORTED: u8 = 5;
/// Error code: a `SWEEP` request with more than [`MAX_SWEEP_CELLS`]
/// cells.
pub const ERR_TOO_MANY_CELLS: u8 = 6;
/// Error code: the server's pending-work queue (or connection table) is
/// full; the request was shed without scheduling anything. Retryable by
/// construction — every request is a [`SimKey`] and replies are
/// memoized, so clients back off and resend.
pub const ERR_OVERLOADED: u8 = 7;
/// Error code: a per-request deadline expired server-side before the
/// result was ready. The cell may still complete in the background;
/// retrying later typically hits the memo table.
pub const ERR_TIMEOUT: u8 = 8;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream before any frame byte (normal disconnect).
    Closed,
    /// The stream died mid-frame (truncated frame or I/O failure).
    Io(io::Error),
    /// The first four bytes are not [`PROTOCOL_MAGIC`].
    BadMagic([u8; 4]),
    /// The length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// The checksum trailer does not match the opcode and payload.
    Checksum,
    /// A read deadline expired ([`Stream::set_read_timeout`]). A
    /// timeout can strike mid-frame, so the stream is unsynchronized
    /// and must be discarded — recovery is reconnect-and-retry.
    TimedOut,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "truncated frame: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte limit")
            }
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::TimedOut => write!(f, "read deadline elapsed"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: opcode + raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's opcode byte (not yet validated against the known
    /// opcodes — that is the message layer's job).
    pub opcode: u8,
    /// The checksum-verified payload.
    pub payload: Vec<u8>,
}

/// The checksum trailer of a frame: the payload's checksum with the
/// opcode mixed in (see the [module docs](self)).
fn frame_checksum(opcode: u8, payload: &[u8]) -> u64 {
    mom3d_emu::checksum64(payload) ^ u64::from(opcode).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Writes one frame. Flushes, so a streamed result is visible to the
/// peer immediately.
///
/// # Errors
///
/// Propagates the underlying I/O error (a disconnected peer surfaces
/// here as a broken pipe).
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD as usize);
    let mut buf = Vec::with_capacity(17 + payload.len());
    buf.extend_from_slice(&PROTOCOL_MAGIC);
    buf.push(opcode);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&frame_checksum(opcode, payload).to_le_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// True for the two `io::ErrorKind`s an expired socket deadline
/// surfaces as (unix sockets report `WouldBlock`, TCP either).
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| {
        if is_timeout(&e) {
            FrameError::TimedOut
        } else {
            FrameError::Io(e)
        }
    })
}

/// Reads and validates one frame header, returning `(opcode, len)`.
fn read_frame_header(r: &mut impl Read) -> Result<(u8, u32), FrameError> {
    let mut head = [0u8; 9];
    // Distinguish "peer closed between frames" (EOF before the first
    // byte) from "died mid-frame" (EOF after it) from "deadline
    // expired".
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => return Err(FrameError::TimedOut),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let magic: [u8; 4] = head[0..4].try_into().expect("4 bytes");
    if magic != PROTOCOL_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let opcode = head[4];
    let len = u32::from_le_bytes(head[5..9].try_into().expect("4 bytes"));
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    Ok((opcode, len))
}

/// Reads a frame's payload + checksum trailer after its header.
fn read_frame_body(r: &mut impl Read, opcode: u8, len: u32) -> Result<Frame, FrameError> {
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload)?;
    let mut sum = [0u8; 8];
    read_exact_or(r, &mut sum)?;
    if u64::from_le_bytes(sum) != frame_checksum(opcode, &payload) {
        return Err(FrameError::Checksum);
    }
    Ok(Frame { opcode, payload })
}

/// Reads one frame, validating magic, length bound and checksum.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean disconnect between frames; every
/// other variant marks the stream as unusable (framing is lost).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let (opcode, len) = read_frame_header(r)?;
    read_frame_body(r, opcode, len)
}

/// Once a frame header has arrived, the rest of the frame must follow
/// within this deadline. Senders write whole frames in one flush, so a
/// long mid-frame gap means the length prefix lies (a bit-flipped
/// header claims bytes the peer never sent) or the path died — without
/// this bound such a reader blocks for its full *idle* timeout, the
/// checksum trailer powerless because it is read after the payload.
pub const MID_FRAME_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// [`read_frame`] with a two-phase deadline: waits up to `idle` for the
/// header (the normal between-requests patience), then caps the wait
/// for payload + trailer at [`MID_FRAME_TIMEOUT`] (tighter of the two).
/// The stream's read timeout is restored to `idle` before returning.
///
/// # Errors
///
/// As [`read_frame`]; a mid-frame stall surfaces as
/// [`FrameError::TimedOut`] and the stream must be discarded.
pub fn read_frame_deadlined(
    stream: &mut Stream,
    idle: Option<std::time::Duration>,
) -> Result<Frame, FrameError> {
    read_frame_deadlined_with(stream, idle, MID_FRAME_TIMEOUT)
}

fn read_frame_deadlined_with(
    stream: &mut Stream,
    idle: Option<std::time::Duration>,
    mid: std::time::Duration,
) -> Result<Frame, FrameError> {
    let (opcode, len) = read_frame_header(stream)?;
    stream.set_read_timeout(Some(idle.map_or(mid, |t| t.min(mid))));
    let result = read_frame_body(stream, opcode, len);
    stream.set_read_timeout(idle);
    result
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// A payload-level decode failure, carrying the wire error code and a
/// human-readable message the server echoes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// One of the `ERR_*` codes.
    pub code: u8,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    fn malformed(msg: &str) -> Self {
        WireError { code: ERR_MALFORMED, message: msg.to_string() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (code {})", self.message, self.code)
    }
}

impl std::error::Error for WireError {}

pub(crate) struct Cursor<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WireError::malformed("truncated payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::malformed("trailing bytes in payload"))
        }
    }
}

fn kind_code(k: WorkloadKind) -> u8 {
    WorkloadKind::ALL.iter().position(|&x| x == k).expect("kind in ALL") as u8
}

fn variant_code(v: IsaVariant) -> u8 {
    IsaVariant::ALL.iter().position(|&x| x == v).expect("variant in ALL") as u8
}

/// Appends a [`SimKey`] to `out`: kind, variant, L2 latency, then the
/// backend id as a length-prefixed UTF-8 string (ids are open-ended —
/// any registered backend is addressable).
pub fn put_sim_key(out: &mut Vec<u8>, key: &SimKey) {
    out.push(kind_code(key.kind));
    out.push(variant_code(key.variant));
    out.extend_from_slice(&key.l2_latency.to_le_bytes());
    let id = key.memory.as_str().as_bytes();
    out.extend_from_slice(&(id.len() as u16).to_le_bytes());
    out.extend_from_slice(id);
}

pub(crate) fn read_sim_key(c: &mut Cursor<'_>) -> Result<SimKey, WireError> {
    let kind = *WorkloadKind::ALL
        .get(c.u8()? as usize)
        .ok_or_else(|| WireError::malformed("unknown workload kind code"))?;
    let variant = *IsaVariant::ALL
        .get(c.u8()? as usize)
        .ok_or_else(|| WireError::malformed("unknown ISA variant code"))?;
    let l2_latency = c.u32()?;
    let id_len = c.u16()? as usize;
    let id = std::str::from_utf8(c.take(id_len)?)
        .map_err(|_| WireError::malformed("non-UTF-8 backend id"))?;
    let memory = BackendRegistry::parse(id).ok_or_else(|| WireError {
        code: ERR_UNKNOWN_BACKEND,
        message: format!("backend {id:?} is not registered on this server"),
    })?;
    Ok(SimKey { kind, variant, memory, l2_latency })
}

/// All 18 [`Metrics`] counters, in declaration order. The exhaustive
/// destructuring makes a new counter a compile error here — the
/// reminder to extend the wire format in both directions.
pub fn put_metrics(out: &mut Vec<u8>, m: &Metrics) {
    let Metrics {
        cycles,
        instructions,
        packed_ops,
        vec_mem_instrs,
        scalar_mem_instrs,
        port_accesses,
        l2_activity,
        vec_words,
        mov3d_instrs,
        mov3d_words,
        d3_writes,
        l2_scalar_accesses,
        l2_hits,
        l2_misses,
        l1_accesses,
        coherence_invalidations,
        dram_row_hits,
        dram_row_misses,
    } = *m;
    for v in [
        cycles,
        instructions,
        packed_ops,
        vec_mem_instrs,
        scalar_mem_instrs,
        port_accesses,
        l2_activity,
        vec_words,
        mov3d_instrs,
        mov3d_words,
        d3_writes,
        l2_scalar_accesses,
        l2_hits,
        l2_misses,
        l1_accesses,
        coherence_invalidations,
        dram_row_hits,
        dram_row_misses,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

pub(crate) fn read_metrics(c: &mut Cursor<'_>) -> Result<Metrics, WireError> {
    Ok(Metrics {
        cycles: c.u64()?,
        instructions: c.u64()?,
        packed_ops: c.u64()?,
        vec_mem_instrs: c.u64()?,
        scalar_mem_instrs: c.u64()?,
        port_accesses: c.u64()?,
        l2_activity: c.u64()?,
        vec_words: c.u64()?,
        mov3d_instrs: c.u64()?,
        mov3d_words: c.u64()?,
        d3_writes: c.u64()?,
        l2_scalar_accesses: c.u64()?,
        l2_hits: c.u64()?,
        l2_misses: c.u64()?,
        l1_accesses: c.u64()?,
        coherence_invalidations: c.u64()?,
        dram_row_hits: c.u64()?,
        dram_row_misses: c.u64()?,
    })
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness + server-identity probe.
    Ping,
    /// Simulate one cell.
    Sim(SimKey),
    /// Simulate a grid, streaming results.
    Sweep(Vec<SimKey>),
    /// Counter snapshot.
    Stats,
    /// Stop the server.
    Shutdown,
    /// A shard worker asking the coordinator for its next cell batch.
    ShardClaim {
        /// The worker's self-reported id (attributes per-worker stats).
        worker: u32,
    },
    /// One completed cell streamed back to the coordinator.
    CellDone {
        /// Which cell.
        key: SimKey,
        /// Wall-clock of the cell's simulation, nanoseconds.
        wall_ns: u64,
        /// The cell's metrics, bit-identical to in-process execution.
        metrics: Metrics,
    },
    /// The worker finished its current grant (every `CELL_DONE` of the
    /// batch was streamed); the coordinator acks with `DONE`.
    ShardFin {
        /// Cells the worker completed in this grant.
        completed: u32,
    },
}

impl Request {
    /// Encodes the request as `(opcode, payload)` for [`write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Request::Ping => (OP_PING, Vec::new()),
            Request::Sim(key) => {
                let mut p = Vec::with_capacity(32);
                put_sim_key(&mut p, key);
                (OP_SIM, p)
            }
            Request::Sweep(cells) => {
                let mut p = Vec::with_capacity(8 + 32 * cells.len());
                p.extend_from_slice(&(cells.len() as u32).to_le_bytes());
                for key in cells {
                    put_sim_key(&mut p, key);
                }
                (OP_SWEEP, p)
            }
            Request::Stats => (OP_STATS, Vec::new()),
            Request::Shutdown => (OP_SHUTDOWN, Vec::new()),
            Request::ShardClaim { worker } => (OP_SHARD_CLAIM, worker.to_le_bytes().to_vec()),
            Request::CellDone { key, wall_ns, metrics } => {
                let mut p = Vec::with_capacity(32 + 8 + 18 * 8);
                put_sim_key(&mut p, key);
                p.extend_from_slice(&wall_ns.to_le_bytes());
                put_metrics(&mut p, metrics);
                (OP_CELL_DONE, p)
            }
            Request::ShardFin { completed } => (OP_SHARD_FIN, completed.to_le_bytes().to_vec()),
        }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`WireError`] with [`ERR_UNSUPPORTED`] for non-request opcodes,
    /// [`ERR_TOO_MANY_CELLS`] for an oversized sweep, and
    /// [`ERR_MALFORMED`]/[`ERR_UNKNOWN_BACKEND`] for bad payloads; the
    /// server echoes the code and message back to the client.
    pub fn decode(frame: &Frame) -> Result<Request, WireError> {
        let mut c = Cursor { bytes: &frame.payload, pos: 0 };
        let req = match frame.opcode {
            OP_PING => Request::Ping,
            OP_SIM => Request::Sim(read_sim_key(&mut c)?),
            OP_SWEEP => {
                let n = c.u32()?;
                if n > MAX_SWEEP_CELLS {
                    return Err(WireError {
                        code: ERR_TOO_MANY_CELLS,
                        message: format!(
                            "sweep of {n} cells exceeds the {MAX_SWEEP_CELLS}-cell limit"
                        ),
                    });
                }
                let mut cells = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    cells.push(read_sim_key(&mut c)?);
                }
                Request::Sweep(cells)
            }
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_SHARD_CLAIM => Request::ShardClaim { worker: c.u32()? },
            OP_CELL_DONE => {
                let key = read_sim_key(&mut c)?;
                let wall_ns = c.u64()?;
                let metrics = read_metrics(&mut c)?;
                Request::CellDone { key, wall_ns, metrics }
            }
            OP_SHARD_FIN => Request::ShardFin { completed: c.u32()? },
            op => {
                return Err(WireError {
                    code: ERR_UNSUPPORTED,
                    message: format!("opcode {op:#04x} is not a request"),
                })
            }
        };
        c.finish()?;
        Ok(req)
    }
}

/// The `PONG` payload: enough server identity for a client to replay
/// the server's work locally (the load generator's bit-identity check
/// needs the seed and geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The server's workload data seed.
    pub seed: u64,
    /// True when the server simulates reduced-geometry workloads.
    pub small: bool,
    /// Simulation worker threads.
    pub threads: u32,
}

/// One streamed cell result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellReply {
    /// The echoed cell key (sweep streams complete out of order).
    pub key: SimKey,
    /// True when the metrics came straight from the resident memo table
    /// (no simulation scheduled by this request).
    pub memo_hit: bool,
    /// The cell's metrics, bit-identical to in-process execution.
    pub metrics: Metrics,
}

/// Server counters, as reported by `STATS` (cumulative since boot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Connections accepted.
    pub connections: u64,
    /// Well-formed requests served.
    pub requests: u64,
    /// Cells answered from the resident memo table.
    pub memo_hits: u64,
    /// Cells that scheduled a fresh simulation.
    pub memo_misses: u64,
    /// Cells that attached to an identical in-flight simulation instead
    /// of scheduling their own.
    pub memo_coalesced: u64,
    /// Simulations actually executed by the worker pool.
    pub sims_executed: u64,
    /// Workloads built (or image-cache-loaded) into residence.
    pub workloads_built: u64,
    /// Frame-level protocol errors (connection dropped each time).
    pub protocol_errors: u64,
    /// `RESULT` frames streamed.
    pub results_streamed: u64,
    /// Requests shed with [`ERR_OVERLOADED`] (queue full or draining).
    pub shed: u64,
    /// Connections refused at accept time (connection cap reached).
    pub refused_connections: u64,
}

impl ServeCounters {
    fn fields(&self) -> [u64; 11] {
        let ServeCounters {
            connections,
            requests,
            memo_hits,
            memo_misses,
            memo_coalesced,
            sims_executed,
            workloads_built,
            protocol_errors,
            results_streamed,
            shed,
            refused_connections,
        } = *self;
        [
            connections,
            requests,
            memo_hits,
            memo_misses,
            memo_coalesced,
            sims_executed,
            workloads_built,
            protocol_errors,
            results_streamed,
            shed,
            refused_connections,
        ]
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `PING`.
    Pong(Hello),
    /// One cell's result (replies to `SIM`; streamed for `SWEEP`).
    Result(CellReply),
    /// End of a `SWEEP` stream; carries the number of `RESULT` frames
    /// that preceded it.
    Done {
        /// `RESULT` frames streamed for this sweep.
        results: u32,
    },
    /// Reply to `STATS`.
    Stats(ServeCounters),
    /// An error, at request level (connection still usable) or protocol
    /// level ([`ERR_PROTOCOL`] — the server closes after sending).
    Error {
        /// One of the `ERR_*` codes.
        code: u8,
        /// Human-readable description.
        message: String,
    },
    /// Shutdown acknowledged.
    Bye,
    /// Reply to `SHARD_CLAIM`: the worker's next batch. The seed and
    /// geometry ride along so a worker needs **no** configuration beyond
    /// the coordinator's address — it builds its [`crate::Runner`] from
    /// the grant. An empty batch means the sweep is complete and the
    /// worker should exit.
    ShardGrant {
        /// The coordinator's workload data seed.
        seed: u64,
        /// True when reduced-geometry workloads are swept.
        small: bool,
        /// The granted cells (empty = no more work, exit).
        cells: Vec<SimKey>,
    },
}

impl Response {
    /// Encodes the response as `(opcode, payload)` for [`write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            Response::Pong(h) => {
                let mut p = Vec::with_capacity(13);
                p.extend_from_slice(&h.seed.to_le_bytes());
                p.push(h.small as u8);
                p.extend_from_slice(&h.threads.to_le_bytes());
                (OP_PONG, p)
            }
            Response::Result(r) => {
                let mut p = Vec::with_capacity(32 + 18 * 8);
                put_sim_key(&mut p, &r.key);
                p.push(r.memo_hit as u8);
                put_metrics(&mut p, &r.metrics);
                (OP_RESULT, p)
            }
            Response::Done { results } => (OP_DONE, results.to_le_bytes().to_vec()),
            Response::Stats(s) => {
                let fields = s.fields();
                let mut p = Vec::with_capacity(4 + 8 * fields.len());
                p.extend_from_slice(&(fields.len() as u32).to_le_bytes());
                for v in fields {
                    p.extend_from_slice(&v.to_le_bytes());
                }
                (OP_STATS_REPLY, p)
            }
            Response::Error { code, message } => {
                let mut p = Vec::with_capacity(5 + message.len());
                p.push(*code);
                let msg = message.as_bytes();
                p.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                p.extend_from_slice(msg);
                (OP_ERROR, p)
            }
            Response::Bye => (OP_BYE, Vec::new()),
            Response::ShardGrant { seed, small, cells } => {
                let mut p = Vec::with_capacity(13 + 32 * cells.len());
                p.extend_from_slice(&seed.to_le_bytes());
                p.push(*small as u8);
                p.extend_from_slice(&(cells.len() as u32).to_le_bytes());
                for key in cells {
                    put_sim_key(&mut p, key);
                }
                (OP_SHARD_GRANT, p)
            }
        }
    }

    /// Decodes a response frame (the client side of the codec).
    ///
    /// # Errors
    ///
    /// [`WireError`] when the frame is not a valid response.
    pub fn decode(frame: &Frame) -> Result<Response, WireError> {
        let mut c = Cursor { bytes: &frame.payload, pos: 0 };
        let resp = match frame.opcode {
            OP_PONG => {
                let seed = c.u64()?;
                let small = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::malformed("non-boolean geometry flag")),
                };
                let threads = c.u32()?;
                Response::Pong(Hello { seed, small, threads })
            }
            OP_RESULT => {
                let key = read_sim_key(&mut c)?;
                let memo_hit = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::malformed("non-boolean memo-hit flag")),
                };
                let metrics = read_metrics(&mut c)?;
                Response::Result(CellReply { key, memo_hit, metrics })
            }
            OP_DONE => Response::Done { results: c.u32()? },
            OP_STATS_REPLY => {
                let n = c.u32()? as usize;
                // Forward-compatible: a newer server may append counters;
                // read the ones this build knows and skip the rest.
                let mut fields = [0u64; 11];
                for (i, f) in fields.iter_mut().enumerate() {
                    if i < n {
                        *f = c.u64()?;
                    }
                }
                for _ in fields.len()..n {
                    c.u64()?;
                }
                let [connections, requests, memo_hits, memo_misses, memo_coalesced, sims_executed, workloads_built, protocol_errors, results_streamed, shed, refused_connections] =
                    fields;
                Response::Stats(ServeCounters {
                    connections,
                    requests,
                    memo_hits,
                    memo_misses,
                    memo_coalesced,
                    sims_executed,
                    workloads_built,
                    protocol_errors,
                    results_streamed,
                    shed,
                    refused_connections,
                })
            }
            OP_ERROR => {
                let code = c.u8()?;
                let len = c.u32()? as usize;
                let message = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| WireError::malformed("non-UTF-8 error message"))?
                    .to_string();
                Response::Error { code, message }
            }
            OP_BYE => Response::Bye,
            OP_SHARD_GRANT => {
                let seed = c.u64()?;
                let small = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::malformed("non-boolean geometry flag")),
                };
                let n = c.u32()?;
                if n > MAX_SWEEP_CELLS {
                    return Err(WireError {
                        code: ERR_TOO_MANY_CELLS,
                        message: format!(
                            "grant of {n} cells exceeds the {MAX_SWEEP_CELLS}-cell limit"
                        ),
                    });
                }
                let mut cells = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    cells.push(read_sim_key(&mut c)?);
                }
                Response::ShardGrant { seed, small, cells }
            }
            op => {
                return Err(WireError::malformed(match op {
                    OP_PING | OP_SIM | OP_SWEEP | OP_STATS | OP_SHUTDOWN | OP_SHARD_CLAIM
                    | OP_CELL_DONE | OP_SHARD_FIN => "request opcode in a response stream",
                    _ => "unknown response opcode",
                }))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Where a server listens / a client connects: a TCP address or a
/// unix-domain socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP, e.g. `127.0.0.1:7733`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Connects a client stream.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }

    /// True when this is a TCP endpoint with a resolvable address.
    pub fn is_tcp(&self) -> bool {
        matches!(self, Endpoint::Tcp(_))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// A connected byte stream over either transport — optionally wrapped
/// in the deterministic fault injector ([`crate::faults::ChaosStream`])
/// so the chaos layer composes with everything built on [`Stream`].
#[derive(Debug)]
pub enum Stream {
    /// TCP connection (Nagle disabled — frames are latency-sensitive).
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
    /// A stream with a seeded fault plan spliced in.
    Chaos(Box<crate::faults::ChaosStream>),
}

impl Stream {
    /// Half-closes the write side, signalling end-of-requests.
    pub fn shutdown_write(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
            Stream::Chaos(c) => return c.inner().shutdown_write(),
        };
    }

    /// Tears the connection down in both directions (used by the chaos
    /// layer's `drop`/`truncate` faults and by error paths that must
    /// unstick a peer blocked on the other half).
    pub fn shutdown_all(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Chaos(c) => return c.inner().shutdown_all(),
        };
    }

    /// Deadline for blocking reads; `None` blocks forever. Expiry
    /// surfaces as [`FrameError::TimedOut`] from [`read_frame`], after
    /// which the stream must be discarded (framing may be lost).
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) {
        let _ = match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Chaos(c) => return c.inner().set_read_timeout(timeout),
        };
    }

    /// Deadline for blocking writes; `None` blocks forever. A
    /// black-holed peer that never drains its socket surfaces here
    /// instead of wedging the writer thread.
    pub fn set_write_timeout(&self, timeout: Option<std::time::Duration>) {
        let _ = match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            Stream::Unix(s) => s.set_write_timeout(timeout),
            Stream::Chaos(c) => return c.inner().set_write_timeout(timeout),
        };
    }

    /// A second handle to the same connection (the chaos proxy pumps
    /// each direction from its own thread). Chaos-wrapped streams do
    /// not clone — the fault plan is single-threaded by design.
    ///
    /// # Errors
    ///
    /// Propagates the OS error; `InvalidInput` for a chaos stream.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Chaos(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a chaos-wrapped stream cannot be cloned",
            )),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
            Stream::Chaos(c) => c.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
            Stream::Chaos(c) => c.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
            Stream::Chaos(c) => c.flush(),
        }
    }
}

/// A blocking request/response client over a [`Stream`].
///
/// The load generator, the smoke tests and ad-hoc tooling all speak
/// through this; raw [`write_frame`]/[`read_frame`] stay available for
/// tests that need to send deliberately damaged bytes.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    io_timeout: std::cell::Cell<Option<std::time::Duration>>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client::from_stream(endpoint.connect()?))
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: Stream) -> Client {
        Client { stream, io_timeout: std::cell::Cell::new(None) }
    }

    /// Connects as dial number `*seq` (advanced on success), chaos-wraps
    /// the stream on that lane when `chaos` is set, and arms
    /// `io_timeout` ([`Client::set_io_timeout`]).
    pub(crate) fn dial(
        endpoint: &Endpoint,
        chaos: Option<&ChaosConfig>,
        seq: &mut u64,
        io_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let client = Client::from_stream(chaos_wrap(endpoint.connect()?, chaos, *seq));
        *seq += 1;
        client.set_io_timeout(io_timeout);
        Ok(client)
    }

    /// Arms one deadline on both directions of the connection. Expiry
    /// surfaces from [`Client::recv`] as `io::ErrorKind::TimedOut`; the
    /// client must then be discarded (a timeout can strike mid-frame).
    /// Mid-frame reads are additionally capped at
    /// [`MID_FRAME_TIMEOUT`], so a lying length prefix cannot hold the
    /// client for the full idle deadline.
    pub fn set_io_timeout(&self, timeout: Option<std::time::Duration>) {
        self.io_timeout.set(timeout);
        self.stream.set_read_timeout(timeout);
        self.stream.set_write_timeout(timeout);
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        let (opcode, payload) = req.encode();
        write_frame(&mut self.stream, opcode, &payload)
    }

    /// Reads one response frame.
    ///
    /// # Errors
    ///
    /// [`FrameError`] for transport/framing problems, mapped into the
    /// same `io::Error` space; a [`WireError`] payload problem is
    /// `InvalidData`.
    pub fn recv(&mut self) -> io::Result<Response> {
        let idle = self.io_timeout.get();
        let frame = read_frame_deadlined(&mut self.stream, idle).map_err(|e| match e {
            FrameError::Io(io) => io,
            FrameError::Closed => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            }
            FrameError::TimedOut => {
                io::Error::new(io::ErrorKind::TimedOut, "read deadline elapsed")
            }
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        Response::decode(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// See [`Client::send`] and [`Client::recv`].
    pub fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()
    }

    /// The underlying stream (e.g. to drop it mid-conversation).
    pub fn into_stream(self) -> Stream {
        self.stream
    }
}

// ---------------------------------------------------------------------------
// Retrying client
// ---------------------------------------------------------------------------

/// How a [`RetryClient`] paces itself: per-frame I/O deadline, retry
/// budget, and the seeded backoff schedule ([`Backoff`]) it sleeps by.
/// Retries are idempotent by construction — every request is a
/// [`SimKey`] and server replies are memoized — so the only cost of a
/// retry is latency.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Consecutive attempts without progress before giving up. Progress
    /// (any new cell received) resets the count, so a long sweep can
    /// survive many spread-out faults while a dead server still fails
    /// in bounded time.
    pub attempts: u32,
    /// First backoff rung.
    pub base_delay: Duration,
    /// Backoff saturation.
    pub max_delay: Duration,
    /// Per-frame read/write deadline on every connection
    /// ([`Client::set_io_timeout`]); `None` trusts the peer forever.
    pub io_timeout: Option<Duration>,
    /// Seed of the jitter stream (and of client-side chaos lanes).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            // Generous: a cold full-geometry cell can simulate for a
            // while before its first RESULT frame appears.
            io_timeout: Some(Duration::from_secs(120)),
            seed: 0x4d4f_4d33, // "MOM3"
        }
    }
}

/// Fault-class counters a [`RetryClient`] accumulates — the load
/// generator merges these into `BENCH_serve.json`'s `faults` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Read/write deadlines that expired (connection discarded each
    /// time).
    pub timeouts: u64,
    /// Re-attempts after any failure (reconnects included).
    pub retries: u64,
    /// [`ERR_OVERLOADED`] replies absorbed.
    pub sheds: u64,
    /// Requests that were shed at least once and later completed —
    /// the backpressure loop working as designed.
    pub shed_then_succeeded: u64,
}

enum Attempt {
    /// The request completed (possibly with partial progress recorded).
    Done(Response),
    /// Server shed the request ([`ERR_OVERLOADED`]); connection usable.
    Shed,
    /// Transient failure (the connection was already discarded by
    /// [`RetryClient::fail`] when framing was lost).
    Retry { error: io::Error },
}

/// A [`Client`] wrapped in deadlines, reconnects and seeded
/// exponential backoff: the resilience half of the chaos layer. Used by
/// the load generator, the tuner's remote executor and ad-hoc tooling;
/// the shard worker implements the same discipline over its
/// claim/stream conversation in [`crate::shard`].
///
/// With a [`ChaosConfig`] attached ([`RetryClient::with_chaos`]), every
/// connection it dials is wrapped in a
/// [`ChaosStream`](crate::faults::ChaosStream) whose fault lane
/// is the connection's sequence number — so a same-seed run dials the
/// same connections, suffers the same faults and recovers through the
/// same path, making the fault counters reproducible.
#[derive(Debug)]
pub struct RetryClient {
    endpoint: Endpoint,
    policy: RetryPolicy,
    chaos: Option<ChaosConfig>,
    conn_seq: u64,
    client: Option<Client>,
    backoff: Backoff,
    counters: FaultCounters,
}

impl RetryClient {
    /// A retrying client for `endpoint`.
    pub fn new(endpoint: Endpoint, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            endpoint,
            policy,
            chaos: None,
            conn_seq: 0,
            client: None,
            backoff: Backoff::new(policy.seed, policy.base_delay, policy.max_delay),
            counters: FaultCounters::default(),
        }
    }

    /// Like [`RetryClient::new`], with client-side fault injection on
    /// every dialed connection.
    pub fn with_chaos(
        endpoint: Endpoint,
        policy: RetryPolicy,
        chaos: Option<ChaosConfig>,
    ) -> RetryClient {
        RetryClient { chaos, ..RetryClient::new(endpoint, policy) }
    }

    /// The dialed endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Fault counters accumulated so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    fn connected(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let (chaos, timeout) = (self.chaos.as_ref(), self.policy.io_timeout);
            self.client = Some(Client::dial(&self.endpoint, chaos, &mut self.conn_seq, timeout)?);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    fn fail(&mut self, error: io::Error, drop_conn: bool) -> Attempt {
        if is_timeout(&error) {
            self.counters.timeouts += 1;
        }
        if drop_conn {
            self.client = None;
        }
        Attempt::Retry { error }
    }

    /// Classifies one response within a request conversation. Typed
    /// errors that keep the connection usable retry in place; framing
    /// loss ([`ERR_PROTOCOL`], [`ERR_TIMEOUT`]) reconnects first.
    /// [`ERR_UNSUPPORTED`] also reconnects and retries: every server
    /// answers every request opcode, so that code can only mean the
    /// frame checksum (which does not cover the header) let wire damage
    /// rewrite the opcode into a well-formed garbage request.
    fn classify(&mut self, resp: Response) -> Attempt {
        match resp {
            Response::Error { code: ERR_OVERLOADED, .. } => {
                self.counters.sheds += 1;
                Attempt::Shed
            }
            Response::Error { code: ERR_SIM_FAILED, message } => {
                self.fail(io::Error::other(format!("server: {message}")), false)
            }
            Response::Error {
                code: code @ (ERR_PROTOCOL | ERR_TIMEOUT | ERR_UNSUPPORTED),
                message,
            } => self.fail(io::Error::other(format!("server: {message} (code {code})")), true),
            other => Attempt::Done(other),
        }
    }

    fn one_round_trip(&mut self, req: &Request) -> Attempt {
        let client = match self.connected() {
            Ok(c) => c,
            Err(e) => return self.fail(e, true),
        };
        match client.round_trip(req) {
            Ok(resp) => self.classify(resp),
            Err(e) => self.fail(e, true),
        }
    }

    /// One request/response exchange with deadlines, reconnects and
    /// backoff. Fatal replies (unknown backend, malformed, …) are
    /// returned as responses — only transport faults, shed requests and
    /// transient server failures retry.
    ///
    /// # Errors
    ///
    /// The last transport error once the retry budget is spent.
    pub fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        let mut shed_pending = false;
        let mut strikes = 0u32;
        loop {
            let error = match self.one_round_trip(req) {
                Attempt::Done(resp) => {
                    if shed_pending {
                        self.counters.shed_then_succeeded += 1;
                    }
                    self.backoff.reset();
                    return Ok(resp);
                }
                Attempt::Shed => {
                    shed_pending = true;
                    io::Error::other("server overloaded")
                }
                Attempt::Retry { error, .. } => error,
            };
            strikes += 1;
            if strikes >= self.policy.attempts {
                return Err(error);
            }
            self.counters.retries += 1;
            std::thread::sleep(self.backoff.next_delay());
        }
    }

    /// Pings the server, retrying, and returns its identity.
    ///
    /// # Errors
    ///
    /// Transport exhaustion, or `InvalidData` for a non-`PONG` reply.
    pub fn ping(&mut self) -> io::Result<Hello> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong(hello) => Ok(hello),
            other => Err(unexpected_reply("PING", &other)),
        }
    }

    /// Server counter snapshot, retrying.
    ///
    /// # Errors
    ///
    /// Transport exhaustion, or `InvalidData` for a non-stats reply.
    pub fn stats(&mut self) -> io::Result<ServeCounters> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(counters) => Ok(counters),
            other => Err(unexpected_reply("STATS", &other)),
        }
    }

    /// Simulates one cell, retrying until the reply arrives or the
    /// budget is spent.
    ///
    /// # Errors
    ///
    /// Transport exhaustion, or `Other` with the server's message for a
    /// fatal typed error.
    pub fn sim(&mut self, key: &SimKey) -> io::Result<CellReply> {
        match self.round_trip(&Request::Sim(*key))? {
            Response::Result(reply) => Ok(reply),
            Response::Error { code, message } => {
                Err(io::Error::other(format!("server refused SIM: {message} (code {code})")))
            }
            other => Err(unexpected_reply("SIM", &other)),
        }
    }

    /// Sweeps `cells`, resuming across reconnects: after any fault only
    /// the still-undelivered cells are re-requested (the memoized
    /// server answers the rest for free), so a mid-`SWEEP` reconnect
    /// costs latency, never duplicated simulation. Oversized grids are
    /// chunked by [`MAX_SWEEP_CELLS`]. Replies come back in `cells`
    /// order (first occurrence, for duplicated keys).
    ///
    /// # Errors
    ///
    /// Transport exhaustion with no progress, or a fatal typed error.
    pub fn sweep(&mut self, cells: &[SimKey]) -> io::Result<Vec<CellReply>> {
        // The server streams unique cells only.
        let order = crate::sweep::unique_cells(cells);
        let mut got: HashMap<SimKey, CellReply> = HashMap::with_capacity(order.len());
        for chunk in order.chunks(MAX_SWEEP_CELLS as usize) {
            self.sweep_chunk(chunk, &mut got)?;
        }
        Ok(order.iter().map(|key| got[key]).collect())
    }

    fn sweep_chunk(
        &mut self,
        chunk: &[SimKey],
        got: &mut HashMap<SimKey, CellReply>,
    ) -> io::Result<()> {
        let mut shed_pending = false;
        let mut strikes = 0u32;
        loop {
            let remaining: Vec<SimKey> =
                chunk.iter().filter(|k| !got.contains_key(k)).copied().collect();
            if remaining.is_empty() {
                break;
            }
            let (progress, outcome) = self.sweep_once(&remaining, got);
            if progress {
                self.backoff.reset();
                strikes = 0;
                if shed_pending {
                    self.counters.shed_then_succeeded += 1;
                    shed_pending = false;
                }
            }
            let error = match outcome {
                Ok(()) if progress => continue,
                // A clean stream that delivered nothing means every
                // remaining cell failed server-side. Re-requesting is
                // still right (the failure may be transient), but it
                // must burn a strike with backoff: a deterministically
                // failing cell would otherwise spin this loop — and the
                // server's simulator — forever.
                Ok(()) => io::Error::other(format!(
                    "server failed all {} remaining sweep cell(s)",
                    remaining.len()
                )),
                Err(Attempt::Done(resp)) => return Err(unexpected_reply("SWEEP", &resp)),
                Err(Attempt::Shed) => {
                    shed_pending = true;
                    io::Error::other("server overloaded")
                }
                Err(Attempt::Retry { error, .. }) => error,
            };
            strikes += 1;
            if strikes >= self.policy.attempts {
                return Err(error);
            }
            self.counters.retries += 1;
            std::thread::sleep(self.backoff.next_delay());
        }
        Ok(())
    }

    /// One `SWEEP` conversation over the current connection. Returns
    /// whether any new cell arrived, and `Ok` when the stream finished
    /// cleanly (some cells may still be missing — e.g. individual
    /// `ERR_SIM_FAILED` replies — and are re-requested by the caller).
    fn sweep_once(
        &mut self,
        remaining: &[SimKey],
        got: &mut HashMap<SimKey, CellReply>,
    ) -> (bool, Result<(), Attempt>) {
        let mut progress = false;
        let wanted: HashSet<SimKey> = remaining.iter().copied().collect();
        let client = match self.connected() {
            Ok(c) => c,
            Err(e) => return (false, Err(self.fail(e, true))),
        };
        if let Err(e) = client.send(&Request::Sweep(remaining.to_vec())) {
            return (false, Err(self.fail(e, true)));
        }
        loop {
            let resp = match self.client.as_mut().expect("connected above").recv() {
                Ok(resp) => resp,
                Err(e) => return (progress, Err(self.fail(e, true))),
            };
            match resp {
                Response::Result(reply) => {
                    if wanted.contains(&reply.key) {
                        got.insert(reply.key, reply);
                        progress = true;
                    }
                }
                Response::Done { .. } => return (progress, Ok(())),
                Response::Error { code: ERR_SIM_FAILED, .. } => {
                    // One cell failed transiently; the stream carries on
                    // and the caller re-requests the stragglers.
                }
                other => return (progress, Err(self.classify(other))),
            }
        }
    }

    /// Asks the server to shut down, over a fresh connection per
    /// attempt and up to [`RetryPolicy::attempts`] times: under fault
    /// injection a `SHUTDOWN` frame or its ack can be damaged in flight,
    /// and an unstopped server would leave whoever waits on it hanging.
    /// Each ack wait is capped at 5 s. Returns `true` once the server
    /// acked, and `false` when a connect fails outright: the server is
    /// already gone, which is success too.
    ///
    /// # Errors
    ///
    /// The last transport error once every attempt has failed.
    pub fn request_shutdown(&mut self) -> io::Result<bool> {
        let mut last_err = io::Error::other("no shutdown attempt allowed");
        for attempt in 0..self.policy.attempts {
            self.client = None;
            let Ok(client) = self.connected() else {
                return Ok(false);
            };
            client.set_io_timeout(Some(Duration::from_secs(5)));
            match client.round_trip(&Request::Shutdown) {
                Ok(_) => {
                    self.client = None;
                    return Ok(true);
                }
                Err(e) => last_err = e,
            }
            std::thread::sleep(Duration::from_millis(50 << attempt.min(4)));
        }
        self.client = None;
        Err(last_err)
    }
}

fn unexpected_reply(context: &str, resp: &Response) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected reply to {context}: {resp:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mom3d_cpu::MemorySystemKind;

    fn key() -> SimKey {
        SimKey {
            kind: WorkloadKind::GsmEncode,
            variant: IsaVariant::Mom,
            memory: MemorySystemKind::VectorCache.into(),
            l2_latency: 20,
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, &[]).unwrap();
        write_frame(&mut buf, OP_SIM, b"payload").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Frame { opcode: OP_PING, payload: vec![] });
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame { opcode: OP_SIM, payload: b"payload".to_vec() }
        );
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn damaged_frames_are_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_SIM, b"some payload bytes").unwrap();

        // Truncation mid-frame.
        let cut = &buf[..buf.len() - 3];
        assert!(matches!(read_frame(&mut { cut }), Err(FrameError::Io(_))));

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(read_frame(&mut bad.as_slice()), Err(FrameError::BadMagic(_))));

        // Absurd length prefix.
        let mut huge = buf.clone();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&mut huge.as_slice()), Err(FrameError::Oversized(_))));

        // Payload bit flip.
        let mut flipped = buf;
        flipped[12] ^= 0x10;
        assert!(matches!(read_frame(&mut flipped.as_slice()), Err(FrameError::Checksum)));
    }

    #[test]
    fn a_lying_length_prefix_cannot_block_past_the_mid_frame_deadline() {
        use std::time::{Duration, Instant};
        // A header whose length field claims 64 payload bytes, followed
        // by only 3 — the on-the-wire shape of a bit-flipped length
        // prefix. The checksum trailer cannot catch this (it is read
        // *after* the payload), so only the mid-frame deadline can.
        let (reader, writer) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut reader = Stream::Unix(reader);
        let idle = Some(Duration::from_secs(30));
        reader.set_read_timeout(idle);
        let mut lying = Vec::new();
        lying.extend_from_slice(&PROTOCOL_MAGIC);
        lying.push(OP_PING);
        lying.extend_from_slice(&64u32.to_le_bytes());
        lying.extend_from_slice(&[1, 2, 3]);
        (&writer).write_all(&lying).unwrap();

        let start = Instant::now();
        let err = read_frame_deadlined_with(&mut reader, idle, Duration::from_millis(50))
            .expect_err("the claimed payload never arrives");
        assert!(matches!(err, FrameError::TimedOut), "got {err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the reader blocked for the idle window, not the mid-frame bound"
        );
        drop(writer);
    }

    /// One value of every request variant.
    fn requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::Sim(key()),
            Request::Sweep(vec![key(), SimKey { l2_latency: 40, ..key() }]),
            Request::Stats,
            Request::Shutdown,
            Request::ShardClaim { worker: 3 },
            Request::CellDone {
                key: key(),
                wall_ns: 123_456,
                metrics: Metrics { cycles: 9, l2_misses: 2, ..Default::default() },
            },
            Request::ShardFin { completed: 17 },
        ]
    }

    /// One value of every response variant (two of `SHARD_GRANT`).
    fn responses() -> Vec<Response> {
        vec![
            Response::Pong(Hello { seed: 7, small: true, threads: 4 }),
            Response::Result(CellReply {
                key: key(),
                memo_hit: true,
                metrics: Metrics { cycles: 123, dram_row_misses: 9, ..Default::default() },
            }),
            Response::Done { results: 42 },
            Response::Stats(ServeCounters {
                connections: 1,
                requests: 2,
                memo_hits: 3,
                memo_misses: 4,
                memo_coalesced: 5,
                sims_executed: 6,
                workloads_built: 7,
                protocol_errors: 8,
                results_streamed: 9,
                shed: 10,
                refused_connections: 11,
            }),
            Response::Error { code: ERR_MALFORMED, message: "nope".into() },
            Response::Bye,
            Response::ShardGrant { seed: 11, small: false, cells: vec![key()] },
            Response::ShardGrant { seed: 11, small: true, cells: vec![] },
        ]
    }

    /// A decoded frame: as a request, or as a response.
    type Decoded = (Result<Request, WireError>, Result<Response, WireError>);

    /// `bytes` through the whole receive path: one frame read, then
    /// decoded as a request and as a response. A panic anywhere fails
    /// the calling test.
    fn receive(bytes: &[u8]) -> Result<Decoded, FrameError> {
        let frame = read_frame(&mut { bytes })?;
        Ok((Request::decode(&frame), Response::decode(&frame)))
    }

    /// Every request and response variant, encoded as it goes on the
    /// wire, with its value.
    fn wire_frames() -> Vec<(Vec<u8>, Result<Request, Response>)> {
        let wire = |(opcode, payload): (u8, Vec<u8>)| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, opcode, &payload).unwrap();
            bytes
        };
        let reqs = requests().into_iter().map(|r| (wire(r.encode()), Ok(r)));
        reqs.chain(responses().into_iter().map(|r| (wire(r.encode()), Err(r)))).collect()
    }

    /// Every request and response round-trips through the wire: an
    /// undamaged frame decodes to the value that was encoded, and is a
    /// typed error to the decoder of the other direction.
    #[test]
    fn undamaged_frames_decode_to_what_was_encoded() {
        for (bytes, value) in wire_frames() {
            let (req, resp) = receive(&bytes).expect("an undamaged frame reads");
            match value {
                Ok(r) => assert_eq!((req.unwrap(), resp.is_err()), (r, true)),
                Err(r) => assert_eq!((req.is_err(), resp.unwrap()), (true, r)),
            }
        }
    }

    /// Every truncation of every variant's frame is a typed frame
    /// error, never a panic or a short frame. Only the empty cut is the
    /// clean between-frames disconnect; a cut inside the 9-byte header
    /// is a truncated frame, like any later cut.
    #[test]
    fn every_truncated_frame_is_a_frame_error() {
        for (bytes, value) in wire_frames() {
            for cut in 0..bytes.len() {
                match (cut, receive(&bytes[..cut])) {
                    (0, Err(FrameError::Closed)) => {}
                    (1..=8, Err(FrameError::Io(e))) if e.kind() == io::ErrorKind::UnexpectedEof => {}
                    (9.., Err(e)) if !matches!(e, FrameError::Closed) => {}
                    (_, other) => panic!("{value:?} cut to {cut} bytes: {other:?}"),
                }
            }
        }
    }

    /// Every single-bit flip of every variant's frame, header, opcode
    /// and trailer included, is a typed frame or payload error.
    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        for (bytes, value) in wire_frames() {
            for bit in 0..8 * bytes.len() {
                let mut damaged = bytes.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                match receive(&damaged) {
                    Err(_) => {}
                    Ok((req, resp)) => assert!(
                        req.is_err() && resp.is_err(),
                        "{value:?} with bit {bit} flipped decodes to {req:?} / {resp:?}"
                    ),
                }
            }
        }
    }

    /// Version 1 of the trailer left the opcode unchecked, so one
    /// flipped bit turned a `PING` into a `SHUTDOWN`.
    #[test]
    fn a_ping_with_a_flipped_opcode_bit_is_not_a_shutdown() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, OP_PING, &[]).unwrap();
        bytes[4] ^= OP_PING ^ OP_SHUTDOWN;
        assert!(matches!(receive(&bytes), Err(FrameError::Checksum)));
    }

    proptest::proptest! {
        /// Arbitrary bytes, as a whole stream, behind a valid magic, and
        /// as the payload of a well-checksummed frame with any opcode,
        /// never panic the receive path: each is a frame error or a
        /// decoded value or typed error.
        #[test]
        fn arbitrary_bytes_never_panic_the_receive_path(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            opcode: u8,
        ) {
            let _ = receive(&bytes);
            let _ = receive(&[&PROTOCOL_MAGIC[..], &bytes].concat());
            let mut framed = Vec::new();
            write_frame(&mut framed, opcode, &bytes).unwrap();
            let _ = receive(&framed).expect("a well-formed frame reads");
        }

        /// A length prefix over the bound is rejected from the 9-byte
        /// header alone: not one payload byte is read, so none is
        /// allocated.
        #[test]
        fn an_oversized_length_is_rejected_before_the_payload(
            len in (MAX_FRAME_PAYLOAD + 1)..=u32::MAX,
            opcode: u8,
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let mut bytes = PROTOCOL_MAGIC.to_vec();
            bytes.push(opcode);
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&tail);
            let mut rest = &bytes[..];
            let err = read_frame(&mut rest).expect_err("an oversized frame");
            proptest::prop_assert!(matches!(err, FrameError::Oversized(n) if n == len));
            proptest::prop_assert_eq!(rest.len(), tail.len(), "only the header was read");
        }
    }

    #[test]
    fn bad_payloads_are_typed_errors() {
        // Unknown backend id.
        let mut p = Vec::new();
        p.push(0);
        p.push(0);
        p.extend_from_slice(&20u32.to_le_bytes());
        p.extend_from_slice(&7u16.to_le_bytes());
        p.extend_from_slice(b"badback");
        let err = Request::decode(&Frame { opcode: OP_SIM, payload: p }).unwrap_err();
        assert_eq!(err.code, ERR_UNKNOWN_BACKEND);

        // Unknown kind code.
        let err = Request::decode(&Frame { opcode: OP_SIM, payload: vec![200] }).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);

        // Truncated SIM payload.
        let err = Request::decode(&Frame { opcode: OP_SIM, payload: vec![0] }).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);

        // Trailing bytes.
        let (opcode, mut payload) = Request::Sim(key()).encode();
        payload.push(0xAA);
        let err = Request::decode(&Frame { opcode, payload }).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);

        // Oversized sweep.
        let mut p = Vec::new();
        p.extend_from_slice(&(MAX_SWEEP_CELLS + 1).to_le_bytes());
        let err = Request::decode(&Frame { opcode: OP_SWEEP, payload: p }).unwrap_err();
        assert_eq!(err.code, ERR_TOO_MANY_CELLS);

        // Response opcode sent as a request.
        let err = Request::decode(&Frame { opcode: OP_PONG, payload: vec![] }).unwrap_err();
        assert_eq!(err.code, ERR_UNSUPPORTED);
    }

    #[test]
    fn bad_shard_payloads_are_typed_errors() {
        // Truncated CLAIM (worker id cut short).
        let err =
            Request::decode(&Frame { opcode: OP_SHARD_CLAIM, payload: vec![1, 2] }).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);

        // CELL_DONE cut off inside the metrics block.
        let (opcode, mut payload) = Request::CellDone {
            key: key(),
            wall_ns: 1,
            metrics: Metrics::default(),
        }
        .encode();
        payload.truncate(payload.len() - 5);
        let err = Request::decode(&Frame { opcode, payload }).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);

        // Trailing bytes after a FIN.
        let err = Request::decode(&Frame { opcode: OP_SHARD_FIN, payload: vec![0; 5] }).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);

        // A grant claiming more cells than the sweep bound.
        let mut p = Vec::new();
        p.extend_from_slice(&7u64.to_le_bytes());
        p.push(0);
        p.extend_from_slice(&(MAX_SWEEP_CELLS + 1).to_le_bytes());
        let err = Response::decode(&Frame { opcode: OP_SHARD_GRANT, payload: p }).unwrap_err();
        assert_eq!(err.code, ERR_TOO_MANY_CELLS);

        // A grant whose cell list lies about its length.
        let mut p = Vec::new();
        p.extend_from_slice(&7u64.to_le_bytes());
        p.push(1);
        p.extend_from_slice(&3u32.to_le_bytes());
        let err = Response::decode(&Frame { opcode: OP_SHARD_GRANT, payload: p }).unwrap_err();
        assert_eq!(err.code, ERR_MALFORMED);
    }

    #[test]
    fn stats_reply_skips_unknown_future_counters() {
        // A newer server appending a 12th counter must not break this
        // client: the extra field is skipped.
        let mut p = Vec::new();
        p.extend_from_slice(&12u32.to_le_bytes());
        for v in 1..=12u64 {
            p.extend_from_slice(&v.to_le_bytes());
        }
        let resp = Response::decode(&Frame { opcode: OP_STATS_REPLY, payload: p }).unwrap();
        let Response::Stats(s) = resp else { panic!("expected stats") };
        assert_eq!(s.connections, 1);
        assert_eq!(s.results_streamed, 9);
        assert_eq!(s.shed, 10);
        assert_eq!(s.refused_connections, 11);
    }

    #[test]
    fn an_older_stats_reply_zero_fills_the_new_counters() {
        // A 9-counter reply from a pre-backpressure server decodes with
        // shed/refused at zero.
        let mut p = Vec::new();
        p.extend_from_slice(&9u32.to_le_bytes());
        for v in 1..=9u64 {
            p.extend_from_slice(&v.to_le_bytes());
        }
        let resp = Response::decode(&Frame { opcode: OP_STATS_REPLY, payload: p }).unwrap();
        let Response::Stats(s) = resp else { panic!("expected stats") };
        assert_eq!(s.results_streamed, 9);
        assert_eq!(s.shed, 0);
        assert_eq!(s.refused_connections, 0);
    }
}
