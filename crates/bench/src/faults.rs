//! Deterministic, seeded fault injection for the distributed stack.
//!
//! PR 7's manifest proved the stack survives *process death*; this
//! module extends the fault model to the network and the disk. It is
//! the attack half of the repo's resilience contract — **never a wrong
//! answer, never a hang: always bit-identical metrics or a typed
//! error** — and everything in it is reachable both from tests and
//! from the binaries via `--chaos-seed` / `--chaos-profile`.
//!
//! Three injection points:
//!
//! * **[`ChaosStream`]** wraps any frame-protocol [`Stream`] and
//!   damages traffic in-line (the client side of a connection);
//! * **[`ChaosProxy`]** is an in-process man-in-the-middle that
//!   forwards bytes between a listener and an upstream endpoint,
//!   damaging them per direction (either side of a connection, no
//!   cooperation from the peer needed);
//! * **[`ShimFile`]** wraps a [`File`] with a write budget so a crash
//!   mid-record (short write, then reopen) can be staged against the
//!   manifest and the workload-image cache.
//!
//! Every fault is drawn from a [`FaultPlan`] — a SplitMix64 stream
//! seeded from `(chaos seed, connection lane)` — so the *schedule* of
//! faults is a pure function of the seed: same seed, same damage, same
//! recovery path, byte-identical fault counters. The fault taxonomy:
//!
//! | Fault       | On a write              | On a read                  |
//! |-------------|-------------------------|----------------------------|
//! | `delay`     | short sleep, then write | short sleep, then read     |
//! | `stall`     | long pause, then write  | long pause, then read      |
//! | `drop`      | connection torn down    | connection torn down       |
//! | `truncate`  | half the bytes, close   | (write-side only)          |
//! | `bitflip`   | one bit corrupted       | one bit corrupted          |
//! | `blackhole` | absorbed forever        | blocks, then times out     |
//!
//! The recovery half lives next door: [`Backoff`] is the seeded
//! exponential-backoff-with-jitter schedule used by
//! [`crate::protocol::RetryClient`], the shard worker and the tuner's
//! remote executor, and [`WarnOnce`]/[`FrameWarnings`] are the
//! once-per-class warning latches (the `store_warned` idiom from the
//! workload cache) that keep a garbage-spewing peer from flooding
//! stderr.

use crate::protocol::{Endpoint, FrameError, Stream};
use crate::server;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// SplitMix64 — the same mixer the load generator uses for its request
/// mix: tiny, seedable, and with a long enough period for any schedule
/// drawn here.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A mixer starting from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.draw() % n
    }
}

// ---------------------------------------------------------------------------
// Chaos configuration
// ---------------------------------------------------------------------------

/// Which fault classes are armed, and how often one fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosProfile {
    /// Short sleeps (1–4 ms) injected before an operation.
    pub delay: bool,
    /// Connections torn down mid-conversation.
    pub drop: bool,
    /// Long pauses (≈120 ms) injected before an operation.
    pub stall: bool,
    /// A frame cut in half, then the connection closed.
    pub truncate: bool,
    /// One bit corrupted (the frame checksum catches it downstream).
    pub bitflip: bool,
    /// Traffic absorbed forever while the connection stays open.
    pub blackhole: bool,
    /// Roughly one in `rate` operations is faulted.
    pub rate: u32,
}

impl ChaosProfile {
    /// The inert profile: no class armed.
    pub const fn none() -> ChaosProfile {
        ChaosProfile {
            delay: false,
            drop: false,
            stall: false,
            truncate: false,
            bitflip: false,
            blackhole: false,
            rate: 12,
        }
    }

    /// True when at least one fault class is armed.
    pub fn any(&self) -> bool {
        self.delay || self.drop || self.stall || self.truncate || self.bitflip || self.blackhole
    }

    /// Parses a profile string: a preset name (`light` = delay only,
    /// `mixed` = delay+drop+truncate+bitflip, `heavy` = everything) or
    /// a comma list of class names with an optional `rate=N` element,
    /// e.g. `delay,drop,rate=8`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unknown class.
    pub fn parse(spec: &str) -> Result<ChaosProfile, String> {
        let mut p = ChaosProfile::none();
        match spec {
            "none" | "off" => return Ok(p),
            "light" => {
                p.delay = true;
                p.rate = 8;
                return Ok(p);
            }
            "mixed" => {
                p.delay = true;
                p.drop = true;
                p.truncate = true;
                p.bitflip = true;
                return Ok(p);
            }
            "heavy" => {
                p.delay = true;
                p.drop = true;
                p.stall = true;
                p.truncate = true;
                p.bitflip = true;
                p.blackhole = true;
                p.rate = 6;
                return Ok(p);
            }
            _ => {}
        }
        for part in spec.split(',') {
            let part = part.trim();
            match part {
                "delay" => p.delay = true,
                "drop" => p.drop = true,
                "stall" => p.stall = true,
                "truncate" => p.truncate = true,
                "bitflip" => p.bitflip = true,
                "blackhole" => p.blackhole = true,
                _ => {
                    if let Some(n) = part.strip_prefix("rate=") {
                        p.rate = n
                            .parse::<u32>()
                            .ok()
                            .filter(|&r| r > 0)
                            .ok_or_else(|| format!("bad chaos rate {n:?} (want a positive integer)"))?;
                    } else {
                        return Err(format!(
                            "unknown chaos class {part:?} (know delay, drop, stall, truncate, \
                             bitflip, blackhole, rate=N, or the presets light/mixed/heavy)"
                        ));
                    }
                }
            }
        }
        Ok(p)
    }
}

impl fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (on, name) in [
            (self.delay, "delay"),
            (self.drop, "drop"),
            (self.stall, "stall"),
            (self.truncate, "truncate"),
            (self.bitflip, "bitflip"),
            (self.blackhole, "blackhole"),
        ] {
            if on {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "none")?;
        } else {
            write!(f, ",rate={}", self.rate)?;
        }
        Ok(())
    }
}

/// A complete chaos specification: the master seed plus the armed
/// profile. Everything injected downstream is a pure function of this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed; per-connection lanes are derived from it.
    pub seed: u64,
    /// The armed fault classes.
    pub profile: ChaosProfile,
}

impl ChaosConfig {
    /// Resolves the `--chaos-seed N` / `--chaos-profile SPEC` flag pair
    /// the three binaries share: both absent means no chaos; either one
    /// alone defaults the other (seed 1, profile `mixed`).
    ///
    /// # Errors
    ///
    /// Propagates the [`ChaosProfile::parse`] message.
    pub fn from_cli(
        seed: Option<u64>,
        profile: Option<&str>,
    ) -> Result<Option<ChaosConfig>, String> {
        match (seed, profile) {
            (None, None) => Ok(None),
            (seed, profile) => Ok(Some(ChaosConfig {
                seed: seed.unwrap_or(1),
                profile: ChaosProfile::parse(profile.unwrap_or("mixed"))?,
            })),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// One concrete injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long, then perform the operation normally.
    Delay(Duration),
    /// Like `Delay`, but long enough to be felt by a deadline.
    Stall(Duration),
    /// Tear the connection down.
    Drop,
    /// Forward half the bytes, then tear the connection down.
    Truncate,
    /// Corrupt one bit of the payload in flight.
    BitFlip,
    /// Absorb all further traffic while keeping the connection open.
    BlackHole,
}

/// How long a `stall` fault pauses.
const STALL_PAUSE: Duration = Duration::from_millis(120);
/// How long a black-holed read pretends to block before reporting a
/// timeout. Fixed — not tied to the real socket deadline — so the
/// fault *outcome* is deterministic regardless of wall-clock jitter.
const BLACKHOLE_READ_PAUSE: Duration = Duration::from_millis(40);

/// The deterministic per-connection fault schedule: a SplitMix64 stream
/// seeded from `(config.seed, lane)`, consulted once per I/O operation.
/// Two plans with the same seed and lane draw the same faults at the
/// same operation indices, forever.
#[derive(Debug)]
pub struct FaultPlan {
    mix: SplitMix64,
    profile: ChaosProfile,
}

impl FaultPlan {
    /// The plan for one connection (or pump direction). `lane` is any
    /// stable discriminator — connection sequence number, or
    /// `2*conn + direction` for a proxy.
    pub fn new(config: &ChaosConfig, lane: u64) -> FaultPlan {
        FaultPlan {
            mix: SplitMix64::new(
                config.seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(lane),
            ),
            profile: config.profile,
        }
    }

    /// Draws the fault (if any) for the next I/O operation.
    pub fn draw(&mut self) -> Option<FaultKind> {
        if !self.profile.any() || self.mix.below(self.profile.rate as u64) != 0 {
            return None;
        }
        let armed: Vec<FaultKind> = [
            (self.profile.delay, FaultKind::Delay(Duration::ZERO)),
            (self.profile.drop, FaultKind::Drop),
            (self.profile.stall, FaultKind::Stall(STALL_PAUSE)),
            (self.profile.truncate, FaultKind::Truncate),
            (self.profile.bitflip, FaultKind::BitFlip),
            (self.profile.blackhole, FaultKind::BlackHole),
        ]
        .into_iter()
        .filter_map(|(on, kind)| on.then_some(kind))
        .collect();
        let kind = armed[self.mix.below(armed.len() as u64) as usize];
        Some(match kind {
            FaultKind::Delay(_) => {
                FaultKind::Delay(Duration::from_millis(1 + self.mix.below(4)))
            }
            other => other,
        })
    }

    /// A raw draw for auxiliary decisions (which byte to flip, …).
    fn below(&mut self, n: u64) -> u64 {
        self.mix.below(n)
    }
}

// ---------------------------------------------------------------------------
// ChaosStream: in-line damage on one endpoint's own connection
// ---------------------------------------------------------------------------

/// What a torn-down chaos connection reports from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosState {
    Live,
    /// Torn down: every further operation is `ConnectionReset`.
    Dropped,
    /// Black-holed: writes are absorbed, reads block then time out.
    BlackHoled,
}

/// A [`Stream`] wrapper that injects faults from a [`FaultPlan`] on the
/// wrapping endpoint's own traffic. Used by the load generator and the
/// retry client (`--chaos-seed` on `mom3d-load`): because the faults
/// fire by operation index and never consult the real clock for their
/// *outcome*, a same-seed run takes the same recovery path and reports
/// the same fault counters.
#[derive(Debug)]
pub struct ChaosStream {
    inner: Stream,
    plan: FaultPlan,
    state: ChaosState,
    injected: u64,
}

impl ChaosStream {
    /// Wraps `inner`, drawing faults from `plan`.
    pub fn wrap(inner: Stream, plan: FaultPlan) -> ChaosStream {
        ChaosStream { inner, plan, state: ChaosState::Live, injected: 0 }
    }

    /// Faults injected so far on this connection.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped stream (timeouts and shutdown delegate to it).
    pub fn inner(&self) -> &Stream {
        &self.inner
    }

    fn torn_down(&mut self) -> io::Error {
        self.inner.shutdown_all();
        self.state = ChaosState::Dropped;
        io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection dropped")
    }
}

/// Wraps `stream` in a [`ChaosStream`] on fault lane `lane` when `chaos`
/// is set, and passes it through untouched otherwise. Servers wrap each
/// accepted connection (lane = connection ordinal), clients each dialed
/// one (lane = dial ordinal).
pub(crate) fn chaos_wrap(stream: Stream, chaos: Option<&ChaosConfig>, lane: u64) -> Stream {
    match chaos {
        Some(chaos) => {
            Stream::Chaos(Box::new(ChaosStream::wrap(stream, FaultPlan::new(chaos, lane))))
        }
        None => stream,
    }
}

impl Read for ChaosStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.state {
            ChaosState::Dropped => {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "chaos: dropped"))
            }
            ChaosState::BlackHoled => {
                thread::sleep(BLACKHOLE_READ_PAUSE);
                return Err(io::Error::new(io::ErrorKind::TimedOut, "chaos: black-holed"));
            }
            ChaosState::Live => {}
        }
        match self.plan.draw() {
            None => self.inner.read(buf),
            Some(FaultKind::Delay(d)) | Some(FaultKind::Stall(d)) => {
                self.injected += 1;
                thread::sleep(d);
                self.inner.read(buf)
            }
            Some(FaultKind::Drop) | Some(FaultKind::Truncate) => {
                self.injected += 1;
                Err(self.torn_down())
            }
            Some(FaultKind::BitFlip) => {
                self.injected += 1;
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let idx = self.plan.below(n as u64) as usize;
                    buf[idx] ^= 1 << self.plan.below(8);
                }
                Ok(n)
            }
            Some(FaultKind::BlackHole) => {
                self.injected += 1;
                self.state = ChaosState::BlackHoled;
                thread::sleep(BLACKHOLE_READ_PAUSE);
                Err(io::Error::new(io::ErrorKind::TimedOut, "chaos: black-holed"))
            }
        }
    }
}

impl Write for ChaosStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.state {
            ChaosState::Dropped => {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "chaos: dropped"))
            }
            // A black hole swallows writes silently — the caller only
            // finds out when its next read deadline expires.
            ChaosState::BlackHoled => return Ok(buf.len()),
            ChaosState::Live => {}
        }
        match self.plan.draw() {
            None => self.inner.write(buf),
            Some(FaultKind::Delay(d)) | Some(FaultKind::Stall(d)) => {
                self.injected += 1;
                thread::sleep(d);
                self.inner.write(buf)
            }
            Some(FaultKind::Drop) => {
                self.injected += 1;
                Err(self.torn_down())
            }
            Some(FaultKind::Truncate) => {
                self.injected += 1;
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                let _ = self.inner.flush();
                self.torn_down();
                // Pretend success: the peer sees a torn frame, the
                // caller finds out on its next read — exactly a mid-
                // frame crash of the path between them.
                Ok(buf.len())
            }
            Some(FaultKind::BitFlip) => {
                self.injected += 1;
                let mut copy = buf.to_vec();
                let idx = self.plan.below(copy.len().max(1) as u64) as usize;
                if !copy.is_empty() {
                    copy[idx] ^= 1 << self.plan.below(8);
                }
                self.inner.write_all(&copy)?;
                Ok(buf.len())
            }
            Some(FaultKind::BlackHole) => {
                self.injected += 1;
                self.state = ChaosState::BlackHoled;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.state {
            ChaosState::Live => self.inner.flush(),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// ChaosProxy: a man-in-the-middle for whole deployments
// ---------------------------------------------------------------------------

/// An in-process chaos proxy: listens on its own endpoint, dials the
/// upstream for every accepted connection, and pumps bytes both ways
/// through per-direction [`FaultPlan`]s. The peers need no cooperation
/// — `tests/chaos.rs` runs unmodified workers and clients through it —
/// and `mom3d-serve`/`mom3d-shard` use the same fault plans directly on
/// their accepted streams for `--chaos-seed`. Binding, the accept loop
/// and shutdown are the servers' own (`crate::server`).
#[derive(Debug)]
pub struct ChaosProxy {
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
}

/// Read deadline on proxy pump sockets, so an idle pump re-checks the
/// proxy's shutdown latch instead of blocking forever.
const PUMP_POLL: Duration = Duration::from_millis(200);

impl ChaosProxy {
    /// Binds `listen`, forwarding every accepted connection to
    /// `upstream` with faults drawn from `config`. `Tcp` endpoints may
    /// use port 0; the resolved endpoint is [`ChaosProxy::endpoint`].
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn spawn(
        listen: Endpoint,
        upstream: Endpoint,
        config: ChaosConfig,
    ) -> io::Result<ChaosProxy> {
        let (listener, endpoint) = server::bind(listen)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let endpoint = endpoint.clone();
            thread::Builder::new().name("mom3d-chaos-accept".into()).spawn(move || {
                let mut conn: u64 = 0;
                server::accept_loop(&listener, &endpoint, &shutdown, |client| {
                    let Ok(server) = upstream.connect() else {
                        // Upstream gone: refuse by closing; the client's
                        // own retry policy decides what happens next.
                        client.shutdown_all();
                        return;
                    };
                    Self::splice(client, server, &config, conn, &shutdown);
                    conn += 1;
                });
            })?
        };
        Ok(ChaosProxy { endpoint, shutdown, accept: Some(accept) })
    }

    /// The (resolved) endpoint clients should dial.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn splice(client: Stream, server: Stream, config: &ChaosConfig, conn: u64, stop: &Arc<AtomicBool>) {
        let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
            client.shutdown_all();
            server.shutdown_all();
            return;
        };
        for (src, dst, lane) in [(client_r, server, 2 * conn), (server_r, client, 2 * conn + 1)] {
            let plan = FaultPlan::new(config, lane);
            let stop = Arc::clone(stop);
            let _ = thread::Builder::new()
                .name(format!("mom3d-chaos-pump-{conn}"))
                .spawn(move || Self::pump(src, dst, plan, &stop));
        }
    }

    fn pump(mut src: Stream, mut dst: Stream, mut plan: FaultPlan, stop: &AtomicBool) {
        src.set_read_timeout(Some(PUMP_POLL));
        let mut buf = [0u8; 8192];
        let mut absorbing = false;
        loop {
            let n = match src.read(&mut buf) {
                Ok(0) => {
                    // Propagate the half-close; the reverse pump keeps
                    // draining replies already in flight.
                    dst.shutdown_write();
                    return;
                }
                Ok(n) => n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    continue;
                }
                Err(_) => break,
            };
            if absorbing {
                continue;
            }
            match plan.draw() {
                None => {
                    if dst.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Some(FaultKind::Delay(d)) | Some(FaultKind::Stall(d)) => {
                    thread::sleep(d);
                    if dst.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Some(FaultKind::Drop) => break,
                Some(FaultKind::Truncate) => {
                    let _ = dst.write_all(&buf[..n / 2]);
                    let _ = dst.flush();
                    break;
                }
                Some(FaultKind::BitFlip) => {
                    let idx = plan.below(n as u64) as usize;
                    buf[idx] ^= 1 << plan.below(8);
                    if dst.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                Some(FaultKind::BlackHole) => {
                    // Keep draining the source (so its sender never
                    // blocks) but never forward another byte.
                    absorbing = true;
                }
            }
        }
        src.shutdown_all();
        dst.shutdown_all();
    }

    /// Stops accepting and unlinks the proxy's unix socket (if any).
    /// Existing pumps wind down on their own poll deadlines.
    pub fn shutdown(&mut self) {
        server::stop(&self.shutdown, &self.endpoint);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Seeded backoff
// ---------------------------------------------------------------------------

/// Seeded exponential backoff with jitter: delay `i` is uniform in
/// `[cap/2, cap]` where `cap = min(base · 2^i, max)`. The jitter comes
/// from a [`SplitMix64`] stream, so a same-seed client backs off by the
/// same schedule every run — retries stay deterministic end to end.
#[derive(Debug, Clone)]
pub struct Backoff {
    mix: SplitMix64,
    base: Duration,
    max: Duration,
    attempt: u32,
}

impl Backoff {
    /// A fresh schedule.
    pub fn new(seed: u64, base: Duration, max: Duration) -> Backoff {
        Backoff { mix: SplitMix64::new(seed), base, max, attempt: 0 }
    }

    /// The next delay (and advances the schedule).
    pub fn next_delay(&mut self) -> Duration {
        let cap = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.max)
            .max(Duration::from_millis(1));
        self.attempt = self.attempt.saturating_add(1);
        let cap_us = cap.as_micros() as u64;
        Duration::from_micros(cap_us / 2 + self.mix.below(cap_us / 2 + 1))
    }

    /// Back to the first rung (call after any successful operation).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

// ---------------------------------------------------------------------------
// Injectable I/O shim for manifest/cache writes
// ---------------------------------------------------------------------------

/// A write fault: the file accepts exactly `fail_after` more bytes,
/// then every write fails — the on-disk state a crash mid-record
/// leaves behind (a short final record).
#[derive(Debug, Clone, Copy)]
pub struct WriteFault {
    /// Bytes accepted before the injected failure.
    pub fail_after: u64,
}

/// The injectable file shim the manifest (and the workload-image cache
/// probe tests) write through: a plain [`File`] passthrough until a
/// [`WriteFault`]'s budget runs out, after which writes are cut short
/// and then refused. With no fault armed it is a zero-cost wrapper.
#[derive(Debug)]
pub struct ShimFile {
    file: File,
    budget: Option<u64>,
}

impl ShimFile {
    /// A passthrough shim (no fault armed).
    pub fn new(file: File) -> ShimFile {
        ShimFile { file, budget: None }
    }

    /// A shim that fails after `fault.fail_after` bytes.
    pub fn with_fault(file: File, fault: WriteFault) -> ShimFile {
        ShimFile { file, budget: Some(fault.fail_after) }
    }
}

impl Write for ShimFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &mut self.budget {
            None => self.file.write(buf),
            Some(budget) => {
                let allowed = (*budget).min(buf.len() as u64) as usize;
                if allowed == 0 {
                    return Err(io::Error::other("injected write fault: budget exhausted"));
                }
                let n = self.file.write(&buf[..allowed])?;
                *budget -= n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

// ---------------------------------------------------------------------------
// Once-per-class warnings
// ---------------------------------------------------------------------------

/// A warning latch: the first [`WarnOnce::warn`] prints, every later
/// one is suppressed — the `store_warned` once-flag idiom from the
/// workload cache, packaged so the serve/shard connection handlers can
/// log protocol damage without letting a garbage-spewing client flood
/// stderr.
#[derive(Debug, Default)]
pub struct WarnOnce(AtomicBool);

impl WarnOnce {
    /// A fresh (unfired) latch.
    pub const fn new() -> WarnOnce {
        WarnOnce(AtomicBool::new(false))
    }

    /// Prints `warning: {message} (repeats suppressed)` the first time;
    /// returns whether this call printed.
    pub fn warn(&self, message: impl fmt::Display) -> bool {
        if self.0.swap(true, Ordering::Relaxed) {
            return false;
        }
        eprintln!("warning: {message} (repeats of this class suppressed)");
        true
    }

    /// True once a warning fired.
    pub fn fired(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One [`WarnOnce`] latch per frame-damage class, shared by all of a
/// server's connection handlers.
#[derive(Debug, Default)]
pub struct FrameWarnings {
    io: WarnOnce,
    bad_magic: WarnOnce,
    oversized: WarnOnce,
    checksum: WarnOnce,
    timeout: WarnOnce,
}

impl FrameWarnings {
    /// Fresh latches.
    pub const fn new() -> FrameWarnings {
        FrameWarnings {
            io: WarnOnce::new(),
            bad_magic: WarnOnce::new(),
            oversized: WarnOnce::new(),
            checksum: WarnOnce::new(),
            timeout: WarnOnce::new(),
        }
    }

    /// Logs `err` from `who` once per damage class. `Closed` (a normal
    /// disconnect) is never logged.
    pub fn note(&self, who: &str, err: &FrameError) {
        let latch = match err {
            FrameError::Closed => return,
            FrameError::Io(_) => &self.io,
            FrameError::BadMagic(_) => &self.bad_magic,
            FrameError::Oversized(_) => &self.oversized,
            FrameError::Checksum => &self.checksum,
            FrameError::TimedOut => &self.timeout,
        };
        latch.warn(format_args!("{who}: {err}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_parse_and_round_trip() {
        assert!(!ChaosProfile::parse("none").unwrap().any());
        let light = ChaosProfile::parse("light").unwrap();
        assert!(light.delay && !light.drop && light.rate == 8);
        let mixed = ChaosProfile::parse("mixed").unwrap();
        assert!(mixed.delay && mixed.drop && mixed.truncate && mixed.bitflip);
        assert!(!mixed.stall && !mixed.blackhole);
        let heavy = ChaosProfile::parse("heavy").unwrap();
        assert!(heavy.blackhole && heavy.stall && heavy.rate == 6);

        let custom = ChaosProfile::parse("delay, drop ,rate=5").unwrap();
        assert!(custom.delay && custom.drop && custom.rate == 5);
        assert_eq!(custom.to_string(), "delay,drop,rate=5");
        // Display output re-parses to the same profile.
        assert_eq!(ChaosProfile::parse(&custom.to_string()).unwrap(), custom);

        assert!(ChaosProfile::parse("gremlins").is_err());
        assert!(ChaosProfile::parse("rate=0").is_err());
        assert_eq!(ChaosProfile::none().to_string(), "none");
    }

    #[test]
    fn cli_pair_defaults_each_other() {
        assert!(ChaosConfig::from_cli(None, None).unwrap().is_none());
        let c = ChaosConfig::from_cli(Some(42), None).unwrap().unwrap();
        assert_eq!(c.seed, 42);
        assert!(c.profile.drop); // mixed default
        let c = ChaosConfig::from_cli(None, Some("light")).unwrap().unwrap();
        assert_eq!(c.seed, 1);
        assert!(c.profile.delay && !c.profile.drop);
        assert!(ChaosConfig::from_cli(Some(1), Some("wat")).is_err());
    }

    #[test]
    fn fault_schedules_are_deterministic_per_lane() {
        let config = ChaosConfig { seed: 99, profile: ChaosProfile::parse("heavy").unwrap() };
        let draw = |lane: u64| -> Vec<Option<FaultKind>> {
            let mut plan = FaultPlan::new(&config, lane);
            (0..256).map(|_| plan.draw()).collect()
        };
        // Same seed + lane: identical schedule. Different lane: different.
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        // The armed classes all eventually fire at heavy's rate.
        let fired: Vec<FaultKind> = draw(7).into_iter().flatten().collect();
        assert!(!fired.is_empty());
        assert!(fired.len() < 256 / 2, "rate limiter must leave most ops clean");
    }

    #[test]
    fn an_inert_profile_never_fires() {
        let config = ChaosConfig { seed: 5, profile: ChaosProfile::none() };
        let mut plan = FaultPlan::new(&config, 0);
        assert!((0..1000).all(|_| plan.draw().is_none()));
    }

    #[test]
    fn backoff_grows_is_jittered_and_deterministic() {
        let base = Duration::from_millis(4);
        let max = Duration::from_millis(64);
        let mut a = Backoff::new(11, base, max);
        let mut b = Backoff::new(11, base, max);
        let delays: Vec<Duration> = (0..8).map(|_| a.next_delay()).collect();
        assert_eq!(delays, (0..8).map(|_| b.next_delay()).collect::<Vec<_>>());
        // Every delay is within [cap/2, cap] and the cap saturates at max.
        for (i, d) in delays.iter().enumerate() {
            let cap = base.saturating_mul(1 << i.min(16)).min(max);
            assert!(*d >= cap / 2 && *d <= cap, "delay {d:?} outside [{:?}, {cap:?}]", cap / 2);
        }
        assert!(delays[7] >= max / 2);
        a.reset();
        assert!(a.next_delay() <= base);
    }

    #[test]
    fn the_write_shim_enforces_its_budget() {
        let path = std::env::temp_dir()
            .join(format!("mom3d-shim-{}-{:?}", std::process::id(), std::thread::current().id()));
        let file = File::create(&path).unwrap();
        let mut shim = ShimFile::with_fault(file, WriteFault { fail_after: 10 });
        assert_eq!(shim.write(b"0123456").unwrap(), 7);
        // Only 3 budget bytes left: the write is cut short.
        assert_eq!(shim.write(b"89abcdef").unwrap(), 3);
        assert!(shim.write(b"x").is_err());
        drop(shim);
        assert_eq!(std::fs::read(&path).unwrap(), b"012345689a");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warnings_fire_once_per_class() {
        let w = WarnOnce::new();
        assert!(!w.fired());
        assert!(w.warn("first"));
        assert!(!w.warn("second"));
        assert!(w.fired());

        let frames = FrameWarnings::new();
        frames.note("test", &FrameError::Checksum);
        frames.note("test", &FrameError::Checksum);
        assert!(frames.checksum.fired());
        // A clean disconnect is not damage — never latched, never logged.
        frames.note("test", &FrameError::Closed);
        assert!(!frames.io.fired());
    }
}
