//! The server core under `mom3d-serve` ([`crate::serve`]), the
//! `mom3d-shard` coordinator ([`crate::shard`]) and the chaos proxy
//! ([`crate::faults::ChaosProxy`]).
//!
//! Both services hand out sweep cells over the frame
//! [`crate::protocol`] and differ only in which requests they answer,
//! so the plumbing lives here once: binding (a stale unix-socket file
//! is removed, a `tcp:…:0` port is resolved), an accept loop that
//! survives accept errors and unlinks the socket file on every exit
//! path, the connection cap with its typed [`ERR_OVERLOADED`] refusal,
//! the chaos wrap, read/write deadlines, one handler thread per
//! connection running one frame loop, and one shutdown path: latch,
//! self-connect, drain for [`DRAIN_GRACE`], force-close the
//! stragglers, unlink. A service is a [`Service`] embedding a
//! [`Core`]; the core is generic over it, so a request costs no
//! allocation, lock or dynamic dispatch beyond the service's own.

use crate::faults::{chaos_wrap, ChaosConfig, FrameWarnings};
use crate::protocol::{
    read_frame_deadlined, write_frame, Endpoint, FrameError, Request, Response, Stream,
    ERR_OVERLOADED, ERR_PROTOCOL, ERR_UNSUPPORTED,
};
use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection cap when none is configured: an accept beyond it is
/// answered with one [`ERR_OVERLOADED`] frame and closed.
pub const DEFAULT_CONNECTION_CAP: usize = 256;

/// How long shutdown waits for open connections to finish on their
/// own before force-closing the stragglers.
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Bound on waiting for force-closed handlers to notice and exit.
const DRAIN_FORCE_WAIT: Duration = Duration::from_secs(5);

/// Pause after a failed accept, so a persistent error cannot spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// A bound listening socket on either transport.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
        }
    }
}

/// Binds `endpoint`, returning the listener and the endpoint actually
/// listened on. A stale unix-socket file is removed first.
pub(crate) fn bind(endpoint: Endpoint) -> io::Result<(Listener, Endpoint)> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            let actual = listener.local_addr()?.to_string();
            Ok((Listener::Tcp(listener), Endpoint::Tcp(actual)))
        }
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(&path);
            Ok((Listener::Unix(UnixListener::bind(&path)?), Endpoint::Unix(path)))
        }
    }
}

fn unlink(endpoint: &Endpoint) {
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
}

/// Unlinks the unix-socket file when the accept loop exits by any path,
/// panic included (unwinding the accept thread runs it).
struct SocketGuard<'a>(&'a Endpoint);

impl Drop for SocketGuard<'_> {
    fn drop(&mut self) {
        unlink(self.0);
    }
}

/// Hands each accepted connection to `on_conn` until `shutdown` is set
/// ([`stop`] wakes the blocking accept with a throwaway self-connect).
pub(crate) fn accept_loop(
    listener: &Listener,
    endpoint: &Endpoint,
    shutdown: &AtomicBool,
    mut on_conn: impl FnMut(Stream),
) {
    let _socket_guard = SocketGuard(endpoint);
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(_) if shutdown.load(Ordering::SeqCst) => break, // the wake-up
            Ok(stream) => on_conn(stream),
            Err(_) if shutdown.load(Ordering::SeqCst) => break,
            Err(e) => {
                eprintln!("warning: accept failed: {e}");
                std::thread::sleep(ACCEPT_RETRY);
            }
        }
    }
}

/// Sets `shutdown` and wakes the accept loop polling it (once).
pub(crate) fn stop(shutdown: &AtomicBool, endpoint: &Endpoint) {
    if !shutdown.swap(true, Ordering::SeqCst) {
        let _ = endpoint.connect();
    }
}

/// Writes one response frame.
pub(crate) fn respond(stream: &mut Stream, resp: &Response) -> io::Result<()> {
    let (opcode, payload) = resp.encode();
    write_frame(stream, opcode, &payload)
}

/// What every service shares: endpoint, latch, connection registry and
/// connection-level counters.
#[derive(Debug)]
pub(crate) struct Core {
    /// The endpoint actually listened on (a `tcp:…:0` port resolved).
    pub(crate) endpoint: Endpoint,
    shutdown: AtomicBool,
    max_connections: usize,
    chaos: Option<ChaosConfig>,
    accept_panic_after: Option<u64>,
    /// Live connections: id → a raw clone of the stream (`None` when
    /// cloning failed), so drain can force-close a handler parked in a
    /// read. Its length is what the cap is enforced against.
    conns: Mutex<HashMap<u64, Option<Stream>>>,
    conns_changed: Condvar,
    warnings: FrameWarnings,
    pub(crate) connections: AtomicU64,
    pub(crate) refused: AtomicU64,
    /// Frames damaged or cut off mid-frame.
    pub(crate) protocol_errors: AtomicU64,
}

impl Core {
    /// A core for the bound `endpoint`; a cap of 0 means
    /// [`DEFAULT_CONNECTION_CAP`].
    pub(crate) fn new(
        endpoint: Endpoint,
        max_connections: usize,
        chaos: Option<ChaosConfig>,
        accept_panic_after: Option<u64>,
    ) -> Core {
        Core {
            endpoint,
            shutdown: AtomicBool::new(false),
            max_connections: if max_connections > 0 { max_connections } else { DEFAULT_CONNECTION_CAP },
            chaos,
            accept_panic_after,
            conns: Mutex::new(HashMap::new()),
            conns_changed: Condvar::new(),
            warnings: FrameWarnings::new(),
            connections: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        }
    }

    /// True once shutdown has begun.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Registers a fresh connection, or refuses it at the cap.
    fn admit(&self, id: u64, stream: &Stream) -> bool {
        let mut conns = self.conns.lock().expect("connection registry poisoned");
        if conns.len() >= self.max_connections {
            return false;
        }
        conns.insert(id, stream.try_clone().ok());
        true
    }

    /// Unregisters a finished connection and wakes the drain waiter.
    fn release(&self, id: u64) {
        self.conns.lock().expect("connection registry poisoned").remove(&id);
        self.conns_changed.notify_all();
    }

    /// Waits up to `timeout` for the registry to empty; true if it did.
    fn wait_conns(&self, timeout: Duration) -> bool {
        let conns = self.conns.lock().expect("connection registry poisoned");
        let (conns, _) = self
            .conns_changed
            .wait_timeout_while(conns, timeout, |conns| !conns.is_empty())
            .expect("connection registry poisoned");
        conns.is_empty()
    }

    /// Ends every shutdown once the accept loop is joined: open
    /// connections get [`DRAIN_GRACE`], the stragglers are force-closed
    /// and waited for, then the socket file is unlinked.
    pub(crate) fn drain(&self) {
        if !self.wait_conns(DRAIN_GRACE) {
            let conns = self.conns.lock().expect("connection registry poisoned");
            for stream in conns.values().flatten() {
                stream.shutdown_all();
            }
            drop(conns);
            let _ = self.wait_conns(DRAIN_FORCE_WAIT);
        }
        unlink(&self.endpoint);
    }
}

/// One request-answering service over the shared [`Core`].
pub(crate) trait Service: Send + Sync + 'static {
    /// Who logs frame damage (`warning: {WHO}: …`).
    const WHO: &'static str;
    /// The [`ERR_UNSUPPORTED`] message for a request this service does
    /// not speak: it names the service that does.
    const REDIRECT: &'static str;
    /// Read deadline between requests: an idle connection is reclaimed.
    const IDLE_TIMEOUT: Duration;
    /// Write deadline: a peer that never drains its socket is dead.
    const WRITE_TIMEOUT: Duration;

    fn core(&self) -> &Core;

    /// Serves one decoded request on connection `conn_id`. Returns
    /// `Some(alive)` when served (`false` closes the connection), or
    /// `None` for a request this service does not speak.
    fn handle(&self, conn_id: u64, stream: &mut Stream, req: Request) -> Option<bool>;

    /// Wakes the service's own waiters so they observe the latch.
    fn wake(&self);

    /// Called once when connection `conn_id` ends, panic included.
    fn closed(&self, _conn_id: u64) {}

    /// Sets the latch and wakes the accept loop and the service.
    fn begin_shutdown(&self) {
        let core = self.core();
        stop(&core.shutdown, &core.endpoint);
        self.wake();
    }
}

/// Ends a connection even when its handler panics: the service's
/// `closed` hook, then the registry slot drain waits on.
struct ConnGuard<'a, S: Service> {
    state: &'a S,
    id: u64,
}

impl<S: Service> Drop for ConnGuard<'_, S> {
    fn drop(&mut self) {
        self.state.closed(self.id);
        self.state.core().release(self.id);
    }
}

/// Starts the accept loop of `state`'s service on a background thread.
pub(crate) fn spawn_accept<S: Service>(state: Arc<S>, listener: Listener) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("mom3d-accept".into())
        .spawn(move || {
            let core = state.core();
            let mut conn_seq: u64 = 0;
            accept_loop(&listener, &core.endpoint, &core.shutdown, |mut stream| {
                let conn_id = conn_seq;
                conn_seq += 1;
                if core.accept_panic_after.is_some_and(|after| conn_seq >= after) {
                    panic!("injected accept-loop panic (accept_panic_after)");
                }
                if !core.admit(conn_id, &stream) {
                    core.refused.fetch_add(1, Ordering::Relaxed);
                    let cap = core.max_connections;
                    let message = format!("connection cap ({cap}) reached; back off and retry");
                    let _ = respond(&mut stream, &Response::Error { code: ERR_OVERLOADED, message });
                    stream.shutdown_all();
                    return;
                }
                let stream = chaos_wrap(stream, core.chaos.as_ref(), conn_id);
                stream.set_read_timeout(Some(S::IDLE_TIMEOUT));
                stream.set_write_timeout(Some(S::WRITE_TIMEOUT));
                let handler = Arc::clone(&state);
                let spawned = std::thread::Builder::new()
                    .name("mom3d-conn".into())
                    .spawn(move || handle_connection(&*handler, conn_id, stream));
                if spawned.is_err() {
                    // The handler never ran; its ConnGuard never will.
                    core.release(conn_id);
                }
            });
        })
        .expect("spawning the accept loop")
}

/// The per-connection frame loop.
fn handle_connection<S: Service>(state: &S, conn_id: u64, mut stream: Stream) {
    let _guard = ConnGuard { state, id: conn_id };
    let core = state.core();
    core.connections.fetch_add(1, Ordering::Relaxed);
    loop {
        // Patient between requests, impatient mid-frame: a corrupted
        // length prefix cannot park this handler for the idle window.
        let frame = match read_frame_deadlined(&mut stream, Some(S::IDLE_TIMEOUT)) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => return, // clean disconnect
            Err(err) => {
                // Idle past the deadline is not a protocol error — the
                // client simply went quiet.
                if !matches!(err, FrameError::TimedOut) {
                    core.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                core.warnings.note(S::WHO, &err);
                // Damaged framing cannot be re-synchronized: one typed
                // reply, best-effort, then close. A connection that died
                // mid-frame or timed out has nobody to reply to.
                if !matches!(err, FrameError::TimedOut | FrameError::Io(_)) {
                    let reply = Response::Error { code: ERR_PROTOCOL, message: err.to_string() };
                    let _ = respond(&mut stream, &reply);
                }
                return;
            }
        };
        let alive = match Request::decode(&frame) {
            // Well-framed but bad payload: the connection stays usable.
            Err(e) => respond(&mut stream, &Response::Error { code: e.code, message: e.message }),
            Ok(req) => match state.handle(conn_id, &mut stream, req) {
                Some(true) => Ok(()),
                Some(false) => return,
                None => {
                    let reply =
                        Response::Error { code: ERR_UNSUPPORTED, message: S::REDIRECT.into() };
                    respond(&mut stream, &reply)
                }
            },
        };
        if alive.is_err() {
            return;
        }
    }
}
