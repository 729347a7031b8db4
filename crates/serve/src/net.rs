//! The network front door: TCP + Unix-domain socket sessions over one
//! shared [`Service`].
//!
//! [`NetServer::start`] binds a listener ([`ListenAddr::Tcp`] or
//! [`ListenAddr::Unix`]) and runs an accept loop feeding a bounded
//! connection pool (`max_conns`; excess connections wait in the OS
//! backlog). Each accepted connection gets one session thread that runs
//! the session core (the one request loop stdio runs too: decode one
//! request, handle, respond in order, with one framing rule for every
//! transport). This module keeps only what belongs to sockets:
//!
//! * **Pipelining** — a client may send many requests without reading;
//!   responses are written strictly in request order, into one 64 KiB
//!   buffer per connection that is flushed right before each read of the
//!   socket. A session reads the socket only once it has answered every
//!   request it holds, so the replies to requests that arrived together
//!   leave in one `write`, and no reply waits while the session waits.
//! * **Backpressure** — a client that stops reading fills the kernel
//!   buffers, then the response buffer, then blocks the session in
//!   `write`: the server never buffers unboundedly for a slow consumer.
//! * **Codec negotiation** — the connection's first byte selects the
//!   codec ([`wire::PREAMBLE`] → `OPTRR-WIRE v1` binary frames;
//!   anything else begins the first framed-JSON line). Both codecs
//!   deliver bitwise-identical requests to the service, so a binary
//!   session produces byte-identical warm stores and estimates to the
//!   same session over JSON.
//! * **No Nagle** — every TCP stream, accepted or connected by
//!   [`NetClient`], sets `TCP_NODELAY`: a pipelined burst of small
//!   frames would otherwise stall on the peer's delayed ACK (Nagle,
//!   RFC 896, holds back a short segment until the previous one is
//!   acknowledged; RFC 1122 delays that ACK by up to ~40 ms).
//! * **Graceful drain** — any session's `Shutdown` request (before its
//!   `Bye` is buffered) puts the whole server into drain: the accept
//!   loop stops, idle sessions flush their responses and close, and
//!   [`NetServer::wait`] force-closes stragglers only after
//!   `drain_ms`.
//!
//! A torn frame — truncated length prefix, half-written JSON line,
//! oversized frame, checksum mismatch, abrupt disconnect, failed write —
//! closes *that* session with a typed
//! [`ServeError::Transport`](crate::ServeError::Transport) (counted in
//! `serve_net_conn_errors_total`, answered best-effort with a
//! `code: "transport"` error response) and leaves the shared service
//! fully usable: sessions hold no service locks across requests, so
//! there is nothing to poison and no `Warming` state to leak. The
//! deterministic `conn_drop` fault site ([`crate::faults`]) drops a
//! session mid-frame on purpose to keep that path covered.

use crate::protocol::{self, Request, Response};
use crate::service::Service;
use crate::session::{self, invalid_data, is_poll_timeout, SessionEnd};
use crate::telemetry::ServeObs;
use crate::wire::{self, Codec};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often blocked reads wake up to poll the drain flag. Sessions
/// and the accept loop observe a drain within roughly this interval.
const POLL_MS: u64 = 25;

/// Stack size for session threads: sessions are I/O loops with small
/// frames on the stack, so the default 8 MiB per thread would waste
/// address space across hundreds of connections.
const SESSION_STACK: usize = 512 * 1024;

/// Capacity of a session's response buffer (see the module doc).
const RESPONSE_BUFFER: usize = 64 * 1024;

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP socket address (`127.0.0.1:7171`, `[::1]:7171`, ...).
    Tcp(SocketAddr),
    /// A Unix-domain socket path. A stale file at the path is removed
    /// at bind time and the file is unlinked after drain.
    Unix(PathBuf),
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Configuration of the network front door (see `serve::env` for the
/// `OPTRR_SERVE_LISTEN` / `MAX_CONNS` / `DRAIN_MS` environment knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// The listen address.
    pub listen: ListenAddr,
    /// Bound on concurrently served connections; excess connections
    /// wait in the OS accept backlog until a slot frees.
    pub max_conns: usize,
    /// How long [`NetServer::wait`] lets in-flight sessions flush after
    /// drain is requested before force-closing their sockets.
    pub drain_ms: u64,
}

impl NetConfig {
    /// A configuration with the default pool bounds: 1024 connections,
    /// 5-second drain grace.
    pub fn new(listen: ListenAddr) -> Self {
        Self {
            listen,
            max_conns: 1024,
            drain_ms: 5_000,
        }
    }
}

/// The transports a session can run on, behind one object-safe
/// surface. Both [`TcpStream`] and [`UnixStream`] provide exactly
/// these operations; the session code is transport-agnostic.
trait SessionStream: Read + Write + Send + AsFd {
    /// An independently owned handle to the same socket (for the
    /// response buffer and the force-close registry).
    fn try_clone_stream(&self) -> io::Result<Box<dyn SessionStream>>;
    /// Makes reads blocking but bounded by [`POLL_MS`], so sessions can
    /// poll the drain flag (accepted sockets inherit the listener's
    /// non-blocking flag on some platforms).
    fn poll_reads(&self) -> io::Result<()>;
    /// Closes one or both directions; closing both unblocks any reader
    /// or writer.
    fn shutdown_stream(&self, how: Shutdown) -> io::Result<()>;
}

macro_rules! impl_session_stream {
    ($($stream:ty),*) => {$(
        impl SessionStream for $stream {
            fn try_clone_stream(&self) -> io::Result<Box<dyn SessionStream>> {
                Ok(Box::new(self.try_clone()?))
            }

            fn poll_reads(&self) -> io::Result<()> {
                self.set_nonblocking(false)?;
                self.set_read_timeout(Some(Duration::from_millis(POLL_MS)))
            }

            fn shutdown_stream(&self, how: Shutdown) -> io::Result<()> {
                self.shutdown(how)
            }
        }
    )*};
}

impl_session_stream!(TcpStream, UnixStream);

/// Turns Nagle's algorithm off on a TCP session stream, so each frame
/// leaves as soon as it is written (see the module doc).
fn no_delay(stream: TcpStream) -> io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn bind(listen: &ListenAddr) -> io::Result<Self> {
        match listen {
            ListenAddr::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            ListenAddr::Unix(path) => {
                // A stale socket file from a previous process would fail
                // the bind; remove it first (binding a *live* path still
                // fails on most systems once the file is gone mid-run,
                // and two live servers on one path is an operator error
                // this module does not try to detect).
                let _ = std::fs::remove_file(path);
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Box<dyn SessionStream>> {
        Ok(match self {
            Listener::Tcp(l) => Box::new(no_delay(l.accept()?.0)?),
            Listener::Unix(l) => Box::new(l.accept()?.0),
        })
    }

    fn local_tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A session thread that panicked while holding one of the server's
    // bookkeeping locks must not wedge drain; the maps hold only
    // handles, so the data is valid regardless.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct NetShared {
    service: Arc<Service>,
    config: NetConfig,
    draining: AtomicBool,
    active: AtomicU64,
    conn_seq: AtomicU64,
    /// Socket handles of live sessions, for the post-deadline
    /// force-close. Sessions remove themselves on exit.
    conns: Mutex<HashMap<u64, Box<dyn SessionStream>>>,
    /// Session thread handles, joined by [`NetServer::wait`].
    sessions: Mutex<Vec<JoinHandle<()>>>,
}

impl NetShared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn obs(&self) -> &Arc<ServeObs> {
        self.service.obs()
    }
}

/// The running network front door. Dropping the handle does not stop
/// the server; call [`NetServer::request_drain`] (or send a `Shutdown`
/// request over any connection) and then [`NetServer::wait`].
pub struct NetServer {
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
    local_tcp: Option<SocketAddr>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("listen", &self.shared.config.listen)
            .field("active", &self.shared.active.load(Ordering::SeqCst))
            .field("draining", &self.shared.draining())
            .finish()
    }
}

impl NetServer {
    /// Binds the listener and spawns the accept loop over a shared
    /// service.
    pub fn start(service: Arc<Service>, config: NetConfig) -> io::Result<Self> {
        let listener = Listener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let local_tcp = listener.local_tcp_addr();
        let shared = Arc::new(NetShared {
            service,
            config,
            draining: AtomicBool::new(false),
            active: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            sessions: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("optrr-net-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))
            .expect("spawning the accept thread succeeds");
        Ok(Self {
            shared,
            accept: Some(accept),
            local_tcp,
        })
    }

    /// The bound TCP address (with the OS-assigned port when the
    /// configuration asked for port 0); `None` for Unix listeners.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_tcp
    }

    /// The effective listen address — the configured one with the
    /// OS-assigned TCP port resolved.
    pub fn listen_addr(&self) -> ListenAddr {
        match (&self.shared.config.listen, self.local_tcp) {
            (ListenAddr::Tcp(_), Some(addr)) => ListenAddr::Tcp(addr),
            (listen, _) => listen.clone(),
        }
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Puts the server into drain: the accept loop stops and sessions
    /// close after flushing. Idempotent; also triggered by any
    /// session's `Shutdown` request.
    pub fn request_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining()
    }

    /// Blocks until the server has drained: waits for a `Shutdown`
    /// request or [`NetServer::request_drain`], gives in-flight
    /// sessions `drain_ms` to flush, force-closes stragglers, and joins
    /// every thread. Returns the number of sessions served.
    pub fn wait(mut self) -> u64 {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + Duration::from_millis(self.shared.config.drain_ms);
        while self.shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        // Force-close whatever is still open; their session threads
        // observe the closed socket at the next read or write.
        for (_, stream) in lock(&self.shared.conns).drain() {
            let _ = stream.shutdown_stream(Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.shared.sessions).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        if let ListenAddr::Unix(path) = &self.shared.config.listen {
            let _ = std::fs::remove_file(path);
        }
        self.shared.conn_seq.load(Ordering::SeqCst)
    }
}

fn accept_loop(shared: Arc<NetShared>, listener: Listener) {
    loop {
        if shared.draining() {
            break;
        }
        if shared.active.load(Ordering::SeqCst) >= shared.config.max_conns as u64 {
            // The pool is full: stop accepting and let the backlog hold
            // arrivals until a session finishes.
            thread::sleep(Duration::from_millis(1));
            continue;
        }
        match listener.accept() {
            Ok(stream) => spawn_session(&shared, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(POLL_MS.min(5)));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly instead of spinning.
                thread::sleep(Duration::from_millis(POLL_MS));
            }
        }
    }
    // Dropping the listener closes it; for Unix sockets the file is
    // unlinked by `wait`.
}

fn spawn_session(shared: &Arc<NetShared>, stream: Box<dyn SessionStream>) {
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    let obs = shared.obs();
    obs.count_net_conn();
    shared.active.fetch_add(1, Ordering::SeqCst);
    obs.connection_opened();
    let retire = |shared: &Arc<NetShared>| {
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.obs().connection_closed();
    };
    let registered = stream.poll_reads().and_then(|_| stream.try_clone_stream());
    let handle = match registered {
        Ok(clone) => {
            lock(&shared.conns).insert(conn_id, clone);
            let session_shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("optrr-net-conn-{conn_id}"))
                .stack_size(SESSION_STACK)
                .spawn(move || {
                    run_session(&session_shared, stream, conn_id);
                    lock(&session_shared.conns).remove(&conn_id);
                    retire(&session_shared);
                })
        }
        Err(_) => {
            retire(shared);
            return;
        }
    };
    match handle {
        Ok(handle) => lock(&shared.sessions).push(handle),
        Err(_) => {
            // Spawn failure (thread exhaustion): the connection is
            // dropped; `stream` was moved into the failed closure and
            // is already gone, so just fix the accounting.
            lock(&shared.conns).remove(&conn_id);
            retire(shared);
        }
    }
}

fn run_session(shared: &Arc<NetShared>, stream: Box<dyn SessionStream>, conn_id: u64) {
    let Ok(out) = stream.try_clone_stream() else {
        return;
    };
    let out = RefCell::new(BufWriter::with_capacity(RESPONSE_BUFFER, out));
    let mut reader = BufReader::new(FlushBeforeRead {
        inner: stream,
        out: &out,
    });
    let Ok(codec) = negotiate_codec(&mut reader, shared) else {
        // The connection failed before its first byte: nobody to answer.
        shared.obs().count_net_conn_error();
        return;
    };
    let end = session::run_session(
        &shared.service,
        &mut reader,
        codec,
        conn_id,
        &shared.draining,
        &mut |bytes| out.borrow_mut().write_all(&bytes),
    );
    drop(reader);
    let mut out = out.into_inner();
    if !matches!(end, SessionEnd::Dropped(_)) {
        let _ = out.flush();
    }
    // The injected disconnect hangs up without writing what is still
    // buffered; closing our half also unblocks a client waiting on reads.
    let (stream, _unwritten) = out.into_parts();
    let _ = stream.shutdown_stream(Shutdown::Both);
}

/// A socket as its session's `BufReader` sees it: each read first
/// flushes the buffered responses (see the module doc). `BufReader`
/// reads only once its request bytes are used up. A failed flush fails
/// the read, which ends the session as a torn transport.
struct FlushBeforeRead<'a, R, W> {
    inner: R,
    out: &'a RefCell<W>,
}

impl<R: Read, W: Write> Read for FlushBeforeRead<'_, R, W> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.out
            .borrow_mut()
            .flush()
            .map_err(|e| io::Error::new(e.kind(), format!("writing responses: {e}")))?;
        self.inner.read(buf)
    }
}

/// Peeks at the connection's first byte to select the codec. A
/// connection that closes or drains before sending anything is left to
/// the session core, whose first read ends it the same way.
fn negotiate_codec(reader: &mut impl BufRead, shared: &Arc<NetShared>) -> io::Result<Codec> {
    loop {
        match reader.fill_buf() {
            Ok([wire::PREAMBLE, ..]) => {
                reader.consume(1);
                shared.obs().add_net_bytes_in(1);
                return Ok(Codec::Binary);
            }
            Ok(_) => return Ok(Codec::Json),
            Err(e) if !is_poll_timeout(&e) => return Err(e),
            Err(_) if shared.draining() => return Ok(Codec::Json),
            Err(_) => {}
        }
    }
}

// ---- client -----------------------------------------------------------------

/// A blocking protocol client for either transport and codec — what
/// perfbench and the integration tests drive sessions with, and a
/// reference for external client implementations.
pub struct NetClient {
    reader: BufReader<Box<dyn SessionStream>>,
    writer: Box<dyn SessionStream>,
    codec: Codec,
    frame: Vec<u8>,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("codec", &self.codec)
            .finish()
    }
}

impl NetClient {
    /// Connects to a server and negotiates the codec (binary clients
    /// send the [`wire::PREAMBLE`] byte; JSON clients send nothing).
    pub fn connect(addr: &ListenAddr, codec: Codec) -> io::Result<Self> {
        let stream: Box<dyn SessionStream> = match addr {
            ListenAddr::Tcp(addr) => Box::new(no_delay(TcpStream::connect(addr)?)?),
            ListenAddr::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        let mut writer = stream.try_clone_stream()?;
        if codec == Codec::Binary {
            writer.write_all(&[wire::PREAMBLE])?;
        }
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            codec,
            frame: Vec::new(),
        })
    }

    /// The negotiated codec.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Sends one request without waiting for the response — the
    /// pipelining half; pair with [`NetClient::recv`] in request order.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let bytes = match self.codec {
            Codec::Json => (protocol::encode_request(request) + "\n").into_bytes(),
            Codec::Binary => wire::encode_request_frame(request)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?,
        };
        self.writer.write_all(&bytes)
    }

    /// Receives one response (in request order), read by the same
    /// framing readers the server's sessions use.
    pub fn recv(&mut self) -> io::Result<Response> {
        if !session::read_frame(&mut self.reader, self.codec, &mut self.frame, &|| false)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        match self.codec {
            Codec::Json => {
                let text = std::str::from_utf8(&self.frame).map_err(invalid_data)?;
                protocol::decode_response(text.trim()).map_err(invalid_data)
            }
            Codec::Binary => wire::parse_body(&self.frame[4..])
                .and_then(|(tag, payload)| wire::decode_response_frame(tag, payload))
                .map_err(invalid_data),
        }
    }

    /// One full round trip.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Writes raw bytes to the connection — the integration tests use
    /// this to produce torn frames and half-written lines on purpose.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Closes the sending direction: the server reads EOF after the bytes
    /// already sent, and their responses can still be received.
    pub fn close_write(&mut self) -> io::Result<()> {
        self.writer.shutdown_stream(Shutdown::Write)
    }

    /// Closes both directions immediately (an abrupt client hang-up).
    pub fn hang_up(&mut self) {
        let _ = self.writer.shutdown_stream(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    fn tiny_server(seed: u64) -> (NetServer, ListenAddr) {
        let service = Arc::new(Service::new(ServiceConfig::smoke(seed)));
        let config = NetConfig::new(ListenAddr::Tcp("127.0.0.1:0".parse().unwrap()));
        let server = NetServer::start(service, config).expect("bind succeeds");
        let addr = server.listen_addr();
        (server, addr)
    }

    #[test]
    fn listen_addr_renders_both_transports() {
        let tcp = ListenAddr::Tcp("127.0.0.1:7171".parse().unwrap());
        assert_eq!(tcp.to_string(), "127.0.0.1:7171");
        let unix = ListenAddr::Unix(PathBuf::from("/tmp/optrr.sock"));
        assert_eq!(unix.to_string(), "unix:/tmp/optrr.sock");
    }

    #[test]
    fn net_config_defaults_are_bounded() {
        let config = NetConfig::new(ListenAddr::Tcp("127.0.0.1:0".parse().unwrap()));
        assert_eq!(config.max_conns, 1024);
        assert_eq!(config.drain_ms, 5_000);
    }

    #[test]
    fn a_session_round_trips_and_shutdown_drains() {
        let (server, addr) = tiny_server(11);
        let mut client = NetClient::connect(&addr, Codec::Json).unwrap();
        let response = client
            .request(&Request::Register {
                name: Some("demo".into()),
                prior: vec![0.4, 0.3, 0.2, 0.1],
                delta: 0.8,
                slots: Some(60),
                lazy: None,
            })
            .unwrap();
        assert!(matches!(response, Response::Registered { warm: true, .. }));
        let response = client
            .request(&Request::BestForPrivacy {
                key: None,
                name: Some("demo".into()),
                min_privacy: 0.05,
            })
            .unwrap();
        assert!(matches!(response, Response::Matrix { .. }));
        assert_eq!(client.request(&Request::Shutdown).unwrap(), Response::Bye);
        assert_eq!(server.wait(), 1, "one session was served");
    }

    #[test]
    fn both_ends_of_a_tcp_session_set_nodelay() {
        // Read the option back through a duplicate of each boxed
        // stream's descriptor: the same socket, seen as a `TcpStream`.
        let nodelay = |stream: &dyn SessionStream| {
            let fd = stream.as_fd().try_clone_to_owned().unwrap();
            TcpStream::from(fd).nodelay().unwrap()
        };
        let listener = Listener::bind(&ListenAddr::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
        let addr = ListenAddr::Tcp(listener.local_tcp_addr().unwrap());
        let client = NetClient::connect(&addr, Codec::Binary).unwrap();
        let accepted = listener.accept().unwrap();
        assert!(nodelay(accepted.as_ref()), "the accepted stream");
        assert!(nodelay(client.writer.as_ref()), "the client's stream");
    }

    /// A socket's read side that hands out one chunk per read, then EOF.
    struct Chunks(std::collections::VecDeque<&'static [u8]>);

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    /// A socket's write side that records every `write` it takes, or
    /// fails each one once `broken`.
    struct Writes {
        calls: Vec<Vec<u8>>,
        broken: bool,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.broken {
                return Err(io::ErrorKind::BrokenPipe.into());
            }
            self.calls.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Runs the session core over `chunks` the way a socket session does:
    /// responses buffered, flushed before each read of the socket.
    fn buffered_session(chunks: &[&'static [u8]], broken: bool) -> (SessionEnd, Writes) {
        let service = Arc::new(Service::new(ServiceConfig::smoke(13)));
        let writes = Writes {
            calls: Vec::new(),
            broken,
        };
        let out = RefCell::new(BufWriter::with_capacity(RESPONSE_BUFFER, writes));
        let inner = Chunks(chunks.iter().copied().collect());
        let mut reader = BufReader::new(FlushBeforeRead { inner, out: &out });
        let draining = AtomicBool::new(false);
        let end =
            session::run_session(&service, &mut reader, Codec::Json, 0, &draining, &mut |b| {
                out.borrow_mut().write_all(&b)
            });
        drop(reader);
        let (writes, unwritten) = out.into_inner().into_parts();
        assert!(
            broken || unwritten.unwrap().is_empty(),
            "EOF flushed it all"
        );
        (end, writes)
    }

    #[test]
    fn responses_leave_together_right_before_the_socket_is_read() {
        const STATS: &[u8] = b"{\"Stats\":{}}\n";
        // Three requests in one read: their replies leave in one write,
        // made before the read that finds EOF.
        let (end, writes) = buffered_session(
            &[b"{\"Stats\":{}}\n{\"Stats\":{}}\n{\"Stats\":{}}\n"],
            false,
        );
        assert!(matches!(end, SessionEnd::Clean), "{end:?}");
        assert_eq!(writes.calls.len(), 1);
        assert_eq!(writes.calls[0].iter().filter(|&&b| b == b'\n').count(), 3);

        // One request per read: each reply leaves before the next read.
        let (end, writes) = buffered_session(&[STATS, STATS, STATS], false);
        assert!(matches!(end, SessionEnd::Clean), "{end:?}");
        assert_eq!(writes.calls.len(), 3);
        assert!(writes.calls.iter().all(|call| call.ends_with(b"}\n")));

        // A failed flush ends the session as a torn transport.
        let (end, _) = buffered_session(&[STATS, STATS], true);
        let SessionEnd::Torn(crate::ServeError::Transport(reason)) = end else {
            panic!("expected a torn session, got {end:?}");
        };
        assert!(reason.contains("writing responses"), "{reason}");
    }

    #[test]
    fn request_drain_stops_an_idle_server() {
        let (server, _) = tiny_server(12);
        assert!(!server.is_draining());
        server.request_drain();
        assert!(server.is_draining());
        assert_eq!(server.wait(), 0);
    }
}
