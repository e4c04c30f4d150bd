//! The TCP front-end: a zero-dependency `std::net` wire protocol over the
//! in-process [`QueryServer`], designed so the network edge *degrades*
//! instead of failing — slow clients are shed, torn frames drop exactly
//! one connection, drains finish in-flight work, and every refusal carries
//! a stable status code a client can act on.
//!
//! # Wire protocol
//!
//! Every frame is a fixed 6-byte header followed by a JSON payload:
//!
//! ```text
//! ┌─────────┬────────┬──────────────────┬─────────────────────────┐
//! │ version │  kind  │ payload length   │ payload (UTF-8 JSON)    │
//! │ 1 byte  │ 1 byte │ 4 bytes, LE u32  │ ≤ MAX_FRAME_LEN bytes   │
//! └─────────┴────────┴──────────────────┴─────────────────────────┘
//! ```
//!
//! Kinds: [`FRAME_REQUEST`] carries a [`WireRequest`] (pattern text,
//! top-k limit, optional deadline), [`FRAME_RESPONSE`] a [`WireResponse`]
//! (status + ranked results), [`FRAME_STATUS`] a [`WireStatus`] (a refusal
//! or notice with no ranking). A frame longer than [`MAX_FRAME_LEN`] or
//! with the wrong version byte is a protocol violation: the server answers
//! [`STATUS_BAD_FRAME`] and closes, because framing can no longer be
//! trusted past that point.
//!
//! JSON is the payload codec because the vendored writer round-trips
//! `f64` bit-exactly (shortest-repr printing), so a ranking that crosses
//! the wire compares byte-identical to the in-process one — the property
//! `hmmm loadgen --connect … --check` asserts.
//!
//! # Status codes
//!
//! Every [`RejectReason`] and [`DegradedReason`] from the admission /
//! anytime-retrieval layers maps to one stable code (see the table in
//! `docs/SERVING.md`); [`status_name`] is the canonical code → name map.
//!
//! # Connection QoS
//!
//! The acceptor is bounded ([`NetConfig::max_connections`]); over-cap
//! connections are refused with [`STATUS_CONN_LIMIT`], never queued. Each
//! connection thread reads with a poll-tick timeout so two conditions are
//! noticed promptly: a drain in progress (idle connections get a final
//! [`STATUS_DRAINING`] notice and are closed) and a frame that started but
//! did not finish within [`NetConfig::frame_timeout`] (the slow-loris
//! client is shed, counted under `net.shed_slow_client`). Network read
//! time draws from the request's deadline budget exactly like queue wait
//! does in the [`QueryServer`]: a request whose budget was consumed before
//! admission is refused with [`STATUS_REJECTED_DEADLINE`].
//!
//! # Answered-exactly-once-or-dropped
//!
//! A response write that fails (peer gone, injected tear) is never
//! retried on that connection: the handler drops the connection instead,
//! because a failed write says nothing about how many bytes the peer
//! already received — rewriting risks duplicate delivery. The
//! `mc/connection.rs` protocol model checks exactly this contract, and its
//! seeded double-respond mutation shows what the checker catches when the
//! rule is broken.

use crate::server::{QueryRequest, QueryServer, RejectReason, ServeOutcome};
use hmmm_core::metrics as m;
use hmmm_core::{DegradedReason, FaultHandle, RankedPattern};
use hmmm_media::EventKind;
use hmmm_obs::RecorderHandle;
use hmmm_query::QueryTranslator;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire protocol version carried in byte 0 of every frame.
pub const PROTO_VERSION: u8 = 1;
/// Fixed frame header length: version, kind, LE u32 payload length.
pub const HEADER_LEN: usize = 6;
/// Hard cap on a frame's payload length. Anything longer is refused with
/// [`STATUS_BAD_FRAME`] before a single payload byte is buffered.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Frame kind: client → server query ([`WireRequest`]).
pub const FRAME_REQUEST: u8 = 1;
/// Frame kind: server → client ranking ([`WireResponse`]).
pub const FRAME_RESPONSE: u8 = 2;
/// Frame kind: server → client refusal/notice ([`WireStatus`]).
pub const FRAME_STATUS: u8 = 3;

/// The request completed with an exact ranking.
pub const STATUS_OK: u8 = 0;
/// Completed, degraded: [`DegradedReason::DeadlineExpired`].
pub const STATUS_DEGRADED_DEADLINE: u8 = 20;
/// Completed, degraded: [`DegradedReason::WorkerPanic`].
pub const STATUS_DEGRADED_PANIC: u8 = 21;
/// Completed, degraded: [`DegradedReason::DeadlineAndPanic`].
pub const STATUS_DEGRADED_DEADLINE_AND_PANIC: u8 = 22;
/// Refused: [`RejectReason::QueueFull`] (transient — safe to retry).
pub const STATUS_REJECTED_QUEUE_FULL: u8 = 40;
/// Refused: [`RejectReason::DeadlineBeforeService`] — the budget was
/// consumed by network read time and/or queue wait before any work.
pub const STATUS_REJECTED_DEADLINE: u8 = 41;
/// Refused: [`RejectReason::Shutdown`].
pub const STATUS_REJECTED_SHUTDOWN: u8 = 42;
/// Refused: [`RejectReason::Invalid`] (bad pattern text, engine refusal).
pub const STATUS_REJECTED_INVALID: u8 = 43;
/// Refused at accept (or per-connection request cap): connection limit.
pub const STATUS_CONN_LIMIT: u8 = 44;
/// Notice: the server is draining; this connection is being closed.
pub const STATUS_DRAINING: u8 = 50;
/// Protocol violation: bad version byte, over-cap length, or an
/// unparseable payload.
pub const STATUS_BAD_FRAME: u8 = 60;

/// Canonical name for a wire status code (the docs/SERVING.md table and
/// the loadgen report key off this single mapping).
pub fn status_name(code: u8) -> &'static str {
    match code {
        STATUS_OK => "ok",
        STATUS_DEGRADED_DEADLINE => "degraded: deadline expired",
        STATUS_DEGRADED_PANIC => "degraded: worker panic",
        STATUS_DEGRADED_DEADLINE_AND_PANIC => "degraded: deadline expired + worker panic",
        STATUS_REJECTED_QUEUE_FULL => "rejected: queue full",
        STATUS_REJECTED_DEADLINE => "rejected: deadline exhausted before service",
        STATUS_REJECTED_SHUTDOWN => "rejected: server shutting down",
        STATUS_REJECTED_INVALID => "rejected: invalid request",
        STATUS_CONN_LIMIT => "rejected: connection limit",
        STATUS_DRAINING => "draining",
        STATUS_BAD_FRAME => "bad frame",
        _ => "unknown status",
    }
}

/// Stable status code for an admission rejection.
pub fn status_for_reject(reason: &RejectReason) -> u8 {
    match reason {
        RejectReason::QueueFull => STATUS_REJECTED_QUEUE_FULL,
        RejectReason::DeadlineBeforeService => STATUS_REJECTED_DEADLINE,
        RejectReason::Shutdown => STATUS_REJECTED_SHUTDOWN,
        RejectReason::Invalid(_) => STATUS_REJECTED_INVALID,
    }
}

/// Stable status code for a degraded completion.
pub fn status_for_degraded(reason: DegradedReason) -> u8 {
    match reason {
        DegradedReason::DeadlineExpired => STATUS_DEGRADED_DEADLINE,
        DegradedReason::WorkerPanic => STATUS_DEGRADED_PANIC,
        DegradedReason::DeadlineAndPanic => STATUS_DEGRADED_DEADLINE_AND_PANIC,
    }
}

/// One query as it crosses the wire (payload of a [`FRAME_REQUEST`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Query text, compiled server-side by the [`hmmm_query`] translator.
    pub pattern: String,
    /// Top-k limit (Step 9).
    pub limit: usize,
    /// Per-request deadline budget, milliseconds. Network read time and
    /// queue wait both draw from it before execution does.
    pub deadline_ms: Option<u64>,
}

/// A completed ranking as it crosses the wire (payload of a
/// [`FRAME_RESPONSE`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireResponse {
    /// [`STATUS_OK`] or one of the `STATUS_DEGRADED_*` codes.
    pub status: u8,
    /// Epoch of the model generation that answered.
    pub epoch: u64,
    /// Canonical [`DegradedReason::as_str`] string when degraded.
    pub degraded: Option<String>,
    /// The ranked candidates — bit-exact across the JSON round trip.
    pub results: Vec<RankedPattern>,
    /// Time the request sat in the admission queue, nanoseconds.
    pub queue_ns: u64,
    /// Retrieval execution time, nanoseconds.
    pub service_ns: u64,
}

/// A refusal or notice with no ranking (payload of a [`FRAME_STATUS`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireStatus {
    /// One of the `STATUS_*` codes above.
    pub code: u8,
    /// Human-readable detail (the canonical reason string, plus engine
    /// detail for invalid requests).
    pub reason: String,
}

/// Writes one frame: header then payload, flushed.
///
/// # Errors
///
/// `InvalidInput` when the payload exceeds [`MAX_FRAME_LEN`]; otherwise
/// whatever the underlying stream returns.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds cap {MAX_FRAME_LEN}", payload.len()),
        ));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = PROTO_VERSION;
    header[1] = kind;
    header[2..HEADER_LEN].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Hard cap on a status frame's reason detail. A refusal must always fit
/// in a frame no matter how large the input that provoked it was — an
/// `Invalid` rejection echoes the offending pattern text, and an
/// exact-cap request would otherwise produce a status payload over
/// [`MAX_FRAME_LEN`], turning a clean refusal into a dropped connection.
pub const MAX_REASON_LEN: usize = 512;

/// Serializes and writes a [`WireStatus`] frame, truncating the reason to
/// [`MAX_REASON_LEN`] bytes (on a char boundary, with a marker).
pub fn write_status<W: Write>(w: &mut W, code: u8, reason: &str) -> std::io::Result<()> {
    let reason = if reason.len() > MAX_REASON_LEN {
        let mut cut = MAX_REASON_LEN;
        while !reason.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}… (truncated)", &reason[..cut])
    } else {
        reason.to_string()
    };
    let payload = serde_json::to_vec(&WireStatus { code, reason }).expect("status serializes");
    write_frame(w, FRAME_STATUS, &payload)
}

/// A fully received frame.
#[derive(Debug)]
pub struct Frame {
    /// `FRAME_*` kind byte.
    pub kind: u8,
    /// Raw JSON payload.
    pub payload: Vec<u8>,
    /// When the first byte of this frame arrived — the start of the
    /// network time that draws from the request's deadline budget.
    pub first_byte: Instant,
}

/// Why a frame read ended without a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF before any byte of a frame: the peer closed between
    /// frames.
    Closed,
    /// EOF or I/O error with part of a frame already read: the frame is
    /// torn and the connection unusable.
    Torn(std::io::Error),
    /// Protocol violation (bad version byte, over-cap length). Framing can
    /// no longer be trusted; the connection must close.
    Malformed(String),
    /// No complete frame arrived in time. `started` distinguishes a
    /// slow-loris mid-frame stall (`true`) from plain idleness past the
    /// caller's idle budget (`false`).
    TimedOut {
        /// Whether any byte of the frame had arrived.
        started: bool,
    },
    /// The `is_draining` probe fired before a frame started (server side
    /// only — idle connections notice a drain here).
    Draining,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Torn(e) => write!(f, "torn frame: {e}"),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FrameError::TimedOut { started: true } => f.write_str("frame stalled mid-read"),
            FrameError::TimedOut { started: false } => f.write_str("timed out waiting for a frame"),
            FrameError::Draining => f.write_str("draining"),
        }
    }
}

/// Reads one frame from a stream whose read timeout is set to a short
/// poll tick. Between ticks it checks `is_draining` (only before the
/// frame's first byte) and the two timeouts: `frame_timeout` bounds the
/// time from first byte to complete frame (slow-loris shedding), and
/// `idle_timeout`, when given, bounds the wait for the first byte (the
/// client's response wait).
///
/// # Errors
///
/// [`FrameError`] as documented per variant.
pub fn read_frame<R: Read>(
    r: &mut R,
    is_draining: impl Fn() -> bool,
    frame_timeout: Duration,
    idle_timeout: Option<Duration>,
) -> Result<Frame, FrameError> {
    let idle_since = Instant::now();
    let mut header = [0u8; HEADER_LEN];
    let mut started: Option<Instant> = None;
    read_exact_polled(
        r,
        &mut header,
        &is_draining,
        frame_timeout,
        idle_timeout,
        idle_since,
        &mut started,
    )?;
    let first_byte = started.expect("header read sets the first-byte instant");
    if header[0] != PROTO_VERSION {
        return Err(FrameError::Malformed(format!(
            "bad version byte {} (expected {PROTO_VERSION})",
            header[0]
        )));
    }
    let kind = header[1];
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Malformed(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_polled(
        r,
        &mut payload,
        &is_draining,
        frame_timeout,
        idle_timeout,
        idle_since,
        &mut started,
    )?;
    Ok(Frame {
        kind,
        payload,
        first_byte,
    })
}

/// The poll loop under [`read_frame`]: fills `buf` completely or explains
/// why it could not.
fn read_exact_polled<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    is_draining: &impl Fn() -> bool,
    frame_timeout: Duration,
    idle_timeout: Option<Duration>,
    idle_since: Instant,
    started: &mut Option<Instant>,
) -> Result<(), FrameError> {
    let mut have = 0usize;
    while have < buf.len() {
        match r.read(&mut buf[have..]) {
            Ok(0) => {
                return Err(match started {
                    None => FrameError::Closed,
                    Some(_) => FrameError::Torn(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    )),
                });
            }
            Ok(n) => {
                if started.is_none() {
                    *started = Some(Instant::now());
                }
                have += n;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                match started {
                    None => {
                        if is_draining() {
                            return Err(FrameError::Draining);
                        }
                        if let Some(idle) = idle_timeout {
                            if idle_since.elapsed() >= idle {
                                return Err(FrameError::TimedOut { started: false });
                            }
                        }
                    }
                    Some(t0) => {
                        if t0.elapsed() >= frame_timeout {
                            return Err(FrameError::TimedOut { started: true });
                        }
                    }
                }
            }
            Err(e) => {
                return Err(match started {
                    None => FrameError::Closed,
                    Some(_) => FrameError::Torn(e),
                })
            }
        }
    }
    Ok(())
}

/// Front-end tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Concurrent connections the acceptor admits; the next one is refused
    /// with [`STATUS_CONN_LIMIT`] (reject-not-queue, mirroring admission).
    pub max_connections: usize,
    /// Requests served per connection before it is closed with
    /// [`STATUS_CONN_LIMIT`]; `0` = unlimited.
    pub max_requests_per_conn: usize,
    /// Budget from a frame's first byte to its last: a connection that
    /// starts a frame and stalls past this is shed (slow-loris defense).
    pub frame_timeout: Duration,
    /// Per-connection read tick — how promptly a connection notices a
    /// drain or a frame timeout — and the acceptor's back-off after an
    /// accept error. The acceptor itself blocks in `accept()`;
    /// [`NetServer::shutdown`] wakes it with a loopback connection.
    pub poll_interval: Duration,
    /// Server-side network fault plane: every accepted stream is wrapped
    /// through [`FaultHandle::wrap_stream`] (a noop handle passes bytes
    /// through untouched).
    pub fault: FaultHandle,
    /// Observability sink for the `net.*` counters and connection spans.
    pub recorder: RecorderHandle,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            max_requests_per_conn: 0,
            frame_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(10),
            fault: FaultHandle::noop(),
            recorder: RecorderHandle::noop(),
        }
    }
}

/// Everything the acceptor and connection threads share.
struct NetShared {
    server: Arc<QueryServer>,
    config: NetConfig,
    /// Set once by [`NetServer::shutdown`]: the acceptor stops admitting
    /// and every connection thread finishes its in-flight request, sends a
    /// final notice, and closes.
    draining: AtomicBool,
    /// Live connection threads (reaped opportunistically by the acceptor,
    /// joined exhaustively at shutdown — no connection leaks past drain).
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// The TCP front-end: a bounded acceptor plus one thread per connection,
/// all funneling into the shared [`QueryServer`] admission queue.
///
/// Start with [`NetServer::start`] (port 0 picks a free port — see
/// [`NetServer::local_addr`]); stop with [`NetServer::shutdown`], which
/// drains in-flight requests and joins every thread before returning.
pub struct NetServer {
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Binds `addr` and spawns the acceptor.
    ///
    /// # Errors
    ///
    /// Any bind/listen error from the OS.
    pub fn start(
        server: Arc<QueryServer>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            server,
            config,
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hmmm-net-accept".into())
                .spawn(move || acceptor_loop(&shared, listener))
                .expect("spawn acceptor")
        };
        Ok(NetServer {
            shared,
            acceptor: Some(acceptor),
            local_addr,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared in-process server behind the front-end.
    pub fn server(&self) -> &Arc<QueryServer> {
        &self.shared.server
    }

    /// Graceful shutdown: stop accepting, let every connection finish its
    /// in-flight request (idle ones get a final [`STATUS_DRAINING`]
    /// notice), join all threads, then close the admission queue. Every
    /// connection is accounted for when this returns.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // ordering: Release — publishes the drain decision to acceptor and
        // connection threads, which load it with Acquire; everything the
        // drain must observe (config, server state) was written before
        // start() published the Arc anyway, so this pairing is about
        // making the flag's flip itself promptly and safely visible.
        self.shared.draining.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            wake_acceptor(self.local_addr, &acceptor);
            acceptor.join().expect("acceptor panicked");
        }
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned"));
        for conn in conns {
            conn.join().expect("connection thread panicked");
        }
        self.shared.server.close();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Budget of one wake-up connect; a failed attempt is retried.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Shutdown's wake-up call: the acceptor blocks in `accept()`, so one
/// loopback connection to the bound address makes it return and see the
/// drain flag. A failed connect wakes nothing, so it is retried until one
/// lands or the acceptor has exited. An unspecified bind address
/// (`0.0.0.0`, `::`) is reached through the loopback of its family.
fn wake_acceptor(bound: SocketAddr, acceptor: &JoinHandle<()>) {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    while !acceptor.is_finished() {
        if TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).is_ok() {
            return;
        }
        std::thread::sleep(WAKE_TIMEOUT);
    }
}

/// The acceptor: block in accept, reap finished connection threads,
/// enforce the connection cap, spawn handlers.
fn acceptor_loop(shared: &Arc<NetShared>, listener: TcpListener) {
    let obs = &shared.config.recorder;
    let mut next_conn_id: u64 = 0;
    loop {
        let accepted = listener.accept();
        // ordering: Acquire — pairs with the Release store in shutdown;
        // once observed, the acceptor stops admitting for good. Checked
        // after every accept, so shutdown's wake-up connection (and any
        // other stream that arrives once the flag is up) is dropped here
        // unserved, before `wrap_stream` could draw a fault ticket for it.
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Transient accept error (say, out of descriptors): back
                // off one tick instead of spinning, and keep serving.
                std::thread::sleep(shared.config.poll_interval);
                continue;
            }
        };
        let mut conns = shared.conns.lock().expect("conns poisoned");
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let done = conns.swap_remove(i);
                done.join().expect("connection thread panicked");
            } else {
                i += 1;
            }
        }
        if conns.len() >= shared.config.max_connections {
            drop(conns);
            obs.counter(m::CTR_NET_REJECTED_CONN_LIMIT, 1);
            // Refusals write to the raw stream (no fault wrapping): the
            // fault plane's connection tickets count *served* streams, so
            // plans stay stable under cap pressure.
            let mut stream = stream;
            let _ = write_status(&mut stream, STATUS_CONN_LIMIT, "connection limit reached");
            continue;
        }
        let conn_id = next_conn_id;
        next_conn_id += 1;
        obs.counter(m::CTR_NET_ACCEPTED, 1);
        obs.gauge(m::GAUGE_NET_OPEN_CONNS, (conns.len() + 1) as f64);
        let handler = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("hmmm-net-conn-{conn_id}"))
                .spawn(move || serve_conn(&shared, stream, conn_id))
                .expect("spawn connection thread")
        };
        conns.push(handler);
    }
}

/// One connection's lifetime: read frame → compile → propagate deadline →
/// admit → write exactly one response or status → repeat until the client
/// leaves, a drain fires, a limit trips, or the stream breaks.
fn serve_conn(shared: &NetShared, stream: TcpStream, conn_id: u64) {
    let obs = &shared.config.recorder;
    let _span = obs.span_labeled(m::SPAN_NET_CONN, conn_id);
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(shared.config.poll_interval))
        .is_err()
    {
        return; // cannot poll: give the connection up before serving
    }
    let mut stream = shared.config.fault.wrap_stream(stream);
    let translator = QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    // ordering: Acquire — pairs with the Release store in shutdown; the
    // probe runs between poll ticks while the connection is idle.
    let is_draining = || shared.draining.load(Ordering::Acquire);
    let mut served = 0usize;
    loop {
        let frame = match read_frame(&mut stream, is_draining, shared.config.frame_timeout, None) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => return, // client left between frames
            Err(FrameError::Draining) => {
                if write_status(&mut stream, STATUS_DRAINING, "server draining").is_ok() {
                    obs.counter(m::CTR_NET_DRAINING_NOTICES, 1);
                } else {
                    obs.counter(m::CTR_NET_WRITE_FAILURES, 1);
                }
                return;
            }
            Err(FrameError::TimedOut { .. }) => {
                obs.counter(m::CTR_NET_SHED_SLOW_CLIENT, 1);
                return;
            }
            Err(FrameError::Torn(_)) => return, // half a frame, then gone
            Err(FrameError::Malformed(msg)) => {
                // Framing is lost (unknown bytes may follow): answer once,
                // then close — resynchronization is not attempted.
                obs.counter(m::CTR_NET_BAD_FRAMES, 1);
                if write_status(&mut stream, STATUS_BAD_FRAME, &msg).is_err() {
                    obs.counter(m::CTR_NET_WRITE_FAILURES, 1);
                }
                return;
            }
        };
        if frame.kind != FRAME_REQUEST {
            obs.counter(m::CTR_NET_BAD_FRAMES, 1);
            let detail = format!("unexpected frame kind {}", frame.kind);
            if write_status(&mut stream, STATUS_BAD_FRAME, &detail).is_err() {
                obs.counter(m::CTR_NET_WRITE_FAILURES, 1);
                return;
            }
            continue; // framing is intact: the frame parsed, only its kind is wrong
        }
        let request: WireRequest = match serde_json::from_slice(&frame.payload) {
            Ok(request) => request,
            Err(e) => {
                obs.counter(m::CTR_NET_BAD_FRAMES, 1);
                let detail = format!("unparseable request payload: {e}");
                if write_status(&mut stream, STATUS_BAD_FRAME, &detail).is_err() {
                    obs.counter(m::CTR_NET_WRITE_FAILURES, 1);
                    return;
                }
                continue; // payload-level error: framing is intact
            }
        };
        obs.counter(m::CTR_NET_REQUESTS, 1);
        let wrote = answer_request(shared, &translator, &mut stream, request, frame.first_byte);
        match wrote {
            Ok(()) => obs.counter(m::CTR_NET_RESPONSES, 1),
            Err(_) => {
                // Answered-exactly-once-or-dropped: a failed response
                // write is never retried on this connection (the peer may
                // hold any prefix of it); drop the connection instead.
                obs.counter(m::CTR_NET_WRITE_FAILURES, 1);
                return;
            }
        }
        served += 1;
        if shared.config.max_requests_per_conn > 0 && served >= shared.config.max_requests_per_conn
        {
            if write_status(
                &mut stream,
                STATUS_CONN_LIMIT,
                "per-connection request limit reached",
            )
            .is_err()
            {
                obs.counter(m::CTR_NET_WRITE_FAILURES, 1);
            }
            return;
        }
    }
}

/// Compiles, budgets, admits, and writes exactly one reply for one parsed
/// request. `Err` means the reply write failed (the caller drops the
/// connection); every other path wrote a complete frame.
fn answer_request<S: Read + Write>(
    shared: &NetShared,
    translator: &QueryTranslator,
    stream: &mut S,
    request: WireRequest,
    first_byte: Instant,
) -> std::io::Result<()> {
    let compiled = match translator.compile(&request.pattern) {
        Ok(compiled) => compiled,
        Err(e) => {
            let reason = RejectReason::Invalid(e.to_string());
            return write_status(stream, status_for_reject(&reason), &reason.to_string());
        }
    };
    // Deadline propagation: the time this request spent on the wire (read
    // polls, injected stalls) already drew from its budget — the same
    // contract queue wait has in `serve_one`.
    let mut deadline = request.deadline_ms.map(Duration::from_millis);
    if let Some(budget) = deadline {
        match budget.checked_sub(first_byte.elapsed()) {
            Some(rest) if !rest.is_zero() => deadline = Some(rest),
            _ => {
                let reason = RejectReason::DeadlineBeforeService;
                return write_status(stream, status_for_reject(&reason), reason.as_str());
            }
        }
    }
    let mut query = QueryRequest::new(compiled, request.limit);
    query.deadline = deadline;
    match shared.server.query(query) {
        ServeOutcome::Completed(response) => {
            let degraded = response.stats.degraded.as_ref().map(|d| d.reason);
            let wire = WireResponse {
                status: degraded.map_or(STATUS_OK, status_for_degraded),
                epoch: response.epoch,
                degraded: degraded.map(|d| d.as_str().to_string()),
                results: response.results,
                queue_ns: response.queue_ns,
                service_ns: response.service_ns,
            };
            let payload = serde_json::to_vec(&wire).expect("response serializes");
            write_frame(stream, FRAME_RESPONSE, &payload)
        }
        ServeOutcome::Rejected(reason) => {
            write_status(stream, status_for_reject(&reason), &reason.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let request = WireRequest {
            pattern: "corner_kick -> goal".into(),
            limit: 5,
            deadline_ms: Some(250),
        };
        let payload = serde_json::to_vec(&request).unwrap();
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQUEST, &payload).unwrap();
        assert_eq!(wire[0], PROTO_VERSION);
        assert_eq!(wire[1], FRAME_REQUEST);
        assert_eq!(wire.len(), HEADER_LEN + payload.len());

        let mut cursor = std::io::Cursor::new(wire);
        let frame = read_frame(&mut cursor, || false, Duration::from_secs(1), None).unwrap();
        assert_eq!(frame.kind, FRAME_REQUEST);
        let back: WireRequest = serde_json::from_slice(&frame.payload).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn oversized_payload_is_refused_at_write() {
        let huge = vec![b'x'; MAX_FRAME_LEN as usize + 1];
        let err = write_frame(&mut Vec::new(), FRAME_REQUEST, &huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bad_version_and_over_cap_length_are_malformed() {
        let bad_version = vec![9u8, FRAME_REQUEST, 0, 0, 0, 0];
        let mut cursor = std::io::Cursor::new(bad_version);
        match read_frame(&mut cursor, || false, Duration::from_secs(1), None) {
            Err(FrameError::Malformed(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }

        let mut over_cap = vec![PROTO_VERSION, FRAME_REQUEST];
        over_cap.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = std::io::Cursor::new(over_cap);
        match read_frame(&mut cursor, || false, Duration::from_secs(1), None) {
            Err(FrameError::Malformed(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_is_torn_and_empty_is_closed() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty, || false, Duration::from_secs(1), None),
            Err(FrameError::Closed)
        ));
        let mut truncated = std::io::Cursor::new(vec![PROTO_VERSION, FRAME_REQUEST, 3]);
        assert!(matches!(
            read_frame(&mut truncated, || false, Duration::from_secs(1), None),
            Err(FrameError::Torn(_))
        ));
    }

    #[test]
    fn status_reason_is_truncated_to_always_fit_a_frame() {
        // An Invalid rejection echoes the pattern text; with an exact-cap
        // request the untruncated echo would overflow the frame cap and
        // turn the refusal into a dropped connection.
        let huge = "é".repeat(MAX_FRAME_LEN as usize);
        let mut wire = Vec::new();
        write_status(&mut wire, STATUS_REJECTED_INVALID, &huge).unwrap();
        assert!(wire.len() <= HEADER_LEN + MAX_FRAME_LEN as usize);
        let mut cursor = std::io::Cursor::new(wire);
        let frame = read_frame(&mut cursor, || false, Duration::from_secs(1), None).unwrap();
        let status: WireStatus = serde_json::from_slice(&frame.payload).unwrap();
        assert_eq!(status.code, STATUS_REJECTED_INVALID);
        assert!(status.reason.len() < MAX_REASON_LEN + 32);
        assert!(status.reason.ends_with("… (truncated)"), "{}", status.reason);
    }

    #[test]
    fn status_code_map_is_total_and_stable() {
        for reason in [
            RejectReason::QueueFull,
            RejectReason::DeadlineBeforeService,
            RejectReason::Shutdown,
            RejectReason::Invalid("x".into()),
        ] {
            let code = status_for_reject(&reason);
            assert!(status_name(code).starts_with("rejected:"), "{code}");
        }
        for reason in [
            DegradedReason::DeadlineExpired,
            DegradedReason::WorkerPanic,
            DegradedReason::DeadlineAndPanic,
        ] {
            let code = status_for_degraded(reason);
            assert!(status_name(code).starts_with("degraded:"), "{code}");
        }
        assert_eq!(status_name(STATUS_OK), "ok");
        assert_eq!(status_name(STATUS_DRAINING), "draining");
        assert_eq!(status_name(STATUS_BAD_FRAME), "bad frame");
    }
}
