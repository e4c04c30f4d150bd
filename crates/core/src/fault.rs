//! Deterministic fault injection for the retrieval stack.
//!
//! The degraded paths this PR hardens — panic isolation, deadline expiry,
//! transient-I/O retry, `.bak` recovery — are exactly the paths ordinary
//! tests never exercise. A [`FaultPlan`] makes them reproducible: a seeded,
//! serializable schedule of injected failures (panic on video *k*, I/O
//! error on the *n*-th filesystem op, latency before lattice step *j*)
//! that the engine consults through a [`FaultHandle`].
//!
//! The handle mirrors the PR-2 recorder pattern
//! ([`hmmm_obs::RecorderHandle`]): `Option<Arc<…>>` inside, so the default
//! [`FaultHandle::noop`] is an inlined `None` check on the hot path —
//! production configs pay (almost) nothing for the hook's existence.
//!
//! Determinism matters more than realism here: every injection decision is
//! a pure function of the plan plus a stable key (video index, global I/O
//! ticket, step index), never of wall time or scheduling — so a failing
//! fault-matrix run replays exactly, in serial and parallel alike, and the
//! `faults.rs` / `proptest_faults.rs` suites can assert the degraded
//! contract byte-for-byte.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A seeded, serializable schedule of injected failures.
///
/// The default plan injects nothing. Plans compose: every field acts
/// independently, so one plan can panic a video, fail an I/O op, *and*
/// stall a lattice step.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed for the probabilistic fields (only [`FaultPlan::panic_rate`]
    /// today). Decisions are keyed on `seed × video`, not on scheduling,
    /// so the same plan fails the same videos in every configuration.
    pub seed: u64,
    /// Videos (catalog indices) whose traversal panics on entry.
    pub panic_on_videos: Vec<usize>,
    /// Probability in `[0, 1]` that any *other* video panics on entry,
    /// decided per video by a seeded hash (deterministic, schedule-free).
    pub panic_rate: f64,
    /// Global I/O-operation tickets (0-based, counted across the process
    /// lifetime of the handle) that fail with a transient
    /// [`std::io::ErrorKind::Interrupted`] error — exercises the atomic
    /// writer's retry/backoff.
    pub io_error_on_ops: Vec<u64>,
    /// Lattice step index to stall before (`None` = no latency).
    pub latency_step: Option<usize>,
    /// Stall duration in nanoseconds (ignored when
    /// [`FaultPlan::latency_step`] is `None`).
    pub latency_ns: u64,
    /// Connection tickets (0-based, drawn from the handle's global
    /// counter by [`FaultHandle::wrap_stream`]) whose streams the network
    /// faults below apply to. Streams on other tickets pass bytes through
    /// untouched — which is what makes a client retry on a *fresh*
    /// connection deterministically succeed.
    pub net_fault_connections: Vec<u64>,
    /// Outbound byte offset at which a faulted stream tears: the write
    /// covering the offset is truncated there (a torn frame on the wire)
    /// and every later write fails with `ConnectionReset`.
    pub net_tear_write_at: Option<u64>,
    /// Outbound byte offset whose byte is XOR'd with `0xFF` on a faulted
    /// stream. Pointing it inside a frame header corrupts the length
    /// prefix the receiver parses.
    pub net_corrupt_byte_at: Option<u64>,
    /// Per-stream read-call tickets (0-based) stalled for
    /// [`FaultPlan::net_stall_ns`] before the read proceeds — a
    /// slow-loris client or a stalled upstream, reproducibly.
    pub net_stall_reads: Vec<u64>,
    /// Stall duration for [`FaultPlan::net_stall_reads`], nanoseconds.
    pub net_stall_ns: u64,
    /// Inbound byte offset after which a faulted stream's reads return
    /// `Ok(0)` — the peer vanishes kill−9-style mid-frame.
    pub net_close_read_at: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_on_videos: Vec::new(),
            panic_rate: 0.0,
            io_error_on_ops: Vec::new(),
            latency_step: None,
            latency_ns: 0,
            net_fault_connections: Vec::new(),
            net_tear_write_at: None,
            net_corrupt_byte_at: None,
            net_stall_reads: Vec::new(),
            net_stall_ns: 0,
            net_close_read_at: None,
        }
    }
}

// Tolerant by hand (the vendored serde derive has no `#[serde(default)]`):
// every field is optional so CLI plans can be as terse as
// `{"panic_on_videos":[0,2]}`.
impl Deserialize for FaultPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v.as_object().ok_or_else(|| {
            serde::DeError::new(format!("FaultPlan: expected object, found {}", v.kind()))
        })?;
        let mut plan = FaultPlan::default();
        for (key, value) in obj {
            match key.as_str() {
                "seed" => plan.seed = u64::from_value(value)?,
                "panic_on_videos" => plan.panic_on_videos = Vec::from_value(value)?,
                "panic_rate" => plan.panic_rate = f64::from_value(value)?,
                "io_error_on_ops" => plan.io_error_on_ops = Vec::from_value(value)?,
                "latency_step" => plan.latency_step = Option::from_value(value)?,
                "latency_ns" => plan.latency_ns = u64::from_value(value)?,
                "net_fault_connections" => {
                    plan.net_fault_connections = Vec::from_value(value)?
                }
                "net_tear_write_at" => plan.net_tear_write_at = Option::from_value(value)?,
                "net_corrupt_byte_at" => plan.net_corrupt_byte_at = Option::from_value(value)?,
                "net_stall_reads" => plan.net_stall_reads = Vec::from_value(value)?,
                "net_stall_ns" => plan.net_stall_ns = u64::from_value(value)?,
                "net_close_read_at" => plan.net_close_read_at = Option::from_value(value)?,
                other => {
                    return Err(serde::DeError::new(format!(
                        "FaultPlan: unknown field {other:?}"
                    )))
                }
            }
        }
        if !(0.0..=1.0).contains(&plan.panic_rate) {
            return Err(serde::DeError::new(format!(
                "FaultPlan.panic_rate: {} outside [0, 1]",
                plan.panic_rate
            )));
        }
        Ok(plan)
    }
}

impl FaultPlan {
    /// A plan that panics exactly the given videos (everything else off).
    pub fn panicking(videos: impl IntoIterator<Item = usize>) -> Self {
        FaultPlan {
            panic_on_videos: videos.into_iter().collect(),
            ..FaultPlan::default()
        }
    }

    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.panic_on_videos.is_empty()
            && self.panic_rate == 0.0
            && self.io_error_on_ops.is_empty()
            && self.latency_step.is_none()
            && !self.has_net_faults()
    }

    /// `true` when the network plane is active: at least one connection is
    /// targeted *and* at least one stream-level fault is configured.
    pub fn has_net_faults(&self) -> bool {
        !self.net_fault_connections.is_empty()
            && (self.net_tear_write_at.is_some()
                || self.net_corrupt_byte_at.is_some()
                || !self.net_stall_reads.is_empty()
                || self.net_close_read_at.is_some())
    }

    /// Whether this plan panics `video`'s traversal: the explicit list
    /// first, then the seeded per-video Bernoulli draw. Pure in
    /// `(plan, video)` — independent of thread count or visit order.
    pub fn panics_on(&self, video: usize) -> bool {
        if self.panic_on_videos.contains(&video) {
            return true;
        }
        if self.panic_rate <= 0.0 {
            return false;
        }
        if self.panic_rate >= 1.0 {
            return true;
        }
        // splitmix64 of (seed, video) → uniform in [0, 1): the top 53 bits
        // make an exact double, the standard Bernoulli-from-bits draw.
        let draw = (splitmix64(self.seed ^ (video as u64).wrapping_add(1)) >> 11) as f64
            / (1u64 << 53) as f64;
        draw < self.panic_rate
    }
}

/// splitmix64 — the statistically solid 64-bit mixer (Steele et al.),
/// used here as a keyed hash for the per-video Bernoulli draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared mutable state behind an enabled handle: the plan plus the global
/// I/O and connection ticket counters and the network injection tallies.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    io_ops: AtomicU64,
    /// Next connection ticket for [`FaultHandle::wrap_stream`].
    net_conns: AtomicU64,
    /// Count of writes torn by `net_tear_write_at` (frames truncated or
    /// reset), exposed as the `net.torn_frames_injected` metric.
    net_torn: AtomicU64,
    /// Count of bytes corrupted by `net_corrupt_byte_at`.
    net_corrupted: AtomicU64,
    /// Count of reads stalled by `net_stall_reads`.
    net_stalled: AtomicU64,
    /// Count of reads forced to EOF by `net_close_read_at`.
    net_closed: AtomicU64,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            io_ops: AtomicU64::new(0),
            net_conns: AtomicU64::new(0),
            net_torn: AtomicU64::new(0),
            net_corrupted: AtomicU64::new(0),
            net_stalled: AtomicU64::new(0),
            net_closed: AtomicU64::new(0),
        }
    }
}

/// Snapshot of the network-plane injection tallies, for metrics export
/// (`net.torn_frames_injected` and friends).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultStats {
    /// Connections wrapped so far (faulted or not).
    pub connections: u64,
    /// Writes torn (truncated or reset) by `net_tear_write_at`.
    pub torn_writes: u64,
    /// Bytes corrupted by `net_corrupt_byte_at`.
    pub corrupted_bytes: u64,
    /// Reads stalled by `net_stall_reads`.
    pub stalled_reads: u64,
    /// Reads forced to EOF by `net_close_read_at`.
    pub forced_closes: u64,
}

/// The zero-cost handle instrumented code carries (mirror of
/// [`hmmm_obs::RecorderHandle`]).
///
/// `Default` (and [`FaultHandle::noop`]) is the disabled state: every hook
/// is an inlined `Option::None` check. Cloning shares the underlying state
/// (the I/O ticket counter is global to the plan, not per clone).
#[derive(Clone, Default)]
pub struct FaultHandle {
    inner: Option<Arc<FaultState>>,
}

impl FaultHandle {
    /// The disabled handle: injects nothing, costs (almost) nothing.
    pub fn noop() -> Self {
        FaultHandle { inner: None }
    }

    /// An enabled handle driving the given plan.
    pub fn from_plan(plan: FaultPlan) -> Self {
        FaultHandle {
            inner: Some(Arc::new(FaultState::new(plan))),
        }
    }

    /// `true` when a plan is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The attached plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.inner.as_ref().map(|s| &s.plan)
    }

    /// Hook at the entry of one video's traversal. Panics (with a
    /// recognizable payload) when the plan schedules this video to fail —
    /// the per-video `catch_unwind` in the retrieval loop turns that into
    /// a `videos_failed` entry instead of a crashed query.
    #[inline]
    pub fn on_video_enter(&self, video: usize) {
        if let Some(state) = &self.inner {
            if state.plan.panics_on(video) {
                panic!("injected fault: panic on video {video}");
            }
        }
    }

    /// Hook before lattice step `step` of any video: stalls when the plan
    /// schedules latency there (exercises deadline expiry mid-traversal).
    #[inline]
    pub fn before_step(&self, step: usize) {
        if let Some(state) = &self.inner {
            if state.plan.latency_step == Some(step) && state.plan.latency_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(state.plan.latency_ns));
            }
        }
    }

    /// Hook before one filesystem operation (see
    /// [`hmmm_storage::IoFault`]): draws the next global ticket and fails
    /// with a transient `Interrupted` error when the plan schedules it.
    #[inline]
    pub fn next_io_error(&self, op: &'static str) -> Option<std::io::Error> {
        let state = self.inner.as_ref()?;
        if state.plan.io_error_on_ops.is_empty() {
            return None;
        }
        // ordering: Relaxed — the ticket is a uniqueness/sequence draw, not
        // a synchronization point; fetch_add is atomic at any ordering and
        // no other memory access depends on it. Registered in
        // RELAXED_ALLOWLIST (hmmm-analyze).
        let ticket = state.io_ops.fetch_add(1, Ordering::Relaxed);
        state.plan.io_error_on_ops.contains(&ticket).then(|| {
            std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("injected fault: io error on op {ticket} ({op})"),
            )
        })
    }

    /// Wrap a byte stream in the plan's network fault plane.
    ///
    /// Draws the next global connection ticket; the wrapper injects the
    /// plan's `net_*` faults only when that ticket is listed in
    /// [`FaultPlan::net_fault_connections`] — other streams (and every
    /// stream of a noop handle) pass bytes through untouched. The ticket
    /// draw is what makes retries safe to test against: a reconnect gets a
    /// fresh ticket, so a plan targeting ticket 0 breaks the first attempt
    /// and leaves the retry clean, deterministically.
    pub fn wrap_stream<S>(&self, stream: S) -> FaultyStream<S> {
        let faults = self.inner.as_ref().and_then(|state| {
            // ordering: Relaxed — the connection ticket is a sequence draw
            // used only to select which stream the plan targets; no other
            // memory access is ordered against it. Registered in
            // RELAXED_ALLOWLIST (hmmm-analyze) as an id/ticket source.
            let ticket = state.net_conns.fetch_add(1, Ordering::Relaxed);
            state
                .plan
                .net_fault_connections
                .contains(&ticket)
                .then(|| Arc::clone(state))
        });
        FaultyStream {
            inner: stream,
            faults,
            read_bytes: 0,
            read_ops: 0,
            written: 0,
            torn: false,
        }
    }

    /// Snapshot of the network-plane injection tallies.
    pub fn net_stats(&self) -> NetFaultStats {
        match &self.inner {
            None => NetFaultStats::default(),
            // ordering: Relaxed — the tallies are monotonic counters read
            // for reporting after the fact; no decision synchronizes on
            // them. Registered in RELAXED_ALLOWLIST (hmmm-analyze).
            Some(s) => NetFaultStats {
                connections: s.net_conns.load(Ordering::Relaxed),
                torn_writes: s.net_torn.load(Ordering::Relaxed),
                corrupted_bytes: s.net_corrupted.load(Ordering::Relaxed),
                stalled_reads: s.net_stalled.load(Ordering::Relaxed),
                forced_closes: s.net_closed.load(Ordering::Relaxed),
            },
        }
    }
}

/// A [`Read`](std::io::Read)/[`Write`](std::io::Write) wrapper that injects the plan's network faults into
/// one stream: torn writes at a byte offset, corrupted outbound bytes,
/// stalled reads, and forced mid-read EOF. Created by
/// [`FaultHandle::wrap_stream`]; a stream whose connection ticket the plan
/// does not target is a transparent passthrough.
///
/// All offsets are per-stream (bytes written / read through *this*
/// wrapper), so an injection site is a pure function of the plan and the
/// stream's own traffic — never of scheduling.
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    /// `Some` only when this stream's ticket is targeted by the plan.
    faults: Option<Arc<FaultState>>,
    read_bytes: u64,
    read_ops: u64,
    written: u64,
    /// Set once the tear offset is hit: every later write is refused.
    torn: bool,
}

impl<S> FaultyStream<S> {
    /// The wrapped stream (for shutdown/addr calls on a `TcpStream`).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// `true` when the plan targets this particular stream.
    pub fn is_faulted(&self) -> bool {
        self.faults.is_some()
    }
}

impl<S: std::io::Read> std::io::Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(state) = &self.faults {
            let op = self.read_ops;
            self.read_ops += 1;
            if state.plan.net_stall_reads.contains(&op) && state.plan.net_stall_ns > 0 {
                // ordering: Relaxed — monotonic injection tally, reporting
                // only. Registered in RELAXED_ALLOWLIST (hmmm-analyze).
                state.net_stalled.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_nanos(state.plan.net_stall_ns));
            }
            if let Some(at) = state.plan.net_close_read_at {
                if self.read_bytes >= at {
                    // ordering: Relaxed — monotonic injection tally,
                    // reporting only. Registered in RELAXED_ALLOWLIST
                    // (hmmm-analyze).
                    state.net_closed.fetch_add(1, Ordering::Relaxed);
                    return Ok(0); // the peer "vanished": clean EOF mid-frame
                }
                let room = (at - self.read_bytes).min(buf.len() as u64) as usize;
                let n = self.inner.read(&mut buf[..room])?;
                self.read_bytes += n as u64;
                return Ok(n);
            }
        }
        let n = self.inner.read(buf)?;
        self.read_bytes += n as u64;
        Ok(n)
    }
}

impl<S: std::io::Write> std::io::Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(state) = &self.faults {
            if self.torn {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected fault: write after torn frame",
                ));
            }
            if let Some(at) = state.plan.net_tear_write_at {
                let end = self.written + buf.len() as u64;
                if end > at {
                    // Truncate at the tear offset (possibly to zero bytes),
                    // then refuse everything after — a torn frame on the
                    // wire followed by a dead connection.
                    self.torn = true;
                    // ordering: Relaxed — monotonic injection tally,
                    // reporting only. Registered in RELAXED_ALLOWLIST
                    // (hmmm-analyze).
                    state.net_torn.fetch_add(1, Ordering::Relaxed);
                    let keep = (at - self.written) as usize;
                    if keep == 0 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::ConnectionReset,
                            "injected fault: torn write",
                        ));
                    }
                    self.inner.write_all(&buf[..keep])?;
                    self.written += keep as u64;
                    // Report the *full* buffer written so the caller moves
                    // on and the tear lands exactly once at the offset; the
                    // next write errors.
                    return Ok(buf.len());
                }
            }
            if let Some(at) = state.plan.net_corrupt_byte_at {
                if at >= self.written && at < self.written + buf.len() as u64 {
                    let mut patched = buf.to_vec();
                    patched[(at - self.written) as usize] ^= 0xFF;
                    // ordering: Relaxed — monotonic injection tally,
                    // reporting only. Registered in RELAXED_ALLOWLIST
                    // (hmmm-analyze).
                    state.net_corrupted.fetch_add(1, Ordering::Relaxed);
                    self.inner.write_all(&patched)?;
                    self.written += patched.len() as u64;
                    return Ok(buf.len());
                }
            }
        }
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The storage-facing face of the handle: lets `PersistOptions::fault`
/// thread a core [`FaultPlan`] into the atomic writer without storage
/// depending on core.
impl hmmm_storage::IoFault for FaultHandle {
    fn inject(&self, op: &'static str) -> Option<std::io::Error> {
        self.next_io_error(op)
    }
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("FaultHandle(noop)"),
            Some(s) => write!(f, "FaultHandle({:?})", s.plan),
        }
    }
}

/// Handles compare by state identity (like [`hmmm_obs::RecorderHandle`]):
/// two noops are equal, enabled handles only when they share state. Keeps
/// `PartialEq`/`Eq` derivable on configs embedding a handle.
impl PartialEq for FaultHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for FaultHandle {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_injects_nothing() {
        let h = FaultHandle::noop();
        assert!(!h.is_enabled());
        h.on_video_enter(0);
        h.before_step(3);
        assert!(h.next_io_error("write").is_none());
        assert_eq!(FaultHandle::default(), FaultHandle::noop());
    }

    #[test]
    fn explicit_video_list_panics() {
        let h = FaultHandle::from_plan(FaultPlan::panicking([2]));
        h.on_video_enter(0);
        h.on_video_enter(1);
        let err = std::panic::catch_unwind(|| h.on_video_enter(2)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault: panic on video 2"), "payload: {msg}");
    }

    #[test]
    fn panic_rate_is_deterministic_and_seeded() {
        let plan = FaultPlan {
            seed: 42,
            panic_rate: 0.5,
            ..FaultPlan::default()
        };
        let a: Vec<bool> = (0..64).map(|v| plan.panics_on(v)).collect();
        let b: Vec<bool> = (0..64).map(|v| plan.panics_on(v)).collect();
        assert_eq!(a, b, "same plan, same draws");
        assert!(a.iter().any(|&x| x), "rate 0.5 over 64 videos fires");
        assert!(a.iter().any(|&x| !x), "rate 0.5 over 64 videos spares");

        let reseeded = FaultPlan { seed: 43, ..plan };
        let c: Vec<bool> = (0..64).map(|v| reseeded.panics_on(v)).collect();
        assert_ne!(a, c, "different seed, different draws");
    }

    #[test]
    fn rate_extremes() {
        let never = FaultPlan::default();
        let always = FaultPlan {
            panic_rate: 1.0,
            ..FaultPlan::default()
        };
        for v in 0..32 {
            assert!(!never.panics_on(v));
            assert!(always.panics_on(v));
        }
    }

    #[test]
    fn io_tickets_fire_in_sequence() {
        let h = FaultHandle::from_plan(FaultPlan {
            io_error_on_ops: vec![1, 3],
            ..FaultPlan::default()
        });
        assert!(h.next_io_error("a").is_none()); // ticket 0
        let e = h.next_io_error("b").expect("ticket 1 fails");
        assert_eq!(e.kind(), std::io::ErrorKind::Interrupted);
        assert!(h.next_io_error("c").is_none()); // ticket 2
        assert!(h.next_io_error("d").is_some()); // ticket 3
        assert!(h.next_io_error("e").is_none()); // ticket 4
    }

    #[test]
    fn serde_round_trip_and_tolerant_parse() {
        let plan = FaultPlan {
            seed: 7,
            panic_on_videos: vec![1, 4],
            panic_rate: 0.25,
            io_error_on_ops: vec![0],
            latency_step: Some(2),
            latency_ns: 1_000,
            net_fault_connections: vec![0],
            net_tear_write_at: Some(10),
            net_corrupt_byte_at: None,
            net_stall_reads: vec![2],
            net_stall_ns: 500,
            net_close_read_at: Some(64),
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);

        // Terse CLI-style plans parse with defaults for absent fields.
        let terse: FaultPlan = serde_json::from_str(r#"{"panic_on_videos":[0,2]}"#).unwrap();
        assert_eq!(terse.panic_on_videos, vec![0, 2]);
        assert_eq!(terse.panic_rate, 0.0);
        assert!(terse.latency_step.is_none());

        // Unknown fields and out-of-range rates are rejected, not ignored.
        assert!(serde_json::from_str::<FaultPlan>(r#"{"panic_rates":[1]}"#).is_err());
        assert!(serde_json::from_str::<FaultPlan>(r#"{"panic_rate":1.5}"#).is_err());
    }

    #[test]
    fn empty_plan_detection() {
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::panicking([0]).is_empty());
        assert!(!FaultPlan {
            latency_step: Some(0),
            ..FaultPlan::default()
        }
        .is_empty());
        // A net fault needs both a target connection and a fault kind.
        let half = FaultPlan {
            net_fault_connections: vec![0],
            ..FaultPlan::default()
        };
        assert!(half.is_empty() && !half.has_net_faults());
        let full = FaultPlan {
            net_fault_connections: vec![0],
            net_tear_write_at: Some(4),
            ..FaultPlan::default()
        };
        assert!(!full.is_empty() && full.has_net_faults());
    }

    /// An in-memory duplex stand-in: reads drain a scripted inbox, writes
    /// append to an outbox we can inspect.
    struct Pipe {
        inbox: std::io::Cursor<Vec<u8>>,
        outbox: Vec<u8>,
    }

    impl std::io::Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            std::io::Read::read(&mut self.inbox, buf)
        }
    }

    impl std::io::Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.outbox.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn pipe(inbox: &[u8]) -> Pipe {
        Pipe {
            inbox: std::io::Cursor::new(inbox.to_vec()),
            outbox: Vec::new(),
        }
    }

    #[test]
    fn untargeted_stream_is_transparent() {
        use std::io::{Read, Write};
        let h = FaultHandle::from_plan(FaultPlan {
            net_fault_connections: vec![1], // ticket 1, not this one
            net_tear_write_at: Some(2),
            net_close_read_at: Some(2),
            ..FaultPlan::default()
        });
        let mut s = h.wrap_stream(pipe(b"hello"));
        assert!(!s.is_faulted());
        s.write_all(b"abcdef").unwrap();
        let mut got = String::new();
        s.read_to_string(&mut got).unwrap();
        assert_eq!(got, "hello");
        assert_eq!(s.get_ref().outbox, b"abcdef");
    }

    #[test]
    fn torn_write_truncates_then_resets() {
        use std::io::Write;
        let h = FaultHandle::from_plan(FaultPlan {
            net_fault_connections: vec![0],
            net_tear_write_at: Some(4),
            ..FaultPlan::default()
        });
        let mut s = h.wrap_stream(pipe(b""));
        assert!(s.is_faulted());
        s.write_all(b"ab").unwrap(); // fully before the tear
        s.write_all(b"cdef").unwrap(); // crosses it: only "cd" lands
        let err = s.write_all(b"gh").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(s.get_ref().outbox, b"abcd");
        assert_eq!(h.net_stats().torn_writes, 1);
    }

    #[test]
    fn corrupt_byte_flips_exactly_one_offset() {
        use std::io::Write;
        let h = FaultHandle::from_plan(FaultPlan {
            net_fault_connections: vec![0],
            net_corrupt_byte_at: Some(3),
            ..FaultPlan::default()
        });
        let mut s = h.wrap_stream(pipe(b""));
        s.write_all(b"\x01\x02\x03\x04\x05").unwrap();
        assert_eq!(s.get_ref().outbox, [0x01, 0x02, 0x03, 0x04 ^ 0xFF, 0x05]);
        assert_eq!(h.net_stats().corrupted_bytes, 1);
    }

    #[test]
    fn forced_close_eofs_mid_stream() {
        use std::io::Read;
        let h = FaultHandle::from_plan(FaultPlan {
            net_fault_connections: vec![0],
            net_close_read_at: Some(3),
            ..FaultPlan::default()
        });
        let mut s = h.wrap_stream(pipe(b"abcdef"));
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"abc", "EOF after exactly 3 inbound bytes");
        assert!(h.net_stats().forced_closes >= 1);
    }

    #[test]
    fn retry_connection_gets_clean_stream() {
        use std::io::Write;
        let h = FaultHandle::from_plan(FaultPlan {
            net_fault_connections: vec![0],
            net_tear_write_at: Some(0),
            ..FaultPlan::default()
        });
        let mut first = h.wrap_stream(pipe(b""));
        assert!(first.write_all(b"x").is_err(), "ticket 0 tears at byte 0");
        let mut retry = h.wrap_stream(pipe(b""));
        assert!(!retry.is_faulted());
        retry.write_all(b"x").unwrap();
        assert_eq!(h.net_stats().connections, 2);
    }
}
