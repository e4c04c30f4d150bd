//! Wire-format edge cases and fault-path semantics of the TCP front-end:
//! the frames a well-behaved client never sends (zero-length patterns,
//! over-cap lengths, truncated headers), the exact-cap frame that *is*
//! legal, byte-identical rankings across the wire, mid-response
//! disconnects (surfaced, never auto-retried, clean on re-issue), the
//! seeded client retry path, and the drain notice to idle connections.

use hmmm_core::{BuildConfig, FaultHandle, FaultPlan};
use hmmm_features::FeatureVector;
use hmmm_media::EventKind;
use hmmm_obs::RecorderHandle;
use hmmm_serve::client::{NetClient, NetError, NetOutcome, RetryPolicy};
use hmmm_serve::net::{
    read_frame, write_frame, Frame, FrameError, NetConfig, NetServer, WireRequest, WireResponse,
    WireStatus, FRAME_REQUEST, FRAME_RESPONSE, FRAME_STATUS, HEADER_LEN, MAX_FRAME_LEN,
    PROTO_VERSION, STATUS_BAD_FRAME, STATUS_DRAINING, STATUS_OK, STATUS_REJECTED_INVALID,
};
use hmmm_serve::{ModelSnapshot, QueryRequest, QueryServer, ServerConfig};
use hmmm_storage::Catalog;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A small catalog with enough annotated events for every query to match
/// (same shape as the snapshot_semantics fixture).
fn fixture_catalog(videos: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for v in 0..videos {
        let mut shots = Vec::new();
        for s in 0..6 {
            let events = match (v + s) % 3 {
                0 => vec![EventKind::FreeKick],
                1 => vec![EventKind::Goal],
                _ => vec![],
            };
            let mut fv = [0.1_f64; hmmm_features::FEATURE_COUNT];
            fv[0] = (v as f64 + 1.0) / (videos as f64 + 1.0);
            fv[1] = (s as f64 + 1.0) / 7.0;
            shots.push((events, FeatureVector::from_slice(&fv).unwrap()));
        }
        catalog.add_video(format!("v{v}"), shots);
    }
    catalog
}

const PATTERN: &str = "free_kick -> goal";

/// A front-end over a fresh fixture server on an ephemeral port.
fn start_fixture(videos: usize, net: NetConfig) -> NetServer {
    let snapshot = ModelSnapshot::build(fixture_catalog(videos), &BuildConfig::default()).unwrap();
    let server = Arc::new(QueryServer::start(snapshot, ServerConfig::default()).unwrap());
    NetServer::start(server, "127.0.0.1:0", net).unwrap()
}

/// A raw protocol-level connection: poll-tick read timeout set so
/// [`read_frame`] can be used directly against the server.
fn raw_connect(net: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(net.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .unwrap();
    stream
}

fn send_request(stream: &mut TcpStream, pattern: &str, limit: usize) {
    let payload = serde_json::to_vec(&WireRequest {
        pattern: pattern.to_string(),
        limit,
        deadline_ms: None,
    })
    .unwrap();
    write_frame(stream, FRAME_REQUEST, &payload).unwrap();
}

fn read_reply(stream: &mut TcpStream) -> Frame {
    read_frame(
        stream,
        || false,
        Duration::from_secs(5),
        Some(Duration::from_secs(5)),
    )
    .unwrap()
}

fn parse_status(frame: &Frame) -> WireStatus {
    assert_eq!(frame.kind, FRAME_STATUS, "expected a status frame");
    serde_json::from_slice(&frame.payload).unwrap()
}

fn parse_response(frame: &Frame) -> WireResponse {
    assert_eq!(frame.kind, FRAME_RESPONSE, "expected a response frame");
    serde_json::from_slice(&frame.payload).unwrap()
}

#[test]
fn wire_rankings_match_in_process_byte_for_byte() {
    let net = start_fixture(5, NetConfig::default());
    let mut client = NetClient::connect(
        net.local_addr(),
        RetryPolicy::default(),
        FaultHandle::noop(),
        RecorderHandle::noop(),
    );
    let outcome = client.query(PATTERN, 4, None).unwrap();
    let wire = outcome.response().expect("valid pattern completes").clone();
    assert_eq!(wire.status, STATUS_OK);
    assert_eq!(wire.degraded, None);

    // The same query through the in-process API, on the same snapshot:
    // the JSON round trip must not perturb a single score bit.
    let translator =
        hmmm_query::QueryTranslator::new(EventKind::ALL.iter().map(|k| k.name()));
    let pattern = translator.compile(PATTERN).unwrap();
    let local = net.server().query(QueryRequest::new(pattern, 4));
    let local = local.response().expect("in-process query completes");
    assert_eq!(wire.epoch, local.epoch);
    assert!(!local.results.is_empty(), "fixture must produce candidates");
    assert_eq!(wire.results, local.results, "wire ranking diverged");

    net.shutdown();
}

#[test]
fn server_bound_to_the_unspecified_address_shuts_down() {
    // The acceptor blocks in accept(); shutdown must reach it through the
    // loopback of the bound family even though 0.0.0.0 is not connectable.
    let snapshot = ModelSnapshot::build(fixture_catalog(2), &BuildConfig::default()).unwrap();
    let server = Arc::new(QueryServer::start(snapshot, ServerConfig::default()).unwrap());
    let recorder = hmmm_obs::InMemoryRecorder::shared();
    let config = NetConfig {
        recorder: recorder.handle(),
        ..NetConfig::default()
    };
    let net = NetServer::start(server, "0.0.0.0:0", config).unwrap();
    assert!(net.local_addr().ip().is_unspecified());
    net.shutdown();
    // The wake-up connection was dropped unserved, not counted as accepted.
    assert_eq!(recorder.report().counter(hmmm_core::metrics::CTR_NET_ACCEPTED), 0);
}

#[test]
fn zero_length_pattern_is_rejected_invalid_and_connection_survives() {
    let net = start_fixture(3, NetConfig::default());
    let mut stream = raw_connect(&net);

    send_request(&mut stream, "", 3);
    let status = parse_status(&read_reply(&mut stream));
    assert_eq!(status.code, STATUS_REJECTED_INVALID, "{}", status.reason);

    // An invalid *request* is not a framing violation: the same
    // connection must still serve the next (valid) query.
    send_request(&mut stream, PATTERN, 3);
    let response = parse_response(&read_reply(&mut stream));
    assert_eq!(response.status, STATUS_OK);
    assert!(!response.results.is_empty());

    net.shutdown();
}

#[test]
fn exact_cap_frame_is_accepted_over_cap_is_refused_and_closed() {
    let net = start_fixture(2, NetConfig::default());

    // A payload of exactly MAX_FRAME_LEN bytes is legal: pad the pattern
    // text until the serialized request hits the cap on the nose. The
    // pattern itself is garbage, so the *frame* is accepted and the
    // *request* is rejected — the distinction under test.
    let mut stream = raw_connect(&net);
    let empty = serde_json::to_vec(&WireRequest {
        pattern: String::new(),
        limit: 1,
        deadline_ms: None,
    })
    .unwrap();
    let pad = MAX_FRAME_LEN as usize - empty.len();
    let payload = serde_json::to_vec(&WireRequest {
        pattern: "a".repeat(pad),
        limit: 1,
        deadline_ms: None,
    })
    .unwrap();
    assert_eq!(payload.len(), MAX_FRAME_LEN as usize, "pad math drifted");
    write_frame(&mut stream, FRAME_REQUEST, &payload).unwrap();
    let status = parse_status(&read_reply(&mut stream));
    assert_eq!(status.code, STATUS_REJECTED_INVALID, "{}", status.reason);

    // One byte over the cap: refused from the length prefix alone (no
    // payload is ever buffered), and the connection closes — framing
    // cannot be trusted past a protocol violation.
    let mut stream = raw_connect(&net);
    let mut header = [0u8; HEADER_LEN];
    header[0] = PROTO_VERSION;
    header[1] = FRAME_REQUEST;
    header[2..].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    stream.write_all(&header).unwrap();
    stream.flush().unwrap();
    let status = parse_status(&read_reply(&mut stream));
    assert_eq!(status.code, STATUS_BAD_FRAME, "{}", status.reason);
    match read_frame(&mut stream, || false, Duration::from_secs(2), Some(Duration::from_secs(2))) {
        Err(FrameError::Closed) => {}
        other => panic!("connection must close after a bad frame, got {other:?}"),
    }

    net.shutdown();
}

#[test]
fn truncated_length_prefix_leaves_server_healthy() {
    let net = start_fixture(2, NetConfig::default());

    // Half a header, then vanish: the server sees a torn frame and drops
    // that connection only.
    {
        let mut stream = raw_connect(&net);
        stream
            .write_all(&[PROTO_VERSION, FRAME_REQUEST, 9])
            .unwrap();
        stream.flush().unwrap();
    } // dropped here, mid-header

    // The next connection is served normally — nothing leaked, nothing
    // wedged.
    let mut stream = raw_connect(&net);
    send_request(&mut stream, PATTERN, 3);
    let response = parse_response(&read_reply(&mut stream));
    assert_eq!(response.status, STATUS_OK);

    net.shutdown();
}

#[test]
fn mid_response_disconnect_surfaces_and_reissue_succeeds() {
    // The server tears its first connection's response write 3 bytes in
    // (inside the frame header): the client has response bytes in hand
    // when the stream dies, so the failure must surface as MidResponse —
    // never an automatic retry — and a fresh query (new connection, new
    // fault ticket) must succeed.
    let net = start_fixture(3, NetConfig {
        fault: FaultHandle::from_plan(FaultPlan {
            net_fault_connections: vec![0],
            net_tear_write_at: Some(3),
            ..FaultPlan::default()
        }),
        ..NetConfig::default()
    });
    let mut client = NetClient::connect(
        net.local_addr(),
        RetryPolicy::default(),
        FaultHandle::noop(),
        RecorderHandle::noop(),
    );

    match client.query(PATTERN, 3, None) {
        Err(NetError::MidResponse(detail)) => {
            assert!(detail.contains("torn"), "unexpected detail: {detail}")
        }
        other => panic!("expected MidResponse, got {other:?}"),
    }
    let counters = client.counters();
    assert_eq!(counters.retries, 0, "mid-response failures are never retried");

    // The caller knows retrieval is idempotent, so it re-issues: ticket 1
    // is off-plan and the query completes.
    match client.query(PATTERN, 3, None) {
        Ok(NetOutcome::Response(r)) => assert_eq!(r.status, STATUS_OK),
        other => panic!("re-issue must succeed, got {other:?}"),
    }

    net.shutdown();
}

#[test]
fn client_side_torn_request_is_retried_to_success() {
    // The *client's* fault plane tears its first connection's request
    // write at byte 0: the server saw nothing it can act on, so the
    // attempt is retryable by construction, and the retry's fresh
    // connection (ticket 1) is deterministically clean.
    let net = start_fixture(3, NetConfig::default());
    let mut client = NetClient::connect(
        net.local_addr(),
        RetryPolicy {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..RetryPolicy::default()
        },
        FaultHandle::from_plan(FaultPlan {
            net_fault_connections: vec![0],
            net_tear_write_at: Some(0),
            ..FaultPlan::default()
        }),
        RecorderHandle::noop(),
    );

    let outcome = client.query(PATTERN, 3, None).unwrap();
    assert_eq!(outcome.response().expect("retry completes").status, STATUS_OK);
    let counters = client.counters();
    assert_eq!(counters.requests, 1);
    assert!(counters.retries >= 1, "the torn first attempt must retry");
    assert_eq!(counters.retry_successes, 1);
    assert_eq!(counters.give_ups, 0);

    net.shutdown();
}

#[test]
fn drain_sends_final_notice_to_idle_connections() {
    let net = start_fixture(2, NetConfig::default());

    // Establish the connection (one served request proves the handler
    // thread is up), then go idle.
    let mut stream = raw_connect(&net);
    send_request(&mut stream, PATTERN, 2);
    let response = parse_response(&read_reply(&mut stream));
    assert_eq!(response.status, STATUS_OK);

    // Graceful shutdown: when it returns, every connection thread has
    // been joined — the idle connection's farewell is already on the
    // wire.
    net.shutdown();

    let status = parse_status(&read_reply(&mut stream));
    assert_eq!(status.code, STATUS_DRAINING, "{}", status.reason);
    match read_frame(&mut stream, || false, Duration::from_secs(2), Some(Duration::from_secs(2))) {
        Err(FrameError::Closed) => {}
        other => panic!("drained connection must close, got {other:?}"),
    }
}
