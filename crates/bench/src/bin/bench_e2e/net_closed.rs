//! `net_closed`: the Zipf soccer mix through `NetServer` on loopback, two
//! `NetClient` connections in a closed loop with no think time.
//!
//! It adds framing, JSON and syscalls to the same engine work as
//! `serve_open`; each `WireResponse` carries the server's queue and
//! service time, so the wire's share is subtracted per request.

use crate::fixture::{self, Fate, Mix, References, Scale, Served, LIMIT};
use crate::report::Outcome;
use crate::spans;
use crate::stats;
use hmmm_core::{FaultHandle, RecorderHandle};
use hmmm_serve::net::{read_frame, write_frame, FRAME_RESPONSE};
use hmmm_serve::{
    ClientCounters, NetClient, NetConfig, NetOutcome, NetServer, RetryPolicy, WireResponse,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop connections.
const CLIENTS: usize = 2;
/// Responses kept for the encode/decode replay.
const WIRE_SAMPLES: usize = 200;

fn client(addr: SocketAddr, seed: u64, recorder: &RecorderHandle) -> NetClient {
    let policy = RetryPolicy {
        seed,
        ..RetryPolicy::default()
    };
    NetClient::connect(addr, policy, FaultHandle::noop(), recorder.clone())
}

/// What one connection saw.
struct ClientRun {
    served: Vec<Served>,
    wire: Vec<WireResponse>,
    counters: ClientCounters,
}

fn run_client(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    recorder: &RecorderHandle,
    started: Instant,
    until: Instant,
) -> ClientRun {
    let mut conn = client(addr, fixture::sub_seed(seed, 1), recorder);
    let mut rng = StdRng::seed_from_u64(fixture::sub_seed(seed, 2));
    let mut served = Vec::new();
    let mut wire = Vec::new();
    let mut last_done = Instant::now();
    while last_done < until {
        let pattern = mix.sample(&mut rng);
        let sent_at = Instant::now();
        let result = conn.query(mix.text(pattern), LIMIT, None);
        last_done = Instant::now();
        let (sent, e2e) = (sent_at - started, last_done - sent_at);
        served.push(match result {
            Ok(NetOutcome::Response(r)) => {
                if wire.len() < WIRE_SAMPLES {
                    wire.push(r.clone());
                }
                Served {
                    pattern,
                    sent,
                    e2e_ns: e2e.as_nanos() as u64,
                    queue_ns: r.queue_ns,
                    service_ns: r.service_ns,
                    epoch: r.epoch,
                    fate: if r.degraded.is_some() {
                        Fate::Degraded
                    } else {
                        Fate::Exact
                    },
                    results: r.results,
                }
            }
            Ok(NetOutcome::Rejected(_)) => Served::failed(pattern, sent, e2e, Fate::Rejected),
            Err(_) => Served::failed(pattern, sent, e2e, Fate::GaveUp),
        });
    }
    ClientRun {
        served,
        wire,
        counters: conn.counters(),
    }
}

/// Runs the workload for one seed.
pub fn run(scale: &Scale, seed: u64, trace: bool) -> Result<Outcome, String> {
    let mix = Mix::soccer()?;
    let catalog = fixture::query_catalog(scale.videos, scale.shots, seed);
    let (recorder, handle) = fixture::recorder(trace);
    let (net, setup_s) = fixture::repeated_setup(
        fixture::SETUP_REPS,
        || catalog.clone(),
        |c| {
            let server = fixture::start_server(c, handle.clone())?;
            let config = NetConfig {
                recorder: handle.clone(),
                ..NetConfig::default()
            };
            let net = NetServer::start(Arc::new(server), "127.0.0.1:0", config)
                .map_err(|e| format!("binding loopback: {e}"))?;
            match client(net.local_addr(), seed, &handle).query(mix.text(0), LIMIT, None) {
                Ok(NetOutcome::Response(_)) => Ok(net),
                other => Err(format!("first wire query failed: {other:?}")),
            }
        },
    )?;
    if let Some(r) = &recorder {
        r.reset();
    }

    let started = Instant::now();
    let until = started + Duration::from_secs_f64(scale.seconds);
    let addr = net.local_addr();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (mix, handle) = (&mix, &handle);
                let client_seed = fixture::sub_seed(seed, 10 + c as u64);
                s.spawn(move || run_client(addr, mix, client_seed, handle, started, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net client panicked"))
            .collect()
    });
    let report = recorder.as_ref().map(|r| r.report());
    let live = net.server().snapshot();
    let retrieval = net.server().retrieval_config();
    net.shutdown();

    let served: Vec<Served> = runs.iter().flat_map(|r| r.served.iter().cloned()).collect();
    let mut outcome = Outcome::default();
    outcome.metrics.set("setup_s", setup_s);
    fixture::count_failures(&served, &mut outcome);
    fixture::latency_metrics(&served, until - started, &mut outcome)?;
    let mut refs = References::new(&live.catalog, &mix, retrieval);
    refs.check(&live.model, 0, &served, &mut outcome)?;
    let wire: Vec<&WireResponse> = runs.iter().flat_map(|r| &r.wire).collect();
    let codec = codec_replay(&wire, &mut outcome);

    if let Some(report) = report {
        fixture::server_layers(&served, &mut outcome);
        fixture::compile_layer(&mix, &mut outcome);
        refs.engine_counts(&served, &mut outcome);
        spans::engine_spans(&report).record(&mut outcome);
        let overhead = served
            .iter()
            .filter(|s| s.fate == Fate::Exact)
            .map(|s| stats::ms(s.e2e_ns.saturating_sub(s.queue_ns + s.service_ns)))
            .collect();
        let m = &mut outcome.metrics;
        m.set("net.overhead_ms_p50", stats::median(overhead));
        m.set("net.encode_us_p50", stats::median(codec.encode_us));
        m.set("net.decode_us_p50", stats::median(codec.decode_us));
        m.set("net.response_bytes_p50", stats::median(codec.bytes));
        let total =
            |f: fn(&ClientCounters) -> u64| runs.iter().map(|r| f(&r.counters)).sum::<u64>() as f64;
        m.set("net.retries", total(|c| c.retries));
        m.set("net.give_ups", total(|c| c.give_ups));
    }
    Ok(outcome)
}

/// Encode and decode times of real responses through the wire codec.
struct Codec {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    bytes: Vec<f64>,
}

/// Re-encodes sampled responses as the server does (`serde_json` +
/// `write_frame`) and decodes them as the client does (`read_frame` +
/// `serde_json`); a response that does not survive the round trip is a
/// correctness problem.
fn codec_replay(wire: &[&WireResponse], outcome: &mut Outcome) -> Codec {
    let mut codec = Codec {
        encode_us: Vec::new(),
        decode_us: Vec::new(),
        bytes: Vec::new(),
    };
    for &response in wire {
        let started = Instant::now();
        let payload = serde_json::to_vec(response).expect("responses serialize");
        let mut frame = Vec::with_capacity(payload.len() + 8);
        write_frame(&mut frame, FRAME_RESPONSE, &payload).expect("in-memory write");
        codec.encode_us.push(started.elapsed().as_secs_f64() * 1e6);
        codec.bytes.push(frame.len() as f64);

        let started = Instant::now();
        let mut cursor = std::io::Cursor::new(frame);
        let decoded = read_frame(&mut cursor, || false, Duration::from_secs(1), None)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                serde_json::from_slice::<WireResponse>(&f.payload).map_err(|e| e.to_string())
            });
        codec.decode_us.push(started.elapsed().as_secs_f64() * 1e6);
        if decoded.as_ref() != Ok(response) {
            outcome.problem(format!("wire round trip changed a response: {decoded:?}"));
        }
    }
    codec
}
