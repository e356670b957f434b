//! Live observability-plane tests: a real server with the admin endpoint
//! enabled is scraped over HTTP while real clients hammer the data port.
//!
//! Each test serializes on `qsnc_telemetry::testing::lock()` because the
//! admin plane reads (and `Server::spawn` may switch) the process-global
//! telemetry mode.
//!
//! The event-loop front end only exists on Linux x86-64/aarch64 (raw epoll
//! syscalls); elsewhere `Server::spawn` returns `Unsupported`, so the whole
//! file is gated.

#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_serve::protocol::{self, Status};
use qsnc_serve::{ServeConfig, Server};
use qsnc_telemetry::json::Json;
use qsnc_telemetry::Snapshot;
use qsnc_tensor::{Tensor, TensorRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const INPUT_DIMS: [usize; 3] = [1, 28, 28];

fn served_network(seed: u64) -> Arc<SpikingNetwork> {
    let mut rng = TensorRng::seed(seed);
    let mut net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    let snn = SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None).expect("compile");
    assert!(snn.has_fast_path(), "4/4-bit LeNet must take the integer engine");
    Arc::new(snn)
}

fn example(seed: u64) -> Vec<f32> {
    let mut rng = TensorRng::seed(seed);
    qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng)
        .as_slice()
        .to_vec()
}

fn admin_config() -> ServeConfig {
    ServeConfig {
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    }
}

/// One HTTP exchange against the admin endpoint; returns (status line, body).
fn http_exchange(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("admin connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request.as_bytes()).expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().unwrap_or("").to_string(), body.to_string())
}

fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
    http_exchange(addr, &format!("GET {target} HTTP/1.1\r\nHost: qsnc\r\n\r\n"))
}

/// The value of an unlabelled exposition sample line `name value`.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        rest.strip_prefix(' ')?.parse().ok()
    })
}

struct TelemetryGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl TelemetryGuard {
    fn recording() -> Self {
        let lock = qsnc_telemetry::testing::lock();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
        qsnc_telemetry::reset();
        TelemetryGuard { _lock: lock }
    }

    fn off() -> Self {
        let lock = qsnc_telemetry::testing::lock();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
        qsnc_telemetry::reset();
        TelemetryGuard { _lock: lock }
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        qsnc_telemetry::reset();
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
    }
}

#[test]
fn metrics_scrape_under_load_is_monotone_and_replies_stay_bit_identical() {
    let _guard = TelemetryGuard::recording();
    let snn = served_network(41);
    let server =
        Server::spawn(Arc::clone(&snn), &INPUT_DIMS, "127.0.0.1:0", admin_config()).expect("spawn");
    let admin = server.admin_local_addr().expect("admin plane is configured");

    const CLIENTS: u64 = 4;
    const SHOTS: u64 = 25;
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let snn = Arc::clone(&snn);
        let addr = server.local_addr();
        handles.push(std::thread::spawn(move || {
            let input = example(900 + client);
            let x = Tensor::from_vec(input.clone(), [1, 1, 28, 28]);
            let expected = snn.infer_reference(&x).as_slice().to_vec();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            for shot in 0..SHOTS {
                protocol::write_request(&mut stream, &input).expect("write");
                let reply = protocol::read_reply(&mut stream).expect("reply");
                assert_eq!(reply.status, Status::Ok, "client {client} shot {shot}");
                for (i, (got, want)) in reply.logits.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "scrape load perturbed client {client} shot {shot} logit {i}"
                    );
                }
            }
        }));
    }

    // Hammer /metrics while the data plane is busy: the request counter
    // must climb monotonically and every sample line must stay parseable.
    let mut last_requests = 0.0f64;
    for _ in 0..20 {
        let (status, body) = http_get(admin, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        for line in body.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line shape");
            value.parse::<f64>().unwrap_or_else(|_| panic!("bad sample {line:?}"));
        }
        if let Some(requests) = prom_value(&body, "qsnc_serve_requests_total") {
            assert!(
                requests >= last_requests,
                "counter went backwards: {requests} < {last_requests}"
            );
            last_requests = requests;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Quiescent scrape: exact totals and per-stage summaries.
    let (_, body) = http_get(admin, "/metrics");
    let total = (CLIENTS * SHOTS) as f64;
    assert_eq!(prom_value(&body, "qsnc_serve_requests_total"), Some(total), "{body}");
    for stage in ["decode", "queue", "infer", "encode"] {
        let family = format!("qsnc_serve_stage_{stage}_us");
        assert!(body.contains(&format!("# TYPE {family} summary")), "missing {family}");
        let count = prom_value(&body, &format!("{family}_count")).expect("stage count");
        assert!(count >= 1.0, "{family} never observed");
    }
    let count = prom_value(&body, "qsnc_serve_latency_us_count");
    assert_eq!(count, Some(total), "latency sketch must see every request");
    let q = |p: &str| {
        prom_value(&body, &format!("qsnc_serve_latency_us{{quantile=\"{p}\"}}"))
            .unwrap_or_else(|| panic!("missing latency quantile {p}"))
    };
    let (p50, p99) = (q("0.5"), q("0.99"));
    assert!(p50 > 0.0 && p50 <= p99, "implausible latency quantiles p50={p50} p99={p99}");

    server.shutdown();
}

#[test]
fn snapshot_round_trips_and_cursor_returns_windowed_deltas() {
    let _guard = TelemetryGuard::recording();
    let snn = served_network(43);
    let server =
        Server::spawn(Arc::clone(&snn), &INPUT_DIMS, "127.0.0.1:0", admin_config()).expect("spawn");
    let admin = server.admin_local_addr().expect("admin plane is configured");

    let run_traffic = |n: u64| {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let input = example(77);
        for _ in 0..n {
            protocol::write_request(&mut stream, &input).expect("write");
            let reply = protocol::read_reply(&mut stream).expect("reply");
            assert_eq!(reply.status, Status::Ok);
        }
    };

    run_traffic(5);

    // A mid-traffic /snapshot document must parse losslessly: the shape is
    // the same one deployment reports embed, quantile sketches included.
    let (status, body) = http_get(admin, "/snapshot");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let parsed = Snapshot::from_json(&body).expect("scraped snapshot parses");
    assert_eq!(parsed.counter("serve.requests"), Some(5));
    assert!(parsed.quantile_sketch("serve.latency_us").is_some(), "sketch lost in transit");
    assert_eq!(parsed.to_json().render(), body, "snapshot JSON does not round-trip");

    // First cursored scrape baselines; the second sees only the window.
    let (_, full) = http_get(admin, "/snapshot?cursor=t");
    let full = Snapshot::from_json(&full).expect("cursor baseline parses");
    assert_eq!(full.counter("serve.requests"), Some(5));

    run_traffic(3);

    let (_, delta) = http_get(admin, "/snapshot?cursor=t");
    let delta = Snapshot::from_json(&delta).expect("cursor delta parses");
    assert_eq!(delta.counter("serve.requests"), Some(3), "cursor window is wrong");
    let latency = delta.quantile_sketch("serve.latency_us").expect("windowed sketch");
    assert_eq!(latency.count, 3, "windowed sketch must only hold the delta");

    server.shutdown();
}

#[test]
fn slow_capture_traces_every_stage_of_delayed_requests() {
    let _guard = TelemetryGuard::recording();
    let snn = served_network(47);
    // slow_us = 0: every request qualifies as slow and must leave a trace.
    let config = ServeConfig { slow_us: Some(0), ..admin_config() };
    let server =
        Server::spawn(Arc::clone(&snn), &INPUT_DIMS, "127.0.0.1:0", config).expect("spawn");
    let admin = server.admin_local_addr().expect("admin plane is configured");

    const SHOTS: usize = 7;
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let input = example(99);
    for _ in 0..SHOTS {
        protocol::write_request(&mut stream, &input).expect("write");
        assert_eq!(protocol::read_reply(&mut stream).expect("reply").status, Status::Ok);
    }

    let (status, body) = http_get(admin, "/slow");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let events = Json::parse(&body).expect("valid JSON");
    let events = events.as_array().expect("array of events");
    let slow: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("label").and_then(Json::as_str) == Some("serve.slow"))
        .collect();
    assert_eq!(slow.len(), SHOTS, "every request must be traced: {body}");
    let mut seen_ids = std::collections::HashSet::new();
    for event in slow {
        let id = event.get("id").and_then(Json::as_f64).expect("request id") as u64;
        assert!(seen_ids.insert(id), "duplicate request id {id}");
        let fields = event.get("fields").expect("fields object");
        let field = |k: &str| {
            fields
                .get(k)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("trace missing {k}: {event:?}"))
        };
        let (decode, queue, infer, encode, total, batch) = (
            field("decode_us"),
            field("queue_us"),
            field("infer_us"),
            field("encode_us"),
            field("total_us"),
            field("batch"),
        );
        assert!(batch >= 1.0, "batch size in trace");
        // The queue + infer stages happen inside the admission→reply
        // window, so a complete trace can never show more stage time
        // than total time (decode happens before admission).
        assert!(
            total + 1.0 >= queue + infer,
            "inconsistent trace: total={total} queue={queue} infer={infer}"
        );
        assert!(decode >= 0.0 && encode >= 0.0);
    }

    server.shutdown();
}

#[test]
fn admin_speaks_enough_http() {
    let _guard = TelemetryGuard::recording();
    let snn = served_network(53);
    let server =
        Server::spawn(Arc::clone(&snn), &INPUT_DIMS, "127.0.0.1:0", admin_config()).expect("spawn");
    let admin = server.admin_local_addr().expect("admin plane is configured");

    let (status, body) = http_get(admin, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    let (status, _) = http_get(admin, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    let (status, _) =
        http_exchange(admin, "POST /metrics HTTP/1.1\r\nHost: qsnc\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");

    server.shutdown();
}

#[test]
fn stalled_scraper_does_not_delay_the_next_metrics_poll() {
    let _guard = TelemetryGuard::recording();
    let snn = served_network(67);
    let server =
        Server::spawn(Arc::clone(&snn), &INPUT_DIMS, "127.0.0.1:0", admin_config()).expect("spawn");
    let admin = server.admin_local_addr().expect("admin plane is configured");

    // Stalled scrapers: connections that send a partial request (or
    // nothing at all) and then just sit there. Before handler threads,
    // each of these held the single-threaded listener for the full
    // read-timeout, serializing every later poll behind it.
    let mut stallers = Vec::new();
    for _ in 0..3 {
        let mut stream = TcpStream::connect(admin).expect("staller connect");
        stream.write_all(b"GET /metrics HTTP/1.1\r\n").expect("partial request");
        stallers.push(stream); // held open, never finished
    }

    // A well-behaved scrape right behind them must answer promptly —
    // far sooner than even one staller's timeout, let alone three.
    let t0 = std::time::Instant::now();
    let (status, body) = http_get(admin, "/metrics");
    let elapsed = t0.elapsed();
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(!body.is_empty());
    assert!(
        elapsed < Duration::from_secs(1),
        "scrape stuck {elapsed:?} behind stalled connections"
    );

    // Cursored scrapes still work (cursor state is now shared across
    // handler threads) while the stallers are still parked.
    let (_, baseline) = http_get(admin, "/snapshot?cursor=stall");
    Snapshot::from_json(&baseline).expect("cursor baseline parses");
    let (_, delta) = http_get(admin, "/snapshot?cursor=stall");
    let delta = Snapshot::from_json(&delta).expect("cursor delta parses");
    assert_eq!(delta.counter("serve.requests"), None, "empty window has no serve.requests");

    drop(stallers);
    server.shutdown();
}

#[test]
fn spawn_with_admin_enables_recording() {
    let _guard = TelemetryGuard::off();
    let snn = served_network(59);
    let server =
        Server::spawn(Arc::clone(&snn), &INPUT_DIMS, "127.0.0.1:0", admin_config()).expect("spawn");
    assert!(
        qsnc_telemetry::enabled(),
        "an admin endpoint without telemetry would serve empty documents"
    );
    server.shutdown();
}

#[test]
fn telemetry_off_serves_without_recording_anything() {
    let _guard = TelemetryGuard::off();
    let snn = served_network(61);
    // No admin plane: spawn must leave the Off mode alone, and the whole
    // request path reduces to one relaxed atomic load per telemetry check
    // (`qsnc_telemetry::enabled()`) — nothing may be recorded anywhere.
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { slow_us: Some(0), ..ServeConfig::default() },
    )
    .expect("spawn");
    assert!(!qsnc_telemetry::enabled(), "spawn without admin must not flip the mode");
    assert!(server.admin_local_addr().is_none());

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let input = example(31);
    for _ in 0..4 {
        protocol::write_request(&mut stream, &input).expect("write");
        assert_eq!(protocol::read_reply(&mut stream).expect("reply").status, Status::Ok);
    }
    drop(stream);
    server.shutdown();

    let snap = qsnc_telemetry::snapshot();
    assert!(snap.is_empty(), "telemetry leaked while off: {:?}", snap.to_json().render());
    assert!(qsnc_telemetry::flight_events().is_empty(), "flight recorder leaked while off");
}
