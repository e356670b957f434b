//! Multi-model routing and hot-swap tests at the socket level.
//!
//! One server process holds several compiled engines; v3 routed frames
//! pick one by id, v1/v2 frames fall through to the default model, and a
//! hot swap under sustained load must never drop an admitted request —
//! every `Ok` reply is bit-identical to exactly one of the two engine
//! versions, and once the swap returns a fresh connection sees only the
//! new one.
//!
//! The event-loop front end only exists on Linux x86-64/aarch64 (raw epoll
//! syscalls); elsewhere `Server::spawn` returns `Unsupported`, so the whole
//! file is gated.

#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use qsnc_memristor::{DeployConfig, Provenance, SpikingNetwork};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_serve::protocol::{self, Status};
use qsnc_serve::{ModelSpec, ServeConfig, Server};
use qsnc_tensor::{Tensor, TensorRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const INPUT_DIMS: [usize; 3] = [1, 28, 28];

/// A compiled 4/4-bit LeNet; different seeds give different weights and
/// therefore distinguishable logits.
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
    let config = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path(), "4/4-bit LeNet must take the integer engine");
    Arc::new(snn)
}

fn example(seed: u64) -> Vec<f32> {
    let mut rng = TensorRng::seed(seed);
    qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng)
        .as_slice()
        .to_vec()
}

fn reference_logits(snn: &SpikingNetwork, input: &[f32]) -> Vec<f32> {
    let x = Tensor::from_vec(input.to_vec(), [1, 1, 28, 28]);
    snn.infer_reference(&x).as_slice().to_vec()
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
}

fn temp_artifact(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qsnc_multi_model_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn save_engine(snn: &SpikingNetwork, input_dims: &[usize], digest: u64, path: &PathBuf) {
    let provenance = Provenance {
        checkpoint_digest: digest,
        weight_bits: 4,
        activation_bits: 4,
        model: "lenet".to_string(),
    };
    qsnc_memristor::save_artifact(snn, input_dims, &provenance, path).expect("save artifact");
}

#[test]
fn routed_frames_reach_their_model_and_idless_frames_reach_the_default() {
    let prod = served_network(2024);
    let canary = served_network(5150);
    let server = Server::spawn_models(
        vec![
            ModelSpec::new("prod", Arc::clone(&prod), INPUT_DIMS.to_vec()),
            ModelSpec::new("canary", Arc::clone(&canary), INPUT_DIMS.to_vec()),
        ],
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");

    let input = example(314);
    let want_prod = bits(&reference_logits(&prod, &input));
    let want_canary = bits(&reference_logits(&canary, &input));
    assert_ne!(want_prod, want_canary, "the two engines must be distinguishable");

    let mut stream = connect(&server);
    // v3 routed to each model explicitly, interleaved on one connection.
    for (tag, model, want) in
        [(7u32, 0u32, &want_prod), (8, 1, &want_canary), (9, 0, &want_prod), (10, 1, &want_canary)]
    {
        protocol::write_request_routed(&mut stream, tag, model, &input).expect("write");
        let reply = protocol::read_reply(&mut stream).expect("reply");
        assert_eq!(reply.status, Status::Ok, "model {model}: {}", reply.message);
        assert_eq!(reply.tag, Some(tag));
        assert_eq!(bits(&reply.logits), *want, "model {model} routed to the wrong engine");
    }
    // Untagged v1 and tagged v2 frames keep hitting the default model.
    protocol::write_request(&mut stream, &input).expect("v1 write");
    assert_eq!(bits(&protocol::read_reply(&mut stream).expect("v1 reply").logits), want_prod);
    protocol::write_request_tagged(&mut stream, 77, &input).expect("v2 write");
    let reply = protocol::read_reply(&mut stream).expect("v2 reply");
    assert_eq!(reply.tag, Some(77));
    assert_eq!(bits(&reply.logits), want_prod);
    drop(stream);
    server.shutdown();
}

#[test]
fn unknown_model_id_gets_a_tagged_error_and_the_connection_survives() {
    let prod = served_network(2024);
    let server = Server::spawn_models(
        vec![ModelSpec::new("prod", Arc::clone(&prod), INPUT_DIMS.to_vec())],
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");

    let input = example(1);
    let mut stream = connect(&server);
    protocol::write_request_routed(&mut stream, 0xBEEF, 9, &input).expect("write");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::UnknownModel);
    assert_eq!(reply.tag, Some(0xBEEF), "the error must be attributed to the routed frame");
    assert!(reply.message.contains('9'), "message must name the id: {:?}", reply.message);

    // The frame was well-formed, so the stream stays framed and usable.
    protocol::write_request_routed(&mut stream, 5, 0, &input).expect("write after error");
    let reply = protocol::read_reply(&mut stream).expect("reply after error");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(bits(&reply.logits), bits(&reference_logits(&prod, &input)));
    drop(stream);
    server.shutdown();
}

#[test]
fn duplicate_and_invalid_registry_names_are_rejected() {
    let snn = served_network(3);
    let dup = Server::spawn_models(
        vec![
            ModelSpec::new("prod", Arc::clone(&snn), INPUT_DIMS.to_vec()),
            ModelSpec::new("prod", Arc::clone(&snn), INPUT_DIMS.to_vec()),
        ],
        "127.0.0.1:0",
        ServeConfig::default(),
    );
    let err = dup.expect_err("duplicate names must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("prod"), "error must name the duplicate: {err}");

    let bad = Server::spawn_models(
        vec![ModelSpec::new("no spaces", Arc::clone(&snn), INPUT_DIMS.to_vec())],
        "127.0.0.1:0",
        ServeConfig::default(),
    );
    assert_eq!(bad.expect_err("bad name").kind(), std::io::ErrorKind::InvalidInput);

    let empty = Server::spawn_models(Vec::new(), "127.0.0.1:0", ServeConfig::default());
    assert_eq!(empty.expect_err("empty registry").kind(), std::io::ErrorKind::InvalidInput);
}

#[test]
fn frames_for_two_models_in_one_write_each_get_their_own_model() {
    let prod = served_network(2024);
    let canary = served_network(5150);
    let server = Server::spawn_models(
        vec![
            ModelSpec::new("prod", Arc::clone(&prod), INPUT_DIMS.to_vec()),
            ModelSpec::new("canary", Arc::clone(&canary), INPUT_DIMS.to_vec()),
        ],
        "127.0.0.1:0",
        ServeConfig { max_batch: 4, ..ServeConfig::default() },
    )
    .expect("spawn");

    // Eight frames alternating between the models, in one write: one round
    // admits them all, and each model's requests must batch on that
    // model's engine only.
    let inputs: Vec<Vec<f32>> = (0..8).map(|i| example(800 + i)).collect();
    let mut wire = Vec::new();
    for (tag, input) in inputs.iter().enumerate() {
        let (tag, model) = (tag as u32, tag as u32 % 2);
        protocol::write_request_routed(&mut wire, tag, model, input).expect("encode");
    }
    assert!(wire.len() < 64 * 1024);
    let mut stream = connect(&server);
    stream.write_all(&wire).expect("write");

    let mut answered = [false; 8];
    for _ in 0..inputs.len() {
        let reply = protocol::read_reply(&mut stream).expect("reply");
        assert_eq!(reply.status, Status::Ok, "{}", reply.message);
        let tag = reply.tag.expect("tagged") as usize;
        assert!(!std::mem::replace(&mut answered[tag], true), "tag {tag} answered twice");
        let engine = [&prod, &canary][tag % 2];
        assert_eq!(
            bits(&reply.logits),
            bits(&reference_logits(engine, &inputs[tag])),
            "tag {tag} answered by the wrong model"
        );
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn per_model_quota_answers_busy_and_recovers() {
    let snn = served_network(17);
    let server = Server::spawn_models(
        vec![ModelSpec::new("prod", Arc::clone(&snn), INPUT_DIMS.to_vec()).with_quota(1)],
        "127.0.0.1:0",
        ServeConfig { max_batch: 8, ..ServeConfig::default() },
    )
    .expect("spawn");

    // Two tagged frames in one write against quota 1: the first is
    // admitted and holds its lease until its batch runs at the end of the
    // round, so the second, parsed meanwhile, must bounce.
    let input = example(42);
    let mut wire = Vec::new();
    protocol::write_request_tagged(&mut wire, 10, &input).expect("encode");
    protocol::write_request_tagged(&mut wire, 11, &input).expect("encode");
    let mut stream = connect(&server);
    stream.write_all(&wire).expect("write");

    let reply = protocol::read_reply(&mut stream).expect("shed reply");
    assert_eq!(reply.status, Status::Busy, "quota 1 must shed the second request");
    assert_eq!(reply.tag, Some(11));
    assert!(reply.message.contains("quota"), "got {:?}", reply.message);

    // The admitted request completes normally...
    let reply = protocol::read_reply(&mut stream).expect("admitted reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(reply.tag, Some(10));
    assert_eq!(bits(&reply.logits), bits(&reference_logits(&snn, &input)));
    // ...and once its lease is back a retry gets through.
    protocol::write_request_tagged(&mut stream, 12, &input).expect("retry");
    let reply = protocol::read_reply(&mut stream).expect("retry reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    drop(stream);
    server.shutdown();
}

#[test]
fn hot_swap_under_load_is_bit_exact_and_drops_nothing() {
    let engine_a = served_network(2024);
    let engine_b = served_network(4242);
    let artifact = temp_artifact("swap_target.qsnca");
    save_engine(&engine_b, &INPUT_DIMS, 0xB0B, &artifact);

    let server = Server::spawn_models(
        vec![ModelSpec::new("prod", Arc::clone(&engine_a), INPUT_DIMS.to_vec())],
        "127.0.0.1:0",
        ServeConfig { max_batch: 4, ..ServeConfig::default() },
    )
    .expect("spawn");

    let input = example(7);
    let want_a = bits(&reference_logits(&engine_a, &input));
    let want_b = bits(&reference_logits(&engine_b, &input));
    assert_ne!(want_a, want_b);

    // Sustained load: synchronous request/reply loops, so any dropped
    // admitted request surfaces as a read failure here.
    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for client in 0..4u32 {
        let stop = Arc::clone(&stop);
        let addr = server.local_addr();
        let input = input.clone();
        let (want_a, want_b) = (want_a.clone(), want_b.clone());
        hammers.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut replies = 0usize;
            let mut saw = [false, false]; // [old version, new version]
            while !stop.load(Ordering::Relaxed) {
                protocol::write_request_tagged(&mut stream, client, &input).expect("write");
                let reply = protocol::read_reply(&mut stream).expect("an admitted request died");
                assert_eq!(reply.status, Status::Ok, "{}", reply.message);
                let got = bits(&reply.logits);
                if got == want_a {
                    saw[0] = true;
                } else if got == want_b {
                    saw[1] = true;
                } else {
                    panic!("client {client}: reply matches neither engine version");
                }
                replies += 1;
            }
            (replies, saw)
        }));
    }

    // Swap mid-traffic. The call must drain the old version before
    // returning, so `drained` is a hard assertion, not best-effort.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.swap_artifact("prod", &artifact).expect("swap");
    assert_eq!(report.model, "prod");
    assert_eq!(report.model_id, 0);
    assert_eq!(report.old_version, 1);
    assert_eq!(report.new_version, 2);
    assert_eq!(report.new_digest, 0xB0B);
    assert!(report.drained, "swap must drain the old engine before returning");
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);

    let mut total = 0usize;
    let mut saw_old = false;
    for h in hammers {
        let (replies, saw) = h.join().expect("hammer thread");
        assert!(replies > 0, "every client must have gotten replies");
        total += replies;
        saw_old |= saw[0];
    }
    assert!(total > 0);
    assert!(saw_old, "pre-swap traffic must have hit the old engine");

    // After the swap has returned, a fresh connection sees only v2.
    let mut stream = connect(&server);
    protocol::write_request(&mut stream, &input).expect("write");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(bits(&reply.logits), want_b, "post-swap replies must come from the new engine");
    drop(stream);

    // The registry reflects the new version and provenance.
    let models = server.models();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].version, 2);
    assert_eq!(models[0].swaps, 1);
    assert_eq!(models[0].checkpoint_digest, 0xB0B);
    server.shutdown();
}

#[test]
fn swap_rejects_dims_mismatch_and_unknown_model() {
    let snn = served_network(23);
    let flat = temp_artifact("flat_dims.qsnca");
    // Same engine, but declared with flattened input dims: a swap must
    // refuse to change the request contract out from under clients.
    save_engine(&snn, &[28 * 28], 0, &flat);
    let good = temp_artifact("good_dims.qsnca");
    save_engine(&snn, &INPUT_DIMS, 0, &good);

    let server = Server::spawn_models(
        vec![ModelSpec::new("prod", Arc::clone(&snn), INPUT_DIMS.to_vec())],
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");

    let err = server.swap_artifact("prod", &flat).expect_err("dims mismatch must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("dims"), "error must explain the mismatch: {err}");

    let err = server.swap_artifact("nope", &good).expect_err("unknown model must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);

    // The failed swaps changed nothing: still version 1, still serving.
    assert_eq!(server.models()[0].version, 1);
    let input = example(99);
    let mut stream = connect(&server);
    protocol::write_request(&mut stream, &input).expect("write");
    assert_eq!(protocol::read_reply(&mut stream).expect("reply").status, Status::Ok);
    drop(stream);
    server.shutdown();
}

/// Issues one admin-plane HTTP request and returns the raw response.
fn http(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(request.as_bytes()).expect("write request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

#[test]
fn admin_lists_models_and_swaps_over_http() {
    let engine_a = served_network(29);
    let engine_b = served_network(31);
    let artifact = temp_artifact("admin_swap.qsnca");
    save_engine(&engine_b, &INPUT_DIMS, 0xADC, &artifact);

    let server = Server::spawn_models(
        vec![
            ModelSpec::new("prod", Arc::clone(&engine_a), INPUT_DIMS.to_vec()),
            ModelSpec::new("canary", Arc::clone(&engine_a), INPUT_DIMS.to_vec()).with_quota(16),
        ],
        "127.0.0.1:0",
        ServeConfig { admin_addr: Some("127.0.0.1:0".to_string()), ..ServeConfig::default() },
    )
    .expect("spawn");
    let admin = server.admin_local_addr().expect("admin plane enabled");

    let listing = http(admin, "GET /models HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(listing.starts_with("HTTP/1.1 200"), "got {listing}");
    assert!(listing.contains("\"name\":\"prod\"") && listing.contains("\"name\":\"canary\""));
    assert!(listing.contains("\"version\":1"));
    assert!(listing.contains("\"quota\":16"));

    // The swap route is the admin plane's one mutating endpoint: POST only.
    let rejected = http(
        admin,
        "GET /models/swap?model=prod&artifact=x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(rejected.starts_with("HTTP/1.1 405"), "got {rejected}");
    let rejected = http(admin, "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(rejected.starts_with("HTTP/1.1 405"), "got {rejected}");

    let swap = http(
        admin,
        &format!(
            "POST /models/swap?model=canary&artifact={} HTTP/1.1\r\n\
             Host: x\r\nConnection: close\r\n\r\n",
            artifact.display()
        ),
    );
    assert!(swap.starts_with("HTTP/1.1 200"), "got {swap}");
    assert!(swap.contains("\"new_version\":2") && swap.contains("\"drained\":true"));

    let missing = http(
        admin,
        &format!(
            "POST /models/swap?model=ghost&artifact={} HTTP/1.1\r\n\
             Host: x\r\nConnection: close\r\n\r\n",
            artifact.display()
        ),
    );
    assert!(missing.starts_with("HTTP/1.1 404"), "got {missing}");

    // The swap through HTTP is visible on the inference plane.
    let input = example(5);
    let mut stream = connect(&server);
    protocol::write_request_routed(&mut stream, 1, 1, &input).expect("write");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(bits(&reply.logits), bits(&reference_logits(&engine_b, &input)));
    drop(stream);
    server.shutdown();
}
