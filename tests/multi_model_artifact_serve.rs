//! Multi-process multi-model deployment test: two `.qsnca` artifacts are
//! served by one `qsnc serve` child process under distinct model names,
//! v3 routed frames must reach the right engine bit-exactly, and an
//! admin-plane HTTP swap must replace one model mid-traffic without the
//! other noticing. This is the end-to-end contract the CI `artifact` job
//! enforces on top of the single-model leg in `artifact_serve.rs`.

// The tests that start `qsnc serve` and talk to it over a socket need the
// event-loop front end, which only exists on Linux x86-64/aarch64; elsewhere
// they are compiled out, and so are the helpers only they use.
#![cfg_attr(
    not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(dead_code, unused_imports)
)]

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use qsnc::core::{deploy_to_snc, QuantConfig};
use qsnc::memristor::{save_artifact, Provenance, SpikingNetwork};
use qsnc::nn::ModelKind;
use qsnc::quant::{insert_signal_stages, ActivationQuantizer, ActivationRegularizer};
use qsnc::serve::protocol::{self, Status};
use qsnc::tensor::{init, TensorRng};

const BITS: u32 = 4;
const WIDTH: f32 = 0.5;
const INPUT_DIMS: [usize; 3] = [1, 28, 28];
const INPUT_LEN: usize = 28 * 28;

/// Kills the serve child on scope exit so a failing assertion never
/// leaks a listener process into the test runner.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A deployed engine built exactly as `qsnc deploy` builds it; the seed
/// picks the (untrained) weights, so different seeds are distinguishable.
fn engine(seed: u64) -> SpikingNetwork {
    let mut rng = TensorRng::seed(seed);
    let mut net = qsnc::nn::models::build_model(ModelKind::Lenet, WIDTH, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(BITS),
        0.0,
        ActivationQuantizer::new(BITS),
    );
    switch.set_enabled(true);
    let snn = deploy_to_snc(&net, &QuantConfig::paper(BITS, BITS), None).expect("deploy");
    assert!(snn.has_fast_path(), "4/4-bit LeNet must compile the integer engine");
    snn
}

fn write_engine(snn: &SpikingNetwork, digest: u64, path: &Path) {
    let provenance = Provenance {
        checkpoint_digest: digest,
        weight_bits: BITS,
        activation_bits: BITS,
        model: ModelKind::Lenet.to_string(),
    };
    save_artifact(snn, &INPUT_DIMS, &provenance, path).expect("save artifact");
}

fn reference_bits(snn: &SpikingNetwork, input: &[f32]) -> Vec<u32> {
    let x = qsnc::tensor::Tensor::from_vec(input.to_vec(), [1, 1, 28, 28]);
    snn.infer_reference(&x).as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Spawns `qsnc serve` and parses the inference and admin addresses from
/// its `listening on ADDR` / `admin on ADDR` stdout lines.
fn spawn_serve(configure: impl FnOnce(&mut Command)) -> (KillOnDrop, SocketAddr, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qsnc"));
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--admin", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    configure(&mut cmd);
    let mut child = cmd.spawn().expect("spawn qsnc serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut child = KillOnDrop(child);
    let mut reader = BufReader::new(stdout);
    let mut parse = |prefix: &str| -> SocketAddr {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read serve stdout");
        match line.trim().strip_prefix(prefix) {
            Some(addr) => addr.parse().expect("parse address"),
            None => {
                let mut err = String::new();
                if let Some(mut stderr) = child.0.stderr.take() {
                    let _ = stderr.read_to_string(&mut err);
                }
                panic!("serve did not print {prefix:?}: {line:?}\nstderr: {err}");
            }
        }
    };
    let addr = parse("listening on ");
    let admin = parse("admin on ");
    (child, addr, admin)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
}

/// Issues one admin-plane HTTP request and returns the raw response.
fn http(addr: SocketAddr, request: &str) -> String {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("write request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

#[test]
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn two_artifacts_one_process_with_admin_hot_swap() {
    let dir = std::env::temp_dir().join(format!("qsnc_multi_artifact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let prod_artifact: PathBuf = dir.join("prod.qsnca");
    let canary_artifact: PathBuf = dir.join("canary.qsnca");
    let next_artifact: PathBuf = dir.join("canary_v2.qsnca");

    let prod = engine(1001);
    let canary = engine(2002);
    let next = engine(3003);
    write_engine(&prod, 0xA, &prod_artifact);
    write_engine(&canary, 0xB, &canary_artifact);
    write_engine(&next, 0xC, &next_artifact);

    let mut rng = TensorRng::seed(55);
    let input = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng).as_slice()[..INPUT_LEN].to_vec();
    let want_prod = reference_bits(&prod, &input);
    let want_canary = reference_bits(&canary, &input);
    let want_next = reference_bits(&next, &input);
    assert_ne!(want_prod, want_canary);
    assert_ne!(want_canary, want_next);

    let (child, addr, admin) = spawn_serve(|cmd| {
        cmd.arg("--artifact")
            .arg(format!("prod={}", prod_artifact.display()))
            .arg("--artifact")
            .arg(format!("canary={}", canary_artifact.display()));
    });

    // Both models answer on one connection, routed by id; id-less v1
    // frames keep reaching the default (first-registered) model.
    fn routed(stream: &mut TcpStream, tag: u32, model: u32, input: &[f32]) -> protocol::Reply {
        protocol::write_request_routed(stream, tag, model, input).expect("write");
        protocol::read_reply(stream).expect("reply")
    }
    let mut stream = connect(addr);
    for (tag, model, want) in
        [(1u32, 0u32, &want_prod), (2, 1, &want_canary), (3, 0, &want_prod)]
    {
        let reply = routed(&mut stream, tag, model, &input);
        assert_eq!(reply.status, Status::Ok, "model {model}: {}", reply.message);
        assert_eq!(reply.tag, Some(tag));
        let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
        assert_eq!(&got, want, "model {model} reached the wrong engine");
    }
    protocol::write_request(&mut stream, &input).expect("v1 write");
    let reply = protocol::read_reply(&mut stream).expect("v1 reply");
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want_prod, "v1 frames must reach the default model");

    // The admin plane lists both models with their artifact provenance.
    let listing = http(admin, "GET /models HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(listing.starts_with("HTTP/1.1 200"), "got {listing}");
    assert!(listing.contains("\"name\":\"prod\"") && listing.contains("\"name\":\"canary\""));
    assert!(listing.contains(&format!("{:016x}", 0xBu64)), "canary digest missing: {listing}");

    // Swap the canary mid-traffic through the admin plane while a client
    // hammers it with synchronous roundtrips: every reply must match one
    // of the two canary versions, none may be dropped, and prod must not
    // notice at all.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let stop = std::sync::Arc::clone(&stop);
        let (input, want_canary, want_next) =
            (input.clone(), want_canary.clone(), want_next.clone());
        std::thread::spawn(move || {
            let mut stream = connect(addr);
            let mut replies = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                protocol::write_request_routed(&mut stream, 9, 1, &input).expect("write");
                let reply = protocol::read_reply(&mut stream).expect("admitted request died");
                assert_eq!(reply.status, Status::Ok, "{}", reply.message);
                let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
                assert!(
                    got == want_canary || got == want_next,
                    "canary reply matches neither engine version"
                );
                replies += 1;
            }
            replies
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let swap = http(
        admin,
        &format!(
            "POST /models/swap?model=canary&artifact={} HTTP/1.1\r\n\
             Host: x\r\nConnection: close\r\n\r\n",
            next_artifact.display()
        ),
    );
    assert!(swap.starts_with("HTTP/1.1 200"), "got {swap}");
    assert!(swap.contains("\"new_version\":2") && swap.contains("\"drained\":true"));
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(hammer.join().expect("hammer thread") > 0);

    // Post-swap: canary serves the new engine, prod is untouched.
    let reply = routed(&mut stream, 20, 1, &input);
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want_next, "post-swap canary must serve the new artifact");
    let reply = routed(&mut stream, 21, 0, &input);
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want_prod, "prod must be untouched by the canary swap");
    drop(stream);
    drop(child);

    // The env fallback accepts the same NAME=PATH syntax, comma-separated.
    let (child, addr, _admin) = spawn_serve(|cmd| {
        cmd.env(
            "QSNC_SERVE_ARTIFACT",
            format!("prod={},canary={}", prod_artifact.display(), canary_artifact.display()),
        );
    });
    let mut stream = connect(addr);
    protocol::write_request_routed(&mut stream, 4, 1, &input).expect("write");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want_canary);
    drop(stream);
    drop(child);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_artifact_names_fail_loudly() {
    let dir = std::env::temp_dir().join(format!("qsnc_dup_artifact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let artifact = dir.join("m.qsnca");
    write_engine(&engine(7), 0, &artifact);
    let out = Command::new(env!("CARGO_BIN_EXE_qsnc"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .arg("--artifact")
        .arg(format!("m={}", artifact.display()))
        .arg("--artifact")
        .arg(format!("m={}", artifact.display()))
        .output()
        .expect("run qsnc serve");
    assert!(!out.status.success(), "duplicate model names must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("duplicate") || err.contains("m"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
