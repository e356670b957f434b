//! Multi-process deployment-artifact test: `qsnc deploy` writes a
//! versioned `.qsnca` artifact in one process, a separate `qsnc serve`
//! process cold-starts from it (no training stack), and socket-level
//! replies must be bit-identical to the in-process engine that produced
//! the artifact. This is the end-to-end contract the CI `artifact` job
//! enforces.

// The tests that start `qsnc serve` and talk to it over a socket need the
// event-loop front end, which only exists on Linux x86-64/aarch64; elsewhere
// they are compiled out, and so are the helpers only they use.
#![cfg_attr(
    not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(dead_code, unused_imports)
)]

use std::io::{BufRead as _, BufReader, Read as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use qsnc::core::{deploy_to_snc, QuantConfig};
use qsnc::nn::{save_params, ModelKind};
use qsnc::quant::{insert_signal_stages, ActivationQuantizer, ActivationRegularizer};
use qsnc::serve::protocol::{self, Status};
use qsnc::tensor::{init, TensorRng};

const SEED: u64 = 4242;
const BITS: u32 = 4;
const WIDTH: f32 = 0.5;
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

/// The quantized LeNet topology exactly as the CLI builds it.
fn topology() -> qsnc::nn::Sequential {
    let mut rng = TensorRng::seed(SEED);
    let mut net = qsnc::nn::models::build_model(ModelKind::Lenet, WIDTH, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(BITS),
        0.0,
        ActivationQuantizer::new(BITS),
    );
    switch.set_enabled(true);
    net
}

/// Runs `qsnc deploy` against `checkpoint`, writing `artifact`.
fn run_deploy(checkpoint: &Path, artifact: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_qsnc"))
        .args([
            "deploy",
            "--model",
            "lenet",
            "--bits",
            "4",
            "--width",
            "0.5",
            "--seed",
            "4242",
            "--examples",
            "200",
            "--checkpoint",
        ])
        .arg(checkpoint)
        .arg("--artifact")
        .arg(artifact)
        .output()
        .expect("run qsnc deploy");
    assert!(
        out.status.success(),
        "deploy failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("artifact written"),
        "deploy did not confirm the artifact write"
    );
}

/// Spawns `qsnc serve` and parses the resolved ephemeral address from its
/// `listening on ADDR` stdout line.
fn spawn_serve(configure: impl FnOnce(&mut Command)) -> (KillOnDrop, std::net::SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_qsnc"));
    cmd.args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    configure(&mut cmd);
    let mut child = cmd.spawn().expect("spawn qsnc serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut child = KillOnDrop(child);
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read serve stdout");
    let addr = match line.trim().strip_prefix("listening on ") {
        Some(addr) => addr.parse().expect("parse listen address"),
        None => {
            let mut err = String::new();
            if let Some(mut stderr) = child.0.stderr.take() {
                let _ = stderr.read_to_string(&mut err);
            }
            panic!("serve did not announce its address: {line:?}\nstderr: {err}");
        }
    };
    (child, addr)
}

#[test]
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
fn served_artifact_replies_bit_identical_to_in_process_engine() {
    let dir = std::env::temp_dir().join(format!("qsnc_artifact_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let checkpoint: PathBuf = dir.join("model.qsnc");
    let artifact: PathBuf = dir.join("model.qsnca");

    // A checkpoint without training: compile cost and bit-identity do not
    // depend on the weight values, only the quantized topology.
    let mut net = topology();
    let file = std::fs::File::create(&checkpoint).expect("create checkpoint");
    save_params(&mut net, file).expect("save checkpoint");

    // Process 1: deploy + artifact write through the real CLI.
    run_deploy(&checkpoint, &artifact);

    // The artifact's provenance must digest the exact checkpoint bytes.
    let loaded = qsnc::memristor::load_artifact(&artifact).expect("load artifact in-process");
    let ckpt_bytes = std::fs::read(&checkpoint).expect("read checkpoint");
    assert_eq!(
        loaded.provenance.checkpoint_digest,
        qsnc::nn::checkpoint_digest(&ckpt_bytes),
        "artifact provenance does not digest the checkpoint it came from"
    );
    assert_eq!(loaded.provenance.model, ModelKind::Lenet.to_string());
    assert_eq!(loaded.input_dims, vec![1, 28, 28]);

    // In-process reference engine, compiled the same way `qsnc deploy`
    // compiles it.
    let snn = deploy_to_snc(&net, &QuantConfig::paper(BITS, BITS), None).expect("deploy");
    assert!(snn.has_fast_path(), "reference deploy must compile the integer engine");

    let mut rng = TensorRng::seed(99);
    let examples: Vec<_> = (0..4)
        .map(|_| init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng))
        .collect();
    let references: Vec<Vec<f32>> = examples
        .iter()
        .map(|x| {
            let mut out = Vec::new();
            assert!(snn.infer_batch_into(x, &mut out));
            out
        })
        .collect();

    // Process 2: serve from the artifact alone (`--artifact` flag).
    let (child, addr) = spawn_serve(|cmd| {
        cmd.arg("--artifact").arg(&artifact);
    });
    let mut stream = TcpStream::connect(addr).expect("connect to serve child");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    for (i, (x, reference)) in examples.iter().zip(&references).enumerate() {
        let input = &x.as_slice()[..INPUT_LEN];
        // Alternate v1 and tagged v2 frames: both protocol paths must
        // reach the same engine.
        let tag = (i % 2 == 1).then_some(0xA000 + i as u32);
        match tag {
            Some(tag) => protocol::write_request_tagged(&mut stream, tag, input).expect("write"),
            None => protocol::write_request(&mut stream, input).expect("write"),
        }
        let reply = protocol::read_reply(&mut stream).expect("read reply");
        assert_eq!(reply.status, Status::Ok, "serve error: {}", reply.message);
        assert_eq!(reply.tag, tag);
        assert_eq!(reply.logits.len(), reference.len());
        assert!(
            reply.logits.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits()),
            "served logits are not bit-identical to the in-process engine \
             (example {i}: {:?} vs {:?})",
            reply.logits,
            reference,
        );
        // Lowest index wins on ties, matching the server's argmax rule.
        let argmax = reference
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |best, (i, &v)| {
                if v > best.1 {
                    (i, v)
                } else {
                    best
                }
            })
            .0 as u32;
        assert_eq!(reply.argmax, argmax);
    }
    drop(stream);
    drop(child);

    // And once more through the QSNC_SERVE_ARTIFACT fallback — the
    // supervisor-facing configuration path must reach the same engine.
    let (child, addr) = spawn_serve(|cmd| {
        cmd.env("QSNC_SERVE_ARTIFACT", &artifact);
    });
    let mut stream = TcpStream::connect(addr).expect("connect to env-configured child");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let input = &examples[0].as_slice()[..INPUT_LEN];
    protocol::write_request(&mut stream, input).expect("write");
    let reply = protocol::read_reply(&mut stream).expect("read reply");
    assert_eq!(reply.status, Status::Ok, "serve error: {}", reply.message);
    assert!(reply.logits.iter().zip(&references[0]).all(|(a, b)| a.to_bits() == b.to_bits()));
    drop(child);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_without_artifact_fails_loudly() {
    let out = Command::new(env!("CARGO_BIN_EXE_qsnc"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env_remove("QSNC_SERVE_ARTIFACT")
        .output()
        .expect("run qsnc serve");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--artifact") && err.contains("QSNC_SERVE_ARTIFACT"),
        "error must name both configuration paths: {err}"
    );
}

#[test]
fn serve_rejects_corrupt_artifact_before_binding() {
    let dir = std::env::temp_dir().join(format!("qsnc_bad_artifact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bad = dir.join("bad.qsnca");
    std::fs::write(&bad, b"QSNAgarbage").expect("write bad artifact");
    let out = Command::new(env!("CARGO_BIN_EXE_qsnc"))
        .args(["serve", "--addr", "127.0.0.1:0", "--artifact"])
        .arg(&bad)
        .output()
        .expect("run qsnc serve");
    assert!(!out.status.success(), "serve must refuse a corrupt artifact");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot load artifact"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
