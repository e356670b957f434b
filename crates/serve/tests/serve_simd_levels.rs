//! Served replies must not depend on the SIMD level the engine dispatches.
//!
//! The event-loop threads that run inference live inside the server, so
//! the process-wide [`qsnc_tensor::set_simd_level`] cap is the only knob
//! that reaches them (thread-local `with_simd_level` scopes deliberately
//! do not propagate across threads). Serving the same requests with the kernels pinned to
//! scalar and again at full hardware dispatch must produce bit-identical
//! logits — the serving-layer restatement of the kernel proptests.
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
use qsnc_tensor::{set_simd_level, SimdLevel, TensorRng};
use std::net::TcpStream;
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
    assert!(snn.has_fast_path());
    Arc::new(snn)
}

fn example(seed: u64) -> Vec<f32> {
    let mut rng = TensorRng::seed(seed);
    qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng)
        .as_slice()
        .to_vec()
}

/// Serves `shots` requests under the given process-wide SIMD cap and
/// returns the logits of every reply, in request order.
fn serve_round(snn: &Arc<SpikingNetwork>, cap: Option<SimdLevel>, shots: u64) -> Vec<Vec<f32>> {
    set_simd_level(cap);
    let server = Server::spawn(
        Arc::clone(snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 4, ..ServeConfig::default() },
    )
    .expect("spawn");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut replies = Vec::new();
    for shot in 0..shots {
        let input = example(4000 + shot);
        protocol::write_request(&mut stream, &input).expect("write");
        let reply = protocol::read_reply(&mut stream).expect("reply");
        assert_eq!(reply.status, Status::Ok);
        replies.push(reply.logits);
    }
    drop(stream);
    server.shutdown();
    set_simd_level(None);
    replies
}

#[test]
fn served_logits_bit_identical_with_simd_forced_off_and_on() {
    let snn = served_network(31);
    let scalar = serve_round(&snn, Some(SimdLevel::Scalar), 6);
    let full = serve_round(&snn, None, 6);
    assert_eq!(scalar.len(), full.len());
    for (shot, (a, b)) in scalar.iter().zip(full.iter()).enumerate() {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "shot {shot} logit {i}: scalar {x} vs simd {y}"
            );
        }
    }
}
