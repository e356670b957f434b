//! End-to-end tests of the batched TCP serving layer.
//!
//! A real deployable LeNet (4-bit signals / 4-bit weights, the paper's
//! flagship configuration) is served over an ephemeral port and hit by
//! real `TcpStream` clients. The float oracle
//! [`SpikingNetwork::infer_reference`] is the ground truth: every
//! well-formed reply must be **bit-identical** to it regardless of how
//! the event loop grouped the requests into batches. Hostile clients —
//! garbage frames, oversized declarations, wrong payload sizes,
//! mid-request disconnects — must get error replies (or a dropped
//! connection), never a panicked loop.
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
use qsnc_serve::protocol::{self, Status, MAGIC, OP_INFER, VERSION, VERSION_V2};
use qsnc_serve::{ServeConfig, Server};
use qsnc_tensor::{Tensor, TensorRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const INPUT_DIMS: [usize; 3] = [1, 28, 28];
const INPUT_LEN: usize = 28 * 28;

/// A compiled 4/4-bit LeNet with the integer fast path available.
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

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

fn roundtrip(stream: &mut TcpStream, input: &[f32]) -> protocol::Reply {
    protocol::write_request(stream, input).expect("write request");
    protocol::read_reply(stream).expect("read reply")
}

#[test]
fn replies_bit_identical_to_reference_under_concurrency() {
    let snn = served_network(2024);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 4, ..ServeConfig::default() },
    )
    .expect("spawn");

    // 6 concurrent clients × 4 sequential requests: the event loop runs
    // every batch size from 1 to max_batch depending on arrival timing, and
    // the answer must not depend on which one it picked.
    let mut handles = Vec::new();
    for client in 0..6u64 {
        let snn = Arc::clone(&snn);
        let addr = server.local_addr();
        handles.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            for shot in 0..4u64 {
                let input = example(1000 + client * 37 + shot);
                let expected = reference_logits(&snn, &input);
                let reply = {
                    protocol::write_request(&mut stream, &input).expect("write");
                    protocol::read_reply(&mut stream).expect("reply")
                };
                assert_eq!(reply.status, Status::Ok, "client {client} shot {shot}");
                assert_eq!(reply.logits.len(), expected.len());
                for (i, (got, want)) in reply.logits.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "client {client} shot {shot} logit {i}: {got} vs reference {want}"
                    );
                }
                // The argmax ties break to the lowest index, same as
                // Tensor::argmax over the reference logits.
                let want_argmax = expected
                    .iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv { (i, v) } else { (bi, bv) }
                    })
                    .0;
                assert_eq!(reply.argmax as usize, want_argmax);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn sequential_singles_are_bit_identical_too() {
    // Forced batch-of-1 path: one client, synchronous request/reply.
    let snn = served_network(7);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 8, ..ServeConfig::default() },
    )
    .expect("spawn");
    let mut stream = connect(&server);
    for shot in 0..3u64 {
        let input = example(9000 + shot);
        let expected = reference_logits(&snn, &input);
        let reply = roundtrip(&mut stream, &input);
        assert_eq!(reply.status, Status::Ok);
        let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "shot {shot}");
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn malformed_frames_get_error_replies_not_panics() {
    let snn = served_network(11);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");

    // Wrong payload length: framed correctly, so the connection survives
    // and the very next request on it succeeds.
    let mut stream = connect(&server);
    protocol::write_request(&mut stream, &[1.0, 2.0, 3.0]).expect("short request");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::BadRequest);
    assert!(reply.message.contains("expects"), "got {:?}", reply.message);
    let good = example(501);
    let reply = roundtrip(&mut stream, &good);
    assert_eq!(reply.status, Status::Ok, "connection must survive a Bad frame");

    // Unknown opcode: also recoverable.
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.push(VERSION);
    frame.push(77); // not OP_INFER
    frame.extend_from_slice(&4u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 4]);
    stream.write_all(&frame).expect("opcode frame");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::BadRequest);
    assert!(reply.message.contains("opcode"), "got {:?}", reply.message);
    assert_eq!(roundtrip(&mut stream, &good).status, Status::Ok);
    drop(stream);

    // Garbage magic: unresyncable, so the server replies and hangs up.
    let mut stream = connect(&server);
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("garbage");
    let reply = protocol::read_reply(&mut stream).expect("reply before close");
    assert_eq!(reply.status, Status::BadRequest);
    assert!(reply.message.contains("magic"), "got {:?}", reply.message);
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0, "connection must close");
    drop(stream);

    // Oversized declared payload: rejected without reading it.
    let mut stream = connect(&server);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.push(VERSION);
    frame.push(OP_INFER);
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&frame).expect("oversized header");
    let reply = protocol::read_reply(&mut stream).expect("reply before close");
    assert_eq!(reply.status, Status::BadRequest);
    assert!(reply.message.contains("cap"), "got {:?}", reply.message);
    drop(stream);

    // After all that abuse a fresh client still gets correct answers.
    let mut stream = connect(&server);
    let expected = reference_logits(&snn, &good);
    let reply = roundtrip(&mut stream, &good);
    assert_eq!(reply.status, Status::Ok);
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
    drop(stream);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_does_not_kill_the_server() {
    let snn = served_network(13);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");

    // Half a header, then vanish.
    let stream = connect(&server);
    (&stream).write_all(&MAGIC.to_le_bytes()[..2]).expect("partial header");
    drop(stream);

    // A full header promising a payload that never comes, then vanish.
    let mut stream = connect(&server);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.push(VERSION);
    frame.push(OP_INFER);
    frame.extend_from_slice(&((4 * INPUT_LEN) as u32).to_le_bytes());
    frame.extend_from_slice(&[0u8; 16]); // 16 of the 3136 promised bytes
    stream.write_all(&frame).expect("partial payload");
    drop(stream);

    // The server shrugs and keeps answering.
    let input = example(77);
    let expected = reference_logits(&snn, &input);
    let mut stream = connect(&server);
    let reply = roundtrip(&mut stream, &input);
    assert_eq!(reply.status, Status::Ok);
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
    drop(stream);
    server.shutdown();
}

/// A flood of v1 lockstep clients on a server with no quota and no tight
/// connection cap: each client has one request in flight, under the
/// per-connection budget, and no other tier can shed, so every flood reply
/// is `Ok` (Busy would mean a tier fired that this configuration lacks).
#[test]
fn overload_answers_ok_or_busy_and_recovers() {
    let snn = served_network(17);
    // Batches of at most two, so the flood runs many engine calls.
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 2, ..ServeConfig::default() },
    )
    .expect("spawn");

    let mut handles = Vec::new();
    for client in 0..8u64 {
        let addr = server.local_addr();
        handles.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let input = example(300 + client);
            let mut oks = 0usize;
            for _ in 0..5 {
                protocol::write_request(&mut stream, &input).expect("write");
                let reply = protocol::read_reply(&mut stream).expect("reply");
                assert_eq!(reply.status, Status::Ok, "no tier can shed a lockstep flood here");
                oks += 1;
            }
            oks
        }));
    }
    let total_ok: usize = handles.into_iter().map(|h| h.join().expect("client thread")).sum();
    assert_eq!(total_ok, 40, "every flood request must be answered Ok");

    // After the flood a fresh client gets a bit-exact answer.
    let input = example(999);
    let expected = reference_logits(&snn, &input);
    let mut stream = connect(&server);
    let reply = roundtrip(&mut stream, &input);
    assert_eq!(reply.status, Status::Ok);
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
    drop(stream);
    server.shutdown();
}

/// The connection-cap tier: with `max_conns: 2` on one loop, two held
/// connections are served, a third is refused with a connection-limit
/// Busy, and once a held connection closes a new one is served again,
/// bit-exact.
#[test]
fn connection_cap_refuses_busy_then_admits_after_a_close() {
    let snn = served_network(29);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_conns: 2, loops: 1, ..ServeConfig::default() },
    )
    .expect("spawn");
    let input = example(41);
    let want: Vec<u32> = reference_logits(&snn, &input).iter().map(|v| v.to_bits()).collect();

    // A reply on each proves both connections are registered with the loop.
    let mut held_a = connect(&server);
    let mut held_b = connect(&server);
    assert_eq!(roundtrip(&mut held_a, &input).status, Status::Ok);
    assert_eq!(roundtrip(&mut held_b, &input).status, Status::Ok);

    // The refusal is written on accept, before any request: read it
    // without writing, so no request races the server's close.
    let mut refused = connect(&server);
    let reply = protocol::read_reply(&mut refused).expect("refusal reply");
    assert_eq!(reply.status, Status::Busy);
    assert!(reply.message.contains("connection limit"), "got {:?}", reply.message);

    // The slot frees once the loop reads held_a's EOF; until then a new
    // connection is still refused (or reset), so retry within a deadline.
    drop(held_a);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let reply = loop {
        let mut stream = connect(&server);
        let attempt = protocol::write_request(&mut stream, &input)
            .and_then(|()| protocol::read_reply(&mut stream));
        match attempt {
            Ok(reply) if reply.status == Status::Ok => break reply,
            Ok(reply) => {
                assert_eq!(reply.status, Status::Busy, "only Busy may precede the slot freeing")
            }
            Err(_) => {} // refused and closed before the request landed
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the closed connection's slot never freed"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let got: Vec<u32> = reply.logits.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
    assert_eq!(roundtrip(&mut held_b, &input).status, Status::Ok);
    drop(held_b);
    server.shutdown();
}

#[test]
fn shutdown_drains_and_then_refuses() {
    let snn = served_network(19);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");
    let addr = server.local_addr();

    // An answered request, then a clean shutdown.
    let input = example(5);
    let mut stream = connect(&server);
    assert_eq!(roundtrip(&mut stream, &input).status, Status::Ok);
    server.shutdown();

    // The port no longer serves: either the connect fails outright or the
    // socket is dead (no listener left to answer).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let _ = protocol::write_request(&mut late, &input);
            // A reply must be non-Ok; a closed-without-reply error is also
            // acceptable.
            if let Ok(reply) = protocol::read_reply(&mut late) {
                assert_ne!(reply.status, Status::Ok);
            }
        }
    }
}

#[test]
fn idle_server_drops_cleanly() {
    // Shutdown with open-but-idle connections must not hang on the
    // blocking reads.
    let snn = served_network(23);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");
    let _idle_a = connect(&server);
    let _idle_b = connect(&server);
    std::thread::sleep(Duration::from_millis(50));
    drop(server); // Drop runs the same drain as shutdown()
}

/// Regression: an oversized declared payload length must produce a
/// [`Status::BadRequest`] reply attributed to the offending frame — tagged
/// on a v2 frame, untagged on v1 — followed by a real close (EOF), not a
/// connection left open. Before the fix the rejection was always untagged,
/// so a multiplexed client could not tell which pipelined request died.
#[test]
fn oversized_declaration_replies_before_close() {
    let server =
        Server::spawn(served_network(31), &INPUT_DIMS, "127.0.0.1:0", ServeConfig::default())
            .expect("spawn");
    for tag in [None, Some(0xCAFE_F00Du32)] {
        let mut stream = connect(&server);
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(if tag.is_some() { VERSION_V2 } else { VERSION });
        frame.push(OP_INFER);
        if let Some(t) = tag {
            frame.extend_from_slice(&t.to_le_bytes());
        }
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&frame).expect("oversized header");
        let reply = protocol::read_reply(&mut stream).expect("reply before close");
        assert_eq!(reply.status, Status::BadRequest, "tag {tag:?}");
        assert_eq!(reply.tag, tag, "reply must echo the frame's tag");
        assert!(reply.message.contains("cap"), "got {:?}", reply.message);
        // The stream cannot be resynchronized: the server must close it. A
        // read timeout here is a failure — the connection was left open.
        let mut probe = [0u8; 1];
        let n = stream.read(&mut probe).expect("EOF, not a read timeout");
        assert_eq!(n, 0, "tag {tag:?}: connection must close after the reply");
    }
    server.shutdown();
}
