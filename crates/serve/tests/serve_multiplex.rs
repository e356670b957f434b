//! Protocol-v2 multiplexing tests against the epoll event-loop front end.
//!
//! Every test drives real `TcpStream` clients that pipeline **tagged**
//! requests — many in flight on one connection — and then checks the three
//! properties the multiplexed path must never lose:
//!
//! 1. **Bit-identity**: each tagged reply, matched to its request by tag
//!    regardless of arrival order, carries logits bit-identical to the
//!    float oracle [`SpikingNetwork::infer_reference`].
//! 2. **Protocol discipline**: duplicate live tags, oversized frames mid
//!    pipeline, interleaved v1 frames, and half-closed peers get error
//!    replies or an orderly close — never a panicked loop thread.
//! 3. **Accounting**: the per-connection in-flight budget answers
//!    [`Status::Busy`] with the offending tag, and graceful drain answers
//!    every request it admitted before the listener went away.
//!
//! A test that needs several requests admitted at once encodes every frame
//! into one buffer and sends it with a single `write_all` of under 64 KiB,
//! so one dispatch round reads, admits and answers them all.
//!
//! The event-loop front end only exists on Linux x86-64/aarch64 (raw epoll
//! syscalls), so the whole file is gated.

#![cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_serve::protocol::{self, Status, MAGIC, OP_INFER, VERSION_V2};
use qsnc_serve::{ServeConfig, Server};
use qsnc_tensor::{Tensor, TensorRng};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const INPUT_DIMS: [usize; 3] = [1, 28, 28];

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

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|v| v.to_bits()).collect()
}

/// Encodes tagged v2 frames into one buffer, for a single `write_all`.
fn tagged_frames<'a>(frames: impl IntoIterator<Item = (u32, &'a [f32])>) -> Vec<u8> {
    let mut wire = Vec::new();
    for (tag, input) in frames {
        protocol::write_request_tagged(&mut wire, tag, input).expect("encode");
    }
    assert!(wire.len() < 64 * 1024, "one write must fit one dispatch round");
    wire
}

/// Reads replies until the server closes the connection.
fn read_until_eof(stream: &mut TcpStream) -> Vec<protocol::Reply> {
    let mut replies = Vec::new();
    while let Ok(reply) = protocol::read_reply(stream) {
        replies.push(reply);
    }
    replies
}

/// The core multiplexing proof: one connection pipelines many tagged
/// requests with distinct inputs, each runs in a batch of one, and every
/// reply — matched purely by tag — must be bit-identical to the reference.
#[test]
fn pipelined_tagged_replies_are_bit_identical_in_any_order() {
    let snn = served_network(41);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 1, max_inflight_per_conn: 64, ..ServeConfig::default() },
    )
    .expect("spawn");

    const SHOTS: u32 = 24;
    let inputs: Vec<Vec<f32>> = (0..SHOTS).map(|i| example(4100 + i as u64)).collect();
    let mut stream = connect(&server);
    for (tag, input) in inputs.iter().enumerate() {
        protocol::write_request_tagged(&mut stream, tag as u32, input).expect("write");
    }

    let mut seen: HashMap<u32, protocol::Reply> = HashMap::new();
    for _ in 0..SHOTS {
        let reply = protocol::read_reply(&mut stream).expect("reply");
        assert_eq!(reply.status, Status::Ok, "tag {:?}: {}", reply.tag, reply.message);
        let tag = reply.tag.expect("v2 requests must get tagged replies");
        assert!(seen.insert(tag, reply).is_none(), "tag {tag} answered twice");
    }
    for (tag, input) in inputs.iter().enumerate() {
        let reply = &seen[&(tag as u32)];
        let expected = reference_logits(&snn, input);
        assert_eq!(bits(&reply.logits), bits(&expected), "tag {tag}");
        let want_argmax = expected
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv { (i, v) } else { (bi, bv) }
            })
            .0;
        assert_eq!(reply.argmax as usize, want_argmax, "tag {tag}");
    }
    drop(stream);
    server.shutdown();
}

/// Two event loops, each owning one of two connections and running that
/// connection's requests itself: both connections pipeline 64 tags at
/// once, and every tag on each must get exactly one reply, bit-identical
/// to the reference.
#[test]
fn two_loops_answer_every_tag_once() {
    let snn = served_network(47);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { loops: 2, max_batch: 8, max_inflight_per_conn: 64, ..ServeConfig::default() },
    )
    .expect("spawn");

    const SHOTS: u32 = 64;
    let clients: Vec<_> = (0..2u64)
        .map(|client| {
            let snn = Arc::clone(&snn);
            let mut stream = connect(&server);
            std::thread::spawn(move || {
                let inputs: Vec<Vec<f32>> =
                    (0..SHOTS).map(|i| example(4700 + 100 * client + u64::from(i))).collect();
                for (tag, input) in inputs.iter().enumerate() {
                    protocol::write_request_tagged(&mut stream, tag as u32, input).expect("write");
                }
                let mut seen: HashMap<u32, protocol::Reply> = HashMap::new();
                for _ in 0..SHOTS {
                    let reply = protocol::read_reply(&mut stream).expect("reply");
                    assert_eq!(reply.status, Status::Ok, "tag {:?}: {}", reply.tag, reply.message);
                    let tag = reply.tag.expect("v2 requests must get tagged replies");
                    assert!(tag < SHOTS, "unknown tag {tag}");
                    assert!(seen.insert(tag, reply).is_none(), "tag {tag} answered twice");
                }
                for (tag, input) in inputs.iter().enumerate() {
                    let expected = reference_logits(&snn, input);
                    assert_eq!(bits(&seen[&(tag as u32)].logits), bits(&expected), "tag {tag}");
                }
                // Nothing beyond the one reply per tag may follow.
                stream.shutdown(std::net::Shutdown::Write).expect("half-close");
                assert!(
                    read_until_eof(&mut stream).is_empty(),
                    "extra replies after every tag was answered"
                );
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    server.shutdown();
}

/// A tag may not be live twice on one connection: the second use is
/// answered [`Status::BadRequest`] (carrying the tag), the first still
/// completes, and once it has replied the tag is free for reuse.
#[test]
fn duplicate_live_tag_is_rejected_then_reusable() {
    let snn = served_network(43);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 32, ..ServeConfig::default() },
    )
    .expect("spawn");

    let input = example(4300);
    let mut stream = connect(&server);
    // Both frames arrive in one write, so the loop admits the first and
    // parses the duplicate while the first is still pending.
    stream.write_all(&tagged_frames([(9, &input[..]), (9, &input[..])])).expect("write");

    // The duplicate bounces at parse time; the original is answered when
    // its batch runs at the end of the round.
    let first = protocol::read_reply(&mut stream).expect("reply 1");
    assert_eq!(first.status, Status::BadRequest, "{}", first.message);
    assert_eq!(first.tag, Some(9));
    assert!(first.message.contains("tag"), "got {:?}", first.message);
    let second = protocol::read_reply(&mut stream).expect("reply 2");
    assert_eq!(second.status, Status::Ok, "{}", second.message);
    assert_eq!(second.tag, Some(9));
    assert_eq!(bits(&second.logits), bits(&reference_logits(&snn, &input)));

    // The tag is dead now — reusing it is fine.
    protocol::write_request_tagged(&mut stream, 9, &input).expect("reuse");
    let third = protocol::read_reply(&mut stream).expect("reply 3");
    assert_eq!(third.status, Status::Ok, "{}", third.message);
    assert_eq!(third.tag, Some(9));
    drop(stream);
    server.shutdown();
}

/// v1 and v2 frames interleave on one connection: untagged frames keep
/// their lockstep FIFO identity (replies arrive in request order) while a
/// tagged frame between them pipelines freely.
#[test]
fn v1_and_v2_frames_interleave_on_one_connection() {
    let snn = served_network(47);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .expect("spawn");

    let a = example(4701);
    let b = example(4702);
    let c = example(4703);
    let mut stream = connect(&server);
    protocol::write_request(&mut stream, &a).expect("v1 a");
    protocol::write_request_tagged(&mut stream, 3, &b).expect("v2 b");
    protocol::write_request(&mut stream, &c).expect("v1 c");

    let mut untagged = Vec::new();
    let mut tagged = Vec::new();
    for _ in 0..3 {
        let reply = protocol::read_reply(&mut stream).expect("reply");
        assert_eq!(reply.status, Status::Ok, "{}", reply.message);
        match reply.tag {
            None => untagged.push(reply),
            Some(tag) => {
                assert_eq!(tag, 3);
                tagged.push(reply);
            }
        }
    }
    // Untagged replies are the only way a v1 client can match answers to
    // requests, so their order is the request order: a before c.
    assert_eq!(untagged.len(), 2);
    assert_eq!(tagged.len(), 1);
    assert_eq!(bits(&untagged[0].logits), bits(&reference_logits(&snn, &a)));
    assert_eq!(bits(&untagged[1].logits), bits(&reference_logits(&snn, &c)));
    assert_eq!(bits(&tagged[0].logits), bits(&reference_logits(&snn, &b)));
    drop(stream);
    server.shutdown();
}

/// An oversized declared payload arriving mid-pipeline is unframeable: the
/// server must still answer every request admitted before it, send one
/// [`Status::BadRequest`] **tagged with the offending request's tag** (a
/// bare drop would leave the client unable to tell which pipelined request
/// died), and close — without panicking a loop.
#[test]
fn oversized_tagged_frame_mid_pipeline_errors_and_closes() {
    let snn = served_network(53);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 32, ..ServeConfig::default() },
    )
    .expect("spawn");

    let mut stream = connect(&server);
    let inputs: Vec<Vec<f32>> = (0..3).map(|i| example(5300 + i)).collect();
    let mut wire =
        tagged_frames(inputs.iter().enumerate().map(|(tag, input)| (tag as u32, &input[..])));
    // A v2 header declaring a payload over the frame cap, in the same write.
    wire.extend_from_slice(&MAGIC.to_le_bytes());
    wire.push(VERSION_V2);
    wire.push(OP_INFER);
    wire.extend_from_slice(&77u32.to_le_bytes()); // tag
    wire.extend_from_slice(&u32::MAX.to_le_bytes()); // declared length
    stream.write_all(&wire).expect("pipeline + poison frame");

    let replies = read_until_eof(&mut stream);
    assert_eq!(replies.len(), 4, "3 admitted replies + 1 fatal error");
    let fatal: Vec<_> = replies.iter().filter(|r| r.status == Status::BadRequest).collect();
    assert_eq!(fatal.len(), 1);
    assert!(fatal[0].message.contains("cap"), "got {:?}", fatal[0].message);
    assert_eq!(
        fatal[0].tag,
        Some(77),
        "the rejection must be attributed to the oversized frame's tag"
    );
    let mut ok_tags: Vec<u32> = replies
        .iter()
        .filter(|r| r.status == Status::Ok)
        .map(|r| r.tag.expect("tagged"))
        .collect();
    ok_tags.sort_unstable();
    assert_eq!(ok_tags, vec![0, 1, 2], "every admitted request must still be answered");
    for reply in replies.iter().filter(|r| r.status == Status::Ok) {
        let input = &inputs[reply.tag.unwrap() as usize];
        assert_eq!(bits(&reply.logits), bits(&reference_logits(&snn, input)));
    }
    drop(stream);
    server.shutdown();
}

/// A client that half-closes (shutdown-for-write) with replies pending
/// must still receive all of them before the server closes its side.
#[test]
fn half_close_with_replies_pending_still_answers_all() {
    let snn = served_network(59);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 32, ..ServeConfig::default() },
    )
    .expect("spawn");

    let mut stream = connect(&server);
    let inputs: Vec<Vec<f32>> = (0..5).map(|i| example(5900 + i)).collect();
    let wire =
        tagged_frames(inputs.iter().enumerate().map(|(tag, input)| (tag as u32, &input[..])));
    stream.write_all(&wire).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half close");

    let replies = read_until_eof(&mut stream);
    assert_eq!(replies.len(), 5, "every pending reply must arrive after half-close");
    let mut tags: Vec<u32> = Vec::new();
    for reply in &replies {
        assert_eq!(reply.status, Status::Ok, "{}", reply.message);
        let tag = reply.tag.expect("tagged");
        tags.push(tag);
        assert_eq!(bits(&reply.logits), bits(&reference_logits(&snn, &inputs[tag as usize])));
    }
    tags.sort_unstable();
    assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    drop(stream);
    server.shutdown();
}

/// The per-connection in-flight budget sheds load with tagged
/// [`Status::Busy`] replies — and those bounce back *before* the earlier
/// admitted requests complete, which is exactly the out-of-order delivery
/// the tag field exists for. All eight frames arrive in one write, so the
/// first two are still pending when the rest are parsed.
#[test]
fn inflight_budget_answers_busy_with_the_offending_tag() {
    let snn = served_network(61);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_inflight_per_conn: 2, max_batch: 32, ..ServeConfig::default() },
    )
    .expect("spawn");

    let input = example(6100);
    let mut stream = connect(&server);
    stream.write_all(&tagged_frames((0..8u32).map(|tag| (tag, &input[..])))).expect("write");

    let mut order = Vec::new();
    for _ in 0..8 {
        let reply = protocol::read_reply(&mut stream).expect("reply");
        order.push((reply.tag.expect("tagged"), reply.status));
    }
    let busy: Vec<u32> =
        order.iter().filter(|(_, s)| *s == Status::Busy).map(|(t, _)| *t).collect();
    let ok: Vec<u32> = order.iter().filter(|(_, s)| *s == Status::Ok).map(|(t, _)| *t).collect();
    assert_eq!(ok, vec![0, 1], "the first two requests fill the budget");
    assert_eq!(busy, vec![2, 3, 4, 5, 6, 7], "the rest bounce with their tags");
    // Out-of-order on the wire: the Busy for tag 7 (sent last) must arrive
    // before the Ok for tag 0 (sent first).
    let pos = |tag: u32| order.iter().position(|(t, _)| *t == tag).unwrap();
    assert!(pos(7) < pos(0), "Busy replies overtake pending work: {order:?}");

    // Load shedding, not failure: the same connection still works.
    protocol::write_request_tagged(&mut stream, 99, &input).expect("after shed");
    let reply = protocol::read_reply(&mut stream).expect("reply");
    assert_eq!(reply.status, Status::Ok, "{}", reply.message);
    assert_eq!(reply.tag, Some(99));
    drop(stream);
    server.shutdown();
}

/// Graceful drain answers every tagged request admitted before shutdown,
/// then closes the connection.
#[test]
fn drain_answers_every_admitted_tagged_request() {
    let snn = served_network(67);
    let server = Server::spawn(
        Arc::clone(&snn),
        &INPUT_DIMS,
        "127.0.0.1:0",
        ServeConfig { max_batch: 32, ..ServeConfig::default() },
    )
    .expect("spawn");

    let inputs: Vec<Vec<f32>> = (0..6).map(|i| example(6700 + i)).collect();
    let mut stream = connect(&server);
    let wire =
        tagged_frames(inputs.iter().enumerate().map(|(tag, input)| (tag as u32, &input[..])));
    stream.write_all(&wire).expect("write");

    // One reply proves the round that read the write has run: every frame
    // in it was admitted then. Drain while the rest are still unread.
    let mut replies = vec![protocol::read_reply(&mut stream).expect("first reply")];
    server.shutdown();
    replies.extend(read_until_eof(&mut stream));
    assert_eq!(replies.len(), 6, "drain must answer every admitted request");
    let mut tags: Vec<u32> = Vec::new();
    for reply in &replies {
        assert_eq!(reply.status, Status::Ok, "{}", reply.message);
        let tag = reply.tag.expect("tagged");
        tags.push(tag);
        let expected = reference_logits(&snn, &inputs[tag as usize]);
        assert_eq!(bits(&reply.logits), bits(&expected), "tag {tag}");
    }
    tags.sort_unstable();
    assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
}
