//! Length-prefixed binary wire protocol, versions 1, 2 and 3.
//!
//! **Version 1** — one request in flight per connection, untagged frames:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   = 0x434E5351 ("QSNC" as little-endian bytes)
//! 4       1     version = 1
//! 5       1     request: op (0 = infer) / reply: status code
//! 6       4     payload length in bytes, little-endian
//! 10      len   payload
//! ```
//!
//! **Version 2** — connection multiplexing: every frame carries a 32-bit
//! request **tag** chosen by the client, many requests may be in flight on
//! one connection, and replies return tagged — possibly out of order. The
//! reply to the request tagged `t` is the reply frame tagged `t`,
//! whatever order the server finishes in:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   = 0x434E5351
//! 4       1     version = 2
//! 5       1     request: op (0 = infer) / reply: status code
//! 6       4     tag, little-endian (echoed verbatim in the reply)
//! 10      4     payload length in bytes, little-endian
//! 14      len   payload
//! ```
//!
//! **Version 3** — model routing: a v2 tagged frame plus a 32-bit **model
//! id** selecting which registered model serves the request (`0` is always
//! the default model, so a v3 frame with model 0 behaves exactly like a v2
//! frame). Replies to v3 requests come back as **v2 tagged frames** — the
//! model id shapes routing, not the reply wire format:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   = 0x434E5351
//! 4       1     version = 3
//! 5       1     request: op (0 = infer)
//! 6       4     tag, little-endian (echoed in the v2 reply)
//! 10      4     model id, little-endian (0 = default model)
//! 14      4     payload length in bytes, little-endian
//! 18      len   payload
//! ```
//!
//! A model id no registered model answers to gets a **tagged**
//! [`Status::UnknownModel`] reply; the frame is consumed and the
//! connection survives (the payload length parsed fine, so the stream
//! stays framed). Frames without a model id (v1 and v2) route to the
//! default model, which is what keeps every pre-v3 client working
//! unchanged against a multi-model server.
//!
//! All versions interleave freely on one connection. A v1 frame gates
//! further parsing until its reply is written (its reply is only
//! identifiable by arrival order), so lockstep v1 clients keep their exact
//! PR 4 semantics; v2 frames pipeline up to the server's per-connection
//! in-flight cap (`QSNC_SERVE_MAX_INFLIGHT_PER_CONN`), beyond which the
//! server answers [`Status::Busy`] with the offending tag. A tag may be
//! reused after its reply arrives; two live requests with the same tag on
//! one connection are answered [`Status::BadRequest`] (the reply would be
//! unroutable).
//!
//! An infer request's payload is the example as little-endian `f32`s and
//! must be exactly `4 · input_len` bytes for the model being served. An
//! [`Status::Ok`] reply's payload is `argmax: u32`, `n: u32`, then `n`
//! little-endian `f32` logits; every other status carries a UTF-8 error
//! message. Payloads are capped at [`MAX_FRAME_BYTES`]; a frame declaring
//! more than that (or a bad magic/version) cannot be resynchronized and the
//! server closes the connection after replying. An oversized declaration on
//! a v2 frame still gets a **tagged** [`Status::BadRequest`] reply first,
//! so multiplexed clients can attribute the rejection to the offending
//! request rather than seeing a bare disconnect.

use std::io::{self, Read, Write};

/// Frame magic: the bytes `QSNC` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"QSNC");

/// Protocol version 1: untagged lockstep frames.
pub const VERSION: u8 = 1;

/// Protocol version 2: tagged multiplexed frames.
pub const VERSION_V2: u8 = 2;

/// Protocol version 3: tagged frames carrying a model id (replies stay v2).
pub const VERSION_V3: u8 = 3;

/// Request opcode: run inference on one example.
pub const OP_INFER: u8 = 0;

/// Upper bound on a frame payload; anything larger is rejected unread.
pub const MAX_FRAME_BYTES: u32 = 4 << 20;

/// Bytes in the fixed v1 frame header.
pub const HEADER_BYTES: usize = 10;

/// Bytes in the fixed v2 frame header (v1 plus the tag field).
pub const HEADER_V2_BYTES: usize = 14;

/// Bytes in the fixed v3 frame header (v2 plus the model-id field).
pub const HEADER_V3_BYTES: usize = 18;

/// Reply status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Inference ran; payload carries argmax + logits.
    Ok,
    /// Backpressure — the connection's in-flight budget, the model's
    /// admission quota or the server's connection cap was full; retry
    /// later.
    Busy,
    /// The request was malformed; payload carries a message.
    BadRequest,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// A v3 frame named a model id no registered model answers to. The
    /// frame was consumed; the connection survives.
    UnknownModel,
}

impl Status {
    fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Busy => 1,
            Status::BadRequest => 2,
            Status::ShuttingDown => 3,
            Status::UnknownModel => 4,
        }
    }

    fn from_code(code: u8) -> Option<Status> {
        match code {
            0 => Some(Status::Ok),
            1 => Some(Status::Busy),
            2 => Some(Status::BadRequest),
            3 => Some(Status::ShuttingDown),
            4 => Some(Status::UnknownModel),
            _ => None,
        }
    }
}

/// A decoded reply frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Outcome of the request.
    pub status: Status,
    /// The request tag this reply answers (`None` for v1 frames).
    pub tag: Option<u32>,
    /// Index of the largest logit (valid when `status` is [`Status::Ok`]).
    pub argmax: u32,
    /// Class logits (empty unless `status` is [`Status::Ok`]).
    pub logits: Vec<f32>,
    /// Error message (empty when `status` is [`Status::Ok`]).
    pub message: String,
}

/// Why a request frame was rejected.
#[derive(Debug)]
pub enum FrameError {
    /// Well-framed but invalid request; the connection can continue.
    Bad(String),
    /// Unframeable input (bad magic, unknown version); the connection
    /// cannot be resynchronized and must close after replying.
    Fatal(String),
    /// The frame declared a payload beyond [`MAX_FRAME_BYTES`]. The stream
    /// cannot be resynchronized (the payload is deliberately unread), but
    /// unlike [`FrameError::Fatal`] the header parsed far enough to know
    /// which request is at fault — the server must send `tag` a
    /// [`Status::BadRequest`] reply *before* closing, so multiplexed (v2)
    /// clients see the rejection attributed to the right request instead
    /// of a bare connection drop.
    TooLarge {
        /// Tag of the offending frame (`None` on a v1 frame).
        tag: Option<u32>,
        /// The declared payload length.
        declared: u32,
    },
}

impl FrameError {
    /// The reply message the server sends for a [`FrameError::TooLarge`]
    /// rejection, kept in one place so v1 and v2 clients see the same text.
    pub fn too_large_message(declared: u32) -> String {
        format!("frame of {declared} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    }

    /// The message of the tagged [`Status::UnknownModel`] reply the server
    /// sends for a v3 frame naming a model id no registered model answers
    /// to.
    pub fn unknown_model_message(model: u32) -> String {
        format!("no model registered under id {model}")
    }
}

/// Outcome of [`parse_frame`] on a byte buffer that may hold a partial
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView {
    /// Protocol version of the frame (1, 2 or 3).
    pub version: u8,
    /// Request opcode byte.
    pub op: u8,
    /// Tag for v2/v3 frames, `None` for v1.
    pub tag: Option<u32>,
    /// Model id for v3 frames, `None` for v1/v2 (default-model routing).
    pub model: Option<u32>,
    /// Byte offset of the payload within the parsed buffer.
    pub payload_start: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Total frame size in bytes — advance the buffer by this much.
    pub consumed: usize,
}

/// The server's one request decoder, for every protocol version: examines
/// the start of `buf` and returns `Ok(None)` when more bytes are needed,
/// `Ok(Some(view))` when a complete v1, v2 or v3 frame is present,
/// or an error when the stream cannot be resynchronized —
/// [`FrameError::Fatal`] for bad magic / unknown version,
/// [`FrameError::TooLarge`] (tag preserved) for an oversized payload
/// declaration. Opcode and
/// payload-length validation against the served model is the caller's job
/// — those are [`FrameError::Bad`]-class errors that consume the frame
/// and keep the connection.
pub fn parse_frame(buf: &[u8]) -> Result<Option<FrameView>, FrameError> {
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(FrameError::Fatal(format!(
            "bad magic 0x{magic:08x} (expected 0x{MAGIC:08x})"
        )));
    }
    let version = buf[4];
    let op = buf[5];
    let (tag, model, len, header) = match version {
        VERSION => {
            let len = u32::from_le_bytes(buf[6..10].try_into().unwrap());
            (None, None, len, HEADER_BYTES)
        }
        VERSION_V2 => {
            if buf.len() < HEADER_V2_BYTES {
                return Ok(None);
            }
            let tag = u32::from_le_bytes(buf[6..10].try_into().unwrap());
            let len = u32::from_le_bytes(buf[10..14].try_into().unwrap());
            (Some(tag), None, len, HEADER_V2_BYTES)
        }
        VERSION_V3 => {
            if buf.len() < HEADER_V3_BYTES {
                return Ok(None);
            }
            let tag = u32::from_le_bytes(buf[6..10].try_into().unwrap());
            let model = u32::from_le_bytes(buf[10..14].try_into().unwrap());
            let len = u32::from_le_bytes(buf[14..18].try_into().unwrap());
            (Some(tag), Some(model), len, HEADER_V3_BYTES)
        }
        other => {
            return Err(FrameError::Fatal(format!(
                "unsupported protocol version {other} (expected {VERSION}, {VERSION_V2} or {VERSION_V3})"
            )));
        }
    };
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { tag, declared: len });
    }
    // `len` is now capped, but stay overflow-proof by construction: a
    // hostile declaration must never wrap the total frame size.
    let total = header
        .checked_add(len as usize)
        .ok_or(FrameError::TooLarge { tag, declared: len })?;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some(FrameView {
        version,
        op,
        tag,
        model,
        payload_start: header,
        payload_len: len as usize,
        consumed: total,
    }))
}

/// Validates an infer payload and decodes it into `input` (cleared first).
/// Returns [`FrameError::Bad`] — frame consumed, connection keeps going —
/// on an unknown opcode or a payload that does not match the model.
pub fn decode_infer_payload(
    op: u8,
    payload: &[u8],
    input_len: usize,
    input: &mut Vec<f32>,
) -> Result<(), FrameError> {
    if op != OP_INFER {
        return Err(FrameError::Bad(format!("unknown opcode {op}")));
    }
    if payload.len() != 4 * input_len {
        return Err(FrameError::Bad(format!(
            "payload is {} bytes, model expects {} ({} f32 values)",
            payload.len(),
            4 * input_len,
            input_len
        )));
    }
    input.clear();
    input.extend(payload.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())));
    Ok(())
}

/// Appends a frame header (of the version implied by `tag`) + payload
/// length to `out`, returning the offset where the payload begins.
fn encode_header(out: &mut Vec<u8>, kind: u8, tag: Option<u32>, payload_len: usize) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    match tag {
        None => {
            out.push(VERSION);
            out.push(kind);
        }
        Some(tag) => {
            out.push(VERSION_V2);
            out.push(kind);
            out.extend_from_slice(&tag.to_le_bytes());
        }
    }
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Appends a complete [`Status::Ok`] reply frame to `out` — v1 when `tag`
/// is `None`, v2 carrying `tag` otherwise. The event loop encodes replies
/// straight into per-connection output buffers with this.
pub fn encode_ok_reply(out: &mut Vec<u8>, tag: Option<u32>, argmax: u32, logits: &[f32]) {
    encode_header(out, Status::Ok.code(), tag, 8 + 4 * logits.len());
    out.extend_from_slice(&argmax.to_le_bytes());
    out.extend_from_slice(&(logits.len() as u32).to_le_bytes());
    for v in logits {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends a complete error reply frame to `out` — v1 when `tag` is
/// `None`, v2 carrying `tag` otherwise.
pub fn encode_error_reply(out: &mut Vec<u8>, tag: Option<u32>, status: Status, message: &str) {
    debug_assert_ne!(status, Status::Ok, "error replies carry non-Ok statuses");
    encode_header(out, status.code(), tag, message.len());
    out.extend_from_slice(message.as_bytes());
}

/// Bytes in the header of a frame of the version implied by `tag`.
fn header_len(tag: Option<u32>) -> usize {
    if tag.is_some() {
        HEADER_V2_BYTES
    } else {
        HEADER_BYTES
    }
}

/// Stages one frame of exactly `size` bytes through the thread's scratch
/// arena so persistent blocking writers stay allocation-free once warm:
/// the borrowed buffer's capacity covers `size`, so the appending encoders
/// never grow it.
fn write_encoded(
    w: &mut impl Write,
    size: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    let mut frame = qsnc_tensor::scratch::take_u8(size);
    frame.clear();
    encode(&mut frame);
    debug_assert_eq!(frame.len(), size, "encoder produced a different frame size");
    let result = w.write_all(&frame).and_then(|()| w.flush());
    qsnc_tensor::scratch::put_u8(frame);
    result
}

/// Client side: writes one v1 (untagged, lockstep) infer request frame.
pub fn write_request(w: &mut impl Write, input: &[f32]) -> io::Result<()> {
    write_encoded(w, HEADER_BYTES + 4 * input.len(), |frame| {
        encode_header(frame, OP_INFER, None, 4 * input.len());
        for v in input {
            frame.extend_from_slice(&v.to_le_bytes());
        }
    })
}

/// Client side: writes one v2 infer request frame tagged `tag`. Many may
/// be written back to back on one connection (up to the server's
/// per-connection in-flight cap); match replies to requests by tag, not
/// by order.
pub fn write_request_tagged(w: &mut impl Write, tag: u32, input: &[f32]) -> io::Result<()> {
    write_encoded(w, HEADER_V2_BYTES + 4 * input.len(), |frame| {
        encode_header(frame, OP_INFER, Some(tag), 4 * input.len());
        for v in input {
            frame.extend_from_slice(&v.to_le_bytes());
        }
    })
}

/// Client side: writes one v3 infer request frame tagged `tag`, routed to
/// the server-side model registered under `model` (`0` is always the
/// default model). The reply arrives as a **v2 tagged frame** carrying the
/// same tag; match replies to requests by tag exactly as with
/// [`write_request_tagged`]. A model id no model answers to gets a tagged
/// [`Status::UnknownModel`] reply and the connection keeps going.
pub fn write_request_routed(
    w: &mut impl Write,
    tag: u32,
    model: u32,
    input: &[f32],
) -> io::Result<()> {
    write_encoded(w, HEADER_V3_BYTES + 4 * input.len(), |frame| {
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(VERSION_V3);
        frame.push(OP_INFER);
        frame.extend_from_slice(&tag.to_le_bytes());
        frame.extend_from_slice(&model.to_le_bytes());
        frame.extend_from_slice(&(4 * input.len() as u32).to_le_bytes());
        for v in input {
            frame.extend_from_slice(&v.to_le_bytes());
        }
    })
}

/// Server side: writes an error reply carrying `message` — v1 when `tag`
/// is `None`, v2 otherwise.
pub fn write_error_reply(
    w: &mut impl Write,
    tag: Option<u32>,
    status: Status,
    message: &str,
) -> io::Result<()> {
    write_encoded(w, header_len(tag) + message.len(), |frame| {
        encode_error_reply(frame, tag, status, message)
    })
}

/// Client side: reads one reply frame of either protocol version;
/// [`Reply::tag`] is `Some` exactly when the reply is v2.
pub fn read_reply(r: &mut impl Read) -> io::Result<Reply> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad reply header"));
    }
    let status = Status::from_code(header[5])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown status"))?;
    let (tag, len) = match header[4] {
        VERSION => (None, u32::from_le_bytes(header[6..10].try_into().unwrap())),
        VERSION_V2 => {
            let tag = u32::from_le_bytes(header[6..10].try_into().unwrap());
            let mut rest = [0u8; 4];
            r.read_exact(&mut rest)?;
            (Some(tag), u32::from_le_bytes(rest))
        }
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad reply header")),
    };
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized reply"));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    match status {
        Status::Ok => {
            if payload.len() < 8 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "truncated Ok reply"));
            }
            let argmax = u32::from_le_bytes(payload[0..4].try_into().unwrap());
            let n = u32::from_le_bytes(payload[4..8].try_into().unwrap()) as usize;
            // The declared logit count must reproduce the payload size under
            // checked arithmetic — a hostile `n` near usize::MAX must fail
            // the comparison, not wrap it.
            let expected = n
                .checked_mul(4)
                .and_then(|b| b.checked_add(8))
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad logits length"))?;
            if payload.len() != expected {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad logits length"));
            }
            let logits = payload[8..]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Ok(Reply { status, tag, argmax, logits, message: String::new() })
        }
        _ => Ok(Reply {
            status,
            tag,
            argmax: 0,
            logits: Vec::new(),
            message: String::from_utf8_lossy(&payload).into_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes the complete frame at the start of `wire` the way the event
    /// loop does: [`parse_frame`], then [`decode_infer_payload`] against a
    /// model expecting `input_len` values.
    fn decode(wire: &[u8], input_len: usize) -> Result<(FrameView, Vec<f32>), FrameError> {
        let view = parse_frame(wire)?.expect("complete frame");
        let payload = &wire[view.payload_start..view.payload_start + view.payload_len];
        let mut input = Vec::new();
        decode_infer_payload(view.op, payload, input_len, &mut input)?;
        Ok((view, input))
    }

    #[test]
    fn request_round_trip() {
        let input = vec![0.0f32, 0.5, -1.25, 3.0];
        let mut wire = Vec::new();
        write_request(&mut wire, &input).unwrap();
        assert_eq!(wire.len(), HEADER_BYTES + 16);
        let (view, decoded) = decode(&wire, 4).unwrap();
        assert_eq!(decoded, input);
        assert_eq!(view.tag, None);
        assert_eq!(view.consumed, wire.len());
    }

    #[test]
    fn tagged_request_round_trip() {
        let input = vec![1.0f32, -2.0];
        let mut wire = Vec::new();
        write_request_tagged(&mut wire, 0xDEAD_BEEF, &input).unwrap();
        assert_eq!(wire.len(), HEADER_V2_BYTES + 8);
        let (view, decoded) = decode(&wire, 2).unwrap();
        assert_eq!(decoded, input);
        assert_eq!(view.tag, Some(0xDEAD_BEEF));
        assert_eq!(view.consumed, wire.len());
    }

    #[test]
    fn ok_reply_round_trip_both_versions() {
        let logits = vec![0.25f32, -0.5, 9.0];
        for tag in [None, Some(7u32)] {
            let mut wire = Vec::new();
            encode_ok_reply(&mut wire, tag, 2, &logits);
            let reply = read_reply(&mut wire.as_slice()).unwrap();
            assert_eq!(reply.status, Status::Ok);
            assert_eq!(reply.tag, tag);
            assert_eq!(reply.argmax, 2);
            assert_eq!(reply.logits, logits);
        }
    }

    #[test]
    fn error_reply_carries_message_and_tag() {
        for tag in [None, Some(41u32)] {
            let mut wire = Vec::new();
            write_error_reply(&mut wire, tag, Status::Busy, "queue full — retry").unwrap();
            let reply = read_reply(&mut wire.as_slice()).unwrap();
            assert_eq!(reply.status, Status::Busy);
            assert_eq!(reply.tag, tag);
            assert_eq!(reply.message, "queue full — retry");
        }
    }

    #[test]
    fn bad_magic_is_fatal() {
        let mut wire = Vec::new();
        write_request(&mut wire, &[1.0]).unwrap();
        wire[0] ^= 0xff;
        match parse_frame(&wire) {
            Err(FrameError::Fatal(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Fatal, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declaration_is_rejected_without_reading_payload() {
        // The tag must survive to the error so the server can attribute a
        // tagged BadRequest reply to the offending v2 request. The wire
        // holds the header only: rejection must not wait for payload bytes.
        for tag in [None, Some(3u32)] {
            let mut wire = Vec::new();
            wire.extend_from_slice(&MAGIC.to_le_bytes());
            wire.push(if tag.is_some() { VERSION_V2 } else { VERSION });
            wire.push(OP_INFER);
            if let Some(t) = tag {
                wire.extend_from_slice(&t.to_le_bytes());
            }
            wire.extend_from_slice(&u32::MAX.to_le_bytes());
            match parse_frame(&wire) {
                Err(FrameError::TooLarge { tag: t, declared }) => {
                    assert_eq!(t, tag);
                    assert_eq!(declared, u32::MAX);
                }
                other => panic!("expected TooLarge, got {other:?}"),
            }
        }
    }

    #[test]
    fn barely_oversized_declaration_is_rejected_and_cap_is_accepted() {
        // Exactly at the cap: framing proceeds (parser asks for payload).
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.push(VERSION);
        wire.push(OP_INFER);
        wire.extend_from_slice(&MAX_FRAME_BYTES.to_le_bytes());
        assert!(matches!(parse_frame(&wire), Ok(None)));
        // One past the cap: typed rejection.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.push(VERSION_V2);
        wire.push(OP_INFER);
        wire.extend_from_slice(&7u32.to_le_bytes());
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        match parse_frame(&wire) {
            Err(FrameError::TooLarge { tag, declared }) => {
                assert_eq!(tag, Some(7));
                assert_eq!(declared, MAX_FRAME_BYTES + 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn hostile_logit_count_in_reply_is_invalid_data() {
        // Ok reply whose payload declares u32::MAX logits but carries none:
        // the checked size comparison must reject it, not wrap.
        let mut wire = Vec::new();
        encode_header(&mut wire, Status::Ok.code(), None, 8);
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_reply(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_payload_length_is_recoverable() {
        let mut wire = Vec::new();
        write_request(&mut wire, &[1.0, 2.0]).unwrap();
        write_request(&mut wire, &[4.0, 5.0, 6.0]).unwrap();
        // Model expects 3 values: Bad (resyncable), not Fatal — the frame
        // is consumed whole and the next one decodes.
        match decode(&wire, 3) {
            Err(FrameError::Bad(msg)) => assert!(msg.contains("expects"), "{msg}"),
            other => panic!("expected Bad, got {other:?}"),
        }
        let first = parse_frame(&wire).unwrap().expect("complete frame");
        let (_, decoded) = decode(&wire[first.consumed..], 3).unwrap();
        assert_eq!(decoded, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn incremental_parser_needs_exactly_the_full_frame() {
        let input = vec![0.5f32; 4];
        let mut wire = Vec::new();
        write_request_tagged(&mut wire, 9, &input).unwrap();
        // Every strict prefix: NeedMore, never an error.
        for cut in 0..wire.len() {
            assert!(
                matches!(parse_frame(&wire[..cut]), Ok(None)),
                "prefix of {cut} bytes must ask for more"
            );
        }
        let view = parse_frame(&wire).unwrap().expect("complete frame");
        assert_eq!(view.version, VERSION_V2);
        assert_eq!(view.tag, Some(9));
        assert_eq!(view.consumed, wire.len());
        assert_eq!(view.payload_len, 16);
        let mut decoded = Vec::new();
        decode_infer_payload(
            view.op,
            &wire[view.payload_start..view.payload_start + view.payload_len],
            4,
            &mut decoded,
        )
        .unwrap();
        assert_eq!(decoded, input);
    }

    #[test]
    fn incremental_parser_walks_interleaved_versions() {
        let mut wire = Vec::new();
        write_request(&mut wire, &[1.0]).unwrap();
        write_request_tagged(&mut wire, 5, &[2.0]).unwrap();
        write_request(&mut wire, &[3.0]).unwrap();
        let mut at = 0;
        let mut tags = Vec::new();
        while let Some(view) = parse_frame(&wire[at..]).unwrap() {
            tags.push(view.tag);
            at += view.consumed;
        }
        assert_eq!(at, wire.len());
        assert_eq!(tags, vec![None, Some(5), None]);
    }

    #[test]
    fn unknown_version_is_fatal() {
        let mut wire = Vec::new();
        write_request(&mut wire, &[1.0]).unwrap();
        wire[4] = 9;
        assert!(matches!(parse_frame(&wire), Err(FrameError::Fatal(_))));
    }

    #[test]
    fn routed_request_round_trip() {
        let input = vec![0.5f32, -1.5, 2.0];
        let mut wire = Vec::new();
        write_request_routed(&mut wire, 11, 2, &input).unwrap();
        assert_eq!(wire.len(), HEADER_V3_BYTES + 12);
        let (view, decoded) = decode(&wire, 3).unwrap();
        assert_eq!(decoded, input);
        assert_eq!(view.version, VERSION_V3);
        assert_eq!(view.tag, Some(11));
        assert_eq!(view.model, Some(2));
        assert_eq!(view.consumed, wire.len());
    }

    /// The server routes by `model.unwrap_or(0)`, so a v3 frame naming
    /// model 0 must decode to exactly what the same request sent as v2
    /// decodes to: same tag, same example, same routing key.
    #[test]
    fn model_zero_routes_like_v2_on_a_single_model_reader() {
        let input = vec![1.0f32, 2.0];
        let mut v3 = Vec::new();
        write_request_routed(&mut v3, 4, 0, &input).unwrap();
        let mut v2 = Vec::new();
        write_request_tagged(&mut v2, 4, &input).unwrap();
        let (view3, decoded3) = decode(&v3, 2).unwrap();
        let (view2, decoded2) = decode(&v2, 2).unwrap();
        assert_eq!(view3.model, Some(0));
        assert_eq!(view2.model, None);
        assert_eq!(view3.model.unwrap_or(0), view2.model.unwrap_or(0));
        assert_eq!(view3.tag, view2.tag);
        assert_eq!(decoded3, decoded2);
        assert_eq!(decoded3, input);
    }

    #[test]
    fn unknown_model_consumes_frame_and_keeps_stream_framed() {
        // Two frames back to back: the first names a model nobody serves
        // (with a payload sized for no model), the second is fine. Framing
        // never depends on the model lookup, so skipping the first frame's
        // `consumed` bytes lands exactly on the second.
        let mut wire = Vec::new();
        write_request_routed(&mut wire, 1, 7, &[9.0f32; 4]).unwrap();
        write_request_routed(&mut wire, 2, 0, &[1.0f32, 2.0]).unwrap();
        let first = parse_frame(&wire).unwrap().expect("complete frame");
        assert_eq!(first.tag, Some(1));
        assert_eq!(first.model, Some(7));
        assert_eq!(first.consumed, HEADER_V3_BYTES + 16);
        let (second, decoded) = decode(&wire[first.consumed..], 2).unwrap();
        assert_eq!(second.tag, Some(2));
        assert_eq!(decoded, vec![1.0, 2.0]);
        assert_eq!(first.consumed + second.consumed, wire.len());
    }

    #[test]
    fn incremental_parser_handles_v3_frames() {
        let input = vec![3.0f32; 2];
        let mut wire = Vec::new();
        write_request_routed(&mut wire, 21, 5, &input).unwrap();
        for cut in 0..wire.len() {
            assert!(
                matches!(parse_frame(&wire[..cut]), Ok(None)),
                "prefix of {cut} bytes must ask for more"
            );
        }
        let view = parse_frame(&wire).unwrap().expect("complete frame");
        assert_eq!(view.version, VERSION_V3);
        assert_eq!(view.tag, Some(21));
        assert_eq!(view.model, Some(5));
        assert_eq!(view.payload_start, HEADER_V3_BYTES);
        assert_eq!(view.consumed, wire.len());
        let mut decoded = Vec::new();
        decode_infer_payload(
            view.op,
            &wire[view.payload_start..view.payload_start + view.payload_len],
            2,
            &mut decoded,
        )
        .unwrap();
        assert_eq!(decoded, input);
    }

    #[test]
    fn unknown_model_status_round_trips() {
        let mut wire = Vec::new();
        write_error_reply(&mut wire, Some(9), Status::UnknownModel, "no model registered")
            .unwrap();
        let reply = read_reply(&mut wire.as_slice()).unwrap();
        assert_eq!(reply.status, Status::UnknownModel);
        assert_eq!(reply.tag, Some(9));
        assert!(reply.message.contains("no model"));
    }
}
