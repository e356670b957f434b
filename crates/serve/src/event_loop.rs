//! The epoll readiness front end — the server's only connection handler
//! and its only inference thread: a small number of event-loop threads own
//! every client socket and run the requests they decode.
//!
//! ## Shape
//!
//! Loop 0 owns the (non-blocking) listener and distributes accepted
//! connections round-robin across all loops (`QSNC_SERVE_LOOPS`); a
//! connection lives on exactly one loop for its whole life, so no
//! per-connection state is ever shared between loop threads. Each loop
//! drives a level-triggered epoll instance ([`crate::sys`]) over:
//!
//! - its **connections** — each a read/write state machine: bytes
//!   accumulate in a per-connection buffer, [`protocol::parse_frame`]
//!   walks complete frames out of it (v1 and v2 interleave freely), and
//!   replies are encoded into a per-connection output buffer that flushes
//!   as far as `EAGAIN` allows, finishing under `EPOLLOUT`;
//! - its **wakeup pipe** — loop 0 hands an accepted connection over, or
//!   [`crate::Server::drain`] asks for shutdown, and writes one byte;
//! - (loop 0) the **listener**.
//!
//! ## Run to completion
//!
//! A decoded frame is admitted onto the loop's pending list, grouped by
//! the engine version its [`Lease`] pins. A group runs as one
//! `infer_batch_into` call as soon as `max_batch` requests are pending;
//! every partial group runs once the round has nothing left to parse. Each
//! reply is encoded straight from the engine's output into the
//! connection's buffer and flushed before the next batch runs. A dispatch
//! round ends only when nothing is pending, so no admitted request
//! survives an `epoll_wait`: v1 lockstep, drain and hot-swap leases need
//! no queue and no second thread.
//!
//! ## Multiplexing and backpressure
//!
//! A v2 frame carries a client-chosen tag; up to
//! [`LoopConfig::max_inflight`] requests may be in flight per connection
//! and replies return tagged in batch order — an error reply overtakes
//! pending work, and out of order is expected and correct. The
//! per-connection budget answers [`Status::Busy`] (tagged) when exhausted,
//! and a connection whose output buffer passes the high-water mark stops
//! being *read* (its `EPOLLIN` interest drops) until the client drains
//! replies, so a slow reader throttles itself through TCP instead of
//! growing server memory. A v1 (untagged) frame
//! gates parsing until its reply is written — the reply is only
//! identifiable by arrival order — which preserves exact v1 lockstep
//! semantics on the same port.
//!
//! ## Drain
//!
//! Shutdown flips `running`, wakes every loop, and each loop: deregisters
//! the listener, stops parsing new frames, flushes every output buffer
//! (every admitted request was answered in the round that admitted it),
//! then closes its connections and returns. Unparsed bytes buffered
//! behind the drain point are dropped — those requests were never
//! admitted. A client that stopped reading cannot stall the drain
//! past [`DRAIN_FLUSH_LIMIT`].
//!
//! Telemetry lands under `serve.conn.*` (connection-scoped gauges and
//! counters) and `serve.loop.*` (loop-scoped counters and the dispatch
//! sketch); see docs/telemetry.md.

use crate::protocol::{self, FrameError, Status};
use crate::registry::{Lease, ModelEntry, ModelRegistry, ModelVersion};
use crate::sys::{
    epoll_create, epoll_ctl, epoll_wait, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP, EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd};
use qsnc_tensor::Tensor;
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Event cookie for the listener fd (loop 0 only).
const LISTENER_DATA: u64 = u64::MAX;
/// Event cookie for the wakeup pipe.
const WAKE_DATA: u64 = u64::MAX - 1;

/// Events fetched per `epoll_wait` call.
const MAX_EVENTS: usize = 256;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Unparsed-input cap per dispatch round — bounds per-connection work per
/// iteration for fairness; level-triggered epoll re-arms for the rest.
const RBUF_ROUND_LIMIT: usize = 1024 * 1024;

/// Output-buffer high-water mark: above this many pending reply bytes the
/// connection's read interest drops until the client drains.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Compact the output buffer once this many bytes are dead at its front.
const OUT_COMPACT: usize = 64 * 1024;

/// Longest a drain waits for slow readers to take their flushed replies.
const DRAIN_FLUSH_LIMIT: Duration = Duration::from_secs(5);

/// Histogram edges for the `serve.conn.active` gauge.
const CONN_ACTIVE_EDGES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];

/// Histogram edges for the `serve.conn.inflight` gauge.
const CONN_INFLIGHT_EDGES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Histogram edges for `serve.batch.size`.
const BATCH_SIZE_EDGES: &[f64] = &[2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Histogram edges for `serve.queue.depth`.
const QUEUE_DEPTH_EDGES: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Front-end parameters resolved by [`crate::Server::spawn`].
#[derive(Clone)]
pub(crate) struct LoopConfig {
    /// The model table: frames resolve their model id (default for v1/v2)
    /// against it, payloads are validated against the resolved engine's
    /// input length, and admission leases the engine snapshot.
    pub(crate) registry: Arc<ModelRegistry>,
    /// In-flight request budget per connection (tagged + untagged).
    pub(crate) max_inflight: usize,
    /// Connection-slot capacity per loop; accepts beyond it are refused
    /// with [`Status::Busy`].
    pub(crate) max_conns: usize,
    /// Slow-trace threshold in microseconds (`None` disables capture).
    pub(crate) slow_us: Option<u64>,
    /// Largest batch one engine call runs; a version group this full runs
    /// at once.
    pub(crate) max_batch: usize,
}

/// The half of an event loop that other threads touch: loop 0 pushes
/// handed-off connections, and [`crate::Server::drain`] wakes the loop.
pub(crate) struct LoopShared {
    inbound: Mutex<Vec<TcpStream>>,
    wake_tx: UnixStream,
}

impl LoopShared {
    /// Wakes the owning loop (a 1-byte write; a full pipe already has a
    /// wakeup pending, so `WouldBlock` is success).
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn push_inbound(&self, stream: TcpStream) {
        if let Ok(mut q) = self.inbound.lock() {
            q.push(stream);
        }
        self.wake();
    }
}

/// An admitted request waiting for its batch. Its decoded input sits in
/// the owning [`Group`]'s `inputs`, at the same index.
struct Pending {
    /// Connection slot index on this loop.
    conn: u32,
    /// Slot generation at admission time; a mismatch means the connection
    /// died first and the reply is dropped.
    generation: u32,
    /// The client's request tag (`None` for v1 frames).
    tag: Option<u32>,
    /// Holds the model's quota slot and pins the engine version until the
    /// reply is encoded.
    lease: Lease,
    /// Admission timestamp (`serve.latency_us` start).
    admitted: Instant,
    /// Front-end decode time for the slow trace.
    decode_us: u64,
    /// Process-wide request id for the slow trace.
    id: u64,
}

/// The requests admitted against one engine version since its last batch
/// ran. An empty group is free for any version; groups are reused so their
/// buffers keep their capacity.
#[derive(Default)]
struct Group {
    reqs: Vec<Pending>,
    /// Decoded inputs, `input_len` floats per request, in `reqs` order.
    inputs: Vec<f32>,
}

impl Group {
    fn serves(&self, version: &Arc<ModelVersion>) -> bool {
        self.reqs.first().is_some_and(|r| Arc::ptr_eq(r.lease.version(), version))
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    generation: u32,
    /// Accumulated unparsed input; `rpos` marks how far parsing got.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded-but-unwritten reply bytes; `wpos` marks how far the kernel
    /// accepted them.
    out: Vec<u8>,
    wpos: usize,
    /// Tags currently in flight (linear scan — the budget is small).
    tags: Vec<u32>,
    /// Untagged (v1) requests in flight; > 0 gates parsing.
    untagged: usize,
    /// Peer sent EOF / half-closed, or a fatal frame stopped parsing.
    read_closed: bool,
    /// Fatal frame seen: flush what is owed, then close.
    closing: bool,
    /// Interest mask currently registered with epoll.
    interest: u32,
}

impl Conn {
    fn inflight(&self) -> usize {
        self.tags.len() + self.untagged
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.wpos
    }

    /// Pushes pending output as far as `EAGAIN` allows. Returns false if
    /// the transport failed hard.
    fn flush(&mut self) -> bool {
        while self.wpos < self.out.len() {
            match self.stream.write(&self.out[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.out.len() {
            self.out.clear();
            self.wpos = 0;
        } else if self.wpos >= OUT_COMPACT {
            self.out.drain(..self.wpos);
            self.wpos = 0;
        }
        true
    }

    fn cookie(&self, idx: usize) -> u64 {
        (u64::from(self.generation) << 32) | idx as u64
    }
}

/// Everything one event-loop thread owns.
struct EventLoop {
    index: usize,
    ep: OwnedFd,
    wake_rx: UnixStream,
    shared: Arc<LoopShared>,
    /// Every loop's shared half, for round-robin dispatch from loop 0.
    peers: Vec<Arc<LoopShared>>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    /// Slot generations (bumped on free so a dead connection's pending
    /// replies miss).
    gens: Vec<u32>,
    free: Vec<u32>,
    /// Admitted requests not yet run, one group per engine version.
    groups: Vec<Group>,
    /// Connections a batch answered or a full batch stopped mid-parse:
    /// each is settled again before the round ends.
    dirty: Vec<usize>,
    /// Reused decode target for one frame's payload.
    decoded: Vec<f32>,
    /// One cached input tensor per (input dims, batch size): once each
    /// combination has run, packing and inference allocate nothing. Keyed
    /// by dims because models can differ in them.
    tensors: HashMap<Vec<usize>, Vec<Option<Tensor>>>,
    /// The engine's output for the batch being answered.
    logits: Vec<f32>,
    next_rr: usize,
    cfg: LoopConfig,
    running: Arc<AtomicBool>,
    /// Process-wide active-connection gauge (shared across loops).
    active: Arc<AtomicUsize>,
    draining: Option<Instant>,
}

/// The join handles plus each loop's shared half, as returned by [`spawn`].
pub(crate) type SpawnedLoops = (Vec<JoinHandle<()>>, Vec<Arc<LoopShared>>);

/// Binds the event-loop front end: `loops` threads, loop 0 owning
/// `listener`. Returns the join handles and each loop's shared half.
pub(crate) fn spawn(
    listener: TcpListener,
    loops: usize,
    cfg: LoopConfig,
    running: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) -> io::Result<SpawnedLoops> {
    listener.set_nonblocking(true)?;
    let mut shareds = Vec::with_capacity(loops);
    let mut wake_rxs = Vec::with_capacity(loops);
    for _ in 0..loops {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        shareds.push(Arc::new(LoopShared { inbound: Mutex::new(Vec::new()), wake_tx }));
        wake_rxs.push(wake_rx);
    }
    let mut handles = Vec::with_capacity(loops);
    for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
        let ep = epoll_create()?;
        epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_ADD, wake_rx.as_raw_fd(), EPOLLIN, WAKE_DATA)?;
        let listener = if index == 0 {
            let l = listener.try_clone()?;
            epoll_ctl(ep.as_raw_fd(), EPOLL_CTL_ADD, l.as_raw_fd(), EPOLLIN, LISTENER_DATA)?;
            Some(l)
        } else {
            None
        };
        let lp = EventLoop {
            index,
            ep,
            wake_rx,
            shared: Arc::clone(&shareds[index]),
            peers: shareds.clone(),
            listener,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            groups: Vec::new(),
            dirty: Vec::new(),
            decoded: Vec::new(),
            tensors: HashMap::new(),
            logits: Vec::new(),
            next_rr: 0,
            cfg: cfg.clone(),
            running: Arc::clone(&running),
            active: Arc::clone(&active),
            draining: None,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("qsnc-serve-loop-{index}"))
                .spawn(move || lp.run())?,
        );
    }
    Ok((handles, shareds))
}

impl EventLoop {
    fn run(mut self) {
        let mut events = [EpollEvent::zeroed(); MAX_EVENTS];
        loop {
            // Block indefinitely while serving — every state change that
            // matters arrives as an event (sockets, wakeup pipe). While
            // draining, poll so the flush deadline is honored even if a
            // slow reader never becomes writable.
            let timeout_ms = if self.draining.is_some() { 100 } else { -1 };
            let n = match epoll_wait(self.ep.as_raw_fd(), &mut events, timeout_ms) {
                Ok(n) => n,
                Err(_) => break, // epoll fd itself failed: unrecoverable
            };
            let tele = qsnc_telemetry::enabled();
            let t0 = tele.then(Instant::now);
            if tele {
                qsnc_telemetry::counter_add("serve.loop.wakeups", 1);
                qsnc_telemetry::counter_add("serve.loop.events", n as u64);
            }
            for ev in &events[..n] {
                // Copy out of the (packed) event before use.
                let data = { ev.data };
                let bits = { ev.events };
                match data {
                    LISTENER_DATA => self.accept_ready(),
                    WAKE_DATA => self.drain_wake_pipe(),
                    _ => self.conn_ready(data, bits),
                }
            }
            self.adopt_inbound();
            self.run_to_completion();
            if self.draining.is_none() && !self.running.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if let Some(t0) = t0 {
                qsnc_telemetry::quantile_observe(
                    "serve.loop.dispatch.us",
                    t0.elapsed().as_micros() as f64,
                );
            }
            if self.draining.is_some() && self.try_finish_drain() {
                break;
            }
        }
    }

    // ---- accept path ---------------------------------------------------

    fn accept_ready(&mut self) {
        let accepting = self.running.load(Ordering::SeqCst);
        loop {
            let Some(listener) = self.listener.as_ref() else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if !accepting {
                        // A client racing shutdown: tell it, don't serve it.
                        let mut stream = stream;
                        let _ = stream.set_nonblocking(false);
                        let _ = protocol::write_error_reply(
                            &mut stream,
                            None,
                            Status::ShuttingDown,
                            "server shutting down",
                        );
                        continue;
                    }
                    qsnc_telemetry::counter_add("serve.connections", 1);
                    let target = self.next_rr % self.peers.len();
                    self.next_rr = self.next_rr.wrapping_add(1);
                    if target == self.index {
                        self.register_conn(stream);
                    } else {
                        self.peers[target].push_inbound(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // transient accept error; epoll will retry
            }
        }
    }

    fn adopt_inbound(&mut self) {
        let streams = match self.shared.inbound.lock() {
            Ok(mut q) => std::mem::take(&mut *q),
            Err(_) => return,
        };
        for stream in streams {
            self.register_conn(stream);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let live = self.conns.len() - self.free.len();
        if live >= self.cfg.max_conns || self.draining.is_some() {
            qsnc_telemetry::counter_add("serve.conn.refused", 1);
            let mut stream = stream;
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = protocol::write_error_reply(
                &mut stream,
                None,
                Status::Busy,
                "connection limit reached: retry elsewhere",
            );
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            }
        };
        let conn = Conn {
            stream,
            generation: self.gens[idx],
            rbuf: Vec::new(),
            rpos: 0,
            out: Vec::new(),
            wpos: 0,
            tags: Vec::new(),
            untagged: 0,
            read_closed: false,
            closing: false,
            interest: EPOLLIN | EPOLLRDHUP,
        };
        if epoll_ctl(
            self.ep.as_raw_fd(),
            EPOLL_CTL_ADD,
            conn.stream.as_raw_fd(),
            conn.interest,
            conn.cookie(idx),
        )
        .is_err()
        {
            self.free.push(idx as u32);
            return;
        }
        let now_active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        if qsnc_telemetry::enabled() {
            qsnc_telemetry::observe("serve.conn.active", now_active as f64, CONN_ACTIVE_EDGES);
        }
        self.conns[idx] = Some(conn);
    }

    fn drop_conn(&mut self, idx: usize, conn: Conn) {
        // Requests this connection still has pending run with their batch;
        // the generation check discards their replies.
        let _ = epoll_ctl(self.ep.as_raw_fd(), EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx as u32);
        self.active.fetch_sub(1, Ordering::Relaxed);
        // `conn` drops here, closing the socket.
    }

    // ---- readiness dispatch --------------------------------------------

    fn conn_ready(&mut self, data: u64, bits: u32) {
        let idx = (data & 0xFFFF_FFFF) as usize;
        let gen = (data >> 32) as u32;
        let Some(slot) = self.conns.get_mut(idx) else { return };
        let Some(mut conn) = slot.take() else { return };
        if conn.generation != gen {
            *slot = Some(conn); // stale event for a reused slot
            return;
        }
        let mut alive = bits & EPOLLERR == 0;
        if alive && bits & EPOLLOUT != 0 {
            alive = conn.flush();
        }
        if alive && bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0 {
            alive = self.fill(&mut conn);
        }
        if bits & EPOLLHUP != 0 {
            // Full close from the peer: replies have nowhere to go.
            alive = false;
        }
        self.settle(idx, conn, alive);
    }

    /// Runs the parse→flush cycle to quiescence, then parks the connection
    /// back in its slot — or drops it if it is dead or finished (nothing
    /// owed in either direction).
    ///
    /// The cycle must live here, after every kind of progress, because
    /// nothing external re-triggers parsing of bytes already pulled into
    /// `rbuf`: a reply landing (lifting the v1 lockstep gate), a flush
    /// draining the output buffer below its high-water mark, or a full
    /// batch having run can each make previously-gated buffered frames
    /// parseable with no further epoll event coming.
    fn settle(&mut self, idx: usize, mut conn: Conn, mut alive: bool) {
        while alive {
            let unparsed = conn.rbuf.len() - conn.rpos;
            if unparsed > 0 && !self.parse_gated(&conn) {
                if self.batch_full() {
                    // Resume once the full batch has run.
                    self.dirty.push(idx);
                } else {
                    self.parse(idx, &mut conn);
                }
            }
            alive = conn.flush();
            if conn.rbuf.len() - conn.rpos == unparsed {
                break; // no parsing progress: partial frame or gated
            }
        }
        let idle = conn.inflight() == 0;
        let no_more_input = conn.closing || conn.read_closed;
        let done = no_more_input && idle && conn.out_pending() == 0;
        if !alive || done {
            self.drop_conn(idx, conn);
            return;
        }
        self.update_interest(&mut conn, idx);
        self.conns[idx] = Some(conn);
    }

    fn desired_interest(&self, conn: &Conn) -> u32 {
        let mut want = 0;
        if !self.read_gated(conn) {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.out_pending() > 0 {
            want |= EPOLLOUT;
        }
        want
    }

    fn update_interest(&self, conn: &mut Conn, idx: usize) {
        let want = self.desired_interest(conn);
        if want != conn.interest
            && epoll_ctl(
                self.ep.as_raw_fd(),
                EPOLL_CTL_MOD,
                conn.stream.as_raw_fd(),
                want,
                conn.cookie(idx),
            )
            .is_ok()
        {
            conn.interest = want;
        }
    }

    /// True when frames already buffered in `rbuf` must not be parsed
    /// right now: a v1 request is in lockstep flight, a fatal frame closed
    /// the stream, the output buffer is over its high-water mark, or the
    /// server is draining. [`Self::settle`] re-runs the parse the moment a
    /// gate lifts.
    fn parse_gated(&self, conn: &Conn) -> bool {
        conn.untagged > 0
            || conn.closing
            || conn.out_pending() > OUT_HIGH_WATER
            || self.draining.is_some()
    }

    /// True when no further *socket* input should be consumed. Everything
    /// that gates parsing also gates reading (no point buffering what
    /// cannot be parsed), plus EOF. Level-triggered epoll makes gating
    /// safe: unread socket bytes re-arm `EPOLLIN` as soon as the interest
    /// returns.
    fn read_gated(&self, conn: &Conn) -> bool {
        self.parse_gated(conn) || conn.read_closed
    }

    // ---- read / parse / admit ------------------------------------------

    /// Pulls readable bytes into `rbuf`. Returns false if the transport
    /// failed hard.
    fn fill(&mut self, conn: &mut Conn) -> bool {
        if self.read_gated(conn) {
            return true;
        }
        let mut chunk = qsnc_tensor::scratch::take_u8(READ_CHUNK);
        let mut alive = true;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    if conn.rbuf.len() - conn.rpos > RBUF_ROUND_LIMIT {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        qsnc_tensor::scratch::put_u8(chunk);
        alive
    }

    /// Walks complete frames out of `rbuf`, admitting or error-replying
    /// each, until the buffer runs dry or a gate closes.
    fn parse(&mut self, idx: usize, conn: &mut Conn) {
        let tele = qsnc_telemetry::enabled();
        let mut hit_need_more = false;
        loop {
            if self.parse_gated(conn) || self.batch_full() {
                break;
            }
            let t0 = tele.then(Instant::now);
            match protocol::parse_frame(&conn.rbuf[conn.rpos..]) {
                Ok(None) => {
                    hit_need_more = true;
                    break;
                }
                Ok(Some(view)) => {
                    let Some((entry, version)) = self.cfg.registry.resolve(view.model) else {
                        // Unknown model id. The frame's length parsed fine,
                        // so consume it whole and answer the tag: the
                        // stream stays framed and the connection survives.
                        qsnc_telemetry::counter_add("serve.model.unknown", 1);
                        qsnc_telemetry::counter_add("serve.bad_requests", 1);
                        protocol::encode_error_reply(
                            &mut conn.out,
                            view.tag,
                            Status::UnknownModel,
                            &FrameError::unknown_model_message(view.model.unwrap_or(0)),
                        );
                        conn.rpos += view.consumed;
                        continue;
                    };
                    let start = conn.rpos + view.payload_start;
                    let payload = &conn.rbuf[start..start + view.payload_len];
                    let decoded = protocol::decode_infer_payload(
                        view.op,
                        payload,
                        version.input_len,
                        &mut self.decoded,
                    );
                    conn.rpos += view.consumed;
                    match decoded {
                        Ok(()) => {
                            let decode_us =
                                t0.map_or(0, |t| t.elapsed().as_micros() as u64);
                            self.admit(idx, conn, view.tag, decode_us, entry, version, tele);
                        }
                        Err(FrameError::Bad(msg)) => {
                            qsnc_telemetry::counter_add("serve.bad_requests", 1);
                            protocol::encode_error_reply(
                                &mut conn.out,
                                view.tag,
                                Status::BadRequest,
                                &msg,
                            );
                        }
                        // decode_infer_payload only returns Bad.
                        Err(_) => unreachable!("payload decode cannot fail any other way"),
                    }
                }
                Err(FrameError::TooLarge { tag, declared }) => {
                    // The tag parsed before the length check, so a v2
                    // client gets the rejection attributed to its request
                    // (not a bare drop); the stream still can't be
                    // resynchronized past an unread payload, so flush and
                    // close.
                    qsnc_telemetry::counter_add("serve.bad_requests", 1);
                    protocol::encode_error_reply(
                        &mut conn.out,
                        tag,
                        Status::BadRequest,
                        &FrameError::too_large_message(declared),
                    );
                    conn.closing = true;
                    break;
                }
                Err(FrameError::Fatal(msg)) => {
                    qsnc_telemetry::counter_add("serve.bad_requests", 1);
                    protocol::encode_error_reply(&mut conn.out, None, Status::BadRequest, &msg);
                    conn.closing = true;
                    break;
                }
                // parse_frame only returns Fatal/TooLarge errors.
                Err(_) => unreachable!("parse_frame cannot fail any other way"),
            }
        }
        if conn.rpos == conn.rbuf.len() {
            conn.rbuf.clear();
            conn.rpos = 0;
        } else if conn.rpos >= OUT_COMPACT {
            conn.rbuf.drain(..conn.rpos);
            conn.rpos = 0;
        }
        // A half-closed peer can never complete a partial trailing frame:
        // discard it so the connection can retire once replies flush.
        if hit_need_more && conn.read_closed {
            conn.rbuf.clear();
            conn.rpos = 0;
        }
    }

    /// Admits one decoded request (its input in `self.decoded`) onto the
    /// pending group for its engine version, or answers why not.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        idx: usize,
        conn: &mut Conn,
        tag: Option<u32>,
        decode_us: u64,
        entry: Arc<ModelEntry>,
        version: Arc<ModelVersion>,
        tele: bool,
    ) {
        if tag.is_some_and(|t| conn.tags.contains(&t)) {
            qsnc_telemetry::counter_add("serve.bad_requests", 1);
            protocol::encode_error_reply(
                &mut conn.out,
                tag,
                Status::BadRequest,
                &format!(
                    "tag {} is already in flight on this connection",
                    tag.unwrap_or_default()
                ),
            );
            return;
        }
        if conn.inflight() >= self.cfg.max_inflight {
            qsnc_telemetry::counter_add("serve.conn.rejected", 1);
            protocol::encode_error_reply(
                &mut conn.out,
                tag,
                Status::Busy,
                "per-connection in-flight budget exhausted: drain replies and retry",
            );
            return;
        }
        // The quota tier: this model at capacity answers Busy.
        let Some(lease) = Lease::acquire(&entry, &version) else {
            qsnc_telemetry::counter_add(&entry.tele_rejected, 1);
            protocol::encode_error_reply(
                &mut conn.out,
                tag,
                Status::Busy,
                "model admission quota reached: retry",
            );
            return;
        };
        let g = match self.groups.iter().position(|g| g.serves(&version)) {
            Some(g) => g,
            None => match self.groups.iter().position(|g| g.reqs.is_empty()) {
                Some(g) => g,
                None => {
                    self.groups.push(Group::default());
                    self.groups.len() - 1
                }
            },
        };
        let group = &mut self.groups[g];
        group.inputs.extend_from_slice(&self.decoded);
        group.reqs.push(Pending {
            conn: idx as u32,
            generation: conn.generation,
            tag,
            lease,
            admitted: Instant::now(),
            decode_us,
            id: if tele { crate::next_request_id() } else { 0 },
        });
        match tag {
            Some(t) => conn.tags.push(t),
            None => conn.untagged += 1,
        }
        if tele {
            let pending: usize = self.groups.iter().map(|g| g.reqs.len()).sum();
            qsnc_telemetry::counter_add("serve.requests", 1);
            qsnc_telemetry::counter_add(&entry.tele_requests, 1);
            qsnc_telemetry::quantile_observe("serve.stage.decode.us", decode_us as f64);
            qsnc_telemetry::observe("serve.queue.depth", pending as f64, QUEUE_DEPTH_EDGES);
            qsnc_telemetry::observe(
                "serve.conn.inflight",
                conn.inflight() as f64,
                CONN_INFLIGHT_EDGES,
            );
        }
    }

    // ---- inference -----------------------------------------------------

    /// The version group holding `max_batch` requests, if any: parsing
    /// pauses until it has run.
    fn full_group(&self) -> Option<usize> {
        self.groups.iter().position(|g| g.reqs.len() >= self.cfg.max_batch)
    }

    fn batch_full(&self) -> bool {
        self.full_group().is_some()
    }

    /// Finishes the dispatch round: runs each full batch as soon as it
    /// fills, settles every connection a batch answered or a full batch
    /// paused, and runs the partial batches once nothing else can parse.
    /// Returns with nothing pending.
    fn run_to_completion(&mut self) {
        loop {
            if let Some(g) = self.full_group() {
                self.run_batch(g);
            } else if let Some(idx) = self.dirty.pop() {
                if let Some(conn) = self.conns[idx].take() {
                    self.settle(idx, conn, true);
                }
            } else if let Some(g) = self.groups.iter().position(|g| !g.reqs.is_empty()) {
                self.run_batch(g);
            } else {
                break;
            }
        }
    }

    /// Runs group `g` as one engine call, encodes every reply straight from
    /// the engine's output into its connection's buffer, flushes each
    /// answered connection once and marks it for settling.
    fn run_batch(&mut self, g: usize) {
        let group = &mut self.groups[g];
        let b = group.reqs.len();
        let tele = qsnc_telemetry::enabled();
        let started = tele.then(Instant::now);
        if tele {
            qsnc_telemetry::counter_add("serve.batches", 1);
            qsnc_telemetry::observe("serve.batch.size", b as f64, BATCH_SIZE_EDGES);
        }
        let (entry, version) = {
            let lease = &group.reqs[0].lease;
            (Arc::clone(lease.entry()), Arc::clone(lease.version()))
        };
        let cache = self
            .tensors
            .entry(version.input_dims.clone())
            .or_insert_with(|| (0..=self.cfg.max_batch).map(|_| None).collect());
        let xs = cache[b].get_or_insert_with(|| {
            let mut dims = vec![b];
            dims.extend_from_slice(&version.input_dims);
            Tensor::from_vec(vec![0.0; b * version.input_len], dims)
        });
        xs.as_mut_slice().copy_from_slice(&group.inputs);
        group.inputs.clear();
        let t_infer = tele.then(Instant::now);
        version.network.infer_batch_into(xs, &mut self.logits);
        // The batched engine call is shared: infer_us is recorded once per
        // batch in the sketch but attached to every request's trace.
        let infer_us = t_infer.map_or(0, |t| t.elapsed().as_micros() as u64);
        if tele {
            qsnc_telemetry::quantile_observe("serve.stage.infer.us", infer_us as f64);
            qsnc_telemetry::quantile_observe(&entry.tele_infer_us, infer_us as f64);
        }
        let stride = self.logits.len() / b;
        let answered = self.dirty.len();
        // Each request's lease drops as its reply is encoded.
        for (i, req) in group.reqs.drain(..).enumerate() {
            let idx = req.conn as usize;
            let Some(conn) = self.conns[idx].as_mut().filter(|c| c.generation == req.generation)
            else {
                continue; // the connection died first; drop the reply
            };
            match req.tag {
                Some(t) => {
                    if let Some(p) = conn.tags.iter().position(|&x| x == t) {
                        conn.tags.swap_remove(p);
                    }
                }
                None => conn.untagged -= 1,
            }
            let logits = &self.logits[i * stride..(i + 1) * stride];
            let t_encode = tele.then(Instant::now);
            protocol::encode_ok_reply(&mut conn.out, req.tag, argmax(logits) as u32, logits);
            if let (Some(t_encode), Some(started)) = (t_encode, started) {
                let queue_us = started.saturating_duration_since(req.admitted).as_micros() as u64;
                let encode_us = t_encode.elapsed().as_micros() as u64;
                let total_us = req.admitted.elapsed().as_micros() as u64;
                qsnc_telemetry::quantile_observe("serve.stage.queue.us", queue_us as f64);
                qsnc_telemetry::quantile_observe("serve.stage.encode.us", encode_us as f64);
                qsnc_telemetry::quantile_observe("serve.latency_us", total_us as f64);
                if self.cfg.slow_us.is_some_and(|slow| total_us >= slow) {
                    qsnc_telemetry::flight_record(
                        "serve.slow",
                        req.id,
                        &[
                            ("decode_us", req.decode_us),
                            ("queue_us", queue_us),
                            ("infer_us", infer_us),
                            ("encode_us", encode_us),
                            ("total_us", total_us),
                            ("batch", b as u64),
                        ],
                    );
                }
            }
            if self.dirty.last() != Some(&idx) {
                self.dirty.push(idx);
            }
        }
        // Replies leave before the next batch runs. A failed write shows
        // again when the connection is settled, which drops it.
        for &idx in &self.dirty[answered..] {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.flush();
            }
        }
    }

    // ---- wakeups -------------------------------------------------------

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => break, // write half dropped: shutdown under way
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
    }
    // ---- drain ---------------------------------------------------------

    fn begin_drain(&mut self) {
        self.draining = Some(Instant::now());
        if let Some(listener) = self.listener.take() {
            let _ = epoll_ctl(self.ep.as_raw_fd(), EPOLL_CTL_DEL, listener.as_raw_fd(), 0, 0);
        }
        // Gate every connection's reads; keep write interest for flushes.
        for idx in 0..self.conns.len() {
            if let Some(mut conn) = self.conns[idx].take() {
                self.update_interest(&mut conn, idx);
                self.conns[idx] = Some(conn);
            }
        }
    }

    /// True once every reply is flushed (or the flush grace period
    /// expired). Closes all remaining connections on success.
    fn try_finish_drain(&mut self) -> bool {
        let deadline_passed = self
            .draining
            .is_some_and(|t| t.elapsed() > DRAIN_FLUSH_LIMIT);
        let owed = self.conns.iter().flatten().any(|c| c.out_pending() > 0);
        if owed && !deadline_passed {
            return false;
        }
        for idx in 0..self.conns.len() {
            if let Some(conn) = self.conns[idx].take() {
                self.drop_conn(idx, conn);
            }
        }
        true
    }
}

/// Same tie-breaking as `Tensor::argmax` (lowest index wins).
fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &x) in v.iter().enumerate() {
        if x > best_v {
            best_v = x;
            best = i;
        }
    }
    best
}
