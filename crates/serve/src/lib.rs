//! # qsnc-serve
//!
//! A batched TCP inference server over [`qsnc_memristor::SpikingNetwork`] —
//! the layer that turns the integer fast-path engine into a system that
//! accepts traffic. Zero dependencies beyond `std::net` + the workspace
//! (the epoll front end issues its three syscalls with inline assembly
//! rather than pulling in `libc`).
//!
//! One front end feeds the pipeline: a small number of epoll readiness
//! loops own every client socket non-blocking. Protocol v2 frames carry a
//! request *tag*, so one connection can hold many requests in flight and
//! take replies out of order ([`protocol::write_request_tagged`]); v1
//! untagged lockstep frames keep working unchanged on the same port.
//! Per-connection backpressure: an in-flight budget
//! ([`ServeConfig::max_inflight_per_conn`]) answers [`Status::Busy`] when
//! exhausted, and a slow reader's output buffer passing its high-water
//! mark pauses reads from that client until it drains. The epoll layer
//! exists on Linux x86-64 and aarch64 only; on any other platform
//! [`Server::spawn`] fails with [`io::ErrorKind::Unsupported`].
//!
//! One request's journey:
//!
//! 1. The event loop walks a complete length-prefixed binary frame out of
//!    the connection's read buffer ([`protocol::parse_frame`]), decodes
//!    its payload, and admits the request to a **bounded queue**. A full
//!    queue answers [`Status::Busy`] immediately — explicit backpressure
//!    instead of unbounded buffering.
//! 2. An idle **worker** takes its own batch from that queue: it blocks for
//!    the first request, then takes whatever else is already queued — up
//!    to `max_batch`, without waiting — and runs at once. The workers share
//!    one micro-batcher behind a mutex; there is no batcher thread and no
//!    hand-off between queue and worker. `max_delay_us` (default 0) adds
//!    an optional wait for stragglers after the queue has been drained.
//! 3. The worker packs the batch into a `[B, …]` tensor and drives
//!    [`SpikingNetwork::infer_batch_into`]: every reply is bit-identical
//!    to `SpikingNetwork::infer_reference` — at any `QSNC_SIMD` level the
//!    integer kernels dispatch to (`qsnc_tensor::simd`) — and steady-state
//!    serving at a warm batch size performs zero fresh scratch allocations
//!    (workers are persistent threads, so the `qsnc_tensor::scratch` arena
//!    stays warm).
//! 4. The result returns to the owning event loop's completion queue plus
//!    a wakeup byte; the loop encodes the logits + argmax frame, echoing
//!    the request's tag.
//!
//! [`Server::shutdown`] drains: accepting stops, no new frames are
//! admitted, every request already admitted (including tagged in-flight
//! pipelines) is batched, inferred, answered, and flushed, and only then
//! do the workers exit (the admin listener, when enabled, goes down last
//! so `/metrics` stays scrapeable through the drain).
//!
//! ## Multi-model serving and hot swap
//!
//! [`Server::spawn_models`] registers several compiled engines behind the
//! same port (one [`ModelSpec`] each). Protocol v3 frames carry a model
//! id ([`protocol::write_request_routed`]); v1/v2 frames — and v3 frames
//! naming model 0 — route to the first registered model, so every
//! existing client keeps working unchanged. Each model gets its own
//! admission-quota tier in the backpressure ladder
//! ([`ServeConfig::model_quota`] / [`ModelSpec::quota`]), and
//! [`Server::swap_artifact`] (or the admin `POST /models/swap` route)
//! hot-swaps one model's engine from a fresh `.qsnca` artifact: atomic
//! engine-pointer swap, then a bounded drain of the requests admitted
//! against the old version before it is released. See [`mod@registry`]
//! for the admission/lease/drain mechanics.
//!
//! Telemetry (enable with `QSNC_TELEMETRY`) records under the frozen
//! `serve.*` taxonomy: `serve.queue.depth` and `serve.batch.size`
//! fixed-bucket histograms; `serve.latency_us` and the per-stage
//! `serve.stage.{decode,queue,infer,encode}.us` quantile sketches; the
//! `serve.rejected` counter; plus `serve.requests` / `serve.batches` /
//! `serve.connections` / `serve.bad_requests` totals; the
//! `serve.conn.active` / `serve.conn.inflight` histograms,
//! `serve.conn.refused` / `serve.conn.rejected` counters, and
//! `serve.loop.{wakeups,events,completions}` counters with the
//! `serve.loop.dispatch.us` sketch. Multi-model serving adds the
//! per-model `serve.model.{name}.requests` / `.rejected` / `.swaps`
//! counters, the `serve.model.{name}.infer.us` sketch, and the
//! `serve.model.unknown` counter. Requests slower than
//! `QSNC_SERVE_SLOW_US` leave a full stage trace in the telemetry flight
//! recorder.
//!
//! Setting `QSNC_SERVE_ADMIN_ADDR` (or [`ServeConfig::admin_addr`])
//! starts a second listener speaking just enough HTTP/1.1 for an
//! observability plane — `GET /metrics` (Prometheus text exposition),
//! `GET /snapshot` (the telemetry JSON document, with `?cursor=NAME`
//! windowed deltas), `GET /slow` (flight-recorder dump) and
//! `GET /healthz`. See [`mod@admin`].

#![warn(missing_docs)]
// Without the epoll layer nothing drives the pipeline (`Server::spawn`
// fails with `Unsupported`), so its parts are dead code there.
#![cfg_attr(
    not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))),
    allow(dead_code)
)]

pub mod admin;
mod batcher;
pub mod protocol;
pub mod registry;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys;

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[path = "event_loop.rs"]
mod event_loop;
#[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
#[path = "event_loop_stub.rs"]
mod event_loop;

pub use protocol::{Reply, Status};
pub use registry::{ModelSpec, ModelStatus, SwapReport};

use batcher::{MicroBatcher, ReplyRoute, Request, WorkerReply, BATCH_SIZE_EDGES};
use event_loop::{Completion, LoopConfig, LoopShared};
use qsnc_memristor::SpikingNetwork;
use qsnc_tensor::Tensor;
use registry::ModelRegistry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving parameters. `..Default::default()` gives the production knobs;
/// `from_env` layers the `QSNC_SERVE_*` environment overrides on top.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch a worker runs at once (`QSNC_SERVE_MAX_BATCH`).
    pub max_batch: usize,
    /// Extra wait for batch-mates, in microseconds, after a worker has
    /// taken everything already queued (`QSNC_SERVE_MAX_DELAY_US`). The
    /// default 0 never waits: a lone request runs alone at once.
    pub max_delay_us: u64,
    /// Bounded request-queue capacity; a full queue replies
    /// [`Status::Busy`].
    pub queue_cap: usize,
    /// Inference worker threads. One is right for single-core deployments;
    /// each worker keeps its own warm scratch arena.
    pub workers: usize,
    /// Event-loop threads (`QSNC_SERVE_LOOPS`). One loop comfortably
    /// multiplexes hundreds of connections; add loops when accept/IO work
    /// itself saturates a core.
    pub loops: usize,
    /// Per-connection in-flight request budget over the multiplexed v2
    /// protocol (`QSNC_SERVE_MAX_INFLIGHT_PER_CONN`); the budget'th + 1
    /// concurrent request on one connection is answered [`Status::Busy`]
    /// with its tag.
    pub max_inflight_per_conn: usize,
    /// Concurrent-connection cap (`QSNC_SERVE_MAX_CONNS`, default 4096).
    /// Connections over the cap are refused with [`Status::Busy`].
    pub max_conns: usize,
    /// Bind address for the admin observability endpoint
    /// (`QSNC_SERVE_ADMIN_ADDR`; e.g. `127.0.0.1:0`). `None` — the
    /// default — serves no admin plane at all. When set and telemetry is
    /// off, [`Server::spawn`] switches it to recording so the endpoint has
    /// data to serve.
    pub admin_addr: Option<String>,
    /// Requests whose total latency reaches this many microseconds leave a
    /// full per-stage trace in the telemetry flight recorder, dumped by the
    /// admin `/slow` route (`QSNC_SERVE_SLOW_US`). `None` disables slow
    /// capture.
    pub slow_us: Option<u64>,
    /// Default per-model admission quota (`QSNC_SERVE_MODEL_QUOTA`): at
    /// most this many requests per model in flight at once, the overflow
    /// answered [`Status::Busy`]. Applies to every registered model
    /// without its own [`ModelSpec::quota`]; `None` — the default — means
    /// unlimited (only the global queue bounds admission).
    pub model_quota: Option<usize>,
    /// How long a hot swap waits, in milliseconds, for requests admitted
    /// against the old engine version to finish before giving up on the
    /// synchronous drain (`QSNC_SERVE_SWAP_DRAIN_MS`). The old engine is
    /// still released once its last request completes either way; see
    /// [`SwapReport::drained`].
    pub swap_drain_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_delay_us: 0,
            queue_cap: 64,
            workers: 1,
            loops: 1,
            max_inflight_per_conn: 32,
            max_conns: 4096,
            admin_addr: None,
            slow_us: None,
            model_quota: None,
            swap_drain_ms: 10_000,
        }
    }
}

impl ServeConfig {
    /// Default config with the `QSNC_SERVE_*` environment overrides
    /// applied (invalid values are ignored): `MAX_BATCH`, `MAX_DELAY_US`,
    /// `LOOPS`, `MAX_INFLIGHT_PER_CONN`, `MAX_CONNS`,
    /// `ADMIN_ADDR`, `SLOW_US`, `MODEL_QUOTA`, `SWAP_DRAIN_MS`.
    pub fn from_env() -> Self {
        let mut config = ServeConfig::default();
        if let Some(v) = env_parse("QSNC_SERVE_MAX_BATCH") {
            config.max_batch = 1.max(v as usize);
        }
        if let Some(v) = env_parse("QSNC_SERVE_MAX_DELAY_US") {
            config.max_delay_us = v;
        }
        if let Some(v) = env_parse("QSNC_SERVE_LOOPS") {
            config.loops = 1.max(v as usize);
        }
        if let Some(v) = env_parse("QSNC_SERVE_MAX_INFLIGHT_PER_CONN") {
            config.max_inflight_per_conn = 1.max(v as usize);
        }
        if let Some(v) = env_parse("QSNC_SERVE_MAX_CONNS") {
            config.max_conns = 1.max(v as usize);
        }
        if let Ok(addr) = std::env::var("QSNC_SERVE_ADMIN_ADDR") {
            let addr = addr.trim();
            if !addr.is_empty() {
                config.admin_addr = Some(addr.to_string());
            }
        }
        config.slow_us = env_parse("QSNC_SERVE_SLOW_US");
        if let Some(v) = env_parse("QSNC_SERVE_MODEL_QUOTA") {
            config.model_quota = Some(1.max(v as usize));
        }
        if let Some(v) = env_parse("QSNC_SERVE_SWAP_DRAIN_MS") {
            config.swap_drain_ms = v;
        }
        config
    }
}

fn env_parse(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Same tie-breaking as `Tensor::argmax` (lowest index wins).
fn argmax_slice(v: &[f32]) -> usize {
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

/// Process-wide request ids, so flight-recorder traces from concurrent
/// connections stay distinguishable. Only assigned while telemetry is on.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// A running inference server. Dropping it (or calling
/// [`Server::shutdown`]) drains in-flight work before returning.
pub struct Server {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    running: Arc<AtomicBool>,
    req_tx: Option<SyncSender<Request>>,
    loops: Vec<JoinHandle<()>>,
    shareds: Vec<Arc<LoopShared>>,
    workers: Vec<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
    registry: Arc<ModelRegistry>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `snn`. `input_dims` is the per-example input shape (e.g.
    /// `[1, 28, 28]`); request payloads must carry exactly that many
    /// `f32`s.
    ///
    /// # Errors
    ///
    /// Returns the bind/listen error, if any, and
    /// [`io::ErrorKind::Unsupported`] on a platform without the epoll
    /// layer (anything but Linux x86-64/aarch64).
    ///
    /// # Panics
    ///
    /// Panics if `config` has a zero `max_batch`, `queue_cap`, `workers`,
    /// `loops`, or `max_inflight_per_conn`, or if `input_dims` is
    /// empty/zero-sized.
    ///
    /// # Examples
    ///
    /// ```
    /// use qsnc_memristor::{DeployConfig, SpikingNetwork};
    /// use qsnc_quant::{
    ///     insert_signal_stages, quantize_network_weights, ActivationQuantizer,
    ///     ActivationRegularizer, WeightQuantMethod,
    /// };
    /// use qsnc_serve::{protocol, ServeConfig, Server, Status};
    /// use qsnc_tensor::TensorRng;
    /// use std::sync::Arc;
    ///
    /// // Deploy a 4-bit LeNet and serve it on an ephemeral port.
    /// let mut rng = TensorRng::seed(0);
    /// let mut net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
    /// let (switch, _) = insert_signal_stages(
    ///     &mut net,
    ///     ActivationRegularizer::neuron_convergence(4),
    ///     0.0,
    ///     ActivationQuantizer::new(4),
    /// );
    /// switch.set_enabled(true);
    /// quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    /// let snn = SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None)?;
    ///
    /// let mut server = Server::spawn(
    ///     Arc::new(snn),
    ///     &[1, 28, 28],
    ///     "127.0.0.1:0",
    ///     ServeConfig::default(),
    /// )?;
    ///
    /// // One v1 request over plain TCP: frame out, logits + argmax back.
    /// let mut conn = std::net::TcpStream::connect(server.local_addr())?;
    /// protocol::write_request(&mut conn, &[0.5f32; 28 * 28])?;
    /// let reply = protocol::read_reply(&mut conn)?;
    /// assert_eq!(reply.status, Status::Ok);
    /// assert_eq!(reply.logits.len(), 10);
    ///
    /// // Or pipeline tagged v2 requests and match replies by tag.
    /// protocol::write_request_tagged(&mut conn, 7, &[0.5f32; 28 * 28])?;
    /// protocol::write_request_tagged(&mut conn, 8, &[0.1f32; 28 * 28])?;
    /// let first = protocol::read_reply(&mut conn)?;
    /// assert!(first.tag == Some(7) || first.tag == Some(8));
    ///
    /// server.shutdown();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn spawn(
        snn: Arc<SpikingNetwork>,
        input_dims: &[usize],
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        Server::spawn_models(
            vec![ModelSpec::new("default", snn, input_dims.to_vec())],
            addr,
            config,
        )
    }

    /// Binds `addr` and serves **several models behind one port** — one
    /// [`ModelSpec`] per model, the first spec becoming the default model
    /// (id 0) that v1/v2 frames route to. Protocol v3 frames select a
    /// model by its registration index
    /// ([`protocol::write_request_routed`]); a frame naming an
    /// unregistered id gets a tagged [`Status::UnknownModel`] reply and
    /// the connection stays usable. [`Server::swap_artifact`] hot-swaps
    /// any registered model's engine later without dropping traffic.
    ///
    /// # Errors
    ///
    /// An empty spec list, a duplicate or malformed model name
    /// ([`ModelSpec::name`]) surfaces as [`io::ErrorKind::InvalidInput`];
    /// bind/listen errors pass through; a platform without the epoll layer
    /// yields [`io::ErrorKind::Unsupported`].
    ///
    /// # Panics
    ///
    /// Panics if `config` has a zero `max_batch`, `queue_cap`, `workers`,
    /// `loops`, or `max_inflight_per_conn`, or if a spec's `input_dims`
    /// is empty/zero-sized.
    ///
    /// # Examples
    ///
    /// ```
    /// use qsnc_memristor::{DeployConfig, SpikingNetwork};
    /// use qsnc_quant::{
    ///     insert_signal_stages, quantize_network_weights, ActivationQuantizer,
    ///     ActivationRegularizer, WeightQuantMethod,
    /// };
    /// use qsnc_serve::{protocol, ModelSpec, ServeConfig, Server, Status};
    /// use qsnc_tensor::TensorRng;
    /// use std::sync::Arc;
    ///
    /// // Deploy a 4-bit LeNet and serve it under two model ids.
    /// let mut rng = TensorRng::seed(0);
    /// let mut net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
    /// let (switch, _) = insert_signal_stages(
    ///     &mut net,
    ///     ActivationRegularizer::neuron_convergence(4),
    ///     0.0,
    ///     ActivationQuantizer::new(4),
    /// );
    /// switch.set_enabled(true);
    /// quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    /// let snn = Arc::new(SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None)?);
    ///
    /// let mut server = Server::spawn_models(
    ///     vec![
    ///         // First spec = default model (id 0), what v1/v2 frames hit.
    ///         ModelSpec::new("lenet-prod", Arc::clone(&snn), vec![1, 28, 28]),
    ///         // Id 1, capped at 16 in-flight requests of its own.
    ///         ModelSpec::new("lenet-canary", Arc::clone(&snn), vec![1, 28, 28]).with_quota(16),
    ///     ],
    ///     "127.0.0.1:0",
    ///     ServeConfig::default(),
    /// )?;
    /// assert_eq!(server.models().len(), 2);
    ///
    /// // A v3 frame routed to model 1; the reply echoes the tag.
    /// let mut conn = std::net::TcpStream::connect(server.local_addr())?;
    /// protocol::write_request_routed(&mut conn, 7, 1, &[0.5f32; 28 * 28])?;
    /// let reply = protocol::read_reply(&mut conn)?;
    /// assert_eq!(reply.status, Status::Ok);
    /// assert_eq!(reply.tag, Some(7));
    ///
    /// // An unregistered id answers UnknownModel; the connection survives.
    /// protocol::write_request_routed(&mut conn, 8, 9, &[0.5f32; 28 * 28])?;
    /// assert_eq!(protocol::read_reply(&mut conn)?.status, Status::UnknownModel);
    /// protocol::write_request(&mut conn, &[0.5f32; 28 * 28])?; // v1 → default
    /// assert_eq!(protocol::read_reply(&mut conn)?.status, Status::Ok);
    ///
    /// server.shutdown();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn spawn_models(
        specs: Vec<ModelSpec>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_cap >= 1, "queue_cap must be at least 1");
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.loops >= 1, "need at least one event loop");
        assert!(config.max_inflight_per_conn >= 1, "max_inflight_per_conn must be at least 1");
        let registry = Arc::new(
            ModelRegistry::new(
                specs,
                config.model_quota,
                Duration::from_millis(config.swap_drain_ms),
            )
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?,
        );

        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let running = Arc::new(AtomicBool::new(true));

        // Bind the admin plane before serving traffic so a bad admin
        // address fails the spawn instead of surfacing later. An admin
        // endpoint without telemetry would only ever serve empty
        // documents, so recording is switched on if it is off.
        let admin = match &config.admin_addr {
            Some(addr) => {
                if !qsnc_telemetry::enabled() {
                    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
                }
                Some(admin::spawn(addr, Arc::clone(&running), Arc::clone(&registry))?)
            }
            None => None,
        };
        let (admin_addr, admin_handle) = match admin {
            Some((a, h)) => (Some(a), Some(h)),
            None => (None, None),
        };
        let depth = Arc::new(AtomicUsize::new(0));
        let (req_tx, req_rx) = mpsc::sync_channel::<Request>(config.queue_cap);
        // The workers pull their batches straight from the bounded queue.
        // While every worker is busy the queue fills, and a full queue is
        // what answers Busy under overload.
        let batcher = Arc::new(Mutex::new(MicroBatcher::new(
            req_rx,
            config.max_batch,
            Duration::from_micros(config.max_delay_us),
            Arc::clone(&depth),
        )));

        let workers = (0..config.workers)
            .map(|_| {
                let batcher = Arc::clone(&batcher);
                let max_batch = config.max_batch;
                std::thread::spawn(move || worker_loop(max_batch, &batcher))
            })
            .collect();

        let loop_cfg = LoopConfig {
            registry: Arc::clone(&registry),
            max_inflight: config.max_inflight_per_conn,
            // The cap is per loop; split the budget across loops so the
            // process-wide total honors the config.
            max_conns: config.max_conns.div_ceil(config.loops),
            slow_us: config.slow_us,
        };
        let loops = event_loop::spawn(
            listener,
            config.loops,
            loop_cfg,
            Arc::clone(&running),
            req_tx.clone(),
            Arc::clone(&depth),
            Arc::new(AtomicUsize::new(0)),
        );
        let mut server = Server {
            addr: local,
            admin_addr,
            running,
            req_tx: Some(req_tx),
            loops: Vec::new(),
            shareds: Vec::new(),
            workers,
            admin: admin_handle,
            registry,
        };
        // On failure `server` drops here, joining the workers and admin
        // plane already started.
        (server.loops, server.shareds) = loops?;
        Ok(server)
    }

    /// Loads a `.qsnca` deployment artifact and serves it — the cold-start
    /// path. One file read reconstructs the integer engine (packed codes,
    /// scales, precomputed threshold tables); no training stack, no
    /// clustering, no threshold search runs in the serving process. The
    /// per-example input dims come from the artifact itself.
    ///
    /// The `qsnc serve` CLI reaches this through `--artifact` or the
    /// `QSNC_SERVE_ARTIFACT` environment variable.
    ///
    /// # Errors
    ///
    /// Artifact I/O errors pass through with their original
    /// [`io::ErrorKind`]; validation failures ([`ArtifactError`] otherwise)
    /// surface as [`io::ErrorKind::InvalidData`] carrying the typed error's
    /// message. Bind/listen errors are returned as from [`Server::spawn`].
    ///
    /// [`ArtifactError`]: qsnc_memristor::ArtifactError
    pub fn spawn_from_artifact(
        path: impl AsRef<std::path::Path>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let spec = ModelSpec::from_artifact("default", path)?;
        Server::spawn_models(vec![spec], addr, config)
    }

    /// Point-in-time status of every registered model, in model-id order:
    /// current engine version, in-flight count, quota, swap count, and
    /// provenance digest. The admin `GET /models` route serves the same
    /// view as JSON.
    pub fn models(&self) -> Vec<ModelStatus> {
        self.registry.statuses()
    }

    /// Hot-swaps the model named `model` to the engine in the `.qsnca`
    /// artifact at `path`, without dropping traffic: the artifact is
    /// loaded and validated (its input dims must match the registered
    /// model's), the engine pointer is swapped atomically, and the call
    /// then waits — bounded by [`ServeConfig::swap_drain_ms`] — until
    /// every request admitted against the old version has been answered.
    /// Requests admitted before the swap get replies bit-identical to the
    /// old engine's; requests admitted after run on the new engine. The
    /// admin `POST /models/swap?model=NAME&artifact=PATH` route performs
    /// the same operation over HTTP.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] for an unregistered model name,
    /// [`io::ErrorKind::InvalidInput`] for an input-dims mismatch;
    /// artifact I/O errors pass through and artifact validation failures
    /// surface as [`io::ErrorKind::InvalidData`].
    pub fn swap_artifact(
        &self,
        model: &str,
        path: impl AsRef<std::path::Path>,
    ) -> io::Result<SwapReport> {
        self.registry.swap_from_artifact(model, path).map_err(registry::SwapError::into_io)
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin endpoint's bound address, when
    /// [`ServeConfig::admin_addr`] was set (resolves port 0 to the actual
    /// ephemeral port).
    pub fn admin_local_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Graceful shutdown: stops accepting, answers every request already
    /// admitted (tagged in-flight pipelines included), then joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.drain();
    }

    /// Idempotent: every handle is taken as it is joined, so the `Drop`
    /// after [`Server::shutdown`] finds nothing left to do.
    fn drain(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        // Wake every loop; each stops parsing, answers its in-flight
        // requests (workers below are still running), flushes, and exits.
        for s in &self.shareds {
            s.wake();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        self.shareds.clear();
        // All producers are gone: the workers drain the queue, run the
        // final partial batch, and exit.
        drop(self.req_tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The admin plane goes down last, after every request has been
        // answered, so /metrics stays scrapeable through the drain.
        if let Some(h) = self.admin.take() {
            if let Some(addr) = self.admin_addr {
                let _ = TcpStream::connect(addr); // nudge it off accept()
            }
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("admin_addr", &self.admin_addr)
            .field("running", &self.running.load(Ordering::Relaxed))
            .field("loops", &self.loops.len())
            .finish()
    }
}

fn worker_loop(max_batch: usize, batcher: &Mutex<MicroBatcher>) {
    // One cached input tensor per (input shape, batch size): after each
    // combination has been seen once, packing + inference allocate
    // nothing. Keyed by shape because different models can differ in dims.
    let mut tensors: HashMap<Vec<usize>, Vec<Option<Tensor>>> = HashMap::new();
    let mut out: Vec<f32> = Vec::new();
    loop {
        // The lock is held only while the batch is taken, never while it
        // runs, so an idle sibling can take the next one meanwhile.
        let batch = match batcher.lock() {
            Ok(mut batcher) => batcher.next_batch(),
            Err(_) => break, // a sibling worker panicked
        };
        let Some(batch) = batch else { break };
        let b = batch.len();
        debug_assert!(b >= 1 && b <= max_batch, "batcher produced batch of {b}");
        let tele = qsnc_telemetry::enabled();
        // Queue time ends when the worker has taken the batch: everything
        // between admission and here (the queue wait, plus the optional
        // window when `max_delay_us` is set) is the queue stage from the
        // request's point of view.
        let picked_up = tele.then(Instant::now);
        if tele {
            qsnc_telemetry::counter_add("serve.batches", 1);
            qsnc_telemetry::observe("serve.batch.size", b as f64, BATCH_SIZE_EDGES);
        }
        // Batches are version-homogeneous, so the opener's lease names the
        // engine for the whole batch.
        let (entry, version) = {
            let lease = batch[0].lease.as_ref().expect("served requests always carry a lease");
            (Arc::clone(lease.entry()), Arc::clone(lease.version()))
        };
        let input_len = version.input_len;
        if !tensors.contains_key(&version.input_dims) {
            tensors
                .insert(version.input_dims.clone(), (0..=max_batch).map(|_| None).collect());
        }
        let cache = tensors.get_mut(&version.input_dims).expect("inserted above");
        let xs = cache[b].get_or_insert_with(|| {
            let mut dims = vec![b];
            dims.extend_from_slice(&version.input_dims);
            Tensor::from_vec(vec![0.0; b * input_len], dims)
        });
        let slice = xs.as_mut_slice();
        for (i, req) in batch.iter().enumerate() {
            slice[i * input_len..(i + 1) * input_len].copy_from_slice(&req.input);
        }
        let t_infer = tele.then(Instant::now);
        version.network.infer_batch_into(xs, &mut out);
        // The batched engine call is shared: infer_us is recorded once per
        // batch in the sketch but attached to every request's trace.
        let infer_us = t_infer.map_or(0, |t| t.elapsed().as_micros() as u64);
        if tele {
            qsnc_telemetry::quantile_observe("serve.stage.infer.us", infer_us as f64);
            qsnc_telemetry::quantile_observe(&entry.tele_infer_us, infer_us as f64);
        }
        let stride = out.len() / b;
        for (i, req) in batch.into_iter().enumerate() {
            let logits = out[i * stride..(i + 1) * stride].to_vec();
            let argmax = argmax_slice(&logits) as u32;
            let queue_us = picked_up
                .map_or(0, |t| t.saturating_duration_since(req.enqueued).as_micros() as u64);
            if tele {
                qsnc_telemetry::quantile_observe("serve.stage.queue.us", queue_us as f64);
            }
            let reply = WorkerReply { argmax, logits, queue_us, infer_us, batch: b as u32 };
            let ReplyRoute { shared, conn, generation, tag } =
                req.route.expect("served requests always carry a reply route");
            // The loop drops the completion itself if the connection died
            // first (generation mismatch).
            shared.complete(Completion {
                conn,
                generation,
                tag,
                reply,
                enqueued: req.enqueued,
                decode_us: req.decode_us,
                id: req.id,
            });
        }
    }
}
