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
//! One request's journey, all on the event loop that owns its connection:
//!
//! 1. The loop walks a complete length-prefixed binary frame out of the
//!    connection's read buffer ([`protocol::parse_frame`]), decodes its
//!    payload, and admits the request onto its pending list, grouped by
//!    the engine version it leased.
//! 2. A version's group runs as soon as `max_batch` requests are pending;
//!    every partial group runs at the end of the dispatch round. There is
//!    no batch window: a lone request runs alone at once, and under load
//!    the frames that arrived during one batch form the next.
//! 3. The loop packs the group into a `[B, …]` tensor and drives
//!    [`SpikingNetwork::infer_batch_into`]: every reply is bit-identical
//!    to `SpikingNetwork::infer_reference` — at any `QSNC_SIMD` level the
//!    integer kernels dispatch to (`qsnc_tensor::simd`) — and steady-state
//!    serving at a warm batch size performs zero fresh scratch allocations
//!    (loops are persistent threads, so the `qsnc_tensor::scratch` arena
//!    stays warm).
//! 4. Each reply is encoded straight from the engine's output into the
//!    connection's buffer, echoing the request's tag, and flushed before
//!    the next batch runs.
//!
//! No admitted request outlives the dispatch round that admitted it, so a
//! served process runs [`ServeConfig::loops`] threads (plus the admin
//! listener when enabled) and nothing else.
//!
//! [`Server::shutdown`] drains: accepting stops, no new frames are
//! admitted, every reply already encoded is flushed, and only then do the
//! loops exit (the admin listener, when enabled, goes down last so
//! `/metrics` stays scrapeable through the drain).
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
//! `serve.stage.{decode,queue,infer,encode}.us` quantile sketches; plus
//! `serve.requests` / `serve.batches` /
//! `serve.connections` / `serve.bad_requests` totals; the
//! `serve.conn.active` / `serve.conn.inflight` histograms,
//! `serve.conn.refused` / `serve.conn.rejected` counters, and
//! `serve.loop.{wakeups,events}` counters with the
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

use event_loop::{LoopConfig, LoopShared};
use qsnc_memristor::SpikingNetwork;
use registry::ModelRegistry;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Serving parameters. `..Default::default()` gives the production knobs;
/// `from_env` layers the `QSNC_SERVE_*` environment overrides on top.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch one engine call runs (`QSNC_SERVE_MAX_BATCH`). An
    /// event loop runs a model version's pending requests as soon as this
    /// many are pending, and any fewer at the end of its dispatch round.
    pub max_batch: usize,
    /// Event-loop threads (`QSNC_SERVE_LOOPS`) — the one parallelism knob:
    /// each loop owns its connections and runs their inference itself,
    /// keeping its own warm scratch arena. One is right for single-core
    /// deployments; add loops when one core's inference saturates.
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
    /// unlimited (only the per-connection budget bounds admission).
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
    /// applied (invalid values are ignored): `MAX_BATCH`, `LOOPS`,
    /// `MAX_INFLIGHT_PER_CONN`, `MAX_CONNS`,
    /// `ADMIN_ADDR`, `SLOW_US`, `MODEL_QUOTA`, `SWAP_DRAIN_MS`.
    pub fn from_env() -> Self {
        let mut config = ServeConfig::default();
        if let Some(v) = env_parse("QSNC_SERVE_MAX_BATCH") {
            config.max_batch = 1.max(v as usize);
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
    loops: Vec<JoinHandle<()>>,
    shareds: Vec<Arc<LoopShared>>,
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
    /// Panics if `config` has a zero `max_batch`, `loops`, or
    /// `max_inflight_per_conn`, or if `input_dims` is empty/zero-sized.
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
    /// Panics if `config` has a zero `max_batch`, `loops`, or
    /// `max_inflight_per_conn`, or if a spec's `input_dims` is
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
        let loop_cfg = LoopConfig {
            registry: Arc::clone(&registry),
            max_inflight: config.max_inflight_per_conn,
            // The cap is per loop; split the budget across loops so the
            // process-wide total honors the config.
            max_conns: config.max_conns.div_ceil(config.loops),
            slow_us: config.slow_us,
            max_batch: config.max_batch,
        };
        let loops = event_loop::spawn(
            listener,
            config.loops,
            loop_cfg,
            Arc::clone(&running),
            Arc::new(AtomicUsize::new(0)),
        );
        let mut server = Server {
            addr: local,
            admin_addr,
            running,
            loops: Vec::new(),
            shareds: Vec::new(),
            admin: admin_handle,
            registry,
        };
        // On failure `server` drops here, joining the admin plane already
        // started.
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
        // Wake every loop; each stops parsing, flushes the replies it
        // owes (nothing admitted is left unanswered), and exits.
        for s in &self.shareds {
            s.wake();
        }
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
        self.shareds.clear();
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
