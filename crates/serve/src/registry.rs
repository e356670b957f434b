//! The model registry: several compiled engines behind one port, with
//! per-model admission quotas and zero-downtime hot swap.
//!
//! ## Shape
//!
//! A [`crate::Server`] built with [`crate::Server::spawn_models`] owns one
//! `ModelRegistry`: an ordered list of **entries**, one per registered
//! model name. Ids are positional — the model at index 0 is the
//! **default** model, the one v1/v2 frames (and v3 frames naming model 0)
//! route to — and never change for the life of the server; a swap replaces
//! an entry's *engine*, not its id. Each entry holds the current
//! engine version (`ModelVersion`) behind an `RwLock<Arc<…>>`: readers
//! (event loops resolving a frame) clone the `Arc` out; a swap write-locks
//! just long enough to replace the pointer.
//!
//! ## Admission and the quota tier
//!
//! A request is bound to an engine **at admission**, by acquiring a
//! `Lease` on the entry + the version snapshot the front end resolved.
//! The lease rides with the pending request and drops once the event loop
//! has run its batch and encoded the reply, releasing two holds:
//!
//! - the **entry-level** in-flight count, checked against the per-model
//!   admission quota ([`ModelSpec::quota`] /
//!   `QSNC_SERVE_MODEL_QUOTA`) — the quota tier of the backpressure
//!   ladder, answering [`crate::Status::Busy`] when one model's tenants
//!   would otherwise starve the others;
//! - its `Arc` of the version, whose strong count is what hot swap drains.
//!
//! ## Hot swap
//!
//! A swap ([`crate::Server::swap_artifact`], or the admin plane's
//! `POST /models/swap`) loads a `.qsnca` artifact,
//! verifies its input dims match the entry (a swap must never change the
//! wire contract mid-connection), atomically replaces the engine pointer,
//! then **drains**: it waits until every request admitted against the old
//! version has been answered (no lease and no resolved-but-unadmitted
//! snapshot still holds the old version's `Arc`) before
//! releasing the old engine's memory and returning a [`SwapReport`].
//! Requests admitted before the swap run to completion on the old engine —
//! bit-identical to its pre-swap replies; requests admitted after run on
//! the new one. Nothing is dropped, rejected, or re-run by a swap.

use qsnc_memristor::{ArtifactError, SpikingNetwork};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// How long the swap drain sleeps between checks of the old version's
/// `Arc` strong count.
const DRAIN_POLL: Duration = Duration::from_micros(500);

/// One model to register at [`crate::Server::spawn_models`] time. The
/// first spec in the list becomes the **default** model (id 0) that
/// id-less v1/v2 frames route to.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Registry name, unique per server — the handle admin swap requests
    /// and per-model telemetry use. Letters, digits, `-`, `_` and `.`
    /// only.
    pub name: String,
    /// The compiled engine to serve.
    pub network: Arc<SpikingNetwork>,
    /// Per-example input tensor dims (no leading batch dimension);
    /// request payloads must carry exactly their product in `f32`s.
    pub input_dims: Vec<usize>,
    /// Per-model admission quota: at most this many requests from this
    /// model in flight at once, the overflow answered
    /// [`crate::Status::Busy`]. `None` falls back to
    /// [`crate::ServeConfig::model_quota`] (itself unlimited by default).
    pub quota: Option<usize>,
    /// Provenance digest of the checkpoint the engine came from (0 when
    /// unknown); reported by the admin `/models` route and in
    /// [`SwapReport`]s.
    pub checkpoint_digest: u64,
}

impl ModelSpec {
    /// A spec serving `network` under `name` with no per-model quota
    /// override and no provenance digest.
    pub fn new(
        name: impl Into<String>,
        network: Arc<SpikingNetwork>,
        input_dims: Vec<usize>,
    ) -> ModelSpec {
        ModelSpec {
            name: name.into(),
            network,
            input_dims,
            quota: None,
            checkpoint_digest: 0,
        }
    }

    /// Loads a `.qsnca` deployment artifact into a spec named `name`,
    /// carrying the artifact's input dims and provenance digest.
    ///
    /// # Errors
    ///
    /// Artifact I/O errors pass through with their original
    /// [`std::io::ErrorKind`]; validation failures surface as
    /// [`std::io::ErrorKind::InvalidData`] with the typed error's message.
    pub fn from_artifact(
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> std::io::Result<ModelSpec> {
        let loaded = qsnc_memristor::load_artifact(path).map_err(artifact_to_io)?;
        Ok(ModelSpec {
            name: name.into(),
            network: Arc::new(loaded.network),
            input_dims: loaded.input_dims,
            quota: None,
            checkpoint_digest: loaded.provenance.checkpoint_digest,
        })
    }

    /// Sets the per-model admission quota (clamped to at least 1).
    #[must_use]
    pub fn with_quota(mut self, quota: usize) -> ModelSpec {
        self.quota = Some(quota.max(1));
        self
    }
}

pub(crate) fn artifact_to_io(e: ArtifactError) -> std::io::Error {
    match e {
        ArtifactError::Io(io) => io,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// One immutable engine snapshot. Hot swap builds a new `ModelVersion`
/// and replaces the entry's pointer; requests keep `Arc`s to the version
/// they were admitted against, so a swap never changes which engine an
/// admitted request runs on.
pub(crate) struct ModelVersion {
    /// The compiled engine.
    pub(crate) network: Arc<SpikingNetwork>,
    /// Per-example input dims.
    pub(crate) input_dims: Vec<usize>,
    /// `f32`s per example (product of `input_dims`).
    pub(crate) input_len: usize,
    /// 1-based version counter, bumped by every swap.
    pub(crate) version: u32,
    /// Provenance digest of this version's checkpoint (0 when unknown).
    pub(crate) checkpoint_digest: u64,
}

/// One registered model: a stable name + id, the swappable current
/// version, and the quota/telemetry state shared by all its versions.
pub(crate) struct ModelEntry {
    /// Registry name (unique per server).
    pub(crate) name: String,
    /// Positional id (index in the registry; 0 = default model).
    pub(crate) id: u32,
    /// Admission quota; `None` = unlimited.
    pub(crate) quota: Option<usize>,
    /// The engine currently serving new admissions.
    current: RwLock<Arc<ModelVersion>>,
    /// Requests in flight across all versions (the quota gauge).
    inflight: AtomicUsize,
    /// Completed swaps.
    swaps: AtomicU64,
    /// Precomputed telemetry names, so the hot path never formats.
    pub(crate) tele_requests: String,
    pub(crate) tele_rejected: String,
    pub(crate) tele_swaps: String,
    pub(crate) tele_infer_us: String,
}

impl ModelEntry {
    fn current(&self) -> Arc<ModelVersion> {
        Arc::clone(&read_lock(&self.current))
    }
}

/// Reads an `RwLock` even if a writer panicked (the data is a bare `Arc`
/// pointer, never left half-written).
fn read_lock(lock: &RwLock<Arc<ModelVersion>>) -> std::sync::RwLockReadGuard<'_, Arc<ModelVersion>> {
    lock.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// An admitted request's hold on its model entry (quota accounting) and
/// engine version (its `Arc`, which the swap drain waits on). Dropping
/// the lease — once the reply is encoded, or with a dead connection's
/// discarded reply — releases both.
pub(crate) struct Lease {
    entry: Arc<ModelEntry>,
    version: Arc<ModelVersion>,
}

impl Lease {
    /// Tries to admit one request against `entry`/`version`; `None` means
    /// the per-model quota is exhausted (the quota tier's Busy).
    pub(crate) fn acquire(entry: &Arc<ModelEntry>, version: &Arc<ModelVersion>) -> Option<Lease> {
        let prev = entry.inflight.fetch_add(1, Ordering::AcqRel);
        if entry.quota.is_some_and(|quota| prev >= quota) {
            entry.inflight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Lease { entry: Arc::clone(entry), version: Arc::clone(version) })
    }

    pub(crate) fn entry(&self) -> &Arc<ModelEntry> {
        &self.entry
    }

    pub(crate) fn version(&self) -> &Arc<ModelVersion> {
        &self.version
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.entry.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A completed hot swap, as returned by [`crate::Server::swap_artifact`]
/// and rendered by the admin `POST /models/swap` route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapReport {
    /// The swapped model's registry name.
    pub model: String,
    /// Its (unchanged) model id.
    pub model_id: u32,
    /// Version counter before the swap.
    pub old_version: u32,
    /// Version counter after (always `old_version + 1`).
    pub new_version: u32,
    /// Provenance digest of the replaced engine's checkpoint.
    pub old_digest: u64,
    /// Provenance digest of the new artifact's checkpoint.
    pub new_digest: u64,
    /// Whether every request admitted against the old version was answered
    /// before the swap returned. `false` only when the drain timed out
    /// ([`crate::ServeConfig::swap_drain_ms`]) — the old engine is then
    /// released once its last lease drops, just not synchronously.
    pub drained: bool,
    /// Microseconds the drain waited.
    pub drain_wait_us: u64,
}

/// Why a hot swap was refused.
#[derive(Debug)]
pub enum SwapError {
    /// No model is registered under the requested name.
    UnknownModel(String),
    /// The replacement artifact failed to load or validate.
    Artifact(ArtifactError),
    /// The replacement artifact's input dims differ from the entry's — a
    /// swap must never change the wire contract under a live connection.
    DimsMismatch {
        /// The model whose swap was refused.
        model: String,
        /// The entry's (immutable) input dims.
        expected: Vec<usize>,
        /// The artifact's input dims.
        got: Vec<usize>,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::UnknownModel(name) => {
                write!(f, "no model registered under name '{name}'")
            }
            SwapError::Artifact(e) => write!(f, "artifact rejected: {e}"),
            SwapError::DimsMismatch { model, expected, got } => write!(
                f,
                "artifact input dims {got:?} do not match model '{model}' ({expected:?}): \
                 a swap cannot change the wire contract"
            ),
        }
    }
}

impl std::error::Error for SwapError {}

impl SwapError {
    /// Maps onto `io::Error` for [`crate::Server::swap_artifact`]:
    /// `UnknownModel` → `NotFound`, `DimsMismatch` → `InvalidInput`,
    /// artifact I/O passes through, artifact validation → `InvalidData`.
    pub fn into_io(self) -> std::io::Error {
        match self {
            SwapError::UnknownModel(_) => {
                std::io::Error::new(std::io::ErrorKind::NotFound, self.to_string())
            }
            SwapError::DimsMismatch { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, self.to_string())
            }
            SwapError::Artifact(e) => artifact_to_io(e),
        }
    }
}

/// A point-in-time view of one registered model, as returned by
/// [`crate::Server::models`] and rendered by the admin `/models` route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStatus {
    /// Positional model id (0 = default).
    pub id: u32,
    /// Registry name.
    pub name: String,
    /// Current engine version (starts at 1, bumped by every swap).
    pub version: u32,
    /// Per-example input dims.
    pub input_dims: Vec<usize>,
    /// Effective admission quota (`None` = unlimited).
    pub quota: Option<usize>,
    /// Requests currently in flight against this model.
    pub inflight: usize,
    /// Completed swaps since spawn.
    pub swaps: u64,
    /// Provenance digest of the current engine's checkpoint.
    pub checkpoint_digest: u64,
}

/// The server's model table. See the module docs for the lifecycle.
pub(crate) struct ModelRegistry {
    entries: Vec<Arc<ModelEntry>>,
    drain_timeout: Duration,
}

impl ModelRegistry {
    /// Builds a registry from `specs` (first spec = default model).
    /// `default_quota` applies to every spec without its own quota;
    /// `drain_timeout` bounds how long a swap waits for the old version.
    ///
    /// Returns a message (for `io::ErrorKind::InvalidInput`) on an empty
    /// spec list, a duplicate or malformed name, or empty input dims.
    pub(crate) fn new(
        specs: Vec<ModelSpec>,
        default_quota: Option<usize>,
        drain_timeout: Duration,
    ) -> Result<ModelRegistry, String> {
        if specs.is_empty() {
            return Err("at least one model spec is required".to_string());
        }
        let mut entries: Vec<Arc<ModelEntry>> = Vec::with_capacity(specs.len());
        for (id, spec) in specs.into_iter().enumerate() {
            if spec.name.is_empty()
                || !spec
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            {
                return Err(format!(
                    "model name '{}' is invalid: use letters, digits, '-', '_' or '.'",
                    spec.name
                ));
            }
            if entries.iter().any(|e| e.name == spec.name) {
                return Err(format!("duplicate model name '{}' in the registry", spec.name));
            }
            let input_len: usize = spec.input_dims.iter().product();
            assert!(
                !spec.input_dims.is_empty() && input_len > 0,
                "input_dims must describe a non-empty example"
            );
            let quota = spec.quota.or(default_quota).map(|q| q.max(1));
            let version = Arc::new(ModelVersion {
                network: spec.network,
                input_dims: spec.input_dims,
                input_len,
                version: 1,
                checkpoint_digest: spec.checkpoint_digest,
            });
            entries.push(Arc::new(ModelEntry {
                tele_requests: format!("serve.model.{}.requests", spec.name),
                tele_rejected: format!("serve.model.{}.rejected", spec.name),
                tele_swaps: format!("serve.model.{}.swaps", spec.name),
                tele_infer_us: format!("serve.model.{}.infer.us", spec.name),
                name: spec.name,
                id: id as u32,
                quota,
                current: RwLock::new(version),
                inflight: AtomicUsize::new(0),
                swaps: AtomicU64::new(0),
            }));
        }
        Ok(ModelRegistry { entries, drain_timeout })
    }

    /// Resolves a frame's model id to its entry and the engine snapshot
    /// that will serve the request. `None` (a v1/v2 frame) and `Some(0)`
    /// both resolve to the default model; an out-of-range id resolves to
    /// nothing (the caller answers [`crate::Status::UnknownModel`]).
    pub(crate) fn resolve(
        &self,
        model: Option<u32>,
    ) -> Option<(Arc<ModelEntry>, Arc<ModelVersion>)> {
        let entry = self.entries.get(model.unwrap_or(0) as usize)?;
        Some((Arc::clone(entry), entry.current()))
    }

    /// Point-in-time status of every registered model, in id order.
    pub(crate) fn statuses(&self) -> Vec<ModelStatus> {
        self.entries
            .iter()
            .map(|e| {
                let v = e.current();
                ModelStatus {
                    id: e.id,
                    name: e.name.clone(),
                    version: v.version,
                    input_dims: v.input_dims.clone(),
                    quota: e.quota,
                    inflight: e.inflight.load(Ordering::Acquire),
                    swaps: e.swaps.load(Ordering::Acquire),
                    checkpoint_digest: v.checkpoint_digest,
                }
            })
            .collect()
    }

    /// Hot-swaps the model named `model` to the engine in the `.qsnca`
    /// artifact at `path`: load + validate, check the input dims still
    /// match, atomically replace the engine pointer, then wait (bounded by
    /// the drain timeout) until every request admitted against the old
    /// version has been answered before releasing it.
    pub(crate) fn swap_from_artifact(
        &self,
        model: &str,
        path: impl AsRef<Path>,
    ) -> Result<SwapReport, SwapError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == model)
            .ok_or_else(|| SwapError::UnknownModel(model.to_string()))?;
        let loaded = qsnc_memristor::load_artifact(path).map_err(SwapError::Artifact)?;
        let old = entry.current();
        if loaded.input_dims != old.input_dims {
            return Err(SwapError::DimsMismatch {
                model: entry.name.clone(),
                expected: old.input_dims.clone(),
                got: loaded.input_dims,
            });
        }
        let input_len = loaded.input_dims.iter().product();
        let next = Arc::new(ModelVersion {
            network: Arc::new(loaded.network),
            input_dims: loaded.input_dims,
            input_len,
            version: old.version + 1,
            checkpoint_digest: loaded.provenance.checkpoint_digest,
        });
        {
            let mut current =
                entry.current.write().unwrap_or_else(std::sync::PoisonError::into_inner);
            *current = Arc::clone(&next);
        }
        entry.swaps.fetch_add(1, Ordering::AcqRel);
        qsnc_telemetry::counter_add(&entry.tele_swaps, 1);
        // Drain: new admissions can no longer reach `old` (the registry
        // hands out `next` now), but requests admitted before the pointer
        // swap still hold leases, and a front end may hold a
        // resolved-but-unadmitted snapshot for a frame it is mid-read on.
        // Both hold an `Arc` of the old version, so its strong count stays
        // above ours until every one of them is gone.
        let t0 = Instant::now();
        let mut drained = true;
        while Arc::strong_count(&old) > 1 {
            if t0.elapsed() > self.drain_timeout {
                drained = false;
                break;
            }
            std::thread::sleep(DRAIN_POLL);
        }
        Ok(SwapReport {
            model: entry.name.clone(),
            model_id: entry.id,
            old_version: old.version,
            new_version: next.version,
            old_digest: old.checkpoint_digest,
            new_digest: next.checkpoint_digest,
            drained,
            drain_wait_us: t0.elapsed().as_micros() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnc_memristor::{DeployConfig, Provenance};
    use qsnc_quant::{
        insert_signal_stages, quantize_network_weights, ActivationQuantizer,
        ActivationRegularizer, WeightQuantMethod,
    };
    use std::sync::atomic::AtomicBool;

    const DIMS: [usize; 3] = [1, 28, 28];

    /// A compiled 4/4-bit LeNet, saved as an artifact to swap in.
    fn engine_and_artifact(name: &str) -> (Arc<SpikingNetwork>, std::path::PathBuf) {
        let mut rng = qsnc_tensor::TensorRng::seed(11);
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
        let path = std::env::temp_dir()
            .join(format!("qsnc_registry_{name}_{}.qsnca", std::process::id()));
        let provenance = Provenance {
            checkpoint_digest: 0xD1,
            weight_bits: 4,
            activation_bits: 4,
            model: "lenet".to_string(),
        };
        qsnc_memristor::save_artifact(&snn, &DIMS, &provenance, &path).expect("save artifact");
        (Arc::new(snn), path)
    }

    fn registry(snn: &Arc<SpikingNetwork>, drain: Duration) -> ModelRegistry {
        let spec = ModelSpec::new("m", Arc::clone(snn), DIMS.to_vec());
        ModelRegistry::new(vec![spec], None, drain).expect("registry")
    }

    /// The drain counts leases through the old version's `Arc`: a lease
    /// held past the timeout leaves the swap undrained, and a lease released
    /// mid-drain is waited for.
    #[test]
    fn swap_drain_waits_for_every_lease_on_the_old_version() {
        let (snn, path) = engine_and_artifact("drain");

        let reg = registry(&snn, Duration::from_millis(30));
        let (entry, version) = reg.resolve(None).expect("default model");
        let lease = Lease::acquire(&entry, &version).expect("no quota");
        drop((entry, version));
        let report = reg.swap_from_artifact("m", &path).expect("swap");
        assert!(!report.drained, "a held lease must keep the old version undrained");
        drop(lease);

        let reg = registry(&snn, Duration::from_secs(10));
        let (entry, version) = reg.resolve(None).expect("default model");
        let lease = Lease::acquire(&entry, &version).expect("no quota");
        drop((entry, version));
        let released = AtomicBool::new(false);
        let report = std::thread::scope(|s| {
            s.spawn(|| {
                // Release only once the swap has replaced the pointer, so
                // the drain is already waiting (or about to).
                while reg.resolve(None).expect("default model").1.version == 1 {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
                released.store(true, Ordering::Release);
                drop(lease);
            });
            reg.swap_from_artifact("m", &path).expect("swap")
        });
        assert!(report.drained);
        assert!(released.load(Ordering::Acquire), "the swap returned before the lease dropped");
        let _ = std::fs::remove_file(&path);
    }
}
