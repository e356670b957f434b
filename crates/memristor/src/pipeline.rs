//! End-to-end spiking inference on the memristor substrate.
//!
//! [`SpikingNetwork::compile`] lowers a trained, quantized `Sequential`
//! onto the hardware model: synaptic layers become tiled crossbars, batch
//! norm folds into the preceding convolution, ReLU + signal quantization
//! become the IFC/counter stage (the IFC is naturally rectifying, so ReLU
//! is free), and pooling/flatten stay digital. In the noise-free setting
//! the spiking network's outputs match the software-quantized network's
//! exactly — the crossbar computes the same fixed-point arithmetic — which
//! the integration tests assert; device noise can then be layered on.

use crate::device::DeviceConfig;
use crate::fault::{DegradationStats, ReliabilityConfig};
use crate::mapping::TiledMatrix;
use crate::spike::Ifc;
use qsnc_nn::layers::{AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu, Residual};
use qsnc_nn::{Batch, Layer, Sequential};
use qsnc_quant::{cluster_weights, ActivationQuantizer, SignalStage};
use qsnc_tensor::{im2col, parallel, Conv2dSpec, Tensor, TensorRng};
use std::fmt;

/// Deployment parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeployConfig {
    /// Synaptic weight bit width `N`.
    pub weight_bits: u32,
    /// Physical crossbar edge (the paper uses 32).
    pub crossbar_size: usize,
    /// Device model (resistance range, noise).
    pub device: DeviceConfig,
    /// Quantizer used to rate-code the input image.
    pub input_quantizer: ActivationQuantizer,
    /// Reliability layer: fault population and countermeasure policy.
    /// Defaults to [`ReliabilityConfig::ideal`] (inactive, bit-identical to
    /// fault-free deployment).
    pub reliability: ReliabilityConfig,
}

impl DeployConfig {
    /// The paper's configuration: `N`-bit weights, 32×32 crossbars,
    /// 50 kΩ–1 MΩ devices, `M`-bit input coding, ideal (fault-free)
    /// hardware.
    pub fn paper(weight_bits: u32, activation_bits: u32) -> Self {
        DeployConfig {
            weight_bits,
            crossbar_size: 32,
            device: DeviceConfig::paper(weight_bits),
            input_quantizer: ActivationQuantizer::with_scale(
                activation_bits,
                ((1u32 << activation_bits) - 1) as f32,
            ),
            reliability: ReliabilityConfig::ideal(),
        }
    }
}

/// Errors from lowering a network onto the substrate.
#[derive(Debug)]
pub enum CompileError {
    /// A layer type the substrate cannot realize.
    UnsupportedLayer(String),
    /// Batch norm appeared without a preceding convolution to fold into.
    DanglingBatchNorm,
    /// The input to a synaptic layer is not a quantized (spike-coded)
    /// signal.
    UnquantizedInput(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnsupportedLayer(n) => write!(f, "unsupported layer for SNC: {n}"),
            CompileError::DanglingBatchNorm => {
                write!(f, "batch norm without preceding convolution")
            }
            CompileError::UnquantizedInput(n) => {
                write!(f, "synaptic layer {n} driven by unquantized signal")
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SynKind {
    Conv { spec: Conv2dSpec, in_c: usize, out_c: usize },
    Fc { in_dim: usize, out_dim: usize },
}

/// One crossbar-mapped synaptic layer plus its IFC/counter stage.
#[derive(Debug)]
pub(crate) struct SynapticStage {
    pub(crate) kind: SynKind,
    pub(crate) tiles: TiledMatrix,
    pub(crate) weight_scale: f32,
    pub(crate) bias: Vec<f32>,
    pub(crate) in_quant: ActivationQuantizer,
    pub(crate) rectify: bool,
    pub(crate) out_quant: Option<ActivationQuantizer>,
    /// The clustered integer codes behind `tiles`, kept for the integer
    /// fast-path engine and the exact-arithmetic float oracle.
    pub(crate) codes: Vec<i32>,
}

/// How one synaptic stage turns a synaptic sum into its output: the analog
/// pre-activation, then the IFC + counter (or plain requant) readout.
///
/// This is the one definition of both expressions. The float pipeline, its
/// exact-arithmetic oracle, the integer engine's threshold builder and the
/// engine's analog readout all evaluate through it, which is what keeps the
/// engine's precompiled thresholds bit-faithful to the float path.
#[derive(Clone, Copy)]
pub(crate) struct Readout<'a> {
    pub(crate) weight_scale: f32,
    pub(crate) in_scale: f32,
    pub(crate) bias: &'a [f32],
    pub(crate) rectify: bool,
    pub(crate) out_quant: Option<ActivationQuantizer>,
}

impl Readout<'_> {
    /// Analog pre-activation of output neuron `f` for the synaptic sum `y`
    /// in code units (`Σ code · count`).
    pub(crate) fn pre_activation(&self, f: usize, y: f32) -> f32 {
        self.weight_scale * y / self.in_scale + self.bias[f]
    }

    /// Spike count the stage's counter holds for pre-activation `z`, `None`
    /// when the stage has no counter.
    pub(crate) fn count(&self, z: f32) -> Option<u32> {
        match (self.rectify, self.out_quant) {
            (true, Some(q)) => Some(ifc_count(q, z)),
            (false, Some(q)) => Some(q.spike_count(z)),
            (_, None) => None,
        }
    }

    /// Output activation of neuron `f` for the synaptic sum `y`: the
    /// counter's count in output units, or the rectified or plain
    /// pre-activation when the stage has no counter.
    pub(crate) fn output(&self, f: usize, y: f32) -> f32 {
        let z = self.pre_activation(f, y);
        match (self.rectify, self.out_quant) {
            (true, Some(q)) => ifc_count(q, z) as f32 / q.scale(),
            (true, None) => z.max(0.0),
            (false, Some(q)) => q.quantize_value(z),
            (false, None) => z,
        }
    }
}

/// IFC + `M`-bit counter on one analog pre-activation: the threshold is one
/// output LSB and the counter saturates at `2^M − 1`.
fn ifc_count(q: ActivationQuantizer, z: f32) -> u32 {
    Ifc::new(1.0 / q.scale(), q.max_level()).convert(z.max(0.0))
}

#[derive(Debug)]
pub(crate) enum Stage {
    Synaptic(SynapticStage),
    MaxPool { window: usize, stride: usize },
    AvgPool { window: usize, stride: usize },
    Flatten,
    /// Standalone rectify + requantize (IFC on an analog sum, e.g. after a
    /// residual add).
    Requant { quant: Option<ActivationQuantizer> },
    Residual { body: Vec<Stage>, shortcut: Vec<Stage> },
}

/// A network lowered onto memristor crossbars, ready for spiking inference.
#[derive(Debug)]
pub struct SpikingNetwork {
    stages: Vec<Stage>,
    input_quant: ActivationQuantizer,
    /// Integer fast path, present when the network is exactly expressible
    /// in integer form and was programmed without write noise or an active
    /// reliability layer.
    engine: Option<crate::engine::IntEngine>,
    /// Per-synaptic-layer degradation report, in compile order (all-clean
    /// when the reliability config was inactive).
    degradation: Vec<DegradationStats>,
}

// Batch-parallel evaluation shares `&SpikingNetwork` across worker threads;
// keep the network free of interior mutability.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<SpikingNetwork>()
};

struct Compiler<'a> {
    config: &'a DeployConfig,
    rng: Option<&'a mut TensorRng>,
    /// Synaptic layers finalized so far — the layer index fed into
    /// [`ReliabilityConfig::tile_seed`].
    layer: usize,
    /// Per-synaptic-layer degradation, in compile order.
    degradation: Vec<DegradationStats>,
}

/// Builder state while walking one layer stack.
struct PendingSynapse {
    kind: SynKind,
    weight: Tensor,
    bias: Vec<f32>,
    rectify: bool,
    out_quant: Option<ActivationQuantizer>,
}

impl<'a> Compiler<'a> {
    fn compile_stack(
        &mut self,
        layers: &[Box<dyn Layer>],
        current_quant: &mut Option<ActivationQuantizer>,
    ) -> Result<Vec<Stage>, CompileError> {
        let mut stages = Vec::new();
        let mut pending: Option<PendingSynapse> = None;

        // Finalize a pending synaptic layer into a crossbar stage.
        macro_rules! flush {
            () => {
                if let Some(p) = pending.take() {
                    stages.push(Stage::Synaptic(self.finalize(p, current_quant)?));
                }
            };
        }

        for layer in layers {
            let any = layer.as_any();
            if let Some(conv) = any.downcast_ref::<Conv2d>() {
                flush!();
                let in_quant = current_quant
                    .ok_or_else(|| CompileError::UnquantizedInput("conv2d".into()))?;
                let _ = in_quant;
                pending = Some(PendingSynapse {
                    kind: SynKind::Conv {
                        spec: conv.spec(),
                        in_c: conv.weight().dims()[1],
                        out_c: conv.weight().dims()[0],
                    },
                    weight: conv.weight().clone(),
                    bias: conv.bias().as_slice().to_vec(),
                    rectify: false,
                    out_quant: None,
                });
            } else if let Some(fc) = any.downcast_ref::<Linear>() {
                flush!();
                pending = Some(PendingSynapse {
                    kind: SynKind::Fc {
                        in_dim: fc.weight().dims()[1],
                        out_dim: fc.weight().dims()[0],
                    },
                    weight: fc.weight().clone(),
                    bias: fc.bias().as_slice().to_vec(),
                    rectify: false,
                    out_quant: None,
                });
            } else if let Some(bn) = any.downcast_ref::<BatchNorm2d>() {
                let p = pending.as_mut().ok_or(CompileError::DanglingBatchNorm)?;
                let (a, b) = bn.eval_affine();
                fold_batchnorm(p, &a, &b)?;
            } else if any.downcast_ref::<Relu>().is_some() {
                match pending.as_mut() {
                    Some(p) => p.rectify = true,
                    None => stages.push(Stage::Requant { quant: None }),
                }
            } else if let Some(stage) = any.downcast_ref::<SignalStage>() {
                let q = stage.quantizer();
                match pending.as_mut() {
                    Some(p) if p.out_quant.is_none() => {
                        p.out_quant = Some(q);
                        flush!();
                    }
                    _ => {
                        // Quantizer on an analog path (e.g. after residual
                        // add): attach to the last Requant stage if present.
                        match stages.last_mut() {
                            Some(Stage::Requant { quant }) if quant.is_none() => {
                                *quant = Some(q);
                            }
                            _ => stages.push(Stage::Requant { quant: Some(q) }),
                        }
                    }
                }
                *current_quant = Some(q);
            } else if let Some(pool) = any.downcast_ref::<MaxPool2d>() {
                flush!();
                stages.push(Stage::MaxPool {
                    window: pool.window(),
                    stride: pool.stride(),
                });
            } else if let Some(pool) = any.downcast_ref::<AvgPool2d>() {
                flush!();
                stages.push(Stage::AvgPool {
                    window: pool.window(),
                    stride: pool.stride(),
                });
            } else if any.downcast_ref::<Flatten>().is_some() {
                flush!();
                stages.push(Stage::Flatten);
            } else if let Some(res) = any.downcast_ref::<Residual>() {
                flush!();
                let mut q_body = *current_quant;
                let body = self.compile_stack(res.body(), &mut q_body)?;
                let mut q_skip = *current_quant;
                let shortcut = self.compile_stack(res.shortcut_layers(), &mut q_skip)?;
                // After an add, the signal is analog until the next requant.
                *current_quant = None;
                stages.push(Stage::Residual { body, shortcut });
            } else if layer.name() == "identity" || layer.name() == "dropout" {
                // No-ops at inference time.
            } else {
                return Err(CompileError::UnsupportedLayer(layer.name().to_string()));
            }
        }
        flush!();
        Ok(stages)
    }

    fn finalize(
        &mut self,
        p: PendingSynapse,
        current_quant: &mut Option<ActivationQuantizer>,
    ) -> Result<SynapticStage, CompileError> {
        let in_quant = current_quant.ok_or_else(|| {
            CompileError::UnquantizedInput(format!("{:?}", p.kind))
        })?;
        let (in_dim, out_dim) = match p.kind {
            SynKind::Conv { spec, in_c, out_c } => (spec.kernel * spec.kernel * in_c, out_c),
            SynKind::Fc { in_dim, out_dim } => (in_dim, out_dim),
        };
        // Recover the fixed-point codes (idempotent for already-clustered
        // weights) and program the crossbar tiles. With an inactive
        // reliability config this is exactly `TiledMatrix::from_codes`.
        let q = cluster_weights(&p.weight, self.config.weight_bits);
        let layer = self.layer;
        self.layer += 1;
        let (tiles, stats) = TiledMatrix::from_codes_reliable(
            &q.codes,
            in_dim,
            out_dim,
            self.config.crossbar_size,
            self.config.device,
            &self.config.reliability,
            layer,
            self.rng.as_deref_mut(),
        );
        self.degradation.push(stats);
        // The signal leaving this stage is quantized (or analog when no
        // counter follows, e.g. the final logits or a pre-add conv).
        *current_quant = p.out_quant;
        Ok(SynapticStage {
            kind: p.kind,
            tiles,
            weight_scale: q.scale,
            bias: p.bias,
            in_quant,
            rectify: p.rectify,
            out_quant: p.out_quant,
            codes: q.codes,
        })
    }
}

fn fold_batchnorm(p: &mut PendingSynapse, a: &[f32], b: &[f32]) -> Result<(), CompileError> {
    let out = match p.kind {
        SynKind::Conv { out_c, .. } => out_c,
        // BN after FC does not occur in the model zoo.
        SynKind::Fc { .. } => return Err(CompileError::DanglingBatchNorm),
    };
    assert_eq!(a.len(), out, "batchnorm width mismatch");
    let per_filter = p.weight.len() / out;
    let ws = p.weight.as_mut_slice();
    for f in 0..out {
        for w in &mut ws[f * per_filter..(f + 1) * per_filter] {
            *w *= a[f];
        }
        p.bias[f] = a[f] * p.bias[f] + b[f];
    }
    Ok(())
}

impl SynapticStage {
    /// The stage's readout expressions.
    pub(crate) fn readout(&self) -> Readout<'_> {
        Readout {
            weight_scale: self.weight_scale,
            in_scale: self.in_quant.scale(),
            bias: &self.bias,
            rectify: self.rectify,
            out_quant: self.out_quant,
        }
    }

    /// Runs the stage on a true-unit activation tensor `[1, …]`, returning
    /// the true-unit output; `read` says where the synaptic sums come from.
    ///
    /// The input is lowered to a `rows × ncols` matrix whose column `j`
    /// drives the synapses once: the im2col patches of a convolution, the
    /// vector itself (one column) for a fully connected layer. Output `f`
    /// of column `j` lands at `f·ncols + j`, the `[1, out, oh, ow]` or
    /// `[1, out]` layout.
    fn forward(&self, x: &Tensor, mut read: SynapseRead<'_, '_>) -> Tensor {
        let in_scale = self.in_quant.scale();
        let readout = self.readout();
        let patches;
        let (cs, ncols, dims) = match self.kind {
            SynKind::Conv { spec, in_c, out_c } => {
                assert_eq!(x.dims()[1], in_c, "conv input channel mismatch");
                let oh = spec.output_size(x.dims()[2]);
                let ow = spec.output_size(x.dims()[3]);
                patches = im2col(x, spec);
                (patches.as_slice(), oh * ow, vec![1, out_c, oh, ow])
            }
            SynKind::Fc { in_dim, out_dim } => {
                assert_eq!(x.len(), in_dim, "fc input length mismatch");
                (x.as_slice(), 1, vec![1, out_dim])
            }
        };
        let rows = self.tiles.in_dim();
        let out_dim = self.tiles.out_dim();
        let mut out = vec![0.0f32; out_dim * ncols];
        let mut counts = vec![0.0f32; rows];
        for j in 0..ncols {
            for (i, c) in counts.iter_mut().enumerate() {
                *c = (cs[i * ncols + j] * in_scale).round();
            }
            match &mut read {
                SynapseRead::Crossbar(rng) => {
                    let y = self.tiles.matvec_code_units(&counts, rng.as_deref_mut());
                    for (f, yf) in y.into_iter().enumerate() {
                        out[f * ncols + j] = readout.output(f, yf);
                    }
                }
                SynapseRead::Exact => {
                    for (f, row) in self.codes.chunks_exact(rows).enumerate() {
                        let yf: f32 = row.iter().zip(&counts).map(|(&c, &x)| c as f32 * x).sum();
                        out[f * ncols + j] = readout.output(f, yf);
                    }
                }
            }
        }
        self.record_output_telemetry(&out);
        Tensor::from_vec(out, dims)
    }

    /// Tallies output spike counts and counter saturation for telemetry.
    ///
    /// The IFC emits one spike per output LSB, so the spike count of each
    /// neuron is its quantized output times the output scale; the counter
    /// saturated when it reached `2^M − 1`. Tallied locally per stage call
    /// and flushed as three counter adds, never per element.
    fn record_output_telemetry(&self, out: &[f32]) {
        if !qsnc_telemetry::enabled() {
            return;
        }
        if let (true, Some(q)) = (self.rectify, self.out_quant) {
            let max = q.max_level() as f32;
            let mut spikes = 0u64;
            let mut saturated = 0u64;
            for &v in out {
                let count = (v * q.scale()).round();
                spikes += count as u64;
                if count >= max {
                    saturated += 1;
                }
            }
            qsnc_telemetry::counter_add("snc.spikes", spikes);
            qsnc_telemetry::counter_add("snc.ifc.conversions", out.len() as u64);
            qsnc_telemetry::counter_add("snc.ifc.saturated", saturated);
        }
    }
}

/// Where a synaptic stage's sums `Σ code · count` come from.
enum SynapseRead<'a, 'r> {
    /// The programmed crossbars' analog conductance read, with read noise
    /// when the rng is given.
    Crossbar(&'a mut Option<&'r mut TensorRng>),
    /// The exact integer dot product over the codes. Every partial sum is an
    /// integer below `2^24` on deployable networks, so the `f32` sums are
    /// exact: this is the oracle the integer fast-path engine is
    /// bit-identical to, spike telemetry included.
    Exact,
}

/// Same tie-breaking as [`Tensor::argmax`] (lowest index wins), for the
/// buffer-based fast path that never materializes a logits tensor.
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

fn run_stages(stages: &[Stage], x: &Tensor, rng: &mut Option<&mut TensorRng>) -> Tensor {
    run_stages_impl(stages, x, rng, false)
}

/// [`run_stages`] with exact-arithmetic synapses (no conductance
/// simulation, no noise): the bit-exactness oracle for the integer engine.
fn run_stages_reference(stages: &[Stage], x: &Tensor) -> Tensor {
    run_stages_impl(stages, x, &mut None, true)
}

fn run_stages_impl(
    stages: &[Stage],
    x: &Tensor,
    rng: &mut Option<&mut TensorRng>,
    exact: bool,
) -> Tensor {
    let mut h = x.clone();
    for stage in stages {
        h = match stage {
            Stage::Synaptic(s) if exact => s.forward(&h, SynapseRead::Exact),
            Stage::Synaptic(s) => s.forward(&h, SynapseRead::Crossbar(rng)),
            Stage::MaxPool { window, stride } => {
                let mut pool = MaxPool2d::new(*window, *stride);
                pool.forward(&h, qsnc_nn::Mode::Eval)
            }
            Stage::AvgPool { window, stride } => {
                let mut pool = AvgPool2d::new(*window, *stride);
                pool.forward(&h, qsnc_nn::Mode::Eval)
            }
            Stage::Flatten => {
                let n = h.dims()[0];
                let rest: usize = h.dims()[1..].iter().product();
                h.reshape([n, rest])
            }
            Stage::Requant { quant } => {
                let relu = h.relu();
                match quant {
                    Some(q) => q.quantize(&relu),
                    None => relu,
                }
            }
            Stage::Residual { body, shortcut } => {
                let main = run_stages_impl(body, &h, rng, exact);
                let skip = if shortcut.is_empty() {
                    h.clone()
                } else {
                    run_stages_impl(shortcut, &h, rng, exact)
                };
                &main + &skip
            }
        };
    }
    h
}

impl SpikingNetwork {
    /// Lowers a trained, quantized network onto the substrate.
    ///
    /// Pass `rng` to apply device write variation while programming the
    /// crossbars; `None` programs ideal conductances.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the network contains layers the
    /// substrate cannot realize or signals that were never quantized.
    pub fn compile(
        net: &Sequential,
        config: &DeployConfig,
        rng: Option<&mut TensorRng>,
    ) -> Result<Self, CompileError> {
        let _span = qsnc_telemetry::span!("snc.compile");
        // Write noise perturbs the programmed conductances away from the
        // integer codes, so the integer fast path would silently "denoise"
        // the network — only build it for ideal programming. An active
        // reliability layer disqualifies it for the same reason: masked and
        // stuck cells make the conductances diverge from the logical codes.
        let noisy_write = rng.is_some() && config.device.write_sigma > 0.0;
        let mut compiler = Compiler { config, rng, layer: 0, degradation: Vec::new() };
        let mut current = Some(config.input_quantizer);
        let stages = compiler.compile_stack(net.layers(), &mut current)?;
        let degradation = compiler.degradation;
        let engine = if noisy_write || config.reliability.is_active() {
            None
        } else {
            crate::engine::IntEngine::build(&stages, config.input_quantizer)
        };
        if qsnc_telemetry::enabled() {
            let name = if engine.is_some() { "snc.engine.compiled" } else { "snc.engine.fallback" };
            qsnc_telemetry::counter_add(name, 1);
            let mut total = DegradationStats::default();
            for s in &degradation {
                total.merge(s);
            }
            total.publish();
        }
        Ok(SpikingNetwork {
            stages,
            input_quant: config.input_quantizer,
            engine,
            degradation,
        })
    }

    /// Runs spiking inference on a single example `[1, …]`, returning the
    /// analog logits read from the final layer's bitlines.
    ///
    /// Pass `rng` to enable read noise on every crossbar access. Noise-free
    /// inference automatically takes the integer fast path when the network
    /// compiled one (see [`Self::has_fast_path`]); its outputs are
    /// bit-identical to [`Self::infer_reference`].
    ///
    /// # Examples
    ///
    /// ```
    /// use qsnc_memristor::{DeployConfig, SpikingNetwork};
    /// use qsnc_quant::{
    ///     insert_signal_stages, quantize_network_weights, ActivationQuantizer,
    ///     ActivationRegularizer, WeightQuantMethod,
    /// };
    /// use qsnc_tensor::TensorRng;
    ///
    /// // A 4-bit quantized LeNet, ready for the substrate.
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
    ///
    /// // Lower onto 32×32 crossbars and run one image through it.
    /// let snn = SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None)?;
    /// let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
    /// let logits = snn.infer(&x, None);
    /// assert_eq!(logits.dims(), &[1, 10]);
    /// assert_eq!(logits, snn.infer_reference(&x)); // noise-free ⇒ bit-exact
    /// # Ok::<(), qsnc_memristor::CompileError>(())
    /// ```
    pub fn infer(&self, x: &Tensor, rng: Option<&mut TensorRng>) -> Tensor {
        let _span = qsnc_telemetry::span!("snc.infer");
        if rng.is_none() {
            if let Some(engine) = &self.engine {
                let mut out = Vec::new();
                let shape = engine.infer_batch_into(x, &mut out);
                return Tensor::from_vec(out, shape.dims());
            }
        }
        assert!(
            !self.is_artifact_only(),
            "artifact-loaded network has no float substrate: noisy inference \
             requires a network compiled in-process from the training stack"
        );
        let coded = self.input_quant.quantize(x);
        let mut rng = rng;
        run_stages(&self.stages, &coded, &mut rng)
    }

    /// Noise-free **batched** inference into a caller-owned buffer: `xs` is
    /// a `[B, …]` tensor of `B` examples and the per-example output signals
    /// are written back-to-back into `out` (`out.len() / B` floats each, in
    /// the same layout as [`Self::infer`]'s flattened output tensor).
    ///
    /// On the integer fast path every example is bit-identical to
    /// [`Self::infer_reference`] — FC stages fold the batch into a single
    /// integer GEMM, conv stages stream examples through shared scratch
    /// buffers — and a warm fixed-batch-size call performs **zero heap
    /// allocations**. Without a fast path the examples fall back to
    /// [`Self::infer`] one at a time. Returns `true` when the fast path
    /// ran. This is the one allocation-free entry point: the `qsnc-serve`
    /// event loops drive it, and [`Self::evaluate`] calls it on `[1, …]`
    /// examples.
    pub fn infer_batch_into(&self, xs: &Tensor, out: &mut Vec<f32>) -> bool {
        let batch = xs.dims()[0];
        if batch == 0 {
            out.clear();
            return self.engine.is_some();
        }
        match &self.engine {
            Some(engine) => {
                let _span = qsnc_telemetry::span!("snc.infer");
                engine.infer_batch_into(xs, out);
                true
            }
            None => {
                let stride: usize = xs.dims()[1..].iter().product();
                let mut ex_dims = vec![1usize];
                ex_dims.extend_from_slice(&xs.dims()[1..]);
                let mut example = Tensor::from_vec(vec![0.0; stride], ex_dims);
                out.clear();
                for b in 0..batch {
                    example
                        .as_mut_slice()
                        .copy_from_slice(&xs.as_slice()[b * stride..(b + 1) * stride]);
                    let logits = self.infer(&example, None);
                    out.extend_from_slice(logits.as_slice());
                }
                false
            }
        }
    }

    /// Whether the integer fast-path engine was compiled for this network.
    pub fn has_fast_path(&self) -> bool {
        self.engine.is_some()
    }

    /// Builds a network around an already-compiled integer engine with no
    /// float substrate behind it — the form [`crate::artifact`] loading
    /// produces. Only the noise-free engine entry points work on such a
    /// network; the float paths panic (see [`Self::is_artifact_only`]).
    pub(crate) fn from_engine(
        engine: crate::engine::IntEngine,
        input_quant: ActivationQuantizer,
    ) -> SpikingNetwork {
        SpikingNetwork {
            stages: Vec::new(),
            input_quant,
            engine: Some(engine),
            degradation: Vec::new(),
        }
    }

    /// The compiled stage list (empty for artifact-loaded networks).
    pub(crate) fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The compiled integer engine, when one exists.
    pub(crate) fn engine(&self) -> Option<&crate::engine::IntEngine> {
        self.engine.as_ref()
    }

    /// `true` when this network was loaded from a deployment artifact and
    /// therefore has **only** the integer fast path: [`Self::infer`],
    /// [`Self::infer_batch_into`] and [`Self::evaluate`] without noise all
    /// work; noisy inference and [`Self::infer_reference`] panic because the
    /// float substrate was never shipped.
    pub fn is_artifact_only(&self) -> bool {
        self.stages.is_empty() && self.engine.is_some()
    }

    /// The whole-network degradation report: what deploying onto the
    /// configured (possibly faulty) hardware cost, merged over all synaptic
    /// layers. All-zero for ideal hardware.
    pub fn degradation(&self) -> DegradationStats {
        let mut total = DegradationStats::default();
        for s in &self.degradation {
            total.merge(s);
        }
        total
    }

    /// Per-synaptic-layer degradation reports, in compile order.
    pub fn layer_degradation(&self) -> &[DegradationStats] {
        &self.degradation
    }

    /// Exact-arithmetic float oracle: the same float pipeline as
    /// [`Self::infer`] with ideal synapses computed as exact integer dot
    /// products instead of simulated conductance reads. The integer fast
    /// path is bit-identical to this on every network it compiles for;
    /// the conductance simulation differs from it only by the analog read
    /// approximation. Like both, it records the `snc.spikes` and
    /// `snc.ifc.{conversions,saturated}` tallies of every counter stage,
    /// before any pooling.
    ///
    /// # Panics
    ///
    /// Panics on an artifact-loaded network ([`Self::is_artifact_only`]):
    /// the float substrate is not part of the deployment artifact.
    pub fn infer_reference(&self, x: &Tensor) -> Tensor {
        assert!(
            !self.is_artifact_only(),
            "artifact-loaded network has no float substrate: infer_reference \
             requires a network compiled in-process from the training stack"
        );
        let coded = self.input_quant.quantize(x);
        run_stages_reference(&self.stages, &coded)
    }

    /// Classification accuracy over batches (examples run one at a time, as
    /// the physical pipeline would).
    ///
    /// Without a noise `rng` the examples are independent, so they are
    /// sharded across the [`qsnc_tensor::parallel`] worker threads, each
    /// running `infer` against the shared (immutable) network; exact integer
    /// correct counts are summed, so the accuracy is identical at any thread
    /// count. With `rng` the single noise stream is inherently sequential and
    /// the examples run serially in order, preserving reproducibility of
    /// seeded noisy evaluations.
    pub fn evaluate(&self, batches: &[Batch], mut rng: Option<&mut TensorRng>) -> f32 {
        // Flat (batch, example) index — cheap to shard, and no per-example
        // tensor slicing up front.
        let index: Vec<(usize, usize)> = batches
            .iter()
            .enumerate()
            .flat_map(|(bi, b)| (0..b.labels.len()).map(move |ei| (bi, ei)))
            .collect();
        if index.is_empty() {
            return 0.0;
        }
        let total = index.len();
        // One example tensor and one logits buffer per run, rebuilt only
        // when the batch shape changes: the loop body itself stays
        // allocation-free whenever the fast path is compiled.
        let eval_run = |shard: &[(usize, usize)], rng: &mut Option<&mut TensorRng>| -> usize {
            let mut example: Option<Tensor> = None;
            let mut logits: Vec<f32> = Vec::new();
            let mut correct = 0usize;
            for &(bi, ei) in shard {
                let batch = &batches[bi];
                let dims = batch.images.dims();
                let stride: usize = dims[1..].iter().product();
                if example.as_ref().is_none_or(|t| t.dims()[1..] != dims[1..]) {
                    let mut ex_dims = vec![1usize];
                    ex_dims.extend_from_slice(&dims[1..]);
                    example = Some(Tensor::from_vec(vec![0.0; stride], ex_dims));
                }
                let ex = example.as_mut().expect("example tensor just ensured");
                ex.as_mut_slice().copy_from_slice(
                    &batch.images.as_slice()[ei * stride..(ei + 1) * stride],
                );
                let pred = if rng.is_none() && self.engine.is_some() {
                    self.infer_batch_into(ex, &mut logits);
                    argmax_slice(&logits)
                } else {
                    self.infer(ex, rng.as_deref_mut()).argmax()
                };
                if pred == batch.labels[ei] {
                    correct += 1;
                }
            }
            correct
        };
        let correct: usize = if rng.is_some() || parallel::num_threads() == 1 {
            // A noise rng is one sequential stream: stay serial and in order
            // so seeded noisy evaluations reproduce exactly.
            eval_run(&index, &mut rng)
        } else {
            parallel::par_map_shards(&index, |_, shard| eval_run(shard, &mut None))
                .into_iter()
                .sum()
        };
        correct as f32 / total as f32
    }

    /// Total crossbars programmed (matches Eq. 1 summed over layers).
    pub fn crossbar_count(&self) -> usize {
        fn count(stages: &[Stage]) -> usize {
            stages
                .iter()
                .map(|s| match s {
                    Stage::Synaptic(s) => s.tiles.crossbar_count(),
                    Stage::Residual { body, shortcut } => count(body) + count(shortcut),
                    _ => 0,
                })
                .sum()
        }
        count(&self.stages)
    }

    /// Total memristor devices programmed.
    pub fn device_count(&self) -> usize {
        fn count(stages: &[Stage]) -> usize {
            stages
                .iter()
                .map(|s| match s {
                    Stage::Synaptic(s) => s.tiles.device_count(),
                    Stage::Residual { body, shortcut } => count(body) + count(shortcut),
                    _ => 0,
                })
                .sum()
        }
        count(&self.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnc_nn::Mode;
    use qsnc_quant::{
        insert_signal_stages, quantize_network_weights, ActivationRegularizer, WeightQuantMethod,
    };

    /// Builds a small quantized LeNet ready for deployment.
    fn deployable_lenet(
        bits: u32,
        rng: &mut TensorRng,
    ) -> (Sequential, qsnc_quant::QuantSwitch) {
        let mut net = qsnc_nn::models::lenet(0.25, 10, rng);
        let (switch, _) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::neuron_convergence(bits),
            0.0,
            ActivationQuantizer::new(bits),
        );
        switch.set_enabled(true);
        quantize_network_weights(&mut net, bits, WeightQuantMethod::Clustered);
        (net, switch)
    }

    #[test]
    fn compile_lenet_succeeds() {
        let mut rng = TensorRng::seed(0);
        let (net, _switch) = deployable_lenet(4, &mut rng);
        let config = DeployConfig::paper(4, 4);
        let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
        assert!(snn.crossbar_count() > 0);
        assert!(snn.device_count() > 0);
    }

    #[test]
    fn spiking_matches_software_quantized_exactly_when_ideal() {
        let mut rng = TensorRng::seed(1);
        let (mut net, _switch) = deployable_lenet(4, &mut rng);
        let config = DeployConfig::paper(4, 4);
        let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");

        for seed in 0..5u64 {
            let mut drng = TensorRng::seed(seed + 100);
            let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);
            // Software path: input quantized the same way.
            let coded = config.input_quantizer.quantize(&x);
            let sw = net.forward(&coded, Mode::Eval);
            let hw = snn.infer(&x, None);
            assert_eq!(sw.dims(), hw.dims());
            for (a, b) in sw.iter().zip(hw.iter()) {
                assert!(
                    (a - b).abs() < 2e-2 * (1.0 + a.abs()),
                    "software {a} vs hardware {b}"
                );
            }
        }
    }

    #[test]
    fn compile_resnet_succeeds_and_runs() {
        let mut rng = TensorRng::seed(2);
        let mut net = qsnc_nn::models::resnet(0.25, 10, &mut rng);
        // Exercise batch norm with a couple of training steps first.
        let x = qsnc_tensor::init::uniform([2, 3, 32, 32], 0.0, 1.0, &mut rng);
        net.forward(&x, Mode::Train);
        let (switch, _) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::neuron_convergence(4),
            0.0,
            ActivationQuantizer::new(4),
        );
        switch.set_enabled(true);
        quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
        let config = DeployConfig::paper(4, 4);
        let snn = SpikingNetwork::compile(&net, &config, None).expect("compile resnet");
        let x1 = qsnc_tensor::init::uniform([1, 3, 32, 32], 0.0, 1.0, &mut rng);
        let logits = snn.infer(&x1, None);
        assert_eq!(logits.dims(), &[1, 10]);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unquantized_network_fails_to_compile() {
        let mut rng = TensorRng::seed(3);
        let net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
        // No signal stages: conv2 is driven by an unquantized ReLU output.
        let config = DeployConfig::paper(4, 4);
        let err = SpikingNetwork::compile(&net, &config, None).unwrap_err();
        assert!(matches!(err, CompileError::UnquantizedInput(_)), "{err}");
    }

    #[test]
    fn write_noise_changes_outputs() {
        let mut rng = TensorRng::seed(4);
        let (net, _switch) = deployable_lenet(4, &mut rng);
        let mut config = DeployConfig::paper(4, 4);
        config.device = config.device.with_noise(0.1, 0.0);
        let mut noise_rng = TensorRng::seed(5);
        let snn_noisy =
            SpikingNetwork::compile(&net, &config, Some(&mut noise_rng)).expect("compile");
        let snn_ideal =
            SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None).expect("compile");
        let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
        let a = snn_noisy.infer(&x, None);
        let b = snn_ideal.infer(&x, None);
        assert_ne!(a, b, "write noise should perturb logits");
    }

    #[test]
    fn faulty_deploy_disables_fast_path_and_reports_degradation() {
        use crate::fault::{FaultRates, ProgramPolicy};
        let mut rng = TensorRng::seed(7);
        let (net, _switch) = deployable_lenet(4, &mut rng);
        let ideal = DeployConfig::paper(4, 4);
        let snn_ideal = SpikingNetwork::compile(&net, &ideal, None).expect("compile");
        assert!(snn_ideal.has_fast_path());
        assert!(snn_ideal.degradation().is_clean());

        let mut faulty = DeployConfig::paper(4, 4);
        faulty.reliability =
            ReliabilityConfig::faulty(FaultRates::stuck(0.02), 9, ProgramPolicy::Remap);
        let snn_faulty = SpikingNetwork::compile(&net, &faulty, None).expect("compile");
        assert!(
            !snn_faulty.has_fast_path(),
            "integer engine must not compile against faulty conductances"
        );
        let d = snn_faulty.degradation();
        assert!(d.cells > 0, "2% stuck rate produced no faults");
        assert_eq!(
            snn_faulty.layer_degradation().len(),
            net.synaptic_descriptors().len()
        );
        // Stats are the merge of the per-layer reports.
        let mut merged = DegradationStats::default();
        for s in snn_faulty.layer_degradation() {
            merged.merge(s);
        }
        assert_eq!(d, merged);
        let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
        let logits = snn_faulty.infer(&x, None);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn faulty_deploys_are_deterministic_for_a_seed() {
        use crate::fault::{FaultRates, ProgramPolicy};
        let mut rng = TensorRng::seed(8);
        let (net, _switch) = deployable_lenet(4, &mut rng);
        let mut config = DeployConfig::paper(4, 4);
        config.reliability =
            ReliabilityConfig::faulty(FaultRates::stuck(0.03), 21, ProgramPolicy::Remap);
        let a = SpikingNetwork::compile(&net, &config, None).expect("compile");
        let b = SpikingNetwork::compile(&net, &config, None).expect("compile");
        assert_eq!(a.degradation(), b.degradation());
        let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
        assert_eq!(a.infer(&x, None), b.infer(&x, None));
    }

    #[test]
    fn crossbar_count_matches_eq1_sum() {
        use crate::mapping::{crossbars_for_layer, network_geometry};
        let mut rng = TensorRng::seed(6);
        let (net, _switch) = deployable_lenet(4, &mut rng);
        let config = DeployConfig::paper(4, 4);
        let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
        let descs = net.synaptic_descriptors();
        let expected: usize = descs.iter().map(|d| crossbars_for_layer(d, 32)).sum();
        assert_eq!(snn.crossbar_count(), expected);
        let geo = network_geometry(&descs, 32);
        assert_eq!(geo.iter().map(|g| g.crossbars).sum::<usize>(), expected);
    }
}
