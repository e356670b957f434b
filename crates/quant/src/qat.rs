//! Quantization-aware training: splicing signal stages into a network and
//! rewriting its weights onto the fixed-point grid.
//!
//! The pipeline mirrors the paper's Sec. 3:
//!
//! 1. [`insert_signal_stages`] places a [`SignalStage`] after every ReLU —
//!    the "inter-layer signals". During training the stage adds the
//!    Neuron Convergence penalty `λ·R_g(O^i)` (Eq. 2/3) to the gradient;
//!    at deployment it quantizes the signal to `M`-bit fixed integers with
//!    a straight-through estimator if trained further.
//! 2. [`quantize_network_weights`] rewrites every synaptic weight tensor
//!    with [`cluster_weights`](crate::cluster_weights) (Eq. 6) or the
//!    direct fixed-point baseline.

use crate::activation::ActivationQuantizer;
use crate::regularizer::ActivationRegularizer;
use crate::weight_cluster::{quantize_weights, WeightQuantMethod};
use qsnc_nn::{Layer, Mode, Sequential};
use qsnc_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared switch controlling whether [`SignalStage`]s actually quantize.
///
/// Training per the paper runs with regularization only (quantization off);
/// deployment and evaluation flip quantization on. One controller is shared
/// by every stage spliced into a network.
#[derive(Debug, Clone, Default)]
pub struct QuantSwitch {
    enabled: Arc<AtomicBool>,
}

impl QuantSwitch {
    /// Creates a switch, initially off.
    pub fn new() -> Self {
        QuantSwitch::default()
    }

    /// Turns signal quantization on or off for all connected stages.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Current state.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// A fake-quantization + regularization stage on an inter-layer signal.
///
/// Forward: computes the regularization penalty on the *pre-quantization*
/// signal and (when the [`QuantSwitch`] is on) quantizes it. Backward:
/// straight-through estimator (gradient passes unchanged inside the
/// representable range, is zeroed where the signal was clamped) plus the
/// regularizer's subgradient scaled by `λ`.
///
/// A training forward keeps one byte per signal for backward, not the
/// signal: its regularizer-gradient class (`signal_code`) and the
/// STE clamp bit. Backward is then `(clamped ? 0 : g) + table[class]`,
/// with `table[class] = λ·rg'(o)` evaluated once per call at one value of
/// each class — the same product, bit for bit, as evaluating it per
/// element.
#[derive(Debug, Clone)]
pub struct SignalStage {
    regularizer: ActivationRegularizer,
    lambda: f32,
    quantizer: ActivationQuantizer,
    switch: QuantSwitch,
    /// One `signal_code` per signal of the last Train forward.
    codes: Option<Vec<u8>>,
    last_reg_loss: f32,
    /// Output of the last Eval forward; cleared by a Train forward.
    tap: Option<Tensor>,
    /// Signals seen since the last [`SignalStage::reset_saturation_stats`].
    stat_elements: u64,
    /// Of those, how many sat at or above the range threshold `2^(M−1)`.
    stat_saturated: u64,
}

impl SignalStage {
    /// Creates a stage with regularization weight `lambda` (the paper's
    /// `λ_i`, uniform across layers here) and an `M`-bit quantizer wired to
    /// `switch`.
    pub fn new(
        regularizer: ActivationRegularizer,
        lambda: f32,
        quantizer: ActivationQuantizer,
        switch: QuantSwitch,
    ) -> Self {
        SignalStage {
            regularizer,
            lambda,
            quantizer,
            switch,
            codes: None,
            last_reg_loss: 0.0,
            tap: None,
            stat_elements: 0,
            stat_saturated: 0,
        }
    }

    /// Fraction of signals at or above `2^(M−1)` since the last
    /// [`SignalStage::reset_saturation_stats`] — the quantity the Neuron
    /// Convergence regularizer (Eq. 3) is meant to drive down. Returns
    /// `None` before any forward pass.
    pub fn saturation_rate(&self) -> Option<f32> {
        if self.stat_elements == 0 {
            None
        } else {
            Some(self.stat_saturated as f32 / self.stat_elements as f32)
        }
    }

    /// Clears the running saturation statistics (e.g. between epochs).
    pub fn reset_saturation_stats(&mut self) {
        self.stat_elements = 0;
        self.stat_saturated = 0;
    }

    /// The stage's quantizer.
    pub fn quantizer(&self) -> ActivationQuantizer {
        self.quantizer
    }

    /// Replaces the stage's quantizer (used by per-layer calibration of
    /// the dynamic fixed-point baseline).
    pub fn set_quantizer(&mut self, quantizer: ActivationQuantizer) {
        self.quantizer = quantizer;
    }
}

impl Layer for SignalStage {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "signal-stage"
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.last_reg_loss = self.lambda * self.regularizer.tensor_value(x);
        let theta = self.regularizer.threshold();
        let (mut saturated, mut zeros) = (0u64, 0u64);
        // `u32` tallies per block vectorize four to a register, `u64` two.
        for block in x.as_slice().chunks(1 << 30) {
            let (mut s, mut z) = (0u32, 0u32);
            for &v in block {
                s += (v.abs() >= theta) as u32;
                z += (v == 0.0) as u32;
            }
            saturated += s as u64;
            zeros += z as u64;
        }
        self.stat_elements += x.len() as u64;
        self.stat_saturated += saturated;
        if qsnc_telemetry::enabled() {
            qsnc_telemetry::counter_add("quant.signal.elements", x.len() as u64);
            qsnc_telemetry::counter_add("quant.signal.saturated", saturated);
            qsnc_telemetry::counter_add("quant.signal.zeros", zeros);
        }
        let y = if self.switch.is_enabled() {
            self.quantizer.quantize(x)
        } else {
            x.clone()
        };
        if mode == Mode::Train {
            let upper = self.quantizer.max_level() as f32 / self.quantizer.scale();
            let mut codes = self.codes.take().unwrap_or_default();
            codes.clear();
            codes.extend(x.iter().map(|&v| signal_code(v, theta, upper)));
            self.codes = Some(codes);
            self.tap = None;
        } else {
            self.tap = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let codes = self
            .codes
            .as_ref()
            .expect("signal-stage backward called before training-mode forward");
        assert_eq!(grad.len(), codes.len(), "signal-stage grad length mismatch");
        // STE: the clamp region has zero data gradient, while quantizing.
        let clamp = if self.switch.is_enabled() { CLAMPED } else { 0 };
        let theta = self.regularizer.threshold();
        let mut table = [0.0f32; 8];
        for (class, o) in [
            (ZERO, 0.0),
            (INSIDE, 0.5 * theta),
            (INSIDE | NEGATIVE, -0.5 * theta),
            (OUTSIDE, theta),
            (OUTSIDE | NEGATIVE, -theta),
            (NAN, f32::NAN),
        ] {
            table[class as usize] = self.lambda * self.regularizer.grad(o);
        }
        let data = grad
            .iter()
            .zip(codes)
            .map(|(&g, &code)| {
                let pass = if code & clamp != 0 { 0.0 } else { g };
                pass + table[(code & CLASS) as usize]
            })
            .collect();
        Tensor::from_vec(data, grad.dims())
    }

    fn regularization_loss(&self) -> f32 {
        self.last_reg_loss
    }

    fn output_tap(&self) -> Option<Tensor> {
        self.tap.clone()
    }
}

// `signal_code` layout: bits 0–2 are the regularizer-gradient class,
// bit 3 the STE clamp bit. Within a class `rg'` is one value.
const CLASS: u8 = 0b0111;
/// `o == ±0`: `rg'` is 0 there (the kink).
const ZERO: u8 = 0;
/// `0 < |o| < θ`.
const INSIDE: u8 = 1;
/// `|o| ≥ θ`.
const OUTSIDE: u8 = 2;
/// Added to `INSIDE`/`OUTSIDE` for `o < 0`.
const NEGATIVE: u8 = 4;
/// `o` is NaN: `rg'` is NaN for the kinds that read the sign.
const NAN: u8 = 7;
/// `o < 0` or `o > upper`: the quantizer clamps `o`.
const CLAMPED: u8 = 0b1000;

/// The byte a training forward keeps per signal `o`, for threshold
/// `θ = 2^(M−1)` and quantizer range top `upper`.
#[inline(always)]
fn signal_code(o: f32, theta: f32, upper: f32) -> u8 {
    // Comparisons only, so a loop over it vectorizes; each is false on NaN.
    let a = o.abs();
    let negative = o < 0.0;
    let class = if o.is_nan() {
        NAN
    } else {
        (INSIDE * (o != 0.0 && a < theta) as u8)
            | (OUTSIDE * (a >= theta) as u8)
            | (NEGATIVE * negative as u8)
    };
    class | (CLAMPED * (negative || o > upper) as u8)
}

fn insert_stages_in_stack(
    stack: &mut Vec<Box<dyn Layer>>,
    make_stage: &dyn Fn() -> SignalStage,
) -> usize {
    // Recurse into containers first.
    let mut inserted = 0;
    for layer in stack.iter_mut() {
        for inner in layer.inner_stacks_mut() {
            inserted += insert_stages_in_stack(inner, make_stage);
        }
    }
    // Insert after each ReLU, walking backwards so indices stay valid.
    let positions: Vec<usize> = stack
        .iter()
        .enumerate()
        .filter(|(_, l)| l.name() == "relu")
        .map(|(i, _)| i)
        .collect();
    for &i in positions.iter().rev() {
        stack.insert(i + 1, Box::new(make_stage()));
        inserted += 1;
    }
    inserted
}

/// Splices a [`SignalStage`] after every ReLU in `net` (including ReLUs
/// inside residual blocks), all wired to the returned [`QuantSwitch`].
///
/// Returns `(switch, number_of_stages)`.
pub fn insert_signal_stages(
    net: &mut Sequential,
    regularizer: ActivationRegularizer,
    lambda: f32,
    quantizer: ActivationQuantizer,
) -> (QuantSwitch, usize) {
    let switch = QuantSwitch::new();
    let sw = switch.clone();
    let make = move || SignalStage::new(regularizer, lambda, quantizer, sw.clone());
    let count = insert_stages_in_stack(net.layers_mut(), &make);
    (switch, count)
}

fn visit_stages_mut(stack: &mut Vec<Box<dyn Layer>>, f: &mut dyn FnMut(&mut SignalStage)) {
    for layer in stack.iter_mut() {
        if let Some(stage) = layer.as_any_mut().downcast_mut::<SignalStage>() {
            f(stage);
        } else {
            for inner in layer.inner_stacks_mut() {
                visit_stages_mut(inner, f);
            }
        }
    }
}

/// Mean activation-saturation rate across every [`SignalStage`] in `net`
/// (including stages inside residual blocks), weighted by signal count.
/// Returns `None` if the network has no stages or none has run a forward
/// pass since the last [`reset_network_saturation`].
pub fn network_saturation_rate(net: &mut Sequential) -> Option<f32> {
    let mut elements = 0u64;
    let mut saturated = 0u64;
    visit_stages_mut(net.layers_mut(), &mut |stage| {
        elements += stage.stat_elements;
        saturated += stage.stat_saturated;
    });
    if elements == 0 {
        None
    } else {
        Some(saturated as f32 / elements as f32)
    }
}

/// Clears the saturation statistics of every [`SignalStage`] in `net`
/// (e.g. between epochs, so each epoch's rate is independent).
pub fn reset_network_saturation(net: &mut Sequential) {
    visit_stages_mut(net.layers_mut(), &mut |stage| stage.reset_saturation_stats());
}

/// Per-tensor report from [`quantize_network_weights`].
#[derive(Debug, Clone)]
pub struct WeightQuantReport {
    /// Parameter name, e.g. `"conv1.weight"`.
    pub name: String,
    /// Grid pitch used.
    pub scale: f32,
    /// Mean squared quantization error.
    pub mse: f32,
    /// Number of weights in the tensor.
    pub count: usize,
}

/// Rewrites every synaptic weight tensor of `net` onto the `N`-bit
/// fixed-point grid, in place, returning one report per tensor.
///
/// Biases are left untouched: in the crossbar they are implemented by the
/// IFC offset, not by memristor conductances.
pub fn quantize_network_weights(
    net: &mut Sequential,
    bits: u32,
    method: WeightQuantMethod,
) -> Vec<WeightQuantReport> {
    let mut reports = Vec::new();
    for p in net.params() {
        if !p.is_weight {
            continue;
        }
        let q = quantize_weights(p.value, bits, method);
        reports.push(WeightQuantReport {
            name: p.name.clone(),
            scale: q.scale,
            mse: q.mse,
            count: p.value.len(),
        });
        *p.value = q.tensor;
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regularizer::RegKind;
    use qsnc_nn::layers::{Linear, Relu};
    use qsnc_nn::models;
    use qsnc_tensor::TensorRng;

    fn stage(bits: u32, lambda: f32, on: bool) -> (SignalStage, QuantSwitch) {
        let switch = QuantSwitch::new();
        switch.set_enabled(on);
        let s = SignalStage::new(
            ActivationRegularizer::neuron_convergence(bits),
            lambda,
            ActivationQuantizer::new(bits),
            switch.clone(),
        );
        (s, switch)
    }

    #[test]
    fn stage_passes_through_when_off() {
        let (mut s, _) = stage(4, 0.0, false);
        let x = Tensor::from_slice(&[0.3, 7.6]);
        assert_eq!(s.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn stage_quantizes_when_on() {
        let (mut s, _) = stage(4, 0.0, true);
        let x = Tensor::from_slice(&[0.3, 7.6, 99.0]);
        let y = s.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 8.0, 15.0]);
    }

    #[test]
    fn stage_tap_is_recorded_only_on_eval() {
        let (mut s, _) = stage(4, 0.0, true);
        let x = Tensor::from_slice(&[0.3, 7.6]);
        let y = s.forward(&x, Mode::Eval);
        assert_eq!(s.output_tap(), Some(y));
        s.forward(&x, Mode::Train);
        assert_eq!(s.output_tap(), None);
    }

    #[test]
    fn stage_reports_regularization_loss() {
        let (mut s, _) = stage(4, 0.5, false);
        let x = Tensor::from_slice(&[2.0, 10.0]); // θ=8: 0.1*2=0.2, (10−8)+1.0=3.0
        s.forward(&x, Mode::Train);
        assert!((s.regularization_loss() - 0.5 * 3.2).abs() < 1e-5);
    }

    #[test]
    fn backward_adds_regularizer_gradient() {
        let (mut s, _) = stage(4, 1.0, false);
        let x = Tensor::from_slice(&[2.0, 10.0]);
        s.forward(&x, Mode::Train);
        let g = s.backward(&Tensor::from_slice(&[1.0, 1.0]));
        // Inside range: 1 + α = 1.1; outside: 1 + (1 + α) = 2.1.
        assert!((g.as_slice()[0] - 1.1).abs() < 1e-6);
        assert!((g.as_slice()[1] - 2.1).abs() < 1e-6);
    }

    #[test]
    fn ste_zeroes_clamped_gradient() {
        let (mut s, _) = stage(3, 0.0, true); // range [0, 7]
        let x = Tensor::from_slice(&[3.0, 50.0, -1.0]);
        s.forward(&x, Mode::Train);
        let g = s.backward(&Tensor::from_slice(&[1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn insertion_counts_relus_in_plain_net() {
        let mut rng = TensorRng::seed(0);
        let mut net = models::lenet(0.25, 10, &mut rng);
        let (_, n) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::neuron_convergence(4),
            0.001,
            ActivationQuantizer::new(4),
        );
        assert_eq!(n, 3); // LeNet has 3 ReLUs
    }

    #[test]
    fn insertion_reaches_residual_interiors() {
        let mut rng = TensorRng::seed(1);
        let mut net = models::resnet(0.25, 10, &mut rng);
        let (_, n) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::neuron_convergence(4),
            0.001,
            ActivationQuantizer::new(4),
        );
        // Stem ReLU + 8 blocks × (1 inner + 1 post-add ReLU) = 17.
        assert_eq!(n, 17);
    }

    #[test]
    fn switch_toggles_all_stages() {
        let mut rng = TensorRng::seed(2);
        let mut net = Sequential::new();
        net.push(Linear::new("fc", 4, 4, &mut rng));
        net.push(Relu::new());
        let (switch, _) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::new(RegKind::None, 4, 0.1),
            0.0,
            ActivationQuantizer::new(4),
        );
        let x = qsnc_tensor::init::uniform([1, 4], 0.0, 1.0, &mut rng);
        let off = net.forward(&x, Mode::Eval);
        switch.set_enabled(true);
        let on = net.forward(&x, Mode::Eval);
        // With quantization on, outputs are integers.
        assert!(on.iter().all(|&v| (v - v.round()).abs() < 1e-6));
        assert_ne!(off, on);
    }

    #[test]
    fn weight_quantization_rewrites_in_place() {
        let mut rng = TensorRng::seed(3);
        let mut net = models::lenet(0.25, 10, &mut rng);
        let reports = quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
        assert_eq!(reports.len(), 4); // 2 conv + 2 fc weight tensors
        for p in net.params() {
            if p.is_weight {
                // Every weight sits exactly on some integer multiple of the
                // tensor's scale.
                let report = reports.iter().find(|r| r.name == p.name).unwrap();
                for &v in p.value.iter() {
                    let code = v / report.scale;
                    assert!((code - code.round()).abs() < 1e-4, "{} not on grid", v);
                }
            }
        }
    }

    #[test]
    fn saturation_rate_tracks_forward_passes() {
        let (mut s, _) = stage(3, 0.1, false); // θ = 4
        assert_eq!(s.saturation_rate(), None);
        s.forward(&Tensor::from_slice(&[0.0, 1.0, 4.0, 9.0]), Mode::Eval);
        assert!((s.saturation_rate().unwrap() - 0.5).abs() < 1e-6);
        s.reset_saturation_stats();
        assert_eq!(s.saturation_rate(), None);
    }

    #[test]
    fn neuron_convergence_drives_saturation_down_across_epochs() {
        // Direct check of the paper's Neuron Convergence claim: with the
        // Eq. 3 regularizer active, the fraction of signals at or above
        // 2^(M−1) shrinks as training proceeds.
        use qsnc_nn::optim::Sgd;
        use qsnc_nn::train::{train_epoch, Batch};

        let mut rng = TensorRng::seed(7);
        let mut net = Sequential::new();
        net.push(Linear::new("fc1", 4, 32, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new("fc2", 32, 2, &mut rng));
        // Inflate the first layer so the ReLU output starts well above θ.
        for p in net.params() {
            if p.name == "fc1.weight" {
                *p.value = p.value.map(|w| w * 12.0);
            }
        }
        let (_, n) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::neuron_convergence(3), // θ = 4
            0.02,
            ActivationQuantizer::new(3),
        );
        assert_eq!(n, 1);

        let batches: Vec<Batch> = (0..8)
            .map(|_| {
                let mut images = Vec::new();
                let mut labels = Vec::new();
                for _ in 0..16 {
                    let class = rng.index(2);
                    let center = if class == 0 { -1.0 } else { 1.0 };
                    for _ in 0..4 {
                        images.push(center + rng.normal_with(0.0, 0.3));
                    }
                    labels.push(class);
                }
                Batch::new(Tensor::from_vec(images, [16, 4]), labels)
            })
            .collect();

        let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
        let mut rates = Vec::new();
        for epoch in 0..6 {
            reset_network_saturation(&mut net);
            train_epoch(&mut net, &mut opt, &batches, epoch);
            rates.push(network_saturation_rate(&mut net).unwrap());
        }
        assert!(
            rates[0] > 0.05,
            "test net never saturated, nothing to drive down: {rates:?}"
        );
        assert!(
            rates.last().unwrap() < rates.first().unwrap(),
            "saturation did not decrease: {rates:?}"
        );
    }

    #[test]
    fn clustered_reports_lower_mse_than_direct() {
        let mut rng = TensorRng::seed(4);
        let mut net_a = models::lenet(0.25, 10, &mut rng);
        let mut rng2 = TensorRng::seed(4);
        let mut net_b = models::lenet(0.25, 10, &mut rng2);
        let direct = quantize_network_weights(&mut net_a, 3, WeightQuantMethod::DirectFixedPoint);
        let clustered = quantize_network_weights(&mut net_b, 3, WeightQuantMethod::Clustered);
        let total = |r: &[WeightQuantReport]| -> f32 {
            r.iter().map(|x| x.mse * x.count as f32).sum()
        };
        assert!(total(&clustered) <= total(&direct));
    }
}
