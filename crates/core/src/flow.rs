//! End-to-end experiment flows: training, quantization-aware training,
//! direct post-training quantization, and evaluation.

use crate::config::{QuantConfig, TrainSettings};
use qsnc_data::Dataset;
use qsnc_nn::optim::Sgd;
use qsnc_nn::train::{evaluate, train_epoch, Batch};
use qsnc_nn::{Layer, Mode, ModelKind, Sequential};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    DynamicFixedPoint, QuantSwitch, SignalStage,
};
use qsnc_tensor::{Tensor, TensorRng};

/// A trained network plus its quantization handles.
pub struct QuantizedModel {
    /// The network, with signal stages spliced in.
    pub net: Sequential,
    /// Switch toggling signal quantization across all stages.
    pub switch: QuantSwitch,
    /// Test accuracy with quantization off (fp32 signals).
    pub float_accuracy: f32,
    /// Test accuracy with quantization on (after any weight quantization
    /// requested by the config).
    pub quantized_accuracy: f32,
}

impl std::fmt::Debug for QuantizedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedModel")
            .field("float_accuracy", &self.float_accuracy)
            .field("quantized_accuracy", &self.quantized_accuracy)
            .finish()
    }
}

/// Trains a plain fp32 model of the given kind; returns the network and
/// its test accuracy (the "Ideal Acc." of Table 1).
pub fn train_float(
    kind: ModelKind,
    width: f32,
    settings: &TrainSettings,
    train_data: &Dataset,
    test_data: &Dataset,
    seed: u64,
) -> (Sequential, f32) {
    let mut rng = TensorRng::seed(seed);
    let mut net = qsnc_nn::models::build_model(kind, width, train_data.classes(), &mut rng);
    let test_batches = test_data.batches(settings.batch_size, None);
    fit(&mut net, settings, train_data, &test_batches, &mut rng);
    let acc = evaluate(&mut net, &test_batches);
    (net, acc)
}

/// The one training loop: `settings.epochs` epochs of SGD with momentum
/// over the shuffled training batches, the learning rate multiplied by
/// `lr_decay` before every `lr_decay_every`-th epoch.
///
/// After each epoch, when verbose, it evaluates `test_batches` and prints
/// one progress line to stderr (test accuracy reads `NaN` on an empty test
/// set). When telemetry is recording it appends the `train.*` series (the
/// rate the epoch ran with as `train.lr`; `train.test_accuracy` only when
/// it was evaluated) and the epoch's activation-saturation rate of the QAT
/// signal stages (`quant.qat.saturation_rate`, the quantity Eq. 3 drives
/// down). The saturation statistics are then cleared, so an epoch never
/// aggregates an earlier one.
fn fit(
    net: &mut Sequential,
    settings: &TrainSettings,
    train_data: &Dataset,
    test_batches: &[Batch],
    rng: &mut TensorRng,
) {
    let mut opt = Sgd::with_momentum(settings.lr, settings.momentum, settings.weight_decay);
    let train_batches = train_data.batches(settings.batch_size, Some(rng));
    for epoch in 0..settings.epochs {
        if epoch > 0 && settings.lr_decay != 1.0 && epoch % settings.lr_decay_every == 0 {
            opt.set_learning_rate(opt.learning_rate() * settings.lr_decay);
        }
        let stats = train_epoch(net, &mut opt, &train_batches, epoch);
        let test_acc = settings.verbose.then(|| {
            if test_batches.is_empty() {
                f32::NAN
            } else {
                evaluate(net, test_batches)
            }
        });
        if let Some(acc) = test_acc {
            eprintln!(
                "epoch {:>3}  loss {:.4} (data {:.4} + reg {:.4})  train acc {:.2}%  test acc {:.2}%",
                epoch,
                stats.loss,
                stats.data_loss,
                stats.reg_loss,
                stats.accuracy * 100.0,
                acc * 100.0
            );
        }
        if qsnc_telemetry::enabled() {
            let epoch = epoch as u64;
            qsnc_telemetry::record_series("train.loss", epoch, stats.loss as f64);
            qsnc_telemetry::record_series("train.data_loss", epoch, stats.data_loss as f64);
            qsnc_telemetry::record_series("train.reg_loss", epoch, stats.reg_loss as f64);
            qsnc_telemetry::record_series("train.accuracy", epoch, stats.accuracy as f64);
            qsnc_telemetry::record_series("train.lr", epoch, opt.learning_rate() as f64);
            if let Some(acc) = test_acc.filter(|a| !a.is_nan()) {
                qsnc_telemetry::record_series("train.test_accuracy", epoch, acc as f64);
            }
            if let Some(rate) = qsnc_quant::network_saturation_rate(net) {
                qsnc_telemetry::record_series("quant.qat.saturation_rate", epoch, rate as f64);
            }
        }
        qsnc_quant::reset_network_saturation(net);
    }
}

/// Applies `f` to every [`SignalStage`] of the network, in forward order
/// (recursing through residual blocks).
pub fn visit_signal_stages(net: &mut Sequential, mut f: impl FnMut(&mut SignalStage)) {
    fn walk(stack: &mut [Box<dyn Layer>], f: &mut impl FnMut(&mut SignalStage)) {
        for layer in stack {
            if let Some(stage) = layer.as_any_mut().downcast_mut::<SignalStage>() {
                f(stage);
            } else {
                for inner in layer.inner_stacks_mut() {
                    walk(inner, f);
                }
            }
        }
    }
    walk(net.layers_mut(), &mut f);
}

/// Largest signal observed at each stage over a calibration batch, in
/// forward order. Run with the quantization switch off.
pub fn calibrate_stage_maxima(net: &mut Sequential, calibration: &Batch) -> Vec<f32> {
    net.forward(&calibration.images, Mode::Eval);
    let mut maxima = Vec::new();
    visit_signal_stages(net, |stage| {
        let max = stage.output_tap().map_or(0.0, |t| t.max()).max(0.0);
        maxima.push(max);
    });
    maxima
}

/// Trains a quantization-aware model per the paper's proposed flow:
/// signal stages with the configured regularizer are spliced in, the model
/// trains with quantization **off** (Eq. 2's regularized loss), weights are
/// quantized per the config, and an optional straight-through fine-tune
/// runs with quantization **on**.
pub fn train_quant_aware(
    kind: ModelKind,
    width: f32,
    settings: &TrainSettings,
    quant: &QuantConfig,
    train_data: &Dataset,
    test_data: &Dataset,
    seed: u64,
) -> QuantizedModel {
    let mut rng = TensorRng::seed(seed);
    let mut net = qsnc_nn::models::build_model(kind, width, train_data.classes(), &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::new(quant.regularizer, quant.activation_bits, quant.alpha),
        quant.lambda,
        ActivationQuantizer::new(quant.activation_bits),
        );
    // Phase 1: regularized training, quantization off.
    let test_batches = test_data.batches(settings.batch_size, None);
    fit(&mut net, settings, train_data, &test_batches, &mut rng);
    let float_accuracy = evaluate(&mut net, &test_batches);

    // Phase 2: optional straight-through fine-tune with quantization on.
    switch.set_enabled(true);
    if quant.finetune_epochs > 0 {
        let ft = TrainSettings {
            epochs: quant.finetune_epochs,
            lr: settings.lr * 0.1,
            ..*settings
        };
        fit(&mut net, &ft, train_data, &test_batches, &mut rng);
    }

    // Phase 3: weight quantization (after fine-tuning, so deployed weights
    // are exactly what is evaluated). `weight_bits >= 32` means "leave
    // weights in floating point" — used by the signals-only experiments.
    if quant.weight_bits < 32 {
        quantize_network_weights(&mut net, quant.weight_bits, quant.weight_method);
    }
    let quantized_accuracy = evaluate(&mut net, &test_batches);
    QuantizedModel {
        net,
        switch,
        float_accuracy,
        quantized_accuracy,
    }
}

/// Post-training quantization of a float-trained network ("w/o" baselines).
///
/// Splices unregularized signal stages, calibrates **one uniform scale**
/// from the largest signal anywhere in the network (the paper's uniform-
/// range constraint), quantizes signals and weights directly, and returns
/// the quantized accuracy.
pub fn direct_quantize(
    net: &mut Sequential,
    quant: &QuantConfig,
    calibration: &Batch,
    test_batches: &[Batch],
) -> (QuantSwitch, f32) {
    let (switch, _) = insert_signal_stages(
        net,
        ActivationRegularizer::new(qsnc_quant::RegKind::None, quant.activation_bits, 0.0),
        0.0,
        ActivationQuantizer::new(quant.activation_bits),
    );
    // Uniform calibration across all layers.
    let maxima = calibrate_stage_maxima(net, calibration);
    let global_max = maxima.iter().copied().fold(0.0f32, f32::max);
    let levels = ((1u32 << quant.activation_bits) - 1) as f32;
    let scale = if global_max > 0.0 { levels / global_max } else { 1.0 };
    let q = ActivationQuantizer::with_scale(quant.activation_bits, scale);
    visit_signal_stages(net, |stage| stage.set_quantizer(q));

    quantize_network_weights(net, quant.weight_bits, quant.weight_method);
    switch.set_enabled(true);
    let acc = evaluate(net, test_batches);
    (switch, acc)
}

/// Quantizes a float-trained network to 8-bit **dynamic fixed point**
/// (Gysel et al., the paper's ref. \[23\] baseline): per-layer fractional
/// lengths for both signals and weights.
pub fn dynamic_fixed_baseline(
    net: &mut Sequential,
    bits: u32,
    calibration: &Batch,
    test_batches: &[Batch],
) -> f32 {
    let (switch, _) = insert_signal_stages(
        net,
        ActivationRegularizer::new(qsnc_quant::RegKind::None, bits.min(16), 0.0),
        0.0,
        ActivationQuantizer::new(bits.min(16)),
    );
    // Per-layer calibration: each stage gets its own power-of-two scale.
    let maxima = calibrate_stage_maxima(net, calibration);
    let mut idx = 0;
    visit_signal_stages(net, |stage| {
        let sample = Tensor::from_slice(&[maxima[idx].max(1e-6)]);
        let fmt = DynamicFixedPoint::fit(bits, &sample);
        // Unsigned signal grid with the same LSB.
        let scale = 1.0 / fmt.lsb();
        stage.set_quantizer(ActivationQuantizer::with_scale(bits.min(16), scale));
        idx += 1;
    });
    // Per-tensor dynamic fixed-point weights.
    for p in net.params() {
        if p.is_weight {
            let (q, _) = qsnc_quant::dynamic_fixed_quantize(p.value, bits);
            *p.value = q;
        }
    }
    switch.set_enabled(true);
    evaluate(net, test_batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnc_data::synth_digits;

    fn quick_settings() -> TrainSettings {
        TrainSettings {
            epochs: 3,
            batch_size: 32,
            ..TrainSettings::default()
        }
    }

    fn small_data(seed: u64) -> (Dataset, Dataset) {
        let mut rng = TensorRng::seed(seed);
        synth_digits(1500, &mut rng).split(0.8)
    }

    #[test]
    fn float_training_reaches_high_accuracy() {
        let (train, test) = small_data(0);
        let (_net, acc) =
            train_float(ModelKind::Lenet, 0.5, &quick_settings(), &train, &test, 1);
        assert!(acc > 0.8, "float accuracy {acc}");
    }

    #[test]
    fn qat_flow_produces_quantized_model() {
        let (train, test) = small_data(1);
        let quant = QuantConfig {
            finetune_epochs: 1,
            ..QuantConfig::paper(4, 4)
        };
        let model = train_quant_aware(
            ModelKind::Lenet,
            0.5,
            &quick_settings(),
            &quant,
            &train,
            &test,
            2,
        );
        assert!(model.float_accuracy > 0.7, "float {}", model.float_accuracy);
        assert!(
            model.quantized_accuracy > 0.7,
            "quantized {}",
            model.quantized_accuracy
        );
        // Weights ended up on a fixed-point grid.
        let mut net = model.net;
        for p in net.params() {
            if p.is_weight {
                let q = qsnc_quant::cluster_weights(p.value, 4);
                assert!(q.mse < 1e-10, "{} off-grid (mse {})", p.name, q.mse);
            }
        }
    }

    #[test]
    fn direct_quantization_degrades_at_low_bits() {
        let (train, test) = small_data(2);
        let settings = quick_settings();
        let (mut net, float_acc) =
            train_float(ModelKind::Lenet, 0.25, &settings, &train, &test, 3);
        let calibration = &train.batches(64, None)[0];
        let test_batches = test.batches(32, None);
        let (_switch, acc2) =
            direct_quantize(&mut net, &QuantConfig::direct(2, 2), calibration, &test_batches);
        // 2-bit direct quantization must hurt a well-trained model.
        assert!(
            acc2 < float_acc - 0.05,
            "2-bit direct acc {acc2} vs float {float_acc}"
        );
    }

    #[test]
    fn visit_signal_stages_sees_all() {
        let mut rng = TensorRng::seed(4);
        let mut net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
        let (_, n) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::neuron_convergence(4),
            0.0,
            ActivationQuantizer::new(4),
        );
        let mut seen = 0;
        visit_signal_stages(&mut net, |_| seen += 1);
        assert_eq!(seen, n);
    }

    #[test]
    fn calibration_maxima_match_stage_count() {
        let mut rng = TensorRng::seed(5);
        let mut net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
        let (_, n) = insert_signal_stages(
            &mut net,
            ActivationRegularizer::neuron_convergence(4),
            0.0,
            ActivationQuantizer::new(4),
        );
        let data = synth_digits(32, &mut rng);
        let batch = &data.batches(32, None)[0];
        let maxima = calibrate_stage_maxima(&mut net, batch);
        assert_eq!(maxima.len(), n);
        assert!(maxima.iter().all(|&m| m >= 0.0));
        assert!(maxima.iter().any(|&m| m > 0.0));
    }
}
