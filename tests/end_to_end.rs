//! Cross-crate integration tests: the full train → regularize → quantize →
//! deploy pipeline, exercised end to end on the digit task.

use qsnc::core::{
    deploy_to_snc, direct_quantize, train_float, train_quant_aware, QuantConfig, TrainSettings,
};
use qsnc::data::synth_digits;
use qsnc::memristor::{crossbars_for_layer, HwModel};
use qsnc::nn::ModelKind;
use qsnc::tensor::TensorRng;

fn settings() -> TrainSettings {
    TrainSettings {
        epochs: 3,
        batch_size: 32,
        ..TrainSettings::default()
    }
}

#[test]
fn full_pipeline_digits_4bit() {
    let mut rng = TensorRng::seed(10);
    let (train, test) = synth_digits(1500, &mut rng).split(0.8);
    let quant = QuantConfig {
        finetune_epochs: 1,
        ..QuantConfig::paper(4, 4)
    };
    let model = train_quant_aware(ModelKind::Lenet, 0.5, &settings(), &quant, &train, &test, 3);
    assert!(
        model.quantized_accuracy > 0.85,
        "4-bit quantized accuracy {}",
        model.quantized_accuracy
    );
    // Deployment: software-quantized and spiking accuracies agree.
    let snn = deploy_to_snc(&model.net, &quant, None).expect("deploy");
    let sample = test.batches(50, None);
    let hw_acc = snn.evaluate(&sample[..1], None);
    assert!(
        (hw_acc - model.quantized_accuracy).abs() < 0.1,
        "spiking {hw_acc} vs software {}",
        model.quantized_accuracy
    );
}

#[test]
fn proposed_method_beats_direct_quantization_at_3bit() {
    let mut rng = TensorRng::seed(11);
    let (train, test) = synth_digits(1500, &mut rng).split(0.8);
    let test_batches = test.batches(32, None);
    let calibration = &train.batches(64, None)[0];

    // Direct ("w/o") baseline at 2-bit signals and weights.
    let (mut float_net, float_acc) =
        train_float(ModelKind::Lenet, 0.5, &settings(), &train, &test, 4);
    let (_sw, direct_acc) = direct_quantize(
        &mut float_net,
        &QuantConfig::direct(2, 2),
        calibration,
        &test_batches,
    );

    // Proposed ("w/") flow at the same widths.
    let quant = QuantConfig {
        finetune_epochs: 2,
        ..QuantConfig::paper(2, 2)
    };
    let model = train_quant_aware(ModelKind::Lenet, 0.5, &settings(), &quant, &train, &test, 4);

    assert!(
        model.quantized_accuracy > direct_acc,
        "proposed {} should beat direct {} (float was {float_acc})",
        model.quantized_accuracy,
        direct_acc
    );
}

#[test]
fn deterministic_by_seed() {
    let mut rng_a = TensorRng::seed(12);
    let (train_a, test_a) = synth_digits(400, &mut rng_a).split(0.8);
    let mut rng_b = TensorRng::seed(12);
    let (train_b, test_b) = synth_digits(400, &mut rng_b).split(0.8);
    let s = TrainSettings {
        epochs: 1,
        ..settings()
    };
    let (_, acc_a) = train_float(ModelKind::Lenet, 0.25, &s, &train_a, &test_a, 5);
    let (_, acc_b) = train_float(ModelKind::Lenet, 0.25, &s, &train_b, &test_b, 5);
    assert_eq!(acc_a, acc_b, "same seed must reproduce identical runs");
}

#[test]
fn eq1_crossbar_counts_flow_through_deployment() {
    let mut rng = TensorRng::seed(13);
    let (train, test) = synth_digits(300, &mut rng).split(0.8);
    let s = TrainSettings {
        epochs: 1,
        ..settings()
    };
    let quant = QuantConfig {
        finetune_epochs: 0,
        ..QuantConfig::paper(4, 4)
    };
    let model = train_quant_aware(ModelKind::Lenet, 0.5, &s, &quant, &train, &test, 6);
    let snn = deploy_to_snc(&model.net, &quant, None).expect("deploy");
    let expected: usize = model
        .net
        .synaptic_descriptors()
        .iter()
        .map(|d| crossbars_for_layer(d, 32))
        .sum();
    assert_eq!(snn.crossbar_count(), expected);
}

#[test]
fn hardware_model_reproduces_lenet_paper_rows() {
    let mut rng = TensorRng::seed(14);
    let net = qsnc::nn::models::lenet(1.0, 10, &mut rng);
    let model = HwModel::calibrated();
    let geo = qsnc::memristor::network_geometry(&net.synaptic_descriptors(), 32);
    let base = model.evaluate(&geo, 8, 8);
    let ours4 = model.evaluate(&geo, 4, 4);
    let ours3 = model.evaluate(&geo, 3, 3);
    // Paper Table 5 LeNet rows: 13.9× / 24.4× speedup, 87.9% / 94.3%
    // energy saving, 29.7% / 37.2% area saving.
    assert!((ours4.speedup_over(&base) - 13.9).abs() < 1.0);
    assert!((ours3.speedup_over(&base) - 24.4).abs() < 1.5);
    assert!((ours4.energy_saving_over(&base) - 0.879).abs() < 0.05);
    assert!((ours4.area_saving_over(&base) - 0.297).abs() < 0.03);
}

#[test]
fn device_noise_degrades_gracefully() {
    let mut rng = TensorRng::seed(15);
    let (train, test) = synth_digits(1000, &mut rng).split(0.8);
    let quant = QuantConfig {
        finetune_epochs: 1,
        ..QuantConfig::paper(4, 4)
    };
    let s = TrainSettings {
        epochs: 2,
        ..settings()
    };
    let model = train_quant_aware(ModelKind::Lenet, 0.5, &s, &quant, &train, &test, 7);
    let sample = test.batches(40, None);

    // Ideal deployment.
    let snn = deploy_to_snc(&model.net, &quant, None).expect("deploy");
    let ideal = snn.evaluate(&sample[..1], None);

    // Deployment with strong programming variation.
    let mut cfg = qsnc::memristor::DeployConfig::paper(4, 4);
    cfg.device = cfg.device.with_noise(0.3, 0.0);
    let mut noise_rng = TensorRng::seed(99);
    let snn_noisy = qsnc::memristor::SpikingNetwork::compile(&model.net, &cfg, Some(&mut noise_rng))
        .expect("compile");
    let noisy = snn_noisy.evaluate(&sample[..1], None);

    // Noise can only plausibly hurt; it must not *improve* accuracy by a
    // wide margin, and the system should still be usable.
    assert!(noisy <= ideal + 0.08, "noisy {noisy} vs ideal {ideal}");
    assert!(noisy > 0.2, "noise destroyed the system: {noisy}");
}
