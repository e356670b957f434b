//! Quickstart: train a small LeNet, quantize it with the paper's method,
//! and deploy it on the simulated memristor spiking system.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use qsnc::core::{deploy_to_snc, train_quant_aware, QuantConfig, TrainSettings};
use qsnc::data::synth_digits;
use qsnc::nn::ModelKind;
use qsnc::tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A deterministic synthetic digit task (MNIST stand-in).
    let mut rng = TensorRng::seed(42);
    let (train, test) = synth_digits(4000, &mut rng).split(0.8);
    println!("dataset: {} train / {} test examples", train.len(), test.len());

    // 2. Quantization-aware training: Neuron Convergence regularization,
    //    straight-through fine-tune, Weight Clustering — all at 4 bits.
    let quant = QuantConfig::paper(4, 4);
    let settings = TrainSettings {
        epochs: 4,
        verbose: true,
        ..TrainSettings::default()
    };
    println!("\ntraining 4-bit quantization-aware LeNet…");
    let model = train_quant_aware(ModelKind::Lenet, 0.5, &settings, &quant, &train, &test, 1);
    println!("fp32-signal accuracy : {:.2}%", model.float_accuracy * 100.0);
    println!("4-bit quantized acc  : {:.2}%", model.quantized_accuracy * 100.0);

    // 3. Deploy on the memristor-crossbar spiking substrate.
    let snn = deploy_to_snc(&model.net, &quant, None)?;
    println!(
        "\ndeployed on {} crossbars ({} memristor devices)",
        snn.crossbar_count(),
        snn.device_count()
    );
    let sample = test.batches(100, None);
    let hw_acc = snn.evaluate(&sample[..1], None);
    println!("spiking-system accuracy on 100 examples: {:.2}%", hw_acc * 100.0);

    // 4. Hardware payoff versus the 8-bit dynamic fixed-point baseline.
    let r8 = qsnc::core::hardware_report(&model.net, 8, 8);
    let r4 = qsnc::core::hardware_report(&model.net, 4, 4);
    println!("\nhardware model (this network):");
    println!(
        "  8-bit baseline : {:.2} MHz, {:.2} µJ, {:.2} mm²",
        r8.speed_mhz, r8.energy_uj, r8.area_mm2
    );
    println!(
        "  4-bit proposed : {:.2} MHz, {:.2} µJ, {:.2} mm²",
        r4.speed_mhz, r4.energy_uj, r4.area_mm2
    );
    println!(
        "  speedup {:.1}×, energy saving {:.1}%, area saving {:.1}%",
        r4.speedup_over(&r8),
        r4.energy_saving_over(&r8) * 100.0,
        r4.area_saving_over(&r8) * 100.0
    );
    Ok(())
}
