//! Digits end-to-end: the paper's full comparison on the MNIST-class task.
//!
//! Trains a LeNet, then compares — at 5, 4, and 3 bits — the accuracy of
//! direct post-training quantization ("w/o") against the proposed Neuron
//! Convergence + Weight Clustering flow ("w/"), finishing with a spiking
//! deployment of the 4-bit model. This is a scaled-down interactive version
//! of the Table 4 experiment (`cargo run -p qsnc-bench --bin table4` runs
//! the full one).
//!
//! ```bash
//! cargo run --release --example digits_end_to_end
//! ```

use qsnc::core::report::{pct, pct_delta, Table};
use qsnc::core::{
    deploy_to_snc, direct_quantize, train_float, train_quant_aware, QuantConfig, TrainSettings,
};
use qsnc::data::synth_digits;
use qsnc::nn::ModelKind;
use qsnc::tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = TensorRng::seed(7);
    let (train, test) = synth_digits(5000, &mut rng).split(0.8);
    let settings = TrainSettings {
        epochs: 5,
        ..TrainSettings::default()
    };
    let test_batches = test.batches(64, None);
    let calibration = &train.batches(128, None)[0];

    // Ideal fp32 reference.
    let (_float_net, ideal) = train_float(ModelKind::Lenet, 0.5, &settings, &train, &test, 1);
    println!("ideal fp32 accuracy: {}\n", pct(ideal));

    let mut table = Table::new(
        "LeNet on synthetic digits — signals AND weights quantized",
        &["Bits", "w/o (direct)", "w/ (proposed)", "Recovered", "Drop vs ideal"],
    );

    let mut four_bit_model = None;
    for bits in [5u32, 4, 3] {
        // "w/o": fresh float training, then direct uniform quantization.
        let (mut net, _) = train_float(ModelKind::Lenet, 0.5, &settings, &train, &test, 1);
        let (_sw, direct_acc) = direct_quantize(
            &mut net,
            &QuantConfig::direct(bits, bits),
            calibration,
            &test_batches,
        );

        // "w/": the proposed flow at the same widths.
        let quant = QuantConfig::paper(bits, bits);
        let model =
            train_quant_aware(ModelKind::Lenet, 0.5, &settings, &quant, &train, &test, 1);
        table.row(&[
            format!("{bits}-bit"),
            pct(direct_acc),
            pct(model.quantized_accuracy),
            pct(model.quantized_accuracy - direct_acc),
            pct_delta(model.quantized_accuracy, ideal),
        ]);
        if bits == 4 {
            four_bit_model = Some(model);
        }
    }
    println!("{}", table.render());

    // Deploy the 4-bit model on the spiking substrate.
    let model = four_bit_model.expect("4-bit model trained above");
    let quant = QuantConfig::paper(4, 4);
    let snn = deploy_to_snc(&model.net, &quant, None)?;
    let hw_acc = snn.evaluate(&test_batches[..2], None);
    println!(
        "4-bit spiking deployment: {} crossbars, accuracy {} (software-quantized: {})",
        snn.crossbar_count(),
        pct(hw_acc),
        pct(model.quantized_accuracy)
    );
    Ok(())
}
