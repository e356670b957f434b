//! Telemetry walkthrough: a small quantization-aware training run on the
//! digit task with full instrumentation, finishing with a spiking
//! deployment — then the collected telemetry printed as JSON.
//!
//! ```bash
//! # Human-readable summary tables on stdout:
//! QSNC_TELEMETRY=1 cargo run --release --example telemetry_digits
//! # Machine-readable JSON document (CI parses this):
//! QSNC_TELEMETRY=json cargo run --release --example telemetry_digits
//! ```
//!
//! With `QSNC_TELEMETRY` unset the run is uninstrumented and prints only
//! the accuracy line — the hot paths check one atomic flag and skip all
//! recording.

use qsnc::core::report::pct;
use qsnc::core::{deploy_to_snc, train_quant_aware, QuantConfig, TrainSettings};
use qsnc::data::synth_digits;
use qsnc::nn::ModelKind;
use qsnc::telemetry::{self, TelemetryMode};
use qsnc::tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = TensorRng::seed(7);
    let (train, test) = synth_digits(1500, &mut rng).split(0.8);
    let settings = TrainSettings {
        epochs: 2,
        ..TrainSettings::default()
    };

    // 4-bit quantization-aware training: spans per layer/epoch, saturation
    // and sparsity counters, clustering residual histograms.
    let quant = QuantConfig::paper(4, 4);
    let model = train_quant_aware(ModelKind::Lenet, 0.25, &settings, &quant, &train, &test, 7);
    eprintln!("4-bit quantized accuracy: {}", pct(model.quantized_accuracy));

    // Spiking deployment: compile/infer spans, spike and IFC saturation
    // counters, crossbar tiling utilization.
    let snn = deploy_to_snc(&model.net, &quant, None)?;
    let test_batches = test.batches(64, None);
    let hw_acc = snn.evaluate(&test_batches[..1], None);
    eprintln!(
        "spiking deployment: {} crossbars, accuracy {}",
        snn.crossbar_count(),
        pct(hw_acc)
    );

    match telemetry::mode() {
        TelemetryMode::Json => println!("{}", telemetry::export_json()),
        TelemetryMode::Record => {
            for table in qsnc::core::telemetry_summary_tables(&telemetry::snapshot()) {
                print!("{}", table.render());
            }
        }
        TelemetryMode::Off => {
            eprintln!("telemetry off — rerun with QSNC_TELEMETRY=1 or QSNC_TELEMETRY=json");
        }
    }
    Ok(())
}
