//! Extension ablation: robustness of the deployed 4-bit system to
//! memristor device faults and programming variation.
//!
//! Not a table in the paper itself, but the direct follow-up its authors
//! cite (ref. \[16\], "Rescuing memristor-based neuromorphic design with high
//! defects"): how fast does accuracy degrade with stuck-at faults and
//! write variation? Stuck cells are the crossbar's own fault model
//! ([`qsnc_memristor::FaultMap`]): a stuck-off cell pins its plus device at
//! `g_min` (positive codes read 0), a stuck-on cell pins it at `g_max`
//! (the cell reads the top level minus its negative part), and the array
//! is programmed naively, with no write-verify or remapping.
//!
//! ```bash
//! cargo run -p qsnc-bench --bin ablation_faults --release
//! ```

use qsnc_bench::{Workload, SEED};
use qsnc_core::report::{pct, Report, Table};
use qsnc_core::{train_quant_aware, QuantConfig};
use qsnc_memristor::{DeployConfig, FaultRates, ProgramPolicy, ReliabilityConfig, SpikingNetwork};
use qsnc_nn::ModelKind;
use qsnc_tensor::TensorRng;

fn main() {
    let w = Workload::standard(ModelKind::Lenet);
    let test_batches = w.test.batches(64, None);
    eprintln!("training 4-bit quantization-aware LeNet…");
    let quant = QuantConfig::paper(4, 4);
    let model =
        train_quant_aware(ModelKind::Lenet, w.width, &w.settings, &quant, &w.train, &w.test, SEED);
    let mut report = Report::new("Ablation — device faults and write variation");
    report.note(format!("clean 4-bit accuracy: {}", pct(model.quantized_accuracy)));

    let net = model.net;
    let ideal = SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None).expect("compile");
    report.note(format!(
        "clean spiking accuracy (ideal crossbars): {}",
        pct(ideal.evaluate(&test_batches, None))
    ));

    // Stuck cells on the crossbars, programmed naively.
    let mut faults = Table::new(
        "Stuck-cell sweep (4-bit LeNet, spiking substrate, naive programming, mean of 3 seeds)",
        &["Fault rate", "Stuck-off acc.", "Stuck-on acc."],
    );
    let stuck_accuracy = |rates: FaultRates, seed: u64| {
        let mut cfg = DeployConfig::paper(4, 4);
        cfg.reliability = ReliabilityConfig::faulty(rates, seed, ProgramPolicy::Naive);
        let snn = SpikingNetwork::compile(&net, &cfg, None).expect("compile");
        snn.evaluate(&test_batches, None)
    };
    for rate in [0.001f32, 0.005, 0.01, 0.05, 0.1] {
        let mut acc_off = 0.0;
        let mut acc_on = 0.0;
        for seed in 0..3u64 {
            let off = FaultRates { stuck_off: rate, ..FaultRates::none() };
            acc_off += stuck_accuracy(off, 1000 + seed) / 3.0;
            let on = FaultRates { stuck_on: rate, ..FaultRates::none() };
            acc_on += stuck_accuracy(on, 2000 + seed) / 3.0;
        }
        faults.row(&[format!("{:.1}%", rate * 100.0), pct(acc_off), pct(acc_on)]);
    }
    report.table(faults);

    // Device-level programming variation through the spiking pipeline.
    let mut variation = Table::new(
        "Write-variation sweep (4-bit LeNet on the spiking substrate, ~100 examples)",
        &["σ (ln g)", "Spiking accuracy"],
    );
    let sample = &test_batches[..2];
    for sigma in [0.0f32, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let mut cfg = DeployConfig::paper(4, 4);
        cfg.device = cfg.device.with_noise(sigma, 0.0);
        let mut rng = TensorRng::seed(31);
        let snn = SpikingNetwork::compile(&net, &cfg, Some(&mut rng)).expect("compile");
        let acc = snn.evaluate(sample, None);
        variation.row(&[format!("{sigma:.2}"), pct(acc)]);
    }
    report
        .table(variation)
        .note("expected: graceful degradation — small stuck-off rates and σ ≤ 0.1 cost little;")
        .note("stuck-on hurts far more than stuck-off (a stuck-off cell loses at most its")
        .note("positive weight; a stuck-on cell reads the top conductance level).");
    report.emit();
}
