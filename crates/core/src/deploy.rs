//! Deployment of quantized networks onto the memristor SNC, plus the
//! hardware report used by Table 5.

use crate::config::QuantConfig;
use crate::report::Table;
use qsnc_memristor::{DeployConfig, HwModel, HwReport, ReliabilityConfig, SpikingNetwork};
use qsnc_nn::Sequential;
use qsnc_tensor::TensorRng;

/// Lowers a quantized network onto the memristor substrate using the
/// paper's platform parameters (32×32 crossbars, 50 kΩ–1 MΩ devices).
///
/// # Errors
///
/// Returns [`qsnc_memristor::CompileError`] if the network contains layers
/// the substrate cannot realize or unquantized signals.
pub fn deploy_to_snc(
    net: &Sequential,
    quant: &QuantConfig,
    rng: Option<&mut TensorRng>,
) -> Result<SpikingNetwork, qsnc_memristor::CompileError> {
    deploy_to_snc_reliable(net, quant, ReliabilityConfig::ideal(), rng)
}

/// Like [`deploy_to_snc`] but onto hardware with the given reliability
/// configuration — fault population, countermeasure policy, spare columns.
///
/// # Errors
///
/// Returns [`qsnc_memristor::CompileError`] if the network contains layers
/// the substrate cannot realize or unquantized signals.
pub fn deploy_to_snc_reliable(
    net: &Sequential,
    quant: &QuantConfig,
    reliability: ReliabilityConfig,
    rng: Option<&mut TensorRng>,
) -> Result<SpikingNetwork, qsnc_memristor::CompileError> {
    let mut config = DeployConfig::paper(quant.weight_bits, quant.activation_bits);
    config.reliability = reliability;
    SpikingNetwork::compile(net, &config, rng)
}

/// Freezes a deployed network into a versioned `.qsnca` artifact —
/// the deploy-side half of the serving cold-start story. The artifact
/// carries the compiled integer fast path (packed codes, scales,
/// precomputed IFC threshold tables), the crossbar tile map, and a
/// provenance record tying it back to the checkpoint digest and
/// quantization config it was built from. A serving process reloads it with
/// [`qsnc_memristor::load_artifact`] (or
/// `qsnc_serve::Server::spawn_from_artifact`) without touching the
/// training stack.
///
/// `checkpoint_digest` should be [`qsnc_nn::checkpoint_digest`] over the
/// exact checkpoint bytes the network was restored from (0 when the
/// network was trained in-process).
///
/// # Errors
///
/// [`qsnc_memristor::ArtifactError::NotCompiled`] when the network has no
/// integer fast path (noisy or fault-active deployments), plus the write
/// errors of [`qsnc_memristor::save_artifact`].
pub fn export_artifact(
    snn: &SpikingNetwork,
    kind: qsnc_nn::ModelKind,
    quant: &QuantConfig,
    checkpoint_digest: u64,
    path: impl AsRef<std::path::Path>,
) -> Result<(), qsnc_memristor::ArtifactError> {
    let provenance = qsnc_memristor::Provenance {
        checkpoint_digest,
        weight_bits: quant.weight_bits,
        activation_bits: quant.activation_bits,
        model: kind.to_string(),
    };
    qsnc_memristor::save_artifact(snn, &kind.input_dims(), &provenance, path)
}

/// The degradation report of a deployed network as a [`Table`]: one row per
/// synaptic layer plus a `total` row, mirroring the frozen
/// `snc.fault.{cells,unrecoverable,remapped,masked}` telemetry counters.
pub fn degradation_table(snn: &SpikingNetwork) -> Table {
    let mut t = Table::new(
        "Degradation report",
        &["layer", "faulty cells", "unrecoverable", "remapped", "masked", "retries", "|w| lost"],
    );
    let mut push = |name: String, s: &qsnc_memristor::DegradationStats| {
        t.row(&[
            name,
            s.cells.to_string(),
            s.unrecoverable.to_string(),
            s.remapped.to_string(),
            s.masked.to_string(),
            s.retries.to_string(),
            format!("{:.0}", s.magnitude_lost),
        ]);
    };
    for (i, s) in snn.layer_degradation().iter().enumerate() {
        push(format!("synaptic {i}"), s);
    }
    push("total".into(), &snn.degradation());
    t
}

/// Hardware speed/energy/area for a network's structure at `(M, N)` bits
/// — one row of Table 5.
pub fn hardware_report(net: &Sequential, m_bits: u32, n_bits: u32) -> HwReport {
    let model = HwModel::calibrated();
    model.evaluate_network(&net.synaptic_descriptors(), 32, m_bits, n_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{QuantConfig, TrainSettings};
    use crate::flow::train_quant_aware;
    use qsnc_data::synth_digits;
    use qsnc_nn::ModelKind;

    #[test]
    fn deployed_accuracy_tracks_software() {
        let mut rng = TensorRng::seed(0);
        let (train, test) = synth_digits(600, &mut rng).split(0.8);
        let settings = TrainSettings {
            epochs: 2,
            ..TrainSettings::default()
        };
        let quant = QuantConfig {
            finetune_epochs: 1,
            ..QuantConfig::paper(4, 4)
        };
        let model =
            train_quant_aware(ModelKind::Lenet, 0.25, &settings, &quant, &train, &test, 7);
        let snn = deploy_to_snc(&model.net, &quant, None).expect("deploy");
        let test_batches = test.batches(40, None);
        let hw_acc = snn.evaluate(&test_batches[..1], None);
        // One batch of 40 examples: hardware accuracy should be within a
        // few examples of the software-quantized accuracy.
        assert!(
            (hw_acc - model.quantized_accuracy).abs() < 0.15,
            "hw {hw_acc} vs sw {}",
            model.quantized_accuracy
        );
    }

    #[test]
    fn reliable_deploy_reports_degradation_table() {
        use qsnc_memristor::{FaultRates, ProgramPolicy};
        let mut rng = TensorRng::seed(2);
        let (train, test) = synth_digits(300, &mut rng).split(0.8);
        let settings = TrainSettings { epochs: 1, ..TrainSettings::default() };
        let quant = QuantConfig { finetune_epochs: 0, ..QuantConfig::paper(4, 4) };
        let model =
            train_quant_aware(ModelKind::Lenet, 0.25, &settings, &quant, &train, &test, 3);
        let rel =
            ReliabilityConfig::faulty(FaultRates::stuck(0.02), 5, ProgramPolicy::Remap);
        let snn = deploy_to_snc_reliable(&model.net, &quant, rel, None).expect("deploy");
        let table = degradation_table(&snn);
        // One row per synaptic layer plus the total row.
        assert_eq!(table.len(), snn.layer_degradation().len() + 1);
        assert!(snn.degradation().cells > 0);
        let total = table.rows().last().expect("total row");
        assert_eq!(total[0], "total");
        assert_eq!(total[1], snn.degradation().cells.to_string());
    }

    #[test]
    fn hardware_report_has_sane_magnitudes() {
        let mut rng = TensorRng::seed(1);
        let net = qsnc_nn::models::lenet(1.0, 10, &mut rng);
        let r8 = hardware_report(&net, 8, 8);
        let r4 = hardware_report(&net, 4, 4);
        assert!(r4.speed_mhz > r8.speed_mhz * 9.0);
        assert!(r4.energy_uj < r8.energy_uj);
        assert!(r4.area_mm2 < r8.area_mm2);
    }
}
