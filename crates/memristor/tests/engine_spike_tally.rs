//! The integer engine's spike telemetry against the float oracle's.
//!
//! The engine counts spikes with the SIMD count kernel and pools the counts
//! afterwards. With telemetry recording, one batched fast-path inference
//! must add to `snc.spikes`, `snc.ifc.conversions` and `snc.ifc.saturated`
//! exactly what [`SpikingNetwork::infer_reference`] adds over the same
//! examples: every pre-pool neuron of every counter stage, at every SIMD
//! level.

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{SimdLevel, Tensor, TensorRng};

const TALLIES: [&str; 3] = ["snc.spikes", "snc.ifc.conversions", "snc.ifc.saturated"];

fn compiled_lenet() -> SpikingNetwork {
    let mut rng = TensorRng::seed(7);
    let mut net = qsnc_nn::models::lenet(0.25, 10, &mut rng);
    // Eight levels per unit activation: enough counters of the untrained
    // net reach 15 for the saturation tally to be tested.
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::with_scale(4, 8.0),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    let snn = SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must take the integer engine");
    snn
}

/// The three tallies `run` adds, read from a reset registry.
fn tallies(run: impl FnOnce()) -> [u64; 3] {
    qsnc_telemetry::reset();
    run();
    let snap = qsnc_telemetry::snapshot();
    TALLIES.map(|name| snap.counter(name).unwrap_or(0))
}

#[test]
fn engine_tallies_every_pre_pool_neuron_like_the_oracle() {
    let snn = compiled_lenet();
    let mut rng = TensorRng::seed(19);
    const BATCH: usize = 3;
    let xs = qsnc_tensor::init::uniform([BATCH, 1, 28, 28], 0.0, 1.0, &mut rng);
    let examples: Vec<Tensor> = xs
        .as_slice()
        .chunks_exact(28 * 28)
        .map(|px| Tensor::from_vec(px.to_vec(), [1, 1, 28, 28]))
        .collect();

    let _guard = qsnc_telemetry::testing::lock();
    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Record);
    let want = tallies(|| {
        for x in &examples {
            snn.infer_reference(x);
        }
    });
    let mut out = Vec::new();
    let got: Vec<(SimdLevel, [u64; 3])> = [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .map(|level| {
            let level = level.min(qsnc_tensor::detected_simd());
            let got = qsnc_tensor::with_simd_level(level, || {
                tallies(|| assert!(snn.infer_batch_into(&xs, &mut out), "fast path"))
            });
            (level, got)
        })
        .collect();
    qsnc_telemetry::reset();
    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);

    // LeNet ×0.25 has three counter stages before its analog readout: conv1
    // (2 × 28 × 28), conv2 (4 × 10 × 10) and fc1 (21), all counted before
    // any pool.
    assert_eq!(want[1], (BATCH * (2 * 28 * 28 + 4 * 10 * 10 + 21)) as u64, "oracle conversions");
    assert!(want[0] > 0 && want[2] > 0, "the batch must spike and saturate: {want:?}");
    for (level, got) in got {
        assert_eq!(got, want, "level={level:?}: engine tallies {TALLIES:?}");
    }
}
