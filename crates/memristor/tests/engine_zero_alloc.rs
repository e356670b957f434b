//! Steady-state integer-engine inference takes every working buffer from
//! the scratch arena: after one warm-up call per shape, repeated inference
//! at batch 1 and batch 8 must not advance
//! [`qsnc_tensor::scratch::fresh_allocations`] at any SIMD level.
//!
//! The engine runs its products on the calling thread, so the arena
//! counted here, this test's own, is the one every kernel draws from.

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{init, scratch, simd, SimdLevel, TensorRng};

#[test]
fn steady_state_inference_allocates_nothing_at_every_level() {
    let mut rng = TensorRng::seed(0);
    let mut net = qsnc_nn::models::lenet(0.5, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    let snn = SpikingNetwork::compile(&net, &DeployConfig::paper(4, 4), None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must compile the integer engine");

    let levels = [SimdLevel::Scalar, SimdLevel::Avx2];
    for level in levels.into_iter().filter(|&l| l <= simd::detected_simd()) {
        for batch in [1usize, 8] {
            let xs = init::uniform([batch, 1, 28, 28], 0.0, 1.0, &mut rng);
            simd::with_simd_level(level, || {
                let mut out = Vec::new();
                assert!(snn.infer_batch_into(&xs, &mut out), "engine path not taken");
                let base = scratch::fresh_allocations();
                for _ in 0..20 {
                    snn.infer_batch_into(&xs, &mut out);
                }
                assert_eq!(
                    scratch::fresh_allocations(),
                    base,
                    "steady-state inference allocated at {level:?}, batch {batch}"
                );
            });
        }
    }
}
