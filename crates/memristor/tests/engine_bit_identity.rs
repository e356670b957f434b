//! Bit-identity of the integer fast-path engine.
//!
//! The float pipeline is the correctness oracle: for every network the
//! engine compiles, noise-free [`SpikingNetwork::infer`] (which routes
//! through the integer engine) must produce logits **bit-identical** to
//! [`SpikingNetwork::infer_reference`] — the exact-arithmetic float path
//! with ideal synapses. The properties sweep activation bits `M` and
//! weight bits `N` over the paper's whole 2..=8 range, and include inputs
//! pinned to the coding extremes so the IFC counters hit their saturation
//! boundary (`max_count = 2^M − 1`, accumulators near `±2^(M−1)` levels).

use proptest::prelude::*;
use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::Sequential;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{Tensor, TensorRng};

/// Small random LeNet quantized to `M`-bit signals / `N`-bit weights,
/// paired with the matching deployment config.
fn deployable_lenet(m: u32, n: u32, rng: &mut TensorRng) -> (Sequential, DeployConfig) {
    let mut net = qsnc_nn::models::lenet(0.25, 10, rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(m),
        0.0,
        ActivationQuantizer::new(m),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, n, WeightQuantMethod::Clustered);
    (net, DeployConfig::paper(n, m))
}

/// Asserts the fast path and the exact float oracle agree to the bit on
/// `x`, through all three public entry points.
fn assert_bit_identical(snn: &SpikingNetwork, x: &Tensor) -> Result<(), TestCaseError> {
    let reference = snn.infer_reference(x);
    let fast = snn.infer(x, None);
    prop_assert_eq!(reference.dims(), fast.dims());
    for (i, (&r, &f)) in reference.iter().zip(fast.iter()).enumerate() {
        prop_assert_eq!(
            r.to_bits(),
            f.to_bits(),
            "logit {}: reference {} vs fast {}",
            i,
            r,
            f
        );
    }
    let mut buf = Vec::new();
    let ran_fast = snn.infer_batch_into(x, &mut buf);
    prop_assert_eq!(ran_fast, snn.has_fast_path());
    prop_assert_eq!(buf.len(), reference.as_slice().len());
    for (&r, &f) in reference.iter().zip(buf.iter()) {
        prop_assert_eq!(r.to_bits(), f.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_bit_identical_on_random_nets(
        m in 2u32..=8, n in 2u32..=8, seed in 0u64..10_000,
    ) {
        let mut rng = TensorRng::seed(seed);
        let (net, config) = deployable_lenet(m, n, &mut rng);
        let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
        // Weight clustering at N = 8 may emit the inclusive bound code
        // ±2^7 = ±128, which does not fit the packed i8 layout; the engine
        // then legitimately declines and `infer` stays on the float path.
        if n <= 7 {
            prop_assert!(snn.has_fast_path(), "engine must compile for N = {} <= 7", n);
        }
        for input_seed in 0..3u64 {
            let mut drng = TensorRng::seed(seed.wrapping_mul(31).wrapping_add(input_seed));
            let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);
            if snn.has_fast_path() {
                assert_bit_identical(&snn, &x)?;
            } else {
                // Declined nets fall back to the conductance simulation;
                // `infer_batch_into` must report that and agree with `infer`.
                let mut buf = Vec::new();
                prop_assert!(!snn.infer_batch_into(&x, &mut buf));
                let slow = snn.infer(&x, None);
                prop_assert_eq!(buf.as_slice(), slow.as_slice());
            }
        }
    }

    #[test]
    fn engine_bit_identical_at_ifc_saturation_boundaries(
        m in 2u32..=8, n in 2u32..=7, seed in 0u64..10_000,
    ) {
        let mut rng = TensorRng::seed(seed);
        let (net, config) = deployable_lenet(m, n, &mut rng);
        let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
        prop_assert!(snn.has_fast_path());
        // Every pixel at the top of the coding range: each input neuron
        // emits the full 2^M − 1 spikes, driving accumulators far past the
        // counters' saturation boundary in both directions (the clustered
        // weights are signed), so every saturating clamp must agree.
        let full = Tensor::from_vec(vec![1.0f32; 28 * 28], [1, 1, 28, 28]);
        assert_bit_identical(&snn, &full)?;
        // All-zero input: no spikes at all, only biases propagate.
        let zero = Tensor::from_vec(vec![0.0f32; 28 * 28], [1, 1, 28, 28]);
        assert_bit_identical(&snn, &zero)?;
        // Half-LSB input: sits exactly on the quantizer's rounding edge.
        let edge = 0.5 / config.input_quantizer.scale();
        let half = Tensor::from_vec(vec![edge; 28 * 28], [1, 1, 28, 28]);
        assert_bit_identical(&snn, &half)?;
    }
}

/// The conductance-simulation float path is only approximately equal to
/// the oracle, but its rounded spike counts coincide on these nets — so
/// the user-facing guarantee holds end to end: enabling the fast path
/// never changes a classification.
#[test]
fn fast_path_never_changes_predictions() {
    let mut rng = TensorRng::seed(77);
    let (net, config) = deployable_lenet(4, 4, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path());
    for seed in 0..20u64 {
        let mut drng = TensorRng::seed(1000 + seed);
        let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);
        let fast = snn.infer(&x, None);
        let reference = snn.infer_reference(&x);
        assert_eq!(fast.argmax(), reference.argmax());
    }
}
