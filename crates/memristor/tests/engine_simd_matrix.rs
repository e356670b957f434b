//! End-to-end SIMD × thread-count matrix for the integer fast path.
//!
//! A deployed LeNet's logits must be bit-identical no matter which SIMD
//! level the integer engine's kernels dispatch to and no matter how many
//! pool threads participate: forcing `Scalar` or `Avx2` (clamped to what
//! the machine supports) and sweeping 1 vs 4 threads must all
//! reproduce the scalar single-threaded logits exactly — the whole-network
//! analogue of the per-kernel proptests in `qsnc-tensor`.

use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::Sequential;
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    WeightQuantMethod,
};
use qsnc_tensor::{parallel, simd, SimdLevel, TensorRng};

/// Small random LeNet quantized to `M`-bit signals / `N`-bit weights.
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

/// Every SIMD level this machine can execute, scalar included.
fn all_levels() -> Vec<SimdLevel> {
    let top = simd::detected_simd();
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= top)
        .collect()
}

#[test]
fn lenet_inference_bit_identical_across_simd_levels_and_threads() {
    let mut rng = TensorRng::seed(42);
    let (net, config) = deployable_lenet(4, 4, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must take the integer engine");

    for input_seed in 0..4u64 {
        let mut drng = TensorRng::seed(900 + input_seed);
        let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);

        let oracle = simd::with_simd_level(SimdLevel::Scalar, || {
            parallel::with_num_threads(1, || snn.infer(&x, None))
        });

        for level in all_levels() {
            for threads in [1usize, 4] {
                let got = simd::with_simd_level(level, || {
                    parallel::with_num_threads(threads, || snn.infer(&x, None))
                });
                assert_eq!(got.dims(), oracle.dims());
                for (i, (&r, &f)) in oracle.iter().zip(got.iter()).enumerate() {
                    assert_eq!(
                        r.to_bits(),
                        f.to_bits(),
                        "logit {i} diverged at {level:?} x {threads} threads: {r} vs {f}"
                    );
                }
            }
        }
    }
}

#[test]
fn batched_inference_bit_identical_across_simd_levels_and_threads() {
    let mut rng = TensorRng::seed(11);
    let (net, config) = deployable_lenet(4, 4, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path());

    // A batch drives the engine's M = B igemm path (the one the serving
    // layer uses), which takes the SIMD dot kernels on its own route.
    let mut drng = TensorRng::seed(5005);
    let batch = qsnc_tensor::init::uniform([6, 1, 28, 28], 0.0, 1.0, &mut drng);

    let mut oracle = Vec::new();
    let ran = simd::with_simd_level(SimdLevel::Scalar, || {
        parallel::with_num_threads(1, || snn.infer_batch_into(&batch, &mut oracle))
    });
    assert!(ran, "fast path must run the batch");

    for level in all_levels() {
        for threads in [1usize, 4] {
            let mut got = Vec::new();
            let ran = simd::with_simd_level(level, || {
                parallel::with_num_threads(threads, || snn.infer_batch_into(&batch, &mut got))
            });
            assert!(ran);
            assert_eq!(got.len(), oracle.len());
            for (i, (&r, &f)) in oracle.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    r.to_bits(),
                    f.to_bits(),
                    "batched logit {i} diverged at {level:?} x {threads} threads"
                );
            }
        }
    }
}

/// One `[1, …]` example through `infer_batch_into`, the allocation-free
/// entry point, at a second `(M, N)` pair.
#[test]
fn infer_into_bit_identical_across_simd_levels() {
    let mut rng = TensorRng::seed(23);
    let (net, config) = deployable_lenet(3, 5, &mut rng);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path());

    let mut drng = TensorRng::seed(77);
    let x = qsnc_tensor::init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut drng);

    let mut oracle = Vec::new();
    let ran = simd::with_simd_level(SimdLevel::Scalar, || {
        parallel::with_num_threads(1, || snn.infer_batch_into(&x, &mut oracle))
    });
    assert!(ran);

    for level in all_levels() {
        let mut buf = Vec::new();
        let ran = simd::with_simd_level(level, || snn.infer_batch_into(&x, &mut buf));
        assert!(ran);
        assert_eq!(buf.len(), oracle.len());
        for (&r, &f) in oracle.iter().zip(buf.iter()) {
            assert_eq!(
                r.to_bits(),
                f.to_bits(),
                "infer_batch_into diverged at {level:?}"
            );
        }
    }
}
