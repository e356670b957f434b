//! Spiking-system inference throughput versus the software-quantized path.

use criterion::{criterion_group, criterion_main, Criterion};
use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::{models, Mode, Sequential};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    QuantSwitch, WeightQuantMethod,
};
use qsnc_tensor::{init, simd, SimdLevel, TensorRng};

fn quantized_lenet(rng: &mut TensorRng) -> (Sequential, QuantSwitch) {
    let mut net = models::lenet(0.5, 10, rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        0.0,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    quantize_network_weights(&mut net, 4, WeightQuantMethod::Clustered);
    (net, switch)
}

fn bench_spiking_vs_software(c: &mut Criterion) {
    let mut rng = TensorRng::seed(0);
    let (mut net, _switch) = quantized_lenet(&mut rng);
    let config = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    let x = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);

    let mut group = c.benchmark_group("inference_lenet_4bit");
    group.sample_size(20);
    group.bench_function("spiking_substrate", |b| {
        b.iter(|| snn.infer(std::hint::black_box(&x), None))
    });
    group.bench_function("software_quantized", |b| {
        b.iter(|| net.forward(std::hint::black_box(&x), Mode::Eval))
    });
    group.finish();
}

/// Integer fast-path engine vs the exact float pipeline on the same
/// compiled network. `int_engine` is the allocation-free `infer_batch_into`
/// entry point; `float_reference` is the float oracle it is bit-identical
/// to. Their ratio is the speedup the integer representation buys.
fn bench_int_engine_vs_float(c: &mut Criterion) {
    let mut rng = TensorRng::seed(4);
    let (net, _switch) = quantized_lenet(&mut rng);
    let config = DeployConfig::paper(4, 4);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    assert!(snn.has_fast_path(), "4-bit LeNet must compile the integer engine");
    let x = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
    let mut out = Vec::new();

    let mut group = c.benchmark_group("inference_lenet_4bit");
    group.sample_size(20);
    group.bench_function("int_engine", |b| {
        b.iter(|| snn.infer_batch_into(std::hint::black_box(&x), &mut out))
    });
    group.bench_function("float_reference", |b| {
        b.iter(|| snn.infer_reference(std::hint::black_box(&x)))
    });
    group.finish();
}

fn bench_spiking_with_read_noise(c: &mut Criterion) {
    let mut rng = TensorRng::seed(1);
    let (net, _switch) = quantized_lenet(&mut rng);
    let mut config = DeployConfig::paper(4, 4);
    config.device = config.device.with_noise(0.0, 0.05);
    let snn = SpikingNetwork::compile(&net, &config, None).expect("compile");
    let x = init::uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
    let mut read_rng = TensorRng::seed(2);

    let mut group = c.benchmark_group("inference_lenet_noisy");
    group.sample_size(20);
    group.bench_function("spiking_read_noise", |b| {
        b.iter(|| snn.infer(std::hint::black_box(&x), Some(&mut read_rng)))
    });
    group.finish();
}

fn bench_compile_time(c: &mut Criterion) {
    let mut rng = TensorRng::seed(3);
    let (net, _switch) = quantized_lenet(&mut rng);
    let config = DeployConfig::paper(4, 4);
    let mut group = c.benchmark_group("deployment");
    group.sample_size(20);
    group.bench_function("compile_lenet", |b| {
        b.iter(|| SpikingNetwork::compile(std::hint::black_box(&net), &config, None).unwrap())
    });
    group.finish();
}

/// The integer engine's epilogue at LeNet ×0.5's conv1, per SIMD level at
/// batch 1: the IFC count kernel over 3 filters of 28 × 28 accumulators
/// (15 thresholds each), then the 2 × 2 max-pool of the counts.
fn bench_engine_epilogue_simd_levels(c: &mut Criterion) {
    let (filters, side, max_level) = (3usize, 28usize, 15usize);
    let pix = side * side;
    let mut rng = TensorRng::seed(5);
    let acc: Vec<i32> = init::uniform([filters * pix], -300.0, 300.0, &mut rng)
        .as_slice()
        .iter()
        .map(|&v| v as i32)
        .collect();
    // Ascending per filter, so the counts spread over the whole range.
    let thresholds: Vec<i32> = (0..filters * max_level)
        .map(|i| (i % max_level) as i32 * 25 - 20 + (i / max_level) as i32)
        .collect();
    let mut counts = vec![0i32; filters * pix];
    let mut pooled = vec![0i32; filters * (side / 2) * (side / 2)];
    let levels: Vec<(&str, SimdLevel)> = [("scalar", SimdLevel::Scalar), ("avx2", SimdLevel::Avx2)]
        .into_iter()
        .filter(|&(_, l)| l <= qsnc_tensor::detected_simd())
        .collect();

    let mut group = c.benchmark_group("engine_epilogue_simd_levels");
    for &(label, level) in &levels {
        group.bench_function(label, |b| {
            b.iter(|| {
                let rows = acc.chunks_exact(pix).zip(counts.chunks_exact_mut(pix));
                for ((arow, crow), t) in rows.zip(thresholds.chunks_exact(max_level)) {
                    std::hint::black_box(simd::ifc_counts(level, arow, t, crow));
                }
                simd::max_pool(level, &counts, filters, (side, side), 2, 2, &mut pooled);
                std::hint::black_box(&pooled);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spiking_vs_software,
    bench_int_engine_vs_float,
    bench_spiking_with_read_noise,
    bench_compile_time,
    bench_engine_epilogue_simd_levels
);
criterion_main!(benches);
