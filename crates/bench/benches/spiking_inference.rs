//! Spiking-system inference throughput versus the software-quantized path.

use criterion::{criterion_group, criterion_main, Criterion};
use qsnc_memristor::{DeployConfig, SpikingNetwork};
use qsnc_nn::{models, Mode, Sequential};
use qsnc_quant::{
    insert_signal_stages, quantize_network_weights, ActivationQuantizer, ActivationRegularizer,
    QuantSwitch, WeightQuantMethod,
};
use qsnc_tensor::{init, TensorRng};

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

criterion_group!(
    benches,
    bench_spiking_vs_software,
    bench_int_engine_vs_float,
    bench_spiking_with_read_noise,
    bench_compile_time
);
criterion_main!(benches);
