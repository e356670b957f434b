//! Training-step throughput: forward, backward, and full SGD steps for the
//! model zoo, with and without the Neuron Convergence stages.

use criterion::{criterion_group, criterion_main, Criterion};
use qsnc_nn::layers::MaxPool2d;
use qsnc_nn::loss::softmax_cross_entropy;
use qsnc_nn::optim::Sgd;
use qsnc_nn::{models, Layer, Mode};
use qsnc_quant::{
    insert_signal_stages, ActivationQuantizer, ActivationRegularizer, QuantSwitch, SignalStage,
};
use qsnc_tensor::{init, TensorRng};

fn bench_lenet_step(c: &mut Criterion) {
    let mut rng = TensorRng::seed(0);
    let mut net = models::lenet(0.5, 10, &mut rng);
    let x = init::uniform([16, 1, 28, 28], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let mut opt = Sgd::with_momentum(0.05, 0.9, 1e-4);
    c.bench_function("lenet_train_step_b16", |b| {
        b.iter(|| {
            net.zero_grad();
            let logits = net.forward(std::hint::black_box(&x), Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward(&grad);
            opt.step(&mut net.params());
        })
    });
    c.bench_function("lenet_forward_eval_b16", |b| {
        b.iter(|| net.forward(std::hint::black_box(&x), Mode::Eval))
    });
}

fn bench_qat_overhead(c: &mut Criterion) {
    let mut rng = TensorRng::seed(1);
    let mut net = models::lenet(0.5, 10, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(4),
        1e-5,
        ActivationQuantizer::new(4),
    );
    switch.set_enabled(true);
    let x = init::uniform([16, 1, 28, 28], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let mut opt = Sgd::with_momentum(0.05, 0.9, 1e-4);
    c.bench_function("lenet_qat_train_step_b16", |b| {
        b.iter(|| {
            net.zero_grad();
            let logits = net.forward(std::hint::black_box(&x), Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward(&grad);
            opt.step(&mut net.params());
        })
    });
}

/// The QAT elementwise layers at LeNet ×0.5's first stage (batch 32,
/// `[32, 3, 28, 28]`): one signal-stage Train forward + backward with
/// quantization off and on, and one 2×2 max-pool forward + backward.
fn bench_qat_layers(c: &mut Criterion) {
    let mut rng = TensorRng::seed(3);
    // A ReLU output: about a quarter zeros, a tail above θ = 8.
    let x = init::uniform([32, 3, 28, 28], -4.0, 12.0, &mut rng).relu();
    let grad = init::uniform([32, 3, 28, 28], -1.0, 1.0, &mut rng);
    let pooled_grad = init::uniform([32, 3, 14, 14], -1.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("qat_layers");
    for (name, quantizing) in [("signal_stage_off", false), ("signal_stage_on", true)] {
        let switch = QuantSwitch::new();
        switch.set_enabled(quantizing);
        let mut stage = SignalStage::new(
            ActivationRegularizer::neuron_convergence(4),
            1e-5,
            ActivationQuantizer::new(4),
            switch,
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let y = stage.forward(std::hint::black_box(&x), Mode::Train);
                (y, stage.backward(&grad))
            })
        });
    }
    let mut pool = MaxPool2d::new(2, 2);
    group.bench_function("maxpool_2x2", |b| {
        b.iter(|| {
            let y = pool.forward(std::hint::black_box(&x), Mode::Train);
            (y, pool.backward(&pooled_grad))
        })
    });
    group.finish();
}

fn bench_resnet_forward(c: &mut Criterion) {
    let mut rng = TensorRng::seed(2);
    let mut net = models::resnet(0.25, 10, &mut rng);
    let x = init::uniform([4, 3, 32, 32], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("resnet");
    group.sample_size(10);
    group.bench_function("forward_eval_b4", |b| {
        b.iter(|| net.forward(std::hint::black_box(&x), Mode::Eval))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lenet_step,
    bench_qat_overhead,
    bench_qat_layers,
    bench_resnet_forward
);
criterion_main!(benches);
