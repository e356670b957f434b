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
use qsnc_tensor::{
    conv2d_input_grad, conv2d_weight_grad, detected_simd, init, parallel, with_simd_level,
    Conv2dSpec, SimdLevel, Tensor, TensorRng,
};

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

/// The training backward of LeNet ×0.5's two convolutions at batch 32 on
/// one thread, at each SIMD level: the weight and bias gradients
/// (`conv2d_weight_grad`, rows `conv1_dw_db` and `conv2_dw_db`) and the
/// input gradient (`conv2d_input_grad`, rows `conv1_dx` and `conv2_dx`).
/// The output gradient is 3 in 4 zero, one entry per 2×2 block, as after a
/// max-pool.
fn bench_conv_backward(c: &mut Criterion) {
    let mut rng = TensorRng::seed(4);
    let levels: Vec<(&str, SimdLevel)> = [("scalar", SimdLevel::Scalar), ("avx2", SimdLevel::Avx2)]
        .into_iter()
        .filter(|&(_, l)| l <= detected_simd())
        .collect();
    let mut group = c.benchmark_group("conv_backward");
    // (layer, input channels, filters, input edge, padding): 5×5 kernels.
    for (layer, in_c, f, edge, pad) in [("conv1", 1, 3, 28, 2), ("conv2", 3, 8, 14, 0)] {
        let spec = Conv2dSpec::new(5, 1, pad);
        let o = spec.output_size(edge);
        // A ReLU output: about 40% zeros.
        let x = init::uniform([32, in_c, edge, edge], -0.7, 1.0, &mut rng).relu();
        let weight = init::uniform([f, in_c, 5, 5], -0.3, 0.3, &mut rng);
        let values = init::uniform([32, f, o, o], -1.0, 1.0, &mut rng);
        let picks = init::uniform([32 * f * (o / 2) * (o / 2)], 0.0, 4.0, &mut rng);
        let mut g = vec![0.0f32; 32 * f * o * o];
        let mut pick = picks.iter();
        for plane in 0..32 * f {
            for by in 0..o / 2 {
                for bx in 0..o / 2 {
                    let at = *pick.next().expect("one pick per block") as usize;
                    let i = (plane * o + by * 2 + at / 2) * o + bx * 2 + at % 2;
                    g[i] = values.as_slice()[i];
                }
            }
        }
        let g = Tensor::from_vec(g, [32, f, o, o]);
        for &(label, level) in &levels {
            group.bench_function(format!("{layer}_dw_db/{label}"), |b| {
                b.iter(|| {
                    with_simd_level(level, || {
                        parallel::with_num_threads(1, || conv2d_weight_grad(&x, &g, spec))
                    })
                })
            });
            group.bench_function(format!("{layer}_dx/{label}"), |b| {
                b.iter(|| {
                    with_simd_level(level, || {
                        parallel::with_num_threads(1, || {
                            conv2d_input_grad(&g, &weight, (edge, edge), spec)
                        })
                    })
                })
            });
        }
    }
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
    bench_conv_backward,
    bench_resnet_forward
);
criterion_main!(benches);
