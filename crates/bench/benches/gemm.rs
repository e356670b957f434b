//! GEMM microbenchmarks: the thread-parallel `f32` GEMM against its
//! single-thread oracle, its thread scaling on a conv-shaped product, the
//! integer conv against the float GEMM, and each SIMD level's kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use qsnc_tensor::{
    conv2d, gemm, gemm_serial, igemm_conv, matmul, matmul_serial, parallel, Conv2dSpec,
    PackedCodes, SimdLevel, Tensor,
};
use rand::{Rng, SeedableRng};

/// `[rows, cols]` matrix with uniform entries; every `zero_every`-th entry is
/// exactly zero (0 disables), modelling quantized ReLU activations.
fn mat(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|i| {
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, [rows, cols])
}

/// Serial oracle vs thread-parallel GEMM on a square dense product.
fn bench_serial_vs_parallel(c: &mut Criterion) {
    let n = 256;
    let a = mat(n, n, 10, 0);
    let b = mat(n, n, 11, 0);
    let mut group = c.benchmark_group("gemm_256");
    group.bench_function("serial", |bch| {
        bch.iter(|| matmul_serial(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
    group.bench_function("parallel", |bch| {
        bch.iter(|| matmul(std::hint::black_box(&a), std::hint::black_box(&b)))
    });
    group.finish();
}

/// Parallel speedup as the thread count grows, on a conv-shaped product
/// (`[f, c·k·k] × [c·k·k, oh·ow]`).
///
/// The t1 ≥ t2 ≥ t4 expectation only holds when the host actually has
/// the cores — on a single-core runner extra workers are pure
/// coordination overhead — so a `meta` row records the detected core
/// count next to the timings and CI gates its non-increasing assertion
/// on it.
fn bench_thread_scaling(c: &mut Criterion) {
    let (m, k, n) = (64, 288, 1024);
    let a = mat(m, k, 40, 0);
    let b = mat(k, n, 41, 0);
    let mut out = vec![0.0f32; m * n];
    let mut ran = false;
    let mut group = c.benchmark_group("gemm_conv_shape_threads");
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("t{threads}"), |bch| {
            ran = true;
            bch.iter(|| {
                parallel::with_num_threads(threads, || {
                    out.fill(0.0);
                    gemm(m, k, n, a.as_slice(), b.as_slice(), &mut out);
                })
            })
        });
    }
    group.finish();
    // A name filter that skipped every `t{n}` bench skips the meta row too.
    if !ran {
        return;
    }
    if let Ok(path) = std::env::var("QSNC_BENCH_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            use std::io::Write as _;
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            let _ = writeln!(
                f,
                "{{\"name\": \"gemm_conv_shape_threads/meta\", \"cores\": {cores}}}"
            );
        }
    }
}

/// Integer fast-path GEMM (packed i8 codes × i32 spike counts) against the
/// float GEMM on the same conv-shaped product, all pinned to one thread —
/// the configuration the deployment benchmarks run in. `int_conv` times
/// what the engine runs at that shape — [`igemm_conv`] on an `[8, 28, 28]`
/// image, lowering included.
fn bench_igemm_vs_float(c: &mut Criterion) {
    // LeNet conv-like shape: W[f, c·k·k] × cols[c·k·k, oh·ow].
    let (out, k, pix) = (16usize, 200usize, 576usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(50);
    let cols: Vec<i32> = (0..k * pix).map(|_| rng.gen_range(0..16)).collect();
    let codes: Vec<i32> = (0..out * k).map(|_| rng.gen_range(-8..=8)).collect();
    let packed = PackedCodes::try_pack(&codes, out, k).expect("codes fit i8");
    let cols_f: Vec<f32> = cols.iter().map(|&v| v as f32).collect();
    let codes_f: Vec<f32> = codes.iter().map(|&v| v as f32).collect();
    // The same product as a conv: 8 channels × 5×5 taps = 200 = k, and a
    // 28×28 image without padding gives 24×24 = 576 = pix output pixels.
    let (in_c, side, spec) = (8usize, 28usize, Conv2dSpec::new(5, 1, 0));
    let image: Vec<i32> = (0..in_c * side * side).map(|_| rng.gen_range(0..16)).collect();
    let mut out_i = vec![0i32; out * pix];
    let mut out_f = vec![0.0f32; out * pix];
    let mut group = c.benchmark_group("igemm_conv_shape");
    group.bench_function("int_conv", |bch| {
        bch.iter(|| {
            parallel::with_num_threads(1, || {
                out_i.fill(0);
                igemm_conv(&image, in_c, (side, side), spec, &packed, &mut out_i);
            })
        })
    });
    group.bench_function("float_f32", |bch| {
        bch.iter(|| {
            out_f.fill(0.0);
            gemm_serial(out, k, pix, &codes_f, &cols_f, &mut out_f);
        })
    });
    group.finish();
}

/// SIMD dispatch sweep on the same conv-shaped products: the integer conv
/// the engine runs ([`igemm_conv`] on an `[8, 28, 28]` image, lowering
/// included) and the f32 GEMM forced to scalar and (when the machine has
/// it) AVX2, one thread throughout. Each integer row is that level's one
/// conv route. A third group times the training forward [`conv2d`] at
/// LeNet conv1 (the benchmark's width 0.5: 3 filters of 5×5, padding 2)
/// over a batch of 16 images at each level.
fn bench_simd_levels(c: &mut Criterion) {
    let (out, k, pix) = (16usize, 200usize, 576usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(60);
    let cols: Vec<i32> = (0..k * pix).map(|_| rng.gen_range(0..16)).collect();
    let codes: Vec<i32> = (0..out * k).map(|_| rng.gen_range(-8..=8)).collect();
    let packed = PackedCodes::try_pack(&codes, out, k).expect("codes fit i8");
    // 8 channels × 5×5 taps = 200 = k; a 28×28 image without padding gives
    // 24×24 = 576 = pix output pixels.
    let (in_c, side, spec) = (8usize, 28usize, Conv2dSpec::new(5, 1, 0));
    let image: Vec<i32> = (0..in_c * side * side).map(|_| rng.gen_range(0..16)).collect();
    let cols_f: Vec<f32> = cols.iter().map(|&v| v as f32).collect();
    let codes_f: Vec<f32> = codes.iter().map(|&v| v as f32).collect();
    let mut out_i = vec![0i32; out * pix];
    let mut out_f = vec![0.0f32; out * pix];
    let levels: Vec<(&str, SimdLevel)> = [("scalar", SimdLevel::Scalar), ("avx2", SimdLevel::Avx2)]
        .into_iter()
        .filter(|&(_, l)| l <= qsnc_tensor::detected_simd())
        .collect();

    let mut group = c.benchmark_group("igemm_simd_levels");
    for &(label, level) in &levels {
        group.bench_function(label, |bch| {
            bch.iter(|| {
                qsnc_tensor::with_simd_level(level, || {
                    parallel::with_num_threads(1, || {
                        out_i.fill(0);
                        igemm_conv(&image, in_c, (side, side), spec, &packed, &mut out_i);
                    })
                })
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("gemm_simd_levels");
    for &(label, level) in &levels {
        group.bench_function(label, |bch| {
            bch.iter(|| {
                qsnc_tensor::with_simd_level(level, || {
                    out_f.fill(0.0);
                    gemm_serial(out, k, pix, &codes_f, &cols_f, &mut out_f);
                })
            })
        });
    }
    group.finish();

    let images = mat(16, 28 * 28, 61, 3).into_reshaped([16, 1, 28, 28]);
    let filters = mat(3, 5 * 5, 62, 0).into_reshaped([3, 1, 5, 5]);
    let bias = mat(1, 3, 63, 0).into_reshaped([3]);
    let mut group = c.benchmark_group("conv2d_simd_levels");
    for &(label, level) in &levels {
        group.bench_function(label, |bch| {
            bch.iter(|| {
                qsnc_tensor::with_simd_level(level, || {
                    parallel::with_num_threads(1, || {
                        conv2d(&images, &filters, Some(&bias), Conv2dSpec::new(5, 1, 2))
                    })
                })
            })
        });
    }
    group.finish();
}

/// The integer conv at the two LeNet ×0.5 convolutions the served engine
/// runs — conv1 (1 → 3 filters of 5×5 over a 28×28 image, padding 2) and
/// conv2 (3 → 8 filters of 5×5 over 14×14, no padding) — one image, one
/// thread, at each SIMD level. Counts are 4-bit spike counts.
fn bench_igemm_conv_lenet(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(70);
    let mut layers = Vec::new();
    // (in_c, side, out_c, padding) of conv1 and conv2.
    for (in_c, side, out_c, pad) in [(1usize, 28usize, 3usize, 2usize), (3, 14, 8, 0)] {
        let spec = Conv2dSpec::new(5, 1, pad);
        let ckk = in_c * 25;
        let image: Vec<i32> = (0..in_c * side * side).map(|_| rng.gen_range(0..16)).collect();
        let codes: Vec<i32> = (0..out_c * ckk).map(|_| rng.gen_range(-8..=8)).collect();
        let packed = PackedCodes::try_pack(&codes, out_c, ckk).expect("codes fit i8");
        let pix = spec.output_size(side) * spec.output_size(side);
        layers.push((in_c, side, spec, packed, image, vec![0i32; out_c * pix]));
    }
    let levels: Vec<(&str, SimdLevel)> = [("scalar", SimdLevel::Scalar), ("avx2", SimdLevel::Avx2)]
        .into_iter()
        .filter(|&(_, l)| l <= qsnc_tensor::detected_simd())
        .collect();
    let mut group = c.benchmark_group("igemm_conv_lenet_simd_levels");
    for &(label, level) in &levels {
        group.bench_function(label, |bch| {
            bch.iter(|| {
                qsnc_tensor::with_simd_level(level, || {
                    parallel::with_num_threads(1, || {
                        for (in_c, side, spec, packed, image, out) in layers.iter_mut() {
                            out.fill(0);
                            igemm_conv(image, *in_c, (*side, *side), *spec, packed, out);
                        }
                    })
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_vs_parallel,
    bench_thread_scaling,
    bench_igemm_vs_float,
    bench_simd_levels,
    bench_igemm_conv_lenet
);
criterion_main!(benches);
