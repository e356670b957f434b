//! Property-based tests for qsnc-tensor invariants.

use proptest::prelude::*;
use qsnc_tensor::{
    col2im, conv2d, conv2d_direct, conv2d_input_grad, conv2d_weight_grad, detected_simd, im2col,
    matmul, matmul_naive, pad2d, parallel, softmax_rows, transpose, unpad2d, with_simd_level,
    Conv2dSpec, Shape, SimdLevel, Tensor,
};

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// `[n, f, oh, ow]` → `[f, n·oh·ow]`, the column order of [`im2col`].
fn to_columns(t: &Tensor) -> Tensor {
    let (n, f, pix) = (t.dims()[0], t.dims()[1], t.dims()[2] * t.dims()[3]);
    let mut out = vec![0.0f32; f * n * pix];
    for i in 0..n {
        for fi in 0..f {
            out[(fi * n + i) * pix..(fi * n + i + 1) * pix]
                .copy_from_slice(&t.as_slice()[(i * f + fi) * pix..(i * f + fi + 1) * pix]);
        }
    }
    Tensor::from_vec(out, [f, n * pix])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shape_offset_unravel_roundtrip(dims in proptest::collection::vec(1usize..6, 1..4)) {
        let s = Shape::new(dims);
        for flat in 0..s.len() {
            prop_assert_eq!(s.offset(&s.unravel(flat)), flat);
        }
    }

    #[test]
    fn matmul_matches_naive(
        m in 1usize..12, k in 1usize..12, n in 1usize..12,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_vec((0..m*k).map(|_| rng.gen_range(-2.0..2.0)).collect(), [m, k]);
        let b = Tensor::from_vec((0..k*n).map(|_| rng.gen_range(-2.0..2.0)).collect(), [k, n]);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        for (x, y) in fast.iter().zip(slow.iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn parallel_matmul_bit_identical_to_naive(
        // 0 and 1 are in range: empty products and single rows/cols must
        // agree too, and a thread count above `m` must not misbehave.
        m in 0usize..40, k in 0usize..40, n in 0usize..40,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_vec((0..m*k).map(|_| rng.gen_range(-2.0..2.0)).collect(), [m, k]);
        let b = Tensor::from_vec((0..k*n).map(|_| rng.gen_range(-2.0..2.0)).collect(), [k, n]);
        let oracle = matmul_naive(&a, &b);
        let cpus = std::thread::available_parallelism().map_or(4, |p| p.get());
        for threads in [1, 2, cpus] {
            let fast = parallel::with_num_threads(threads, || matmul(&a, &b));
            prop_assert_eq!(fast.dims(), oracle.dims());
            for (x, y) in fast.iter().zip(oracle.iter()) {
                // Bit-for-bit: the blocked parallel GEMM accumulates every
                // output element in the same ascending-k order as the naive
                // triple loop, at any thread count.
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "threads={} m={} k={} n={}: {} vs {}", threads, m, k, n, x, y,
                );
            }
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut gen = |len: usize, d: [usize; 2]| {
            Tensor::from_vec((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>(), d)
        };
        let a = gen(m*k, [m, k]);
        let b = gen(k*n, [k, n]);
        let c = gen(k*n, [k, n]);
        let lhs = matmul(&a, &(&b + &c));
        let rhs = &matmul(&a, &b) + &matmul(&a, &c);
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_involution(m in 1usize..10, n in 1usize..10, data_seed in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(data_seed);
        let a = Tensor::from_vec((0..m*n).map(|_| rng.gen::<f32>()).collect(), [m, n]);
        prop_assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn pad_unpad_roundtrip(
        n in 1usize..3, c in 1usize..3, h in 1usize..6, w in 1usize..6,
        pad in 0usize..3, seed in 0u64..100,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec((0..n*c*h*w).map(|_| rng.gen::<f32>()).collect(), [n, c, h, w]);
        prop_assert_eq!(unpad2d(&pad2d(&x, pad), pad), x);
    }

    #[test]
    fn conv2d_gemm_matches_direct(
        n in 1usize..3, c in 1usize..3, hw in 4usize..8,
        f in 1usize..4, k in 1usize..4, pad in 0usize..2,
        seed in 0u64..100,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec(
            (0..n*c*hw*hw).map(|_| rng.gen_range(-1.0..1.0)).collect(), [n, c, hw, hw]);
        let wt = Tensor::from_vec(
            (0..f*c*k*k).map(|_| rng.gen_range(-1.0..1.0)).collect(), [f, c, k, k]);
        let spec = Conv2dSpec::new(k, 1, pad);
        let fast = conv2d(&x, &wt, None, spec);
        let slow = conv2d_direct(&x, &wt, None, spec);
        prop_assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.iter().zip(slow.iter()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        n in 1usize..3, c in 1usize..3, hw in 4usize..8,
        k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        seed in 0u64..100,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spec = Conv2dSpec::new(k, stride, pad);
        let x = Tensor::from_vec(
            (0..n*c*hw*hw).map(|_| rng.gen_range(-1.0..1.0)).collect(), [n, c, hw, hw]);
        let cols = im2col(&x, spec);
        let y = Tensor::from_vec(
            (0..cols.len()).map(|_| rng.gen_range(-1.0..1.0)).collect(), cols.dims());
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, n, c, hw, hw, spec);
        let rhs: f32 = x.iter().zip(back.iter()).map(|(&a, &b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    #[test]
    fn conv_grad_kernels_match_column_oracles(
        n in 1usize..3, c in 1usize..5, f in 1usize..10, hw in 1usize..10,
        k in 1usize..6, stride in 1usize..3, pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        // The column-free gradient kernels against the products they
        // replace, bit for bit: dW = g·im2col(x)ᵀ, db = the row sums of g
        // added to zero, and dx = col2im(Wᵀ·g). Up to 9 filters and 4
        // channels (up to 100 row chains of a filter), so the filter and
        // row blocks of the kernels split and end partial.
        prop_assume!(hw + 2 * pad >= k);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A third of the entries exactly zero, as after ReLU and max-pool.
        let mut sparse = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| if rng.gen_range(0..3) == 0 { 0.0 } else { rng.gen_range(-1.0..1.0) })
                .collect()
        };
        let spec = Conv2dSpec::new(k, stride, pad);
        let o = spec.output_size(hw);
        let x = Tensor::from_vec(sparse(n * c * hw * hw), [n, c, hw, hw]);
        let w = Tensor::from_vec(sparse(f * c * k * k), [f, c, k, k]);
        let g = Tensor::from_vec(sparse(n * f * o * o), [n, f, o, o]);
        let g_cols = to_columns(&g);
        let w_mat = w.reshape([f, c * k * k]);
        let want_dw = matmul(&g_cols, &transpose(&im2col(&x, spec)));
        let want_db: Vec<f32> = g_cols
            .as_slice()
            .chunks_exact(n * o * o)
            .map(|row| 0.0 + row.iter().sum::<f32>())
            .collect();
        let want_dx = col2im(&matmul(&transpose(&w_mat), &g_cols), n, c, hw, hw, spec);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            let level = level.min(detected_simd());
            for threads in [1, 3] {
                let ((dw, db), dx) = with_simd_level(level, || {
                    parallel::with_num_threads(threads, || {
                        (conv2d_weight_grad(&x, &g, spec), conv2d_input_grad(&g, &w, (hw, hw), spec))
                    })
                });
                prop_assert_eq!(dw.dims(), w.dims());
                prop_assert_eq!(dx.dims(), x.dims());
                for (a, b) in dw.iter().zip(want_dw.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "dW at {:?}, {}t: {} vs {}", level, threads, a, b);
                }
                for (a, b) in db.iter().zip(&want_db) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "db at {:?}, {}t: {} vs {}", level, threads, a, b);
                }
                for (a, b) in dx.iter().zip(want_dx.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "dx at {:?}, {}t: {} vs {}", level, threads, a, b);
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one(rows in 1usize..6, cols in 1usize..8, data in tensor_strategy(48)) {
        let need = rows * cols;
        prop_assume!(need <= data.len());
        let t = Tensor::from_vec(data[..need].to_vec(), [rows, cols]);
        let s = softmax_rows(&t);
        for r in 0..rows {
            let sum: f32 = s.as_slice()[r*cols..(r+1)*cols].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.as_slice()[r*cols..(r+1)*cols].iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn reshape_preserves_sum(data in tensor_strategy(24)) {
        let t = Tensor::from_vec(data, [2, 3, 4]);
        let r = t.reshape([4, 6]);
        prop_assert_eq!(t.sum(), r.sum());
    }

    #[test]
    fn histogram_total_equals_len(data in tensor_strategy(32), bins in 1usize..10) {
        let t = Tensor::from_slice(&data);
        let h = t.histogram(-10.0, 10.0, bins);
        prop_assert_eq!(h.iter().sum::<usize>(), t.len());
    }
}
