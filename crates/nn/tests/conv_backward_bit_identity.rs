//! `Conv2d`'s training step against the batched column formulation, bit
//! for bit.
//!
//! The layer computes its gradients without a column matrix. This suite
//! checks that every float still equals the product form it replaced:
//! `dW = g · im2col(x)ᵀ`, `db` = the row sums of `g`, and
//! `dx = col2im(Wᵀ · g)`, with `g` the output gradient laid out
//! `[f, n·oh·ow]`; and that the training-mode forward equals both the
//! evaluation-mode forward and `W · im2col(x)` plus bias, and that
//! `backward_params` (no input gradient) leaves the same `dW` and `db`; and
//! that a second step accumulates into the first one's gradients, with the
//! bias gradient of an all-zero gradient plane a `+0.0`. Each case runs at
//! every SIMD level and at one and three worker threads.

use qsnc_nn::layers::Conv2d;
use qsnc_nn::{Layer, Mode};
use qsnc_tensor::{
    col2im, detected_simd, im2col, matmul, transpose, with_num_threads, with_simd_level,
    Conv2dSpec, SimdLevel, Tensor, TensorRng,
};

/// `(in_channels, out_channels, kernel, stride, padding, input edge)`.
///
/// The weight-gradient chains cover 8 taps of a kernel row each, so only
/// kernels wider than 8 split a row into a full chunk and a partial one;
/// the 9×9, 11×11 and 17×17 geometries exercise that split. A filter's row
/// chains run in blocks of at most 8: LeNet conv1's 5 rows are one block,
/// conv2's 15 split 8 + 7, and the wide kernels need three or more blocks.
/// The forward chains cover 8 output pixels of a row each and run 8 chains
/// at a time through every filter: an output width that is a multiple of 8
/// fills every lane, a narrower one leaves lanes unstored, and a chain
/// count (`oh · ⌈ow/8⌉`) that is not a multiple of 8 ends in a partial
/// group. The input-gradient accumulators cover 16 input columns of one
/// stride phase: widths 7, 8 and 13 leave lanes unstored, 17, 19 and 28
/// need a second accumulator, and stride 2 gives each row two phases.
const GEOMETRIES: [(usize, usize, usize, usize, usize, usize); 11] = [
    (1, 3, 5, 1, 2, 28),  // LeNet conv1
    (3, 8, 5, 1, 0, 14),  // LeNet conv2
    (2, 4, 3, 1, 1, 8),   // 3×3, same padding: width 8, one group
    (3, 4, 3, 2, 1, 9),   // strided 3×3
    (4, 6, 1, 2, 0, 8),   // 1×1 stride-2 projection
    (2, 3, 9, 1, 0, 13),  // 9×9: one full chunk and one lone tap
    (1, 4, 11, 2, 2, 17), // strided 11×11: chunks of 8 and 3
    (2, 2, 17, 1, 1, 19), // 17×17: two full chunks and a lone tap
    (3, 1, 3, 1, 1, 16),  // one filter; width 16, four full groups
    (2, 5, 5, 1, 2, 7),   // five filters; width 7: seven chains, a partial group
    (4, 5, 3, 2, 1, 16),  // five filters, strided 3×3 to width 8
];

/// Uniform values in `[-1, 1)` with every third entry exactly zero, the
/// way ReLU and max-pool leave activations and gradients.
fn sparse_uniform(dims: &[usize], rng: &mut TensorRng) -> Tensor {
    let mut t = qsnc_tensor::init::uniform(dims, -1.0, 1.0, rng);
    for v in t.as_mut_slice().iter_mut().step_by(3) {
        *v = 0.0;
    }
    t
}

/// `[n, f, oh, ow]` → `[f, n·oh·ow]`, the column order of `im2col`.
fn to_columns(t: &Tensor) -> Tensor {
    let (n, f, pix) = (t.dims()[0], t.dims()[1], t.dims()[2] * t.dims()[3]);
    let src = t.as_slice();
    let mut out = vec![0.0f32; f * n * pix];
    for i in 0..n {
        for fi in 0..f {
            out[(fi * n + i) * pix..(fi * n + i + 1) * pix]
                .copy_from_slice(&src[(i * f + fi) * pix..(i * f + fi + 1) * pix]);
        }
    }
    Tensor::from_vec(out, [f, n * pix])
}

fn assert_bits(what: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.dims(), want.dims(), "{what}: shape");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

/// What one training step of the layer must produce.
struct Expected {
    y: Tensor,
    dw: Tensor,
    db: Tensor,
    dx: Tensor,
}

/// The batched column formulation of the forward and backward passes.
fn column_oracle(layer: &Conv2d, x: &Tensor, g: &Tensor) -> Expected {
    let spec = layer.spec();
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let f = layer.weight().dims()[0];
    let (oh, ow) = (spec.output_size(h), spec.output_size(w));
    let w_mat = layer.weight().reshape([f, c * spec.kernel * spec.kernel]);
    let cols = im2col(x, spec);

    let y_cols = matmul(&w_mat, &cols);
    let bias = layer.bias().as_slice();
    let mut y = vec![0.0f32; n * f * oh * ow];
    for i in 0..n {
        for fi in 0..f {
            for p in 0..oh * ow {
                y[(i * f + fi) * oh * ow + p] =
                    y_cols.as_slice()[(fi * n + i) * oh * ow + p] + bias[fi];
            }
        }
    }

    let g_cols = to_columns(g);
    // The layer accumulates into zeroed gradients: start from zero here too.
    let mut dw = Tensor::zeros(layer.weight().dims());
    dw += &weight_product(layer, &cols, &g_cols);
    let mut db = Tensor::zeros([f]);
    add_row_sums(&mut db, &g_cols);
    let dx = col2im(&matmul(&transpose(&w_mat), &g_cols), n, c, h, w, spec);
    Expected {
        y: Tensor::from_vec(y, [n, f, oh, ow]),
        dw,
        db,
        dx,
    }
}

/// `g · im2col(x)ᵀ` in the weight's shape.
fn weight_product(layer: &Conv2d, cols: &Tensor, g_cols: &Tensor) -> Tensor {
    matmul(g_cols, &transpose(cols)).into_reshaped(layer.weight().dims())
}

/// `db[fi] += Σ g_cols[fi, ·]`, each row summed by `Iterator::sum`.
fn add_row_sums(db: &mut Tensor, g_cols: &Tensor) {
    let len = g_cols.dims()[1];
    for (fi, v) in db.as_mut_slice().iter_mut().enumerate() {
        *v += g_cols.as_slice()[fi * len..(fi + 1) * len]
            .iter()
            .sum::<f32>();
    }
}

fn levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| l <= detected_simd())
        .collect()
}

#[test]
fn conv_training_step_is_bit_identical_to_the_column_formulation() {
    for (gi, &(c, f, k, s, p, edge)) in GEOMETRIES.iter().enumerate() {
        for n in [1, 5] {
            let mut rng = TensorRng::seed(100 + gi as u64 * 10 + n as u64);
            let mut layer = Conv2d::new("c", c, f, Conv2dSpec::new(k, s, p), &mut rng);
            let bias = qsnc_tensor::init::uniform([f], -0.5, 0.5, &mut rng);
            *layer.params()[1].value = bias;
            let x = sparse_uniform(&[n, c, edge, edge], &mut rng);
            let o = layer.spec().output_size(edge);
            let g = sparse_uniform(&[n, f, o, o], &mut rng);
            let want = column_oracle(&layer, &x, &g);

            for level in levels() {
                for threads in [1, 3] {
                    let case = format!("geometry {gi}, n={n}, {level:?}, {threads} threads");
                    let (y_train, y_eval, dx) = with_simd_level(level, || {
                        with_num_threads(threads, || {
                            layer.zero_grad();
                            let y_eval = layer.forward(&x, Mode::Eval);
                            let y_train = layer.forward(&x, Mode::Train);
                            (y_train, y_eval, layer.backward(&g))
                        })
                    });
                    assert_bits(&format!("{case}: train forward"), &y_train, &want.y);
                    assert_bits(&format!("{case}: eval forward"), &y_eval, &want.y);
                    assert_bits(&format!("{case}: dx"), &dx, &want.dx);
                    let params = layer.params();
                    assert_bits(&format!("{case}: dW"), params[0].grad, &want.dw);
                    assert_bits(&format!("{case}: db"), params[1].grad, &want.db);

                    // The first layer of a network skips its input gradient;
                    // the parameter gradients must not change by a bit.
                    with_simd_level(level, || {
                        with_num_threads(threads, || {
                            layer.zero_grad();
                            layer.forward(&x, Mode::Train);
                            layer.backward_params(&g);
                        })
                    });
                    let params = layer.params();
                    assert_bits(&format!("{case}: params-only dW"), params[0].grad, &want.dw);
                    assert_bits(&format!("{case}: params-only db"), params[1].grad, &want.db);
                }
            }
        }
    }
}

/// A second step accumulates into the first one's gradients, and a filter
/// whose gradient is zero everywhere keeps a `+0.0` bias gradient.
///
/// The bias chain is folded into the weight-gradient pass and starts at
/// `+0.0`, while `Iterator::sum` over `f32` starts at `−0.0`: over an
/// all-`−0.0` gradient the two differ, and they agree only once added into
/// a gradient that is not `−0.0`. Filter 0's gradient here is all `+0.0`
/// and filter 1's all `−0.0`, in every image. Both `backward` and
/// `backward_params` run two steps without `zero_grad` between them,
/// against the column formulation advanced the same way.
#[test]
fn conv_gradients_accumulate_and_keep_the_sign_of_zero() {
    for (gi, &(c, f, k, s, p, edge)) in GEOMETRIES.iter().enumerate() {
        if f < 2 {
            continue;
        }
        let n = 3;
        let mut rng = TensorRng::seed(700 + gi as u64);
        let mut layer = Conv2d::new("c", c, f, Conv2dSpec::new(k, s, p), &mut rng);
        let x = sparse_uniform(&[n, c, edge, edge], &mut rng);
        let o = layer.spec().output_size(edge);
        let mut g = sparse_uniform(&[n, f, o, o], &mut rng);
        for (plane, chunk) in g.as_mut_slice().chunks_exact_mut(o * o).enumerate() {
            match plane % f {
                0 => chunk.fill(0.0),
                1 => chunk.fill(-0.0),
                _ => {}
            }
        }
        let once = column_oracle(&layer, &x, &g);
        let cols = im2col(&x, layer.spec());
        let g_cols = to_columns(&g);
        let mut dw_twice = once.dw.clone();
        dw_twice += &weight_product(&layer, &cols, &g_cols);
        let mut db_twice = once.db.clone();
        add_row_sums(&mut db_twice, &g_cols);
        for db in [&once.db, &db_twice] {
            assert_eq!(
                db.as_slice()[0].to_bits(),
                0.0f32.to_bits(),
                "oracle db of a +0 filter"
            );
            assert_eq!(
                db.as_slice()[1].to_bits(),
                0.0f32.to_bits(),
                "oracle db of a -0 filter"
            );
        }

        for level in levels() {
            for threads in [1, 3] {
                for params_only in [false, true] {
                    let case = format!(
                        "geometry {gi}, {level:?}, {threads} threads, params only: {params_only}"
                    );
                    let step = |layer: &mut Conv2d| {
                        with_simd_level(level, || {
                            with_num_threads(threads, || {
                                layer.forward(&x, Mode::Train);
                                if params_only {
                                    layer.backward_params(&g);
                                } else {
                                    layer.backward(&g);
                                }
                            })
                        })
                    };
                    layer.zero_grad();
                    step(&mut layer);
                    let params = layer.params();
                    assert_bits(&format!("{case}: step 1 dW"), params[0].grad, &once.dw);
                    assert_bits(&format!("{case}: step 1 db"), params[1].grad, &once.db);
                    step(&mut layer);
                    let params = layer.params();
                    assert_bits(&format!("{case}: step 2 dW"), params[0].grad, &dw_twice);
                    assert_bits(&format!("{case}: step 2 db"), params[1].grad, &db_twice);
                }
            }
        }
    }
}
