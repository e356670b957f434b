//! Convolution lowering: zero padding, im2col / col2im, the convolution and
//! its training gradients, and a direct reference convolution.
//!
//! Layers in `qsnc-nn` run [`conv2d`] forward and train through
//! [`conv2d_weight_grad`] and [`conv2d_input_grad`]. None of the three
//! builds a column matrix, and each is bit-identical to the product over
//! one: `W · im2col(x)`, `g · im2col(x)ᵀ` (with the bias gradient as `g`
//! times a column of ones) and `col2im(Wᵀ · g)`, for finite operands (the
//! kernels skip or border with zero terms, which the products multiply
//! out; `0 · ∞` is NaN there and absent here). Those
//! products, [`im2col`] and [`col2im`] stay as the tests' oracles (the float
//! spiking pipeline also lowers through [`im2col`]); the direct
//! [`conv2d_direct`] implementation is the oracle for [`conv2d`], and the
//! form the crossbar mapper mirrors (each filter becomes one crossbar
//! column over an im2col'd input vector).
//!
//! Four paths here parallelize over the [`crate::parallel`] workers:
//! [`im2col`] partitions the rows of the column matrix (each row is filled
//! by exactly one thread), and [`conv2d`] and [`conv2d_input_grad`]
//! partition the batch, giving each worker a contiguous run of images whose
//! slice of the output it alone writes. All are pure scatters into disjoint
//! output regions, so results do not depend on the thread count.
//! [`conv2d_weight_grad`] sums across the batch, so it partitions the
//! filters instead: each worker runs its filters' chains through every
//! image and writes only their weight and bias gradients, both in one pass.

use crate::parallel;
use crate::simd;
use crate::tensor::Tensor;

/// Spatial geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Conv2dSpec {
    /// Kernel height and width (square kernels only, matching the paper).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2dSpec { kernel, stride, padding }
    }

    /// Output spatial size for an input of extent `input`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn output_size(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {}",
            self.kernel,
            padded
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Pads a `[n, c, h, w]` tensor with `pad` zeros on each spatial border.
///
/// # Panics
///
/// Panics if `x` is not rank 4.
pub fn pad2d(x: &Tensor, pad: usize) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "pad2d requires [n,c,h,w], got {}", x.shape());
    if pad == 0 {
        return x.clone();
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros([n, c, hp, wp]);
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    for in_ in 0..n {
        for ic in 0..c {
            for ih in 0..h {
                let src_off = ((in_ * c + ic) * h + ih) * w;
                let dst_off = ((in_ * c + ic) * hp + ih + pad) * wp + pad;
                dst[dst_off..dst_off + w].copy_from_slice(&src[src_off..src_off + w]);
            }
        }
    }
    out
}

/// Removes `pad` elements from each spatial border of a `[n, c, h, w]` tensor.
///
/// Inverse of [`pad2d`] for the interior region.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or the padded extent is too small.
pub fn unpad2d(x: &Tensor, pad: usize) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "unpad2d requires [n,c,h,w]");
    if pad == 0 {
        return x.clone();
    }
    let (n, c, hp, wp) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    assert!(hp > 2 * pad && wp > 2 * pad, "padding larger than tensor");
    let (h, w) = (hp - 2 * pad, wp - 2 * pad);
    let mut out = Tensor::zeros([n, c, h, w]);
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    for in_ in 0..n {
        for ic in 0..c {
            for ih in 0..h {
                let src_off = ((in_ * c + ic) * hp + ih + pad) * wp + pad;
                let dst_off = ((in_ * c + ic) * h + ih) * w;
                dst[dst_off..dst_off + w].copy_from_slice(&src[src_off..src_off + w]);
            }
        }
    }
    out
}

/// Lowers a `[n, c, h, w]` input to a `[c·k·k, n·oh·ow]` column matrix.
///
/// Column `j` holds the receptive field of output pixel `j` (outputs ordered
/// `n`-major, then row-major over the output map), so a convolution becomes
/// `W[f, c·k·k] · cols`.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or the kernel does not fit.
pub fn im2col(x: &Tensor, spec: Conv2dSpec) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "im2col requires [n,c,h,w], got {}", x.shape());
    let padded = pad2d(x, spec.padding);
    let (n, c, hp, wp) = (
        padded.dims()[0],
        padded.dims()[1],
        padded.dims()[2],
        padded.dims()[3],
    );
    let k = spec.kernel;
    let oh = spec.output_size(x.dims()[2]);
    let ow = spec.output_size(x.dims()[3]);
    let rows = c * k * k;
    let cols_n = n * oh * ow;
    let mut cols = vec![0.0f32; rows * cols_n];
    let src = padded.as_slice();

    // Each row of the column matrix is one (channel, ky, kx) tap, filled by
    // exactly one worker — a pure scatter, so banding cannot change results.
    parallel::par_bands_mut(&mut cols, rows, cols_n, |row0, nrows, band| {
        for r in 0..nrows {
            let row = row0 + r;
            let ic = row / (k * k);
            let ky = (row / k) % k;
            let kx = row % k;
            let out_row = &mut band[r * cols_n..(r + 1) * cols_n];
            for in_ in 0..n {
                for oy in 0..oh {
                    let src_off = ((in_ * c + ic) * hp + oy * spec.stride + ky) * wp + kx;
                    let dst_off = (in_ * oh + oy) * ow;
                    for ox in 0..ow {
                        out_row[dst_off + ox] = src[src_off + ox * spec.stride];
                    }
                }
            }
        }
    });
    Tensor::from_vec(cols, [rows, cols_n])
}

/// Scatters a `[c·k·k, n·oh·ow]` column matrix back to a `[n, c, h, w]`
/// image, accumulating overlaps. Adjoint of [`im2col`]; used by the
/// convolution backward pass.
///
/// # Panics
///
/// Panics if `cols` is not rank 2 or its shape disagrees with the geometry.
pub fn col2im(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
) -> Tensor {
    assert_eq!(cols.shape().rank(), 2, "col2im requires rank-2 columns");
    let k = spec.kernel;
    let oh = spec.output_size(h);
    let ow = spec.output_size(w);
    assert_eq!(cols.dims()[0], c * k * k, "col2im row count mismatch");
    assert_eq!(cols.dims()[1], n * oh * ow, "col2im column count mismatch");

    let (hp, wp) = (h + 2 * spec.padding, w + 2 * spec.padding);
    let mut padded = vec![0.0f32; n * c * hp * wp];
    let src = cols.as_slice();
    let cols_n = n * oh * ow;

    for in_ in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let col = (in_ * oh + oy) * ow + ox;
                let base_y = oy * spec.stride;
                let base_x = ox * spec.stride;
                for ic in 0..c {
                    for ky in 0..k {
                        let dst_off = ((in_ * c + ic) * hp + base_y + ky) * wp + base_x;
                        for kx in 0..k {
                            let row = (ic * k + ky) * k + kx;
                            padded[dst_off + kx] += src[row * cols_n + col];
                        }
                    }
                }
            }
        }
    }
    let padded_t = Tensor::from_vec(padded, [n, c, hp, wp]);
    unpad2d(&padded_t, spec.padding)
}

/// Convolves `x` `[n, c, h, w]` with filters `w` `[f, c, k, k]`, adding
/// per-filter `bias` `[f]` if provided.
///
/// Returns `[n, f, oh, ow]`.
///
/// **Bit-identical** to `W[f, c·k·k] · im2col(x)` plus bias, without the
/// column matrix. Each image is copied into a zero-padded, stride
/// phase-split scratch image, and the direct kernel
/// `simd::ConvForward::run` runs every output as one lane of a chain that
/// starts at `+0.0` and adds `w · x` in ascending `(ic, ky, kx)`, a
/// separate multiply and add per term, then the bias — the product's
/// operation sequence. **Finite operands only:** zero weights are skipped,
/// which changes no bit while every input pixel is finite (a zero weight
/// over an infinite pixel gives NaN in the product and nothing here). The
/// batch is partitioned across the
/// [`crate::parallel`] workers, each writing its images' slice of the
/// output, so the thread count cannot change a bit.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, spec: Conv2dSpec) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "conv2d input must be [n,c,h,w]");
    assert_eq!(weight.shape().rank(), 4, "conv2d weight must be [f,c,k,k]");
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (f, wc, k, k2) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    assert_eq!(c, wc, "conv2d channel mismatch: input {c}, weight {wc}");
    assert_eq!(k, k2, "conv2d kernels must be square");
    assert_eq!(k, spec.kernel, "spec kernel disagrees with weight");
    if let Some(b) = bias {
        assert_eq!(b.len(), f, "conv2d bias length mismatch");
    }

    let (oh, ow) = (spec.output_size(h), spec.output_size(w));
    let pad = spec.padding;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let geom = simd::ConvGeom { c, k, hp, wp, oh, ow, stride: spec.stride };
    let fwd = simd::ConvForward::new(geom, pad, f, weight.as_slice());
    let level = simd::simd_level();
    let (xs, bs, pix) = (x.as_slice(), bias.map(Tensor::as_slice), oh * ow);

    let mut out = vec![0.0f32; n * f * pix];
    parallel::par_bands_mut(&mut out, n, f * pix, |img0, imgs, chunk| {
        // Zeroed once: every image rewrites the same positions.
        let mut padded = crate::scratch::take_f32(fwd.input_len());
        for i in 0..imgs {
            fwd.load(&xs[(img0 + i) * c * h * w..(img0 + i + 1) * c * h * w], &mut padded);
            fwd.run(level, bs, &padded, &mut chunk[i * f * pix..(i + 1) * f * pix]);
        }
        crate::scratch::put_f32(padded);
    });
    Tensor::from_vec(out, [n, f, oh, ow])
}

/// Weight and bias gradients of [`conv2d`]: `x` `[n, c, h, w]` is the
/// layer input and `grad` `[n, f, oh, ow]` the gradient of its output;
/// returns `dW` `[f, c, k, k]` and `db` `[f]`.
///
/// **Bit-identical** to `matmul(g, transpose(im2col(x)))` reshaped, and to
/// `g` times a column of ones, with `g` the `[f, n·oh·ow]` reorder of
/// `grad`, without either matrix. That product adds each term to its
/// output in ascending `k`, starting from `+0.0`, with a separate multiply
/// and add; here `k` runs over the output pixels, image-major. The direct
/// kernel `simd::conv_weight_grad_image` advances the same chains one image
/// at a time, reading each window straight from a zero-padded copy of the
/// image, one `kx` tap per vector lane, with each filter's bias chain
/// advanced in the same pass. **Finite operands only:** zero gradients are
/// skipped, which changes no bit while every input pixel is finite (a zero
/// gradient over an infinite pixel gives NaN in the product and nothing
/// here). The chains run across the batch but never across filters, so
/// the filters are split into contiguous runs across the
/// [`crate::parallel`] workers, each running its run through the whole
/// batch, and the thread count cannot change a bit.
///
/// # Panics
///
/// Panics on rank mismatches or if `grad` disagrees with the geometry.
pub fn conv2d_weight_grad(x: &Tensor, grad: &Tensor, spec: Conv2dSpec) -> (Tensor, Tensor) {
    assert_eq!(x.shape().rank(), 4, "conv2d_weight_grad input must be [n,c,h,w]");
    assert_eq!(grad.shape().rank(), 4, "conv2d_weight_grad grad must be [n,f,oh,ow]");
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let f = grad.dims()[1];
    let (oh, ow) = (spec.output_size(h), spec.output_size(w));
    assert_eq!(grad.dims(), &[n, f, oh, ow], "conv2d_weight_grad grad shape mismatch");
    let (k, pad) = (spec.kernel, spec.padding);
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let geom = simd::ConvGeom { c, k, hp, wp, oh, ow, stride: spec.stride };
    let level = simd::simd_level();
    let (xs, gs) = (x.as_slice(), grad.as_slice());

    // Chains never cross filters: each worker takes a run of filters
    // through the whole batch, with its own padded copy of each image (the
    // border and the vector tail the last window's load reads stay zero;
    // only the interior is rewritten).
    let filters: Vec<usize> = (0..f).collect();
    let shards = parallel::par_map_shards(&filters, |f0, band| {
        let nf = band.len();
        let (mut dw, mut db) = (vec![0.0f32; nf * c * k * k], vec![0.0f32; nf]);
        let mut padded = crate::scratch::take_f32(c * hp * wp + simd::WGRAD_LANES - 1);
        let mut scratch = simd::WgradScratch::new(geom);
        for img in 0..n {
            for ic in 0..c {
                for y in 0..h {
                    let src_off = ((img * c + ic) * h + y) * w;
                    let dst_off = (ic * hp + y + pad) * wp + pad;
                    padded[dst_off..dst_off + w].copy_from_slice(&xs[src_off..src_off + w]);
                }
            }
            let g_band = &gs[(img * f + f0) * oh * ow..(img * f + f0 + nf) * oh * ow];
            simd::conv_weight_grad_image(
                level,
                geom,
                g_band,
                &padded,
                &mut dw,
                &mut db,
                &mut scratch,
            );
        }
        crate::scratch::put_f32(padded);
        (dw, db)
    });
    let (mut dw, mut db) = (Vec::with_capacity(f * c * k * k), Vec::with_capacity(f));
    for (band_dw, band_db) in shards {
        dw.extend(band_dw);
        db.extend(band_db);
    }
    (
        Tensor::from_vec(dw, [f, c, k, k]),
        Tensor::from_vec(db, [f]),
    )
}

/// Input gradient of [`conv2d`]: `grad` `[n, f, oh, ow]` is the gradient of
/// the output, `weight` `[f, c, k, k]` the filters and `(h, w)` the input
/// size; returns `[n, c, h, w]`.
///
/// **Bit-identical** to `col2im(matmul(transpose(W), g), …)` with `g` the
/// `[f, n·oh·ow]` reorder of `grad`, without either matrix. The batched
/// `col2im` adds the contributions to one padded element in ascending
/// output-pixel order; within a channel a later output pixel reaches that
/// element through a smaller `(ky, kx)`, at any stride, so that order is
/// descending tap. The direct kernel `simd::ConvInputGrad::run` gives each
/// interior element an accumulator lane from `+0.0` and adds every tap's
/// contribution in that order, each computed as the product's ascending-`f`
/// chain from `+0.0`, reading a zero-bordered copy of the image's gradient.
/// **Finite operands only:** a tap whose output column lies outside the map
/// reads that border and adds `+0.0`, which changes no bit for finite
/// weights (a non-finite weight times the border's zero is NaN). Images are
/// split across the [`crate::parallel`] workers, each owning its slice of
/// the result, so the thread count cannot change a bit.
///
/// # Panics
///
/// Panics on rank or channel mismatches or if `grad` disagrees with the
/// geometry.
pub fn conv2d_input_grad(
    grad: &Tensor,
    weight: &Tensor,
    (h, w): (usize, usize),
    spec: Conv2dSpec,
) -> Tensor {
    assert_eq!(grad.shape().rank(), 4, "conv2d_input_grad grad must be [n,f,oh,ow]");
    assert_eq!(weight.shape().rank(), 4, "conv2d_input_grad weight must be [f,c,k,k]");
    let (n, f) = (grad.dims()[0], grad.dims()[1]);
    let (wf, c, k) = (weight.dims()[0], weight.dims()[1], weight.dims()[2]);
    assert_eq!(f, wf, "conv2d_input_grad filter mismatch: grad {f}, weight {wf}");
    assert_eq!(k, spec.kernel, "spec kernel disagrees with weight");
    let (oh, ow) = (spec.output_size(h), spec.output_size(w));
    assert_eq!(grad.dims(), &[n, f, oh, ow], "conv2d_input_grad grad shape mismatch");
    let pad = spec.padding;
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let geom = simd::ConvGeom { c, k, hp, wp, oh, ow, stride: spec.stride };
    let plan = simd::ConvInputGrad::new(geom, pad, f, weight.as_slice());
    let level = simd::simd_level();
    let (gs, pix) = (grad.as_slice(), oh * ow);

    let mut out = vec![0.0f32; n * c * h * w];
    parallel::par_bands_mut(&mut out, n, c * h * w, |img0, imgs, chunk| {
        // Zeroed once: every image rewrites the same positions.
        let mut gpad = crate::scratch::take_f32(plan.grad_len());
        let mut acc = Vec::new();
        for i in 0..imgs {
            plan.load(
                &gs[(img0 + i) * f * pix..(img0 + i + 1) * f * pix],
                &mut gpad,
            );
            plan.run(
                level,
                &gpad,
                &mut chunk[i * c * h * w..(i + 1) * c * h * w],
                &mut acc,
            );
        }
        crate::scratch::put_f32(gpad);
    });
    Tensor::from_vec(out, [n, c, h, w])
}

/// Direct (nested-loop) convolution; reference oracle for [`conv2d`].
///
/// # Panics
///
/// Panics under the same conditions as [`conv2d`].
pub fn conv2d_direct(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: Conv2dSpec,
) -> Tensor {
    assert_eq!(x.shape().rank(), 4);
    assert_eq!(weight.shape().rank(), 4);
    let padded = pad2d(x, spec.padding);
    let (n, c, hp, wp) = (
        padded.dims()[0],
        padded.dims()[1],
        padded.dims()[2],
        padded.dims()[3],
    );
    let f = weight.dims()[0];
    let k = spec.kernel;
    let oh = spec.output_size(x.dims()[2]);
    let ow = spec.output_size(x.dims()[3]);
    let xs = padded.as_slice();
    let ws = weight.as_slice();
    let mut out = Tensor::zeros([n, f, oh, ow]);
    let os = out.as_mut_slice();
    for in_ in 0..n {
        for fi in 0..f {
            let b = bias.map_or(0.0, |t| t.as_slice()[fi]);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ic in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy * spec.stride + ky;
                                let ix = ox * spec.stride + kx;
                                acc += xs[((in_ * c + ic) * hp + iy) * wp + ix]
                                    * ws[((fi * c + ic) * k + ky) * k + kx];
                            }
                        }
                    }
                    os[((in_ * f + fi) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len: usize = dims.iter().product();
        Tensor::from_vec((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect(), dims)
    }

    #[test]
    fn spec_output_size() {
        let s = Conv2dSpec::new(3, 1, 1);
        assert_eq!(s.output_size(8), 8);
        let s = Conv2dSpec::new(5, 1, 0);
        assert_eq!(s.output_size(28), 24);
        let s = Conv2dSpec::new(2, 2, 0);
        assert_eq!(s.output_size(8), 4);
    }

    #[test]
    #[should_panic(expected = "kernel must be positive")]
    fn zero_kernel_panics() {
        Conv2dSpec::new(0, 1, 0);
    }

    #[test]
    fn pad_unpad_round_trip() {
        let x = rand_tensor(&[2, 3, 4, 5], 1);
        let p = pad2d(&x, 2);
        assert_eq!(p.dims(), &[2, 3, 8, 9]);
        assert_eq!(unpad2d(&p, 2), x);
        // Border must be zero.
        assert_eq!(p.at(&[0, 0, 0, 0]), 0.0);
        assert_eq!(p.at(&[1, 2, 7, 8]), 0.0);
    }

    #[test]
    fn im2col_shape_and_content() {
        // 1×1×3×3 input, 2×2 kernel, stride 1, no pad → 4 output pixels.
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), [1, 1, 3, 3]);
        let cols = im2col(&x, Conv2dSpec::new(2, 1, 0));
        assert_eq!(cols.dims(), &[4, 4]);
        // First column = top-left window [1,2,4,5].
        assert_eq!(cols.at(&[0, 0]), 1.0);
        assert_eq!(cols.at(&[1, 0]), 2.0);
        assert_eq!(cols.at(&[2, 0]), 4.0);
        assert_eq!(cols.at(&[3, 0]), 5.0);
        // Last column = bottom-right window [5,6,8,9].
        assert_eq!(cols.at(&[0, 3]), 5.0);
        assert_eq!(cols.at(&[3, 3]), 9.0);
    }

    #[test]
    fn conv2d_matches_direct() {
        for &(n, c, h, w, f, k, stride, pad) in &[
            (1, 1, 5, 5, 1, 3, 1, 0),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (1, 2, 7, 9, 3, 5, 2, 2),
            (3, 4, 6, 6, 2, 1, 1, 0),
        ] {
            let x = rand_tensor(&[n, c, h, w], 11);
            let wt = rand_tensor(&[f, c, k, k], 13);
            let b = rand_tensor(&[f], 17);
            let spec = Conv2dSpec::new(k, stride, pad);
            let fast = conv2d(&x, &wt, Some(&b), spec);
            let slow = conv2d_direct(&x, &wt, Some(&b), spec);
            assert_eq!(fast.dims(), slow.dims());
            for (a, bv) in fast.iter().zip(slow.iter()) {
                assert!((a - bv).abs() < 1e-4, "{a} vs {bv}");
            }
        }
    }

    #[test]
    fn conv2d_bit_identical_to_column_product_at_every_level() {
        // `W · im2col(x)` plus bias, reordered to `[n, f, oh, ow]`. Strides
        // wider than the kernel skip rows and phases of the padded copy.
        for &(n, c, h, w, f, k, stride, pad, biased) in &[
            (2, 1, 28, 28, 3, 5, 1, 2, true),
            (3, 3, 14, 13, 8, 5, 1, 0, false),
            (2, 4, 16, 16, 5, 3, 2, 1, true),
            (2, 3, 9, 11, 4, 1, 3, 1, true),
            (1, 2, 10, 7, 2, 2, 3, 0, false),
            (1, 1, 5, 5, 9, 5, 1, 0, true),
        ] {
            let x = rand_tensor(&[n, c, h, w], 19);
            let mut wt = rand_tensor(&[f, c, k, k], 23);
            // Zero weights are skipped; the chains must not notice.
            for v in wt.as_mut_slice().iter_mut().step_by(4) {
                *v = 0.0;
            }
            let b = rand_tensor(&[f], 29);
            let spec = Conv2dSpec::new(k, stride, pad);
            let (oh, ow) = (spec.output_size(h), spec.output_size(w));
            let prod = crate::linalg::matmul_naive(&wt.reshape([f, c * k * k]), &im2col(&x, spec));
            let mut want = vec![0.0f32; n * f * oh * ow];
            for (j, &v) in prod.iter().enumerate() {
                let (fi, col) = (j / (n * oh * ow), j % (n * oh * ow));
                let (img, p) = (col / (oh * ow), col % (oh * ow));
                want[(img * f + fi) * oh * ow + p] = if biased { v + b.as_slice()[fi] } else { v };
            }
            for level in [simd::SimdLevel::Scalar, simd::SimdLevel::Avx2] {
                for threads in [1, 3] {
                    let got = simd::with_simd_level(level, || {
                        parallel::with_num_threads(threads, || {
                            conv2d(&x, &wt, biased.then_some(&b), spec)
                        })
                    });
                    assert_eq!(got.dims(), &[n, f, oh, ow]);
                    for (i, (a, e)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(a.to_bits(), e.to_bits(), "{level:?} {threads}t k={k} s={stride} #{i}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_skipping_is_exact_only_for_finite_operands() {
        // The kernels skip zero terms: zero gradients in `dW`, zero weights
        // in the forward. That changes no bit while the other operand is
        // finite. Over an infinite pixel the column products add `0 · ∞`,
        // which is NaN, and the kernels add nothing: the contract is
        // finite operands, and these two cases pin what lies outside it.
        let spec = Conv2dSpec::new(1, 1, 0);
        let x = Tensor::from_vec(vec![f32::INFINITY, 3.0], [1, 1, 1, 2]);
        let g = Tensor::from_vec(vec![0.0, 0.5], [1, 1, 1, 2]);
        let product = crate::linalg::matmul_naive(
            &g.reshape([1, 2]),
            &crate::linalg::transpose(&im2col(&x, spec)),
        );
        assert!(product.as_slice()[0].is_nan());
        for level in [simd::SimdLevel::Scalar, simd::SimdLevel::Avx2] {
            let (dw, db) = simd::with_simd_level(level, || conv2d_weight_grad(&x, &g, spec));
            assert_eq!(dw.as_slice(), &[1.5], "{level:?}");
            assert_eq!(db.as_slice(), &[0.5], "{level:?}");
        }

        let spec = Conv2dSpec::new(2, 1, 0);
        let x = Tensor::from_vec(vec![f32::INFINITY, 2.0, 0.0, 0.0], [1, 1, 2, 2]);
        let wt = Tensor::from_vec(vec![0.0, 2.0, 0.0, 0.0], [1, 1, 2, 2]);
        let product = crate::linalg::matmul_naive(&wt.reshape([1, 4]), &im2col(&x, spec));
        assert!(product.as_slice()[0].is_nan());
        for level in [simd::SimdLevel::Scalar, simd::SimdLevel::Avx2] {
            let y = simd::with_simd_level(level, || conv2d(&x, &wt, None, spec));
            assert_eq!(y.as_slice(), &[4.0], "{level:?}");
        }
    }

    #[test]
    fn conv2d_known_values() {
        // Single 2×2 averaging-ish filter over a 2×2 input.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let w = Tensor::ones([1, 1, 2, 2]);
        let y = conv2d(&x, &w, None, Conv2dSpec::new(2, 1, 0));
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice()[0], 10.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property the backward pass relies on.
        let spec = Conv2dSpec::new(3, 2, 1);
        let (n, c, h, w) = (2, 2, 6, 5);
        let x = rand_tensor(&[n, c, h, w], 3);
        let cols = im2col(&x, spec);
        let y = rand_tensor(cols.dims(), 5);
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum();
        let back = col2im(&y, n, c, h, w, spec);
        let rhs: f32 = x.iter().zip(back.iter()).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
