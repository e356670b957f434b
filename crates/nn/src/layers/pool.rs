//! Spatial pooling layers.

use crate::layer::{Layer, Mode};
use qsnc_tensor::{Conv2dSpec, Tensor};

/// Max pooling over `[n, c, h, w]` inputs with a square window.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    spec: Conv2dSpec,
    // flat input index of each output's max, plus shapes, cached for backward.
    argmax: Option<Vec<usize>>,
    input_dims: Option<[usize; 4]>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with the given window and stride.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: Conv2dSpec::new(window, stride, 0),
            argmax: None,
            input_dims: None,
        }
    }

    /// Pooling window edge length.
    pub fn window(&self) -> usize {
        self.spec.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.spec.stride
    }
}

impl Layer for MaxPool2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "maxpool2d expects [n,c,h,w]");
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let oh = self.spec.output_size(h);
        let ow = self.spec.output_size(w);
        let k = self.spec.kernel;
        let s = self.spec.stride;
        let xs = x.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        // Only backward reads the argmax, so only a training forward builds it.
        let mut arg = (mode == Mode::Train).then(|| vec![0usize; out.len()]);
        if k == 2 && s == 2 {
            max_pool_2x2(xs, [h, w], [oh, ow], &mut out, arg.as_deref_mut());
        } else {
            for in_ in 0..n {
                for ic in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let oidx = ((in_ * c + ic) * oh + oy) * ow + ox;
                            // A window with no element above −∞ (all NaN or
                            // −∞) routes its gradient to its first element.
                            let first = ((in_ * c + ic) * h + oy * s) * w + ox * s;
                            let (mut max, mut at) = (f32::NEG_INFINITY, first);
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iidx = first + ky * w + kx;
                                    if xs[iidx] > max {
                                        max = xs[iidx];
                                        at = iidx;
                                    }
                                }
                            }
                            out[oidx] = max;
                            if let Some(arg) = arg.as_mut() {
                                arg[oidx] = at;
                            }
                        }
                    }
                }
            }
        }
        if arg.is_some() {
            self.argmax = arg;
            self.input_dims = Some([n, c, h, w]);
        }
        Tensor::from_vec(out, [n, c, oh, ow])
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let arg = self
            .argmax
            .as_ref()
            .expect("maxpool2d backward called before training-mode forward");
        let [n, c, h, w] = self.input_dims.expect("missing cached dims");
        assert_eq!(grad.len(), arg.len(), "maxpool2d grad length mismatch");
        let mut dx = Tensor::zeros([n, c, h, w]);
        let data = dx.as_mut_slice();
        for (&g, &idx) in grad.iter().zip(arg.iter()) {
            data[idx] += g;
        }
        dx
    }
}

/// The 2×2, stride-2 case of [`MaxPool2d::forward`], the window every
/// pooling layer of the model zoo uses: same outputs, and the same argmax
/// (first maximum in scan order by strict `>`, the window's first element
/// when none exceeds −∞). It walks each pair of input rows as two slices,
/// so the window has no index arithmetic left; the general loop's runtime
/// `k`/`s` indexing costs 1.5–2× as much at LeNet's first pool.
///
/// `[h, w]` is the input plane and `[oh, ow]` the output plane; `out`
/// holds whole output planes, and `arg`, when given, is as long as `out`.
fn max_pool_2x2(
    xs: &[f32],
    [h, w]: [usize; 2],
    [oh, ow]: [usize; 2],
    out: &mut [f32],
    mut arg: Option<&mut [usize]>,
) {
    for (row, out_row) in out.chunks_exact_mut(ow).enumerate() {
        // Output row `oy` of plane `p` reads input rows `2·oy` and `2·oy + 1`.
        let (p, oy) = (row / oh, row % oh);
        let top = (p * h + 2 * oy) * w;
        let r0 = &xs[top..top + 2 * ow];
        let r1 = &xs[top + w..top + w + 2 * ow];
        let windows = r0.chunks_exact(2).zip(r1.chunks_exact(2));
        match arg.as_deref_mut() {
            Some(arg) => {
                let arg_row = &mut arg[row * ow..(row + 1) * ow];
                let cells = out_row.iter_mut().zip(arg_row).zip(windows);
                for (ox, ((o, a), (t, b))) in cells.enumerate() {
                    let (mut max, mut at) = (f32::NEG_INFINITY, 0);
                    for (i, v) in [t[0], t[1], b[0], b[1]].into_iter().enumerate() {
                        if v > max {
                            max = v;
                            at = i;
                        }
                    }
                    *o = max;
                    *a = top + 2 * ox + (at & 1) + (at >> 1) * w;
                }
            }
            None => {
                for (o, (t, b)) in out_row.iter_mut().zip(windows) {
                    let mut max = f32::NEG_INFINITY;
                    for v in [t[0], t[1], b[0], b[1]] {
                        if v > max {
                            max = v;
                        }
                    }
                    *o = max;
                }
            }
        }
    }
}

/// Average pooling over `[n, c, h, w]` inputs with a square window.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    spec: Conv2dSpec,
    input_dims: Option<[usize; 4]>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with the given window and stride.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `stride` is zero.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: Conv2dSpec::new(window, stride, 0),
            input_dims: None,
        }
    }

    /// Global average pooling helper: a window covering the full map.
    pub fn global(h: usize) -> Self {
        AvgPool2d::new(h, 1)
    }

    /// Pooling window edge length.
    pub fn window(&self) -> usize {
        self.spec.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.spec.stride
    }
}

impl Layer for AvgPool2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "avgpool2d expects [n,c,h,w]");
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let oh = self.spec.output_size(h);
        let ow = self.spec.output_size(w);
        let k = self.spec.kernel;
        let s = self.spec.stride;
        let norm = 1.0 / (k * k) as f32;
        let xs = x.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        for in_ in 0..n {
            for ic in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += xs[((in_ * c + ic) * h + oy * s + ky) * w + ox * s + kx];
                            }
                        }
                        out[((in_ * c + ic) * oh + oy) * ow + ox] = acc * norm;
                    }
                }
            }
        }
        if mode == Mode::Train {
            self.input_dims = Some([n, c, h, w]);
        }
        Tensor::from_vec(out, [n, c, oh, ow])
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let [n, c, h, w] = self
            .input_dims
            .expect("avgpool2d backward called before training-mode forward");
        let oh = self.spec.output_size(h);
        let ow = self.spec.output_size(w);
        let k = self.spec.kernel;
        let s = self.spec.stride;
        let norm = 1.0 / (k * k) as f32;
        assert_eq!(grad.dims(), &[n, c, oh, ow], "avgpool2d grad shape mismatch");
        let gs = grad.as_slice();
        let mut dx = Tensor::zeros([n, c, h, w]);
        let data = dx.as_mut_slice();
        for in_ in 0..n {
            for ic in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gs[((in_ * c + ic) * oh + oy) * ow + ox] * norm;
                        for ky in 0..k {
                            for kx in 0..k {
                                data[((in_ * c + ic) * h + oy * s + ky) * w + ox * s + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_known_values() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            [1, 1, 4, 4],
        );
        let mut pool = MaxPool2d::new(2, 2);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 4.0, 3.0], [1, 1, 2, 2]);
        let mut pool = MaxPool2d::new(2, 2);
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::from_vec(vec![5.0], [1, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn maxpool_eval_and_train_outputs_are_bit_identical() {
        let vals = [
            -0.5, 3.0, -0.0, 0.0, 2.0, 7.5, -1.0, 7.5, 1.0, -2.0, 4.0, 0.25, -3.0, 6.0, 5.0, -0.0,
        ];
        let x = Tensor::from_vec(vals.repeat(2), [2, 1, 4, 4]);
        let mut pool = MaxPool2d::new(3, 1);
        let eval = pool.forward(&x, Mode::Eval);
        let train = pool.forward(&x, Mode::Train);
        let bits = |t: &Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&eval), bits(&train));
        // Train still caches what backward needs, and an Eval forward in
        // between leaves that cache alone.
        pool.forward(&x, Mode::Eval);
        let dx = pool.backward(&Tensor::ones([2, 1, 2, 2]));
        assert_eq!(dx.dims(), x.dims());
        assert_eq!(dx.sum(), 8.0);
        // The two 7.5s tie; the first in scan order takes every window's grad.
        assert_eq!(dx.at(&[0, 0, 1, 1]), 4.0);
    }

    #[test]
    fn avgpool_forward_and_backward() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [1, 1, 2, 2]);
        let mut pool = AvgPool2d::new(2, 2);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = pool.backward(&Tensor::from_vec(vec![4.0], [1, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avgpool_reduces_to_one_pixel() {
        let x = Tensor::ones([2, 3, 4, 4]);
        let mut pool = AvgPool2d::global(4);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.dims(), &[2, 3, 1, 1]);
        assert!(y.iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    /// The definition: each window scanned row by row, the first strict
    /// maximum above −∞ wins, else the window's first element.
    fn naive_maxpool(x: &Tensor, k: usize, s: usize) -> (Vec<f32>, Vec<usize>) {
        let [n, c, h, w] = [x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]];
        let (oh, ow) = ((h - k) / s + 1, (w - k) / s + 1);
        let (mut out, mut arg) = (Vec::new(), Vec::new());
        for plane in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let first = (plane * h + oy * s) * w + ox * s;
                    let (mut max, mut at) = (f32::NEG_INFINITY, first);
                    for ky in 0..k {
                        for kx in 0..k {
                            let i = first + ky * w + kx;
                            if x.as_slice()[i] > max {
                                max = x.as_slice()[i];
                                at = i;
                            }
                        }
                    }
                    out.push(max);
                    arg.push(at);
                }
            }
        }
        (out, arg)
    }

    #[test]
    fn maxpool_matches_naive_loop() {
        let mut rng = qsnc_tensor::TensorRng::seed(5);
        // Small integers make ties common; NaN, ±0 and −∞ ride along.
        let mut vals: Vec<f32> = (0..2 * 3 * 7 * 8)
            .map(|_| rng.index(5) as f32 - 2.0)
            .collect();
        for (i, special) in [f32::NAN, -0.0, f32::NEG_INFINITY, f32::NAN, 0.0]
            .into_iter()
            .enumerate()
        {
            vals[i * 37] = special;
        }
        let x = Tensor::from_vec(vals, [2, 3, 7, 8]);
        for k in 1..=3 {
            for s in 1..=3 {
                let (want, want_arg) = naive_maxpool(&x, k, s);
                let mut pool = MaxPool2d::new(k, s);
                let eval = pool.forward(&x, Mode::Eval);
                let train = pool.forward(&x, Mode::Train);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(eval.as_slice()), bits(&want), "k={k} s={s}");
                assert_eq!(bits(train.as_slice()), bits(&want), "k={k} s={s}");
                assert_eq!(pool.argmax.as_deref(), Some(&want_arg[..]), "k={k} s={s}");
                let grad = Tensor::from_vec(
                    (0..want.len()).map(|i| i as f32 + 1.0).collect(),
                    train.dims(),
                );
                let mut want_dx = vec![0.0f32; x.len()];
                for (&g, &i) in grad.iter().zip(&want_arg) {
                    want_dx[i] += g;
                }
                assert_eq!(pool.backward(&grad).as_slice(), &want_dx[..], "k={k} s={s}");
            }
        }
    }

    #[test]
    fn maxpool_routes_undefined_window_to_its_first_element() {
        // No element of the second image's windows exceeds −∞: their
        // gradient goes to each window's first element, not to element 0.
        for (k, s) in [(2, 2), (3, 1)] {
            let mut vals = vec![1.0f32; 16];
            vals.extend([f32::NAN, f32::NEG_INFINITY].repeat(8));
            let x = Tensor::from_vec(vals, [2, 1, 4, 4]);
            let mut pool = MaxPool2d::new(k, s);
            let y = pool.forward(&x, Mode::Train);
            let per_image = y.len() / 2;
            assert!(y.as_slice()[per_image..]
                .iter()
                .all(|&v| v == f32::NEG_INFINITY));
            let dx = pool.backward(&Tensor::ones(y.dims()));
            assert_eq!(dx.at(&[0, 0, 0, 0]), 1.0, "k={k} s={s}");
            let firsts = naive_maxpool(&x, k, s).1;
            for &i in &firsts[per_image..] {
                assert_eq!(i / 16, 1, "k={k} s={s}: routed out of its image");
                assert!(dx.as_slice()[i] >= 1.0, "k={k} s={s}");
            }
            assert_eq!(dx.sum(), y.len() as f32);
        }
    }

    #[test]
    fn maxpool_overlapping_windows_accumulate_grad() {
        // stride 1 window 2 on 3-wide input: center pixel may win twice.
        let x = Tensor::from_vec(vec![0.0, 9.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0], [1, 1, 3, 3]);
        let mut pool = MaxPool2d::new(2, 1);
        pool.forward(&x, Mode::Train);
        let dx = pool.backward(&Tensor::ones([1, 1, 2, 2]));
        // All four windows' maxima are the two 9s; total grad mass preserved.
        assert_eq!(dx.sum(), 4.0);
    }
}
