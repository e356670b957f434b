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
        for in_ in 0..n {
            for ic in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let oidx = ((in_ * c + ic) * oh + oy) * ow + ox;
                        let (mut max, mut at) = (f32::NEG_INFINITY, 0);
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy * s + ky;
                                let ix = ox * s + kx;
                                let iidx = ((in_ * c + ic) * h + iy) * w + ix;
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
