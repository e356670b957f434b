//! The optimizer: stochastic gradient descent with momentum and weight
//! decay, the one update rule every training flow runs (the paper trains
//! with plain SGD on Eq. 2's regularized loss).
//!
//! The momentum buffers are keyed by the position of each parameter in the
//! `params()` enumeration, which is stable for a fixed network structure; a
//! step over a different parameter count starts them again from zero.

use crate::layer::Param;
use qsnc_tensor::Tensor;

/// Stochastic gradient descent with optional momentum and weight decay.
///
/// Weight decay is applied only to parameters flagged `is_weight`, matching
/// common practice (no decay on biases or batch-norm affine terms).
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        Sgd::with_momentum(lr, 0.0, 0.0)
    }

    /// SGD with momentum and weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step to `params`, consuming their accumulated
    /// gradients (the caller zeroes gradients afterwards).
    pub fn step(&mut self, params: &mut [Param<'_>]) {
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| Tensor::zeros(p.value.dims())).collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            let wd = if p.is_weight { self.weight_decay } else { 0.0 };
            let v = &mut self.velocity[i];
            for ((vi, &gi), wi) in v
                .iter_mut()
                .zip(p.grad.iter())
                .zip(p.value.as_mut_slice().iter_mut())
            {
                let g = gi + wd * *wi;
                *vi = self.momentum * *vi + g;
                *wi -= self.lr * *vi;
            }
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (for step decay).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_step(opt: &mut Sgd, w: &mut Tensor, steps: usize) -> f32 {
        // Minimize f(w) = ½‖w‖²; gradient = w.
        for _ in 0..steps {
            let mut g = w.clone();
            let mut params = vec![Param {
                name: "w".into(),
                value: w,
                grad: &mut g,
                is_weight: true,
            }];
            opt.step(&mut params);
        }
        w.norm_l2()
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut w = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let start = w.norm_l2();
        let end = quad_step(&mut Sgd::new(0.1), &mut w, 50);
        assert!(end < start * 0.01, "start {start} end {end}");
    }

    #[test]
    fn sgd_momentum_descends_faster() {
        let mut w1 = Tensor::from_slice(&[5.0]);
        let mut w2 = Tensor::from_slice(&[5.0]);
        let plain = quad_step(&mut Sgd::new(0.01), &mut w1, 30);
        let momentum = quad_step(&mut Sgd::with_momentum(0.01, 0.9, 0.0), &mut w2, 30);
        assert!(momentum < plain, "momentum {momentum} vs plain {plain}");
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut w = Tensor::from_slice(&[1.0]);
        let mut g = Tensor::zeros([1]);
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        for _ in 0..10 {
            let mut params = vec![Param {
                name: "w".into(),
                value: &mut w,
                grad: &mut g,
                is_weight: true,
            }];
            opt.step(&mut params);
        }
        assert!(w.as_slice()[0] < 1.0);
        assert!(w.as_slice()[0] > 0.0);
    }

    #[test]
    fn no_decay_on_biases() {
        let mut b = Tensor::from_slice(&[1.0]);
        let mut g = Tensor::zeros([1]);
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        let mut params = vec![Param {
            name: "b".into(),
            value: &mut b,
            grad: &mut g,
            is_weight: false,
        }];
        opt.step(&mut params);
        assert_eq!(b.as_slice()[0], 1.0);
    }

    #[test]
    fn lr_schedule_roundtrip() {
        let mut opt = Sgd::new(0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_panics() {
        Sgd::new(0.0);
    }
}
