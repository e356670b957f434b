//! Weight initialization and deterministic random tensors.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random-number source used across qsnc.
///
/// Thin wrapper over a seeded [`StdRng`]; every experiment in the repository
/// threads one of these through so that tables are reproducible run-to-run.
///
/// # Examples
///
/// ```
/// use qsnc_tensor::TensorRng;
///
/// let mut a = TensorRng::seed(42);
/// let mut b = TensorRng::seed(42);
/// assert_eq!(a.uniform(-1.0, 1.0), b.uniform(-1.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: StdRng,
}

impl TensorRng {
    /// Creates a generator from a seed.
    pub fn seed(seed: u64) -> Self {
        TensorRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.gen_range(lo..hi)
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        // Box–Muller keeps us off external distributions and is plenty for
        // weight init and noise injection.
        let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index bound must be positive");
        self.rng.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f32) -> bool {
        self.rng.gen::<f32>() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Splits off an independent generator (seeded from this one's stream).
    pub fn fork(&mut self) -> TensorRng {
        TensorRng::seed(self.rng.gen())
    }
}

/// Tensor filled with uniform samples from `[lo, hi)`.
pub fn uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut TensorRng) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| rng.uniform(lo, hi)).collect();
    Tensor::from_vec(data, shape)
}

/// Tensor filled with normal samples `N(mean, std²)`.
pub fn normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut TensorRng) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len()).map(|_| rng.normal_with(mean, std)).collect();
    Tensor::from_vec(data, shape)
}

/// Xavier/Glorot uniform initialization for a layer with the given fan-in
/// and fan-out: `U(±sqrt(6 / (fan_in + fan_out)))`.
pub fn xavier_uniform(
    shape: impl Into<Shape>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut TensorRng,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

/// Kaiming/He normal initialization for ReLU networks:
/// `N(0, sqrt(2 / fan_in))`.
pub fn he_normal(shape: impl Into<Shape>, fan_in: usize, rng: &mut TensorRng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    normal(shape, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = TensorRng::seed(123);
        let mut b = TensorRng::seed(123);
        let ta = uniform([100], -1.0, 1.0, &mut a);
        let tb = uniform([100], -1.0, 1.0, &mut b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TensorRng::seed(1);
        let mut b = TensorRng::seed(2);
        assert_ne!(
            uniform([50], 0.0, 1.0, &mut a),
            uniform([50], 0.0, 1.0, &mut b)
        );
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = TensorRng::seed(9);
        let t = uniform([1000], -0.5, 0.5, &mut rng);
        assert!(t.iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut rng = TensorRng::seed(4);
        let t = normal([20000], 1.0, 2.0, &mut rng);
        assert!((t.mean() - 1.0).abs() < 0.1, "mean {}", t.mean());
        assert!((t.std() - 2.0).abs() < 0.1, "std {}", t.std());
    }

    #[test]
    fn xavier_bound_is_correct() {
        let mut rng = TensorRng::seed(2);
        let t = xavier_uniform([100, 100], 100, 100, &mut rng);
        let bound = (6.0f32 / 200.0).sqrt();
        assert!(t.abs_max() <= bound);
        assert!(t.abs_max() > bound * 0.5, "suspiciously tight");
    }

    #[test]
    fn he_normal_scale() {
        let mut rng = TensorRng::seed(3);
        let t = he_normal([50000], 50, &mut rng);
        let expected = (2.0f32 / 50.0).sqrt();
        assert!((t.std() - expected).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = TensorRng::seed(5);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input ordered");
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut a = TensorRng::seed(7);
        let mut fork = a.fork();
        // The fork should not replay the parent's stream.
        let x = a.uniform(0.0, 1.0);
        let y = fork.uniform(0.0, 1.0);
        assert_ne!(x, y);
    }
}
