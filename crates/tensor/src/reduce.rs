//! Reductions and statistics over tensors.

use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Largest element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute value (0 for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.iter().map(|x| x.abs()).fold(0.0, f32::max)
    }

    /// Flat index of the largest element.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Population variance of all elements (0 for an empty tensor).
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / self.len() as f32
    }

    /// Population standard deviation.
    pub fn std(&self) -> f32 {
        self.variance().sqrt()
    }

    /// L2 norm (Euclidean).
    pub fn norm_l2(&self) -> f32 {
        self.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Fraction of elements equal to zero.
    pub fn sparsity(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        self.iter().filter(|&&x| x == 0.0).count() as f32 / self.len() as f32
    }

    /// Counts elements for which `pred` holds.
    pub fn count(&self, pred: impl Fn(f32) -> bool) -> usize {
        self.iter().filter(|&&x| pred(x)).count()
    }

    /// Histogram of elements over `bins` equal-width buckets spanning
    /// `[lo, hi]`. Values outside the range are clamped into the edge bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn histogram(&self, lo: f32, hi: f32, bins: usize) -> Vec<usize> {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        let mut counts = vec![0usize; bins];
        let width = (hi - lo) / bins as f32;
        for &x in self.iter() {
            let mut b = ((x - lo) / width) as isize;
            b = b.clamp(0, bins as isize - 1);
            counts[b as usize] += 1;
        }
        counts
    }

    /// Row-wise argmax for a rank-2 tensor: returns one index per row.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape().rank(), 2, "argmax_rows requires rank 2");
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let data = self.as_slice();
        (0..rows)
            .map(|r| {
                let row = &data[r * cols..(r + 1) * cols];
                let mut best = 0;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

/// Numerically stable row-wise softmax on a `[rows, cols]` tensor.
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().rank(), 2, "softmax_rows requires rank 2");
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    let src = x.as_slice();
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for (i, &v) in row.iter().enumerate() {
            let e = (v - m).exp();
            out[r * cols + i] = e;
            denom += e;
        }
        for v in &mut out[r * cols..(r + 1) * cols] {
            *v /= denom;
        }
    }
    Tensor::from_vec(out, [rows, cols])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_reductions() {
        let t = Tensor::from_slice(&[1.0, -2.0, 3.0, 0.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.abs_max(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.norm_l2() - 14.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(t.sparsity(), 0.25);
        assert_eq!(t.count(|x| x > 0.0), 2);
    }

    #[test]
    fn variance_and_std() {
        let t = Tensor::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((t.variance() - 4.0).abs() < 1e-6);
        assert!((t.std() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let t = Tensor::from_slice(&[-5.0, 0.1, 0.9, 1.5, 2.5, 99.0]);
        let h = t.histogram(0.0, 3.0, 3);
        // bins: [0,1), [1,2), [2,3); -5 clamps into bin 0, 99 into bin 2.
        assert_eq!(h, vec![3, 1, 2]);
        assert_eq!(h.iter().sum::<usize>(), t.len());
    }

    #[test]
    fn argmax_rows_per_row() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], [2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], [2, 3]);
        let s = softmax_rows(&t);
        for r in 0..2 {
            let sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large but equal logits stay finite and uniform.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
        // Monotonic within a row.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "argmax of empty tensor")]
    fn argmax_empty_panics() {
        Tensor::zeros([0]).argmax();
    }
}
