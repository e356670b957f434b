//! In-memory labelled image datasets and batching.

use qsnc_nn::Batch;
use qsnc_tensor::{Tensor, TensorRng};

/// A labelled image dataset held in memory as one `[n, c, h, w]` tensor.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not rank 4, the label count differs from the
    /// leading dimension, or any label is `>= classes`.
    pub fn new(images: Tensor, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(images.shape().rank(), 4, "images must be [n,c,h,w]");
        assert_eq!(
            images.dims()[0],
            labels.len(),
            "image count {} != label count {}",
            images.dims()[0],
            labels.len()
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "label out of range for {classes} classes"
        );
        Dataset {
            images,
            labels,
            classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The full image tensor `[n, c, h, w]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The labels, one per example.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Per-example dimensions `[c, h, w]`.
    pub fn example_dims(&self) -> [usize; 3] {
        [
            self.images.dims()[1],
            self.images.dims()[2],
            self.images.dims()[3],
        ]
    }

    /// Copies example `i` as a `[1, c, h, w]` tensor with its label.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn example(&self, i: usize) -> (Tensor, usize) {
        assert!(i < self.len(), "example index out of bounds");
        let [c, h, w] = self.example_dims();
        let stride = c * h * w;
        let data = self.images.as_slice()[i * stride..(i + 1) * stride].to_vec();
        (Tensor::from_vec(data, [1, c, h, w]), self.labels[i])
    }

    /// Splits into `(train, test)` at `train_fraction` of the examples.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`.
    pub fn split(&self, train_fraction: f32) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&train_fraction) && train_fraction > 0.0,
            "train fraction must be in (0, 1)"
        );
        let n_train = ((self.len() as f32) * train_fraction).round() as usize;
        let n_train = n_train.clamp(1, self.len().saturating_sub(1));
        let [c, h, w] = self.example_dims();
        let stride = c * h * w;
        let (a, b) = self.images.as_slice().split_at(n_train * stride);
        let train = Dataset::new(
            Tensor::from_vec(a.to_vec(), [n_train, c, h, w]),
            self.labels[..n_train].to_vec(),
            self.classes,
        );
        let n_test = self.len() - n_train;
        let test = Dataset::new(
            Tensor::from_vec(b.to_vec(), [n_test, c, h, w]),
            self.labels[n_train..].to_vec(),
            self.classes,
        );
        (train, test)
    }

    /// Builds mini-batches of at most `batch_size` examples. When `rng` is
    /// provided the example order is shuffled first.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches(&self, batch_size: usize, rng: Option<&mut TensorRng>) -> Vec<Batch> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        if let Some(rng) = rng {
            rng.shuffle(&mut order);
        }
        let [c, h, w] = self.example_dims();
        let stride = c * h * w;
        let src = self.images.as_slice();
        order
            .chunks(batch_size)
            .map(|chunk| {
                let mut data = Vec::with_capacity(chunk.len() * stride);
                let mut labels = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    data.extend_from_slice(&src[i * stride..(i + 1) * stride]);
                    labels.push(self.labels[i]);
                }
                Batch::new(Tensor::from_vec(data, [chunk.len(), c, h, w]), labels)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let images = Tensor::from_vec((0..n * 4).map(|x| x as f32).collect(), [n, 1, 2, 2]);
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(images, labels, 3)
    }

    #[test]
    fn construction_and_accessors() {
        let d = toy(6);
        assert_eq!(d.len(), 6);
        assert_eq!(d.classes(), 3);
        assert_eq!(d.example_dims(), [1, 2, 2]);
        let (img, label) = d.example(1);
        assert_eq!(label, 1);
        assert_eq!(img.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn split_preserves_everything() {
        let d = toy(10);
        let (train, test) = d.split(0.8);
        assert_eq!(train.len(), 8);
        assert_eq!(test.len(), 2);
        assert_eq!(train.len() + test.len(), d.len());
        // Test partition starts where train ends.
        assert_eq!(test.example(0).0.as_slice()[0], 32.0);
    }

    #[test]
    fn batches_cover_all_examples() {
        let d = toy(10);
        let batches = d.batches(3, None);
        assert_eq!(batches.len(), 4);
        let total: usize = batches.iter().map(Batch::len).sum();
        assert_eq!(total, 10);
        assert_eq!(batches[3].len(), 1); // remainder batch
    }

    #[test]
    fn shuffled_batches_are_permutation() {
        let d = toy(30);
        let mut rng = TensorRng::seed(0);
        let batches = d.batches(7, Some(&mut rng));
        let mut labels: Vec<usize> = batches.iter().flat_map(|b| b.labels.clone()).collect();
        labels.sort_unstable();
        let mut expected: Vec<usize> = d.labels().to_vec();
        expected.sort_unstable();
        assert_eq!(labels, expected);
    }

    #[test]
    fn shuffle_changes_order_deterministically() {
        let d = toy(30);
        let mut r1 = TensorRng::seed(5);
        let mut r2 = TensorRng::seed(5);
        let b1 = d.batches(30, Some(&mut r1));
        let b2 = d.batches(30, Some(&mut r2));
        assert_eq!(b1[0].labels, b2[0].labels);
        let plain = d.batches(30, None);
        assert_ne!(b1[0].labels, plain[0].labels);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_panic() {
        Dataset::new(Tensor::zeros([1, 1, 1, 1]), vec![5], 3);
    }
}
