//! One epoch of mini-batch SGD steps, and evaluation.

use crate::layer::Mode;
use crate::loss::{num_correct, softmax_cross_entropy};
use crate::optim::Sgd;
use crate::sequential::Sequential;
use qsnc_tensor::{parallel, Tensor};

/// One mini-batch of examples: images `[n, …]` and integer class labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Input tensor whose leading dimension is the batch size.
    pub images: Tensor,
    /// One class label per example.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Creates a batch.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the leading dimension of
    /// `images`.
    pub fn new(images: Tensor, labels: Vec<usize>) -> Self {
        assert_eq!(
            images.dims()[0],
            labels.len(),
            "batch size {} != label count {}",
            images.dims()[0],
            labels.len()
        );
        Batch { images, labels }
    }

    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the batch has no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Aggregate statistics for one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean total loss (data + regularization) per batch.
    pub loss: f32,
    /// Mean data-term loss per batch.
    pub data_loss: f32,
    /// Mean regularization loss per batch (the paper's `Σ λ_i R_g(O_i)`).
    pub reg_loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f32,
}

/// Runs one epoch of SGD over `batches`, returning statistics.
///
/// Regularization gradients are injected by the layers themselves during
/// `backward` (see the fake-quantization and regularizer layers in
/// `qsnc-quant`), so the loop only needs the data-term gradient here.
pub fn train_epoch(
    net: &mut Sequential,
    opt: &mut Sgd,
    batches: &[Batch],
    epoch: usize,
) -> EpochStats {
    let _span = qsnc_telemetry::span!("train.epoch");
    let mut total_data = 0.0;
    let mut total_reg = 0.0;
    let mut correct = 0usize;
    let mut count = 0usize;
    for batch in batches {
        net.zero_grad();
        let logits = net.forward(&batch.images, Mode::Train);
        let (data_loss, grad) = softmax_cross_entropy(&logits, &batch.labels);
        let reg_loss = net.regularization_loss();
        net.backward(&grad);
        opt.step(&mut net.params());

        total_data += data_loss;
        total_reg += reg_loss;
        correct += num_correct(&logits, &batch.labels);
        count += batch.len();
    }
    let nb = batches.len().max(1) as f32;
    EpochStats {
        epoch,
        loss: (total_data + total_reg) / nb,
        data_loss: total_data / nb,
        reg_loss: total_reg / nb,
        accuracy: if count == 0 { 0.0 } else { correct as f32 / count as f32 },
    }
}

/// Evaluates classification accuracy over `batches` (inference mode).
///
/// Batches are sharded across the [`qsnc_tensor::parallel`] worker threads;
/// each worker runs its shard through its own clone of `net` (forward takes
/// `&mut self`), and exact per-shard correct counts are summed. The result is
/// identical at any thread count. With one worker, `net` itself is used and
/// no clone is made.
pub fn evaluate(net: &mut Sequential, batches: &[Batch]) -> f32 {
    let total: usize = batches.iter().map(Batch::len).sum();
    if total == 0 {
        return 0.0;
    }
    let correct: usize = if parallel::num_threads() == 1 || batches.len() < 2 {
        batches
            .iter()
            .map(|b| num_correct(&net.forward(&b.images, Mode::Eval), &b.labels))
            .sum()
    } else {
        let template: &Sequential = net;
        parallel::par_map_shards(batches, |_, shard| {
            let mut worker = template.clone();
            shard
                .iter()
                .map(|b| num_correct(&worker.forward(&b.images, Mode::Eval), &b.labels))
                .sum::<usize>()
        })
        .into_iter()
        .sum()
    };
    correct as f32 / total as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use qsnc_tensor::TensorRng;

    /// Two linearly separable blobs.
    fn blob_batches(rng: &mut TensorRng, batches: usize, per_batch: usize) -> Vec<Batch> {
        (0..batches)
            .map(|_| {
                let mut images = Vec::new();
                let mut labels = Vec::new();
                for _ in 0..per_batch {
                    let class = rng.index(2);
                    let center = if class == 0 { -1.0 } else { 1.0 };
                    images.push(center + rng.normal_with(0.0, 0.3));
                    images.push(center + rng.normal_with(0.0, 0.3));
                    labels.push(class);
                }
                Batch::new(Tensor::from_vec(images, [per_batch, 2]), labels)
            })
            .collect()
    }

    fn blob_net(rng: &mut TensorRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Linear::new("fc1", 2, 8, rng));
        net.push(Relu::new());
        net.push(Linear::new("fc2", 8, 2, rng));
        net
    }

    #[test]
    fn training_learns_separable_blobs() {
        let mut rng = TensorRng::seed(0);
        let train = blob_batches(&mut rng, 10, 16);
        let test = blob_batches(&mut rng, 4, 16);
        let mut net = blob_net(&mut rng);
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        let before = evaluate(&mut net, &test);
        let history: Vec<EpochStats> =
            (0..20).map(|epoch| train_epoch(&mut net, &mut opt, &train, epoch)).collect();
        let after = evaluate(&mut net, &test);
        assert!(after > 0.95, "accuracy after training: {after} (before {before})");
        // Loss should broadly decrease.
        assert!(history.last().unwrap().loss < history.first().unwrap().loss);
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let mut rng = TensorRng::seed(2);
        let mut net = blob_net(&mut rng);
        assert_eq!(evaluate(&mut net, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn batch_label_mismatch_panics() {
        Batch::new(Tensor::zeros([2, 2]), vec![0]);
    }
}
