//! Mini-batch training loop and evaluation helpers.

use crate::layer::Mode;
use crate::loss::{num_correct, softmax_cross_entropy};
use crate::optim::Optimizer;
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
    opt: &mut dyn Optimizer,
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

/// Per-epoch training callback, invoked by [`Trainer`] after each epoch's
/// statistics are computed.
///
/// Library code never writes to stderr on its own: progress reporting is the
/// observer's job. [`StderrObserver`] reproduces the classic verbose lines,
/// [`TelemetryObserver`] records time series into `qsnc-telemetry`, and
/// callers can implement the trait to do both or neither.
pub trait TrainObserver {
    /// Whether [`Trainer::fit_with_observer`] should evaluate the test
    /// batches after every epoch (an extra inference pass). Defaults to
    /// `false`.
    fn wants_test_accuracy(&self) -> bool {
        false
    }

    /// Called after each epoch. `net` has finished its optimizer step,
    /// `lr` is the learning rate the epoch ran with, and `test_acc` is
    /// `Some` only when test accuracy was evaluated (it is `NaN` when the
    /// caller supplied no test batches).
    fn on_epoch(&mut self, net: &mut Sequential, stats: &EpochStats, lr: f32, test_acc: Option<f32>);
}

/// The default verbose observer: prints one progress line per epoch to
/// stderr, in the same format the trainer used to emit directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrObserver;

impl TrainObserver for StderrObserver {
    fn wants_test_accuracy(&self) -> bool {
        true
    }

    fn on_epoch(&mut self, _net: &mut Sequential, stats: &EpochStats, lr: f32, test_acc: Option<f32>) {
        match test_acc {
            Some(acc) => eprintln!(
                "epoch {:>3}  loss {:.4} (data {:.4} + reg {:.4})  train acc {:.2}%  test acc {:.2}%",
                stats.epoch,
                stats.loss,
                stats.data_loss,
                stats.reg_loss,
                stats.accuracy * 100.0,
                acc * 100.0
            ),
            None => eprintln!(
                "epoch {:>3}  lr {:.5}  loss {:.4}  train acc {:.2}%",
                stats.epoch,
                lr,
                stats.loss,
                stats.accuracy * 100.0
            ),
        }
    }
}

/// Observer recording per-epoch `train.loss` / `train.data_loss` /
/// `train.reg_loss` / `train.accuracy` / `train.lr` (and, when evaluated,
/// `train.test_accuracy`) series into [`qsnc_telemetry`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryObserver;

impl TrainObserver for TelemetryObserver {
    fn on_epoch(&mut self, _net: &mut Sequential, stats: &EpochStats, lr: f32, test_acc: Option<f32>) {
        let epoch = stats.epoch as u64;
        qsnc_telemetry::record_series("train.loss", epoch, stats.loss as f64);
        qsnc_telemetry::record_series("train.data_loss", epoch, stats.data_loss as f64);
        qsnc_telemetry::record_series("train.reg_loss", epoch, stats.reg_loss as f64);
        qsnc_telemetry::record_series("train.accuracy", epoch, stats.accuracy as f64);
        qsnc_telemetry::record_series("train.lr", epoch, lr as f64);
        if let Some(acc) = test_acc {
            if !acc.is_nan() {
                qsnc_telemetry::record_series("train.test_accuracy", epoch, acc as f64);
            }
        }
    }
}

/// Configuration for [`Trainer`].
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training batches.
    pub epochs: usize,
    /// Multiply the learning rate by `lr_decay` every `lr_decay_every`
    /// epochs (1.0 disables).
    pub lr_decay: f32,
    /// Epoch period of the learning-rate decay.
    pub lr_decay_every: usize,
    /// Print progress lines to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            lr_decay: 1.0,
            lr_decay_every: 1,
            verbose: false,
        }
    }
}

/// Drives multi-epoch training with the config's step learning-rate decay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trainer {
    /// Training configuration.
    pub config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Trains `net` for the configured number of epochs, returning per-epoch
    /// statistics. `verbose` routes through [`StderrObserver`], which also
    /// reports accuracy on `test_batches` when they are non-empty.
    pub fn fit(
        &self,
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        train_batches: &[Batch],
        test_batches: &[Batch],
    ) -> Vec<EpochStats> {
        let mut stderr = StderrObserver;
        let observer: Option<&mut dyn TrainObserver> =
            if self.config.verbose { Some(&mut stderr) } else { None };
        self.fit_with_observer(net, opt, train_batches, test_batches, observer)
    }

    /// [`Trainer::fit`] with an explicit per-epoch observer.
    ///
    /// Test accuracy is evaluated only when the observer asks for it via
    /// [`TrainObserver::wants_test_accuracy`]; with no test batches the
    /// observer receives `Some(NaN)`, matching the old verbose output.
    pub fn fit_with_observer(
        &self,
        net: &mut Sequential,
        opt: &mut dyn Optimizer,
        train_batches: &[Batch],
        test_batches: &[Batch],
        mut observer: Option<&mut dyn TrainObserver>,
    ) -> Vec<EpochStats> {
        let mut history = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            if epoch > 0 && self.config.lr_decay != 1.0 && epoch % self.config.lr_decay_every == 0
            {
                opt.set_learning_rate(opt.learning_rate() * self.config.lr_decay);
            }
            let stats = train_epoch(net, opt, train_batches, epoch);
            if let Some(obs) = observer.as_deref_mut() {
                let test_acc = if obs.wants_test_accuracy() {
                    Some(if test_batches.is_empty() {
                        f32::NAN
                    } else {
                        evaluate(net, test_batches)
                    })
                } else {
                    None
                };
                obs.on_epoch(net, &stats, opt.learning_rate(), test_acc);
            }
            history.push(stats);
        }
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::optim::Sgd;
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
        let trainer = Trainer::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        });
        let history = trainer.fit(&mut net, &mut opt, &train, &test);
        let after = evaluate(&mut net, &test);
        assert!(after > 0.95, "accuracy after training: {after} (before {before})");
        // Loss should broadly decrease.
        assert!(history.last().unwrap().loss < history.first().unwrap().loss);
    }

    #[test]
    fn lr_decay_applies() {
        let mut rng = TensorRng::seed(1);
        let train = blob_batches(&mut rng, 2, 8);
        let mut net = blob_net(&mut rng);
        let mut opt = Sgd::new(1.0);
        let trainer = Trainer::new(TrainConfig {
            epochs: 3,
            lr_decay: 0.5,
            lr_decay_every: 1,
            verbose: false,
        });
        trainer.fit(&mut net, &mut opt, &train, &[]);
        assert!((opt.learning_rate() - 0.25).abs() < 1e-6);
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
