//! The training loop every flow runs (`flow::fit`), pinned through the
//! telemetry it records: the learning-rate step decay and one `train.*`
//! point per epoch.
//!
//! A test binary of its own: telemetry is process-global, and a training
//! test running beside this one would append points to the same series.

use qsnc_core::{train_float, TrainSettings};
use qsnc_data::synth_digits;
use qsnc_nn::ModelKind;
use qsnc_telemetry::TelemetryMode;
use qsnc_tensor::TensorRng;

#[test]
fn fit_decays_lr_and_records_one_point_per_epoch() {
    let _guard = qsnc_telemetry::testing::lock();
    qsnc_telemetry::set_mode(TelemetryMode::Record);
    qsnc_telemetry::reset();

    let mut rng = TensorRng::seed(0);
    let (train, test) = synth_digits(160, &mut rng).split(0.8);
    let settings = TrainSettings {
        epochs: 4,
        batch_size: 32,
        lr_decay: 0.5,
        lr_decay_every: 3,
        verbose: false,
        ..TrainSettings::default()
    };
    train_float(ModelKind::Lenet, 0.25, &settings, &train, &test, 1);
    let snap = qsnc_telemetry::snapshot();
    qsnc_telemetry::reset();
    qsnc_telemetry::set_mode(TelemetryMode::Off);

    let lr = settings.lr;
    let expected: Vec<(u64, f64)> = [lr, lr, lr, lr * 0.5]
        .iter()
        .enumerate()
        .map(|(epoch, &v)| (epoch as u64, v as f64))
        .collect();
    assert_eq!(snap.series("train.lr"), Some(expected.as_slice()));
    for name in ["train.loss", "train.data_loss", "train.reg_loss", "train.accuracy"] {
        let points = snap.series(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(points.len(), 4, "{name}: {points:?}");
    }
    // Test accuracy is evaluated only for the verbose progress line.
    assert_eq!(snap.series("train.test_accuracy"), None);
}
