//! `SignalStage` against the per-element formulas it is defined by.
//!
//! The stage computes its forward in a few vectorizable passes and keeps
//! one byte per signal for backward. The oracles below are the plain
//! per-element definitions: `f32::round` quantization, a penalty per
//! element and `STE + λ·rg'(o)` per element. Output signals, saturation
//! statistics, telemetry counters and input gradients must match them
//! bit for bit for every regularizer kind, bit width, scale and switch
//! state, including signals at the class boundaries and NaN.
//!
//! A test binary of its own: telemetry is process-global.

use qsnc_nn::{Layer, Mode};
use qsnc_quant::{ActivationQuantizer, ActivationRegularizer, QuantSwitch, RegKind, SignalStage};
use qsnc_telemetry::TelemetryMode;
use qsnc_tensor::{init, Tensor, TensorRng};

const KINDS: [RegKind; 4] = [
    RegKind::None,
    RegKind::L1,
    RegKind::TruncatedL1,
    RegKind::NeuronConvergence,
];
const LAMBDA: f32 = 0.3;

/// `clamp(round(x·s), 0, 2^M − 1) / s` with `f32::round`.
fn oracle_quantize(q: &ActivationQuantizer, x: f32) -> f32 {
    (x * q.scale()).round().clamp(0.0, q.max_level() as f32) / q.scale()
}

/// The per-element backward: STE pass-through, zero where quantizing
/// clamps, plus `λ·rg'(o)`.
fn oracle_backward(
    reg: &ActivationRegularizer,
    q: &ActivationQuantizer,
    quantizing: bool,
    x: &Tensor,
    grad: &Tensor,
) -> Vec<f32> {
    let upper = q.max_level() as f32 / q.scale();
    grad.iter()
        .zip(x.iter())
        .map(|(&g, &xi)| {
            let pass = if quantizing && (xi < 0.0 || xi > upper) {
                0.0
            } else {
                g
            };
            pass + LAMBDA * reg.grad(xi)
        })
        .collect()
}

/// Signals at every class boundary of `reg` and `q`, then a spread.
fn probe_signals(
    reg: &ActivationRegularizer,
    q: &ActivationQuantizer,
    rng: &mut TensorRng,
) -> Tensor {
    let theta = reg.threshold();
    let upper = q.max_level() as f32 / q.scale();
    let next = |v: f32| f32::from_bits(v.to_bits() + 1);
    let prev = |v: f32| f32::from_bits(v.to_bits() - 1);
    let mut xs = vec![
        0.0,
        -0.0,
        theta,
        -theta,
        prev(theta),
        next(theta),
        0.5 * theta,
        -0.5 * theta,
        upper,
        next(upper),
        upper + 0.5,
        -(upper + 0.5),
        0.5 / q.scale(),
        1.5 / q.scale(),
        -0.25 / q.scale(),
        -0.5 / q.scale(),
        -1.0,
        -3.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let spread = init::uniform([77], -2.0 * upper, 2.0 * upper, rng);
    xs.extend(spread.iter());
    let len = xs.len();
    Tensor::from_vec(xs, [len])
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

#[test]
fn signal_stage_matches_per_element_oracle() {
    let _guard = qsnc_telemetry::testing::lock();
    qsnc_telemetry::set_mode(TelemetryMode::Record);
    let mut rng = TensorRng::seed(24);
    let mut cases = 0;
    for kind in KINDS {
        for bits in [1u32, 2, 4, 8] {
            for scale in [1.0f32, 0.37, 2.5] {
                for quantizing in [false, true] {
                    let reg = ActivationRegularizer::new(kind, bits, 0.1);
                    let q = ActivationQuantizer::with_scale(bits, scale);
                    let switch = QuantSwitch::new();
                    switch.set_enabled(quantizing);
                    let mut stage = SignalStage::new(reg, LAMBDA, q, switch);
                    let x = probe_signals(&reg, &q, &mut rng);
                    let mut grad = init::uniform([x.len()], -1.0, 1.0, &mut rng);
                    grad.as_mut_slice()[3] = -0.0;
                    grad.as_mut_slice()[5] = f32::NAN;
                    let case = format!("{kind} M={bits} s={scale} quantizing={quantizing}");

                    // Forward output and statistics, in both modes.
                    let want_y: Vec<f32> = if quantizing {
                        x.iter().map(|&v| oracle_quantize(&q, v)).collect()
                    } else {
                        x.as_slice().to_vec()
                    };
                    let theta = reg.threshold();
                    let saturated = x.iter().filter(|v| v.abs() >= theta).count() as u64;
                    let zeros = x.iter().filter(|&&v| v == 0.0).count() as u64;
                    for mode in [Mode::Eval, Mode::Train] {
                        qsnc_telemetry::reset();
                        stage.reset_saturation_stats();
                        let y = stage.forward(&x, mode);
                        assert!(same_bits(y.as_slice(), &want_y), "{case} {mode:?}: output");
                        assert_eq!(
                            stage.saturation_rate(),
                            Some(saturated as f32 / x.len() as f32),
                            "{case} {mode:?}: saturation"
                        );
                        let snap = qsnc_telemetry::snapshot();
                        assert_eq!(snap.counter("quant.signal.elements"), Some(x.len() as u64));
                        assert_eq!(
                            snap.counter("quant.signal.saturated"),
                            Some(saturated),
                            "{case}"
                        );
                        assert_eq!(snap.counter("quant.signal.zeros"), Some(zeros), "{case}");
                    }

                    // The penalty is `λ·tensor_value`, whose 8-lane sum the
                    // regularizer's own tests hold to the serial sum.
                    assert_eq!(
                        stage.regularization_loss().to_bits(),
                        (LAMBDA * reg.tensor_value(&x)).to_bits(),
                        "{case}: penalty"
                    );

                    // Backward from the Train forward's byte codes.
                    let dx = stage.backward(&grad);
                    let want_dx = oracle_backward(&reg, &q, quantizing, &x, &grad);
                    assert!(same_bits(dx.as_slice(), &want_dx), "{case}: gradient");
                    cases += 1;
                }
            }
        }
    }
    qsnc_telemetry::reset();
    qsnc_telemetry::set_mode(TelemetryMode::Off);
    assert_eq!(cases, 4 * 4 * 3 * 2);
}

#[test]
fn eval_forward_keeps_the_train_codes() {
    // Backward reads the last Train forward; an Eval forward in between
    // (a validation pass) leaves it alone.
    let reg = ActivationRegularizer::neuron_convergence(3);
    let q = ActivationQuantizer::new(3);
    let switch = QuantSwitch::new();
    switch.set_enabled(true);
    let mut stage = SignalStage::new(reg, LAMBDA, q, switch);
    let x = Tensor::from_slice(&[-1.0, 0.0, 2.0, 5.0, 9.0]);
    let grad = Tensor::from_slice(&[1.0; 5]);
    stage.forward(&x, Mode::Train);
    stage.forward(&Tensor::from_slice(&[3.0; 5]), Mode::Eval);
    let dx = stage.backward(&grad);
    assert!(same_bits(
        dx.as_slice(),
        &oracle_backward(&reg, &q, true, &x, &grad)
    ));
}

#[test]
#[should_panic(expected = "before training-mode forward")]
fn backward_before_train_forward_panics() {
    let mut stage = SignalStage::new(
        ActivationRegularizer::neuron_convergence(4),
        LAMBDA,
        ActivationQuantizer::new(4),
        QuantSwitch::new(),
    );
    stage.forward(&Tensor::from_slice(&[1.0]), Mode::Eval);
    stage.backward(&Tensor::from_slice(&[1.0]));
}
