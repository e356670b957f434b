//! Property-based tests for quantizer invariants.

use proptest::prelude::*;
use qsnc_quant::{
    cluster_weights, direct_fixed_point, ActivationQuantizer, ActivationRegularizer,
    DynamicFixedPoint, RegKind,
};
use qsnc_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn activation_quantizer_idempotent(
        bits in 1u32..10,
        scale in 0.1f32..16.0,
        x in -100.0f32..100.0,
    ) {
        let q = ActivationQuantizer::with_scale(bits, scale);
        let once = q.quantize_value(x);
        prop_assert_eq!(q.quantize_value(once), once);
    }

    #[test]
    fn activation_quantizer_output_in_range(
        bits in 1u32..10,
        scale in 0.1f32..16.0,
        x in -1000.0f32..1000.0,
    ) {
        let q = ActivationQuantizer::with_scale(bits, scale);
        let y = q.quantize_value(x);
        prop_assert!(y >= 0.0);
        prop_assert!(y <= q.max_level() as f32 / scale + 1e-4);
    }

    #[test]
    fn activation_quantizer_monotone(
        bits in 1u32..10,
        a in -50.0f32..50.0,
        b in -50.0f32..50.0,
    ) {
        let q = ActivationQuantizer::new(bits);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(q.quantize_value(lo) <= q.quantize_value(hi));
    }

    #[test]
    fn spike_round_trip_error_bounded(
        bits in 1u32..9,
        scale in 0.5f32..8.0,
        x in 0.0f32..10.0,
    ) {
        let q = ActivationQuantizer::with_scale(bits, scale);
        // Within the representable range the round-trip error is ≤ ½ LSB.
        let upper = q.max_level() as f32 / scale;
        prop_assume!(x <= upper);
        let back = q.from_spike_count(q.spike_count(x));
        prop_assert!((back - x).abs() <= 0.5 / scale + 1e-5);
    }

    #[test]
    fn clustering_no_worse_than_direct(
        data in proptest::collection::vec(-2.0f32..2.0, 8..128),
        bits in 2u32..8,
    ) {
        let w = Tensor::from_slice(&data);
        let c = cluster_weights(&w, bits);
        let d = direct_fixed_point(&w, bits);
        prop_assert!(c.mse <= d.mse + 1e-7, "clustered {} vs direct {}", c.mse, d.mse);
    }

    #[test]
    fn clustering_codes_bounded(
        data in proptest::collection::vec(-10.0f32..10.0, 4..64),
        bits in 1u32..8,
    ) {
        let w = Tensor::from_slice(&data);
        let q = cluster_weights(&w, bits);
        let bound = 1i32 << (bits - 1);
        prop_assert!(q.codes.iter().all(|&c| c.abs() <= bound));
    }

    #[test]
    fn dynamic_fixed_point_idempotent(
        data in proptest::collection::vec(-8.0f32..8.0, 4..64),
        bits in 2u32..16,
    ) {
        let t = Tensor::from_slice(&data);
        let fmt = DynamicFixedPoint::fit(bits, &t);
        let once = fmt.quantize(&t);
        prop_assert_eq!(fmt.quantize(&once), once);
    }

    #[test]
    fn dynamic_fixed_point_error_le_half_lsb(
        data in proptest::collection::vec(-4.0f32..4.0, 4..64),
        bits in 4u32..16,
    ) {
        let t = Tensor::from_slice(&data);
        let fmt = DynamicFixedPoint::fit(bits, &t);
        let q = fmt.quantize(&t);
        for (orig, quant) in t.iter().zip(q.iter()) {
            prop_assert!((orig - quant).abs() <= fmt.lsb() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn regularizer_nonnegative_and_even(
        bits in 1u32..9,
        alpha in 0.0f32..1.0,
        o in -50.0f32..50.0,
    ) {
        for kind in [RegKind::None, RegKind::L1, RegKind::TruncatedL1, RegKind::NeuronConvergence] {
            let r = ActivationRegularizer::new(kind, bits, alpha);
            prop_assert!(r.value(o) >= 0.0);
            prop_assert!((r.value(o) - r.value(-o)).abs() < 1e-5);
        }
    }

    #[test]
    fn regularizer_grad_matches_finite_difference(
        bits in 2u32..8,
        o in -20.0f32..20.0,
    ) {
        let r = ActivationRegularizer::neuron_convergence(bits);
        let theta = r.threshold();
        // Stay away from the kinks at 0 and ±θ.
        prop_assume!(o.abs() > 0.05);
        prop_assume!((o.abs() - theta).abs() > 0.05);
        let eps = 1e-2;
        let num = (r.value(o + eps) - r.value(o - eps)) / (2.0 * eps);
        prop_assert!((num - r.grad(o)).abs() < 1e-2);
    }
}
