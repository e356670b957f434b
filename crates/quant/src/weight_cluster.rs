//! Weight Clustering: fixed-point synaptic weights on a linear grid
//! (Sec. 3.2, Eq. 6).
//!
//! The memristor crossbar offers `N`-bit conductance levels on a *linear*
//! grid. Eq. 6 asks for the grid assignment `D` (integers in
//! `{0, ±1, …, ±2^(N−1)}`) and implicitly a grid pitch minimizing
//! `‖D·s − W‖²`:
//!
//! - [`direct_fixed_point`] uses the paper's literal pitch `s = 2^(−N)`
//!   (pure rounding, the "w/o clustering" baseline);
//! - [`cluster_weights`] *learns* the pitch by alternating nearest-level
//!   assignment with a closed-form least-squares scale update — the 1-D
//!   constrained k-means the paper describes solving "by k-nearest
//!   neighbors".

use qsnc_tensor::Tensor;

/// How synaptic weights are mapped to the fixed-point grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WeightQuantMethod {
    /// Round to the literal `D/2^N` grid (no scale optimization).
    DirectFixedPoint,
    /// The paper's Weight Clustering: optimized grid pitch (Eq. 6).
    Clustered,
}

impl std::fmt::Display for WeightQuantMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WeightQuantMethod::DirectFixedPoint => f.write_str("direct"),
            WeightQuantMethod::Clustered => f.write_str("clustered"),
        }
    }
}

/// Result of quantizing one weight tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedWeights {
    /// Dequantized weights `codes[i] · scale`, same shape as the input.
    pub tensor: Tensor,
    /// Grid pitch `s` (the conductance LSB in the crossbar).
    pub scale: f32,
    /// Integer level per weight, each in `[−2^(N−1), 2^(N−1)]`.
    pub codes: Vec<i32>,
    /// Mean squared error versus the original weights.
    pub mse: f32,
}

/// A weight tensor in its integer deployment form: `i8` grid levels plus an
/// exactly-decomposed grid pitch.
///
/// This is what Eq. 6 actually produces — the paper's `D` (integer levels)
/// and pitch — exported without the float rehydration that
/// [`QuantizedWeights::tensor`] performs. The pitch is carried both as the
/// original `f32` and as the exact pair `mantissa · 2^shift` (an odd `i32`
/// mantissa and a power-of-two shift), so integer inference engines can
/// reconstruct `scale` bit-for-bit and keep all per-layer arithmetic on
/// integers until the final rescale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntWeights {
    /// Grid level per weight, each in `[−2^(N−1), 2^(N−1)]`, row-major in
    /// the source tensor's layout.
    pub codes: Vec<i8>,
    /// Odd integer mantissa of the pitch: `scale = mantissa · 2^shift`.
    pub mantissa: i32,
    /// Power-of-two shift of the pitch.
    pub shift: i32,
}

impl IntWeights {
    /// Builds the integer deployment form from a code/pitch pair (such as
    /// a [`QuantizedWeights`]' `codes` and `scale`) — the export path
    /// deployment artifacts take.
    ///
    /// Returns `None` when a code does not fit `i8` (only possible at
    /// `N = 8`, where the inclusive bound `2^(N−1) = 128` exceeds
    /// `i8::MAX`) or the pitch is zero/non-finite — callers fall back to
    /// the float path in that case.
    pub fn from_codes(codes: &[i32], scale: f32) -> Option<IntWeights> {
        if !(scale.is_finite() && scale != 0.0) {
            return None;
        }
        let codes: Option<Vec<i8>> = codes.iter().map(|&c| i8::try_from(c).ok()).collect();
        let (mantissa, shift) = decompose_scale(scale);
        Some(IntWeights { codes: codes?, mantissa, shift })
    }

    /// Reconstructs the grid pitch; bit-identical to the `scale` this was
    /// derived from.
    pub fn scale(&self) -> f32 {
        self.mantissa as f32 * (2.0f32).powi(self.shift)
    }
}

/// Splits a finite nonzero `f32` into `(mantissa, shift)` with an odd
/// integer mantissa such that `mantissa · 2^shift == x` exactly.
fn decompose_scale(x: f32) -> (i32, i32) {
    debug_assert!(x.is_finite() && x != 0.0);
    let bits = x.to_bits();
    let biased_exp = ((bits >> 23) & 0xFF) as i32;
    let frac = (bits & 0x7F_FFFF) as i32;
    let (mut m, mut e) = if biased_exp == 0 {
        (frac, -126 - 23) // subnormal: no implicit leading bit
    } else {
        (frac | 1 << 23, biased_exp - 127 - 23)
    };
    while m & 1 == 0 {
        m >>= 1;
        e += 1;
    }
    if bits >> 31 != 0 {
        m = -m;
    }
    (m, e)
}

fn level_bound(bits: u32) -> i32 {
    1i32 << (bits - 1)
}

fn assign(w: &[f32], scale: f32, bound: i32) -> Vec<i32> {
    w.iter()
        .map(|&x| ((x / scale).round() as i32).clamp(-bound, bound))
        .collect()
}

fn mse_of(w: &[f32], codes: &[i32], scale: f32) -> f32 {
    if w.is_empty() {
        return 0.0;
    }
    w.iter()
        .zip(codes.iter())
        .map(|(&x, &c)| {
            let q = c as f32 * scale;
            (q - x) * (q - x)
        })
        .sum::<f32>()
        / w.len() as f32
}

fn build(w: &Tensor, codes: Vec<i32>, scale: f32) -> QuantizedWeights {
    let data: Vec<f32> = codes.iter().map(|&c| c as f32 * scale).collect();
    let mse = mse_of(w.as_slice(), &codes, scale);
    QuantizedWeights {
        tensor: Tensor::from_vec(data, w.dims()),
        scale,
        codes,
        mse,
    }
}

/// Quantizes weights to the literal `D/2^N` grid of Eq. 6 (the "without
/// Weight Clustering" baseline).
///
/// # Panics
///
/// Panics if `bits` is outside `1..=16`.
pub fn direct_fixed_point(w: &Tensor, bits: u32) -> QuantizedWeights {
    assert!((1..=16).contains(&bits), "bit width must be in 1..=16");
    let scale = (2.0f32).powi(-(bits as i32));
    let codes = assign(w.as_slice(), scale, level_bound(bits));
    build(w, codes, scale)
}

/// The paper's Weight Clustering: alternates nearest-level assignment and a
/// closed-form least-squares pitch update until convergence (Eq. 6).
///
/// The scale update for fixed codes `d` is `s* = Σ wᵢdᵢ / Σ dᵢ²`, the exact
/// minimizer of `‖d·s − w‖²`. Initialization spreads the observed weight
/// range over the available levels.
///
/// # Examples
///
/// ```
/// use qsnc_quant::{cluster_weights, direct_fixed_point};
/// use qsnc_tensor::Tensor;
///
/// let w = Tensor::from_slice(&[0.31, -0.17, 0.08, 0.29, -0.33, 0.02]);
/// let q = cluster_weights(&w, 4);
///
/// // Every weight becomes an integer code on the learned pitch:
/// // w ≈ code · scale, codes within ±2^(N−1).
/// assert_eq!(q.codes.len(), w.len());
/// assert!(q.codes.iter().all(|c| c.abs() <= 8));
/// for (orig, quant) in w.iter().zip(q.tensor.iter()) {
///     assert!((orig - quant).abs() <= q.scale / 2.0 + 1e-6);
/// }
///
/// // The fitted pitch beats the fixed 1/2^N grid of the no-clustering
/// // baseline on reconstruction error.
/// assert!(q.mse <= direct_fixed_point(&w, 4).mse);
/// ```
///
/// # Panics
///
/// Panics if `bits` is outside `1..=16`.
pub fn cluster_weights(w: &Tensor, bits: u32) -> QuantizedWeights {
    assert!((1..=16).contains(&bits), "bit width must be in 1..=16");
    let _span = qsnc_telemetry::span!("quant.cluster");
    let bound = level_bound(bits);
    let ws = w.as_slice();
    let max_abs = w.abs_max();
    if max_abs == 0.0 {
        let codes = vec![0i32; w.len()];
        return finish(build(w, codes, (2.0f32).powi(-(bits as i32))), 0);
    }
    // Initial pitch: span the weight range exactly.
    let mut scale = max_abs / bound as f32;
    let mut codes = assign(ws, scale, bound);
    let mut best = build(w, codes.clone(), scale);
    let mut iterations = 0u64;

    for _ in 0..50 {
        iterations += 1;
        // Scale update (least squares with fixed assignment).
        let num: f32 = ws.iter().zip(codes.iter()).map(|(&x, &d)| x * d as f32).sum();
        let den: f32 = codes.iter().map(|&d| (d as f32) * (d as f32)).sum();
        if den == 0.0 {
            break;
        }
        let new_scale = num / den;
        if !(new_scale.is_finite() && new_scale > 0.0) {
            break;
        }
        let new_codes = assign(ws, new_scale, bound);
        let changed = new_codes != codes || (new_scale - scale).abs() > 1e-9 * scale.abs();
        scale = new_scale;
        codes = new_codes;
        let candidate = build(w, codes.clone(), scale);
        if candidate.mse < best.mse {
            best = candidate;
        }
        if !changed {
            break;
        }
    }
    finish(best, iterations)
}

/// Records the clustering residual (`‖D·s − W‖²` per weight) and iteration
/// count before handing the result back.
fn finish(q: QuantizedWeights, iterations: u64) -> QuantizedWeights {
    if qsnc_telemetry::enabled() {
        qsnc_telemetry::counter_add("quant.cluster.calls", 1);
        qsnc_telemetry::counter_add("quant.cluster.iterations", iterations);
        qsnc_telemetry::observe(
            "quant.cluster.residual",
            q.mse as f64,
            &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        );
    }
    q
}

/// Quantizes with the chosen method.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=16`.
pub fn quantize_weights(w: &Tensor, bits: u32, method: WeightQuantMethod) -> QuantizedWeights {
    match method {
        WeightQuantMethod::DirectFixedPoint => direct_fixed_point(w, bits),
        WeightQuantMethod::Clustered => cluster_weights(w, bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnc_tensor::TensorRng;

    #[test]
    fn direct_uses_power_of_two_pitch() {
        let w = Tensor::from_slice(&[0.1, -0.3, 0.26]);
        let q = direct_fixed_point(&w, 3);
        assert_eq!(q.scale, 0.125);
        // 0.1 → 0.125 (code 1), −0.3 → −0.25 (code −2), 0.26 → 0.25 (2).
        assert_eq!(q.codes, vec![1, -2, 2]);
        assert_eq!(q.tensor.as_slice(), &[0.125, -0.25, 0.25]);
    }

    #[test]
    fn direct_clamps_large_weights() {
        let w = Tensor::from_slice(&[5.0, -5.0]);
        let q = direct_fixed_point(&w, 2);
        // Bound = 2, scale = 0.25 → ±0.5 max.
        assert_eq!(q.codes, vec![2, -2]);
        assert_eq!(q.tensor.as_slice(), &[0.5, -0.5]);
    }

    #[test]
    fn clustering_never_worse_than_direct() {
        let mut rng = TensorRng::seed(0);
        for seed in 0..10u64 {
            let mut r = TensorRng::seed(seed);
            let std = rng.uniform(0.01, 2.0);
            let w = qsnc_tensor::init::normal([256], 0.0, std, &mut r);
            for bits in 2..=6 {
                let direct = direct_fixed_point(&w, bits);
                let clustered = cluster_weights(&w, bits);
                assert!(
                    clustered.mse <= direct.mse + 1e-9,
                    "bits={bits} std={std}: clustered {} > direct {}",
                    clustered.mse,
                    direct.mse
                );
            }
        }
    }

    #[test]
    fn clustering_beats_coarse_scale_sweep() {
        // The learned pitch should be at least as good as the best pitch in
        // a coarse exhaustive sweep.
        let mut rng = TensorRng::seed(1);
        let w = qsnc_tensor::init::normal([200], 0.0, 0.2, &mut rng);
        let bits = 4;
        let bound = level_bound(bits);
        let clustered = cluster_weights(&w, bits);
        let mut sweep_best = f32::INFINITY;
        for i in 1..=400 {
            let s = w.abs_max() * i as f32 / (400.0 * bound as f32) * 2.0;
            let codes = assign(w.as_slice(), s, bound);
            sweep_best = sweep_best.min(mse_of(w.as_slice(), &codes, s));
        }
        assert!(
            clustered.mse <= sweep_best * 1.02,
            "clustered {} vs sweep best {}",
            clustered.mse,
            sweep_best
        );
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut rng = TensorRng::seed(2);
        let w = qsnc_tensor::init::normal([64], 0.0, 0.3, &mut rng);
        let q1 = cluster_weights(&w, 4);
        let q2 = cluster_weights(&q1.tensor, 4);
        for (a, b) in q1.tensor.iter().zip(q2.tensor.iter()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn codes_respect_level_bound() {
        let mut rng = TensorRng::seed(3);
        let w = qsnc_tensor::init::normal([512], 0.0, 1.0, &mut rng);
        for bits in 1..=8 {
            let q = cluster_weights(&w, bits);
            let bound = level_bound(bits);
            assert!(q.codes.iter().all(|&c| c.abs() <= bound));
            // Dequantized values are codes × scale exactly.
            for (v, &c) in q.tensor.iter().zip(q.codes.iter()) {
                assert_eq!(*v, c as f32 * q.scale);
            }
        }
    }

    #[test]
    fn zero_tensor_stays_zero() {
        let q = cluster_weights(&Tensor::zeros([10]), 4);
        assert!(q.tensor.iter().all(|&v| v == 0.0));
        assert_eq!(q.mse, 0.0);
    }

    #[test]
    fn more_bits_reduce_error() {
        let mut rng = TensorRng::seed(4);
        let w = qsnc_tensor::init::normal([1024], 0.0, 0.25, &mut rng);
        let e3 = cluster_weights(&w, 3).mse;
        let e4 = cluster_weights(&w, 4).mse;
        let e6 = cluster_weights(&w, 6).mse;
        assert!(e6 < e4 && e4 < e3, "e3={e3} e4={e4} e6={e6}");
    }

    #[test]
    fn int_weights_round_trip_scale_and_codes() {
        let mut rng = TensorRng::seed(5);
        let w = qsnc_tensor::init::normal([300], 0.0, 0.4, &mut rng);
        for bits in 2..=7 {
            let q = cluster_weights(&w, bits);
            let iw = IntWeights::from_codes(&q.codes, q.scale).expect("codes fit i8 for N ≤ 7");
            // Pitch reconstructs bit-for-bit and the mantissa is odd.
            assert_eq!(iw.scale().to_bits(), q.scale.to_bits(), "bits={bits}");
            assert_eq!(iw.mantissa.rem_euclid(2), 1, "mantissa must be odd");
            // Codes round-trip through i8.
            assert_eq!(iw.codes.len(), q.codes.len());
            for (&c8, &c32) in iw.codes.iter().zip(q.codes.iter()) {
                assert_eq!(i32::from(c8), c32);
            }
        }
    }

    #[test]
    fn int_weights_rejects_codes_beyond_i8() {
        // N = 8 admits the inclusive bound 2^7 = 128 > i8::MAX.
        let w = Tensor::from_slice(&[5.0, -5.0, 0.1]);
        let q = direct_fixed_point(&w, 8);
        assert!(q.codes.contains(&128));
        assert!(IntWeights::from_codes(&q.codes, q.scale).is_none());
        // But an N = 8 tensor whose codes all stay within i8 exports fine.
        let w = Tensor::from_slice(&[0.1, -0.2]);
        let q = direct_fixed_point(&w, 8);
        assert!(IntWeights::from_codes(&q.codes, q.scale).is_some());
    }

    #[test]
    fn decompose_scale_is_exact_on_awkward_pitches() {
        for &s in &[0.125f32, 0.1, 1.0 / 3.0, 6.1e-5, f32::MIN_POSITIVE / 4.0, -0.75] {
            let (m, e) = decompose_scale(s);
            assert_eq!((m as f32 * (2.0f32).powi(e)).to_bits(), s.to_bits(), "s={s}");
        }
    }

    #[test]
    fn method_dispatch() {
        let w = Tensor::from_slice(&[0.3, -0.1]);
        let d = quantize_weights(&w, 3, WeightQuantMethod::DirectFixedPoint);
        let c = quantize_weights(&w, 3, WeightQuantMethod::Clustered);
        assert_eq!(d.scale, 0.125);
        assert!(c.mse <= d.mse);
    }
}
