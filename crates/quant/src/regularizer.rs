//! Activation regularizers, including the paper's **Neuron Convergence**
//! term (Eq. 3 and Fig. 3).
//!
//! During training, a per-element penalty `rg(o)` is added for every
//! inter-layer signal `o`, with gradient `λ·rg'(o)` injected into the
//! backward pass. The paper compares four shapes (its Fig. 3):
//!
//! - **None** — unregularized baseline,
//! - **L1** — `|o|`, sparsity only,
//! - **Truncated L1** — `max(|o| − 2^(M−1), 0)`, range restriction only,
//! - **Neuron Convergence** — `α·|o|` inside the target range plus
//!   `(|o| − 2^(M−1))` outside: sparse *and* range-fixed (Eq. 3).

use qsnc_tensor::Tensor;

/// Which regularization shape to apply to inter-layer signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum RegKind {
    /// No regularization.
    None,
    /// Plain L1: `|o|`.
    L1,
    /// Truncated L1: `max(|o| − θ, 0)` with `θ = 2^(M−1)`.
    TruncatedL1,
    /// The paper's Neuron Convergence (Eq. 3).
    NeuronConvergence,
}

impl std::fmt::Display for RegKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RegKind::None => "none",
            RegKind::L1 => "l1",
            RegKind::TruncatedL1 => "truncated-l1",
            RegKind::NeuronConvergence => "neuron-convergence",
        };
        f.write_str(s)
    }
}

/// A configured activation regularizer.
///
/// # Examples
///
/// ```
/// use qsnc_quant::{ActivationRegularizer, RegKind};
///
/// // 2-bit Neuron Convergence, as drawn in the paper's Fig. 3.
/// let reg = ActivationRegularizer::new(RegKind::NeuronConvergence, 2, 0.1);
/// assert_eq!(reg.threshold(), 2.0);          // 2^(M-1)
/// assert!((reg.value(1.0) - 0.1).abs() < 1e-6);      // α·|o| inside
/// assert!((reg.value(3.0) - (1.0 + 0.3)).abs() < 1e-6); // (|o|-θ) + α·|o|
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ActivationRegularizer {
    kind: RegKind,
    bits: u32,
    alpha: f32,
}

impl ActivationRegularizer {
    /// Creates a regularizer targeting `bits`-bit signals with sparsity
    /// weight `alpha` (the paper uses α = 0.1).
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 16`.
    pub fn new(kind: RegKind, bits: u32, alpha: f32) -> Self {
        assert!((1..=16).contains(&bits), "bit width must be in 1..=16");
        ActivationRegularizer { kind, bits, alpha }
    }

    /// The paper's default: Neuron Convergence with α = 0.1.
    pub fn neuron_convergence(bits: u32) -> Self {
        ActivationRegularizer::new(RegKind::NeuronConvergence, bits, 0.1)
    }

    /// The regularization shape.
    pub fn kind(&self) -> RegKind {
        self.kind
    }

    /// Target bit width `M`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The range threshold `θ = 2^(M−1)`.
    pub fn threshold(&self) -> f32 {
        (1u32 << (self.bits - 1)) as f32
    }

    /// Penalty for a single signal value (Eq. 3 for
    /// [`RegKind::NeuronConvergence`]).
    pub fn value(&self, o: f32) -> f32 {
        let a = o.abs();
        let theta = self.threshold();
        match self.kind {
            RegKind::None => 0.0,
            RegKind::L1 => a,
            RegKind::TruncatedL1 => (a - theta).max(0.0),
            RegKind::NeuronConvergence => {
                if a >= theta {
                    (a - theta) + self.alpha * a
                } else {
                    self.alpha * a
                }
            }
        }
    }

    /// Subgradient of [`value`](Self::value) at `o` (0 at the kink).
    pub fn grad(&self, o: f32) -> f32 {
        if o == 0.0 {
            return 0.0;
        }
        let s = o.signum();
        let a = o.abs();
        let theta = self.threshold();
        match self.kind {
            RegKind::None => 0.0,
            RegKind::L1 => s,
            RegKind::TruncatedL1 => {
                if a >= theta {
                    s
                } else {
                    0.0
                }
            }
            RegKind::NeuronConvergence => {
                if a >= theta {
                    s * (1.0 + self.alpha)
                } else {
                    s * self.alpha
                }
            }
        }
    }

    /// Total penalty over a tensor of signals (the paper's `R_g(O^i)`).
    ///
    /// Summed in eight fixed lanes (element `i` into lane `i mod 8`, then
    /// a fixed pairwise combine), so the order is the same on every target
    /// and SIMD level and the loop is not one serial add chain. It may
    /// differ from a serial sum in its last bits.
    pub fn tensor_value(&self, o: &Tensor) -> f32 {
        if self.kind == RegKind::None {
            return 0.0;
        }
        // A copy, so the loop keeps the fields in registers.
        let reg = *self;
        let mut lanes = [0.0f32; 8];
        let chunks = o.as_slice().chunks_exact(8);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                *lane += reg.value(x);
            }
        }
        for (lane, &x) in lanes.iter_mut().zip(tail) {
            *lane += reg.value(x);
        }
        let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
        ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero_everywhere() {
        let r = ActivationRegularizer::new(RegKind::None, 4, 0.1);
        for &o in &[-10.0, -1.0, 0.0, 1.0, 10.0] {
            assert_eq!(r.value(o), 0.0);
            assert_eq!(r.grad(o), 0.0);
        }
    }

    #[test]
    fn l1_is_absolute_value() {
        let r = ActivationRegularizer::new(RegKind::L1, 4, 0.1);
        assert_eq!(r.value(-3.0), 3.0);
        assert_eq!(r.grad(-3.0), -1.0);
        assert_eq!(r.grad(2.0), 1.0);
    }

    #[test]
    fn truncated_l1_is_flat_inside_range() {
        let r = ActivationRegularizer::new(RegKind::TruncatedL1, 3, 0.1);
        // θ = 4
        assert_eq!(r.value(3.9), 0.0);
        assert_eq!(r.grad(3.9), 0.0);
        assert!((r.value(5.0) - 1.0).abs() < 1e-6);
        assert_eq!(r.grad(5.0), 1.0);
    }

    #[test]
    fn neuron_convergence_matches_eq3() {
        let r = ActivationRegularizer::neuron_convergence(4); // θ = 8, α = 0.1
        // Inside: α|o|
        assert!((r.value(4.0) - 0.4).abs() < 1e-6);
        assert!((r.grad(4.0) - 0.1).abs() < 1e-6);
        // Outside: (|o| − θ) + α|o|
        assert!((r.value(10.0) - (2.0 + 1.0)).abs() < 1e-6);
        assert!((r.grad(10.0) - 1.1).abs() < 1e-6);
        // Symmetric.
        assert_eq!(r.value(-10.0), r.value(10.0));
        assert_eq!(r.grad(-10.0), -r.grad(10.0));
    }

    #[test]
    fn neuron_convergence_dominates_truncated_l1() {
        // Fig. 3: the proposed curve lies above truncated-l1 everywhere
        // o ≠ 0 (it adds the sparsity term).
        let nc = ActivationRegularizer::neuron_convergence(2);
        let tl = ActivationRegularizer::new(RegKind::TruncatedL1, 2, 0.1);
        for i in 1..100 {
            let o = i as f32 * 0.1;
            assert!(nc.value(o) > tl.value(o));
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let r = ActivationRegularizer::neuron_convergence(3);
        let eps = 1e-3;
        for &o in &[-6.0, -3.9, -1.0, 0.5, 3.5, 4.5, 9.0] {
            let num = (r.value(o + eps) - r.value(o - eps)) / (2.0 * eps);
            assert!(
                (num - r.grad(o)).abs() < 1e-2,
                "at {o}: numeric {num} vs {}",
                r.grad(o)
            );
        }
    }

    #[test]
    fn tensor_forms_agree_with_scalar() {
        let r = ActivationRegularizer::neuron_convergence(4);
        let t = Tensor::from_slice(&[1.0, -2.0, 9.0]);
        let expected: f32 = t.iter().map(|&x| r.value(x)).sum();
        assert!((r.tensor_value(&t) - expected).abs() < 1e-6);
    }

    #[test]
    fn lane_sum_agrees_with_serial_sum() {
        // Every kind and bit width, and lengths that leave every tail size.
        let mut rng = qsnc_tensor::TensorRng::seed(11);
        for kind in [
            RegKind::L1,
            RegKind::TruncatedL1,
            RegKind::NeuronConvergence,
        ] {
            for bits in [1, 2, 4, 8] {
                let r = ActivationRegularizer::new(kind, bits, 0.1);
                let hi = 2.0 * r.threshold();
                for len in (1..=40).chain([1000]) {
                    let t = qsnc_tensor::init::uniform([len], -hi, hi, &mut rng);
                    let serial: f32 = t.iter().map(|&x| r.value(x)).sum();
                    let lanes = r.tensor_value(&t);
                    assert!(
                        (lanes - serial).abs() <= 1e-6 * serial.abs(),
                        "{kind} M={bits} len={len}: {lanes} vs serial {serial}"
                    );
                }
                // A [32, 3, 28, 28] signal, LeNet's first stage. Here the
                // serial f32 sum itself drifts from the exact sum by up to
                // ~8e-6 relative, so the lane sum is held to the exact one.
                let t = qsnc_tensor::init::uniform([75_264], -hi, hi, &mut rng);
                let exact: f64 = t.iter().map(|&x| r.value(x) as f64).sum();
                let lanes = r.tensor_value(&t) as f64;
                assert!(
                    (lanes - exact).abs() <= 2e-6 * exact,
                    "{kind} M={bits}: {lanes} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn lane_sum_order_is_fixed() {
        // Element i lands in lane i mod 8 and the lanes combine pairwise:
        // a large value in lane 0 absorbs lane 0's small ones only.
        let r = ActivationRegularizer::new(RegKind::L1, 4, 0.1);
        let mut xs = vec![0.0f32; 16];
        xs[0] = 1.0e8;
        xs[8] = 4.0; // same lane: lost under 1e8's ulp (8)
        xs[1] = 3.0;
        xs[9] = 3.0; // lane 1 holds 6 before meeting lane 0
        let t = Tensor::from_vec(xs, [16]);
        assert_eq!(r.tensor_value(&t), (1.0e8f32 + 4.0) + 6.0);
    }

    #[test]
    #[should_panic(expected = "bit width")]
    fn zero_bits_panics() {
        ActivationRegularizer::new(RegKind::L1, 0, 0.1);
    }
}
