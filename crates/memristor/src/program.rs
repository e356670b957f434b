//! Crossbar programming: the write-verify loop.
//!
//! [`program_device_verified`] is the program → read-back → retry loop a
//! reliability-aware deployment runs per device. Each failed attempt backs
//! the aim level off toward an adjacent conductance level to compensate the
//! observed signed error; devices that never verify within the retry budget
//! (3 retries per device when a reliability-aware deploy programs a
//! crossbar) are reported unrecoverable so the caller can zero-mask them.

use crate::device::{Device, DeviceConfig};
use qsnc_tensor::TensorRng;

/// Outcome of one device's write-verify loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifiedWrite {
    /// The conductance the device ended at, siemens.
    pub conductance: f32,
    /// Program-verify attempts spent (1 = verified first try).
    pub attempts: u32,
    /// Whether the final read-back matched the target level.
    pub verified: bool,
}

/// Programs one device to `target` with a program → read-back → retry loop.
///
/// Each attempt programs the device (subject to write variation when `rng`
/// is supplied) and reads the realized conductance back through
/// [`DeviceConfig::nearest_level`]. On a mismatch the next attempt *backs
/// off toward an adjacent level*: the aim level shifts one step against the
/// observed signed error, so a device that persistently programs high is
/// re-aimed low, recentring the realized conductance on the target window.
/// After `1 + max_retries` failed attempts the write is reported
/// unverified.
///
/// `pinned` models a stuck device: the realized conductance is forced to
/// the pinned value on every attempt, so the loop verifies only when the
/// target level happens to *be* the stuck level (e.g. a stuck-at-G_on
/// device faithfully stores the maximum code) and otherwise reports the
/// cell unrecoverable — exactly how write-verify discovers fault maps on
/// real arrays.
///
/// Ideal devices (no noise, no pin) verify on the first attempt with the
/// exact level conductance, which keeps fault-free deployments bit-identical
/// to unverified programming.
///
/// # Panics
///
/// Panics if `target` is out of range for `config`.
pub fn program_device_verified(
    config: &DeviceConfig,
    target: u32,
    pinned: Option<f32>,
    mut rng: Option<&mut TensorRng>,
    max_retries: u32,
) -> VerifiedWrite {
    let max_level = config.levels() - 1;
    assert!(target <= max_level, "level {target} out of range");
    let mut aim = target;
    let mut conductance = 0.0f32;
    for attempt in 1..=(1 + max_retries) {
        conductance = match pinned {
            Some(g) => g,
            None => Device::program(config, aim, rng.as_deref_mut()).conductance,
        };
        let read_back = config.nearest_level(conductance);
        if read_back == target {
            return VerifiedWrite { conductance, attempts: attempt, verified: true };
        }
        // Back off one level against the observed error for the next try.
        if read_back > target {
            aim = aim.saturating_sub(1);
        } else {
            aim = (aim + 1).min(max_level);
        }
    }
    VerifiedWrite { conductance, attempts: 1 + max_retries, verified: false }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_device_verifies_first_try_exactly() {
        let cfg = DeviceConfig::paper(4);
        for level in 0..cfg.levels() {
            let w = program_device_verified(&cfg, level, None, None, 3);
            assert!(w.verified);
            assert_eq!(w.attempts, 1);
            assert_eq!(w.conductance, cfg.level_conductance(level));
        }
    }

    #[test]
    fn noisy_device_retries_and_usually_recovers() {
        // Heavy write variation: some first attempts land on the wrong
        // level, and retries with backoff recover most of them.
        let cfg = DeviceConfig::paper(4).with_noise(0.25, 0.0);
        let mut rng = TensorRng::seed(3);
        let mut retried = 0u32;
        let mut verified = 0u32;
        let mut first_try = 0u32;
        let n = 500;
        for i in 0..n {
            let w = program_device_verified(&cfg, 1 + (i % 14), None, Some(&mut rng), 8);
            if w.attempts > 1 {
                retried += 1;
            } else {
                first_try += 1;
            }
            if w.verified {
                verified += 1;
                assert_eq!(cfg.nearest_level(w.conductance), 1 + (i % 14));
            }
        }
        assert!(retried > 0, "no retries at σ = 0.25?");
        // Retrying must recover devices beyond the first-try successes.
        assert!(
            verified > first_try,
            "retries recovered nothing: {verified} verified, {first_try} first-try"
        );
        assert!(
            verified > n * 3 / 4,
            "write-verify recovered only {verified}/{n}"
        );
    }

    #[test]
    fn stuck_device_never_verifies_except_at_its_level() {
        let cfg = DeviceConfig::paper(4);
        // Stuck at G_on (the top level): only the max code verifies.
        let pinned = cfg.g_max();
        let top = cfg.levels() - 1;
        let at_top = program_device_verified(&cfg, top, Some(pinned), None, 3);
        assert!(at_top.verified);
        let below = program_device_verified(&cfg, 3, Some(pinned), None, 3);
        assert!(!below.verified);
        assert_eq!(below.attempts, 4, "expected 1 + max_retries attempts");
        assert_eq!(below.conductance, pinned);
    }
}
