//! Log-bucketed quantile histograms (HDR/DDSketch-style).
//!
//! The fixed-bucket [`crate::observe`] histograms answer "how many values
//! fell in each of *my* ranges" — good for ranges a call site knows in
//! advance (queue depths, batch sizes), bad for latency tails, where a
//! coarse edge quantizes p99 onto whatever bucket boundary it happens to
//! straddle. A [`QuantileHistogram`] instead uses geometrically spaced
//! buckets fixed by the *implementation*: bucket `i` covers
//! `[γ^(i-1-OFFSET), γ^(i-OFFSET))` with `γ = 1.02`, so any reported
//! quantile is within **1% relative error** of an actually observed value
//! ([`QUANTILE_RELATIVE_ERROR`]), at any magnitude from ~0.01 to ~10^15,
//! with no per-site tuning.
//!
//! Recording is lock-free: one `ln`, one index clamp, and four relaxed
//! atomic updates (bucket, count, CAS'd sum, CAS'd min/max) — safe to call
//! from the scoped worker threads of `qsnc_tensor::parallel` and from
//! serve event-loop threads concurrently with snapshotting. Exact `count`,
//! `sum`, `min`, and `max` ride along, so `quantile(0.0)` / `quantile(1.0)`
//! are exact and means need no bucket arithmetic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Geometric bucket growth factor. `γ = 1.02` bounds the relative error of
/// any reported quantile at `√γ − 1 < 1%`.
pub const QUANTILE_GAMMA: f64 = 1.02;

/// `ln(QUANTILE_GAMMA)`, precomputed (checked against `f64::ln` in tests).
const LN_GAMMA: f64 = 0.019_802_627_296_179_73;

/// Number of buckets reserved for values below `1.0`; the smallest
/// distinguishable value is `γ^-OFFSET ≈ 0.0063`.
const OFFSET: i64 = 256;

/// Total bucket count: index 0 holds `v ≤ 0`, index 1 underflows, the last
/// index overflows; everything between is geometric. The top of the range
/// is `γ^(BUCKETS-2-OFFSET) ≈ 2.5e15`.
pub const QUANTILE_BUCKETS: usize = 2048;

/// Documented worst-case relative error of a reported quantile against the
/// true rank-selected observation: `√γ − 1`.
pub const QUANTILE_RELATIVE_ERROR: f64 = 0.00995;

/// Bucket index for `value` (0 = non-positive, clamped at both ends).
#[inline]
pub fn bucket_index(value: f64) -> usize {
    if value <= 0.0 || value.is_nan() {
        return 0;
    }
    let i = (value.ln() / LN_GAMMA).floor() as i64 + OFFSET + 1;
    i.clamp(1, QUANTILE_BUCKETS as i64 - 1) as usize
}

/// Representative value of bucket `index`: the geometric midpoint of its
/// range (0 for the non-positive bucket).
#[inline]
pub fn bucket_value(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    ((index as f64 - OFFSET as f64 - 0.5) * LN_GAMMA).exp()
}

/// A lock-free log-bucketed quantile histogram.
///
/// Use the registry front door [`crate::quantile_observe`] for named,
/// env-gated process-wide sketches; construct one directly when a program
/// wants a private sketch regardless of the telemetry mode (the
/// `serve_load` bench does this to validate the error bound against exact
/// percentiles).
///
/// # Examples
///
/// ```
/// use qsnc_telemetry::QuantileHistogram;
///
/// let h = QuantileHistogram::new();
/// for v in 1..=1000 {
///     h.observe(v as f64);
/// }
/// let snap = h.snapshot_named("demo");
/// let p50 = snap.quantile(0.5);
/// assert!((p50 - 500.0).abs() / 500.0 < 0.01, "p50 {p50}");
/// assert_eq!(snap.quantile(1.0), 1000.0); // exact max rides along
/// ```
#[derive(Debug)]
pub struct QuantileHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Running sum as `f64` bits (CAS loop, same scheme as `observe`).
    sum_bits: AtomicU64,
    /// Exact smallest observation as `f64` bits (`+inf` until first).
    min_bits: AtomicU64,
    /// Exact largest observation as `f64` bits (`-inf` until first).
    max_bits: AtomicU64,
}

impl Default for QuantileHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// CAS-updates an `f64`-bits atomic with `op` (used for sum/min/max).
fn cas_f64(cell: &AtomicU64, op: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = op(f64::from_bits(current)).to_bits();
        if next == current {
            return;
        }
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

impl QuantileHistogram {
    /// An empty sketch ([`QUANTILE_BUCKETS`] zeroed buckets).
    pub fn new() -> Self {
        QuantileHistogram {
            buckets: (0..QUANTILE_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation. Lock-free; NaN counts into the
    /// non-positive bucket and is excluded from min/max.
    pub fn observe(&self, value: f64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if !value.is_nan() {
            cas_f64(&self.sum_bits, |s| s + value);
            cas_f64(&self.min_bits, |m| m.min(value));
            cas_f64(&self.max_bits, |m| m.max(value));
        }
    }

    /// Copies the sketch out as a named sparse snapshot.
    pub fn snapshot_named(&self, name: &str) -> QuantileSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        QuantileSnapshot {
            name: name.to_string(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one [`QuantileHistogram`], sparse (only
/// non-empty buckets), as it appears in [`crate::Snapshot::quantiles`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSnapshot {
    /// Sketch name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Exact sum of observed values.
    pub sum: f64,
    /// Exact smallest observation (0 when empty).
    pub min: f64,
    /// Exact largest observation (0 when empty).
    pub max: f64,
    /// `(bucket index, count)` pairs, ascending by index, counts > 0.
    pub buckets: Vec<(u32, u64)>,
}

impl QuantileSnapshot {
    /// The `q`-quantile (`q ∈ [0, 1]`), within
    /// [`QUANTILE_RELATIVE_ERROR`] of the true rank-selected observation.
    /// `q = 0` / `q = 1` return the exact min/max; an empty sketch
    /// returns 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        // Nearest-rank: the smallest bucket whose cumulative count reaches
        // ceil(q·count), clamped into the exact observed range.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(idx, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return bucket_value(idx as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Exact mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-wise difference `self − baseline` (same name expected):
    /// counts and sum subtract, giving the distribution of the window
    /// between the two snapshots. `min`/`max` remain the *lifetime*
    /// extremes — per-window extremes are not recoverable from cumulative
    /// sketches — so windowed `quantile(q)` stays within the error bound
    /// but `quantile(0)`/`quantile(1)` may be outside the window.
    pub fn delta_since(&self, baseline: &QuantileSnapshot) -> QuantileSnapshot {
        let mut base = baseline.buckets.iter().copied().collect::<std::collections::HashMap<u32, u64>>();
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(idx, n)| {
                let b = base.remove(&idx).unwrap_or(0);
                let d = n.saturating_sub(b);
                (d > 0).then_some((idx, d))
            })
            .collect();
        QuantileSnapshot {
            name: self.name.clone(),
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum - baseline.sum,
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_f64_ln() {
        assert!((LN_GAMMA - QUANTILE_GAMMA.ln()).abs() < 1e-18);
    }

    #[test]
    fn bucket_index_is_monotone_and_inverts() {
        let mut last = 0usize;
        let mut v = 0.01f64;
        while v < 1e12 {
            let i = bucket_index(v);
            assert!(i >= last, "index must be monotone in value");
            last = i;
            // The representative of v's bucket is within 1% of v.
            if i > 1 && i < QUANTILE_BUCKETS - 1 {
                let rep = bucket_value(i);
                assert!(
                    (rep - v).abs() / v <= QUANTILE_RELATIVE_ERROR,
                    "v={v} rep={rep}"
                );
            }
            v *= 1.37;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::MAX), QUANTILE_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_bound() {
        let h = QuantileHistogram::new();
        // A deterministic heavy-tailed sample: v = i^1.7 over 10k points.
        let mut exact: Vec<f64> = (1..=10_000).map(|i| (i as f64).powf(1.7)).collect();
        for &v in &exact {
            h.observe(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let snap = h.snapshot_named("t");
        for q in [0.5, 0.9, 0.99, 0.999] {
            let truth = exact[((q * (exact.len() - 1) as f64).round()) as usize];
            let est = snap.quantile(q);
            let rel = (est - truth).abs() / truth;
            assert!(rel <= 0.011, "q={q}: est {est} vs exact {truth} (rel {rel})");
        }
        assert_eq!(snap.quantile(0.0), exact[0]);
        assert_eq!(snap.quantile(1.0), *exact.last().unwrap());
        assert_eq!(snap.count, 10_000);
    }

    #[test]
    fn concurrent_observes_are_exact_in_count_and_sum() {
        let h = QuantileHistogram::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 1..=5_000u64 {
                        h.observe(i as f64);
                    }
                });
            }
        });
        let snap = h.snapshot_named("c");
        assert_eq!(snap.count, 20_000);
        let expected_sum = 4.0 * (5_000.0 * 5_001.0 / 2.0);
        assert!((snap.sum - expected_sum).abs() < 1e-6, "sum {}", snap.sum);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 5_000.0);
    }

    #[test]
    fn delta_subtracts_window() {
        let h = QuantileHistogram::new();
        for _ in 0..100 {
            h.observe(10.0);
        }
        let base = h.snapshot_named("d");
        for _ in 0..50 {
            h.observe(1_000.0);
        }
        let delta = h.snapshot_named("d").delta_since(&base);
        assert_eq!(delta.count, 50);
        // The window contains only the 1000s: its p50 reflects that.
        let p50 = delta.quantile(0.5);
        assert!((p50 - 1_000.0).abs() / 1_000.0 <= QUANTILE_RELATIVE_ERROR, "{p50}");
        assert!((delta.sum - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_sketch_is_sane() {
        let snap = QuantileHistogram::new().snapshot_named("e");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.max, 0.0);
        assert!(snap.buckets.is_empty());
    }
}
