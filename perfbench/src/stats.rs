//! Order statistics over measured samples.

/// The `q`-quantile of an ascending slice by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it. Empty → 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Runs `f` repeatedly for at least `min_reps` calls and until `budget`
/// has passed, returning the median single-call time in microseconds.
pub fn time_median_us(budget: std::time::Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed() < budget {
        let t0 = std::time::Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
