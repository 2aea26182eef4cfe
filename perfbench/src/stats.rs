//! Order statistics for the benchmark's timings.

/// Nearest-rank percentile `p` (0–100] of `samples`: the smallest sample
/// with at least `p` percent of the samples at or below it. This is the
/// rule the vendored criterion shim applies to its per-sample times
/// (`ceil(p / 100 · n)`-th smallest, rank clamped to `1..=n`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_criterion_shim_rule() {
        // ceil(p/100 * n)-th smallest: n = 10 → p50 is the 5th, p90 the
        // 9th, p95 and p99 the 10th.
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 95.0), 10.0);
        assert_eq!(percentile(&samples, 99.0), 10.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        // n = 7: p50 → rank ceil(3.5) = 4, p90 → ceil(6.3) = 7.
        let seven = [70.0, 10.0, 40.0, 20.0, 60.0, 30.0, 50.0];
        assert_eq!(percentile(&seven, 50.0), 40.0);
        assert_eq!(percentile(&seven, 90.0), 70.0);
        // Tiny p clamps to the first rank; one sample is every rank.
        assert_eq!(percentile(&seven, 0.1), 10.0);
        assert_eq!(percentile(&[3.5], 99.0), 3.5);
        // n = 100: p90 is exactly the 90th smallest (no interpolation).
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(median(&hundred), 50.0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
