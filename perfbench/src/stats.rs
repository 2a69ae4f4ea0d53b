//! Order statistics behind every reported timing: medians, and
//! nearest-rank percentiles that refuse to report a tail backed by fewer
//! than ten samples.

/// Samples a percentile needs strictly above its rank before it is
/// reported; a tail figure backed by fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// `⌈pct·n/100⌉`, in integer arithmetic so no rounding moves it.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100)
}

/// Nearest-rank `pct`-th percentile (`0 < pct < 100`) of `samples`: the
/// smallest sample with at least `⌈pct·n/100⌉` samples at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!(pct > 0 && pct < 100, "percentile {pct} out of range");
    let n = samples.len();
    let r = rank(n, pct);
    if r == 0 || n - r < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[r - 1])
}

/// Fewest samples for which [`percentile`] reports the `pct`-th percentile.
pub fn min_samples(pct: usize) -> usize {
    (1..)
        .find(|&n| n - rank(n, pct) >= MIN_BEYOND)
        .expect("some sample count clears the rule")
}

/// Median of `samples` (mean of the two middle values for an even count);
/// NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `samples`; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the percentile must sort before ranking.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        // 100 samples 1..=100: p50 is the 50th, p90 the 90th.
        assert_eq!(percentile(&ramp(100), 50), Some(50.0));
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        // 101 samples: ⌈50.5⌉ = 51st.
        assert_eq!(percentile(&ramp(101), 50), Some(51.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[3.0, 1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
