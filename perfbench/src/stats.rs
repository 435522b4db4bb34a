//! Percentiles that respect their sample size.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise the caller gets `None` (or, from [`tail`], the
//! highest percentile the sample does support, labelled with its rank).

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of `sorted` (ascending), by the nearest-rank method,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    // Nearest rank: the smallest index with at least q·n samples at or
    // below it; everything after that index lies beyond the percentile.
    // The epsilon keeps `0.9 · 100` from rounding up to rank 91.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of `sorted`, or `None` for fewer than `2·MIN_BEYOND`
/// samples.
#[must_use]
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 0.5)
}

/// Sort a sample in place (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The highest percentile, capped at `cap`, that `sorted` supports, as
/// `(quantile, value)`; `None` when not even the median is supported.
#[must_use]
pub fn tail(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let supported = 1.0 - MIN_BEYOND as f64 / n as f64;
    let q = cap.min(supported);
    if q < 0.5 {
        return None;
    }
    // Rounding of `q·n` can cost one rank; step down until supported.
    let mut q = q;
    loop {
        if let Some(v) = percentile(sorted, q) {
            return Some((q, v));
        }
        q -= 1.0 / n as f64;
        if q < 0.5 {
            return None;
        }
    }
}

/// Median of an unsorted sample with no minimum size (used for the few
/// repetitions of set-up, where the median of five is the whole point).
#[must_use]
pub fn small_median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // The median of 19 has nine beyond it; of 20, ten.
        assert_eq!(median(&ramp(19)), None);
        assert_eq!(median(&ramp(20)), Some(10.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_rank() {
        let (q, v) = tail(&ramp(1000), 0.99).expect("p99 supported");
        assert!((q - 0.99).abs() < 1e-12);
        assert_eq!(v, 990.0);
        let (q, v) = tail(&ramp(100), 0.99).expect("p90 supported");
        assert!((q - 0.9).abs() < 1e-9, "{q}");
        assert_eq!(v, 90.0);
        let sorted = ramp(100);
        let beyond = sorted.iter().filter(|&&x| x > v).count();
        assert!(beyond >= MIN_BEYOND);
        assert!(tail(&ramp(15), 0.99).is_none());
    }

    #[test]
    fn small_median_handles_even_and_odd_counts() {
        assert_eq!(small_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(small_median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
