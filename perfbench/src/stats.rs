//! Order statistics: medians and tail percentiles.

/// Fewest samples a tail percentile must leave beyond it before it is
/// reported.
pub const MIN_BEYOND_TAIL: f64 = 10.0;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Quantile `q` (0..=1) of ascending `sorted` samples, interpolating
/// linearly between closest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| quantile_sorted(&sorted(values), 0.5))
}

/// The highest of p99.9, p99 and p90 that leaves at least ten of `n`
/// samples beyond it; `None` when even p90 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND_TAIL - 1e-9)
}

/// Percentile `p` of `values`, refused when fewer than ten samples lie
/// beyond it: with fewer, the number would be one or two outliers rather
/// than a tail.
pub fn tail(values: &[f64], p: f64) -> Result<f64, String> {
    let beyond = values.len() as f64 * (1.0 - p / 100.0);
    if beyond < MIN_BEYOND_TAIL - 1e-9 {
        return Err(format!(
            "p{p} of {} samples leaves {beyond:.1} beyond it; at least {MIN_BEYOND_TAIL} are needed",
            values.len()
        ));
    }
    Ok(quantile_sorted(&sorted(values), p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_refuses_a_percentile_the_count_cannot_support() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&few, 99.0).is_err());
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = tail(&enough, 99.0).unwrap();
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
        assert!(tail(&enough, 90.0).is_ok());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [0.0, 10.0];
        assert_eq!(quantile_sorted(&v, 0.25), 2.5);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
    }
}
