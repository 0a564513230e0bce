//! Order statistics over measured samples.

/// Sorted copy of `xs` (NaN-free by construction: every sample is a
/// clock difference or a ratio of positive counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile that leaves at least ten samples beyond it,
/// capped at p99 and never below the median, with its value:
/// `(percentile, value)`. Below twenty samples no tail is measurable
/// and this is the median.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let p = (100.0 * (n - 10.0) / n).clamp(50.0, 99.0);
    if p == 50.0 {
        return (p, median(xs));
    }
    (p, percentile(xs, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 95.0);
        assert_eq!(v, 190.0);
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 4950.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0, 4.0]), (50.0, 2.5));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
