//! Order statistics over timing samples.

/// Percentiles tried, highest first, when picking a sample's tail.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a percentile for it to be
/// reported as the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (the mean of the two middle values for even counts).
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index of percentile `p` in a sorted sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest percentile of `xs` that has at least ten samples beyond
/// it, as `(percentile, value)`; `None` when the sample is too small.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let k = rank(p, n);
        (n > 0 && n - 1 - k >= TAIL_MIN_BEYOND).then(|| (p, v[k]))
    })
}

/// One line of the human report: median, sample count and tail.
pub fn describe(xs: &[f64], unit: &str) -> String {
    if xs.is_empty() {
        return "no samples".to_string();
    }
    let mut s = format!("median {:.4} {unit} (n={})", median(xs), xs.len());
    if let Some((p, v)) = tail(xs) {
        s.push_str(&format!(", p{p} {v:.4} {unit}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 is the 10th value; ten lie beyond it, and no higher
        // percentile keeps ten.
        assert_eq!(tail(&xs), Some((50.0, 10.0)));
        assert_eq!(tail(&xs[..15]), None);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.0, 1980.0)));
    }
}
