//! Order statistics for the benchmark's reports.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so `--repeat` reports the spread exactly as it is checked.
/// Needs at least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Nearest-rank percentile of `values`, given in tenths of a percent
/// (`990` = p99) so ranks are exact integers; 0 when empty.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// The tail a latency report may honestly state: the highest of p99.9,
/// p99, p90 and p50 that still has at least ten samples beyond it, as
/// `(label, value)`. With fewer than twenty samples no percentile
/// qualifies and the maximum is reported as `max`.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    const CANDIDATES: [(&str, usize); 4] =
        [("p99.9", 999), ("p99", 990), ("p90", 900), ("p50", 500)];
    let n = values.len();
    for (label, permille) in CANDIDATES {
        if n > 0 && n - rank(n, permille) >= 10 {
            return (label, percentile(values, permille));
        }
    }
    ("max", values.iter().copied().fold(0.0, f64::max))
}

/// 1-based nearest rank of a percentile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_the_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 500), 50.0);
        assert_eq!(percentile(&values, 990), 99.0);
        assert_eq!(percentile(&values, 1000), 100.0);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), ("p99", 990.0));
        // Too few samples for p99 (only 5 beyond it): p90 has 50 beyond.
        let some: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&some), ("p90", 450.0));
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&few), ("p50", 15.0));
        assert_eq!(tail(&[3.0, 9.0, 4.0]), ("max", 9.0));
        let exact: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&exact), ("p99.9", 9990.0));
    }
}
