//! Small statistics helpers: nearest-rank percentiles, the "enough samples
//! beyond it" rule and the metric-name grammar.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support the `q` percentile: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_BEYOND
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supports(n, q))
}

/// Median of `values` (sorted in place): the mean of the two middle values
/// for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Sorts ascending; NaN-free input is a caller invariant.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
}

/// The metric-name grammar: 1 to 64 characters of ASCII letters, digits,
/// `_`, `.` and `-`, starting with a letter or a digit.
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit grammar: 1 to 16 characters of ASCII letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(!supports(0, 0.5));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(1_100), Some(0.99));
        assert_eq!(highest_supported_percentile(400), Some(0.9));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 500.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 990.0);
        assert_eq!(nearest_rank(&[3.0], 0.99), 3.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        assert!(is_metric_name("throughput_img_s"));
        assert!(is_metric_name("tensor.gemm_b8_gflops"));
        assert!(is_metric_name("9lives-ok"));
        assert!(!is_metric_name(""));
        assert!(!is_metric_name("_leading"));
        assert!(!is_metric_name(".leading"));
        assert!(!is_metric_name("has space"));
        assert!(!is_metric_name("slash/no"));
        assert!(!is_metric_name(&"x".repeat(65)));
        assert!(is_metric_name(&"x".repeat(64)));
        assert!(is_unit("GFLOP/s"));
        assert!(is_unit("%"));
        assert!(!is_unit(""));
        assert!(!is_unit("has space"));
    }
}
