//! Order statistics for timing samples.

/// Median, quartiles and the reportable tail of one series of samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)`: the highest of p50/p90/p99/p99.9 that still
    /// has at least ten samples beyond it; `None` under twenty samples.
    pub tail: Option<(f64, f64)>,
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them, so spreads computed here read the same
/// as spreads computed from the result files.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

fn sorted_copy(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(&sorted_copy(samples)).1
}

/// The percentile a series of `n` samples can support: the highest of
/// 50 / 90 / 99 / 99.9 with at least ten samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    // (percentile, one sample in how many lies beyond it)
    [(99.9, 1000), (99.0, 100), (90.0, 10), (50.0, 2)]
        .into_iter()
        .find(|(_, one_in)| n / one_in >= 10)
        .map(|(p, _)| p)
}

/// Nearest-rank percentile of a sorted series.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted_copy(samples);
    let (q1, median, q3) = quartiles(&s);
    Summary {
        n: s.len(),
        median,
        q1,
        q3,
        tail: supported_tail(s.len()).map(|p| (p, percentile(&s, p))),
    }
}

/// Geometric mean of positive values (0 when empty or any is non-positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_tail_value_by_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.median, 100.5);
        assert_eq!(s.tail, Some((90.0, 180.0)));
    }

    #[test]
    fn geomean_weighs_every_part_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
