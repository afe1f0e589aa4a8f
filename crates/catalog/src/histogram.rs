//! Equi-depth histograms — the "improved summary structures" tier of
//! statistics the paper contrasts with (Section 1 cites self-tuning and
//! error-bounded histograms as the classical mitigation for estimation
//! error; the bouquet side-steps them, but the *baselines* deserve a fair
//! estimator).
//!
//! A histogram refines a column's range-selectivity estimates from linear
//! interpolation over `[min, max]` to interpolation within equi-depth
//! buckets, which is exact for any piecewise-uniform data distribution.

use serde::Serialize;

/// An equi-depth histogram: `bounds` has `buckets + 1` ascending entries;
/// each bucket holds the same fraction of rows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EquiDepthHistogram {
    pub bounds: Vec<f64>,
}

impl EquiDepthHistogram {
    /// Build from a sample of values (the engine's data generator or an
    /// external profile). `buckets` must be ≥ 1.
    pub fn from_values(mut values: Vec<f64>, buckets: usize) -> Option<Self> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let mut bounds = Vec::with_capacity(buckets + 1);
        for b in 0..=buckets {
            let idx = (b * (n - 1)) / buckets;
            bounds.push(values[idx]);
        }
        // Collapse is fine (duplicate bounds = empty-width buckets); keep
        // monotonicity.
        Some(EquiDepthHistogram { bounds })
    }

    /// Build an exact histogram for a uniform distribution over `[lo, hi]`.
    pub fn uniform(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(buckets >= 1 && hi >= lo);
        EquiDepthHistogram {
            bounds: (0..=buckets)
                .map(|b| lo + (hi - lo) * b as f64 / buckets as f64)
                .collect(),
        }
    }

    pub fn buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Estimated selectivity of `col < c`.
    pub fn lt_selectivity(&self, c: f64) -> f64 {
        let nb = self.buckets() as f64;
        if c <= self.bounds[0] {
            return 0.0;
        }
        if c >= self.bounds[self.buckets()] {
            return 1.0;
        }
        // Find the bucket containing c.
        let mut acc = 0.0;
        for b in 0..self.buckets() {
            let (lo, hi) = (self.bounds[b], self.bounds[b + 1]);
            if c >= hi {
                acc += 1.0;
            } else {
                if hi > lo {
                    acc += (c - lo) / (hi - lo);
                }
                break;
            }
        }
        (acc / nb).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of `lo <= col <= hi`.
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        (self.lt_selectivity(hi) - self.lt_selectivity(lo)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_histogram_matches_linear_interpolation() {
        let h = EquiDepthHistogram::uniform(0.0, 100.0, 10);
        assert!((h.lt_selectivity(25.0) - 0.25).abs() < 1e-12);
        assert!((h.lt_selectivity(99.0) - 0.99).abs() < 1e-12);
        assert_eq!(h.lt_selectivity(-5.0), 0.0);
        assert_eq!(h.lt_selectivity(500.0), 1.0);
    }

    #[test]
    fn skewed_data_beats_linear_interpolation() {
        // 90% of values in [0, 10), 10% in [10, 100).
        let mut values = Vec::new();
        for i in 0..900 {
            values.push(i as f64 / 90.0); // [0, 10)
        }
        for i in 0..100 {
            values.push(10.0 + i as f64 * 0.9); // [10, 100)
        }
        let h = EquiDepthHistogram::from_values(values, 10).unwrap();
        let est = h.lt_selectivity(10.0);
        assert!(
            (est - 0.9).abs() < 0.02,
            "histogram should see the skew: {est}"
        );
        // Linear interpolation over [0,100] would have said 0.1 — off by 9x.
    }

    #[test]
    fn from_values_handles_duplicates_and_small_inputs() {
        let h = EquiDepthHistogram::from_values(vec![5.0; 100], 4).unwrap();
        assert_eq!(h.buckets(), 4);
        assert_eq!(h.lt_selectivity(4.9), 0.0);
        assert_eq!(h.lt_selectivity(5.1), 1.0);
        assert!(EquiDepthHistogram::from_values(vec![], 4).is_none());
        assert!(EquiDepthHistogram::from_values(vec![1.0], 0).is_none());
        let single = EquiDepthHistogram::from_values(vec![1.0], 3).unwrap();
        assert_eq!(single.lt_selectivity(2.0), 1.0);
    }

    #[test]
    fn range_selectivity_is_cdf_difference() {
        let h = EquiDepthHistogram::uniform(0.0, 100.0, 8);
        assert!((h.range_selectivity(20.0, 70.0) - 0.5).abs() < 1e-12);
        assert_eq!(h.range_selectivity(70.0, 20.0), 0.0);
    }

    #[test]
    fn bounds_are_monotone() {
        let vals: Vec<f64> = (0..1000).map(|i| ((i * 37) % 997) as f64).collect();
        let h = EquiDepthHistogram::from_values(vals, 16).unwrap();
        assert!(h.bounds.windows(2).all(|w| w[1] >= w[0]));
    }
}
