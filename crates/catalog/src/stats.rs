//! Column statistics used by the cardinality estimator.
//!
//! The native optimizer baseline ("NAT") estimates selectivities from these
//! statistics under the attribute-value-independence (AVI) assumption — the
//! very assumption whose failure the paper exploits to manufacture estimation
//! errors (Section 6.7). The bouquet itself never consumes estimates for
//! error-prone predicates; it only needs the *ranges* of legal selectivities.

use serde::Serialize;

use crate::histogram::EquiDepthHistogram;

/// Per-column statistics: distinct count, value bounds and a distribution tag
/// that the tuple engine's data generator honours.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: f64,
    pub min: f64,
    pub max: f64,
    pub distribution: Distribution,
    /// Fraction of NULLs (kept for completeness; generators emit 0 here).
    pub null_frac: f64,
    /// Optional equi-depth histogram; refines range selectivities when
    /// present (populated by `pb-engine`'s `Database::analyze`).
    pub histogram: Option<EquiDepthHistogram>,
}

/// Value distribution shape for synthetic data generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Distribution {
    Uniform,
    /// Zipfian with the given skew parameter.
    Zipf(f64),
}

impl ColumnStats {
    pub fn uniform(ndv: f64, min: f64, max: f64) -> Self {
        ColumnStats {
            ndv,
            min,
            max,
            distribution: Distribution::Uniform,
            null_frac: 0.0,
            histogram: None,
        }
    }

    /// Selectivity of `col = constant` under the uniform-frequency assumption
    /// (Selinger's 1/NDV; the paper's "magic number" fallback corresponds to
    /// NDV-less columns where engines assume 1/10).
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv <= 0.0 {
            0.1
        } else {
            (1.0 / self.ndv).min(1.0)
        }
    }

    /// Selectivity of `col < constant`: histogram interpolation when a
    /// histogram is available, otherwise linear interpolation between the
    /// recorded bounds (PostgreSQL's scalarltsel).
    pub fn lt_selectivity(&self, constant: f64) -> f64 {
        if let Some(h) = &self.histogram {
            return h.lt_selectivity(constant);
        }
        if self.max <= self.min {
            return 0.5;
        }
        ((constant - self.min) / (self.max - self.min)).clamp(0.0, 1.0)
    }

    /// Range selectivity for `lo <= col <= hi`.
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        (self.lt_selectivity(hi) - self.lt_selectivity(lo)).clamp(0.0, 1.0)
    }

    /// Representative probe values for integrating this column's distribution
    /// against another column's CDF: equi-depth bucket midpoints when a
    /// histogram is available (each carries mass `1/buckets`), otherwise
    /// midpoints of a uniform 16-way split of `[min, max]`.
    pub fn probe_points(&self) -> Vec<f64> {
        if let Some(h) = &self.histogram {
            if h.bounds.len() >= 2 {
                return h.bounds.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
            }
        }
        if self.max <= self.min {
            return vec![self.min];
        }
        let n = 16usize;
        let step = (self.max - self.min) / n as f64;
        (0..n).map(|i| self.min + (i as f64 + 0.5) * step).collect()
    }

    /// Selectivity of the inequality join predicate `self < other` (per row
    /// pair): `P(l < r) = E_l[1 - F_r(l)]`, integrated over this column's
    /// equi-depth histogram (uniform fallback) against the other column's
    /// CDF. This is the estimator-side counterpart of the engine's exact
    /// sort-based count and inherits whatever error the histograms carry —
    /// which is exactly what makes inequality-join dimensions error-prone.
    pub fn lt_join_selectivity(&self, other: &ColumnStats) -> f64 {
        let pts = self.probe_points();
        let n = pts.len().max(1) as f64;
        let acc: f64 = pts.iter().map(|&m| 1.0 - other.lt_selectivity(m)).sum();
        (acc / n).clamp(0.0, 1.0)
    }

    /// Selectivity of `self > other`: `P(l > r) = E_l[F_r(l)]`.
    pub fn gt_join_selectivity(&self, other: &ColumnStats) -> f64 {
        let pts = self.probe_points();
        let n = pts.len().max(1) as f64;
        let acc: f64 = pts.iter().map(|&m| other.lt_selectivity(m)).sum();
        (acc / n).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_selectivity_inverse_ndv() {
        let s = ColumnStats::uniform(200.0, 0.0, 199.0);
        assert!((s.eq_selectivity() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn eq_selectivity_magic_number_without_ndv() {
        let s = ColumnStats::uniform(0.0, 0.0, 0.0);
        assert_eq!(s.eq_selectivity(), 0.1);
    }

    #[test]
    fn lt_selectivity_interpolates_and_clamps() {
        let s = ColumnStats::uniform(100.0, 0.0, 100.0);
        assert!((s.lt_selectivity(25.0) - 0.25).abs() < 1e-12);
        assert_eq!(s.lt_selectivity(-5.0), 0.0);
        assert_eq!(s.lt_selectivity(500.0), 1.0);
    }

    #[test]
    fn range_selectivity_is_difference_of_cdfs() {
        let s = ColumnStats::uniform(100.0, 0.0, 100.0);
        assert!((s.range_selectivity(25.0, 75.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.range_selectivity(75.0, 25.0), 0.0);
    }

    #[test]
    fn histogram_overrides_linear_interpolation() {
        let mut s = ColumnStats::uniform(100.0, 0.0, 100.0);
        // A histogram that concentrates 3/4 of the mass below 10.
        s.histogram = Some(crate::histogram::EquiDepthHistogram {
            bounds: vec![0.0, 3.0, 6.0, 10.0, 100.0],
        });
        assert!((s.lt_selectivity(10.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_bounds_fall_back() {
        let s = ColumnStats::uniform(10.0, 5.0, 5.0);
        assert_eq!(s.lt_selectivity(7.0), 0.5);
    }

    #[test]
    fn lt_join_selectivity_uniform_identical_ranges_is_half() {
        // P(l < r) for two iid uniforms is 1/2; the midpoint integration
        // should land within a bucket-width of that.
        let a = ColumnStats::uniform(1000.0, 0.0, 1000.0);
        let b = ColumnStats::uniform(1000.0, 0.0, 1000.0);
        assert!((a.lt_join_selectivity(&b) - 0.5).abs() < 0.05);
        assert!((a.gt_join_selectivity(&b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn lt_join_selectivity_disjoint_ranges_saturates() {
        let lo = ColumnStats::uniform(100.0, 0.0, 10.0);
        let hi = ColumnStats::uniform(100.0, 100.0, 200.0);
        assert!(lo.lt_join_selectivity(&hi) > 0.99);
        assert!(lo.gt_join_selectivity(&hi) < 0.01);
    }
}
