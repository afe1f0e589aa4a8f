//! Geometric isocost gradings (paper, Section 3.1).
//!
//! The PIC is sliced by a geometric progression of isocost steps
//! `IC_1 … IC_m` with common ratio `r`, anchored so that
//! `IC_1 / r < C_min ≤ IC_1` and `IC_m = C_max`. Theorem 1 bounds the 1D MSO
//! by `r²/(r−1)`, minimized at `r = 2` (the "doubling" grading), and
//! Theorem 2 shows no deterministic algorithm can beat the resulting 4.

use serde::{Deserialize, Serialize};

/// A geometric progression of isocost budgets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsoCostGrading {
    pub r: f64,
    pub steps: Vec<f64>,
}

impl IsoCostGrading {
    /// Build the grading for a PIC spanning `[cmin, cmax]` with ratio `r`.
    ///
    /// Steps are anchored at the top: `IC_m = cmax`, `IC_k = cmax / r^(m−k)`,
    /// with `m = ⌈log_r(cmax/cmin)⌉` so the boundary conditions of
    /// Section 3.1 hold.
    pub fn geometric(cmin: f64, cmax: f64, r: f64) -> Self {
        assert!(r > 1.0, "common ratio must exceed 1");
        assert!(
            cmin > 0.0 && cmax >= cmin,
            "need 0 < cmin <= cmax (got {cmin}, {cmax})"
        );
        let m = if cmax == cmin {
            1
        } else {
            ((cmax / cmin).ln() / r.ln()).ceil().max(1.0) as usize
        };
        let steps = (1..=m).map(|k| cmax / r.powi((m - k) as i32)).collect();
        IsoCostGrading { r, steps }
    }

    /// Number of steps, `m`.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Budget of step `k` (0-based).
    pub fn budget(&self, k: usize) -> f64 {
        self.steps[k]
    }

    /// Sum of the first `k+1` budgets — the worst-case exploratory spend
    /// after finishing on step `k` (Equation 6).
    pub fn cumulative(&self, k: usize) -> f64 {
        self.steps[..=k].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_conditions_hold() {
        for (cmin, cmax, r) in [
            (10.0, 1000.0, 2.0),
            (1.0, 1.0, 2.0),
            (3.0, 17.0, 2.0),
            (5.0, 5000.0, 3.0),
            (7.2, 7.3, 2.0),
        ] {
            let g = IsoCostGrading::geometric(cmin, cmax, r);
            let m = g.len();
            assert!(m >= 1);
            // IC_m = cmax
            assert!((g.budget(m - 1) - cmax).abs() < 1e-9 * cmax);
            // IC_1 >= cmin > IC_1 / r
            assert!(
                g.budget(0) >= cmin * (1.0 - 1e-12),
                "IC1 {} < cmin {cmin}",
                g.budget(0)
            );
            assert!(g.budget(0) / r < cmin * (1.0 + 1e-12));
            // geometric with ratio r
            for w in g.steps.windows(2) {
                assert!((w[1] / w[0] - r).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn doubling_grading_m_matches_paper_formula() {
        // m = ceil(log_r(Cmax/Cmin))
        let g = IsoCostGrading::geometric(100.0, 100.0 * 2f64.powi(7), 2.0);
        assert_eq!(g.len(), 7);
    }

    #[test]
    fn cumulative_is_prefix_sum() {
        let g = IsoCostGrading::geometric(1.0, 64.0, 2.0);
        // steps: 1,2,4,...,64? anchored at top: 64/2^5=2 ... check via sums.
        let total: f64 = g.steps.iter().sum();
        assert!((g.cumulative(g.len() - 1) - total).abs() < 1e-12);
        assert!((g.cumulative(0) - g.budget(0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "common ratio")]
    fn ratio_one_rejected() {
        IsoCostGrading::geometric(1.0, 10.0, 1.0);
    }
}
