//! Bounded cost-modeling errors (paper, Section 3.4).
//!
//! The bouquet's guarantees assume the cost model is perfect. Section 3.4
//! relaxes this to "unbounded estimation errors, bounded modeling errors":
//! the model's cost for a plan, given correct selectivities, is within a
//! multiplicative δ band of the actual execution cost,
//! `c_est / c_actual ∈ [1/(1+δ), (1+δ)]`, and shows
//! `MSO ≤ MSO_perfect · (1+δ)²`.
//!
//! [`CostPerturbation`] realises the adversary: a deterministic, plan- and
//! location-dependent factor inside the δ band that the executor applies to
//! turn *modeled* costs into *actual* costs. Determinism keeps executions
//! repeatable (a bouquet hallmark) while still exercising the worst-case
//! analysis.

use pb_plan::PlanFingerprint;
use serde::{Deserialize, Serialize};

/// Deterministic bounded multiplicative cost perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostPerturbation {
    /// The δ bound; 0.0 disables perturbation. The paper cites an observed
    /// average δ ≈ 0.4 for PostgreSQL on TPC-H (Wu et al., ICDE 2013).
    pub delta: f64,
    /// Seed folded into the hash so different "databases" err differently.
    pub seed: u64,
}

impl CostPerturbation {
    pub fn none() -> Self {
        CostPerturbation {
            delta: 0.0,
            seed: 0,
        }
    }

    pub fn with_delta(delta: f64, seed: u64) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        CostPerturbation { delta, seed }
    }

    /// The multiplicative factor for `plan` at a coarse location bucket.
    /// Always within `[1/(1+δ), (1+δ)]`.
    pub fn factor(&self, plan: PlanFingerprint, q: &[f64]) -> f64 {
        if self.delta == 0.0 {
            return 1.0;
        }
        // Bucket each selectivity to its decade so the factor is stable in a
        // neighbourhood (a plan's modeling error does not oscillate wildly
        // between adjacent locations).
        let mut h = self.seed ^ plan.0;
        for &s in q {
            let decade = s.max(1e-12).log10().floor() as i64;
            h = pb_faults::splitmix64(&mut (h ^ decade as u64));
        }
        let u = pb_faults::unit_f64(h); // [0,1)
        let lo = 1.0 / (1.0 + self.delta);
        let hi = 1.0 + self.delta;
        // Geometric interpolation keeps the band symmetric in log space.
        lo * (hi / lo).powf(u)
    }

    /// Actual cost of a plan whose modeled cost is `modeled`.
    pub fn actual_cost(&self, plan: PlanFingerprint, q: &[f64], modeled: f64) -> f64 {
        modeled * self.factor(plan, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_delta_is_identity() {
        let p = CostPerturbation::none();
        assert_eq!(p.factor(PlanFingerprint(42), &[0.5]), 1.0);
        assert_eq!(p.actual_cost(PlanFingerprint(42), &[0.5], 100.0), 100.0);
    }

    #[test]
    fn factor_stays_in_delta_band() {
        let p = CostPerturbation::with_delta(0.4, 7);
        for fp in 0..200u64 {
            for s in [1e-4, 1e-2, 0.3, 1.0] {
                let f = p.factor(PlanFingerprint(fp), &[s]);
                assert!((1.0 / 1.4 - 1e-12..=1.4 + 1e-12).contains(&f), "f={f}");
            }
        }
    }

    #[test]
    fn factor_is_deterministic_and_locally_stable() {
        let p = CostPerturbation::with_delta(0.4, 7);
        let fp = PlanFingerprint(99);
        let a = p.factor(fp, &[0.02]);
        let b = p.factor(fp, &[0.02]);
        assert_eq!(a, b);
        // Same decade → same factor (local stability).
        assert_eq!(p.factor(fp, &[0.021]), p.factor(fp, &[0.029]));
    }

    #[test]
    fn different_plans_err_differently() {
        let p = CostPerturbation::with_delta(0.4, 7);
        let distinct: std::collections::BTreeSet<u64> = (0..50)
            .map(|fp| p.factor(PlanFingerprint(fp), &[0.5]).to_bits())
            .collect();
        assert!(distinct.len() > 10);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delta_rejected() {
        CostPerturbation::with_delta(-0.1, 0);
    }
}
