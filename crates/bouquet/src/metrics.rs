//! Robustness metrics (paper, Section 2): SubOpt, MSO, ASO, MaxHarm, and
//! the spatial robustness distribution of Figure 16.

use pb_cost::CostMatrix;
use serde::{Deserialize, Serialize};

/// Summary statistics of a strategy's sub-optimality profile over the ESS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Maximum sub-optimality over the space (Equation 3).
    pub mso: f64,
    /// Linear grid index where the MSO is attained.
    pub mso_location: usize,
    /// Average sub-optimality (Equation 4).
    pub aso: f64,
    /// Number of distinct plans the strategy can execute.
    pub plan_cardinality: usize,
}

/// Per-location worst-case sub-optimality of a *single-plan* strategy that
/// picks `assignment[qe]` when it estimates location `qe` (NAT and SEER).
///
/// `SubOpt_worst(qa) = max_qe c_{assignment(qe)}(qa) / opt(qa)`; because the
/// maximum ranges only over the distinct assigned plans, it is computed in
/// `O(|plans| · |grid|)` rather than `O(|grid|²)`.
pub fn single_plan_worst_profile(
    costs: &CostMatrix,
    opt_cost: &[f64],
    assignment: &[usize],
) -> Vec<f64> {
    let mut used: Vec<usize> = assignment.to_vec();
    used.sort_unstable();
    used.dedup();
    (0..opt_cost.len())
        .map(|qa| {
            used.iter()
                .map(|&p| costs[p][qa] / opt_cost[qa])
                .fold(1.0f64, f64::max)
        })
        .collect()
}

/// MSO/ASO for a single-plan strategy under the paper's uniformity
/// assumption (estimates and actuals uniform over the grid).
pub fn single_plan_metrics(
    costs: &CostMatrix,
    opt_cost: &[f64],
    assignment: &[usize],
) -> MetricsSummary {
    let n = opt_cost.len();
    assert_eq!(assignment.len(), n);
    let worst = single_plan_worst_profile(costs, opt_cost, assignment);
    let (mso_location, mso) = worst
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));

    // ASO: E_{qe,qa}[c_{P(qe)}(qa)/opt(qa)] = E_qa[ Σ_P w_P c_P(qa) ] / opt(qa)
    // with w_P the fraction of the grid assigned to P.
    let mut used: Vec<usize> = assignment.to_vec();
    used.sort_unstable();
    used.dedup();
    let mut weight = vec![0.0f64; costs.len()];
    for &p in assignment {
        weight[p] += 1.0 / n as f64;
    }
    let aso = (0..n)
        .map(|qa| used.iter().map(|&p| weight[p] * costs[p][qa]).sum::<f64>() / opt_cost[qa])
        .sum::<f64>()
        / n as f64;

    MetricsSummary {
        mso,
        mso_location,
        aso,
        plan_cardinality: used.len(),
    }
}

/// MSO/ASO for a bouquet given its per-location sub-optimality profile
/// `subopt[qa] = c_bouquet(qa) / opt(qa)` (estimates are "don't care").
pub fn bouquet_metrics(subopt: &[f64], plan_cardinality: usize) -> MetricsSummary {
    let (mso_location, mso) = subopt
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 0.0));
    let aso = subopt.iter().sum::<f64>() / subopt.len() as f64;
    MetricsSummary {
        mso,
        mso_location,
        aso,
        plan_cardinality,
    }
}

/// MaxHarm (Equation 5): how much worse the bouquet can be than the native
/// optimizer's *worst* case at the same location, and how often harm occurs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HarmReport {
    /// `MH = max_qa (SubOpt_bou(qa) / SubOpt_worst_nat(qa) − 1)`.
    pub max_harm: f64,
    pub max_harm_location: usize,
    /// Fraction of locations with positive harm.
    pub harm_fraction: f64,
}

pub fn harm(bouquet_subopt: &[f64], nat_worst: &[f64]) -> HarmReport {
    assert_eq!(bouquet_subopt.len(), nat_worst.len());
    let mut max_harm = f64::NEG_INFINITY;
    let mut loc = 0;
    let mut harmed = 0usize;
    for (i, (&b, &w)) in bouquet_subopt.iter().zip(nat_worst).enumerate() {
        let h = b / w - 1.0;
        if h > max_harm {
            max_harm = h;
            loc = i;
        }
        if h > 0.0 {
            harmed += 1;
        }
    }
    HarmReport {
        max_harm,
        max_harm_location: loc,
        harm_fraction: harmed as f64 / nat_worst.len() as f64,
    }
}

/// Spatial distribution of robustness enhancement (Figure 16): the fraction
/// of locations whose improvement factor `SubOpt_worst_nat / SubOpt_bou`
/// falls in each decade bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessDistribution {
    /// `(bucket label, fraction of locations)`, buckets: <1, [1,10),
    /// [10,100), [100,1000), ≥1000.
    pub buckets: Vec<(String, f64)>,
}

pub fn robustness_distribution(
    bouquet_subopt: &[f64],
    nat_worst: &[f64],
) -> RobustnessDistribution {
    let edges = [1.0, 10.0, 100.0, 1000.0];
    let labels = ["<1 (harm)", "[1,10)", "[10,100)", "[100,1000)", ">=1000"];
    let mut counts = [0usize; 5];
    for (&b, &w) in bouquet_subopt.iter().zip(nat_worst) {
        let f = w / b;
        let idx = edges.iter().position(|&e| f < e).unwrap_or(edges.len());
        counts[idx] += 1;
    }
    let n = bouquet_subopt.len() as f64;
    RobustnessDistribution {
        buckets: labels
            .iter()
            .zip(counts)
            .map(|(l, c)| (l.to_string(), c as f64 / n))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two plans over three points; plan 0 optimal at 0/1, plan 1 at 2.
    fn fixture() -> (CostMatrix, Vec<f64>, Vec<usize>) {
        let costs = CostMatrix::from_rows(vec![vec![10.0, 20.0, 400.0], vec![100.0, 90.0, 40.0]]);
        let opt = vec![10.0, 20.0, 40.0];
        let assignment = vec![0, 0, 1];
        (costs, opt, assignment)
    }

    #[test]
    fn worst_profile_maximizes_over_used_plans() {
        let (costs, opt, asg) = fixture();
        let w = single_plan_worst_profile(&costs, &opt, &asg);
        assert_eq!(w, vec![10.0, 4.5, 10.0]);
    }

    #[test]
    fn single_plan_metrics_mso_and_aso() {
        let (costs, opt, asg) = fixture();
        let m = single_plan_metrics(&costs, &opt, &asg);
        assert_eq!(m.mso, 10.0);
        assert_eq!(m.plan_cardinality, 2);
        // weights: plan0 2/3, plan1 1/3.
        let expect_aso = ((2.0 / 3.0 * 10.0 + 1.0 / 3.0 * 100.0) / 10.0
            + (2.0 / 3.0 * 20.0 + 1.0 / 3.0 * 90.0) / 20.0
            + (2.0 / 3.0 * 400.0 + 1.0 / 3.0 * 40.0) / 40.0)
            / 3.0;
        assert!((m.aso - expect_aso).abs() < 1e-12);
    }

    #[test]
    fn bouquet_metrics_max_and_mean() {
        let m = bouquet_metrics(&[2.0, 3.0, 2.5], 4);
        assert_eq!(m.mso, 3.0);
        assert_eq!(m.mso_location, 1);
        assert!((m.aso - 2.5).abs() < 1e-12);
    }

    #[test]
    fn harm_detects_locations_worse_than_nat_worst() {
        let r = harm(&[2.0, 12.0], &[4.0, 10.0]);
        assert!((r.max_harm - 0.2).abs() < 1e-12);
        assert_eq!(r.max_harm_location, 1);
        assert!((r.harm_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distribution_buckets_sum_to_one() {
        let bou = vec![1.0, 2.0, 3.0, 4.0];
        let nat = vec![0.5, 30.0, 500.0, 100_000.0];
        let d = robustness_distribution(&bou, &nat);
        let total: f64 = d.buckets.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(d.buckets[0].1, 0.25); // 0.5/1.0 < 1 → harm bucket
        assert_eq!(d.buckets[2].1, 0.25); // 15 → [10,100)
        assert_eq!(d.buckets[4].1, 0.25); // 25000 → >=1000
    }
}
