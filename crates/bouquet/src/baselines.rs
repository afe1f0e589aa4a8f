//! Mid-query re-optimization baseline (POP / Rio style — paper, Section 7).
//!
//! The paper excludes these heuristics from its head-to-head evaluation
//! because "their performance could be arbitrarily poor with regard to both
//! P_oe and P_oa"; this module makes that claim executable. The simulated
//! re-optimizer starts from the optimizer's estimate (not the origin!),
//! runs the chosen plan until the first unresolved error node has consumed
//! its input — at which point that selectivity is known exactly — then
//! re-optimizes at the corrected estimate and restarts, jettisoning prior
//! work (the same conservative accounting the bouquet analysis uses).
//!
//! Contrast with the bouquet: the re-optimizer's exploratory spend is the
//! *prefix cost of whatever plan the estimate seduced it into*, which is
//! unbounded relative to the true optimum; the bouquet's spend is a
//! geometrically-graded budget ladder, which is why only it has an MSO
//! guarantee.

use pb_cost::{CostMatrix, Ess, SelPoint};
use pb_executor::learnable_node;
use pb_optimizer::PlanDiagram;
use serde::{Deserialize, Serialize};

use crate::workload::Workload;

/// One simulated re-optimizer execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReoptRun {
    /// Plan switches (full restarts) before the final execution.
    pub restarts: usize,
    /// Total cost: all jettisoned prefixes plus the final execution.
    pub total_cost: f64,
    /// Cost of each jettisoned prefix, in order.
    pub prefix_costs: Vec<f64>,
}

impl ReoptRun {
    pub fn suboptimality(&self, optimal_cost: f64) -> f64 {
        self.total_cost / optimal_cost
    }
}

/// Simulate the re-optimizer for a query whose estimate is `qe` and whose
/// true location is `qa`.
pub fn run_reoptimizer(w: &Workload, qe: &SelPoint, qa: &SelPoint) -> ReoptRun {
    let d = w.ess.d();
    assert_eq!(qe.dims(), d);
    assert_eq!(qa.dims(), d);
    let opt = w.optimizer();
    let coster = w.coster();

    let mut q_est: Vec<f64> = qe.0.clone();
    let mut resolved = vec![false; d];
    let mut prefix_costs = Vec::new();
    let mut total = 0.0;

    loop {
        let plan = opt.optimize(&q_est).plan;
        match learnable_node(&plan.root, &w.query, &resolved) {
            None => {
                // Every error dimension resolved: the final plan runs to
                // completion at the true location.
                total += coster.plan_cost(&plan.root, qa);
                return ReoptRun {
                    restarts: prefix_costs.len(),
                    total_cost: total,
                    prefix_costs,
                };
            }
            Some((node, dims)) => {
                // Run until the error node consumes its input; its true
                // selectivity is then known (the prefix contains only
                // resolved dimensions below it, so costing at qa is exact).
                let prefix = coster.plan_cost(node, qa);
                prefix_costs.push(prefix);
                total += prefix;
                for dm in dims {
                    resolved[dm] = true;
                    q_est[dm] = qa[dm];
                }
            }
        }
    }
}

/// Sampled worst-case sub-optimality of the re-optimizer: for every grid
/// qa, the worst over a set of representative estimates (ESS corners plus
/// the centre — the adversarial estimates that drive NAT's MSO).
pub fn reopt_worst_profile(w: &Workload, opt_cost: &[f64]) -> Vec<f64> {
    let ess = &w.ess;
    let d = ess.d();
    // Estimate sample: all corners + centre (2^D + 1 points, D ≤ 5).
    let mut estimates: Vec<SelPoint> = (0..(1usize << d))
        .map(|bits| {
            let fr: Vec<f64> = (0..d)
                .map(|i| if bits & (1 << i) != 0 { 1.0 } else { 0.0 })
                .collect();
            ess.point_at_fractions(&fr)
        })
        .collect();
    estimates.push(ess.point_at_fractions(&vec![0.5; d]));

    (0..ess.num_points())
        .map(|li| {
            let qa = ess.point(&ess.unlinear(li));
            estimates
                .iter()
                .map(|qe| run_reoptimizer(w, qe, &qa).suboptimality(opt_cost[li]))
                .fold(1.0f64, f64::max)
        })
        .collect()
}

/// Configuration for the PARQO-style penalty-aware selector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParqoConfig {
    /// Chebyshev radius of the error neighborhood, in grid steps per
    /// dimension. Radius 0 degenerates to NAT (trust the estimate).
    pub radius: usize,
    /// Per-step geometric decay of a neighbor's weight: a neighbor at
    /// Manhattan distance `m` weighs `decay^m`. 1.0 is a uniform box.
    pub decay: f64,
}

impl Default for ParqoConfig {
    fn default() -> Self {
        ParqoConfig {
            radius: 1,
            decay: 0.5,
        }
    }
}

/// PARQO-style penalty-aware plan selection (see PAPERS.md).
///
/// A third static baseline between NAT and SEER: instead of trusting the
/// point estimate outright (NAT) or demanding a globally-safe replacement
/// (SEER), hedge *locally*. For each estimate location the candidate set is
/// the POSP plans that are optimal somewhere in an error neighborhood
/// around the estimate, and the winner minimizes the expected **penalty**
///
/// ```text
///   penalty(P, q) = cost_P(q) − opt(q)
/// ```
///
/// over that neighborhood under a distance-decayed error distribution.
/// Like NAT and SEER this yields one plan per estimate location, so it is
/// evaluated with the same `single_plan_metrics` machinery — and like both,
/// it carries no worst-case guarantee: the neighborhood is a guess about
/// the error magnitude, and an actual location outside it can still be
/// arbitrarily penalized (which is exactly what the hostile workloads
/// demonstrate against the bouquet's bounded ladder).
pub fn parqo_assignment(
    ess: &Ess,
    diagram: &PlanDiagram,
    costs: &CostMatrix,
    cfg: &ParqoConfig,
) -> Vec<usize> {
    let d = ess.d();
    let n = ess.num_points();
    assert_eq!(diagram.optimal.len(), n);
    let r = cfg.radius as isize;
    (0..n)
        .map(|li| {
            let center = ess.unlinear(li);
            // Gather the (neighbor, weight) support of the error
            // distribution; neighbors falling off the grid are dropped
            // (truncated distribution), not clamped, so boundary cells do
            // not double-weight their edge.
            let mut support: Vec<(usize, f64)> = Vec::new();
            let mut offs = vec![-r; d];
            'odometer: loop {
                let mut ix = Vec::with_capacity(d);
                let mut dist = 0usize;
                let mut ok = true;
                for (dim, &o) in offs.iter().enumerate() {
                    let i = center[dim] as isize + o;
                    if i < 0 || i as usize >= ess.res[dim] {
                        ok = false;
                        break;
                    }
                    ix.push(i as usize);
                    dist += o.unsigned_abs();
                }
                if ok {
                    support.push((ess.linear(&ix), cfg.decay.powi(dist as i32)));
                }
                for slot in (0..d).rev() {
                    if offs[slot] < r {
                        offs[slot] += 1;
                        for later in offs.iter_mut().skip(slot + 1) {
                            *later = -r;
                        }
                        continue 'odometer;
                    }
                }
                break;
            }
            // Candidates: plans optimal somewhere in the neighborhood.
            let mut cands: Vec<usize> = support
                .iter()
                .map(|&(q, _)| diagram.optimal[q] as usize)
                .collect();
            cands.sort_unstable();
            cands.dedup();
            // Lowest expected penalty wins; ties break to the smaller plan
            // id so the assignment is deterministic.
            let mut best = (f64::INFINITY, usize::MAX);
            for &p in &cands {
                let score: f64 = support
                    .iter()
                    .map(|&(q, w)| w * (costs[p][q] - diagram.opt_cost[q]))
                    .sum();
                if score < best.0 {
                    best = (score, p);
                }
            }
            best.1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::{Bouquet, BouquetConfig};
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn eq_2d() -> Workload {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "EQ2D");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let o = qb.rel("orders");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        let ess = Ess::uniform(
            vec![
                EssDim::new("p_retailprice", 1e-4, 1.0),
                EssDim::new("p⋈l", 1e-8, 5e-6),
            ],
            16,
        );
        Workload::new("EQ_2D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn perfect_estimate_means_no_wasted_restarts_cost() {
        let w = eq_2d();
        let qa = w.ess.point_at_fractions(&[0.5, 0.5]);
        let run = run_reoptimizer(&w, &qa, &qa);
        // With qe == qa the prefixes still execute (selectivities must be
        // verified) but the final plan is optimal, so the overhead is just
        // the discovery prefixes of the already-correct plan.
        let opt = w.optimal_cost(&qa);
        assert!(run.suboptimality(opt) < 3.0, "{}", run.suboptimality(opt));
    }

    #[test]
    fn reoptimizer_usually_beats_nat_but_has_no_guarantee() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let costs = b.diagram.cost_matrix(&w.catalog, &w.query, &w.model);
        let profile = reopt_worst_profile(&w, &b.diagram.opt_cost);
        let reopt_mso = profile.iter().cloned().fold(0.0f64, f64::max);
        // NAT worst case for comparison.
        let nat_worst: f64 = (0..w.ess.num_points())
            .map(|li| {
                costs
                    .rows()
                    .map(|row| row[li] / b.diagram.opt_cost[li])
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        assert!(
            reopt_mso < nat_worst,
            "reoptimization should improve on static NAT: {reopt_mso} vs {nat_worst}"
        );
        // ... but it exceeds the bouquet's *guarantee*: there are locations
        // where a bad estimate seduces it into an expensive prefix.
        assert!(
            reopt_mso > b.mso_bound(),
            "reopt MSO {reopt_mso} unexpectedly within the bouquet bound {}",
            b.mso_bound()
        );
    }

    #[test]
    fn parqo_radius_zero_degenerates_to_nat() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let cfg = ParqoConfig {
            radius: 0,
            decay: 0.5,
        };
        let costs = b.diagram.cost_matrix(&w.catalog, &w.query, &w.model);
        let asg = parqo_assignment(&w.ess, &b.diagram, &costs, &cfg);
        let nat: Vec<usize> = b.diagram.optimal.iter().map(|&p| p as usize).collect();
        assert_eq!(asg, nat);
    }

    #[test]
    fn parqo_hedges_without_beating_the_bouquet_guarantee() {
        use crate::metrics::single_plan_metrics;
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let costs = b.diagram.cost_matrix(&w.catalog, &w.query, &w.model);
        let asg = parqo_assignment(&w.ess, &b.diagram, &costs, &ParqoConfig::default());
        assert_eq!(asg.len(), w.ess.num_points());
        let mut used = asg.clone();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() <= b.diagram.plan_count());
        let m = single_plan_metrics(&costs, &b.diagram.opt_cost, &asg);
        let nat: Vec<usize> = b.diagram.optimal.iter().map(|&p| p as usize).collect();
        let nat_m = single_plan_metrics(&costs, &b.diagram.opt_cost, &nat);
        // Hedging never hurts the *average* much on this fixture...
        assert!(m.aso <= nat_m.aso * 1.5, "{} vs {}", m.aso, nat_m.aso);
        // ...but the worst case stays unbounded relative to the bouquet's
        // ladder (the module's whole thesis).
        assert!(m.mso >= b.mso_bound() || nat_m.mso <= b.mso_bound());
    }

    #[test]
    fn restarts_bounded_by_dimensionality() {
        let w = eq_2d();
        for f in [[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]] {
            let qe = w.ess.point_at_fractions(&[1.0 - f[0], 1.0 - f[1]]);
            let qa = w.ess.point_at_fractions(&f);
            let run = run_reoptimizer(&w, &qe, &qa);
            assert!(run.restarts <= w.d() + 1);
            assert!(run.total_cost.is_finite() && run.total_cost > 0.0);
        }
    }
}
