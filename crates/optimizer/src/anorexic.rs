//! Anorexic plan-diagram reduction (Harish, Darera, Haritsa — VLDB 2007).
//!
//! A plan may "swallow" another plan's region if, at every swallowed point,
//! the swallower's cost is within `(1 + λ)` of the optimal cost. With
//! λ = 20% this typically collapses diagrams with tens or hundreds of plans
//! to around ten — the paper leans on this to keep the isocost-contour plan
//! density ρ (and hence the MSO bound `4·(1+λ)·ρ`) small (Section 3.3).

use pb_cost::CostMatrix;

use crate::diagram::{PlanDiagram, PlanId};

/// Result of an anorexic reduction over a set of points.
#[derive(Debug, Clone)]
pub struct AnorexicReduction {
    pub lambda: f64,
    /// Retained plans (ids into the source diagram's `plans`).
    pub kept: Vec<PlanId>,
    /// Per reduced point (parallel to the input point list): the retained
    /// plan now assigned to it.
    pub assignment: Vec<PlanId>,
}

impl AnorexicReduction {
    /// Reduce a full diagram: every grid point must end up assigned to a
    /// retained plan whose cost is within `(1+λ)` of that point's optimum.
    pub fn reduce(diagram: &PlanDiagram, costs: &CostMatrix, lambda: f64) -> Self {
        let points: Vec<usize> = (0..diagram.ess.num_points()).collect();
        Self::reduce_points(diagram, &points, lambda, |plan, pos| costs[plan][pos])
    }

    /// Reduce over an arbitrary subset of grid points (used per isocost
    /// contour by the bouquet). `points` selects the linear grid indices to
    /// cover, and `cost(plan, pos)` is the absolute cost of diagram plan
    /// `plan` at `points[pos]` — so the caller needs plan costs at these
    /// points only, in whatever layout it keeps them.
    pub fn reduce_points(
        diagram: &PlanDiagram,
        points: &[usize],
        lambda: f64,
        cost: impl Fn(PlanId, usize) -> f64,
    ) -> Self {
        assert!(lambda >= 0.0);
        let nplans = diagram.plans.len();
        let covers = |plan: PlanId, pos: usize| -> bool {
            cost(plan, pos) <= (1.0 + lambda) * diagram.opt_cost[points[pos]] * (1.0 + 1e-12)
        };
        let kept = greedy_cover(nplans, points.len(), covers);
        // Assign each point the cheapest retained plan that covers it.
        let assignment: Vec<PlanId> = (0..points.len())
            .map(|pos| {
                *kept
                    .iter()
                    .filter(|&&p| covers(p, pos))
                    .min_by(|&&a, &&b| cost(a, pos).total_cmp(&cost(b, pos)))
                    .expect("greedy cover must cover every point")
            })
            .collect();
        AnorexicReduction {
            lambda,
            kept,
            assignment,
        }
    }

    pub fn plan_count(&self) -> usize {
        self.kept.len()
    }
}

/// Greedy set cover: repeatedly keep the plan covering the most uncovered
/// points. Guaranteed to terminate because every point is covered by its own
/// optimal plan (cost ratio 1 ≤ 1+λ).
pub fn greedy_cover(
    nplans: usize,
    npoints: usize,
    covers: impl Fn(PlanId, usize) -> bool,
) -> Vec<PlanId> {
    let mut uncovered: Vec<usize> = (0..npoints).collect();
    let mut kept: Vec<PlanId> = Vec::new();
    while !uncovered.is_empty() {
        let (best_plan, _) = (0..nplans)
            .filter(|p| !kept.contains(p))
            .map(|p| (p, uncovered.iter().filter(|&&pt| covers(p, pt)).count()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("ran out of plans with points still uncovered");
        let gain = uncovered
            .iter()
            .filter(|&&pt| covers(best_plan, pt))
            .count();
        assert!(
            gain > 0,
            "no plan covers the remaining points — corrupt cost data"
        );
        kept.push(best_plan);
        uncovered.retain(|&pt| !covers(best_plan, pt));
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim, Parallelism};
    use pb_plan::{CmpOp, QueryBuilder, QuerySpec, SelSpec};

    fn setup() -> (pb_catalog::Catalog, QuerySpec, CostModel, Ess) {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "eq2d");
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
        (cat.clone(), q, CostModel::postgresish(), ess)
    }

    #[test]
    fn reduction_shrinks_plan_count_and_respects_lambda() {
        let (cat, q, m, ess) = setup();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::auto());
        let costs = d.cost_matrix(&cat, &q, &m);
        let red = AnorexicReduction::reduce(&d, &costs, 0.2);
        assert!(red.plan_count() <= d.plan_count());
        assert!(red.plan_count() >= 1);
        // λ-guarantee at every point.
        for (li, &p) in red.assignment.iter().enumerate() {
            assert!(
                costs[p][li] <= 1.2 * d.opt_cost[li] * (1.0 + 1e-9),
                "λ bound violated at {li}"
            );
        }
    }

    #[test]
    fn zero_lambda_keeps_optimal_assignment_quality() {
        let (cat, q, m, ess) = setup();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::auto());
        let costs = d.cost_matrix(&cat, &q, &m);
        let red = AnorexicReduction::reduce(&d, &costs, 0.0);
        for (li, &p) in red.assignment.iter().enumerate() {
            assert!(costs[p][li] <= d.opt_cost[li] * (1.0 + 1e-9));
        }
    }

    #[test]
    fn larger_lambda_never_keeps_more_plans() {
        let (cat, q, m, ess) = setup();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::auto());
        let costs = d.cost_matrix(&cat, &q, &m);
        let tight = AnorexicReduction::reduce(&d, &costs, 0.05);
        let loose = AnorexicReduction::reduce(&d, &costs, 0.5);
        assert!(loose.plan_count() <= tight.plan_count());
    }

    #[test]
    fn reduce_points_subset() {
        let (cat, q, m, ess) = setup();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::auto());
        let costs = d.cost_matrix(&cat, &q, &m);
        let subset: Vec<usize> = (0..ess.num_points()).step_by(7).collect();
        let red =
            AnorexicReduction::reduce_points(&d, &subset, 0.2, |p, pos| costs[p][subset[pos]]);
        assert_eq!(red.assignment.len(), subset.len());
        for (pos, &p) in red.assignment.iter().enumerate() {
            let li = subset[pos];
            assert!(costs[p][li] <= 1.2 * d.opt_cost[li] * (1.0 + 1e-9));
        }
    }

    #[test]
    fn greedy_cover_minimal_example() {
        // 3 plans, 4 points; plan 2 covers everything.
        let covers = |p: usize, pt: usize| p == 2 || p == pt % 2;
        let kept = greedy_cover(3, 4, covers);
        assert_eq!(kept, vec![2]);
    }
}
