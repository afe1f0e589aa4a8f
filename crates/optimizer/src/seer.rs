//! SEER-style robust plan selection (Harish, Darera, Haritsa — PVLDB 2008).
//!
//! SEER reduces the plan diagram with a *global safety* condition: plan `P'`
//! may replace plan `P` only if `P'` is within `(1+λ)` of `P` at **every**
//! location of the ESS — not merely at the swallowed points. The replacement
//! therefore never harms any (qe, qa) combination by more than λ, but — as
//! the paper's evaluation shows (Section 6.2) — it also cannot repair the
//! native optimizer's worst cases, because the comparative yardstick is the
//! plan at the *estimated* location, not the optimal plan at the *actual*
//! location.

use pb_cost::CostMatrix;

use crate::diagram::{PlanDiagram, PlanId};

/// A SEER reduction: per grid point, the (possibly replaced) plan the
/// optimizer would now run when it *estimates* that location.
#[derive(Debug, Clone)]
pub struct SeerReduction {
    pub lambda: f64,
    pub kept: Vec<PlanId>,
    /// Per linear grid index: plan executed when qe = that point.
    pub assignment: Vec<PlanId>,
}

impl SeerReduction {
    /// Compute the reduction. Safety of `P' replaces P` is checked across
    /// the full grid via the cost matrix (`costs[plan][point]`).
    pub fn reduce(diagram: &PlanDiagram, costs: &CostMatrix, lambda: f64) -> Self {
        assert!(lambda >= 0.0);
        let nplans = diagram.plans.len();
        let npoints = diagram.ess.num_points();
        let region_sizes = diagram.region_sizes();

        // safe[(a, b)] = plan `a` can globally replace plan `b`.
        let globally_safe = |a: PlanId, b: PlanId| -> bool {
            (0..npoints).all(|li| costs[a][li] <= (1.0 + lambda) * costs[b][li] * (1.0 + 1e-12))
        };

        // Process plans from the largest region down. A plan is kept if no
        // already-kept plan can safely replace it; otherwise it is replaced
        // by the first (largest-region) safe keeper. Replacements are always
        // single-hop, so the λ-safety bound never compounds across chains.
        let mut order: Vec<PlanId> = (0..nplans).collect();
        order.sort_by_key(|&p| std::cmp::Reverse(region_sizes[p]));
        let mut replacement: Vec<PlanId> = (0..nplans).collect();
        let mut keepers: Vec<PlanId> = Vec::new();
        for &p in &order {
            match keepers.iter().find(|&&k| globally_safe(k, p)) {
                Some(&k) => replacement[p] = k,
                None => keepers.push(p),
            }
        }
        let assignment: Vec<PlanId> = diagram
            .optimal
            .iter()
            .map(|&p| replacement[p as usize])
            .collect();
        let mut kept: Vec<PlanId> = assignment.clone();
        kept.sort_unstable();
        kept.dedup();
        SeerReduction {
            lambda,
            kept,
            assignment,
        }
    }

    pub fn plan_count(&self) -> usize {
        self.kept.len()
    }
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
    fn seer_never_harms_by_more_than_lambda() {
        let (cat, q, m, ess) = setup();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::auto());
        let costs = d.cost_matrix(&cat, &q, &m);
        let seer = SeerReduction::reduce(&d, &costs, 0.2);
        // Global safety: at every (qe, qa), the SEER plan chosen at qe costs
        // at most (1+λ)× the native plan chosen at qe.
        for qe in 0..ess.num_points() {
            let native = d.optimal[qe] as usize;
            let chosen = seer.assignment[qe];
            for (qa, (cc, cn)) in costs[chosen].iter().zip(&costs[native]).enumerate() {
                assert!(
                    *cc <= 1.2 * cn * (1.0 + 1e-9),
                    "harm beyond λ at qe={qe} qa={qa}"
                );
            }
        }
    }

    #[test]
    fn seer_reduces_or_keeps_plan_count() {
        let (cat, q, m, ess) = setup();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::auto());
        let costs = d.cost_matrix(&cat, &q, &m);
        let seer = SeerReduction::reduce(&d, &costs, 0.2);
        assert!(seer.plan_count() <= d.plan_count());
        assert!(!seer.kept.is_empty());
    }

    #[test]
    fn assignment_only_uses_kept_plans() {
        let (cat, q, m, ess) = setup();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::auto());
        let costs = d.cost_matrix(&cat, &q, &m);
        let seer = SeerReduction::reduce(&d, &costs, 0.2);
        for &p in &seer.assignment {
            assert!(seer.kept.contains(&p));
        }
    }
}
