//! Incremental bouquet maintenance under database scale-up.
//!
//! The paper's critique (Section 8) notes that a bouquet is robust to data
//! *redistribution* (that only moves qa within the ESS) but not to database
//! *growth*: once the tables scale, plan costs — and hence the PIC, the
//! grading and the contours — are stale, and recomputing the bouquet from
//! scratch wastes most of the earlier work. The paper leaves incremental
//! maintenance as future work; this module implements it.
//!
//! Strategy: the expensive compile-time ingredient is the optimizer call per
//! grid point. On rescale we
//!
//! 1. **recost** every already-known plan at every grid point against the
//!    new catalog (abstract plan costing — no optimization),
//! 2. take the pointwise cheapest known plan as a *pseudo-optimal* surface,
//! 3. **re-optimize only the contour frontier points** of that surface,
//!    admitting any genuinely better plans the optimizer finds there, and
//!    repeating until the frontier is stable, then
//! 4. rebuild grading + contours from the refreshed surface.
//!
//! The result is exact on every frontier point (they were re-optimized) and
//! optimistic elsewhere; since the bouquet's budgets and coverage argument
//! only depend on frontier costs, the MSO machinery is preserved while the
//! optimizer effort drops to the contour bands.

use std::collections::HashSet;

use pb_catalog::Catalog;
use pb_cost::{CostMatrix, CostProgram, Parallelism};
use pb_optimizer::PlanDiagram;
use pb_plan::PlanNode;
use serde::{Deserialize, Serialize};

use crate::bouquet::Bouquet;
use crate::contour::Contour;
use crate::grading::IsoCostGrading;
use crate::workload::Workload;

/// Effort accounting for a maintenance pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceReport {
    /// Plans inherited from the old bouquet's POSP.
    pub reused_plans: usize,
    /// Plans newly discovered on the refreshed frontiers.
    pub new_plans: usize,
    /// Optimizer invocations spent (a full rebuild costs `grid_points`).
    pub optimizer_calls: usize,
    pub grid_points: usize,
    /// Verification rounds until the frontiers stabilised.
    pub rounds: usize,
}

impl MaintenanceReport {
    /// Fraction of a full rebuild's optimizer effort that was spent.
    pub fn effort_fraction(&self) -> f64 {
        self.optimizer_calls as f64 / self.grid_points as f64
    }
}

/// Re-target `old` at `new_catalog`, reusing its compiled plans.
///
/// The ESS is kept as-is; if the scale-up changes the legal selectivity
/// ranges (e.g. `1/|PK|` for key joins), construct the new `Ess` first and
/// set it via `workload_override`.
pub fn rescale(
    old: &Bouquet,
    new_catalog: Catalog,
    workload_override: Option<Workload>,
) -> Result<(Bouquet, MaintenanceReport), String> {
    let w = workload_override.unwrap_or_else(|| Workload {
        catalog: new_catalog,
        ..old.workload.clone()
    });
    w.query.validate(&w.catalog);
    let ess = &w.ess;
    let n = ess.num_points();
    let cfg = old.config.clone();

    // 1. Recost every known plan everywhere via its compiled cost program
    //    (bit-identical to the tree walk, but with the catalog constants
    //    resolved once and a single reusable evaluation stack).
    let points = ess.points_flat();
    let d = ess.d();
    let mut stack = Vec::new();
    let mut recost_row = |root: &PlanNode| -> Vec<f64> {
        let prog = CostProgram::compile(&w.catalog, &w.query, &w.model, root);
        (0..n)
            .map(|li| {
                prog.eval_with(&points[li * d..(li + 1) * d], &mut stack)
                    .cost
            })
            .collect()
    };
    let mut plans = old.diagram.plans.clone();
    let mut costs = CostMatrix::new(n);
    for p in &plans {
        let row = recost_row(&p.root);
        costs.push_row(&row);
    }

    let reused = plans.len();
    let mut optimizer_calls = 0usize;
    let mut rounds = 0usize;
    let opt = w.optimizer();

    // 2 & 3. Iterate: pseudo-optimal surface -> frontier points ->
    //         re-optimize them -> admit better plans.
    let mut verified: HashSet<usize> = HashSet::new();
    loop {
        rounds += 1;
        let (optimal, opt_cost) = pseudo_surface(&costs);
        let pseudo = PlanDiagram {
            ess: ess.clone(),
            plans: plans.clone(),
            optimal,
            opt_cost,
        };
        let (cmin, cmax) = pseudo.cost_bounds();
        let grading = IsoCostGrading::geometric(cmin, cmax, cfg.r);
        let mut frontier_points: Vec<usize> = grading
            .steps
            .iter()
            .flat_map(|&b| Contour::frontier(&pseudo, b))
            .collect();
        frontier_points.sort_unstable();
        frontier_points.dedup();
        frontier_points.retain(|li| !verified.contains(li));
        if frontier_points.is_empty() || rounds > 8 {
            break;
        }
        let mut found_better = false;
        for li in frontier_points {
            verified.insert(li);
            optimizer_calls += 1;
            let q = ess.point(&ess.unlinear(li));
            let best = opt.optimize(&q);
            let known = pseudo.opt_cost[li];
            if best.cost < known * (1.0 - 1e-6)
                && !plans
                    .iter()
                    .any(|p| p.fingerprint() == best.plan.fingerprint())
            {
                // Admit the new plan: recost it over the whole grid.
                let row = recost_row(&best.plan.root);
                costs.push_row(&row);
                plans.push(best.plan);
                found_better = true;
            }
        }
        if !found_better {
            break;
        }
    }

    // 4. Final surface; grading, contours and the bouquet's cost rows are
    //    the shared tail of identification, reading the matrix built above.
    let (optimal, opt_cost) = pseudo_surface(&costs);
    let diagram = PlanDiagram {
        ess: ess.clone(),
        plans,
        optimal,
        opt_cost,
    };
    let report = MaintenanceReport {
        reused_plans: reused,
        new_plans: diagram.plans.len() - reused,
        optimizer_calls,
        grid_points: n,
        rounds,
    };
    let serial = Parallelism::serial();
    let (bouquet, _) =
        Bouquet::assemble_from_diagram(&w, &cfg, diagram, Some(&costs), optimizer_calls, serial)
            .map_err(|e| e.to_string())?;
    Ok((bouquet, report))
}

/// Pointwise cheapest plan over a cost matrix.
fn pseudo_surface(costs: &CostMatrix) -> (Vec<u32>, Vec<f64>) {
    let n = costs.num_points();
    let mut optimal = vec![0u32; n];
    let mut opt_cost = vec![f64::INFINITY; n];
    for (p, row) in costs.rows().enumerate() {
        for (li, &c) in row.iter().enumerate() {
            if c < opt_cost[li] {
                opt_cost[li] = c;
                optimal[li] = p as u32;
            }
        }
    }
    (optimal, opt_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::BouquetConfig;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn workload_at(scale: f64) -> Workload {
        let cat = tpch::catalog(scale);
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
        qb.join(
            l,
            "l_orderkey",
            o,
            "o_orderkey",
            SelSpec::Fixed(6.7e-7 / scale),
        );
        let q = qb.build();
        let ess = Ess::uniform(
            vec![
                EssDim::new("p_retailprice", 1e-4, 1.0),
                EssDim::new("p⋈l", 5e-10 / scale, 5e-6 / scale),
            ],
            20,
        );
        Workload::new("EQ_2D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn rescale_costs_far_fewer_optimizer_calls_than_rebuild() {
        let old = Bouquet::identify(&workload_at(1.0), &BouquetConfig::default()).unwrap();
        let new_w = workload_at(4.0);
        let (_, report) = rescale(&old, new_w.catalog.clone(), Some(new_w.clone())).unwrap();
        assert!(
            report.effort_fraction() < 0.5,
            "maintenance should cost well under half a rebuild: {:.2}",
            report.effort_fraction()
        );
        assert!(report.reused_plans > 0);
    }

    #[test]
    fn rescaled_bouquet_matches_rebuild_on_frontiers_and_guarantees() {
        let old = Bouquet::identify(&workload_at(1.0), &BouquetConfig::default()).unwrap();
        let new_w = workload_at(4.0);
        let (maintained, _) = rescale(&old, new_w.catalog.clone(), Some(new_w.clone())).unwrap();
        let rebuilt = Bouquet::identify(&new_w, &BouquetConfig::default()).unwrap();
        // The PIC extremes are exact (corners are frontier points).
        assert!((maintained.stats.cmin - rebuilt.stats.cmin).abs() < 1e-6 * rebuilt.stats.cmin);
        assert!((maintained.stats.cmax - rebuilt.stats.cmax).abs() < 1e-6 * rebuilt.stats.cmax);
        assert_eq!(maintained.grading.len(), rebuilt.grading.len());
        // Discovery still completes within the maintained bouquet's bound,
        // measured against the *rebuilt* (exact) optimal costs.
        for li in (0..new_w.ess.num_points()).step_by(7) {
            let qa = new_w.ess.point(&new_w.ess.unlinear(li));
            let run = maintained.run_basic(&qa).unwrap();
            assert!(run.completed(), "maintained bouquet failed at {li}");
            let so = run.suboptimality(rebuilt.pic_cost_at(li));
            assert!(
                so <= maintained.mso_bound() * 1.05,
                "maintained SubOpt {so} at {li} vs bound {}",
                maintained.mso_bound()
            );
        }
    }

    #[test]
    fn rescale_to_same_catalog_is_a_fixpoint() {
        let w = workload_at(1.0);
        let old = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let (same, report) = rescale(&old, w.catalog.clone(), None).unwrap();
        assert_eq!(report.new_plans, 0, "no new plans on an unchanged catalog");
        assert_eq!(same.grading, old.grading);
        assert_eq!(
            same.stats.bouquet_cardinality,
            old.stats.bouquet_cardinality
        );
    }
}
