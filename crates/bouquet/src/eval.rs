//! Whole-workload evaluation harness: NAT vs SEER vs BOU over the full ESS
//! grid — the machinery behind the paper's Figures 14–18 and Table 1.

use pb_cost::CostMatrix;
use pb_faults::{FaultInjector, PbError};
use pb_optimizer::SeerReduction;
use serde::{Deserialize, Serialize};

use crate::baselines::{parqo_assignment, ParqoConfig};
use crate::bouquet::{Bouquet, BouquetConfig};
use crate::drivers::robust::RobustConfig;
use crate::metrics::{
    bouquet_metrics, harm, robustness_distribution, single_plan_metrics, single_plan_worst_profile,
    HarmReport, MetricsSummary, RobustnessDistribution,
};
use crate::substrate::SimulatorSubstrate;
use crate::workload::Workload;

/// λ used by the SEER baseline's safety check.
const SEER_LAMBDA: f64 = 0.2;

/// Table 1 row: guarantees before and after anorexic reduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuaranteeRow {
    pub rho_posp: usize,
    pub bound_posp: f64,
    pub rho_anorexic: usize,
    pub bound_anorexic: f64,
}

/// Complete evaluation of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadEvaluation {
    pub name: String,
    pub dims: usize,
    pub grid_points: usize,
    pub cmin: f64,
    pub cmax: f64,
    pub num_contours: usize,
    /// Native optimizer (Figure 14/15 "NAT").
    pub nat: MetricsSummary,
    /// SEER robust selection (Figure 14/15 "SEER").
    pub seer: MetricsSummary,
    /// PARQO penalty-aware selection (third static baseline).
    pub parqo: MetricsSummary,
    /// Basic bouquet driver.
    pub bou_basic: MetricsSummary,
    pub bou_basic_harm: HarmReport,
    /// Optimized (Figure 13) bouquet driver.
    pub bou_opt: MetricsSummary,
    pub bou_opt_harm: HarmReport,
    /// Figure 16 distribution (for the basic driver).
    pub distribution: RobustnessDistribution,
    /// Figure 18 cardinalities.
    pub posp_cardinality: usize,
    pub seer_cardinality: usize,
    pub parqo_cardinality: usize,
    pub bouquet_cardinality: usize,
    /// Table 1 row.
    pub guarantees: GuaranteeRow,
    /// Per-location bouquet sub-optimality (basic driver), for plotting.
    pub subopt_bou: Vec<f64>,
    /// Per-location NAT worst-case sub-optimality, for plotting.
    pub nat_worst: Vec<f64>,
}

/// Evaluate a workload end to end, its bouquet identified under the default
/// [`BouquetConfig`].
pub fn evaluate(w: &Workload) -> Result<WorkloadEvaluation, PbError> {
    let bouquet = Bouquet::identify(w, &BouquetConfig::default())?;
    let d = &bouquet.diagram;
    let costs = d.cost_matrix(&w.catalog, &w.query, &w.model);
    evaluate_with_bouquet(w, &bouquet, &costs)
}

/// Evaluate using an already-identified bouquet (lets callers reuse the
/// expensive compile-time artefacts). `costs` is the full POSP × grid
/// matrix of the bouquet's diagram (`PlanDiagram::cost_matrix_with`): the
/// single-plan baselines weigh every POSP plan at every location, which
/// the bouquet itself keeps no rows for. PARQO hedges over the default
/// [`ParqoConfig`] neighborhood.
pub fn evaluate_with_bouquet(
    w: &Workload,
    bouquet: &Bouquet,
    costs: &CostMatrix,
) -> Result<WorkloadEvaluation, PbError> {
    let d = &bouquet.diagram;
    let n = w.ess.num_points();

    // NAT: picks the optimal plan at the estimated location.
    let nat_assignment: Vec<usize> = d.optimal.iter().map(|&p| p as usize).collect();
    let nat = single_plan_metrics(costs, &d.opt_cost, &nat_assignment);
    let nat_worst = single_plan_worst_profile(costs, &d.opt_cost, &nat_assignment);

    // SEER: globally-safe reduced assignment.
    let seer_red = SeerReduction::reduce(d, costs, SEER_LAMBDA);
    let seer = single_plan_metrics(costs, &d.opt_cost, &seer_red.assignment);

    // PARQO: locally penalty-hedged assignment.
    let parqo_asg = parqo_assignment(&w.ess, d, costs, &ParqoConfig::default());
    let parqo = single_plan_metrics(costs, &d.opt_cost, &parqo_asg);
    let parqo_cardinality = {
        let mut used = parqo_asg;
        used.sort_unstable();
        used.dedup();
        used.len()
    };

    // Bouquet drivers, evaluated at every grid location in parallel.
    let subopt_bou = run_profile(bouquet, false)?;
    let bou_basic = bouquet_metrics(&subopt_bou, bouquet.stats.bouquet_cardinality);
    let bou_basic_harm = harm(&subopt_bou, &nat_worst);
    let distribution = robustness_distribution(&subopt_bou, &nat_worst);

    let subopt_opt = run_profile(bouquet, true)?;
    let bou_opt = bouquet_metrics(&subopt_opt, bouquet.stats.bouquet_cardinality);
    let bou_opt_harm = harm(&subopt_opt, &nat_worst);

    let guarantees = guarantee_row(bouquet);

    Ok(WorkloadEvaluation {
        name: w.name.clone(),
        dims: w.ess.d(),
        grid_points: n,
        cmin: bouquet.stats.cmin,
        cmax: bouquet.stats.cmax,
        num_contours: bouquet.stats.num_contours,
        nat,
        seer,
        parqo,
        bou_basic,
        bou_basic_harm,
        bou_opt,
        bou_opt_harm,
        distribution,
        posp_cardinality: d.plan_count(),
        seer_cardinality: seer_red.plan_count(),
        parqo_cardinality,
        bouquet_cardinality: bouquet.stats.bouquet_cardinality,
        guarantees,
        subopt_bou,
        nat_worst,
    })
}

/// Sub-optimality profile of a driver over the whole grid, in parallel.
pub fn run_profile(bouquet: &Bouquet, optimized: bool) -> Result<Vec<f64>, PbError> {
    let ess = &bouquet.workload.ess;
    let n = ess.num_points();
    pb_cost::par_map(pb_cost::Parallelism::auto(), n, |li| {
        let qa = ess.point(&ess.unlinear(li));
        let mut sub = SimulatorSubstrate::new(bouquet, &qa, FaultInjector::none())?;
        let run = bouquet.run(&mut sub, &RobustConfig::plain(optimized))?.run;
        if !run.completed() {
            return Err(PbError::Identification(format!(
                "driver failed at grid point {li}"
            )));
        }
        Ok(run.suboptimality(bouquet.pic_cost_at(li)))
    })
    .into_iter()
    .collect()
}

/// Compute the Table 1 guarantee row: Equation 8 evaluated with the raw
/// POSP contour densities (λ = 0) and with the anorexically reduced
/// densities (budgets inflated by 1+λ).
pub fn guarantee_row(bouquet: &Bouquet) -> GuaranteeRow {
    let lambda = bouquet.config.lambda;
    let posp_densities: Vec<usize> = (bouquet.contours.iter())
        .map(|c| c.posp_density(&bouquet.diagram))
        .collect();
    let anorexic_densities: Vec<usize> = bouquet.contours.iter().map(|c| c.density()).collect();

    let eq8 = |densities: &[usize], inflate: f64| -> f64 {
        let mut cum = 0.0;
        let mut worst: f64 = 0.0;
        for (k, (&nk, &step)) in densities.iter().zip(&bouquet.grading.steps).enumerate() {
            cum += nk as f64 * step * inflate;
            let floor = if k == 0 {
                bouquet.stats.cmin
            } else {
                bouquet.grading.steps[k - 1]
            };
            worst = worst.max(cum / floor);
        }
        worst
    };

    GuaranteeRow {
        rho_posp: posp_densities.iter().copied().max().unwrap_or(0),
        bound_posp: eq8(&posp_densities, 1.0),
        rho_anorexic: anorexic_densities.iter().copied().max().unwrap_or(0),
        bound_anorexic: eq8(&anorexic_densities, 1.0 + lambda),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn full_evaluation_shapes_match_the_paper() {
        let w = eq_2d();
        let ev = evaluate(&w).unwrap();
        // Bouquet's MSO must respect its theoretical bound.
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        assert!(ev.bou_basic.mso <= b.mso_bound() * (1.0 + 1e-9));
        // NAT is much worse in the worst case (the paper's headline shape).
        assert!(
            ev.nat.mso > ev.bou_basic.mso,
            "NAT MSO {} should exceed BOU MSO {}",
            ev.nat.mso,
            ev.bou_basic.mso
        );
        // SEER does not materially improve on NAT's MSO (Section 6.2).
        assert!(ev.seer.mso > ev.bou_basic.mso);
        // PARQO hedges locally but, like NAT/SEER, has no ladder bound.
        assert!(ev.parqo.mso >= 1.0 && ev.parqo.mso.is_finite());
        assert!(ev.parqo.mso > ev.bou_basic.mso);
        // Cardinalities: bouquet ≤ SEER ≤ POSP (Figure 18 shape).
        assert!(ev.bouquet_cardinality <= ev.posp_cardinality);
        assert!(ev.seer_cardinality <= ev.posp_cardinality);
        assert!(ev.parqo_cardinality <= ev.posp_cardinality);
    }

    #[test]
    fn optimized_driver_dominates_basic_on_average() {
        let w = eq_2d();
        let ev = evaluate(&w).unwrap();
        let opt = ev.bou_opt;
        assert!(
            opt.aso <= ev.bou_basic.aso * 1.02,
            "optimized ASO {} should not exceed basic {}",
            opt.aso,
            ev.bou_basic.aso
        );
    }

    #[test]
    fn guarantee_row_anorexic_bound_is_tighter() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let row = guarantee_row(&b);
        assert!(row.rho_anorexic <= row.rho_posp);
        // The whole point of Section 3.3: reduction shrinks the bound
        // (possibly equal on tiny 2D spaces).
        assert!(row.bound_anorexic <= row.bound_posp * 1.2 + 1e-9);
        assert!(row.bound_posp >= 1.0 && row.bound_anorexic >= 1.0);
    }

    #[test]
    fn harm_is_bounded_by_mso_minus_one() {
        let w = eq_2d();
        let ev = evaluate(&w).unwrap();
        assert!(ev.bou_basic_harm.max_harm <= ev.bou_basic.mso - 1.0 + 1e-9);
        assert!(ev.bou_basic_harm.harm_fraction <= 1.0);
    }
}
