//! The basic policy (paper, Figure 7).
//!
//! ```text
//! for cid = 1 to m:                      # each cost contour
//!     for i = 1 to n_cid:                # each plan on the contour
//!         execute P_i^cid with budget cost(IC_cid)
//!         if it finishes: return result
//! ```
//!
//! It learns nothing from an aborted execution; the loop that executes,
//! charges and recovers is [`Bouquet::run`](crate::Bouquet::run).

use pb_cost::SelPoint;

use crate::bouquet::Bouquet;
use crate::drivers::robust::{Policy, RobustEvent, Step};
use crate::drivers::MAX_OVERFLOW;
use crate::substrate::{ExecutionSubstrate, SubstrateOutcome};

/// Where the sweep stands: schedule rung `k`, plan `i` of its plan set.
pub(crate) struct Figure7<'a> {
    b: &'a Bouquet,
    k: usize,
    i: usize,
}

impl<'a> Figure7<'a> {
    pub(crate) fn new(b: &'a Bouquet) -> Self {
        Figure7 { b, k: 0, i: 0 }
    }
}

impl Policy for Figure7<'_> {
    fn next_step(&mut self) -> Option<Step> {
        while self.k < self.b.contours.len() + MAX_OVERFLOW {
            let (contour, id, f) = self.b.rung(self.k);
            if let Some(&plan) = contour.plan_set.get(self.i) {
                self.i += 1;
                return Some(Step {
                    tried: self.k + 1,
                    contour: id,
                    plan,
                    budget: contour.budget * f,
                    spill: false,
                });
            }
            self.k += 1;
            self.i = 0;
        }
        None
    }

    fn execute<S: ExecutionSubstrate>(&mut self, sub: &mut S, step: &Step) -> SubstrateOutcome {
        sub.execute_partial(step.plan, step.budget)
    }

    fn learn(&mut self, _out: &SubstrateOutcome, _events: &mut Vec<RobustEvent>) {}

    /// The best estimate this policy has: the centre of the selectivity
    /// space.
    fn estimate(&self) -> SelPoint {
        let ess = &self.b.workload.ess;
        ess.point_at_fractions(&vec![0.5; ess.d()])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bouquet::BouquetConfig;
    use crate::drivers::robust::RobustConfig;
    use crate::substrate::SimulatorSubstrate;
    use crate::workload::Workload;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_faults::FaultInjector;
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    pub(crate) fn eq_1d() -> Workload {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "EQ");
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
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        let ess = Ess::uniform(vec![EssDim::new("p_retailprice", 1e-4, 1.0)], 48);
        Workload::new("EQ_1D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn completes_at_every_grid_point_within_bound() {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let bound = b.mso_bound();
        for li in 0..w.ess.num_points() {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let run = b.run_basic(&qa).unwrap();
            assert!(run.completed(), "failed at grid point {li}");
            let subopt = run.suboptimality(b.pic_cost_at(li));
            assert!(
                subopt <= bound * (1.0 + 1e-9),
                "MSO bound violated at {li}: {subopt} > {bound}"
            );
        }
    }

    #[test]
    fn low_selectivity_query_discovered_on_early_contour() {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let cheap = b.run_basic(&w.ess.point(&[0])).unwrap();
        let dear = b.run_basic(&w.ess.point(&[47])).unwrap();
        assert!(cheap.contours_crossed() < dear.contours_crossed());
        assert!(cheap.total_cost < dear.total_cost);
    }

    #[test]
    fn run_is_repeatable() {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let qa = w.ess.point_at_fractions(&[0.63]);
        let a = b.run_basic(&qa).unwrap();
        let bb = b.run_basic(&qa).unwrap();
        assert_eq!(a, bb, "execution strategy must be repeatable");
    }

    #[test]
    fn aborted_executions_consume_exactly_their_budget() {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let qa = w.ess.point(&[40]);
        let cfg = RobustConfig::plain(false);
        let mut sub = SimulatorSubstrate::new(&b, &qa, FaultInjector::none()).unwrap();
        let rr = b.run(&mut sub, &cfg).unwrap();
        for e in &rr.run.trace {
            if !e.completed {
                assert_eq!(e.spent, e.budget);
            } else {
                assert!(e.spent <= e.budget);
            }
        }
        rr.audit(&b, &cfg).unwrap();
    }

    #[test]
    fn model_error_still_terminates_within_inflated_bound() {
        use pb_cost::CostPerturbation;
        let w = eq_1d();
        let delta = 0.4;
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let inflated = b.mso_bound() * crate::theory::model_error_inflation(delta);
        for li in (0..w.ess.num_points()).step_by(3) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let mut sub = SimulatorSubstrate::new(&b, &qa, FaultInjector::none())
                .unwrap()
                .with_model_error(CostPerturbation::with_delta(delta, 11));
            let run = b.run(&mut sub, &RobustConfig::plain(false)).unwrap().run;
            assert!(run.completed());
            // Sub-optimality is measured against the *actual* optimal cost,
            // which is itself within (1+δ) of the modeled PIC.
            let actual_opt = b.pic_cost_at(li) / (1.0 + delta);
            assert!(
                run.suboptimality(actual_opt) <= inflated * (1.0 + delta) * (1.0 + 1e-9),
                "inflated bound violated at {li}"
            );
        }
    }
}
