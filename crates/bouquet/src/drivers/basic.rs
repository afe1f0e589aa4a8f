//! The basic bouquet driver (paper, Figure 7).
//!
//! ```text
//! for cid = 1 to m:                      # each cost contour
//!     for i = 1 to n_cid:                # each plan on the contour
//!         execute P_i^cid with budget cost(IC_cid)
//!         if it finishes: return result
//! ```
//!
//! Under a perfect cost model the loop always terminates by the contour
//! whose step cost reaches the query's optimal cost. Under bounded model
//! error (δ > 0) actual costs can exceed every modeled budget, so the driver
//! extends the grading with geometric *overflow* contours — this is exactly
//! the mechanism behind the `(1+δ)²` inflation bound of Section 3.4.

use pb_cost::SelPoint;
use pb_faults::{FaultInjector, PbError};

use crate::bouquet::Bouquet;
use crate::drivers::robust::{RobustCtx, RobustEvent};
use crate::drivers::{BouquetRun, ExecutionOutcome, PartialExec};
use crate::substrate::{ExecutionSubstrate, ResumeStats, SimulatorSubstrate};

/// Safety valve: overflow contours beyond the grading (only reachable under
/// model error). 64 doublings is far beyond any bounded δ.
pub(crate) const MAX_OVERFLOW: usize = 64;

impl Bouquet {
    /// Run the basic (Figure 7) driver at true location `qa` on the
    /// cost-unit simulator substrate.
    pub fn run_basic(&self, qa: &SelPoint) -> Result<BouquetRun, PbError> {
        let mut sub = SimulatorSubstrate::new(self, qa, FaultInjector::none())?;
        self.run_basic_core(&mut sub, &mut RobustCtx::inert())
    }

    /// Run the basic (Figure 7) driver on an arbitrary substrate (e.g. the
    /// real tuple engine via [`crate::substrate::EngineSubstrate`]). The
    /// substrate must be bound to this bouquet.
    pub fn run_basic_on<S: ExecutionSubstrate>(&self, sub: &mut S) -> Result<BouquetRun, PbError> {
        self.run_basic_core(sub, &mut RobustCtx::inert())
    }

    /// Run the basic driver with checkpoint/resume enabled on the simulator
    /// substrate. The (contour, plan, budget) sequence, the completion
    /// decision and everything learned are identical to
    /// [`Bouquet::run_basic`] — resume never changes *what* happens, only
    /// *what is paid*: prefixes an earlier partial execution already
    /// completed are fast-forwarded instead of re-executed, so `total_cost`
    /// shrinks by the reused units reported in the stats.
    pub fn run_basic_resumable(&self, qa: &SelPoint) -> Result<(BouquetRun, ResumeStats), PbError> {
        let mut sub = SimulatorSubstrate::new(self, qa, FaultInjector::none())?;
        self.run_basic_resumable_on(&mut sub)
    }

    /// Run the basic driver with checkpoint/resume on an arbitrary
    /// substrate (a no-op opt-in on substrates that do not support resume).
    pub fn run_basic_resumable_on<S: ExecutionSubstrate>(
        &self,
        sub: &mut S,
    ) -> Result<(BouquetRun, ResumeStats), PbError> {
        sub.enable_checkpoint_resume();
        let run = self.run_basic_core(sub, &mut RobustCtx::inert())?;
        Ok((run, sub.resume_stats()))
    }

    /// Shared driver loop: the plain entry points use an inert robustness
    /// context (no retries, no degradation, no events), so their behaviour
    /// is unchanged; `run_robust` threads a live one.
    pub(crate) fn run_basic_core<S: ExecutionSubstrate>(
        &self,
        sub: &mut S,
        rc: &mut RobustCtx,
    ) -> Result<BouquetRun, PbError> {
        let d = self.workload.ess.d();
        let mut trace: Vec<PartialExec> = Vec::new();
        let mut total = 0.0;

        let m = self.contours.len();
        for k in 0..m + MAX_OVERFLOW {
            let (contour_id, budget, plan_set) = if k < m {
                let c = &self.contours[k];
                (c.id, c.budget, &c.plan_set)
            } else {
                // Overflow: keep doubling (ratio r) past the last contour
                // with the last contour's plan set.
                let last = &self.contours[m - 1];
                let budget = last.budget * self.config.r.powi((k - m + 1) as i32);
                (k + 1, budget, &last.plan_set)
            };
            for &pid in plan_set {
                let mut attempt = 0usize;
                loop {
                    // Cooperative cancellation: poll between executions so a
                    // tripped token (client cancel, deadline) stops the run
                    // before more budget is committed. Spend so far stays
                    // charged; checkpoints survive for a resumed resubmit.
                    if let Some(error) = rc.check_cancelled() {
                        rc.push(RobustEvent::Cancelled {
                            reason: error.to_string(),
                        });
                        return Ok(BouquetRun {
                            trace,
                            total_cost: total,
                            outcome: ExecutionOutcome::Cancelled {
                                contours_tried: k + 1,
                            },
                        });
                    }
                    // Tenant budget: granting this execution would push past
                    // the cumulative spend cap, so finish on the capped rung
                    // instead of starting work that cannot be afforded.
                    if rc.cap_blocks(total, budget) {
                        let est = self.workload.ess.point_at_fractions(&vec![0.5; d]);
                        return Ok(self.capped_finish(&est, sub, trace, total, rc, k + 1));
                    }
                    let out = sub.execute_partial(pid, budget);
                    total += out.spent;
                    let faulted = out.error.is_some();
                    // The trace owns the execution's error; the rare paths
                    // below that report it clone it from there.
                    trace.push(PartialExec {
                        contour: contour_id,
                        plan: pid,
                        budget,
                        spent: out.spent,
                        completed: out.completed,
                        spilled: false,
                        learned: None,
                        error: out.error,
                    });
                    rc.monitor(
                        contour_id,
                        pid,
                        budget,
                        out.spent,
                        out.reused,
                        out.completed,
                        faulted,
                    );
                    if out.completed {
                        return Ok(BouquetRun {
                            trace,
                            total_cost: total,
                            outcome: ExecutionOutcome::Completed {
                                final_plan: pid,
                                final_cost: out.spent,
                            },
                        });
                    }
                    if rc.should_degrade() {
                        // Best estimate available to the basic driver: the
                        // centre of the selectivity space.
                        let est = self.workload.ess.point_at_fractions(&vec![0.5; d]);
                        return Ok(self.degraded_finish(&est, sub, trace, total, rc, k + 1));
                    }
                    match trace.last().and_then(|e| e.error.as_ref()) {
                        // A cancellation surfaced from inside the substrate
                        // is terminal, never retried: the controller asked
                        // the run to stop.
                        Some(PbError::Cancelled(reason)) => {
                            rc.push(RobustEvent::Cancelled {
                                reason: reason.clone(),
                            });
                            return Ok(BouquetRun {
                                trace,
                                total_cost: total,
                                outcome: ExecutionOutcome::Cancelled {
                                    contours_tried: k + 1,
                                },
                            });
                        }
                        Some(error) if attempt < rc.retries => {
                            attempt += 1;
                            rc.push(RobustEvent::Retry {
                                contour: contour_id,
                                plan: pid,
                                attempt,
                                error: error.clone(),
                            });
                        }
                        Some(error) => {
                            rc.abandoned(contour_id, pid, error.clone());
                            break;
                        }
                        None => break,
                    }
                }
            }
        }
        Ok(BouquetRun {
            trace,
            total_cost: total,
            outcome: ExecutionOutcome::BudgetExhausted {
                contours_tried: m + MAX_OVERFLOW,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::BouquetConfig;
    use crate::workload::Workload;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn eq_1d() -> Workload {
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
        let run = b.run_basic(&qa).unwrap();
        for e in &run.trace {
            if !e.completed {
                assert_eq!(e.spent, e.budget);
            } else {
                assert!(e.spent <= e.budget);
            }
        }
        let sum: f64 = run.trace.iter().map(|e| e.spent).sum();
        assert!((sum - run.total_cost).abs() < 1e-9 * run.total_cost);
    }

    #[test]
    fn model_error_still_terminates_within_inflated_bound() {
        use pb_cost::CostPerturbation;
        let w = eq_1d();
        let delta = 0.4;
        let cfg = BouquetConfig {
            perturbation: CostPerturbation::with_delta(delta, 11),
            ..Default::default()
        };
        let b = Bouquet::identify(&w, &cfg).unwrap();
        let inflated = b.mso_bound() * crate::theory::model_error_inflation(delta);
        for li in (0..w.ess.num_points()).step_by(3) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let run = b.run_basic(&qa).unwrap();
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
