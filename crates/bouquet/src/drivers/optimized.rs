//! The optimized bouquet driver (paper, Figure 13).
//!
//! Enhancements over the basic driver:
//!
//! * **qrun tracking** (Section 5.2): a running lower bound on the true
//!   location, updated from node tuple counters after every partial
//!   execution. The first-quadrant invariant — `qrun ≤ qa` componentwise —
//!   is maintained throughout.
//! * **First-quadrant pruning** (Section 5.1): contour plans whose frontier
//!   segments fall outside qrun's first quadrant are skipped without
//!   execution.
//! * **AxisPlans selection** (Section 5.1): candidate plans are those at the
//!   intersections of the contour with the axes through qrun; the cheapest
//!   cost-equivalence group is formed and the plan with the deepest
//!   unresolved error node is picked.
//! * **Spill-based learning** (Section 5.3): while more than one of a plan's
//!   error dimensions is unresolved, its spilled version P̃ is executed so
//!   the whole budget works on the first error node (Manhattan movement of
//!   qrun). With at most one unresolved dimension the plan runs unspilled
//!   and may complete the query.
//! * **Early contour change** (Figure 13): when the PIC cost at qrun already
//!   exceeds the contour budget, no plan on the contour can complete, so the
//!   driver jumps ahead without executing anything further.

use pb_cost::{NodeCost, SelPoint};
use pb_optimizer::PlanId;

use crate::bouquet::Bouquet;
use crate::drivers::robust::{Policy, RobustEvent, Step};
use crate::drivers::MAX_OVERFLOW;
use crate::substrate::{ExecutionSubstrate, SubstrateOutcome};

/// The state Figure 13 carries between executions.
pub(crate) struct Figure13<'a> {
    b: &'a Bouquet,
    /// Whether the substrate has a fault injector armed (observations are
    /// then clamped into the ESS rather than trusted).
    faults_active: bool,
    qrun: Qrun,
    resolved: Vec<bool>,
    /// Schedule rung (0-based) discovery stands on.
    cid: usize,
    /// Plans already executed on the current rung. Each plan runs at most
    /// once per contour, so this policy never exceeds Figure 7's per-contour
    /// execution count n_k (the quantity the Equation 8 bound is built from).
    executed: Vec<PlanId>,
    candidates: Vec<PlanId>,
    scratch: SelectScratch,
}

impl<'a> Figure13<'a> {
    pub(crate) fn new(b: &'a Bouquet, faults_active: bool) -> Self {
        Figure13 {
            b,
            faults_active,
            qrun: Qrun::at_origin(b),
            resolved: vec![false; b.workload.ess.d()],
            cid: 0,
            executed: Vec::new(),
            candidates: Vec::new(),
            scratch: SelectScratch::default(),
        }
    }
}

impl Policy for Figure13<'_> {
    fn next_step(&mut self) -> Option<Step> {
        let b = self.b;
        let tables = b.driver_tables();
        let m = b.contours.len();
        while self.cid < m + MAX_OVERFLOW {
            let (contour, id, f) = b.rung(self.cid);

            // Early contour change: the PIC at qrun already exceeds this
            // step, so nothing here can complete (PCM argument).
            if b.diagram.opt_cost[self.qrun.li] > contour.step_cost * f {
                self.cid += 1;
                self.executed.clear();
                continue;
            }

            // Viable plans, ascending: first-quadrant pruning against qrun,
            // minus what already ran on this rung.
            self.candidates.clear();
            if self.cid < m {
                for i in tables.frontiers[self.cid].dominating(&self.qrun.ix) {
                    let p = contour.assignment[i];
                    if !self.candidates.contains(&p) {
                        self.candidates.push(p);
                    }
                }
                self.candidates.sort_unstable();
            } else {
                self.candidates.extend_from_slice(&contour.plan_set);
            }
            self.candidates.retain(|p| !self.executed.contains(p));
            if self.candidates.is_empty() {
                self.cid += 1;
                self.executed.clear();
                continue;
            }

            let (plan, cost_at_qrun) = self.select_plan();
            let budget = contour.budget * f;
            // Spill (Section 5.3) only when the plan provably cannot complete
            // within the budget: its cost at qrun — a lower bound on its cost
            // at qa, by PCM and the first-quadrant invariant — already
            // exceeds it, so the execution is pure discovery. Otherwise the
            // plan runs unspilled and may complete the query (it still
            // learns on abort, just with a shallower movement).
            let spill =
                tables.plans[plan].learnable(&self.resolved).is_some() && cost_at_qrun > budget;
            self.executed.push(plan);
            return Some(Step {
                tried: self.cid + 1,
                contour: id,
                plan,
                budget,
                spill,
            });
        }
        None
    }

    fn execute<S: ExecutionSubstrate>(&mut self, sub: &mut S, step: &Step) -> SubstrateOutcome {
        sub.execute_monitored(step.plan, &self.resolved, step.budget, step.spill)
    }

    fn learn(&mut self, out: &SubstrateOutcome, events: &mut Vec<RobustEvent>) {
        let ess = &self.b.workload.ess;
        for &(dim, mut v) in &out.observed {
            // A corrupted observation may exceed the ESS; clamp it so qrun
            // stays inside the space (first-quadrant protection) and log the
            // rejection.
            let hi = ess.dims[dim].hi;
            if self.faults_active && v > hi {
                events.push(RobustEvent::ObservationRejected {
                    dim,
                    observed: v,
                    clamped_to: hi,
                });
                v = hi;
            }
            self.qrun.set(self.b, dim, self.qrun.sel[dim].max(v));
        }
        for &(dm, v) in &out.resolved {
            self.resolved[dm] = true;
            self.qrun.set(self.b, dm, v);
        }
    }

    /// qrun, the best current estimate of the true location.
    fn estimate(&self) -> SelPoint {
        SelPoint(self.qrun.sel.clone())
    }
}

impl Figure13<'_> {
    /// AxisPlans selection (Section 5.1): restrict the candidates to the
    /// plans responsible for the contour's intersection with the axes
    /// through qrun, then pick from the cheapest cost-equivalence group the
    /// plan whose unresolved error node sits deepest in the plan tree.
    /// Returns the plan and its cost at qrun.
    fn select_plan(&mut self) -> (PlanId, f64) {
        let (b, qrun, candidates, resolved) =
            (self.b, &self.qrun, &self.candidates, &self.resolved);
        let SelectScratch { axis, costs, stack } = &mut self.scratch;
        b.axis_plan_set(self.cid.min(b.contours.len() - 1), qrun, axis);
        let on_axis = axis.iter().any(|p| candidates.contains(p));
        let progs = b.programs();
        costs.clear();
        costs.extend(
            candidates
                .iter()
                .filter(|p| !on_axis || axis.contains(p))
                .map(|&p| (p, progs[p].eval_with(&qrun.sel, stack).cost)),
        );
        let cheapest = costs.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min);
        // Cost-equivalence group: within 20% of the cheapest. Deepest
        // unresolved error node wins (spare budget flows to it), the lower
        // plan id on a tie. The group is non-empty whenever every cost is a
        // number (the cheapest pool member always qualifies); otherwise the
        // first candidate stands in.
        let sites = &b.driver_tables().plans;
        costs
            .iter()
            .filter(|&&(_, c)| c <= cheapest * 1.2)
            .max_by_key(|&&(p, _)| (sites[p].deepest_unresolved(resolved), std::cmp::Reverse(p)))
            .copied()
            .unwrap_or_else(|| {
                let p = candidates.first().copied().unwrap_or(0);
                (p, progs[p].eval_with(&qrun.sel, stack).cost)
            })
    }
}

impl Bouquet {
    /// Plans at the intersection of contour number `contour` (0-based) with
    /// the positive axes through the grid location of qrun, into `out`: for
    /// each dimension, walk outward along that axis to the last point still
    /// inside the step, and take the cheapest contour plan that covers it
    /// within the budget.
    fn axis_plan_set(&self, contour: usize, qrun: &Qrun, out: &mut Vec<PlanId>) {
        let ess = &self.workload.ess;
        let tables = self.driver_tables();
        let strides = &tables.strides;
        // Each contour plan's cost at grid point `li` is `costs[row + li]`.
        let (rows, costs) = (&tables.rows[contour], self.costs.as_flat());
        let contour = &self.contours[contour];
        out.clear();
        for ((&stride, &at), &res) in strides.iter().zip(&qrun.ix).zip(&ess.res) {
            // Linear indices from qrun's grid point outward along this axis.
            let last_inside = (qrun.li..)
                .step_by(stride)
                .take(res - at)
                .take_while(|&li| self.diagram.opt_cost[li] <= contour.step_cost)
                .last();
            if let Some(li) = last_inside {
                if let Some((&p, _)) = contour
                    .plan_set
                    .iter()
                    .zip(rows)
                    .filter(|&(_, &row)| costs[row + li] <= contour.budget * (1.0 + 1e-9))
                    .min_by(|&(_, &a), &(_, &b)| costs[a + li].total_cmp(&costs[b + li]))
                {
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
    }
}

/// The running location: a lower bound on qa, with its grid point — its
/// downward snap — kept in step one coordinate at a time (axes snap
/// independently).
struct Qrun {
    sel: Vec<f64>,
    /// Grid coordinates and linear index of `snap_floor(sel)`.
    ix: Vec<usize>,
    li: usize,
}

impl Qrun {
    /// The ESS origin, which is grid point 0.
    fn at_origin(b: &Bouquet) -> Self {
        let ess = &b.workload.ess;
        Qrun {
            sel: ess.dims.iter().map(|dim| dim.lo).collect(),
            ix: vec![0; ess.d()],
            li: 0,
        }
    }

    /// Move coordinate `dim` to `v` and re-snap that axis.
    fn set(&mut self, b: &Bouquet, dim: usize, v: f64) {
        if v.to_bits() == self.sel[dim].to_bits() {
            return;
        }
        self.sel[dim] = v;
        let t = b.workload.ess.snap_floor_dim(dim, v);
        let stride = b.driver_tables().strides[dim];
        self.li = self.li - self.ix[dim] * stride + t * stride;
        self.ix[dim] = t;
    }
}

/// Reused buffers of [`Bouquet::select_plan`].
#[derive(Default)]
struct SelectScratch {
    axis: Vec<PlanId>,
    costs: Vec<(PlanId, f64)>,
    stack: Vec<NodeCost>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::BouquetConfig;
    use crate::workload::Workload;
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
            20,
        );
        Workload::new("EQ_2D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn completes_everywhere_and_never_wildly_exceeds_basic() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        for li in (0..w.ess.num_points()).step_by(7) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let run = b.run_optimized(&qa).unwrap();
            assert!(run.completed(), "optimized driver failed at {li}");
        }
    }

    #[test]
    fn optimized_is_repeatable() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let qa = w.ess.point_at_fractions(&[0.8, 0.5]);
        assert_eq!(b.run_optimized(&qa).unwrap(), b.run_optimized(&qa).unwrap());
    }

    #[test]
    fn qrun_learning_shows_in_trace() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let qa = w.ess.point_at_fractions(&[0.9, 0.9]);
        let run = b.run_optimized(&qa).unwrap();
        assert!(run.completed());
        // For an expensive location the driver must have learned something.
        assert!(
            run.trace.iter().any(|e| e.learned.is_some()),
            "no learning recorded: {:?}",
            run.trace
        );
        // Learned values never exceed truth (first-quadrant invariant).
        for e in &run.trace {
            if let Some((dm, v)) = e.learned {
                assert!(v <= qa[dm] * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn optimized_uses_no_more_cost_than_basic_on_average() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let (mut tot_basic, mut tot_opt) = (0.0, 0.0);
        for li in (0..w.ess.num_points()).step_by(3) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            tot_basic += b.run_basic(&qa).unwrap().total_cost;
            tot_opt += b.run_optimized(&qa).unwrap().total_cost;
        }
        assert!(
            tot_opt <= tot_basic * 1.05,
            "optimized driver should not cost more overall: {tot_opt} vs {tot_basic}"
        );
    }

    /// Spill-policy soundness: a spilled execution is only issued when the
    /// plan provably cannot complete within the budget, so it must abort at
    /// exactly its budget and can never complete the query. Also checks the
    /// optimized driver's Equation 8 accounting: each plan runs at most once
    /// per contour.
    #[test]
    fn spill_policy_is_sound_across_the_grid() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        for li in (0..w.ess.num_points()).step_by(5) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let run = b.run_optimized(&qa).unwrap();
            assert!(run.completed());
            for e in &run.trace {
                if e.spilled {
                    assert!(!e.completed, "spilled execution cannot complete the query");
                    assert_eq!(e.spent, e.budget, "doomed execution must burn its budget");
                }
            }
            let mut seen = std::collections::HashSet::new();
            for e in &run.trace {
                assert!(
                    seen.insert((e.contour, e.plan)),
                    "plan {} executed twice on contour {}",
                    e.plan,
                    e.contour
                );
            }
        }
    }

    #[test]
    fn early_contour_change_skips_low_contours_after_resolution() {
        let w = eq_2d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let qa = w.ess.point(&w.ess.terminus());
        let run = b.run_optimized(&qa).unwrap();
        // Contours visited should be weakly increasing in the trace.
        let mut last = 0;
        for e in &run.trace {
            assert!(e.contour >= last);
            last = e.contour;
        }
    }
}
