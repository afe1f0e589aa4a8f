//! Discrete isocost contours over the ESS grid.
//!
//! On the continuous PIC surface, an isocost step cuts a (D−1)-dimensional
//! contour (Figure 6a). On the discretized grid we take the *dominance
//! frontier* of the region `{q : opt_cost(q) ≤ IC_k}`: the maximal points of
//! that downward-closed region under the componentwise order. Every interior
//! location is dominated by a frontier point, so — by PCM — the plan
//! assigned to that frontier point is guaranteed to execute it within the
//! contour budget. This staircase construction is the standard discrete
//! realisation in the bouquet literature.
//!
//! A contour is built from the PIC and from plan costs *at its frontier
//! points only*: [`Contour::frontiers`] files every grid point under the
//! steps whose frontier it is on in one pass over the PIC, and
//! [`Contour::assemble`] reads plan costs through a `(plan, frontier
//! position)` accessor, so identification never needs a plan's cost away
//! from a frontier to decide which plans the bouquet keeps.

use pb_cost::{CostMatrix, Ess, GridIx};
use pb_faults::PbError;
use pb_optimizer::{AnorexicReduction, PlanDiagram, PlanId};

use crate::grading::IsoCostGrading;

/// One isocost contour: budget, frontier points, and the (anorexically
/// reduced) plans covering them.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Contour {
    /// 1-based contour number `k`.
    pub id: usize,
    /// The isocost step's cost value `cost(IC_k)` (not λ-inflated).
    pub step_cost: f64,
    /// Execution budget: `cost(IC_k) · (1+λ)` (Section 4.3 inflates budgets
    /// to account for anorexic replacements).
    pub budget: f64,
    /// Linear grid indices of the frontier points.
    pub points: Vec<usize>,
    /// For each frontier point (parallel to `points`): the bouquet plan
    /// responsible for it.
    pub assignment: Vec<PlanId>,
    /// Distinct plans on this contour, ascending.
    pub plan_set: Vec<PlanId>,
}

impl Contour {
    /// Whether grid point `li` lies on the dominance frontier of
    /// `{q : opt_cost(q) ≤ budget}`: within budget, and every axis
    /// successor (where one exists) is over budget. `ix` is a reusable
    /// scratch buffer (left holding `li`'s coordinates on return) so the
    /// hot frontier scan never allocates per point.
    fn on_frontier(diagram: &PlanDiagram, budget: f64, li: usize, ix: &mut GridIx) -> bool {
        let ess = &diagram.ess;
        if diagram.opt_cost[li] > budget {
            return false;
        }
        ess.unlinear_into(li, ix);
        for dim in 0..ess.d() {
            if ix[dim] + 1 < ess.res[dim] {
                ix[dim] += 1;
                let up_cost = diagram.opt_cost[ess.linear(ix)];
                ix[dim] -= 1;
                if up_cost <= budget {
                    return false; // dominated within the region
                }
            }
        }
        true
    }

    /// Compute the dominance frontier of `{q : opt_cost(q) ≤ budget}`,
    /// ascending: the one-step form of [`frontiers`](Self::frontiers),
    /// which identification uses.
    pub fn frontier(diagram: &PlanDiagram, budget: f64) -> Vec<usize> {
        let mut ix = GridIx::new();
        (0..diagram.ess.num_points())
            .filter(|&li| Self::on_frontier(diagram, budget, li, &mut ix))
            .collect()
    }

    /// The frontier of every step of `steps` (ascending isocost values) in
    /// one pass over the PIC, each in ascending linear order: a point is on
    /// step `k`'s frontier iff `opt_cost ≤ IC_k <` its cheapest in-grid axis
    /// successor, so it is filed under that range of steps. The same
    /// neighbour reads check Plan Cost Monotonicity of the PIC along every
    /// axis; queries violating it (e.g. existential operators, Section 2)
    /// are not amenable to the bouquet technique. A few ns a point and
    /// dimension — two orders of magnitude under the DP call that produced
    /// the point — so the pass is serial.
    pub fn frontiers(diagram: &PlanDiagram, steps: &[f64]) -> Result<Vec<Vec<usize>>, PbError> {
        let ess = &diagram.ess;
        let strides = ess.strides();
        let mut frontiers = vec![Vec::new(); steps.len()];
        let mut ix = GridIx::new();
        for (li, &cost) in diagram.opt_cost.iter().enumerate() {
            ess.unlinear_into(li, &mut ix);
            let mut cheapest_up = f64::INFINITY;
            for dim in 0..ess.d() {
                if ix[dim] + 1 < ess.res[dim] {
                    let up_cost = diagram.opt_cost[li + strides[dim]];
                    if up_cost < cost * (1.0 - 1e-9) {
                        return Err(PbError::Identification(format!(
                            "PIC violates Plan Cost Monotonicity at point {ix:?} dim {dim}: \
                             {cost} -> {up_cost}"
                        )));
                    }
                    cheapest_up = cheapest_up.min(up_cost);
                }
            }
            let first = steps.partition_point(|&step| step < cost);
            let end = steps.partition_point(|&step| step < cheapest_up);
            for frontier in frontiers.iter_mut().take(end).skip(first) {
                frontier.push(li);
            }
        }
        Ok(frontiers)
    }

    /// Build all contours for a grading from a full POSP × grid cost matrix
    /// (`costs[plan][linear_point]`), one [`frontier`](Self::frontier) scan
    /// per step. Identification does not go this way — it costs plans at
    /// the frontiers only — so this is the independent form its output is
    /// tested against.
    pub fn build_all(
        diagram: &PlanDiagram,
        grading: &IsoCostGrading,
        costs: &CostMatrix,
        lambda: f64,
    ) -> Vec<Contour> {
        let steps = grading.steps.iter().enumerate();
        steps
            .map(|(k, &step_cost)| {
                let points = Self::frontier(diagram, step_cost);
                let at = points.clone();
                Self::assemble(diagram, lambda, k, step_cost, points, |plan, pos| {
                    costs[plan][at[pos]]
                })
            })
            .collect()
    }

    /// Assemble one contour (0-based step index `k`) from its frontier by
    /// anorexic reduction. `cost(plan, pos)` is the cost of diagram plan
    /// `plan` at `points[pos]`; the output is a pure function of those
    /// costs, the diagram's PIC at `points`, and the other arguments.
    pub fn assemble(
        diagram: &PlanDiagram,
        lambda: f64,
        k: usize,
        step_cost: f64,
        points: Vec<usize>,
        cost: impl Fn(PlanId, usize) -> f64,
    ) -> Contour {
        assert!(
            !points.is_empty(),
            "contour {} (budget {step_cost}) has no frontier points",
            k + 1
        );
        let red = AnorexicReduction::reduce_points(diagram, &points, lambda, cost);
        let mut plan_set = red.kept;
        plan_set.sort_unstable();
        Contour {
            id: k + 1,
            step_cost,
            budget: step_cost * (1.0 + lambda),
            points,
            assignment: red.assignment,
            plan_set,
        }
    }

    /// Number of plans on this contour (its density `n_k`).
    pub fn density(&self) -> usize {
        self.plan_set.len()
    }

    /// Whether some frontier point dominates (componentwise ≥) `ix` — i.e.
    /// a query at `ix` is guaranteed discoverable on this contour.
    pub fn dominates(&self, diagram: &PlanDiagram, ix: &[usize]) -> bool {
        FrontierCoords::new(&diagram.ess, &self.points)
            .dominating(ix)
            .next()
            .is_some()
    }

    /// Per-plan coverage regions within this contour's budget (Figure 6b):
    /// for each plan on the contour, the set of grid points it can finish
    /// within the budget. `row(plan)` is the plan's cost at every grid
    /// point ([`Bouquet::cost_row`](crate::Bouquet::cost_row) has it for
    /// every contour plan).
    pub fn coverage<'a>(&self, row: impl Fn(PlanId) -> &'a [f64]) -> Vec<(PlanId, Vec<usize>)> {
        self.plan_set
            .iter()
            .map(|&p| {
                let within = |&(_, &cost): &(usize, &f64)| cost <= self.budget;
                let covered = row(p).iter().enumerate().filter(within);
                (p, covered.map(|(li, _)| li).collect())
            })
            .collect()
    }
}

/// Grid coordinates of a contour's frontier points, row-major (`d` per
/// point, parallel to [`Contour::points`]): the dominance scans read these
/// instead of dividing every linear index back into coordinates.
#[derive(Debug, Clone)]
pub(crate) struct FrontierCoords {
    d: usize,
    coords: Vec<usize>,
}

impl FrontierCoords {
    pub fn new(ess: &Ess, points: &[usize]) -> Self {
        let mut coords = Vec::with_capacity(points.len() * ess.d());
        let mut ix = GridIx::new();
        for &li in points {
            ess.unlinear_into(li, &mut ix);
            coords.extend_from_slice(&ix);
        }
        FrontierCoords { d: ess.d(), coords }
    }

    /// Positions (in [`Contour::points`]) of the frontier points that
    /// dominate `ix` componentwise, ascending. Their assigned plans are the
    /// ones still viable for discovery from running location `ix` (the
    /// first-quadrant pruning of Section 5.1).
    pub fn dominating<'a>(&'a self, ix: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        self.coords
            .chunks_exact(self.d)
            .enumerate()
            .filter(move |(_, f)| f.iter().zip(ix).all(|(f, q)| f >= q))
            .map(|(i, _)| i)
    }
}

/// The union of the contours' plan sets, ascending: the bouquet.
pub fn plan_union(contours: &[Contour]) -> Vec<PlanId> {
    let mut all: Vec<PlanId> = contours
        .iter()
        .flat_map(|c| c.plan_set.iter().copied())
        .collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Maximum contour plan density ρ (Section 3.2) across a contour list.
pub fn rho(contours: &[Contour]) -> usize {
    contours.iter().map(Contour::density).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A hand-built diagram over an explicit cost grid (plan trees are
    /// irrelevant to frontier geometry, so every point uses one dummy plan).
    fn synthetic_diagram(res: Vec<usize>, opt_cost: Vec<f64>) -> PlanDiagram {
        use pb_plan::{PhysicalPlan, PlanNode};
        let dims = (0..res.len())
            .map(|d| EssDim::new(format!("d{d}"), 1e-4, 1.0))
            .collect();
        let ess = Ess::new(dims, res);
        assert_eq!(ess.num_points(), opt_cost.len());
        let n = opt_cost.len();
        PlanDiagram {
            ess,
            plans: vec![PhysicalPlan::new(PlanNode::SeqScan { rel: 0 })],
            optimal: vec![0; n],
            opt_cost,
        }
    }

    #[test]
    fn frontier_of_single_point_grid() {
        // 1×1 grid: the lone point is the whole frontier when affordable,
        // and nothing is on the frontier below its cost.
        let d = synthetic_diagram(vec![1, 1], vec![100.0]);
        assert_eq!(Contour::frontier(&d, 100.0), vec![0]);
        assert_eq!(Contour::frontier(&d, 150.0), vec![0]);
        assert!(Contour::frontier(&d, 99.9).is_empty());
    }

    #[test]
    fn frontier_below_cmin_is_empty() {
        let w = eq_2d();
        let d = w.diagram();
        let (cmin, _) = d.cost_bounds();
        assert!(Contour::frontier(&d, cmin * 0.5).is_empty());
        // Exactly at C_min the origin becomes reachable.
        assert!(!Contour::frontier(&d, cmin).is_empty());
    }

    #[test]
    fn frontier_above_cmax_is_the_terminus() {
        let w = eq_2d();
        let d = w.diagram();
        let (_, cmax) = d.cost_bounds();
        // Every point is within budget, so the only maximal point of the
        // region is the grid's terminus corner.
        let f = Contour::frontier(&d, cmax * 2.0);
        assert_eq!(f, vec![d.ess.linear(&d.ess.terminus())]);
    }

    #[test]
    fn frontier_keeps_all_points_of_a_cost_plateau() {
        // 3×3 grid where the anti-diagonal staircase {[2,0],[1,1],[0,2]}
        // ties at cost 5 and everything beyond costs 10: all three tied,
        // mutually incomparable points must stay on the frontier.
        let cost = |ix: &[usize]| if ix[0] + ix[1] <= 2 { 5.0 } else { 10.0 };
        let dims = vec![3, 3];
        let probe = synthetic_diagram(dims.clone(), vec![0.0; 9]);
        let costs: Vec<f64> = (0..9).map(|li| cost(&probe.ess.unlinear(li))).collect();
        let d = synthetic_diagram(dims, costs);
        let f = Contour::frontier(&d, 5.0);
        let expect: Vec<usize> = (0..9)
            .filter(|&li| {
                let ix = d.ess.unlinear(li);
                ix[0] + ix[1] == 2
            })
            .collect();
        assert_eq!(f, expect, "tied staircase points must all survive");
        // On a uniform plateau covering the whole grid, every point except
        // the terminus is (non-strictly) dominated.
        let flat = synthetic_diagram(vec![3, 3], vec![5.0; 9]);
        assert_eq!(
            Contour::frontier(&flat, 5.0),
            vec![flat.ess.linear(&flat.ess.terminus())]
        );
        // Below the plateau cost nothing qualifies.
        assert!(Contour::frontier(&flat, 4.9).is_empty());
    }

    #[test]
    fn one_pass_frontiers_match_the_per_step_scan() {
        // Staircase costs with plateaus: points sit on several steps'
        // frontiers, on none, and on ties exactly at a step value.
        let costs: Vec<f64> = (0..64)
            .map(|li| ((li % 8) / 2 + (li / 8) / 2) as f64)
            .collect();
        let synthetic = synthetic_diagram(vec![8, 8], costs);
        let real = eq_2d().diagram();
        let (cmin, cmax) = real.cost_bounds();
        let graded = IsoCostGrading::geometric(cmin, cmax, 2.0).steps;
        for (d, steps) in [
            (&synthetic, vec![0.0, 1.0, 2.5, 6.0, 9.0]),
            (&synthetic, vec![-1.0]),
            (&real, graded),
        ] {
            let expect: Vec<Vec<usize>> = steps.iter().map(|&b| Contour::frontier(d, b)).collect();
            assert_eq!(Contour::frontiers(d, &steps).unwrap(), expect);
        }
    }

    #[test]
    fn one_pass_frontiers_report_the_first_pcm_violation() {
        // Cost falls from [0,1] to [0,2] (dimension 1) and nowhere earlier.
        let d = synthetic_diagram(vec![2, 3], vec![1.0, 2.0, 1.5, 2.0, 3.0, 4.0]);
        let err = Contour::frontiers(&d, &[4.0]).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("Monotonicity") && text.contains("[0, 1] dim 1"),
            "{text}"
        );
    }

    #[test]
    fn frontier_points_are_maximal_and_within_budget() {
        let w = eq_2d();
        let d = w.diagram();
        let (cmin, cmax) = d.cost_bounds();
        let budget = (cmin * cmax).sqrt();
        let f = Contour::frontier(&d, budget);
        assert!(!f.is_empty());
        for &li in &f {
            assert!(d.opt_cost[li] <= budget);
            let ix = d.ess.unlinear(li);
            for dim in 0..d.ess.d() {
                if ix[dim] + 1 < d.ess.res[dim] {
                    let mut up = ix.clone();
                    up[dim] += 1;
                    assert!(d.opt_cost[d.ess.linear(&up)] > budget);
                }
            }
        }
    }

    #[test]
    fn every_interior_point_is_dominated_by_its_contour() {
        let w = eq_2d();
        let d = w.diagram();
        let costs = d.cost_matrix(&w.catalog, &w.query, &w.model);
        let (cmin, cmax) = d.cost_bounds();
        let grading = IsoCostGrading::geometric(cmin, cmax, 2.0);
        let contours = Contour::build_all(&d, &grading, &costs, 0.2);
        for li in 0..d.ess.num_points() {
            let ix = d.ess.unlinear(li);
            let k = contours
                .iter()
                .position(|c| d.opt_cost[li] <= c.step_cost)
                .expect("last contour covers everything");
            assert!(
                contours[k].dominates(&d, &ix),
                "point {li} not dominated on its contour"
            );
        }
    }

    #[test]
    fn assigned_plan_completes_within_inflated_budget() {
        let w = eq_2d();
        let d = w.diagram();
        let costs = d.cost_matrix(&w.catalog, &w.query, &w.model);
        let (cmin, cmax) = d.cost_bounds();
        let grading = IsoCostGrading::geometric(cmin, cmax, 2.0);
        let contours = Contour::build_all(&d, &grading, &costs, 0.2);
        for c in &contours {
            for (&li, &p) in c.points.iter().zip(&c.assignment) {
                assert!(
                    costs[p][li] <= c.budget * (1.0 + 1e-9),
                    "plan {p} cannot finish its own frontier point on contour {}",
                    c.id
                );
            }
        }
    }

    #[test]
    fn dominating_points_shrink_as_qrun_advances() {
        let w = eq_2d();
        let d = w.diagram();
        let costs = d.cost_matrix(&w.catalog, &w.query, &w.model);
        let (cmin, cmax) = d.cost_bounds();
        let grading = IsoCostGrading::geometric(cmin, cmax, 2.0);
        let contours = Contour::build_all(&d, &grading, &costs, 0.2);
        let mid = contours.len() / 2;
        let c = &contours[mid];
        let coords = FrontierCoords::new(&d.ess, &c.points);
        // Every frontier point dominates the origin, so every plan is viable.
        let all: Vec<usize> = coords.dominating(&[0, 0]).collect();
        assert_eq!(all, (0..c.points.len()).collect::<Vec<_>>());
        let far = coords.dominating(&d.ess.terminus()).count();
        assert!(far <= all.len());
        for i in coords.dominating(&[3, 2]) {
            let ix = d.ess.unlinear(c.points[i]);
            assert!(ix[0] >= 3 && ix[1] >= 2);
        }
    }

    #[test]
    fn rho_is_max_density() {
        let w = eq_2d();
        let d = w.diagram();
        let costs = d.cost_matrix(&w.catalog, &w.query, &w.model);
        let (cmin, cmax) = d.cost_bounds();
        let grading = IsoCostGrading::geometric(cmin, cmax, 2.0);
        let contours = Contour::build_all(&d, &grading, &costs, 0.2);
        let r = rho(&contours);
        assert!(r >= 1);
        assert_eq!(r, contours.iter().map(|c| c.density()).max().unwrap());
    }

    #[test]
    fn coverage_includes_own_frontier_points() {
        let w = eq_2d();
        let d = w.diagram();
        let costs = d.cost_matrix(&w.catalog, &w.query, &w.model);
        let (cmin, cmax) = d.cost_bounds();
        let grading = IsoCostGrading::geometric(cmin, cmax, 2.0);
        let contours = Contour::build_all(&d, &grading, &costs, 0.2);
        let c = &contours[contours.len() / 2];
        let cov = c.coverage(|p| &costs[p]);
        for (&li, &p) in c.points.iter().zip(&c.assignment) {
            let (_, pts) = cov.iter().find(|(pid, _)| *pid == p).unwrap();
            assert!(pts.contains(&li));
        }
    }
}
