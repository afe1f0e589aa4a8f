//! Plan diagrams: exhaustive optimization over the ESS grid.
//!
//! A plan diagram (Harish et al., VLDB 2007) maps every grid point of the
//! error-prone selectivity space to its optimal plan and optimal cost. The
//! distinct plans form the *parametric optimal set of plans* (POSP) and the
//! per-point optimal costs form the *POSP infimum curve* (PIC) that the
//! bouquet discretizes (paper, Sections 1 and 4.2).

use std::collections::HashMap;
use std::sync::Mutex;

use pb_catalog::Catalog;
use pb_cost::{
    chunk_len, run_chunked, CostMatrix, CostModel, CostProgram, Ess, Parallelism,
    PARALLEL_MIN_MATRIX_CELLS,
};
use pb_plan::{PhysicalPlan, PlanFingerprint, QuerySpec};

use crate::dp::Sweep;

/// Evaluate a compiled plan set at every grid point of `ess`, producing a
/// `plans × points` [`CostMatrix`]. One program evaluation costs every plan
/// at a block of consecutive grid points (shared sub-plans once), so work
/// is chunked over points; the matrix is allocated once and every plan's
/// row is split along the chunk boundaries beforehand, so a chunk writes
/// its points' column of each row in place — no block to transpose, no
/// second copy — and allocates only its evaluation stack. Gated serial
/// below [`PARALLEL_MIN_MATRIX_CELLS`] plan × point cells; output is
/// bit-identical at any worker count.
fn plan_set_matrix(prog: &CostProgram, ess: &Ess, par: Parallelism) -> CostMatrix {
    let n = ess.num_points();
    let d = ess.d();
    let plans = prog.num_roots();
    let par = par.for_cells(plans * n, PARALLEL_MIN_MATRIX_CELLS);
    let points = ess.points_flat();
    let mut flat = vec![0.0; plans * n];
    // columns[c][p]: plan p's cells at the points of chunk c.
    let chunk = chunk_len(par, n);
    let mut columns: Vec<Vec<&mut [f64]>> = Vec::new();
    columns.resize_with(n.div_ceil(chunk), || Vec::with_capacity(plans));
    for row in flat.chunks_exact_mut(n) {
        for (column, cells) in columns.iter_mut().zip(row.chunks_mut(chunk)) {
            column.push(cells);
        }
    }
    let columns: Vec<Mutex<Vec<&mut [f64]>>> = columns.into_iter().map(Mutex::new).collect();
    run_chunked(par, n, |c, range| {
        let mut column = columns[c].lock().expect("a chunk is claimed once");
        let points = &points[range.start * d..range.end * d];
        prog.eval_set_points(points, d, |p, j, cost| {
            column[p][j] = cost;
        });
    });
    CostMatrix::from_flat(n, flat)
}

/// Index into a diagram's `plans` vector.
pub type PlanId = usize;

/// The number of `plan` among `plans`, by fingerprint; a new plan is
/// appended and gets the next number.
fn intern(
    plans: &mut Vec<PhysicalPlan>,
    ids: &mut HashMap<PlanFingerprint, u32>,
    plan: PhysicalPlan,
) -> u32 {
    *ids.entry(plan.fingerprint()).or_insert_with(|| {
        plans.push(plan);
        (plans.len() - 1) as u32
    })
}

/// Optimal plan + cost at every grid point of an ESS.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PlanDiagram {
    pub ess: Ess,
    /// Distinct optimal plans (the POSP set).
    pub plans: Vec<PhysicalPlan>,
    /// Per linear grid index: which plan is optimal.
    pub optimal: Vec<u32>,
    /// Per linear grid index: the optimal (PIC) cost.
    pub opt_cost: Vec<f64>,
}

impl PlanDiagram {
    /// Build the diagram by optimizing at every grid point (the task is
    /// embarrassingly parallel): one DP step per grid point
    /// over one [`Sweep`], whose rows every worker reads. Output is
    /// identical for every worker count: each chunk's result is a pure
    /// function of its point range, chunks are merged back in grid order,
    /// and plans are numbered by first appearance in that order — exactly
    /// the sequential numbering. A chunk walks its points in grid order
    /// through one cursor, so a step that finds the previous step's winner
    /// again builds no tree.
    pub fn build_with(
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
        ess: &Ess,
        par: Parallelism,
    ) -> Self {
        Self::over(&Sweep::new(catalog, query, model, ess), par)
    }

    /// The diagram over `sweep`'s grid.
    pub(crate) fn over(sweep: &Sweep<'_>, par: Parallelism) -> Self {
        let ess = sweep.ess();
        let n = ess.num_points();
        // Small grids run serially: thread hand-off costs more than it saves.
        let par = par.for_grid(n);
        // Per chunk: its distinct plans by first appearance, and every
        // point's winner as an index into them and its cost.
        let chunks = run_chunked(par, n, |_, range| {
            let mut cursor = sweep.cursor();
            let mut plans: Vec<PhysicalPlan> = Vec::new();
            let mut ids: HashMap<PlanFingerprint, u32> = HashMap::new();
            let mut winners = Vec::with_capacity(range.len());
            let mut costs = Vec::with_capacity(range.len());
            // The previous step's winner; the first step always sets it.
            let mut winner = 0;
            let mut ix = ess.unlinear(range.start);
            for _ in range {
                let (plan, cost) = cursor.step(&ix);
                if let Some(plan) = plan {
                    winner = intern(&mut plans, &mut ids, plan);
                }
                winners.push(winner);
                costs.push(cost);
                ess.advance(&mut ix);
            }
            (plans, winners, costs)
        });

        // Merge in chunk (= grid) order: a chunk lists its plans by first
        // appearance, so numbering each chunk's new plans in that order
        // numbers all plans by first appearance on the grid.
        let mut plans: Vec<PhysicalPlan> = Vec::new();
        let mut ids: HashMap<PlanFingerprint, u32> = HashMap::new();
        let mut optimal = Vec::with_capacity(n);
        let mut opt_cost = Vec::with_capacity(n);
        for (chunk_plans, winners, costs) in chunks {
            let global: Vec<u32> = chunk_plans
                .into_iter()
                .map(|plan| intern(&mut plans, &mut ids, plan))
                .collect();
            optimal.extend(winners.into_iter().map(|w: u32| global[w as usize]));
            opt_cost.extend(costs);
        }
        PlanDiagram {
            ess: ess.clone(),
            plans,
            optimal,
            opt_cost,
        }
    }

    /// Number of distinct POSP plans.
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// Number of grid points owned by each plan.
    pub fn region_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.plans.len()];
        for &p in &self.optimal {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Minimum and maximum optimal cost over the grid — C_min and C_max of
    /// the PIC. By PCM these occur at the origin and terminus corners.
    pub fn cost_bounds(&self) -> (f64, f64) {
        let cmin = self.opt_cost[self.ess.linear(&self.ess.origin())];
        let cmax = self.opt_cost[self.ess.linear(&self.ess.terminus())];
        (cmin, cmax)
    }

    /// ASCII rendering of a 2D plan diagram: one letter per grid cell, row 0
    /// at the bottom (selectivities grow up and right, as in the paper's
    /// figures). Plans beyond 26 wrap through the alphabet.
    pub fn render_2d(&self) -> String {
        assert_eq!(self.ess.d(), 2, "render_2d requires a 2D diagram");
        let (rx, ry) = (self.ess.res[0], self.ess.res[1]);
        let mut out = String::new();
        for y in (0..ry).rev() {
            for x in 0..rx {
                let pid = self.optimal[self.ess.linear(&[x, y])] as usize;
                out.push((b'A' + (pid % 26) as u8) as char);
            }
            out.push('\n');
        }
        out
    }

    /// Cost of every plan at every grid point (row-major `[plan][point]`),
    /// computed in parallel: the input of whole-grid reductions and of the
    /// NAT / SEER / PARQO metrics. Identification itself never builds it —
    /// see [`cost_at_points`](Self::cost_at_points) and
    /// [`cost_rows_with`](Self::cost_rows_with).
    pub fn cost_matrix(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
    ) -> CostMatrix {
        self.cost_matrix_with(catalog, query, model, Parallelism::auto())
    }

    /// Cost matrix with an explicit worker policy: every POSP plan's row.
    pub fn cost_matrix_with(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
        par: Parallelism,
    ) -> CostMatrix {
        let all: Vec<PlanId> = (0..self.plans.len()).collect();
        self.cost_rows_with(catalog, query, model, &all, par)
    }

    /// Cost of the listed plans at every grid point: row `k` is plan
    /// `plans[k]`. The plans are compiled into one [`CostProgram`] that
    /// evaluates every sub-plan they share once, and each grid point
    /// evaluates that program once — the inner loop performs no allocation
    /// and no tree walk. Parallelism is gated on the plans × points cell
    /// count (the phase's work volume), not the grid size. A plan's row does
    /// not depend on which plans are compiled beside it, and every cell is
    /// bit-identical to the recursive tree-walk reference (pinned by this
    /// module's tests and `tests/compiled_cost.rs`).
    pub fn cost_rows_with(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
        plans: &[PlanId],
        par: Parallelism,
    ) -> CostMatrix {
        let roots = plans.iter().map(|&p| &self.plans[p].root);
        let prog = CostProgram::compile_set(catalog, query, model, roots);
        plan_set_matrix(&prog, &self.ess, par)
    }

    /// Cost of every POSP plan at the listed grid points only: a `plans ×
    /// points.len()` matrix whose column `j` is grid point `points[j]`
    /// (linear index; repeats allowed). This is what contour reduction
    /// reads — a few dozen frontier points a query, so it runs serially.
    /// Cells are bit-identical to [`cost_matrix_with`](Self::cost_matrix_with)'s.
    pub fn cost_at_points(
        &self,
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
        points: &[usize],
    ) -> CostMatrix {
        let m = points.len();
        let d = self.ess.d();
        let mut coords = Vec::with_capacity(m * d);
        let (mut ix, mut sel) = (Vec::new(), Vec::new());
        for &li in points {
            self.ess.unlinear_into(li, &mut ix);
            self.ess.point_into(&ix, &mut sel);
            coords.extend_from_slice(&sel);
        }
        let roots = self.plans.iter().map(|p| &p.root);
        let prog = CostProgram::compile_set(catalog, query, model, roots);
        let mut flat = vec![0.0; self.plans.len() * m];
        prog.eval_set_points(&coords, d, |p, j, cost| flat[p * m + j] = cost);
        CostMatrix::from_flat(m, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::{Coster, EssDim};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn setup_1d() -> (pb_catalog::Catalog, QuerySpec, CostModel, Ess) {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "eq");
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
        let ess = Ess::uniform(vec![EssDim::new("p_retailprice", 1e-4, 1.0)], 64);
        (cat.clone(), q, CostModel::postgresish(), ess)
    }

    #[test]
    fn diagram_has_multiple_posp_plans() {
        let (cat, q, m, ess) = setup_1d();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
        assert!(
            d.plan_count() >= 3,
            "1D EQ diagram should have several POSP plans, got {}",
            d.plan_count()
        );
        assert_eq!(d.optimal.len(), 64);
        assert_eq!(d.region_sizes().iter().sum::<usize>(), 64);
    }

    #[test]
    fn pic_is_monotone_1d() {
        let (cat, q, m, ess) = setup_1d();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
        for w in d.opt_cost.windows(2) {
            assert!(w[1] >= w[0] * (1.0 - 1e-9), "PIC not monotone: {w:?}");
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (cat, q, m, _) = setup_1d();
        // Large enough to clear the serial gate, so the chunks really differ.
        let ess = Ess::uniform(
            vec![EssDim::new("p_retailprice", 1e-4, 1.0)],
            pb_cost::PARALLEL_MIN_GRID + 5,
        );
        let a = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
        let b = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::new(4));
        assert_eq!(a.optimal, b.optimal);
        assert_eq!(a.opt_cost, b.opt_cost);
        let fps = |d: &PlanDiagram| d.plans.iter().map(|p| p.fingerprint()).collect::<Vec<_>>();
        assert_eq!(fps(&a), fps(&b));
    }

    #[test]
    fn cost_bounds_are_grid_extremes() {
        let (cat, q, m, ess) = setup_1d();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
        let (cmin, cmax) = d.cost_bounds();
        assert!(cmin > 0.0 && cmax > cmin);
        let lo = d.opt_cost.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = d.opt_cost.iter().cloned().fold(0.0, f64::max);
        assert!((cmin - lo).abs() < 1e-9 * lo);
        assert!((cmax - hi).abs() < 1e-9 * hi);
    }

    #[test]
    fn render_2d_shape_and_regions() {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "eq2");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        let q = qb.build();
        let ess = Ess::uniform(
            vec![EssDim::new("a", 1e-4, 1.0), EssDim::new("b", 1e-8, 5e-6)],
            12,
        );
        let d = PlanDiagram::build_with(
            &cat,
            &q,
            &CostModel::postgresish(),
            &ess,
            Parallelism::serial(),
        );
        let art = d.render_2d();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 12);
        assert!(lines.iter().all(|l| l.chars().count() == 12));
        // More than one plan letter appears.
        let letters: std::collections::BTreeSet<char> =
            art.chars().filter(|c| c.is_alphabetic()).collect();
        assert!(letters.len() >= 2, "{art}");
    }

    #[test]
    fn cost_matrix_diag_matches_opt_cost() {
        let (cat, q, m, ess) = setup_1d();
        let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
        let cm = d.cost_matrix(&cat, &q, &m);
        assert_eq!(cm.len(), d.plan_count());
        for li in 0..ess.num_points() {
            let pid = d.optimal[li] as usize;
            assert!(
                (cm[pid][li] - d.opt_cost[li]).abs() < 1e-6 * d.opt_cost[li],
                "matrix disagrees with diagram at point {li}"
            );
            // Optimality: no plan is cheaper than the diagram's optimum.
            for row in cm.rows() {
                assert!(row[li] >= d.opt_cost[li] * (1.0 - 1e-9));
            }
        }
    }

    /// Reference cost matrix via the recursive [`Coster`] tree walk
    /// (serial): what the compiled path is pinned against bit for bit.
    fn cost_matrix_reference(
        d: &PlanDiagram,
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
    ) -> CostMatrix {
        let c = Coster::new(catalog, query, model);
        let point = |li| d.ess.point(&d.ess.unlinear(li));
        let row = |plan: &PhysicalPlan| {
            (0..d.ess.num_points())
                .map(|li| c.plan_cost(&plan.root, &point(li)))
                .collect()
        };
        CostMatrix::from_rows(d.plans.iter().map(row).collect())
    }

    #[test]
    fn compiled_matrix_matches_tree_walk_bitwise() {
        let (cat, q, m, ess) = setup_1d();
        // 300 points run serially in eight chunks of 37 and one of 4: no
        // chunk is a whole number of evaluation blocks, whatever their width.
        let fine = Ess::uniform(ess.dims.clone(), 300);
        for ess in [ess, fine] {
            let d = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
            let compiled = d.cost_matrix_with(&cat, &q, &m, Parallelism::new(3));
            let reference = cost_matrix_reference(&d, &cat, &q, &m);
            assert_eq!(compiled.len(), reference.len());
            for (a, b) in compiled.as_flat().iter().zip(reference.as_flat()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
