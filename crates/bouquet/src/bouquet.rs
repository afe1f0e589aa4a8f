//! Bouquet identification — the compile-time pipeline of Figure 8.
//!
//! Steps: build the plan diagram over the ESS (POSP + PIC) → slice the PIC
//! with a geometric isocost grading → take the frontier of each isocost step
//! → cost every POSP plan *at the frontier points* (the slab) →
//! anorexically reduce each contour's plan set → the union of contour plans
//! is the bouquet → cost *the bouquet's plans* over the grid (the rows the
//! optimized driver reads along its axis walks). The bouquet, the
//! (λ-inflated) budgets and those rows go to the run-time drivers. A POSP ×
//! grid matrix is never built here: what needs one — the NAT / SEER / PARQO
//! columns, whole-diagram reductions — asks the diagram for it
//! ([`PlanDiagram::cost_matrix_with`]).

use std::time::{Duration, Instant};

use pb_cost::{CostMatrix, CostPerturbation, CostProgram, Parallelism, SelPoint};
use pb_faults::PbError;
use pb_optimizer::{PlanDiagram, PlanId};
use pb_plan::PhysicalPlan;

use crate::contour::{plan_union, rho, Contour};
use crate::drivers::tables::DriverTables;
use crate::grading::IsoCostGrading;
use crate::workload::Workload;

/// Tunables of the bouquet mechanism.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BouquetConfig {
    /// Anorexic-reduction threshold λ (paper default 20%).
    pub lambda: f64,
    /// Isocost common ratio r (Theorem 1's optimum is 2).
    pub r: f64,
    /// Bounded model-error adversary (δ-framework, Section 3.4);
    /// `CostPerturbation::none()` for the perfect-model setting.
    pub perturbation: CostPerturbation,
}

impl Default for BouquetConfig {
    fn default() -> Self {
        BouquetConfig {
            lambda: 0.2,
            r: 2.0,
            perturbation: CostPerturbation::none(),
        }
    }
}

/// Compile-time effort and outcome statistics (Section 6.1).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CompileStats {
    /// Optimizer invocations for the exhaustive diagram (= grid size).
    pub exhaustive_optimizer_calls: usize,
    /// Distinct POSP plans over the full grid.
    pub posp_cardinality: usize,
    /// Distinct plans in the bouquet (union over contours).
    pub bouquet_cardinality: usize,
    /// Densest contour's plan count *before* anorexic reduction.
    pub rho_posp: usize,
    /// Densest contour's plan count after anorexic reduction (the ρ of
    /// Theorem 3).
    pub rho: usize,
    /// Number of isocost steps m.
    pub num_contours: usize,
    /// PIC extremes.
    pub cmin: f64,
    pub cmax: f64,
}

/// Wall-clock breakdown of one identification run. Kept outside
/// [`CompileStats`] (and unserialized) so that timing jitter can never leak
/// into persisted artefacts — parallel and sequential runs must produce
/// byte-identical serializations.
#[derive(Debug, Clone)]
pub struct PhaseTimings {
    /// Workers the run was configured with.
    pub workers: usize,
    /// Plan-diagram construction (exhaustive optimization over the grid).
    pub diagram: Duration,
    /// Abstract-plan recosting: every POSP plan at the frontier points, then
    /// the bouquet's plans over the grid.
    pub cost_matrix: Duration,
    /// Grading, frontier pass and anorexic reduction over all isocost steps.
    pub contours: Duration,
    /// End-to-end identification time.
    pub total: Duration,
}

/// A compiled plan bouquet, ready for run-time discovery.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Bouquet {
    pub workload: Workload,
    pub diagram: PlanDiagram,
    /// The bouquet plans' costs over the grid, one row per plan of
    /// [`plan_ids`](Self::plan_ids) in that order: `costs[k][linear_point]`
    /// is plan `plan_ids()[k]`'s. Look a plan up with
    /// [`cost_row`](Self::cost_row); POSP plans the bouquet does not keep
    /// have no row.
    pub costs: CostMatrix,
    pub grading: IsoCostGrading,
    pub contours: Vec<Contour>,
    pub config: BouquetConfig,
    pub stats: CompileStats,
    /// Compiled cost programs, one per diagram plan, built lazily on first
    /// use. Never serialized — recompiled on demand after a reload.
    #[serde(skip)]
    pub(crate) programs: std::sync::OnceLock<Vec<CostProgram>>,
    /// The optimized driver's decision tables, built lazily on its first
    /// run. Never serialized — derived again on demand after a reload.
    #[serde(skip)]
    pub(crate) tables: std::sync::OnceLock<DriverTables>,
}

impl Bouquet {
    /// Run the full compile-time pipeline for a workload, using all
    /// available cores (or the `--jobs` override).
    pub fn identify(w: &Workload, cfg: &BouquetConfig) -> Result<Bouquet, PbError> {
        Self::identify_with(w, cfg, Parallelism::auto())
    }

    /// Identification with an explicit worker policy. Any worker count
    /// produces an identical bouquet — parallel phases merge in
    /// deterministic grid/step order.
    pub fn identify_with(
        w: &Workload,
        cfg: &BouquetConfig,
        par: Parallelism,
    ) -> Result<Bouquet, PbError> {
        Self::identify_timed(w, cfg, par).map(|(b, _)| b)
    }

    /// Identification returning the per-phase wall-clock breakdown next to
    /// the bouquet (timings stay outside the serialized artefact): the
    /// diagram, isocost grading, the frontier pass (which also checks PCM),
    /// the slab, contour assembly, the bouquet's rows, and stats.
    pub fn identify_timed(
        w: &Workload,
        cfg: &BouquetConfig,
        par: Parallelism,
    ) -> Result<(Bouquet, PhaseTimings), PbError> {
        validate_config(cfg)?;
        let t_start = Instant::now();
        let diagram = PlanDiagram::build_with(&w.catalog, &w.query, &w.model, &w.ess, par);
        let t_diagram = t_start.elapsed();

        let (cmin, cmax) = diagram.cost_bounds();
        if cmax < cmin {
            // No grading spans corners this way round; the pass names the
            // point where the PIC turns down.
            Contour::frontiers(&diagram, &[])?;
            return Err(PbError::Identification(format!(
                "PIC violates Plan Cost Monotonicity: C_max {cmax} < C_min {cmin}"
            )));
        }
        let grading = IsoCostGrading::geometric(cmin, cmax, cfg.r);
        let frontiers = Contour::frontiers(&diagram, &grading.steps)?;

        // ρ before reduction: distinct optimal plans per frontier.
        let rho_posp = frontiers
            .iter()
            .map(|f| {
                let mut plans: Vec<u32> = f.iter().map(|&li| diagram.optimal[li]).collect();
                plans.sort_unstable();
                plans.dedup();
                plans.len()
            })
            .max()
            .unwrap_or(0);

        // The slab: every POSP plan at the frontier points, step after step
        // (`slab[plan][starts[k] + pos]` is the plan at `frontiers[k][pos]`)
        // — all the plan costs contour reduction reads.
        let t0 = Instant::now();
        let (mut at, mut starts) = (Vec::new(), Vec::new());
        for f in &frontiers {
            starts.push(at.len());
            at.extend_from_slice(f);
        }
        let slab = diagram.cost_at_points(&w.catalog, &w.query, &w.model, &at);
        let t_slab = t0.elapsed();

        let contours: Vec<Contour> = (frontiers.into_iter().zip(starts))
            .zip(&grading.steps)
            .enumerate()
            .map(|(k, ((points, start), &step_cost))| {
                let cost = |plan: PlanId, pos: usize| slab[plan][start + pos];
                Contour::assemble(&diagram, cfg.lambda, k, step_cost, points, cost)
            })
            .collect();

        // The rows: the bouquet's plans over the grid.
        let t0 = Instant::now();
        let bouquet_plans = plan_union(&contours);
        let costs = diagram.cost_rows_with(&w.catalog, &w.query, &w.model, &bouquet_plans, par);
        let t_cost_matrix = t_slab + t0.elapsed();

        let stats = CompileStats {
            exhaustive_optimizer_calls: w.ess.num_points(),
            posp_cardinality: diagram.plan_count(),
            bouquet_cardinality: bouquet_plans.len(),
            rho_posp,
            rho: rho(&contours),
            num_contours: contours.len(),
            cmin,
            cmax,
        };
        let bouquet = Bouquet {
            workload: w.clone(),
            diagram,
            costs,
            grading,
            contours,
            config: cfg.clone(),
            stats,
            programs: std::sync::OnceLock::new(),
            tables: std::sync::OnceLock::new(),
        };
        // Whatever was neither diagram nor costing is the contour phase.
        let total = t_start.elapsed();
        let timings = PhaseTimings {
            workers: par.workers,
            diagram: t_diagram,
            cost_matrix: t_cost_matrix,
            contours: total - t_diagram - t_cost_matrix,
            total,
        };
        Ok((bouquet, timings))
    }

    /// Compiled cost programs for every diagram plan (indexed by [`PlanId`]),
    /// built once on first use. The run-time drivers re-cost pool plans at
    /// every budget step; evaluating the flat programs avoids re-walking the
    /// plan trees on each probe.
    pub fn programs(&self) -> &[CostProgram] {
        self.programs.get_or_init(|| {
            self.diagram
                .plans
                .iter()
                .map(|p| {
                    CostProgram::compile(
                        &self.workload.catalog,
                        &self.workload.query,
                        &self.workload.model,
                        &p.root,
                    )
                })
                .collect()
        })
    }

    /// Per-plan and per-contour decision tables of the optimized driver and
    /// its monitored executions, built once on first use.
    pub(crate) fn driver_tables(&self) -> &DriverTables {
        self.tables.get_or_init(|| DriverTables::build(self))
    }

    /// The bouquet plan set: union of contour plan sets (diagram plan ids),
    /// ascending.
    pub fn plan_ids(&self) -> Vec<PlanId> {
        plan_union(&self.contours)
    }

    /// Bouquet plan `plan`'s cost at every grid point — its row of
    /// [`costs`](Self::costs) — or `None` for a plan the bouquet does not
    /// keep.
    pub fn cost_row(&self, plan: PlanId) -> Option<&[f64]> {
        let row = (*self.driver_tables().plan_row.get(plan)?)?;
        Some(self.costs.row(row))
    }

    pub fn plan(&self, id: PlanId) -> &PhysicalPlan {
        &self.diagram.plans[id]
    }

    /// Maximum contour plan density ρ.
    pub fn rho(&self) -> usize {
        self.stats.rho
    }

    /// The deterministic worst-case guarantee of Theorem 3 with the anorexic
    /// correction of Section 3.3: `MSO ≤ (1+λ) · ρ · r² / (r−1)`.
    pub fn mso_bound(&self) -> f64 {
        crate::theory::mso_bound_anorexic(self.rho(), self.config.r, self.config.lambda)
    }

    /// PIC (optimal) cost at a grid point given by linear index.
    pub fn pic_cost_at(&self, li: usize) -> f64 {
        self.diagram.opt_cost[li]
    }

    /// PIC cost at an arbitrary location (snapped down to the grid when
    /// off-grid, which under-estimates — the conservative direction).
    pub fn pic_cost(&self, q: &SelPoint) -> f64 {
        let ix = self.workload.ess.snap_floor(q);
        self.diagram.opt_cost[self.workload.ess.linear(&ix)]
    }
}

pub(crate) fn validate_config(cfg: &BouquetConfig) -> Result<(), PbError> {
    if cfg.lambda < 0.0 {
        return Err(PbError::InvalidConfig("lambda must be non-negative".into()));
    }
    if cfg.r <= 1.0 {
        return Err(PbError::InvalidConfig(
            "isocost ratio r must exceed 1".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn identify_produces_consistent_bouquet() {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        assert!(b.stats.num_contours >= 2);
        assert!(b.stats.bouquet_cardinality >= 2);
        assert!(b.stats.bouquet_cardinality <= b.stats.posp_cardinality);
        assert!(b.stats.rho <= b.stats.rho_posp);
        assert_eq!(b.plan_ids().len(), b.stats.bouquet_cardinality);
        // 1D contours hold exactly one frontier point each.
        for c in &b.contours {
            assert_eq!(c.points.len(), 1, "1D contour must be a single point");
            assert_eq!(c.density(), 1);
        }
    }

    #[test]
    fn one_dim_rho_is_one_so_bound_is_anorexic_four() {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        assert_eq!(b.rho(), 1);
        assert!((b.mso_bound() - 4.8).abs() < 1e-9); // 4 · (1 + 0.2)
    }

    #[test]
    fn bad_config_rejected() {
        let w = eq_1d();
        assert!(Bouquet::identify(
            &w,
            &BouquetConfig {
                lambda: -0.1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(Bouquet::identify(
            &w,
            &BouquetConfig {
                r: 1.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn pic_cost_lookup_matches_diagram() {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        for li in (0..w.ess.num_points()).step_by(5) {
            let q = w.ess.point(&w.ess.unlinear(li));
            assert!((b.pic_cost(&q) - b.pic_cost_at(li)).abs() < 1e-9 * b.pic_cost_at(li));
        }
    }
}
