//! Decision tables of the optimized driver.
//!
//! Everything the Figure 13 loop asks of a plan or a contour that does not
//! depend on the run — which error dimensions a plan applies and how deep,
//! which node is learnable under a `resolved` mask, where a contour's
//! frontier points sit on the grid — is derived once per bouquet, so a
//! decision only does the work that depends on `qrun`.

use pb_executor::MonitorTable;
use pb_plan::DimId;

use crate::bouquet::Bouquet;
use crate::contour::FrontierCoords;

/// Run-independent facts about one diagram plan.
#[derive(Debug, Clone)]
pub(crate) struct PlanFacts {
    /// Error dimensions the plan applies, ascending, each with the depth of
    /// its deepest applying node ([`pb_plan::PlanNode::error_dim_depth`],
    /// which finds a node for every dimension `error_dims` lists).
    pub dims: Vec<(DimId, usize)>,
    /// The plan's error-applying nodes for the monitored execution.
    pub monitor: MonitorTable,
}

impl PlanFacts {
    /// Depth of the deepest node applying an unresolved dimension (0 when
    /// every dimension of the plan is resolved) — the AxisPlans tie-break.
    pub fn deepest_unresolved(&self, resolved: &[bool]) -> usize {
        self.dims
            .iter()
            .filter(|&&(dm, _)| !resolved[dm])
            .map(|&(_, depth)| depth)
            .max()
            .unwrap_or(0)
    }

    pub fn has_unresolved(&self, resolved: &[bool]) -> bool {
        self.dims.iter().any(|&(dm, _)| !resolved[dm])
    }
}

/// Per-plan and per-contour tables, built lazily on first driver use and
/// never serialized (see [`Bouquet::driver_tables`]).
#[derive(Debug, Clone)]
pub(crate) struct DriverTables {
    /// Indexed by diagram plan id.
    pub plans: Vec<PlanFacts>,
    /// Indexed like [`Bouquet::contours`].
    pub frontiers: Vec<FrontierCoords>,
    /// Indexed by diagram plan id: the plan's row of [`Bouquet::costs`], for
    /// the plans the bouquet keeps.
    pub plan_row: Vec<Option<usize>>,
    /// Per contour, parallel to its `plan_set`: where each plan's row
    /// starts in the flat buffer of [`Bouquet::costs`].
    pub rows: Vec<Vec<usize>>,
    /// Linear-index distance of one grid step along each axis.
    pub strides: Vec<usize>,
}

impl DriverTables {
    pub fn build(b: &Bouquet) -> Self {
        let query = &b.workload.query;
        let ess = &b.workload.ess;
        let plans = b
            .diagram
            .plans
            .iter()
            .map(|p| PlanFacts {
                dims: p
                    .root
                    .error_dims(query)
                    .into_iter()
                    .filter_map(|dm| Some((dm, p.root.error_dim_depth(query, dm)?)))
                    .collect(),
                monitor: MonitorTable::build(&p.root, query),
            })
            .collect();
        let frontiers = b
            .contours
            .iter()
            .map(|c| FrontierCoords::new(ess, &c.points))
            .collect();
        let mut plan_row = vec![None; b.diagram.plans.len()];
        for (row, plan) in b.plan_ids().into_iter().enumerate() {
            plan_row[plan] = Some(row);
        }
        let rows = b
            .contours
            .iter()
            .map(|c| {
                let starts = c.plan_set.iter().filter_map(|&p| plan_row[p]);
                starts.map(|row| row * ess.num_points()).collect()
            })
            .collect();
        DriverTables {
            plans,
            frontiers,
            plan_row,
            rows,
            strides: ess.strides(),
        }
    }
}
