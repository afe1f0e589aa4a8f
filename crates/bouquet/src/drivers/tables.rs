//! Decision tables of the optimized driver.
//!
//! Everything the Figure 13 loop asks of a plan or a contour that does not
//! depend on the run — which node is learnable under a `resolved` mask and
//! how deep the unresolved error nodes sit (the plan's [`MonitorTable`]),
//! where a contour's frontier points sit on the grid — is derived once per
//! bouquet, so a decision only does the work that depends on `qrun`.

use pb_executor::MonitorTable;

use crate::bouquet::Bouquet;
use crate::contour::FrontierCoords;

/// Per-plan and per-contour tables, built lazily on first driver use and
/// never serialized (see [`Bouquet::driver_tables`]).
#[derive(Debug, Clone)]
pub(crate) struct DriverTables {
    /// Indexed by diagram plan id: the plan's error sites.
    pub plans: Vec<MonitorTable>,
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
    /// The mask with every dimension resolved: under it no plan has a
    /// learnable node, so a monitored execution is a plain one.
    pub all_resolved: Vec<bool>,
}

impl DriverTables {
    pub fn build(b: &Bouquet) -> Self {
        let query = &b.workload.query;
        let ess = &b.workload.ess;
        let plans = b
            .diagram
            .plans
            .iter()
            .map(|p| MonitorTable::build(&p.root, query))
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
            all_resolved: vec![true; ess.d()],
        }
    }
}
