//! Run-time discovery drivers.
//!
//! * [`basic`] — Figure 7: sequential cost-limited executions of every plan
//!   on every contour until one completes.
//! * [`optimized`] — Figure 13: selectivity monitoring (qrun), AxisPlans
//!   plan selection, spill-based learning, first-quadrant pruning and early
//!   contour changes.
//!
//! Both drivers are fully deterministic: the sequence of partial executions
//! for a given (query, qa) never depends on optimizer estimates or database
//! statistics — the repeatability property the paper highlights.

pub mod basic;
pub mod optimized;
pub mod robust;
pub(crate) mod tables;

use pb_faults::PbError;
use pb_optimizer::PlanId;
use pb_plan::DimId;
use serde::{Deserialize, Serialize};

/// One cost-limited (partial or final) plan execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialExec {
    /// Contour number (1-based; values beyond the grading length denote
    /// overflow contours used only under model error; 0 marks a degraded
    /// native-optimizer execution outside the contour schedule).
    pub contour: usize,
    /// Diagram plan id of the executed plan.
    pub plan: PlanId,
    /// Cost budget granted to this execution.
    pub budget: f64,
    /// Cost actually consumed (= budget if aborted).
    pub spent: f64,
    pub completed: bool,
    /// Whether the spill directive was applied (optimized driver only).
    pub spilled: bool,
    /// Selectivity lower bound learned, if any: `(dim, value)`.
    pub learned: Option<(DimId, f64)>,
    /// Fault that killed this execution, if any (the spend above was still
    /// wasted and is charged to the run).
    #[serde(default)]
    pub error: Option<PbError>,
}

/// Terminal state of a bouquet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecutionOutcome {
    /// The query completed; `final_plan` produced the result.
    Completed { final_plan: PlanId, final_cost: f64 },
    /// Every contour budget, including all `MAX_OVERFLOW` geometric
    /// doublings past the grading, was exhausted without a completion.
    /// Reachable only when actual costs exceed every modeled budget (qa
    /// outside the ESS, or unbounded cost-model error / injected faults).
    BudgetExhausted { contours_tried: usize },
    /// The robust driver abandoned bouquet discovery (persistent faults or
    /// accounting-monitor violations) and fell back to a single
    /// native-optimizer plan executed without a budget.
    Degraded { final_plan: PlanId, final_cost: f64 },
    /// The run was cooperatively cancelled (client cancel or deadline)
    /// before reaching any other terminal state. Spend up to the
    /// cancellation point stays charged; checkpoints captured before the
    /// trip survive, so a resubmitted run resumes instead of restarting.
    Cancelled { contours_tried: usize },
}

/// A complete bouquet run: the execution trace and its total cost
/// (conservative accounting — every aborted execution's work is wasted,
/// intermediate results are jettisoned as in the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BouquetRun {
    pub trace: Vec<PartialExec>,
    pub total_cost: f64,
    pub outcome: ExecutionOutcome,
}

impl BouquetRun {
    /// SubOpt(∗, qa) = total bouquet cost / optimal cost at qa (Section 2).
    pub fn suboptimality(&self, optimal_cost: f64) -> f64 {
        self.total_cost / optimal_cost
    }

    /// Number of executions that did not complete the query.
    pub fn num_partial_executions(&self) -> usize {
        self.trace.iter().filter(|e| !e.completed).count()
    }

    /// Highest contour reached.
    pub fn contours_crossed(&self) -> usize {
        self.trace.iter().map(|e| e.contour).max().unwrap_or(0)
    }

    /// The query produced its result — via bouquet discovery or, for the
    /// robust driver, via the degraded single-plan fallback.
    pub fn completed(&self) -> bool {
        matches!(
            self.outcome,
            ExecutionOutcome::Completed { .. } | ExecutionOutcome::Degraded { .. }
        )
    }
}
