//! Run-time discovery.
//!
//! A run is a substrate and a configuration: [`Bouquet::run`] (in
//! [`robust`]) owns the one discovery loop — grant, execute, charge, record,
//! monitor, recover — and drives one of the paper's two policies through it:
//!
//! * [`basic`] — Figure 7: every plan of every contour, in order, until one
//!   completes.
//! * [`optimized`] — Figure 13: selectivity monitoring (qrun), AxisPlans
//!   plan selection, spill-based learning, first-quadrant pruning and early
//!   contour changes.
//!
//! Both are fully deterministic: the sequence of partial executions for a
//! given (query, qa) never depends on optimizer estimates or database
//! statistics — the repeatability property the paper highlights.

pub mod basic;
pub mod optimized;
pub mod robust;
pub(crate) mod tables;

use pb_cost::SelPoint;
use pb_faults::{FaultInjector, PbError};
use pb_optimizer::PlanId;
use pb_plan::DimId;
use serde::{Deserialize, Serialize};

use crate::bouquet::Bouquet;
use crate::contour::Contour;
use crate::drivers::robust::{RobustConfig, RobustRun};
use crate::substrate::{ExecutionSubstrate, ResumeStats, SimulatorSubstrate};

/// Safety valve: overflow contours beyond the grading (only reachable under
/// model error). 64 doublings is far beyond any bounded δ.
pub(crate) const MAX_OVERFLOW: usize = 64;

impl Bouquet {
    /// Run the basic (Figure 7) policy at true location `qa` on the
    /// cost-unit simulator, with the plain settings.
    pub fn run_basic(&self, qa: &SelPoint) -> Result<BouquetRun, PbError> {
        let mut sub = SimulatorSubstrate::new(self, qa, FaultInjector::none())?;
        Ok(self.run(&mut sub, &RobustConfig::plain(false))?.run)
    }

    /// Run the optimized (Figure 13) policy at true location `qa` on the
    /// cost-unit simulator, with the plain settings.
    pub fn run_optimized(&self, qa: &SelPoint) -> Result<BouquetRun, PbError> {
        let mut sub = SimulatorSubstrate::new(self, qa, FaultInjector::none())?;
        Ok(self.run(&mut sub, &RobustConfig::plain(true))?.run)
    }

    /// Rung `k` (0-based) of the contour schedule: its contour, the contour
    /// number the trace records, and the factor on the contour's budget and
    /// step cost. Past the grading — reached only when model error (δ > 0)
    /// lifts actual costs over every modeled budget — the last contour
    /// repeats at ratio r: the `(1+δ)²` inflation bound of Section 3.4.
    pub(crate) fn rung(&self, k: usize) -> (&Contour, usize, f64) {
        match self.contours.get(k) {
            Some(c) => (c, c.id, 1.0),
            None => {
                let m = self.contours.len();
                let f = self.config.r.powi((k - m + 1) as i32);
                (&self.contours[m - 1], k + 1, f)
            }
        }
    }
}

/// What `benchmark/` calls by name, until a `benchmark` PR (the only kind
/// that may edit it, ROADMAP item 1(c)) moves it to [`Bouquet::run`].
impl Bouquet {
    #[doc(hidden)]
    pub fn run_basic_on<S: ExecutionSubstrate>(&self, sub: &mut S) -> Result<BouquetRun, PbError> {
        Ok(self.run(sub, &RobustConfig::plain(false))?.run)
    }

    #[doc(hidden)]
    pub fn run_optimized_on<S: ExecutionSubstrate>(
        &self,
        sub: &mut S,
    ) -> Result<BouquetRun, PbError> {
        Ok(self.run(sub, &RobustConfig::plain(true))?.run)
    }

    #[doc(hidden)]
    pub fn run_robust_on<S: ExecutionSubstrate>(
        &self,
        sub: &mut S,
        cfg: &RobustConfig,
    ) -> Result<RobustRun, PbError> {
        self.run(sub, cfg)
    }

    #[doc(hidden)]
    pub fn run_basic_resumable_on<S: ExecutionSubstrate>(
        &self,
        sub: &mut S,
    ) -> Result<(BouquetRun, ResumeStats), PbError> {
        sub.enable_checkpoint_resume();
        Ok((self.run_basic_on(sub)?, sub.resume_stats()))
    }
}

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
    /// Whether the spill directive was applied (Figure 13 only).
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
    /// Bouquet discovery was abandoned (persistent faults, accounting-monitor
    /// violations or the spend cap) and a single native-optimizer plan, run
    /// on what the cap left or without a budget, produced the result.
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

    /// The query produced its result — via bouquet discovery or via the
    /// degraded single-plan fallback.
    pub fn completed(&self) -> bool {
        matches!(
            self.outcome,
            ExecutionOutcome::Completed { .. } | ExecutionOutcome::Degraded { .. }
        )
    }
}
