//! Plan bouquets — the paper's core contribution.
//!
//! Compile time (Section 4): the error-prone selectivity space (ESS) is
//! explored to obtain the POSP infimum curve (PIC), which is discretized by a
//! geometric progression of isocost (IC) steps; the POSP plans lying on each
//! IC contour, thinned by anorexic reduction, form the *plan bouquet*.
//!
//! Run time (Section 5): the true query location is discovered through a
//! calibrated sequence of cost-limited executions of bouquet plans — the
//! basic driver of Figure 7 and the optimized driver of Figure 13 (qrun
//! tracking, AxisPlans selection, spill-based learning, early contour
//! change).
//!
//! Analysis (Sections 2–3): worst/average sub-optimality metrics (MSO, ASO,
//! MaxHarm), the native-optimizer and SEER baselines, and the theoretical
//! guarantees (MSO ≤ ρ·r²/(r−1), minimized at r = 2).

pub mod baselines;
pub mod bouquet;
pub mod cache;
pub mod contour;
pub mod dim_analysis;
pub mod drivers;
pub mod eval;
pub mod flip;
pub mod grading;
pub mod metrics;
pub mod persist;
pub mod substrate;
pub mod theory;
pub mod workload;

pub use bouquet::{Bouquet, BouquetConfig, CompileStats, PhaseTimings};
pub use cache::{BouquetCache, CacheKey, CacheOutcome, IncrementalIdentifyStats};
pub use contour::Contour;
pub use drivers::robust::{RobustConfig, RobustEvent, RobustRun};
pub use drivers::{BouquetRun, ExecutionOutcome, PartialExec};
pub use eval::WorkloadEvaluation;
pub use grading::IsoCostGrading;
pub use metrics::{MetricsSummary, RobustnessDistribution};
pub use substrate::{
    measure_qa, EngineSubstrate, ExecutionSubstrate, ResumeState, ResumeStats, SimulatorSubstrate,
    SubstrateOutcome,
};
pub use workload::Workload;
