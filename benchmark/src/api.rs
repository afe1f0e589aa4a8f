//! Every product symbol the benchmark touches, named in one place.
//!
//! The benchmark measures the layers from outside, through their public
//! functions only. When a later change renames or reshapes one of them
//! (ROADMAP item 2 collapses the driver entry points, for one), this is the
//! only file that has to follow.

pub use pb_bouquet::persist::to_json as bouquet_to_json;
pub use pb_bouquet::{
    measure_qa, Bouquet, BouquetCache, BouquetConfig, BouquetRun, CacheOutcome, EngineSubstrate,
    ExecutionSubstrate, ResumeStats, RobustConfig, SimulatorSubstrate, SubstrateOutcome, Workload,
};
pub use pb_catalog::{tpcds, tpch, Catalog};
pub use pb_cost::{Estimator, Parallelism, SelPoint};
pub use pb_engine::{ColumnOverride, Database, Engine, EngineOutcome};
pub use pb_faults::FaultInjector;
pub use pb_optimizer::{PlanDiagram, PlanId};
pub use pb_plan::PlanNode;
pub use pb_server::{
    PbClient, PbServer, QueryResult, ReqPhase, Request, Response, ServerConfig, ServerStats,
};
pub use pb_workloads::{
    by_name, h_q8a_2d, hostile_anti_2d, hostile_ineq_2d, random_workload, workload_from_sql,
    RandomConfig,
};
