//! # plan-bouquet
//!
//! A full-system Rust reproduction of **"Plan Bouquets: Query Processing
//! without Selectivity Estimation"** (Anshuman Dutt and Jayant R. Haritsa,
//! SIGMOD 2014).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`catalog`] — synthetic TPC-H / TPC-DS statistics catalogs.
//! * [`plan`] — query specifications, join graphs, physical plan trees.
//! * [`cost`] — cost models with first-class selectivity injection.
//! * [`optimizer`] — dynamic-programming optimizer, POSP generation,
//!   plan diagrams and anorexic reduction.
//! * [`executor`] — cost-unit budgeted execution simulation.
//! * [`faults`] — typed error taxonomy and deterministic seeded fault
//!   injection for chaos testing the run-time stack.
//! * [`engine`] — vectorized, morsel-parallel engine over generated data,
//!   with budgets, tuple counters and checkpoint/resume.
//! * [`bouquet`] — the paper's contribution: isocost contours, bouquet
//!   identification, run-time drivers, robustness metrics and theory bounds.
//! * [`workloads`] — the paper's benchmark error spaces (Table 2).
//!
//! ## Quickstart
//!
//! ```
//! use plan_bouquet::workloads;
//! use plan_bouquet::bouquet::{Bouquet, BouquetConfig, ExecutionOutcome};
//!
//! // The paper's 1D introductory example (Figures 1-4).
//! let w = workloads::eq_1d();
//! let bouquet = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
//!
//! // Run the bouquet at a "true" selectivity the optimizer never sees.
//! let qa = w.ess.point_at_fractions(&[0.7]);
//! let outcome = bouquet.run_basic(&qa).unwrap();
//! assert!(matches!(outcome.outcome, ExecutionOutcome::Completed { .. }));
//! // The worst-case guarantee of Theorem 3 holds at every location.
//! assert!(outcome.suboptimality(bouquet.pic_cost(&qa)) <= bouquet.mso_bound());
//! ```

pub use pb_bouquet as bouquet;
pub use pb_catalog as catalog;
pub use pb_cost as cost;
pub use pb_engine as engine;
pub use pb_executor as executor;
pub use pb_faults as faults;
pub use pb_optimizer as optimizer;
pub use pb_plan as plan;
pub use pb_workloads as workloads;
