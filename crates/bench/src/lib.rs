//! Benchmark/reproduction harness library.
//!
//! Shared by the `repro` binary (which regenerates every table and figure
//! of the paper) and `pbq`: the typed flag table, the `pbq` subcommands,
//! the chaos campaign, table rendering, and the engine-backed bouquet
//! driver used for the Table 3 run-time experiment.

pub mod calibration;
pub mod chaos;
pub mod cmd;
pub mod engine_driver;
pub mod flags;
pub mod table;

pub use engine_driver::{engine_run_bouquet, engine_run_nat, EngineRunReport};
pub use table::Table;

pub mod experiments;
