//! The four workloads. Each stresses different layers; see `README.md`.

pub mod compile;
pub mod exec_engine;
pub mod exec_grid;
pub mod serve;
