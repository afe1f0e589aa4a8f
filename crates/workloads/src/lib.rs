//! The paper's benchmark error-selectivity spaces (Table 2), as SQL text.
//!
//! Queries are named `xD_y_Qz`: `x` error-prone dimensions, `y` the
//! benchmark (H = TPC-H at 1 GB, DS = TPC-DS at 100 GB), `z` the benchmark
//! query number. Each space is one SQL string in the [`registry`], parsed by
//! [`workload_from_sql`]: it reproduces the paper's join-graph geometry
//! (chain / star / branch with the stated relation count) and marks the
//! same number of error-prone join selectivities with `?`; the ESS ranges
//! are calibrated so the cost gradient C_max/C_min is in the neighbourhood
//! of the paper's Table 2 values.
//!
//! Also registered: the 1D introductory example `EQ_1D` (Figures 1–4), the
//! run-time experiment query `2D_H_Q8A` (Table 3), the commercial-engine
//! variants `3D_H_Q5B` / `4D_H_Q8B` whose error dimensions are selection
//! predicates (Section 6.8), the PCM-violating `ANTI_2D`, and the hostile
//! typed-dimension spaces `HOSTILE_INEQ_2D` / `HOSTILE_ANTI_2D`
//! (inequality-join and flipped anti-join axes).

pub mod from_sql;
pub mod random;
pub mod registry;

pub use from_sql::{derive_ess, workload_from_sql};
pub use random::{random_workload, RandomConfig};
pub use registry::{
    benchmark_suite, by_name, h_q8a_2d, hostile_anti_2d, hostile_ineq_2d, specs, sql_texts,
    WorkloadSpec,
};
