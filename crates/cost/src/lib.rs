//! Cost models with first-class selectivity injection.
//!
//! The plan-bouquet technique consumes the database engine through exactly
//! two costing interfaces (paper, Section 5.4):
//!
//! 1. **Selectivity injection** — optimize / cost a query with *chosen*
//!    values for the error-prone selectivities instead of estimated ones.
//!    Here every error-prone predicate carries a dimension id and the
//!    [`SelPoint`] supplies its value, so injection is the default mode of
//!    operation rather than a patch.
//! 2. **Abstract plan costing** — re-cost a fixed plan tree at an arbitrary
//!    location of the error-prone selectivity space ([`CostProgram`]: the
//!    plan compiled once, evaluated at any location, every subtree's cost
//!    captured on request). [`Coster`] is the tree-walk reference it is
//!    tested against; no product code calls it.
//!
//! The operator cost formulas are deliberately textbook (a PostgreSQL-flavour
//! personality and a "commercial" personality with different constants). What
//! matters for the reproduction is not the constants but the structural
//! properties the paper relies on:
//!
//! * **Plan Cost Monotonicity (PCM)**: every operator cost is monotone
//!   non-decreasing in every input cardinality, hence plan costs are monotone
//!   in every ESS dimension (property-tested here and in `pb-optimizer`).
//! * **Plan diversity**: different regions of the selectivity space favour
//!   different operators (index nested-loops at low selectivity, hash joins
//!   at high), which is what gives the POSP its multi-plan structure.

pub mod coster;
pub mod ess;
pub mod estimator;
pub mod formulas;
pub mod matrix;
pub mod model_error;
pub mod parallel;
pub mod params;
pub mod program;
pub mod sample;
pub mod uncertainty;

pub use coster::{Coster, NodeCost};
pub use ess::{Ess, EssDim, GridIx, SelPoint};
pub use estimator::Estimator;
pub use matrix::CostMatrix;
pub use model_error::CostPerturbation;
pub use parallel::{
    chunk_len, par_map, run_chunked, set_default_workers, Parallelism, PARALLEL_MIN_GRID,
    PARALLEL_MIN_MATRIX_CELLS, PARALLEL_MIN_MORSEL_ROWS,
};
pub use params::{CostModel, CostParams};
pub use pb_plan::DimKind;
pub use program::{CostProgram, NodeCosts};
pub use sample::SplitMix64;
