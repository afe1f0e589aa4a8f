//! Execution engine over generated in-memory data.
//!
//! The cost-unit simulator (`pb-executor`) is sufficient for the paper's
//! grid metrics, which are defined in optimizer cost units. This crate goes
//! further and validates the run-time machinery end to end on real tuples
//! (the paper's Section 6.7 experiment): it generates data conforming to the
//! catalog statistics — with optional *correlation overrides* that
//! manufacture the AVI estimation errors the experiment needs — and executes
//! physical plans with:
//!
//! * per-node tuple counters (PostgreSQL `Instrumentation` analogue),
//! * cost-limited execution: work is charged in the optimizer's cost units
//!   and the run aborts mid-operator once the budget is exhausted,
//! * spill directives that count and discard an error node's output,
//! * observed-selectivity extraction from the counters (Section 5.2).
//!
//! One executor: [`Engine::execute`] (and [`Engine::execute_with_faults`],
//! [`Engine::execute_resumable`]) runs the vectorized columnar engine
//! ([`vec_exec`]), morsel-parallel above the dispatch gate. Its unit tests
//! compare it against a tuple-at-a-time interpreter (`oracle`, compiled for
//! tests only) charging the same budget ledger ([`ledger`]): outcomes —
//! cost, rows, instrumentation, and abort point under finite budgets — are
//! bit-identical.

pub mod data;
pub mod exec;
mod ledger;
mod lookup;
mod morsel;
#[cfg(test)]
mod oracle;
mod vec_exec;

pub use data::{ColumnOverride, Database, Index, TableData};
pub use exec::{Engine, EngineOutcome, Instrumentation, NodeStats};
pub use vec_exec::{ResumeBook, Snapshot};
