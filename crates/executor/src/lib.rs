//! Cost-limited execution simulation with selectivity learning.
//!
//! The paper's run-time machinery needs three engine features (Section 5.4):
//! cost-limited partial execution of plans, spill-mode execution (break the
//! pipeline above the first error node and discard its output), and
//! selectivity monitoring through node tuple counters. This crate simulates
//! all three in optimizer cost units:
//!
//! * A plan's **actual** execution cost at the true location `qa` is its
//!   modeled cost — read off the plan's compiled `CostProgram` — optionally
//!   perturbed by a bounded model-error factor (`δ`-framework of Section
//!   3.4).
//! * A **budgeted execution** completes iff the actual cost fits the budget;
//!   otherwise it is aborted having consumed exactly the budget.
//! * An aborted execution still *teaches*: the tuple counter at the first
//!   unresolved error node implies a selectivity lower bound. We model
//!   execution progress as budget-proportional past the error node's input
//!   cost, which preserves the two properties the paper's analysis needs —
//!   the learned value never exceeds the true selectivity (first-quadrant
//!   invariant, Section 5.2) and spilled executions learn at least as fast
//!   as unspilled ones (the motivation for spilling, Section 5.3).
//!
//! The sibling `pb-engine` crate implements the same contract over real
//! tuples; integration tests check the two agree on completion decisions.

pub mod executor;

pub use executor::{
    learnable_node, CostResumeBook, ExecOutcome, Executor, MonitorNode, MonitorTable, RunResult,
};
