//! Query specifications, join graphs and physical plan trees.
//!
//! A [`QuerySpec`] is a select-project-join query over a `pb-catalog`
//! catalog: a set of base relations, selection predicates, and equi-join
//! edges. Every predicate's selectivity is either *fixed* (estimated from
//! statistics, assumed reliable) or *error-prone* — an axis of the paper's
//! error-prone selectivity space (ESS) whose true value is only discovered
//! at run time.
//!
//! A [`PhysicalPlan`] is an operator tree over a query: scans (sequential or
//! index), joins (hash, sort-merge, index / block nested-loops) and the
//! bouquet-specific spill directive of Section 5.3. Plans carry a stable
//! structural [`fingerprint`](PhysicalPlan::fingerprint) so the POSP
//! machinery can identify "the same plan" across selectivity locations.

pub mod graph;
pub mod plan;
pub mod query;
pub mod sql;

pub use graph::{GraphShape, JoinGraph};
pub use plan::{PhysicalPlan, PlanFingerprint, PlanNode};
pub use query::{
    CmpOp, DimId, DimKind, JoinPredicate, QueryBuilder, QuerySpec, RelIdx, RelationRef, SelSpec,
    SelectionPredicate,
};
pub use sql::{join_ceiling, parse as parse_sql, parse_with_marks, DimMark, ParseError};
