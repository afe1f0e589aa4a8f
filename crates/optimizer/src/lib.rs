//! Cost-based query optimizer with selectivity injection.
//!
//! This crate supplies the optimizer half of the substrate the paper builds
//! on (its PostgreSQL implementation instruments the optimizer to accept
//! injected selectivities; here injection is native):
//!
//! * [`Optimizer`] — bushy dynamic programming over connected subgraphs with
//!   interesting-order tracking (System-R style), returning the optimal
//!   physical plan for a query at any ESS location.
//! * [`diagram`] — plan diagrams / POSP generation: exhaustive optimization
//!   over an ESS grid (parallelised; the paper notes POSP generation is
//!   "embarrassingly parallel", Section 4.2).
//! * [`anorexic`] — cost-bounded plan-diagram reduction ("anorexic
//!   reduction", Harish et al. VLDB 2007), the technique the bouquet uses to
//!   keep isocost-contour plan density ρ small (Section 3.3).
//! * [`seer`] — a SEER-style globally-safe replacement baseline
//!   (Harish et al. PVLDB 2008), compared against in Section 6.

pub mod anorexic;
pub mod diagram;
pub mod dp;
pub mod seer;

pub use anorexic::AnorexicReduction;
pub use diagram::{PlanDiagram, PlanId};
pub use dp::{OptimizedPlan, Optimizer, Sweep, SweepCursor};
pub use seer::SeerReduction;
