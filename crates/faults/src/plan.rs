//! Declarative fault schedules.

use serde::{Deserialize, Serialize};

/// What goes wrong.
///
/// Each kind is consulted at a fixed hook point; a kind that has no hook in a
/// given component is simply never asked there, so one plan can combine
/// engine-level and executor-level faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// An operator dies mid-execution. The engine consults it at every
    /// ledger event (charge or settle) and, when it fires, stops having
    /// charged what it had spent so far; the cost-unit executor consults it
    /// once per budgeted execution and charges
    /// `waste_frac · min(budget, executed-tree cost)` as the work wasted
    /// before the fault.
    OperatorFailure { waste_frac: f64 },
    /// The ledger transiently over-charges: the triggered charge/settle (or,
    /// in the executor, the triggered abort's reported spend) is multiplied
    /// by `factor` (> 1 over-charges, < 1 under-charges).
    LedgerOverCharge { factor: f64 },
    /// Spilling a partial result fails.
    SpillFailure,
    /// A selectivity observation learned from an execution is multiplied by
    /// `scale` before it reaches the driver — corrupting `qrun` refinement.
    CorruptObservation { scale: f64 },
    /// The executor sees a budget skewed by `factor` relative to what the
    /// driver granted (a fast/slow clock), so aborts land at the wrong spend.
    BudgetClockSkew { factor: f64 },
    /// A cost spike beyond the configured δ band: actual execution cost is
    /// multiplied by `factor` for the triggered executions.
    PerturbationSpike { factor: f64 },
    /// Server: a worker thread panics mid-request. The containment drill —
    /// the in-flight request must come back as a typed error, the worker
    /// must be replaced, and the server must stay up.
    WorkerPanic,
    /// Server: the connection handler stalls `ms` before processing a
    /// request line (a slow-loris client holding its socket open).
    SlowClient { ms: u64 },
    /// Server: dispatch from the admission queue stalls `ms`, backing work
    /// up against the bounded queue so backpressure engages.
    QueueStall { ms: u64 },
    /// Server: the client vanishes before its response can be written. The
    /// request must still run to a terminal state reachable via `status`.
    ClientDisconnect,
}

impl FaultKind {
    /// Short stable label, used by the chaos survival table.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::OperatorFailure { .. } => "operator-failure",
            FaultKind::LedgerOverCharge { .. } => "ledger-overcharge",
            FaultKind::SpillFailure => "spill-failure",
            FaultKind::CorruptObservation { .. } => "corrupt-observation",
            FaultKind::BudgetClockSkew { .. } => "budget-clock-skew",
            FaultKind::PerturbationSpike { .. } => "perturbation-spike",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::SlowClient { .. } => "slow-client",
            FaultKind::QueueStall { .. } => "queue-stall",
            FaultKind::ClientDisconnect => "client-disconnect",
        }
    }
}

/// When a fault fires, counted in hook consultations of its kind: every
/// armed spec of a kind counts every consultation of that kind, whether or
/// not another spec of the kind fired on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trigger {
    /// Fire exactly once, on the `n`-th consultation (1-based).
    Nth(u64),
    /// Fire on every `n`-th consultation.
    Every(u64),
    /// Fire each consultation independently with probability `n / 1000`,
    /// drawn from the spec's own splitmix64 stream — deterministic given the
    /// plan seed. The probability is in whole thousandths so the trigger
    /// stays `Eq`/hashable.
    PerMille(u32),
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    pub kind: FaultKind,
    pub trigger: Trigger,
}

/// A deterministic, seeded schedule of faults.
///
/// The default plan is empty and inert: every injection hook becomes an exact
/// no-op, which is what makes "empty fault plan ⇒ bit-identical run" testable
/// rather than merely plausible.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    pub seed: u64,
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty (inert) plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Add a spec, builder-style.
    #[must_use]
    pub fn with(mut self, kind: FaultKind, trigger: Trigger) -> Self {
        self.specs.push(FaultSpec { kind, trigger });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_specs() {
        let p = FaultPlan::new(9)
            .with(FaultKind::SpillFailure, Trigger::Nth(1))
            .with(
                FaultKind::BudgetClockSkew { factor: 1.1 },
                Trigger::Every(2),
            );
        assert_eq!(p.specs.len(), 2);
        assert!(!p.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn plans_round_trip_through_json() {
        let p = FaultPlan::new(3).with(
            FaultKind::CorruptObservation { scale: 10.0 },
            Trigger::PerMille(250),
        );
        let s = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(back, p);
    }
}
