//! Budget ledger of the execution engine.
//!
//! The vectorized engine ([`crate::vec_exec`]) and the tuple-at-a-time
//! interpreter its tests compare it against (`crate::oracle`, compiled for
//! tests only) account work through this module and only through it. Every charge is either a one-off ([`Ctx::charge`]:
//! scan setup, sorts, spill penalties) or part of a *linear phase*: a
//! closed-form `base + Σ counterᵢ·rateᵢ` value computed by [`lin2`]/[`lin3`]
//! and installed with [`Ctx::settle`]. The tuple engine settles after every
//! counter increment; the vectorized engine settles once per batch with the
//! same closed form and the same counters — so both observe bit-identical
//! `spent` values at every shared program point.
//!
//! Why aborts stay exact: all rates are non-negative, so the closed form is
//! weakly monotone in each counter even under floating-point rounding
//! (`c as f64` is monotone in `c`, `c·r` rounds monotonically for `r ≥ 0`,
//! and `x + t` rounds monotonically in `t`). A batch whose settled end value
//! is within budget therefore cannot have crossed it at any interior tuple,
//! and when the end value exceeds the budget the batch is replayed
//! tuple-at-a-time — the replay's final settle recomputes the very value
//! that crossed, so the replay is guaranteed to abort, at the identical
//! tuple, with the identical instrumentation and the identical clamped cost
//! the reference engine produces.
//!
//! Fault injection enters here and only here: every ledger event consults
//! the context's [`FaultInjector`]. An inert injector short-circuits before
//! touching any arithmetic, keeping the no-fault paths bit-identical.

use pb_faults::{CancelToken, FaultInjector, PbError};

use crate::exec::NodeStats;

/// Rows per vectorized batch — the cadence of budget settlement and the
/// bound on wasted work past an abort point.
pub(crate) const BATCH: usize = 4096;

#[cfg(test)]
thread_local! {
    /// The ledger value of every [`Ctx::commit`] on this thread while a test
    /// records them (`Some`), so it can aim budgets at batch boundaries.
    pub(crate) static COMMITS: std::cell::RefCell<Option<Vec<f64>>> =
        const { std::cell::RefCell::new(None) };
}

/// Why execution stopped early: the budget ran out (the normal, accounted
/// outcome the bouquet drivers rely on) or an injected/real fault fired.
pub(crate) enum Halt {
    Abort,
    Fault(PbError),
}

/// The replay of an over-budget batch ran to completion without aborting —
/// the ledger's monotonicity argument (or an injected ledger fault) has been
/// violated; surface it as a typed error instead of dying.
pub(crate) fn replay_anomaly() -> Halt {
    Halt::Fault(PbError::MonotonicityViolation(
        "batch-end ledger value exceeded the budget but replay completed".into(),
    ))
}

/// Execution context: the ledger plus per-node counters.
pub(crate) struct Ctx<'f> {
    pub spent: f64,
    pub budget: f64,
    pub instr: Vec<NodeStats>,
    pub faults: &'f FaultInjector,
    /// Checkpoint book for resumable executions (`None` on the plain paths,
    /// which stay bit-identical to the pre-resume code). Lookups and
    /// captures happen at subtree boundaries in the vectorized engine.
    pub resume: Option<&'f mut crate::vec_exec::ResumeBook>,
    /// Cost units fast-forwarded from checkpoints instead of re-executed.
    /// Part of `spent` (the outcome stays restart-identical); the substrate
    /// subtracts it to charge only the un-executed suffix.
    pub reused: f64,
    /// Cooperative cancellation token (`None` on the plain paths, which
    /// stay bit-identical to the pre-cancellation code). Polled at batch
    /// commits and one-off charges — coarse enough to stay off the
    /// per-tuple hot path, fine enough to bound post-trip work by one
    /// batch. Completed-subtree checkpoints captured before the trip
    /// survive, so a resubmitted execution resumes instead of restarting.
    pub cancel: Option<&'f CancelToken>,
}

impl Ctx<'_> {
    /// Poll the cancellation token; `Some` holds the halt to surface.
    #[inline]
    fn cancelled(&self) -> Option<Halt> {
        self.cancel
            .and_then(CancelToken::cancel_error)
            .map(Halt::Fault)
    }

    /// Fault hook shared by every ledger event: may scale the prospective
    /// value (transient over-charge) or kill the operator outright.
    #[inline]
    fn taxed(&mut self, v: f64) -> Result<f64, Halt> {
        if let Some((_, e)) = self.faults.operator_failure("engine:ledger") {
            self.spent = self.spent.min(self.budget);
            return Err(Halt::Fault(e));
        }
        Ok(v * self.faults.ledger_factor())
    }

    /// Add a one-off charge (operator setup, sorts, spill penalties).
    #[inline]
    pub fn charge(&mut self, c: f64) -> Result<(), Halt> {
        if let Some(h) = self.cancelled() {
            return Err(h);
        }
        let c = if self.faults.is_active() {
            self.taxed(c)?
        } else {
            c
        };
        self.spent += c;
        if self.spent > self.budget {
            self.spent = self.budget;
            Err(Halt::Abort)
        } else {
            Ok(())
        }
    }

    /// Install an absolute ledger value computed by [`lin2`]/[`lin3`].
    #[inline]
    pub fn settle(&mut self, s: f64) -> Result<(), Halt> {
        let s = if self.faults.is_active() {
            self.taxed(s)?
        } else {
            s
        };
        if s > self.budget {
            self.spent = self.budget;
            Err(Halt::Abort)
        } else {
            self.spent = s;
            Ok(())
        }
    }

    /// Batch-end settlement for the vectorized path. The caller has already
    /// verified the raw closed-form value fits the budget, so with an inert
    /// injector this is a plain store; armed faults route through
    /// [`Ctx::settle`] and may abort or fail the batch.
    #[inline]
    pub fn commit(&mut self, end: f64) -> Result<(), Halt> {
        #[cfg(test)]
        COMMITS.with_borrow_mut(|c| c.as_mut().map(|c| c.push(end)));
        if let Some(h) = self.cancelled() {
            // The batch's work happened; charge it (clamped) before
            // surfacing the cancellation so spend accounting stays honest.
            self.spent = end.min(self.budget);
            return Err(h);
        }
        if self.faults.is_active() {
            self.settle(end)
        } else {
            self.spent = end;
            Ok(())
        }
    }
}

/// Two-counter linear phase. The left-to-right evaluation order is part of
/// the contract: both engines must produce bit-identical values.
#[inline]
pub(crate) fn lin2(base: f64, c0: u64, r0: f64, c1: u64, r1: f64) -> f64 {
    (base + c0 as f64 * r0) + c1 as f64 * r1
}

/// Three-counter linear phase (index nested-loops: lookups, probed entries,
/// emitted tuples advance independently within one phase).
#[inline]
pub(crate) fn lin3(base: f64, c0: u64, r0: f64, c1: u64, r1: f64, c2: u64, r2: f64) -> f64 {
    ((base + c0 as f64 * r0) + c1 as f64 * r1) + c2 as f64 * r2
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_faults::{FaultKind, FaultPlan, Trigger};

    fn ctx(faults: &FaultInjector) -> Ctx<'_> {
        Ctx {
            spent: 0.0,
            budget: 10.0,
            instr: Vec::new(),
            faults,
            resume: None,
            reused: 0.0,
            cancel: None,
        }
    }

    #[test]
    fn settle_clamps_to_budget_on_abort() {
        let inert = FaultInjector::none();
        let mut ctx = ctx(&inert);
        assert!(ctx.settle(9.5).is_ok());
        assert_eq!(ctx.spent, 9.5);
        assert!(matches!(ctx.settle(10.0 + 1e-9), Err(Halt::Abort)));
        assert_eq!(ctx.spent, 10.0);
    }

    #[test]
    fn operator_failure_fires_on_nth_ledger_event() {
        let plan = FaultPlan::new(1).with(
            FaultKind::OperatorFailure { waste_frac: 0.0 },
            Trigger::Nth(3),
        );
        let inj = FaultInjector::new(&plan);
        let mut ctx = ctx(&inj);
        assert!(ctx.settle(1.0).is_ok());
        assert!(ctx.settle(2.0).is_ok());
        match ctx.settle(3.0) {
            Err(Halt::Fault(PbError::OperatorFailure { .. })) => {}
            _ => panic!("third ledger event should fault"),
        }
        // Spend stays clamped within budget: no double-charging on faults.
        assert!(ctx.spent <= ctx.budget);
    }

    #[test]
    fn ledger_overcharge_can_force_an_abort() {
        let plan = FaultPlan::new(1).with(
            FaultKind::LedgerOverCharge { factor: 100.0 },
            Trigger::Nth(2),
        );
        let inj = FaultInjector::new(&plan);
        let mut ctx = ctx(&inj);
        assert!(ctx.settle(0.5).is_ok());
        // 0.6 × 100 > budget ⇒ abort with spend clamped.
        assert!(matches!(ctx.settle(0.6), Err(Halt::Abort)));
        assert_eq!(ctx.spent, 10.0);
    }

    #[test]
    fn tripped_token_halts_commit_with_work_charged() {
        let inert = FaultInjector::none();
        let tok = CancelToken::new();
        let mut c = ctx(&inert);
        c.cancel = Some(&tok);
        assert!(c.commit(3.0).is_ok());
        tok.cancel();
        match c.commit(4.0) {
            Err(Halt::Fault(PbError::Cancelled(_))) => {}
            _ => panic!("commit after cancel must surface Cancelled"),
        }
        // The interrupted batch's work is still charged, clamped to budget.
        assert_eq!(c.spent, 4.0);
        match c.charge(1.0) {
            Err(Halt::Fault(PbError::Cancelled(_))) => {}
            _ => panic!("charge after cancel must surface Cancelled"),
        }
    }

    #[test]
    fn commit_is_a_plain_store_when_inert() {
        let inert = FaultInjector::none();
        let mut ctx = ctx(&inert);
        assert!(ctx.commit(7.25).is_ok());
        assert_eq!(ctx.spent.to_bits(), 7.25f64.to_bits());
    }

    #[test]
    fn lin_phases_are_monotone_in_each_counter() {
        let base = 123.456;
        let (r0, r1, r2) = (0.01, 0.005, 1e-7);
        let mut prev = f64::NEG_INFINITY;
        for c in 0..10_000u64 {
            let v = lin3(base, c, r0, c / 2, r1, c / 3, r2);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn lin2_equals_lin3_with_zero_third_term() {
        // The engines rely on phases with an unused counter charging nothing.
        assert_eq!(lin2(5.0, 3, 0.5, 0, 0.0), (5.0 + 3.0 * 0.5));
    }
}
