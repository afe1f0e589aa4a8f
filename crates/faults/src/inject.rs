//! The runtime injector: deterministic, interior-mutable, inert when empty.

use std::cell::Cell;

use crate::error::PbError;
use crate::plan::{FaultKind, FaultPlan, Trigger};
use crate::rng::{splitmix64, unit_f64};

// One mask bit per [`FaultKind`] variant, so a hook on a hot path costs one
// load and branch when its kind is unused.
const OPERATOR: u16 = 1;
const LEDGER: u16 = 1 << 1;
const SPILL: u16 = 1 << 2;
const CORRUPT: u16 = 1 << 3;
const SKEW: u16 = 1 << 4;
const SPIKE: u16 = 1 << 5;
const PANIC: u16 = 1 << 6;
const SLOW_CLIENT: u16 = 1 << 7;
const QUEUE_STALL: u16 = 1 << 8;
const DISCONNECT: u16 = 1 << 9;

/// A kind's mask bit and its one parameter: `waste_frac` (clamped to
/// `[0, 1]`), `factor`, `scale` or `ms` (exact below 2⁵³); `0.0` for the
/// kinds that carry none.
fn bit_and_param(kind: &FaultKind) -> (u16, f64) {
    match *kind {
        FaultKind::OperatorFailure { waste_frac } => (OPERATOR, waste_frac.clamp(0.0, 1.0)),
        FaultKind::LedgerOverCharge { factor } => (LEDGER, factor),
        FaultKind::SpillFailure => (SPILL, 0.0),
        FaultKind::CorruptObservation { scale } => (CORRUPT, scale),
        FaultKind::BudgetClockSkew { factor } => (SKEW, factor),
        FaultKind::PerturbationSpike { factor } => (SPIKE, factor),
        FaultKind::WorkerPanic => (PANIC, 0.0),
        FaultKind::SlowClient { ms } => (SLOW_CLIENT, ms as f64),
        FaultKind::QueueStall { ms } => (QUEUE_STALL, ms as f64),
        FaultKind::ClientDisconnect => (DISCONNECT, 0.0),
    }
}

/// One armed fault: its kind's bit and parameter, its trigger, and its
/// consultation counter and RNG stream.
#[derive(Debug)]
struct Armed {
    bit: u16,
    param: f64,
    trigger: Trigger,
    count: Cell<u64>,
    rng: Cell<u64>,
}

impl Armed {
    /// Advance the consultation counter and decide whether this fault fires.
    fn fires(&self) -> bool {
        let n = self.count.get() + 1;
        self.count.set(n);
        match self.trigger {
            Trigger::Nth(k) => n == k,
            Trigger::Every(k) => k > 0 && n.is_multiple_of(k),
            Trigger::PerMille(pm) => {
                let mut s = self.rng.get();
                let w = splitmix64(&mut s);
                self.rng.set(s);
                unit_f64(w) * 1000.0 < f64::from(pm)
            }
        }
    }
}

/// Consults a [`FaultPlan`] at well-defined hook points.
///
/// The injector is deterministic: hooks advance per-spec counters (and, for
/// probabilistic triggers, a per-spec splitmix64 stream seeded from the plan
/// seed), so a fixed call sequence always produces the same faults. An
/// injector built from an empty plan never fires and never perturbs any
/// value passed through it.
///
/// Every hook is one consultation of its kind: each armed spec of that kind
/// advances its counter, in plan order, and the hook folds the parameters
/// of those that fire — factor kinds multiply them, the others take the
/// first.
#[derive(Debug)]
pub struct FaultInjector {
    armed: Vec<Armed>,
    mask: u16,
}

impl FaultInjector {
    /// The inert injector: every hook is an exact no-op.
    pub fn none() -> Self {
        FaultInjector {
            armed: Vec::new(),
            mask: 0,
        }
    }

    pub fn new(plan: &FaultPlan) -> Self {
        let mut mask = 0u16;
        let armed = plan
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (bit, param) = bit_and_param(&s.kind);
                mask |= bit;
                Armed {
                    bit,
                    param,
                    trigger: s.trigger,
                    count: Cell::new(0),
                    rng: Cell::new(plan.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
                }
            })
            .collect();
        FaultInjector { armed, mask }
    }

    /// True when at least one fault is armed.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.mask != 0
    }

    /// One consultation of the kind `bit`: every armed spec of the kind
    /// advances, in plan order, and `fold` takes the parameter of each that
    /// fires. `init` comes back untouched when the kind is unarmed.
    #[inline]
    fn consult<T>(&self, bit: u16, init: T, mut fold: impl FnMut(T, f64) -> T) -> T {
        if self.mask & bit == 0 {
            return init;
        }
        (self.armed.iter())
            .filter(|a| a.bit == bit && a.fires())
            .fold(init, |acc, a| fold(acc, a.param))
    }

    /// The parameter of the first spec of the kind that fires, if any.
    #[inline]
    fn first(&self, bit: u16) -> Option<f64> {
        self.consult(bit, None, |first, p| first.or(Some(p)))
    }

    // ---- engine- and executor-level hooks -----------------------------------

    /// Operator failure: the fraction of the work wasted before the fault,
    /// plus the error. Consulted once per ledger event by the engine (which
    /// charges what it had spent) and once per budgeted execution by the
    /// cost-unit executor.
    #[inline]
    pub fn operator_failure(&self, site: &str) -> Option<(f64, PbError)> {
        let frac = self.first(OPERATOR)?;
        Some((frac, PbError::OperatorFailure { site: site.into() }))
    }

    /// Multiplicative factor applied to the triggered ledger charge/settle
    /// or the executor's abort spend; `1.0` when nothing fires.
    #[inline]
    pub fn ledger_factor(&self) -> f64 {
        self.consult(LEDGER, 1.0, |f, p| f * p)
    }

    /// Spill failure at the given site.
    #[inline]
    pub fn spill_failure(&self, site: &str) -> Option<PbError> {
        self.first(SPILL)
            .map(|_| PbError::SpillFailure { site: site.into() })
    }

    /// Budget clock skew: the budget the executor actually honours.
    #[inline]
    pub fn skewed_budget(&self, budget: f64) -> f64 {
        self.consult(SKEW, budget, |b, p| b * p)
    }

    /// Cost-spike factor beyond the δ band; `1.0` when nothing fires.
    #[inline]
    pub fn spike_factor(&self) -> f64 {
        self.consult(SPIKE, 1.0, |f, p| f * p)
    }

    /// Corrupt a learned selectivity observation.
    #[inline]
    pub fn corrupt_observation(&self, v: f64) -> f64 {
        self.consult(CORRUPT, v, |x, p| x * p)
    }

    // ---- server-level hooks -------------------------------------------------

    /// Should the worker executing the current request panic? Consulted once
    /// per dispatched request, before execution begins.
    #[inline]
    pub fn worker_panic(&self) -> bool {
        self.first(PANIC).is_some()
    }

    /// Milliseconds the connection handler should stall before processing a
    /// request line; `None` when nothing fires. Consulted once per line.
    #[inline]
    pub fn slow_client_ms(&self) -> Option<u64> {
        self.first(SLOW_CLIENT).map(|ms| ms as u64)
    }

    /// Milliseconds queue dispatch should stall before handing the next
    /// request to a worker; `None` when nothing fires. Consulted once per
    /// dequeue.
    #[inline]
    pub fn queue_stall_ms(&self) -> Option<u64> {
        self.first(QUEUE_STALL).map(|ms| ms as u64)
    }

    /// Should the client's connection be dropped before its response is
    /// written? Consulted once per response.
    #[inline]
    pub fn client_disconnect(&self) -> bool {
        self.first(DISCONNECT).is_some()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;

    #[test]
    fn inert_injector_is_a_no_op() {
        let i = FaultInjector::none();
        assert!(!i.is_active());
        assert!(i.operator_failure("x").is_none());
        assert!(i.spill_failure("x").is_none());
        // Neutral pass-throughs must be the *same bits*, not just close.
        for v in [0.0, -0.0, 1.5e300, f64::MIN_POSITIVE] {
            assert_eq!(i.skewed_budget(v).to_bits(), v.to_bits());
            assert_eq!(i.corrupt_observation(v).to_bits(), v.to_bits());
        }
        assert_eq!(i.ledger_factor(), 1.0);
        assert_eq!(i.spike_factor(), 1.0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let p = FaultPlan::new(1).with(
            FaultKind::OperatorFailure { waste_frac: 0.5 },
            Trigger::Nth(3),
        );
        let i = FaultInjector::new(&p);
        let fires: Vec<bool> = (0..6).map(|_| i.operator_failure("op").is_some()).collect();
        assert_eq!(fires, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn every_trigger_is_periodic() {
        let p = FaultPlan::new(1).with(
            FaultKind::LedgerOverCharge { factor: 2.0 },
            Trigger::Every(2),
        );
        let i = FaultInjector::new(&p);
        let fs: Vec<f64> = (0..4).map(|_| i.ledger_factor()).collect();
        assert_eq!(fs, vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn per_mille_is_deterministic_across_instances() {
        let p = FaultPlan::new(77).with(
            FaultKind::CorruptObservation { scale: 3.0 },
            Trigger::PerMille(500),
        );
        let a = FaultInjector::new(&p);
        let b = FaultInjector::new(&p);
        let xa: Vec<f64> = (0..32).map(|_| a.corrupt_observation(1.0)).collect();
        let xb: Vec<f64> = (0..32).map(|_| b.corrupt_observation(1.0)).collect();
        assert_eq!(xa, xb);
        // At 50% per-mille some but not all consultations fire.
        assert!(xa.contains(&3.0) && xa.contains(&1.0));
    }

    #[test]
    fn server_hooks_fire_on_schedule() {
        let p = FaultPlan::new(5)
            .with(FaultKind::WorkerPanic, Trigger::Nth(2))
            .with(FaultKind::SlowClient { ms: 25 }, Trigger::Nth(1))
            .with(FaultKind::QueueStall { ms: 40 }, Trigger::Every(2))
            .with(FaultKind::ClientDisconnect, Trigger::Nth(1));
        let i = FaultInjector::new(&p);
        assert!(!i.worker_panic());
        assert!(i.worker_panic());
        assert!(!i.worker_panic());
        assert_eq!(i.slow_client_ms(), Some(25));
        assert_eq!(i.slow_client_ms(), None);
        assert_eq!(i.queue_stall_ms(), None);
        assert_eq!(i.queue_stall_ms(), Some(40));
        assert!(i.client_disconnect());
        assert!(!i.client_disconnect());
    }

    #[test]
    fn inert_injector_server_hooks_are_no_ops() {
        let i = FaultInjector::none();
        assert!(!i.worker_panic());
        assert!(i.slow_client_ms().is_none());
        assert!(i.queue_stall_ms().is_none());
        assert!(!i.client_disconnect());
    }

    #[test]
    fn every_spec_of_a_kind_is_consulted_each_time() {
        // A spec that fires must not hide the consultation from a later
        // spec of its kind: each counts every consultation of the kind.
        let p = FaultPlan::new(1)
            .with(
                FaultKind::OperatorFailure { waste_frac: 0.1 },
                Trigger::Every(2),
            )
            .with(
                FaultKind::OperatorFailure { waste_frac: 0.9 },
                Trigger::Nth(3),
            );
        let i = FaultInjector::new(&p);
        let fracs: Vec<Option<f64>> = (0..4)
            .map(|_| i.operator_failure("op").map(|(f, _)| f))
            .collect();
        assert_eq!(fracs, vec![None, Some(0.1), Some(0.9), Some(0.1)]);

        let p = FaultPlan::new(1)
            .with(FaultKind::WorkerPanic, Trigger::Nth(1))
            .with(FaultKind::WorkerPanic, Trigger::Nth(2));
        let i = FaultInjector::new(&p);
        let panics: Vec<bool> = (0..3).map(|_| i.worker_panic()).collect();
        assert_eq!(panics, vec![true, true, false]);
    }

    #[test]
    fn factor_kinds_multiply_every_spec_that_fires() {
        let p = FaultPlan::new(1)
            .with(
                FaultKind::LedgerOverCharge { factor: 2.0 },
                Trigger::Every(1),
            )
            .with(FaultKind::LedgerOverCharge { factor: 3.0 }, Trigger::Nth(2));
        let i = FaultInjector::new(&p);
        let fs: Vec<f64> = (0..3).map(|_| i.ledger_factor()).collect();
        assert_eq!(fs, vec![2.0, 6.0, 2.0]);
    }

    #[test]
    fn counters_are_per_spec() {
        let p = FaultPlan {
            seed: 0,
            specs: vec![
                FaultSpec {
                    kind: FaultKind::BudgetClockSkew { factor: 0.5 },
                    trigger: Trigger::Nth(1),
                },
                FaultSpec {
                    kind: FaultKind::PerturbationSpike { factor: 4.0 },
                    trigger: Trigger::Nth(2),
                },
            ],
        };
        let i = FaultInjector::new(&p);
        assert_eq!(i.skewed_budget(10.0), 5.0);
        assert_eq!(i.skewed_budget(10.0), 10.0);
        assert_eq!(i.spike_factor(), 1.0);
        assert_eq!(i.spike_factor(), 4.0);
    }
}
