//! The discovery loop: the one place a bouquet execution is granted,
//! charged, recorded, monitored and recovered from.
//!
//! [`Bouquet::run`] drives a [`Policy`] — Figure 7 or Figure 13, which differ
//! only in *which plan runs next and what is learned from it* — through one
//! ladder per execution: cancel-poll and cap-check before any budget is
//! committed; execute, charge, record, monitor; then completed, degrade,
//! cancelled, spill-retry, retry or abandon (DESIGN.md §"One driver" walks
//! the rungs). Whatever an execution spent is charged, faulted or not, so
//! MSO accounting stays honest.
//!
//! On a fault-free substrate nothing past the monitor is reachable, so
//! [`RobustConfig::plain`] and [`RobustConfig::default`] produce the same
//! run (property-tested in `tests/robustness.rs`).

use pb_cost::SelPoint;
use pb_faults::{CancelToken, PbError};
use pb_optimizer::PlanId;
use pb_plan::DimId;
use serde::{Deserialize, Serialize};

use crate::bouquet::Bouquet;
use crate::drivers::basic::Figure7;
use crate::drivers::optimized::Figure13;
use crate::drivers::{BouquetRun, ExecutionOutcome, PartialExec, MAX_OVERFLOW};
use crate::substrate::{ExecutionSubstrate, SubstrateOutcome};

/// Configuration of a run: the policy and how much goes wrong before
/// discovery gives up. Faults are not configured here — a substrate owns
/// its injector from construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustConfig {
    /// Retries per faulted plan execution before the plan is abandoned.
    pub plan_retries: usize,
    /// Monitor violations / plan abandonments tolerated before the driver
    /// degrades to single-plan native-optimizer execution.
    pub max_violations: usize,
    /// Drive the optimized (Figure 13) policy instead of the basic one.
    pub optimized: bool,
    /// Enable checkpoint/resume on the substrate (a no-op where unsupported).
    /// Resume never changes *what* happens, only *what is paid*: prefixes an
    /// earlier partial execution completed are fast-forwarded, and
    /// `total_cost` shrinks by the `reused_cost` of the substrate's
    /// `resume_stats()`. Reuse engages only while no faults are armed — an
    /// injected fault is never replayed from or masked by a checkpoint.
    #[serde(default)]
    pub resume: bool,
    /// Hard cumulative spend cap for the whole run, the tenant-budget hook
    /// the serving layer uses. When granting the next execution's budget
    /// would push past the cap, discovery stops and the run finishes on the
    /// capped rung: one native-plan attempt within the leftover budget
    /// ([`ExecutionOutcome::Degraded`] if it completes,
    /// [`ExecutionOutcome::BudgetExhausted`] otherwise). Total charged
    /// spend never exceeds the cap. `None` disables.
    #[serde(default)]
    pub spend_cap: Option<f64>,
    /// Cooperative cancellation token, polled between executions (and, when
    /// threaded into the substrate, inside executions too). Not serialized:
    /// a deserialized config is live.
    #[serde(skip)]
    pub cancel: Option<CancelToken>,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            plan_retries: 1,
            max_violations: 3,
            ..RobustConfig::plain(false)
        }
    }
}

impl RobustConfig {
    /// The paper's algorithms as drawn: a faulted execution is charged once
    /// and never retried, and discovery never degrades.
    pub fn plain(optimized: bool) -> Self {
        RobustConfig {
            plan_retries: 0,
            max_violations: usize::MAX,
            optimized,
            resume: false,
            spend_cap: None,
            cancel: None,
        }
    }
}

/// One recovery or monitoring action the discovery loop took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RobustEvent {
    /// A faulted execution was retried on the same plan.
    Retry {
        contour: usize,
        plan: PlanId,
        attempt: usize,
        error: PbError,
    },
    /// A plan exhausted its retries and was abandoned.
    PlanAbandoned {
        contour: usize,
        plan: PlanId,
        error: PbError,
    },
    /// A failed spill directive was retried unspilled.
    SpillRetry { contour: usize, plan: PlanId },
    /// A learned selectivity observation exceeded the ESS and was clamped
    /// (first-quadrant protection against corrupted observations).
    ObservationRejected {
        dim: DimId,
        observed: f64,
        clamped_to: f64,
    },
    /// The spend monitor flagged an accounting invariant violation.
    MonitorViolation { detail: String },
    /// Discovery was abandoned in favour of the native-optimizer fallback.
    Degraded { reason: String },
    /// The cumulative spend cap blocked the next execution; the run moved
    /// to the capped finishing rung.
    SpendCapReached { cap: f64, spent: f64 },
    /// The run was cooperatively cancelled (client cancel or deadline).
    Cancelled { reason: String },
}

/// A robust run: the underlying bouquet run plus the recovery log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustRun {
    pub run: BouquetRun,
    pub events: Vec<RobustEvent>,
}

/// `a == b` up to floating-point summation order.
fn same_cost(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The plan an outcome credits with the result and what its execution
/// cost, if any.
fn credit(o: &ExecutionOutcome) -> Option<(PlanId, f64)> {
    match *o {
        ExecutionOutcome::Completed {
            final_plan,
            final_cost,
        }
        | ExecutionOutcome::Degraded {
            final_plan,
            final_cost,
        } => Some((final_plan, final_cost)),
        ExecutionOutcome::BudgetExhausted { .. } | ExecutionOutcome::Cancelled { .. } => None,
    }
}

impl RobustRun {
    /// Check this run's books against the bouquet `b` it ran on and the
    /// configuration `cfg` it ran under — the accounting Theorem 3's bound
    /// rests on (DESIGN.md §"Robustness invariants"). `Err` names the first
    /// rule broken:
    ///
    /// 1. `total_cost` is the sum of the trace's spends;
    /// 2. an entry on contour `k ≥ 1` ran a plan of schedule rung `k − 1`
    ///    under that rung's budget, `cost(IC_k)·(1+λ)` (`·r^j` past the
    ///    grading);
    /// 3. contour-0 entries (the finishing rung) only end the trace;
    /// 4. under a spend cap, `total_cost` stays within it;
    /// 5. `Completed` / `Degraded` ⇔ the last entry, and only it, completed
    ///    — on a contour / on the finishing rung — with the outcome's
    ///    `final_plan` and `final_cost == spent`.
    pub fn audit(&self, b: &Bouquet, cfg: &RobustConfig) -> Result<(), String> {
        let BouquetRun {
            trace,
            total_cost,
            outcome,
        } = &self.run;
        if b.contours.is_empty() {
            return Err("bouquet has no contours".into());
        }
        let traced: f64 = trace.iter().map(|e| e.spent).sum();
        if !same_cost(traced, *total_cost) {
            return Err(format!(
                "total_cost {total_cost} is not the trace's spend {traced}"
            ));
        }
        let rungs = b.contours.len() + MAX_OVERFLOW;
        let mut finishing = false;
        for (i, e) in trace.iter().enumerate() {
            if e.contour == 0 {
                finishing = true;
                continue;
            }
            if finishing {
                return Err(format!(
                    "execution {i} on contour {} follows the finishing rung",
                    e.contour
                ));
            }
            if e.contour > rungs {
                return Err(format!(
                    "execution {i}: contour {} is past the {rungs}-rung schedule",
                    e.contour
                ));
            }
            let (contour, _, f) = b.rung(e.contour - 1);
            if !contour.plan_set.contains(&e.plan) {
                return Err(format!(
                    "execution {i}: plan {} is not on contour {}",
                    e.plan, e.contour
                ));
            }
            if e.budget != contour.budget * f {
                return Err(format!(
                    "execution {i}: budget {} is not contour {}'s {}",
                    e.budget,
                    e.contour,
                    contour.budget * f
                ));
            }
        }
        if let Some(cap) = cfg.spend_cap {
            if *total_cost > cap * (1.0 + 1e-9) {
                return Err(format!("total_cost {total_cost} exceeds the cap {cap}"));
            }
        }
        let completions = trace.iter().filter(|e| e.completed).count();
        let degraded = matches!(outcome, ExecutionOutcome::Degraded { .. });
        let credited = match credit(outcome) {
            Some((plan, cost)) => {
                completions == 1
                    && trace.last().is_some_and(|last| {
                        last.completed
                            && (last.contour == 0) == degraded
                            && last.plan == plan
                            && last.spent == cost
                    })
            }
            None => completions == 0,
        };
        if !credited {
            return Err(format!(
                "outcome {outcome:?} does not match a trace with {completions} completion(s), \
                 last {:?}",
                trace.last()
            ));
        }
        Ok(())
    }

    /// Check this run, made with checkpoint/resume and credited `reused`
    /// cost units, against `restart`, the same submission run without
    /// reuse: the same executions (contour, plan, budget, and what each
    /// observed), none paid above its restart spend; the same outcome
    /// variant and final plan; and `total_cost + reused` equal to the
    /// restart's `total_cost`. Resume changes what is paid, never what is
    /// learned or decided.
    pub fn audit_resumed(&self, reused: f64, restart: &RobustRun) -> Result<(), String> {
        let (ours, theirs) = (&self.run.trace, &restart.run.trace);
        if ours.len() != theirs.len() {
            return Err(format!(
                "{} executions where the restart ran {}",
                ours.len(),
                theirs.len()
            ));
        }
        for (i, (r, p)) in ours.iter().zip(theirs).enumerate() {
            if (r.contour, r.plan, r.budget.to_bits()) != (p.contour, p.plan, p.budget.to_bits()) {
                return Err(format!(
                    "execution {i}: contour {} plan {} budget {} where the restart ran \
                     contour {} plan {} budget {}",
                    r.contour, r.plan, r.budget, p.contour, p.plan, p.budget
                ));
            }
            if (r.completed, r.spilled, &r.learned, &r.error)
                != (p.completed, p.spilled, &p.learned, &p.error)
            {
                return Err(format!("execution {i} observed what the restart did not"));
            }
            if r.spent > p.spent * (1.0 + 1e-9) {
                return Err(format!(
                    "execution {i} paid {} over the restart's {}",
                    r.spent, p.spent
                ));
            }
        }
        let (o, ro) = (&self.run.outcome, &restart.run.outcome);
        let plan = |o: &ExecutionOutcome| credit(o).map(|(plan, _)| plan);
        if std::mem::discriminant(o) != std::mem::discriminant(ro) || plan(o) != plan(ro) {
            return Err(format!("outcome {o:?} where the restart ended {ro:?}"));
        }
        let (paid, restart_total) = (self.run.total_cost, restart.run.total_cost);
        if !same_cost(paid + reused, restart_total) {
            return Err(format!(
                "paid {paid} + reused {reused} is not the restart cost {restart_total}"
            ));
        }
        Ok(())
    }
}

/// One scheduled execution: what a policy wants run next.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// 1-based schedule rung — what a terminal outcome reports as
    /// `contours_tried`.
    pub tried: usize,
    /// Contour number the trace records.
    pub contour: usize,
    pub plan: PlanId,
    pub budget: f64,
    /// Break the pipeline at the first unresolved error node (Figure 13).
    pub spill: bool,
}

/// What distinguishes Figure 7 from Figure 13.
pub(crate) trait Policy {
    /// The next execution to grant, or `None` when the schedule is spent.
    fn next_step(&mut self) -> Option<Step>;

    fn execute<S: ExecutionSubstrate>(&mut self, sub: &mut S, step: &Step) -> SubstrateOutcome;

    /// Absorb what an execution that did not complete the query reported.
    fn learn(&mut self, out: &SubstrateOutcome, events: &mut Vec<RobustEvent>);

    /// Best current estimate of the true location, for the finishing rung.
    fn estimate(&self) -> SelPoint;
}

/// One run's books: the trace, the total and the robustness state.
struct Discovery<'a, S> {
    b: &'a Bouquet,
    sub: &'a mut S,
    cfg: &'a RobustConfig,
    trace: Vec<PartialExec>,
    total: f64,
    violations: usize,
    abandonments: usize,
    events: Vec<RobustEvent>,
}

impl Bouquet {
    /// Discover the true location on `sub`, which must be bound to this
    /// bouquet: `cfg` picks the policy and the recovery settings
    /// ([`RobustConfig::plain`] for the paper's algorithms as drawn). Fails
    /// only on a bouquet without contours.
    pub fn run<S: ExecutionSubstrate>(
        &self,
        sub: &mut S,
        cfg: &RobustConfig,
    ) -> Result<RobustRun, PbError> {
        if self.contours.is_empty() {
            return Err(PbError::Identification("bouquet has no contours".into()));
        }
        if cfg.resume {
            sub.enable_checkpoint_resume();
        }
        let faults_active = sub.faults_active();
        let mut d = Discovery {
            b: self,
            sub,
            cfg,
            trace: Vec::new(),
            total: 0.0,
            violations: 0,
            abandonments: 0,
            events: Vec::new(),
        };
        let outcome = if cfg.optimized {
            d.discover(Figure13::new(self, faults_active))
        } else {
            d.discover(Figure7::new(self))
        };
        Ok(RobustRun {
            run: BouquetRun {
                trace: d.trace,
                total_cost: d.total,
                outcome,
            },
            events: d.events,
        })
    }
}

impl<S: ExecutionSubstrate> Discovery<'_, S> {
    fn discover<P: Policy>(&mut self, mut policy: P) -> ExecutionOutcome {
        while let Some(step) = policy.next_step() {
            if let Some(outcome) = self.attempt(&mut policy, step) {
                return outcome;
            }
        }
        ExecutionOutcome::BudgetExhausted {
            contours_tried: self.b.contours.len() + MAX_OVERFLOW,
        }
    }

    /// Run one scheduled execution through the ladder, retries included.
    /// `Some` ends the run; `None` hands back to the policy.
    fn attempt<P: Policy>(&mut self, policy: &mut P, mut step: Step) -> Option<ExecutionOutcome> {
        let (tried, contour, plan) = (step.tried, step.contour, step.plan);
        let cap = self.cfg.spend_cap.unwrap_or(f64::INFINITY);
        let mut attempt = 0usize;
        loop {
            // Cooperative cancellation: a tripped token (client cancel,
            // deadline) stops the run before more budget is committed. Spend
            // so far stays charged; checkpoints survive for a resubmit.
            if let Some(error) = self.cfg.cancel.as_ref().and_then(CancelToken::cancel_error) {
                return Some(self.cancelled(error.to_string(), tried));
            }
            // Tenant budget: executions spend at most what they are granted,
            // so refusing a grant that would push past the cap keeps
            // `total ≤ cap` an invariant, not a hope.
            if self.total + step.budget > cap * (1.0 + 1e-9) {
                return Some(self.finish(&policy.estimate(), tried, true));
            }
            let out = policy.execute(self.sub, &step);
            self.charge(&step, &out, true);
            if out.completed {
                return Some(ExecutionOutcome::Completed {
                    final_plan: plan,
                    final_cost: out.spent,
                });
            }
            policy.learn(&out, &mut self.events);
            let tolerated = self.cfg.max_violations;
            if self.violations > tolerated || self.abandonments > tolerated {
                return Some(self.finish(&policy.estimate(), tried, false));
            }
            match out.error {
                None => return None,
                // A cancellation from inside the substrate is terminal,
                // never retried: the controller asked the run to stop.
                Some(PbError::Cancelled(reason)) => return Some(self.cancelled(reason, tried)),
                // Spill machinery failed: retry the same plan unspilled
                // (shallower learning, same budget).
                Some(PbError::SpillFailure { .. }) if step.spill => {
                    step.spill = false;
                    self.events.push(RobustEvent::SpillRetry { contour, plan });
                }
                Some(error) if attempt < self.cfg.plan_retries => {
                    attempt += 1;
                    self.events.push(RobustEvent::Retry {
                        contour,
                        plan,
                        attempt,
                        error,
                    });
                }
                Some(error) => {
                    self.abandonments += 1;
                    self.events.push(RobustEvent::PlanAbandoned {
                        contour,
                        plan,
                        error,
                    });
                    return None;
                }
            }
        }
    }

    fn cancelled(&mut self, reason: String, contours_tried: usize) -> ExecutionOutcome {
        self.events.push(RobustEvent::Cancelled { reason });
        ExecutionOutcome::Cancelled { contours_tried }
    }

    /// Charge one execution to the run and record it; `monitored` also
    /// checks its spend against the grant: completed and faulted executions
    /// may spend less, aborts must burn exactly the budget, nothing may ever
    /// exceed it — the accounting invariants behind the worst-case
    /// multiplier, so breaking them is a monotonicity violation.
    fn charge(&mut self, step: &Step, out: &SubstrateOutcome, monitored: bool) {
        let (contour, plan, budget) = (step.contour, step.plan, step.budget);
        self.total += out.spent;
        self.trace.push(PartialExec {
            contour,
            plan,
            budget,
            spent: out.spent,
            completed: out.completed,
            spilled: step.spill,
            learned: out.observed.first().copied(),
            error: out.error.clone(),
        });
        if !monitored || !budget.is_finite() {
            return;
        }
        // `spent` excludes checkpoint-reused work; the invariants are stated
        // in restart semantics, so the monitor adds it back.
        let spent = out.spent + out.reused;
        let overcharge = spent > budget * (1.0 + 1e-9);
        // A spilled prefix that consumed its whole input resolved its
        // dimension and rightly stopped short of the grant; any other
        // unfaulted abort burns all of it.
        let resolved_prefix = out.spilled && !out.resolved.is_empty();
        let skewed_abort = !out.completed
            && out.error.is_none()
            && !resolved_prefix
            && spent < budget * (1.0 - 1e-9);
        if overcharge || skewed_abort {
            self.violations += 1;
            self.events.push(RobustEvent::MonitorViolation {
                detail: format!(
                    "contour {contour} plan {plan}: spent {spent} vs budget {budget} ({})",
                    if overcharge {
                        "spend exceeds budget"
                    } else {
                        "abort burned less than its budget"
                    }
                ),
            });
        }
    }

    /// The finishing rung: discovery is over — tolerance exceeded, or
    /// (`capped`) the spend cap blocked the next grant — and the native
    /// optimizer's plan at `est` runs on whatever the cap leaves or,
    /// uncapped, without a budget. Everything spent stays charged and the
    /// cap is never exceeded. The capped rung is one monitored attempt; the
    /// degraded rung retries faults like discovery does, unmonitored.
    fn finish(&mut self, est: &SelPoint, tried: usize, capped: bool) -> ExecutionOutcome {
        let cap = self.cfg.spend_cap;
        self.events.push(if capped {
            RobustEvent::SpendCapReached {
                cap: cap.unwrap_or(f64::INFINITY),
                spent: self.total,
            }
        } else {
            RobustEvent::Degraded {
                reason: format!(
                    "{} monitor violations, {} plan abandonments (tolerance {})",
                    self.violations, self.abandonments, self.cfg.max_violations
                ),
            }
        });
        let ess = &self.b.workload.ess;
        let plan = self.b.diagram.optimal[ess.linear(&ess.snap_floor(est))] as PlanId;
        let mut rung = Step {
            tried,
            contour: 0,
            plan,
            budget: f64::INFINITY,
            spill: false,
        };
        let retries = if capped { 0 } else { self.cfg.plan_retries };
        for attempt in 0..=retries {
            rung.budget = cap.map_or(f64::INFINITY, |cap| cap - self.total);
            if rung.budget <= 0.0 {
                break;
            }
            let out = match cap {
                Some(_) => self.sub.execute_partial(plan, rung.budget),
                None => self.sub.run_native(plan),
            };
            self.charge(&rung, &out, capped);
            if out.completed {
                return ExecutionOutcome::Degraded {
                    final_plan: plan,
                    final_cost: out.spent,
                };
            }
            match out.error {
                Some(error) if !capped => self.events.push(RobustEvent::Retry {
                    contour: 0,
                    plan,
                    attempt,
                    error,
                }),
                // An abort under an infinite budget cannot happen; bail out
                // rather than loop.
                _ => break,
            }
        }
        ExecutionOutcome::BudgetExhausted {
            contours_tried: tried,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::BouquetConfig;
    use crate::drivers::basic::tests::eq_1d;
    use crate::substrate::SimulatorSubstrate;
    use pb_faults::FaultInjector;

    /// A basic run deep enough to abort on several contours before it
    /// completes, with the bouquet and the configuration it ran under.
    fn fixture(resume: bool) -> (Bouquet, RobustConfig, RobustRun, f64) {
        let w = eq_1d();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let qa = w.ess.point(&[40]);
        let cfg = RobustConfig {
            resume,
            ..RobustConfig::plain(false)
        };
        let mut sub = SimulatorSubstrate::new(&b, &qa, FaultInjector::none()).unwrap();
        let run = b.run(&mut sub, &cfg).unwrap();
        let reused = sub.resume_stats().reused_cost;
        assert!(run.run.trace.len() > 2, "fixture too short: {:?}", run.run);
        (b, cfg, run, reused)
    }

    /// `audit` on a copy of the fixture run corrupted by `corrupt`.
    fn audit_corrupted(corrupt: impl Fn(&Bouquet, &mut RobustRun)) -> String {
        let (b, cfg, mut run, _) = fixture(false);
        run.audit(&b, &cfg).unwrap();
        corrupt(&b, &mut run);
        run.audit(&b, &cfg).unwrap_err()
    }

    #[test]
    fn audit_refuses_a_shifted_total() {
        let e = audit_corrupted(|_, r| r.run.total_cost *= 1.001);
        assert!(e.contains("trace's spend"), "{e}");
    }

    #[test]
    fn audit_refuses_a_foreign_plan() {
        let e = audit_corrupted(|b, r| {
            let set = &b.contours[r.run.trace[0].contour - 1].plan_set;
            r.run.trace[0].plan = (0..).find(|p| !set.contains(p)).unwrap();
        });
        assert!(e.contains("is not on contour"), "{e}");
    }

    #[test]
    fn audit_refuses_an_off_schedule_budget() {
        let e = audit_corrupted(|_, r| r.run.trace[1].budget *= 2.0);
        assert!(e.contains("budget"), "{e}");
    }

    #[test]
    fn audit_refuses_an_execution_after_the_finishing_rung() {
        let e = audit_corrupted(|_, r| r.run.trace[0].contour = 0);
        assert!(e.contains("follows the finishing rung"), "{e}");
    }

    #[test]
    fn audit_refuses_a_total_over_the_cap() {
        let (b, cfg, run, _) = fixture(false);
        let capped = RobustConfig {
            spend_cap: Some(run.run.total_cost / 2.0),
            ..cfg
        };
        let e = run.audit(&b, &capped).unwrap_err();
        assert!(e.contains("exceeds the cap"), "{e}");
    }

    #[test]
    fn audit_refuses_an_outcome_the_trace_does_not_show() {
        let e = audit_corrupted(|_, r| {
            r.run.outcome = ExecutionOutcome::BudgetExhausted { contours_tried: 1 };
        });
        assert!(e.contains("does not match"), "{e}");
        let e = audit_corrupted(|_, r| {
            if let ExecutionOutcome::Completed { final_cost, .. } = &mut r.run.outcome {
                *final_cost += 1.0;
            }
        });
        assert!(e.contains("does not match"), "{e}");
        let e = audit_corrupted(|_, r| r.run.trace[0].completed = true);
        assert!(e.contains("does not match"), "{e}");
    }

    #[test]
    fn audit_resumed_holds_a_resumed_run_to_its_restart() {
        let (_, _, restart, _) = fixture(false);
        let (_, _, resumed, reused) = fixture(true);
        assert!(reused > 0.0, "resume never engaged");
        resumed.audit_resumed(reused, &restart).unwrap();
        let e = resumed.audit_resumed(2.0 * reused, &restart).unwrap_err();
        assert!(e.contains("is not the restart cost"), "{e}");
        let mut swapped = resumed.clone();
        swapped.run.trace[0].plan += 1;
        let e = swapped.audit_resumed(reused, &restart).unwrap_err();
        assert!(e.contains("where the restart ran"), "{e}");
    }
}
