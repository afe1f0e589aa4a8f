//! Robustness integration tests: the recovery settings change nothing on a
//! fault-free substrate (property-tested over random TPC-H / TPC-DS
//! locations, and swept over every location of a 4D space), the plain
//! settings on an armed one, typed dimension-mismatch errors, budget
//! exhaustion under extreme model error, the degradation ladder under
//! persistent faults, and the benchmark's four entry points. Every run's
//! books go through `RobustRun::audit`.

use std::sync::OnceLock;

use proptest::prelude::*;

use pb_faults::{CancelToken, FaultInjector, FaultKind, FaultPlan, PbError, Trigger};
use plan_bouquet::bouquet::{
    Bouquet, BouquetConfig, ExecutionOutcome, ExecutionSubstrate, RobustConfig, RobustEvent,
    RobustRun, SimulatorSubstrate,
};
use plan_bouquet::cost::{CostPerturbation, SelPoint};
use plan_bouquet::workloads;

fn bouquet_h() -> &'static Bouquet {
    static B: OnceLock<Bouquet> = OnceLock::new();
    B.get_or_init(|| {
        let w = workloads::by_name("EQ_1D").unwrap();
        Bouquet::identify(&w, &BouquetConfig::default()).unwrap()
    })
}

fn bouquet_ds() -> &'static Bouquet {
    static B: OnceLock<Bouquet> = OnceLock::new();
    B.get_or_init(|| {
        let w = workloads::by_name("3D_DS_Q15").unwrap();
        Bouquet::identify(&w, &BouquetConfig::default()).unwrap()
    })
}

/// One run at `qa` on the simulator armed with `faults`, its books audited.
fn run_armed(
    b: &Bouquet,
    qa: &SelPoint,
    faults: &FaultPlan,
    cfg: &RobustConfig,
) -> Result<RobustRun, PbError> {
    let mut sub = SimulatorSubstrate::new(b, qa, FaultInjector::new(faults))?;
    let run = b.run(&mut sub, cfg)?;
    if let Err(e) = run.audit(b, cfg) {
        panic!("{qa:?}: {e}");
    }
    Ok(run)
}

/// With an empty fault plan, the default recovery settings must run exactly
/// what the plain ones do — same trace, same outcome, same total — and must
/// record nothing.
fn assert_inert_equivalence(b: &Bouquet, qa: &SelPoint) {
    for optimized in [false, true] {
        let cfg = RobustConfig {
            optimized,
            ..Default::default()
        };
        let robust = run_armed(b, qa, &FaultPlan::none(), &cfg).unwrap();
        let plain = if optimized {
            b.run_optimized(qa).unwrap()
        } else {
            b.run_basic(qa).unwrap()
        };
        assert_eq!(robust.run, plain, "optimized={optimized}");
        assert!(robust.events.is_empty());
        assert!(!matches!(
            robust.run.outcome,
            ExecutionOutcome::Degraded { .. }
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TPC-H 1D: fault-free robust runs are the plain runs, at any location.
    #[test]
    fn empty_fault_plan_is_inert_tpch(f in 0.0f64..=1.0) {
        let b = bouquet_h();
        let qa = b.workload.ess.point_at_fractions(&[f]);
        assert_inert_equivalence(b, &qa);
    }

    /// TPC-DS 3D: same property on a multidimensional error space.
    #[test]
    fn empty_fault_plan_is_inert_tpcds(f in [0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0]) {
        let b = bouquet_ds();
        let qa = b.workload.ess.point_at_fractions(&f);
        assert_inert_equivalence(b, &qa);
    }
}

/// Every grid location of a 4D space, both policies, fault-free: nothing
/// is recorded. A spilled prefix that resolves its dimension under budget
/// is not an abort that burned less than its grant.
#[test]
fn fault_free_runs_record_no_events_at_every_4d_location() {
    let w = workloads::by_name("4D_DS_Q91").unwrap();
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    for li in 0..w.ess.num_points() {
        let qa = w.ess.point(&w.ess.unlinear(li));
        for optimized in [false, true] {
            let cfg = RobustConfig {
                optimized,
                ..Default::default()
            };
            let rr = run_armed(&b, &qa, &FaultPlan::none(), &cfg).unwrap();
            assert!(
                rr.events.is_empty(),
                "location {li}, optimized={optimized}: {:?}",
                rr.events
            );
        }
    }
}

#[test]
fn dimension_mismatch_is_a_typed_error() {
    let b = bouquet_h();
    let qa = SelPoint(vec![0.5, 0.5]); // 2D point against a 1D bouquet
    match b.run_basic(&qa) {
        Err(PbError::DimensionMismatch {
            expected: 1,
            got: 2,
        }) => {}
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    assert!(b.run_optimized(&qa).is_err());
    let cfg = RobustConfig::default();
    assert!(run_armed(b, &qa, &FaultPlan::none(), &cfg).is_err());
}

/// Under extreme model error (δ so large actual costs can exceed every
/// overflow doubling) the basic driver must report `BudgetExhausted` rather
/// than looping or panicking — and must still charge every abort.
#[test]
fn extreme_model_error_exhausts_the_budget_schedule() {
    let b = bouquet_h();
    let qa = b.workload.ess.point_at_fractions(&[0.9]);
    let cfg = RobustConfig::plain(false);
    let mut exhausted = false;
    for seed in 0..64 {
        let mut sub = SimulatorSubstrate::new(b, &qa, FaultInjector::none())
            .unwrap()
            .with_model_error(CostPerturbation::with_delta(1e300, seed));
        let rr = b.run(&mut sub, &cfg).unwrap();
        rr.audit(b, &cfg).unwrap();
        if let ExecutionOutcome::BudgetExhausted { contours_tried } = rr.run.outcome {
            exhausted = true;
            // The full schedule — grading plus all overflow doublings — was
            // driven to the end, every abort charged (the audit).
            assert!(contours_tried > b.contours.len());
            break;
        }
    }
    assert!(
        exhausted,
        "no perturbation seed exhausted the schedule — δ=1e300 should defeat 64 doublings"
    );
}

/// A token tripped before the run and held only by the substrate stops
/// the run before its first grant, under every policy and setting: nothing
/// executed, nothing charged, one schedule rung reported.
#[test]
fn a_token_on_the_substrate_alone_stops_the_run_before_its_first_grant() {
    let b = bouquet_h();
    let qa = b.workload.ess.point_at_fractions(&[0.9]);
    for cfg in [
        RobustConfig::plain(false),
        RobustConfig::plain(true),
        RobustConfig::default(),
    ] {
        let token = CancelToken::new();
        token.cancel();
        let mut sub = SimulatorSubstrate::new(b, &qa, FaultInjector::none())
            .unwrap()
            .with_cancel(token);
        let rr = b.run(&mut sub, &cfg).unwrap();
        let expected = ExecutionOutcome::Cancelled { contours_tried: 1 };
        assert_eq!(rr.run.outcome, expected, "{cfg:?}");
        assert!(rr.run.trace.is_empty(), "{cfg:?}: {:?}", rr.run.trace);
        assert_eq!(rr.run.total_cost, 0.0, "{cfg:?}");
        assert!(matches!(rr.events[..], [RobustEvent::Cancelled { .. }]));
        rr.audit(b, &cfg).unwrap();
    }
}

/// A transient operator failure is retried on the same plan; the wasted
/// attempt stays charged and the run still completes.
#[test]
fn transient_fault_is_retried_and_charged() {
    let b = bouquet_h();
    let qa = b.workload.ess.point_at_fractions(&[0.7]);
    let plain = b.run_basic(&qa).unwrap();
    let faults = FaultPlan::new(5).with(
        FaultKind::OperatorFailure { waste_frac: 0.5 },
        Trigger::Nth(1),
    );
    let robust = run_armed(b, &qa, &faults, &RobustConfig::default()).unwrap();
    assert!(robust.run.completed());
    assert!(!matches!(
        robust.run.outcome,
        ExecutionOutcome::Degraded { .. }
    ));
    assert!(robust
        .events
        .iter()
        .any(|e| matches!(e, RobustEvent::Retry { .. })));
    // The faulted first attempt is charged on top of the plain schedule.
    assert!(robust.run.total_cost > plain.total_cost);
}

/// An operator failure burns a fraction of what the executed tree would
/// have cost, capped by the granted budget — never more than completing the
/// plan would: at 4× a plan's cost the monitored execution and the
/// unbudgeted finishing rung both spend exactly `waste_frac` × that cost.
#[test]
fn operator_failure_burns_at_most_the_plan_cost() {
    let b = bouquet_h();
    let qa = b.workload.ess.point_at_fractions(&[0.7]);
    let faults = FaultPlan::new(3).with(
        FaultKind::OperatorFailure { waste_frac: 0.5 },
        Trigger::Nth(1),
    );
    let armed = || SimulatorSubstrate::new(b, &qa, FaultInjector::new(&faults)).unwrap();
    let mut clean = SimulatorSubstrate::new(b, &qa, FaultInjector::none()).unwrap();
    for pid in b.plan_ids() {
        let cost = clean.run_native(pid).spent;
        let unresolved = vec![false; b.workload.ess.d()];
        let monitored = armed().execute_monitored(pid, &unresolved, 4.0 * cost, false);
        let native = armed().run_native(pid);
        for out in [monitored, native] {
            assert!(matches!(out.error, Some(PbError::OperatorFailure { .. })));
            assert_eq!(
                out.spent.to_bits(),
                (0.5 * cost).to_bits(),
                "plan {pid}: {out:?}"
            );
        }
    }
}

/// A clock-skew fault that starves every budget trips the spend monitor and
/// degrades to the native-optimizer rung, which completes unbudgeted.
#[test]
fn persistent_skew_degrades_to_native_execution() {
    let b = bouquet_h();
    let qa = b.workload.ess.point_at_fractions(&[0.9]);
    let faults = FaultPlan::new(1).with(
        FaultKind::BudgetClockSkew { factor: 1e-6 },
        Trigger::Every(1),
    );
    let cfg = RobustConfig {
        max_violations: 3,
        ..Default::default()
    };
    let robust = run_armed(b, &qa, &faults, &cfg).unwrap();
    assert!(matches!(
        robust.run.outcome,
        ExecutionOutcome::Degraded { .. }
    ));
    assert!(robust
        .events
        .iter()
        .any(|e| matches!(e, RobustEvent::MonitorViolation { .. })));
    assert!(robust
        .events
        .iter()
        .any(|e| matches!(e, RobustEvent::Degraded { .. })));
    // The degraded execution is the last trace entry (the audit), and
    // unbudgeted.
    assert!(robust.run.trace.last().unwrap().budget.is_infinite());
}

/// Faults that never stop (every execution fails, retries exhausted, and the
/// degraded rung fails too) end in `BudgetExhausted` — never a panic or an
/// unaccounted abort.
#[test]
fn unrecoverable_faults_end_in_budget_exhausted() {
    let b = bouquet_h();
    let qa = b.workload.ess.point_at_fractions(&[0.5]);
    let faults = FaultPlan::new(2).with(
        FaultKind::OperatorFailure { waste_frac: 0.5 },
        Trigger::Every(1),
    );
    let cfg = RobustConfig {
        plan_retries: 1,
        max_violations: 2,
        ..Default::default()
    };
    let robust = run_armed(b, &qa, &faults, &cfg).unwrap();
    assert!(matches!(
        robust.run.outcome,
        ExecutionOutcome::BudgetExhausted { .. }
    ));
    assert!(robust
        .events
        .iter()
        .any(|e| matches!(e, RobustEvent::PlanAbandoned { .. })));
}

/// The plain settings on an armed substrate — the paper's algorithms as
/// drawn, meeting faults they have no answer to: a faulted execution is
/// charged once, its plan is abandoned without a retry, and discovery never
/// degrades, whether the faults let the run complete or not.
#[test]
fn plain_settings_never_retry_never_degrade_and_charge_each_fault_once() {
    let b = bouquet_ds();
    let qa = b.workload.ess.point_at_fractions(&[0.6, 0.7, 0.8]);
    for trigger in [Trigger::Nth(1), Trigger::Every(2), Trigger::Every(1)] {
        let faults =
            FaultPlan::new(9).with(FaultKind::OperatorFailure { waste_frac: 0.5 }, trigger);
        for optimized in [false, true] {
            let tag = format!("{trigger:?} optimized={optimized}");
            let rr = run_armed(b, &qa, &faults, &RobustConfig::plain(optimized)).unwrap();
            let faulted: Vec<_> = rr.run.trace.iter().filter(|e| e.error.is_some()).collect();
            assert!(!faulted.is_empty(), "{tag}: no fault landed");
            // Never retried: a faulted (contour, plan) is never granted again.
            for e in &faulted {
                let grants = rr
                    .run
                    .trace
                    .iter()
                    .filter(|o| (o.contour, o.plan) == (e.contour, e.plan));
                assert_eq!(
                    grants.count(),
                    1,
                    "{tag}: IC{} P{} re-run",
                    e.contour,
                    e.plan
                );
                assert!(e.spent > 0.0 && e.spent < e.budget, "{tag}: {e:?}");
            }
            // Every fault is one abandonment, and nothing else was recorded.
            assert_eq!(rr.events.len(), faulted.len(), "{tag}: {:?}", rr.events);
            assert!(rr
                .events
                .iter()
                .all(|e| matches!(e, RobustEvent::PlanAbandoned { .. })));
            // Never degraded, however many plans were abandoned.
            assert!(
                !matches!(rr.run.outcome, ExecutionOutcome::Degraded { .. })
                    && rr.run.trace.iter().all(|e| e.contour > 0),
                "{tag}"
            );
            match rr.run.outcome {
                ExecutionOutcome::Completed { .. } => assert!(trigger != Trigger::Every(1)),
                ExecutionOutcome::BudgetExhausted { .. } => assert!(faulted.len() > 3),
                ref other => panic!("{tag}: {other:?}"),
            }
        }
    }
}

/// The four entry points `benchmark/` calls by name are `run` under a fixed
/// configuration, so the `benchmark` PR that moves it to `run` changes no
/// number.
#[test]
fn benchmark_entry_points_are_run_under_a_configuration() {
    let w = workloads::by_name("2D_H_Q8A").unwrap();
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let sub = |qa: &SelPoint| SimulatorSubstrate::new(&b, qa, FaultInjector::none()).unwrap();
    for fr in [[0.05, 0.1], [0.5, 0.5], [0.3, 0.95], [1.0, 1.0]] {
        let qa = w.ess.point_at_fractions(&fr);
        let run = |cfg: &RobustConfig| {
            let mut s = sub(&qa);
            (b.run(&mut s, cfg).unwrap(), s.resume_stats())
        };
        let plain = RobustConfig::plain(false);
        assert_eq!(b.run_basic_on(&mut sub(&qa)).unwrap(), run(&plain).0.run);
        let opt = RobustConfig::plain(true);
        assert_eq!(b.run_optimized_on(&mut sub(&qa)).unwrap(), run(&opt).0.run);
        for optimized in [false, true] {
            let cfg = RobustConfig {
                optimized,
                ..Default::default()
            };
            assert_eq!(b.run_robust_on(&mut sub(&qa), &cfg).unwrap(), run(&cfg).0);
        }
        let mut resumable = sub(&qa);
        resumable.enable_checkpoint_resume();
        let rr = b.run(&mut resumable, &plain).unwrap();
        let stats = resumable.resume_stats();
        let shim = b.run_basic_resumable_on(&mut sub(&qa)).unwrap();
        assert_eq!(shim, (rr.run, stats));
        assert!(stats.reused_cost > 0.0 || shim.0.trace.len() == 1, "{fr:?}");
    }
}
