//! Tenant spend-cap accounting: exhaustion exactly at a decision point.
//!
//! The serving layer enforces per-tenant budgets by threading
//! `RobustConfig::spend_cap` into the robust driver, which checks the cap
//! *before* granting each execution's budget and finishes on the capped
//! rung when it would be breached. The adversarial placement is a cap set
//! to the run's own cumulative spend at an execution boundary — the exact
//! instant the driver decides whether to retry, escalate, or abandon.
//! There the accounting must hold with no slack:
//!
//! * `RobustRun::audit` under the cap: the trace's per-execution spends sum
//!   to `total_cost` — an execution cut off at the cap is charged once,
//!   never twice — and `total_cost` never exceeds the cap;
//! * no execution spends more than the budget it was granted;
//! * the outcome is [`ExecutionOutcome::BudgetExhausted`] or (when the
//!   leftover headroom funds a completing native attempt)
//!   [`ExecutionOutcome::Degraded`] — never a silent `Completed`.
//!
//! Property-tested over random true locations, both drivers, and fault
//! plans that force retry/abandon traffic right where the cap lands, on
//! both the cost-unit simulator and the vectorized engine substrate.

use std::sync::OnceLock;

use proptest::prelude::*;

use pb_faults::{FaultKind, FaultPlan, Trigger};
use plan_bouquet::bouquet::{
    Bouquet, BouquetConfig, BouquetRun, EngineSubstrate, ExecutionOutcome, ExecutionSubstrate,
    RobustConfig, SimulatorSubstrate,
};
use plan_bouquet::engine::Database;
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::workloads;

fn bouquet_2d() -> &'static Bouquet {
    static B: OnceLock<Bouquet> = OnceLock::new();
    B.get_or_init(|| {
        Bouquet::identify(&workloads::h_q8a_2d(0.01), &BouquetConfig::default()).unwrap()
    })
}

fn engine_db() -> &'static Database {
    static D: OnceLock<Database> = OnceLock::new();
    D.get_or_init(|| {
        let b = bouquet_2d();
        Database::generate(&b.workload.catalog, 42, &[]).unwrap()
    })
}

/// Cumulative charged spend after each trace entry — the decision
/// boundaries where the driver consults the cap.
fn boundaries(run: &BouquetRun) -> Vec<f64> {
    run.trace
        .iter()
        .scan(0.0, |acc, e| {
            *acc += e.spent;
            Some(*acc)
        })
        .collect()
}

fn rel_le(a: f64, b: f64) -> bool {
    a <= b * (1.0 + 1e-9) + 1e-12
}

/// Run uncapped, place the cap exactly on a chosen decision boundary, and
/// check the capped rerun's accounting. `pick` selects the boundary from
/// the eligible ones (those strictly below the uncapped total, so the cap
/// genuinely binds).
fn check_cap_at_boundary<S, F>(label: &str, b: &Bouquet, mk_sub: F, cfg: &RobustConfig, pick: f64)
where
    S: ExecutionSubstrate,
    F: Fn() -> S,
{
    let mut free_sub = mk_sub();
    let free = b
        .run(&mut free_sub, cfg)
        .unwrap_or_else(|e| panic!("{label}: uncapped run failed: {e:?}"));
    if let Err(e) = free.audit(b, cfg) {
        panic!("{label}: uncapped run: {e}");
    }
    let total = free.run.total_cost;
    let cuts: Vec<f64> = boundaries(&free.run)
        .into_iter()
        .filter(|c| *c < total * (1.0 - 1e-9))
        .collect();
    if cuts.is_empty() {
        // Single-execution run: no interior boundary to cut at.
        return;
    }
    let cap = cuts[((pick * cuts.len() as f64) as usize).min(cuts.len() - 1)];

    let cfg_cap = RobustConfig {
        spend_cap: Some(cap),
        ..cfg.clone()
    };
    let mut sub = mk_sub();
    let capped = b
        .run(&mut sub, &cfg_cap)
        .unwrap_or_else(|e| panic!("{label}: capped run failed: {e:?}"));
    if let Err(e) = capped.audit(b, &cfg_cap) {
        panic!("{label} cap={cap}: {e}");
    }
    let run = &capped.run;

    // Terminal state: the cap binds, so the run can never claim a full
    // bouquet completion — only exhaustion, or degraded-within-headroom.
    assert!(
        matches!(
            run.outcome,
            ExecutionOutcome::BudgetExhausted { .. } | ExecutionOutcome::Degraded { .. }
        ),
        "{label} cap={cap}: capped run ended {:?}",
        run.outcome
    );

    // Per-execution: nothing spends past its grant, even the execution the
    // cap truncated.
    for (i, e) in run.trace.iter().enumerate() {
        assert!(
            rel_le(e.spent, e.budget),
            "{label} cap={cap}: exec {i} spent {} over its {} grant",
            e.spent,
            e.budget
        );
    }

    // Determinism: until the cap intervenes, the capped run walks the same
    // (contour, plan) decisions as the free run. The capped rung's own
    // fallback entry (contour 0) may terminate the trace early.
    for (i, (f, c)) in free.run.trace.iter().zip(&run.trace).enumerate() {
        if c.budget.to_bits() != f.budget.to_bits() {
            break; // the truncated grant — everything after is capped-rung
        }
        assert_eq!(
            (f.contour, f.plan),
            (c.contour, c.plan),
            "{label} cap={cap}: decision {i} diverged before the cap bound"
        );
    }
}

/// The fault plan used to pile retry/abandon decisions around the cap:
/// every third budgeted execution dies mid-flight, wasting half its grant.
fn flaky(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with(
        FaultKind::OperatorFailure { waste_frac: 0.5 },
        Trigger::Every(3),
    )
}

/// Both policies, on an unarmed and on a flaky substrate.
fn sim_cfgs(seed: u64) -> Vec<(&'static str, RobustConfig, FaultPlan)> {
    let mut cfgs = Vec::new();
    for optimized in [false, true] {
        let cfg = RobustConfig {
            optimized,
            ..Default::default()
        };
        cfgs.push((
            if optimized { "sim/opt" } else { "sim/basic" },
            cfg.clone(),
            FaultPlan::none(),
        ));
        cfgs.push((
            if optimized {
                "sim/opt+faults"
            } else {
                "sim/basic+faults"
            },
            cfg,
            flaky(seed),
        ));
    }
    cfgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulator substrate: cap-at-boundary accounting at random true
    /// locations, both drivers, with and without fault traffic.
    #[test]
    fn simulator_cap_at_decision_point_never_double_charges(
        f in [0.0f64..=1.0, 0.0f64..=1.0],
        pick in 0.0f64..1.0,
        seed in 0u64..1024,
    ) {
        let b = bouquet_2d();
        let qa = b.workload.ess.point_at_fractions(&f);
        for (label, cfg, faults) in sim_cfgs(seed) {
            check_cap_at_boundary(
                label,
                b,
                || SimulatorSubstrate::new(b, &qa, FaultInjector::new(&faults)).unwrap(),
                &cfg,
                pick,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Engine substrate: the same contract on real tuples (fewer cases —
    /// each probe is four full engine-backed bouquet runs).
    #[test]
    fn engine_cap_at_decision_point_never_double_charges(
        pick in 0.0f64..1.0,
        optimized in any::<bool>(),
    ) {
        let b = bouquet_2d();
        let db = engine_db();
        let cfg = RobustConfig { optimized, ..Default::default() };
        check_cap_at_boundary(
            if optimized { "engine/opt" } else { "engine/basic" },
            b,
            || EngineSubstrate::new(b, db, FaultInjector::none()),
            &cfg,
            pick,
        );
    }
}

/// Deterministic pin: with the cap placed on *every* boundary of a single
/// faulted run — including right after a retried and an abandoned
/// execution — the invariants hold at each placement.
#[test]
fn every_boundary_of_a_faulted_run_holds() {
    let b = bouquet_2d();
    let qa = b.workload.ess.point_at_fractions(&[0.7, 0.55]);
    let cfg = RobustConfig::default();
    let mk_sub = || SimulatorSubstrate::new(b, &qa, FaultInjector::new(&flaky(7))).unwrap();
    let free = b.run(&mut mk_sub(), &cfg).unwrap();
    assert!(
        free.run.trace.iter().any(|e| e.error.is_some()),
        "fixture run met no fault"
    );
    let n = free.run.trace.len();
    assert!(n > 2, "fixture run too short to cut ({n} executions)");
    for i in 0..n {
        let pick = (i as f64 + 0.5) / n as f64;
        check_cap_at_boundary("sim/every-boundary", b, mk_sub, &cfg, pick);
    }
}
