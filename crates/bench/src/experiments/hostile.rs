//! Hostile-workload ladder: the typed-dimension spaces
//! (`HOSTILE_INEQ_2D`, `HOSTILE_ANTI_2D`) driven end to end.
//!
//! Each workload runs the full ladder: identification, then the basic,
//! optimized and robust drivers on the **engine** substrate against
//! generated tuples, cross-checked against the cost-unit **simulator** at
//! the measured true location, plus the whole-grid simulator evaluation
//! (NAT / SEER / PARQO / BOU MSO & ASO). The hostile part is stale
//! statistics: the estimator's view of the inequality-join and anti-join
//! axes is skewed hard away from the generated data's truth, so NAT lands
//! far from the optimum while the bouquet's ladder stays bounded.

use std::fmt::Write as _;

use pb_bouquet::eval::evaluate_with_bouquet;
use pb_bouquet::{
    Bouquet, BouquetConfig, BouquetRun, EngineSubstrate, ExecutionOutcome, RobustConfig, Workload,
};
use pb_cost::Estimator;
use pb_engine::{Database, Engine};
use pb_faults::FaultInjector;
use pb_workloads::{hostile_anti_2d, hostile_ineq_2d};

use crate::engine_driver::{
    decision_seq, engine_run_bouquet, engine_run_nat, matches_simulator, measure_qa,
};
use crate::table::{fnum, Table};

/// The exhibit's scale factor.
const SF: f64 = 0.005;

/// One hostile workload's ladder results.
struct HostileReport {
    workload: String,
    dim_kinds: Vec<String>,
    /// Estimated location under the stale statistics (coordinates).
    qe: Vec<f64>,
    /// Location measured against the generated tuples (coordinates).
    qa: Vec<f64>,
    /// Engine cost units.
    nat_cost: f64,
    oracle_cost: f64,
    basic: BouquetRun,
    optimized: BouquetRun,
    /// Result rows of the basic driver's completing execution.
    result_rows: usize,
    /// Robust-driver (fault-free) engine run: must match the basic driver's
    /// decisions exactly and never degrade.
    robust_cost: f64,
    robust_degraded: bool,
    /// Engine-measured sub-optimality vs the engine oracle.
    nat_subopt: f64,
    basic_subopt: f64,
    optimized_subopt: f64,
    /// Whole-grid simulator evaluation (MSO/ASO per strategy).
    nat_mso: f64,
    seer_mso: f64,
    parqo_mso: f64,
    bou_mso: f64,
    bou_aso: f64,
    mso_bound: f64,
    /// The grid guarantee: BOU's simulator MSO within the Eq. 8 bound.
    mso_within_bound: bool,
    /// Basic-driver decision sequence identical between engine substrate
    /// and simulator at the measured qa.
    crosscheck_ok: bool,
}

/// Stale-statistics setup for the inequality-join space: the estimator is
/// told `s_acctbal` tops out below almost every `p_size`, so it predicts
/// the inequality join passes nearly nothing; the generated data's domain
/// makes it pass ~90% of pairs.
pub fn setup_ineq(sf: f64) -> (Workload, Bouquet, Database) {
    let mut w = hostile_ineq_2d(sf);
    let db = Database::generate(&w.catalog, 11, &[]).expect("generate");
    let cs = w.catalog.column_stats_mut("supplier", "s_acctbal");
    cs.max = 1.0;
    cs.histogram = None;
    let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
    (w, b, db)
}

/// Stale-statistics setup for the anti-join space: the join-key NDVs are
/// understated 10×, so the estimated match density is 10× too high — which,
/// on the flipped axis, places the estimate 10× *below* the true
/// coordinate (NAT plans for far fewer anti-join survivors than the data
/// produces).
pub fn setup_anti(sf: f64) -> (Workload, Bouquet, Database) {
    let mut w = hostile_anti_2d(sf);
    let db = Database::generate(&w.catalog, 13, &[]).expect("generate");
    let stale = (w.catalog.table("part").expect("part").rows / 10.0).max(1.0);
    w.catalog.column_stats_mut("lineitem", "l_partkey").ndv = stale;
    w.catalog.column_stats_mut("partsupp", "ps_partkey").ndv = stale;
    // The anti edge hangs off the top of every plan, so its axis moves
    // costs but not join orders; the plan-switching hostility comes from a
    // stale selection domain that makes `p_retailprice < 1000` look ~100×
    // rarer than the generated data's truth.
    let cs = w.catalog.column_stats_mut("part", "p_retailprice");
    cs.min = 999.0;
    cs.histogram = None;
    let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
    (w, b, db)
}

fn run_one(w: &Workload, b: &Bouquet, db: &Database) -> HostileReport {
    let est = Estimator::new(&w.catalog);
    let lo: Vec<f64> = w.ess.dims.iter().map(|d| d.lo).collect();
    let hi: Vec<f64> = w.ess.dims.iter().map(|d| d.hi).collect();
    let qe = est.estimate_point(&w.query, &lo, &hi);
    let qa = measure_qa(db, &w.query, &w.ess).expect("measure qa");

    let nat_cost = engine_run_nat(b, db, &qe);
    let oracle_plan = w.optimizer().optimize(&qa).plan;
    let engine = Engine::new(db, &w.query, &w.model.p);
    let oracle_cost = engine.execute(&oracle_plan.root, f64::INFINITY).cost();

    let engine_run = |optimized: bool| {
        engine_run_bouquet(b, db, &RobustConfig::plain(optimized), false).expect("engine run")
    };
    let ((basic, result_rows, _), (optd, _, _)) = (engine_run(false), engine_run(true));
    let (basic, optd) = (basic.run, optd.run);
    assert!(
        basic.completed() && optd.completed(),
        "hostile runs must complete"
    );

    // The default recovery settings, fault-free: same decisions, no
    // degradation.
    let mut sub = EngineSubstrate::new(b, db, FaultInjector::none());
    let robust = b
        .run(&mut sub, &RobustConfig::default())
        .expect("robust engine run");
    assert!(matches!(
        robust.run.outcome,
        ExecutionOutcome::Completed { .. }
    ));
    assert_eq!(
        decision_seq(&robust.run),
        decision_seq(&basic),
        "fault-free recovery settings must not change the basic ladder"
    );

    // Simulator substrate: decisions at the measured qa must agree.
    let crosscheck_ok = matches_simulator(&basic, b, &qa);

    // Whole-grid simulator evaluation.
    let costs = b.diagram.cost_matrix(&w.catalog, &w.query, &w.model);
    let ev = evaluate_with_bouquet(w, b, &costs).expect("evaluate");
    let mso_bound = b.mso_bound();
    let mso_within_bound = ev.bou_basic.mso <= mso_bound * (1.0 + 1e-9);

    HostileReport {
        workload: w.name.clone(),
        dim_kinds: (0..w.d())
            .map(|d| w.query.dim_kind(d).unwrap_or_default().label().into())
            .collect(),
        qe: qe.0.clone(),
        qa: qa.0.clone(),
        nat_cost,
        oracle_cost,
        nat_subopt: nat_cost / oracle_cost,
        basic_subopt: basic.total_cost / oracle_cost,
        optimized_subopt: optd.total_cost / oracle_cost,
        robust_cost: robust.run.total_cost,
        robust_degraded: matches!(robust.run.outcome, ExecutionOutcome::Degraded { .. }),
        basic,
        optimized: optd,
        result_rows,
        nat_mso: ev.nat.mso,
        seer_mso: ev.seer.mso,
        parqo_mso: ev.parqo.mso,
        bou_mso: ev.bou_basic.mso,
        bou_aso: ev.bou_basic.aso,
        mso_bound,
        mso_within_bound,
        crosscheck_ok,
    }
}

/// Run both hostile workloads on the serial engine, returning rendered text
/// and the structured reports.
fn exhibit() -> (String, Vec<HostileReport>) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Hostile typed-dimension workloads (sf {SF}) — full ladder on both substrates\n"
    );
    let mut reports = Vec::new();
    for (w, b, db) in [setup_ineq(SF), setup_anti(SF)] {
        reports.push(run_one(&w, &b, &db));
    }

    let mut t = Table::new(vec![
        "workload",
        "axis kinds",
        "NAT MSO",
        "PARQO MSO",
        "BOU MSO",
        "bound",
        "BOU ASO",
        "engine NAT",
        "engine basic",
        "engine opt",
    ]);
    for r in &reports {
        t.row(vec![
            r.workload.clone(),
            r.dim_kinds.join("+"),
            fnum(r.nat_mso),
            fnum(r.parqo_mso),
            format!("{:.1}", r.bou_mso),
            format!("{:.1}", r.mso_bound),
            format!("{:.2}", r.bou_aso),
            format!("{:.1}x", r.nat_subopt),
            format!("{:.1}x", r.basic_subopt),
            format!("{:.1}x", r.optimized_subopt),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    for r in &reports {
        let _ = writeln!(
            out,
            "{}: qe = {:?}  qa = {:?}  crosscheck {}  robust {}  MSO bound {}",
            r.workload,
            r.qe.iter().map(|v| format!("{v:.2e}")).collect::<Vec<_>>(),
            r.qa.iter().map(|v| format!("{v:.2e}")).collect::<Vec<_>>(),
            if r.crosscheck_ok { "OK" } else { "MISMATCH" },
            if r.robust_degraded {
                "DEGRADED"
            } else {
                "clean"
            },
            if r.mso_within_bound {
                "held"
            } else {
                "VIOLATED"
            },
        );
        // The exact facts, at full precision (f64 `Display`): a byte-compare
        // of this exhibit pins every cost unit and MSO to the last bit.
        let _ = writeln!(
            out,
            "  engine cost units: NAT {}  oracle {}  basic {} ({} execs)  optimized {} ({} execs)  robust {}  result rows {}",
            r.nat_cost,
            r.oracle_cost,
            r.basic.total_cost,
            r.basic.trace.len(),
            r.optimized.total_cost,
            r.optimized.trace.len(),
            r.robust_cost,
            r.result_rows,
        );
        let _ = writeln!(
            out,
            "  grid: NAT MSO {}  SEER MSO {}  PARQO MSO {}  BOU MSO {} (bound {})  BOU ASO {}",
            r.nat_mso, r.seer_mso, r.parqo_mso, r.bou_mso, r.mso_bound, r.bou_aso,
        );
    }
    (out, reports)
}

pub fn run() -> String {
    exhibit().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_ladder_holds_on_both_workloads() {
        let (_, reports) = exhibit();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(
                r.crosscheck_ok,
                "{}: engine/simulator divergence",
                r.workload
            );
            assert!(r.mso_within_bound, "{}: grid MSO above bound", r.workload);
            assert!(!r.robust_degraded, "{}: robust run degraded", r.workload);
            assert!(
                r.basic.completed() && r.optimized.completed(),
                "{}: incomplete",
                r.workload
            );
            // The hostile estimate must actually be wrong: NAT lands far
            // from the optimum while the bouquet's spend stays bounded.
            assert!(
                r.nat_subopt > r.basic_subopt,
                "{}: NAT {} should exceed basic BOU {}",
                r.workload,
                r.nat_subopt,
                r.basic_subopt
            );
        }
        let kinds: Vec<&str> = reports.iter().map(|r| r.dim_kinds[1].as_str()).collect();
        assert_eq!(kinds, vec!["inequality-join", "anti-join"]);
    }
}
