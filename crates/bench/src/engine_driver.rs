//! Thin adapters for engine-backed bouquet execution — the Table 3 /
//! Section 6.7 experiment.
//!
//! There is **no discovery loop here**: engine-backed runs go through
//! [`Bouquet::run`] over [`pb_bouquet::EngineSubstrate`], so the real-tuple
//! path exercises exactly the same control logic — quadrant pruning,
//! AxisPlans selection, spill-based learning, the robustness ladder — as
//! the cost-unit simulator. This module only reads the resulting
//! [`BouquetRun`] the way the `table3` and `hostile` exhibits print it.

use std::collections::BTreeMap;

use pb_bouquet::{
    Bouquet, BouquetRun, EngineSubstrate, ExecutionSubstrate, ResumeStats, RobustConfig, RobustRun,
};
use pb_cost::SelPoint;
use pb_engine::{ColumnOverride, Database};
use pb_faults::{FaultInjector, PbError};

pub use pb_bouquet::measure_qa;

/// The (contour, plan, budget) decisions of `run`, in order: what two runs
/// must share to count as the same discovery, whatever each one spent.
pub fn decision_seq(run: &BouquetRun) -> Vec<(usize, usize, f64)> {
    run.trace
        .iter()
        .map(|e| (e.contour, e.plan, e.budget))
        .collect()
}

/// Cost-inversion cross-check for a basic-driver engine run: its decision
/// sequence must be the one the basic driver makes on the cost-unit
/// simulator at `qa`, the location measured against the engine's tuples —
/// whether "actual cost" comes from the engine's ledger or from the cost
/// model may change spends, never decisions.
pub fn matches_simulator(run: &BouquetRun, bouquet: &Bouquet, qa: &SelPoint) -> bool {
    bouquet
        .run_basic(qa)
        .is_ok_and(|sim| decision_seq(&sim) == decision_seq(run))
}

/// Per-contour (contour, executions, cost) breakdown of `run` — the rows of
/// Table 3.
pub fn contour_breakdown(run: &BouquetRun) -> Vec<(usize, usize, f64)> {
    let mut rows: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for e in &run.trace {
        let r = rows.entry(e.contour).or_insert((0, 0.0));
        r.0 += 1;
        r.1 += e.spent;
    }
    rows.into_iter().map(|(c, (n, s))| (c, n, s)).collect()
}

/// Execute the native optimizer's choice (plan picked at the *estimated*
/// location) to completion on the engine; returns its actual cost.
pub fn engine_run_nat(bouquet: &Bouquet, db: &Database, qe: &SelPoint) -> f64 {
    EngineSubstrate::new(bouquet, db, FaultInjector::none()).run_native_at(qe)
}

/// Section 6.7's manufactured under-estimate on part ⋈ lineitem ⋈ orders:
/// the join keys are generated with only `part_ndv` / `orders_ndv` distinct
/// values on both sides of each join, so the actual join selectivities are
/// ~1/ndv, far above the AVI estimate of 1/|PK relation|.
pub fn duplicated_join_keys(part_ndv: u64, orders_ndv: u64) -> Vec<ColumnOverride> {
    [
        ("part", "p_partkey", part_ndv),
        ("lineitem", "l_partkey", part_ndv),
        ("orders", "o_orderkey", orders_ndv),
        ("lineitem", "l_orderkey", orders_ndv),
    ]
    .into_iter()
    .map(|(table, column, ndv)| ColumnOverride::EffectiveNdv {
        table: table.into(),
        column: column.into(),
        ndv,
    })
    .collect()
}

/// Run the bouquet discovery against the engine through [`Bouquet::run`]
/// under `cfg`: Figure 7, or Figure 13 (qrun tracking from the engine's
/// tuple counters, first-quadrant pruning, spilled prefix executions) on
/// the serial engine. Returns the run, the result rows of its completing
/// execution (0 if none) and the resume counters. With `cfg.resume` the
/// decisions and result rows are those of the plain run while per-execution
/// `spent` and `total_cost` shrink by the reused units the counters report
/// (all-zero otherwise) — [`RobustRun::audit_resumed`] checks exactly that.
pub fn engine_run_bouquet(
    bouquet: &Bouquet,
    db: &Database,
    cfg: &RobustConfig,
) -> Result<(RobustRun, usize, ResumeStats), PbError> {
    let mut sub = EngineSubstrate::new(bouquet, db, FaultInjector::none());
    let run = bouquet.run(&mut sub, cfg)?;
    Ok((run, sub.result_rows().unwrap_or(0), sub.resume_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_bouquet::{BouquetConfig, ExecutionOutcome};
    use pb_workloads::h_q8a_2d;

    /// A plain engine run: the driver's run and its result rows.
    fn engine_run(b: &Bouquet, db: &Database, optimized: bool) -> (BouquetRun, usize) {
        let (run, rows, _) = engine_run_bouquet(b, db, &RobustConfig::plain(optimized)).unwrap();
        (run.run, rows)
    }

    fn setup() -> (Bouquet, Database) {
        let w = h_q8a_2d(0.005);
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let db =
            Database::generate(&w.catalog, 7, &duplicated_join_keys(100, 400)).expect("generate");
        (b, db)
    }

    #[test]
    fn engine_bouquet_completes_and_produces_rows() {
        let (b, db) = setup();
        let (basic, basic_rows) = engine_run(&b, &db, false);
        assert!(
            basic.completed(),
            "basic engine run failed: {:?}",
            basic.trace
        );
        assert!(basic_rows > 0);
        let (opt, opt_rows) = engine_run(&b, &db, true);
        assert!(opt.completed());
        assert_eq!(opt_rows, basic_rows, "result must not depend on driver");
    }

    #[test]
    fn optimized_engine_run_is_no_costlier_than_basic() {
        let (b, db) = setup();
        let (basic, _) = engine_run(&b, &db, false);
        let (opt, _) = engine_run(&b, &db, true);
        assert!(
            opt.total_cost <= basic.total_cost * 1.1,
            "optimized {} vs basic {}",
            opt.total_cost,
            basic.total_cost
        );
    }

    #[test]
    fn measured_qa_exceeds_avi_estimate_under_skew() {
        let (b, db) = setup();
        let w = &b.workload;
        let qa = measure_qa(&db, &w.query, &w.ess).unwrap();
        let est = pb_cost::Estimator::new(&w.catalog);
        let lo: Vec<f64> = w.ess.dims.iter().map(|d| d.lo).collect();
        let hi: Vec<f64> = w.ess.dims.iter().map(|d| d.hi).collect();
        let qe = est.estimate_point(&w.query, &lo, &hi);
        assert!(
            qa[0] > qe[0] * 2.0,
            "skew should inflate dim 0: qa {} vs qe {}",
            qa[0],
            qe[0]
        );
    }

    #[test]
    fn contour_breakdown_accounts_for_all_cost() {
        let (b, db) = setup();
        let (run, _) = engine_run(&b, &db, false);
        let sum: f64 = contour_breakdown(&run).iter().map(|r| r.2).sum();
        assert!((sum - run.total_cost).abs() < 1e-6 * run.total_cost.max(1.0));
    }

    /// The recovery settings are inert on a fault-free engine: the default
    /// configuration runs exactly what the plain one does.
    #[test]
    fn robust_engine_run_with_empty_faults_matches_plain() {
        let (b, db) = setup();
        let mut sub = EngineSubstrate::new(&b, &db, FaultInjector::none());
        let robust = b.run(&mut sub, &RobustConfig::default()).unwrap();
        let mut plain_sub = EngineSubstrate::new(&b, &db, FaultInjector::none());
        let plain = b.run(&mut plain_sub, &RobustConfig::plain(false)).unwrap();
        assert_eq!(robust, plain);
        assert!(
            robust.events.is_empty()
                && !matches!(robust.run.outcome, ExecutionOutcome::Degraded { .. })
        );
    }
}
