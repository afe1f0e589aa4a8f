//! Property tests for the execution engine: all join algorithms must agree
//! on result cardinality for arbitrary seeds and predicates, and budget
//! accounting must be exact. That the engine's outcomes — cost, rows,
//! per-node instrumentation, abort point — equal a tuple-at-a-time
//! interpreter's over random plans and budgets is pb-engine's own unit test
//! (`oracle::tests`), since that interpreter is compiled for tests only.

use proptest::prelude::*;

use plan_bouquet::catalog::tpch;
use plan_bouquet::cost::CostModel;
use plan_bouquet::engine::{Database, Engine, EngineOutcome};
use plan_bouquet::plan::{CmpOp, PlanNode, QueryBuilder, SelSpec};

fn setup(seed: u64, price_cut: f64) -> (Database, plan_bouquet::plan::QuerySpec, CostModel) {
    let cat = tpch::catalog(0.005);
    let db = Database::generate(&cat, seed, &[]).expect("generate");
    let mut qb = QueryBuilder::new(&cat, "prop");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    qb.select(
        p,
        "p_retailprice",
        CmpOp::Lt,
        price_cut,
        SelSpec::ErrorProne(0),
    );
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
    (db, qb.build(), CostModel::postgresish())
}

fn rows(out: EngineOutcome) -> usize {
    match out {
        EngineOutcome::Completed { rows, .. } => rows,
        EngineOutcome::Aborted { .. } | EngineOutcome::Failed { .. } => {
            panic!("unbudgeted run must complete")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// HJ (both orientations), SMJ and INLJ agree on cardinality for any
    /// generated database and any selection constant.
    #[test]
    fn join_algorithms_agree(seed in 0u64..500, cut in 900.0f64..2100.0) {
        let (db, q, m) = setup(seed, cut);
        let eng = Engine::new(&db, &q, &m.p);
        let scan_p = PlanNode::IndexScan { rel: 0, sel_idx: 0 };
        let scan_l = PlanNode::SeqScan { rel: 1 };
        let hj = PlanNode::HashJoin {
            build: Box::new(scan_p.clone()),
            probe: Box::new(scan_l.clone()),
            edges: vec![0],
        };
        let hj_swapped = PlanNode::HashJoin {
            build: Box::new(scan_l.clone()),
            probe: Box::new(scan_p.clone()),
            edges: vec![0],
        };
        let smj = PlanNode::SortMergeJoin {
            left: Box::new(scan_p.clone()),
            right: Box::new(scan_l.clone()),
            edges: vec![0],
            sort_left: true,
            sort_right: true,
        };
        let inl = PlanNode::IndexNLJoin {
            outer: Box::new(scan_p),
            inner_rel: 1,
            edges: vec![0],
        };
        let r0 = rows(eng.execute(&hj, f64::INFINITY));
        prop_assert_eq!(rows(eng.execute(&hj_swapped, f64::INFINITY)), r0);
        prop_assert_eq!(rows(eng.execute(&smj, f64::INFINITY)), r0);
        prop_assert_eq!(rows(eng.execute(&inl, f64::INFINITY)), r0);
    }

    /// Budgeted runs spend exactly min(full cost, budget), and completion is
    /// monotone in the budget.
    #[test]
    fn budget_accounting_is_exact(seed in 0u64..200, frac in 0.05f64..2.0) {
        let (db, q, m) = setup(seed, 1200.0);
        let eng = Engine::new(&db, &q, &m.p);
        let plan = PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan { rel: 0 }),
            probe: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
        };
        let full = eng.execute(&plan, f64::INFINITY).cost();
        let budget = full * frac;
        let out = eng.execute(&plan, budget);
        if frac >= 1.0 {
            prop_assert!(out.completed());
            prop_assert!((out.cost() - full).abs() < 1e-6 * full);
        } else {
            prop_assert!(!out.completed());
            prop_assert!((out.cost() - budget).abs() < 1e-6 * full);
        }
    }

    /// Instrumentation counters never decrease with budget and converge to
    /// the unbudgeted counts.
    #[test]
    fn counters_monotone_in_budget(seed in 0u64..100) {
        let (db, q, m) = setup(seed, 1500.0);
        let eng = Engine::new(&db, &q, &m.p);
        let plan = PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan { rel: 0 }),
            probe: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
        };
        let full = eng.execute(&plan, f64::INFINITY);
        let mut last = 0u64;
        for frac in [0.2, 0.5, 0.8, 1.1] {
            let out = eng.execute(&plan, full.cost() * frac);
            // The join is op 2, after its two scans.
            let count = out.instr().nodes[2].output_tuples;
            prop_assert!(count >= last, "join counter shrank: {last} -> {count}");
            last = count;
        }
        prop_assert_eq!(last, full.instr().nodes[2].output_tuples);
    }
}
