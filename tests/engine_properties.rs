//! Property tests for the execution engines: all join algorithms must agree
//! on result cardinality for arbitrary seeds and predicates, budget
//! accounting must be exact, and the vectorized engine must be outcome-
//! identical to the tuple-at-a-time reference — cost, rows, per-node
//! instrumentation and abort point — over random plans and budgets.

use proptest::prelude::*;

use plan_bouquet::catalog::{tpcds, tpch};
use plan_bouquet::cost::CostModel;
use plan_bouquet::engine::{Database, Engine, EngineOutcome};
use plan_bouquet::plan::{CmpOp, PlanNode, QueryBuilder, QuerySpec, SelSpec};

/// Three-relation TPC-H chain (part ⋈ lineitem ⋈ orders) with a selection
/// and a group-by, so every operator the engines implement can appear.
fn setup3(seed: u64, price_cut: f64) -> (Database, QuerySpec, CostModel) {
    let cat = tpch::catalog(0.005);
    let db = Database::generate(&cat, seed, &[]).expect("generate");
    let mut qb = QueryBuilder::new(&cat, "prop3");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    let o = qb.rel("orders");
    qb.select(
        p,
        "p_retailprice",
        CmpOp::Lt,
        price_cut,
        SelSpec::ErrorProne(0),
    );
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
    qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(1e-4));
    qb.group_by(p, "p_brand");
    (db, qb.build(), CostModel::postgresish())
}

/// Plan-shape pool for the equivalence property: chain and bushy joins,
/// every join algorithm, anti join, aggregation and spill.
fn shape3(idx: usize) -> PlanNode {
    let scan_p = || Box::new(PlanNode::SeqScan { rel: 0 });
    let scan_l = || Box::new(PlanNode::SeqScan { rel: 1 });
    let scan_o = || Box::new(PlanNode::SeqScan { rel: 2 });
    let hj_pl = || {
        Box::new(PlanNode::HashJoin {
            build: scan_p(),
            probe: scan_l(),
            edges: vec![0],
        })
    };
    match idx % 8 {
        0 => PlanNode::HashJoin {
            build: hj_pl(),
            probe: scan_o(),
            edges: vec![1],
        },
        1 => PlanNode::HashJoin {
            build: Box::new(PlanNode::HashJoin {
                build: scan_l(),
                probe: scan_p(),
                edges: vec![0],
            }),
            probe: scan_o(),
            edges: vec![1],
        },
        2 => PlanNode::SortMergeJoin {
            left: hj_pl(),
            right: scan_o(),
            edges: vec![1],
            sort_left: true,
            sort_right: true,
        },
        3 => PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                inner_rel: 1,
                edges: vec![0],
            }),
            inner_rel: 2,
            edges: vec![1],
        },
        4 => PlanNode::AntiJoin {
            left: scan_p(),
            right: scan_l(),
            edges: vec![0],
        },
        5 => PlanNode::Spill { input: hj_pl() },
        6 => PlanNode::HashAggregate { input: hj_pl() },
        _ => PlanNode::SortMergeJoin {
            left: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
            right: scan_l(),
            edges: vec![0],
            sort_left: false,
            sort_right: true,
        },
    }
}

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
            let count = out.instr().nodes[0].output_tuples;
            prop_assert!(count >= last, "join counter shrank: {last} -> {count}");
            last = count;
        }
        prop_assert_eq!(last, full.instr().nodes[0].output_tuples);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The vectorized engine is outcome-identical to the tuple-at-a-time
    /// reference — same variant, cost bits, row count and per-node
    /// instrumentation — over random TPC-H plan shapes and budgets,
    /// including budgets that abort mid-operator and mid-batch.
    #[test]
    fn vectorized_equals_tuple_tpch(
        seed in 0u64..200,
        cut in 900.0f64..2100.0,
        shape in 0usize..8,
        frac in 0.005f64..1.3,
    ) {
        let (db, q, m) = setup3(seed, cut);
        let eng = Engine::new(&db, &q, &m.p);
        let plan = shape3(shape);
        let full_t = eng.execute_tuple(&plan, f64::INFINITY);
        let full_v = eng.execute(&plan, f64::INFINITY);
        prop_assert_eq!(&full_t, &full_v, "full runs diverge (shape {})", shape);
        let budget = full_t.cost() * frac;
        let t = eng.execute_tuple(&plan, budget);
        let v = eng.execute(&plan, budget);
        prop_assert_eq!(&t, &v, "budgeted runs diverge (shape {}, frac {})", shape, frac);
        prop_assert_eq!(t.completed(), frac >= 1.0);
    }

    /// Same equivalence on a TPC-DS workload (item ⋈ store_sales), over the
    /// three main join algorithms and abort-inducing budgets.
    #[test]
    fn vectorized_equals_tuple_tpcds(
        seed in 0u64..100,
        cut in 10.0f64..90.0,
        alg in 0usize..3,
        frac in 0.01f64..1.2,
    ) {
        let cat = tpcds::catalog(0.01);
        let db = Database::generate(&cat, seed, &[]).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "prop_ds");
        let i = qb.rel("item");
        let ss = qb.rel("store_sales");
        qb.select(i, "i_current_price", CmpOp::Lt, cut, SelSpec::ErrorProne(0));
        qb.join(i, "i_item_sk", ss, "ss_item_sk", SelSpec::ErrorProne(1));
        let q = qb.build();
        let m = CostModel::postgresish();
        let eng = Engine::new(&db, &q, &m.p);
        let plan = match alg {
            0 => PlanNode::HashJoin {
                build: Box::new(PlanNode::SeqScan { rel: 0 }),
                probe: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
            },
            1 => PlanNode::SortMergeJoin {
                left: Box::new(PlanNode::SeqScan { rel: 0 }),
                right: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
                sort_left: true,
                sort_right: true,
            },
            _ => PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                inner_rel: 1,
                edges: vec![0],
            },
        };
        let full_t = eng.execute_tuple(&plan, f64::INFINITY);
        prop_assert_eq!(&full_t, &eng.execute(&plan, f64::INFINITY));
        let budget = full_t.cost() * frac;
        prop_assert_eq!(
            &eng.execute_tuple(&plan, budget),
            &eng.execute(&plan, budget),
            "budgeted TPC-DS runs diverge (alg {}, frac {})", alg, frac
        );
    }
}
