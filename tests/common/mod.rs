//! Plan-shape fixtures of the engine's two bit-identity properties: serial
//! ≡ morsel-parallel (`tests/engine_mt_determinism.rs`) and tuple ≡
//! vectorized (pb-engine's `oracle` tests, which include this file by
//! path): the TPC-H chain with its plan-shape pool, the same chain over
//! duplicated join keys, and the TPC-DS join. It takes the engine's `Database` and `ColumnOverride` from its
//! includer, so it compiles inside pb-engine and outside it.

use pb_catalog::{tpcds, tpch};
use pb_cost::CostModel;
use pb_plan::{CmpOp, PlanNode, QueryBuilder, QuerySpec, SelSpec};

use super::{ColumnOverride, Database};

/// Three-relation TPC-H chain (part ⋈ lineitem ⋈ orders) with a selection
/// and a group-by, so every operator the engines implement can appear.
pub fn setup3(seed: u64, price_cut: f64) -> (Database, QuerySpec, CostModel) {
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

/// The Table-3 shape in small: [`setup3`]'s part ⋈ lineitem ⋈ orders over
/// tuples whose join keys take a few dozen (part) and a few hundred (order)
/// values although every key column is a primary or foreign key, so each
/// probe row matches many build rows. Relations and edges are numbered as
/// in [`setup3`], so [`shape3`]'s plans run on it too.
pub fn setup_duplicates() -> (Database, QuerySpec, CostModel) {
    let cat = tpch::catalog(0.002);
    let ndv = |table: &str, column: &str, ndv| ColumnOverride::EffectiveNdv {
        table: table.into(),
        column: column.into(),
        ndv,
    };
    let overrides = [
        ndv("part", "p_partkey", 40),
        ndv("lineitem", "l_partkey", 40),
        ndv("orders", "o_orderkey", 200),
        ndv("lineitem", "l_orderkey", 200),
    ];
    let db = Database::generate(&cat, 7, &overrides).expect("generate");
    let mut qb = QueryBuilder::new(&cat, "duplicates");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    let o = qb.rel("orders");
    qb.select(
        p,
        "p_retailprice",
        CmpOp::Lt,
        1100.0,
        SelSpec::ErrorProne(0),
    );
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
    qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(1e-4));
    (db, qb.build(), CostModel::postgresish())
}

/// Plan-shape pool over [`setup3`]: chain and bushy joins, every join
/// algorithm, anti join, aggregation and spill.
pub fn shape3(idx: usize) -> PlanNode {
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

/// TPC-DS item ⋈ store_sales with a price selection; rel 0 is `item`,
/// rel 1 `store_sales`, join edge 0 between them.
pub fn setup_ds(seed: u64, cut: f64) -> (Database, QuerySpec, CostModel) {
    // Only the columns the query reads are generated: not TPC-DS's unscaled
    // 1.9M-row `customer_demographics`, which no query here reads.
    let cat = tpcds::catalog(0.01);
    let db = Database::generate(&cat, seed, &[]).expect("generate");
    let mut qb = QueryBuilder::new(&cat, "prop_ds");
    let i = qb.rel("item");
    let ss = qb.rel("store_sales");
    qb.select(i, "i_current_price", CmpOp::Lt, cut, SelSpec::ErrorProne(0));
    qb.join(i, "i_item_sk", ss, "ss_item_sk", SelSpec::ErrorProne(1));
    (db, qb.build(), CostModel::postgresish())
}

/// The three main join algorithms over [`setup_ds`].
pub fn plan_ds(alg: usize) -> PlanNode {
    match alg % 3 {
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
    }
}
