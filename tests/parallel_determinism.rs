//! The parallel identification pipeline must be bit-for-bit deterministic:
//! any worker count has to produce exactly the same serialized bouquet as
//! the sequential reference path. Each chunk's result is a pure function of
//! its index range (wherever the worker count puts the cuts) and plans are
//! canonicalized by first appearance in grid order, so this holds by
//! construction — these tests pin it against regressions on
//! both benchmark catalogs.

use plan_bouquet::bouquet::{persist, Bouquet, BouquetConfig, PhaseTimings, Workload};
use plan_bouquet::catalog::{tpcds, tpch};
use plan_bouquet::cost::{CostModel, Ess, EssDim, Parallelism};
use plan_bouquet::plan::{CmpOp, QueryBuilder, SelSpec};

/// A compact TPC-H 2D workload (join + selection error dims) sized so the
/// whole compile pipeline runs in seconds at any worker count.
fn tpch_2d() -> Workload {
    let cat = tpch::catalog(1.0);
    let mut qb = QueryBuilder::new(&cat, "DET_H_2D");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    let o = qb.rel("orders");
    qb.select(
        p,
        "p_retailprice",
        CmpOp::Lt,
        1000.0,
        SelSpec::ErrorProne(0),
    );
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
    qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
    let q = qb.build();
    let ess = Ess::uniform(
        vec![
            EssDim::new("p_retailprice", 1e-4, 1.0),
            EssDim::new("p⋈l", 1e-8, 5e-6),
        ],
        20,
    );
    Workload::new("DET_H_2D", cat.clone(), q, ess, CostModel::postgresish())
}

/// A compact TPC-DS 2D workload over the catalog_sales star.
fn tpcds_2d() -> Workload {
    let cat = tpcds::catalog(0.1);
    let mut qb = QueryBuilder::new(&cat, "DET_DS_2D");
    let d = qb.rel("date_dim");
    let cs = qb.rel("catalog_sales");
    let c = qb.rel("customer");
    qb.join(
        d,
        "d_date_sk",
        cs,
        "cs_sold_date_sk",
        SelSpec::ErrorProne(0),
    );
    qb.join(
        cs,
        "cs_bill_customer_sk",
        c,
        "c_customer_sk",
        SelSpec::ErrorProne(1),
    );
    let q = qb.build();
    let rows_d = cat.table("date_dim").unwrap().rows;
    let rows_c = cat.table("customer").unwrap().rows;
    let hi0 = (30.0 / rows_d).min(1.0);
    let hi1 = (50.0 / rows_c).min(1.0);
    let ess = Ess::uniform(
        vec![
            EssDim::new("d⋈cs", hi0 * 1e-3, hi0),
            EssDim::new("cs⋈c", hi1 * 1e-3, hi1),
        ],
        16,
    );
    Workload::new("DET_DS_2D", cat.clone(), q, ess, CostModel::postgresish())
}

fn assert_parallel_matches_serial(w: &Workload) {
    let cfg = BouquetConfig::default();
    let (serial, t): (Bouquet, PhaseTimings) =
        Bouquet::identify_timed(w, &cfg, Parallelism::serial()).expect("serial identify");
    assert_eq!(t.workers, 1);
    let json_serial = persist::to_json(&serial).expect("serialize serial");

    // Worker counts around and beyond the chunking sweet spot, including
    // counts that do not divide the grid size.
    for workers in [2, 3, 4, 7] {
        let par =
            Bouquet::identify_with(w, &cfg, Parallelism::new(workers)).expect("parallel identify");
        let json_par = persist::to_json(&par).expect("serialize parallel");
        assert_eq!(
            json_serial, json_par,
            "{}: {workers}-worker bouquet differs from sequential",
            w.name
        );
    }
}

#[test]
fn tpch_identification_is_deterministic_across_worker_counts() {
    assert_parallel_matches_serial(&tpch_2d());
}

#[test]
fn tpcds_identification_is_deterministic_across_worker_counts() {
    assert_parallel_matches_serial(&tpcds_2d());
}

#[test]
fn timed_and_untimed_paths_agree() {
    let w = tpch_2d();
    let cfg = BouquetConfig::default();
    let a = Bouquet::identify(&w, &cfg).unwrap();
    let (b, t) = Bouquet::identify_timed(&w, &cfg, Parallelism::auto()).unwrap();
    assert_eq!(persist::to_json(&a).unwrap(), persist::to_json(&b).unwrap());
    assert!(t.total >= t.diagram, "total must include the diagram phase");
    assert!(t.workers >= 1);
}
