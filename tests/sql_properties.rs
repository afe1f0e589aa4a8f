//! Property tests for the SQL front-end: structural fidelity, `?`-marking,
//! and insensitivity to formatting noise.

use proptest::prelude::*;

use plan_bouquet::catalog::tpch;
use plan_bouquet::plan::parse_sql;
use plan_bouquet::workloads::workload_from_sql;

/// TPC-H FK edges usable to build random valid join chains.
const EDGES: &[(&str, &str, &str, &str)] = &[
    ("part", "p_partkey", "lineitem", "l_partkey"),
    ("supplier", "s_suppkey", "lineitem", "l_suppkey"),
    ("orders", "o_orderkey", "lineitem", "l_orderkey"),
    ("customer", "c_custkey", "orders", "o_custkey"),
    ("nation", "n_nationkey", "supplier", "s_nationkey"),
];

const SELECTIONS: &[(&str, &str, f64, f64)] = &[
    ("part", "p_retailprice", 900.0, 2099.0),
    ("part", "p_size", 1.0, 50.0),
    ("supplier", "s_acctbal", -999.0, 9999.0),
    ("orders", "o_totalprice", 858.0, 555285.0),
    ("customer", "c_acctbal", -999.0, 9999.0),
];

/// Build a random SQL query over a prefix of the FK chain; returns the SQL
/// plus the expected (#relations, #joins, #dims).
fn build_sql(
    n_edges: usize,
    marks: &[bool],
    sel_mask: &[bool],
    sel_consts: &[f64],
    ws: usize,
) -> (String, usize, usize, usize) {
    let edges = &EDGES[..n_edges];
    let mut tables: Vec<&str> = Vec::new();
    for (a, _, b, _) in edges {
        if !tables.contains(a) {
            tables.push(a);
        }
        if !tables.contains(b) {
            tables.push(b);
        }
    }
    let pad = " ".repeat(ws + 1);
    let mut preds: Vec<String> = Vec::new();
    let mut dims = 0;
    for (i, (_, ac, _, bc)) in edges.iter().enumerate() {
        let mark = if marks[i % marks.len()] {
            dims += 1;
            "?"
        } else {
            ""
        };
        preds.push(format!("{ac}{pad}={pad}{bc}{mark}"));
    }
    let mut nsel = 0;
    for (i, (t, col, lo, hi)) in SELECTIONS.iter().enumerate() {
        if sel_mask[i % sel_mask.len()] && tables.contains(t) {
            let c = lo + sel_consts[i % sel_consts.len()].fract().abs() * (hi - lo);
            preds.push(format!("{col}{pad}<{pad}{c:.2}"));
            nsel += 1;
        }
    }
    let _ = nsel;
    let sql = format!(
        "SELECT{pad}*{pad}FROM{pad}{}{pad}WHERE{pad}{}",
        tables.join(&format!(",{pad}")),
        preds.join(&format!("{pad}AND{pad}"))
    );
    (sql, tables.len(), edges.len(), dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_queries_parse_with_expected_structure(
        n_edges in 1usize..=5,
        marks in proptest::collection::vec(any::<bool>(), 1..6),
        sel_mask in proptest::collection::vec(any::<bool>(), 1..6),
        sel_consts in proptest::collection::vec(0.0f64..1.0, 1..6),
        ws in 0usize..3,
    ) {
        let cat = tpch::catalog(1.0);
        let (sql, nrel, njoin, ndims) = build_sql(n_edges, &marks, &sel_mask, &sel_consts, ws);
        let q = parse_sql(&cat, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert_eq!(q.num_relations(), nrel);
        prop_assert_eq!(q.joins.len(), njoin);
        prop_assert_eq!(q.num_dims, ndims);
        prop_assert!(q.join_graph().is_connected());
    }

    /// Keyword case must not matter.
    #[test]
    fn keyword_case_insensitive(upper in any::<bool>()) {
        let cat = tpch::catalog(1.0);
        let base = "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey?";
        let sql = if upper {
            base.to_uppercase().replace("P_PARTKEY", "p_partkey").replace("L_PARTKEY", "l_partkey")
            .replace("PART,", "part,").replace("LINEITEM", "lineitem")
        } else {
            base.to_lowercase().replace("select", "SeLeCt")
        };
        let a = parse_sql(&cat, base).unwrap();
        let b = parse_sql(&cat, &sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert_eq!(a.num_relations(), b.num_relations());
        prop_assert_eq!(a.joins.len(), b.joins.len());
        prop_assert_eq!(a.num_dims, b.num_dims);
    }

    /// Garbage never panics — it errors.
    #[test]
    fn garbage_is_rejected_gracefully(s in "[a-zA-Z0-9 *,.<>=()?]{0,60}") {
        let cat = tpch::catalog(1.0);
        let _ = parse_sql(&cat, &s); // must not panic
    }
}

/// Text the grammar accepts but that is not a bouquet query is a typed
/// error too, not a panic in the query builder or the ESS.
#[test]
fn well_formed_text_that_is_no_bouquet_query_is_rejected_gracefully() {
    let cat = tpch::catalog(1.0);
    let many = (0..33).map(|i| format!("part AS p{i}")).collect::<Vec<_>>();
    for (sql, why) in [
        (
            "SELECT * FROM part, orders WHERE p_retailprice < 1000?",
            "do not connect",
        ),
        (
            "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey",
            "no error-prone predicate",
        ),
        (
            "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey AND p_partkey = p_size?",
            "with itself",
        ),
        (
            &format!("SELECT * FROM {} WHERE p0.p_size < 3?", many.join(", ")),
            "more than 32 relations",
        ),
    ] {
        let err = workload_from_sql(&cat, sql, "X", 3.0, 8).expect_err(sql);
        assert!(err.message.contains(why), "{sql}: {err}");
    }
}

/// A `?`-join's axis reaches the PK side's `1/|part|`, where the generated
/// data's part ⋈ lineitem selectivity lies; `1/|lineitem|`, the FK side,
/// sits 30× below it.
#[test]
fn a_marked_pk_fk_join_covers_its_generated_selectivity() {
    use plan_bouquet::bouquet::measure_qa;
    use plan_bouquet::engine::Database;

    let cat = tpch::catalog(0.01);
    let w = workload_from_sql(
        &cat,
        "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey?",
        "PL",
        3.0,
        8,
    )
    .unwrap();
    let db = Database::generate(&cat, 7, &[]).unwrap();
    let actual = db.actual_join_selectivity(&w.query, 0);
    let qa = measure_qa(&db, &w.query, &w.ess).unwrap();
    let (lo, hi) = (w.ess.dims[0].lo, w.ess.dims[0].hi);
    let fk_ceiling = 1.0 / cat.table("lineitem").unwrap().rows;
    assert_eq!(hi, 1.0 / cat.table("part").unwrap().rows);
    assert!(
        lo <= actual && actual <= hi,
        "{actual} outside [{lo}, {hi}]"
    );
    assert_eq!(qa[0], actual);
    assert!(qa[0] > fk_ceiling, "{} at or below {fk_ceiling}", qa[0]);
}
