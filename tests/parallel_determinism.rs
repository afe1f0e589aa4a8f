//! The parallel identification pipeline must be bit-for-bit deterministic:
//! any worker count has to produce exactly the same serialized bouquet as
//! the sequential reference path. Each chunk's result is a pure function of
//! its index range (wherever the worker count puts the cuts) and plans are
//! canonicalized by first appearance in grid order, so this holds by
//! construction — these tests pin it against regressions on registry
//! workloads of both benchmark catalogs, on grids large enough that every
//! phase fans out instead of taking the serial gate.
//!
//! Data generation runs each table's column stream and each index build as
//! a task on the workers; a table draws from one RNG stream and an index is
//! a pure function of its column, so the generated database is pinned equal
//! at every worker count too.

use plan_bouquet::bouquet::{persist, Bouquet, BouquetConfig, PhaseTimings, Workload};
use plan_bouquet::catalog::{tpcds, tpch, Catalog};
use plan_bouquet::cost::{Parallelism, PARALLEL_MIN_GRID};
use plan_bouquet::engine::{ColumnOverride, Database};
use plan_bouquet::workloads;

fn registry(name: &str) -> Workload {
    let w = workloads::by_name(name).unwrap();
    // Below the gate `Parallelism::for_grid` demotes every phase to serial,
    // and the worker counts below would all run the serial path.
    let n = w.ess.num_points();
    assert!(n >= PARALLEL_MIN_GRID, "{name}: {n} grid points");
    w
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

/// TPC-H, 2,304 and 8,000 grid points.
#[test]
fn tpch_identification_is_deterministic_across_worker_counts() {
    assert_parallel_matches_serial(&registry("2D_H_Q8A"));
    assert_parallel_matches_serial(&registry("3D_H_Q5"));
}

/// TPC-DS, 14,641 grid points and 182 POSP plans.
#[test]
fn tpcds_identification_is_deterministic_across_worker_counts() {
    assert_parallel_matches_serial(&registry("4D_DS_Q7"));
}

#[test]
fn timed_and_untimed_paths_agree() {
    let w = registry("2D_H_Q8A");
    let cfg = BouquetConfig::default();
    let a = Bouquet::identify(&w, &cfg).unwrap();
    let (b, t) = Bouquet::identify_timed(&w, &cfg, Parallelism::auto()).unwrap();
    assert_eq!(persist::to_json(&a).unwrap(), persist::to_json(&b).unwrap());
    assert!(t.total >= t.diagram, "total must include the diagram phase");
    assert!(t.workers >= 1);
}

/// `generate_with` at 1, 2, 3 and 8 workers: equal row counts, columns and
/// index orders in every table.
fn assert_generation_matches_serial(cat: &Catalog, overrides: &[ColumnOverride]) {
    let serial =
        Database::generate_with(cat, 42, overrides, Parallelism::serial()).expect("generate");
    for workers in [2, 3, 8] {
        let par = Database::generate_with(cat, 42, overrides, Parallelism::new(workers))
            .expect("generate");
        for t in cat.tables() {
            let (a, b) = (serial.table(t.id), par.table(t.id));
            let at = format!("{} at {workers} workers", t.name);
            assert_eq!(a.rows, b.rows, "{at}: rows");
            assert_eq!(a.columns, b.columns, "{at}: columns");
            assert_eq!(a.indexes.len(), t.indexes.len(), "{at}: indexes");
            assert_eq!(b.indexes.len(), t.indexes.len(), "{at}: indexes");
            for (c, ix) in &a.indexes {
                assert_eq!(ix.rows(), b.indexes[c].rows(), "{at}: index on column {c}");
            }
        }
    }
}

#[test]
fn data_generation_is_deterministic_across_worker_counts() {
    let overrides = [
        ColumnOverride::EffectiveNdv {
            table: "lineitem".into(),
            column: "l_partkey".into(),
            ndv: 200,
        },
        ColumnOverride::CorrelatedWithStrength {
            table: "part".into(),
            column: "p_size".into(),
            with: "p_retailprice".into(),
            rho: 1.0,
        },
        ColumnOverride::CorrelatedWithStrength {
            table: "lineitem".into(),
            column: "l_quantity".into(),
            with: "l_partkey".into(),
            rho: 0.6,
        },
    ];
    assert_generation_matches_serial(&tpch::catalog(0.01), &overrides);
    assert_generation_matches_serial(&tpcds::catalog(0.01), &[]);
}
