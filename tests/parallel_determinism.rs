//! The parallel identification pipeline must be bit-for-bit deterministic:
//! any worker count has to produce exactly the same serialized bouquet as
//! the sequential reference path. Each chunk's result is a pure function of
//! its index range (wherever the worker count puts the cuts) and plans are
//! canonicalized by first appearance in grid order, so this holds by
//! construction — these tests pin it against regressions on registry
//! workloads of both benchmark catalogs, on grids large enough that every
//! phase fans out instead of taking the serial gate.
//!
//! A generated database builds each column and its index on first read,
//! replaying its table's one RNG stream; the data is pinned equal in any
//! read order and from several threads at once too.

use plan_bouquet::bouquet::{persist, Bouquet, BouquetConfig, PhaseTimings, Workload};
use plan_bouquet::catalog::{tpcds, tpch, Catalog, TableId};
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
        let (par, _) =
            Bouquet::identify_timed(w, &cfg, Parallelism::new(workers)).expect("parallel identify");
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

/// Every column and index of `cat`'s tables, one cell a (table, column).
fn cells(cat: &Catalog) -> Vec<(TableId, usize)> {
    cat.tables()
        .flat_map(|t| (0..t.columns.len()).map(move |c| (t.id, c)))
        .collect()
}

/// Read `cell`'s column and index, the index first on odd columns so that
/// a first read also comes through it.
fn read(db: &Database, (t, c): (TableId, usize)) {
    let td = db.table(t);
    if c % 2 == 1 {
        td.index(c);
    }
    td.column(c);
    td.index(c);
}

/// `a` and `b` hold equal row counts, columns and index orders.
fn assert_same_data(cat: &Catalog, a: &Database, b: &Database, how: &str) {
    for (t, c) in cells(cat) {
        let (ta, tb) = (a.table(t), b.table(t));
        let at = format!("{} column {c} {how}", cat.table_by_id(t).name);
        assert_eq!(ta.rows, tb.rows, "{at}: rows");
        assert_eq!(ta.column(c), tb.column(c), "{at}: values");
        let (ia, ib) = (
            ta.index(c).map(|ix| ix.rows()),
            tb.index(c).map(|ix| ix.rows()),
        );
        assert!(ia.is_some(), "{at}: the catalog indexes every column");
        assert_eq!(ia, ib, "{at}: index order");
    }
}

/// A column is built on its first read: reading every column in catalog
/// order, in reverse and from 4 threads at once gives the same columns and
/// index orders.
fn assert_read_order_is_irrelevant(cat: &Catalog, overrides: &[ColumnOverride]) {
    let generate = || Database::generate(cat, 42, overrides).expect("generate");
    let all = cells(cat);
    let in_order = generate();
    for &cell in &all {
        read(&in_order, cell);
    }
    let reversed = generate();
    for &cell in all.iter().rev() {
        read(&reversed, cell);
    }
    assert_same_data(cat, &in_order, &reversed, "read in reverse");
    drop(reversed);
    let threaded = generate();
    std::thread::scope(|s| {
        for k in 0..4 {
            let (db, all) = (&threaded, &all);
            s.spawn(move || {
                // Every thread reads every cell, half of them backwards, so
                // first reads race.
                let mut cells = all.clone();
                if k % 2 == 1 {
                    cells.reverse();
                }
                cells.rotate_left(k * all.len() / 4);
                for cell in cells {
                    read(db, cell);
                }
            });
        }
    });
    assert_same_data(cat, &in_order, &threaded, "read from 4 threads");
}

#[test]
fn data_is_identical_in_any_read_order_and_thread_count() {
    let correlated =
        |table: &str, column: &str, with: &str, rho| ColumnOverride::CorrelatedWithStrength {
            table: table.into(),
            column: column.into(),
            with: with.into(),
            rho,
        };
    let overrides = [
        ColumnOverride::EffectiveNdv {
            table: "lineitem".into(),
            column: "l_partkey".into(),
            ndv: 200,
        },
        correlated("part", "p_size", "p_retailprice", 1.0),
        correlated("lineitem", "l_quantity", "l_partkey", 0.6),
    ];
    let cat = tpch::catalog(0.01);
    assert_read_order_is_irrelevant(&cat, &overrides);
    assert_read_order_is_irrelevant(&tpcds::catalog(0.01), &[]);
    // A source that follows its column is refused before any read.
    let late = correlated("part", "p_retailprice", "p_size", 1.0);
    assert!(Database::generate(&cat, 42, &[late]).is_err());
}
