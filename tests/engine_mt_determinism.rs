//! Multicore determinism matrix for the morsel-driven engine.
//!
//! The morsel coordinator promises that `EngineOutcome` — variant, cost
//! bits, row count, per-node instrumentation, abort point — is **bit
//! identical** at every worker count, because batch compute is pure and the
//! coordinator replays the serial ledger event sequence in ascending batch
//! order regardless of which worker produced which batch.
//!
//! CI runs the deterministic matrix tests at `ENGINE_JOBS={1,2,4,8}` (a
//! comma list of worker counts, overriding the default matrix); the
//! proptests draw random plans, budgets — including mid-operator budget
//! crossings — and worker counts on TPC-H and TPC-DS, plus spilled-prefix
//! resolution through [`EngineSubstrate`].

mod common;

use std::sync::OnceLock;

use proptest::prelude::*;

use common::{plan_ds, setup3, setup_ds, setup_duplicates, shape3};

use plan_bouquet::bouquet::{
    Bouquet, BouquetConfig, BouquetRun, EngineSubstrate, ExecutionSubstrate, RobustConfig,
};
use plan_bouquet::cost::{CostModel, Parallelism};
use plan_bouquet::engine::{ColumnOverride, Database, Engine};
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::plan::{PlanNode, QuerySpec};
use plan_bouquet::workloads;

/// Morsel threshold low enough that the SF 0.005 test relations actually
/// fan out over workers instead of taking the serial gate.
const TEST_MORSEL_MIN: usize = 64;

/// Worker-count matrix: `ENGINE_JOBS` env var as a comma list (CI sets
/// `1,2,4,8`), defaulting to the same spread locally.
fn worker_counts() -> Vec<usize> {
    match std::env::var("ENGINE_JOBS") {
        Ok(s) => {
            let v: Vec<usize> = s
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n >= 1)
                .collect();
            if v.is_empty() {
                vec![1, 2, 4, 8]
            } else {
                v
            }
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn parallel_engine<'a>(
    db: &'a Database,
    q: &'a QuerySpec,
    m: &'a CostModel,
    workers: usize,
) -> Engine<'a> {
    Engine::new(db, q, &m.p)
        .with_parallelism(Parallelism::new(workers))
        .with_morsel_threshold(TEST_MORSEL_MIN)
}

/// The deterministic matrix the CI smoke job runs at `ENGINE_JOBS=1,2,4,8`:
/// every plan shape × a budget ladder straddling each operator phase must
/// produce bit-identical `EngineOutcome`s at every worker count. Over the
/// duplicated-key fixture the ladder also takes fractions of the plan's
/// first input's own cost: where that input is a join, kept for its parent,
/// those abort inside its probe, where workers have recorded match runs per
/// morsel and no row is written.
#[test]
fn worker_matrix_is_bit_identical_tpch() {
    let jobs = worker_counts();
    let fixtures = [
        ("seed 3", setup3(3, 1400.0), &[][..]),
        ("seed 17", setup3(17, 1400.0), &[][..]),
        ("duplicated keys", setup_duplicates(), &[0.9, 0.6, 0.3][..]),
    ];
    let mut mid_probe = 0;
    for (label, (db, q, m), first_input_fracs) in fixtures {
        let serial = Engine::new(&db, &q, &m.p);
        for shape in 0..8 {
            let plan = shape3(shape);
            let full = serial.execute(&plan, f64::INFINITY);
            let first = plan.children()[0];
            // A first input with inputs of its own is a join; a spill keeps
            // nothing.
            let kept_join = !first_input_fracs.is_empty()
                && !first.children().is_empty()
                && !matches!(plan, PlanNode::Spill { .. });
            let first_cost = serial.execute(first, f64::INFINITY).cost();
            let budgets = [0.75, 0.4, 0.1, 0.02].map(|f| full.cost() * f);
            let budgets = budgets
                .into_iter()
                .chain(first_input_fracs.iter().map(|f| first_cost * f));
            let mut expect = vec![(f64::INFINITY, full.clone())];
            for b in budgets {
                let out = serial.execute(&plan, b);
                // The first input's op: its subtree comes first in
                // post-order.
                let n = &out.instr().nodes[first.size() - 1];
                mid_probe += usize::from(kept_join && !n.complete && n.output_tuples > 0);
                expect.push((b, out));
            }
            for &n in &jobs {
                let eng = parallel_engine(&db, &q, &m, n);
                for (budget, reference) in &expect {
                    let got = eng.execute(&plan, *budget);
                    assert_eq!(
                        &got, reference,
                        "outcome diverged: {label} shape {shape} budget {budget} workers {n}"
                    );
                }
            }
        }
    }
    assert!(
        mid_probe >= 3,
        "{mid_probe} duplicated-key rungs abort inside a kept join's probe"
    );
}

/// Same matrix on TPC-DS (item ⋈ store_sales) across the three main join
/// algorithms.
#[test]
fn worker_matrix_is_bit_identical_tpcds() {
    let jobs = worker_counts();
    let (db, q, m) = setup_ds(11, 55.0);
    let serial = Engine::new(&db, &q, &m.p);
    for alg in 0..3 {
        let plan = plan_ds(alg);
        let full = serial.execute(&plan, f64::INFINITY);
        let mut expect = vec![(f64::INFINITY, full.clone())];
        for frac in [0.6, 0.15, 0.03] {
            let b = full.cost() * frac;
            expect.push((b, serial.execute(&plan, b)));
        }
        for &n in &jobs {
            let eng = parallel_engine(&db, &q, &m, n);
            for (budget, reference) in &expect {
                assert_eq!(
                    &eng.execute(&plan, *budget),
                    reference,
                    "outcome diverged: alg {alg} budget {budget} workers {n}"
                );
            }
        }
    }
}

/// Shared h_q8a_2d bouquet + database for the substrate-level tests —
/// identification is deterministic and expensive, so build once.
fn sub_fixture() -> &'static (Bouquet, Database) {
    static F: OnceLock<(Bouquet, Database)> = OnceLock::new();
    F.get_or_init(|| {
        let w = workloads::h_q8a_2d(0.005);
        let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
        let db = Database::generate(&w.catalog, 7, &[]).expect("generate");
        (b, db)
    })
}

/// The optimized (Figure 13) driver — spilled prefixes, qrun monitoring,
/// quadrant pruning — produces the identical `BouquetRun` and result rows
/// through a parallel engine substrate at every worker count.
#[test]
fn optimized_driver_identical_across_workers() {
    let (b, db) = sub_fixture();
    let run_at = |workers: usize| -> (BouquetRun, usize) {
        let mut sub = EngineSubstrate::new(b, db, FaultInjector::none());
        if workers > 1 {
            sub = sub
                .with_engine_parallelism(Parallelism::new(workers))
                .with_engine_morsel_threshold(TEST_MORSEL_MIN);
        }
        let run = b
            .run(&mut sub, &RobustConfig::plain(true))
            .expect("driver run");
        (run.run, sub.result_rows().unwrap_or(0))
    };
    let (serial_run, serial_rows) = run_at(1);
    assert!(serial_run.completed(), "serial optimized run must complete");
    for n in worker_counts() {
        if n <= 1 {
            continue;
        }
        let (run, rows) = run_at(n);
        assert_eq!(run, serial_run, "BouquetRun diverged at {n} workers");
        assert_eq!(rows, serial_rows, "result rows diverged at {n} workers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random TPC-H plans × budgets (including mid-operator crossings) ×
    /// worker counts: the parallel engine is outcome-identical to serial.
    #[test]
    fn parallel_equals_serial_tpch(
        seed in 0u64..120,
        cut in 900.0f64..2100.0,
        shape in 0usize..8,
        frac in 0.005f64..1.3,
        workers in 2usize..9,
    ) {
        let (db, q, m) = setup3(seed, cut);
        let serial = Engine::new(&db, &q, &m.p);
        let par = parallel_engine(&db, &q, &m, workers);
        let plan = shape3(shape);
        let full = serial.execute(&plan, f64::INFINITY);
        prop_assert_eq!(
            &par.execute(&plan, f64::INFINITY), &full,
            "full runs diverge (shape {}, workers {})", shape, workers
        );
        let budget = full.cost() * frac;
        prop_assert_eq!(
            &par.execute(&plan, budget),
            &serial.execute(&plan, budget),
            "budgeted runs diverge (shape {}, frac {}, workers {})", shape, frac, workers
        );
    }

    /// Same property on TPC-DS over the three main join algorithms.
    #[test]
    fn parallel_equals_serial_tpcds(
        seed in 0u64..60,
        cut in 10.0f64..90.0,
        alg in 0usize..3,
        frac in 0.01f64..1.2,
        workers in 2usize..9,
    ) {
        let (db, q, m) = setup_ds(seed, cut);
        let serial = Engine::new(&db, &q, &m.p);
        let par = parallel_engine(&db, &q, &m, workers);
        let plan = plan_ds(alg);
        let full = serial.execute(&plan, f64::INFINITY);
        prop_assert_eq!(&par.execute(&plan, f64::INFINITY), &full);
        let budget = full.cost() * frac;
        prop_assert_eq!(
            &par.execute(&plan, budget),
            &serial.execute(&plan, budget),
            "budgeted TPC-DS runs diverge (alg {}, frac {}, workers {})", alg, frac, workers
        );
    }

    /// Spilled-prefix resolution through `EngineSubstrate`: monitored
    /// executions — spilled and plain — observe the same selectivity
    /// bounds, resolutions and spend through a parallel engine as through
    /// the serial one, for random bouquet plans, budgets and worker counts.
    #[test]
    fn spilled_prefix_matches_serial_through_substrate(
        pick in 0usize..64,
        frac in 0.05f64..1.0,
        workers in 2usize..9,
        spill_pick in 0usize..2,
    ) {
        let spilled = spill_pick == 1;
        let (b, db) = sub_fixture();
        let contour = &b.contours[pick % b.contours.len()];
        let pid = contour.plan_set[pick % contour.plan_set.len()];
        let budget = contour.budget * frac;
        let d = b.workload.ess.d();
        let resolved = vec![false; d];
        let mut serial = EngineSubstrate::new(b, db, FaultInjector::none());
        let mut par = EngineSubstrate::new(b, db, FaultInjector::none())
            .with_engine_parallelism(Parallelism::new(workers))
            .with_engine_morsel_threshold(TEST_MORSEL_MIN);
        let s = serial.execute_monitored(pid, &resolved, budget, spilled);
        let p = par.execute_monitored(pid, &resolved, budget, spilled);
        prop_assert_eq!(
            &p, &s,
            "monitored outcome diverged (pid {}, frac {}, workers {}, spilled {})",
            pid, frac, workers, spilled
        );
        if spilled {
            prop_assert!(s.spilled && !s.completed);
        }
    }
}
