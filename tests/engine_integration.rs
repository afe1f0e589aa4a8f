//! Integration between the cost-unit simulator and the engine: the
//! two execution substrates must agree on the decisions that matter to the
//! bouquet (completion vs abort at matched budgets, selectivity monitoring
//! directions), differing only by a bounded model-error factor.

use plan_bouquet::bouquet::{Bouquet, BouquetConfig};
use plan_bouquet::cost::{CostPerturbation, Coster, NodeCosts, SelPoint};
use plan_bouquet::engine::{ColumnOverride, Database, Engine};
use plan_bouquet::executor::Executor;
use plan_bouquet::workloads;

fn setup() -> (plan_bouquet::bouquet::Workload, Database) {
    let w = workloads::h_q8a_2d(0.01);
    let db = Database::generate(&w.catalog, 42, &[]).expect("generate");
    (w, db)
}

/// The engine's full-execution cost tracks the cost model's prediction at
/// the measured actual selectivities within a modest δ band, across every
/// bouquet plan. (This is the premise of Section 3.4.)
#[test]
fn engine_costs_track_model_within_delta() {
    let (w, db) = setup();
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    // Measured actual location.
    let mut qa = vec![0.0; 2];
    for (ji, j) in w.query.joins.iter().enumerate() {
        if let Some(d) = j.selectivity.error_dim() {
            qa[d] = db
                .actual_join_selectivity(&w.query, ji)
                .clamp(w.ess.dims[d].lo, w.ess.dims[d].hi);
        }
    }
    let engine = Engine::new(&db, &w.query, &w.model.p);
    let coster = Coster::new(&w.catalog, &w.query, &w.model);
    let mut max_delta = 0.0f64;
    for pid in b.plan_ids() {
        let plan = &b.plan(pid).root;
        let actual = engine.execute(plan, f64::INFINITY).cost();
        let modeled = coster.plan_cost(plan, &qa);
        let ratio = actual / modeled;
        let delta = if ratio >= 1.0 {
            ratio - 1.0
        } else {
            1.0 / ratio - 1.0
        };
        max_delta = max_delta.max(delta);
    }
    assert!(
        max_delta < 2.5,
        "engine/model divergence too large: δ = {max_delta:.2}"
    );
}

/// Completion decisions agree between the simulator and the engine once the
/// simulator's budget is padded by the observed δ.
#[test]
fn completion_decisions_agree_modulo_delta() {
    let (w, db) = setup();
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let mut qa = vec![0.0; 2];
    for (ji, j) in w.query.joins.iter().enumerate() {
        if let Some(d) = j.selectivity.error_dim() {
            qa[d] = db
                .actual_join_selectivity(&w.query, ji)
                .clamp(w.ess.dims[d].lo, w.ess.dims[d].hi);
        }
    }
    let qa = SelPoint(qa);
    let engine = Engine::new(&db, &w.query, &w.model.p);
    let ex = Executor::new(CostPerturbation::none());
    let (mut stack, mut scratch) = (Vec::new(), NodeCosts::default());
    for pid in b.plan_ids() {
        let plan = &b.plan(pid).root;
        let (prog, fp) = (&b.programs()[pid], b.plan(pid).fingerprint());
        let modeled = ex.actual_cost_compiled(prog, fp, &qa, &mut stack);
        let mut simulate = |budget| ex.execute_compiled(prog, fp, &qa, budget, &mut scratch);
        let engine_cost = engine.execute(plan, f64::INFINITY).cost();
        // With a budget well above both costs, both complete; with a budget
        // well below both, both abort.
        let generous = 4.0 * modeled.max(engine_cost);
        let stingy = 0.1 * modeled.min(engine_cost);
        assert!(simulate(generous).completed());
        assert!(engine.execute(plan, generous).completed());
        assert!(!simulate(stingy).completed());
        assert!(!engine.execute(plan, stingy).completed());
    }
}

/// The engine's observed selectivities respect the first-quadrant invariant
/// (never exceed the truth) and converge to the truth on full executions.
#[test]
fn engine_observed_selectivity_first_quadrant() {
    let (w, db) = setup();
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let engine = Engine::new(&db, &w.query, &w.model.p);
    let s_true0 = db.actual_join_selectivity(&w.query, 0);
    for pid in b.plan_ids() {
        let plan = &b.plan(pid).root;
        let full = engine.execute(plan, f64::INFINITY);
        for frac in [0.05, 0.3, 0.8] {
            let partial = engine.execute(plan, full.cost() * frac);
            if let Some(s) = partial.instr().observed_selectivity(plan, &w.query, &db, 0) {
                assert!(
                    s <= s_true0 * 1.05,
                    "plan {pid} frac {frac}: observed {s} > true {s_true0}"
                );
            }
        }
    }
}

/// Bouquet discovery over the engine completes and returns the same result
/// cardinality as direct execution of the oracle plan.
#[test]
fn engine_bouquet_result_matches_oracle() {
    let (w, db) = setup();
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let engine = Engine::new(&db, &w.query, &w.model.p);

    // Oracle result cardinality.
    let mut qa = vec![0.0; 2];
    for (ji, j) in w.query.joins.iter().enumerate() {
        if let Some(d) = j.selectivity.error_dim() {
            qa[d] = db
                .actual_join_selectivity(&w.query, ji)
                .clamp(w.ess.dims[d].lo, w.ess.dims[d].hi);
        }
    }
    let oracle_plan = w.optimizer().optimize(&SelPoint(qa)).plan;
    let oracle = engine.execute(&oracle_plan.root, f64::INFINITY);
    let plan_bouquet::engine::EngineOutcome::Completed {
        rows: oracle_rows, ..
    } = oracle
    else {
        panic!("oracle must complete");
    };

    // Basic bouquet loop over the engine.
    let mut rows = None;
    'outer: for c in &b.contours {
        for &pid in &c.plan_set {
            if let plan_bouquet::engine::EngineOutcome::Completed { rows: r, .. } =
                engine.execute(&b.plan(pid).root, c.budget)
            {
                rows = Some(r);
                break 'outer;
            }
        }
    }
    assert_eq!(
        rows,
        Some(oracle_rows),
        "bouquet must return the oracle's result"
    );
}

/// Data generation honours overrides; selectivity measurement reflects them.
#[test]
fn overrides_shift_measured_selectivities() {
    let w = workloads::h_q8a_2d(0.01);
    let plain = Database::generate(&w.catalog, 5, &[]).expect("generate");
    let skewed = Database::generate(
        &w.catalog,
        5,
        &[
            ColumnOverride::EffectiveNdv {
                table: "part".into(),
                column: "p_partkey".into(),
                ndv: 50,
            },
            ColumnOverride::EffectiveNdv {
                table: "lineitem".into(),
                column: "l_partkey".into(),
                ndv: 50,
            },
        ],
    )
    .expect("generate");
    let s_plain = plain.actual_join_selectivity(&w.query, 0);
    let s_skewed = skewed.actual_join_selectivity(&w.query, 0);
    assert!(
        s_skewed > 5.0 * s_plain,
        "skew should raise join selectivity: {s_plain} -> {s_skewed}"
    );
}
