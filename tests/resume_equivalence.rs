//! Resume ≡ restart equivalence suite.
//!
//! Checkpoint/resume promises that a resumed execution is **observationally
//! bit-identical** to a restarted one — same outcome variant, same cost
//! bits, same rows, same abort point, same learned selectivities — and only
//! the *paid* cost shrinks, by exactly the reused units reported next to
//! the outcome. These tests pin that contract at both substrates:
//!
//! * the vectorized engine (`Engine::execute_resumable` vs
//!   `Engine::execute` over a budget ladder on every operator shape),
//! * the cost-unit simulator (`Bouquet::run` with `resume` on vs off, both
//!   policies, over a lattice of true locations),
//!
//! plus a chaos block: corrupting every checkpoint's integrity checksum
//! must make resume fall back to restart semantics — identical outcomes,
//! zero credit, never a double charge — and re-capture healthy snapshots
//! as the corrupted runs complete.

use std::sync::OnceLock;

use plan_bouquet::bouquet::{
    Bouquet, BouquetConfig, EngineSubstrate, ExecutionSubstrate, RobustConfig, RobustRun,
    SimulatorSubstrate,
};
use plan_bouquet::engine::{Database, Engine, EngineOutcome, ResumeBook};
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::plan::PlanNode;
use plan_bouquet::workloads;
use proptest::prelude::*;

/// Every operator shape the engine implements, over part ⋈ lineitem ⋈
/// orders (relations 0, 1, 2; join edge 0 is p⋈l, edge 1 is l⋈o).
fn plan_suite() -> Vec<(&'static str, PlanNode)> {
    let hj_pl = || PlanNode::HashJoin {
        build: Box::new(PlanNode::SeqScan { rel: 0 }),
        probe: Box::new(PlanNode::SeqScan { rel: 1 }),
        edges: vec![0],
    };
    vec![
        (
            "hash_join_chain",
            PlanNode::HashJoin {
                build: Box::new(hj_pl()),
                probe: Box::new(PlanNode::SeqScan { rel: 2 }),
                edges: vec![1],
            },
        ),
        (
            "merge_join_top",
            PlanNode::SortMergeJoin {
                left: Box::new(hj_pl()),
                right: Box::new(PlanNode::SeqScan { rel: 2 }),
                edges: vec![1],
                sort_left: true,
                sort_right: true,
            },
        ),
        (
            "index_nl_chain",
            PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::IndexNLJoin {
                    outer: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                    inner_rel: 1,
                    edges: vec![0],
                }),
                inner_rel: 2,
                edges: vec![1],
            },
        ),
        (
            "anti_join",
            PlanNode::AntiJoin {
                left: Box::new(PlanNode::SeqScan { rel: 0 }),
                right: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
            },
        ),
        (
            "hash_aggregate",
            PlanNode::HashAggregate {
                input: Box::new(hj_pl()),
            },
        ),
        (
            "spill_chain",
            PlanNode::Spill {
                input: Box::new(hj_pl()),
            },
        ),
    ]
}

/// The contour-style ascending budget ladder resume is built for: the same
/// plan re-granted ever larger budgets until it completes.
const LADDER: [f64; 5] = [0.02, 0.1, 0.4, 0.75, 1.0];

fn engine_fixture() -> &'static (plan_bouquet::bouquet::Workload, Database) {
    static F: OnceLock<(plan_bouquet::bouquet::Workload, Database)> = OnceLock::new();
    F.get_or_init(|| {
        let w = workloads::h_q8a_2d(0.01);
        let db = Database::generate(&w.catalog, 42, &[]).unwrap();
        (w, db)
    })
}

/// Identical observable outcome, down to the cost bits.
fn assert_outcome_bit_identical(label: &str, plain: &EngineOutcome, resumed: &EngineOutcome) {
    assert_eq!(plain, resumed, "{label}: outcome diverged under resume");
    assert_eq!(
        plain.cost().to_bits(),
        resumed.cost().to_bits(),
        "{label}: cost bits diverged under resume"
    );
}

/// Engine ladder: re-running a plan at the next contour budget resumes from
/// checkpoints of its completed operator prefix; the observable outcome at
/// every rung stays bit-identical to a cold restart and the paid cost
/// (`cost − reused`) never exceeds the restart cost.
#[test]
fn engine_ladder_resume_is_bit_identical_to_restart() {
    let (w, db) = engine_fixture();
    let engine = Engine::new(db, &w.query, &w.model.p);
    let mut total_reused = 0.0;
    for (name, plan) in plan_suite() {
        let full = engine.execute(&plan, f64::INFINITY).cost();
        let mut book = ResumeBook::new();
        for frac in LADDER {
            let budget = full * frac;
            let plain = engine.execute(&plan, budget);
            let (resumed, reused) = engine.execute_resumable(&plan, budget, &mut book);
            assert_outcome_bit_identical(&format!("{name} @ {frac}"), &plain, &resumed);
            assert!(
                (0.0..=plain.cost() * (1.0 + 1e-9)).contains(&reused),
                "{name} @ {frac}: reused {reused} out of range (restart cost {})",
                plain.cost()
            );
            total_reused += reused;
        }
        assert!(!book.is_empty(), "{name}: no checkpoints captured");
    }
    assert!(
        total_reused > 0.0,
        "reuse never engaged across the whole ladder suite"
    );
}

/// A plan that already completed is replayed entirely from its checkpoint:
/// the second full-budget run pays (almost) nothing but still reports the
/// restart-semantics outcome.
#[test]
fn completed_plan_replays_from_checkpoint_for_free() {
    let (w, db) = engine_fixture();
    let engine = Engine::new(db, &w.query, &w.model.p);
    let (name, plan) = plan_suite().remove(0);
    let mut book = ResumeBook::new();
    let (first, reused0) = engine.execute_resumable(&plan, f64::INFINITY, &mut book);
    assert_eq!(reused0, 0.0, "{name}: cold run cannot reuse anything");
    let (second, reused1) = engine.execute_resumable(&plan, f64::INFINITY, &mut book);
    assert_outcome_bit_identical(name, &first, &second);
    assert!(
        reused1 > 0.0 && reused1 <= first.cost(),
        "{name}: full replay should be served from checkpoints (reused {reused1})"
    );
    assert!(book.hits() > 0);
}

/// Chaos: corrupted checkpoints must fail validation and fall back to a
/// cold restart — bit-identical outcome, zero credit, never a double
/// charge — and the corrupted entries are re-captured healthy, so the next
/// run reuses again.
#[test]
fn corrupt_checkpoints_fall_back_to_restart_and_recapture() {
    let (w, db) = engine_fixture();
    let engine = Engine::new(db, &w.query, &w.model.p);
    for (name, plan) in plan_suite() {
        let full = engine.execute(&plan, f64::INFINITY).cost();
        let mut book = ResumeBook::new();
        for frac in LADDER {
            engine.execute_resumable(&plan, full * frac, &mut book);
        }
        book.corrupt_all();
        let plain = engine.execute(&plan, full);
        let (fallback, reused) = engine.execute_resumable(&plan, full, &mut book);
        assert_outcome_bit_identical(&format!("{name} corrupted"), &plain, &fallback);
        assert_eq!(
            reused, 0.0,
            "{name}: corrupt checkpoints must yield zero credit, not a stale replay"
        );
        // The corrupted run re-captured healthy snapshots as it completed.
        let (again, reused2) = engine.execute_resumable(&plan, full, &mut book);
        assert_outcome_bit_identical(&format!("{name} recaptured"), &plain, &again);
        assert!(
            reused2 > 0.0,
            "{name}: post-corruption run should have re-captured checkpoints"
        );
    }
}

fn bouquet_2d() -> &'static Bouquet {
    static B: OnceLock<Bouquet> = OnceLock::new();
    B.get_or_init(|| {
        Bouquet::identify(&workloads::h_q8a_2d(0.01), &BouquetConfig::default()).unwrap()
    })
}

/// One run on `sub` under the plain settings with resume on or off, its
/// books audited, and the cost units the substrate reused during it.
fn drive<S: ExecutionSubstrate>(
    b: &Bouquet,
    sub: &mut S,
    optimized: bool,
    resume: bool,
) -> (RobustRun, f64) {
    let cfg = RobustConfig {
        resume,
        ..RobustConfig::plain(optimized)
    };
    let before = sub.resume_stats().reused_cost;
    let run = b.run(sub, &cfg).unwrap();
    run.audit(b, &cfg).unwrap();
    (run, sub.resume_stats().reused_cost - before)
}

/// Resume must never change *what is learned or decided*, only *what is
/// paid*: `audit_resumed` against the restart.
fn assert_resumes(label: &str, resumed: &(RobustRun, f64), restart: &RobustRun) {
    if let Err(e) = resumed.0.audit_resumed(resumed.1, restart) {
        panic!("{label}: {e}");
    }
}

/// Checks both policies at `fracs`; returns the cost units the basic one
/// reused.
fn check_simulator_resume_at(fracs: &[f64]) -> f64 {
    let b = bouquet_2d();
    let qa = b.workload.ess.point_at_fractions(fracs);
    let [basic_reuse, _] = [false, true].map(|optimized| {
        let sub = || SimulatorSubstrate::new(b, &qa, FaultInjector::none()).unwrap();
        let (plain, _) = drive(b, &mut sub(), optimized, false);
        let resumed = drive(b, &mut sub(), optimized, true);
        assert_resumes(
            &format!("optimized={optimized} @ {fracs:?}"),
            &resumed,
            &plain,
        );
        resumed.1
    });
    basic_reuse
}

/// Deterministic lattice over the 2D error space, including the axis
/// extremes where the discovery ladder is longest (most reuse).
#[test]
fn simulator_resume_preserves_decisions_on_lattice() {
    let mut reuse_seen = false;
    for &x in &[0.05, 0.5, 0.95] {
        for &y in &[0.05, 0.5, 0.95] {
            reuse_seen |= check_simulator_resume_at(&[x, y]) > 0.0;
        }
    }
    assert!(
        reuse_seen,
        "checkpoint reuse never engaged anywhere on the lattice"
    );
}

/// Simulator chaos: corrupting the substrate's checkpoints between two
/// drives leaves the second run's decisions identical and never charges
/// more than restart semantics.
#[test]
fn simulator_corrupt_checkpoints_never_double_charge() {
    let b = bouquet_2d();
    let qa = b.workload.ess.point_at_fractions(&[0.8, 0.8]);
    let sub = || SimulatorSubstrate::new(b, &qa, FaultInjector::none()).unwrap();
    let (plain, _) = drive(b, &mut sub(), false, false);

    let mut sub = sub();
    let warm = drive(b, &mut sub, false, true);
    assert_resumes("warm simulator", &warm, &plain);
    sub.resume.corrupt_all();
    let after = drive(b, &mut sub, false, true);
    assert_resumes("corrupted simulator", &after, &plain);
    // Fresh snapshots recorded by the fallback runs keep stats coherent.
    assert!(sub.resume_stats().checkpoints > 0);
}

/// Engine substrate chaos: same fallback property on real tuples.
#[test]
fn engine_substrate_corrupt_checkpoints_fall_back() {
    let b = bouquet_2d();
    let (_, db) = engine_fixture();
    let (plain, _) = drive(
        b,
        &mut EngineSubstrate::new(b, db, FaultInjector::none()),
        false,
        false,
    );

    let mut sub = EngineSubstrate::new(b, db, FaultInjector::none());
    let warm = drive(b, &mut sub, false, true);
    assert_resumes("engine warm", &warm, &plain);
    sub.resume.corrupt_all();
    let after = drive(b, &mut sub, false, true);
    assert_resumes("engine corrupted", &after, &plain);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random true locations never separate the resumable drivers from the
    /// plain ones in anything but paid cost.
    #[test]
    fn resume_preserves_decisions_at_random_locations(
        f in [0.0f64..=1.0, 0.0f64..=1.0],
    ) {
        check_simulator_resume_at(&f);
    }
}
