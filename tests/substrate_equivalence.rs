//! Substrate-equivalence regression suite.
//!
//! Besides the driver goldens below, each substrate's two entry points are
//! checked to be one execution: `execute_partial` is `execute_monitored`
//! with nothing left to learn.
//!
//! The `ExecutionSubstrate` refactor promises that the simulator-substrate
//! drivers are **byte-identical** to the pre-refactor `run_basic` /
//! `run_optimized` implementations. The golden snapshots in
//! `tests/golden/driver_runs.json` were captured from the pre-refactor
//! drivers (commit 2047fe9) on the EQ_1D / 2D_H_Q8A / 3D_DS_Q15 regression
//! workloads; every run here must serialize to exactly those bytes.
//!
//! Regenerating the goldens (only legitimate when the *executor semantics*
//! deliberately change, never to paper over a driver regression):
//!
//! ```text
//! cargo test --test substrate_equivalence regenerate_goldens -- --ignored
//! ```

use std::collections::BTreeMap;
use std::sync::OnceLock;

use plan_bouquet::bouquet::{
    Bouquet, BouquetConfig, BouquetRun, EngineSubstrate, ExecutionSubstrate, RobustConfig,
    SimulatorSubstrate,
};
use plan_bouquet::engine::Database;
use plan_bouquet::faults::{FaultInjector, FaultKind, FaultPlan, Trigger};
use plan_bouquet::workloads;
use proptest::prelude::*;

const GOLDEN_PATH: &str = "tests/golden/driver_runs.json";

fn bouquets() -> &'static Vec<Bouquet> {
    static B: OnceLock<Vec<Bouquet>> = OnceLock::new();
    B.get_or_init(|| {
        [
            workloads::eq_1d(),
            workloads::h_q8a_2d(0.01),
            workloads::ds_q15_3d(),
        ]
        .iter()
        .map(|w| Bouquet::identify(w, &BouquetConfig::default()).unwrap())
        .collect()
    })
}

/// Deterministic per-workload probe fractions: axis extremes, an interior
/// lattice, and off-grid locations that exercise `snap_floor`.
fn probe_fractions(d: usize) -> Vec<Vec<f64>> {
    let axes: &[f64] = match d {
        1 => &[0.0, 0.13, 0.37, 0.5, 0.63, 0.86, 1.0],
        2 => &[0.05, 0.35, 0.65, 0.95],
        _ => &[0.1, 0.55, 0.9],
    };
    let mut out: Vec<Vec<f64>> = vec![Vec::new()];
    for _ in 0..d {
        out = out
            .into_iter()
            .flat_map(|p| {
                axes.iter().map(move |&a| {
                    let mut q = p.clone();
                    q.push(a);
                    q
                })
            })
            .collect();
    }
    out
}

/// One run on `sub` under the plain settings.
fn plain_run<S: ExecutionSubstrate>(b: &Bouquet, sub: &mut S, optimized: bool) -> BouquetRun {
    b.run(sub, &RobustConfig::plain(optimized)).unwrap().run
}

/// Every (workload, driver, location) run, keyed and serialized for exact
/// byte comparison. The golden file holds one `key\tjson` line per run.
fn current_runs() -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for b in bouquets() {
        let d = b.workload.ess.d();
        for fracs in probe_fractions(d) {
            let qa = b.workload.ess.point_at_fractions(&fracs);
            for optimized in [false, true] {
                let driver = if optimized { "opt" } else { "basic" };
                let mut sub = SimulatorSubstrate::new(b, &qa, FaultInjector::none()).unwrap();
                let run = plain_run(b, &mut sub, optimized);
                map.insert(
                    format!("{}/{driver}/{fracs:?}", b.workload.name),
                    serde_json::to_string(&run).unwrap(),
                );
            }
        }
    }
    map
}

fn parse_goldens(raw: &str) -> BTreeMap<String, String> {
    raw.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (k, v) = l.split_once('\t').expect("golden line must be key\\tjson");
            (k.to_string(), v.to_string())
        })
        .collect()
}

#[test]
fn simulator_drivers_match_pre_refactor_goldens() {
    let golden_raw = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate_goldens test first");
    let golden = parse_goldens(&golden_raw);
    let current = current_runs();
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        current.keys().collect::<Vec<_>>(),
        "golden key set diverged"
    );
    for (key, json) in &current {
        assert_eq!(
            json, &golden[key],
            "driver output diverged from pre-refactor golden at {key}"
        );
        // The snapshot is a valid, lossless BouquetRun serialization.
        let back: BouquetRun = serde_json::from_str(json).unwrap();
        assert_eq!(&serde_json::to_string(&back).unwrap(), json);
    }
}

/// At a random location, the paper-named conveniences (`run_basic` /
/// `run_optimized`) and an explicitly-constructed simulator substrate fed
/// through `Bouquet::run` under the plain settings must be bit-identical —
/// the conveniences add nothing to the control flow.
fn assert_generic_equals_entry_point(b: &Bouquet, fracs: &[f64]) {
    let qa = b.workload.ess.point_at_fractions(fracs);
    for (optimized, entry) in [(false, b.run_basic(&qa)), (true, b.run_optimized(&qa))] {
        let entry = entry.unwrap();
        let mut sub = SimulatorSubstrate::new(b, &qa, FaultInjector::none()).unwrap();
        let generic = plain_run(b, &mut sub, optimized);
        assert_eq!(
            serde_json::to_string(&entry).unwrap(),
            serde_json::to_string(&generic).unwrap(),
            "entry point and generic driver diverged (optimized={optimized}, fracs={fracs:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// EQ_1D: random locations never separate the wrapper from the generic
    /// driver. Combined with the golden test above (wrapper == pre-refactor
    /// bytes on the lattice), this pins the generic path to the pre-refactor
    /// behaviour across the whole space.
    #[test]
    fn generic_basic_matches_entry_point_1d(f in 0.0f64..=1.0) {
        assert_generic_equals_entry_point(&bouquets()[0], &[f]);
    }

    /// 2D_H_Q8A: same property on the paper's run-time workload.
    #[test]
    fn generic_basic_matches_entry_point_2d(f in [0.0f64..=1.0, 0.0f64..=1.0]) {
        assert_generic_equals_entry_point(&bouquets()[1], &f);
    }

    /// 3D_DS_Q15: same property on the 3D error space.
    #[test]
    fn generic_basic_matches_entry_point_3d(
        f in [0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0],
    ) {
        assert_generic_equals_entry_point(&bouquets()[2], &f);
    }
}

/// Engine-substrate runs are deterministic across repeats: a fresh substrate
/// over the same generated data replays every driver bit-identically, down
/// to the produced row count.
#[test]
fn engine_substrate_runs_are_deterministic_across_repeats() {
    let b = &bouquets()[1];
    let db = Database::generate(&b.workload.catalog, 11, &[]).unwrap();
    for optimized in [false, true] {
        let run_once = || {
            let mut sub = EngineSubstrate::new(b, &db, FaultInjector::none());
            let run = plain_run(b, &mut sub, optimized);
            (serde_json::to_string(&run).unwrap(), sub.result_rows())
        };
        let first = run_once();
        let second = run_once();
        assert_eq!(
            first, second,
            "engine replay diverged (optimized={optimized})"
        );
    }
}

/// Every bouquet plan of 2D_H_Q8A at budgets {0.3, 1, 3} × its actual cost
/// and ∞, with each plan's actual cost: what `fresh()` spends running it
/// unbudgeted.
fn budget_ladder<S: ExecutionSubstrate>(b: &Bouquet, fresh: impl Fn() -> S) -> Vec<(usize, f64)> {
    let mut costs = fresh();
    let plans = b
        .plan_ids()
        .into_iter()
        .map(|pid| (pid, costs.run_native(pid).spent));
    let budgets =
        |(pid, cost): (usize, f64)| [0.3, 1.0, 3.0, f64::INFINITY].map(|k| (pid, k * cost));
    plans.flat_map(budgets).collect()
}

/// `execute_partial` is `execute_monitored` under the all-resolved mask,
/// unspilled: two fresh substrates from `fresh` (resume enabled on both
/// when `resume`), one driven through each entry point over the same
/// ladder, report the same outcome call for call.
fn assert_partial_is_monitored<S: ExecutionSubstrate>(
    b: &Bouquet,
    fresh: impl Fn() -> S,
    tag: &str,
) {
    let ladder = budget_ladder(b, &fresh);
    let all_resolved = vec![true; b.workload.ess.d()];
    for resume in [false, true] {
        let (mut partial, mut monitored) = (fresh(), fresh());
        if resume {
            assert!(partial.enable_checkpoint_resume() && monitored.enable_checkpoint_resume());
        }
        for &(pid, budget) in &ladder {
            let got = partial.execute_partial(pid, budget);
            let want = monitored.execute_monitored(pid, &all_resolved, budget, false);
            let at = format!("{tag} resume={resume} plan {pid} budget {budget}");
            assert_eq!(got, want, "{at}");
            assert_eq!(got.spent.to_bits(), want.spent.to_bits(), "{at}");
        }
    }
}

/// The two entry points are one call, on the simulator unarmed and armed
/// with every executor fault on seeded coins (one ladder of fault hooks),
/// and on the engine.
#[test]
fn execute_partial_is_the_monitored_execution_with_nothing_to_learn() {
    let b = &bouquets()[1];
    let qa = b.workload.ess.point_at_fractions(&[0.35, 0.65]);
    let armed = FaultPlan::new(20140622)
        .with(FaultKind::SpillFailure, Trigger::PerMille(150))
        .with(
            FaultKind::OperatorFailure { waste_frac: 0.4 },
            Trigger::PerMille(200),
        )
        .with(
            FaultKind::BudgetClockSkew { factor: 0.7 },
            Trigger::PerMille(300),
        )
        .with(
            FaultKind::PerturbationSpike { factor: 3.0 },
            Trigger::PerMille(300),
        )
        .with(
            FaultKind::CorruptObservation { scale: 2.5 },
            Trigger::PerMille(300),
        )
        .with(
            FaultKind::LedgerOverCharge { factor: 1.5 },
            Trigger::PerMille(300),
        );
    for (tag, faults) in [("simulator", FaultPlan::none()), ("armed simulator", armed)] {
        let fresh = || SimulatorSubstrate::new(b, &qa, FaultInjector::new(&faults)).unwrap();
        assert_partial_is_monitored(b, fresh, tag);
    }
    let db = Database::generate(&b.workload.catalog, 11, &[]).unwrap();
    let fresh = || EngineSubstrate::new(b, &db, FaultInjector::none());
    assert_partial_is_monitored(b, fresh, "engine");
}

/// A spilled execution never completes the query — also when nothing is
/// left to learn and the spilled run executes the whole plan, which then
/// fits its budget four times over.
#[test]
fn spilled_execution_with_nothing_to_learn_does_not_complete() {
    let b = &bouquets()[1];
    let qa = b.workload.ess.point_at_fractions(&[0.35, 0.65]);
    let all_resolved = vec![true; b.workload.ess.d()];
    let db = Database::generate(&b.workload.catalog, 11, &[]).unwrap();
    let mut sim = SimulatorSubstrate::new(b, &qa, FaultInjector::none()).unwrap();
    let mut engine = EngineSubstrate::new(b, &db, FaultInjector::none());
    let subs: [&mut dyn ExecutionSubstrate; 2] = [&mut sim, &mut engine];
    for (tag, sub) in ["simulator", "engine"].into_iter().zip(subs) {
        for pid in b.plan_ids() {
            let cost = sub.run_native(pid).spent;
            let out = sub.execute_monitored(pid, &all_resolved, 4.0 * cost, true);
            assert!(out.spilled && !out.completed, "{tag} plan {pid}: {out:?}");
            assert!(
                out.error.is_none() && out.spent <= cost,
                "{tag} plan {pid}: {out:?}"
            );
        }
    }
}

#[test]
#[ignore = "writes tests/golden/driver_runs.json from the current drivers"]
fn regenerate_goldens() {
    let mut out = String::new();
    for (k, v) in current_runs() {
        out.push_str(&k);
        out.push('\t');
        out.push_str(&v);
        out.push('\n');
    }
    std::fs::create_dir_all("tests/golden").unwrap();
    std::fs::write(GOLDEN_PATH, out).unwrap();
}
