//! Typed-dimension migration properties.
//!
//! The `DimKind` refactor re-expressed every legacy workload's ESS axes
//! through the typed constructors (`EssDim::selection` /
//! `EssDim::pk_fk_join`). The kind tag must be pure metadata for those two
//! kinds: re-declaring the same workload with the untyped legacy
//! constructor (`EssDim::new`) must produce **byte-identical** plan
//! diagrams, cost matrices, contours and driver runs. And on the new kinds
//! (inequality-join, anti-join), the engine substrate's per-kind observed
//! selectivities must agree with the data-measured true location the
//! simulator is driven at — same ladder decisions, same resolved
//! coordinates.

use std::sync::OnceLock;

use plan_bouquet::bouquet::{
    measure_qa, Bouquet, BouquetConfig, EngineSubstrate, ExecutionSubstrate, RobustConfig,
    SimulatorSubstrate, Workload,
};
use plan_bouquet::cost::{Ess, EssDim};
use plan_bouquet::engine::Database;
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::workloads;
use proptest::prelude::*;

/// The same workload with every axis demoted to the untyped legacy
/// constructor (kind defaults to `Selection`), ranges and resolutions
/// untouched.
fn untyped(w: &Workload) -> Workload {
    let dims = w
        .ess
        .dims
        .iter()
        .map(|d| EssDim::new(d.name.clone(), d.lo, d.hi))
        .collect();
    Workload::new(
        w.name.clone(),
        w.catalog.clone(),
        w.query.clone(),
        Ess::new(dims, w.ess.res.clone()),
        w.model.clone(),
    )
}

/// Identification artifacts that must not change under re-kinding,
/// compared modulo the kind tag itself: the serialized diagram embeds the
/// ESS (whose `kind` fields differ by construction), so the tags are
/// canonicalized before the byte comparison — everything else must match
/// exactly.
fn identity_artifacts(b: &Bouquet) -> String {
    let raw = format!(
        "{}\n{}\n{}\n{}",
        serde_json::to_string(&b.diagram).unwrap(),
        serde_json::to_string(&b.costs).unwrap(),
        serde_json::to_string(&b.grading).unwrap(),
        serde_json::to_string(&b.contours).unwrap()
    );
    raw.replace("\"kind\":\"PkFkJoin\"", "\"kind\":\"Selection\"")
}

fn migration_pairs() -> &'static Vec<(Bouquet, Bouquet)> {
    static P: OnceLock<Vec<(Bouquet, Bouquet)>> = OnceLock::new();
    P.get_or_init(|| {
        [
            workloads::by_name("EQ_1D").unwrap(),
            workloads::h_q8a_2d(0.01),
            workloads::by_name("3D_DS_Q15").unwrap(),
        ]
        .iter()
        .map(|w| {
            let typed = Bouquet::identify(w, &BouquetConfig::default()).unwrap();
            let legacy = Bouquet::identify(&untyped(w), &BouquetConfig::default()).unwrap();
            (typed, legacy)
        })
        .collect()
    })
}

#[test]
fn typed_migration_identifies_byte_identically() {
    for (typed, legacy) in migration_pairs() {
        assert_eq!(
            identity_artifacts(typed),
            identity_artifacts(legacy),
            "{}: typed re-declaration changed identification artifacts",
            typed.workload.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Driver byte-identity at arbitrary (off-grid) true locations: the
    /// basic and optimized runs of the typed and untyped declarations
    /// serialize to the same bytes.
    #[test]
    fn typed_migration_runs_byte_identically(fx in 0.0f64..=1.0, fy in 0.0f64..=1.0, fz in 0.0f64..=1.0) {
        let fracs = [fx, fy, fz];
        for (typed, legacy) in migration_pairs() {
            let d = typed.workload.ess.d();
            let qa = typed.workload.ess.point_at_fractions(&fracs[..d]);
            for optimized in [false, true] {
                let run = |b: &Bouquet| {
                    let mut sub = SimulatorSubstrate::new(b, &qa, FaultInjector::none())?;
                    b.run(&mut sub, &RobustConfig::plain(optimized)).map(|r| r.run)
                };
                let t = run(typed).unwrap();
                let l = run(legacy).unwrap();
                prop_assert_eq!(
                    serde_json::to_string(&t).unwrap(),
                    serde_json::to_string(&l).unwrap(),
                    "{}: {} driver diverged at {:?}",
                    &typed.workload.name,
                    if optimized { "optimized" } else { "basic" },
                    &qa
                );
            }
        }
    }
}

fn hostile_bouquets() -> &'static Vec<Bouquet> {
    static B: OnceLock<Vec<Bouquet>> = OnceLock::new();
    B.get_or_init(|| {
        [
            workloads::hostile_ineq_2d(0.003),
            workloads::hostile_anti_2d(0.003),
        ]
        .iter()
        .map(|w| Bouquet::identify(w, &BouquetConfig::default()).unwrap())
        .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Engine-vs-simulator agreement on the new dimension kinds, across
    /// regenerated databases: the engine substrate's per-kind observations
    /// (inequality pair density; flipped anti-join match density) must
    /// steer the basic driver through exactly the contour/plan/budget
    /// ladder the simulator takes at the data-measured true location, and
    /// an unbudgeted monitored execution must resolve every axis to that
    /// measured coordinate.
    #[test]
    fn engine_observations_agree_with_simulator_on_new_kinds(seed in 0u64..64) {
        for b in hostile_bouquets() {
            let w = &b.workload;
            let db = Database::generate(&w.catalog, seed.wrapping_mul(0x9E37_79B9).wrapping_add(1), &[])
                .unwrap();
            let qa = measure_qa(&db, &w.query, &w.ess).unwrap();

            // Ladder agreement.
            let mut sub = EngineSubstrate::new(b, &db, FaultInjector::none());
            let engine_run = b.run(&mut sub, &RobustConfig::plain(false)).unwrap().run;
            let sim_run = b.run_basic(&qa).unwrap();
            let seq = |r: &plan_bouquet::bouquet::BouquetRun| -> Vec<(usize, usize, f64)> {
                r.trace.iter().map(|e| (e.contour, e.plan, e.budget)).collect()
            };
            prop_assert!(engine_run.completed(), "{}: engine run incomplete", &w.name);
            prop_assert_eq!(
                seq(&engine_run),
                seq(&sim_run),
                "{}: engine ladder diverged from simulator at measured qa {:?}",
                &w.name,
                &qa
            );

            // Observed-coordinate agreement, one axis at a time: an
            // unbudgeted *spilled* execution runs the deepest unresolved
            // error node's prefix to completion, so its final counter is
            // the site's exact selectivity. What "agreement" means is
            // kind-specific:
            //
            // * Selection — the scan's counter over its base cardinality is
            //   the measured selectivity exactly.
            // * AntiJoin — the survivor-complement density matches the
            //   data-measured ≥1-match density up to the sampling skew the
            //   upstream pipeline's filtering introduces (a few percent);
            //   zero survivors legitimately yield no finite bound.
            // * InequalityJoin — the deepest site's prefix includes the
            //   error-prone selection scan, so the counter conflates the
            //   two axes: the resolved value is the *product* of the
            //   measured coordinates — a conservative in-ESS lower bound,
            //   never an overestimate.
            let d = w.ess.d();
            let pid = b.contours.last().unwrap().plan_set[0];
            for dm in 0..d {
                let mut resolved = vec![true; d];
                resolved[dm] = false;
                let mut sub = EngineSubstrate::new(b, &db, FaultInjector::none());
                let out = sub.execute_monitored(pid, &resolved, f64::INFINITY, true);
                prop_assert!(out.error.is_none(), "{}: spill failed", &w.name);
                use plan_bouquet::cost::DimKind;
                let kind = w.ess.dims[dm].kind;
                if out.resolved.is_empty() {
                    // Only the anti axis may fail to bound (no survivors).
                    prop_assert_eq!(
                        kind,
                        DimKind::AntiJoin,
                        "{}: dim {} prefix did not resolve",
                        &w.name,
                        dm
                    );
                    continue;
                }
                let (odm, v) = out.resolved[0];
                prop_assert_eq!(odm, dm);
                let expect = qa.0[dm];
                prop_assert!(
                    v >= w.ess.dims[dm].lo && v <= w.ess.dims[dm].hi,
                    "{}: dim {} resolved outside the ESS: {}",
                    &w.name, dm, v
                );
                match kind {
                    DimKind::Selection => prop_assert!(
                        (v - expect).abs() <= 1e-9 * expect.abs().max(1e-12),
                        "{}: selection dim {} resolved to {} but data measures {}",
                        &w.name, dm, v, expect
                    ),
                    DimKind::AntiJoin => prop_assert!(
                        (v - expect).abs() <= 0.15 * expect.abs(),
                        "{}: anti dim {} resolved to {} but data measures {}",
                        &w.name, dm, v, expect
                    ),
                    _ => {
                        prop_assert!(
                            v <= expect * (1.0 + 1e-9),
                            "{}: dim {} resolved value {} overestimates measured {}",
                            &w.name, dm, v, expect
                        );
                        let conflated = qa.0[0] * expect;
                        prop_assert!(
                            (v - conflated).abs() <= 0.10 * conflated.abs(),
                            "{}: dim {} resolved to {} but conflated product is {}",
                            &w.name, dm, v, conflated
                        );
                    }
                }
            }
        }
    }
}
