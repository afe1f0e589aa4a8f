//! Engine-vs-simulator agreement on the typed dimension kinds.
//!
//! An axis's kind is the kind of the predicate bound to it
//! (`QuerySpec::dim_kind`). On the inequality-join and anti-join axes of
//! the hostile spaces, the engine substrate's per-kind observed
//! selectivities must agree with the data-measured true location the
//! simulator is driven at — same ladder decisions, same resolved
//! coordinates.

use std::sync::OnceLock;

use plan_bouquet::bouquet::{
    measure_qa, Bouquet, BouquetConfig, EngineSubstrate, ExecutionSubstrate, RobustConfig,
};
use plan_bouquet::engine::Database;
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::plan::DimKind;
use plan_bouquet::workloads;
use proptest::prelude::*;

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
                let kind = w.query.dim_kind(dm).unwrap();
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
