//! Validation of the paper's theoretical results (Section 3) against the
//! executable system: Theorems 1–3, the anorexic trade-off, and the bounded
//! model-error framework.

use std::sync::Arc;

use pb_faults::FaultInjector;
use plan_bouquet::bouquet::{theory, Bouquet, BouquetConfig, RobustConfig, SimulatorSubstrate};
use plan_bouquet::cost::{CostPerturbation, Parallelism};
use plan_bouquet::workloads;

/// Theorem 1: for 1D spaces, measured MSO ≤ (1+λ)·r²/(r−1) for every r.
#[test]
fn theorem1_holds_for_all_ratios_1d() {
    let w = workloads::by_name("EQ_1D").unwrap();
    let diagram = Arc::new(w.diagram());
    for r in [1.25, 1.5, 2.0, 2.5, 3.0, 5.0] {
        let cfg = BouquetConfig {
            r,
            ..Default::default()
        };
        let b = Bouquet::grade(&w, Arc::clone(&diagram), &cfg, Parallelism::auto()).unwrap();
        let bound = (1.0 + cfg.lambda) * theory::mso_bound_1d(r);
        for li in 0..w.ess.num_points() {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let so = b
                .run_basic(&qa)
                .expect("run")
                .suboptimality(b.pic_cost_at(li));
            assert!(so <= bound * (1.0 + 1e-9), "r={r} li={li}: {so} > {bound}");
        }
    }
}

/// Theorem 2 (numerically): every monotone budget progression the adversary
/// faces pays at least 4; doubling pays exactly 4 in the limit.
#[test]
fn theorem2_lower_bound_numeric() {
    // A wide family of budget progressions.
    let families: Vec<Vec<f64>> = vec![
        (0..40).map(|k| 2f64.powi(k)).collect(),
        (0..40).map(|k| 1.5f64.powi(k)).collect(),
        (0..40).map(|k| 3f64.powi(k)).collect(),
        (1..60).map(|k| k as f64).collect(),
        (1..60).map(|k| (k * k) as f64).collect(),
        (1..40).map(|k| (k as f64).exp()).collect(),
    ];
    for budgets in families {
        let mso = theory::adversarial_mso(&budgets);
        assert!(mso >= 4.0 - 1e-6, "progression beat the lower bound: {mso}");
    }
}

/// Theorem 3: multi-D measured MSO ≤ (1+λ)·ρ·r²/(r−1); with r = 2 the bound
/// is 4(1+λ)ρ.
#[test]
fn theorem3_multi_dimensional_bound() {
    for w in [
        workloads::h_q8a_2d(1.0),
        workloads::by_name("3D_H_Q5").unwrap(),
    ] {
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let bound = theory::mso_bound_anorexic(b.rho(), 2.0, 0.2);
        assert!((bound - b.mso_bound()).abs() < 1e-9);
        let n = w.ess.num_points();
        for li in (0..n).step_by((n / 400).max(1)) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let so = b
                .run_basic(&qa)
                .expect("run")
                .suboptimality(b.pic_cost_at(li));
            assert!(so <= bound * (1.0 + 1e-9), "{}: {so} > {bound}", w.name);
        }
    }
}

/// Section 3.3: increasing λ weakly decreases ρ (the whole point of the
/// anorexic trade-off), and the bouquet still respects its adjusted bound.
#[test]
fn anorexic_tradeoff_monotone_in_lambda() {
    let w = workloads::h_q8a_2d(1.0);
    let diagram = Arc::new(w.diagram());
    let mut last_rho = usize::MAX;
    for lambda in [0.0, 0.1, 0.2, 0.4, 0.8] {
        let cfg = BouquetConfig {
            lambda,
            ..Default::default()
        };
        let b = Bouquet::grade(&w, Arc::clone(&diagram), &cfg, Parallelism::auto()).unwrap();
        assert!(b.rho() <= last_rho, "ρ must not grow with λ");
        last_rho = b.rho();
        let qa = w.ess.point_at_fractions(&[0.6, 0.6]);
        let so = b
            .run_basic(&qa)
            .expect("run")
            .suboptimality(b.pic_cost(&qa));
        assert!(so <= b.mso_bound() * (1.0 + 1e-9), "λ={lambda}");
    }
}

/// Section 3.4: with a δ-bounded model-error adversary, the measured MSO
/// (against actual optimal costs) stays within (1+δ)² of the perfect-model
/// MSO bound.
#[test]
fn model_error_inflation_bounded() {
    let w = workloads::h_q8a_2d(1.0);
    let delta = 0.4;
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let cap = b.mso_bound() * theory::model_error_inflation(delta);
    for seed in [3, 17, 99] {
        let perturb = CostPerturbation::with_delta(delta, seed);
        let ex = plan_bouquet::executor::Executor::new(perturb);
        let mut stack = Vec::new();
        let n = w.ess.num_points();
        for li in (0..n).step_by(7) {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let mut sub = SimulatorSubstrate::new(&b, &qa, FaultInjector::none())
                .unwrap()
                .with_model_error(perturb);
            let run = b.run(&mut sub, &RobustConfig::plain(false)).unwrap().run;
            assert!(run.completed(), "seed {seed} li {li}");
            // Actual optimal cost under the same adversary.
            let opt_actual = (b.programs().iter().zip(&b.diagram.plans))
                .map(|(prog, p)| ex.actual_cost_compiled(prog, p.fingerprint(), &qa, &mut stack))
                .fold(f64::INFINITY, f64::min);
            let so = run.total_cost / opt_actual;
            assert!(
                so <= cap * (1.0 + 1e-9),
                "seed {seed} li {li}: {so} > {cap}"
            );
        }
    }
}

/// The closed-form bound functions are mutually consistent.
#[test]
fn bound_function_consistency() {
    assert_eq!(theory::mso_bound_multi(1, 2.0), theory::mso_bound_1d(2.0));
    assert_eq!(
        theory::mso_bound_anorexic(3, 2.0, 0.0),
        theory::mso_bound_multi(3, 2.0)
    );
    assert!(
        theory::mso_bound_1d(theory::optimal_ratio()) <= theory::DETERMINISTIC_LOWER_BOUND + 1e-12
    );
    assert_eq!(theory::model_error_inflation(0.0), 1.0);
}
