//! Ablation: how the isocost ratio `r` and the anorexic threshold `λ` shape
//! the bouquet's guarantee and measured behaviour (Theorem 1 / Section 3.3
//! design choices), on a 2D error space.
//!
//! ```sh
//! cargo run --release --example explore_r_lambda
//! ```

use std::sync::Arc;

use plan_bouquet::bouquet::theory;
use plan_bouquet::bouquet::{Bouquet, BouquetConfig};
use plan_bouquet::cost::Parallelism;
use plan_bouquet::workloads;

fn main() {
    let w = workloads::h_q8a_2d(1.0);
    println!("workload {} ({} grid points)\n", w.name, w.ess.num_points());
    // The plan diagram does not depend on r or λ: build it once and grade
    // it at each setting.
    let diagram = Arc::new(w.diagram());
    let grade = |cfg: &BouquetConfig| {
        Bouquet::grade(&w, Arc::clone(&diagram), cfg, Parallelism::auto()).expect("grade")
    };

    println!("--- sweep of the isocost common ratio r (λ = 0.2) ---");
    println!(
        "{:>5} {:>9} {:>7} {:>12} {:>13} {:>13}",
        "r", "contours", "ρ", "bound", "measured MSO", "measured ASO"
    );
    for r in [1.41, 2.0, 2.83, 4.0] {
        let cfg = BouquetConfig {
            r,
            ..Default::default()
        };
        let b = grade(&cfg);
        let (mso, aso) = measure(&b);
        println!(
            "{:>5.2} {:>9} {:>7} {:>12.1} {:>13.2} {:>13.2}",
            r,
            b.stats.num_contours,
            b.rho(),
            b.mso_bound(),
            mso,
            aso
        );
    }
    println!("(the bound r²/(r−1) is minimized at r = 2 — Theorem 1)\n");

    println!("--- sweep of the anorexic threshold λ (r = 2) ---");
    println!(
        "{:>5} {:>7} {:>9} {:>12} {:>13} {:>13}",
        "λ", "ρ", "bouquet", "bound", "measured MSO", "measured ASO"
    );
    for lambda in [0.0, 0.1, 0.2, 0.5] {
        let cfg = BouquetConfig {
            lambda,
            ..Default::default()
        };
        let b = grade(&cfg);
        let (mso, aso) = measure(&b);
        println!(
            "{:>5.2} {:>7} {:>9} {:>12.1} {:>13.2} {:>13.2}",
            lambda,
            b.rho(),
            b.stats.bouquet_cardinality,
            b.mso_bound(),
            mso,
            aso
        );
    }
    println!("(larger λ trades per-plan slack for smaller contour density ρ —");
    println!(" the guarantee (1+λ)·ρ·r²/(r−1) usually improves, Section 3.3)");

    println!("\nmodel-error inflation caps (Section 3.4):");
    for delta in [0.1, 0.4, 1.0] {
        println!(
            "  δ = {:.1} -> MSO may grow by at most {:.2}x",
            delta,
            theory::model_error_inflation(delta)
        );
    }
}

/// Measured (MSO, ASO) for the basic driver over the full grid.
fn measure(b: &Bouquet) -> (f64, f64) {
    let ess = &b.workload.ess;
    let mut worst = 0.0f64;
    let mut sum = 0.0f64;
    for li in 0..ess.num_points() {
        let qa = ess.point(&ess.unlinear(li));
        let run = b.run_basic(&qa).unwrap();
        assert!(run.completed());
        let so = run.suboptimality(b.pic_cost_at(li));
        worst = worst.max(so);
        sum += so;
    }
    (worst, sum / ess.num_points() as f64)
}
