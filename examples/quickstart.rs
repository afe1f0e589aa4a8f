//! Quickstart: the paper's 1D introductory example, end to end.
//!
//! Reproduces the Figures 1–4 narrative on the EQ query (part ⋈ lineitem ⋈
//! orders with an error-prone selection on p_retailprice): identify the
//! POSP, discretize the PIC with doubling isocost steps, pick the bouquet,
//! then discover a "true" selectivity the optimizer never estimated.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use plan_bouquet::bouquet::{Bouquet, BouquetConfig};
use plan_bouquet::workloads;

fn main() {
    // The workload bundles catalog, query, error space and cost model.
    let w = workloads::by_name("EQ_1D").unwrap();
    println!("workload: {}  ({} error-prone dimension)", w.name, w.d());
    println!(
        "ESS: {} in [{:.4}%, {:.0}%], {} grid points\n",
        w.ess.dims[0].name,
        w.ess.dims[0].lo * 100.0,
        w.ess.dims[0].hi * 100.0,
        w.ess.num_points()
    );

    // ---- Compile time (Figure 8, left half) --------------------------------
    let bouquet = Bouquet::identify(&w, &BouquetConfig::default()).expect("identification");
    println!(
        "POSP has {} plans; {} isocost contours (r = {}); bouquet keeps {}:",
        bouquet.stats.posp_cardinality,
        bouquet.stats.num_contours,
        bouquet.config.r,
        bouquet.stats.bouquet_cardinality
    );
    for c in &bouquet.contours {
        let sel = w.ess.sel_at(0, w.ess.unlinear(c.points[0])[0]);
        println!(
            "  IC{:<2} budget {:>12.0}  PIC∩IC at {:>8.4}%  plan P{}",
            c.id,
            c.budget,
            sel * 100.0,
            c.assignment[0] + 1
        );
    }
    println!(
        "\nworst-case guarantee (Theorem 3 + anorexic λ): MSO <= {:.1}\n",
        bouquet.mso_bound()
    );

    // ---- Run time (Figure 8, right half) -----------------------------------
    // Suppose the actual selectivity is 5% — the optimizer never saw it.
    let qa = w.ess.point_at_fractions(&[f_of(&w, 0.05)]);
    println!(
        "true selectivity qa = {:.2}% (never estimated!)",
        qa[0] * 100.0
    );
    let run = bouquet.run_basic(&qa).unwrap();
    println!("discovery sequence:");
    for e in &run.trace {
        println!(
            "  IC{:<2} execute P{:<2} budget {:>10.0} -> {}",
            e.contour,
            e.plan + 1,
            e.budget,
            if e.completed {
                format!("COMPLETED ({:.0})", e.spent)
            } else {
                "budget exhausted, jettison".to_string()
            }
        );
    }
    let opt = bouquet.pic_cost(&qa);
    println!(
        "\ntotal cost {:.0} vs optimal {:.0} -> sub-optimality {:.2} (bound {:.1})",
        run.total_cost,
        opt,
        run.suboptimality(opt),
        bouquet.mso_bound()
    );

    // Repeatability: the same query instance always yields the same strategy.
    assert_eq!(run, bouquet.run_basic(&qa).unwrap());
    println!("re-running produces the identical execution strategy — repeatable.");
}

/// Fraction along the (geometric) axis corresponding to absolute sel `s`.
fn f_of(w: &plan_bouquet::bouquet::Workload, s: f64) -> f64 {
    let d = &w.ess.dims[0];
    (s / d.lo).ln() / (d.hi / d.lo).ln()
}
