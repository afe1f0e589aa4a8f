//! Multi-dimensional discovery: contours, coverage and the optimized driver
//! on a 3D TPC-H error space (the paper's Section 5 machinery).
//!
//! ```sh
//! cargo run --release --example multidim_bouquet
//! ```

use plan_bouquet::bouquet::{Bouquet, BouquetConfig};
use plan_bouquet::workloads;

fn main() {
    let w = workloads::by_name("3D_H_Q5").unwrap();
    println!(
        "workload {}: chain({}) join graph, {} error-prone join selectivities",
        w.name,
        w.query.num_relations(),
        w.d()
    );

    let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
    println!(
        "C_min {:.0}, C_max {:.0} (gradient {:.0}x), {} contours, ρ = {}",
        b.stats.cmin,
        b.stats.cmax,
        b.stats.cmax / b.stats.cmin,
        b.stats.num_contours,
        b.rho()
    );
    for c in &b.contours {
        println!(
            "  IC{:<2} budget {:>12.0}  {:>4} frontier points  plans {:?}",
            c.id,
            c.budget,
            c.points.len(),
            c.plan_set
                .iter()
                .map(|p| format!("P{p}"))
                .collect::<Vec<_>>()
        );
    }

    // Show the operator trees of the bouquet plans.
    println!("\nbouquet plans:");
    for pid in b.plan_ids() {
        println!("P{pid}:");
        for line in b.plan(pid).root.explain(&w.query, &w.catalog).lines() {
            println!("   {line}");
        }
    }

    // Discover a deep location with both drivers.
    let qa = w.ess.point_at_fractions(&[0.8, 0.75, 0.85]);
    println!(
        "\ntrue location qa = [{:.2e}, {:.2e}, {:.2e}]",
        qa[0], qa[1], qa[2]
    );
    for (label, run) in [
        ("basic", b.run_basic(&qa).unwrap()),
        ("optimized", b.run_optimized(&qa).unwrap()),
    ] {
        let opt = b.pic_cost(&qa);
        println!(
            "{label:>10}: {:>2} executions ({} partial), cost {:>12.0}, SubOpt {:.2}",
            run.trace.len(),
            run.num_partial_executions(),
            run.total_cost,
            run.suboptimality(opt)
        );
        if label == "optimized" {
            for e in &run.trace {
                let learned = e
                    .learned
                    .map(|(d, v)| format!("learned dim{d} -> {v:.2e}"))
                    .unwrap_or_default();
                println!(
                    "            IC{:<2} P{:<3} {:>12.0}/{:>12.0} {} {}",
                    e.contour,
                    e.plan,
                    e.spent,
                    e.budget,
                    if e.completed { "DONE" } else { "    " },
                    learned
                );
            }
        }
    }
    println!(
        "\nworst-case guarantee for every location in this space: {:.1}",
        b.mso_bound()
    );
}
