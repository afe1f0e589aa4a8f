//! Full robustness report for one benchmark error space: MSO / ASO /
//! MaxHarm for the native optimizer, SEER and both bouquet drivers — the
//! per-query slice of the paper's Figures 14–18.
//!
//! ```sh
//! cargo run --release --example robustness_report [WORKLOAD]
//! ```
//!
//! `WORKLOAD` defaults to `3D_DS_Q96`; try `5D_DS_Q19` for the flagship.

use plan_bouquet::bouquet::eval::evaluate;
use plan_bouquet::workloads;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "3D_DS_Q96".into());
    let Some(w) = workloads::by_name(&name) else {
        eprintln!("unknown workload {name}; available:");
        for s in workloads::specs() {
            eprintln!("  {}", s.name);
        }
        std::process::exit(1);
    };

    println!(
        "evaluating {name} over {} grid locations ...",
        w.ess.num_points()
    );
    let ev = evaluate(&w).expect("evaluate");

    println!("\ncost gradient C_max/C_min: {:.0}", ev.cmax / ev.cmin);
    println!("isocost contours: {}", ev.num_contours);
    println!(
        "plan cardinalities: POSP {}, SEER {}, bouquet {}",
        ev.posp_cardinality, ev.seer_cardinality, ev.bouquet_cardinality
    );

    println!("\n              MSO          ASO");
    println!("NAT     {:>10.1}   {:>10.2}", ev.nat.mso, ev.nat.aso);
    println!("SEER    {:>10.1}   {:>10.2}", ev.seer.mso, ev.seer.aso);
    println!(
        "BOU     {:>10.1}   {:>10.2}   (guarantee {:.1})",
        ev.bou_basic.mso, ev.bou_basic.aso, ev.guarantees.bound_anorexic
    );
    println!(
        "BOU-opt {:>10.1}   {:>10.2}",
        ev.bou_opt.mso, ev.bou_opt.aso
    );

    println!(
        "\nMaxHarm: {:.2} (harm at {:.2}% of locations)",
        ev.bou_basic_harm.max_harm,
        ev.bou_basic_harm.harm_fraction * 100.0
    );

    println!("\nrobustness-enhancement distribution (Figure 16 style):");
    for (label, frac) in &ev.distribution.buckets {
        let bar = "#".repeat((frac * 50.0).round() as usize);
        println!("  {label:<12} {:>5.1}% {bar}", frac * 100.0);
    }

    println!(
        "\nTable 1 row: ρ_posp={} bound={:.1}  →  ρ_anorexic={} bound={:.1}",
        ev.guarantees.rho_posp,
        ev.guarantees.bound_posp,
        ev.guarantees.rho_anorexic,
        ev.guarantees.bound_anorexic
    );
}
