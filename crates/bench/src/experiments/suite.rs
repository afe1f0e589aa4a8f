//! The benchmark-suite exhibits: Table 1, Table 2, Figures 14–18.
//!
//! The ten error spaces are evaluated once and cached; every exhibit then
//! renders its view of the shared results.

use std::fmt::Write as _;
use std::sync::OnceLock;

use pb_bouquet::eval::{evaluate, WorkloadEvaluation};
use pb_workloads::{benchmark_suite, specs};

use crate::table::{fnum, Table};

static EVALS: OnceLock<Vec<WorkloadEvaluation>> = OnceLock::new();

/// Evaluate (once) the full Table 2 suite.
pub fn suite_evaluations() -> &'static [WorkloadEvaluation] {
    EVALS.get_or_init(|| {
        benchmark_suite()
            .iter()
            .map(|w| evaluate(w).expect("evaluate"))
            .collect()
    })
}

/// Table 2: workload specifications (join-graph geometry and cost gradient).
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2 — query workload specifications\n\
         (C_max/C_min measured on our cost substrate; paper values for reference)\n"
    );
    let mut t = Table::new(vec![
        "query",
        "join-graph (#relations)",
        "dims",
        "Cmax/Cmin (ours)",
        "Cmax/Cmin (paper)",
    ]);
    for (ev, spec) in suite_evaluations().iter().zip(specs()) {
        t.row(vec![
            ev.name.clone(),
            format!("{:?}({})", spec.shape, spec.relations).to_lowercase(),
            format!("{}", ev.dims),
            format!("{:.0}", ev.cmax / ev.cmin),
            format!("{:.0}", spec.paper_cost_ratio),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Table 1: MSO guarantees, POSP versus anorexic reduction.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — performance guarantees (Equation 8), POSP vs anorexic λ=20%\n\
         (paper shape: anorexic reduction shrinks ρ by ~an order of magnitude,\n\
          e.g. 5D_DS_Q19: ρ 159→8, bound 379→30.4)\n"
    );
    let mut t = Table::new(vec![
        "error space",
        "ρ POSP",
        "MSO bound (POSP)",
        "ρ anorexic",
        "MSO bound (anorexic)",
    ]);
    for ev in suite_evaluations() {
        let g = &ev.guarantees;
        t.row(vec![
            ev.name.clone(),
            format!("{}", g.rho_posp),
            format!("{:.1}", g.bound_posp),
            format!("{}", g.rho_anorexic),
            format!("{:.1}", g.bound_anorexic),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Figure 14: worst-case sub-optimality (MSO), NAT vs SEER vs BOU.
pub fn fig14() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 14 — MSO (log scale in the paper)\n\
         (paper shape: NAT 10^3..10^7, SEER similar to NAT;\n\
          flagship 5D_DS_Q19: 10^6 -> ~10. Here every BOU MSO is within\n\
          its row's Eq. 8 bound)\n"
    );
    let mut t = Table::new(vec![
        "query",
        "NAT",
        "SEER",
        "PARQO",
        "BOU basic",
        "BOU opt",
        "bound",
    ]);
    for ev in suite_evaluations() {
        t.row(vec![
            ev.name.clone(),
            fnum(ev.nat.mso),
            fnum(ev.seer.mso),
            fnum(ev.parqo.mso),
            format!("{:.1}", ev.bou_basic.mso),
            format!("{:.1}", ev.bou_opt.mso),
            format!("{:.1}", ev.guarantees.bound_anorexic),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Figure 15: average-case sub-optimality (ASO).
pub fn fig15() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 15 — ASO (log scale in the paper)\n\
         (paper shape: BOU comparable or better than NAT, typically < 4 absolute;\n\
          SEER again similar to NAT)\n"
    );
    let mut t = Table::new(vec![
        "query",
        "NAT",
        "SEER",
        "PARQO",
        "BOU basic",
        "BOU opt",
    ]);
    for ev in suite_evaluations() {
        t.row(vec![
            ev.name.clone(),
            fnum(ev.nat.aso),
            fnum(ev.seer.aso),
            fnum(ev.parqo.aso),
            format!("{:.2}", ev.bou_basic.aso),
            format!("{:.2}", ev.bou_opt.aso),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Figure 16: spatial distribution of robustness enhancement for 5D_DS_Q19.
pub fn fig16() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 16 — distribution of enhanced robustness, 5D_DS_Q19\n\
         (paper shape: ~90% of locations improve by two or more orders of magnitude)\n"
    );
    let ev = suite_evaluations()
        .iter()
        .find(|e| e.name == "5D_DS_Q19")
        .expect("flagship query in suite");
    let mut t = Table::new(vec![
        "improvement factor (NAT worst / BOU)",
        "% of ESS locations",
    ]);
    for (label, frac) in &ev.distribution.buckets {
        t.row(vec![label.clone(), format!("{:.1}", frac * 100.0)]);
    }
    let _ = writeln!(out, "{}", t.render());
    let ge100: f64 = ev
        .distribution
        .buckets
        .iter()
        .filter(|(l, _)| l.contains("100") || l.contains("1000"))
        .map(|(_, f)| f)
        .sum();
    let _ = writeln!(
        out,
        ">= two orders of magnitude improvement: {:.1}%",
        ge100 * 100.0
    );
    out
}

/// Figure 17: MaxHarm.
pub fn fig17() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 17 — MaxHarm (linear scale)\n\
         (paper shape: BOU can be up to ~4x worse than NAT's worst case, but\n\
          harm occurs at under 1% of locations; SEER's harm is bounded by λ)\n"
    );
    let mut t = Table::new(vec![
        "query",
        "MH (basic)",
        "harmed locations %",
        "MH (opt)",
    ]);
    for ev in suite_evaluations() {
        t.row(vec![
            ev.name.clone(),
            format!("{:.2}", ev.bou_basic_harm.max_harm),
            format!("{:.2}", ev.bou_basic_harm.harm_fraction * 100.0),
            format!("{:.2}", ev.bou_opt_harm.max_harm),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

/// Figure 18: plan cardinalities — POSP vs SEER vs bouquet.
pub fn fig18() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 18 — plan cardinalities (log scale in the paper)\n\
         (paper shape: POSP tens-to-hundreds, SEER lower, BOU ~10 or fewer,\n\
          roughly independent of dimensionality)\n"
    );
    let mut t = Table::new(vec!["query", "POSP", "SEER", "bouquet", "ρ", "contours"]);
    for ev in suite_evaluations() {
        t.row(vec![
            ev.name.clone(),
            format!("{}", ev.posp_cardinality),
            format!("{}", ev.seer_cardinality),
            format!("{}", ev.bouquet_cardinality),
            format!("{}", ev.guarantees.rho_anorexic),
            format!("{}", ev.num_contours),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One heavyweight test validating every suite exhibit's headline shape
    /// (the evaluations are cached, so this costs one pass over the suite).
    #[test]
    fn suite_reproduces_paper_shapes() {
        let evals = suite_evaluations();
        assert_eq!(evals.len(), 10);
        for ev in evals {
            // Figure 14 shape: NAT's MSO is orders of magnitude above BOU's.
            assert!(
                ev.nat.mso > 50.0 * ev.bou_basic.mso.min(10.0),
                "{}: NAT {} vs BOU {}",
                ev.name,
                ev.nat.mso,
                ev.bou_basic.mso
            );
            // SEER does not materially improve MSO (within 1 order of NAT).
            assert!(ev.seer.mso > ev.nat.mso / 30.0, "{}", ev.name);
            // BOU respects its guarantee under both drivers (Figure 14's
            // header says so).
            let bou = ev.bou_basic.mso.max(ev.bou_opt.mso);
            assert!(
                bou <= ev.guarantees.bound_anorexic * (1.0 + 1e-9),
                "{}: {} > {}",
                ev.name,
                bou,
                ev.guarantees.bound_anorexic
            );
            // Bouquet cardinality stays small (paper: ~10 or fewer).
            assert!(ev.bouquet_cardinality <= 25, "{}", ev.name);
            // Table 1 shape: anorexic bound no worse than POSP bound.
            assert!(ev.guarantees.rho_anorexic <= ev.guarantees.rho_posp);
        }
        // Paper headline: BOU ASO typically within 4x of the PIC — allow a
        // little slack and require it for at least 7 of 10 queries.
        let small_aso = evals.iter().filter(|e| e.bou_basic.aso <= 6.0).count();
        assert!(small_aso >= 7, "only {small_aso} queries with small ASO");
    }

    #[test]
    fn exhibits_render() {
        for f in [table1, table2, fig14, fig15, fig16, fig17, fig18] {
            let s = f();
            assert!(s.lines().count() > 5);
        }
    }
}
