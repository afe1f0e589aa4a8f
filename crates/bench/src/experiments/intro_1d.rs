//! The paper's 1D introduction (Figures 2–5) on the EQ query.

use std::fmt::Write as _;

use pb_bouquet::{Bouquet, BouquetConfig};
use pb_workloads::by_name;

use crate::table::{fnum, Table};

/// Figure 2: POSP plans on the p_retailprice dimension with the selectivity
/// range over which each is optimal.
pub fn fig2() -> String {
    let w = by_name("EQ_1D").expect("a registered space");
    let d = w.diagram();
    let ess = &w.ess;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2 — POSP plans of EQ on the p_retailprice dimension\n\
         (paper: 5 plans P1..P5 mixing NL/MJ/HJ; ranges are optimality intervals)\n"
    );
    // Walk the 1D grid and report contiguous optimality ranges.
    let mut t = Table::new(vec!["plan", "optimal range (selectivity)", "operator tree"]);
    let mut start = 0usize;
    for li in 1..=ess.num_points() {
        if li == ess.num_points() || d.optimal[li] != d.optimal[start] {
            let pid = d.optimal[start] as usize;
            let lo = ess.sel_at(0, start);
            let hi = ess.sel_at(0, li - 1);
            let tree = d.plans[pid]
                .root
                .explain(&w.query, &w.catalog)
                .trim_end()
                .replace('\n', " | ");
            t.row(vec![
                format!("P{}", pid + 1),
                format!("({:.4}%, {:.4}%]", lo * 100.0, hi * 100.0),
                tree,
            ]);
            start = li;
        }
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "distinct POSP plans: {}", d.plan_count());
    out
}

/// Figure 3: the PIC discretized by doubling isocost steps; the intersection
/// selectivities and associated plans form the bouquet.
pub fn fig3() -> String {
    let w = by_name("EQ_1D").expect("a registered space");
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let ess = &w.ess;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3 — PIC of EQ discretized with doubling isocost steps\n\
         (paper: 7 steps IC1..IC7, bouquet {{P1,P2,P3,P5}})\n"
    );
    let mut t = Table::new(vec![
        "step",
        "cost(IC_k)",
        "sel at PIC∩IC_k",
        "bouquet plan",
    ]);
    for c in &b.contours {
        let li = c.points[0];
        t.row(vec![
            format!("IC{}", c.id),
            fnum(c.step_cost),
            format!("{:.4}%", ess.sel_at(0, ess.unlinear(li)[0]) * 100.0),
            format!("P{}", c.assignment[0] + 1),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let bouquet: Vec<String> = b.plan_ids().iter().map(|p| format!("P{}", p + 1)).collect();
    let _ = writeln!(
        out,
        "bouquet = {{{}}}  (|bouquet| = {}, POSP = {})",
        bouquet.join(", "),
        b.stats.bouquet_cardinality,
        b.stats.posp_cardinality
    );
    let (cmin, cmax) = (b.stats.cmin, b.stats.cmax);
    let _ = writeln!(
        out,
        "C_min = {}  C_max = {}  (ratio {:.1})",
        fnum(cmin),
        fnum(cmax),
        cmax / cmin
    );
    out
}

/// Figure 4: bouquet runtime profile vs the native optimizer's worst-case
/// profile; the headline MSO/ASO comparison of the introduction.
pub fn fig4() -> String {
    let w = by_name("EQ_1D").expect("a registered space");
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let ess = &w.ess;
    let n = ess.num_points();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4 — bouquet performance profile on EQ (log-log in the paper)\n\
         (paper: basic bouquet MSO 3.6 / ASO 2.4; optimized 3.1 / 1.7;\n\
          native optimizer worst-case suboptimality ~100, ASO 1.8)\n"
    );
    // Native worst-case profile: max over POSP plans of c_P(qa)/PIC(qa).
    let posp_costs = b.diagram.cost_matrix(&w.catalog, &w.query, &w.model);
    let mut nat_worst = vec![0.0f64; n];
    for li in 0..n {
        let mut worst = 1.0f64;
        for row in posp_costs.rows() {
            worst = worst.max(row[li] / b.diagram.opt_cost[li]);
        }
        nat_worst[li] = worst;
    }
    let mut basic = Vec::with_capacity(n);
    let mut optd = Vec::with_capacity(n);
    for li in 0..n {
        let qa = ess.point(&ess.unlinear(li));
        basic.push(
            b.run_basic(&qa)
                .expect("run")
                .suboptimality(b.diagram.opt_cost[li]),
        );
        optd.push(
            b.run_optimized(&qa)
                .expect("run")
                .suboptimality(b.diagram.opt_cost[li]),
        );
    }
    let mut t = Table::new(vec![
        "sel%",
        "PIC cost",
        "NAT worst",
        "BOU basic",
        "BOU optimized",
    ]);
    for li in (0..n).step_by(n / 16) {
        t.row(vec![
            format!("{:.4}", ess.sel_at(0, li) * 100.0),
            fnum(b.diagram.opt_cost[li]),
            format!("{:.2}", nat_worst[li]),
            format!("{:.2}", basic[li]),
            format!("{:.2}", optd[li]),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let stats = |v: &[f64]| {
        (
            v.iter().cloned().fold(0.0f64, f64::max),
            v.iter().sum::<f64>() / v.len() as f64,
        )
    };
    let (nat_mso, nat_aso) = stats(&nat_worst);
    let (bas_mso, bas_aso) = stats(&basic);
    let (opt_mso, opt_aso) = stats(&optd);
    let _ = writeln!(out, "NAT:        MSO = {nat_mso:8.2}  ASO = {nat_aso:5.2}");
    let _ = writeln!(out, "BOU basic:  MSO = {bas_mso:8.2}  ASO = {bas_aso:5.2}");
    let _ = writeln!(out, "BOU optim.: MSO = {opt_mso:8.2}  ASO = {opt_aso:5.2}");
    let _ = writeln!(
        out,
        "Theorem 1 bound (r=2, λ=0.2): {:.2}  — both drivers within bound: {}",
        b.mso_bound(),
        bas_mso <= b.mso_bound() && opt_mso <= b.mso_bound()
    );
    out
}

/// Figure 5: the 1D grading construction with its boundary conditions.
pub fn fig5() -> String {
    let w = by_name("EQ_1D").expect("a registered space");
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5 — isocost grading construction (a/r < C_min ≤ IC1, IC_m = C_max)\n"
    );
    let _ = writeln!(
        out,
        "C_min = {}, C_max = {}, r = {}, m = {}",
        fnum(b.stats.cmin),
        fnum(b.stats.cmax),
        b.grading.r,
        b.grading.len()
    );
    for (k, s) in b.grading.steps.iter().enumerate() {
        let _ = writeln!(out, "  IC{:<2} = {}", k + 1, fnum(*s));
    }
    let ok1 =
        b.grading.budget(0) >= b.stats.cmin && b.grading.budget(0) / b.grading.r < b.stats.cmin;
    let okm = (b.grading.budget(b.grading.len() - 1) - b.stats.cmax).abs() < 1e-9 * b.stats.cmax;
    let _ = writeln!(out, "boundary conditions hold: IC1 {}  ICm {}", ok1, okm);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reports_multiple_plans_with_ranges() {
        let s = fig2();
        assert!(s.contains("P1"));
        assert!(s.contains("distinct POSP plans"));
        // The paper's EQ has ~5 POSP plans; ours must have at least 3.
        let n: usize = s
            .lines()
            .last()
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(n >= 3, "too few POSP plans: {n}");
    }

    #[test]
    fn fig3_bouquet_is_posp_subset() {
        let s = fig3();
        assert!(s.contains("bouquet = {"));
        assert!(s.contains("IC1"));
    }

    #[test]
    fn fig4_bouquet_beats_nat_worst_case() {
        let s = fig4();
        // Parse the MSO numbers back out.
        let grab = |tag: &str| -> f64 {
            let line = s.lines().find(|l| l.starts_with(tag)).unwrap();
            line.split("MSO =")
                .nth(1)
                .unwrap()
                .split("ASO")
                .next()
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        let nat = grab("NAT:");
        let bas = grab("BOU basic:");
        let opt = grab("BOU optim.:");
        assert!(nat > bas, "NAT {nat} should exceed basic bouquet {bas}");
        assert!(bas <= 4.8 + 1e-9, "basic bouquet must respect the bound");
        assert!(opt <= 4.8 + 1e-9);
    }

    #[test]
    fn fig5_boundary_conditions() {
        let s = fig5();
        assert!(s.contains("boundary conditions hold: IC1 true  ICm true"));
    }
}
