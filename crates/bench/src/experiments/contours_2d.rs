//! 2D geometry exhibits: Figure 6 (contours and coverage regions) and
//! Figure 12 (the optimized driver's Manhattan discovery walk).

use std::fmt::Write as _;

use pb_bouquet::{Bouquet, BouquetConfig};
use pb_workloads::h_q8a_2d;

use crate::table::fnum;

fn bouquet_2d() -> (pb_bouquet::Workload, Bouquet) {
    let w = h_q8a_2d(1.0);
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    (w, b)
}

/// Figure 6: isocost contours in a 2D ESS; for a mid contour, the per-plan
/// coverage regions (every plan covers a unique sliver — the reason all
/// contour plans may need to execute).
pub fn fig6() -> String {
    let (w, b) = bouquet_2d();
    let ess = &w.ess;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6 — 2D isocost contours of {} and per-plan coverage\n",
        w.name
    );
    let _ = writeln!(out, "contours (budget | #frontier points | plans):");
    for c in &b.contours {
        let _ = writeln!(
            out,
            "  IC{:<2} {:>10} | {:>3} pts | {:?}",
            c.id,
            fnum(c.step_cost),
            c.points.len(),
            c.plan_set
                .iter()
                .map(|p| format!("P{}", p + 1))
                .collect::<Vec<_>>()
        );
    }
    // Pick the densest contour for the coverage exhibit.
    let k = b
        .contours
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.density())
        .map(|(i, _)| i)
        .unwrap();
    let c = &b.contours[k];
    let cov = c.coverage(|p| b.cost_row(p).expect("a contour plan is a bouquet plan"));
    let _ = writeln!(
        out,
        "\ncoverage within IC{} (budget {}):",
        c.id,
        fnum(c.budget)
    );
    let inside: Vec<usize> = (0..ess.num_points())
        .filter(|&li| b.diagram.opt_cost[li] <= c.step_cost)
        .collect();
    for (p, pts) in &cov {
        // Points this plan alone covers (the hashed regions of Fig 6b).
        let unique = inside
            .iter()
            .filter(|&&li| {
                pts.contains(&li)
                    && cov
                        .iter()
                        .filter(|(q, _)| q != p)
                        .all(|(_, other)| !other.contains(&li))
            })
            .count();
        let covered_inside = inside.iter().filter(|&&li| pts.contains(&li)).count();
        let _ = writeln!(
            out,
            "  P{:<3} covers {:>4}/{} interior points, {:>3} exclusively",
            p + 1,
            covered_inside,
            inside.len(),
            unique
        );
    }
    let all_covered = inside
        .iter()
        .all(|&li| cov.iter().any(|(_, pts)| pts.contains(&li)));
    let _ = writeln!(
        out,
        "every interior point covered by some contour plan: {all_covered}"
    );
    out
}

/// Figure 12: the optimized driver's qrun trajectory — spill-focused
/// single-dimension learning yields a Manhattan profile from the origin to
/// qa, with early contour changes once the PIC at qrun crosses the budget.
pub fn fig12() -> String {
    let (w, b) = bouquet_2d();
    let ess = &w.ess;
    let qa = ess.point_at_fractions(&[0.85, 0.8]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 12 — optimized-driver discovery walk on {} (qa = [{:.3e}, {:.3e}])\n",
        w.name, qa[0], qa[1]
    );
    let run = b.run_optimized(&qa).unwrap();
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>12} {:>12} {:>7} {:>5}  learned",
        "exec", "IC", "budget", "spent", "spill", "done"
    );
    for (i, e) in run.trace.iter().enumerate() {
        let learned = e
            .learned
            .map(|(d, v)| format!("dim{} -> {:.3e}", d, v))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>12} {:>12} {:>7} {:>5}  {}",
            i + 1,
            format!("IC{}", e.contour),
            fnum(e.budget),
            fnum(e.spent),
            if e.spilled { "yes" } else { "no" },
            if e.completed { "yes" } else { "no" },
            learned
        );
    }
    let opt = b.pic_cost(&qa);
    let _ = writeln!(
        out,
        "\ntotal cost {} vs optimal {} -> SubOpt(∗,qa) = {:.2} (bound {:.1})",
        fnum(run.total_cost),
        fnum(opt),
        run.suboptimality(opt),
        b.mso_bound()
    );
    let basic = b.run_basic(&qa).unwrap();
    let _ = writeln!(
        out,
        "basic driver at the same qa: {} executions, cost {} (SubOpt {:.2})",
        basic.trace.len(),
        fnum(basic.total_cost),
        basic.suboptimality(opt)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_reports_contours_and_full_coverage() {
        let s = fig6();
        assert!(s.contains("IC1"));
        assert!(s.contains("every interior point covered by some contour plan: true"));
    }

    #[test]
    fn fig12_walk_completes_within_bound() {
        let s = fig12();
        assert!(s.contains("SubOpt(∗,qa)"));
        assert!(s.contains("yes"), "the walk should complete");
    }
}
