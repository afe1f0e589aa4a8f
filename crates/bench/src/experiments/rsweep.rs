//! Theorems 1 and 2: the isocost common ratio r.
//!
//! Theorem 1 bounds the 1D MSO by r²/(r−1), minimized at r = 2 (doubling);
//! Theorem 2 shows 4 is the best any deterministic algorithm can do. This
//! experiment sweeps r on the EQ workload and reports measured MSO against
//! the closed-form bound, plus the adversarial lower-bound simulation.

use std::fmt::Write as _;

use pb_bouquet::theory::{adversarial_mso, mso_bound_1d};
use pb_bouquet::{Bouquet, BouquetConfig};
use pb_workloads::by_name;

use crate::table::Table;

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Theorems 1 & 2 — choice of the isocost common ratio r\n\
         (bound r²/(r−1) is minimized at r=2 where it equals 4; no\n\
          deterministic online algorithm can guarantee below 4)\n"
    );
    let w = by_name("EQ_1D").expect("a registered space");
    let mut t = Table::new(vec![
        "r",
        "theoretical bound (1+λ)r²/(r−1)",
        "measured MSO (basic)",
        "within",
        "adversarial LB sim",
    ]);
    for r in [1.3, 1.5, 2.0, 3.0, 4.0] {
        let cfg = BouquetConfig {
            r,
            ..Default::default()
        };
        let b = Bouquet::identify(&w, &cfg).unwrap();
        let mut mso = 0.0f64;
        for li in 0..w.ess.num_points() {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let run = b.run_basic(&qa).unwrap();
            mso = mso.max(run.suboptimality(b.pic_cost_at(li)));
        }
        let bound = (1.0 + cfg.lambda) * mso_bound_1d(r);
        let budgets: Vec<f64> = (0..40).map(|k| r.powi(k)).collect();
        t.row(vec![
            format!("{r:.1}"),
            format!("{bound:.2}"),
            format!("{mso:.2}"),
            format!("{}", mso <= bound * (1.0 + 1e-9)),
            format!("{:.3}", adversarial_mso(&budgets)),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "the adversarial column shows every budget progression pays ≥ 4 in the\n\
         worst case, with doubling achieving exactly 4 — Theorem 2's optimum."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_r_within_its_bound_and_doubling_best() {
        let s = run();
        assert!(!s.contains(" false "), "some r violated its bound:\n{s}");
        // Extract measured MSO per r; r=2.0 should be the minimum.
        let mut msos = Vec::new();
        for line in s.lines() {
            let cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() >= 4 {
                if let (Ok(r), Ok(m)) = (cells[0].parse::<f64>(), cells[2].parse::<f64>()) {
                    msos.push((r, m));
                }
            }
        }
        assert!(msos.len() >= 5);
        let at2 = msos
            .iter()
            .find(|(r, _)| (*r - 2.0).abs() < 0.01)
            .unwrap()
            .1;
        let best = msos.iter().map(|&(_, m)| m).fold(f64::INFINITY, f64::min);
        // Theorem 1 is about the *guarantee*: the bound r²/(r−1) is uniquely
        // minimized at r = 2. The measured MSO on one finite workload can
        // dip below for other ratios (grid effects); doubling must still be
        // competitive with the empirical best.
        assert!(at2 <= best * 1.5, "doubling {at2} vs best {best}");
        for r in [1.3f64, 1.5, 3.0, 4.0] {
            assert!(
                mso_bound_1d(r) > mso_bound_1d(2.0),
                "bound must be uniquely minimized at r = 2"
            );
        }
    }
}
