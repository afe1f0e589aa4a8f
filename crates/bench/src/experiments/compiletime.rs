//! Section 6.1: compile-time overheads — the effort of the exhaustive build
//! that identification runs, in optimizer calls (one per grid point), POSP
//! plans, contours and bouquet plans. Wall-clock is not printed: the
//! exhibit is byte-for-byte the same on every run, and identification time
//! is `benchmark/`'s `compile` workload.

use std::fmt::Write as _;

use pb_bouquet::{Bouquet, BouquetConfig, CompileStats};
use pb_workloads::by_name;

use crate::table::Table;

/// The identification ladder the exhibit reports, 2D to 5D.
const RUNGS: [&str; 5] = ["2D_H_Q8A", "3D_H_Q5", "3D_DS_Q96", "4D_DS_Q7", "5D_DS_Q19"];

/// Each rung's compile statistics under the default configuration.
fn stats() -> Vec<(&'static str, CompileStats)> {
    RUNGS
        .iter()
        .map(|&name| {
            let w = by_name(name).unwrap();
            let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
            (name, b.stats)
        })
        .collect()
}

pub fn run() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section 6.1 — compile-time overheads of the exhaustive POSP build\n\
         (paper: contour-focused exploration plus embarrassing parallelism keeps\n\
          even 5D identification practical; ≤10 contours per query)\n\
         §4.2's contour-band recursion was measured against this sweep and removed (EXPERIMENTS.md §6.1)\n"
    );
    let mut t = Table::new(vec![
        "query",
        "optimizer calls (grid points)",
        "POSP plans",
        "contours",
        "bouquet plans",
    ]);
    for (name, s) in stats() {
        t.row(vec![
            name.to_string(),
            s.exhaustive_optimizer_calls.to_string(),
            s.posp_cardinality.to_string(),
            s.num_contours.to_string(),
            s.bouquet_cardinality.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Section 6.1's "≤ 10 contours per query", and a bouquet never larger
    /// than the POSP it is drawn from, on every rung.
    #[test]
    fn every_rung_has_at_most_ten_contours_and_a_bouquet_within_its_posp() {
        for (name, s) in stats() {
            let w = by_name(name).unwrap();
            assert_eq!(s.exhaustive_optimizer_calls, w.ess.num_points(), "{name}");
            assert!(
                (1..=10).contains(&s.num_contours),
                "{name}: {} contours",
                s.num_contours
            );
            assert!(
                s.bouquet_cardinality <= s.posp_cardinality,
                "{name}: {} bouquet plans, {} POSP plans",
                s.bouquet_cardinality,
                s.posp_cardinality
            );
        }
    }
}
