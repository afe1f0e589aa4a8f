//! Figure 19: the commercial-engine ("COM") validation of Section 6.8.
//!
//! COM's API cannot inject join selectivities, so the paper's COM queries
//! use selection-predicate dimensions only (settable by changing query
//! constants). We reproduce both properties: the error dimensions of
//! `3D_H_Q5B` / `4D_H_Q8B` are base-relation selections, and the costing is
//! done by the commercial cost-model personality.

use std::fmt::Write as _;

use pb_bouquet::eval::evaluate;
use pb_workloads::by_name;

use crate::table::{fnum, Table};

pub fn fig19() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 19 — commercial engine personality (Section 6.8)\n\
         (paper shape: NAT and SEER still suffer large MSO/ASO; BOU provides\n\
          order-of-magnitude improvements with a small bouquet and MH < 0 or tiny)\n"
    );
    let mut t = Table::new(vec![
        "query",
        "metric",
        "NAT",
        "SEER",
        "PARQO",
        "BOU basic",
        "BOU opt",
    ]);
    for w in ["3D_H_Q5B", "4D_H_Q8B"].map(|n| by_name(n).expect("a registered space")) {
        let ev = evaluate(&w).expect("evaluate");
        t.row(vec![
            ev.name.clone(),
            "MSO".into(),
            fnum(ev.nat.mso),
            fnum(ev.seer.mso),
            fnum(ev.parqo.mso),
            format!("{:.1}", ev.bou_basic.mso),
            format!("{:.1}", ev.bou_opt.mso),
        ]);
        t.row(vec![
            ev.name.clone(),
            "ASO".into(),
            fnum(ev.nat.aso),
            fnum(ev.seer.aso),
            fnum(ev.parqo.aso),
            format!("{:.2}", ev.bou_basic.aso),
            format!("{:.2}", ev.bou_opt.aso),
        ]);
        t.row(vec![
            ev.name.clone(),
            "MH".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.2}", ev.bou_basic_harm.max_harm),
            format!("{:.2}", ev.bou_opt_harm.max_harm),
        ]);
        t.row(vec![
            ev.name.clone(),
            "plans".into(),
            format!("{}", ev.posp_cardinality),
            format!("{}", ev.seer_cardinality),
            format!("{}", ev.parqo_cardinality),
            format!("{}", ev.bouquet_cardinality),
            format!("{}", ev.bouquet_cardinality),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "=> the robustness shape is not an artifact of one engine personality."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_bouquet::{Bouquet, BouquetConfig};

    #[test]
    fn com_bouquets_respect_bounds_and_beat_nat() {
        for w in ["3D_H_Q5B", "4D_H_Q8B"].map(|n| by_name(n).expect("a registered space")) {
            let ev = evaluate(&w).expect("evaluate");
            let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
            assert!(
                ev.bou_basic.mso <= b.mso_bound() * (1.0 + 1e-9),
                "{}",
                w.name
            );
            assert!(ev.nat.mso > 10.0 * ev.bou_basic.mso, "{}", w.name);
        }
    }

    #[test]
    fn fig19_renders() {
        let s = fig19();
        assert!(s.contains("3D_H_Q5B"));
        assert!(s.contains("4D_H_Q8B"));
    }
}
