//! The full POSP × grid matrix is the oracle for the identification that
//! never builds it.
//!
//! `Bouquet::identify*` costs every POSP plan at the contour frontiers only
//! and keeps cost rows for the bouquet's plans only. The path it replaced —
//! recost every plan everywhere, then `Contour::build_all` with one frontier
//! scan per isocost step — is still callable, so for every registry space,
//! both hostile spaces and two dozen random FK-tree draws this recomputes
//! grading, contours and `CompileStats` that way and demands the shipped
//! result equal it, and every kept cost row equal the full matrix's row for
//! that plan bit for bit.
//!
//! Grid resolutions are shrunk as in `diagram_golden.rs`.

use plan_bouquet::bouquet::contour::rho;
use plan_bouquet::bouquet::{persist, Workload};
use plan_bouquet::bouquet::{Bouquet, BouquetConfig, CompileStats, Contour, IsoCostGrading};
use plan_bouquet::cost::{Ess, Parallelism};
use plan_bouquet::workloads::{self, RandomConfig};

/// Per-dimension resolution giving a few hundred grid points at any `d`.
fn shrunk(ess: &Ess) -> Ess {
    let res = match ess.d() {
        1 => 64,
        2 => 16,
        3 => 6,
        4 => 4,
        _ => 3,
    };
    Ess::uniform(ess.dims.clone(), res)
}

/// Every registry space a bouquet exists for (`ANTI_2D` is the raw,
/// PCM-violating axis that identification refuses), plus random draws.
fn spaces() -> Vec<Workload> {
    let mut ws = workloads::benchmark_suite();
    for name in [
        "EQ_1D",
        "2D_H_Q8A",
        "3D_H_Q5B",
        "4D_H_Q8B",
        "HOSTILE_INEQ_2D",
        "HOSTILE_ANTI_2D",
    ] {
        ws.push(workloads::by_name(name).unwrap());
    }
    for (relations, dims) in [(3, 2), (5, 2), (5, 3), (7, 3)] {
        for seed in 0..6 {
            let mut w = workloads::random_workload(&RandomConfig {
                relations,
                dims,
                seed: 1000 * relations as u64 + 10 * dims as u64 + seed,
                ..Default::default()
            });
            w.name = format!("RANDOM_{relations}R_{dims}D_{seed}");
            ws.push(w);
        }
    }
    for w in &mut ws {
        w.ess = shrunk(&w.ess);
    }
    ws
}

/// Everything identification derives from `b.diagram`, re-derived through
/// the full matrix and compared with what `b` holds.
fn assert_matches_full_matrix_oracle(b: &Bouquet) {
    let (w, d, name) = (&b.workload, &b.diagram, &b.workload.name);
    let full = d.cost_matrix_with(&w.catalog, &w.query, &w.model, Parallelism::serial());
    let (cmin, cmax) = d.cost_bounds();
    let grading = IsoCostGrading::geometric(cmin, cmax, b.config.r);
    let contours = Contour::build_all(d, &grading, &full, b.config.lambda);

    assert_eq!(b.grading, grading, "{name}: grading");
    assert_eq!(b.contours.len(), contours.len(), "{name}: contour count");
    for (got, want) in b.contours.iter().zip(&contours) {
        let at = format!("{name}: contour {}", want.id);
        assert_eq!(got.id, want.id, "{at}");
        assert_eq!(got.step_cost.to_bits(), want.step_cost.to_bits(), "{at}");
        assert_eq!(got.budget.to_bits(), want.budget.to_bits(), "{at}");
        assert_eq!(got.points, want.points, "{at}: points");
        assert_eq!(got.assignment, want.assignment, "{at}: assignment");
        assert_eq!(got.plan_set, want.plan_set, "{at}: plan_set");
    }

    let rho_posp = contours
        .iter()
        .map(|c| {
            let mut plans: Vec<u32> = c.points.iter().map(|&li| d.optimal[li]).collect();
            plans.sort_unstable();
            plans.dedup();
            plans.len()
        })
        .max()
        .unwrap();
    let bouquet_plans = b.plan_ids();
    let stats = CompileStats {
        exhaustive_optimizer_calls: b.stats.exhaustive_optimizer_calls,
        posp_cardinality: d.plan_count(),
        bouquet_cardinality: bouquet_plans.len(),
        rho_posp,
        rho: rho(&contours),
        num_contours: contours.len(),
        cmin,
        cmax,
    };
    assert_eq!(b.stats, stats, "{name}: stats");

    assert_eq!(b.costs.len(), bouquet_plans.len(), "{name}: kept rows");
    for (k, &p) in bouquet_plans.iter().enumerate() {
        let (got, want) = (b.costs.row(k), full.row(p));
        assert_eq!(b.cost_row(p), Some(got), "{name}: lookup of plan {p}");
        assert!(
            got.iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && got.len() == want.len(),
            "{name}: row {k} is not plan {p}'s row of the full matrix"
        );
    }
    let dropped = (0..d.plan_count()).find(|p| !bouquet_plans.contains(p));
    assert!(dropped.is_none_or(|p| b.cost_row(p).is_none()));
}

#[test]
fn identification_equals_the_full_matrix_oracle_on_every_space() {
    let cfg = BouquetConfig::default();
    let ws = spaces();
    assert!(ws.len() >= 10 + 6 + 20);
    let mut kept_fewer = 0;
    for w in &ws {
        let serial = Bouquet::identify_with(w, &cfg, Parallelism::serial()).unwrap();
        assert_eq!(serial.stats.exhaustive_optimizer_calls, w.ess.num_points());
        assert_matches_full_matrix_oracle(&serial);
        kept_fewer += usize::from(serial.costs.len() < serial.diagram.plan_count());
        let fanned = Bouquet::identify_with(w, &cfg, Parallelism::new(3)).unwrap();
        assert_eq!(
            persist::to_json(&serial).unwrap(),
            persist::to_json(&fanned).unwrap(),
            "{}: worker count changed the artefact",
            w.name
        );
    }
    // The comparison is not vacuous: most bouquets drop POSP plans.
    assert!(kept_fewer * 2 > ws.len(), "{kept_fewer} of {}", ws.len());
}
