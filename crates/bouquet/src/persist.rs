//! Bouquet persistence — the "canned queries" deployment path.
//!
//! The paper observes (Section 4.2) that user queries are often submitted
//! through form-based interfaces, making it feasible to precompute bouquets
//! offline. This module serializes a compiled [`Bouquet`] — workload,
//! diagram, contours, budgets and all — so identification can run once (on
//! a build server, say) and the run-time drivers can load the artifact
//! instantly. Plan fingerprints are recomputed on load, so artifacts remain
//! valid across toolchain changes.

use std::io::{Read, Write};
use std::path::Path;

use pb_faults::PbError;

use crate::bouquet::Bouquet;

/// Serialize a bouquet to JSON.
pub fn to_json(bouquet: &Bouquet) -> Result<String, PbError> {
    serde_json::to_string(bouquet).map_err(|e| PbError::Internal(format!("serialize bouquet: {e}")))
}

/// Deserialize a bouquet from JSON, re-validating its internal consistency.
pub fn from_json(json: &str) -> Result<Bouquet, PbError> {
    let corrupt = |message: String| PbError::Corrupt {
        path: "<inline>".into(),
        message,
    };
    let b: Bouquet =
        serde_json::from_str(json).map_err(|e| corrupt(format!("parse bouquet: {e}")))?;
    validate_structure(&b).map_err(corrupt)?;
    Ok(b)
}

/// Write a bouquet to a file.
pub fn save(bouquet: &Bouquet, path: impl AsRef<Path>) -> Result<(), PbError> {
    let json = to_json(bouquet)?;
    let io_err = |e: std::io::Error| PbError::Io {
        path: path.as_ref().display().to_string(),
        message: e.to_string(),
    };
    let mut f = std::fs::File::create(path.as_ref()).map_err(io_err)?;
    f.write_all(json.as_bytes()).map_err(io_err)
}

/// Load a bouquet from a file (truncated or corrupted artifacts surface as
/// [`PbError::Corrupt`] carrying the file path).
pub fn load(path: impl AsRef<Path>) -> Result<Bouquet, PbError> {
    let io_err = |e: std::io::Error| PbError::Io {
        path: path.as_ref().display().to_string(),
        message: e.to_string(),
    };
    let mut json = String::new();
    std::fs::File::open(path.as_ref())
        .map_err(io_err)?
        .read_to_string(&mut json)
        .map_err(io_err)?;
    from_json(&json).map_err(|e| match e {
        PbError::Corrupt { message, .. } => PbError::Corrupt {
            path: path.as_ref().display().to_string(),
            message,
        },
        other => other,
    })
}

/// Structural validation of a (possibly externally-produced) artifact —
/// shared with the binary cache layer, which revalidates decoded entries
/// the same way.
pub(crate) fn validate_structure(b: &Bouquet) -> Result<(), String> {
    let n = b.workload.ess.num_points();
    if b.diagram.optimal.len() != n || b.diagram.opt_cost.len() != n {
        return Err("diagram size disagrees with ESS".into());
    }
    // One cost row per bouquet plan, in `plan_ids()` order, over the grid.
    if b.costs.len() != b.plan_ids().len() {
        return Err("cost matrix row count disagrees with the bouquet's plan count".into());
    }
    if b.costs.len() > 0 && b.costs.num_points() != n {
        return Err("cost matrix column count disagrees with grid".into());
    }
    if b.contours.len() != b.grading.len() {
        return Err("contour count disagrees with grading".into());
    }
    // The contour schedule is what discovery runs; there is no empty one.
    if b.contours.is_empty() {
        return Err("bouquet has no contours".into());
    }
    for c in &b.contours {
        if c.points.len() != c.assignment.len() {
            return Err(format!("contour {} assignment arity mismatch", c.id));
        }
        for &p in c.plan_set.iter().chain(&c.assignment) {
            if p >= b.diagram.plans.len() {
                return Err(format!("contour {} references unknown plan {p}", c.id));
            }
        }
        for &li in &c.points {
            if li >= n {
                return Err(format!(
                    "contour {} references out-of-grid point {li}",
                    c.id
                ));
            }
        }
    }
    b.workload.query.check(&b.workload.catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::BouquetConfig;
    use crate::workload::Workload;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn small_workload() -> Workload {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "EQ");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let o = qb.rel("orders");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        let ess = Ess::uniform(vec![EssDim::new("p_retailprice", 1e-4, 1.0)], 32);
        Workload::new("EQ_1D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn json_roundtrip_preserves_runtime_behaviour() {
        let w = small_workload();
        let original = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let json = to_json(&original).unwrap();
        let loaded = from_json(&json).unwrap();
        assert_eq!(original.stats, loaded.stats);
        assert_eq!(original.grading, loaded.grading);
        // Identical discovery traces — the property that matters.
        for f in [0.1, 0.5, 0.9] {
            let qa = w.ess.point_at_fractions(&[f]);
            assert_eq!(
                original.run_basic(&qa).unwrap(),
                loaded.run_basic(&qa).unwrap()
            );
            assert_eq!(
                original.run_optimized(&qa).unwrap(),
                loaded.run_optimized(&qa).unwrap()
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let w = small_workload();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let path = std::env::temp_dir().join("pb_test_bouquet.json");
        save(&b, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(b.stats, loaded.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_corrupt_error_with_the_path() {
        use pb_faults::PbError;
        let w = small_workload();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let path = std::env::temp_dir().join("pb_test_truncated_bouquet.json");
        save(&b, &path).unwrap();
        // Chop the artifact mid-stream, as a crashed writer would.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        match load(&path) {
            Err(PbError::Corrupt { path: p, .. }) => {
                assert!(p.contains("pb_test_truncated_bouquet"))
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        use pb_faults::PbError;
        match load("/nonexistent/pb_bouquet_nowhere.json") {
            Err(PbError::Io { path, .. }) => assert!(path.contains("nowhere")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_artifacts_are_rejected() {
        let w = small_workload();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let json = to_json(&b).unwrap();
        // Truncate the cost matrix.
        let bad = json.replacen("\"costs\":[[", "\"costs\":[[999.0,", 1);
        assert!(from_json(&bad).is_err());
        // Garbage is rejected outright.
        assert!(from_json("{\"not\": \"a bouquet\"}").is_err());
        // An artefact without contours has nothing to run (`pbq run --load`
        // used to index the last one and panic).
        let mut empty = b.clone();
        empty.contours.clear();
        empty.grading.steps.clear();
        empty.costs = pb_cost::CostMatrix::from_flat(w.ess.num_points(), Vec::new());
        match from_json(&to_json(&empty).unwrap()) {
            Err(PbError::Corrupt { message, .. }) => assert_eq!(message, "bouquet has no contours"),
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn tampered_query_is_a_corrupt_error_with_the_path_not_a_panic() {
        use pb_faults::PbError;
        let w = small_workload();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let json = to_json(&b).unwrap();
        let lineitem = w.query.relations[1].table.0;
        for (tag, from, to) in [
            ("join_rel", "\"left_rel\":0".to_string(), "\"left_rel\":9"),
            (
                "table",
                format!("{{\"table\":{lineitem},\"alias\""),
                "{\"table\":99,\"alias\"",
            ),
        ] {
            assert!(json.contains(&from), "{tag}: artefact has no {from}");
            let path = std::env::temp_dir().join(format!("pb_test_tampered_{tag}.json"));
            std::fs::write(&path, json.replacen(&from, to, 1)).unwrap();
            match load(&path) {
                Err(PbError::Corrupt { path: p, .. }) => assert!(p.contains("pb_test_tampered")),
                other => panic!("{tag}: expected Corrupt, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn cost_rows_must_be_the_bouquet_plans() {
        let w = small_workload();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        assert_eq!(b.costs.len(), b.plan_ids().len());
        assert!(b.costs.len() < b.diagram.plan_count());
        // An artefact carrying a row per POSP plan (the old shape) is refused.
        let mut old_shape = b.clone();
        old_shape.costs = b.diagram.cost_matrix(&w.catalog, &w.query, &w.model);
        let err = from_json(&to_json(&old_shape).unwrap()).unwrap_err();
        assert!(err.to_string().contains("row count"), "{err}");
    }

    #[test]
    fn fingerprints_recomputed_on_load() {
        let w = small_workload();
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        let loaded = from_json(&to_json(&b).unwrap()).unwrap();
        for (a, c) in b.diagram.plans.iter().zip(&loaded.diagram.plans) {
            assert_eq!(a.fingerprint(), c.fingerprint());
        }
    }
}
