//! The axis-flip remedy for PCM-violating dimensions (paper, Section 2).
//!
//! The bouquet machinery requires Plan Cost Monotonicity: optimal cost
//! non-decreasing in every ESS coordinate. Existential operators (NOT
//! EXISTS / anti-joins) break it — their output *shrinks* as the match
//! selectivity grows, so plan costs decrease along that axis. The paper's
//! remedy: "the basic bouquet technique can be utilized by the simple
//! expedient of plotting the ESS with (1 − s) instead of s on the
//! selectivity axes"; only surfaces with an interior extremum are truly out
//! of reach.
//!
//! Our grids are geometric, so the reflection is realised multiplicatively:
//! a decreasing dimension's coordinate `v` maps to the actual selectivity
//! `pivot / v` with `pivot = lo · hi`, which is a bijection of `[lo, hi]`
//! onto itself that reverses the axis. [`flip_decreasing`] probes each
//! dimension's direction, rewrites the query's selectivity specs
//! accordingly, and rejects genuinely non-monotone dimensions.

use pb_plan::{QueryBuilder, SelSpec};
use serde::{Deserialize, Serialize};

use crate::workload::Workload;

/// Direction of the optimal-cost surface along one ESS dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DimDirection {
    Increasing,
    Decreasing,
    /// Interior extremum — not amenable to the bouquet technique.
    NonMonotone,
}

/// Probe the optimal cost along each axis (at `anchors` anchor settings of
/// the other dimensions, `steps` samples per axis) and classify it.
pub fn dim_directions(w: &Workload, anchors: usize, steps: usize) -> Vec<DimDirection> {
    assert!(steps >= 2);
    let d = w.ess.d();
    let opt = w.optimizer();
    (0..d)
        .map(|dim| {
            let mut increasing = true;
            let mut decreasing = true;
            for a in 0..anchors.max(1) {
                let anchor = if anchors <= 1 {
                    0.5
                } else {
                    a as f64 / (anchors - 1) as f64
                };
                let mut last = None;
                for t in 0..steps {
                    let mut fr = vec![anchor; d];
                    fr[dim] = t as f64 / (steps - 1) as f64;
                    let c = opt.optimize(&w.ess.point_at_fractions(&fr)).cost;
                    if let Some(prev) = last {
                        if c > prev * (1.0 + 1e-9) {
                            decreasing = false;
                        }
                        if c < prev * (1.0 - 1e-9) {
                            increasing = false;
                        }
                    }
                    last = Some(c);
                }
            }
            match (increasing, decreasing) {
                (true, _) => DimDirection::Increasing,
                (false, true) => DimDirection::Decreasing,
                (false, false) => DimDirection::NonMonotone,
            }
        })
        .collect()
}

/// Flip every decreasing dimension's axis; errors on non-monotone ones.
/// Returns the rewritten workload and the per-dimension flip flags.
pub fn flip_decreasing(w: &Workload) -> Result<(Workload, Vec<bool>), String> {
    let dirs = dim_directions(w, 2, 4);
    if let Some(bad) = dirs.iter().position(|&d| d == DimDirection::NonMonotone) {
        return Err(format!(
            "dimension {bad} ({}) has an interior cost extremum; \
             not amenable to the bouquet technique (paper, Section 2)",
            w.ess.dims[bad].name
        ));
    }
    let flips: Vec<bool> = dirs
        .iter()
        .map(|&d| d == DimDirection::Decreasing)
        .collect();
    if !flips.iter().any(|&f| f) {
        return Ok((w.clone(), flips));
    }
    let mut query = w.query.clone();
    QueryBuilder::rewrite_specs(&mut query, |spec| match *spec {
        SelSpec::ErrorProne(dim) if flips[dim] => {
            let d = &w.ess.dims[dim];
            SelSpec::Flipped {
                dim,
                pivot: d.lo * d.hi,
            }
        }
        // Unflip a previously-flipped dimension that now reads decreasing
        // (flip is an involution).
        SelSpec::Flipped { dim, .. } if flips[dim] => SelSpec::ErrorProne(dim),
        other => other,
    });
    let flipped = Workload::new(
        w.name.clone(),
        w.catalog.clone(),
        query,
        w.ess.clone(),
        w.model.clone(),
    );
    Ok((flipped, flips))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::{Bouquet, BouquetConfig};
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder};

    /// part ⋈ lineitem with a NOT EXISTS(partsupp) anti-join whose match
    /// selectivity is error-prone — plan costs *decrease* along that axis.
    fn anti_workload() -> Workload {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "anti");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let ps = qb.rel("partsupp");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.anti_join(l, "l_partkey", ps, "ps_partkey", SelSpec::ErrorProne(1));
        let q = qb.build();
        let hi = 1.0 / cat.table("partsupp").unwrap().rows;
        let ess = Ess::uniform(
            vec![
                EssDim::new("p_retailprice", 1e-4, 1.0),
                EssDim::new("anti l⋈ps", hi / 100.0, hi),
            ],
            12,
        );
        Workload::new("ANTI_2D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn anti_join_dimension_reads_decreasing() {
        let w = anti_workload();
        let dirs = dim_directions(&w, 2, 4);
        assert_eq!(dirs[0], DimDirection::Increasing);
        assert_eq!(dirs[1], DimDirection::Decreasing);
    }

    #[test]
    fn identification_fails_before_flip_and_succeeds_after() {
        let w = anti_workload();
        let err = Bouquet::identify(&w, &BouquetConfig::default());
        assert!(
            err.is_err() && err.unwrap_err().to_string().contains("Monotonicity"),
            "raw anti-join space must violate PCM"
        );
        let (flipped, flips) = flip_decreasing(&w).unwrap();
        assert_eq!(flips, vec![false, true]);
        let b = Bouquet::identify(&flipped, &BouquetConfig::default())
            .expect("flipped space is PCM-clean");
        // Full guarantee over the flipped grid.
        for li in 0..flipped.ess.num_points() {
            let qa = flipped.ess.point(&flipped.ess.unlinear(li));
            let run = b.run_basic(&qa).unwrap();
            assert!(run.completed());
            assert!(
                run.suboptimality(b.pic_cost_at(li)) <= b.mso_bound() * (1.0 + 1e-9),
                "bound violated at {li}"
            );
        }
    }

    #[test]
    fn flip_is_an_involution() {
        let w = anti_workload();
        let (once, _) = flip_decreasing(&w).unwrap();
        // The flipped space is increasing everywhere; flipping again is a
        // no-op.
        let (twice, flips2) = flip_decreasing(&once).unwrap();
        assert!(flips2.iter().all(|&f| !f));
        assert_eq!(once.query, twice.query);
    }

    #[test]
    fn plain_workloads_need_no_flip() {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "plain");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        let q = qb.build();
        let ess = Ess::uniform(vec![EssDim::new("s", 1e-4, 1.0)], 10);
        let w = Workload::new("plain", cat.clone(), q, ess, CostModel::postgresish());
        let (same, flips) = flip_decreasing(&w).unwrap();
        assert!(flips.iter().all(|&f| !f));
        assert_eq!(same.query, w.query);
    }
}
