//! ESS dimensionality reduction by cost-sensitivity analysis.
//!
//! The paper's critique (Section 8) observes that bouquet identification
//! scales exponentially with dimensionality, and suggests computing "the
//! partial derivatives of the POSP plan cost functions along each dimension
//! … on a low-resolution mapping of the ESS", eliminating any dimension
//! whose cost impact is marginal. This module implements that analysis:
//! for each dimension we probe a coarse lattice of anchor locations and
//! measure the optimal-cost swing between the dimension's extremes; a
//! dimension whose maximum swing is below `1 + threshold` is frozen at its
//! upper bound (the conservative end — budgets can only over-provision).

use pb_plan::{QuerySpec, SelSpec};
use serde::{Deserialize, Serialize};

use crate::workload::Workload;

/// Sensitivity of the optimal cost to one ESS dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimSensitivity {
    pub dim: usize,
    pub name: String,
    /// The axis's dimension kind (selection, pk-fk join, …): the kind of
    /// the predicate bound to it, so reports can group sensitivities by kind.
    #[serde(default)]
    pub kind: pb_plan::DimKind,
    /// Maximum over anchors of `opt_cost(dim = hi) / opt_cost(dim = lo)`.
    pub max_cost_ratio: f64,
}

/// Probe each dimension's cost swing over a coarse anchor lattice of
/// `probe_res` points per *other* dimension (the Section 8 low-resolution
/// map). Total optimizer calls: `D · probe_res^(D−1) · 2`.
pub fn sensitivities(w: &Workload, probe_res: usize) -> Vec<DimSensitivity> {
    assert!(probe_res >= 1);
    let d = w.ess.d();
    let opt = w.optimizer();
    (0..d)
        .map(|dim| {
            let mut worst: f64 = 1.0;
            // Anchor lattice over the other dimensions (fractions).
            let others: Vec<usize> = (0..d).filter(|&x| x != dim).collect();
            let mut counters = vec![0usize; others.len()];
            loop {
                let mut fr = vec![0.0; d];
                for (slot, &od) in others.iter().enumerate() {
                    fr[od] = if probe_res == 1 {
                        0.5
                    } else {
                        counters[slot] as f64 / (probe_res - 1) as f64
                    };
                }
                fr[dim] = 0.0;
                let lo = opt.optimize(&w.ess.point_at_fractions(&fr)).cost;
                fr[dim] = 1.0;
                let hi = opt.optimize(&w.ess.point_at_fractions(&fr)).cost;
                worst = worst.max(hi / lo);
                // odometer
                let mut i = others.len();
                for slot in (0..others.len()).rev() {
                    if counters[slot] + 1 < probe_res {
                        i = slot;
                        break;
                    }
                }
                if i == others.len() {
                    break;
                }
                counters[i] += 1;
                for c in counters.iter_mut().skip(i + 1) {
                    *c = 0;
                }
            }
            DimSensitivity {
                dim,
                name: w.ess.dims[dim].name.clone(),
                kind: w.query.dim_kind(dim).unwrap_or_default(),
                max_cost_ratio: worst,
            }
        })
        .collect()
}

/// Freeze every dimension whose cost swing is ≤ `1 + threshold` at its
/// upper bound, returning the reduced workload and the frozen dimensions.
/// Freezing at the top keeps every remaining guarantee conservative: true
/// costs can only be *lower* than the reduced model's.
pub fn eliminate_insensitive(
    w: &Workload,
    threshold: f64,
    probe_res: usize,
) -> (Workload, Vec<DimSensitivity>) {
    let sens = sensitivities(w, probe_res);
    let frozen: Vec<usize> = sens
        .iter()
        .filter(|s| s.max_cost_ratio <= 1.0 + threshold)
        .map(|s| s.dim)
        .collect();
    if frozen.is_empty() {
        return (w.clone(), Vec::new());
    }
    // Remap dimension ids: kept dims are renumbered densely.
    let d = w.ess.d();
    let mut remap: Vec<Option<usize>> = vec![None; d];
    let mut next = 0usize;
    for (dim, slot) in remap.iter_mut().enumerate() {
        if !frozen.contains(&dim) {
            *slot = Some(next);
            next += 1;
        }
    }
    let fix_value = |dim: usize| w.ess.dims[dim].hi;
    let rewrite = |spec: &SelSpec| -> SelSpec {
        match *spec {
            SelSpec::Fixed(v) => SelSpec::Fixed(v),
            SelSpec::ErrorProne(dim) => match remap[dim] {
                Some(nd) => SelSpec::ErrorProne(nd),
                None => SelSpec::Fixed(fix_value(dim)),
            },
            SelSpec::Flipped { dim, pivot } => match remap[dim] {
                Some(nd) => SelSpec::Flipped { dim: nd, pivot },
                // Frozen at the coordinate's top => the *lowest* actual
                // selectivity of the flipped predicate; stay conservative
                // by freezing at the flipped maximum instead.
                None => SelSpec::Fixed((pivot / w.ess.dims[dim].lo).clamp(0.0, 1.0)),
            },
        }
    };
    let mut query: QuerySpec = w.query.clone();
    pb_plan::QueryBuilder::rewrite_specs(&mut query, rewrite);
    query.num_dims = next;
    let dims: Vec<_> = (0..d)
        .filter(|dim| remap[*dim].is_some())
        .map(|dim| w.ess.dims[dim].clone())
        .collect();
    let res: Vec<_> = (0..d)
        .filter(|dim| remap[*dim].is_some())
        .map(|dim| w.ess.res[dim])
        .collect();
    let ess = pb_cost::Ess::new(dims, res);
    let reduced = Workload::new(
        format!("{}(reduced)", w.name),
        w.catalog.clone(),
        query,
        ess,
        w.model.clone(),
    );
    let dropped = sens
        .into_iter()
        .filter(|s| frozen.contains(&s.dim))
        .collect();
    (reduced, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::{Bouquet, BouquetConfig};
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder};

    /// 3D workload where the third dimension is nearly cost-irrelevant
    /// (a selection on the tiny `nation` relation).
    fn workload_with_dead_dim() -> Workload {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "dead_dim");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let n = qb.rel("nation");
        let s = qb.rel("supplier");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        qb.join(l, "l_suppkey", s, "s_suppkey", SelSpec::Fixed(1e-4));
        qb.join(s, "s_nationkey", n, "n_nationkey", SelSpec::Fixed(0.04));
        // The "dead" dimension: a selection on nation (25 rows) whose cost
        // impact is swamped by the lineitem-side work.
        qb.select(n, "n_name", CmpOp::Lt, 20.0, SelSpec::ErrorProne(2));
        let q = qb.build();
        let ess = Ess::uniform(
            vec![
                EssDim::new("p_retailprice", 1e-4, 1.0),
                EssDim::new("p⋈l", 5e-10, 5e-6),
                EssDim::new("n_name", 0.04, 1.0),
            ],
            10,
        );
        Workload::new("dead_dim", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn sensitivity_separates_live_from_dead_dimensions() {
        let w = workload_with_dead_dim();
        let sens = sensitivities(&w, 3);
        assert_eq!(sens.len(), 3);
        assert!(sens[0].max_cost_ratio > 2.0, "price dim is live: {sens:?}");
        assert!(sens[1].max_cost_ratio > 2.0, "join dim is live: {sens:?}");
        assert!(
            sens[2].max_cost_ratio < 2.0,
            "nation dim should be nearly dead: {sens:?}"
        );
    }

    #[test]
    fn elimination_reduces_dimensionality_and_preserves_discovery() {
        let w = workload_with_dead_dim();
        let (reduced, dropped) = eliminate_insensitive(&w, 1.0, 3);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].dim, 2);
        assert_eq!(reduced.d(), 2);
        reduced.query.validate(&reduced.catalog);
        // A bouquet on the reduced space still works end to end.
        let b = Bouquet::identify(&reduced, &BouquetConfig::default()).unwrap();
        let qa = reduced.ess.point_at_fractions(&[0.6, 0.6]);
        let run = b.run_basic(&qa).unwrap();
        assert!(run.completed());
        assert!(run.suboptimality(b.pic_cost(&qa)) <= b.mso_bound() * (1.0 + 1e-9));
    }

    #[test]
    fn nothing_eliminated_with_zero_threshold() {
        let w = workload_with_dead_dim();
        let (reduced, dropped) = eliminate_insensitive(&w, 0.0, 2);
        assert!(dropped.is_empty());
        assert_eq!(reduced.d(), w.d());
    }
}
