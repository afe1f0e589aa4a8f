//! Contour-band POSP exploration (paper, Section 4.2).
//!
//! Producing the complete POSP by optimizing every grid point is expensive in
//! higher dimensions. The paper observes that only the plans *on the isocost
//! contours* are needed, and proposes: optimize the two corners of the
//! principal diagonal (C_min, C_max), derive the isocost step costs, then
//! recursively subdivide the ESS into hypercubes, descending only into cubes
//! whose corner-cost range brackets a step cost. Only a narrow band of
//! locations around each contour is ever optimized.
//!
//! This module implements that recursion and reports the optimizer-call
//! savings versus the exhaustive diagram — the compile-time overhead
//! experiment of Section 6.1.

use std::collections::HashMap;

use pb_optimizer::{Sweep, SweepCursor};

use crate::grading::IsoCostGrading;
use crate::workload::Workload;

/// Outcome of a contour-band exploration.
#[derive(Debug, Clone)]
pub struct BandResult {
    /// Optimal cost at every *optimized* linear grid index (the band).
    pub optimized: HashMap<usize, f64>,
    /// Number of optimizer invocations performed (≤ grid size).
    pub optimizer_calls: usize,
    /// Grid size, for the savings ratio.
    pub grid_points: usize,
    /// The grading derived from the diagonal corners.
    pub grading: IsoCostGrading,
}

impl BandResult {
    /// Fraction of grid points that were optimized.
    pub fn call_fraction(&self) -> f64 {
        self.optimizer_calls as f64 / self.grid_points as f64
    }
}

/// Explore only the contour bands of `w`'s ESS with isocost ratio `r`.
pub fn explore(w: &Workload, r: f64) -> BandResult {
    let ess = &w.ess;
    // The band steps through the sweep the exhaustive diagram is built
    // over, so the two differ in which points they visit and nothing else.
    let sweep = Sweep::new(&w.catalog, &w.query, &w.model, ess);
    let mut opt = sweep.cursor();
    let mut cache: HashMap<usize, f64> = HashMap::new();
    let mut calls = 0usize;

    let mut cost_at = |ix: &[usize], opt: &mut SweepCursor<'_>, calls: &mut usize| -> f64 {
        let li = ess.linear(ix);
        *cache.entry(li).or_insert_with(|| {
            *calls += 1;
            opt.step(ix).1
        })
    };

    let origin = ess.origin();
    let terminus = ess.terminus();
    let cmin = cost_at(&origin, &mut opt, &mut calls);
    let cmax = cost_at(&terminus, &mut opt, &mut calls);
    let grading = IsoCostGrading::geometric(cmin, cmax, r);

    // Recursive hypercube subdivision over index boxes [lo, hi] (inclusive).
    let mut stack: Vec<(Vec<usize>, Vec<usize>)> = vec![(origin, terminus)];
    while let Some((lo, hi)) = stack.pop() {
        let clo = cost_at(&lo, &mut opt, &mut calls);
        // A frontier point q of step s satisfies cost(q) ≤ s while its
        // up-neighbours exceed s; the box holding q can therefore sit
        // strictly *below* s. Testing against the cost one grid step beyond
        // the box (clamped) makes sure such boxes are still descended into.
        let hi_plus: Vec<usize> = hi
            .iter()
            .enumerate()
            .map(|(d, &v)| (v + 1).min(ess.res[d] - 1))
            .collect();
        let chi = cost_at(&hi_plus, &mut opt, &mut calls);
        let crossed = grading
            .steps
            .iter()
            .any(|&s| s >= clo * (1.0 - 1e-12) && s <= chi * (1.0 + 1e-12));
        if !crossed {
            continue;
        }
        let widest = (0..ess.d()).max_by_key(|&d| hi[d] - lo[d]).unwrap_or(0);
        if hi[widest] - lo[widest] <= 1 {
            // Small enough: optimize every point inside the box.
            enumerate_box(&lo, &hi, &mut |ix| {
                cost_at(ix, &mut opt, &mut calls);
            });
            continue;
        }
        let mid = (lo[widest] + hi[widest]) / 2;
        let mut hi_left = hi.clone();
        hi_left[widest] = mid;
        let mut lo_right = lo.clone();
        lo_right[widest] = mid;
        stack.push((lo.clone(), hi_left));
        stack.push((lo_right, hi.clone()));
    }

    BandResult {
        optimized: cache,
        optimizer_calls: calls,
        grid_points: ess.num_points(),
        grading,
    }
}

fn enumerate_box(lo: &[usize], hi: &[usize], f: &mut impl FnMut(&[usize])) {
    let d = lo.len();
    let mut ix = lo.to_vec();
    loop {
        f(&ix);
        // odometer increment within [lo, hi]
        let mut dim = d;
        for i in (0..d).rev() {
            if ix[i] < hi[i] {
                dim = i;
                break;
            }
        }
        if dim == d {
            return;
        }
        ix[dim] += 1;
        ix[(dim + 1)..d].copy_from_slice(&lo[(dim + 1)..d]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bouquet::{Bouquet, BouquetConfig};
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Ess, EssDim};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn eq_2d() -> Workload {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "EQ2D");
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
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        let ess = Ess::uniform(
            vec![
                EssDim::new("p_retailprice", 1e-4, 1.0),
                EssDim::new("p⋈l", 1e-8, 5e-6),
            ],
            24,
        );
        Workload::new("EQ_2D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn band_saves_optimizer_calls() {
        let w = eq_2d();
        let band = explore(&w, 2.0);
        assert!(band.optimizer_calls < band.grid_points);
    }

    /// The band's savings are resolution-dependent: as the grid refines, the
    /// contour bands occupy a vanishing fraction of it (this is what makes
    /// the Section 4.2 recursion worthwhile in higher dimensions).
    #[test]
    fn band_savings_grow_with_resolution() {
        let coarse = eq_2d();
        let fine = {
            let mut w = eq_2d();
            w.ess = Ess::uniform(w.ess.dims.clone(), 96);
            w
        };
        let fc = explore(&coarse, 4.0).call_fraction();
        let ff = explore(&fine, 4.0).call_fraction();
        assert!(
            ff < fc,
            "finer grid should need a smaller optimized fraction: {ff} vs {fc}"
        );
        assert!(
            ff < 0.6,
            "at 96² the band should cover well under 60%: {ff}"
        );
    }

    #[test]
    fn band_costs_agree_with_exhaustive_diagram() {
        let w = eq_2d();
        let band = explore(&w, 2.0);
        let d = w.diagram();
        for (&li, &c) in &band.optimized {
            assert!(
                (c - d.opt_cost[li]).abs() < 1e-9 * c,
                "band disagrees with diagram at {li}"
            );
        }
    }

    #[test]
    fn band_covers_every_contour_frontier_point() {
        let w = eq_2d();
        let band = explore(&w, 2.0);
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        for c in &b.contours {
            for &li in &c.points {
                assert!(
                    band.optimized.contains_key(&li),
                    "contour {} frontier point {li} missed by band exploration",
                    c.id
                );
            }
        }
    }

    #[test]
    fn band_grading_matches_bouquet_grading() {
        let w = eq_2d();
        let band = explore(&w, 2.0);
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        assert_eq!(band.grading.len(), b.grading.len());
        for (a, bb) in band.grading.steps.iter().zip(&b.grading.steps) {
            assert!((a - bb).abs() < 1e-9 * a);
        }
    }
}
