//! The error-prone selectivity space (ESS) and its discretized grid.
//!
//! The ESS is a D-dimensional box of selectivities, one axis per error-prone
//! predicate (paper, Section 2). Following the paper's plots (log-log axes
//! spanning 0.01%–100%), the grid is *geometrically* spaced along each axis:
//! selectivity errors are multiplicative, so resolution should be relative.

use serde::{Deserialize, Serialize};

/// One error-prone dimension: a selectivity range `[lo, hi]`. What the axis
/// *is* — a selection, a PK–FK, inequality, anti or semi join — is fixed by
/// the predicate bound to it (`QuerySpec::dim_kind`), so the grid carries
/// only the range.
///
/// `hi` defaults to the maximum legal selectivity — 1.0 for selections, and
/// for PK–FK joins the reciprocal of the PK side's cardinality constraint
/// (paper, Section 4.1).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EssDim {
    pub name: String,
    pub lo: f64,
    pub hi: f64,
}

impl EssDim {
    pub fn new(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(
            lo > 0.0 && hi > lo && hi <= 1.0,
            "bad dim range [{lo},{hi}]"
        );
        EssDim {
            name: name.into(),
            lo,
            hi,
        }
    }
}

/// A location in the ESS: one absolute selectivity per dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelPoint(pub Vec<f64>);

impl SelPoint {
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Componentwise `<=` — "self lies in the third quadrant of other"
    /// (the paper's first-quadrant invariant viewed from the other side).
    pub fn dominated_by(&self, other: &SelPoint) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

impl std::ops::Deref for SelPoint {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.0
    }
}

/// Grid coordinates of a point (per-dimension step indices).
pub type GridIx = Vec<usize>;

/// The discretized ESS: a geometric grid with `res[d]` steps per dimension.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Ess {
    pub dims: Vec<EssDim>,
    pub res: Vec<usize>,
}

impl Ess {
    pub fn new(dims: Vec<EssDim>, res: Vec<usize>) -> Self {
        assert_eq!(dims.len(), res.len());
        assert!(!dims.is_empty(), "ESS needs at least one dimension");
        // A 1-step axis is a degenerate but legal grid (the single point
        // sits at the dimension's upper bound).
        assert!(
            res.iter().all(|&r| r >= 1),
            "each dimension needs >= 1 step"
        );
        Ess { dims, res }
    }

    /// Same resolution along every axis.
    pub fn uniform(dims: Vec<EssDim>, res: usize) -> Self {
        let n = dims.len();
        Ess::new(dims, vec![res; n])
    }

    pub fn d(&self) -> usize {
        self.dims.len()
    }

    /// Total number of grid points.
    pub fn num_points(&self) -> usize {
        self.res.iter().product()
    }

    /// Selectivity of step `ix` along dimension `d` (geometric spacing).
    pub fn sel_at(&self, d: usize, ix: usize) -> f64 {
        let dim = &self.dims[d];
        let steps = self.res[d] - 1;
        if ix >= steps {
            return dim.hi;
        }
        let t = ix as f64 / steps as f64;
        dim.lo * (dim.hi / dim.lo).powf(t)
    }

    /// The [`SelPoint`] at grid coordinates `ix`.
    pub fn point(&self, ix: &[usize]) -> SelPoint {
        debug_assert_eq!(ix.len(), self.d());
        SelPoint(
            ix.iter()
                .enumerate()
                .map(|(d, &i)| self.sel_at(d, i))
                .collect(),
        )
    }

    /// Allocation-free [`point`](Ess::point) into a scratch buffer; cell
    /// values are exactly those `point` would produce.
    pub fn point_into(&self, ix: &[usize], out: &mut Vec<f64>) {
        debug_assert_eq!(ix.len(), self.d());
        out.clear();
        out.extend(ix.iter().enumerate().map(|(d, &i)| self.sel_at(d, i)));
    }

    /// A point located at the given fraction (0.0 = lo, 1.0 = hi, geometric
    /// interpolation) along each axis — convenient for tests and examples.
    pub fn point_at_fractions(&self, f: &[f64]) -> SelPoint {
        assert_eq!(f.len(), self.d());
        SelPoint(
            self.dims
                .iter()
                .zip(f)
                .map(|(dim, &t)| dim.lo * (dim.hi / dim.lo).powf(t.clamp(0.0, 1.0)))
                .collect(),
        )
    }

    /// Flatten grid coordinates to a linear index (row-major).
    pub fn linear(&self, ix: &[usize]) -> usize {
        let mut li = 0;
        for (d, &i) in ix.iter().enumerate() {
            debug_assert!(i < self.res[d]);
            li = li * self.res[d] + i;
        }
        li
    }

    /// Linear-index distance of one grid step along each axis (row-major:
    /// the last axis is contiguous).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.d()];
        for d in (1..self.d()).rev() {
            strides[d - 1] = strides[d] * self.res[d];
        }
        strides
    }

    /// Inverse of [`linear`](Ess::linear).
    pub fn unlinear(&self, li: usize) -> GridIx {
        let mut ix = vec![0; self.d()];
        self.unlinear_into(li, &mut ix);
        ix
    }

    /// Allocation-free [`unlinear`](Ess::unlinear) into a scratch buffer
    /// (resized to the grid dimensionality if needed).
    pub fn unlinear_into(&self, mut li: usize, ix: &mut GridIx) {
        ix.resize(self.d(), 0);
        for d in (0..self.d()).rev() {
            ix[d] = li % self.res[d];
            li /= self.res[d];
        }
    }

    /// Move `ix` to the next grid point in row-major order (the last axis
    /// moves fastest); the terminus wraps to the origin.
    pub fn advance(&self, ix: &mut [usize]) {
        for (i, &res) in ix.iter_mut().zip(&self.res).rev() {
            *i += 1;
            if *i < res {
                return;
            }
            *i = 0;
        }
    }

    /// Per axis, [`sel_at`](Ess::sel_at) of each of its steps: every
    /// coordinate a grid point can have, `Σ res` values instead of the
    /// `num_points() × d()` of [`points_flat`](Ess::points_flat).
    pub fn axes(&self) -> Vec<Vec<f64>> {
        (0..self.d())
            .map(|dim| (0..self.res[dim]).map(|i| self.sel_at(dim, i)).collect())
            .collect()
    }

    /// All grid points flattened row-major into one buffer of
    /// `num_points() × d()` selectivities. Cell values are exactly those of
    /// `point(&unlinear(li))` — same `sel_at` calls — so costing against
    /// this buffer is bit-identical to costing per-point.
    pub fn points_flat(&self) -> Vec<f64> {
        let d = self.d();
        // One `sel_at` per step of each axis, not per point.
        let axes = self.axes();
        let mut out = Vec::with_capacity(self.num_points() * d);
        let mut ix = vec![0; d];
        for _ in 0..self.num_points() {
            out.extend(axes.iter().zip(&ix).map(|(axis, &i)| axis[i]));
            self.advance(&mut ix);
        }
        out
    }

    /// Iterate all grid coordinates in row-major order.
    pub fn iter_points(&self) -> impl Iterator<Item = GridIx> + '_ {
        (0..self.num_points()).map(|li| self.unlinear(li))
    }

    /// The grid's origin (all-lo corner) and principal-diagonal corner
    /// (all-hi) — the two optimizations that bootstrap C_min / C_max
    /// (paper, Section 4.2).
    pub fn origin(&self) -> GridIx {
        vec![0; self.d()]
    }

    pub fn terminus(&self) -> GridIx {
        self.res.iter().map(|&r| r - 1).collect()
    }

    /// Snap an arbitrary point to the nearest grid coordinates (geometric
    /// rounding per axis), clamping to the grid range.
    pub fn snap(&self, p: &SelPoint) -> GridIx {
        self.snap_with(p, |t| t.round())
    }

    /// Snap downward: the returned grid point's selectivities never exceed
    /// `p`'s. Used where a conservative (under-)estimate is required, e.g.
    /// looking up the PIC cost at the running location qrun.
    pub fn snap_floor(&self, p: &SelPoint) -> GridIx {
        self.snap_with(p, |t| (t + 1e-9).floor())
    }

    /// [`snap_floor`](Ess::snap_floor) along one axis: axes snap
    /// independently, so a caller tracking a moving point re-snaps only the
    /// coordinate that moved.
    pub fn snap_floor_dim(&self, d: usize, s: f64) -> usize {
        self.snap_dim(d, s, |t| (t + 1e-9).floor())
    }

    fn snap_dim(&self, d: usize, s: f64, round: impl Fn(f64) -> f64) -> usize {
        let dim = &self.dims[d];
        let steps = (self.res[d] - 1) as f64;
        let s = s.clamp(dim.lo, dim.hi);
        let t = (s / dim.lo).ln() / (dim.hi / dim.lo).ln();
        (round(t * steps).max(0.0) as usize).min(self.res[d] - 1)
    }

    fn snap_with(&self, p: &SelPoint, round: impl Fn(f64) -> f64) -> GridIx {
        (0..self.d())
            .map(|d| self.snap_dim(d, p[d], &round))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ess2() -> Ess {
        Ess::uniform(
            vec![EssDim::new("x", 1e-4, 1.0), EssDim::new("y", 1e-2, 1.0)],
            11,
        )
    }

    #[test]
    fn grid_endpoints_hit_bounds() {
        let e = ess2();
        assert!((e.sel_at(0, 0) - 1e-4).abs() < 1e-12);
        assert!((e.sel_at(0, 10) - 1.0).abs() < 1e-12);
        assert!((e.sel_at(1, 0) - 1e-2).abs() < 1e-12);
    }

    #[test]
    fn geometric_spacing() {
        let e = ess2();
        // 1e-4 .. 1.0 over 10 steps: each step multiplies by 10^(4/10).
        let ratio = e.sel_at(0, 5) / e.sel_at(0, 4);
        let expect = 10f64.powf(0.4);
        assert!((ratio - expect).abs() < 1e-9);
    }

    #[test]
    fn linear_unlinear_roundtrip() {
        let e = ess2();
        for li in 0..e.num_points() {
            let ix = e.unlinear(li);
            assert_eq!(e.linear(&ix), li);
        }
    }

    #[test]
    fn advance_walks_the_grid_in_linear_order() {
        let e = Ess::new(ess2().dims, vec![3, 1]);
        let e3 = Ess::new(
            [e.dims.clone(), vec![EssDim::new("z", 1e-3, 1.0)]].concat(),
            vec![3, 1, 4],
        );
        for e in [ess2(), e, e3] {
            let mut ix = e.origin();
            for li in 0..e.num_points() {
                assert_eq!(ix, e.unlinear(li));
                let at = li * e.d();
                assert_eq!(e.point(&ix).0, e.points_flat()[at..at + e.d()]);
                e.advance(&mut ix);
            }
            assert_eq!(ix, e.origin(), "the terminus wraps");
        }
    }

    #[test]
    fn iter_covers_all_points_once() {
        let e = ess2();
        let pts: Vec<_> = e.iter_points().collect();
        assert_eq!(pts.len(), 121);
        assert_eq!(pts[0], vec![0, 0]);
        assert_eq!(pts[120], vec![10, 10]);
    }

    #[test]
    fn dominated_by_is_componentwise() {
        let a = SelPoint(vec![0.1, 0.2]);
        let b = SelPoint(vec![0.1, 0.3]);
        assert!(a.dominated_by(&b));
        assert!(!b.dominated_by(&a));
    }

    #[test]
    fn snap_rounds_to_grid() {
        let e = ess2();
        let p = e.point(&[3, 7]);
        assert_eq!(e.snap(&p), vec![3, 7]);
        // out-of-range clamps
        assert_eq!(e.snap(&SelPoint(vec![1e-9, 5.0])), vec![0, 10]);
    }

    #[test]
    fn snap_floor_never_exceeds_input() {
        let e = ess2();
        for li in 0..e.num_points() {
            let ix = e.unlinear(li);
            let mut p = e.point(&ix);
            // nudge upward slightly: floor must come back to ix
            for v in &mut p.0 {
                *v *= 1.0 + 1e-12;
            }
            assert_eq!(e.snap_floor(&p), ix);
        }
        // a point strictly between steps floors to the lower step
        let mid = SelPoint(vec![
            (e.sel_at(0, 3) * e.sel_at(0, 4)).sqrt(),
            (e.sel_at(1, 7) * e.sel_at(1, 8)).sqrt(),
        ]);
        assert_eq!(e.snap_floor(&mid), vec![3, 7]);
    }

    #[test]
    fn fractions_interpolate_geometrically() {
        let e = ess2();
        let p = e.point_at_fractions(&[0.5, 0.0]);
        assert!((p[0] - 1e-2).abs() < 1e-9); // sqrt(1e-4 * 1.0)
        assert!((p[1] - 1e-2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad dim range")]
    fn zero_lo_rejected() {
        EssDim::new("bad", 0.0, 1.0);
    }
}
