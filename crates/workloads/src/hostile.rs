//! Hostile workloads: error spaces whose axes are *not* the classic
//! selection / PK–FK kinds the paper evaluates.
//!
//! These exercise the typed-dimension machinery end to end:
//!
//! * [`hostile_ineq_2d`] — an **inequality-join** axis (`p_size <
//!   s_acctbal`). Only nested-loop operators can evaluate the edge, so the
//!   plan space is skewed toward BNL pipelines and the axis spans pair
//!   densities far above any PK–FK reciprocal cap.
//! * [`hostile_anti_2d`] — an **anti-join** (NOT EXISTS) axis, declared
//!   *pre-flipped* (`SelSpec::Flipped`): the raw match density makes plan
//!   costs decrease, so the workload ships with the Section 2 axis
//!   reflection already applied and identification succeeds directly.
//!
//! Both are sized by a scale factor so the tuple/vectorized engines can run
//! them to completion; both substrates (engine and cost-unit simulator)
//! drive them through the full ladder in the `repro hostile` exhibit.

use pb_bouquet::Workload;
use pb_catalog::tpch;
use pb_cost::{CostModel, Ess, EssDim};
use pb_plan::{CmpOp, QueryBuilder, SelSpec};

/// 2D hostile space with an inequality-join dimension: part ⋈ lineitem on
/// the PK–FK edge (fixed), part ⋈< supplier on `p_size < s_acctbal`
/// (error-prone dim 1), and an error-prone selection on `p_retailprice`
/// (dim 0).
pub fn hostile_ineq_2d(scale: f64) -> Workload {
    let cat = tpch::catalog(scale);
    let mut qb = QueryBuilder::new(&cat, "HOSTILE_INEQ_2D");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    let s = qb.rel("supplier");
    qb.select(
        p,
        "p_retailprice",
        CmpOp::Lt,
        1000.0,
        SelSpec::ErrorProne(0),
    );
    let pkfk = (1.0 / cat.table("part").unwrap().rows).min(1.0);
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(pkfk));
    qb.ineq_join(
        p,
        "p_size",
        CmpOp::Lt,
        s,
        "s_acctbal",
        SelSpec::ErrorProne(1),
    );
    let query = qb.build();
    let ess = Ess::uniform(
        vec![
            EssDim::selection("p_retailprice", 1e-4, 1.0),
            // Inequality pair densities are macroscopic: the axis spans
            // "almost never true" to "always true".
            EssDim::inequality_join("p<s", 1e-3, 1.0),
        ],
        16,
    );
    Workload::new(
        "HOSTILE_INEQ_2D",
        cat.clone(),
        query,
        ess,
        CostModel::postgresish(),
    )
}

/// 2D hostile space with an anti-join dimension, shipped pre-flipped:
/// part ⋈ lineitem (fixed PK–FK), NOT EXISTS(partsupp) on `l_partkey =
/// ps_partkey` whose *match density* is the error-prone quantity. The axis
/// is declared as `SelSpec::Flipped` with `pivot = lo · hi`, so the ESS
/// coordinate runs opposite to the raw density and plan costs are
/// monotonically increasing — no `flip_decreasing` pass needed.
pub fn hostile_anti_2d(scale: f64) -> Workload {
    let cat = tpch::catalog(scale);
    // Raw match densities of `l_partkey = ps_partkey` sit near
    // 1/NDV(partkey); span two decades either side so realistic data (and
    // hostile NDV skew) lands in the interior.
    let hi = (100.0 / cat.table("part").unwrap().rows).min(1.0);
    let lo = hi / 1e4;
    let mut qb = QueryBuilder::new(&cat, "HOSTILE_ANTI_2D");
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
    let pkfk = (1.0 / cat.table("part").unwrap().rows).min(1.0);
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(pkfk));
    qb.anti_join(
        l,
        "l_partkey",
        ps,
        "ps_partkey",
        SelSpec::Flipped {
            dim: 1,
            pivot: lo * hi,
        },
    );
    let query = qb.build();
    let ess = Ess::uniform(
        vec![
            EssDim::selection("p_retailprice", 1e-4, 1.0),
            EssDim::anti_join("anti l⋈ps", lo, hi),
        ],
        16,
    );
    Workload::new(
        "HOSTILE_ANTI_2D",
        cat.clone(),
        query,
        ess,
        CostModel::postgresish(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_bouquet::{Bouquet, BouquetConfig};
    use pb_cost::DimKind;

    #[test]
    fn hostile_dims_carry_their_kinds() {
        let w = hostile_ineq_2d(0.01);
        assert_eq!(w.ess.dims[0].kind, DimKind::Selection);
        assert_eq!(w.ess.dims[1].kind, DimKind::InequalityJoin);
        assert_eq!(w.query.dim_kind(1), Some(DimKind::InequalityJoin));
        let w = hostile_anti_2d(0.01);
        assert_eq!(w.ess.dims[1].kind, DimKind::AntiJoin);
        assert_eq!(w.query.dim_kind(1), Some(DimKind::AntiJoin));
    }

    #[test]
    fn hostile_ineq_identifies_with_full_guarantee() {
        let w = hostile_ineq_2d(0.01);
        let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
        for li in [0, w.ess.num_points() / 2, w.ess.num_points() - 1] {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let run = b.run_basic(&qa).unwrap();
            assert!(run.completed());
            assert!(run.suboptimality(b.pic_cost_at(li)) <= b.mso_bound() * (1.0 + 1e-9));
        }
    }

    #[test]
    fn hostile_anti_is_pcm_clean_as_declared() {
        let w = hostile_anti_2d(0.01);
        // Pre-flipped: identification succeeds without flip_decreasing, and
        // a further flip pass finds nothing to reverse.
        let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
        let (same, flips) = pb_bouquet::flip::flip_decreasing(&w).unwrap();
        assert!(flips.iter().all(|&f| !f), "{flips:?}");
        assert_eq!(same.query, w.query);
        for li in [0, w.ess.num_points() / 2, w.ess.num_points() - 1] {
            let qa = w.ess.point(&w.ess.unlinear(li));
            let run = b.run_basic(&qa).unwrap();
            assert!(run.completed());
            assert!(run.suboptimality(b.pic_cost_at(li)) <= b.mso_bound() * (1.0 + 1e-9));
        }
    }
}
