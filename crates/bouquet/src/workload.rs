//! A workload bundles everything a bouquet needs: catalog, query, ESS, model.

use pb_catalog::Catalog;
use pb_cost::{CostModel, Ess, SelPoint};
use pb_optimizer::{Optimizer, PlanDiagram};
use pb_plan::QuerySpec;

/// One benchmark error space: a query over a catalog with a designated
/// error-prone selectivity space and a cost-model personality. This is the
/// unit the paper's Table 2 enumerates (`3D_H_Q5`, `5D_DS_Q19`, …).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Workload {
    pub name: String,
    pub catalog: Catalog,
    pub query: QuerySpec,
    pub ess: Ess,
    pub model: CostModel,
}

impl Workload {
    pub fn new(
        name: impl Into<String>,
        catalog: Catalog,
        query: QuerySpec,
        ess: Ess,
        model: CostModel,
    ) -> Self {
        let name = name.into();
        assert_eq!(
            query.num_dims,
            ess.d(),
            "query declares {} error dims but ESS has {}",
            query.num_dims,
            ess.d()
        );
        query.validate(&catalog);
        // Typed axes: a declared dimension kind must match what the query's
        // predicate structure derives for it. The `Selection` default is
        // tolerated on any axis so legacy untyped declarations keep working.
        for (d, dim) in ess.dims.iter().enumerate() {
            if dim.kind == pb_cost::DimKind::Selection {
                continue;
            }
            let derived = query.dim_kind(d);
            assert!(
                derived == Some(dim.kind),
                "ESS dim {d} ({}) declared {} but the query derives {:?}",
                dim.name,
                dim.kind,
                derived
            );
        }
        Workload {
            name,
            catalog,
            query,
            ess,
            model,
        }
    }

    /// Dimensionality of the error space.
    pub fn d(&self) -> usize {
        self.ess.d()
    }

    pub fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::new(&self.catalog, &self.query, &self.model)
    }

    /// Exhaustive plan diagram over the ESS grid (parallel).
    pub fn diagram(&self) -> PlanDiagram {
        PlanDiagram::build(&self.catalog, &self.query, &self.model, &self.ess)
    }

    /// The optimal cost at an arbitrary (off-grid) location.
    pub fn optimal_cost(&self, q: &SelPoint) -> f64 {
        self.optimizer().optimize(q).cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::EssDim;
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    pub(crate) fn eq_1d_small() -> Workload {
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
        let ess = Ess::uniform(vec![EssDim::new("p_retailprice", 1e-4, 1.0)], 48);
        Workload::new("EQ_1D", cat.clone(), q, ess, CostModel::postgresish())
    }

    #[test]
    fn workload_construction_and_accessors() {
        let w = eq_1d_small();
        assert_eq!(w.d(), 1);
        let d = w.diagram();
        assert!(d.plan_count() >= 3);
        let q = w.ess.point_at_fractions(&[0.5]);
        assert!(w.optimal_cost(&q) > 0.0);
    }

    #[test]
    fn typed_dims_accepted_when_kinds_match() {
        let w = eq_1d_small();
        let typed = Ess::uniform(vec![EssDim::selection("p_retailprice", 1e-4, 1.0)], 48);
        let t = Workload::new(
            "EQ_1D_T",
            w.catalog.clone(),
            w.query.clone(),
            typed,
            w.model,
        );
        assert_eq!(t.ess.dims[0].kind, pb_cost::DimKind::Selection);
    }

    #[test]
    #[should_panic(expected = "declared")]
    fn typed_dim_kind_mismatch_rejected() {
        let w = eq_1d_small();
        // Dim 0 is a selection predicate; declaring it as an anti-join axis
        // must be rejected.
        let bad = Ess::uniform(vec![EssDim::anti_join("p_retailprice", 1e-4, 1.0)], 48);
        Workload::new("bad", w.catalog.clone(), w.query.clone(), bad, w.model);
    }

    #[test]
    #[should_panic(expected = "error dims")]
    fn dim_mismatch_rejected() {
        let w = eq_1d_small();
        let bad_ess = Ess::uniform(
            vec![EssDim::new("a", 1e-4, 1.0), EssDim::new("b", 1e-4, 1.0)],
            8,
        );
        Workload::new(
            "bad",
            w.catalog.clone(),
            w.query.clone(),
            bad_ess,
            w.model.clone(),
        );
    }
}
