//! Build a complete [`Workload`] straight from SQL text.
//!
//! The ESS is derived automatically: each `?`-marked predicate becomes a
//! dimension whose upper bound is its maximum legal selectivity (1 for
//! selections; `1 / max(|L|, |R|)` for equi-joins, the PK–FK reciprocal
//! rule of Section 4.1), spanning `decades` decades below it.

use pb_bouquet::Workload;
use pb_catalog::Catalog;
use pb_cost::{CostModel, Ess, EssDim};
use pb_plan::{parse_sql, ParseError, QuerySpec};

/// Derive the ESS for a parsed query's error dimensions.
pub fn derive_ess(catalog: &Catalog, query: &QuerySpec, decades: f64, resolution: usize) -> Ess {
    let mut dims: Vec<Option<EssDim>> = vec![None; query.num_dims];
    for r in &query.relations {
        for s in &r.selections {
            if let Some(d) = s.selectivity.error_dim() {
                let t = catalog.table_by_id(s.column.table);
                let name = format!("{}.{}", r.alias, t.columns[s.column.column as usize].name);
                dims[d] = Some(EssDim::selection(name, 10f64.powf(-decades), 1.0));
            }
        }
    }
    for j in &query.joins {
        if let Some(d) = j.selectivity.error_dim() {
            let rows_l = catalog.table_by_id(j.left_col.table).rows;
            let rows_r = catalog.table_by_id(j.right_col.table).rows;
            let hi = (1.0 / rows_l.max(rows_r)).min(1.0);
            let name = format!(
                "{}⋈{}",
                query.relations[j.left_rel].alias, query.relations[j.right_rel].alias
            );
            // Join axes carry the edge's own kind (PK–FK, inequality,
            // anti/semi) so the typed-dimension validation holds for any
            // parsed query shape.
            dims[d] = Some(EssDim::new(name, hi / 10f64.powf(decades), hi).with_kind(j.dim_kind()));
        }
    }
    Ess::uniform(
        dims.into_iter()
            .map(|d| d.expect("every dim is referenced by a predicate"))
            .collect(),
        resolution,
    )
}

/// Parse `sql` against `catalog` and wrap it into a ready-to-identify
/// workload. `decades` controls each dimension's span; `resolution` the
/// grid steps per dimension.
pub fn workload_from_sql(
    catalog: &Catalog,
    sql: &str,
    name: impl Into<String>,
    decades: f64,
    resolution: usize,
) -> Result<Workload, ParseError> {
    let mut query = parse_sql(catalog, sql)?;
    if query.num_dims == 0 {
        return Err(ParseError {
            message: "no error-prone predicate: mark at least one with a trailing `?`".into(),
            near: "end of input".into(),
        });
    }
    let name = name.into();
    query.name = name.clone();
    let ess = derive_ess(catalog, &query, decades, resolution);
    Ok(Workload::new(
        name,
        catalog.clone(),
        query,
        ess,
        CostModel::postgresish(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_bouquet::{Bouquet, BouquetConfig};
    use pb_catalog::tpch;

    /// The paper's Figure 1 query, end to end from SQL text to a verified
    /// bouquet run — the full pipeline in one test.
    #[test]
    fn figure1_sql_to_discovery() {
        let cat = tpch::catalog(1.0);
        let w = workload_from_sql(
            &cat,
            "SELECT * FROM lineitem, orders, part \
             WHERE p_partkey = l_partkey AND l_orderkey = o_orderkey \
             AND p_retailprice < 1000?",
            "EQ_SQL",
            4.0,
            48,
        )
        .unwrap();
        assert_eq!(w.d(), 1);
        let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
        assert!(b.stats.bouquet_cardinality >= 2);
        let qa = w.ess.point_at_fractions(&[0.7]);
        let run = b.run_basic(&qa).unwrap();
        assert!(run.completed());
        assert!(run.suboptimality(b.pic_cost(&qa)) <= b.mso_bound() * (1.0 + 1e-9));
    }

    #[test]
    fn join_dims_get_reciprocal_upper_bounds() {
        let cat = tpch::catalog(1.0);
        let w = workload_from_sql(
            &cat,
            "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey?",
            "J",
            3.0,
            10,
        )
        .unwrap();
        // hi = 1/max(|part|, |lineitem|) = 1/6M.
        assert!((w.ess.dims[0].hi - 1.0 / 6_000_000.0).abs() < 1e-15);
        assert!((w.ess.dims[0].lo - w.ess.dims[0].hi / 1e3).abs() < 1e-18);
    }

    #[test]
    fn selection_dims_span_to_one() {
        let cat = tpch::catalog(1.0);
        let w = workload_from_sql(
            &cat,
            "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey \
             AND p_retailprice < 1200? AND p_size > 10?",
            "S",
            4.0,
            8,
        )
        .unwrap();
        assert_eq!(w.d(), 2);
        assert_eq!(w.ess.dims[0].hi, 1.0);
        assert_eq!(w.ess.dims[1].hi, 1.0);
        assert!(w.ess.dims[0].name.contains("p_retailprice"));
    }

    #[test]
    fn parse_errors_propagate() {
        let cat = tpch::catalog(1.0);
        assert!(workload_from_sql(&cat, "SELECT * FROM nope WHERE a = b", "X", 3.0, 8).is_err());
    }
}
