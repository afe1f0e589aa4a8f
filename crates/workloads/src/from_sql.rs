//! Build a complete [`Workload`] straight from SQL text.
//!
//! The ESS is derived automatically: each `?`-marked predicate becomes a
//! dimension whose upper bound is its maximum legal selectivity (1 for
//! selections and inequality joins; [`join_ceiling`], the PK–FK reciprocal
//! rule of Section 4.1, for equi, anti and semi joins), spanning `decades`
//! decades below it. The clauses after a `?` ([`DimMark`]) override the
//! axis name, its span, and the multiple of the legal maximum it reaches,
//! and declare a NOT EXISTS axis flipped. An axis is only a name and a
//! range: what kind of axis it is stays with its predicate
//! ([`QuerySpec::dim_kind`]).

use pb_bouquet::Workload;
use pb_catalog::Catalog;
use pb_cost::{CostModel, Ess, EssDim};
use pb_plan::{
    join_ceiling, parse_with_marks, DimMark, ParseError, QueryBuilder, QuerySpec, SelSpec,
};

/// Derive the ESS for a parsed query's error dimensions; `marks` holds
/// each dimension's `?` clauses. An axis whose clauses leave it no
/// positive span below its upper bound is an error.
pub fn derive_ess(
    catalog: &Catalog,
    query: &QuerySpec,
    marks: &[DimMark],
    decades: f64,
    resolution: usize,
) -> Result<Ess, ParseError> {
    let ceiling = |d: usize| marks[d].ceiling.unwrap_or(1.0);
    // (default name, upper bound) per dimension. What kind of axis each is
    // stays with its predicate (`QuerySpec::dim_kind`).
    let mut axes: Vec<Option<(String, f64)>> = vec![None; query.num_dims];
    for r in &query.relations {
        for s in &r.selections {
            if let Some(d) = s.selectivity.error_dim() {
                let t = catalog.table_by_id(s.column.table);
                let name = format!("{}.{}", r.alias, t.columns[s.column.column as usize].name);
                axes[d] = Some((name, ceiling(d).min(1.0)));
            }
        }
    }
    for j in &query.joins {
        if let Some(d) = j.selectivity.error_dim() {
            let hi = if j.is_equi() {
                join_ceiling(catalog, j.left_col, j.right_col, ceiling(d))
            } else {
                ceiling(d).min(1.0)
            };
            let name = format!(
                "{}⋈{}",
                query.relations[j.left_rel].alias, query.relations[j.right_rel].alias
            );
            axes[d] = Some((name, hi));
        }
    }
    let dims = axes
        .into_iter()
        .zip(marks)
        .map(|(axis, mark)| {
            let (name, hi) = axis.expect("every dim is referenced by a predicate");
            let name = mark.name.clone().unwrap_or(name);
            let lo = hi / 10f64.powf(mark.span.unwrap_or(decades));
            if lo > 0.0 && lo < hi {
                Ok(EssDim::new(name, lo, hi))
            } else {
                Err(ParseError {
                    message: format!("axis `{name}` spans no selectivities: [{lo}, {hi}]"),
                    near: name,
                })
            }
        })
        .collect::<Result<_, _>>()?;
    Ok(Ess::uniform(dims, resolution))
}

/// Parse `sql` against `catalog` and wrap it into a ready-to-identify
/// workload. `decades` is each dimension's span unless its `SPAN` clause
/// says otherwise; `resolution` the grid steps per dimension.
pub fn workload_from_sql(
    catalog: &Catalog,
    sql: &str,
    name: impl Into<String>,
    decades: f64,
    resolution: usize,
) -> Result<Workload, ParseError> {
    let (mut query, marks) = parse_with_marks(catalog, sql)?;
    if query.num_dims == 0 {
        return Err(ParseError {
            message: "no error-prone predicate: mark at least one with a trailing `?`".into(),
            near: "end of input".into(),
        });
    }
    let name = name.into();
    query.name = name.clone();
    let ess = derive_ess(catalog, &query, &marks, decades, resolution)?;
    // A flipped axis reads `pivot / coordinate` with `pivot = lo · hi`, the
    // reflection `pb_bouquet::flip` applies to a decreasing axis.
    QueryBuilder::rewrite_specs(&mut query, |spec| match *spec {
        SelSpec::ErrorProne(dim) if marks[dim].flipped => SelSpec::Flipped {
            dim,
            pivot: ess.dims[dim].lo * ess.dims[dim].hi,
        },
        other => other,
    });
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
        // hi = 1/max(NDV(p_partkey), NDV(l_partkey)) = 1/|part|, the PK
        // side, not 1/|lineitem|.
        assert_eq!(w.ess.dims[0].hi, 1.0 / 200_000.0);
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
    fn axis_clauses_shape_the_box() {
        let cat = tpch::catalog(1.0);
        let w = workload_from_sql(
            &cat,
            "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey \
             AND NOT EXISTS (SELECT * FROM partsupp WHERE ps_partkey = l_partkey) \
             ? AS 'anti' SPAN 2 CEILING 100 FLIPPED",
            "A",
            4.0,
            8,
        )
        .unwrap();
        let d = &w.ess.dims[0];
        assert_eq!(
            (d.name.as_str(), d.hi, d.lo),
            ("anti", 100.0 / 200_000.0, d.hi / 100.0)
        );
        assert_eq!(
            w.query.joins[1].selectivity,
            SelSpec::Flipped {
                dim: 0,
                pivot: d.lo * d.hi
            }
        );
        // A span too small to separate the bounds, or one so large the
        // lower bound underflows, is refused, not asserted.
        for span in ["1e-300", "400"] {
            let sql =
                format!("SELECT * FROM part, lineitem WHERE p_partkey = l_partkey ? SPAN {span}");
            let err = workload_from_sql(&cat, &sql, "X", 3.0, 8).unwrap_err();
            assert!(err.message.contains("spans no selectivities"), "{err}");
        }
    }

    #[test]
    fn parse_errors_propagate() {
        let cat = tpch::catalog(1.0);
        assert!(workload_from_sql(&cat, "SELECT * FROM nope WHERE a = b", "X", 3.0, 8).is_err());
    }
}
