//! Registry of the named error spaces: the paper's Table 2 suite plus the
//! auxiliary and hostile spaces. Each space is one SQL string, parsed by
//! [`workload_from_sql`], with the catalog, span, resolution and cost model
//! the text does not state.

use pb_bouquet::Workload;
use pb_catalog::{tpcds, tpch, Catalog};
use pb_cost::CostModel;
use pb_plan::GraphShape;

use crate::workload_from_sql;

/// One named space.
struct Space {
    name: &'static str,
    /// The catalog builder, and the scale factor [`by_name`] builds it at.
    catalog: fn(f64) -> Catalog,
    scale: f64,
    /// Span of a `?` axis without a `SPAN` clause, in decades.
    decades: f64,
    resolution: usize,
    model: fn() -> CostModel,
    /// The paper's reported C_max/C_min (Table 2) for the suite's ten
    /// spaces — our calibration target; `None` for the auxiliaries.
    paper_cost_ratio: Option<f64>,
    sql: &'static str,
}

impl Space {
    fn build(&self, scale: f64) -> Workload {
        let mut w = workload_from_sql(
            &(self.catalog)(scale),
            self.sql,
            self.name,
            self.decades,
            self.resolution,
        )
        .unwrap_or_else(|e| panic!("registry space {}: {e}", self.name));
        w.model = (self.model)();
        w
    }
}

/// A TPC-H space at 1 GB under the PostgreSQL-like cost model.
const fn h(
    name: &'static str,
    decades: f64,
    resolution: usize,
    paper_cost_ratio: Option<f64>,
    sql: &'static str,
) -> Space {
    Space {
        name,
        catalog: tpch::catalog,
        scale: 1.0,
        decades,
        resolution,
        model: CostModel::postgresish,
        paper_cost_ratio,
        sql,
    }
}

/// TPC-DS spaces run at the paper's 100 GB.
const fn ds(
    name: &'static str,
    resolution: usize,
    paper_cost_ratio: f64,
    sql: &'static str,
) -> Space {
    Space {
        catalog: tpcds::catalog,
        scale: 100.0,
        paper_cost_ratio: Some(paper_cost_ratio),
        ..h(name, 4.0, resolution, None, sql)
    }
}

/// Every named space; the Table 2 suite first, in the paper's order. The
/// suite reproduces each query's join-graph geometry (chain / star / branch
/// with the stated relation count) and its number of error-prone
/// join-selectivity dimensions; the spans are calibrated so the cost
/// gradient C_max/C_min is near the paper's Table 2 value.
const SPACES: &[Space] = &[
    h(
        "3D_H_Q5",
        4.0,
        20,
        Some(16.0),
        "SELECT * FROM region, nation, supplier, lineitem, orders, customer \
         WHERE r_regionkey = n_regionkey AND n_nationkey = s_nationkey \
         AND s_suppkey = l_suppkey ? AS 's⋈l' \
         AND l_orderkey = o_orderkey ? AS 'l⋈o' \
         AND o_custkey = c_custkey ? AS 'o⋈c'",
    ),
    h(
        "3D_H_Q7",
        4.0,
        20,
        Some(5.0),
        "SELECT * FROM nation AS n1, supplier, lineitem, orders, customer, nation AS n2 \
         WHERE n1.n_nationkey = s_nationkey \
         AND s_suppkey = l_suppkey ? AS 's⋈l' \
         AND l_orderkey = o_orderkey ? AS 'l⋈o' \
         AND o_custkey = c_custkey ? AS 'o⋈c' \
         AND c_nationkey = n2.n_nationkey",
    ),
    h(
        "4D_H_Q8",
        4.0,
        11,
        Some(28.0),
        "SELECT * FROM part, supplier, lineitem, orders, customer, \
         nation AS n1, nation AS n2, region \
         WHERE p_partkey = l_partkey ? AS 'p⋈l' \
         AND s_suppkey = l_suppkey ? AS 's⋈l' \
         AND l_orderkey = o_orderkey ? AS 'l⋈o' \
         AND o_custkey = c_custkey ? AS 'o⋈c' \
         AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey \
         AND s_nationkey = n2.n_nationkey",
    ),
    h(
        "5D_H_Q7",
        1.5,
        7,
        Some(50.0),
        "SELECT * FROM nation AS n1, supplier, lineitem, orders, customer, nation AS n2 \
         WHERE n1.n_nationkey = s_nationkey ? AS 'n1⋈s' \
         AND s_suppkey = l_suppkey ? AS 's⋈l' \
         AND l_orderkey = o_orderkey ? AS 'l⋈o' \
         AND o_custkey = c_custkey ? AS 'o⋈c' \
         AND c_nationkey = n2.n_nationkey ? AS 'c⋈n2'",
    ),
    ds(
        "3D_DS_Q15",
        20,
        668.0,
        "SELECT * FROM date_dim, catalog_sales, customer, customer_address \
         WHERE d_date_sk = cs_sold_date_sk ? AS 'd⋈cs' \
         AND cs_bill_customer_sk = c_customer_sk ? AS 'cs⋈c' \
         AND c_current_addr_sk = ca_address_sk ? AS 'c⋈ca'",
    ),
    ds(
        "3D_DS_Q96",
        20,
        185.0,
        "SELECT * FROM store_sales, date_dim, household_demographics, store \
         WHERE ss_sold_date_sk = d_date_sk ? AS 'ss⋈d' \
         AND ss_hdemo_sk = hd_demo_sk ? AS 'ss⋈hd' \
         AND ss_store_sk = s_store_sk ? AS 'ss⋈s'",
    ),
    ds(
        "4D_DS_Q7",
        11,
        283.0,
        "SELECT * FROM store_sales, customer_demographics, date_dim, item, promotion \
         WHERE ss_cdemo_sk = cd_demo_sk ? AS 'ss⋈cd' \
         AND ss_sold_date_sk = d_date_sk ? AS 'ss⋈d' \
         AND ss_item_sk = i_item_sk ? AS 'ss⋈i' \
         AND ss_promo_sk = p_promo_sk ? AS 'ss⋈p'",
    ),
    ds(
        "4D_DS_Q26",
        11,
        341.0,
        "SELECT * FROM catalog_sales, customer_demographics, date_dim, item, promotion \
         WHERE cs_bill_cdemo_sk = cd_demo_sk ? AS 'cs⋈cd' \
         AND cs_sold_date_sk = d_date_sk ? AS 'cs⋈d' \
         AND cs_item_sk = i_item_sk ? AS 'cs⋈i' \
         AND cs_promo_sk = p_promo_sk ? AS 'cs⋈p'",
    ),
    ds(
        "4D_DS_Q91",
        11,
        149.0,
        "SELECT * FROM catalog_returns, call_center, date_dim, customer, \
         customer_address, customer_demographics, household_demographics \
         WHERE cr_item_sk = cc_call_center_sk SELECTIVITY 0.03333333333333333 \
         AND cr_returned_date_sk = d_date_sk ? AS 'cr⋈d' \
         AND cr_returning_customer_sk = c_customer_sk ? AS 'cr⋈c' \
         AND c_current_addr_sk = ca_address_sk ? AS 'c⋈ca' \
         AND c_current_cdemo_sk = cd_demo_sk ? AS 'c⋈cd' \
         AND c_current_hdemo_sk = hd_demo_sk",
    ),
    // The paper's flagship example: NAT's MSO of ~10⁶ collapses to ~10
    // under the bouquet.
    ds(
        "5D_DS_Q19",
        7,
        183.0,
        "SELECT * FROM store_sales, date_dim, item, customer, customer_address, store \
         WHERE ss_sold_date_sk = d_date_sk ? AS 'ss⋈d' \
         AND ss_item_sk = i_item_sk ? AS 'ss⋈i' \
         AND ss_customer_sk = c_customer_sk ? AS 'ss⋈c' \
         AND c_current_addr_sk = ca_address_sk ? AS 'c⋈ca' \
         AND ss_store_sk = s_store_sk ? AS 'ss⋈s'",
    ),
    // The paper's introductory example EQ (Figure 1): one selection
    // dimension spanning 0.01%–100%, as in Figures 2–4.
    h(
        "EQ_1D",
        4.0,
        100,
        None,
        "SELECT * FROM part, lineitem, orders \
         WHERE p_retailprice < 1000 ? AS 'p_retailprice' \
         AND p_partkey = l_partkey \
         AND l_orderkey = o_orderkey SELECTIVITY 6.7e-7",
    ),
    // The run-time experiment of Section 6.7 / Table 3, built at a reduced
    // scale so the engine can run it end to end ([`h_q8a_2d`]). Its axes
    // reach well above the PK–FK maximum: the experiment's generated data
    // duplicates the "key" columns (the AVI violation that manufactures
    // the under-estimate), so actual join selectivities rise above it.
    Space {
        scale: 0.01,
        ..h(
            "2D_H_Q8A",
            3.5,
            48,
            None,
            "SELECT * FROM part, lineitem, orders \
             WHERE p_retailprice < 1100 \
             AND p_partkey = l_partkey ? AS 'p⋈l' CEILING 50 \
             AND l_orderkey = o_orderkey ? AS 'l⋈o' CEILING 100",
        )
    },
    // The PCM-violating space of the `pcmflip` exhibit: a NOT EXISTS axis
    // whose raw direction makes the PIC *decrease*. Identification fails
    // until `pb_bouquet::flip::flip_decreasing` flips it.
    h(
        "ANTI_2D",
        4.0,
        16,
        None,
        "SELECT * FROM part, lineitem \
         WHERE p_retailprice < 1000 ? AS 'p_retailprice' \
         AND p_partkey = l_partkey \
         AND NOT EXISTS (SELECT * FROM partsupp WHERE ps_partkey = l_partkey) \
         ? AS 'anti l⋈ps' SPAN 2 CEILING 0.25",
    ),
    // The commercial-engine variants of Section 6.8: the error dimensions
    // are selections on base relations (which COM can inject by changing
    // query constants), costed with the commercial personality.
    Space {
        model: CostModel::commercialish,
        ..h(
            "3D_H_Q5B",
            3.0,
            20,
            None,
            "SELECT * FROM supplier, lineitem, orders, customer \
             WHERE s_acctbal < 0 ? AS 's_acctbal' \
             AND o_totalprice < 0 ? AS 'o_totalprice' \
             AND c_acctbal < 0 ? AS 'c_acctbal' \
             AND s_suppkey = l_suppkey \
             AND l_orderkey = o_orderkey SELECTIVITY 6.7e-7 \
             AND o_custkey = c_custkey SELECTIVITY 6.7e-6",
        )
    },
    Space {
        model: CostModel::commercialish,
        ..h(
            "4D_H_Q8B",
            3.0,
            11,
            None,
            "SELECT * FROM part, supplier, lineitem, orders, customer \
             WHERE p_retailprice < 0 ? AS 'p_retailprice' \
             AND s_acctbal < 0 ? AS 's_acctbal' \
             AND o_totalprice < 0 ? AS 'o_totalprice' \
             AND c_acctbal < 0 ? AS 'c_acctbal' \
             AND p_partkey = l_partkey AND s_suppkey = l_suppkey \
             AND l_orderkey = o_orderkey SELECTIVITY 6.7e-7 \
             AND o_custkey = c_custkey SELECTIVITY 6.7e-6",
        )
    },
    // Hostile spaces: axes that are not the classic selection / PK–FK
    // kinds the paper evaluates, sized by a scale factor so the engine can
    // run them to completion. The inequality join only nested-loop
    // operators can evaluate, so the plan space skews toward BNL
    // pipelines; its pair density spans "almost never" to "always true".
    Space {
        scale: 0.01,
        ..h(
            "HOSTILE_INEQ_2D",
            4.0,
            16,
            None,
            "SELECT * FROM part, lineitem, supplier \
             WHERE p_retailprice < 1000 ? AS 'p_retailprice' \
             AND p_partkey = l_partkey \
             AND p_size < s_acctbal ? AS 'p<s' SPAN 3",
        )
    },
    // The NOT EXISTS axis ships flipped, so identification succeeds with
    // no `flip_decreasing` pass; its raw match density sits near
    // 1/NDV(partkey), and the span puts realistic data (and hostile NDV
    // skew) in the interior.
    Space {
        scale: 0.01,
        ..h(
            "HOSTILE_ANTI_2D",
            4.0,
            16,
            None,
            "SELECT * FROM part, lineitem \
             WHERE p_retailprice < 1000 ? AS 'p_retailprice' \
             AND p_partkey = l_partkey \
             AND NOT EXISTS (SELECT * FROM partsupp WHERE ps_partkey = l_partkey) \
             ? AS 'anti l⋈ps' CEILING 100 FLIPPED",
        )
    },
];

fn space(name: &str) -> Option<&'static Space> {
    SPACES.iter().find(|s| s.name == name)
}

/// A space the registry is known to hold, at TPC-H scale `scale`.
fn at_scale(name: &str, scale: f64) -> Workload {
    space(name).expect("a registered space").build(scale)
}

/// Every named space's name and SQL text, the Table 2 suite first.
pub fn sql_texts() -> impl Iterator<Item = (&'static str, &'static str)> {
    SPACES.iter().map(|s| (s.name, s.sql))
}

/// Look up any named space (benchmark suite + auxiliaries).
pub fn by_name(name: &str) -> Option<Workload> {
    space(name).map(|s| s.build(s.scale))
}

/// `2D_H_Q8A` (Table 3's run-time experiment) at TPC-H scale `scale`.
pub fn h_q8a_2d(scale: f64) -> Workload {
    at_scale("2D_H_Q8A", scale)
}

/// `HOSTILE_INEQ_2D` (an inequality-join axis) at TPC-H scale `scale`.
pub fn hostile_ineq_2d(scale: f64) -> Workload {
    at_scale("HOSTILE_INEQ_2D", scale)
}

/// `HOSTILE_ANTI_2D` (a flipped anti-join axis) at TPC-H scale `scale`.
pub fn hostile_anti_2d(scale: f64) -> Workload {
    at_scale("HOSTILE_ANTI_2D", scale)
}

/// The Table 2 spaces with their paper cost ratios.
fn suite() -> impl Iterator<Item = (&'static Space, f64)> {
    SPACES.iter().filter_map(|s| Some((s, s.paper_cost_ratio?)))
}

/// Static description of one Table 2 entry, read off its workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub shape: GraphShape,
    pub relations: usize,
    pub dims: usize,
    /// The paper's reported C_max/C_min (Table 2) — our calibration target.
    pub paper_cost_ratio: f64,
}

/// The ten benchmark error spaces of Table 2, in the paper's order.
pub fn specs() -> Vec<WorkloadSpec> {
    suite()
        .map(|(s, paper_cost_ratio)| {
            let w = s.build(s.scale);
            WorkloadSpec {
                name: s.name,
                shape: w.query.join_graph().shape(),
                relations: w.query.num_relations(),
                dims: w.d(),
                paper_cost_ratio,
            }
        })
        .collect()
}

/// Instantiate the full Table 2 suite.
pub fn benchmark_suite() -> Vec<Workload> {
    suite().map(|(s, _)| s.build(s.scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_space_parses_under_its_name() {
        for s in SPACES {
            let w = by_name(s.name).unwrap();
            assert_eq!(w.name, s.name);
            assert_eq!(w.query.name, s.name);
        }
        assert_eq!(h_q8a_2d(0.01).name, "2D_H_Q8A");
        assert_eq!(hostile_ineq_2d(0.01).name, "HOSTILE_INEQ_2D");
        assert_eq!(hostile_anti_2d(0.01).name, "HOSTILE_ANTI_2D");
        assert!(by_name("nope").is_none());
    }

    /// The suite's geometry is the paper's Table 2.
    #[test]
    fn suite_matches_table2() {
        use GraphShape::*;
        let table2 = [
            ("3D_H_Q5", Chain, 6, 3),
            ("3D_H_Q7", Chain, 6, 3),
            ("4D_H_Q8", Branch, 8, 4),
            ("5D_H_Q7", Chain, 6, 5),
            ("3D_DS_Q15", Chain, 4, 3),
            ("3D_DS_Q96", Star, 4, 3),
            ("4D_DS_Q7", Star, 5, 4),
            ("4D_DS_Q26", Star, 5, 4),
            ("4D_DS_Q91", Branch, 7, 4),
            ("5D_DS_Q19", Branch, 6, 5),
        ];
        let specs = specs();
        assert_eq!(specs.len(), table2.len());
        for (s, (name, shape, relations, dims)) in specs.iter().zip(table2) {
            assert_eq!(
                (s.name, s.shape, s.relations, s.dims),
                (name, shape, relations, dims)
            );
        }
    }

    /// The upper bound of a `?`-join is the PK side's `1/|relation|`.
    #[test]
    fn join_axes_reach_the_pk_fk_maximum() {
        let w = by_name("3D_H_Q5").unwrap();
        assert_eq!(w.ess.dims[0].hi, 1.0 / 10_000.0);
        assert_eq!(w.ess.dims[0].lo, 1.0 / 10_000.0 / 1e4);
    }

    #[test]
    fn com_variants_use_commercial_personality() {
        assert_eq!(by_name("3D_H_Q5B").unwrap().model.name, "commercialish");
        assert_eq!(by_name("4D_H_Q8B").unwrap().model.name, "commercialish");
        assert_eq!(by_name("3D_H_Q5").unwrap().model.name, "postgresish");
    }

    #[test]
    fn typed_axes_carry_their_kinds() {
        use pb_cost::DimKind;
        for (w, kind) in [
            (hostile_ineq_2d(0.01), DimKind::InequalityJoin),
            (hostile_anti_2d(0.01), DimKind::AntiJoin),
            (by_name("ANTI_2D").unwrap(), DimKind::AntiJoin),
        ] {
            assert_eq!(w.ess.dims[0].kind, DimKind::Selection);
            assert_eq!(w.ess.dims[1].kind, kind);
            assert_eq!(w.query.dim_kind(1), Some(kind));
        }
    }

    /// Both hostile spaces identify as declared — the anti axis is flipped
    /// already, so a further flip pass finds nothing to reverse — and hold
    /// the guarantee.
    #[test]
    fn hostile_spaces_identify_with_full_guarantee() {
        use pb_bouquet::{Bouquet, BouquetConfig};
        for w in [hostile_ineq_2d(0.01), hostile_anti_2d(0.01)] {
            let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
            let (same, flips) = pb_bouquet::flip::flip_decreasing(&w).unwrap();
            assert!(flips.iter().all(|&f| !f), "{}: {flips:?}", w.name);
            assert_eq!(same.query, w.query);
            for li in [0, w.ess.num_points() / 2, w.ess.num_points() - 1] {
                let qa = w.ess.point(&w.ess.unlinear(li));
                let run = b.run_basic(&qa).unwrap();
                assert!(run.completed());
                assert!(run.suboptimality(b.pic_cost_at(li)) <= b.mso_bound() * (1.0 + 1e-9));
            }
        }
    }
}
