//! The standing experimental set-ups, restated here so the benchmark does
//! not depend on `pb-bench` (which ROADMAP item 2 will reshape): the Table-3
//! stale-statistics experiment, the two hostile spaces, the six engine plan
//! shapes and the identification ladder.

use crate::api::{
    by_name, h_q8a_2d, hostile_anti_2d, hostile_ineq_2d, measure_qa, random_workload, tpcds, tpch,
    workload_from_sql, Bouquet, BouquetConfig, Catalog, ColumnOverride, Database, Estimator,
    PlanNode, SelPoint, Workload,
};
use crate::gen;
use crate::trace::Tracer;

/// A query with its stale-statistics workload, the bouquet identified on
/// those statistics, and tuples that contradict them.
pub struct EngineCase {
    pub name: &'static str,
    pub workload: Workload,
    pub bouquet: Bouquet,
    pub db: Database,
    pub datagen_s: f64,
    /// Where the stale statistics put the query: what the native optimizer
    /// plans for.
    pub qe: SelPoint,
    /// The optimizer's plan at the location measured on the tuples: what an
    /// oracle would run.
    pub oracle: PlanNode,
}

fn generate(
    catalog: &Catalog,
    seed: u64,
    overrides: &[ColumnOverride],
    tr: &mut Tracer,
) -> Result<(Database, f64), String> {
    let (db, dt) = tr.timed("probe.engine.datagen", |_| {
        Database::generate(catalog, seed, overrides)
    });
    Ok((db.map_err(|e| format!("datagen: {e}"))?, dt))
}

fn ndv(table: &str, column: &str, ndv: u64) -> ColumnOverride {
    ColumnOverride::EffectiveNdv {
        table: table.into(),
        column: column.into(),
        ndv,
    }
}

/// Table 3: `2D_H_Q8A` whose estimator believes the join columns still have
/// full-scale NDVs, over data whose join keys are duplicated on both sides.
/// The size is pinned: at sf 0.05 result rows go quadratic and the engine's
/// decisions stop matching the simulator's.
pub fn table3(data_seed: u64, tr: &mut Tracer) -> Result<EngineCase, String> {
    let mut w = h_q8a_2d(0.01);
    w.catalog.column_stats_mut("part", "p_partkey").ndv = 200_000.0;
    w.catalog.column_stats_mut("lineitem", "l_partkey").ndv = 200_000.0;
    w.catalog.column_stats_mut("orders", "o_orderkey").ndv = 1_500_000.0;
    w.catalog.column_stats_mut("lineitem", "l_orderkey").ndv = 1_500_000.0;
    let overrides = [
        ndv("part", "p_partkey", 200),
        ndv("lineitem", "l_partkey", 200),
        ndv("orders", "o_orderkey", 500),
        ndv("lineitem", "l_orderkey", 500),
    ];
    let data = generate(&w.catalog, data_seed, &overrides, tr)?;
    finish("2D_H_Q8A", w, data)
}

/// Inequality-join space: the estimator is told `s_acctbal` tops out below
/// almost every `p_size`; the data lets ~90 % of pairs through.
pub fn hostile_ineq(data_seed: u64, tr: &mut Tracer) -> Result<EngineCase, String> {
    let mut w = hostile_ineq_2d(0.01);
    let data = generate(&w.catalog, data_seed, &[], tr)?;
    let cs = w.catalog.column_stats_mut("supplier", "s_acctbal");
    cs.max = 1.0;
    cs.histogram = None;
    finish("HOSTILE_INEQ_2D", w, data)
}

/// Anti-join space: join-key NDVs understated 10×, and a stale selection
/// domain that makes `p_retailprice < 1000` look ~100× rarer than it is.
pub fn hostile_anti(data_seed: u64, tr: &mut Tracer) -> Result<EngineCase, String> {
    let mut w = hostile_anti_2d(0.05);
    let data = generate(&w.catalog, data_seed, &[], tr)?;
    let part_rows = w.catalog.table("part").map_or(1.0, |t| t.rows);
    let stale = (part_rows / 10.0).max(1.0);
    w.catalog.column_stats_mut("lineitem", "l_partkey").ndv = stale;
    w.catalog.column_stats_mut("partsupp", "ps_partkey").ndv = stale;
    let cs = w.catalog.column_stats_mut("part", "p_retailprice");
    cs.min = 999.0;
    cs.histogram = None;
    finish("HOSTILE_ANTI_2D", w, data)
}

fn finish(
    name: &'static str,
    workload: Workload,
    (db, datagen_s): (Database, f64),
) -> Result<EngineCase, String> {
    let bouquet = Bouquet::identify(&workload, &BouquetConfig::default())
        .map_err(|e| format!("{name}: identify: {e}"))?;
    let (lo, hi): (Vec<f64>, Vec<f64>) = workload.ess.dims.iter().map(|d| (d.lo, d.hi)).unzip();
    let qe = Estimator::new(&workload.catalog).estimate_point(&workload.query, &lo, &hi);
    let qa = measure_qa(&db, &workload.query, &workload.ess)
        .map_err(|e| format!("{name}: measure qa: {e}"))?;
    let oracle = workload.optimizer().optimize(&qa.0).plan.root;
    Ok(EngineCase {
        name,
        workload,
        bouquet,
        db,
        datagen_s,
        qe,
        oracle,
    })
}

/// The kernel suite's data: plain `2D_H_Q8A` at [`KERNEL_SF`].
pub fn kernel_data(data_seed: u64, tr: &mut Tracer) -> Result<(Workload, Database, f64), String> {
    let w = h_q8a_2d(KERNEL_SF);
    let (db, datagen_s) = generate(&w.catalog, data_seed, &[], tr)?;
    Ok((w, db, datagen_s))
}

/// part ⋈ lineitem ⋈ orders shaped six ways, so every vectorized operator
/// appears once.
pub fn kernel_suite() -> Vec<(&'static str, PlanNode)> {
    let scan = |rel| Box::new(PlanNode::SeqScan { rel });
    let hj_pl = || PlanNode::HashJoin {
        build: scan(0),
        probe: scan(1),
        edges: vec![0],
    };
    vec![
        (
            "hash_join_chain",
            PlanNode::HashJoin {
                build: Box::new(hj_pl()),
                probe: scan(2),
                edges: vec![1],
            },
        ),
        (
            "merge_join_top",
            PlanNode::SortMergeJoin {
                left: Box::new(hj_pl()),
                right: scan(2),
                edges: vec![1],
                sort_left: true,
                sort_right: true,
            },
        ),
        (
            "index_nl_chain",
            PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::IndexNLJoin {
                    outer: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                    inner_rel: 1,
                    edges: vec![0],
                }),
                inner_rel: 2,
                edges: vec![1],
            },
        ),
        (
            "anti_join",
            PlanNode::AntiJoin {
                left: scan(0),
                right: scan(1),
                edges: vec![0],
            },
        ),
        (
            "hash_aggregate",
            PlanNode::HashAggregate {
                input: Box::new(hj_pl()),
            },
        ),
        (
            "spill_chain",
            PlanNode::Spill {
                input: Box::new(hj_pl()),
            },
        ),
    ]
}

/// Scale factor of the kernel suite's data: ≈ 770k base rows, above the
/// engine's 128k-row morsel gate, so the `nproc` pass really fans out.
pub const KERNEL_SF: f64 = 0.1;

/// The README's example query, through the SQL front end.
pub const EQ_SQL: &str = "SELECT * FROM lineitem, orders, part \
     WHERE p_partkey = l_partkey AND l_orderkey = o_orderkey \
     AND p_retailprice < 1000?";

/// One rung of the identification ladder, with what it takes to rebuild its
/// catalog at a drifted scale (the cache-refresh probe).
pub struct Rung {
    /// Name used in metric names (`bouquet.cache.hit_ms.<label>`).
    pub label: &'static str,
    pub workload: Workload,
    drift: fn(f64) -> Catalog,
    sf: f64,
}

impl Rung {
    /// The same query skeleton over statistics gathered at 1.05× the scale.
    pub fn drifted(&self) -> Workload {
        let w = &self.workload;
        Workload::new(
            w.name.clone(),
            (self.drift)(self.sf * 1.05),
            w.query.clone(),
            w.ess.clone(),
            w.model.clone(),
        )
    }
}

/// Wall-clock of the ladder's front-end steps, for the per-layer table.
#[derive(Default)]
pub struct LadderTimes {
    pub catalog_s: Vec<f64>,
    pub from_sql_s: f64,
    pub random_s: Vec<f64>,
}

/// 2D → 5D registry queries, the SQL-text query, and one 2-dim and one
/// 3-dim seeded random draw (the first candidate of each that identifies).
pub fn ladder(seed: u64, tr: &mut Tracer) -> Result<(Vec<Rung>, LadderTimes), String> {
    let mut times = LadderTimes::default();
    // The registry builds its own catalogs; these two builds are what the
    // per-layer table times.
    let (h, dt) = tr.timed("probe.catalog.build", |_| tpch::catalog(1.0));
    times.catalog_s.push(dt);
    let (_, dt) = tr.timed("probe.catalog.build", |_| tpcds::catalog(100.0));
    times.catalog_s.push(dt);

    let mut rungs = Vec::new();
    for (label, drift, sf) in [
        ("2D_H_Q8A", tpch::catalog as fn(f64) -> Catalog, 0.01),
        ("3D_H_Q5", tpch::catalog, 1.0),
        ("4D_DS_Q7", tpcds::catalog, 100.0),
        ("5D_H_Q7", tpch::catalog, 1.0),
    ] {
        let workload = by_name(label).ok_or_else(|| format!("registry lacks {label}"))?;
        rungs.push(Rung {
            label,
            workload,
            drift,
            sf,
        });
    }

    let (eq, dt) = tr.timed("probe.workloads.from_sql", |_| {
        workload_from_sql(&h, EQ_SQL, "EQ_SQL", 4.0, 64)
    });
    times.from_sql_s = dt;
    rungs.push(Rung {
        label: "EQ_SQL",
        workload: eq.map_err(|e| format!("EQ_SQL: {e:?}"))?,
        drift: tpch::catalog,
        sf: 1.0,
    });

    for (label, dims) in [("RANDOM_2D", 2), ("RANDOM_3D", 3)] {
        let mut found = None;
        for k in 0..16 {
            let cfg = gen::random_config(seed, dims, k);
            let (w, dt) = tr.timed("probe.workloads.random", |_| random_workload(&cfg));
            if w.d() == dims && Bouquet::identify(&w, &BouquetConfig::default()).is_ok() {
                times.random_s.push(dt);
                found = Some(w);
                break;
            }
        }
        let workload = found.ok_or_else(|| format!("{label}: no draw out of 16 identifies"))?;
        rungs.push(Rung {
            label,
            workload,
            drift: tpch::catalog,
            sf: 1.0,
        });
    }
    Ok((rungs, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_suite_has_the_six_named_shapes() {
        let names: Vec<&str> = kernel_suite().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "hash_join_chain",
                "merge_join_top",
                "index_nl_chain",
                "anti_join",
                "hash_aggregate",
                "spill_chain"
            ]
        );
        for n in names {
            assert!(crate::metrics::lookup(&format!("engine.kernel_ms.{n}")).is_some());
        }
    }

    #[test]
    fn ladder_rungs_have_their_cache_metric() {
        let (rungs, times) = ladder(3, &mut Tracer::off()).unwrap();
        assert_eq!(rungs.len(), 7);
        for r in &rungs {
            assert!(
                crate::metrics::lookup(&format!("bouquet.cache.hit_ms.{}", r.label)).is_some(),
                "{} has no cache metric",
                r.label
            );
        }
        assert_eq!(rungs[5].workload.d(), 2);
        assert_eq!(rungs[6].workload.d(), 3);
        assert_eq!(times.random_s.len(), 2);
        // The drifted sibling keeps the skeleton and changes the statistics.
        let d = rungs[1].drifted();
        assert_eq!(d.query, rungs[1].workload.query);
        assert_eq!(d.ess, rungs[1].workload.ess);
    }
}
