//! Randomized SPJ workload generation over the TPC-H schema.
//!
//! The paper's evaluation uses ten handcrafted error spaces; to gain
//! confidence that the bouquet machinery is not overfitted to them, this
//! module draws random connected join trees from TPC-H's foreign-key graph,
//! marks random joins error-prone, and sprinkles random selections. Stress
//! tests then assert the full pipeline (identification → discovery →
//! guarantee) on every draw.

use pb_bouquet::Workload;
use pb_catalog::tpch;
use pb_cost::{CostModel, Ess, EssDim};
use pb_plan::{join_ceiling, CmpOp, QueryBuilder, SelSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Knobs for the generator.
#[derive(Debug, Clone)]
pub struct RandomConfig {
    /// Relations in the join tree (2..=8).
    pub relations: usize,
    /// Error-prone join dimensions (≤ relations − 1).
    pub dims: usize,
    /// Decades each error dimension spans below its legal maximum.
    pub decades: f64,
    /// Grid resolution per dimension.
    pub resolution: usize,
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            relations: 4,
            dims: 2,
            decades: 3.0,
            resolution: 12,
            seed: 0,
        }
    }
}

/// TPC-H FK edges as (fk_table, fk_col, pk_table, pk_col).
const FK_EDGES: &[(&str, &str, &str, &str)] = &[
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
];

/// Candidate range-selection columns per table (column, lo, hi).
const SELECTIONS: &[(&str, &str, f64, f64)] = &[
    ("part", "p_retailprice", 900.0, 2099.0),
    ("part", "p_size", 1.0, 50.0),
    ("supplier", "s_acctbal", -999.99, 9999.99),
    ("customer", "c_acctbal", -999.99, 9999.99),
    ("orders", "o_totalprice", 857.71, 555285.16),
    ("lineitem", "l_quantity", 1.0, 50.0),
];

/// Draw a random workload. Deterministic in `cfg.seed`.
pub fn random_workload(cfg: &RandomConfig) -> Workload {
    assert!((2..=8).contains(&cfg.relations));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cat = tpch::catalog(1.0);

    // Grow a random connected subtree of the FK graph.
    let mut tables: Vec<&str> = Vec::new();
    let mut edges: Vec<(usize, &str, usize, &str)> = Vec::new(); // (fk_rel, fk_col, pk_rel, pk_col)
    let start = FK_EDGES[rng.random_range(0..FK_EDGES.len())];
    tables.push(start.0);
    while tables.len() < cfg.relations {
        // Candidate edges touching exactly one chosen table.
        let cands: Vec<&(&str, &str, &str, &str)> = FK_EDGES
            .iter()
            .filter(|(f, _, p, _)| tables.contains(f) != tables.contains(p))
            .collect();
        if cands.is_empty() {
            break;
        }
        let e = cands[rng.random_range(0..cands.len())];
        let (f, fc, p, pc) = *e;
        if !tables.contains(&f) {
            tables.push(f);
        }
        if !tables.contains(&p) {
            tables.push(p);
        }
        let fi = tables.iter().position(|t| *t == f).unwrap();
        let pi = tables.iter().position(|t| *t == p).unwrap();
        if !edges
            .iter()
            .any(|(a, ac, b, _)| *a == fi && *b == pi && *ac == fc)
        {
            edges.push((fi, fc, pi, pc));
        }
    }

    // Assign error-prone dims to a random subset of edges.
    let dims = cfg.dims.min(edges.len());
    let mut order: Vec<usize> = (0..edges.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    let error_edges: Vec<usize> = order.into_iter().take(dims).collect();

    let mut qb = QueryBuilder::new(&cat, format!("random-{}", cfg.seed));
    let rels: Vec<usize> = tables.iter().map(|t| qb.rel(t)).collect();
    let mut ess_dims = Vec::new();
    let column = |rel: usize, name: &str| cat.table(tables[rel]).unwrap().column(name).unwrap().id;
    for (ei, (fi, fc, pi, pc)) in edges.iter().enumerate() {
        // The SQL path's PK–FK maximum: a `?`-join's ceiling and an
        // unmarked join's estimate.
        let hi = join_ceiling(&cat, column(*fi, fc), column(*pi, pc), 1.0);
        let spec = if let Some(d) = error_edges.iter().position(|&x| x == ei) {
            ess_dims.push((
                d,
                EssDim::new(format!("{fc}⋈{pc}"), hi / 10f64.powf(cfg.decades), hi),
            ));
            SelSpec::ErrorProne(d)
        } else {
            SelSpec::Fixed(hi)
        };
        qb.join(rels[*fi], fc, rels[*pi], pc, spec);
    }
    // Random fixed selections (error-free, per the paper's premise that
    // base-predicate selectivities are estimable).
    for (t, col, lo, hi) in SELECTIONS {
        if let Some(pos) = tables.iter().position(|x| x == t) {
            if rng.random::<f64>() < 0.4 {
                let c = lo + rng.random::<f64>() * (hi - lo);
                let sel = ((c - lo) / (hi - lo)).clamp(0.05, 1.0);
                qb.select(rels[pos], col, CmpOp::Lt, c, SelSpec::Fixed(sel));
            }
        }
    }
    let query = qb.build();
    ess_dims.sort_by_key(|(d, _)| *d);
    let ess = Ess::uniform(
        ess_dims.into_iter().map(|(_, d)| d).collect(),
        cfg.resolution,
    );
    Workload::new(
        format!("random-{}", cfg.seed),
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

    #[test]
    fn generator_is_deterministic() {
        let cfg = RandomConfig {
            seed: 5,
            ..Default::default()
        };
        let a = random_workload(&cfg);
        let b = random_workload(&cfg);
        assert_eq!(a.query, b.query);
        assert_eq!(a.ess, b.ess);
    }

    #[test]
    fn draws_are_structurally_valid() {
        for seed in 0..20 {
            let cfg = RandomConfig {
                seed,
                ..Default::default()
            };
            let w = random_workload(&cfg);
            w.query.validate(&w.catalog);
            assert!(w.d() >= 1 && w.d() <= cfg.dims);
            assert!(w.query.num_relations() >= 2);
        }
    }

    /// The paper's guarantee must hold on arbitrary draws, not just the
    /// curated suite — the whole point of this generator.
    #[test]
    fn bouquet_guarantee_holds_on_random_workloads() {
        for seed in 0..8 {
            let cfg = RandomConfig {
                seed,
                resolution: 10,
                ..Default::default()
            };
            let w = random_workload(&cfg);
            let b = match Bouquet::identify(&w, &BouquetConfig::default()) {
                Ok(b) => b,
                Err(e) => panic!("seed {seed}: identification failed: {e}"),
            };
            let n = w.ess.num_points();
            for li in (0..n).step_by((n / 50).max(1)) {
                let qa = w.ess.point(&w.ess.unlinear(li));
                for run in [b.run_basic(&qa).unwrap(), b.run_optimized(&qa).unwrap()] {
                    assert!(run.completed(), "seed {seed} li {li}");
                    let so = run.suboptimality(b.pic_cost_at(li));
                    assert!(
                        so <= b.mso_bound() * (1.0 + 1e-9),
                        "seed {seed} li {li}: {so} > {}",
                        b.mso_bound()
                    );
                }
            }
        }
    }

    #[test]
    fn varying_shapes_come_out() {
        let mut shapes = std::collections::BTreeSet::new();
        for seed in 0..30 {
            let cfg = RandomConfig {
                seed,
                relations: 5,
                ..Default::default()
            };
            let w = random_workload(&cfg);
            shapes.insert(format!("{:?}", w.query.join_graph().shape()));
        }
        assert!(
            shapes.len() >= 2,
            "generator stuck on one shape: {shapes:?}"
        );
    }
}
