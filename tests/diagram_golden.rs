//! Pins the DP optimizer and the diagram build to recorded bytes.
//!
//! `tests/golden/diagram_hashes.json` holds, per workload, an FNV-1a hash
//! over the serial plan diagram (every POSP fingerprint, every point's
//! winner id and optimal-cost bits) followed by `OFF_GRID` seeded off-grid
//! `Optimizer::optimize` results (fingerprint, cost bits, rows bits). It was
//! captured from the per-call-enumerating DP that preceded the precomputed
//! skeleton, so a match means plans, costs, tie-breaks and plan numbering
//! are bit-identical to that implementation — without carrying it along.
//!
//! Workload *kinds* are kept wide (every registry space, both hostile
//! spaces, the commercial and anti-join variants, random FK-tree draws at
//! 3 / 5 / 7 relations, and hand-built semi / anti / inequality / cyclic /
//! aggregate queries); grid resolutions are shrunk so the suite stays
//! around a second in debug builds.
//!
//! The optimizer keeps its scratch between calls, so the second test drives
//! one long-lived `Optimizer` through every kind of call history and
//! demands, at every step, exactly what a fresh one answers.
//!
//! The recorded grids are uniform and small, and a diagram build reads most
//! memo slots out of rows it fills beforehand, one per point of the grid's
//! projection onto the slot's dimensions — where a transposed row
//! multiplier goes unseen if every axis has the same few steps. The third
//! test therefore compares the build with a fresh `Optimizer` at every
//! point of the full-size spaces and of grids whose axes all differ, at
//! one, two and three workers.
//!
//! Regenerating (only legitimate when the cost model or the plan space
//! changes on purpose):
//!
//! ```text
//! cargo test --test diagram_golden regenerate_goldens -- --ignored
//! ```

use std::collections::BTreeMap;

use plan_bouquet::bouquet::Workload;
use plan_bouquet::catalog::tpch;
use plan_bouquet::cost::{CostModel, Ess, EssDim, Parallelism, SplitMix64};
use plan_bouquet::optimizer::PlanDiagram;
use plan_bouquet::plan::{CmpOp, QueryBuilder, SelSpec};
use plan_bouquet::workloads::{self, RandomConfig};

const GOLDEN_PATH: &str = "tests/golden/diagram_hashes.json";
const OFF_GRID: usize = 100;

/// Per-dimension resolution giving a few hundred grid points at any `d`.
fn shrunk(ess: &Ess) -> Ess {
    let res = match ess.d() {
        1 => 64,
        2 => 16,
        3 => 6,
        4 => 4,
        _ => 3,
    };
    Ess::uniform(ess.dims.clone(), res)
}

fn typed_workloads() -> Vec<Workload> {
    let cat = tpch::catalog(1.0);
    let rows = |t: &str| cat.table(t).unwrap().rows;
    let mut out = Vec::new();

    // EXISTS hanger + aggregate on top of a three-way chain.
    let mut qb = QueryBuilder::new(&cat, "TYPED_SEMI_AGG");
    let c = qb.rel("customer");
    let o = qb.rel("orders");
    let l = qb.rel("lineitem");
    let ps = qb.rel("partsupp");
    qb.select(c, "c_acctbal", CmpOp::Lt, 5000.0, SelSpec::ErrorProne(0));
    qb.join(
        c,
        "c_custkey",
        o,
        "o_custkey",
        SelSpec::Fixed(1.0 / rows("customer")),
    );
    qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::ErrorProne(1));
    let hi = (100.0 / rows("part")).min(1.0);
    qb.semi_join(l, "l_partkey", ps, "ps_partkey", SelSpec::ErrorProne(2));
    qb.group_by(c, "c_nationkey");
    out.push(Workload::new(
        "TYPED_SEMI_AGG",
        cat.clone(),
        qb.build(),
        Ess::uniform(
            vec![
                EssDim::new("c_acctbal", 1e-3, 1.0),
                EssDim::new("l⋈o", 1e-3 / rows("orders"), 1.0 / rows("orders")),
                EssDim::new("semi l⋈ps", hi / 1e3, hi),
            ],
            6,
        ),
        CostModel::postgresish(),
    ));

    // Cycle part–partsupp–supplier closed by an inequality edge, so cuts
    // carry equality-only, inequality-only and mixed crossing sets.
    let mut qb = QueryBuilder::new(&cat, "TYPED_INEQ_CYCLE");
    let p = qb.rel("part");
    let ps = qb.rel("partsupp");
    let s = qb.rel("supplier");
    let n = qb.rel("nation");
    qb.select(p, "p_size", CmpOp::Lt, 25.0, SelSpec::Fixed(0.5));
    qb.join(ps, "ps_partkey", p, "p_partkey", SelSpec::ErrorProne(0));
    qb.join(
        ps,
        "ps_suppkey",
        s,
        "s_suppkey",
        SelSpec::Fixed(1.0 / rows("supplier")),
    );
    qb.join(
        s,
        "s_nationkey",
        n,
        "n_nationkey",
        SelSpec::Fixed(1.0 / rows("nation")),
    );
    qb.ineq_join(
        p,
        "p_size",
        CmpOp::Lt,
        s,
        "s_acctbal",
        SelSpec::ErrorProne(1),
    );
    out.push(Workload::new(
        "TYPED_INEQ_CYCLE",
        cat.clone(),
        qb.build(),
        Ess::uniform(
            vec![
                EssDim::new("ps⋈p", 1e-3 / rows("part"), 1.0 / rows("part")),
                EssDim::new("p<s", 1e-3, 1.0),
            ],
            16,
        ),
        CostModel::postgresish(),
    ));

    // NOT EXISTS and EXISTS hangers on the same core, commercial constants.
    let mut qb = QueryBuilder::new(&cat, "TYPED_ANTI_SEMI");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    let ps = qb.rel("partsupp");
    let o = qb.rel("orders");
    qb.select(
        p,
        "p_retailprice",
        CmpOp::Lt,
        1000.0,
        SelSpec::ErrorProne(0),
    );
    qb.join(
        p,
        "p_partkey",
        l,
        "l_partkey",
        SelSpec::Fixed(1.0 / rows("part")),
    );
    qb.anti_join(l, "l_partkey", ps, "ps_partkey", SelSpec::ErrorProne(1));
    qb.semi_join(
        l,
        "l_orderkey",
        o,
        "o_orderkey",
        SelSpec::Fixed(0.5 / rows("orders")),
    );
    out.push(Workload::new(
        "TYPED_ANTI_SEMI",
        cat.clone(),
        qb.build(),
        Ess::uniform(
            vec![
                EssDim::new("p_retailprice", 1e-4, 1.0),
                EssDim::new("anti l⋈ps", hi / 1e4, hi),
            ],
            16,
        ),
        CostModel::commercialish(),
    ));
    out
}

fn pinned_workloads() -> Vec<Workload> {
    let mut ws = workloads::benchmark_suite();
    for name in [
        "EQ_1D",
        "2D_H_Q8A",
        "ANTI_2D",
        "3D_H_Q5B",
        "4D_H_Q8B",
        "HOSTILE_INEQ_2D",
        "HOSTILE_ANTI_2D",
    ] {
        ws.push(workloads::by_name(name).unwrap());
    }
    for relations in [3, 5, 7] {
        for seed in 0..6 {
            let mut w = workloads::random_workload(&RandomConfig {
                relations,
                dims: 2,
                seed: 100 * relations as u64 + seed,
                ..Default::default()
            });
            w.name = format!("RANDOM_{relations}R_{seed}");
            ws.push(w);
        }
    }
    ws.extend(typed_workloads());
    for w in &mut ws {
        w.ess = shrunk(&w.ess);
    }
    ws
}

struct Fnv(u64);

impl Fnv {
    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn diagram_hash(w: &Workload) -> String {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let d = PlanDiagram::build_with(
        &w.catalog,
        &w.query,
        &w.model,
        &w.ess,
        Parallelism::serial(),
    );
    for p in &d.plans {
        h.push(p.fingerprint().0);
    }
    for (&id, c) in d.optimal.iter().zip(&d.opt_cost) {
        h.push(id as u64);
        h.push(c.to_bits());
    }
    let opt = w.optimizer();
    let mut rng = SplitMix64::new(w.ess.num_points() as u64);
    for _ in 0..OFF_GRID {
        let f: Vec<f64> = (0..w.d())
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let best = opt.optimize(&w.ess.point_at_fractions(&f).0);
        h.push(best.plan.fingerprint().0);
        h.push(best.cost.to_bits());
        h.push(best.rows.to_bits());
    }
    format!("{:016x}", h.0)
}

fn current_hashes() -> BTreeMap<String, String> {
    pinned_workloads()
        .iter()
        .map(|w| (w.name.clone(), diagram_hash(w)))
        .collect()
}

#[test]
fn diagrams_and_off_grid_optima_match_recorded_hashes() {
    let raw = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — run the regenerate_goldens test first");
    let golden: BTreeMap<String, String> = serde_json::from_str(&raw).unwrap();
    let current = current_hashes();
    assert_eq!(
        current.keys().collect::<Vec<_>>(),
        golden.keys().collect::<Vec<_>>(),
        "golden key set diverged"
    );
    for (name, hash) in &current {
        assert_eq!(
            hash, &golden[name],
            "{name}: diagram or off-grid optima diverged from the recorded bytes"
        );
    }
}

/// The locations of one call history over `ess`: a walk along every axis
/// (single-coordinate steps), a row-major run long enough to roll the last
/// two axes over, seeded off-grid jumps that move every coordinate — and,
/// scattered through all of it, exact repeats.
fn history(ess: &Ess, rng: &mut SplitMix64) -> Vec<Vec<f64>> {
    let n = ess.num_points();
    let mut out: Vec<Vec<f64>> = Vec::new();
    for axis in 0..ess.d() {
        let mut ix = ess.unlinear(rng.next_index(n));
        for step in 0..ess.res[axis] {
            ix[axis] = step;
            out.push(ess.point(&ix).0);
        }
    }
    let (last, start) = (ess.res[ess.d() - 1], rng.next_index(n));
    let run = last * ess.res[ess.d().saturating_sub(2)] + last + 2;
    out.extend((start..start + run).map(|li| ess.point(&ess.unlinear(li % n)).0));
    for _ in 0..12 {
        let f: Vec<f64> = (0..ess.d())
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        out.push(ess.point_at_fractions(&f).0);
    }
    let mut repeated = Vec::with_capacity(out.len() * 5 / 4);
    for q in out {
        if rng.next_index(4) == 0 {
            repeated.push(q.clone());
        }
        repeated.push(q);
    }
    repeated
}

#[test]
fn a_long_lived_optimizer_answers_every_call_like_a_fresh_one() {
    let mut ws = typed_workloads();
    for name in ["2D_H_Q8A", "3D_H_Q5", "4D_DS_Q7", "5D_DS_Q19", "ANTI_2D"] {
        ws.push(workloads::by_name(name).unwrap());
    }
    for (relations, dims, seed) in [(3, 2, 7), (5, 3, 11), (7, 3, 13)] {
        ws.push(workloads::random_workload(&RandomConfig {
            relations,
            dims,
            seed,
            ..Default::default()
        }));
    }
    for w in &ws {
        let ess = shrunk(&w.ess);
        let mut rng = SplitMix64::new(ess.num_points() as u64 ^ 0x5EED);
        let long_lived = w.optimizer();
        for (step, q) in history(&ess, &mut rng).iter().enumerate() {
            let want = w.optimizer().optimize(q);
            let got = long_lived.optimize(q);
            let at = format!("{} step {step}", w.name);
            assert_eq!(got.plan.fingerprint(), want.plan.fingerprint(), "{at}");
            assert_eq!(got.plan.root, want.plan.root, "{at}");
            assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{at}");
            assert_eq!(got.rows.to_bits(), want.rows.to_bits(), "{at}");
        }
    }
}

#[test]
fn every_grid_point_of_a_build_is_what_a_fresh_optimizer_answers() {
    let mut ws = typed_workloads();
    for name in [
        "3D_H_Q5",
        "4D_DS_Q7",
        "5D_H_Q7",
        "5D_DS_Q19",
        "HOSTILE_INEQ_2D",
        "HOSTILE_ANTI_2D",
    ] {
        ws.push(workloads::by_name(name).unwrap());
    }
    // Axes that all differ, one of them a single step; the first grid is
    // large enough for its rows and its points to be shared out.
    for (name, res) in [
        ("4D_DS_Q7", vec![11, 6, 13, 5]),
        ("4D_DS_Q7", vec![3, 5, 2, 7]),
        ("5D_H_Q7", vec![2, 4, 3, 5, 3]),
        ("5D_DS_Q19", vec![4, 1, 3, 2, 5]),
        ("3D_H_Q5", vec![7, 1, 4]),
    ] {
        let mut w = workloads::by_name(name).unwrap();
        w.ess = Ess::new(w.ess.dims.clone(), res.clone());
        w.name = format!("{name} {res:?}");
        ws.push(w);
    }
    for w in &ws {
        let fresh = w.optimizer();
        let want: Vec<_> = (w.ess.iter_points())
            .map(|ix| {
                let best = fresh.optimize(&w.ess.point(&ix));
                (best.plan.fingerprint(), best.cost.to_bits())
            })
            .collect();
        for workers in 1..=3 {
            // Every chunk of a parallel build starts a cursor mid-grid.
            let par = Parallelism::new(workers);
            let d = PlanDiagram::build_with(&w.catalog, &w.query, &w.model, &w.ess, par);
            let got = (d.optimal.iter().zip(&d.opt_cost))
                .map(|(&id, cost)| (d.plans[id as usize].fingerprint(), cost.to_bits()));
            for (li, (got, want)) in got.zip(&want).enumerate() {
                assert_eq!(got, *want, "{} point {li}, {workers} workers", w.name);
            }
        }
    }
}

#[test]
#[ignore = "writes tests/golden/diagram_hashes.json from the current optimizer"]
fn regenerate_goldens() {
    let mut out = String::from("{\n");
    let current = current_hashes();
    for (i, (name, hash)) in current.iter().enumerate() {
        let sep = if i + 1 == current.len() { "" } else { "," };
        out.push_str(&format!("  \"{name}\": \"{hash}\"{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::create_dir_all("tests/golden").unwrap();
    std::fs::write(GOLDEN_PATH, out).unwrap();
}
