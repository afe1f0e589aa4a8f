//! The standing benchmarks, one function each: what the `pbq` sub-benches
//! print.
//!
//! Each section function runs one benchmark and returns its report as a
//! `#[derive(Serialize)]` struct whose fields, in declaration order, are the
//! keys of the `BENCH_*.json` artifacts (field docs carry their meanings;
//! `#[serde(skip)]` fields are what only the command-line printers show).
//! None of them is a gate on time: that is `benchmark/`'s to judge.

use std::time::Instant;

use pb_bouquet::{
    persist, Bouquet, BouquetCache, BouquetConfig, CacheKey, CacheOutcome, PhaseTimings, Workload,
};
use pb_cost::Parallelism;
use pb_engine::{Database, Engine, EngineOutcome};
use pb_plan::PlanNode;
use serde::Serialize;

/// The standing engine benchmark suite: part ⋈ lineitem ⋈ orders shaped six
/// ways so every vectorized operator appears (hash, sort-merge, index
/// nested-loops chains, anti join, aggregation, spill).
fn engine_plan_suite() -> Vec<(&'static str, PlanNode)> {
    let hj_pl = || PlanNode::HashJoin {
        build: Box::new(PlanNode::SeqScan { rel: 0 }),
        probe: Box::new(PlanNode::SeqScan { rel: 1 }),
        edges: vec![0],
    };
    vec![
        (
            "hash_join_chain",
            PlanNode::HashJoin {
                build: Box::new(hj_pl()),
                probe: Box::new(PlanNode::SeqScan { rel: 2 }),
                edges: vec![1],
            },
        ),
        (
            "merge_join_top",
            PlanNode::SortMergeJoin {
                left: Box::new(hj_pl()),
                right: Box::new(PlanNode::SeqScan { rel: 2 }),
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
                left: Box::new(PlanNode::SeqScan { rel: 0 }),
                right: Box::new(PlanNode::SeqScan { rel: 1 }),
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

/// Budget fractions of each plan's full cost probed by the equality
/// ladder: completion plus aborts in different operators and phases.
const BUDGET_FRACS: [f64; 5] = [1.0, 0.75, 0.4, 0.1, 0.02];

/// The budgets down the ladder for a plan costing `full_cost`.
fn budget_ladder(full_cost: f64) -> impl Iterator<Item = f64> {
    BUDGET_FRACS.into_iter().map(move |frac| {
        if frac >= 1.0 {
            f64::INFINITY
        } else {
            full_cost * frac
        }
    })
}

/// part ⋈ lineitem ⋈ orders with a fixed part selection; join edge 0 is
/// p⋈l, edge 1 is l⋈o. All columns are indexed, so every operator in the
/// engine can appear.
fn generate_db(sf: f64) -> Result<(Workload, Database), String> {
    let w = pb_workloads::h_q8a_2d(sf);
    let db = Database::generate_with(&w.catalog, 42, &[], Parallelism::auto())
        .map_err(|e| format!("data generation failed: {e}"))?;
    Ok((w, db))
}

fn base_rows(w: &Workload, db: &Database) -> u64 {
    w.query
        .relations
        .iter()
        .map(|r| db.table(r.table).rows as u64)
        .sum()
}

/// Whole-suite wall-clock of full executions, the minimum over `reps`
/// passes.
fn time_suite(
    plans: &[(&'static str, PlanNode)],
    reps: usize,
    run: impl Fn(&PlanNode) -> EngineOutcome,
) -> f64 {
    let mut suite = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for (_, plan) in plans {
            std::hint::black_box(run(plan));
        }
        suite = suite.min(t0.elapsed().as_secs_f64());
    }
    suite
}

/// One identification run's phases, in seconds.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseReport {
    pub workers: usize,
    /// Plan-diagram construction.
    pub diagram_s: f64,
    /// POSP cost matrix through the compiled cost program.
    pub cost_matrix_s: f64,
    /// Frontier scans + anorexic reduction.
    pub contours_s: f64,
    pub total_s: f64,
}

impl From<&PhaseTimings> for PhaseReport {
    fn from(t: &PhaseTimings) -> Self {
        PhaseReport {
            workers: t.workers,
            diagram_s: t.diagram.as_secs_f64(),
            cost_matrix_s: t.cost_matrix.as_secs_f64(),
            contours_s: t.contours.as_secs_f64(),
            total_s: t.total.as_secs_f64(),
        }
    }
}

/// The `identify` section of `BENCH_identify.json`.
#[derive(Debug, Clone, Serialize)]
pub struct IdentifyReport {
    pub workload: String,
    pub grid_points: usize,
    pub dims: usize,
    pub serial: PhaseReport,
    pub parallel: PhaseReport,
    /// Serial and parallel bouquets serialize to the same bytes.
    pub byte_identical: bool,
}

/// Identification benchmark: serial vs `par`-wide bouquet compilation with
/// the byte-identity check. Every phase is timed best-of-3 so the printed
/// speedups are quotients of per-phase minima rather than single noisy
/// samples.
pub fn identify_bench(w: &Workload, par: Parallelism) -> Result<IdentifyReport, String> {
    let cfg = BouquetConfig::default();
    let identify_best = |par: Parallelism| -> Result<(Bouquet, PhaseTimings), String> {
        let mut best: Option<(Bouquet, PhaseTimings)> = None;
        for _ in 0..3 {
            let (b, t) =
                Bouquet::identify_timed(w, &cfg, par).map_err(|e| format!("identify: {e}"))?;
            best = Some(match best {
                None => (b, t),
                Some((_, bt)) if t.total < bt.total => (b, t),
                Some(kept) => kept,
            });
        }
        best.ok_or_else(|| "no identification runs".to_string())
    };
    let (b_seq, t_seq) = identify_best(Parallelism::serial())?;
    let (b_par, t_par) = identify_best(par)?;
    let json_seq = persist::to_json(&b_seq).map_err(|e| format!("serialize: {e}"))?;
    let json_par = persist::to_json(&b_par).map_err(|e| format!("serialize: {e}"))?;

    Ok(IdentifyReport {
        workload: w.name.clone(),
        grid_points: w.ess.num_points(),
        dims: w.d(),
        serial: PhaseReport::from(&t_seq),
        parallel: PhaseReport::from(&t_par),
        byte_identical: json_seq == json_par,
    })
}

/// The `cache_hit` / `cache_miss` / `cache_refresh` sections of
/// `BENCH_identify.json`; each outcome fills its own fields.
#[derive(Debug, Clone, Serialize)]
pub struct CacheReport {
    pub workload: String,
    /// `hit`, `miss` or `refresh`.
    pub outcome: &'static str,
    pub grid_points: usize,
    /// The entry as it sits on disk after the lookup, and what it stores:
    /// a cost row for each bouquet plan out of the POSP.
    pub entry_bytes: u64,
    pub cost_rows: usize,
    pub posp_plans: usize,
    /// The from-scratch identification: this run's on a miss, the stored
    /// entry's on a hit.
    pub cold_build_s: Option<f64>,
    /// Best-of-5 load + validation of the entry (hit).
    pub warm_load_s: Option<f64>,
    /// `cold_build_s / warm_load_s` (hit).
    pub speedup_warm_vs_cold: Option<f64>,
    /// Cold rebuild replacing a stale sibling after statistics drift, and
    /// the grid points whose winner it changed (refresh).
    pub refresh_build_s: Option<f64>,
    pub points_changed: Option<usize>,
    /// The served bouquet serializes to the bytes of a fresh build.
    pub verified_identical: Option<bool>,
    #[serde(skip)]
    pub served: CacheOutcome,
}

/// Cached identification of `w` against the cache in `dir`: serve from the
/// cache when a valid entry exists, build and store otherwise (replacing a
/// stale sibling after statistics drift). `verify` also recompiles
/// from scratch and compares bytes.
pub fn cache_bench(w: &Workload, dir: &str, verify: bool) -> Result<CacheReport, String> {
    let cfg = BouquetConfig::default();
    let cache = BouquetCache::new(dir).map_err(|e| format!("open cache dir {dir}: {e}"))?;
    let lookup = || {
        cache
            .get_or_identify(w, &cfg, Parallelism::auto())
            .map_err(|e| format!("cached identification: {e}"))
    };
    let (bouquet, served) = lookup()?;
    let entry = CacheKey::derive(w, &cfg).map(|key| cache.entry_path(&key));
    let entry = entry.map_err(|e| format!("cache key: {e}"))?;
    let mut r = CacheReport {
        workload: w.name.clone(),
        outcome: "miss",
        grid_points: w.ess.num_points(),
        entry_bytes: std::fs::metadata(&entry).map_or(0, |m| m.len()),
        cost_rows: bouquet.costs.len(),
        posp_plans: bouquet.diagram.plan_count(),
        cold_build_s: None,
        warm_load_s: None,
        speedup_warm_vs_cold: None,
        refresh_build_s: None,
        points_changed: None,
        verified_identical: None,
        served: served.clone(),
    };
    match served {
        CacheOutcome::Hit {
            cold_build_s,
            mut load_s,
        } => {
            // Best-of-N, as the regression benches do: the first load pays
            // file-cache and allocator warm-up that repeat hits don't.
            for _ in 0..4 {
                if let (_, CacheOutcome::Hit { load_s: again, .. }) = lookup()? {
                    load_s = load_s.min(again);
                }
            }
            r.outcome = "hit";
            r.cold_build_s = Some(cold_build_s);
            r.warm_load_s = Some(load_s);
            r.speedup_warm_vs_cold = Some(cold_build_s / load_s.max(1e-12));
        }
        CacheOutcome::Miss { build_s } => r.cold_build_s = Some(build_s),
        CacheOutcome::Refreshed {
            build_s,
            incremental,
        } => {
            r.outcome = "refresh";
            r.refresh_build_s = Some(build_s);
            r.points_changed = Some(incremental.diagram.points_changed);
        }
    }
    if verify {
        let fresh = Bouquet::identify(w, &cfg).map_err(|e| format!("verification: {e}"))?;
        let bytes = |b: &Bouquet| persist::to_json(b).map_err(|e| format!("serialize: {e}"));
        r.verified_identical = Some(bytes(&bouquet)? == bytes(&fresh)?);
    }
    Ok(r)
}

/// One worker count of the scaling curve.
#[derive(Debug, Clone, Serialize)]
pub struct MtPoint {
    pub workers: usize,
    /// Best-of-`reps` full-suite wall-clock.
    pub wall_s: f64,
    /// First curve point's `wall_s` over this one's.
    pub speedup_vs_1: f64,
}

/// `BENCH_engine_mt.json`.
#[derive(Debug, Clone, Serialize)]
pub struct EngineMtReport {
    pub workload: String,
    pub scale_factor: f64,
    pub base_rows: u64,
    pub plans: usize,
    /// Plan × budget outcomes compared with the 1-worker engine's, at
    /// every worker count.
    pub budget_checks_per_worker_count: usize,
    /// Rows below which a phase stays serial.
    pub morsel_min_rows: usize,
    pub outcomes_identical: bool,
    pub curve: Vec<MtPoint>,
}

/// Morsel-driven scaling curve. Runs [`engine_plan_suite`] at every worker
/// count in `workers`, first asserting every `EngineOutcome` across the
/// budget ladder is bit-identical to the 1-worker engine, then timing
/// best-of-`reps` full-suite executions. `morsel_min` overrides the
/// morsel-dispatch row threshold (`None` keeps the production gate, which
/// leaves sub-131072-row relations on the serial path).
///
/// Wall-clock fields are honest measurements on whatever cores the host
/// exposes, so the `speedup_vs_1` column only exceeds 1 on real multicore
/// hosts — the identity bits are the invariant, the curve is the
/// observation. Any outcome divergence is an `Err`.
pub fn engine_mt_bench(
    sf: f64,
    workers: &[usize],
    morsel_min: Option<usize>,
    reps: usize,
) -> Result<EngineMtReport, String> {
    let (w, db) = generate_db(sf)?;
    let plans = engine_plan_suite();
    let mk = |n: usize| {
        let mut e = Engine::new(&db, &w.query, &w.model.p).with_parallelism(Parallelism::new(n));
        if let Some(rows) = morsel_min {
            e = e.with_morsel_threshold(rows);
        }
        e
    };

    // Reference outcomes from the 1-worker engine across the budget ladder.
    let reference = mk(1);
    let mut ladder: Vec<(f64, EngineOutcome)> = Vec::new();
    for (_, plan) in &plans {
        let full = reference.execute(plan, f64::INFINITY);
        for budget in budget_ladder(full.cost()) {
            ladder.push((budget, reference.execute(plan, budget)));
        }
    }

    let mut curve: Vec<MtPoint> = Vec::new();
    for &n in workers {
        let eng = mk(n);
        for ((name, plan), chunk) in plans.iter().zip(ladder.chunks(BUDGET_FRACS.len())) {
            for (budget, expect) in chunk {
                if eng.execute(plan, *budget) != *expect {
                    return Err(format!(
                        "outcome diverged at {n} workers on {name} (budget {budget})"
                    ));
                }
            }
        }
        let wall_s = time_suite(&plans, reps, |p| eng.execute(p, f64::INFINITY));
        let wall_1 = curve.first().map_or(wall_s, |p| p.wall_s);
        curve.push(MtPoint {
            workers: n,
            wall_s,
            speedup_vs_1: wall_1 / wall_s.max(1e-12),
        });
    }

    Ok(EngineMtReport {
        workload: w.name.clone(),
        scale_factor: sf,
        base_rows: base_rows(&w, &db),
        plans: plans.len(),
        budget_checks_per_worker_count: ladder.len(),
        morsel_min_rows: morsel_min.unwrap_or(pb_cost::PARALLEL_MIN_MORSEL_ROWS),
        outcomes_identical: true,
        curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_mt_outcomes_identical_at_tiny_scale() {
        // Tiny data with the morsel gate lowered so the parallel kernels
        // actually engage; identity must hold at every worker count.
        let report = engine_mt_bench(0.002, &[1, 2, 4], Some(64), 1).expect("engine_mt_bench");
        assert!(report.outcomes_identical);
        assert_eq!(report.curve.len(), 3);
    }
}
