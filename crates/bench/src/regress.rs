//! Bench-regression harness: reproducible benchmark reports and the
//! baseline comparison behind `pbq bench-check` and `pbq engine-mt`.
//!
//! Each runner re-executes one of the repository's standing benchmarks and
//! returns its report as a structured [`Value`] tree:
//!
//! * [`engine_bench`] — the vectorized-vs-tuple engine benchmark
//!   (`pbq engine-speedup`'s measurement core),
//! * [`identify_bench`] — the identification determinism/speedup benchmark
//!   (`pbq speedup`'s measurement core),
//! * [`engine_mt_bench`] — the morsel-driven scaling curve: the same plan
//!   suite executed at several worker counts, asserting every
//!   `EngineOutcome` is bit-identical across counts before any timing is
//!   trusted.
//!
//! [`compare`] diffs a current report against a committed baseline: numeric
//! fields that measure wall-clock time or derived ratios (keys ending in
//! `_s` or `_gain`, plus `speedup*`) are compared within a relative
//! tolerance band (one-sided for `_s`: only slower fails); every other
//! field — equality/identity booleans, check counts, shapes — must match
//! exactly. The CI `bench-regression` job fails on any diff.

use std::time::Instant;

use pb_bouquet::{persist, Bouquet, BouquetConfig};
use pb_cost::Parallelism;
use pb_engine::{Database, Engine, EngineOutcome};
use pb_plan::PlanNode;
use serde::Value;

/// The standing engine benchmark suite: part ⋈ lineitem ⋈ orders shaped six
/// ways so every vectorized operator appears (hash, sort-merge, index
/// nested-loops chains, anti join, aggregation, spill).
pub fn engine_plan_suite() -> Vec<(&'static str, PlanNode)> {
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
/// ladders: completion plus aborts in different operators and phases.
pub const BUDGET_FRACS: [f64; 5] = [1.0, 0.75, 0.4, 0.1, 0.02];

/// Build an object [`Value`] from static keys (declaration order kept).
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Field lookup on an object report (`None` on non-objects/missing keys).
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_obj().and_then(|o| serde::find(o, key))
}

/// Numeric view of a leaf across the parser's `Int`/`UInt`/`Float` split.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn generate_db(sf: f64) -> Result<(pb_bouquet::Workload, Database), String> {
    let w = pb_workloads::h_q8a_2d(sf);
    let db = Database::generate_with(&w.catalog, 42, &[], Parallelism::auto())
        .map_err(|e| format!("data generation failed: {e}"))?;
    Ok((w, db))
}

fn base_rows(w: &pb_bouquet::Workload, db: &Database) -> u64 {
    w.query
        .relations
        .iter()
        .map(|r| db.table(r.table).rows as u64)
        .sum()
}

/// Vectorized-vs-tuple engine benchmark: the outcome-equality ladder over
/// [`engine_plan_suite`] × [`BUDGET_FRACS`], then best-of-3 full-suite
/// timings. Field names match `BENCH_engine.json`.
pub fn engine_bench(sf: f64) -> Result<Value, String> {
    let (w, db) = generate_db(sf)?;
    let eng = Engine::new(&db, &w.query, &w.model.p);
    let plans = engine_plan_suite();

    let mut checks = 0u64;
    for (name, plan) in &plans {
        let full = eng.execute_tuple(plan, f64::INFINITY);
        for frac in BUDGET_FRACS {
            let budget = if frac >= 1.0 {
                f64::INFINITY
            } else {
                full.cost() * frac
            };
            checks += 1;
            if eng.execute_tuple(plan, budget) != eng.execute_vectorized(plan, budget) {
                return Err(format!(
                    "engine bench: tuple/vectorized mismatch on {name} at budget fraction {frac}"
                ));
            }
        }
    }

    let mut tuple_s = f64::INFINITY;
    let mut vec_s = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for (_, plan) in &plans {
            std::hint::black_box(eng.execute_tuple(plan, f64::INFINITY));
        }
        tuple_s = tuple_s.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        for (_, plan) in &plans {
            std::hint::black_box(eng.execute(plan, f64::INFINITY));
        }
        vec_s = vec_s.min(t0.elapsed().as_secs_f64());
    }

    Ok(obj(vec![
        ("workload", Value::Str(w.name.clone())),
        ("scale_factor", Value::Float(sf)),
        ("base_rows", Value::UInt(base_rows(&w, &db))),
        ("plans", Value::UInt(plans.len() as u64)),
        ("equality_checks", Value::UInt(checks)),
        ("equality_ok", Value::Bool(true)),
        ("tuple_s", Value::Float(tuple_s)),
        ("vectorized_s", Value::Float(vec_s)),
        ("speedup", Value::Float(tuple_s / vec_s.max(1e-12))),
    ]))
}

/// Identification benchmark: serial vs `workers`-way bouquet compilation
/// with the byte-identity and compiled-cost-matrix checks.
/// Every phase is timed best-of-3 so the derived gain ratios are quotients
/// of per-phase minima rather than single noisy samples. Field names match
/// `BENCH_identify.json`.
pub fn identify_bench(workload: &str, workers: usize) -> Result<Value, String> {
    let w = pb_workloads::by_name(workload)
        .ok_or_else(|| format!("identify bench: unknown workload {workload}"))?;
    let cfg = BouquetConfig::default();
    let identify_best = |par: Parallelism| -> Result<(Bouquet, pb_bouquet::PhaseTimings), String> {
        let mut best: Option<(Bouquet, pb_bouquet::PhaseTimings)> = None;
        for _ in 0..3 {
            let (b, t) = Bouquet::identify_timed(&w, &cfg, par)
                .map_err(|e| format!("identify bench: identify failed: {e}"))?;
            best = Some(match best {
                None => (b, t),
                Some((_, bt)) if t.total < bt.total => (b, t),
                Some(kept) => kept,
            });
        }
        best.ok_or_else(|| "identify bench: no runs".to_string())
    };
    let (b_seq, t_seq) = identify_best(Parallelism::serial())?;
    let (b_par, t_par) = identify_best(Parallelism::new(workers))?;
    let json_seq =
        persist::to_json(&b_seq).map_err(|e| format!("identify bench: serialize: {e}"))?;
    let json_par =
        persist::to_json(&b_par).map_err(|e| format!("identify bench: serialize: {e}"))?;

    let mut t_treewalk = f64::INFINITY;
    let mut treewalk_cm = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        treewalk_cm = Some(
            b_seq
                .diagram
                .cost_matrix_reference(&w.catalog, &w.query, &w.model),
        );
        t_treewalk = t_treewalk.min(t0.elapsed().as_secs_f64());
    }

    let phase = |t: &pb_bouquet::PhaseTimings| {
        obj(vec![
            ("workers", Value::UInt(t.workers as u64)),
            ("diagram_s", Value::Float(t.diagram.as_secs_f64())),
            ("cost_matrix_s", Value::Float(t.cost_matrix.as_secs_f64())),
            ("contours_s", Value::Float(t.contours.as_secs_f64())),
            ("total_s", Value::Float(t.total.as_secs_f64())),
        ])
    };
    Ok(obj(vec![
        ("workload", Value::Str(w.name.clone())),
        ("grid_points", Value::UInt(w.ess.num_points() as u64)),
        ("dims", Value::UInt(w.d() as u64)),
        ("serial", phase(&t_seq)),
        ("parallel", phase(&t_par)),
        ("treewalk_cost_matrix_serial_s", Value::Float(t_treewalk)),
        (
            "cost_matrix_compiled_gain",
            Value::Float(t_treewalk / t_seq.cost_matrix.as_secs_f64().max(1e-12)),
        ),
        ("byte_identical", Value::Bool(json_seq == json_par)),
        (
            "cost_matrix_identical",
            Value::Bool(treewalk_cm.as_ref() == Some(&b_seq.costs)),
        ),
    ]))
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
) -> Result<Value, String> {
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
        for frac in BUDGET_FRACS {
            let budget = if frac >= 1.0 {
                f64::INFINITY
            } else {
                full.cost() * frac
            };
            ladder.push((budget, reference.execute(plan, budget)));
        }
    }

    let mut curve = Vec::new();
    let mut wall_1 = f64::NAN;
    for &n in workers {
        let eng = mk(n);
        for ((name, plan), chunk) in plans.iter().zip(ladder.chunks(BUDGET_FRACS.len())) {
            for (budget, expect) in chunk {
                if eng.execute(plan, *budget) != *expect {
                    return Err(format!(
                        "engine-mt: outcome diverged at {n} workers on {name} (budget {budget})"
                    ));
                }
            }
        }
        let mut wall = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            for (_, plan) in &plans {
                std::hint::black_box(eng.execute(plan, f64::INFINITY));
            }
            wall = wall.min(t0.elapsed().as_secs_f64());
        }
        if wall_1.is_nan() {
            wall_1 = wall;
        }
        curve.push(obj(vec![
            ("workers", Value::UInt(n as u64)),
            ("wall_s", Value::Float(wall)),
            ("speedup_vs_1", Value::Float(wall_1 / wall.max(1e-12))),
        ]));
    }

    Ok(obj(vec![
        ("workload", Value::Str(w.name.clone())),
        ("scale_factor", Value::Float(sf)),
        ("base_rows", Value::UInt(base_rows(&w, &db))),
        ("plans", Value::UInt(plans.len() as u64)),
        (
            "budget_checks_per_worker_count",
            Value::UInt(ladder.len() as u64),
        ),
        (
            "morsel_min_rows",
            Value::UInt(morsel_min.unwrap_or(pb_cost::PARALLEL_MIN_MORSEL_ROWS) as u64),
        ),
        ("outcomes_identical", Value::Bool(true)),
        ("curve", Value::Arr(curve)),
    ]))
}

/// Checkpoint/resume ASO benchmark on the engine substrate: the Table 3
/// discovery runs plain and resumed, asserting the decision sequences and
/// result rows are identical before reporting the per-driver and
/// per-contour reused-vs-recomputed cost. Every field is a deterministic
/// engine cost unit (no wall-clock), so the baseline comparison is exact —
/// any drift in what resume reuses or pays fails the gate.
pub fn resume_bench(sf: f64) -> Result<Value, String> {
    use crate::engine_driver::{engine_run_bouquet_resumable, engine_run_bouquet_with, measure_qa};
    let (w, b, db) = crate::experiments::table3::setup(sf);
    let par = Parallelism::serial();

    let qa = measure_qa(&db, &w.query, &w.ess).map_err(|e| format!("resume bench: qa: {e}"))?;
    let oracle_plan = w.optimizer().optimize(&qa).plan;
    let oracle_cost = Engine::new(&db, &w.query, &w.model.p)
        .execute(&oracle_plan.root, f64::INFINITY)
        .cost();

    let seq = |r: &crate::engine_driver::EngineRunReport| -> Vec<(usize, usize, f64)> {
        r.executions
            .iter()
            .map(|e| (e.contour, e.plan, e.budget))
            .collect()
    };
    let run_pair = |optimized: bool| -> Result<_, String> {
        let plain = engine_run_bouquet_with(&b, &db, optimized, par)
            .map_err(|e| format!("resume bench: plain run: {e}"))?;
        let (res, stats) = engine_run_bouquet_resumable(&b, &db, optimized, par)
            .map_err(|e| format!("resume bench: resumed run: {e}"))?;
        if seq(&plain) != seq(&res) || plain.result_rows != res.result_rows {
            return Err("resume bench: resumed run diverged from plain run".to_string());
        }
        Ok((plain, res, stats))
    };
    let (basic, basic_res, basic_rs) = run_pair(false)?;
    let (optd, optd_res, optd_rs) = run_pair(true)?;

    // Per-contour reused-vs-recomputed spend (basic driver).
    let bb = basic.contour_breakdown();
    let bbr = basic_res.contour_breakdown();
    let contours: Vec<Value> = bb
        .iter()
        .map(|&(cid, n, plain_cost)| {
            let resumed_cost = bbr
                .iter()
                .find(|r| r.0 == cid)
                .map(|r| r.2)
                .unwrap_or(plain_cost);
            obj(vec![
                ("contour", Value::UInt(cid as u64)),
                ("executions", Value::UInt(n as u64)),
                ("recomputed_cost", Value::Float(resumed_cost)),
                ("reused_cost", Value::Float(plain_cost - resumed_cost)),
            ])
        })
        .collect();

    Ok(obj(vec![
        ("workload", Value::Str(w.name.clone())),
        ("scale_factor", Value::Float(sf)),
        ("oracle_cost", Value::Float(oracle_cost)),
        ("basic_cost", Value::Float(basic.total_cost)),
        ("basic_resumed_cost", Value::Float(basic_res.total_cost)),
        ("basic_reused_cost", Value::Float(basic_rs.reused_cost)),
        (
            "basic_resumed_execs",
            Value::UInt(basic_rs.resumed_execs as u64),
        ),
        ("optimized_cost", Value::Float(optd.total_cost)),
        ("optimized_resumed_cost", Value::Float(optd_res.total_cost)),
        ("optimized_reused_cost", Value::Float(optd_rs.reused_cost)),
        (
            "optimized_resumed_execs",
            Value::UInt(optd_rs.resumed_execs as u64),
        ),
        ("aso_basic", Value::Float(basic.total_cost / oracle_cost)),
        (
            "aso_basic_resumed",
            Value::Float(basic_res.total_cost / oracle_cost),
        ),
        ("aso_optimized", Value::Float(optd.total_cost / oracle_cost)),
        (
            "aso_optimized_resumed",
            Value::Float(optd_res.total_cost / oracle_cost),
        ),
        ("sequences_identical", Value::Bool(true)),
        (
            "reuse_engaged",
            Value::Bool(basic_rs.reused_cost > 0.0 || optd_rs.reused_cost > 0.0),
        ),
        ("basic_contours", Value::Arr(contours)),
    ]))
}

/// Hostile typed-dimension gate: both hostile workloads
/// (`HOSTILE_INEQ_2D`, `HOSTILE_ANTI_2D`) through the full ladder —
/// engine-substrate basic/optimized/robust drivers, simulator cross-check
/// and whole-grid MSO evaluation. Everything reported is computed in
/// deterministic cost units (no wall clock except `wall_s`), so every
/// field other than `wall_s` compares **exactly** against the baseline: a
/// drifting decision sequence, a lost guarantee, or a cost-model change on
/// the inequality/anti axes fails the gate.
pub fn hostile_bench(sf: f64) -> Result<Value, String> {
    let t0 = Instant::now();
    let (_, reports) = crate::experiments::hostile::run_at_with(sf, Parallelism::serial());
    let rows = reports
        .iter()
        .map(|r| {
            obj(vec![
                ("workload", Value::Str(r.workload.clone())),
                (
                    "dim_kinds",
                    Value::Arr(r.dim_kinds.iter().cloned().map(Value::Str).collect()),
                ),
                (
                    "completed",
                    Value::Bool(r.basic.completed && r.optimized.completed),
                ),
                ("crosscheck_ok", Value::Bool(r.crosscheck_ok)),
                ("mso_within_bound", Value::Bool(r.mso_within_bound)),
                ("robust_degraded", Value::Bool(r.robust_degraded)),
                (
                    "basic_executions",
                    Value::UInt(r.basic.executions.len() as u64),
                ),
                (
                    "optimized_executions",
                    Value::UInt(r.optimized.executions.len() as u64),
                ),
                ("result_rows", Value::UInt(r.basic.result_rows as u64)),
                ("nat_cost", Value::Float(r.nat_cost)),
                ("oracle_cost", Value::Float(r.oracle_cost)),
                ("basic_cost", Value::Float(r.basic.total_cost)),
                ("optimized_cost", Value::Float(r.optimized.total_cost)),
                ("robust_cost", Value::Float(r.robust_cost)),
                ("nat_mso", Value::Float(r.nat_mso)),
                ("seer_mso", Value::Float(r.seer_mso)),
                ("parqo_mso", Value::Float(r.parqo_mso)),
                ("bou_mso", Value::Float(r.bou_mso)),
                ("bou_aso", Value::Float(r.bou_aso)),
                ("mso_bound", Value::Float(r.mso_bound)),
            ])
        })
        .collect();
    Ok(obj(vec![
        ("sf", Value::Float(sf)),
        ("workloads", Value::Arr(rows)),
        ("wall_s", Value::Float(t0.elapsed().as_secs_f64())),
    ]))
}

/// Wall-clock fields (`*_s`): may not exceed the baseline by more than the
/// relative tolerance plus an absolute noise floor (faster is never a
/// failure). Everything else must match the baseline exactly, except ratio
/// fields (see [`is_ratio_key`]).
fn is_timing_key(key: &str) -> bool {
    key.ends_with("_s")
}

/// Derived-ratio fields (`speedup*`, `*_gain`): quotients of two noisy
/// timings, so they get a multiplicative factor-of-2 band — loose enough
/// for scheduler jitter on short phases, tight enough that a vectorization
/// or compilation collapse (a 4x ratio dropping to ~1x) still fails the gate.
fn is_ratio_key(key: &str) -> bool {
    key.ends_with("_gain") || key.starts_with("speedup")
}

/// Recursively diff `current` against `baseline`. Timing fields (per
/// [`is_timing_key`]) may be slower by `tol` (relative, e.g. `0.25` = +25%);
/// all other leaves — booleans, counts, names — must be equal. Returns the
/// list of human-readable violations (empty ⇒ no regression).
pub fn compare(baseline: &Value, current: &Value, tol: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    compare_at(baseline, current, tol, "", &mut diffs);
    diffs
}

fn compare_at(baseline: &Value, current: &Value, tol: f64, path: &str, diffs: &mut Vec<String>) {
    match (baseline, current) {
        (Value::Obj(b), Value::Obj(c)) => {
            for (k, bv) in b {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match serde::find(c, k) {
                    Some(cv) if is_timing_key(k) || is_ratio_key(k) => {
                        let (Some(bn), Some(cn)) = (as_f64(bv), as_f64(cv)) else {
                            diffs.push(format!("{p}: timing field is not numeric"));
                            continue;
                        };
                        if is_timing_key(k) {
                            // Relative band above the baseline plus a 15ms
                            // additive noise term: scheduler jitter on
                            // phases that finish in milliseconds cannot
                            // fail the gate, while a 2x regression on the
                            // phases that dominate wall-clock still does.
                            // One-sided: a speed-up is reported, not failed.
                            let band = bn.abs() * tol + 0.015;
                            if cn - bn > band {
                                diffs.push(format!(
                                    "{p}: {cn:.6} more than {:.0}% above baseline {bn:.6}",
                                    tol * 100.0
                                ));
                            } else if bn - cn > band {
                                println!(
                                    "  {p}: {cn:.6} vs baseline {bn:.6}: improved — re-baseline with --update"
                                );
                            }
                        } else if cn < bn / 2.0 || cn > bn * 2.0 {
                            diffs.push(format!(
                                "{p}: ratio {cn:.3} outside [x0.5, x2] of baseline {bn:.3}"
                            ));
                        }
                    }
                    Some(cv) => compare_at(bv, cv, tol, &p, diffs),
                    None => diffs.push(format!("{p}: missing from current report")),
                }
            }
            for (k, _) in c {
                if serde::find(b, k).is_none() {
                    diffs.push(format!("{path}.{k}: not in baseline (run with --update)"));
                }
            }
        }
        (Value::Arr(b), Value::Arr(c)) => {
            if b.len() != c.len() {
                diffs.push(format!(
                    "{path}: length {} vs baseline {}",
                    c.len(),
                    b.len()
                ));
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                compare_at(bv, cv, tol, &format!("{path}[{i}]"), diffs);
            }
        }
        (b, c) => {
            // Numeric leaves compare by value so 2 == 2.0 across the
            // Int/UInt/Float split the parser introduces.
            let same = match (as_f64(b), as_f64(c)) {
                (Some(bn), Some(cn)) => bn == cn,
                _ => b == c,
            };
            if !same {
                let j = |v: &Value| serde_json::to_string(v).unwrap_or_else(|_| "null".into());
                diffs.push(format!("{path}: {} != baseline {}", j(c), j(b)));
            }
        }
    }
}

/// Render a report with 2-space indentation (the committed-artifact format;
/// the compat `serde_json::to_string` writer is compact).
pub fn to_pretty(v: &Value) -> String {
    let mut out = String::new();
    pretty_at(v, 0, &mut out);
    out.push('\n');
    out
}

fn pretty_at(v: &Value, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    match v {
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                out.push_str(&pad);
                out.push('"');
                out.push_str(k);
                out.push_str("\": ");
                pretty_at(val, depth + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty_at(item, depth + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push(']');
        }
        leaf => out.push_str(&serde_json::to_string(leaf).unwrap_or_else(|_| "null".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> Value {
        Value::Float(x)
    }

    #[test]
    fn compare_bands_timing_and_pins_identity() {
        let base = obj(vec![
            ("total_s", f(1.0)),
            ("speedup", f(4.0)),
            ("equality_ok", Value::Bool(true)),
            ("plans", Value::UInt(6)),
            ("nested", obj(vec![("wall_s", f(0.5))])),
        ]);
        // Within ±25% on timings, identical elsewhere: clean.
        let ok = obj(vec![
            ("total_s", f(1.2)),
            ("speedup", f(3.2)),
            ("equality_ok", Value::Bool(true)),
            ("plans", Value::UInt(6)),
            ("nested", obj(vec![("wall_s", f(0.55))])),
        ]);
        assert!(compare(&base, &ok, 0.25).is_empty());
        // Timing outside the band.
        let mut slow = ok.clone();
        if let Value::Obj(o) = &mut slow {
            o[0].1 = f(1.3);
        }
        assert_eq!(compare(&base, &slow, 0.25).len(), 1);
        // Faster than the band is an improvement, not a regression.
        let mut fast = ok.clone();
        if let Value::Obj(o) = &mut fast {
            o[0].1 = f(0.3);
        }
        assert!(compare(&base, &fast, 0.25).is_empty());
        // Identity field flipped: exact comparison, no band.
        let mut broken = ok.clone();
        if let Value::Obj(o) = &mut broken {
            o[2].1 = Value::Bool(false);
        }
        assert_eq!(compare(&base, &broken, 0.25).len(), 1);
        // Ratio collapse beyond the factor-of-2 band.
        let mut collapsed = ok.clone();
        if let Value::Obj(o) = &mut collapsed {
            o[1].1 = f(1.5);
        }
        assert_eq!(compare(&base, &collapsed, 0.25).len(), 1);
    }

    #[test]
    fn compare_flags_shape_changes() {
        let row = |w: u64| obj(vec![("workers", Value::UInt(w)), ("wall_s", f(1.0))]);
        let base = obj(vec![("curve", Value::Arr(vec![row(1)]))]);
        let grown = obj(vec![("curve", Value::Arr(vec![row(1), row(2)]))]);
        assert!(!compare(&base, &grown, 0.25).is_empty());
        let renamed = obj(vec![("curve", Value::Arr(vec![row(2)]))]);
        assert!(!compare(&base, &renamed, 0.25).is_empty());
    }

    #[test]
    fn pretty_report_parses_back() {
        let v = obj(vec![
            ("name", Value::Str("x".into())),
            ("xs", Value::Arr(vec![Value::UInt(1), Value::UInt(2)])),
            ("t_s", f(0.25)),
        ]);
        let text = to_pretty(&v);
        let back: Value = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn engine_mt_outcomes_identical_at_tiny_scale() {
        // Tiny data with the morsel gate lowered so the parallel kernels
        // actually engage; identity must hold at every worker count.
        let report = engine_mt_bench(0.002, &[1, 2, 4], Some(64), 1).expect("engine_mt_bench");
        assert_eq!(get(&report, "outcomes_identical"), Some(&Value::Bool(true)));
        let curve = get(&report, "curve")
            .and_then(Value::as_arr)
            .expect("curve");
        assert_eq!(curve.len(), 3);
    }
}
