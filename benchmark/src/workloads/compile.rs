//! `compile`: who deploys a query waits for bouquet identification once,
//! and for a cache load every time after.
//!
//! Cold `Bouquet::identify` passes over a 2D → 5D ladder, then warm
//! `BouquetCache` hits against a directory populated during set-up: build
//! and read of the same artefact, so a frame-format change that helps one
//! and hurts the other shows up in the same place.

use std::time::Instant;

use rand::RngExt;

use crate::api::{
    bouquet_to_json, Bouquet, BouquetCache, BouquetConfig, CacheOutcome, Parallelism, PlanDiagram,
};
use crate::gen;
use crate::harness::{
    passes_until, repeat_setup, tracer_for, Checks, Deadline, Output, Pass, RunOpts, Series,
    TempDir,
};
use crate::metrics::{sum_of, Metric};
use crate::setups::{ladder, LadderTimes, Rung};
use crate::trace::Tracer;

/// Share of the window given to cold identification; the rest goes to hits.
const COLD_SHARE: f64 = 0.7;

struct State {
    rungs: Vec<Rung>,
    times: LadderTimes,
    dir: TempDir,
    cache: BouquetCache,
    /// The bouquet each rung's cold build produced during set-up.
    reference: Vec<Bouquet>,
    /// Per rung: wall of the populating miss minus the identification in it.
    store_s: Vec<f64>,
}

/// FNV-1a over every grid-sized array and the contour structure: cheap
/// enough to check each repeat inside the window. The byte-for-byte JSON
/// comparison runs once per rung after it.
fn fingerprint(b: &Bouquet) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x100000001b3);
    for p in &b.diagram.plans {
        eat(p.fingerprint().0);
    }
    b.diagram.optimal.iter().for_each(|&o| eat(u64::from(o)));
    b.diagram.opt_cost.iter().for_each(|c| eat(c.to_bits()));
    b.costs.as_flat().iter().for_each(|c| eat(c.to_bits()));
    b.grading.steps.iter().for_each(|c| eat(c.to_bits()));
    for c in &b.contours {
        eat(c.id as u64);
        eat(c.step_cost.to_bits());
        eat(c.budget.to_bits());
        c.points.iter().for_each(|&p| eat(p as u64));
        c.assignment.iter().for_each(|&p| eat(p as u64));
        c.plan_set.iter().for_each(|&p| eat(p as u64));
    }
    h
}

fn setup(o: &RunOpts, tr: &mut Tracer) -> Result<State, String> {
    let (rungs, times) = ladder(o.seed, tr)?;
    let dir = TempDir::new("compile-cache")?;
    let cache = BouquetCache::new(&dir.0).map_err(|e| format!("open cache: {e}"))?;
    let cfg = BouquetConfig::default();
    let mut reference = Vec::new();
    let mut store_s = Vec::new();
    for r in &rungs {
        let (got, wall) = tr.timed("probe.bouquet.cache.miss", |_| {
            cache.get_or_identify(&r.workload, &cfg, Parallelism::auto())
        });
        let (b, outcome) = got.map_err(|e| format!("{}: populate cache: {e}", r.label))?;
        let CacheOutcome::Miss { build_s } = outcome else {
            return Err(format!("{}: fresh cache served {outcome:?}", r.label));
        };
        store_s.push((wall - build_s).max(0.0));
        reference.push(b);
    }
    Ok(State {
        rungs,
        times,
        dir,
        cache,
        reference,
        store_s,
    })
}

fn measure(st: &State, o: &RunOpts, tr: &mut Tracer, ck: &mut Checks) -> Pass {
    let cfg = BouquetConfig::default();
    let mut pass = Pass::default();
    let start = Instant::now();
    let cold_end = Deadline::after(start, o.window().mul_f64(COLD_SHARE));
    let end = Deadline::after(start, o.window());
    let prints: Vec<u64> = st.reference.iter().map(fingerprint).collect();

    let n = st.rungs.len();
    let cold = passes_until(cold_end, n, |i| {
        let r = &st.rungs[i];
        tr.next_request();
        let op = tr.open("compile.cold");
        let span = tr.open("bouquet.identify");
        let t0 = Instant::now();
        // Same code either way: `identify` is `identify_timed` minus the
        // timings, at the product's default parallelism.
        let built = if tr.enabled() {
            Bouquet::identify_timed(&r.workload, &cfg, Parallelism::auto())
                .map(|(b, pt)| (b, Some(pt)))
        } else {
            Bouquet::identify(&r.workload, &cfg).map(|b| (b, None))
        };
        let dt = t0.elapsed().as_secs_f64();
        tr.close(span, &[("points", r.workload.ess.num_points() as f64)]);
        match built {
            Ok((b, pt)) => {
                if let Some(pt) = pt {
                    let (d, m) = (
                        pt.diagram.as_nanos() as u64,
                        pt.cost_matrix.as_nanos() as u64,
                    );
                    tr.derived_child(span, "optimizer.diagram", 0, d);
                    tr.derived_child(span, "cost.matrix", d, m);
                    let rest = dt - pt.diagram.as_secs_f64() - pt.cost_matrix.as_secs_f64();
                    pass.series
                        .push(format!("contours.{}", r.label), rest.max(0.0));
                }
                pass.series.push(format!("cold.{}", r.label), dt);
                ck.expect(fingerprint(&b) == prints[i], || {
                    format!("{}: repeat identification differs from the first", r.label)
                });
            }
            Err(e) => {
                ck.expect(false, || format!("{}: identify: {e}", r.label));
            }
        }
        tr.close(op, &[]);
    });

    let warm = passes_until(end, n, |i| {
        let r = &st.rungs[i];
        tr.next_request();
        let op = tr.open("compile.warm");
        let (got, dt) = tr.timed("bouquet.cache.get", |_| {
            st.cache
                .get_or_identify(&r.workload, &cfg, Parallelism::auto())
        });
        let ok = match &got {
            Ok((b, CacheOutcome::Hit { .. })) => fingerprint(b) == prints[i],
            _ => false,
        };
        ck.expect(ok, || {
            format!(
                "{}: warm lookup was not an identical hit: {:?}",
                r.label,
                got.as_ref()
                    .map(|(_, o)| o.clone())
                    .map_err(|e| e.to_string())
            )
        });
        pass.series.push(format!("warm.{}", r.label), dt);
        tr.close(op, &[]);
    });
    pass.phases = vec![(n as u64, cold), (n as u64, warm)];
    pass
}

/// One-off layer measurements of the traced pass. They are not part of what
/// a deploying user waits for, hence `probe.` spans.
fn probes(st: &State, o: &RunOpts, tr: &mut Tracer, ck: &mut Checks, s: &mut Series) {
    for r in &st.rungs {
        let w = &r.workload;
        let (d, dt) = tr.timed("probe.optimizer.diagram", |_| {
            PlanDiagram::build_with(&w.catalog, &w.query, &w.model, &w.ess, Parallelism::auto())
        });
        s.push("diagram_s", dt);
        s.push("posp_plans", d.plan_count() as f64);
        let (m, dt) = tr.timed("probe.cost.matrix", |_| {
            d.cost_matrix_with(&w.catalog, &w.query, &w.model, Parallelism::auto())
        });
        s.push("matrix_s", dt);
        s.push("matrix_cells", m.as_flat().len() as f64);
        let (_, dt) = tr.timed("probe.optimizer.diagram_serial", |_| {
            PlanDiagram::build_with(
                &w.catalog,
                &w.query,
                &w.model,
                &w.ess,
                Parallelism::serial(),
            )
        });
        s.push("diagram_serial_s", dt);
    }

    // One DP call, over 1000 seeded locations of the 5D rung.
    if let Some(r) = st.rungs.iter().find(|r| r.label == "5D_H_Q7") {
        let w = &r.workload;
        let mut rng = gen::stream(o.seed, "optimize-points");
        let points: Vec<Vec<f64>> = (0..1000)
            .map(|_| {
                let f: Vec<f64> = (0..w.d()).map(|_| rng.random::<f64>()).collect();
                w.ess.point_at_fractions(&f).0
            })
            .collect();
        let opt = w.optimizer();
        let (_, dt) = tr.timed("probe.optimizer.optimize", |_| {
            for q in &points {
                std::hint::black_box(opt.optimize(std::hint::black_box(q)));
            }
        });
        s.push("optimize_s", dt / points.len() as f64);
    }

    // Statistics drift: the populated directory, copied, serves each rung's
    // 1.05×-scale sibling by incremental re-identification.
    let mut refresh = || -> Result<(), String> {
        let copy = TempDir::new("compile-refresh")?;
        for e in std::fs::read_dir(&st.dir.0)
            .map_err(|e| e.to_string())?
            .flatten()
        {
            std::fs::copy(e.path(), copy.0.join(e.file_name())).map_err(|e| e.to_string())?;
        }
        let cache = BouquetCache::new(&copy.0).map_err(|e| e.to_string())?;
        let cfg = BouquetConfig::default();
        for r in &st.rungs {
            let drifted = r.drifted();
            let (got, dt) = tr.timed("probe.bouquet.cache.refresh", |_| {
                cache.get_or_identify(&drifted, &cfg, Parallelism::auto())
            });
            match got {
                Ok((_, CacheOutcome::Refreshed { incremental, .. })) => {
                    s.push("refresh_s", dt);
                    s.push("points_changed", incremental.diagram.points_changed as f64);
                    s.push("points_total", incremental.diagram.points_total as f64);
                }
                other => {
                    return Err(format!(
                        "{}: drifted lookup was not a refresh: {:?}",
                        r.label,
                        other.map(|(_, o)| o).map_err(|e| e.to_string())
                    ))
                }
            }
        }
        Ok(())
    };
    let outcome = refresh();
    ck.expect(outcome.is_ok(), || outcome.unwrap_err());
}

fn ladder_metric(st: &State, series: &Series, prefix: &str, name: &str, scale: f64) -> Metric {
    let parts: Vec<Metric> = st
        .rungs
        .iter()
        .map(|r| {
            Metric::timing(
                name,
                &series.summary(&format!("{prefix}.{}", r.label)),
                scale,
            )
        })
        .collect();
    sum_of(name, &parts)
}

fn layer_metrics(st: &State, traced: &Pass, plain_hit_ms: f64) -> Vec<Metric> {
    let s = &traced.series;
    let mut out = vec![
        Metric::exact(
            "catalog.build_us",
            st.times.catalog_s.iter().sum::<f64>() * 1e6,
        ),
        Metric::exact("workloads.from_sql_us", st.times.from_sql_s * 1e6),
        Metric::exact(
            "workloads.random_us",
            st.times.random_s.iter().sum::<f64>() * 1e6,
        ),
        Metric::exact("optimizer.diagram_s", s.sum("diagram_s")),
        Metric::exact("optimizer.diagram_serial_s", s.sum("diagram_serial_s")),
        Metric::exact(
            "optimizer.diagram_par_gain",
            s.sum("diagram_serial_s") / s.sum("diagram_s"),
        ),
        Metric::exact(
            "optimizer.dp_calls",
            st.reference
                .iter()
                .map(|b| b.stats.exhaustive_optimizer_calls as f64)
                .sum(),
        ),
        Metric::exact("optimizer.optimize_us", s.median("optimize_s") * 1e6),
        Metric::exact("optimizer.posp_plans", s.sum("posp_plans")),
        Metric::exact("cost.matrix_s", s.sum("matrix_s")),
        Metric::exact("cost.matrix_cells", s.sum("matrix_cells")),
        Metric::exact(
            "cost.cell_eval_ns",
            s.sum("matrix_s") * 1e9 / s.sum("matrix_cells"),
        ),
        ladder_metric(st, s, "contours", "bouquet.contours_s", 1.0),
        Metric::exact(
            "bouquet.plans",
            st.reference
                .iter()
                .map(|b| b.stats.bouquet_cardinality as f64)
                .sum(),
        ),
        Metric::exact(
            "bouquet.contours",
            st.reference
                .iter()
                .map(|b| b.stats.num_contours as f64)
                .sum(),
        ),
        Metric::exact(
            "bouquet.rho",
            st.reference
                .iter()
                .map(|b| b.rho() as f64)
                .fold(0.0, f64::max),
        ),
        Metric::exact(
            "bouquet.cache.store_ms",
            st.store_s.iter().sum::<f64>() * 1e3,
        ),
    ];
    for r in &st.rungs {
        out.push(Metric::timing(
            format!("bouquet.cache.hit_ms.{}", r.label),
            &s.summary(&format!("warm.{}", r.label)),
            1e3,
        ));
    }
    let frame_mb = std::fs::read_dir(&st.dir.0)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum::<f64>()
        })
        .unwrap_or(0.0)
        / (1024.0 * 1024.0);
    let cold_s: f64 = st
        .rungs
        .iter()
        .map(|r| s.median(&format!("cold.{}", r.label)))
        .sum();
    out.extend([
        Metric::exact("bouquet.cache.frame_mb", frame_mb),
        Metric::exact(
            "bouquet.cache.hit_mb_per_s",
            frame_mb / (plain_hit_ms / 1e3),
        ),
        Metric::exact("bouquet.cache.refresh_s", s.sum("refresh_s")),
        Metric::exact("bouquet.cache.refresh_gain", cold_s / s.sum("refresh_s")),
        Metric::exact(
            "bouquet.cache.points_changed_share",
            s.sum("points_changed") / s.sum("points_total"),
        ),
    ]);
    out
}

/// After the window: a warm hit serializes byte for byte like the cold
/// build it was stored from.
fn verify(st: &State, ck: &mut Checks) {
    let cfg = BouquetConfig::default();
    for (r, cold) in st.rungs.iter().zip(&st.reference) {
        let same = st
            .cache
            .get_or_identify(&r.workload, &cfg, Parallelism::auto())
            .map_err(|e| e.to_string())
            .and_then(|(hit, _)| {
                Ok(bouquet_to_json(&hit).map_err(|e| e.to_string())?
                    == bouquet_to_json(cold).map_err(|e| e.to_string())?)
            });
        ck.expect(same == Ok(true), || {
            format!(
                "{}: warm hit is not byte-identical to the cold build: {same:?}",
                r.label
            )
        });
    }
}

fn named_and_parts(st: &State, pass: &Pass) -> (Vec<Metric>, Vec<Metric>) {
    let cold = ladder_metric(st, &pass.series, "cold", "identify_cold_s", 1.0);
    let hit = ladder_metric(st, &pass.series, "warm", "cache_hit_ms", 1e3);
    let cold_ms = ladder_metric(st, &pass.series, "cold", "identify_cold_s", 1e3);
    (vec![cold, hit.clone()], vec![cold_ms, hit])
}

pub fn run(o: &RunOpts, ck: &mut Checks) -> Result<Output, String> {
    let mut tr = tracer_for(o.trace, Instant::now());
    let (st, setup) = repeat_setup(o.setup_budget_s(), || setup(o, &mut tr), drop)?;

    tr.set_enabled(false);
    let plain = measure(&st, o, &mut tr, ck);
    let (named, parts) = named_and_parts(&st, &plain);

    let mut out = Output {
        setup,
        named,
        parts,
        ops_per_s: plain.ops_per_s(),
        layers: Vec::new(),
        traced_sum_ms: None,
        spans: Vec::new(),
    };
    if o.trace {
        tr.set_enabled(true);
        let mut traced = measure(&st, o, &mut tr, ck);
        probes(&st, o, &mut tr, ck, &mut traced.series);
        out.layers = layer_metrics(&st, &traced, out.named[1].value);
        out.traced_sum_ms = Some(
            named_and_parts(&st, &traced)
                .1
                .iter()
                .map(|m| m.value)
                .sum(),
        );
        out.spans = tr.spans;
    }
    verify(&st, ck);
    Ok(out)
}
