//! `exec_grid`: people regenerating the MSO/ASO profiles wait for driver
//! runs over the whole ESS grid, and need the bound to hold.
//!
//! The same drivers as `exec_engine`, used differently: on the cost-unit
//! simulator a run is microseconds, so `bouquet::drivers`,
//! `cost::CostProgram` and `executor` are the whole cost and `engine` is
//! absent. It is also where a faster-but-worse driver is caught.

use std::time::Instant;

use crate::api::{
    by_name, Bouquet, BouquetConfig, FaultInjector, RobustConfig, SelPoint, SimulatorSubstrate,
};
use crate::gen;
use crate::harness::{
    passes_until, repeat_setup, tracer_for, Checks, Deadline, Output, Pass, RunOpts, Series,
};
use crate::metrics::Metric;
use crate::stats::geomean;
use crate::timed::{drive_on, run_span_name, stamp_contours, TimedSubstrate, DRIVERS};
use crate::trace::Tracer;

const QUERIES: [&str; 4] = ["2D_H_Q8A", "3D_H_Q5", "4D_DS_Q7", "5D_DS_Q19"];

struct Case {
    name: &'static str,
    bouquet: Bouquet,
    /// Every grid location, then the seeded off-grid ones.
    locations: Vec<SelPoint>,
    /// Optimal cost at each location.
    optimal: Vec<f64>,
    grid: usize,
}

fn setup(o: &RunOpts) -> Result<Vec<Case>, String> {
    let offgrid = if o.quick { 2_000 } else { 20_000 };
    QUERIES
        .iter()
        .map(|&name| {
            let w = by_name(name).ok_or_else(|| format!("registry lacks {name}"))?;
            let bouquet = Bouquet::identify(&w, &BouquetConfig::default())
                .map_err(|e| format!("{name}: identify: {e}"))?;
            let ess = &w.ess;
            let grid = ess.num_points();
            let mut locations: Vec<SelPoint> =
                (0..grid).map(|li| ess.point(&ess.unlinear(li))).collect();
            let mut optimal: Vec<f64> = (0..grid).map(|li| bouquet.pic_cost_at(li)).collect();
            // Off the grid the optimum is taken over the POSP plans: a DP
            // call per location would cost more than the runs it checks.
            let programs = bouquet.programs();
            for f in gen::offgrid_fractions(o.seed, name, w.d(), offgrid) {
                let q = ess.point_at_fractions(&f);
                optimal.push(
                    programs
                        .iter()
                        .map(|p| p.cost(&q.0))
                        .fold(f64::INFINITY, f64::min),
                );
                locations.push(q);
            }
            Ok(Case {
                name,
                bouquet,
                locations,
                optimal,
                grid,
            })
        })
        .collect()
}

/// Grid-exact sub-optimality of one driver on one query.
#[derive(Clone, Copy, Default)]
struct Profile {
    mso: f64,
    aso: f64,
}

/// Locations per timing sample of a sweep.
const CHUNK: usize = 2048;

/// One driver over every location of one query.
fn sweep(c: &Case, di: usize, tr: &mut Tracer, s: &mut Series, ck: &mut Checks) -> Profile {
    let b = &c.bouquet;
    let bound = b.mso_bound() * (1.0 + 1e-9);
    let (mut worst, mut sum, mut bad) = (0.0f64, 0.0f64, 0u64);
    let (mut sub_ns, mut calls, mut execs) = (0u64, 0u64, 0u64);
    let mut first_error = None;
    let traced = tr.enabled();
    let t0 = Instant::now();
    let mut chunk_start = t0;
    for (i, qa) in c.locations.iter().enumerate() {
        // A sweep is timed in chunks, so that a stall on a busy host spoils
        // one chunk's sample and not the whole sweep's.
        if i > 0 && i % CHUNK == 0 {
            let now = Instant::now();
            let key = format!("chunk.{}.{}.{}", DRIVERS[di], c.name, i / CHUNK - 1);
            s.push(key, (now - chunk_start).as_secs_f64());
            chunk_start = now;
        }
        let run = match SimulatorSubstrate::new(b, qa, FaultInjector::none()) {
            Err(e) => Err(e.to_string()),
            Ok(mut sub) if !traced => drive_on(b, di, &mut sub),
            Ok(sub) => {
                // Whole runs are spanned while there is room; after that
                // only the totals are kept.
                let span = if tr.has_room(64) {
                    tr.next_request();
                    tr.open(run_span_name(di))
                } else {
                    None
                };
                let mut ts = TimedSubstrate::new(sub, tr, span.map(|_| "executor.exec"));
                let run = drive_on(b, di, &mut ts);
                sub_ns += ts.wall_ns;
                calls += ts.calls;
                if let Ok(r) = &run {
                    execs += r.trace.len() as u64;
                    stamp_contours(tr, span, "executor.exec", r);
                }
                tr.close(span, &[]);
                run
            }
        };
        match run {
            Ok(run) => {
                let so = run.total_cost / c.optimal[i];
                worst = if i < c.grid { worst.max(so) } else { worst };
                sum += if i < c.grid { so } else { 0.0 };
                if !run.completed() || so > bound {
                    bad += 1;
                    first_error.get_or_insert_with(|| {
                        format!(
                            "location {i}: completed {} sub-optimality {so} over bound {bound}",
                            run.completed()
                        )
                    });
                }
            }
            Err(e) => {
                bad += 1;
                first_error.get_or_insert(e);
            }
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    let d = DRIVERS[di];
    let last = (c.locations.len() - 1) / CHUNK;
    s.push(
        format!("chunk.{d}.{}.{last}", c.name),
        chunk_start.elapsed().as_secs_f64(),
    );
    ck.tally(c.locations.len() as u64, bad, || {
        format!(
            "{} {d}: {bad} bad runs, first: {}",
            c.name,
            first_error.unwrap_or_default()
        )
    });
    if traced {
        s.push(format!("sub_s.{d}"), sub_ns as f64 * 1e-9);
        s.push(format!("calls.{d}"), calls as f64);
        s.push(format!("execs.{d}"), execs as f64);
        s.push(format!("runs.{d}"), c.locations.len() as f64);
        s.push(format!("wall.{d}"), dt);
    }
    Profile {
        mso: worst / b.mso_bound(),
        aso: sum / c.grid as f64,
    }
}

fn measure(
    cases: &[Case],
    o: &RunOpts,
    tr: &mut Tracer,
    ck: &mut Checks,
) -> (Pass, Vec<[Profile; 2]>) {
    let mut pass = Pass::default();
    let mut profiles: Vec<[Option<Profile>; 2]> = vec![[None; 2]; cases.len()];
    let end = Deadline::after(Instant::now(), o.window());
    // One item is one driver over every location of one query.
    let walls = passes_until(end, cases.len() * 2, |i| {
        let (ci, di) = (i / 2, i % 2);
        let c = &cases[ci];
        let profile = sweep(c, di, tr, &mut pass.series, ck);
        let first = *profiles[ci][di].get_or_insert(profile);
        ck.expect(
            first.mso.to_bits() == profile.mso.to_bits()
                && first.aso.to_bits() == profile.aso.to_bits(),
            || format!("{} {}: MSO/ASO changed between sweeps", c.name, DRIVERS[di]),
        );
    });
    let runs: usize = cases.iter().map(|c| c.locations.len() * 2).sum();
    pass.phases = vec![(runs as u64, walls)];
    let profiles = profiles
        .into_iter()
        .map(|p| p.map(Option::unwrap_or_default))
        .collect();
    (pass, profiles)
}

/// The robust driver with nothing to be robust against, beside the basic
/// driver, on every location: what the server's entry point adds.
fn robust_probe(cases: &[Case], tr: &mut Tracer, ck: &mut Checks, s: &mut Series) {
    let cfg = RobustConfig::default();
    for c in cases {
        let b = &c.bouquet;
        for robust in [false, true] {
            let ((), dt) = tr.timed("probe.bouquet.robust", |_| {
                for qa in &c.locations {
                    let ok = SimulatorSubstrate::new(b, qa, FaultInjector::none())
                        .and_then(|mut sub| {
                            if robust {
                                b.run_robust_on(&mut sub, &cfg).map(|r| r.run.completed())
                            } else {
                                b.run_basic_on(&mut sub).map(|r| r.completed())
                            }
                        })
                        .unwrap_or(false);
                    if !ok {
                        ck.expect(false, || {
                            format!("{}: probe run failed (robust {robust})", c.name)
                        });
                    }
                }
            });
            s.push(if robust { "robust_s" } else { "plain_s" }, dt);
        }
    }
}

/// Runs per second: every location once, over the sum of the per-chunk
/// median times.
fn rate(cases: &[Case], pass: &Pass, name: &str, d: &str) -> Metric {
    let runs: f64 = cases.iter().map(|c| c.locations.len() as f64).sum();
    let mut sums = (0.0, 0.0, 0.0, usize::MAX);
    for c in cases {
        for k in 0..c.locations.len().div_ceil(CHUNK) {
            let s = pass.series.summary(&format!("chunk.{d}.{}.{k}", c.name));
            sums = (
                sums.0 + s.median,
                sums.1 + s.q1,
                sums.2 + s.q3,
                sums.3.min(s.n),
            );
        }
    }
    Metric {
        name: name.into(),
        value: runs / sums.0,
        // Slow chunks are the low rates.
        q1: runs / sums.2,
        q3: runs / sums.1,
        n: sums.3,
    }
}

fn named_and_parts(
    cases: &[Case],
    pass: &Pass,
    profiles: &[[Profile; 2]],
) -> (Vec<Metric>, Vec<Metric>) {
    let basic = rate(cases, pass, "grid_runs_per_s_basic", "basic");
    let opt = rate(cases, pass, "grid_runs_per_s_opt", "opt");
    // As a time: milliseconds per thousand runs.
    let per_thousand = |m: &Metric| Metric {
        name: m.name.clone(),
        value: 1e6 / m.value,
        q1: 1e6 / m.q3,
        q3: 1e6 / m.q1,
        n: m.n,
    };
    let parts = vec![per_thousand(&basic), per_thousand(&opt)];
    let mso = profiles.iter().flatten().map(|p| p.mso).fold(0.0, f64::max);
    let aso: Vec<f64> = profiles.iter().map(|p| p[1].aso).collect();
    let named = vec![
        basic,
        opt,
        Metric::exact("mso_over_bound", mso),
        Metric::exact("aso_cost_opt", geomean(&aso)),
    ];
    (named, parts)
}

fn layer_metrics(traced: &Pass) -> Vec<Metric> {
    let s = &traced.series;
    let both = |k: &str| s.sum(&format!("{k}.basic")) + s.sum(&format!("{k}.opt"));
    let mut out = vec![
        Metric::exact("executor.exec_ns", both("sub_s") * 1e9 / both("calls")),
        Metric::exact("executor.calls_per_run", both("calls") / both("runs")),
        Metric::exact(
            "bouquet.robust_overhead_share",
            s.sum("robust_s") / s.sum("plain_s") - 1.0,
        ),
    ];
    for d in DRIVERS {
        let k = |k: &str| s.sum(&format!("{k}.{d}"));
        out.push(Metric::exact(
            format!("bouquet.driver_self_us.{d}"),
            (k("wall") - k("sub_s")) * 1e6 / k("runs"),
        ));
        out.push(Metric::exact(
            format!("bouquet.execs_per_run.{d}"),
            k("execs") / k("runs"),
        ));
    }
    out
}

pub fn run(o: &RunOpts, ck: &mut Checks) -> Result<Output, String> {
    let mut tr = tracer_for(o.trace, Instant::now());
    let (cases, setup) = repeat_setup(o.setup_budget_s(), || setup(o), drop)?;

    tr.set_enabled(false);
    let (plain, profiles) = measure(&cases, o, &mut tr, ck);
    let (named, parts) = named_and_parts(&cases, &plain, &profiles);
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
        let (mut traced, traced_profiles) = measure(&cases, o, &mut tr, ck);
        robust_probe(&cases, &mut tr, ck, &mut traced.series);
        out.layers = layer_metrics(&traced);
        let (_, traced_parts) = named_and_parts(&cases, &traced, &traced_profiles);
        out.traced_sum_ms = Some(traced_parts.iter().map(|m| m.value).sum());
        out.spans = tr.spans;
    }
    Ok(out)
}
