//! `exec_engine`: someone submitting a query with no trustworthy estimates
//! waits for the bouquet's discovery plus the final execution, on real
//! tuples.
//!
//! First phase: three pre-identified queries under stale statistics, each
//! run by an oracle (the optimal plan at the true location), the basic and
//! the optimized driver: mostly budget-*aborted* partial executions.
//! Second phase: six plan shapes over ≈ 770k rows run to completion, serial
//! and at `nproc` workers: only *completed* executions. A kernel change
//! that speeds full scans but slows budget aborts (or the reverse) moves
//! the two phases in opposite directions.

use std::time::Instant;

use crate::api::{
    Bouquet, BouquetRun, Database, Engine, EngineOutcome, EngineSubstrate, ExecutionSubstrate,
    FaultInjector, Parallelism, PlanNode, Workload,
};
use crate::gen::{self, DEFAULT_SEED};
use crate::harness::{
    passes_until, repeat_setup, tracer_for, Checks, Deadline, Output, Pass, RunOpts, Series,
};
use crate::metrics::{sum_of, Metric};
use crate::setups::{self, EngineCase};
use crate::timed::{drive_on, run_span_name, stamp_contours, ExecRecord, TimedSubstrate, DRIVERS};
use crate::trace::Tracer;

/// Share of the window given to the discovery phase.
const DISCOVERY_SHARE: f64 = 0.6;

struct State {
    cases: Vec<EngineCase>,
    kernel_w: Workload,
    kernel_db: Database,
    kernel_datagen_s: f64,
    suite: Vec<(&'static str, PlanNode)>,
    /// The cases run over the standing seeds' tuples, where the Table-3
    /// shape (8 executions over 5 contours) is known.
    pinned: bool,
}

/// `pinned`: the three stale-statistics experiments over the tuples of the
/// repo's standing seeds, whatever `--seed` says. The window measures those:
/// the join fan-out of NDV-overridden data moves result rows, and with them
/// every wall of the phase, by ±7 % from seed to seed, which on a host that
/// already drifts put the run-to-run spread at the limit a bound may have.
/// Tuples derived from `--seed` get an untimed pass after the window.
fn setup(o: &RunOpts, tr: &mut Tracer, pinned: bool) -> Result<State, String> {
    let seed = |standing| {
        if pinned {
            standing
        } else {
            gen::datagen_seed(o.seed, standing)
        }
    };
    let cases = vec![
        setups::table3(seed(7), tr)?,
        setups::hostile_ineq(seed(11), tr)?,
        setups::hostile_anti(seed(13), tr)?,
    ];
    let (kernel_w, kernel_db, kernel_datagen_s) =
        setups::kernel_data(gen::datagen_seed(o.seed, 42), tr)?;
    Ok(State {
        cases,
        kernel_w,
        kernel_db,
        kernel_datagen_s,
        suite: setups::kernel_suite(),
        pinned,
    })
}

/// The driver's decisions: (contour, plan, budget bits) per execution.
type Decisions = Vec<(usize, usize, u64)>;

fn decisions(run: &BouquetRun) -> Decisions {
    run.trace
        .iter()
        .map(|e| (e.contour, e.plan, e.budget.to_bits()))
        .collect()
}

/// What the first pass saw, which every later pass must reproduce.
#[derive(Default)]
struct Pinned {
    rows: Vec<Option<usize>>,
    oracle_cost: Vec<f64>,
    /// Per case: basic, optimized.
    seqs: Vec<[Option<Decisions>; 2]>,
    costs: Vec<[f64; 2]>,
    kernels: Vec<Option<EngineOutcome>>,
}

/// One driver run over the engine substrate; returns its wall in seconds.
#[allow(clippy::too_many_arguments)]
fn drive(
    case: &EngineCase,
    ci: usize,
    di: usize,
    tr: &mut Tracer,
    s: &mut Series,
    ck: &mut Checks,
    pin: &mut Pinned,
    pinned_tuples: bool,
) {
    let b: &Bouquet = &case.bouquet;
    tr.next_request();
    let t0 = Instant::now();
    let (run, rows, dt, recs, sub_ns) = if tr.enabled() {
        let span = tr.open(run_span_name(di));
        let sub = EngineSubstrate::new(b, &case.db, FaultInjector::none());
        let mut ts = TimedSubstrate::new(sub, tr, Some("engine.exec")).keep_records();
        let run = drive_on(b, di, &mut ts);
        let dt = t0.elapsed().as_secs_f64();
        let (rows, recs, sub_ns) = (ts.inner().result_rows(), ts.records.take(), ts.wall_ns);
        if let Ok(r) = &run {
            stamp_contours(tr, span, "engine.exec", r);
        }
        tr.close(span, &[("execs", recs.as_ref().map_or(0, Vec::len) as f64)]);
        (run, rows, dt, recs.unwrap_or_default(), sub_ns)
    } else {
        let mut sub = EngineSubstrate::new(b, &case.db, FaultInjector::none());
        let run = drive_on(b, di, &mut sub);
        let dt = t0.elapsed().as_secs_f64();
        (run, sub.result_rows(), dt, Vec::new(), 0)
    };
    let d = DRIVERS[di];
    s.push(format!("{d}.{}", case.name), dt);

    let run = match run {
        Ok(r) => r,
        Err(e) => {
            ck.expect(false, || format!("{} {d}: {e}", case.name));
            return;
        }
    };
    let seq = decisions(&run);
    let same_seq = pin.seqs[ci][di].get_or_insert_with(|| seq.clone()) == &seq;
    ck.expect(run.completed() && rows == pin.rows[ci] && same_seq, || {
        format!(
            "{} {d}: completed {} rows {rows:?} (oracle {:?}) decisions repeat {same_seq}",
            case.name,
            run.completed(),
            pin.rows[ci]
        )
    });
    if ci == 0 && di == 0 && pinned_tuples {
        ck.expect(run.trace.len() == 8 && run.contours_crossed() == 5, || {
            format!(
                "Table-3 basic run is {} executions over {} contours, not 8 over 5",
                run.trace.len(),
                run.contours_crossed()
            )
        });
    }
    pin.costs[ci][di] = run.total_cost;

    // Traced pass only: where the run's wall went.
    if tr.enabled() {
        s.push(format!("self.{d}"), dt - sub_ns as f64 * 1e-9);
        s.push(format!("execs.{d}"), recs.len() as f64);
        s.push("run_wall", dt);
        for ExecRecord {
            wall_ns,
            spent,
            completed,
            spilled,
        } in recs
        {
            let kind = match (completed, spilled) {
                (true, _) => "completed",
                (false, true) => "spilled",
                (false, false) => "aborted",
            };
            let wall = wall_ns as f64 * 1e-9;
            s.push(format!("exec.{kind}"), wall);
            s.push(format!("spent.{kind}"), spent);
            if !completed {
                s.push("wasted_wall", wall);
            }
        }
    }
}

fn measure(st: &State, o: &RunOpts, tr: &mut Tracer, ck: &mut Checks) -> (Pass, Pinned) {
    let mut pass = Pass::default();
    let n = st.cases.len();
    let mut pin = Pinned {
        rows: vec![None; n],
        oracle_cost: vec![0.0; n],
        seqs: (0..n).map(|_| [None, None]).collect(),
        costs: vec![[0.0; 2]; n],
        kernels: vec![None; st.suite.len()],
    };
    let start = Instant::now();
    let discovery_end = Deadline::after(start, o.window().mul_f64(DISCOVERY_SHARE));
    let end = Deadline::after(start, o.window());

    let discovery = passes_until(discovery_end, n, |ci| {
        let case = &st.cases[ci];
        let first = pin.rows[ci].is_none();
        let w = &case.workload;
        let engine = Engine::new(&case.db, &w.query, &w.model.p);
        tr.next_request();
        let (out, dt) = tr.timed("engine.execute", |_| {
            engine.execute(&case.oracle, f64::INFINITY)
        });
        pass.series.push(format!("oracle.{}", case.name), dt);
        let rows = match &out {
            EngineOutcome::Completed { rows, .. } => Some(*rows),
            _ => None,
        };
        ck.expect(rows.is_some() && (first || rows == pin.rows[ci]), || {
            format!(
                "{} oracle: {rows:?} rows, first pass {:?}",
                case.name, pin.rows[ci]
            )
        });
        if first {
            pin.rows[ci] = rows;
            pin.oracle_cost[ci] = out.cost();
        }
        for di in 0..2 {
            drive(case, ci, di, tr, &mut pass.series, ck, &mut pin, st.pinned);
        }
    });

    // One item is the whole suite on one engine, serial and `nproc` by turns.
    let w = &st.kernel_w;
    let serial = Engine::new(&st.kernel_db, &w.query, &w.model.p);
    let mt = Engine::new(&st.kernel_db, &w.query, &w.model.p)
        .with_parallelism(Parallelism::new(o.nproc));
    passes_until(end, 2, |ei| {
        let (engine, tag) = [(&serial, "kernel"), (&mt, "kernel_mt")][ei];
        let mut total = 0.0;
        for (ki, (name, plan)) in st.suite.iter().enumerate() {
            tr.next_request();
            let (out, dt) = tr.timed("engine.execute", |_| engine.execute(plan, f64::INFINITY));
            pass.series.push(format!("{tag}.{name}"), dt);
            total += dt;
            let same = pin.kernels[ki].get_or_insert_with(|| out.clone()) == &out;
            ck.expect(out.completed() && same, || {
                format!("{tag} {name}: outcome differs from the serial engine's first")
            });
        }
        pass.series.push(format!("{tag}_pass"), total);
    });
    // The `nproc` turns run and are checked, but stay out of the gated
    // throughput: see `engine.kernel_pass_mt_ms`.
    let serial_passes = pass.series.get("kernel_pass").to_vec();
    pass.phases = vec![
        (3 * n as u64, discovery),
        (st.suite.len() as u64, serial_passes),
    ];
    (pass, pin)
}

/// Traced-pass one-offs: what the bouquet avoids, what resume saves.
fn probes(st: &State, tr: &mut Tracer, ck: &mut Checks, s: &mut Series) {
    for case in &st.cases {
        let b = &case.bouquet;
        let (_, dt) = tr.timed("probe.engine.nat", |_| {
            EngineSubstrate::new(b, &case.db, FaultInjector::none()).run_native_at(&case.qe)
        });
        s.push("nat_wall", dt);

        let mut sub = EngineSubstrate::new(b, &case.db, FaultInjector::none());
        let (run, dt) = tr.timed("probe.engine.resume", |_| {
            b.run_basic_resumable_on(&mut sub)
        });
        match run {
            Ok((run, stats)) => {
                ck.expect(run.completed(), || {
                    format!("{}: resumable run did not complete", case.name)
                });
                s.push("resume_wall", dt);
                s.push("resume_reused", stats.reused_cost);
                s.push("resume_paid", run.total_cost);
            }
            Err(e) => {
                ck.expect(false, || format!("{}: resumable run: {e}", case.name));
            }
        }
    }
}

fn named_and_parts(st: &State, pass: &Pass) -> (Vec<Metric>, Vec<Metric>) {
    let s = &pass.series;
    let over_cases = |prefix: &str, name: &str| {
        let parts: Vec<Metric> = st
            .cases
            .iter()
            .map(|c| Metric::timing(name, &s.summary(&format!("{prefix}.{}", c.name)), 1e3))
            .collect();
        sum_of(name, &parts)
    };
    let named = vec![
        over_cases("oracle", "oracle_wall_ms"),
        over_cases("basic", "query_wall_ms_basic"),
        over_cases("opt", "query_wall_ms_opt"),
        Metric::timing("kernel_pass_ms", &s.summary("kernel_pass"), 1e3),
    ];
    (named.clone(), named)
}

fn layer_metrics(st: &State, traced: &Pass, pin: &Pinned) -> Vec<Metric> {
    let s = &traced.series;
    let per_case = |prefix: &str| -> Vec<f64> {
        st.cases
            .iter()
            .map(|c| s.median(&format!("{prefix}.{}", c.name)))
            .collect()
    };
    let oracle_wall = per_case("oracle");
    let rows: f64 = st
        .kernel_w
        .query
        .relations
        .iter()
        .map(|r| st.kernel_db.table(r.table).rows as f64)
        .sum();
    let mut out = vec![
        Metric::exact(
            "engine.datagen_s",
            st.cases.iter().map(|c| c.datagen_s).sum::<f64>() + st.kernel_datagen_s,
        ),
        Metric::exact("engine.rows", rows),
        Metric::timing(
            "engine.kernel_pass_mt_ms",
            &s.summary("kernel_mt_pass"),
            1e3,
        ),
        Metric::exact("engine.rows_per_s", rows / s.median("kernel_pass")),
        Metric::exact(
            "engine.mt_gain",
            s.median("kernel_pass") / s.median("kernel_mt_pass"),
        ),
        Metric::exact("engine.nat_wall_ms", s.sum("nat_wall") * 1e3),
        Metric::exact(
            "engine.resume.wall_gain",
            per_case("basic").iter().sum::<f64>() / s.sum("resume_wall"),
        ),
        Metric::exact(
            "engine.resume.reused_share",
            s.sum("resume_reused") / (s.sum("resume_reused") + s.sum("resume_paid")),
        ),
        Metric::exact(
            "bouquet.wasted_wall_share",
            s.sum("wasted_wall") / s.sum("run_wall"),
        ),
    ];
    for kind in ["completed", "aborted", "spilled"] {
        out.push(Metric::timing(
            format!("engine.exec_ms.{kind}"),
            &s.summary(&format!("exec.{kind}")),
            1e3,
        ));
    }
    for kind in ["completed", "aborted"] {
        out.push(Metric::exact(
            format!("engine.ns_per_cost_unit.{kind}"),
            s.sum(&format!("exec.{kind}")) * 1e9 / s.sum(&format!("spent.{kind}")),
        ));
    }
    for (name, _) in &st.suite {
        out.push(Metric::timing(
            format!("engine.kernel_ms.{name}"),
            &s.summary(&format!("kernel.{name}")),
            1e3,
        ));
    }
    for (di, d) in DRIVERS.iter().enumerate() {
        let wall = per_case(d);
        let subopt_wall: Vec<f64> = wall.iter().zip(&oracle_wall).map(|(w, o)| w / o).collect();
        let subopt_cost: Vec<f64> = pin
            .costs
            .iter()
            .zip(&pin.oracle_cost)
            .map(|(c, o)| c[di] / o)
            .collect();
        // Worst over the three queries, as MSO is: sub-optimality in cost
        // units, in seconds, and how far the two are apart.
        let worst = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        let gap: Vec<f64> = subopt_wall
            .iter()
            .zip(&subopt_cost)
            .map(|(w, c)| w / c)
            .collect();
        let (sw, sc) = (worst(&subopt_wall), worst(&subopt_cost));
        out.extend([
            Metric::timing(
                format!("bouquet.driver_self_us.{d}"),
                &s.summary(&format!("self.{d}")),
                1e6,
            ),
            Metric::exact(
                format!("bouquet.execs_per_run.{d}"),
                s.sum(&format!("execs.{d}")) / s.get(&format!("execs.{d}")).len() as f64,
            ),
            Metric::exact(format!("bouquet.subopt_cost.{d}"), sc),
            Metric::exact(format!("bouquet.subopt_wall.{d}"), sw),
            Metric::exact(format!("bouquet.wall_over_cost.{d}"), worst(&gap)),
        ]);
    }
    out
}

pub fn run(o: &RunOpts, ck: &mut Checks) -> Result<Output, String> {
    let mut tr = tracer_for(o.trace, Instant::now());
    let (st, setup_times) = repeat_setup(o.setup_budget_s(), || setup(o, &mut tr, true), drop)?;

    tr.set_enabled(false);
    let (plain, _) = measure(&st, o, &mut tr, ck);
    let (named, parts) = named_and_parts(&st, &plain);
    let mut out = Output {
        setup: setup_times,
        named,
        parts,
        ops_per_s: plain.ops_per_s(),
        layers: Vec::new(),
        traced_sum_ms: None,
        spans: Vec::new(),
    };
    if o.trace {
        tr.set_enabled(true);
        let (mut traced, pin) = measure(&st, o, &mut tr, ck);
        probes(&st, &mut tr, ck, &mut traced.series);
        out.layers = layer_metrics(&st, &traced, &pin);
        out.traced_sum_ms = Some(
            named_and_parts(&st, &traced)
                .1
                .iter()
                .map(|m| m.value)
                .sum(),
        );
        out.spans = tr.spans;
    }
    drop(st);
    if o.seed != DEFAULT_SEED {
        // The same checks over other tuples: one untimed pass of each phase.
        let once = RunOpts {
            seconds: 0.0,
            trace: false,
            ..o.clone()
        };
        let shadow = setup(o, &mut Tracer::off(), false)?;
        measure(&shadow, &once, &mut Tracer::off(), ck);
    }
    Ok(out)
}
