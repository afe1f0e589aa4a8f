//! Seeded chaos campaign for the robust bouquet driver: one fault catalog
//! ([`plan_catalog`]) × its fixtures × one check.
//!
//! * **Simulator fixtures** (920 scenarios at any seed) — TPC-H / TPC-DS
//!   and typed-dimension spaces at seeded true locations, every catalog
//!   plan × both policies; a 4D space fault-free.
//! * **Engine fixtures** (36) — the same robust ladder over the engine
//!   substrate on real tuples (2D_H_Q8A under join-key skew, the hostile
//!   inequality- and anti-join setups), every catalog plan with engine
//!   hooks, plus spilled executions driven straight at the substrate.
//! * **Engine level** (150) — a plain and a spilled plan at five budgets
//!   under the same plans, at 1 worker and morsel-parallel at 2 and 4.
//! * **Cancel/resume** (one per trip point; 36 at the CI seed) and
//!   **server** (24) blocks.
//!
//! Every robust run goes through [`check_robust`]: no panic, its books pass
//! [`RobustRun::audit`], a bit-identical replay, and — under the empty plan
//! — the run the plain settings make on an unarmed substrate, with no
//! events. An engine execution must match the serial engine's bit for bit,
//! never spend past its budget, and — unarmed — equal a bare execution.
//!
//! Every row is deterministic in the seed, the `server:` block's included
//! (CI diffs the whole table against `tests/golden/chaos_survival.txt`).
//! The server rows run over real sockets and threads, but each request is
//! one `Submit` line and one blocking `Wait` line and the next is sent only
//! once it is answered, so every server fault is consulted at the same
//! point of the request sequence in every run. `pbq chaos --seed N` exits
//! non-zero if any invariant is breached.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pb_bouquet::{
    Bouquet, BouquetConfig, EngineSubstrate, ExecutionOutcome, ExecutionSubstrate, RobustConfig,
    RobustRun, SimulatorSubstrate, SubstrateOutcome,
};
use pb_cost::{Parallelism, SelPoint};
use pb_engine::{Database, Engine, EngineOutcome};
use pb_faults::{
    splitmix64, unit_f64, CancelToken, FaultInjector, FaultKind, FaultPlan, PbError, Trigger,
};
use pb_optimizer::PlanId;
use pb_workloads::{by_name, h_q8a_2d, hostile_anti_2d, hostile_ineq_2d};

use crate::table::Table;

/// Number of true-location grid points probed per (workload, driver, plan).
const POINTS_PER_CELL: usize = 10;

/// One row of the survival table.
#[derive(Debug, Default, Clone)]
struct Cell {
    scenarios: usize,
    completed: usize,
    degraded: usize,
    exhausted: usize,
    events: usize,
}

impl Cell {
    /// Count one robust run by how it ended.
    fn tally(&mut self, run: &RobustRun) {
        self.events += run.events.len();
        match run.run.outcome {
            ExecutionOutcome::Completed { .. } => self.completed += 1,
            ExecutionOutcome::Degraded { .. } => self.degraded += 1,
            ExecutionOutcome::BudgetExhausted { .. } | ExecutionOutcome::Cancelled { .. } => {
                self.exhausted += 1
            }
        }
    }

    /// Count one engine execution by how it ended.
    fn tally_engine(&mut self, out: &EngineOutcome) {
        if out.completed() {
            self.completed += 1;
        } else if out.error().is_some() {
            self.degraded += 1;
        } else {
            self.exhausted += 1;
        }
    }
}

/// Campaign outcome: survival statistics plus the list of invariant
/// breaches (empty ⇒ the robustness layer held everywhere).
#[derive(Debug)]
pub struct CampaignReport {
    pub seed: u64,
    pub scenarios: usize,
    pub breaches: Vec<String>,
    pub table: String,
}

impl CampaignReport {
    pub fn passed(&self) -> bool {
        self.breaches.is_empty()
    }
}

/// The fault-plan catalog, the campaign's only one: every fault kind alone
/// (with seed-derived trigger phases), a combined plan, and — first — the
/// empty plan that anchors the inert-equivalence invariant.
fn plan_catalog(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let mut s = seed;
    let mut nth = |hi: u64| 1 + splitmix64(&mut s) % hi;
    vec![
        ("none", FaultPlan::none()),
        (
            "operator-failure",
            FaultPlan::new(seed).with(
                FaultKind::OperatorFailure { waste_frac: 0.5 },
                Trigger::Nth(nth(4)),
            ),
        ),
        (
            "operator-storm",
            FaultPlan::new(seed ^ 1).with(
                FaultKind::OperatorFailure { waste_frac: 0.9 },
                Trigger::PerMille(400),
            ),
        ),
        (
            "ledger-overcharge",
            FaultPlan::new(seed ^ 2).with(
                FaultKind::LedgerOverCharge { factor: 1.5 },
                Trigger::Every(nth(3)),
            ),
        ),
        (
            "spill-failure",
            FaultPlan::new(seed ^ 3).with(FaultKind::SpillFailure, Trigger::Nth(nth(2))),
        ),
        (
            "corrupt-observation",
            FaultPlan::new(seed ^ 4).with(
                FaultKind::CorruptObservation { scale: 50.0 },
                Trigger::Every(1),
            ),
        ),
        (
            "budget-clock-skew",
            FaultPlan::new(seed ^ 5).with(
                FaultKind::BudgetClockSkew { factor: 0.7 },
                Trigger::Every(nth(3)),
            ),
        ),
        (
            "perturbation-spike",
            FaultPlan::new(seed ^ 6).with(
                FaultKind::PerturbationSpike { factor: 3.0 },
                Trigger::PerMille(300),
            ),
        ),
        (
            "combined",
            FaultPlan::new(seed ^ 7)
                .with(
                    FaultKind::OperatorFailure { waste_frac: 0.3 },
                    Trigger::PerMille(200),
                )
                .with(
                    FaultKind::BudgetClockSkew { factor: 1.2 },
                    Trigger::Every(3),
                )
                .with(
                    FaultKind::CorruptObservation { scale: 10.0 },
                    Trigger::PerMille(250),
                ),
        ),
    ]
}

/// Whether every kind in `plan` has a hook on the engine substrate
/// (DESIGN.md's fault table): operator failure and ledger over-charge in
/// the engine, spill failure at the substrate's spill site.
fn engine_hooked(plan: &FaultPlan) -> bool {
    plan.specs.iter().all(|s| {
        matches!(
            s.kind,
            FaultKind::OperatorFailure { .. }
                | FaultKind::LedgerOverCharge { .. }
                | FaultKind::SpillFailure
        )
    })
}

fn cell_of(cells: &mut Vec<(String, Cell)>, key: String) -> usize {
    match cells.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            cells.push((key, Cell::default()));
            cells.len() - 1
        }
    }
}

/// Run `f` under `catch_unwind`: a driver error or a panic becomes the
/// breach text.
fn caught<T>(f: impl FnOnce() -> Result<T, PbError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("driver error: {e}")),
        Err(_) => Err("PANIC".into()),
    }
}

/// The recovery settings every scenario block sweeps its fault plans and
/// both policies through.
fn robust_cfg(optimized: bool) -> RobustConfig {
    RobustConfig {
        optimized,
        ..Default::default()
    }
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("<serialize failed: {e}>"))
}

/// Makes one run on a fresh substrate armed with the injector, under the
/// configuration.
type RunOn<'a> = dyn Fn(FaultInjector, &RobustConfig) -> Result<RobustRun, PbError> + 'a;

/// The check every robust run goes through: under `faults` and the
/// recovery settings, no panic, books that pass [`RobustRun::audit`], a
/// bit-identical replay, and — under the empty plan — the plain settings'
/// run on an unarmed substrate, with no events.
fn check_robust(
    tag: &str,
    b: &Bouquet,
    run: &RunOn,
    (faults, optimized): (&FaultPlan, bool),
    cell: &mut Cell,
    breaches: &mut Vec<String>,
) {
    let cfg = robust_cfg(optimized);
    let robust = || run(FaultInjector::new(faults), &cfg);
    let rr = match caught(robust) {
        Ok(r) => r,
        Err(e) => return breaches.push(format!("{tag}: {e}")),
    };
    if let Err(e) = rr.audit(b, &cfg) {
        breaches.push(format!("{tag}: audit: {e}"));
    }
    match caught(robust) {
        Ok(replay) if json(&replay) == json(&rr) => {}
        Ok(_) => breaches.push(format!("{tag}: replay diverged")),
        Err(e) => breaches.push(format!("{tag}: replay failed: {e}")),
    }
    if faults.is_empty() {
        match caught(|| run(FaultInjector::none(), &RobustConfig::plain(optimized))) {
            Ok(plain) if json(&plain.run) != json(&rr.run) => {
                breaches.push(format!("{tag}: empty-plan run != plain driver run"));
            }
            Ok(_) => {}
            Err(e) => breaches.push(format!("{tag}: plain driver: {e}")),
        }
        if !rr.events.is_empty() || matches!(rr.run.outcome, ExecutionOutcome::Degraded { .. }) {
            breaches.push(format!("{tag}: empty-plan run recorded {:?}", rr.events));
        }
    }
    cell.tally(&rr);
}

/// Run the full campaign. Deterministic in `seed`.
pub fn run_campaign(seed: u64) -> CampaignReport {
    let mut breaches: Vec<String> = Vec::new();
    let mut scenarios = 0usize;
    let mut cells: Vec<(String, Cell)> = Vec::new();

    let catalog = plan_catalog(seed);
    // Simulator fixtures, identified once (identification is fault-free),
    // each with the share of the catalog it sweeps: all of it, or — for the
    // 4D space — the empty plan, where nothing may be recorded either.
    let fixtures = [
        (by_name("EQ_1D").expect("a registered space"), catalog.len()),
        (h_q8a_2d(0.01), catalog.len()),
        (
            by_name("3D_DS_Q15").expect("a registered space"),
            catalog.len(),
        ),
        (hostile_ineq_2d(0.01), catalog.len()),
        (hostile_anti_2d(0.01), catalog.len()),
        (by_name("4D_DS_Q91").expect("a registered space"), 1),
    ];
    let bouquets: Vec<Bouquet> = fixtures
        .iter()
        .map(|(w, _)| {
            Bouquet::identify(w, &BouquetConfig::default())
                .unwrap_or_else(|e| panic!("identification of {} failed: {e}", w.name))
        })
        .collect();

    let mut point_rng = seed ^ 0x5EED_CAFE;
    for (b, (_, plans)) in bouquets.iter().zip(&fixtures) {
        let d = b.workload.ess.d();
        for optimized in [false, true] {
            let driver = if optimized { "opt" } else { "basic" };
            for (label, plan) in &catalog[..*plans] {
                let ci = cell_of(&mut cells, format!("{label}|{driver}"));
                for _ in 0..POINTS_PER_CELL {
                    scenarios += 1;
                    cells[ci].1.scenarios += 1;
                    let fracs: Vec<f64> = (0..d)
                        .map(|_| unit_f64(splitmix64(&mut point_rng)).clamp(0.01, 0.99))
                        .collect();
                    let qa = b.workload.ess.point_at_fractions(&fracs);
                    let run = |faults: FaultInjector, cfg: &RobustConfig| {
                        let mut sub = SimulatorSubstrate::new(b, &qa, faults)?;
                        b.run(&mut sub, cfg)
                    };
                    check_robust(
                        &format!("{}/{driver}/{label}@{fracs:?}", b.workload.name),
                        b,
                        &run,
                        (plan, optimized),
                        &mut cells[ci].1,
                        &mut breaches,
                    );
                }
            }
        }
    }

    let engine_catalog: Vec<(&str, FaultPlan)> = catalog
        .iter()
        .filter(|(_, plan)| engine_hooked(plan))
        .cloned()
        .collect();
    scenarios += parallel_engine_scenarios(seed, &engine_catalog, &mut breaches, &mut cells);
    scenarios += engine_fixture_scenarios(seed, &engine_catalog, &mut breaches, &mut cells);
    scenarios += cancel_resume_scenarios(seed, &bouquets[0], &mut breaches, &mut cells);
    scenarios += server_scenarios(seed, &mut breaches, &mut cells);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos campaign: seed {seed}, {scenarios} scenarios, {} breach(es)\n",
        breaches.len()
    );
    let mut t = Table::new(vec![
        "fault × driver",
        "runs",
        "completed",
        "degraded",
        "exhausted",
        "events",
    ]);
    for (key, c) in &cells {
        t.row(vec![
            key.clone(),
            c.scenarios.to_string(),
            c.completed.to_string(),
            c.degraded.to_string(),
            c.exhausted.to_string(),
            c.events.to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    for bch in &breaches {
        let _ = writeln!(out, "BREACH: {bch}");
    }

    CampaignReport {
        seed,
        scenarios,
        breaches,
        table: out,
    }
}

/// Builds an engine fixture's bouquet and data from the campaign seed.
type EngineFixture = fn(u64) -> (Bouquet, Database);

/// Engine fixtures: the robust ladder ([`Bouquet::run`]) over
/// [`EngineSubstrate`] on real tuples, every engine-hooked catalog plan ×
/// both policies through [`check_robust`]. 2D_H_Q8A's join keys are
/// duplicated (Section 6.7 skew), so the true location sits far from the
/// AVI estimate and discovery crosses several contours before it
/// completes; the hostile setups put stale statistics on the inequality-
/// and anti-join axes, so the semi/anti/BNL kernels and the per-kind
/// observation mapping (the flipped anti axis included) run under faults.
/// The driver spills only when a plan's modeled cost at qrun overshoots
/// its budget, which observation lower bounds rarely cause, so each
/// fixture also drives spilled executions straight at the substrate.
fn engine_fixture_scenarios(
    seed: u64,
    catalog: &[(&str, FaultPlan)],
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    use crate::experiments::hostile::{setup_anti, setup_ineq};
    let fixtures: [(&str, EngineFixture); 3] = [
        ("engine-sub", |seed| {
            let w = h_q8a_2d(0.003);
            let b = Bouquet::identify(&w, &BouquetConfig::default()).expect("identify");
            let overrides = crate::engine_driver::duplicated_join_keys(60, 240);
            let db = Database::generate(&w.catalog, seed ^ 0xE5, &overrides).expect("generate");
            (b, db)
        }),
        ("hostile-ineq", |_| {
            let (_, b, db) = setup_ineq(0.003);
            (b, db)
        }),
        ("hostile-anti", |_| {
            let (_, b, db) = setup_anti(0.003);
            (b, db)
        }),
    ];

    let mut ran = 0usize;
    for (name, setup) in fixtures {
        let Ok((b, db)) = catch_unwind(|| setup(seed)) else {
            breaches.push(format!("{name}: setup PANIC"));
            continue;
        };
        let run = |faults: FaultInjector, cfg: &RobustConfig| {
            let mut sub = EngineSubstrate::new(&b, &db, faults);
            b.run(&mut sub, cfg)
        };
        for optimized in [false, true] {
            let driver = if optimized { "opt" } else { "basic" };
            for (label, plan) in catalog {
                let ci = cell_of(cells, format!("{name}:{label}|{driver}"));
                ran += 1;
                cells[ci].1.scenarios += 1;
                check_robust(
                    &format!("{name}/{driver}/{label}"),
                    &b,
                    &run,
                    (plan, optimized),
                    &mut cells[ci].1,
                    breaches,
                );
            }
        }
        for (label, plan) in catalog.iter().filter(|(_, plan)| {
            plan.is_empty() || plan.specs.iter().any(|s| s.kind == FaultKind::SpillFailure)
        }) {
            let ci = cell_of(cells, format!("{name}:spill-direct|{label}"));
            ran += 1;
            cells[ci].1.scenarios += 1;
            let tag = format!("{name}/spill-direct/{label}");
            check_spill_direct(&tag, (&b, &db), plan, &mut cells[ci].1, breaches);
        }
    }
    ran
}

/// One spilled execution of contour 1's first plan at its budget, straight
/// at the engine substrate under `faults`: the `engine:spill` site fires
/// before a spilled prefix runs. No panic; a failed spill charges nothing;
/// a surviving spill stays within budget, never completes the query and
/// observes only inside the ESS; a replay is identical.
fn check_spill_direct(
    tag: &str,
    (b, db): (&Bouquet, &Database),
    faults: &FaultPlan,
    cell: &mut Cell,
    breaches: &mut Vec<String>,
) {
    let ess = &b.workload.ess;
    let (pid, budget) = (b.contours[0].plan_set[0], b.contours[0].budget);
    let spill_exec = || {
        let mut sub = EngineSubstrate::new(b, db, FaultInjector::new(faults));
        sub.execute_monitored(pid, &vec![false; ess.d()], budget, true)
    };
    let Ok(out) = catch_unwind(AssertUnwindSafe(spill_exec)) else {
        return breaches.push(format!("{tag}: PANIC"));
    };
    if !out.spilled {
        breaches.push(format!("{tag}: outcome not marked spilled"));
    }
    if let Some(PbError::SpillFailure { .. }) = &out.error {
        if out.spent != 0.0 {
            breaches.push(format!("{tag}: failed spill charged {}", out.spent));
        }
        cell.events += 1;
    } else {
        if out.completed {
            breaches.push(format!("{tag}: spilled run completed the query"));
        }
        if out.spent > budget * (1.0 + 1e-9) {
            breaches.push(format!("{tag}: spill spent {} > {budget}", out.spent));
        }
        for &(dm, v) in out.observed.iter().chain(&out.resolved) {
            if v < ess.dims[dm].lo || v > ess.dims[dm].hi {
                breaches.push(format!("{tag}: observation {v} for dim {dm} outside ESS"));
            }
        }
        cell.completed += 1;
    }
    match catch_unwind(AssertUnwindSafe(spill_exec)) {
        Ok(replay) if replay == out => {}
        Ok(_) => breaches.push(format!("{tag}: spill replay diverged")),
        Err(_) => breaches.push(format!("{tag}: spill replay PANIC")),
    }
}

/// A substrate wrapper that trips a cancellation token after `remaining`
/// executions — the library-level model of a deadline landing mid-run at an
/// arbitrary retry/abandon decision point.
struct TripAfter<'a> {
    inner: SimulatorSubstrate<'a>,
    token: CancelToken,
    remaining: usize,
}

impl TripAfter<'_> {
    fn tick(&mut self) {
        if self.remaining == 0 {
            self.token.cancel();
        } else {
            self.remaining -= 1;
        }
    }
}

impl ExecutionSubstrate for TripAfter<'_> {
    fn execute_partial(&mut self, pid: PlanId, budget: f64) -> SubstrateOutcome {
        self.tick();
        self.inner.execute_partial(pid, budget)
    }

    fn execute_monitored(
        &mut self,
        pid: PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> SubstrateOutcome {
        self.tick();
        self.inner.execute_monitored(pid, resolved, budget, spilled)
    }

    fn run_native_at(&mut self, point: &SelPoint) -> f64 {
        self.inner.run_native_at(point)
    }

    fn faults_active(&self) -> bool {
        self.inner.faults_active()
    }

    fn cancelled(&self) -> Option<PbError> {
        self.inner.cancelled()
    }
}

/// Cancel/resume block: trip a cancellation token after every possible
/// execution count, carry the cancelled run's checkpoint book into a fresh
/// substrate, and rerun the identical submission. Both runs pass
/// [`RobustRun::audit`], the first ends `Cancelled`, and the rerun passes
/// [`RobustRun::audit_resumed`] against an uninterrupted restart —
/// cancellation at any decision point loses progress, never correctness.
fn cancel_resume_scenarios(
    seed: u64,
    b: &Bouquet,
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    let mut s = seed ^ 0xCA_7CE1;
    let mut ran = 0usize;
    for optimized in [false, true] {
        let driver = if optimized { "opt" } else { "basic" };
        let ci = cell_of(cells, format!("server:cancel-resume|{driver}"));
        for _ in 0..3 {
            let frac = unit_f64(splitmix64(&mut s)).clamp(0.05, 0.95);
            let qa = b.workload.ess.point_at_fractions(&[frac]);
            let tag = |n: usize| format!("cancel-resume/{driver}@{frac:.3}/trip#{n}");
            let cfg = robust_cfg(optimized);
            let mk = || SimulatorSubstrate::new(b, &qa, FaultInjector::none());
            // The uninterrupted restart every resumed rerun answers to.
            let restart = match mk().and_then(|mut sub| b.run(&mut sub, &cfg)) {
                Ok(r) => r,
                Err(e) => {
                    breaches.push(format!("{}: restart run failed: {e}", tag(0)));
                    continue;
                }
            };

            for trip in 0..restart.run.trace.len() {
                ran += 1;
                cells[ci].1.scenarios += 1;
                let token = CancelToken::new();
                let resumed = mk().and_then(|inner| {
                    let mut tripped = TripAfter {
                        inner: inner.with_cancel(token.clone()),
                        token,
                        remaining: trip,
                    };
                    tripped.inner.enable_checkpoint_resume();
                    let first = b.run(&mut tripped, &cfg)?;
                    // The cancelled run's book carries into the rerun.
                    let mut sub = mk()?;
                    let book = tripped.inner.resume.take_book();
                    sub.resume.install_book(book.unwrap_or_default());
                    let resumed = b.run(&mut sub, &cfg)?;
                    Ok((first, resumed, sub.resume_stats().reused_cost))
                });
                let (first, resumed, reused) = match resumed {
                    Ok(r) => r,
                    Err(e) => {
                        breaches.push(format!("{}: {e}", tag(trip)));
                        continue;
                    }
                };
                if !matches!(first.run.outcome, ExecutionOutcome::Cancelled { .. }) {
                    breaches.push(format!(
                        "{}: expected Cancelled after {trip} executions, got {}",
                        tag(trip),
                        json(&first.run.outcome)
                    ));
                }
                let audited = first
                    .audit(b, &cfg)
                    .and_then(|()| resumed.audit(b, &cfg))
                    .and_then(|()| resumed.audit_resumed(reused, &restart));
                if let Err(e) = audited {
                    breaches.push(format!("{}: {e}", tag(trip)));
                }
                cells[ci].1.tally(&resumed);
            }
        }
    }
    ran
}

/// Every accepted request answered, nothing left queued or in flight, and no
/// tenant over its cap.
fn check_accounting(stats: &pb_server::ServerStats) -> Result<(), String> {
    let answered =
        stats.completed + stats.degraded + stats.budget_exhausted + stats.cancelled + stats.failed;
    if answered != stats.accepted {
        return Err(format!(
            "accepted {} but answered {answered}",
            stats.accepted
        ));
    }
    if stats.queue_depth != 0 || stats.inflight != 0 {
        return Err(format!(
            "drain left queue_depth={} inflight={}",
            stats.queue_depth, stats.inflight
        ));
    }
    for (tenant, spent, cap) in &stats.tenants {
        if *cap >= 0.0 && *spent > cap * (1.0 + 1e-9) {
            return Err(format!("tenant {tenant} over cap: {spent} > {cap}"));
        }
    }
    Ok(())
}

/// Server block: boot the full `pb-server` stack with **all four** server
/// fault sites armed (worker-panic, slow-client, queue-stall,
/// client-disconnect) plus finite tenant budgets, drive a multi-tenant
/// request mix over real TCP with reconnect-on-disconnect clients, then
/// drain. Invariants: the server never goes down, every accepted request is
/// answered, `failed` outcomes are exactly the contained worker panics,
/// no tenant ever exceeds its budget, and drain leaves nothing queued or in
/// flight.
fn server_scenarios(
    seed: u64,
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    use std::time::Duration;

    use pb_server::{PbClient, PbServer, Request, Response, ServerConfig};

    let submit_one = |addr: std::net::SocketAddr, req: &Request| -> Result<u64, String> {
        for _ in 0..500 {
            let Ok(mut c) = PbClient::connect(addr) else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            match c.submit(req) {
                Ok(Ok(id)) => return Ok(id),
                Ok(Err(Response::Rejected { .. })) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(Err(other)) => return Err(format!("unexpected submit reply: {other:?}")),
                // Dropped by the disconnect fault before the reply: the
                // request may have been admitted server-side; resubmitting
                // is safe (both copies are answered and accounted).
                Err(_) => {}
            }
        }
        Err("submission never accepted".into())
    };
    let wait_done = |addr: std::net::SocketAddr, id: u64| -> Result<String, String> {
        for _ in 0..500 {
            let Ok(mut c) = PbClient::connect(addr) else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            // On Err the connection dropped mid-wait; reconnect and retry.
            if let Ok(r) = c.wait(id, Duration::from_secs(30)) {
                return Ok(r.outcome);
            }
        }
        Err(format!("request {id} never reached a terminal state"))
    };

    let mut ran = 0usize;
    for (label, faults, tenant_cap) in [
        ("clean", FaultPlan::none(), f64::INFINITY),
        (
            "faulted",
            FaultPlan::new(seed ^ 0x5E)
                .with(FaultKind::WorkerPanic, Trigger::Nth(3))
                .with(FaultKind::SlowClient { ms: 5 }, Trigger::Every(7))
                .with(FaultKind::QueueStall { ms: 5 }, Trigger::Every(5))
                .with(FaultKind::ClientDisconnect, Trigger::Nth(11)),
            1.5e6,
        ),
    ] {
        let ci = cell_of(cells, format!("server:{label}"));
        let tag = |what: &str| format!("server/{label}: {what}");
        let server = match PbServer::start(ServerConfig {
            workers: 2,
            queue_cap: 3,
            tenant_cap,
            faults,
            ..ServerConfig::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                breaches.push(tag(&format!("failed to start: {e}")));
                continue;
            }
        };
        let addr = server.addr();

        let mut rng = seed ^ 0x5EC7;
        let requests = 12;
        for i in 0..requests {
            ran += 1;
            cells[ci].1.scenarios += 1;
            let frac = unit_f64(splitmix64(&mut rng)).clamp(0.02, 0.98);
            // A couple of zero-deadline submissions per server exercise the
            // cancelled rung alongside the fault mix.
            let deadline_ms = (i % 6 == 5).then_some(0);
            let req = Request::Submit {
                tenant: format!("tenant-{}", i % 3),
                workload: "EQ_1D".into(),
                fractions: vec![frac],
                optimized: i % 2 == 1,
                resume: false,
                deadline_ms,
            };
            let outcome = submit_one(addr, &req).and_then(|id| wait_done(addr, id));
            match outcome.as_deref() {
                Ok("completed") => cells[ci].1.completed += 1,
                Ok("degraded") => cells[ci].1.degraded += 1,
                Ok("budget-exhausted") | Ok("cancelled") => cells[ci].1.exhausted += 1,
                Ok("failed") if label == "faulted" => cells[ci].1.events += 1,
                Ok(other) => breaches.push(tag(&format!("request ended `{other}`"))),
                Err(e) => breaches.push(tag(e)),
            }
        }

        // The server survived the whole mix: a fresh connection still works.
        match PbClient::connect(addr).and_then(|mut c| c.request(&Request::Ping)) {
            Ok(Response::Pong) => {}
            other => breaches.push(tag(&format!("unresponsive after mix: {other:?}"))),
        }

        let stats = server.stop();
        if let Err(e) = check_accounting(&stats) {
            breaches.push(tag(&e));
        }
        if stats.failed != stats.worker_panics {
            breaches.push(tag(&format!(
                "{} failed outcomes vs {} contained panics — \
                 a request failed for a non-injected reason",
                stats.failed, stats.worker_panics
            )));
        }
        if label == "faulted" {
            if stats.worker_panics == 0 {
                breaches.push(tag("worker-panic fault never fired"));
            }
            if stats.workers_replaced == 0 {
                breaches.push(tag("poisoned worker was never replaced"));
            }
        } else if stats.worker_panics != 0 || stats.failed != 0 {
            breaches.push(tag("clean server recorded failures"));
        }
    }
    ran
}

/// Engine-level block: a plain and a spilled EQ_1D plan at five budgets
/// under every engine-hooked catalog plan, at 1 worker and with
/// morsel-driven kernels at 2 and 4 (the gate lowered so they engage at
/// chaos scale). Every execution must be bit-identical to the serial
/// engine's under an identically-seeded injector — the coordinator replays
/// the serial ledger event sequence however many workers computed the
/// batches — never spend past its budget, and unarmed equal a bare one.
fn parallel_engine_scenarios(
    seed: u64,
    catalog: &[(&str, FaultPlan)],
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    let w = by_name("EQ_1D").expect("a registered space");
    let db = match Database::generate(&w.catalog, seed ^ 0xD0, &[]) {
        Ok(db) => db,
        Err(e) => {
            breaches.push(format!("engine: data generation failed: {e}"));
            return 0;
        }
    };
    // Gating is outcome-neutral by design.
    let mk = |workers: usize| {
        Engine::new(&db, &w.query, &w.model.p)
            .with_parallelism(Parallelism::new(workers))
            .with_morsel_threshold(64)
    };
    let serial = Engine::new(&db, &w.query, &w.model.p);
    let qe = w.ess.point_at_fractions(&[0.5]);
    let root = w.optimizer().optimize(&qe).plan.root;
    let plans = [("plain", root.clone()), ("spilled", root.spilled())];

    let mut ran = 0usize;
    for (pname, plan) in &plans {
        let ref_cost = serial.execute(plan, f64::INFINITY).cost();
        for (label, fp) in catalog {
            for workers in [1usize, 2, 4] {
                let eng = mk(workers);
                let ci = cell_of(cells, format!("engine-par:{label}|{pname}x{workers}"));
                for (bi, share) in [0.25, 0.5, 0.75, 1.0, f64::INFINITY].iter().enumerate() {
                    ran += 1;
                    cells[ci].1.scenarios += 1;
                    let budget = ref_cost * share;
                    let tag = format!("engine-par/{label}/{pname}/{workers}w/budget#{bi}");
                    let reference =
                        serial.execute_with_faults(plan, budget, &FaultInjector::new(fp));
                    let Ok(out) = catch_unwind(AssertUnwindSafe(|| {
                        eng.execute_with_faults(plan, budget, &FaultInjector::new(fp))
                    })) else {
                        breaches.push(format!("{tag}: PANIC"));
                        continue;
                    };
                    if out != reference {
                        breaches.push(format!(
                            "{tag}: parallel outcome != serial (cost {} vs {})",
                            out.cost(),
                            reference.cost()
                        ));
                    }
                    // Over-charge only inflates the ledger up to the abort
                    // point, which budget enforcement still caps.
                    if out.cost() > budget * (1.0 + 1e-9) {
                        breaches.push(format!("{tag}: spent {} over budget {budget}", out.cost()));
                    }
                    if fp.is_empty() && out != eng.execute(plan, budget) {
                        breaches.push(format!("{tag}: inert engine run diverged"));
                    }
                    cells[ci].1.tally_engine(&out);
                }
            }
        }
    }
    ran
}
