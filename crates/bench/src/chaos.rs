//! Seeded chaos campaign for the robust bouquet driver.
//!
//! Sweeps fault kinds × drivers × TPC-H / TPC-DS workloads × true-location
//! grid points through [`Bouquet::run`], plus blocks of engine-, substrate-
//! and server-level scenarios, and checks the invariants the robustness
//! layer promises:
//!
//! * **No panics** — every scenario runs under `catch_unwind`; a panic
//!   anywhere in the identification/driver/engine stack is a breach.
//! * **No double charging** — a run's `total_cost` must equal the sum of its
//!   trace spends (every retry and degraded attempt is charged exactly once).
//! * **Determinism** — replaying a scenario with the same seed must produce a
//!   bit-identical `RobustRun` (serialized comparison).
//! * **Inert equivalence** — with an empty fault plan, neither the injector
//!   nor the recovery settings may change anything: same serialized
//!   `BouquetRun` as under [`RobustConfig::plain`] on an unarmed substrate,
//!   no events, not degraded. On the engine, an inert injector must yield a
//!   bit-identical `EngineOutcome`.
//!
//! The campaign is fully deterministic in its seed; `pbq chaos --seed N`
//! exits non-zero if any invariant is breached.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pb_bouquet::{
    Bouquet, BouquetConfig, BouquetRun, EngineSubstrate, ExecutionOutcome, RobustConfig, RobustRun,
    SimulatorSubstrate,
};
use pb_engine::{Database, Engine, EngineOutcome};
use pb_faults::{splitmix64, unit_f64, FaultInjector, FaultKind, FaultPlan, PbError, Trigger};
use pb_workloads::{ds_q15_3d, eq_1d, h_q8a_2d, hostile_anti_2d, hostile_ineq_2d};

use crate::engine_driver::EngineRunReport;
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

/// The fault-plan catalog: every fault kind alone (with seed-derived trigger
/// phases), a combined plan, and the empty plan that anchors the
/// inert-equivalence invariant.
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

/// One robust-driver scenario, on whichever substrate `robust` runs it:
/// no panic, `total_cost` equal to the sum of trace spends, a bit-identical
/// replay, and — when `plain` is given, i.e. under the empty fault plan —
/// structural identity with the plain driver's run.
fn check_robust(
    tag: &str,
    robust: impl Fn() -> Result<RobustRun, PbError>,
    plain: Option<&dyn Fn() -> Result<BouquetRun, PbError>>,
    cell: &mut Cell,
    breaches: &mut Vec<String>,
) {
    let run = match caught(&robust) {
        Ok(r) => r,
        Err(e) => return breaches.push(format!("{tag}: {e}")),
    };
    let sum: f64 = run.run.trace.iter().map(|e| e.spent).sum();
    if (sum - run.run.total_cost).abs() > 1e-9 * sum.abs().max(1.0) {
        breaches.push(format!(
            "{tag}: double/under-charge: trace sum {sum} vs total {}",
            run.run.total_cost
        ));
    }
    match caught(&robust) {
        Ok(replay) if json(&replay) == json(&run) => {}
        Ok(_) => breaches.push(format!("{tag}: replay diverged")),
        Err(e) => breaches.push(format!("{tag}: replay failed: {e}")),
    }
    if let Some(plain) = plain {
        match caught(plain) {
            Ok(reference) => {
                if json(&run.run) != json(&reference) {
                    breaches.push(format!("{tag}: empty-plan run != plain driver run"));
                }
                if !run.events.is_empty() || run.degraded {
                    breaches.push(format!("{tag}: empty-plan run recorded events"));
                }
            }
            Err(e) => return breaches.push(format!("{tag}: plain driver: {e}")),
        }
    }
    cell.events += run.events.len();
    match run.run.outcome {
        ExecutionOutcome::Completed { .. } => cell.completed += 1,
        ExecutionOutcome::Degraded { .. } => cell.degraded += 1,
        ExecutionOutcome::BudgetExhausted { .. } | ExecutionOutcome::Cancelled { .. } => {
            cell.exhausted += 1
        }
    }
}

/// [`check_robust`] on the engine substrate over `db`, armed with `faults`.
fn check_robust_on_engine(
    tag: &str,
    (b, db): (&Bouquet, &Database),
    (faults, optimized): (&FaultPlan, bool),
    cell: &mut Cell,
    breaches: &mut Vec<String>,
) {
    let run = |faults: FaultInjector, cfg: RobustConfig| {
        let mut sub = EngineSubstrate::new(b, db, faults);
        b.run(&mut sub, &cfg)
    };
    let plain = || Ok(run(FaultInjector::none(), RobustConfig::plain(optimized))?.run);
    check_robust(
        tag,
        || run(FaultInjector::new(faults), robust_cfg(optimized)),
        faults
            .is_empty()
            .then_some(&plain as &dyn Fn() -> Result<BouquetRun, PbError>),
        cell,
        breaches,
    );
}

/// The engine-side fault plans the serial and the parallel engine blocks
/// both sweep.
fn engine_fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        (
            "operator-failure",
            FaultPlan::new(seed).with(
                FaultKind::OperatorFailure { waste_frac: 0.5 },
                Trigger::Nth(1 + seed % 64),
            ),
        ),
        (
            "ledger-overcharge",
            FaultPlan::new(seed ^ 9).with(
                FaultKind::LedgerOverCharge { factor: 2.0 },
                Trigger::Every(7),
            ),
        ),
        (
            "operator-storm",
            FaultPlan::new(seed ^ 10).with(
                FaultKind::OperatorFailure { waste_frac: 1.0 },
                Trigger::PerMille(5),
            ),
        ),
    ]
}

impl Cell {
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

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("<serialize failed: {e}>"))
}

/// Run the full campaign. Deterministic in `seed`.
pub fn run_campaign(seed: u64) -> CampaignReport {
    let mut breaches: Vec<String> = Vec::new();
    let mut scenarios = 0usize;
    let mut cells: Vec<(String, Cell)> = Vec::new();

    // Identified once, reused for every scenario (identification is
    // fault-free; the campaign targets the run-time drivers).
    let workloads = [
        eq_1d(),
        h_q8a_2d(0.01),
        ds_q15_3d(),
        // Typed-dimension hostile spaces: the inequality-join and
        // (pre-flipped) anti-join axes must survive the same fault sweep as
        // the classic selection/PK–FK spaces.
        hostile_ineq_2d(0.01),
        hostile_anti_2d(0.01),
    ];
    let bouquets: Vec<Bouquet> = workloads
        .iter()
        .map(|w| {
            Bouquet::identify(w, &BouquetConfig::default())
                .unwrap_or_else(|e| panic!("identification of {} failed: {e}", w.name))
        })
        .collect();

    let catalog = plan_catalog(seed);
    let mut point_rng = seed ^ 0x5EED_CAFE;
    for b in &bouquets {
        let d = b.workload.ess.d();
        for optimized in [false, true] {
            let driver = if optimized { "opt" } else { "basic" };
            for (label, plan) in &catalog {
                let ci = cell_of(&mut cells, format!("{label}|{driver}"));
                for _ in 0..POINTS_PER_CELL {
                    scenarios += 1;
                    cells[ci].1.scenarios += 1;
                    let fracs: Vec<f64> = (0..d)
                        .map(|_| unit_f64(splitmix64(&mut point_rng)).clamp(0.01, 0.99))
                        .collect();
                    let qa = b.workload.ess.point_at_fractions(&fracs);
                    let run = |faults: FaultInjector, cfg: RobustConfig| {
                        let mut sub = SimulatorSubstrate::new(b, &qa, faults)?;
                        b.run(&mut sub, &cfg)
                    };
                    // The plain run anchors the empty-plan equivalence check.
                    let plain =
                        || Ok(run(FaultInjector::none(), RobustConfig::plain(optimized))?.run);
                    check_robust(
                        &format!("{}/{driver}/{label}@{fracs:?}", b.workload.name),
                        || run(FaultInjector::new(plan), robust_cfg(optimized)),
                        plan.is_empty()
                            .then_some(&plain as &dyn Fn() -> Result<BouquetRun, PbError>),
                        &mut cells[ci].1,
                        &mut breaches,
                    );
                }
            }
        }
    }

    scenarios += engine_scenarios(seed, &mut breaches, &mut cells);
    scenarios += parallel_engine_scenarios(seed, &mut breaches, &mut cells);
    scenarios += engine_substrate_scenarios(seed, &mut breaches, &mut cells);
    scenarios += hostile_engine_scenarios(seed, &mut breaches, &mut cells);
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

/// Engine-substrate block: the full robust ladder ([`Bouquet::run`]) driving
/// the engine on real tuples through [`pb_bouquet::EngineSubstrate`], under
/// operator-failure and spill-failure faults. Checks the same invariants as
/// the simulator block — no panics, no double charging, deterministic
/// replay, and empty-plan equivalence with the plain settings.
fn engine_substrate_scenarios(
    seed: u64,
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    let w = h_q8a_2d(0.003);
    let b = match catch_unwind(AssertUnwindSafe(|| {
        Bouquet::identify(&w, &BouquetConfig::default())
    })) {
        Ok(Ok(b)) => b,
        Ok(Err(e)) => {
            breaches.push(format!("engine-substrate: identification failed: {e}"));
            return 0;
        }
        Err(_) => {
            breaches.push("engine-substrate: identification PANIC".into());
            return 0;
        }
    };
    // Duplicated join keys (Section 6.7 skew): the true location sits far
    // from the AVI estimate, so discovery crosses several contours and the
    // injected operator faults hit mid-campaign rather than on a trivial
    // first-contour completion. (Spilled executions are exercised directly
    // below — the driver only spills when a plan's modeled cost at qrun
    // overshoots its budget, which observation lower bounds rarely cause.)
    let overrides = crate::engine_driver::duplicated_join_keys(60, 240);
    let db = match Database::generate(&w.catalog, seed ^ 0xE5, &overrides) {
        Ok(db) => db,
        Err(e) => {
            breaches.push(format!("engine-substrate: data generation failed: {e}"));
            return 0;
        }
    };

    let mut s = seed ^ 0xB0u64;
    let mut nth = |hi: u64| 1 + splitmix64(&mut s) % hi;
    let fault_plans: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        (
            "operator-failure",
            FaultPlan::new(seed ^ 11).with(
                FaultKind::OperatorFailure { waste_frac: 0.5 },
                Trigger::Nth(nth(16)),
            ),
        ),
        (
            "operator-storm",
            FaultPlan::new(seed ^ 12).with(
                FaultKind::OperatorFailure { waste_frac: 0.8 },
                Trigger::PerMille(30),
            ),
        ),
        (
            "spill-failure",
            FaultPlan::new(seed ^ 13).with(FaultKind::SpillFailure, Trigger::Nth(nth(2))),
        ),
        (
            "combined",
            FaultPlan::new(seed ^ 14)
                .with(
                    FaultKind::OperatorFailure { waste_frac: 0.4 },
                    Trigger::PerMille(20),
                )
                .with(FaultKind::SpillFailure, Trigger::Every(2)),
        ),
    ];

    let mut ran = 0usize;
    for optimized in [false, true] {
        let driver = if optimized { "opt" } else { "basic" };
        for (label, fp) in &fault_plans {
            let ci = cell_of(cells, format!("engine-sub:{label}|{driver}"));
            for variant in 0..2u64 {
                ran += 1;
                cells[ci].1.scenarios += 1;
                let mut faults = fp.clone();
                faults.seed ^= variant;
                check_robust_on_engine(
                    &format!("engine-sub/{driver}/{label}#{variant}"),
                    (&b, &db),
                    (&faults, optimized),
                    &mut cells[ci].1,
                    breaches,
                );
            }
        }
    }

    // Direct spilled executions: the `engine:spill` fault site fires before
    // a spilled prefix runs, so drive `execute_monitored(.., spilled=true)`
    // straight at the substrate with spill-failure plans armed. Invariants:
    // no panic, a failed spill charges nothing, a surviving spill stays
    // within budget and never completes the query, and replays are
    // bit-identical.
    use pb_bouquet::ExecutionSubstrate as _;
    let d = w.ess.d();
    let pid = b.contours[0].plan_set[0];
    let budget = b.contours[0].budget;
    for (label, fp) in fault_plans
        .iter()
        .filter(|(l, _)| matches!(*l, "none" | "spill-failure" | "combined"))
    {
        let ci = cell_of(cells, format!("engine-sub:spill-direct|{label}"));
        for variant in 0..2u64 {
            ran += 1;
            cells[ci].1.scenarios += 1;
            let mut faults = fp.clone();
            faults.seed ^= variant;
            let tag = || format!("engine-sub/spill-direct/{label}#{variant}");
            let spill_exec = || {
                let mut sub =
                    pb_bouquet::EngineSubstrate::new(&b, &db, FaultInjector::new(&faults));
                sub.execute_monitored(pid, &vec![false; d], budget, true)
            };
            let out = match catch_unwind(AssertUnwindSafe(spill_exec)) {
                Ok(o) => o,
                Err(_) => {
                    breaches.push(format!("{}: PANIC", tag()));
                    continue;
                }
            };
            if !out.spilled {
                breaches.push(format!("{}: outcome not marked spilled", tag()));
            }
            match &out.error {
                Some(pb_faults::PbError::SpillFailure { .. }) => {
                    if out.spent != 0.0 {
                        breaches.push(format!(
                            "{}: failed spill charged {} (must be 0)",
                            tag(),
                            out.spent
                        ));
                    }
                    cells[ci].1.events += 1;
                }
                _ => {
                    if out.completed {
                        breaches.push(format!("{}: spilled run completed the query", tag()));
                    }
                    if out.spent > budget * (1.0 + 1e-9) {
                        breaches.push(format!(
                            "{}: spill overspent budget: {} > {budget}",
                            tag(),
                            out.spent
                        ));
                    }
                    for &(dm, v) in out.observed.iter().chain(&out.resolved) {
                        if v < w.ess.dims[dm].lo || v > w.ess.dims[dm].hi {
                            breaches.push(format!(
                                "{}: observation {v} for dim {dm} outside ESS",
                                tag()
                            ));
                        }
                    }
                    cells[ci].1.completed += 1;
                }
            }
            match catch_unwind(AssertUnwindSafe(spill_exec)) {
                Ok(replay)
                    if replay.spent == out.spent
                        && replay.error.is_some() == out.error.is_some()
                        && replay.observed == out.observed
                        && replay.resolved == out.resolved => {}
                Ok(_) => breaches.push(format!("{}: spill replay diverged", tag())),
                Err(_) => breaches.push(format!("{}: spill replay PANIC", tag())),
            }
        }
    }
    ran
}

/// Hostile typed-dimension block: the inequality-join and anti-join error
/// spaces (stale-statistics setups from the `hostile` experiment) driven
/// through the robust ladder on the real engine substrate under operator
/// and spill faults. The new semi/anti/BNL kernels and the per-kind
/// observation mapping (including the flipped anti axis) must uphold the
/// same invariants as the classic spaces: no panics, exact charging,
/// bit-identical replay, and empty-plan equivalence with the plain driver.
fn hostile_engine_scenarios(
    seed: u64,
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    let setups = [("ineq", 0usize), ("anti", 1usize)].map(|(short, which)| {
        let made = catch_unwind(AssertUnwindSafe(|| {
            if which == 0 {
                crate::experiments::hostile::setup_ineq(0.003)
            } else {
                crate::experiments::hostile::setup_anti(0.003)
            }
        }));
        (short, made)
    });

    let mut s = seed ^ 0x0005_11E5;
    let mut nth = |hi: u64| 1 + splitmix64(&mut s) % hi;
    let fault_plans: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        (
            "operator-failure",
            FaultPlan::new(seed ^ 21).with(
                FaultKind::OperatorFailure { waste_frac: 0.6 },
                Trigger::Nth(nth(8)),
            ),
        ),
        (
            "spill-failure",
            FaultPlan::new(seed ^ 22).with(FaultKind::SpillFailure, Trigger::Nth(nth(2))),
        ),
    ];

    let mut ran = 0usize;
    for (short, made) in setups {
        let (_w, b, db) = match made {
            Ok(t) => t,
            Err(_) => {
                breaches.push(format!("hostile-{short}: setup PANIC"));
                continue;
            }
        };
        for optimized in [false, true] {
            let driver = if optimized { "opt" } else { "basic" };
            for (label, fp) in &fault_plans {
                let ci = cell_of(cells, format!("hostile-{short}:{label}|{driver}"));
                ran += 1;
                cells[ci].1.scenarios += 1;
                check_robust_on_engine(
                    &format!("hostile-{short}/{driver}/{label}"),
                    (&b, &db),
                    (fp, optimized),
                    &mut cells[ci].1,
                    breaches,
                );
            }
        }
    }
    ran
}

/// A substrate wrapper that trips a cancellation token after `remaining`
/// executions — the library-level model of a deadline landing mid-run at an
/// arbitrary retry/abandon decision point.
struct TripAfter<'a> {
    inner: SimulatorSubstrate<'a>,
    token: pb_faults::CancelToken,
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

impl pb_bouquet::ExecutionSubstrate for TripAfter<'_> {
    fn execute_partial(
        &mut self,
        pid: pb_optimizer::PlanId,
        budget: f64,
    ) -> pb_bouquet::SubstrateOutcome {
        self.tick();
        self.inner.execute_partial(pid, budget)
    }

    fn execute_monitored(
        &mut self,
        pid: pb_optimizer::PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> pb_bouquet::SubstrateOutcome {
        self.tick();
        self.inner.execute_monitored(pid, resolved, budget, spilled)
    }

    fn run_native(&mut self, pid: pb_optimizer::PlanId) -> pb_bouquet::SubstrateOutcome {
        self.tick();
        self.inner.run_native(pid)
    }

    fn run_native_at(&mut self, point: &pb_cost::SelPoint) -> f64 {
        self.inner.run_native_at(point)
    }

    fn faults_active(&self) -> bool {
        self.inner.faults_active()
    }

    fn enable_checkpoint_resume(&mut self) -> bool {
        self.inner.enable_checkpoint_resume()
    }

    fn resume_stats(&self) -> pb_bouquet::ResumeStats {
        self.inner.resume_stats()
    }
}

/// Cancel/resume bit-identity block: trip a cancellation token after every
/// possible execution count, carry the cancelled run's checkpoint book into
/// a fresh substrate, and require the resumed rerun to be **bit-identical**
/// to an uninterrupted reference with `spent + reused == restart cost` —
/// cancellation at any decision point loses progress, never correctness.
fn cancel_resume_scenarios(
    seed: u64,
    b: &Bouquet,
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    use pb_bouquet::ExecutionSubstrate as _;
    use pb_faults::CancelToken;

    let mut s = seed ^ 0xCA_7CE1;
    let mut ran = 0usize;
    for optimized in [false, true] {
        let driver = if optimized { "opt" } else { "basic" };
        let ci = cell_of(cells, format!("server:cancel-resume|{driver}"));
        for _ in 0..3 {
            let frac = unit_f64(splitmix64(&mut s)).clamp(0.05, 0.95);
            let qa = b.workload.ess.point_at_fractions(&[frac]);
            let tag = |n: usize| format!("cancel-resume/{driver}@{frac:.3}/trip#{n}");

            // Uninterrupted restart-semantics reference (no resume): its
            // total is the cost every resumed rerun must account for as
            // `spent + reused`.
            let cfg_plain = RobustConfig {
                optimized,
                ..Default::default()
            };
            let cfg = RobustConfig {
                optimized,
                resume: true,
                ..Default::default()
            };
            let mk = |cancel: Option<CancelToken>| {
                SimulatorSubstrate::new(b, &qa, FaultInjector::none()).map(|sub| match cancel {
                    Some(t) => sub.with_cancel(t),
                    None => sub,
                })
            };
            let reference = match mk(None).map(|mut sub| b.run(&mut sub, &cfg_plain)) {
                Ok(Ok(r)) => r,
                Ok(Err(e)) | Err(e) => {
                    breaches.push(format!("{}: reference run failed: {e}", tag(0)));
                    continue;
                }
            };
            let total_executions = reference.run.trace.len();

            for trip in 0..total_executions {
                ran += 1;
                cells[ci].1.scenarios += 1;
                let token = CancelToken::new();
                let inner = match mk(Some(token.clone())) {
                    Ok(sub) => sub,
                    Err(e) => {
                        breaches.push(format!("{}: substrate: {e}", tag(trip)));
                        continue;
                    }
                };
                let mut tripped = TripAfter {
                    inner,
                    token: token.clone(),
                    remaining: trip,
                };
                let trip_cfg = RobustConfig {
                    optimized,
                    resume: true,
                    cancel: Some(token),
                    ..Default::default()
                };
                let first = match b.run(&mut tripped, &trip_cfg) {
                    Ok(r) => r,
                    Err(e) => {
                        breaches.push(format!("{}: tripped run failed: {e}", tag(trip)));
                        continue;
                    }
                };
                if !matches!(first.run.outcome, ExecutionOutcome::Cancelled { .. }) {
                    breaches.push(format!(
                        "{}: expected Cancelled after {trip} executions, got {}",
                        tag(trip),
                        json(&first.run.outcome)
                    ));
                    continue;
                }

                // Carry the cancelled run's checkpoints into a fresh
                // substrate and rerun the identical submission.
                let mut resumed_sub = match mk(None) {
                    Ok(sub) => sub,
                    Err(e) => {
                        breaches.push(format!("{}: resume substrate: {e}", tag(trip)));
                        continue;
                    }
                };
                if let Some(book) = tripped.inner.take_resume_book() {
                    resumed_sub.install_resume_book(book);
                }
                let resumed = match b.run(&mut resumed_sub, &cfg) {
                    Ok(r) => r,
                    Err(e) => {
                        breaches.push(format!("{}: resumed run failed: {e}", tag(trip)));
                        continue;
                    }
                };

                // Outcome bits identical to the uninterrupted reference.
                // `final_cost` is the final execution's *paid* cost — the
                // one number resume must shrink — so compare the variant
                // and plan choice, not the paid amount.
                let norm = |o: &ExecutionOutcome| match o {
                    ExecutionOutcome::Completed { final_plan, .. } => format!("C{final_plan}"),
                    ExecutionOutcome::Degraded { final_plan, .. } => format!("D{final_plan}"),
                    ExecutionOutcome::BudgetExhausted { .. } => "BE".into(),
                    ExecutionOutcome::Cancelled { .. } => "X".into(),
                };
                if norm(&resumed.run.outcome) != norm(&reference.run.outcome) {
                    breaches.push(format!("{}: resumed outcome != reference", tag(trip)));
                }
                let seq = |r: &RobustRun| EngineRunReport::from_run(&r.run, 0).decision_seq();
                if seq(&resumed) != seq(&reference) {
                    breaches.push(format!(
                        "{}: resumed decision sequence != reference",
                        tag(trip)
                    ));
                }
                // Progress: spent + reused equals the restart cost exactly.
                let reused = resumed_sub.resume_stats().reused_cost;
                let paid = resumed.run.total_cost + reused;
                let restart = reference.run.total_cost;
                if (paid - restart).abs() > 1e-9 * restart.abs().max(1.0) {
                    breaches.push(format!(
                        "{}: spent+reused {paid} != restart cost {restart}",
                        tag(trip)
                    ));
                }
                match resumed.run.outcome {
                    ExecutionOutcome::Completed { .. } => cells[ci].1.completed += 1,
                    ExecutionOutcome::Degraded { .. } => cells[ci].1.degraded += 1,
                    _ => cells[ci].1.exhausted += 1,
                }
                cells[ci].1.events += usize::from(reused > 0.0);
            }
        }
    }
    ran
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
    let poll_done = |addr: std::net::SocketAddr, id: u64| -> Result<String, String> {
        for _ in 0..500 {
            let Ok(mut c) = PbClient::connect(addr) else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            // On Err the connection dropped mid-poll; reconnect and retry.
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
            let outcome = submit_one(addr, &req).and_then(|id| poll_done(addr, id));
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
        if let Err(e) = crate::serve::check_accounting(&stats) {
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

/// Engine-level block: the engine under engine-side faults (operator
/// failure, ledger over-charge, storms), checking panic-freedom, cost bounds
/// and inert bit-identity.
fn engine_scenarios(
    seed: u64,
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    let w = eq_1d();
    let db = match Database::generate(&w.catalog, seed ^ 0xD0, &[]) {
        Ok(db) => db,
        Err(e) => {
            breaches.push(format!("engine: data generation failed: {e}"));
            return 0;
        }
    };
    let engine = Engine::new(&db, &w.query, &w.model.p);
    let qe = w.ess.point_at_fractions(&[0.5]);
    let plan = w.optimizer().optimize(&qe).plan;

    let fault_kinds = engine_fault_plans(seed);

    let mut ran = 0usize;
    let reference = engine.execute(&plan.root, f64::INFINITY);
    let ref_cost = reference.cost();
    for (label, fp) in &fault_kinds {
        let ci = cell_of(cells, format!("engine:{label}|vec"));
        for bi in 0..5u32 {
            ran += 1;
            cells[ci].1.scenarios += 1;
            let budget = if bi == 4 {
                f64::INFINITY
            } else {
                ref_cost * f64::from(bi + 1) / 4.0
            };
            let tag = || format!("engine/{label}/vec/budget#{bi}");
            let faults = FaultInjector::new(fp);
            let exec = || engine.execute_with_faults(&plan.root, budget, &faults);
            let out = match catch_unwind(AssertUnwindSafe(exec)) {
                Ok(o) => o,
                Err(_) => {
                    breaches.push(format!("{}: PANIC", tag()));
                    continue;
                }
            };
            cells[ci].1.tally_engine(&out);
            // Faulted/aborted runs never report spend beyond the budget
            // they were granted (over-charge only inflates the ledger up
            // to the abort point, which budget enforcement still caps).
            if budget.is_finite() && out.cost() > budget * (1.0 + 1e-9) {
                breaches.push(format!(
                    "{}: spent {} over budget {budget}",
                    tag(),
                    out.cost()
                ));
            }
            // Inert plan ⇒ bit-identical to the fault-free call.
            if fp.is_empty() {
                let bare = engine.execute(&plan.root, budget);
                if json(&out.cost()) != json(&bare.cost()) || out.completed() != bare.completed() {
                    breaches.push(format!("{}: inert engine run diverged", tag()));
                }
            }
        }
    }
    ran
}

/// Parallel-engine block: the vectorized path with morsel-driven kernels at
/// several worker counts, under engine-side faults (operator failure,
/// ledger over-charge, storms) and a spill-wrapped plan, with the morsel
/// gate lowered so the parallel kernels engage at chaos scale. The
/// invariant is total: for every (plan, fault plan, budget, worker count),
/// the parallel engine must produce an `EngineOutcome` *bit-identical* to
/// the serial engine's under an identically-seeded injector — faults
/// included, because the coordinator replays the serial ledger event
/// sequence no matter how many workers computed the batches.
fn parallel_engine_scenarios(
    seed: u64,
    breaches: &mut Vec<String>,
    cells: &mut Vec<(String, Cell)>,
) -> usize {
    use pb_cost::Parallelism;

    let w = eq_1d();
    let db = match Database::generate(&w.catalog, seed ^ 0xD0, &[]) {
        Ok(db) => db,
        Err(e) => {
            breaches.push(format!("engine-par: data generation failed: {e}"));
            return 0;
        }
    };
    // Morsel gate lowered to a handful of batches so tiny chaos relations
    // exercise the parallel kernels; gating is outcome-neutral by design.
    let mk = |workers: usize| {
        Engine::new(&db, &w.query, &w.model.p)
            .with_parallelism(Parallelism::new(workers))
            .with_morsel_threshold(64)
    };
    let serial = Engine::new(&db, &w.query, &w.model.p);
    let qe = w.ess.point_at_fractions(&[0.5]);
    let root = w.optimizer().optimize(&qe).plan.root;
    let plans = [("plain", root.clone()), ("spilled", root.spilled())];

    let fault_kinds = engine_fault_plans(seed);

    let mut ran = 0usize;
    for (pname, plan) in &plans {
        let ref_cost = serial.execute(plan, f64::INFINITY).cost();
        for (label, fp) in &fault_kinds {
            for workers in [1usize, 2, 4] {
                let eng = mk(workers);
                let key = format!("engine-par:{label}|{pname}x{workers}");
                let ci = cell_of(cells, key);
                for bi in 0..5u32 {
                    ran += 1;
                    cells[ci].1.scenarios += 1;
                    let budget = if bi == 4 {
                        f64::INFINITY
                    } else {
                        ref_cost * f64::from(bi + 1) / 4.0
                    };
                    let tag = || format!("engine-par/{label}/{pname}/{workers}w/budget#{bi}");
                    let reference = {
                        let faults = FaultInjector::new(fp);
                        serial.execute_with_faults(plan, budget, &faults)
                    };
                    let out = {
                        let faults = FaultInjector::new(fp);
                        match catch_unwind(AssertUnwindSafe(|| {
                            eng.execute_with_faults(plan, budget, &faults)
                        })) {
                            Ok(o) => o,
                            Err(_) => {
                                breaches.push(format!("{}: PANIC", tag()));
                                continue;
                            }
                        }
                    };
                    if out != reference {
                        breaches.push(format!(
                            "{}: parallel outcome != serial (cost {} vs {})",
                            tag(),
                            out.cost(),
                            reference.cost()
                        ));
                    }
                    cells[ci].1.tally_engine(&out);
                }
            }
        }
    }
    ran
}
