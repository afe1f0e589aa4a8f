//! The guarantee itself, checked at every grid location — not only the
//! bytes the goldens record.
//!
//! For the ten `benchmark_suite()` spaces and both `HOSTILE_*` spaces, on
//! the cost-unit simulator, for both drivers at every grid location:
//!
//! * (i) SubOpt ≤ Equation 8, recomputed here from the contour densities,
//!   the grading steps, `stats.cmin` and λ — and `eval::guarantee_row`'s
//!   `bound_anorexic` is that recomputation;
//! * (ii) `RobustRun::audit` is green;
//! * (iii) at every frontier point of every contour, the assigned plan's
//!   cost is within the contour budget, and the budget is (1+λ)·IC_k;
//! * (iv) the optimized driver's running location qrun never moves down and
//!   never passes the true location;
//! * (v) each plan the optimized driver runs on contour k is assigned to a
//!   frontier point of contour k in the first quadrant of qrun, with qrun
//!   replayed from the trace by re-running each traced execution.
//!
//! Off the grid, for both drivers: (i) against `Workload::optimal_cost` and
//! (ii) at seeded log-uniform draws, and inside the grid cells just above
//! the frontier — below each axis successor and the diagonal successor of
//! every frontier point — where no frontier point dominates the location.
//!
//! The closed forms are pinned against literals, not against each other.
//! Every location of every space is visited in tier-1: about 20 s of one
//! core in a debug build, split over the two driver tests.
//!
//! Mutants each of which must fail a check here (apply one at a time to a
//! scratch copy, then `cargo test -q --test guarantees`):
//!
//! 1. the anorexic cover at (1+2λ), budgets still (1+λ)
//!    (`AnorexicReduction::reduce_points`) — caught by (iii);
//! 2. `theory::mso_bound_anorexic` without its (1+λ) — caught by the
//!    literal pins;
//! 3. Equation 8 divided by IC_k instead of IC_{k−1} (`eval::guarantee_row`)
//!    — caught by (i) and the hand-built grading;
//! 4. the contour budget IC_k instead of (1+λ)·IC_k (`Contour::assemble`)
//!    — caught by (iii);
//! 5. first-quadrant pruning off (`FrontierCoords::dominating` keeps every
//!    frontier point) — caught by (v).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use plan_bouquet::bouquet::{
    eval, theory, Bouquet, BouquetConfig, BouquetRun, ExecutionSubstrate, RobustConfig,
    SimulatorSubstrate,
};
use plan_bouquet::cost::SelPoint;
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::workloads;

fn bouquets() -> &'static [Bouquet] {
    static B: OnceLock<Vec<Bouquet>> = OnceLock::new();
    B.get_or_init(|| {
        let mut spaces = workloads::benchmark_suite();
        spaces.push(workloads::by_name("HOSTILE_INEQ_2D").unwrap());
        spaces.push(workloads::by_name("HOSTILE_ANTI_2D").unwrap());
        spaces
            .iter()
            .map(|w| Bouquet::identify(w, &BouquetConfig::default()).unwrap())
            .collect()
    })
}

/// Equation 8 with the anorexic densities: the worst over contours k of
/// the spend through contour k, Σ_{j≤k} n_j·(1+λ)·IC_j, over the cheapest
/// cost a query finishing on contour k can have, IC_{k−1} (C_min for k = 1).
fn eq8(b: &Bouquet) -> f64 {
    let inflate = 1.0 + b.config.lambda;
    let (mut spend, mut worst) = (0.0, 0.0f64);
    for (k, c) in b.contours.iter().enumerate() {
        spend += c.density() as f64 * b.grading.steps[k] * inflate;
        let floor = match k {
            0 => b.stats.cmin,
            _ => b.grading.steps[k - 1],
        };
        worst = worst.max(spend / floor);
    }
    worst
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// One driver's run at `qa`, audited, with its SubOpt against `opt`, the
/// optimal cost at `qa`, held to `bound`, the space's Equation 8.
fn run_at(b: &Bouquet, qa: &SelPoint, opt: f64, optimized: bool, bound: f64) -> BouquetRun {
    let at = || format!("{} at {qa:?} (optimized {optimized})", b.workload.name);
    let cfg = RobustConfig::plain(optimized);
    let mut sub = SimulatorSubstrate::new(b, qa, FaultInjector::none()).unwrap();
    let rr = b.run(&mut sub, &cfg).unwrap();
    if let Err(e) = rr.audit(b, &cfg) {
        panic!("{}: audit: {e}", at());
    }
    let run = rr.run;
    assert!(run.completed(), "{}: did not complete", at());
    let subopt = run.suboptimality(opt);
    assert!(
        subopt <= bound * (1.0 + 1e-9),
        "{}: SubOpt {subopt} > Eq. 8 {bound}",
        at()
    );
    run
}

/// Seeded log-uniform draws per space, besides the frontier probes.
const OFF_GRID_DRAWS: usize = 2000;

/// Off-grid locations of `b`'s space: [`OFF_GRID_DRAWS`] seeded
/// log-uniform draws, then, for every frontier point, one location just
/// below each of its axis successors and one just below its diagonal
/// successor.
fn off_grid_locations(b: &Bouquet) -> Vec<SelPoint> {
    let ess = &b.workload.ess;
    let mut rng = StdRng::seed_from_u64(20_140_622);
    let mut fractions: Vec<Vec<f64>> = (0..OFF_GRID_DRAWS)
        .map(|_| (0..ess.d()).map(|_| rng.random::<f64>()).collect())
        .collect();
    for &point in b.contours.iter().flat_map(|c| &c.points) {
        let ix = ess.unlinear(point);
        let up: Vec<usize> = (0..ess.d()).filter(|&d| ix[d] + 1 < ess.res[d]).collect();
        let grid: Vec<f64> = (0..ess.d())
            .map(|d| ix[d] as f64 / (ess.res[d] - 1).max(1) as f64)
            .collect();
        // A millionth of a step below the successor: past `snap_floor`'s
        // tolerance, so the location is in the cell, not on its corner.
        let below = |f: &mut Vec<f64>, d: usize| {
            f[d] = (ix[d] as f64 + 1.0 - 1e-6) / (ess.res[d] - 1) as f64;
        };
        for &d in &up {
            let mut f = grid.clone();
            below(&mut f, d);
            fractions.push(f);
        }
        if up.len() > 1 {
            let mut f = grid.clone();
            up.iter().for_each(|&d| below(&mut f, d));
            fractions.push(f);
        }
    }
    fractions
        .iter()
        .map(|f| ess.point_at_fractions(f))
        .collect()
}

/// Replay the optimized run's qrun by re-running each traced execution on a
/// fresh simulator, checking (iv) and (v) along the way.
fn replay_optimized(b: &Bouquet, loc: &str, qa: &SelPoint, run: &BouquetRun) {
    let name = &b.workload.name;
    let ess = &b.workload.ess;
    let mut qrun: Vec<f64> = ess.dims.iter().map(|d| d.lo).collect();
    let mut resolved = vec![false; ess.d()];
    let mut sub = SimulatorSubstrate::new(b, qa, FaultInjector::none()).unwrap();
    for (i, e) in run.trace.iter().enumerate() {
        let at = format!("{name} at {loc}, execution {i}");
        let c = b
            .contours
            .get(e.contour.wrapping_sub(1))
            .unwrap_or_else(|| panic!("{at}: contour {} is off the grading", e.contour));
        let ix = ess.snap_floor(&SelPoint(qrun.clone()));
        let in_quadrant = c.points.iter().zip(&c.assignment).any(|(&point, &plan)| {
            plan == e.plan && ess.unlinear(point).iter().zip(&ix).all(|(f, q)| f >= q)
        });
        assert!(
            in_quadrant,
            "{at}: plan {} on contour {} is assigned to no frontier point in the first \
             quadrant of qrun {ix:?}",
            e.plan, e.contour
        );
        let out = sub.execute_monitored(e.plan, &resolved, e.budget, e.spilled);
        assert_eq!(
            (out.spent, out.completed, out.observed.first().copied()),
            (e.spent, e.completed, e.learned),
            "{at}: the replay diverged from the trace"
        );
        let before = qrun.clone();
        for &(dim, v) in &out.observed {
            qrun[dim] = qrun[dim].max(v);
        }
        for &(dim, v) in &out.resolved {
            resolved[dim] = true;
            qrun[dim] = v;
        }
        for (dim, (&now, &was)) in qrun.iter().zip(&before).enumerate() {
            assert!(now >= was, "{at}: qrun fell on dim {dim}: {was} -> {now}");
            assert!(
                now <= qa[dim] * (1.0 + 1e-12),
                "{at}: qrun passed the true location on dim {dim}: {now} > {}",
                qa[dim]
            );
        }
    }
}

fn check_schedule(b: &Bouquet) {
    let name = &b.workload.name;
    let row = eval::guarantee_row(b);
    assert!(
        close(row.bound_anorexic, eq8(b)),
        "{name}: guarantee_row's Eq. 8 {} is not the recomputed {}",
        row.bound_anorexic,
        eq8(b)
    );
    let inflate = 1.0 + b.config.lambda;
    for (k, c) in b.contours.iter().enumerate() {
        assert_eq!(
            c.budget,
            inflate * b.grading.steps[k],
            "{name}: contour {} budget is not (1+λ)·IC_k",
            c.id
        );
        for (&point, &plan) in c.points.iter().zip(&c.assignment) {
            let cost = b.cost_row(plan).unwrap()[point];
            assert!(
                cost <= c.budget * (1.0 + 1e-9),
                "{name}: contour {} plan {plan} costs {cost} at its frontier point {point}, \
                 over the budget {}",
                c.id,
                c.budget
            );
        }
    }
}

fn check_drivers(optimized: bool) {
    for b in bouquets() {
        let (ess, bound) = (&b.workload.ess, eq8(b));
        for li in 0..ess.num_points() {
            let qa = ess.point(&ess.unlinear(li));
            let run = run_at(b, &qa, b.pic_cost_at(li), optimized, bound);
            if optimized {
                replay_optimized(b, &format!("{li}"), &qa, &run);
            }
        }
    }
}

#[test]
fn every_contour_plan_completes_within_its_budget() {
    for b in bouquets() {
        check_schedule(b);
    }
}

#[test]
fn basic_driver_keeps_the_guarantee_at_every_grid_location() {
    check_drivers(false);
}

#[test]
fn optimized_driver_keeps_the_guarantee_at_every_grid_location() {
    check_drivers(true);
}

#[test]
fn both_drivers_keep_the_guarantee_off_the_grid() {
    for b in bouquets() {
        let bound = eq8(b);
        for qa in off_grid_locations(b) {
            let opt = b.workload.optimal_cost(&qa);
            run_at(b, &qa, opt, false, bound);
            let run = run_at(b, &qa, opt, true, bound);
            replay_optimized(b, &format!("{qa:?}"), &qa, &run);
        }
    }
}

#[test]
fn closed_form_bound_matches_literals() {
    // (1+λ)·ρ·r²/(r−1)
    for (rho, r, lambda, bound) in [(1, 2.0, 0.2, 4.8), (3, 2.0, 0.1, 13.2), (4, 3.0, 0.5, 27.0)] {
        let got = theory::mso_bound_anorexic(rho, r, lambda);
        assert!(
            close(got, bound),
            "ρ {rho}, r {r}, λ {lambda}: {got} != {bound}"
        );
    }
}

#[test]
fn equation_8_on_a_hand_built_grading() {
    // Three contours at IC = 2, 4, 8 over C_min = 1 with densities 1, 2, 3
    // and λ = 0.25: spends 2.5, 12.5, 42.5 over floors 1, 2, 4.
    let mut b = bouquets()[0].clone();
    b.config.lambda = 0.25;
    b.stats.cmin = 1.0;
    b.grading.steps = vec![2.0, 4.0, 8.0];
    let template = b.contours[0].clone();
    b.contours = (0..3)
        .map(|k| {
            let mut c = template.clone();
            c.id = k + 1;
            c.step_cost = b.grading.steps[k];
            c.budget = 1.25 * c.step_cost;
            c.plan_set = (0..=k).collect();
            c
        })
        .collect();
    assert_eq!(eq8(&b), 10.625);
    assert_eq!(eval::guarantee_row(&b).bound_anorexic, 10.625);
}
