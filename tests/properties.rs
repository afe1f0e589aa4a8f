//! Property-based tests (proptest) over the core invariants: Plan Cost
//! Monotonicity, grading geometry, the first-quadrant invariant, and the
//! sub-optimality guarantee at arbitrary (off-grid) locations — and the
//! compiled monitored execution and the simulator's resume credit against
//! the tree walks that define them.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use plan_bouquet::bouquet::{
    Bouquet, BouquetConfig, ExecutionSubstrate, IsoCostGrading, SimulatorSubstrate, Workload,
};
use plan_bouquet::cost::{
    CostPerturbation, CostProgram, Coster, Ess, NodeCosts, Parallelism, SelPoint,
};
use plan_bouquet::executor::{learnable_node, Executor, MonitorTable, SubstrateOutcome};
use plan_bouquet::faults::{FaultInjector, FaultKind, FaultPlan, Trigger};
use plan_bouquet::optimizer::PlanDiagram;
use plan_bouquet::plan::{PlanNode, QuerySpec};
use plan_bouquet::workloads;

fn bouquet_2d() -> &'static Bouquet {
    static B: OnceLock<Bouquet> = OnceLock::new();
    B.get_or_init(|| {
        let w = workloads::h_q8a_2d(1.0);
        Bouquet::identify(&w, &BouquetConfig::default()).unwrap()
    })
}

/// Every registry workload with its plan diagram. Grids are shrunk to a
/// few hundred points: the plans, not the locations, are what the tests
/// below range over.
fn registry_plans() -> &'static Vec<(Workload, Arc<PlanDiagram>)> {
    static P: OnceLock<Vec<(Workload, Arc<PlanDiagram>)>> = OnceLock::new();
    P.get_or_init(|| {
        workloads::sql_texts()
            .map(|(name, _)| {
                let mut w = workloads::by_name(name).expect("registry workload");
                let res = [64, 16, 6, 4, 3][w.d().min(5) - 1];
                w.ess = Ess::uniform(w.ess.dims.clone(), res);
                let d = PlanDiagram::build_with(
                    &w.catalog,
                    &w.query,
                    &w.model,
                    &w.ess,
                    Parallelism::serial(),
                );
                (w, Arc::new(d))
            })
            .collect()
    })
}

/// The bouquet of every registry workload of [`registry_plans`], graded
/// from its diagram, that identification accepts (`ANTI_2D` violates PCM
/// on purpose).
fn registry_bouquets() -> &'static Vec<Bouquet> {
    static B: OnceLock<Vec<Bouquet>> = OnceLock::new();
    B.get_or_init(|| {
        let cfg = BouquetConfig::default();
        (registry_plans().iter())
            .filter_map(|(w, d)| Bouquet::grade(w, Arc::clone(d), &cfg, Parallelism::serial()).ok())
            .collect()
    })
}

fn coster(w: &Workload) -> Coster<'_> {
    Coster::new(&w.catalog, &w.query, &w.model)
}

/// A (sub)plan's actual cost as a tree walk: `Coster` re-costs it alone,
/// the model-error perturbation keyed by its fingerprint applies, and an
/// armed injector spikes it — one consultation per call, as the executor
/// makes.
fn actual_by_tree_walk(ex: &Executor, coster: Coster, plan: &PlanNode, qa: &[f64]) -> f64 {
    let actual = ex
        .perturb
        .actual_cost(plan.fingerprint(), qa, coster.plan_cost(plan, qa));
    if ex.faults.is_active() {
        actual * ex.faults.spike_factor()
    } else {
        actual
    }
}

/// The monitored execution as a tree walk — the definition
/// `Executor::execute_monitored` is compiled from. It finds the learnable
/// node by recursion, re-costs the plan, the spilled prefix and each input
/// of the error node with the tree-walking `Coster`, and consults the fault
/// hooks in the order the compiled version must keep: one ladder, whose
/// operator failure burns a fraction of what the executed tree would cost,
/// capped by the budget.
fn execute_monitored_by_tree_walk(
    ex: &Executor,
    coster: Coster,
    plan: &PlanNode,
    qa: &[f64],
    resolved: &[bool],
    budget: f64,
    spilled: bool,
) -> SubstrateOutcome {
    let mut out = SubstrateOutcome {
        spilled,
        ..SubstrateOutcome::default()
    };
    if spilled {
        if let Some(error) = ex.faults.spill_failure("executor:spill") {
            out.error = Some(error);
            return out;
        }
    }
    let actual = |plan| actual_by_tree_walk(ex, coster, plan, qa);
    let learn = learnable_node(plan, coster.query, resolved);
    let exec_tree_cost = match &learn {
        Some((node, _)) if spilled => {
            let prefix = coster.plan_cost(&PlanNode::clone(node).spilled(), qa);
            ex.perturb.actual_cost(node.fingerprint(), qa, prefix)
        }
        _ => actual(plan),
    };
    if let Some((frac, error)) = ex.faults.operator_failure("executor:execute") {
        out.spent = frac * budget.min(exec_tree_cost);
        out.error = Some(error);
        return out;
    }
    let budget = if budget.is_finite() {
        ex.faults.skewed_budget(budget)
    } else {
        budget
    };
    let fits = exec_tree_cost <= budget;
    out.spent = if fits {
        exec_tree_cost
    } else {
        budget * ex.faults.ledger_factor()
    };
    out.completed = fits && !spilled;
    let Some((node, dims)) = learn else {
        return out;
    };
    let input_cost: f64 = node.children().into_iter().map(actual).sum();
    let dim = dims[0];
    if fits {
        out.observed = vec![(dim, ex.faults.corrupt_observation(qa[dim]))];
        out.resolved = dims.into_iter().map(|d| (d, qa[d])).collect();
    } else {
        let denom = (exec_tree_cost - input_cost).max(f64::MIN_POSITIVE);
        let frac = ((budget - input_cost) / denom).clamp(0.0, 1.0);
        if frac > 0.0 {
            out.observed = vec![(dim, ex.faults.corrupt_observation(frac * qa[dim]))];
        }
    }
    out
}

/// Every executor-level fault kind, each on its own seeded coin.
fn executor_faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultKind::SpillFailure, Trigger::PerMille(150))
        .with(
            FaultKind::OperatorFailure { waste_frac: 0.4 },
            Trigger::PerMille(150),
        )
        .with(
            FaultKind::BudgetClockSkew { factor: 0.7 },
            Trigger::PerMille(300),
        )
        .with(
            FaultKind::PerturbationSpike { factor: 3.0 },
            Trigger::PerMille(300),
        )
        .with(
            FaultKind::CorruptObservation { scale: 2.5 },
            Trigger::PerMille(300),
        )
        .with(
            FaultKind::LedgerOverCharge { factor: 1.5 },
            Trigger::PerMille(300),
        )
}

/// A random location inside the 2D ESS, as per-axis fractions.
fn fractions_2d() -> impl Strategy<Value = [f64; 2]> {
    [0.0f64..=1.0, 0.0f64..=1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PCM: every bouquet plan's cost is monotone along every axis, for
    /// arbitrary location pairs ordered componentwise.
    #[test]
    fn plan_cost_monotonicity(f in fractions_2d(), g in fractions_2d()) {
        let b = bouquet_2d();
        let w = &b.workload;
        let lo = w.ess.point_at_fractions(&[f[0].min(g[0]), f[1].min(g[1])]);
        let hi = w.ess.point_at_fractions(&[f[0].max(g[0]), f[1].max(g[1])]);
        let coster = coster(w);
        for pid in b.plan_ids() {
            let plan = &b.plan(pid).root;
            let c_lo = coster.plan_cost(plan, &lo);
            let c_hi = coster.plan_cost(plan, &hi);
            prop_assert!(
                c_hi >= c_lo * (1.0 - 1e-9),
                "PCM violated for plan {pid}: {c_lo} -> {c_hi}"
            );
        }
    }

    /// The optimizer's optimal cost (the PIC) is monotone too, and the
    /// optimal plan's cost equals the reported optimal cost.
    #[test]
    fn pic_monotone_and_self_consistent(f in fractions_2d(), g in fractions_2d()) {
        let b = bouquet_2d();
        let w = &b.workload;
        let lo = w.ess.point_at_fractions(&[f[0].min(g[0]), f[1].min(g[1])]);
        let hi = w.ess.point_at_fractions(&[f[0].max(g[0]), f[1].max(g[1])]);
        let opt = w.optimizer();
        let best_lo = opt.optimize(&lo);
        let best_hi = opt.optimize(&hi);
        prop_assert!(best_hi.cost >= best_lo.cost * (1.0 - 1e-9));
        let recost = coster(w).plan_cost(&best_lo.plan.root, &lo);
        prop_assert!((recost - best_lo.cost).abs() < 1e-6 * best_lo.cost);
    }

    /// Discovery completes at any (off-grid) location with SubOpt in
    /// [1, bound], and the trace is deterministic.
    #[test]
    fn discovery_bounded_at_arbitrary_locations(f in fractions_2d()) {
        let b = bouquet_2d();
        let w = &b.workload;
        let qa = w.ess.point_at_fractions(&f);
        let run = b.run_basic(&qa).unwrap();
        prop_assert!(run.completed());
        let opt = w.optimal_cost(&qa);
        let so = run.suboptimality(opt);
        prop_assert!(so >= 1.0 - 1e-9, "SubOpt below 1: {so}");
        // The guarantee needs no slack off the grid: a seeded sweep of
        // 2,000 locations of this space peaked at 0.69 × the bound.
        prop_assert!(so <= b.mso_bound(), "SubOpt {so} vs bound {}", b.mso_bound());
        prop_assert_eq!(run, b.run_basic(&qa).unwrap());
    }

    /// First-quadrant invariant: every learned value in an optimized run is
    /// a true lower bound, and learned values never decrease per dimension.
    #[test]
    fn first_quadrant_invariant(f in fractions_2d()) {
        let b = bouquet_2d();
        let w = &b.workload;
        let qa = w.ess.point_at_fractions(&f);
        let run = b.run_optimized(&qa).unwrap();
        prop_assert!(run.completed());
        let mut last = vec![0.0f64; w.ess.d()];
        for e in &run.trace {
            if let Some((d, v)) = e.learned {
                prop_assert!(v <= qa[d] * (1.0 + 1e-9), "learned {v} > qa {}", qa[d]);
                prop_assert!(v >= 0.0);
                prop_assert!(v >= last[d] * (1.0 - 1e-9) || v <= last[d], "learning is a max-update");
                last[d] = last[d].max(v);
            }
        }
    }

    /// Grading geometry for arbitrary (cmin, cmax, r): boundary conditions
    /// of Section 3.1 always hold.
    #[test]
    fn grading_boundary_conditions(
        cmin in 1e-3f64..1e6,
        span in 1.0f64..1e6,
        r in 1.01f64..8.0,
    ) {
        let cmax = cmin * span;
        let g = IsoCostGrading::geometric(cmin, cmax, r);
        prop_assert!((g.budget(g.len() - 1) - cmax).abs() <= 1e-9 * cmax);
        prop_assert!(g.budget(0) >= cmin * (1.0 - 1e-12));
        prop_assert!(g.budget(0) / r < cmin * (1.0 + 1e-12));
        for w in g.steps.windows(2) {
            prop_assert!((w[1] / w[0] - r).abs() < 1e-9);
        }
        // The worst-case cumulative-sum ratio respects Theorem 1 algebra.
        let m = g.len();
        if m >= 2 {
            let cum = g.cumulative(m - 1);
            prop_assert!(cum <= g.budget(m - 1) * r / (r - 1.0) * (1.0 + 1e-9));
        }
    }

    /// ESS snap functions: floor-snapping never overshoots, round-snapping
    /// stays within half a (geometric) step.
    #[test]
    fn ess_snapping(f in fractions_2d()) {
        let b = bouquet_2d();
        let ess = &b.workload.ess;
        let p = ess.point_at_fractions(&f);
        let fl = ess.snap_floor(&p);
        for d in 0..ess.d() {
            prop_assert!(ess.sel_at(d, fl[d]) <= p[d] * (1.0 + 1e-9));
        }
        let rd = ess.snap(&p);
        for d in 0..ess.d() {
            let step = (ess.dims[d].hi / ess.dims[d].lo).powf(1.0 / (ess.res[d] as f64 - 1.0));
            let s = ess.sel_at(d, rd[d]);
            prop_assert!(s / p[d] <= step && p[d] / s <= step);
        }
    }

    /// The executor's learning model is budget-monotone: more budget never
    /// teaches less.
    #[test]
    fn learning_is_budget_monotone(f in fractions_2d(), b1 in 0.01f64..1.0, b2 in 0.01f64..1.0) {
        let b = bouquet_2d();
        let w = &b.workload;
        let qa = w.ess.point_at_fractions(&f);
        let ex = Executor::new(CostPerturbation::none());
        let plan = &b.plan(b.plan_ids()[0]).root;
        let prog = CostProgram::compile(&w.catalog, &w.query, &w.model, plan);
        let full = ex.actual_cost_compiled(&prog, plan.fingerprint(), &qa, &mut Vec::new());
        let (lo_b, hi_b) = (full * b1.min(b2), full * b1.max(b2));
        let resolved = vec![false; w.ess.d()];
        let table = MonitorTable::build(plan, &w.query);
        let mut scratch = NodeCosts::default();
        let mut learned = |budget| {
            ex.execute_monitored(&prog, &table, &qa, &resolved, budget, true, &mut scratch)
                .observed
                .first()
                .map_or(0.0, |&(_, v)| v)
        };
        prop_assert!(learned(hi_b) >= learned(lo_b) * (1.0 - 1e-12));
    }

    /// The compiled monitored execution equals the tree walk it replaced —
    /// outcome for outcome, spend and observed values bit for bit —
    /// on random registry plans × `resolved` masks × a budget ladder ×
    /// spilled or not, under a δ = 0.4 model error; and again with every
    /// executor fault armed, where the same seed must yield the same fault
    /// stream and so the same outcomes, `Failed` ones included.
    #[test]
    fn compiled_monitored_execution_equals_the_tree_walk(
        pick in [any::<u32>(), any::<u32>(), any::<u32>()],
        f in [0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0],
        seed in any::<u64>(),
    ) {
        let pool = registry_plans();
        let (w, d) = &pool[pick[0] as usize % pool.len()];
        let plan = &d.plans[pick[1] as usize % d.plans.len()].root;
        let qa = w.ess.point_at_fractions(&f[..w.d()]);
        let resolved: Vec<bool> = (0..w.d()).map(|dm| pick[2] >> dm & 1 == 1).collect();
        let prog = CostProgram::compile(&w.catalog, &w.query, &w.model, plan);
        let table = MonitorTable::build(plan, &w.query);
        let mut scratch = NodeCosts::default();
        let perturb = CostPerturbation::with_delta(0.4, seed);
        let full = actual_by_tree_walk(&Executor::new(perturb), coster(w), plan, &qa);
        let ladder = [0.0, 0.003, 0.05, 0.4, 0.97, 1.0, 1.6, f64::INFINITY].map(|b| full * b);
        for armed in [false, true] {
            let executor = || {
                let faults = if armed { executor_faults(seed) } else { FaultPlan::none() };
                Executor::new(perturb).with_faults(FaultInjector::new(&faults))
            };
            // One injector per side, consulted over the whole ladder: a hook
            // fired out of order on one rung shifts every later one.
            let (compiled, oracle) = (executor(), executor());
            for budget in ladder {
                for spilled in [true, false] {
                    let got = compiled.execute_monitored(
                        &prog, &table, &qa, &resolved, budget, spilled, &mut scratch,
                    );
                    let want = execute_monitored_by_tree_walk(
                        &oracle, coster(w), plan, &qa, &resolved, budget, spilled,
                    );
                    prop_assert_eq!(&got, &want, "{} budget {budget} spilled {spilled} armed {armed}", w.name);
                    prop_assert_eq!(got.spent.to_bits(), want.spent.to_bits());
                    let bits = |o: &SubstrateOutcome| {
                        (o.observed.iter().chain(&o.resolved))
                            .map(|&(dm, v)| (dm, v.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    prop_assert_eq!(bits(&got), bits(&want));
                }
            }
        }
    }

    /// The simulator's resume credit equals its tree-walk definition — the
    /// executed tree's chain subtrees from `PlanNode::exec_chain`, each
    /// costed alone with `Coster` and perturbed by its own fingerprint —
    /// bit for bit, as `SubstrateOutcome::reused` after every execution and
    /// as the book's retained entries at the end. Random registry plans ×
    /// a budget ladder × plain, monitored and spilled executions under a
    /// random mask, at δ = 0 and δ = 0.4. `audit_resumed` cannot catch a
    /// chain read at the wrong op index: it checks spent + reused = restart,
    /// which any credit ≤ spent passes.
    #[test]
    fn resume_credit_equals_the_tree_walk(
        pick in [any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()],
        f in [0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0],
        seed in any::<u64>(),
    ) {
        let pool = registry_bouquets();
        let base = &pool[pick[0] as usize % pool.len()];
        let w = &base.workload;
        let qa = w.ess.point_at_fractions(&f[..w.d()]);
        let n = base.diagram.plans.len();
        let pids = [pick[1] as usize % n, pick[2] as usize % n];
        let resolved: Vec<bool> = (0..w.d()).map(|dm| pick[3] >> dm & 1 == 1).collect();
        for delta in [0.0, 0.4] {
            let b = base;
            let perturb = CostPerturbation::with_delta(delta, seed);
            let walked = |sub: &PlanNode| {
                let modeled = coster(w).plan_cost(sub, &qa);
                perturb.actual_cost(sub.fingerprint(), &qa, modeled)
            };
            let simulator = || {
                SimulatorSubstrate::new(b, &qa, FaultInjector::none()).unwrap().with_model_error(perturb)
            };
            let (mut resumed, mut restart) = (simulator(), simulator());
            resumed.enable_checkpoint_resume();
            let mut book: BTreeMap<u64, f64> = BTreeMap::new();
            let full = walked(&b.plan(pids[0]).root);
            for rung in [0.003, 0.05, 0.4, 0.97, 1.0, 1.6] {
                let budget = full * rung;
                for (pid, spilled) in pids.into_iter().flat_map(|p| [(p, None), (p, Some(false)), (p, Some(true))]) {
                    let run = |sub: &mut SimulatorSubstrate| match spilled {
                        None => sub.execute_partial(pid, budget),
                        Some(spilled) => sub.execute_monitored(pid, &resolved, budget, spilled),
                    };
                    let (got, want) = (run(&mut resumed), run(&mut restart));
                    // The executed tree, and whether it ran to its end.
                    let plan = &b.plan(pid).root;
                    let (root, completed) = match spilled {
                        Some(true) => (
                            learnable_node(plan, &w.query, &resolved).map_or(plan, |(node, _)| node),
                            !want.resolved.is_empty(),
                        ),
                        _ => (plan, want.completed),
                    };
                    let chain: Vec<(u64, f64)> =
                        root.exec_chain().into_iter().map(|sub| (sub.fingerprint().0, walked(sub))).collect();
                    let credit = (chain.iter())
                        .filter(|&(fp, cost)| book.get(fp).is_some_and(|c| c.to_bits() == cost.to_bits()))
                        .fold(0.0, |credit: f64, &(_, cost)| credit.max(cost))
                        .min(want.spent);
                    for &(fp, cost) in &chain {
                        if completed || cost <= want.spent {
                            book.insert(fp, cost);
                        }
                    }
                    let at = format!("{} plan {pid} spilled {spilled:?} budget {budget} δ {delta}", w.name);
                    prop_assert_eq!(got.reused.to_bits(), credit.to_bits(), "reused, {}", at);
                    prop_assert_eq!(got.spent.to_bits(), (want.spent - credit).to_bits(), "spent, {}", at);
                }
            }
            let mut kept: Vec<(u64, u64)> = (resumed.resume.take_book().unwrap().iter())
                .map(|(&fp, cost)| (fp, cost.0.to_bits()))
                .collect();
            kept.sort_unstable();
            let expected: Vec<(u64, u64)> = book.iter().map(|(&fp, c)| (fp, c.to_bits())).collect();
            prop_assert_eq!(kept, expected, "{} checkpoints δ {}", w.name, delta);
        }
    }
}

/// The monitor table answers `learnable_node` for every `resolved` mask of
/// every POSP plan of every registry workload: same node (by subtree
/// fingerprint and by the cost captured at its op index), same dimensions
/// in the same order, same children.
#[test]
fn monitor_table_matches_learnable_node_on_every_registry_plan() {
    let mut scratch = NodeCosts::default();
    for (w, d) in registry_plans() {
        let coster = coster(w);
        let qa = w.ess.point_at_fractions(&vec![0.6; w.d()]);
        for plan in &d.plans {
            let plan = &plan.root;
            let table = MonitorTable::build(plan, &w.query);
            let prog = CostProgram::compile(&w.catalog, &w.query, &w.model, plan);
            let nodes = prog.eval_nodes(&qa, &mut scratch);
            for mask in 0..1u32 << w.d() {
                let resolved: Vec<bool> = (0..w.d()).map(|dm| mask >> dm & 1 == 1).collect();
                let walked = learnable_node(plan, &w.query, &resolved);
                let Some((entry, first)) = table.learnable(&resolved) else {
                    assert!(walked.is_none(), "{}: table misses a node", w.name);
                    continue;
                };
                let (node, dims) = walked.expect("table invents a node");
                assert_eq!(entry.fingerprint, node.fingerprint());
                let open: Vec<usize> = (entry.dims.iter().copied())
                    .filter(|&dm| !resolved[dm])
                    .collect();
                assert_eq!((open.as_slice(), first), (dims.as_slice(), dims[0]));
                let at = |op: usize| nodes[op].cost.to_bits();
                assert_eq!(at(entry.op), coster.plan_cost(node, &qa).to_bits());
                let children = node.children();
                assert_eq!(entry.children.len(), children.len());
                for (&(op, fp), child) in entry.children.iter().zip(children) {
                    assert_eq!(fp, child.fingerprint());
                    assert_eq!(at(op), coster.plan_cost(child, &qa).to_bits());
                }
            }
        }
    }
}

/// Depth (distance from `plan`'s root) of the deepest node applying error
/// dimension `d` through a join edge or a scanned (or index-NL probed)
/// relation's selection; `None` if no node applies it. The tree-walk
/// reference for `MonitorNode::depth` and `MonitorTable::deepest_unresolved`.
fn error_dim_depth(plan: &PlanNode, query: &QuerySpec, d: usize) -> Option<usize> {
    fn applies_here(n: &PlanNode, query: &QuerySpec, d: usize) -> bool {
        if n.edges()
            .iter()
            .any(|&e| query.joins[e].selectivity.error_dim() == Some(d))
        {
            return true;
        }
        let scan_rel = match n {
            PlanNode::SeqScan { rel }
            | PlanNode::IndexScan { rel, .. }
            | PlanNode::FullIndexScan { rel, .. } => Some(*rel),
            PlanNode::IndexNLJoin { inner_rel, .. } => Some(*inner_rel),
            _ => None,
        };
        scan_rel.is_some_and(|r| {
            query.relations[r]
                .selections
                .iter()
                .any(|s| s.selectivity.error_dim() == Some(d))
        })
    }
    fn go(n: &PlanNode, query: &QuerySpec, d: usize, depth: usize) -> Option<usize> {
        let deepest_child = n
            .children()
            .iter()
            .filter_map(|c| go(c, query, d, depth + 1))
            .max();
        deepest_child.or_else(|| applies_here(n, query, d).then_some(depth))
    }
    go(plan, query, d, 0)
}

/// The monitor table's depths are the tree walk's on every POSP plan of
/// every registry workload: per dimension, the deepest table node applying
/// it sits at `error_dim_depth`; under every `resolved` mask, the table's
/// AxisPlans tie-break (`deepest_unresolved`) is the deepest walked depth
/// of an unresolved dimension, and it has a learnable node exactly when the
/// walk finds an unresolved dimension.
#[test]
fn monitor_table_depths_match_the_tree_walk_on_every_registry_plan() {
    for (w, d) in registry_plans() {
        for plan in &d.plans {
            let plan = &plan.root;
            let table = MonitorTable::build(plan, &w.query);
            let walked: Vec<Option<usize>> = (0..w.d())
                .map(|dm| error_dim_depth(plan, &w.query, dm))
                .collect();
            for (dm, &depth) in walked.iter().enumerate() {
                let tabled = (table.nodes().iter())
                    .filter(|n| n.dims.contains(&dm))
                    .map(|n| n.depth)
                    .max();
                assert_eq!(tabled, depth, "{}: dim {dm} depth", w.name);
            }
            for mask in 0..1u32 << w.d() {
                let resolved: Vec<bool> = (0..w.d()).map(|dm| mask >> dm & 1 == 1).collect();
                let deepest = (walked.iter().enumerate())
                    .filter_map(|(dm, &depth)| if resolved[dm] { None } else { depth })
                    .max();
                assert_eq!(
                    table.deepest_unresolved(&resolved),
                    deepest.unwrap_or(0),
                    "{}: deepest unresolved under {resolved:?}",
                    w.name
                );
                assert_eq!(table.learnable(&resolved).is_some(), deepest.is_some());
            }
        }
    }
}

/// Non-proptest sanity companion: the 2D bouquet used above is well-formed.
#[test]
fn fixture_is_well_formed() {
    let b = bouquet_2d();
    assert!(b.stats.bouquet_cardinality >= 2);
    assert!(b.stats.num_contours >= 3);
}

/// SelPoint domination is a partial order compatible with the grid.
#[test]
fn selpoint_domination_matches_grid_order() {
    let b = bouquet_2d();
    let ess = &b.workload.ess;
    let a = ess.point(&[3, 7]);
    let c = ess.point(&[5, 7]);
    assert!(a.dominated_by(&c));
    assert!(!c.dominated_by(&a));
    assert!(a.dominated_by(&a));
    let d = SelPoint(vec![a[0], c[1] * 2.0]);
    assert!(!d.dominated_by(&c) || c[1] * 2.0 <= c[1]);
}
