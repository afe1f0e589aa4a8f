//! The engine's front door and what an execution reports: [`Engine`],
//! [`EngineOutcome`], and the per-node [`Instrumentation`] the drivers read
//! observed selectivities from.
//!
//! [`Engine::execute`] runs the vectorized engine in [`crate::vec_exec`],
//! which charges the closed-form ledger in [`crate::ledger`] once per batch
//! and replays an over-budget batch tuple by tuple, so a budget abort lands
//! on the exact tuple, counters and cost a per-tuple settle would produce.

use pb_cost::{CostParams, Parallelism};
use pb_faults::{FaultInjector, PbError};
use pb_plan::{PlanNode, QuerySpec};

use crate::data::Database;

/// Tuple counters for one plan node (PostgreSQL `Instrumentation` analogue).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Tuples emitted by this node so far.
    pub output_tuples: u64,
    /// Whether the node consumed its entire input (its counters are final).
    pub complete: bool,
}

/// Per-node statistics, indexed by post-order op: a plan's children come
/// before it and the root is last, as in the plan's `CostProgram` and its
/// monitor table, and a subtree's counters are one contiguous slice ending
/// at its own op.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Instrumentation {
    pub nodes: Vec<NodeStats>,
}

impl Instrumentation {
    /// Observed *raw* selectivity bound at an error site (Section 5.2): the
    /// node `site`, whose op is `op` and whose children's ops are
    /// `children` (outer/left first). The caller names the site — the
    /// learnable node of the plan's monitor table — and maps the raw value
    /// into axis coordinates (`SelSpec::to_coordinate`), under which every
    /// returned value is a coordinate lower bound:
    ///
    /// * generic (selection / pk-fk / inequality-join) sites: output count
    ///   over the full input-cardinality product — a lower bound while
    ///   running, exact on completion;
    /// * semi-join sites: match fraction `out / left_in` over the built
    ///   side's cardinality — the fraction only grows as the probe
    ///   proceeds, so this is a raw (and coordinate) lower bound;
    /// * anti-join sites: survivor fraction gives the *upper* bound
    ///   `(1 - out/left_in) / right_out` on the raw match density, which
    ///   the flipped axis (`pivot / s`) turns into a coordinate lower
    ///   bound. With zero survivors there is no finite bound yet — `None`.
    ///
    /// Existential sites need both children complete (the hash set is built
    /// before the probe starts); `None` otherwise.
    pub fn observed_selectivity(
        &self,
        site: &PlanNode,
        op: usize,
        children: &[usize],
        query: &QuerySpec,
        db: &Database,
    ) -> Option<f64> {
        let node = self.nodes.get(op)?;
        if !matches!(site, PlanNode::AntiJoin { .. } | PlanNode::SemiJoin { .. }) {
            // Input product: every base relation under (and including) the
            // site — base cardinalities and error-free selectivities are
            // all statically known.
            let mask = site.rels_mask();
            let denom: f64 = (0..query.num_relations())
                .filter(|r| mask & (1 << r) != 0)
                .map(|r| db.table(query.relations[r].table).rows as f64)
                .product();
            if denom <= 0.0 {
                return None;
            }
            return Some((node.output_tuples as f64 / denom).min(1.0));
        }
        let left = self.nodes.get(*children.first()?)?;
        let right = self.nodes.get(*children.get(1)?)?;
        if !left.complete || !right.complete {
            return None;
        }
        let left_in = left.output_tuples as f64;
        let right_out = right.output_tuples as f64;
        if left_in <= 0.0 || right_out <= 0.0 {
            return None;
        }
        let frac = (node.output_tuples as f64 / left_in).min(1.0);
        if matches!(site, PlanNode::AntiJoin { .. }) {
            if node.output_tuples == 0 {
                return None;
            }
            Some(((1.0 - frac) / right_out).min(1.0))
        } else {
            Some((frac / right_out).min(1.0))
        }
    }
}

/// Result of a (possibly budget-limited) engine execution.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOutcome {
    Completed {
        rows: usize,
        cost: f64,
        instr: Instrumentation,
    },
    Aborted {
        cost: f64,
        instr: Instrumentation,
    },
    /// An operator faulted (injected fault or malformed plan) after spending
    /// `cost` units. Distinct from [`EngineOutcome::Aborted`]: the budget was
    /// *not* exhausted, the execution died.
    Failed {
        error: PbError,
        cost: f64,
        instr: Instrumentation,
    },
}

impl EngineOutcome {
    pub fn cost(&self) -> f64 {
        match self {
            EngineOutcome::Completed { cost, .. }
            | EngineOutcome::Aborted { cost, .. }
            | EngineOutcome::Failed { cost, .. } => *cost,
        }
    }

    pub fn completed(&self) -> bool {
        matches!(self, EngineOutcome::Completed { .. })
    }

    pub fn error(&self) -> Option<&PbError> {
        match self {
            EngineOutcome::Failed { error, .. } => Some(error),
            _ => None,
        }
    }

    pub fn instr(&self) -> &Instrumentation {
        match self {
            EngineOutcome::Completed { instr, .. }
            | EngineOutcome::Aborted { instr, .. }
            | EngineOutcome::Failed { instr, .. } => instr,
        }
    }
}

/// The execution engine (vectorized by default; see [`Engine::execute`]).
pub struct Engine<'a> {
    pub db: &'a Database,
    pub query: &'a QuerySpec,
    pub params: &'a CostParams,
    /// Worker pool for morsel-driven phases of the vectorized path. The
    /// outcome is bit-identical for every worker count (see
    /// `crate::morsel`); this only changes wall-clock.
    pub par: Parallelism,
    /// Inputs smaller than this many rows run their phase serially even
    /// when workers are available (morsel-dispatch gating, the engine
    /// analogue of `PARALLEL_MIN_GRID`). Tests lower it to exercise the
    /// parallel kernels on small data.
    pub morsel_min: usize,
    /// Cooperative cancellation token, polled at batch commits and one-off
    /// charges. `None` disables polling entirely.
    pub cancel: Option<pb_faults::CancelToken>,
}

impl<'a> Engine<'a> {
    pub fn new(db: &'a Database, query: &'a QuerySpec, params: &'a CostParams) -> Self {
        Engine {
            db,
            query,
            params,
            par: Parallelism::serial(),
            morsel_min: pb_cost::PARALLEL_MIN_MORSEL_ROWS,
            cancel: None,
        }
    }

    /// Thread a cooperative cancellation token through vectorized
    /// executions. A tripped token halts the run at its next batch commit
    /// with [`pb_faults::PbError::Cancelled`]; checkpoints captured before
    /// the trip survive for resumable re-execution.
    pub fn with_cancel(mut self, token: pb_faults::CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Use `par` workers for morsel-driven phases of the vectorized path.
    /// Outcomes are unchanged — only wall-clock.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Override the morsel-dispatch gate (rows below which a phase stays
    /// serial). Intended for tests and benches that need the parallel
    /// kernels to engage on small inputs.
    pub fn with_morsel_threshold(mut self, rows: usize) -> Self {
        self.morsel_min = rows;
        self
    }

    /// Effective parallelism for a phase over `n_rows` items: the engine's
    /// pool, demoted to serial below the morsel gate.
    pub(crate) fn mpar(&self, n_rows: usize) -> Parallelism {
        if n_rows < self.morsel_min {
            Parallelism::serial()
        } else {
            self.par
        }
    }

    /// Execute `plan` with a cost budget (use `f64::INFINITY` to run to
    /// completion unconditionally). The outcome — cost bits, rows,
    /// instrumentation, abort point — is what a tuple-at-a-time
    /// interpretation of the plan would report; pb-engine's unit tests
    /// check that against such an interpreter.
    pub fn execute(&self, plan: &PlanNode, budget: f64) -> EngineOutcome {
        self.execute_with_faults(plan, budget, &FaultInjector::none())
    }

    /// Vectorized execution with an armed fault injector (chaos campaigns).
    /// With [`FaultInjector::none`] this is exactly [`Engine::execute`].
    pub fn execute_with_faults(
        &self,
        plan: &PlanNode,
        budget: f64,
        faults: &FaultInjector,
    ) -> EngineOutcome {
        self.vec_run(plan, budget, faults, None).0
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::data::Database;
    use pb_catalog::tpch;
    use pb_cost::CostModel;
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn setup() -> (Database, QuerySpec, CostModel) {
        let cat = tpch::catalog(0.01);
        let db = Database::generate(&cat, 42, &[]).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "eq");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1200.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        (db, qb.build(), CostModel::postgresish())
    }

    fn hj_plan() -> PlanNode {
        PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan { rel: 0 }),
            probe: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
        }
    }

    #[test]
    fn join_algorithms_agree_on_result_cardinality() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let hj = eng.execute(&hj_plan(), f64::INFINITY);
        let smj = eng.execute(
            &PlanNode::SortMergeJoin {
                left: Box::new(PlanNode::SeqScan { rel: 0 }),
                right: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
                sort_left: true,
                sort_right: true,
            },
            f64::INFINITY,
        );
        let inl = eng.execute(
            &PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                inner_rel: 1,
                edges: vec![0],
            },
            f64::INFINITY,
        );
        let (
            EngineOutcome::Completed { rows: r1, .. },
            EngineOutcome::Completed { rows: r2, .. },
            EngineOutcome::Completed { rows: r3, .. },
        ) = (hj, smj, inl)
        else {
            panic!("all executions should complete without budget");
        };
        assert_eq!(r1, r2, "HJ vs SMJ");
        assert_eq!(r1, r3, "HJ vs INLJ");
        assert!(r1 > 0, "join should produce rows");
    }

    #[test]
    fn result_matches_brute_force() {
        let (db, q, _) = setup();
        // Brute force over raw columns.
        let part = db.table(q.relations[0].table);
        let line = db.table(q.relations[1].table);
        let price_col = 1; // p_retailprice
        let pkey = 0; // p_partkey
        let lpart = 1; // l_partkey
        let mut freq: HashMap<i64, u64> = HashMap::new();
        for r in 0..part.rows {
            if (part.columns[price_col][r] as f64) < 1200.0 {
                *freq.entry(part.columns[pkey][r]).or_insert(0) += 1;
            }
        }
        let expect: u64 = line.columns[lpart]
            .iter()
            .map(|v| freq.get(v).copied().unwrap_or(0))
            .sum();
        let m = CostModel::postgresish();
        let eng = Engine::new(&db, &q, &m.p);
        let EngineOutcome::Completed { rows, .. } = eng.execute(&hj_plan(), f64::INFINITY) else {
            panic!("should complete");
        };
        assert_eq!(rows as u64, expect);
    }

    #[test]
    fn budget_abort_happens_and_charges_exactly_budget() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let full = eng.execute(&hj_plan(), f64::INFINITY).cost();
        let out = eng.execute(&hj_plan(), full * 0.3);
        assert!(!out.completed());
        assert!((out.cost() - full * 0.3).abs() < 1e-9 * full);
    }

    #[test]
    fn instrumentation_counts_are_plausible() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let out = eng.execute(&hj_plan(), f64::INFINITY);
        let instr = out.instr();
        // op 0 = scan(part), op 1 = scan(lineitem), op 2 = HJ
        assert!(instr.nodes[0].complete && instr.nodes[1].complete);
        assert_eq!(instr.nodes[1].output_tuples, 60_000);
        assert!(instr.nodes[0].output_tuples < 2000);
        assert!(instr.nodes[2].output_tuples > 0);
    }

    #[test]
    fn observed_selectivity_is_lower_bound_and_exact_on_completion() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let plan = hj_plan();
        let full = eng.execute(&plan, f64::INFINITY);
        let s_true = db.actual_join_selectivity(&q, 0)
            * db.actual_selection_selectivity(&q.relations[0].selections[0]);
        // The join (op 2, over the scans at ops 0 and 1) applies dim 1.
        let observe =
            |out: &EngineOutcome| out.instr().observed_selectivity(&plan, 2, &[0, 1], &q, &db);
        let s_obs = observe(&full).unwrap();
        // Join node output / (|part| · |lineitem|) ≈ s_join · s_selection.
        // (Not exactly equal: the per-key match density over the *selected*
        // parts differs from the overall density by finite-sample noise.)
        assert!(
            (s_obs - s_true).abs() < 0.02 * s_true,
            "obs {s_obs} vs true {s_true}"
        );
        // Partial execution observes a lower bound.
        let partial = eng.execute(&plan, full.cost() * 0.6);
        let s_part = observe(&partial).unwrap_or(0.0);
        assert!(s_part <= s_obs * (1.0 + 1e-9));
    }

    #[test]
    fn hash_aggregate_counts_groups() {
        let (db, _, m) = setup();
        let cat = db.catalog.clone();
        let mut qb = pb_plan::QueryBuilder::new(&cat, "agg");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.join(
            p,
            "p_partkey",
            l,
            "l_partkey",
            pb_plan::SelSpec::ErrorProne(0),
        );
        qb.group_by(p, "p_brand");
        let q = qb.build();
        let eng = Engine::new(&db, &q, &m.p);
        let plan = PlanNode::HashAggregate {
            input: Box::new(PlanNode::HashJoin {
                build: Box::new(PlanNode::SeqScan { rel: 0 }),
                probe: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
            }),
        };
        let EngineOutcome::Completed { rows, .. } = eng.execute(&plan, f64::INFINITY) else {
            panic!("aggregate should complete");
        };
        // Group count = distinct p_brand values among joined rows; every
        // part key matches (~30 lineitems), so all 25 brands appear.
        assert_eq!(rows, 25);
    }

    #[test]
    fn anti_join_matches_brute_force() {
        let (db, q0, m) = setup();
        // Rebuild the query with an anti edge: part rows with no lineitem.
        let cat = db.catalog.clone();
        let mut qb = pb_plan::QueryBuilder::new(&cat, "anti");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let o = qb.rel("orders");
        qb.join(
            p,
            "p_partkey",
            o,
            "o_custkey",
            pb_plan::SelSpec::Fixed(1e-4),
        );
        qb.anti_join(
            p,
            "p_partkey",
            l,
            "l_partkey",
            pb_plan::SelSpec::ErrorProne(0),
        );
        let q = qb.build();
        let _ = q0;
        let eng = Engine::new(&db, &q, &m.p);
        let plan = PlanNode::AntiJoin {
            left: Box::new(PlanNode::HashJoin {
                build: Box::new(PlanNode::SeqScan { rel: 0 }),
                probe: Box::new(PlanNode::SeqScan { rel: 2 }),
                edges: vec![0],
            }),
            right: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![1],
        };
        let EngineOutcome::Completed { rows, .. } = eng.execute(&plan, f64::INFINITY) else {
            panic!("anti join should complete");
        };
        // Brute force: (part ⋈ orders on p_partkey = o_custkey) rows whose
        // p_partkey has no lineitem match.
        let part = db.table(q.relations[0].table);
        let line = db.table(q.relations[1].table);
        let orders = db.table(q.relations[2].table);
        let lkeys: std::collections::HashSet<i64> = line.columns[1].iter().copied().collect();
        let mut ofreq: HashMap<i64, u64> = HashMap::new();
        for &v in &orders.columns[1] {
            *ofreq.entry(v).or_insert(0) += 1;
        }
        let expect: u64 = part.columns[0]
            .iter()
            .filter(|&&k| !lkeys.contains(&k))
            .map(|&k| ofreq.get(&k).copied().unwrap_or(0))
            .sum();
        assert_eq!(rows as u64, expect);
    }

    #[test]
    fn spill_discards_rows_but_counts_them() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let plan = PlanNode::Spill {
            input: Box::new(hj_plan()),
        };
        let EngineOutcome::Completed { rows, instr, .. } = eng.execute(&plan, f64::INFINITY) else {
            panic!("should complete");
        };
        assert_eq!(rows, 0, "spill discards its output");
        // The inner hash join (op 2, under the spill at op 3) still counted
        // its tuples.
        assert!(instr.nodes[2].output_tuples > 0);
    }

    #[test]
    fn engine_cost_tracks_cost_model_within_model_error() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let plan = hj_plan();
        let engine_cost = eng.execute(&plan, f64::INFINITY).cost();
        // Model the same plan at the *actual* selectivities.
        let s0 = db.actual_selection_selectivity(&q.relations[0].selections[0]);
        let s1 = db.actual_join_selectivity(&q, 0);
        let cat = db.catalog.clone();
        let coster = pb_cost::Coster::new(&cat, &q, &m);
        let modeled = coster.plan_cost(&plan, &[s0, s1]);
        let ratio = engine_cost / modeled;
        assert!(
            (0.3..3.0).contains(&ratio),
            "engine and model disagree wildly: {ratio} ({engine_cost} vs {modeled})"
        );
    }
}
