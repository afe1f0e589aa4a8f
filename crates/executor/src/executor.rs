//! Budgeted plan execution in cost units.

use pb_cost::{
    formulas, Checkpoint, CheckpointBook, CostPerturbation, CostProgram, NodeCost, NodeCosts,
};
use pb_faults::{FaultInjector, PbError};
use pb_plan::{DimId, PlanFingerprint, PlanNode, QuerySpec, RelIdx};

/// What one budget-limited execution told the driver — the outcome of
/// [`Executor::execute_monitored`], and of every substrate's executions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubstrateOutcome {
    /// Cost units actually consumed (charged to the run unconditionally).
    /// With checkpoint/resume enabled this is the cost of the *un-executed
    /// suffix only*: the restart-identical cost minus [`Self::reused`].
    pub spent: f64,
    /// Cost units fast-forwarded from checkpoints of earlier executions
    /// instead of re-executed. Zero on the plain paths. `spent + reused`
    /// is always the restart-semantics cost — resume never changes what is
    /// learned, only what is paid.
    pub reused: f64,
    /// The *query* finished (never true for spilled executions).
    pub completed: bool,
    /// Whether this execution ran a spilled prefix (Section 5.3).
    pub spilled: bool,
    /// Selectivity lower bounds observed from the execution:
    /// `(dim, new_lower_bound)`, first-quadrant safe.
    pub observed: Vec<(DimId, f64)>,
    /// Dimensions whose error node consumed its entire input, with the now
    /// exactly-known selectivity: `(dim, true_value)`.
    pub resolved: Vec<(DimId, f64)>,
    /// Set when the execution died on a fault rather than completing or
    /// exhausting its budget; `spent` still reflects the work wasted.
    pub error: Option<PbError>,
}

/// Error dimensions applied at `node` itself — by its join edges, then by
/// the selections of the relation it scans or probes — that pass `keep`,
/// each once, in that order.
fn dims_applied_at(node: &PlanNode, query: &QuerySpec, keep: impl Fn(DimId) -> bool) -> Vec<DimId> {
    let mut dims: Vec<DimId> = Vec::new();
    for &e in node.edges() {
        if let Some(d) = query.joins[e].selectivity.error_dim() {
            if keep(d) && !dims.contains(&d) {
                dims.push(d);
            }
        }
    }
    let scan_rel: Option<RelIdx> = match node {
        PlanNode::SeqScan { rel }
        | PlanNode::IndexScan { rel, .. }
        | PlanNode::FullIndexScan { rel, .. } => Some(*rel),
        PlanNode::IndexNLJoin { inner_rel, .. } => Some(*inner_rel),
        _ => None,
    };
    if let Some(rel) = scan_rel {
        for s in &query.relations[rel].selections {
            if let Some(d) = s.selectivity.error_dim() {
                if keep(d) && !dims.contains(&d) {
                    dims.push(d);
                }
            }
        }
    }
    dims
}

/// Find the first node, in execution (post)order, that applies at least one
/// error dimension not yet in `resolved`. Because the traversal is
/// post-order, no unresolved dimension is applied below the returned node,
/// so its input cardinalities are fully known — the precondition for
/// learning a selectivity lower bound from its tuple counter (Section 5.2).
///
/// Returns `(node, dims_applied_here)`. This is the tree-walk reference
/// [`MonitorTable::learnable`] is tested against; product code asks the
/// table.
pub fn learnable_node<'p>(
    plan: &'p PlanNode,
    query: &QuerySpec,
    resolved: &[bool],
) -> Option<(&'p PlanNode, Vec<DimId>)> {
    for child in plan.children() {
        if let Some(hit) = learnable_node(child, query, resolved) {
            return Some(hit);
        }
    }
    let dims = dims_applied_at(plan, query, |d| !resolved[d]);
    if dims.is_empty() {
        None
    } else {
        Some((plan, dims))
    }
}

/// One error-applying node of a plan, as the monitored execution needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorNode {
    /// Index of the node's op in the plan's single-plan [`CostProgram`] (its
    /// post-order position), so the captured estimate at that index is the
    /// node's subtree cost.
    pub op: usize,
    /// Error dimensions applied here, in [`learnable_node`] order.
    pub dims: Vec<DimId>,
    /// Distance from the plan root (the root is at depth 0).
    pub depth: usize,
    /// Fingerprint of the subtree rooted here (the model-error perturbation
    /// of a spilled prefix keys off it).
    pub fingerprint: PlanFingerprint,
    /// `(op index, fingerprint)` of each child subtree, outer/left first.
    pub children: Vec<(usize, PlanFingerprint)>,
    /// The first-executed chain ([`PlanNode::exec_chain`]) of the subtree
    /// rooted here as `(op index, fingerprint)` pairs, deepest first, this
    /// node last: the prefixes a spilled execution below it can checkpoint.
    pub chain: Vec<(usize, PlanFingerprint)>,
}

impl MonitorNode {
    /// The first op of the subtree rooted here (its chain's deepest
    /// entry): the subtree's ops are `first_op()..=op`.
    pub fn first_op(&self) -> usize {
        self.chain[0].0
    }
}

/// [`learnable_node`] for every `resolved` mask at once: a plan's
/// error-applying nodes in post-order. The learnable node under a mask is
/// the first entry with an unresolved dimension, and its dimensions are that
/// entry's with the resolved ones dropped. This is the one index of a
/// plan's error sites: the simulator, the engine substrate and the
/// optimized driver's AxisPlans tie-break all read it.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorTable {
    /// Nodes in the plan (= ops in its program).
    size: usize,
    nodes: Vec<MonitorNode>,
    /// The whole plan's first-executed chain, as in [`MonitorNode::chain`].
    chain: Vec<(usize, PlanFingerprint)>,
}

impl MonitorTable {
    pub fn build(plan: &PlanNode, query: &QuerySpec) -> Self {
        /// Post-order walk; returns the first-executed chain of `node`,
        /// whose last entry is `node`'s own `(op, fingerprint)`.
        fn walk(
            node: &PlanNode,
            query: &QuerySpec,
            depth: usize,
            next_op: &mut usize,
            out: &mut Vec<MonitorNode>,
        ) -> Vec<(usize, PlanFingerprint)> {
            let chains: Vec<Vec<(usize, PlanFingerprint)>> = node
                .children()
                .into_iter()
                .map(|c| walk(c, query, depth + 1, next_op, out))
                .collect();
            let children = chains.iter().map(|c| c[c.len() - 1]).collect();
            let op = *next_op;
            *next_op += 1;
            let fingerprint = node.fingerprint();
            let mut chain = chains.into_iter().next().unwrap_or_default();
            chain.push((op, fingerprint));
            let dims = dims_applied_at(node, query, |_| true);
            if !dims.is_empty() {
                out.push(MonitorNode {
                    op,
                    dims,
                    depth,
                    fingerprint,
                    children,
                    chain: chain.clone(),
                });
            }
            chain
        }
        let (mut size, mut nodes) = (0, Vec::new());
        let chain = walk(plan, query, 0, &mut size, &mut nodes);
        MonitorTable { size, nodes, chain }
    }

    /// The error-applying nodes, in post-order.
    pub fn nodes(&self) -> &[MonitorNode] {
        &self.nodes
    }

    /// The first node, in post-order, applying a dimension not in
    /// `resolved`, with the first such dimension.
    pub fn learnable(&self, resolved: &[bool]) -> Option<(&MonitorNode, DimId)> {
        self.nodes.iter().find_map(|n| {
            let first = n.dims.iter().copied().find(|&d| !resolved[d])?;
            Some((n, first))
        })
    }

    /// Depth of the deepest node applying a dimension not in `resolved` (0
    /// when every dimension of the plan is resolved) — the AxisPlans
    /// tie-break (Section 5.1): a deep error node wastes less of the budget
    /// on error-free upstream work.
    pub fn deepest_unresolved(&self, resolved: &[bool]) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.dims.iter().any(|&d| !resolved[d]))
            .map(|n| n.depth)
            .max()
            .unwrap_or(0)
    }

    /// The first-executed chain of the tree an execution runs: the whole
    /// plan's, or — for a spilled run under the mask `spilled_under` — that
    /// of the prefix below the learnable node (the whole plan's when no
    /// node is learnable, as the spilled run then executes the plan).
    pub fn exec_chain(&self, spilled_under: Option<&[bool]>) -> &[(usize, PlanFingerprint)] {
        match spilled_under.and_then(|resolved| self.learnable(resolved)) {
            Some((node, _)) => &node.chain,
            None => &self.chain,
        }
    }

    /// Fingerprint of the whole plan.
    fn root(&self) -> PlanFingerprint {
        self.chain[self.chain.len() - 1].1
    }
}

/// Cost-unit execution simulator: prices plans through their compiled
/// [`CostProgram`]s, with an optional bounded model-error perturbation and
/// an optional fault injector (inert by default — with
/// [`FaultInjector::none`] every outcome is bit-identical to the hook-free
/// code).
pub struct Executor {
    pub perturb: CostPerturbation,
    pub faults: FaultInjector,
}

impl Executor {
    /// A simulator whose actual costs are the modeled ones under `perturb`
    /// (`CostPerturbation::none()` for the perfect model), no faults armed.
    pub fn new(perturb: CostPerturbation) -> Self {
        Executor {
            perturb,
            faults: FaultInjector::none(),
        }
    }

    /// Arm a fault injector (chaos campaigns, robustness drivers).
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// What a plan fingerprinted `fp` actually costs to run at `qa` when the
    /// model says `modeled` (one spike consultation per call).
    fn realized(&self, fp: PlanFingerprint, qa: &[f64], modeled: f64) -> f64 {
        let actual = self.perturb.actual_cost(fp, qa, modeled);
        if self.faults.is_active() {
            actual * self.faults.spike_factor()
        } else {
            actual
        }
    }

    /// The actual run-time cost of executing a compiled plan to completion
    /// at the true location `qa`: its modeled cost × the bounded model-error
    /// factor (an armed injector may additionally spike it beyond the δ
    /// band). `fp` must be the fingerprint of the plan the program was
    /// compiled from (the model-error perturbation keys off it); `stack` is
    /// reusable evaluation scratch.
    pub fn actual_cost_compiled(
        &self,
        prog: &CostProgram,
        fp: PlanFingerprint,
        qa: &[f64],
        stack: &mut Vec<NodeCost>,
    ) -> f64 {
        self.realized(fp, qa, prog.eval_with(qa, stack).cost)
    }

    /// Cost-limited execution with selectivity monitoring — the
    /// simulator's one budgeted execution. A plain execution (Figure 7) is
    /// this call under an all-resolved mask, unspilled: nothing is
    /// learnable, so it is a pure completion attempt.
    ///
    /// With `spilled == true` the pipeline is broken immediately above the
    /// first unresolved error node (Section 5.3): the entire budget goes to
    /// that node's subtree and the query can never complete here. With
    /// `spilled == false` the full plan runs and may complete the query.
    ///
    /// Learning model: let `E` be the first unresolved error node, `C_in`
    /// the (known) cost of `E`'s inputs and `C_exec` the cost of the
    /// executed tree (spilled prefix or full plan). A budget `B < C_exec`
    /// drives `E` through a fraction `(B − C_in)/(C_exec − C_in)` of its
    /// input, so its tuple counter certifies a selectivity lower bound of
    /// that fraction × the true value. The fraction is capped at 1, which
    /// guarantees the first-quadrant invariant.
    ///
    /// Fault hooks, in order: a spilled run's pipeline break may fail
    /// (nothing spent); the execution may die on an operator failure after
    /// burning `frac · min(budget, C_exec)` — never more than the granted
    /// budget or the executed tree; the budget clock may skew; an abort's
    /// charge may be inflated and an observation corrupted.
    ///
    /// `prog` is the plan's single-plan program and `table` its monitor
    /// table. One captured evaluation prices the plan, the spilled prefix
    /// and `E`'s inputs: the captured estimate at a node's op index is
    /// bit-identical to costing that subtree alone, and the perturbation
    /// keys off the subtree fingerprints the table recorded, so the outcome
    /// equals the tree walk's bit for bit. The capture stays in `scratch`
    /// for a [`CostResumeBook`] to price the executed chain from.
    #[allow(clippy::too_many_arguments)] // the plan (program + table), the location, the request, scratch
    pub fn execute_monitored(
        &self,
        prog: &CostProgram,
        table: &MonitorTable,
        qa: &[f64],
        resolved: &[bool],
        budget: f64,
        spilled: bool,
        scratch: &mut NodeCosts,
    ) -> SubstrateOutcome {
        debug_assert_eq!(prog.len(), table.size, "table built from another plan");
        let mut out = SubstrateOutcome {
            spilled,
            ..SubstrateOutcome::default()
        };
        if spilled {
            if let Some(error) = self.faults.spill_failure("executor:spill") {
                // The pipeline break itself failed before any real work;
                // the driver decides whether to retry unspilled.
                out.error = Some(error);
                return out;
            }
        }
        let nodes = prog.eval_nodes(qa, scratch);
        // Actual cost of the subtree ending at op `op`, run as a plan of its
        // own.
        let actual = |op: usize, fp| self.realized(fp, qa, nodes[op].cost);
        let learn = table.learnable(resolved);
        // Cost of the executed tree: with a learnable node and `spilled`,
        // the subtree rooted at it, output discarded; else the whole plan.
        let exec_cost = match learn {
            Some((node, _)) if spilled => {
                let prefix = formulas::spill(prog.params(), &nodes[node.op]).cost;
                self.perturb.actual_cost(node.fingerprint, qa, prefix)
            }
            _ => actual(table.size - 1, table.root()),
        };
        if let Some((frac, error)) = self.faults.operator_failure("executor:execute") {
            // Died after a fraction of the work it would have done.
            out.spent = frac * budget.min(exec_cost);
            out.error = Some(error);
            return out;
        }
        // Clock skew only makes sense for finite budgets (∞ × 0 is NaN).
        let budget = if budget.is_finite() {
            self.faults.skewed_budget(budget)
        } else {
            budget
        };
        let fits = exec_cost <= budget;
        out.spent = if fits {
            exec_cost
        } else {
            budget * self.faults.ledger_factor()
        };
        out.completed = fits && !spilled;
        let Some((node, dim)) = learn else {
            // No unresolved error dimension in this plan: nothing to learn.
            return out;
        };
        // Cost of the error node's inputs — fully known to the driver since
        // no unresolved dimension occurs below the node.
        let input_cost: f64 = node.children.iter().map(|&(op, fp)| actual(op, fp)).sum();
        if fits {
            // Completed — the query, or with `spilled` only the prefix:
            // either way all dims applied at this node resolve, to their
            // true values.
            out.observed = vec![(dim, self.faults.corrupt_observation(qa[dim]))];
            out.resolved = (node.dims.iter())
                .filter(|&&d| !resolved[d])
                .map(|&d| (d, qa[d]))
                .collect();
        } else {
            let denom = (exec_cost - input_cost).max(f64::MIN_POSITIVE);
            let frac = ((budget - input_cost) / denom).clamp(0.0, 1.0);
            if frac > 0.0 {
                out.observed = vec![(dim, self.faults.corrupt_observation(frac * qa[dim]))];
            }
        }
        out
    }
}

/// Closed-form checkpoint book for the cost-unit simulator — the
/// [`Executor`]'s side of the substrate checkpoint/resume contract.
///
/// The engine checkpoints a plan's completed operator prefix at batch
/// boundaries; the simulator mirrors that with arithmetic. A plan's
/// checkpointable prefixes are the subtrees along its first-executed chain
/// ([`PlanNode::exec_chain`]; [`MonitorTable::exec_chain`] lists them by op
/// index): a budget-limited run completes exactly the chain subtrees whose
/// standalone actual cost fits the spend. Each subtree's standalone cost is
/// read at its op index from the execution's per-op capture. The book
/// records those completed subtrees by structural fingerprint
/// ([`Executor::resume_record`]); a later execution — the same plan at the
/// next contour budget, or a different plan sharing a join-subtree prefix —
/// is credited the largest recorded prefix on its own chain and pays only
/// the un-executed suffix ([`Executor::resume_credit`]).
pub type CostResumeBook = CheckpointBook<u64, CostCheckpoint>;

/// A completed chain subtree's standalone actual cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCheckpoint(pub f64);

/// Approximate heap footprint of one entry: fingerprint, cost, stamp and
/// price in the book's map, with per-slot overhead charged flatly.
const COST_ENTRY_BYTES: usize = 48;

impl Checkpoint for CostCheckpoint {
    fn bytes(&self) -> usize {
        COST_ENTRY_BYTES
    }

    /// The stored cost no longer reproduces bit for bit.
    fn corrupt(&mut self) {
        self.0 = f64::from_bits(self.0.to_bits() ^ 1) + 1.0;
    }
}

impl Executor {
    /// Largest recorded-and-valid prefix credit on an execution's
    /// first-executed `chain`, in cost units at the true location `qa`;
    /// `nodes` is the execution's per-op capture. Every stored cost is
    /// validated bit for bit against a recomputation at use time (the
    /// simulator analogue of a checkpoint checksum): a corrupted entry
    /// yields no credit, so the execution falls back to full restart
    /// charging — never a double charge, never a changed observation.
    pub fn resume_credit(
        &self,
        book: &mut CostResumeBook,
        chain: &[(usize, PlanFingerprint)],
        nodes: &[NodeCost],
        qa: &[f64],
    ) -> f64 {
        let mut credit = 0.0;
        for &(op, fp) in chain {
            let valid = |s: &CostCheckpoint| {
                s.0.to_bits() == self.realized(fp, qa, nodes[op].cost).to_bits()
            };
            if let Some(&CostCheckpoint(c)) = book.get_valid(&fp.0, valid) {
                credit = c.max(credit);
            }
        }
        credit
    }

    /// Record the chain prefixes completed by an execution that spent
    /// `spent` cost units (`completed` marks a full completion, which
    /// checkpoints the entire chain regardless of the spend bookkeeping).
    pub fn resume_record(
        &self,
        book: &mut CostResumeBook,
        chain: &[(usize, PlanFingerprint)],
        nodes: &[NodeCost],
        qa: &[f64],
        spent: f64,
        completed: bool,
    ) {
        book.extend(chain.iter().filter_map(|&(op, fp)| {
            let cost = self.realized(fp, qa, nodes[op].cost);
            (completed || cost <= spent).then_some((fp.0, CostCheckpoint(cost)))
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Coster};
    use pb_faults::{FaultKind, FaultPlan, Trigger};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn setup() -> (pb_catalog::Catalog, QuerySpec, CostModel) {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "eq2d");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let o = qb.rel("orders");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        (cat.clone(), qb.build(), CostModel::postgresish())
    }

    fn sample_plan() -> PlanNode {
        PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::HashJoin {
                build: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                probe: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
            }),
            inner_rel: 2,
            edges: vec![1],
        }
    }

    /// One plan compiled for the executor, with its monitor table.
    struct Compiled {
        prog: CostProgram,
        table: MonitorTable,
        fp: PlanFingerprint,
    }

    impl Compiled {
        fn new(plan: &PlanNode) -> Self {
            let (cat, q, m) = setup();
            Compiled {
                prog: CostProgram::compile(&cat, &q, &m, plan),
                table: MonitorTable::build(plan, &q),
                fp: plan.fingerprint(),
            }
        }

        fn actual(&self, ex: &Executor, qa: &[f64]) -> f64 {
            ex.actual_cost_compiled(&self.prog, self.fp, qa, &mut Vec::new())
        }

        fn monitored(
            &self,
            ex: &Executor,
            qa: &[f64],
            resolved: &[bool],
            budget: f64,
            spilled: bool,
        ) -> SubstrateOutcome {
            let mut scratch = NodeCosts::default();
            ex.execute_monitored(
                &self.prog,
                &self.table,
                qa,
                resolved,
                budget,
                spilled,
                &mut scratch,
            )
        }
    }

    fn plain() -> Executor {
        Executor::new(CostPerturbation::none())
    }

    #[test]
    fn execute_completes_iff_cost_fits() {
        let ex = plain();
        let (plan, qa) = (Compiled::new(&sample_plan()), [0.01, 1e-6]);
        let run = |budget| plan.monitored(&ex, &qa, &[true, true], budget, false);
        let cost = plan.actual(&ex, &qa);
        assert!(run(cost * 1.01).completed);
        let aborted = run(cost * 0.5);
        assert!(!aborted.completed);
        assert_eq!(aborted.spent, cost * 0.5);
    }

    #[test]
    fn plain_execution_matches_tree_walk_bitwise() {
        let (cat, q, m) = setup();
        let noisy = Executor::new(CostPerturbation::with_delta(0.4, 7));
        let plan = sample_plan();
        let Compiled { prog, table, fp } = Compiled::new(&plan);
        let mut stack = Vec::new();
        let mut scratch = NodeCosts::default();
        for qa in [[0.01, 1e-6], [0.05, 2e-6], [1.0, 5e-6]] {
            let modeled = Coster::new(&cat, &q, &m).plan_cost(&plan, &qa);
            let walked = noisy.perturb.actual_cost(fp, &qa, modeled);
            let compiled = noisy.actual_cost_compiled(&prog, fp, &qa, &mut stack);
            assert_eq!(walked.to_bits(), compiled.to_bits());
            for budget in [walked * 0.5, walked, walked * 2.0] {
                let fits = walked <= budget;
                let expect = SubstrateOutcome {
                    spent: if fits { walked } else { budget },
                    completed: fits,
                    ..SubstrateOutcome::default()
                };
                let all = [true, true];
                let got =
                    noisy.execute_monitored(&prog, &table, &qa, &all, budget, false, &mut scratch);
                assert_eq!(got, expect);
                // The capture ends with the whole plan's modeled estimate.
                assert_eq!(scratch.last().last().map(|n| n.cost), Some(modeled));
            }
        }
    }

    #[test]
    fn operator_failure_burns_at_most_the_executed_tree() {
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        let cost = plan.actual(&plain(), &qa);
        for budget in [cost * 0.5, cost * 4.0, f64::INFINITY] {
            for (mask, spilled) in [([true, true], false), ([false, false], false)] {
                let faults = FaultPlan::new(1).with(
                    FaultKind::OperatorFailure { waste_frac: 0.5 },
                    Trigger::Nth(1),
                );
                let ex = plain().with_faults(FaultInjector::new(&faults));
                let r = plan.monitored(&ex, &qa, &mask, budget, spilled);
                assert!(matches!(r.error, Some(PbError::OperatorFailure { .. })));
                assert!(!r.completed && r.observed.is_empty() && r.resolved.is_empty());
                assert_eq!(r.spent.to_bits(), (0.5 * budget.min(cost)).to_bits());
            }
        }
    }

    #[test]
    fn learnable_node_finds_deepest_unresolved() {
        let (_, q, _) = setup();
        let plan = sample_plan();
        // Nothing resolved: the IndexScan leaf (dim 0) comes first.
        let (node, dims) = learnable_node(&plan, &q, &[false, false]).unwrap();
        assert!(matches!(node, PlanNode::IndexScan { rel: 0, .. }));
        assert_eq!(dims, vec![0]);
        // Dim 0 resolved: the hash join (dim 1) is next.
        let (node, dims) = learnable_node(&plan, &q, &[true, false]).unwrap();
        assert!(matches!(node, PlanNode::HashJoin { .. }));
        assert_eq!(dims, vec![1]);
        // Everything resolved: no error nodes.
        assert!(learnable_node(&plan, &q, &[true, true]).is_none());
    }

    #[test]
    fn monitor_table_lists_error_nodes_in_post_order() {
        let (_, q, _) = setup();
        let plan = sample_plan();
        let table = MonitorTable::build(&plan, &q);
        // Post-order ops: IndexScan 0, SeqScan 1, HashJoin 2, IndexNLJoin 3.
        let [scan, join] = table.nodes() else {
            panic!("two error-applying nodes expected: {table:?}");
        };
        assert_eq!((scan.op, scan.dims.as_slice()), (0, &[0][..]));
        assert!(scan.children.is_empty());
        assert_eq!((join.op, join.dims.as_slice()), (2, &[1][..]));
        let ops: Vec<usize> = join.children.iter().map(|c| c.0).collect();
        assert_eq!(ops, vec![0, 1]);
        // The scan sits under the join, which sits under the root; both
        // subtrees start at the scan's op.
        assert_eq!((scan.depth, join.depth), (2, 1));
        assert_eq!((scan.first_op(), join.first_op()), (0, 0));
        assert_eq!(table.deepest_unresolved(&[false, false]), 2);
        assert_eq!(table.deepest_unresolved(&[true, false]), 1);
        assert_eq!(table.deepest_unresolved(&[true, true]), 0);
        for mask in [[false, false], [true, false], [false, true], [true, true]] {
            let walked = learnable_node(&plan, &q, &mask);
            let tabled = table.learnable(&mask);
            assert_eq!(walked.is_some(), tabled.is_some());
            if let (Some((node, dims)), Some((entry, first))) = (walked, tabled) {
                assert_eq!(node.fingerprint(), entry.fingerprint);
                assert_eq!(dims[0], first);
            }
        }
        // The chains are `exec_chain`'s subtrees at their post-order ops.
        let chain = |c: &[(usize, PlanFingerprint)]| c.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(chain(table.exec_chain(None)), vec![0, 2, 3]);
        let fps: Vec<PlanFingerprint> = plan.exec_chain().iter().map(|n| n.fingerprint()).collect();
        let tabled: Vec<PlanFingerprint> = table.exec_chain(None).iter().map(|e| e.1).collect();
        assert_eq!(tabled, fps);
        assert_eq!(chain(table.exec_chain(Some(&[false, false]))), vec![0]);
        assert_eq!(chain(table.exec_chain(Some(&[true, false]))), vec![0, 2]);
        assert_eq!(chain(table.exec_chain(Some(&[true, true]))), vec![0, 2, 3]);
    }

    #[test]
    fn monitored_learning_respects_first_quadrant() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        for budget_frac in [0.01, 0.1, 0.5, 0.9] {
            let full = plan.actual(&ex, &qa);
            let r = plan.monitored(&ex, &qa, &[false, false], full * budget_frac, false);
            assert!(!r.completed);
            if let Some(&(d, v)) = r.observed.first() {
                assert_eq!(d, 0);
                assert!(v <= qa[0] * (1.0 + 1e-12), "learned {v} > true {}", qa[0]);
                assert!(v >= 0.0);
            }
        }
    }

    #[test]
    fn spilled_learns_at_least_as_fast_as_unspilled() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        let budget = plan.actual(&ex, &qa) * 0.2;
        let spilled = plan.monitored(&ex, &qa, &[false, false], budget, true);
        let unspilled = plan.monitored(&ex, &qa, &[false, false], budget, false);
        let lv = |r: &SubstrateOutcome| r.observed.first().map_or(0.0, |&(_, v)| v);
        assert!(
            lv(&spilled) >= lv(&unspilled) - 1e-15,
            "spilled {} < unspilled {}",
            lv(&spilled),
            lv(&unspilled)
        );
    }

    #[test]
    fn spilled_prefix_completion_resolves_dim_without_completing_query() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        // Huge budget: the spilled prefix (IndexScan on part) completes.
        let r = plan.monitored(&ex, &qa, &[false, false], 1e12, true);
        assert!(!r.completed);
        assert_eq!(r.resolved, vec![(0, qa[0])]);
        assert_eq!(r.observed, vec![(0, qa[0])]);
        assert!(r.spent < 1e12);
    }

    #[test]
    fn unspilled_with_huge_budget_completes_and_resolves() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        let r = plan.monitored(&ex, &qa, &[false, false], 1e12, false);
        assert!(r.completed);
        assert_eq!(r.resolved, vec![(0, qa[0])]);
    }

    #[test]
    fn fully_resolved_plan_is_pure_completion_attempt() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        let cost = plan.actual(&ex, &qa);
        let r = plan.monitored(&ex, &qa, &[true, true], cost * 0.5, false);
        assert!(!r.completed);
        assert!(r.observed.is_empty());
        assert_eq!(r.spent, cost * 0.5);
    }

    #[test]
    fn resume_book_credits_recorded_prefixes_and_rejects_corruption() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = sample_plan();
        let chain = plan.exec_chain();
        let compiled = Compiled::new(&plan);
        let [leaf_cost, mid_cost, full_cost] =
            [chain[0], chain[1], &plan].map(|sub| Compiled::new(sub).actual(&ex, &qa));
        let mut scratch = NodeCosts::default();
        compiled.prog.eval_nodes(&qa, &mut scratch);
        let nodes = scratch.last();
        let own = compiled.table.exec_chain(None);

        let mut book = CostResumeBook::new();
        let credit = |book: &mut CostResumeBook| ex.resume_credit(book, own, nodes, &qa);
        assert_eq!(credit(&mut book), 0.0);
        // An abort that spent enough for the leaf but not the hash join
        // checkpoints only the leaf.
        ex.resume_record(
            &mut book,
            own,
            nodes,
            &qa,
            (leaf_cost + mid_cost) / 2.0,
            false,
        );
        assert_eq!(credit(&mut book).to_bits(), leaf_cost.to_bits());
        // A deeper abort checkpoints the join prefix too.
        ex.resume_record(&mut book, own, nodes, &qa, mid_cost * 1.01, false);
        assert_eq!(credit(&mut book).to_bits(), mid_cost.to_bits());
        // A different plan sharing the hash-join prefix grafts the same
        // credit.
        let other = Compiled::new(&PlanNode::SortMergeJoin {
            left: Box::new(chain[1].clone()),
            right: Box::new(PlanNode::SeqScan { rel: 2 }),
            edges: vec![1],
            sort_left: true,
            sort_right: true,
        });
        let mut other_scratch = NodeCosts::default();
        other.prog.eval_nodes(&qa, &mut other_scratch);
        let grafted = ex.resume_credit(
            &mut book,
            other.table.exec_chain(None),
            other_scratch.last(),
            &qa,
        );
        assert_eq!(grafted.to_bits(), mid_cost.to_bits());
        // Corrupt checkpoints yield zero credit (restart fallback).
        book.corrupt_all();
        assert_eq!(credit(&mut book), 0.0);
        // Re-recording heals the book.
        ex.resume_record(&mut book, own, nodes, &qa, full_cost, true);
        assert_eq!(credit(&mut book).to_bits(), full_cost.to_bits());
        assert_eq!(book.len(), 3);
    }

    #[test]
    fn model_error_perturbation_changes_actual_cost_within_band() {
        let noisy = Executor::new(CostPerturbation::with_delta(0.4, 99));
        let plan = Compiled::new(&sample_plan());
        let qa = [0.05, 2e-6];
        let c0 = plan.actual(&plain(), &qa);
        let c1 = plan.actual(&noisy, &qa);
        assert!(c1 >= c0 / 1.4 - 1e-9 && c1 <= c0 * 1.4 + 1e-9);
    }
}
