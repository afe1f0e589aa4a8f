//! Budgeted plan execution in cost units.

use pb_cost::{formulas, CostPerturbation, CostProgram, NodeCost, NodeCosts};
use pb_faults::{FaultInjector, PbError};
use pb_plan::{DimId, PlanFingerprint, PlanNode, QuerySpec, RelIdx};

/// Outcome of a plain cost-limited execution (basic bouquet driver).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// The plan finished within the budget; `cost` is what it consumed.
    Completed { cost: f64 },
    /// The budget was exhausted first; exactly `spent == budget` was wasted.
    Aborted { spent: f64 },
    /// The execution died mid-flight (injected or real operator fault) after
    /// consuming `spent` units. Unlike an abort, the budget was not the
    /// limiting factor and nothing was learned.
    Failed { spent: f64, error: PbError },
}

impl ExecOutcome {
    pub fn spent(&self) -> f64 {
        match self {
            ExecOutcome::Completed { cost } => *cost,
            ExecOutcome::Aborted { spent } | ExecOutcome::Failed { spent, .. } => *spent,
        }
    }

    pub fn completed(&self) -> bool {
        matches!(self, ExecOutcome::Completed { .. })
    }

    pub fn error(&self) -> Option<&PbError> {
        match self {
            ExecOutcome::Failed { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Outcome of an execution that also monitors selectivities (optimized
/// bouquet driver, Sections 5.2–5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The query finished (only possible for unspilled executions).
    pub completed: bool,
    /// Cost units actually consumed (≤ budget).
    pub spent: f64,
    /// Updated lower bound for one dimension, if an unresolved error node
    /// was observed: `(dim, new_lower_bound)`.
    pub learned: Option<(DimId, f64)>,
    /// Dimensions whose error node consumed its entire input — their true
    /// selectivity is now exactly known.
    pub resolved: Vec<DimId>,
    /// Set when the execution died on a fault rather than completing or
    /// exhausting the budget; `spent` still reflects the work wasted.
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

/// [`learnable_node`] for every `resolved` mask at once: a plan's
/// error-applying nodes in post-order. The learnable node under a mask is
/// the first entry with an unresolved dimension, and its dimensions are that
/// entry's with the resolved ones dropped.
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
            next_op: &mut usize,
            out: &mut Vec<MonitorNode>,
        ) -> Vec<(usize, PlanFingerprint)> {
            let chains: Vec<Vec<(usize, PlanFingerprint)>> = node
                .children()
                .into_iter()
                .map(|c| walk(c, query, next_op, out))
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
                    fingerprint,
                    children,
                    chain: chain.clone(),
                });
            }
            chain
        }
        let (mut size, mut nodes) = (0, Vec::new());
        let chain = walk(plan, query, &mut size, &mut nodes);
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

    /// Budget logic of a whole-plan execution: fault checks (operator
    /// failure, clock skew, abort over-charge) happen here and only here.
    fn budgeted(&self, cost: f64, budget: f64, site: &str) -> ExecOutcome {
        if !self.faults.is_active() {
            return if cost <= budget {
                ExecOutcome::Completed { cost }
            } else {
                ExecOutcome::Aborted { spent: budget }
            };
        }
        if let Some((frac, error)) = self.faults.exec_failure(site) {
            // Died after a fraction of the work it would have done (bounded
            // by the budget when finite, so the spend is always chargeable).
            let bound = if budget.is_finite() {
                budget.min(cost)
            } else {
                cost
            };
            return ExecOutcome::Failed {
                spent: bound * frac,
                error,
            };
        }
        // Clock skew only makes sense for finite budgets (∞ × 0 is NaN).
        let effective = if budget.is_finite() {
            self.faults.skewed_budget(budget)
        } else {
            budget
        };
        if cost <= effective {
            ExecOutcome::Completed { cost }
        } else {
            ExecOutcome::Aborted {
                spent: effective * self.faults.abort_charge_factor(),
            }
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

    /// Plain cost-limited execution of a compiled plan — the basic driver's
    /// primitive, which re-costs whole pool plans once per budget probe.
    /// One captured evaluation prices it, leaving every subtree's estimate
    /// in `scratch` for a [`CostResumeBook`] to price the chain from.
    pub fn execute_compiled(
        &self,
        prog: &CostProgram,
        fp: PlanFingerprint,
        qa: &[f64],
        budget: f64,
        scratch: &mut NodeCosts,
    ) -> ExecOutcome {
        let nodes = prog.eval_nodes(qa, scratch);
        let cost = self.realized(fp, qa, nodes[nodes.len() - 1].cost);
        self.budgeted(cost, budget, "executor:execute-compiled")
    }

    /// Cost-limited execution with selectivity monitoring.
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
    /// `prog` is the plan's single-plan program and `table` its monitor
    /// table. One captured evaluation prices the plan, the spilled prefix
    /// and `E`'s inputs: the captured estimate at a node's op index is
    /// bit-identical to costing that subtree alone, and the perturbation
    /// keys off the subtree fingerprints the table recorded, so the outcome
    /// equals the tree walk's bit for bit. The capture stays in `scratch`.
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
    ) -> RunResult {
        debug_assert_eq!(prog.len(), table.size, "table built from another plan");
        if self.faults.is_active() {
            if spilled {
                if let Some(error) = self.faults.spill_failure("executor:spill") {
                    // The pipeline break itself failed before any real work;
                    // the driver decides whether to retry unspilled.
                    return RunResult {
                        completed: false,
                        spent: 0.0,
                        learned: None,
                        resolved: Vec::new(),
                        error: Some(error),
                    };
                }
            }
            if let Some((frac, error)) = self.faults.exec_failure("executor:monitored") {
                let spent = if budget.is_finite() {
                    budget * frac
                } else {
                    0.0
                };
                return RunResult {
                    completed: false,
                    spent,
                    learned: None,
                    resolved: Vec::new(),
                    error: Some(error),
                };
            }
        }
        let budget = if budget.is_finite() {
            self.faults.skewed_budget(budget)
        } else {
            budget
        };
        let nodes = prog.eval_nodes(qa, scratch);
        // Actual cost of the subtree ending at op `op`, run as a plan of its
        // own.
        let actual = |op: usize, fp| self.realized(fp, qa, nodes[op].cost);
        let root = table.size - 1;
        let Some((node, dim)) = table.learnable(resolved) else {
            // No unresolved error dimension in this plan: pure completion
            // attempt; nothing to learn on abort.
            let cost = actual(root, table.root());
            return if cost <= budget {
                RunResult {
                    completed: true,
                    spent: cost,
                    learned: None,
                    resolved: Vec::new(),
                    error: None,
                }
            } else {
                RunResult {
                    completed: false,
                    spent: budget * self.faults.abort_charge_factor(),
                    learned: None,
                    resolved: Vec::new(),
                    error: None,
                }
            };
        };

        // Cost of the executed tree.
        let exec_tree_cost = if spilled {
            // Subtree rooted at the error node, output discarded.
            let prefix = formulas::spill(prog.params(), &nodes[node.op]).cost;
            self.perturb.actual_cost(node.fingerprint, qa, prefix)
        } else {
            actual(root, table.root())
        };
        // Cost of the error node's inputs — fully known to the driver since
        // no unresolved dimension occurs below the node.
        let input_cost: f64 = node.children.iter().map(|&(op, fp)| actual(op, fp)).sum();

        if exec_tree_cost <= budget {
            // Completed — the query, or with `spilled` only the prefix:
            // either way all dims applied at this node resolve.
            RunResult {
                completed: !spilled,
                spent: exec_tree_cost,
                learned: Some((dim, self.faults.corrupt_observation(qa[dim]))),
                resolved: node
                    .dims
                    .iter()
                    .copied()
                    .filter(|&d| !resolved[d])
                    .collect(),
                error: None,
            }
        } else {
            let denom = (exec_tree_cost - input_cost).max(f64::MIN_POSITIVE);
            let frac = ((budget - input_cost) / denom).clamp(0.0, 1.0);
            RunResult {
                completed: false,
                spent: budget * self.faults.abort_charge_factor(),
                learned: (frac > 0.0)
                    .then_some((dim, self.faults.corrupt_observation(frac * qa[dim]))),
                resolved: Vec::new(),
                error: None,
            }
        }
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
/// records those completed subtrees by structural fingerprint; a later
/// execution — the same plan at the next contour budget, or a different
/// plan sharing a join-subtree prefix — is credited the largest recorded
/// prefix on its own chain and pays only the un-executed suffix.
///
/// Every stored cost is validated bit-for-bit against a recomputation at
/// use time (the simulator analogue of a checkpoint checksum): a corrupted
/// entry yields no credit, so the execution falls back to full restart
/// charging — never a double charge, never a changed observation.
#[derive(Debug, Clone, Default)]
pub struct CostResumeBook {
    /// Completed chain-subtree fingerprint → standalone actual cost.
    done: std::collections::BTreeMap<u64, f64>,
    /// Last-use tick per fingerprint, for LRU eviction under the cap.
    stamps: std::collections::BTreeMap<u64, u64>,
    tick: u64,
    /// Maximum retained entries (derived from a byte cap); `0` = unbounded.
    entry_cap: usize,
    evictions: u64,
}

/// Approximate heap footprint of one entry: fingerprint + cost + stamp in
/// two B-tree maps, with per-node overhead charged flatly.
const COST_ENTRY_BYTES: usize = 48;

impl CostResumeBook {
    pub fn new() -> Self {
        Self::default()
    }

    /// A book bounded to roughly `cap` bytes of retained checkpoints
    /// (entries are fixed-size, so the cap divides down to an entry count),
    /// evicting least-recently-used entries when exceeded. Eviction only
    /// ever costs re-execution: a missing entry yields no credit, which is
    /// exactly restart semantics.
    pub fn with_byte_cap(cap: usize) -> Self {
        CostResumeBook {
            entry_cap: cap / COST_ENTRY_BYTES,
            ..Self::default()
        }
    }

    /// Set or change the byte cap (`0` = unbounded); evicts immediately if
    /// the current contents exceed the new cap.
    pub fn set_byte_cap(&mut self, cap: usize) {
        self.entry_cap = cap / COST_ENTRY_BYTES;
        self.evict_over_cap();
    }

    /// Entries evicted to stay under the cap so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn evict_over_cap(&mut self) {
        if self.entry_cap == 0 {
            return;
        }
        while self.done.len() > self.entry_cap {
            let Some((&lru, _)) = self.stamps.iter().min_by_key(|(_, &t)| t) else {
                break;
            };
            self.done.remove(&lru);
            self.stamps.remove(&lru);
            self.evictions += 1;
        }
    }

    /// Number of recorded checkpoints.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Largest recorded-and-valid prefix credit on an execution's
    /// first-executed `chain`, in cost units at the true location `qa`;
    /// `nodes` is the execution's per-op capture. Entries whose stored cost
    /// does not reproduce bit-identically are ignored (checksum failure →
    /// restart semantics).
    pub fn credit(
        &mut self,
        ex: &Executor,
        chain: &[(usize, PlanFingerprint)],
        nodes: &[NodeCost],
        qa: &[f64],
    ) -> f64 {
        let mut credit = 0.0;
        for &(op, fp) in chain {
            if let Some(&stored) = self.done.get(&fp.0) {
                let cost = ex.realized(fp, qa, nodes[op].cost);
                if stored.to_bits() == cost.to_bits() {
                    self.tick += 1;
                    self.stamps.insert(fp.0, self.tick);
                    if cost > credit {
                        credit = cost;
                    }
                }
            }
        }
        credit
    }

    /// Record the chain prefixes completed by an execution that spent
    /// `spent` cost units (`completed` marks a full completion, which
    /// checkpoints the entire chain regardless of the spend bookkeeping).
    pub fn record(
        &mut self,
        ex: &Executor,
        chain: &[(usize, PlanFingerprint)],
        nodes: &[NodeCost],
        qa: &[f64],
        spent: f64,
        completed: bool,
    ) {
        for &(op, fp) in chain {
            let cost = ex.realized(fp, qa, nodes[op].cost);
            if completed || cost <= spent {
                self.done.insert(fp.0, cost);
                self.tick += 1;
                self.stamps.insert(fp.0, self.tick);
            }
        }
        self.evict_over_cap();
    }

    /// The retained checkpoints, `(subtree fingerprint, standalone actual
    /// cost)`, ascending by fingerprint.
    pub fn checkpoints(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.done.iter().map(|(&fp, &cost)| (fp, cost))
    }

    /// Chaos hook: corrupt every stored checkpoint. Subsequent credit
    /// lookups fail their bit-identity validation and fall back to restart
    /// charging.
    pub fn corrupt_all(&mut self) {
        for v in self.done.values_mut() {
            *v = f64::from_bits(v.to_bits() ^ 1) + 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::{CostModel, Coster};
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
        ) -> RunResult {
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
        let mut scratch = NodeCosts::default();
        let mut run = |budget| ex.execute_compiled(&plan.prog, plan.fp, &qa, budget, &mut scratch);
        let cost = plan.actual(&ex, &qa);
        assert!(run(cost * 1.01).completed());
        let aborted = run(cost * 0.5);
        assert!(!aborted.completed());
        assert_eq!(aborted.spent(), cost * 0.5);
    }

    #[test]
    fn compiled_execution_matches_tree_walk_bitwise() {
        let (cat, q, m) = setup();
        let noisy = Executor::new(CostPerturbation::with_delta(0.4, 7));
        let plan = sample_plan();
        let Compiled { prog, fp, .. } = Compiled::new(&plan);
        let mut stack = Vec::new();
        let mut scratch = NodeCosts::default();
        for qa in [[0.01, 1e-6], [0.05, 2e-6], [1.0, 5e-6]] {
            let modeled = Coster::new(&cat, &q, &m).plan_cost(&plan, &qa);
            let walked = noisy.perturb.actual_cost(fp, &qa, modeled);
            let compiled = noisy.actual_cost_compiled(&prog, fp, &qa, &mut stack);
            assert_eq!(walked.to_bits(), compiled.to_bits());
            for budget in [walked * 0.5, walked, walked * 2.0] {
                let expect = if walked <= budget {
                    ExecOutcome::Completed { cost: walked }
                } else {
                    ExecOutcome::Aborted { spent: budget }
                };
                assert_eq!(
                    noisy.execute_compiled(&prog, fp, &qa, budget, &mut scratch),
                    expect
                );
                // The capture ends with the whole plan's modeled estimate.
                assert_eq!(scratch.last().last().map(|n| n.cost), Some(modeled));
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
            if let Some((d, v)) = r.learned {
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
        let lv = |r: &RunResult| r.learned.map(|(_, v)| v).unwrap_or(0.0);
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
        assert_eq!(r.resolved, vec![0]);
        assert_eq!(r.learned, Some((0, qa[0])));
        assert!(r.spent < 1e12);
    }

    #[test]
    fn unspilled_with_huge_budget_completes_and_resolves() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        let r = plan.monitored(&ex, &qa, &[false, false], 1e12, false);
        assert!(r.completed);
        assert_eq!(r.resolved, vec![0]);
    }

    #[test]
    fn fully_resolved_plan_is_pure_completion_attempt() {
        let ex = plain();
        let qa = [0.05, 2e-6];
        let plan = Compiled::new(&sample_plan());
        let cost = plan.actual(&ex, &qa);
        let r = plan.monitored(&ex, &qa, &[true, true], cost * 0.5, false);
        assert!(!r.completed);
        assert!(r.learned.is_none());
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
        let credit = |book: &mut CostResumeBook| book.credit(&ex, own, nodes, &qa);
        assert_eq!(credit(&mut book), 0.0);
        // An abort that spent enough for the leaf but not the hash join
        // checkpoints only the leaf.
        book.record(&ex, own, nodes, &qa, (leaf_cost + mid_cost) / 2.0, false);
        assert_eq!(credit(&mut book).to_bits(), leaf_cost.to_bits());
        // A deeper abort checkpoints the join prefix too.
        book.record(&ex, own, nodes, &qa, mid_cost * 1.01, false);
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
        let grafted = book.credit(&ex, other.table.exec_chain(None), other_scratch.last(), &qa);
        assert_eq!(grafted.to_bits(), mid_cost.to_bits());
        // Corrupt checkpoints yield zero credit (restart fallback).
        book.corrupt_all();
        assert_eq!(credit(&mut book), 0.0);
        // Re-recording heals the book.
        book.record(&ex, own, nodes, &qa, full_cost, true);
        assert_eq!(credit(&mut book).to_bits(), full_cost.to_bits());
        assert_eq!(book.checkpoints().count(), 3);
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
