//! Volcano-style tuple-at-a-time plan execution with cost charging, budget
//! aborts and node-level instrumentation.
//!
//! This is the *reference* engine: one [`Ctx::settle`] per tuple, row-major
//! intermediates. [`Engine::execute`] runs the vectorized engine in
//! [`crate::vec_exec`], which batches both the data movement and the cost
//! accounting; [`Engine::execute_tuple`] runs this path. Both share the
//! closed-form ledger in [`crate::ledger`] and produce bit-identical
//! [`EngineOutcome`]s, including the abort tuple under finite budgets.

use std::collections::HashMap;

use pb_catalog::ColumnId;
use pb_cost::{CostParams, Parallelism};
use pb_faults::{FaultInjector, PbError};
use pb_plan::{CmpOp, PlanNode, QuerySpec, RelIdx};

use crate::data::{eval_pred, Database};
use crate::ledger::{lin2, lin3, Ctx, Halt};

/// Tuple counters for one plan node (PostgreSQL `Instrumentation` analogue).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeStats {
    /// Tuples emitted by this node so far.
    pub output_tuples: u64,
    /// Whether the node consumed its entire input (its counters are final).
    pub complete: bool,
}

/// Per-node statistics, indexed by preorder node id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Instrumentation {
    pub nodes: Vec<NodeStats>,
}

impl Instrumentation {
    /// Preorder id of the node `target` inside `root`, if present.
    pub fn node_id(root: &PlanNode, target: &PlanNode) -> Option<usize> {
        let mut id = 0usize;
        let mut found = None;
        root.visit(&mut |n| {
            if std::ptr::eq(n, target) && found.is_none() {
                found = Some(id);
            }
            id += 1;
        });
        found
    }

    /// Observed *raw* selectivity bound for error dimension `dim`
    /// (Section 5.2): find the deepest node applying `dim` and derive the
    /// tightest first-quadrant-safe value its counters support. The caller
    /// maps raw selectivity into axis coordinates
    /// (`SelSpec::to_coordinate`), under which every returned value is a
    /// coordinate lower bound:
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
        root: &PlanNode,
        query: &QuerySpec,
        db: &Database,
        dim: usize,
    ) -> Option<f64> {
        // Candidates are collected children-first, so the first entry is the
        // deepest node applying `dim`.
        let mut id = 0usize;
        let mut candidates: Vec<DimSite> = Vec::new();
        collect_dim_nodes(root, query, db, dim, &mut id, &mut candidates);
        match *candidates.first()? {
            DimSite::Generic { nid, denom } => {
                let stats = self.nodes.get(nid)?;
                if denom <= 0.0 {
                    return None;
                }
                Some((stats.output_tuples as f64 / denom).min(1.0))
            }
            DimSite::Existential {
                nid,
                left_id,
                right_id,
                anti,
            } => {
                let node = self.nodes.get(nid)?;
                let left = self.nodes.get(left_id)?;
                let right = self.nodes.get(right_id)?;
                if !left.complete || !right.complete {
                    return None;
                }
                let left_in = left.output_tuples as f64;
                let right_out = right.output_tuples as f64;
                if left_in <= 0.0 || right_out <= 0.0 {
                    return None;
                }
                let frac = (node.output_tuples as f64 / left_in).min(1.0);
                if anti {
                    if node.output_tuples == 0 {
                        return None;
                    }
                    Some(((1.0 - frac) / right_out).min(1.0))
                } else {
                    Some((frac / right_out).min(1.0))
                }
            }
        }
    }
}

/// One plan site applying an error dimension, with what its counters mean.
#[derive(Debug, Clone, Copy)]
enum DimSite {
    /// Output count over a statically-known input product.
    Generic { nid: usize, denom: f64 },
    /// Anti/semi-join kernel: interpret `out / left_in` against the built
    /// side's output cardinality.
    Existential {
        nid: usize,
        left_id: usize,
        right_id: usize,
        anti: bool,
    },
}

/// Post-order collection of nodes applying `dim`, with the full input
/// cardinality product for each (base-relation cardinalities × error-free
/// lower selectivities are all statically known).
fn collect_dim_nodes(
    node: &PlanNode,
    query: &QuerySpec,
    db: &Database,
    dim: usize,
    id: &mut usize,
    out: &mut Vec<DimSite>,
) {
    let my_id = *id;
    *id += 1;
    let children = node.children();
    for c in &children {
        collect_dim_nodes(c, query, db, dim, id, out);
    }
    let applies_join = node
        .edges()
        .iter()
        .any(|&e| query.joins[e].selectivity.error_dim() == Some(dim));
    if applies_join {
        if let PlanNode::AntiJoin { left, .. } | PlanNode::SemiJoin { left, .. } = node {
            out.push(DimSite::Existential {
                nid: my_id,
                left_id: my_id + 1,
                right_id: my_id + 1 + left.size(),
                anti: matches!(node, PlanNode::AntiJoin { .. }),
            });
            return;
        }
    }
    let scan_rel: Option<RelIdx> = match node {
        PlanNode::SeqScan { rel }
        | PlanNode::IndexScan { rel, .. }
        | PlanNode::FullIndexScan { rel, .. } => Some(*rel),
        PlanNode::IndexNLJoin { inner_rel, .. } => Some(*inner_rel),
        _ => None,
    };
    let applies_sel = scan_rel.is_some_and(|r| {
        query.relations[r]
            .selections
            .iter()
            .any(|s| s.selectivity.error_dim() == Some(dim))
    });
    if applies_join || applies_sel {
        // Input product: every base relation under (and including) this node.
        let mut denom = 1.0f64;
        let mask = node.rels_mask();
        for r in 0..query.num_relations() {
            if mask & (1 << r) != 0 {
                denom *= db.table(query.relations[r].table).rows as f64;
            }
        }
        out.push(DimSite::Generic { nid: my_id, denom });
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
    /// Cooperative cancellation token, polled by the vectorized path at
    /// batch commits and one-off charges (the tuple reference path ignores
    /// it — its job is bit-identity with uninterrupted runs). `None`
    /// disables polling entirely.
    pub cancel: Option<pb_faults::CancelToken>,
}

/// Materialized intermediate relation: concatenated base-relation blocks.
struct Rel {
    /// Which relations contribute column blocks, in order.
    rels: Vec<RelIdx>,
    rows: Vec<Vec<i64>>,
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
    /// completion unconditionally). Runs the vectorized engine;
    /// [`Engine::execute_tuple`] is the tuple-at-a-time reference path with
    /// an identical observable outcome (cost, rows, instrumentation, abort
    /// point — see `tests/engine_properties.rs`).
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

    /// Tuple-at-a-time reference execution.
    pub fn execute_tuple(&self, plan: &PlanNode, budget: f64) -> EngineOutcome {
        self.execute_tuple_with(plan, budget, &FaultInjector::none())
    }

    /// Tuple-at-a-time execution with an armed fault injector.
    pub fn execute_tuple_with(
        &self,
        plan: &PlanNode,
        budget: f64,
        faults: &FaultInjector,
    ) -> EngineOutcome {
        let mut ctx = Ctx {
            spent: 0.0,
            budget,
            instr: vec![NodeStats::default(); plan.size()],
            faults,
            resume: None,
            reused: 0.0,
            cancel: None,
        };
        let mut next_id = 0usize;
        // The root's output is never consumed by another operator, so it is
        // counted and charged but not materialized (large final results
        // would otherwise dominate memory).
        match self.eval(plan, &mut ctx, &mut next_id, false) {
            Ok(_) => {
                let rows = ctx.instr[0].output_tuples as usize;
                EngineOutcome::Completed {
                    rows,
                    cost: ctx.spent,
                    instr: Instrumentation { nodes: ctx.instr },
                }
            }
            Err(Halt::Abort) => EngineOutcome::Aborted {
                cost: ctx.spent,
                instr: Instrumentation { nodes: ctx.instr },
            },
            Err(Halt::Fault(error)) => EngineOutcome::Failed {
                error,
                cost: ctx.spent,
                instr: Instrumentation { nodes: ctx.instr },
            },
        }
    }

    pub(crate) fn ncols(&self, rel: RelIdx) -> usize {
        self.db
            .catalog
            .table_by_id(self.query.relations[rel].table)
            .columns
            .len()
    }

    pub(crate) fn offset(
        &self,
        rels: &[RelIdx],
        rel: RelIdx,
        col: ColumnId,
    ) -> Result<usize, Halt> {
        let mut off = 0;
        for &r in rels {
            if r == rel {
                return Ok(off + col.column as usize);
            }
            off += self.ncols(r);
        }
        Err(Halt::Fault(PbError::MissingEntity {
            kind: "relation".into(),
            name: format!("{rel} not in schema {rels:?}"),
        }))
    }

    /// Evaluate a subtree. With `store == false` the node's own output is
    /// charged and counted but not materialized.
    fn eval(
        &self,
        node: &PlanNode,
        ctx: &mut Ctx<'_>,
        next_id: &mut usize,
        store: bool,
    ) -> Result<Rel, Halt> {
        let my_id = *next_id;
        *next_id += 1;
        let p = self.params;
        match node {
            PlanNode::SeqScan { rel } => {
                let t = self.db.table(self.query.relations[*rel].table);
                let table_meta = self
                    .db
                    .catalog
                    .table_by_id(self.query.relations[*rel].table);
                let preds = &self.query.relations[*rel].selections;
                ctx.charge(table_meta.pages() * p.seq_page)?;
                let base = ctx.spent;
                let row_rate = p.cpu_tuple + preds.len() as f64 * p.cpu_operator;
                let (mut seen, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                for r in 0..t.rows {
                    seen += 1;
                    ctx.settle(lin2(base, seen, row_rate, emitted, p.emit_tuple))?;
                    if preds
                        .iter()
                        .all(|pr| eval_pred(pr, t.columns[pr.column.column as usize][r]))
                    {
                        emitted += 1;
                        ctx.settle(lin2(base, seen, row_rate, emitted, p.emit_tuple))?;
                        if store {
                            rows.push(t.columns.iter().map(|c| c[r]).collect());
                        }
                        ctx.instr[my_id].output_tuples += 1;
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel {
                    rels: vec![*rel],
                    rows,
                })
            }
            PlanNode::IndexScan { rel, sel_idx } => {
                let t = self.db.table(self.query.relations[*rel].table);
                let preds = &self.query.relations[*rel].selections;
                let key_pred = &preds[*sel_idx];
                let Some(ix) = t.indexes.get(&key_pred.column.column) else {
                    return Err(Halt::Fault(PbError::UnindexedColumn(format!(
                        "rel {rel} column {}",
                        key_pred.column.column
                    ))));
                };
                ctx.charge(3.0 * p.random_page)?;
                let base = ctx.spent;
                let entry_rate = p.cpu_index_tuple + p.random_page * p.heap_fetch_factor;
                let range = index_range(ix, key_pred);
                let (mut seen, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                for &(_, r) in &ix[range] {
                    seen += 1;
                    ctx.settle(lin2(base, seen, entry_rate, emitted, p.emit_tuple))?;
                    let r = r as usize;
                    let ok = preds.iter().enumerate().all(|(i, pr)| {
                        i == *sel_idx || eval_pred(pr, t.columns[pr.column.column as usize][r])
                    });
                    if ok {
                        emitted += 1;
                        ctx.settle(lin2(base, seen, entry_rate, emitted, p.emit_tuple))?;
                        if store {
                            rows.push(t.columns.iter().map(|c| c[r]).collect());
                        }
                        ctx.instr[my_id].output_tuples += 1;
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel {
                    rels: vec![*rel],
                    rows,
                })
            }
            PlanNode::FullIndexScan { rel, column } => {
                let t = self.db.table(self.query.relations[*rel].table);
                let preds = &self.query.relations[*rel].selections;
                let Some(ix) = t.indexes.get(&column.column) else {
                    return Err(Halt::Fault(PbError::UnindexedColumn(format!(
                        "rel {rel} column {}",
                        column.column
                    ))));
                };
                ctx.charge((t.rows as f64 / 256.0).max(1.0) * p.seq_page)?;
                let base = ctx.spent;
                let entry_rate = p.cpu_index_tuple
                    + p.random_page * p.heap_fetch_factor
                    + preds.len() as f64 * p.cpu_operator;
                let (mut seen, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                for &(_, r) in ix {
                    seen += 1;
                    ctx.settle(lin2(base, seen, entry_rate, emitted, p.emit_tuple))?;
                    let r = r as usize;
                    if preds
                        .iter()
                        .all(|pr| eval_pred(pr, t.columns[pr.column.column as usize][r]))
                    {
                        emitted += 1;
                        ctx.settle(lin2(base, seen, entry_rate, emitted, p.emit_tuple))?;
                        if store {
                            rows.push(t.columns.iter().map(|c| c[r]).collect());
                        }
                        ctx.instr[my_id].output_tuples += 1;
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel {
                    rels: vec![*rel],
                    rows,
                })
            }
            PlanNode::HashJoin {
                build,
                probe,
                edges,
            } => {
                let b = self.eval(build, ctx, next_id, true)?;
                let pr = self.eval(probe, ctx, next_id, true)?;
                let j0 = &self.query.joins[edges[0]];
                let (bkey, pkey) = self.key_offsets(&b.rels, &pr.rels, j0)?;
                let base = ctx.spent;
                let build_rate = p.cpu_tuple + p.hash_build;
                let mut table: HashMap<i64, Vec<usize>> = HashMap::new();
                for (i, row) in b.rows.iter().enumerate() {
                    ctx.settle(lin2(base, i as u64 + 1, build_rate, 0, 0.0))?;
                    table.entry(row[bkey]).or_default().push(i);
                }
                let out_rels: Vec<RelIdx> = b.rels.iter().chain(&pr.rels).copied().collect();
                let pbase = ctx.spent;
                let mut emitted = 0u64;
                let mut rows = Vec::new();
                for (i, prow) in pr.rows.iter().enumerate() {
                    ctx.settle(lin2(
                        pbase,
                        i as u64 + 1,
                        p.hash_probe,
                        emitted,
                        p.emit_tuple,
                    ))?;
                    if let Some(bs) = table.get(&prow[pkey]) {
                        for &bi in bs {
                            let joined: Vec<i64> =
                                b.rows[bi].iter().chain(prow.iter()).copied().collect();
                            if self.residual_ok(&out_rels, &joined, &edges[1..])? {
                                emitted += 1;
                                ctx.settle(lin2(
                                    pbase,
                                    i as u64 + 1,
                                    p.hash_probe,
                                    emitted,
                                    p.emit_tuple,
                                ))?;
                                if store {
                                    rows.push(joined);
                                }
                                ctx.instr[my_id].output_tuples += 1;
                            }
                        }
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel {
                    rels: out_rels,
                    rows,
                })
            }
            PlanNode::SortMergeJoin {
                left,
                right,
                edges,
                sort_left,
                sort_right,
            } => {
                let mut l = self.eval(left, ctx, next_id, true)?;
                let mut r = self.eval(right, ctx, next_id, true)?;
                let j0 = &self.query.joins[edges[0]];
                let (lkey, rkey) = self.key_offsets(&l.rels, &r.rels, j0)?;
                // Sort both (an un-flagged input is already ordered, but
                // re-sorting is a no-op for correctness; we charge only for
                // flagged sorts, mirroring the cost model).
                if *sort_left {
                    let n = l.rows.len().max(2) as f64;
                    ctx.charge(n * n.log2() * 2.0 * p.cpu_operator)?;
                }
                if *sort_right {
                    let n = r.rows.len().max(2) as f64;
                    ctx.charge(n * n.log2() * 2.0 * p.cpu_operator)?;
                }
                l.rows.sort_by_key(|row| row[lkey]);
                r.rows.sort_by_key(|row| row[rkey]);
                let out_rels: Vec<RelIdx> = l.rels.iter().chain(&r.rels).copied().collect();
                let base = ctx.spent;
                let step_rate = 2.0 * p.cpu_operator;
                let (mut steps, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                while i < l.rows.len() && j < r.rows.len() {
                    steps += 1;
                    ctx.settle(lin2(base, steps, step_rate, emitted, p.emit_tuple))?;
                    let (a, b) = (l.rows[i][lkey], r.rows[j][rkey]);
                    if a < b {
                        i += 1;
                    } else if a > b {
                        j += 1;
                    } else {
                        // equal group cross product
                        let i_end = l.rows[i..].iter().take_while(|x| x[lkey] == a).count() + i;
                        let j_end = r.rows[j..].iter().take_while(|x| x[rkey] == a).count() + j;
                        for li in i..i_end {
                            for rj in j..j_end {
                                let joined: Vec<i64> = l.rows[li]
                                    .iter()
                                    .chain(r.rows[rj].iter())
                                    .copied()
                                    .collect();
                                if self.residual_ok(&out_rels, &joined, &edges[1..])? {
                                    emitted += 1;
                                    ctx.settle(lin2(
                                        base,
                                        steps,
                                        step_rate,
                                        emitted,
                                        p.emit_tuple,
                                    ))?;
                                    if store {
                                        rows.push(joined);
                                    }
                                    ctx.instr[my_id].output_tuples += 1;
                                }
                            }
                        }
                        i = i_end;
                        j = j_end;
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel {
                    rels: out_rels,
                    rows,
                })
            }
            PlanNode::IndexNLJoin {
                outer,
                inner_rel,
                edges,
            } => {
                let o = self.eval(outer, ctx, next_id, true)?;
                let j0 = &self.query.joins[edges[0]];
                let t = self.db.table(self.query.relations[*inner_rel].table);
                let inner_preds = &self.query.relations[*inner_rel].selections;
                // Outer-side key offset and inner lookup column.
                let (okey_rel, okey_col, ikey_col) = if o.rels.contains(&j0.left_rel) {
                    (j0.left_rel, j0.left_col, j0.right_col)
                } else {
                    (j0.right_rel, j0.right_col, j0.left_col)
                };
                let okey = self.offset(&o.rels, okey_rel, okey_col)?;
                let Some(ix) = t.indexes.get(&ikey_col.column) else {
                    return Err(Halt::Fault(PbError::UnindexedColumn(format!(
                        "rel {inner_rel} column {}",
                        ikey_col.column
                    ))));
                };
                let out_rels: Vec<RelIdx> = o.rels.iter().copied().chain([*inner_rel]).collect();
                let base = ctx.spent;
                let entry_rate = p.cpu_index_tuple + p.random_page * p.heap_fetch_factor;
                let (mut looks, mut probed, mut emitted) = (0u64, 0u64, 0u64);
                let mut rows = Vec::new();
                for orow in &o.rows {
                    looks += 1;
                    ctx.settle(lin3(
                        base,
                        looks,
                        p.index_lookup,
                        probed,
                        entry_rate,
                        emitted,
                        p.emit_tuple,
                    ))?;
                    let key = orow[okey];
                    let start = ix.partition_point(|&(v, _)| v < key);
                    for &(v, r) in &ix[start..] {
                        if v != key {
                            break;
                        }
                        probed += 1;
                        ctx.settle(lin3(
                            base,
                            looks,
                            p.index_lookup,
                            probed,
                            entry_rate,
                            emitted,
                            p.emit_tuple,
                        ))?;
                        let r = r as usize;
                        let ok = inner_preds
                            .iter()
                            .all(|pr| eval_pred(pr, t.columns[pr.column.column as usize][r]));
                        if !ok {
                            continue;
                        }
                        let joined: Vec<i64> = orow
                            .iter()
                            .copied()
                            .chain(t.columns.iter().map(|c| c[r]))
                            .collect();
                        if self.residual_ok(&out_rels, &joined, &edges[1..])? {
                            emitted += 1;
                            ctx.settle(lin3(
                                base,
                                looks,
                                p.index_lookup,
                                probed,
                                entry_rate,
                                emitted,
                                p.emit_tuple,
                            ))?;
                            if store {
                                rows.push(joined);
                            }
                            ctx.instr[my_id].output_tuples += 1;
                        }
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel {
                    rels: out_rels,
                    rows,
                })
            }
            PlanNode::BlockNLJoin {
                outer,
                inner,
                edges,
            } => {
                let o = self.eval(outer, ctx, next_id, true)?;
                let inn = self.eval(inner, ctx, next_id, true)?;
                let out_rels: Vec<RelIdx> = o.rels.iter().chain(&inn.rels).copied().collect();
                let base = ctx.spent;
                let pair_rate = p.cpu_operator * edges.len().max(1) as f64;
                let (mut pairs, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                for orow in &o.rows {
                    for irow in &inn.rows {
                        pairs += 1;
                        ctx.settle(lin2(base, pairs, pair_rate, emitted, p.emit_tuple))?;
                        let joined: Vec<i64> = orow.iter().chain(irow.iter()).copied().collect();
                        if self.residual_ok(&out_rels, &joined, edges)? {
                            emitted += 1;
                            ctx.settle(lin2(base, pairs, pair_rate, emitted, p.emit_tuple))?;
                            if store {
                                rows.push(joined);
                            }
                            ctx.instr[my_id].output_tuples += 1;
                        }
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel {
                    rels: out_rels,
                    rows,
                })
            }
            PlanNode::AntiJoin { left, right, edges } => {
                let l = self.eval(left, ctx, next_id, true)?;
                let r = self.eval(right, ctx, next_id, true)?;
                let j0 = &self.query.joins[edges[0]];
                let (lkey, rkey) = self.key_offsets(&l.rels, &r.rels, j0)?;
                let base = ctx.spent;
                let build_rate = p.cpu_tuple + p.hash_build;
                let mut keys: std::collections::HashSet<i64> = std::collections::HashSet::new();
                for (i, row) in r.rows.iter().enumerate() {
                    ctx.settle(lin2(base, i as u64 + 1, build_rate, 0, 0.0))?;
                    keys.insert(row[rkey]);
                }
                let pbase = ctx.spent;
                let mut emitted = 0u64;
                let mut rows = Vec::new();
                for (i, lrow) in l.rows.iter().enumerate() {
                    ctx.settle(lin2(
                        pbase,
                        i as u64 + 1,
                        p.hash_probe,
                        emitted,
                        p.emit_tuple,
                    ))?;
                    if !keys.contains(&lrow[lkey]) {
                        emitted += 1;
                        ctx.settle(lin2(
                            pbase,
                            i as u64 + 1,
                            p.hash_probe,
                            emitted,
                            p.emit_tuple,
                        ))?;
                        if store {
                            rows.push(lrow.clone());
                        }
                        ctx.instr[my_id].output_tuples += 1;
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel { rels: l.rels, rows })
            }
            PlanNode::SemiJoin { left, right, edges } => {
                // Mirror of the anti-join kernel with the membership test
                // un-negated: keep each left row with at least one match.
                let l = self.eval(left, ctx, next_id, true)?;
                let r = self.eval(right, ctx, next_id, true)?;
                let j0 = &self.query.joins[edges[0]];
                let (lkey, rkey) = self.key_offsets(&l.rels, &r.rels, j0)?;
                let base = ctx.spent;
                let build_rate = p.cpu_tuple + p.hash_build;
                let mut keys: std::collections::HashSet<i64> = std::collections::HashSet::new();
                for (i, row) in r.rows.iter().enumerate() {
                    ctx.settle(lin2(base, i as u64 + 1, build_rate, 0, 0.0))?;
                    keys.insert(row[rkey]);
                }
                let pbase = ctx.spent;
                let mut emitted = 0u64;
                let mut rows = Vec::new();
                for (i, lrow) in l.rows.iter().enumerate() {
                    ctx.settle(lin2(
                        pbase,
                        i as u64 + 1,
                        p.hash_probe,
                        emitted,
                        p.emit_tuple,
                    ))?;
                    if keys.contains(&lrow[lkey]) {
                        emitted += 1;
                        ctx.settle(lin2(
                            pbase,
                            i as u64 + 1,
                            p.hash_probe,
                            emitted,
                            p.emit_tuple,
                        ))?;
                        if store {
                            rows.push(lrow.clone());
                        }
                        ctx.instr[my_id].output_tuples += 1;
                    }
                }
                ctx.instr[my_id].complete = true;
                Ok(Rel { rels: l.rels, rows })
            }
            PlanNode::HashAggregate { input } => {
                let i = self.eval(input, ctx, next_id, true)?;
                let base = ctx.spent;
                let in_rate = p.cpu_tuple + p.hash_build;
                let key_offs: Vec<usize> = self
                    .query
                    .group_by
                    .iter()
                    .map(|&(r, c)| self.offset(&i.rels, r, c))
                    .collect::<Result<_, _>>()?;
                let mut groups: HashMap<Vec<i64>, i64> = HashMap::new();
                for (n, row) in i.rows.iter().enumerate() {
                    ctx.settle(lin2(base, n as u64 + 1, in_rate, 0, 0.0))?;
                    let key: Vec<i64> = key_offs.iter().map(|&c| row[c]).collect();
                    *groups.entry(key).or_insert(0) += 1;
                }
                let gbase = ctx.spent;
                let mut emitted = 0u64;
                let mut rows = Vec::new();
                for (key, count) in groups {
                    emitted += 1;
                    ctx.settle(lin2(gbase, emitted, p.emit_tuple, 0, 0.0))?;
                    if store {
                        let mut out_row = key;
                        out_row.push(count);
                        rows.push(out_row);
                    }
                    ctx.instr[my_id].output_tuples += 1;
                }
                ctx.instr[my_id].complete = true;
                // The aggregate is always the plan root; its synthetic
                // (group keys + count) schema is never consumed by a join.
                Ok(Rel {
                    rels: Vec::new(),
                    rows,
                })
            }
            PlanNode::Spill { input } => {
                // The input's output is counted but never materialized.
                let i = self.eval(input, ctx, next_id, false)?;
                let discarded = ctx.instr[my_id + 1].output_tuples as f64;
                ctx.charge(discarded * p.cpu_tuple)?;
                ctx.instr[my_id].output_tuples = 0;
                ctx.instr[my_id].complete = true;
                // Discard output (pipeline deliberately broken).
                Ok(Rel {
                    rels: i.rels,
                    rows: Vec::new(),
                })
            }
        }
    }

    /// Offsets of the primary join key on each side.
    pub(crate) fn key_offsets(
        &self,
        lrels: &[RelIdx],
        rrels: &[RelIdx],
        j: &pb_plan::JoinPredicate,
    ) -> Result<(usize, usize), Halt> {
        if lrels.contains(&j.left_rel) {
            Ok((
                self.offset(lrels, j.left_rel, j.left_col)?,
                self.offset(rrels, j.right_rel, j.right_col)?,
            ))
        } else {
            Ok((
                self.offset(lrels, j.right_rel, j.right_col)?,
                self.offset(rrels, j.left_rel, j.left_col)?,
            ))
        }
    }

    fn residual_ok(&self, rels: &[RelIdx], row: &[i64], edges: &[usize]) -> Result<bool, Halt> {
        for &e in edges {
            let j = &self.query.joins[e];
            let a = self.offset(rels, j.left_rel, j.left_col)?;
            let b = self.offset(rels, j.right_rel, j.right_col)?;
            let pass = match j.op {
                CmpOp::Lt => row[a] < row[b],
                CmpOp::Gt => row[a] > row[b],
                CmpOp::Eq | CmpOp::Between => row[a] == row[b],
            };
            if !pass {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

pub(crate) fn index_range(
    ix: &[(i64, u32)],
    pred: &pb_plan::SelectionPredicate,
) -> std::ops::Range<usize> {
    match pred.op {
        CmpOp::Lt => 0..ix.partition_point(|&(v, _)| (v as f64) < pred.constant),
        CmpOp::Gt => ix.partition_point(|&(v, _)| (v as f64) <= pred.constant)..ix.len(),
        CmpOp::Eq => {
            let lo = ix.partition_point(|&(v, _)| (v as f64) < pred.constant);
            let hi = ix.partition_point(|&(v, _)| (v as f64) <= pred.constant);
            lo..hi
        }
        CmpOp::Between => {
            let lo = ix.partition_point(|&(v, _)| (v as f64) < pred.constant2);
            let hi = ix.partition_point(|&(v, _)| (v as f64) <= pred.constant);
            lo..hi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Database;
    use pb_catalog::tpch;
    use pb_cost::CostModel;
    use pb_plan::{QueryBuilder, SelSpec};

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
    fn tuple_and_vectorized_agree_on_basic_plan() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let full_t = eng.execute_tuple(&hj_plan(), f64::INFINITY);
        let full_v = eng.execute(&hj_plan(), f64::INFINITY);
        assert_eq!(full_t, full_v);
        for frac in [0.9, 0.5, 0.2, 0.05, 0.001] {
            let budget = full_t.cost() * frac;
            assert_eq!(
                eng.execute_tuple(&hj_plan(), budget),
                eng.execute(&hj_plan(), budget),
                "divergence at budget fraction {frac}"
            );
        }
    }

    #[test]
    fn merge_join_respects_store_flag() {
        // Regression: SortMergeJoin used to push joined rows even with
        // store == false, materializing the full result at the plan root.
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let plan = PlanNode::SortMergeJoin {
            left: Box::new(PlanNode::SeqScan { rel: 0 }),
            right: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
            sort_left: true,
            sort_right: true,
        };
        let inert = FaultInjector::none();
        let mut ctx = Ctx {
            spent: 0.0,
            budget: f64::INFINITY,
            instr: vec![NodeStats::default(); plan.size()],
            faults: &inert,
            resume: None,
            reused: 0.0,
            cancel: None,
        };
        let mut next_id = 0usize;
        let rel = eng.eval(&plan, &mut ctx, &mut next_id, false).ok().unwrap();
        assert!(
            rel.rows.is_empty(),
            "store == false must not materialize merge-join output ({} rows kept)",
            rel.rows.len()
        );
        assert!(ctx.instr[0].output_tuples > 0, "rows must still be counted");
    }

    #[test]
    fn instrumentation_counts_are_plausible() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let out = eng.execute(&hj_plan(), f64::INFINITY);
        let instr = out.instr();
        // node 0 = HJ, node 1 = scan(part), node 2 = scan(lineitem)
        assert!(instr.nodes[1].complete && instr.nodes[2].complete);
        assert_eq!(instr.nodes[2].output_tuples, 60_000);
        assert!(instr.nodes[1].output_tuples < 2000);
        assert!(instr.nodes[0].output_tuples > 0);
    }

    #[test]
    fn observed_selectivity_is_lower_bound_and_exact_on_completion() {
        let (db, q, m) = setup();
        let eng = Engine::new(&db, &q, &m.p);
        let plan = hj_plan();
        let full = eng.execute(&plan, f64::INFINITY);
        let s_true = db.actual_join_selectivity(&q, 0)
            * db.actual_selection_selectivity(&q.relations[0].selections[0]);
        let s_obs = full
            .instr()
            .observed_selectivity(&plan, &q, &db, 1)
            .unwrap();
        // Join node output / (|part| · |lineitem|) ≈ s_join · s_selection.
        // (Not exactly equal: the per-key match density over the *selected*
        // parts differs from the overall density by finite-sample noise.)
        assert!(
            (s_obs - s_true).abs() < 0.02 * s_true,
            "obs {s_obs} vs true {s_true}"
        );
        // Partial execution observes a lower bound.
        let partial = eng.execute(&plan, full.cost() * 0.6);
        let s_part = partial
            .instr()
            .observed_selectivity(&plan, &q, &db, 1)
            .unwrap_or(0.0);
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
        // The inner hash join still counted its tuples.
        assert!(instr.nodes[1].output_tuples > 0);
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
