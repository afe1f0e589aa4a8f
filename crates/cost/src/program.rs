//! Compiled cost programs: the product's abstract plan costing.
//!
//! Re-costing a plan by recursing over `Box`ed plan nodes resolves catalog
//! constants (table cardinalities, index heights, NDVs) at every node on
//! every call. Bouquet identification evaluates the *same* plans at
//! thousands of ESS grid points, and the drivers re-cost the same bouquet
//! plans at every execution, so that per-call resolution work is pure
//! overhead.
//!
//! [`CostProgram::compile`] lowers a plan once into a flat post-order array
//! of [`ProgOp`]s with every catalog constant pre-resolved; only the
//! predicate→ESS-dimension bindings ([`SelSpec`]) remain symbolic. The
//! program is then evaluated with a reusable [`NodeCost`] stack — no
//! recursion, no pointer chasing, no per-evaluation allocation.
//!
//! [`CostProgram::compile_set`] lowers a whole plan set into one program,
//! plan after plan. The POSP plans of one query share most of their scans
//! and lower joins, so a sub-plan that occurs more than once is evaluated
//! where it first occurs, kept in a register, and recalled at every later
//! occurrence; each plan leaves its estimate on the stack. A single plan is
//! the case with no registers: the same ops, the same evaluator.
//!
//! Dispatching an op costs more than the arithmetic behind it, so the cost
//! matrix evaluates a plan set at a *block* of grid points per op
//! ([`CostProgram::eval_set_points`]): stack entries and registers widen to
//! one lane per point and every lane runs the op's formula on its own
//! point. What each op computes is written once, in [`CostProgram::step`],
//! against the [`Machine`] it runs on — the single-point stack the drivers
//! use or the block of lanes.
//!
//! All paths call the scalar formulas in [`crate::formulas`] and resolve
//! selectivity products over the same predicate sequences in the same
//! order, so a program's result is **bit-for-bit identical** to the
//! crate's tree-walk reference (pinned by `tests/compiled_cost.rs`), and a
//! captured sub-plan estimate ([`CostProgram::eval_nodes`]) is bit-identical
//! to costing that sub-plan alone — which is what lets the drivers read a
//! subtree's cost off one evaluation of the whole plan.

use std::collections::HashMap;

use pb_catalog::Catalog;
use pb_plan::{PlanFingerprint, PlanNode, QuerySpec, SelSpec};

use crate::coster::NodeCost;
use crate::formulas;
use crate::params::{CostModel, CostParams};

/// A `[start, len)` window into the program's selectivity pool.
#[derive(Debug, Clone, Copy)]
struct SelRange {
    start: u32,
    len: u32,
}

/// One post-order instruction. Leaf ops push a [`NodeCost`]; interior ops
/// pop their inputs (right/probe side first — it was compiled last) and
/// push the combined estimate. All `f64` fields are catalog/statistics
/// constants resolved at compile time. `Keep` / `Recall` appear only in
/// plan-set programs, around sub-plans that more than one plan contains.
#[derive(Debug, Clone)]
enum ProgOp {
    SeqScan {
        rows: f64,
        pages: f64,
        width: f64,
        npred: f64,
        sels: SelRange,
    },
    IndexScan {
        rows: f64,
        width: f64,
        height: f64,
        leaf_pages: f64,
        nsels: f64,
        ix_sel: SelSpec,
        residual: SelRange,
    },
    FullIndexScan {
        rows: f64,
        width: f64,
        leaf_pages: f64,
        npred: f64,
        sels: SelRange,
    },
    HashJoin {
        nedges: f64,
        edges: SelRange,
    },
    MergeJoin {
        nedges: f64,
        edges: SelRange,
        sort_left: bool,
        sort_right: bool,
    },
    IndexNlJoin {
        inner_rows: f64,
        inner_width: f64,
        npred: f64,
        primary: SelRange,
        residual_edges: SelRange,
        inner_sels: SelRange,
    },
    BlockNlJoin {
        nedges_capped: f64,
        edges: SelRange,
    },
    AntiJoin {
        first_edge: SelRange,
    },
    SemiJoin {
        first_edge: SelRange,
    },
    HashAggregate {
        ndv_product: f64,
        width: f64,
    },
    Spill,
    /// Copy the estimate on top of the stack into a register.
    Keep(u32),
    /// Push a register's estimate.
    Recall(u32),
}

/// One or more plans lowered to a flat op array (see module docs).
#[derive(Debug, Clone)]
pub struct CostProgram {
    params: CostParams,
    ops: Vec<ProgOp>,
    /// Selectivity pool; each op references a contiguous window, preserving
    /// the predicate order of the originating query spec.
    sels: Vec<SelSpec>,
    /// During evaluation the registers are the bottom `regs` slots of the
    /// stack; single-point evaluation piles the finished plans' estimates
    /// up above them, in compile order.
    regs: u32,
    /// Per compiled plan, the index one past its last op.
    root_ends: Vec<u32>,
    /// Stack slots (registers included) an evaluation needs when it takes
    /// each plan's estimate off the stack as the plan ends.
    depth: u32,
}

/// Grid points per block of [`CostProgram::eval_set_points`]. The cost
/// matrices of the four `compile` rungs, best of 15 in three alternating
/// rounds, one worker / two: 161–167 / 91 ms one point at a time, then
/// 88 / 50–52, 72–76 / 44–53, 61 / 37–38 and 57–61 / 34–44 ms at 8, 16, 32
/// and 64 lanes. Past 32 the dispatch is amortized and what grows is the
/// stack: `depth × BLOCK × 24 B`, 84 KB on `4D_DS_Q7` (105 registers, five
/// slots above them) at 32 lanes.
const BLOCK: usize = 32;

const UNSET: NodeCost = NodeCost {
    rows: 0.0,
    cost: 0.0,
    width: 0.0,
};

/// What a program runs on: where an op finds its inputs and leaves its
/// estimate. `leaf` pushes, `unary` replaces the top, `binary` replaces the
/// top two (the left input below the right); each is handed the op's
/// formula as a function of the ESS location and the input estimates.
trait Machine {
    fn leaf(&mut self, f: impl Fn(&[f64]) -> NodeCost);
    fn unary(&mut self, f: impl Fn(&[f64], &NodeCost) -> NodeCost);
    fn binary(&mut self, f: impl Fn(&[f64], &NodeCost, &NodeCost) -> NodeCost);
    /// Copy the top of the stack into a register.
    fn keep(&mut self, reg: usize);
    /// Push a register.
    fn recall(&mut self, reg: usize);
}

/// One location, a growable stack. With `CAPTURE` every op's estimate is
/// also appended to `nodes`.
struct Point<'a, const CAPTURE: bool> {
    q: &'a [f64],
    stack: &'a mut Vec<NodeCost>,
    nodes: &'a mut Vec<NodeCost>,
}

impl<const CAPTURE: bool> Point<'_, CAPTURE> {
    #[inline(always)]
    fn push(&mut self, nc: NodeCost) {
        if CAPTURE {
            self.nodes.push(nc);
        }
        self.stack.push(nc);
    }

    #[inline(always)]
    fn pop(&mut self) -> NodeCost {
        self.stack.pop().expect("cost program: missing input")
    }
}

impl<const CAPTURE: bool> Machine for Point<'_, CAPTURE> {
    #[inline(always)]
    fn leaf(&mut self, f: impl Fn(&[f64]) -> NodeCost) {
        self.push(f(self.q));
    }

    #[inline(always)]
    fn unary(&mut self, f: impl Fn(&[f64], &NodeCost) -> NodeCost) {
        let input = self.pop();
        self.push(f(self.q, &input));
    }

    #[inline(always)]
    fn binary(&mut self, f: impl Fn(&[f64], &NodeCost, &NodeCost) -> NodeCost) {
        let right = self.pop();
        let left = self.pop();
        self.push(f(self.q, &left, &right));
    }

    #[inline(always)]
    fn keep(&mut self, reg: usize) {
        let top = *self.stack.last().expect("keep: missing estimate");
        self.stack[reg] = top;
        if CAPTURE {
            self.nodes.push(top);
        }
    }

    #[inline(always)]
    fn recall(&mut self, reg: usize) {
        self.push(self.stack[reg]);
    }
}

/// Up to [`BLOCK`] locations at once: `points` holds `d` coordinates for
/// each of the `lanes`, stack slot `s` is `stack[s * BLOCK..][..lanes]`,
/// and `top` slots are in use.
struct Lanes<'a> {
    points: &'a [f64],
    d: usize,
    lanes: usize,
    stack: &'a mut [NodeCost],
    top: usize,
}

impl Lanes<'_> {
    fn slot(&self, slot: usize) -> &[NodeCost] {
        &self.stack[slot * BLOCK..][..self.lanes]
    }

    fn copy(&mut self, from: usize, to: usize) {
        self.stack
            .copy_within(from * BLOCK..from * BLOCK + self.lanes, to * BLOCK);
    }
}

impl Machine for Lanes<'_> {
    #[inline(always)]
    fn leaf(&mut self, f: impl Fn(&[f64]) -> NodeCost) {
        let out = &mut self.stack[self.top * BLOCK..];
        for (out, q) in out.iter_mut().zip(self.points.chunks_exact(self.d)) {
            *out = f(q);
        }
        self.top += 1;
    }

    #[inline(always)]
    fn unary(&mut self, f: impl Fn(&[f64], &NodeCost) -> NodeCost) {
        let inout = &mut self.stack[(self.top - 1) * BLOCK..];
        for (inout, q) in inout.iter_mut().zip(self.points.chunks_exact(self.d)) {
            *inout = f(q, inout);
        }
    }

    #[inline(always)]
    fn binary(&mut self, f: impl Fn(&[f64], &NodeCost, &NodeCost) -> NodeCost) {
        self.top -= 1;
        let (below, right) = self.stack.split_at_mut(self.top * BLOCK);
        let left = &mut below[(self.top - 1) * BLOCK..];
        let lanes = left.iter_mut().zip(right.iter());
        for ((left, right), q) in lanes.zip(self.points.chunks_exact(self.d)) {
            *left = f(q, left, right);
        }
    }

    #[inline(always)]
    fn keep(&mut self, reg: usize) {
        self.copy(self.top - 1, reg);
    }

    #[inline(always)]
    fn recall(&mut self, reg: usize) {
        self.copy(reg, self.top);
        self.top += 1;
    }
}

/// Counts stack slots instead of costing anything.
struct Depth {
    now: u32,
    max: u32,
}

impl Machine for Depth {
    fn leaf(&mut self, _: impl Fn(&[f64]) -> NodeCost) {
        self.now += 1;
        self.max = self.max.max(self.now);
    }
    fn unary(&mut self, _: impl Fn(&[f64], &NodeCost) -> NodeCost) {}
    fn binary(&mut self, _: impl Fn(&[f64], &NodeCost, &NodeCost) -> NodeCost) {
        self.now -= 1;
    }
    fn keep(&mut self, _: usize) {}
    fn recall(&mut self, _: usize) {
        self.now += 1;
        self.max = self.max.max(self.now);
    }
}

/// Reusable scratch of [`CostProgram::eval_nodes`]: the evaluation stack and
/// the per-op estimates of the last evaluation.
#[derive(Debug, Default)]
pub struct NodeCosts {
    stack: Vec<NodeCost>,
    nodes: Vec<NodeCost>,
}

impl NodeCosts {
    /// The per-op estimates the last [`CostProgram::eval_nodes`] left here.
    pub fn last(&self) -> &[NodeCost] {
        &self.nodes
    }
}

/// A distinct sub-plan of the set being compiled: how often evaluating the
/// set reaches it (an occurrence inside an already-seen sub-plan is never
/// reached — that one is recalled whole) and its register once lowered.
struct SubPlan<'p> {
    node: &'p PlanNode,
    uses: u32,
    reg: Option<u32>,
}

/// Sub-plans by fingerprint; the node is kept and compared so that a
/// fingerprint collision cannot merge two different sub-plans.
#[derive(Default)]
struct SubPlans<'p>(HashMap<PlanFingerprint, Vec<SubPlan<'p>>>);

impl<'p> SubPlans<'p> {
    fn entry(&mut self, node: &'p PlanNode) -> &mut SubPlan<'p> {
        let same_fp = self.0.entry(node.fingerprint()).or_default();
        let at = same_fp
            .iter()
            .position(|s| s.node == node)
            .unwrap_or_else(|| {
                same_fp.push(SubPlan {
                    node,
                    uses: 0,
                    reg: None,
                });
                same_fp.len() - 1
            });
        &mut same_fp[at]
    }

    fn count(&mut self, node: &'p PlanNode) {
        let sub = self.entry(node);
        sub.uses += 1;
        if sub.uses == 1 {
            for child in node.children() {
                self.count(child);
            }
        }
    }
}

impl CostProgram {
    /// Lower `root` into a program. Catalog constants are resolved once,
    /// here, exactly as the tree-walk reference resolves them per call.
    pub fn compile(
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
        root: &PlanNode,
    ) -> Self {
        Self::compile_set(catalog, query, model, [root])
    }

    /// Lower a set of plans into one program that evaluates every sub-plan
    /// the set repeats once; [`eval_set_with`](Self::eval_set_with) reports
    /// the plans' costs in the order given here.
    pub fn compile_set<'p>(
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
        roots: impl IntoIterator<Item = &'p PlanNode> + Clone,
    ) -> Self {
        let mut prog = CostProgram {
            params: model.p.clone(),
            ops: Vec::new(),
            sels: Vec::new(),
            regs: 0,
            root_ends: Vec::new(),
            depth: 0,
        };
        let mut subs = SubPlans::default();
        for root in roots.clone() {
            subs.count(root);
        }
        for root in roots {
            prog.lower(catalog, query, root, &mut subs);
            prog.root_ends.push(prog.ops.len() as u32);
        }
        let mut depth = Depth {
            now: prog.regs,
            max: prog.regs,
        };
        for ops in prog.roots() {
            ops.iter().for_each(|op| prog.step(op, &mut depth));
            depth.now -= 1;
        }
        prog.depth = depth.max;
        prog
    }

    /// The ops of each compiled plan, in compile order.
    fn roots(&self) -> impl Iterator<Item = &[ProgOp]> {
        let starts = std::iter::once(&0).chain(&self.root_ends);
        let bounds = starts.zip(&self.root_ends);
        bounds.map(|(&start, &end)| &self.ops[start as usize..end as usize])
    }

    /// Number of ops (= plan nodes, for a single plan).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of compiled plans.
    pub fn num_roots(&self) -> usize {
        self.root_ends.len()
    }

    /// The cost constants the program was compiled with.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    fn push_sels<'s>(&mut self, specs: impl Iterator<Item = &'s SelSpec>) -> SelRange {
        let start = self.sels.len() as u32;
        self.sels.extend(specs.copied());
        SelRange {
            start,
            len: self.sels.len() as u32 - start,
        }
    }

    fn lower<'p>(
        &mut self,
        catalog: &Catalog,
        query: &QuerySpec,
        node: &'p PlanNode,
        subs: &mut SubPlans<'p>,
    ) {
        if let Some(reg) = subs.entry(node).reg {
            self.ops.push(ProgOp::Recall(reg));
            return;
        }
        let rel_sels = |rel: usize| {
            query.relations[rel]
                .selections
                .iter()
                .map(|s| &s.selectivity)
        };
        let op = match node {
            PlanNode::SeqScan { rel } => {
                let t = catalog.table_by_id(query.relations[*rel].table);
                let sels = self.push_sels(rel_sels(*rel));
                ProgOp::SeqScan {
                    rows: t.rows,
                    pages: t.pages(),
                    width: t.row_width as f64,
                    npred: query.relations[*rel].selections.len() as f64,
                    sels,
                }
            }
            PlanNode::IndexScan { rel, sel_idx } => {
                let t = catalog.table_by_id(query.relations[*rel].table);
                let r = &query.relations[*rel];
                let residual = self.push_sels(
                    r.selections
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i != sel_idx)
                        .map(|(_, s)| &s.selectivity),
                );
                ProgOp::IndexScan {
                    rows: t.rows,
                    width: t.row_width as f64,
                    height: t
                        .index_on(r.selections[*sel_idx].column)
                        .map_or(2.0, |ix| ix.height as f64),
                    leaf_pages: (t.rows / 256.0).max(1.0),
                    nsels: r.selections.len() as f64,
                    ix_sel: r.selections[*sel_idx].selectivity,
                    residual,
                }
            }
            PlanNode::FullIndexScan { rel, .. } => {
                let t = catalog.table_by_id(query.relations[*rel].table);
                let sels = self.push_sels(rel_sels(*rel));
                ProgOp::FullIndexScan {
                    rows: t.rows,
                    width: t.row_width as f64,
                    leaf_pages: (t.rows / 256.0).max(1.0),
                    npred: query.relations[*rel].selections.len() as f64,
                    sels,
                }
            }
            PlanNode::HashJoin {
                build,
                probe,
                edges,
            } => {
                self.lower(catalog, query, build, subs);
                self.lower(catalog, query, probe, subs);
                let edges = self.push_sels(edges.iter().map(|&e| &query.joins[e].selectivity));
                ProgOp::HashJoin {
                    nedges: edges.len as f64,
                    edges,
                }
            }
            PlanNode::SortMergeJoin {
                left,
                right,
                edges,
                sort_left,
                sort_right,
            } => {
                self.lower(catalog, query, left, subs);
                self.lower(catalog, query, right, subs);
                let edges = self.push_sels(edges.iter().map(|&e| &query.joins[e].selectivity));
                ProgOp::MergeJoin {
                    nedges: edges.len as f64,
                    edges,
                    sort_left: *sort_left,
                    sort_right: *sort_right,
                }
            }
            PlanNode::IndexNLJoin {
                outer,
                inner_rel,
                edges,
            } => {
                self.lower(catalog, query, outer, subs);
                let t = catalog.table_by_id(query.relations[*inner_rel].table);
                let primary =
                    self.push_sels(edges[..1].iter().map(|&e| &query.joins[e].selectivity));
                let residual_edges =
                    self.push_sels(edges[1..].iter().map(|&e| &query.joins[e].selectivity));
                let inner_sels = self.push_sels(rel_sels(*inner_rel));
                ProgOp::IndexNlJoin {
                    inner_rows: t.rows,
                    inner_width: t.row_width as f64,
                    npred: query.relations[*inner_rel].selections.len() as f64
                        + (edges.len() as f64 - 1.0).max(0.0),
                    primary,
                    residual_edges,
                    inner_sels,
                }
            }
            PlanNode::BlockNLJoin {
                outer,
                inner,
                edges,
            } => {
                self.lower(catalog, query, outer, subs);
                self.lower(catalog, query, inner, subs);
                let nedges_capped = edges.len().max(1) as f64;
                let edges = self.push_sels(edges.iter().map(|&e| &query.joins[e].selectivity));
                ProgOp::BlockNlJoin {
                    nedges_capped,
                    edges,
                }
            }
            PlanNode::AntiJoin { left, right, edges } => {
                self.lower(catalog, query, left, subs);
                self.lower(catalog, query, right, subs);
                let first_edge =
                    self.push_sels(edges[..1].iter().map(|&e| &query.joins[e].selectivity));
                ProgOp::AntiJoin { first_edge }
            }
            PlanNode::SemiJoin { left, right, edges } => {
                self.lower(catalog, query, left, subs);
                self.lower(catalog, query, right, subs);
                let first_edge =
                    self.push_sels(edges[..1].iter().map(|&e| &query.joins[e].selectivity));
                ProgOp::SemiJoin { first_edge }
            }
            PlanNode::HashAggregate { input } => {
                self.lower(catalog, query, input, subs);
                let ndv_product: f64 = query
                    .group_by
                    .iter()
                    .map(|&(rel, col)| {
                        let t = catalog.table_by_id(query.relations[rel].table);
                        t.columns[col.column as usize].stats.ndv.max(1.0)
                    })
                    .product();
                ProgOp::HashAggregate {
                    ndv_product,
                    width: (query.group_by.len() as f64 + 1.0) * 8.0,
                }
            }
            PlanNode::Spill { input } => {
                self.lower(catalog, query, input, subs);
                ProgOp::Spill
            }
        };
        self.ops.push(op);
        let sub = subs.entry(node);
        if sub.uses > 1 {
            sub.reg = Some(self.regs);
            self.ops.push(ProgOp::Keep(self.regs));
            self.regs += 1;
        }
    }

    /// Resolve a selectivity window at `q` — same iterator shape (and thus
    /// the same multiplication order) as the tree-walk reference's
    /// `rel_sel` / `edges_sel`.
    #[inline]
    fn sel_product(&self, r: SelRange, q: &[f64]) -> f64 {
        self.sels[r.start as usize..(r.start + r.len) as usize]
            .iter()
            .map(|s| s.resolve(q).clamp(0.0, 1.0))
            .product()
    }

    /// What each op computes: its formula over constants resolved at
    /// compile time, selectivities resolved at the location and the
    /// estimates of its inputs, handed to the machine the program runs on.
    #[inline(always)]
    fn step(&self, op: &ProgOp, m: &mut impl Machine) {
        let p = &self.params;
        let sel = |r: SelRange, q: &[f64]| self.sel_product(r, q);
        match *op {
            ProgOp::SeqScan {
                rows,
                pages,
                width,
                npred,
                sels,
            } => m.leaf(|q| formulas::seq_scan(p, rows, pages, width, npred, sel(sels, q))),
            ProgOp::IndexScan {
                rows,
                width,
                height,
                leaf_pages,
                nsels,
                ix_sel,
                residual,
            } => m.leaf(|q| {
                formulas::index_scan(
                    p,
                    rows,
                    width,
                    height,
                    leaf_pages,
                    nsels,
                    ix_sel.resolve(q).clamp(0.0, 1.0),
                    sel(residual, q),
                )
            }),
            ProgOp::FullIndexScan {
                rows,
                width,
                leaf_pages,
                npred,
                sels,
            } => m.leaf(|q| {
                formulas::full_index_scan(p, rows, width, leaf_pages, npred, sel(sels, q))
            }),
            ProgOp::HashJoin { nedges, edges } => m.binary(|q, build, probe| {
                formulas::hash_join(p, build, probe, sel(edges, q), nedges)
            }),
            ProgOp::MergeJoin {
                nedges,
                edges,
                sort_left,
                sort_right,
            } => m.binary(|q, left, right| {
                let esel = sel(edges, q);
                formulas::merge_join(p, left, right, esel, nedges, sort_left, sort_right)
            }),
            ProgOp::IndexNlJoin {
                inner_rows,
                inner_width,
                npred,
                primary,
                residual_edges,
                inner_sels,
            } => m.unary(|q, outer| {
                formulas::index_nl_join(
                    p,
                    outer,
                    inner_rows,
                    inner_width,
                    sel(primary, q),
                    sel(residual_edges, q),
                    sel(inner_sels, q),
                    npred,
                )
            }),
            ProgOp::BlockNlJoin {
                nedges_capped,
                edges,
            } => m.binary(|q, outer, inner| {
                formulas::block_nl_join(p, outer, inner, sel(edges, q), nedges_capped)
            }),
            ProgOp::AntiJoin { first_edge } => {
                m.binary(|q, left, right| formulas::anti_join(p, left, right, sel(first_edge, q)))
            }
            ProgOp::SemiJoin { first_edge } => {
                m.binary(|q, left, right| formulas::semi_join(p, left, right, sel(first_edge, q)))
            }
            ProgOp::HashAggregate { ndv_product, width } => {
                m.unary(|_, input| formulas::hash_aggregate(p, input, ndv_product, width))
            }
            ProgOp::Spill => m.unary(|_, input| formulas::spill(p, input)),
            ProgOp::Keep(reg) => m.keep(reg as usize),
            ProgOp::Recall(reg) => m.recall(reg as usize),
        }
    }

    /// The single-point evaluator: run every op at `q`, leaving the
    /// compiled plans' estimates on `stack` above the registers. With
    /// `CAPTURE` every op's estimate is also appended to `nodes`, so
    /// `nodes[i]` is what the sub-plan ending at op `i` costs on its own.
    #[inline]
    fn run<const CAPTURE: bool>(
        &self,
        q: &[f64],
        stack: &mut Vec<NodeCost>,
        nodes: &mut Vec<NodeCost>,
    ) {
        stack.clear();
        stack.resize(self.regs as usize, UNSET);
        let mut point = Point::<CAPTURE> { q, stack, nodes };
        for op in &self.ops {
            self.step(op, &mut point);
        }
    }

    /// Evaluate a single-plan program at ESS location `q` reusing `stack`
    /// as scratch space.
    pub fn eval_with(&self, q: &[f64], stack: &mut Vec<NodeCost>) -> NodeCost {
        debug_assert_eq!(self.num_roots(), 1, "eval_with is for single-plan programs");
        self.run::<false>(q, stack, &mut Vec::new());
        stack.pop().expect("empty cost program")
    }

    /// Evaluate at `q` keeping every op's estimate: entry `i` of the result
    /// is the estimate of the sub-plan whose last op is op `i` — in a
    /// single-plan program, of the plan's `i`-th node in post-order, the
    /// whole plan last. One evaluation thus prices a plan and every subtree
    /// of it, each bit-identical to evaluating that subtree alone.
    pub fn eval_nodes<'s>(&self, q: &[f64], scratch: &'s mut NodeCosts) -> &'s [NodeCost] {
        scratch.nodes.clear();
        self.run::<true>(q, &mut scratch.stack, &mut scratch.nodes);
        &scratch.nodes
    }

    /// Evaluate every compiled plan at `q` reusing `stack` as scratch
    /// space: `emit(i, cost)` is called once per plan, in compile order.
    pub fn eval_set_with(
        &self,
        q: &[f64],
        stack: &mut Vec<NodeCost>,
        mut emit: impl FnMut(usize, f64),
    ) {
        self.run::<false>(q, stack, &mut Vec::new());
        for (i, plan) in stack[self.regs as usize..].iter().enumerate() {
            emit(i, plan.cost);
        }
    }

    /// Evaluate every compiled plan at each of `points` — consecutive ESS
    /// locations of `d` coordinates each — a block of locations per op:
    /// `emit(i, j, cost)` is called once per plan `i` and location `j`,
    /// with exactly the cost [`eval_set_with`](Self::eval_set_with) reports
    /// for plan `i` at location `j`. Allocates its stack, once.
    pub fn eval_set_points(
        &self,
        points: &[f64],
        d: usize,
        mut emit: impl FnMut(usize, usize, f64),
    ) {
        let mut stack = vec![UNSET; self.depth as usize * BLOCK];
        for (b, points) in points.chunks(BLOCK * d).enumerate() {
            let mut lanes = Lanes {
                points,
                d,
                lanes: points.len() / d,
                stack: &mut stack,
                top: self.regs as usize,
            };
            for (i, ops) in self.roots().enumerate() {
                for op in ops {
                    self.step(op, &mut lanes);
                }
                lanes.top -= 1;
                for (lane, plan) in lanes.slot(lanes.top).iter().enumerate() {
                    emit(i, b * BLOCK + lane, plan.cost);
                }
            }
        }
    }

    /// Evaluate with a private stack (convenience; allocates).
    pub fn eval(&self, q: &[f64]) -> NodeCost {
        let mut stack = Vec::with_capacity(self.ops.len());
        self.eval_with(q, &mut stack)
    }

    /// Plan cost at `q` (convenience; allocates a stack).
    pub fn cost(&self, q: &[f64]) -> f64 {
        self.eval(q).cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coster::Coster;
    use pb_catalog::tpch;
    use pb_plan::{CmpOp, QueryBuilder};

    fn setup() -> (pb_catalog::Catalog, QuerySpec, CostModel) {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "eq");
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
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        (cat.clone(), qb.build(), CostModel::postgresish())
    }

    fn deep_plan() -> PlanNode {
        PlanNode::Spill {
            input: Box::new(PlanNode::HashAggregate {
                input: Box::new(PlanNode::IndexNLJoin {
                    outer: Box::new(PlanNode::SortMergeJoin {
                        left: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                        right: Box::new(PlanNode::SeqScan { rel: 1 }),
                        edges: vec![0],
                        sort_left: true,
                        sort_right: false,
                    }),
                    inner_rel: 2,
                    edges: vec![1],
                }),
            }),
        }
    }

    #[test]
    fn matches_tree_walk_bitwise_on_all_operators() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let plans = [
            deep_plan(),
            PlanNode::HashJoin {
                build: Box::new(PlanNode::FullIndexScan {
                    rel: 0,
                    column: cat.table("part").unwrap().columns[0].id,
                }),
                probe: Box::new(PlanNode::BlockNLJoin {
                    outer: Box::new(PlanNode::SeqScan { rel: 1 }),
                    inner: Box::new(PlanNode::SeqScan { rel: 2 }),
                    edges: vec![1],
                }),
                edges: vec![0],
            },
            PlanNode::AntiJoin {
                left: Box::new(PlanNode::SeqScan { rel: 1 }),
                right: Box::new(PlanNode::SeqScan { rel: 0 }),
                edges: vec![0],
            },
        ];
        let mut stack = Vec::new();
        for plan in &plans {
            let prog = CostProgram::compile(&cat, &q, &m, plan);
            for s in [1e-4, 3.7e-3, 0.2512, 1.0] {
                let walked = c.cost(plan, &[s]);
                let compiled = prog.eval_with(&[s], &mut stack);
                assert_eq!(walked.cost.to_bits(), compiled.cost.to_bits());
                assert_eq!(walked.rows.to_bits(), compiled.rows.to_bits());
                assert_eq!(walked.width.to_bits(), compiled.width.to_bits());
            }
        }
    }

    /// The per-op capture prices every subtree of a plan in one evaluation,
    /// bit-equal to the tree walk over that subtree alone — and, in a plan
    /// set, stays aligned with the op array across `Keep` / `Recall`.
    #[test]
    fn captured_nodes_match_tree_walk_of_every_subtree() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let plan = deep_plan();
        let post = plan.post_order();
        let prog = CostProgram::compile(&cat, &q, &m, &plan);
        let mut scratch = NodeCosts::default();
        for s in [1e-4, 3.7e-3, 0.2512, 1.0] {
            let nodes = prog.eval_nodes(&[s], &mut scratch);
            assert_eq!(nodes.len(), post.len());
            for (got, sub) in nodes.iter().zip(&post) {
                let walked = c.cost(sub, &[s]);
                assert_eq!(got.cost.to_bits(), walked.cost.to_bits());
                assert_eq!(got.rows.to_bits(), walked.rows.to_bits());
                assert_eq!(got.width.to_bits(), walked.width.to_bits());
            }
        }
        let shared = PlanNode::SeqScan { rel: 1 };
        let set = [shared.clone().spilled(), shared.clone()];
        let prog = CostProgram::compile_set(&cat, &q, &m, &set);
        let nodes = prog.eval_nodes(&[0.5], &mut scratch);
        assert_eq!(nodes.len(), prog.len());
        // scan, Keep, Spill, Recall.
        assert_eq!(nodes[1].cost.to_bits(), nodes[0].cost.to_bits());
        assert_eq!(nodes[3].cost.to_bits(), nodes[0].cost.to_bits());
        assert_eq!(
            nodes[2].cost.to_bits(),
            c.plan_cost(&set[0], &[0.5]).to_bits()
        );
    }

    #[test]
    fn program_is_flat_postorder() {
        let (cat, q, m) = setup();
        let plan = deep_plan();
        let prog = CostProgram::compile(&cat, &q, &m, &plan);
        assert_eq!(prog.len(), plan.size());
        assert!(!prog.is_empty());
        // Post-order: the root (Spill) op comes last.
        assert!(matches!(prog.ops.last(), Some(ProgOp::Spill)));
    }

    /// A plan set evaluates repeated sub-plans once — one of them nested
    /// inside another — and every plan's cost is bit-equal to its own
    /// single-plan program and to the tree walk.
    #[test]
    fn plan_set_shares_subplans_and_matches_per_plan_costs() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        // Shared: scan(part) ⊂ part⋈lineitem ⊂ (part⋈lineitem)⋈orders.
        let pl = PlanNode::HashJoin {
            build: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
            probe: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
        };
        let plo = PlanNode::IndexNLJoin {
            outer: Box::new(pl.clone()),
            inner_rel: 2,
            edges: vec![1],
        };
        let set = [
            plo.clone(),
            plo.clone().spilled(),
            PlanNode::HashAggregate {
                input: Box::new(plo.clone()),
            },
            PlanNode::AntiJoin {
                left: Box::new(pl.clone()),
                right: Box::new(PlanNode::SeqScan { rel: 2 }),
                edges: vec![1],
            },
            PlanNode::SemiJoin {
                left: Box::new(pl.clone()),
                right: Box::new(PlanNode::SeqScan { rel: 2 }),
                edges: vec![1],
            },
            pl.clone().spilled(),
        ];
        let prog = CostProgram::compile_set(&cat, &q, &m, &set);
        assert_eq!(prog.num_roots(), set.len());
        // Ten distinct nodes; `pl`, `plo` and scan(orders) are kept in
        // registers and recalled 3 + 2 + 1 times. The scans under `pl` are
        // only ever reached through it, so they need none.
        assert_eq!(prog.regs, 3);
        assert_eq!(prog.len(), 10 + 3 + 6);
        assert_eq!(set.iter().map(PlanNode::size).sum::<usize>(), 28);
        let (mut stack, mut single) = (Vec::new(), Vec::new());
        for s in [1e-4, 3.7e-3, 0.2512, 1.0] {
            let mut costs = vec![f64::NAN; set.len()];
            prog.eval_set_with(&[s], &mut stack, |i, cost| costs[i] = cost);
            for (plan, cost) in set.iter().zip(&costs) {
                let alone = CostProgram::compile(&cat, &q, &m, plan).eval_with(&[s], &mut single);
                assert_eq!(cost.to_bits(), alone.cost.to_bits());
                assert_eq!(cost.to_bits(), c.plan_cost(plan, &[s]).to_bits());
            }
        }

        // By block: one lane, a block short of one, exactly one, one over,
        // and whole blocks with a ragged tail — every cell bit-equal to the
        // single-point evaluation and to the tree walk.
        assert_eq!(prog.depth, prog.regs + 2);
        let points: Vec<f64> = (0..2 * BLOCK + 3)
            .map(|i| 1e-4 * 1e4f64.powf(i as f64 / (2 * BLOCK + 2) as f64))
            .collect();
        for width in [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3] {
            let points = &points[points.len() - width..];
            let mut cells = vec![f64::NAN; set.len() * width];
            prog.eval_set_points(points, 1, |i, j, cost| {
                assert!(cells[i * width + j].is_nan(), "cell emitted twice");
                cells[i * width + j] = cost;
            });
            for (j, s) in points.iter().enumerate() {
                prog.eval_set_with(&[*s], &mut stack, |i, cost| {
                    assert_eq!(cells[i * width + j].to_bits(), cost.to_bits());
                    let walked = c.plan_cost(&set[i], &[*s]);
                    assert_eq!(cells[i * width + j].to_bits(), walked.to_bits());
                });
            }
        }
    }
}
