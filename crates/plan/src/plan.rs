//! Physical plan trees.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use pb_catalog::{Catalog, ColumnId};
use serde::{Deserialize, Serialize};

use crate::query::{QuerySpec, RelIdx};

/// Stable structural identity of a plan, used to recognise "the same plan"
/// at different selectivity locations during POSP generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PlanFingerprint(pub u64);

/// A node of a physical operator tree. Join nodes reference the query's join
/// predicates by index (`edges`); the first edge is the primary join key
/// (hash key / merge key / index-lookup key), any remaining edges are applied
/// as residual predicates.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum PlanNode {
    /// Full sequential scan; all the relation's selections applied on the fly.
    SeqScan { rel: RelIdx },
    /// B-tree index scan using selection `sel_idx` as the index condition;
    /// the relation's other selections are applied as residual filters.
    IndexScan { rel: RelIdx, sel_idx: usize },
    /// Full scan through an index to obtain tuples ordered on `column`
    /// (useful as a sort-avoiding input to a merge join).
    FullIndexScan { rel: RelIdx, column: ColumnId },
    /// Classic hybrid hash join; `build` is hashed, `probe` streams.
    HashJoin {
        build: Box<PlanNode>,
        probe: Box<PlanNode>,
        edges: Vec<usize>,
    },
    /// Sort-merge join. `sort_left` / `sort_right` record whether an explicit
    /// sort is required on that input (the optimizer omits the sort when the
    /// input already delivers the merge order).
    SortMergeJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        edges: Vec<usize>,
        sort_left: bool,
        sort_right: bool,
    },
    /// Index nested-loops join: for every outer tuple, probe the inner base
    /// relation's index on the join column. The inner relation's selections
    /// are applied as residuals after each lookup.
    IndexNLJoin {
        outer: Box<PlanNode>,
        inner_rel: RelIdx,
        edges: Vec<usize>,
    },
    /// Block nested-loops join (no index requirement; quadratic I/O).
    BlockNLJoin {
        outer: Box<PlanNode>,
        inner: Box<PlanNode>,
        edges: Vec<usize>,
    },
    /// Hash aggregation over the query's `group_by` columns (COUNT per
    /// group). Always the plan root; its output is never consumed by
    /// another operator.
    HashAggregate { input: Box<PlanNode> },
    /// Hash anti-join (NOT EXISTS): emit `left` rows with no key match in
    /// `right`. Output cardinality *decreases* as the match selectivity
    /// grows — the PCM-violating operator of the paper's Section 2.
    AntiJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        edges: Vec<usize>,
    },
    /// Bouquet spill directive (Section 5.3): execute the input subtree,
    /// count its output tuples, and discard them — deliberately breaking the
    /// pipeline just above the first error-prone node so the entire cost
    /// budget is spent on selectivity learning.
    Spill { input: Box<PlanNode> },
    /// Hash semi-join (EXISTS): emit `left` rows with at least one key match
    /// in `right`. Output grows monotonically with the match selectivity
    /// (saturating at the left cardinality), so it is PCM-clean.
    ///
    /// NOTE: this variant is deliberately declared *last*. [`PlanNode`]
    /// derives `Hash`, and plan fingerprints feed persisted bouquets and
    /// golden traces — appending keeps every pre-existing variant's
    /// discriminant (and hence every legacy fingerprint) unchanged.
    SemiJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        edges: Vec<usize>,
    },
}

impl PlanNode {
    /// Child subtrees, outer/left first.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::SeqScan { .. }
            | PlanNode::IndexScan { .. }
            | PlanNode::FullIndexScan { .. } => vec![],
            PlanNode::HashJoin { build, probe, .. } => vec![build, probe],
            PlanNode::SortMergeJoin { left, right, .. } => vec![left, right],
            PlanNode::AntiJoin { left, right, .. } | PlanNode::SemiJoin { left, right, .. } => {
                vec![left, right]
            }
            PlanNode::IndexNLJoin { outer, .. } => vec![outer],
            PlanNode::BlockNLJoin { outer, inner, .. } => vec![outer, inner],
            PlanNode::HashAggregate { input } | PlanNode::Spill { input } => vec![input],
        }
    }

    /// Join-predicate indices applied at this node (empty for scans).
    pub fn edges(&self) -> &[usize] {
        match self {
            PlanNode::HashJoin { edges, .. }
            | PlanNode::SortMergeJoin { edges, .. }
            | PlanNode::IndexNLJoin { edges, .. }
            | PlanNode::BlockNLJoin { edges, .. }
            | PlanNode::AntiJoin { edges, .. }
            | PlanNode::SemiJoin { edges, .. } => edges,
            _ => &[],
        }
    }

    /// Bitmask of the relations covered by this subtree.
    pub fn rels_mask(&self) -> u32 {
        match self {
            PlanNode::SeqScan { rel }
            | PlanNode::IndexScan { rel, .. }
            | PlanNode::FullIndexScan { rel, .. } => 1 << rel,
            PlanNode::IndexNLJoin {
                outer, inner_rel, ..
            } => outer.rels_mask() | (1 << inner_rel),
            _ => self.children().iter().fold(0, |m, c| m | c.rels_mask()),
        }
    }

    /// Preorder visit of every node in the subtree.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PlanNode)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Number of operator nodes in the subtree.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Depth of this operator tree.
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Error-prone dimensions referenced anywhere in this subtree (through
    /// join edges or scan selections), in ascending order.
    pub fn error_dims(&self, query: &QuerySpec) -> Vec<usize> {
        let mut dims = Vec::new();
        self.visit(&mut |n| {
            for &e in n.edges() {
                if let Some(d) = query.joins[e].selectivity.error_dim() {
                    dims.push(d);
                }
            }
            if let PlanNode::SeqScan { rel }
            | PlanNode::IndexScan { rel, .. }
            | PlanNode::FullIndexScan { rel, .. } = n
            {
                for s in &query.relations[*rel].selections {
                    if let Some(d) = s.selectivity.error_dim() {
                        dims.push(d);
                    }
                }
            }
            if let PlanNode::IndexNLJoin { inner_rel, .. } = n {
                for s in &query.relations[*inner_rel].selections {
                    if let Some(d) = s.selectivity.error_dim() {
                        dims.push(d);
                    }
                }
            }
        });
        dims.sort_unstable();
        dims.dedup();
        dims
    }

    /// Depth (distance from this root) at which error dimension `d` is first
    /// applied; `None` if the subtree never references it. Deeper is better
    /// for the AxisPlans heuristic (Section 5.1): a deep error node means the
    /// budget is not wasted on error-free upstream work.
    pub fn error_dim_depth(&self, query: &QuerySpec, d: usize) -> Option<usize> {
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
        go(self, query, d, 0)
    }

    /// Structural fingerprint (stable within a process run and across runs of
    /// the same binary — plan identity in POSP sets, diagrams and bouquets).
    pub fn fingerprint(&self) -> PlanFingerprint {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        PlanFingerprint(h.finish())
    }

    /// Wrap this subtree in a [`PlanNode::Spill`] directive.
    pub fn spilled(self) -> PlanNode {
        PlanNode::Spill {
            input: Box::new(self),
        }
    }

    /// Subtrees along the first-executed chain: the nodes reached by
    /// repeatedly descending into the first-executed child (`children()[0]`
    /// — the build side of a hash join, the left input of a merge or anti
    /// join, the outer of a nested-loops join), returned deepest-first with
    /// the full plan last. Every operator evaluates its first child to
    /// completion before doing its own work, so a budget-limited execution
    /// completes exactly the chain subtrees whose cost fits the spend —
    /// these are the checkpointable prefixes used by the substrate
    /// checkpoint/resume contract.
    pub fn exec_chain(&self) -> Vec<&PlanNode> {
        let mut chain = Vec::new();
        let mut node = self;
        loop {
            chain.push(node);
            match node.children().first() {
                Some(c) => node = c,
                None => break,
            }
        }
        chain.reverse();
        chain
    }

    /// The plan's nodes in post-order (children outer/left first, the plan
    /// itself last): entry `i` is the subtree whose cost a single-plan
    /// `CostProgram` leaves at op `i`.
    pub fn post_order(&self) -> Vec<&PlanNode> {
        fn walk<'p>(node: &'p PlanNode, out: &mut Vec<&'p PlanNode>) {
            for child in node.children() {
                walk(child, out);
            }
            out.push(node);
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Pretty-print an EXPLAIN-style operator tree.
    pub fn explain(&self, query: &QuerySpec, catalog: &Catalog) -> String {
        let mut out = String::new();
        self.explain_into(query, catalog, 0, &mut out);
        out
    }

    fn explain_into(&self, query: &QuerySpec, catalog: &Catalog, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let rel_name = |r: RelIdx| -> &str { &query.relations[r].alias };
        let col_name = |c: ColumnId| -> String {
            let t = catalog.table_by_id(c.table);
            t.columns[c.column as usize].name.clone()
        };
        let edge_desc = |edges: &[usize]| -> String {
            edges
                .iter()
                .map(|&e| {
                    let j = &query.joins[e];
                    let op = match j.op {
                        crate::query::CmpOp::Lt => "<",
                        crate::query::CmpOp::Gt => ">",
                        _ => "=",
                    };
                    format!(
                        "{}.{} {op} {}.{}",
                        rel_name(j.left_rel),
                        col_name(j.left_col),
                        rel_name(j.right_rel),
                        col_name(j.right_col)
                    )
                })
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        match self {
            PlanNode::SeqScan { rel } => {
                let _ = writeln!(out, "{pad}SeqScan({})", rel_name(*rel));
            }
            PlanNode::IndexScan { rel, sel_idx } => {
                let s = &query.relations[*rel].selections[*sel_idx];
                let _ = writeln!(
                    out,
                    "{pad}IndexScan({} on {})",
                    rel_name(*rel),
                    col_name(s.column)
                );
            }
            PlanNode::FullIndexScan { rel, column } => {
                let _ = writeln!(
                    out,
                    "{pad}FullIndexScan({} ordered by {})",
                    rel_name(*rel),
                    col_name(*column)
                );
            }
            PlanNode::HashJoin {
                build,
                probe,
                edges,
            } => {
                let _ = writeln!(out, "{pad}HashJoin [{}]", edge_desc(edges));
                build.explain_into(query, catalog, indent + 1, out);
                probe.explain_into(query, catalog, indent + 1, out);
            }
            PlanNode::SortMergeJoin {
                left,
                right,
                edges,
                sort_left,
                sort_right,
            } => {
                let s = match (sort_left, sort_right) {
                    (true, true) => " (sort both)",
                    (true, false) => " (sort left)",
                    (false, true) => " (sort right)",
                    (false, false) => "",
                };
                let _ = writeln!(out, "{pad}MergeJoin{s} [{}]", edge_desc(edges));
                left.explain_into(query, catalog, indent + 1, out);
                right.explain_into(query, catalog, indent + 1, out);
            }
            PlanNode::IndexNLJoin {
                outer,
                inner_rel,
                edges,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}IndexNLJoin -> {} [{}]",
                    rel_name(*inner_rel),
                    edge_desc(edges)
                );
                outer.explain_into(query, catalog, indent + 1, out);
            }
            PlanNode::BlockNLJoin {
                outer,
                inner,
                edges,
            } => {
                let _ = writeln!(out, "{pad}BlockNLJoin [{}]", edge_desc(edges));
                outer.explain_into(query, catalog, indent + 1, out);
                inner.explain_into(query, catalog, indent + 1, out);
            }
            PlanNode::AntiJoin { left, right, edges } => {
                let _ = writeln!(out, "{pad}AntiJoin (NOT EXISTS) [{}]", edge_desc(edges));
                left.explain_into(query, catalog, indent + 1, out);
                right.explain_into(query, catalog, indent + 1, out);
            }
            PlanNode::SemiJoin { left, right, edges } => {
                let _ = writeln!(out, "{pad}SemiJoin (EXISTS) [{}]", edge_desc(edges));
                left.explain_into(query, catalog, indent + 1, out);
                right.explain_into(query, catalog, indent + 1, out);
            }
            PlanNode::HashAggregate { input } => {
                let groups: Vec<String> = query
                    .group_by
                    .iter()
                    .map(|&(r, c)| format!("{}.{}", rel_name(r), col_name(c)))
                    .collect();
                let _ = writeln!(out, "{pad}HashAggregate [{}]", groups.join(", "));
                input.explain_into(query, catalog, indent + 1, out);
            }
            PlanNode::Spill { input } => {
                let _ = writeln!(out, "{pad}Spill (discard output)");
                input.explain_into(query, catalog, indent + 1, out);
            }
        }
    }
}

/// A complete physical plan: a root node plus its cached fingerprint.
///
/// Serialization round-trips through the bare [`PlanNode`]: the fingerprint
/// is recomputed on load, so persisted bouquets stay valid even if the
/// hashing implementation changes between builds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "PlanNode", into = "PlanNode")]
pub struct PhysicalPlan {
    pub root: PlanNode,
    fingerprint: PlanFingerprint,
}

impl From<PhysicalPlan> for PlanNode {
    fn from(p: PhysicalPlan) -> PlanNode {
        p.root
    }
}

impl PhysicalPlan {
    pub fn new(root: PlanNode) -> Self {
        let fingerprint = root.fingerprint();
        PhysicalPlan { root, fingerprint }
    }

    pub fn fingerprint(&self) -> PlanFingerprint {
        self.fingerprint
    }
}

impl From<PlanNode> for PhysicalPlan {
    fn from(root: PlanNode) -> Self {
        PhysicalPlan::new(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CmpOp, QueryBuilder, SelSpec};
    use pb_catalog::tpch;

    fn eq_query() -> (pb_catalog::Catalog, QuerySpec) {
        let cat = tpch::catalog(0.1);
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
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        (cat, q)
    }

    fn sample_plan() -> PlanNode {
        // (part IXS ⋈HJ lineitem) ⋈INL orders
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

    #[test]
    fn rels_mask_covers_all_relations() {
        assert_eq!(sample_plan().rels_mask(), 0b111);
    }

    #[test]
    fn fingerprint_stable_and_structure_sensitive() {
        let a = sample_plan();
        let b = sample_plan();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan { rel: 0 }),
            probe: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
        };
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn error_dims_collects_join_and_selection_dims() {
        let (_, q) = eq_query();
        let dims = sample_plan().error_dims(&q);
        assert_eq!(dims, vec![0, 1]);
    }

    #[test]
    fn error_dim_depth_prefers_deepest_occurrence() {
        let (_, q) = eq_query();
        let p = sample_plan();
        // dim 0 (selection on part) sits at the IndexScan leaf: depth 2.
        assert_eq!(p.error_dim_depth(&q, 0), Some(2));
        // dim 1 (p⋈l edge) is applied at the hash join: depth 1.
        assert_eq!(p.error_dim_depth(&q, 1), Some(1));
        // dim 7 never appears.
        assert_eq!(p.error_dim_depth(&q, 7), None);
    }

    #[test]
    fn size_and_depth() {
        let p = sample_plan();
        assert_eq!(p.size(), 4);
        assert_eq!(p.depth(), 3);
        assert_eq!(p.clone().spilled().size(), 5);
    }

    #[test]
    fn exec_chain_follows_first_executed_child() {
        let p = sample_plan();
        let chain = p.exec_chain();
        // IndexScan leaf first, then the hash join (build side), then root.
        assert_eq!(chain.len(), 3);
        assert!(matches!(chain[0], PlanNode::IndexScan { rel: 0, .. }));
        assert!(matches!(chain[1], PlanNode::HashJoin { .. }));
        assert!(matches!(chain[2], PlanNode::IndexNLJoin { .. }));
        assert_eq!(chain[2].fingerprint(), p.fingerprint());
        // A shared prefix fingerprints identically from a different root.
        let other = PlanNode::SortMergeJoin {
            left: Box::new(chain[1].clone()),
            right: Box::new(PlanNode::SeqScan { rel: 2 }),
            edges: vec![1],
            sort_left: true,
            sort_right: true,
        };
        assert_eq!(other.exec_chain()[1].fingerprint(), chain[1].fingerprint());
        // Post-order visits the chain deepest-first too, the plan last.
        let post = p.post_order();
        assert_eq!(post.len(), 4);
        assert!(std::ptr::eq(post[0], chain[0]) && std::ptr::eq(post[3], &p));
    }

    #[test]
    fn explain_renders_tree() {
        let (cat, q) = eq_query();
        let text = sample_plan().explain(&q, &cat);
        assert!(text.contains("IndexNLJoin -> orders"));
        assert!(text.contains("HashJoin"));
        assert!(text.contains("IndexScan(part on p_retailprice)"));
    }

    #[test]
    fn spill_wraps_and_explains() {
        let (cat, q) = eq_query();
        let text = sample_plan().spilled().explain(&q, &cat);
        assert!(text.starts_with("Spill"));
    }
}
