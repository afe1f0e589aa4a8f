//! The tree-walk reference for abstract plan costing.
//!
//! One `Coster` instance binds a catalog, a query and a cost-model
//! personality, and [`Coster::cost`] walks a complete plan tree to re-cost
//! it at an arbitrary ESS location, resolving every catalog constant on
//! the way. It is the definition the product's evaluator,
//! [`CostProgram`](crate::program::CostProgram), is tested against (the
//! crates' unit tests, `tests/compiled_cost.rs`, `tests/properties.rs`);
//! no product code calls it. The optimizer's DP calls [`crate::formulas`]
//! directly with constants it resolved once per query.
//!
//! The scalar arithmetic lives in [`crate::formulas`] and is shared by all
//! three, so tree-walk, compiled and DP costing are bit-for-bit identical
//! by construction.

use pb_catalog::{Catalog, Table};
use pb_plan::{PlanNode, QuerySpec, RelIdx, SelectionPredicate};

use crate::formulas;
use crate::params::CostModel;

/// Cost estimate for a (sub)plan: output cardinality, cumulative cost and
/// output tuple width in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCost {
    pub rows: f64,
    pub cost: f64,
    pub width: f64,
}

impl NodeCost {
    /// Pages needed to materialize this output.
    pub(crate) fn pages(&self, page_bytes: f64) -> f64 {
        (self.rows * self.width / page_bytes).max(1.0)
    }
}

/// Binds catalog + query + cost model; [`cost`](Self::cost) takes the ESS
/// location `q` (absolute selectivity per error-prone dimension) explicitly.
#[derive(Clone, Copy)]
pub struct Coster<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a QuerySpec,
    pub model: &'a CostModel,
}

impl<'a> Coster<'a> {
    pub fn new(catalog: &'a Catalog, query: &'a QuerySpec, model: &'a CostModel) -> Self {
        Coster {
            catalog,
            query,
            model,
        }
    }

    fn table(&self, rel: RelIdx) -> &Table {
        self.catalog.table_by_id(self.query.relations[rel].table)
    }

    /// Selectivity of one selection predicate at location `q`.
    fn pred_sel(pred: &SelectionPredicate, q: &[f64]) -> f64 {
        pred.selectivity.resolve(q).clamp(0.0, 1.0)
    }

    /// Combined selectivity of all of `rel`'s selection predicates.
    fn rel_sel(&self, rel: RelIdx, q: &[f64]) -> f64 {
        self.query.relations[rel]
            .selections
            .iter()
            .map(|s| Self::pred_sel(s, q))
            .product()
    }

    /// Combined selectivity of a set of join edges.
    fn edges_sel(&self, edges: &[usize], q: &[f64]) -> f64 {
        edges
            .iter()
            .map(|&e| self.query.joins[e].selectivity.resolve(q).clamp(0.0, 1.0))
            .product()
    }

    /// Abstract plan costing: re-cost a full plan tree at ESS location `q`,
    /// resolving every catalog constant at the node that reads it. An index
    /// scan's remaining selections are residual filters on the fetched
    /// tuples; an index nested-loops join's first edge is the lookup key.
    pub fn cost(&self, node: &PlanNode, q: &[f64]) -> NodeCost {
        let p = &self.model.p;
        let npred = |rel: RelIdx| self.query.relations[rel].selections.len() as f64;
        let leaf_pages = |t: &Table| (t.rows / 256.0).max(1.0);
        match node {
            PlanNode::SeqScan { rel } => {
                let t = self.table(*rel);
                let (width, sel) = (t.row_width as f64, self.rel_sel(*rel, q));
                formulas::seq_scan(p, t.rows, t.pages(), width, npred(*rel), sel)
            }
            PlanNode::IndexScan { rel, sel_idx } => {
                let t = self.table(*rel);
                let r = &self.query.relations[*rel];
                let ix_sel = Self::pred_sel(&r.selections[*sel_idx], q);
                let residual: f64 = r
                    .selections
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i != sel_idx)
                    .map(|(_, s)| Self::pred_sel(s, q))
                    .product();
                let height = t
                    .index_on(r.selections[*sel_idx].column)
                    .map_or(2.0, |ix| ix.height as f64);
                let width = t.row_width as f64;
                formulas::index_scan(
                    p,
                    t.rows,
                    width,
                    height,
                    leaf_pages(t),
                    npred(*rel),
                    ix_sel,
                    residual,
                )
            }
            PlanNode::FullIndexScan { rel, .. } => {
                let t = self.table(*rel);
                let (width, sel) = (t.row_width as f64, self.rel_sel(*rel, q));
                formulas::full_index_scan(p, t.rows, width, leaf_pages(t), npred(*rel), sel)
            }
            PlanNode::HashJoin {
                build,
                probe,
                edges,
            } => {
                let (b, pr) = (self.cost(build, q), self.cost(probe, q));
                let nedges = edges.len() as f64;
                formulas::hash_join(p, &b, &pr, self.edges_sel(edges, q), nedges)
            }
            PlanNode::SortMergeJoin {
                left,
                right,
                edges,
                sort_left,
                sort_right,
            } => {
                let (l, r) = (self.cost(left, q), self.cost(right, q));
                let (esel, nedges) = (self.edges_sel(edges, q), edges.len() as f64);
                formulas::merge_join(p, &l, &r, esel, nedges, *sort_left, *sort_right)
            }
            PlanNode::IndexNLJoin {
                outer,
                inner_rel,
                edges,
            } => {
                let o = self.cost(outer, q);
                let t = self.table(*inner_rel);
                let npred = npred(*inner_rel) + (edges.len() as f64 - 1.0).max(0.0);
                formulas::index_nl_join(
                    p,
                    &o,
                    t.rows,
                    t.row_width as f64,
                    self.edges_sel(&edges[..1], q),
                    self.edges_sel(&edges[1..], q),
                    self.rel_sel(*inner_rel, q),
                    npred,
                )
            }
            PlanNode::BlockNLJoin {
                outer,
                inner,
                edges,
            } => {
                let (o, i) = (self.cost(outer, q), self.cost(inner, q));
                let nedges = edges.len().max(1) as f64;
                formulas::block_nl_join(p, &o, &i, self.edges_sel(edges, q), nedges)
            }
            PlanNode::AntiJoin { left, right, edges } => {
                let (l, r) = (self.cost(left, q), self.cost(right, q));
                formulas::anti_join(p, &l, &r, self.edges_sel(&edges[..1], q))
            }
            PlanNode::SemiJoin { left, right, edges } => {
                let (l, r) = (self.cost(left, q), self.cost(right, q));
                formulas::semi_join(p, &l, &r, self.edges_sel(&edges[..1], q))
            }
            PlanNode::HashAggregate { input } => {
                let i = self.cost(input, q);
                let ndv_product: f64 = (self.query.group_by.iter())
                    .map(|&(rel, col)| {
                        self.table(rel).columns[col.column as usize]
                            .stats
                            .ndv
                            .max(1.0)
                    })
                    .product();
                let width = (self.query.group_by.len() as f64 + 1.0) * 8.0;
                formulas::hash_aggregate(p, &i, ndv_product, width)
            }
            PlanNode::Spill { input } => formulas::spill(p, &self.cost(input, q)),
        }
    }

    /// Convenience: plan cost only.
    pub fn plan_cost(&self, node: &PlanNode, q: &[f64]) -> f64 {
        self.cost(node, q).cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

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

    const SCAN_PART: PlanNode = PlanNode::SeqScan { rel: 0 };
    const INDEX_PART: PlanNode = PlanNode::IndexScan { rel: 0, sel_idx: 0 };

    #[test]
    fn seq_scan_cost_independent_of_selectivity_io() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let lo = c.cost(&SCAN_PART, &[1e-4]);
        let hi = c.cost(&SCAN_PART, &[1.0]);
        // Scan I/O identical; only emitted rows differ.
        assert!(hi.cost > lo.cost);
        assert!(hi.cost - lo.cost < 0.02 * hi.cost + 2100.0);
        assert!((hi.rows / lo.rows - 1e4).abs() < 1.0);
    }

    #[test]
    fn index_scan_beats_seq_scan_at_low_selectivity_only() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        assert!(c.plan_cost(&INDEX_PART, &[1e-4]) < c.plan_cost(&SCAN_PART, &[1e-4]));
        assert!(c.plan_cost(&INDEX_PART, &[0.5]) > c.plan_cost(&SCAN_PART, &[0.5]));
    }

    #[test]
    fn inl_join_beats_hash_join_at_low_selectivity_only() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let inl = PlanNode::IndexNLJoin {
            outer: Box::new(INDEX_PART),
            inner_rel: 1,
            edges: vec![0],
        };
        let hj = PlanNode::HashJoin {
            build: Box::new(INDEX_PART),
            probe: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
        };
        for (s, inl_wins) in [(1e-4, true), (1.0, false)] {
            let (inl, hj) = (c.cost(&inl, &[s]), c.cost(&hj, &[s]));
            assert_eq!(
                inl.cost < hj.cost,
                inl_wins,
                "s={s}: inl={} hj={}",
                inl.cost,
                hj.cost
            );
            // Cardinalities agree between join algorithms.
            assert!((inl.rows - hj.rows).abs() < 1e-6 * inl.rows.max(1.0));
        }
    }

    #[test]
    fn merge_join_sort_flags_change_cost_not_rows() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let merge = |sort| PlanNode::SortMergeJoin {
            left: Box::new(PlanNode::SeqScan { rel: 1 }),
            right: Box::new(PlanNode::SeqScan { rel: 2 }),
            edges: vec![1],
            sort_left: sort,
            sort_right: sort,
        };
        let sorted = c.cost(&merge(false), &[0.5]);
        let unsorted = c.cost(&merge(true), &[0.5]);
        assert!(unsorted.cost > sorted.cost);
        assert_eq!(sorted.rows, unsorted.rows);
    }

    #[test]
    fn spill_discards_rows_but_keeps_cost() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let input = c.cost(&SCAN_PART, &[0.5]);
        let sp = c.cost(&SCAN_PART.spilled(), &[0.5]);
        assert_eq!(sp.rows, 0.0);
        assert!(sp.cost >= input.cost);
    }

    #[test]
    fn tree_walk_matches_incremental() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let plan = PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::HashJoin {
                build: Box::new(INDEX_PART),
                probe: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
            }),
            inner_rel: 2,
            edges: vec![1],
        };
        let s = [0.01];
        let walked = c.cost(&plan, &s);
        // The same plan priced bottom-up from `setup`'s spec: part carries
        // the one (error-prone) selection, the join edges are fixed.
        let (p, table) = (&m.p, |rel| c.table(rel));
        let (part, lineitem, orders) = (table(0), table(1), table(2));
        let height = part
            .index_on(q.relations[0].selections[0].column)
            .map_or(2.0, |ix| ix.height as f64);
        let leaf_pages = (part.rows / 256.0).max(1.0);
        let (part_w, line_w) = (part.row_width as f64, lineitem.row_width as f64);
        let b = formulas::index_scan(p, part.rows, part_w, height, leaf_pages, 1.0, s[0], 1.0);
        let pr = formulas::seq_scan(p, lineitem.rows, lineitem.pages(), line_w, 0.0, 1.0);
        let hj = formulas::hash_join(p, &b, &pr, 5e-6, 1.0);
        let orders_w = orders.row_width as f64;
        let inl = formulas::index_nl_join(p, &hj, orders.rows, orders_w, 6.7e-7, 1.0, 1.0, 0.0);
        assert_eq!(walked.cost.to_bits(), inl.cost.to_bits());
        assert_eq!(walked.rows.to_bits(), inl.rows.to_bits());
    }

    #[test]
    fn pcm_all_operators_monotone() {
        let (cat, q, m) = setup();
        let c = Coster::new(&cat, &q, &m);
        let plan = PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan { rel: 0 }),
            probe: Box::new(PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan { rel: 2 }),
                inner_rel: 1,
                edges: vec![1],
            }),
            edges: vec![0],
        };
        let mut last = 0.0;
        for i in 0..20 {
            let s = 1e-4 * 10f64.powf(4.0 * i as f64 / 19.0);
            let cost = c.plan_cost(&plan, &[s.min(1.0)]);
            assert!(cost >= last, "PCM violated at s={s}");
            last = cost;
        }
    }

    #[test]
    fn hash_join_grace_penalty_kicks_in() {
        let (_, _, m) = setup();
        // Build fits: part at low sel. Build spills: lineitem full.
        let small = NodeCost {
            rows: 1000.0,
            cost: 0.0,
            width: 100.0,
        };
        let big = NodeCost {
            rows: 10_000_000.0,
            cost: 0.0,
            width: 100.0,
        };
        let probe = NodeCost {
            rows: 1000.0,
            cost: 0.0,
            width: 100.0,
        };
        let hj_small = formulas::hash_join(&m.p, &small, &probe, 5e-6, 1.0);
        let hj_big = formulas::hash_join(&m.p, &big, &probe, 5e-6, 1.0);
        let linear_scale = big.rows / small.rows;
        assert!(hj_big.cost > hj_small.cost * linear_scale * 0.5); // sanity
                                                                   // The big build must include partitioning I/O beyond pure CPU scaling.
        let pure_cpu = big.rows * (m.p.cpu_tuple + m.p.hash_build);
        assert!(hj_big.cost > pure_cpu);
    }
}
