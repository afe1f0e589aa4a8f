//! Bushy dynamic-programming join enumeration with interesting orders.
//!
//! The memo stores, per connected relation subset, the cheapest entry for
//! each delivered sort order (System-R interesting orders, with order
//! identity = equivalence class of join columns). Entries reference child
//! entries by `(slot, index)`, so no plan trees are built during
//! enumeration; the winning tree is reconstructed once at the end.
//!
//! POSP generation calls the optimizer at thousands of grid points of one
//! query, so everything that does not depend on the location `q` is worked
//! out once, by [`Optimizer::new`], into a [`Skeleton`]: the connected
//! subsets of the inner-join core in ascending mask order, each one's
//! `{s1, s2}` partitions, the interned crossing-edge sets with what the join
//! operators need to know about them, per-relation catalog constants and
//! access-path templates, and per memo slot the ESS dimensions its entries
//! can depend on. A call resolves the selectivities at `q` once, walks the
//! skeleton calling the [`formulas`] directly, and folds each candidate
//! into its slot's per-order winners as it is costed; the only memory it
//! allocates is the winning plan tree.
//!
//! A grid sweep asks for more than thousands of independent calls would
//! give it. A memo slot is a pure function of the selectivities inside its
//! subset, so over a grid it takes one value per point of the grid's
//! projection onto *the slot's own* dimensions — not one per grid point. A
//! [`Sweep`] fills every slot that does not depend on all of the grid's
//! dimensions once per point of that sub-grid, before the grid is walked
//! (see [`Rows`]); a step of the walk then fills only the few slots that do
//! depend on every dimension, reads the others out of their rows, and
//! compares the winner's derivation with the previous step's so that a tree
//! is built only when the winner changed. [`Optimizer::optimize`], which
//! answers at one arbitrary location, is the same code with no rows: every
//! slot is filled by the call.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;

use pb_catalog::{Catalog, ColumnId};
use pb_cost::{formulas, CostModel, CostParams, Ess, NodeCost};
use pb_plan::{DimId, JoinGraph, PhysicalPlan, PlanNode, QuerySpec, RelIdx, SelSpec};

/// Result of one optimization call: the optimal plan plus its estimates.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    pub plan: PhysicalPlan,
    pub cost: f64,
    pub rows: f64,
}

/// Equivalence classes of join columns (transitively merged through join
/// edges); sort orders are identified by class id.
#[derive(Debug, Clone)]
struct ColClasses {
    map: HashMap<(RelIdx, ColumnId), usize>,
}

impl ColClasses {
    fn build(query: &QuerySpec) -> Self {
        // Union-find over the (rel, col) endpoints of join edges.
        let mut keys: Vec<(RelIdx, ColumnId)> = Vec::new();
        let mut index = HashMap::new();
        let mut parent: Vec<usize> = Vec::new();
        let intern = |k: (RelIdx, ColumnId),
                      keys: &mut Vec<(RelIdx, ColumnId)>,
                      parent: &mut Vec<usize>,
                      index: &mut HashMap<(RelIdx, ColumnId), usize>| {
            *index.entry(k).or_insert_with(|| {
                keys.push(k);
                parent.push(keys.len() - 1);
                keys.len() - 1
            })
        };
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for j in &query.joins {
            // Inequality edges do not equate their endpoints — a sort order
            // on one side says nothing about the other — so they contribute
            // no equivalence-class merges (and no interesting orders).
            if !j.is_equi() {
                continue;
            }
            let a = intern((j.left_rel, j.left_col), &mut keys, &mut parent, &mut index);
            let b = intern(
                (j.right_rel, j.right_col),
                &mut keys,
                &mut parent,
                &mut index,
            );
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        // Canonicalise to root representative.
        let mut map = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            let r = find(&mut parent, i);
            map.insert(*k, r);
        }
        ColClasses { map }
    }

    fn class_of(&self, rel: RelIdx, col: ColumnId) -> Option<usize> {
        self.map.get(&(rel, col)).copied()
    }
}

/// Reference to a finalized memo entry: its slot and its index within it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EntryRef {
    slot: u32,
    idx: u32,
}

/// Compact operator descriptor; trees are materialized only for the winner.
/// Joins name their crossing edges by [`Skeleton::edge_sets`] id.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EntryOp {
    SeqScan(RelIdx),
    IndexScan(RelIdx, usize),
    FullIndexScan(RelIdx, ColumnId),
    Hash {
        build: EntryRef,
        probe: EntryRef,
        edges: u32,
    },
    Merge {
        left: EntryRef,
        right: EntryRef,
        edges: u32,
        sort_left: bool,
        sort_right: bool,
    },
    Inl {
        outer: EntryRef,
        inner_rel: RelIdx,
        edges: u32,
    },
    Bnl {
        outer: EntryRef,
        inner: EntryRef,
        edges: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct DpEntry {
    order: Option<usize>,
    op: EntryOp,
    est: NodeCost,
}

/// One way to read a relation, minus the selectivities.
#[derive(Debug, Clone, Copy)]
enum AccessPath {
    Seq,
    /// Index scan driven by selection `sel_idx`.
    Index {
        sel_idx: usize,
        height: f64,
        order: Option<usize>,
    },
    /// Order-producing full scan through the index on a join column.
    FullIndex {
        column: ColumnId,
        order: usize,
    },
}

/// Catalog constants and access paths of one query relation.
#[derive(Debug)]
struct RelSkel {
    rows: f64,
    pages: f64,
    width: f64,
    leaf_pages: f64,
    /// Number of selection predicates, and where their resolved
    /// selectivities sit in [`Scratch::pred_sel`].
    npred: f64,
    preds: Range<usize>,
    paths: Vec<AccessPath>,
}

/// The inner-join edges crossing a cut — equality edges first, then
/// inequality edges, each group ascending by index. The stable equi-first
/// partition keeps `edges[0]` usable as the lookup / merge key whenever any
/// equality edge crosses the cut (and is the identity permutation for
/// all-equality queries, preserving legacy plans byte-for-byte); inequality
/// edges then cost as residuals. Interned: cuts crossed by the same edges
/// share one set, so its selectivity is resolved once per call.
#[derive(Debug)]
struct EdgeSet {
    edges: Vec<usize>,
    /// Hash, merge and index-NL joins all key on the primary edge, so they
    /// require an equality there; a non-equi `edges[0]` means *every*
    /// crossing edge is an inequality and only block-nested-loops can
    /// evaluate the cut.
    primary_is_equi: bool,
    /// Sort order a merge join on the primary edge needs and delivers.
    merge_class: Option<usize>,
}

/// An unordered partition `{s1, s2}` of a connected subset into two
/// connected halves (`s1 < s2` as masks), by memo slot.
#[derive(Debug)]
struct Partition {
    s1: u32,
    s2: u32,
    edges: u32,
    /// Index nested-loops inner relation per orientation — `[s1 outer,
    /// s2 outer]` — present when the other side is a single base relation
    /// with an index on the primary edge's column.
    inl: [Option<RelIdx>; 2],
}

#[derive(Debug)]
struct Subset {
    #[cfg(test)]
    mask: u32,
    parts: Range<usize>,
}

/// Everything about one query's DP that does not depend on the location.
/// Memo slots are numbered relations first (slot = relation index, hanger
/// relations included), then the multi-relation connected subsets of the
/// core in ascending mask order — the order the DP fills them in, every
/// partition's halves before the subset itself.
#[derive(Debug)]
pub(crate) struct Skeleton {
    rels: Vec<RelSkel>,
    subsets: Vec<Subset>,
    parts: Vec<Partition>,
    edge_sets: Vec<EdgeSet>,
    /// Per memo slot, the ESS dimensions its entries can depend on,
    /// ascending: a relation's are its selections' error dimensions, a
    /// subset's are its halves' plus its crossing edges' over every
    /// partition — every selectivity a fill of the slot, or of a slot
    /// below it, reads. The list is exact at any dimension number, since it
    /// keys the slot's [`Rows`].
    slot_dims: Vec<Vec<DimId>>,
    /// Slot of the whole inner-join core.
    root_slot: u32,
    /// (edge index, hanger relation, is-semi) for anti/semi edges,
    /// ascending by edge — the application order on top of the core.
    hangers: Vec<(usize, RelIdx, bool)>,
    /// (NDV product, output width) of the grouping, if the query groups.
    aggregate: Option<(f64, f64)>,
}

fn dims_of<'s>(specs: impl IntoIterator<Item = &'s SelSpec>) -> impl Iterator<Item = DimId> {
    specs.into_iter().filter_map(SelSpec::error_dim)
}

/// `items` as a set: ascending, each once.
fn set_of<T: Ord>(mut items: Vec<T>) -> Vec<T> {
    items.sort_unstable();
    items.dedup();
    items
}

impl Skeleton {
    pub(crate) fn build(catalog: &Catalog, query: &QuerySpec) -> Self {
        let n = query.num_relations();
        assert!(n <= 16, "DP enumeration limited to 16 relations");
        // Identify existential hanger relations: the side of each anti/semi
        // edge that touches no other edge (the EXISTS / NOT EXISTS subquery
        // relation).
        let degree = |r: RelIdx| {
            query
                .joins
                .iter()
                .filter(|j| j.left_rel == r || j.right_rel == r)
                .count()
        };
        let mut hangers = Vec::new();
        let mut hanger_rels: u32 = 0;
        for (ji, j) in query.joins.iter().enumerate() {
            if j.existential() {
                let rel = if degree(j.right_rel) == 1 {
                    j.right_rel
                } else if degree(j.left_rel) == 1 {
                    j.left_rel
                } else {
                    panic!("anti/semi-join relation must hang off a single edge");
                };
                hangers.push((ji, rel, j.semi));
                hanger_rels |= 1 << rel;
            }
        }
        let core_mask = (((1u64 << n) - 1) as u32) & !hanger_rels;
        assert!(
            core_mask != 0,
            "query must have at least one inner relation"
        );
        let inner_edges: Vec<(usize, usize)> = query
            .joins
            .iter()
            .filter(|j| !j.existential())
            .map(|j| j.rels())
            .collect();
        let graph = JoinGraph::new(n, inner_edges);
        assert!(
            graph.is_subset_connected(core_mask),
            "inner-join core must be connected"
        );
        let classes = ColClasses::build(query);
        let table = |rel: RelIdx| catalog.table_by_id(query.relations[rel].table);

        let mut slot_dims: Vec<Vec<DimId>> = query
            .relations
            .iter()
            .map(|r| set_of(dims_of(r.selections.iter().map(|s| &s.selectivity)).collect()))
            .collect();
        let mut pred_at = 0;
        let rels = (0..n)
            .map(|rel| {
                let t = table(rel);
                let r = &query.relations[rel];
                let mut paths = vec![AccessPath::Seq];
                // Selection-driven index scans.
                for (sel_idx, s) in r.selections.iter().enumerate() {
                    if let Some(ix) = t.index_on(s.column) {
                        paths.push(AccessPath::Index {
                            sel_idx,
                            height: ix.height as f64,
                            order: classes.class_of(rel, s.column),
                        });
                    }
                }
                // Order-producing full index scans on join columns.
                let mut seen_classes = Vec::new();
                for j in &query.joins {
                    if let Some(column) = j.col_on(rel) {
                        if let Some(order) = classes.class_of(rel, column) {
                            if !seen_classes.contains(&order) && t.index_on(column).is_some() {
                                seen_classes.push(order);
                                paths.push(AccessPath::FullIndex { column, order });
                            }
                        }
                    }
                }
                let preds = pred_at..pred_at + r.selections.len();
                pred_at = preds.end;
                RelSkel {
                    rows: t.rows,
                    pages: t.pages(),
                    width: t.row_width as f64,
                    leaf_pages: (t.rows / 256.0).max(1.0),
                    npred: r.selections.len() as f64,
                    preds,
                    paths,
                }
            })
            .collect();

        // DPsize over connected subsets of the inner-join core.
        let mut slot_of: HashMap<u32, u32> = (0..n).map(|r| (1 << r, r as u32)).collect();
        let mut set_ids: HashMap<Vec<usize>, u32> = HashMap::new();
        let mut edge_sets: Vec<EdgeSet> = Vec::new();
        let mut subsets = Vec::new();
        let mut parts = Vec::new();
        for mask in 1..=core_mask {
            if mask & !core_mask != 0 || mask.count_ones() < 2 || !graph.is_subset_connected(mask) {
                continue;
            }
            let first_part = parts.len();
            let mut dims = Vec::new();
            // Enumerate unordered partitions {s1, s2}; orientation is
            // handled per operator during the walk.
            let mut s1 = (mask - 1) & mask;
            while s1 != 0 {
                let s2 = mask & !s1;
                if s1 < s2 && graph.is_subset_connected(s1) && graph.is_subset_connected(s2) {
                    // `mask` is connected, so some inner edge crosses the cut.
                    let edges = cross_edges(query, s1, s2);
                    let primary = &query.joins[edges[0]];
                    let primary_is_equi = primary.is_equi();
                    // Index nested-loops: the inner side must be a single
                    // base relation with an index on the lookup column.
                    let inl = |inner_mask: u32| {
                        let inner = inner_mask.trailing_zeros() as usize;
                        (primary_is_equi
                            && inner_mask.count_ones() == 1
                            && primary
                                .col_on(inner)
                                .is_some_and(|col| table(inner).index_on(col).is_some()))
                        .then_some(inner)
                    };
                    let inl = [inl(s2), inl(s1)];
                    let (slot1, slot2) = (slot_of[&s1], slot_of[&s2]);
                    dims.extend_from_slice(&slot_dims[slot1 as usize]);
                    dims.extend_from_slice(&slot_dims[slot2 as usize]);
                    dims.extend(dims_of(edges.iter().map(|&e| &query.joins[e].selectivity)));
                    let id = *set_ids.entry(edges).or_insert_with_key(|edges| {
                        edge_sets.push(EdgeSet {
                            edges: edges.clone(),
                            primary_is_equi,
                            merge_class: primary_is_equi
                                .then(|| classes.class_of(primary.left_rel, primary.left_col))
                                .flatten(),
                        });
                        (edge_sets.len() - 1) as u32
                    });
                    parts.push(Partition {
                        s1: slot1,
                        s2: slot2,
                        edges: id,
                        inl,
                    });
                }
                s1 = (s1 - 1) & mask;
            }
            slot_of.insert(mask, (n + subsets.len()) as u32);
            slot_dims.push(set_of(dims));
            subsets.push(Subset {
                #[cfg(test)]
                mask,
                parts: first_part..parts.len(),
            });
        }

        let aggregate = (!query.group_by.is_empty()).then(|| {
            let ndv_product: f64 = query
                .group_by
                .iter()
                .map(|&(rel, col)| table(rel).columns[col.column as usize].stats.ndv.max(1.0))
                .product();
            (ndv_product, (query.group_by.len() as f64 + 1.0) * 8.0)
        });
        Skeleton {
            rels,
            subsets,
            parts,
            edge_sets,
            slot_dims,
            root_slot: slot_of[&core_mask],
            hangers,
            aggregate,
        }
    }
}

#[cfg(test)]
impl Skeleton {
    /// Candidate-generation calls one fill of `slot` makes: one per access
    /// path of a relation, two per partition of a subset.
    fn slot_calls(&self, slot: usize) -> usize {
        match slot.checked_sub(self.rels.len()) {
            None => self.rels[slot].paths.len(),
            Some(sub) => 2 * self.subsets[sub].parts.len(),
        }
    }
}

/// Cross inner-join edges between disjoint subsets, in [`EdgeSet`] order.
fn cross_edges(query: &QuerySpec, a: u32, b: u32) -> Vec<usize> {
    let crossing = query.joins.iter().enumerate().filter(|(_, j)| {
        let (l, r) = (1u32 << j.left_rel, 1u32 << j.right_rel);
        !j.existential() && ((l & a != 0 && r & b != 0) || (l & b != 0 && r & a != 0))
    });
    let (equi, ineq): (Vec<_>, Vec<_>) = crossing.partition(|(_, j)| j.is_equi());
    equi.into_iter().chain(ineq).map(|(i, _)| i).collect()
}

/// The candidates of the slot being filled, reduced as they arrive to the
/// cheapest one per delivered order. In the cost-ascending (ties: first
/// generated) order a stable sort of all candidates would produce, only the
/// first entry of each order can survive pruning — a later one is dropped
/// for sharing its order, or, if that first one was itself beaten by
/// re-sorting the cheapest unordered entry, beaten by the same entry — so
/// nothing else needs to be kept, let alone sorted.
#[derive(Debug, Default)]
struct Winners {
    /// (entry, generation sequence number).
    best: Vec<(DpEntry, u32)>,
    offered: u32,
}

impl Winners {
    fn clear(&mut self) {
        self.best.clear();
        self.offered = 0;
    }

    fn offer(&mut self, order: Option<usize>, op: EntryOp, est: NodeCost) {
        let cand = (DpEntry { order, op, est }, self.offered);
        self.offered += 1;
        match self.best.iter_mut().find(|(b, _)| b.order == order) {
            // Strictly cheaper only: a tie keeps the earlier candidate.
            Some(b) => {
                if est.cost.total_cmp(&b.0.est.cost).is_lt() {
                    *b = cand;
                }
            }
            None => self.best.push(cand),
        }
    }
}

/// Where a slot's entries sit in an entry arena: `len` entries from `off`,
/// at most one per delivered order, cheapest first (ties in generation
/// order), so the first is the slot's cheapest.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    off: u32,
    len: u32,
}

/// Append the entries of the slot whose candidates `winners` holds to
/// `arena`: of the per-order winners, cheapest first, the unordered one and
/// every ordered one that re-sorting a cheaper unordered one does not beat.
fn close_slot(p: &CostParams, winners: &mut Winners, arena: &mut Vec<DpEntry>) -> Span {
    winners
        .best
        .sort_unstable_by(|(a, sa), (b, sb)| a.est.cost.total_cmp(&b.est.cost).then(sa.cmp(sb)));
    let off = arena.len();
    let mut resorted = None;
    for (e, _) in &winners.best {
        match e.order {
            None => resorted = Some(e.est.cost + formulas::sort_cost(p, &e.est)),
            // An unordered cheaper plan only dominates if adding an explicit
            // sort still beats `e`.
            Some(_) if resorted.is_some_and(|sorted| sorted <= e.est.cost) => continue,
            Some(_) => {}
        }
        arena.push(*e);
    }
    Span {
        off: u32::try_from(off).expect("a memo holds fewer than 2^32 entries"),
        len: (arena.len() - off) as u32,
    }
}

/// The rows of one slot, row-major over the slot's own dimensions.
#[derive(Debug)]
struct SlotRows {
    /// `(dimension, row multiplier)` per dimension of the slot: the row at
    /// grid coordinates `ix` is number `Σ ix[d] · mul`.
    muls: Vec<(DimId, usize)>,
    /// Row `r` is `entries[offs[r]..offs[r + 1]]`.
    offs: Vec<u32>,
    entries: Vec<DpEntry>,
}

/// What a [`Sweep`] works out before it walks the grid: for every slot that
/// does not depend on all of the grid's dimensions, one row — the slot's
/// entries — per point of the grid's projection onto the slot's dimensions
/// ([`Skeleton::slot_dims`]).
///
/// Rows are filled slot by slot in the DP's fill order, each slot over its
/// whole sub-grid. A slot reads the slots of its sub-subsets, whose
/// dimension sets its own contains: they are complete by then, and the row
/// of theirs that a row of this slot reads is the one at the projection of
/// its own coordinates. By induction a row holds exactly what a fresh
/// optimizer call anywhere above that sub-grid point would write into the
/// slot, so entries may name their inputs by `(slot, idx)` as they always
/// did: at a grid point, every slot is read at that point's projection.
///
/// Rows are built by [`Sweep::new`], before anything reads them, and are
/// never written again: there is no "filled" mark to get wrong, a build
/// that unwinds leaves no `Rows` behind, and the workers of a grid pass
/// share one copy read-only. A slot's entries sit back to back — a row
/// takes what the slot kept there, not one entry per order class of the
/// query — in an allocation of exactly their size.
///
/// A plain [`Optimizer`] has the instance without rows: every slot is
/// filled per call.
#[derive(Debug, Default)]
struct Rows {
    /// Per slot; `None` for the slots filled per step.
    slots: Vec<Option<SlotRows>>,
    /// The slots without rows, in fill order.
    per_step: Vec<u32>,
    /// Candidate-generation calls (one per access path, two per partition)
    /// made on behalf of these rows or of steps over them.
    #[cfg(test)]
    calls: std::sync::atomic::AtomicUsize,
}

impl Rows {
    /// No rows: all of `slots` slots are filled per call.
    fn none(slots: usize) -> Self {
        let mut rows = Rows::default();
        rows.slots.resize_with(slots, || None);
        rows.per_step.extend(0..slots as u32);
        rows
    }

    /// Rows for every slot of `dp`'s query that depends on fewer dimensions
    /// than the grid with selectivity tables `axes` has.
    fn build(dp: &Dp<'_>, axes: &[Vec<f64>]) -> Self {
        let sk = dp.sk;
        let mut rows = Rows::default();
        let mut scratch = Scratch::new(sk);
        // A slot's rows are filled into buffers every slot reuses, then
        // kept in allocations of exactly their size.
        let (mut entries, mut offs) = (Vec::new(), Vec::new());
        // The coordinates outside a slot's dimensions stay at step 0, where
        // nothing in the slot looks.
        let mut q: Vec<f64> = axes.iter().map(|axis| axis[0]).collect();
        let mut ix = vec![0; axes.len()];
        for (slot, dims) in sk.slot_dims.iter().enumerate() {
            if dims.len() == axes.len() {
                rows.slots.push(None);
                rows.per_step.push(slot as u32);
                continue;
            }
            let mut muls = Vec::with_capacity(dims.len());
            let mut n = 1;
            for &d in dims.iter().rev() {
                muls.push((d, n));
                n *= axes[d].len();
            }
            muls.reverse();

            entries.clear();
            offs.clear();
            offs.push(0);
            // Row-major over the slot's dimensions, from the origin back to
            // the origin.
            for _ in 0..n {
                for &d in dims {
                    q[d] = axes[d][ix[d]];
                }
                scratch.sels.resolve(dp.query, sk, &q);
                let memo = View {
                    rows: &rows,
                    ix: &ix,
                    local: &scratch.local,
                };
                candidates(dp, &scratch.sels, memo, slot, &mut scratch.winners);
                close_slot(dp.p, &mut scratch.winners, &mut entries);
                offs.push(u32::try_from(entries.len()).expect("a slot's rows hold 2^32 entries"));
                for &d in dims.iter().rev() {
                    ix[d] += 1;
                    if ix[d] < axes[d].len() {
                        break;
                    }
                    ix[d] = 0;
                }
            }
            rows.slots.push(Some(SlotRows {
                muls,
                offs: offs.clone(),
                entries: entries.clone(),
            }));
        }
        rows
    }

    /// The row of `slot` at grid coordinates `ix`, if the slot has rows.
    fn row(&self, slot: u32, ix: &[usize]) -> Option<&[DpEntry]> {
        let SlotRows {
            muls,
            offs,
            entries,
        } = self.slots[slot as usize].as_ref()?;
        let row: usize = muls.iter().map(|&(d, mul)| ix[d] * mul).sum();
        Some(&entries[offs[row] as usize..offs[row + 1] as usize])
    }
}

/// The slots one call fills for itself: an entry arena and, per slot filled,
/// where in it. Overwritten by every call.
#[derive(Debug)]
struct Local {
    entries: Vec<DpEntry>,
    spans: Vec<Span>,
}

/// The memo at one location: every slot, out of its row there if it has
/// rows and out of what the call filled if not.
#[derive(Clone, Copy)]
struct View<'m> {
    rows: &'m Rows,
    /// Grid coordinates of the location; read only if there are rows.
    ix: &'m [usize],
    local: &'m Local,
}

impl<'m> View<'m> {
    fn slot(&self, slot: u32) -> &'m [DpEntry] {
        self.rows.row(slot, self.ix).unwrap_or_else(|| {
            let Span { off, len } = self.local.spans[slot as usize];
            &self.local.entries[off as usize..(off + len) as usize]
        })
    }

    fn entry(&self, r: EntryRef) -> &'m DpEntry {
        &self.slot(r.slot)[r.idx as usize]
    }

    /// The cheapest entry's estimate.
    fn cheapest(&self, slot: u32) -> NodeCost {
        let first = self.slot(slot).first();
        first.expect("query join graph must be connected").est
    }
}

/// Every selectivity of the query at one location, clamped.
#[derive(Debug, Default)]
struct Sels {
    /// Every selection's, relation by relation.
    pred_sel: Vec<f64>,
    /// Per relation: product of its selections' selectivities.
    rel_sel: Vec<f64>,
    /// Per join edge.
    edge_sel: Vec<f64>,
    /// Per edge set: product over all its edges, and over all but the
    /// primary (the primary's own is `edge_sel[edges[0]]`).
    set_sel: Vec<(f64, f64)>,
}

impl Sels {
    /// Resolve at `q`, multiplying in predicate order exactly as
    /// `CostProgram` (and the tree-walk reference) do.
    fn resolve(&mut self, query: &QuerySpec, sk: &Skeleton, q: &[f64]) {
        let Sels {
            pred_sel,
            rel_sel,
            edge_sel,
            set_sel,
        } = self;
        let resolve = |s: &SelSpec| s.resolve(q).clamp(0.0, 1.0);
        pred_sel.clear();
        rel_sel.clear();
        for (r, rs) in query.relations.iter().zip(&sk.rels) {
            pred_sel.extend(r.selections.iter().map(|s| resolve(&s.selectivity)));
            rel_sel.push(pred_sel[rs.preds.clone()].iter().product());
        }
        edge_sel.clear();
        edge_sel.extend(query.joins.iter().map(|j| resolve(&j.selectivity)));
        set_sel.clear();
        set_sel.extend(sk.edge_sets.iter().map(|set| {
            let product = |edges: &[usize]| edges.iter().map(|&e| edge_sel[e]).product::<f64>();
            (product(&set.edges), product(&set.edges[1..]))
        }));
    }
}

/// What filling slots takes besides the query: plain scratch, overwritten
/// by every call and sized by the first.
#[derive(Debug)]
struct Scratch {
    sels: Sels,
    winners: Winners,
    local: Local,
}

impl Scratch {
    fn new(sk: &Skeleton) -> Self {
        Scratch {
            sels: Sels::default(),
            winners: Winners::default(),
            local: Local {
                entries: Vec::new(),
                spans: vec![Span::default(); sk.slot_dims.len()],
            },
        }
    }
}

/// A query's DP, minus the scratch a call works in.
#[derive(Clone, Copy)]
struct Dp<'a> {
    query: &'a QuerySpec,
    p: &'a CostParams,
    sk: &'a Skeleton,
}

/// Offer `winners` every candidate of `slot` — each access path of a
/// relation, each join of either orientation across each partition of a
/// subset — at the location `sels` was resolved at.
fn candidates(dp: &Dp<'_>, sels: &Sels, memo: View<'_>, slot: usize, winners: &mut Winners) {
    let Dp { p, sk, .. } = *dp;
    winners.clear();
    #[cfg(test)]
    (memo.rows.calls).fetch_add(sk.slot_calls(slot), std::sync::atomic::Ordering::Relaxed);
    let Some(sub) = slot.checked_sub(sk.rels.len()) else {
        let (rel, rs) = (slot, &sk.rels[slot]);
        let preds = &sels.pred_sel[rs.preds.clone()];
        let rel_sel = sels.rel_sel[rel];
        for path in &rs.paths {
            match *path {
                AccessPath::Seq => winners.offer(
                    None,
                    EntryOp::SeqScan(rel),
                    formulas::seq_scan(p, rs.rows, rs.pages, rs.width, rs.npred, rel_sel),
                ),
                AccessPath::Index {
                    sel_idx,
                    height,
                    order,
                } => {
                    let residual: f64 = preds
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != sel_idx)
                        .map(|(_, s)| s)
                        .product();
                    winners.offer(
                        order,
                        EntryOp::IndexScan(rel, sel_idx),
                        formulas::index_scan(
                            p,
                            rs.rows,
                            rs.width,
                            height,
                            rs.leaf_pages,
                            rs.npred,
                            preds[sel_idx],
                            residual,
                        ),
                    );
                }
                AccessPath::FullIndex { column, order } => winners.offer(
                    Some(order),
                    EntryOp::FullIndexScan(rel, column),
                    formulas::full_index_scan(
                        p,
                        rs.rows,
                        rs.width,
                        rs.leaf_pages,
                        rs.npred,
                        rel_sel,
                    ),
                ),
            }
        }
        return;
    };
    let parts = &sk.parts[sk.subsets[sub].parts.clone()];
    let filled = Filled {
        p,
        rels: &sk.rels,
        rel_sel: &sels.rel_sel,
    };
    for part in parts {
        let set = &sk.edge_sets[part.edges as usize];
        let (all, rest) = sels.set_sel[part.edges as usize];
        let sels = (all, sels.edge_sel[set.edges[0]], rest);
        let [inl1, inl2] = part.inl;
        let (s1, s2) = ((part.s1, memo.slot(part.s1)), (part.s2, memo.slot(part.s2)));
        filled.join_candidates(s1, s2, inl1, part.edges, set, sels, winners);
        filled.join_candidates(s2, s1, inl2, part.edges, set, sels, winners);
    }
}

/// Fill every slot `rows` leaves to the call, at location `q` — grid
/// coordinates `ix`, if there are rows — and cost the winner: existential
/// operators on top of the core, each against its relation's cheapest
/// access path, in edge order; then aggregation, if the query groups.
/// [`winner_tree`] builds the same shape.
fn solve(dp: &Dp<'_>, rows: &Rows, q: &[f64], ix: &[usize], scratch: &mut Scratch) -> NodeCost {
    let Dp { query, p, sk } = *dp;
    let Scratch {
        sels,
        winners,
        local,
    } = scratch;
    sels.resolve(query, sk, q);
    local.entries.clear();
    for &slot in &rows.per_step {
        let memo = View { rows, ix, local };
        candidates(dp, sels, memo, slot as usize, winners);
        local.spans[slot as usize] = close_slot(p, winners, &mut local.entries);
    }

    let memo = View { rows, ix, local };
    let mut est = memo.cheapest(sk.root_slot);
    for &(edge, rel, semi) in &sk.hangers {
        let right = memo.cheapest(rel as u32);
        est = if semi {
            formulas::semi_join(p, &est, &right, sels.edge_sel[edge])
        } else {
            formulas::anti_join(p, &est, &right, sels.edge_sel[edge])
        };
    }
    if let Some((ndv_product, width)) = sk.aggregate {
        est = formulas::hash_aggregate(p, &est, ndv_product, width);
    }
    est
}

/// What join enumeration reads while it fills one slot.
struct Filled<'a> {
    p: &'a CostParams,
    rels: &'a [RelSkel],
    rel_sel: &'a [f64],
}

impl Filled<'_> {
    /// Offer every join of slot `left` (the left/outer/build side), whose
    /// entries are `lefts`, with `right` across `set`, whose resolved
    /// selectivities are `all` (every edge), `primary` and `rest` (every
    /// edge but the primary).
    #[allow(clippy::too_many_arguments)]
    fn join_candidates(
        &self,
        (left, lefts): (u32, &[DpEntry]),
        (right, rights): (u32, &[DpEntry]),
        inl_inner: Option<RelIdx>,
        set_id: u32,
        set: &EdgeSet,
        (all, primary, rest): (f64, f64, f64),
        winners: &mut Winners,
    ) {
        if lefts.is_empty() || rights.is_empty() {
            return;
        }
        let p = self.p;
        let at = |slot: u32, idx: usize| EntryRef {
            slot,
            idx: idx as u32,
        };
        let (lref, rref) = (at(left, 0), at(right, 0));
        let (l, r) = (&lefts[0].est, &rights[0].est);
        let nedges = set.edges.len() as f64;

        // Hash join: left side builds.
        if set.primary_is_equi {
            winners.offer(
                None,
                EntryOp::Hash {
                    build: lref,
                    probe: rref,
                    edges: set_id,
                },
                formulas::hash_join(p, l, r, all, nedges),
            );
        }

        // Sort-merge join on the primary edge's class: try (cheapest +
        // explicit sort) and (pre-ordered entry, no sort) on each side.
        if let Some(cls) = set.merge_class {
            let pick = |entries: &[DpEntry]| {
                let ordered = entries.iter().position(|e| e.order == Some(cls));
                [Some((0, true)), ordered.map(|i| (i, false))]
                    .into_iter()
                    .flatten()
            };
            for (lidx, sort_left) in pick(lefts) {
                for (ridx, sort_right) in pick(rights) {
                    winners.offer(
                        Some(cls),
                        EntryOp::Merge {
                            left: at(left, lidx),
                            right: at(right, ridx),
                            edges: set_id,
                            sort_left,
                            sort_right,
                        },
                        formulas::merge_join(
                            p,
                            &lefts[lidx].est,
                            &rights[ridx].est,
                            all,
                            nedges,
                            sort_left,
                            sort_right,
                        ),
                    );
                }
            }
        }

        // Index nested-loops: the lookup key is the primary edge, the inner
        // relation's own selections are residuals. Preserves the outer's
        // order, so every outer memo entry is a candidate.
        if let Some(inner_rel) = inl_inner {
            let inner = &self.rels[inner_rel];
            let npred = inner.npred + (nedges - 1.0).max(0.0);
            for (lidx, le) in lefts.iter().enumerate() {
                winners.offer(
                    le.order,
                    EntryOp::Inl {
                        outer: at(left, lidx),
                        inner_rel,
                        edges: set_id,
                    },
                    formulas::index_nl_join(
                        p,
                        &le.est,
                        inner.rows,
                        inner.width,
                        primary,
                        rest,
                        self.rel_sel[inner_rel],
                        npred,
                    ),
                );
            }
        }

        // Block nested-loops (materialized inner).
        winners.offer(
            None,
            EntryOp::Bnl {
                outer: lref,
                inner: rref,
                edges: set_id,
            },
            formulas::block_nl_join(p, l, r, all, set.edges.len().max(1) as f64),
        );
    }
}

/// The dynamic-programming optimizer, bound to (catalog, query, model).
///
/// Existential edges (anti-join / NOT EXISTS and semi-join / EXISTS) are
/// not freely reorderable with inner joins; following common practice the
/// DP enumerates the inner-join core and the existential operators are
/// applied on top in edge order, each against its relation's cheapest
/// access path. Inequality (`<` / `>`) edges *are* part of the core — they
/// connect the join graph like any inner edge — but they produce no sort
/// orders and only block-nested-loops can use one as its primary edge.
///
/// One optimizer serves one thread: calls share scratch. Nothing a call
/// leaves in it is read by the next — every call fills every slot — so a
/// call's result does not depend on the calls before it.
pub struct Optimizer<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a QuerySpec,
    pub model: &'a CostModel,
    skeleton: Skeleton,
    rows: Rows,
    scratch: RefCell<Scratch>,
}

impl<'a> Optimizer<'a> {
    pub fn new(catalog: &'a Catalog, query: &'a QuerySpec, model: &'a CostModel) -> Self {
        let skeleton = Skeleton::build(catalog, query);
        Optimizer {
            catalog,
            query,
            model,
            rows: Rows::none(skeleton.slot_dims.len()),
            scratch: RefCell::new(Scratch::new(&skeleton)),
            skeleton,
        }
    }

    /// Optimize the query at ESS location `q`; returns the cheapest plan.
    pub fn optimize(&self, q: &[f64]) -> OptimizedPlan {
        let dp = Dp {
            query: self.query,
            p: &self.model.p,
            sk: &self.skeleton,
        };
        let scratch = &mut *self.scratch.borrow_mut();
        let est = solve(&dp, &self.rows, q, &[], scratch);
        let memo = View {
            rows: &self.rows,
            ix: &[],
            local: &scratch.local,
        };
        OptimizedPlan {
            plan: winner_tree(&self.skeleton, memo),
            cost: est.cost,
            rows: est.rows,
        }
    }
}

/// One query's DP over one ESS grid: the [`Rows`] of every slot that does
/// not depend on all of the grid's dimensions, built once, here, and read
/// by every [`SweepCursor`] — one per worker — that steps over the grid.
pub struct Sweep<'a> {
    query: &'a QuerySpec,
    model: &'a CostModel,
    ess: &'a Ess,
    skeleton: Skeleton,
    /// Per axis of the grid, the selectivity at each of its steps.
    axes: Vec<Vec<f64>>,
    rows: Rows,
}

impl<'a> Sweep<'a> {
    /// Build the rows over `ess`'s grid.
    pub fn new(
        catalog: &'a Catalog,
        query: &'a QuerySpec,
        model: &'a CostModel,
        ess: &'a Ess,
    ) -> Self {
        let mut sweep = Sweep {
            query,
            model,
            ess,
            skeleton: Skeleton::build(catalog, query),
            axes: ess.axes(),
            rows: Rows::default(),
        };
        sweep.rows = Rows::build(&sweep.dp(), &sweep.axes);
        sweep
    }

    fn dp(&self) -> Dp<'_> {
        Dp {
            query: self.query,
            p: &self.model.p,
            sk: &self.skeleton,
        }
    }

    /// The grid this sweep was built over.
    pub fn ess(&self) -> &'a Ess {
        self.ess
    }

    /// A stepper over this sweep's grid, with scratch of its own.
    pub fn cursor(&self) -> SweepCursor<'_> {
        // A derivation names every node of a plan over the relations.
        let nodes = 2 * self.skeleton.rels.len();
        SweepCursor {
            sweep: self,
            q: Vec::with_capacity(self.axes.len()),
            scratch: Scratch::new(&self.skeleton),
            derivation: Vec::with_capacity(nodes),
            prev_derivation: Vec::with_capacity(nodes),
            live: false,
        }
    }
}

/// One worker's walk over a [`Sweep`]'s grid. It remembers the derivation
/// of the last step that returned ([`derive`]) and compares the next step's
/// with it, so a run of steps with one winner builds one tree. `live` says
/// that derivation is in place: a step clears it on entry and sets it on
/// success, so a step that unwinds leaves nothing the next would trust.
pub struct SweepCursor<'s> {
    sweep: &'s Sweep<'s>,
    q: Vec<f64>,
    scratch: Scratch,
    derivation: Vec<EntryOp>,
    /// The derivation before `derivation`; the two swap on every step.
    prev_derivation: Vec<EntryOp>,
    live: bool,
}

impl SweepCursor<'_> {
    /// Optimize at grid coordinates `ix`: the optimal cost there, and the
    /// optimal plan only if it may differ from the one the previous step of
    /// this cursor found — `None` means the same plan again, and no tree
    /// was built. Steps may visit the grid in any order.
    pub fn step(&mut self, ix: &[usize]) -> (Option<PhysicalPlan>, f64) {
        let was_live = std::mem::replace(&mut self.live, false);
        let Sweep {
            skeleton: sk,
            axes,
            rows,
            ..
        } = self.sweep;
        assert_eq!(ix.len(), axes.len(), "grid coordinates of another grid");
        self.q.clear();
        self.q
            .extend(axes.iter().zip(ix).map(|(axis, &step)| axis[step]));
        let est = solve(&self.sweep.dp(), rows, &self.q, ix, &mut self.scratch);
        let memo = View {
            rows,
            ix,
            local: &self.scratch.local,
        };
        std::mem::swap(&mut self.derivation, &mut self.prev_derivation);
        derive(sk, memo, &mut self.derivation);
        self.live = true;
        let repeat = was_live && self.derivation == self.prev_derivation;
        ((!repeat).then(|| winner_tree(sk, memo)), est.cost)
    }
}

/// The plan of the winner in `memo`, as [`solve`] costed it.
fn winner_tree(sk: &Skeleton, memo: View<'_>) -> PhysicalPlan {
    let tree = |slot: u32| build_tree(sk, memo, EntryRef { slot, idx: 0 });
    let mut root = tree(sk.root_slot);
    for &(edge, rel, semi) in &sk.hangers {
        let (left, right) = (Box::new(root), Box::new(tree(rel as u32)));
        let edges = vec![edge];
        root = if semi {
            PlanNode::SemiJoin { left, right, edges }
        } else {
            PlanNode::AntiJoin { left, right, edges }
        };
    }
    if sk.aggregate.is_some() {
        root = PlanNode::HashAggregate {
            input: Box::new(root),
        };
    }
    PhysicalPlan::new(root)
}

/// The memo entries a join reads its inputs from.
fn inputs(op: &EntryOp) -> [Option<EntryRef>; 2] {
    match *op {
        EntryOp::SeqScan(_) | EntryOp::IndexScan(..) | EntryOp::FullIndexScan(..) => [None, None],
        EntryOp::Hash { build, probe, .. } => [Some(build), Some(probe)],
        EntryOp::Merge { left, right, .. } => [Some(left), Some(right)],
        EntryOp::Inl { outer, .. } => [Some(outer), None],
        EntryOp::Bnl { outer, inner, .. } => [Some(outer), Some(inner)],
    }
}

/// Write the winner's derivation into `out`: the op of the core's cheapest
/// entry, of each hanger's cheapest access path, and then, breadth first, of
/// every entry those read. An op names its inputs by `(slot, idx)`, so the
/// sequence says where the walk went as well as what it found: two memos
/// with equal derivations give [`build_tree`] nothing to tell them apart,
/// and their winning plans are equal. (Equal plans can still derive
/// differently — an input's `idx` moves when a cheaper entry joins its
/// slot — which costs a tree, never correctness.) Allocates nothing once
/// `out` has held a derivation of the query.
fn derive(sk: &Skeleton, memo: View<'_>, out: &mut Vec<EntryOp>) {
    let top = |slot: u32| memo.entry(EntryRef { slot, idx: 0 }).op;
    out.clear();
    out.push(top(sk.root_slot));
    out.extend(sk.hangers.iter().map(|&(_, rel, _)| top(rel as u32)));
    let mut walked = 0;
    while walked < out.len() {
        let read = inputs(&out[walked]);
        out.extend(read.into_iter().flatten().map(|r| memo.entry(r).op));
        walked += 1;
    }
}

fn build_tree(sk: &Skeleton, memo: View<'_>, r: EntryRef) -> PlanNode {
    let sub = |r: EntryRef| Box::new(build_tree(sk, memo, r));
    let edges = |id: u32| sk.edge_sets[id as usize].edges.clone();
    match memo.entry(r).op {
        EntryOp::SeqScan(rel) => PlanNode::SeqScan { rel },
        EntryOp::IndexScan(rel, sel_idx) => PlanNode::IndexScan { rel, sel_idx },
        EntryOp::FullIndexScan(rel, column) => PlanNode::FullIndexScan { rel, column },
        EntryOp::Hash {
            build,
            probe,
            edges: id,
        } => PlanNode::HashJoin {
            build: sub(build),
            probe: sub(probe),
            edges: edges(id),
        },
        EntryOp::Merge {
            left,
            right,
            edges: id,
            sort_left,
            sort_right,
        } => PlanNode::SortMergeJoin {
            left: sub(left),
            right: sub(right),
            edges: edges(id),
            sort_left,
            sort_right,
        },
        EntryOp::Inl {
            outer,
            inner_rel,
            edges: id,
        } => PlanNode::IndexNLJoin {
            outer: sub(outer),
            inner_rel,
            edges: edges(id),
        },
        EntryOp::Bnl {
            outer,
            inner,
            edges: id,
        } => PlanNode::BlockNLJoin {
            outer: sub(outer),
            inner: sub(inner),
            edges: edges(id),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::{Coster, EssDim, Parallelism};
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn eq_query() -> (pb_catalog::Catalog, QuerySpec) {
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
        (cat.clone(), qb.build())
    }

    #[test]
    fn optimizer_produces_complete_plan() {
        let (cat, q) = eq_query();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let best = opt.optimize(&[0.01]);
        assert_eq!(best.plan.root.rels_mask(), 0b111);
        assert!(best.cost > 0.0 && best.cost.is_finite());
        assert!(best.rows > 0.0);
    }

    #[test]
    fn optimizer_cost_matches_abstract_recosting() {
        let (cat, q) = eq_query();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let c = Coster::new(&cat, &q, &m);
        for s in [1e-4, 1e-3, 1e-2, 0.1, 1.0] {
            let best = opt.optimize(&[s]);
            let recost = c.plan_cost(&best.plan.root, &[s]);
            assert!(
                (best.cost - recost).abs() < 1e-6 * best.cost,
                "s={s}: dp={} recost={}",
                best.cost,
                recost
            );
        }
    }

    #[test]
    fn plan_changes_across_the_selectivity_range() {
        let (cat, q) = eq_query();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let lo = opt.optimize(&[1e-4]).plan.fingerprint();
        let hi = opt.optimize(&[1.0]).plan.fingerprint();
        assert_ne!(lo, hi, "POSP must contain more than one plan");
    }

    #[test]
    fn optimization_is_deterministic() {
        let (cat, q) = eq_query();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let a = opt.optimize(&[0.037]);
        let b = opt.optimize(&[0.037]);
        assert_eq!(a.plan.fingerprint(), b.plan.fingerprint());
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn optimal_cost_is_monotone_in_selectivity() {
        let (cat, q) = eq_query();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let mut last = 0.0;
        for i in 0..30 {
            let s = 1e-4 * 1e4f64.powf(i as f64 / 29.0);
            let cost = opt.optimize(&[s.min(1.0)]).cost;
            assert!(
                cost >= last * (1.0 - 1e-9),
                "PIC not monotone at s={s}: {cost} < {last}"
            );
            last = cost;
        }
    }

    /// Exhaustive cross-check on a 2-relation query: the DP optimum must not
    /// be beaten by any hand-enumerable alternative.
    #[test]
    fn dp_beats_every_handwritten_two_way_plan() {
        let cat = tpch::catalog(0.1);
        let mut qb = QueryBuilder::new(&cat, "two");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        let q = qb.build();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let c = Coster::new(&cat, &q, &m);

        let scans_p = vec![
            PlanNode::SeqScan { rel: 0 },
            PlanNode::IndexScan { rel: 0, sel_idx: 0 },
        ];
        let scans_l = vec![PlanNode::SeqScan { rel: 1 }];
        for s in [1e-4, 0.01, 0.3, 1.0] {
            let best = opt.optimize(&[s]);
            let mut alternatives: Vec<PlanNode> = Vec::new();
            for sp in &scans_p {
                for sl in &scans_l {
                    alternatives.push(PlanNode::HashJoin {
                        build: Box::new(sp.clone()),
                        probe: Box::new(sl.clone()),
                        edges: vec![0],
                    });
                    alternatives.push(PlanNode::HashJoin {
                        build: Box::new(sl.clone()),
                        probe: Box::new(sp.clone()),
                        edges: vec![0],
                    });
                    alternatives.push(PlanNode::SortMergeJoin {
                        left: Box::new(sp.clone()),
                        right: Box::new(sl.clone()),
                        edges: vec![0],
                        sort_left: true,
                        sort_right: true,
                    });
                    alternatives.push(PlanNode::BlockNLJoin {
                        outer: Box::new(sp.clone()),
                        inner: Box::new(sl.clone()),
                        edges: vec![0],
                    });
                }
                alternatives.push(PlanNode::IndexNLJoin {
                    outer: Box::new(sp.clone()),
                    inner_rel: 1,
                    edges: vec![0],
                });
            }
            for alt in &alternatives {
                let alt_cost = c.plan_cost(alt, &[s]);
                assert!(
                    best.cost <= alt_cost * (1.0 + 1e-9),
                    "s={s}: DP {} beaten by {:?} at {}",
                    best.cost,
                    alt,
                    alt_cost
                );
            }
        }
    }

    /// A sweep step returns no plan only when the plan is the previous
    /// step's — and a step after one that unwound always returns its plan.
    #[test]
    fn sweep_step_omits_only_a_repeated_plan() {
        let (cat, q) = eq_query();
        let m = CostModel::postgresish();
        let ess = Ess::uniform(vec![EssDim::new("p_retailprice", 1e-4, 1.0)], 100);
        let sweep = Sweep::new(&cat, &q, &m, &ess);
        let mut cursor = sweep.cursor();
        let (mut last, mut omitted, mut changed) = (None, 0, 0);
        for i in 0..200 {
            let ix = [i / 2];
            let want = Optimizer::new(&cat, &q, &m).optimize(&ess.point(&ix));
            let (plan, cost) = cursor.step(&ix);
            assert_eq!(cost.to_bits(), want.cost.to_bits());
            match &plan {
                Some(plan) => assert_eq!(plan.root, want.plan.root),
                None => {
                    assert_eq!(last, Some(want.plan.fingerprint()));
                    omitted += 1;
                }
            }
            changed += usize::from(last.replace(want.plan.fingerprint()) != last);
        }
        // Plans change along the axis, and most repeats are not rebuilt.
        assert!(
            changed >= 3 && omitted >= 100,
            "{changed} changes, {omitted} omitted"
        );

        // A step off the grid unwinds; whatever it left behind, the next
        // step does not take it for the previous winner's derivation.
        let step = |cursor: &mut SweepCursor<'_>, ix: usize| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cursor.step(&[ix])))
        };
        assert!(step(&mut cursor, 99).unwrap().0.is_none(), "a repeat");
        assert!(step(&mut cursor, 100).is_err(), "off the grid");
        let (plan, cost) = step(&mut cursor, 99).unwrap();
        let want = Optimizer::new(&cat, &q, &m).optimize(&ess.point(&[99]));
        assert_eq!(plan.map(|p| p.root), Some(want.plan.root));
        assert_eq!(cost.to_bits(), want.cost.to_bits());
    }

    /// Steps may visit the grid in any order: one cursor over a seeded
    /// shuffle of a 2D and of a 3D grid finds the diagram's cost to the bit
    /// and the fresh optimizer's plan at every point, and omits a plan only
    /// right after a step whose plan had the same fingerprint.
    #[test]
    fn sweep_steps_in_any_order_agree_with_the_diagram() {
        for name in ["2D_H_Q8A", "3D_H_Q5"] {
            let w = pb_workloads::by_name(name).unwrap();
            let (cat, q, m, ess) = (&w.catalog, &w.query, &w.model, &w.ess);
            let diagram = crate::PlanDiagram::build_with(cat, q, m, ess, Parallelism::auto());
            let fresh = Optimizer::new(cat, q, m);
            // Fisher–Yates over the linear indices, driven by splitmix64.
            let mut order: Vec<usize> = (0..ess.num_points()).collect();
            let mut state = 0x5EED_u64;
            for i in (1..order.len()).rev() {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                order.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
            }
            let sweep = Sweep::new(cat, q, m, ess);
            let mut cursor = sweep.cursor();
            let (mut last, mut omitted) = (None, 0);
            for li in order {
                let ix = ess.unlinear(li);
                let want = fresh.optimize(&ess.point(&ix));
                let (plan, cost) = cursor.step(&ix);
                assert_eq!(
                    cost.to_bits(),
                    diagram.opt_cost[li].to_bits(),
                    "{name} {li}"
                );
                match plan {
                    Some(plan) => assert_eq!(plan.root, want.plan.root, "{name} {li}"),
                    None => {
                        assert_eq!(last, Some(want.plan.fingerprint()), "{name} {li}");
                        omitted += 1;
                    }
                }
                last = Some(want.plan.fingerprint());
            }
            assert!(
                omitted > 0,
                "{name}: no step repeated its predecessor's plan"
            );
        }
    }

    /// The work of a build, counted: every slot is filled once per point of
    /// the grid's projection onto the slot's own dimensions — all of the
    /// grid for the slots filled per step — whoever fills it.
    #[test]
    fn a_build_fills_each_slot_once_per_point_of_its_sub_grid() {
        for (name, recorded) in [("4D_DS_Q7", 152_077), ("5D_H_Q7", 213_530)] {
            let w = pb_workloads::by_name(name).unwrap();
            for workers in [1, 2, 4] {
                let par = Parallelism::new(workers);
                let sweep = Sweep::new(&w.catalog, &w.query, &w.model, &w.ess);
                let sk = &sweep.skeleton;
                let fills =
                    |dims: &Vec<DimId>| dims.iter().map(|&d| w.ess.res[d]).product::<usize>();
                let slots = sk.slot_dims.iter().enumerate();
                let calls: usize = slots
                    .map(|(slot, dims)| fills(dims) * sk.slot_calls(slot))
                    .sum();
                assert_eq!(calls, recorded, "{name}");
                // The rows took the partial slots' share of that ...
                let made = || sweep.rows.calls.load(std::sync::atomic::Ordering::Relaxed);
                let per_step = |&slot: &u32| w.ess.num_points() * sk.slot_calls(slot as usize);
                let stepped: usize = sweep.rows.per_step.iter().map(per_step).sum();
                assert!(stepped < calls, "{name}: some slots have rows");
                assert_eq!(made(), calls - stepped, "{name}, {workers} workers: rows");
                // ... and the grid pass makes the rest, and no more.
                crate::PlanDiagram::over(&sweep, par);
                assert_eq!(made(), calls, "{name}, {workers} workers: build");
            }
        }
    }

    /// Rows are keyed by a slot's exact dimensions, whatever their numbers:
    /// in a 66-axis space (all but three axes a single step) one relation
    /// binds dimensions 0 to 63 and another 64 and 65, and each gets a row
    /// per point of its own axes.
    #[test]
    fn dimensions_beyond_63_key_their_own_rows() {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "wide");
        let (p, l, o) = (qb.rel("part"), qb.rel("lineitem"), qb.rel("orders"));
        for d in 0..64 {
            let dim = SelSpec::ErrorProne(d);
            qb.select(p, "p_retailprice", CmpOp::Lt, 1000.0, dim);
        }
        for d in 64..66 {
            let dim = SelSpec::ErrorProne(d);
            qb.select(o, "o_totalprice", CmpOp::Lt, 1000.0, dim);
        }
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        let m = CostModel::postgresish();
        let dims = (0..66).map(|d| EssDim::new(format!("d{d}"), 1e-4, 1.0));
        let mut res = vec![1; 66];
        (res[2], res[63], res[65]) = (3, 7, 5);
        let ess = Ess::new(dims.collect(), res);
        let sweep = Sweep::new(&cat, &q, &m, &ess);
        assert_eq!(sweep.skeleton.slot_dims[p], (0..64).collect::<Vec<_>>());
        assert_eq!(sweep.skeleton.slot_dims[o], [64, 65]);
        let rows = |slot: usize| sweep.rows.slots[slot].as_ref().map(|s| s.offs.len() - 1);
        assert_eq!((rows(p), rows(l), rows(o)), (Some(21), Some(1), Some(5)));
        let d = crate::PlanDiagram::over(&sweep, Parallelism::serial());
        assert!(d.plan_count() > 1);
        let fresh = Optimizer::new(&cat, &q, &m);
        for (li, ix) in ess.iter_points().enumerate() {
            let want = fresh.optimize(&ess.point(&ix));
            let got = &d.plans[d.optimal[li] as usize];
            assert_eq!(got.fingerprint(), want.plan.fingerprint(), "{ix:?}");
            assert_eq!(d.opt_cost[li].to_bits(), want.cost.to_bits(), "{ix:?}");
        }
    }

    #[test]
    fn five_way_chain_optimizes_quickly_and_correctly() {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "chain5");
        let r = qb.rel("region");
        let n = qb.rel("nation");
        let s = qb.rel("supplier");
        let c_ = qb.rel("customer");
        let o = qb.rel("orders");
        qb.join(r, "r_regionkey", n, "n_regionkey", SelSpec::Fixed(0.2));
        qb.join(n, "n_nationkey", s, "s_nationkey", SelSpec::ErrorProne(0));
        qb.join(s, "s_nationkey", c_, "c_nationkey", SelSpec::ErrorProne(1));
        qb.join(
            c_,
            "c_custkey",
            o,
            "o_custkey",
            SelSpec::Fixed(1.0 / 150_000.0),
        );
        let q = qb.build();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let best = opt.optimize(&[0.01, 0.001]);
        assert_eq!(best.plan.root.rels_mask(), 0b11111);
        assert!(best.cost.is_finite());
    }
}

#[cfg(test)]
mod agg_tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::Coster;
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    fn agg_query() -> (pb_catalog::Catalog, QuerySpec) {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "agg");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.group_by(p, "p_brand");
        (cat.clone(), qb.build())
    }

    #[test]
    fn aggregate_appears_at_the_root_only() {
        let (cat, q) = agg_query();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let best = opt.optimize(&[0.01]);
        assert!(matches!(best.plan.root, PlanNode::HashAggregate { .. }));
        let mut agg_count = 0;
        best.plan.root.visit(&mut |n| {
            if matches!(n, PlanNode::HashAggregate { .. }) {
                agg_count += 1;
            }
        });
        assert_eq!(agg_count, 1);
        // Output cardinality is bounded by the grouping column's NDV (25).
        assert!(best.rows <= 25.0 + 1e-9, "rows = {}", best.rows);
    }

    #[test]
    fn aggregate_cost_stays_monotone_and_recostable() {
        let (cat, q) = agg_query();
        let m = CostModel::postgresish();
        let opt = Optimizer::new(&cat, &q, &m);
        let c = Coster::new(&cat, &q, &m);
        let mut last = 0.0;
        for i in 0..12 {
            let s = 1e-4 * 1e4f64.powf(i as f64 / 11.0);
            let best = opt.optimize(&[s.min(1.0)]);
            assert!(best.cost >= last * (1.0 - 1e-9), "PCM with aggregate");
            last = best.cost;
            let recost = c.plan_cost(&best.plan.root, &[s.min(1.0)]);
            assert!((recost - best.cost).abs() < 1e-6 * best.cost);
        }
    }
}

#[cfg(test)]
mod skeleton_tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_plan::{CmpOp, QueryBuilder, SelSpec};

    /// One `{s1, s2}` cut of connected subset `mask` with its crossing edges.
    type Cut = (u32, u32, u32, Vec<usize>);

    /// What the DP used to enumerate on every call: connected core subsets
    /// in ascending mask order, their partitions in descending-`s1` order,
    /// and the crossing edges, equalities first.
    fn enumerated_per_call(q: &QuerySpec) -> Vec<Cut> {
        let touches = |r: RelIdx| q.joins.iter().filter(|j| j.col_on(r).is_some()).count();
        let mut core: u32 = (1 << q.num_relations()) - 1;
        for j in q.joins.iter().filter(|j| j.existential()) {
            let (l, r) = j.rels();
            core &= !(1 << if touches(r) == 1 { r } else { l });
        }
        let inner = || q.joins.iter().enumerate().filter(|(_, j)| !j.existential());
        let graph = JoinGraph::new(q.num_relations(), inner().map(|(_, j)| j.rels()).collect());
        let mut cuts = Vec::new();
        for mask in (1..=core).filter(|m| m & !core == 0 && m.count_ones() >= 2) {
            if !graph.is_subset_connected(mask) {
                continue;
            }
            let mut s1 = (mask - 1) & mask;
            while s1 != 0 {
                let s2 = mask & !s1;
                if s1 < s2 && graph.is_subset_connected(s1) && graph.is_subset_connected(s2) {
                    let crosses = |j: &pb_plan::JoinPredicate| {
                        let ends = (1u32 << j.left_rel) | (1 << j.right_rel);
                        ends & s1 != 0 && ends & s2 != 0
                    };
                    let mut edges = Vec::new();
                    for equi in [true, false] {
                        edges.extend(
                            inner()
                                .filter(|(_, j)| crosses(j) && j.is_equi() == equi)
                                .map(|(i, _)| i),
                        );
                    }
                    cuts.push((mask, s1, s2, edges));
                }
                s1 = (s1 - 1) & mask;
            }
        }
        cuts
    }

    fn skeleton_cuts(sk: &Skeleton) -> Vec<Cut> {
        let n = sk.rels.len();
        let mask_of = |slot: u32| match (slot as usize).checked_sub(n) {
            None => 1 << slot,
            Some(i) => sk.subsets[i].mask,
        };
        sk.subsets
            .iter()
            .flat_map(|sub| {
                sk.parts[sub.parts.clone()].iter().map(move |p| {
                    let edges = sk.edge_sets[p.edges as usize].edges.clone();
                    (sub.mask, mask_of(p.s1), mask_of(p.s2), edges)
                })
            })
            .collect()
    }

    /// A chain, a star and a cycle closed a second time by an inequality
    /// edge with NOT EXISTS / EXISTS hangers; error-prone dimensions sit on
    /// selections, inner edges of every kind and a hanger edge.
    fn shapes(cat: &pb_catalog::Catalog) -> Vec<QuerySpec> {
        let fixed = SelSpec::Fixed(1e-5);
        let dim = SelSpec::ErrorProne;
        let mut queries = Vec::new();

        let mut qb = QueryBuilder::new(cat, "chain");
        let (r, n, s, c, o) = (
            qb.rel("region"),
            qb.rel("nation"),
            qb.rel("supplier"),
            qb.rel("customer"),
            qb.rel("orders"),
        );
        qb.select(c, "c_acctbal", CmpOp::Lt, 5000.0, dim(2));
        let flipped = SelSpec::Flipped {
            dim: 3,
            pivot: 1e-3,
        };
        qb.select(s, "s_acctbal", CmpOp::Lt, 5000.0, flipped);
        qb.join(r, "r_regionkey", n, "n_regionkey", fixed);
        qb.join(n, "n_nationkey", s, "s_nationkey", dim(0));
        qb.join(s, "s_nationkey", c, "c_nationkey", fixed);
        qb.join(c, "c_custkey", o, "o_custkey", dim(1));
        queries.push(qb.build());

        let mut qb = QueryBuilder::new(cat, "star");
        let (l, p, s, o) = (
            qb.rel("lineitem"),
            qb.rel("part"),
            qb.rel("supplier"),
            qb.rel("orders"),
        );
        qb.select(p, "p_size", CmpOp::Lt, 25.0, dim(1));
        qb.join(l, "l_partkey", p, "p_partkey", dim(0));
        qb.join(l, "l_suppkey", s, "s_suppkey", fixed);
        qb.join(l, "l_orderkey", o, "o_orderkey", dim(2));
        queries.push(qb.build());

        let mut qb = QueryBuilder::new(cat, "cyclic");
        let (l, p, ps, s, o, c) = (
            qb.rel("lineitem"),
            qb.rel("part"),
            qb.rel("partsupp"),
            qb.rel("supplier"),
            qb.rel("orders"),
            qb.rel("customer"),
        );
        qb.select(p, "p_size", CmpOp::Lt, 25.0, dim(4));
        qb.select(c, "c_acctbal", CmpOp::Lt, 5000.0, dim(5));
        qb.join(l, "l_partkey", p, "p_partkey", dim(0));
        qb.ineq_join(p, "p_size", CmpOp::Lt, s, "s_acctbal", dim(1));
        qb.join(ps, "ps_partkey", p, "p_partkey", fixed);
        qb.anti_join(l, "l_orderkey", o, "o_orderkey", dim(2));
        qb.join(ps, "ps_suppkey", s, "s_suppkey", dim(3));
        qb.join(l, "l_suppkey", s, "s_suppkey", fixed);
        qb.semi_join(s, "s_nationkey", c, "c_nationkey", fixed);
        queries.push(qb.build());
        queries
    }

    #[test]
    fn skeleton_matches_per_call_enumeration() {
        let cat = tpch::catalog(1.0);
        let queries = shapes(&cat);
        for q in &queries {
            let sk = Skeleton::build(&cat, q);
            let expected = enumerated_per_call(q);
            assert!(!expected.is_empty());
            assert_eq!(skeleton_cuts(&sk), expected, "{}", q.name);
            // Interning: one set per distinct edge list.
            let mut lists: Vec<_> = expected.iter().map(|c| &c.3).collect();
            lists.sort();
            lists.dedup();
            assert_eq!(sk.edge_sets.len(), lists.len(), "{}", q.name);
        }
        // The cyclic query has cuts crossed by an inequality edge alone,
        // which only block-nested-loops may join.
        let sk = Skeleton::build(&cat, &queries[2]);
        assert!(sk
            .edge_sets
            .iter()
            .any(|set| !set.primary_is_equi && set.merge_class.is_none()));
        assert_eq!(sk.hangers.len(), 2);
    }

    /// A slot's dimension set is every error dimension bound inside its
    /// subset: on a selection of one of its relations or on an inner edge
    /// between two of them — worked out here from the subset alone, not
    /// from its partitions.
    #[test]
    fn slot_dims_match_per_subset_enumeration() {
        let cat = tpch::catalog(1.0);
        for q in &shapes(&cat) {
            let sk = Skeleton::build(&cat, q);
            let n = q.num_relations();
            let inside = |mask: u32| {
                let rels = (0..n).filter(|&r| mask >> r & 1 == 1);
                let selections = rels.flat_map(|r| &q.relations[r].selections);
                let edges = q.joins.iter().filter(|j| {
                    let (l, r) = j.rels();
                    !j.existential() && mask >> l & 1 == 1 && mask >> r & 1 == 1
                });
                let specs = selections
                    .map(|s| &s.selectivity)
                    .chain(edges.map(|j| &j.selectivity));
                set_of(dims_of(specs).collect())
            };
            assert_eq!(sk.slot_dims.len(), n + sk.subsets.len());
            for (slot, dims) in sk.slot_dims.iter().enumerate() {
                let mask = match slot.checked_sub(n) {
                    None => 1 << slot,
                    Some(i) => sk.subsets[i].mask,
                };
                assert_eq!(dims, &inside(mask), "{} subset {mask:#b}", q.name);
            }
            // Rows have something to hold: the core depends on every inner
            // dimension, most slots on fewer.
            let root = &sk.slot_dims[sk.root_slot as usize];
            assert!(sk.slot_dims.iter().filter(|&dims| dims != root).count() > n);
        }
        // The anti-join edge's dimension is applied on top of the core: no
        // slot depends on it.
        let sk = Skeleton::build(&cat, &shapes(&cat)[2]);
        assert!(sk.slot_dims.iter().all(|dims| !dims.contains(&2)));
    }
}
