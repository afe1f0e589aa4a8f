//! The tuple-at-a-time interpreter: the oracle the vectorized engine is
//! tested against.
//!
//! One [`Ctx::settle`] per tuple, row-major intermediates, no batching, no
//! workers, no checkpoints — the plainest reading of the operator
//! semantics and of the ledger in [`crate::ledger`]. [`Engine::execute`]
//! must produce a bit-identical [`EngineOutcome`] — cost, rows, per-node
//! instrumentation and abort point — at every budget; the tests below pin
//! that over every operator, random TPC-H plan shapes, a TPC-DS join and
//! duplicate-heavy join keys.
//! The module is compiled for tests only: nothing outside them runs it.

use std::collections::{HashMap, HashSet};

use pb_catalog::ColumnId;
use pb_faults::{FaultInjector, PbError};
use pb_plan::{CmpOp, PlanNode, RelIdx};

use crate::data::{eval_pred, ColumnOverride, Database};
use crate::exec::{Engine, EngineOutcome, Instrumentation, NodeStats};
use crate::ledger::{lin2, lin3, Ctx, Halt};

/// The plan-shape pools `tests/engine_mt_determinism.rs` draws from.
#[path = "../../../tests/common/mod.rs"]
mod common;

/// Materialized intermediate relation: concatenated base-relation blocks.
struct Rel {
    /// Which relations contribute column blocks, in order.
    rels: Vec<RelIdx>,
    rows: Vec<Vec<i64>>,
}

impl Engine<'_> {
    /// Tuple-at-a-time execution of `plan` under `budget`.
    fn execute_tuple(&self, plan: &PlanNode, budget: f64) -> EngineOutcome {
        let inert = FaultInjector::none();
        let mut ctx = Ctx {
            spent: 0.0,
            budget,
            instr: vec![NodeStats::default(); plan.size()],
            faults: &inert,
            resume: None,
            reused: 0.0,
            cancel: None,
        };
        // The root's output is never consumed by another operator, so it is
        // counted and charged but not materialized (large final results
        // would otherwise dominate memory).
        let res = self.eval(plan, &mut ctx, &mut 0, false);
        let instr = Instrumentation { nodes: ctx.instr };
        match res {
            Ok(_) => EngineOutcome::Completed {
                // The root is the last op in post-order.
                rows: instr.nodes[instr.nodes.len() - 1].output_tuples as usize,
                cost: ctx.spent,
                instr,
            },
            Err(Halt::Abort) => EngineOutcome::Aborted {
                cost: ctx.spent,
                instr,
            },
            Err(Halt::Fault(error)) => EngineOutcome::Failed {
                error,
                cost: ctx.spent,
                instr,
            },
        }
    }

    fn ncols(&self, rel: RelIdx) -> usize {
        self.db
            .catalog
            .table_by_id(self.query.relations[rel].table)
            .columns
            .len()
    }

    fn offset(&self, rels: &[RelIdx], rel: RelIdx, col: ColumnId) -> Result<usize, Halt> {
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
    /// charged and counted but not materialized. Counters are indexed by
    /// post-order op: the subtree's ops are the `node.size()` from
    /// `*next_op` on, its own op last, and `*next_op` moves past them.
    fn eval(
        &self,
        node: &PlanNode,
        ctx: &mut Ctx<'_>,
        next_op: &mut usize,
        store: bool,
    ) -> Result<Rel, Halt> {
        let end = *next_op + node.size();
        let out = self.eval_op(node, ctx, next_op, end - 1, store)?;
        *next_op = end;
        Ok(out)
    }

    /// [`Engine::eval`] of `node`, whose own op is `my_id`.
    fn eval_op(
        &self,
        node: &PlanNode,
        ctx: &mut Ctx<'_>,
        next_op: &mut usize,
        my_id: usize,
        store: bool,
    ) -> Result<Rel, Halt> {
        let p = self.params;
        match node {
            PlanNode::SeqScan { rel }
            | PlanNode::IndexScan { rel, .. }
            | PlanNode::FullIndexScan { rel, .. } => {
                let t = self.db.table(self.query.relations[*rel].table);
                let preds = &self.query.relations[*rel].selections;
                let npred = preds.len() as f64;
                let index = |column: u32| {
                    t.indexes.get(&column).ok_or_else(|| {
                        Halt::Fault(PbError::UnindexedColumn(format!(
                            "rel {rel} column {column}"
                        )))
                    })
                };
                let heap_entry = p.cpu_index_tuple + p.random_page * p.heap_fetch_factor;
                // The setup charge, the rate per row visited, the base rows
                // visited in order, and the selection an index key applied.
                let (setup, rate, ids, skip): (f64, f64, Vec<usize>, Option<usize>) = match node {
                    PlanNode::IndexScan { sel_idx, .. } => {
                        let key_pred = &preds[*sel_idx];
                        let c = key_pred.column.column;
                        let ids = index(c)?.range(&t.columns[c as usize], key_pred).iter();
                        let ids = ids.map(|&r| r as usize).collect();
                        (3.0 * p.random_page, heap_entry, ids, Some(*sel_idx))
                    }
                    PlanNode::FullIndexScan { column, .. } => {
                        let ix = index(column.column)?;
                        let setup = (t.rows as f64 / 256.0).max(1.0) * p.seq_page;
                        let ids = ix.rows().iter().map(|&r| r as usize).collect();
                        (setup, heap_entry + npred * p.cpu_operator, ids, None)
                    }
                    _ => {
                        let meta = self
                            .db
                            .catalog
                            .table_by_id(self.query.relations[*rel].table);
                        let rate = p.cpu_tuple + npred * p.cpu_operator;
                        (meta.pages() * p.seq_page, rate, (0..t.rows).collect(), None)
                    }
                };
                ctx.charge(setup)?;
                let base = ctx.spent;
                let (mut seen, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                for r in ids {
                    seen += 1;
                    ctx.settle(lin2(base, seen, rate, emitted, p.emit_tuple))?;
                    let pass = preds.iter().enumerate().all(|(i, pr)| {
                        Some(i) == skip || eval_pred(pr, t.columns[pr.column.column as usize][r])
                    });
                    if pass {
                        emitted += 1;
                        ctx.settle(lin2(base, seen, rate, emitted, p.emit_tuple))?;
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
                let b = self.eval(build, ctx, next_op, true)?;
                let pr = self.eval(probe, ctx, next_op, true)?;
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
                let at =
                    |probed: u64, emitted| lin2(pbase, probed, p.hash_probe, emitted, p.emit_tuple);
                let mut emitted = 0u64;
                let mut rows = Vec::new();
                for (i, prow) in (1..).zip(&pr.rows) {
                    ctx.settle(at(i, emitted))?;
                    for &bi in table.get(&prow[pkey]).into_iter().flatten() {
                        let joined: Vec<i64> = b.rows[bi].iter().chain(prow).copied().collect();
                        if self.residual_ok(&out_rels, &joined, &edges[1..])? {
                            emitted += 1;
                            ctx.settle(at(i, emitted))?;
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
            PlanNode::SortMergeJoin {
                left,
                right,
                edges,
                sort_left,
                sort_right,
            } => {
                let mut l = self.eval(left, ctx, next_op, true)?;
                let mut r = self.eval(right, ctx, next_op, true)?;
                let j0 = &self.query.joins[edges[0]];
                let (lkey, rkey) = self.key_offsets(&l.rels, &r.rels, j0)?;
                // Sort both (an un-flagged input is already ordered, but
                // re-sorting is a no-op for correctness; we charge only for
                // flagged sorts, mirroring the cost model).
                for (flagged, side) in [(*sort_left, &l), (*sort_right, &r)] {
                    if flagged {
                        let n = side.rows.len().max(2) as f64;
                        ctx.charge(n * n.log2() * 2.0 * p.cpu_operator)?;
                    }
                }
                l.rows.sort_by_key(|row| row[lkey]);
                r.rows.sort_by_key(|row| row[rkey]);
                let out_rels: Vec<RelIdx> = l.rels.iter().chain(&r.rels).copied().collect();
                let base = ctx.spent;
                let at =
                    |steps, emitted| lin2(base, steps, 2.0 * p.cpu_operator, emitted, p.emit_tuple);
                let (mut steps, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                let (mut i, mut j) = (0usize, 0usize);
                while i < l.rows.len() && j < r.rows.len() {
                    steps += 1;
                    ctx.settle(at(steps, emitted))?;
                    let (a, b) = (l.rows[i][lkey], r.rows[j][rkey]);
                    if a < b {
                        i += 1;
                    } else if a > b {
                        j += 1;
                    } else {
                        // equal group cross product
                        let i_end = l.rows[i..].iter().take_while(|x| x[lkey] == a).count() + i;
                        let j_end = r.rows[j..].iter().take_while(|x| x[rkey] == a).count() + j;
                        for lrow in &l.rows[i..i_end] {
                            for rrow in &r.rows[j..j_end] {
                                let joined: Vec<i64> = lrow.iter().chain(rrow).copied().collect();
                                if self.residual_ok(&out_rels, &joined, &edges[1..])? {
                                    emitted += 1;
                                    ctx.settle(at(steps, emitted))?;
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
                let o = self.eval(outer, ctx, next_op, true)?;
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
                let icol = &t.columns[ikey_col.column as usize];
                let out_rels: Vec<RelIdx> = o.rels.iter().copied().chain([*inner_rel]).collect();
                let base = ctx.spent;
                let entry_rate = p.cpu_index_tuple + p.random_page * p.heap_fetch_factor;
                let at = |looks, probed, emitted| {
                    let (lookup, emit) = (p.index_lookup, p.emit_tuple);
                    lin3(base, looks, lookup, probed, entry_rate, emitted, emit)
                };
                let (mut looks, mut probed, mut emitted) = (0u64, 0u64, 0u64);
                let mut rows = Vec::new();
                for orow in &o.rows {
                    looks += 1;
                    ctx.settle(at(looks, probed, emitted))?;
                    for &r in ix.lookup(icol, orow[okey]) {
                        probed += 1;
                        ctx.settle(at(looks, probed, emitted))?;
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
                            ctx.settle(at(looks, probed, emitted))?;
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
                let o = self.eval(outer, ctx, next_op, true)?;
                let inn = self.eval(inner, ctx, next_op, true)?;
                let out_rels: Vec<RelIdx> = o.rels.iter().chain(&inn.rels).copied().collect();
                let base = ctx.spent;
                let pair_rate = p.cpu_operator * edges.len().max(1) as f64;
                let (mut pairs, mut emitted) = (0u64, 0u64);
                let mut rows = Vec::new();
                for orow in &o.rows {
                    for irow in &inn.rows {
                        pairs += 1;
                        ctx.settle(lin2(base, pairs, pair_rate, emitted, p.emit_tuple))?;
                        let joined: Vec<i64> = orow.iter().chain(irow).copied().collect();
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
            PlanNode::AntiJoin { left, right, edges }
            | PlanNode::SemiJoin { left, right, edges } => {
                // Keep each left row whose key has no match (anti) or at
                // least one (semi) among the right side's keys.
                let anti = matches!(node, PlanNode::AntiJoin { .. });
                let l = self.eval(left, ctx, next_op, true)?;
                let r = self.eval(right, ctx, next_op, true)?;
                let j0 = &self.query.joins[edges[0]];
                let (lkey, rkey) = self.key_offsets(&l.rels, &r.rels, j0)?;
                let base = ctx.spent;
                let build_rate = p.cpu_tuple + p.hash_build;
                let mut keys: HashSet<i64> = HashSet::new();
                for (i, row) in r.rows.iter().enumerate() {
                    ctx.settle(lin2(base, i as u64 + 1, build_rate, 0, 0.0))?;
                    keys.insert(row[rkey]);
                }
                let pbase = ctx.spent;
                let at =
                    |probed: u64, emitted| lin2(pbase, probed, p.hash_probe, emitted, p.emit_tuple);
                let mut emitted = 0u64;
                let mut rows = Vec::new();
                for (i, lrow) in (1..).zip(&l.rows) {
                    ctx.settle(at(i, emitted))?;
                    if keys.contains(&lrow[lkey]) != anti {
                        emitted += 1;
                        ctx.settle(at(i, emitted))?;
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
                let i = self.eval(input, ctx, next_op, true)?;
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
                let i = self.eval(input, ctx, next_op, false)?;
                let discarded = ctx.instr[my_id - 1].output_tuples as f64;
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
    fn key_offsets(
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

mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::ledger::COMMITS;
    use crate::vec_exec::tests::retained_rows;
    use crate::vec_exec::ResumeBook;
    use common::{plan_ds, setup3, setup_ds, setup_duplicates, shape3};
    use pb_catalog::tpch;
    use pb_cost::CostModel;
    use pb_plan::{QueryBuilder, QuerySpec, SelSpec};

    /// TPC-H part ⋈ lineitem at scale `sf` with a price selection.
    fn setup(sf: f64, seed: u64, price_cut: f64) -> (Database, QuerySpec, CostModel) {
        let cat = tpch::catalog(sf);
        let db = Database::generate(&cat, seed, &[]).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "oracle");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            price_cut,
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
    fn tuple_and_vectorized_agree_on_basic_plan() {
        let (db, q, m) = setup(0.01, 42, 1200.0);
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
        let (db, q, m) = setup(0.01, 42, 1200.0);
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
        let rel = eng.eval(&plan, &mut ctx, &mut 0, false).ok().unwrap();
        assert!(
            rel.rows.is_empty(),
            "store == false must not materialize merge-join output ({} rows kept)",
            rel.rows.len()
        );
        // The merge join is op 2, after its two scans.
        assert!(ctx.instr[2].output_tuples > 0, "rows must still be counted");
    }

    #[test]
    fn vectorized_matches_tuple_on_all_operators() {
        let (db, q, m) = setup(0.005, 7, 1400.0);
        let eng = Engine::new(&db, &q, &m.p);
        let plans = [
            hj_plan(),
            PlanNode::SortMergeJoin {
                left: Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 }),
                right: Box::new(PlanNode::SeqScan { rel: 1 }),
                edges: vec![0],
                sort_left: true,
                sort_right: true,
            },
            PlanNode::IndexNLJoin {
                outer: Box::new(PlanNode::SeqScan { rel: 0 }),
                inner_rel: 1,
                edges: vec![0],
            },
            PlanNode::Spill {
                input: Box::new(hj_plan()),
            },
        ];
        for plan in &plans {
            let full = eng.execute_tuple(plan, f64::INFINITY);
            assert_eq!(full, eng.execute(plan, f64::INFINITY));
            for frac in [0.999, 0.7, 0.35, 0.1, 0.01, 1e-4] {
                let b = full.cost() * frac;
                assert_eq!(
                    eng.execute_tuple(plan, b),
                    eng.execute(plan, b),
                    "divergence at fraction {frac}"
                );
            }
        }
    }

    #[test]
    fn vectorized_matches_tuple_on_duplicate_keys() {
        let (db, q, m) = setup_duplicates();
        let eng = Engine::new(&db, &q, &m.p);
        let scan = |rel| Box::new(PlanNode::SeqScan { rel });
        let filtered_parts = || Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 });
        // A residual-free root hash join (it counts its matches) over a
        // materialized one, an index-NL chain (dense index directories),
        // and the two membership joins (dense key bitmaps).
        let counted_root = PlanNode::HashJoin {
            build: Box::new(PlanNode::HashJoin {
                build: scan(0),
                probe: scan(1),
                edges: vec![0],
            }),
            probe: scan(2),
            edges: vec![1],
        };
        let index_nl = PlanNode::IndexNLJoin {
            outer: Box::new(PlanNode::IndexNLJoin {
                outer: filtered_parts(),
                inner_rel: 1,
                edges: vec![0],
            }),
            inner_rel: 2,
            edges: vec![1],
        };
        let anti = PlanNode::AntiJoin {
            left: scan(1),
            right: filtered_parts(),
            edges: vec![0],
        };
        let semi = PlanNode::SemiJoin {
            left: scan(1),
            right: filtered_parts(),
            edges: vec![0],
        };
        for (name, plan) in [
            ("counted root", &counted_root),
            ("index-NL chain", &index_nl),
            ("anti join", &anti),
            ("semi join", &semi),
        ] {
            let full = eng.execute_tuple(plan, f64::INFINITY);
            assert_eq!(full, eng.execute(plan, f64::INFINITY), "{name}");
            let mut inside_root = false;
            for frac in [0.999, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01, 1e-4] {
                let b = full.cost() * frac;
                let t = eng.execute_tuple(plan, b);
                assert_eq!(t, eng.execute(plan, b), "{name} at fraction {frac}");
                // Both inputs done and the root part-way through its probe:
                // the abort fell inside one of its (counted) batches.
                // Post-order ops: the first input's subtree comes first,
                // the root last.
                let n = &t.instr().nodes;
                let (first_input, root) = (plan.children()[0].size() - 1, n.len() - 1);
                inside_root |=
                    !t.completed() && n[first_input].complete && n[root].output_tuples > 0;
            }
            assert!(
                inside_root,
                "{name}: no rung aborts inside the root's probe"
            );
        }
        // Each order matches dozens of joined lineitems.
        let EngineOutcome::Completed { rows, .. } = eng.execute(&counted_root, f64::INFINITY)
        else {
            panic!("the counted root must complete");
        };
        assert!(
            rows > 50 * db.table(q.relations[2].table).rows,
            "{rows} rows"
        );
    }

    /// The relations and rows the oracle materializes for `plan` as a kept
    /// input: every column of each relation, row by row.
    fn oracle_rows(eng: &Engine<'_>, plan: &PlanNode) -> (Vec<RelIdx>, Vec<Vec<i64>>) {
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
        let rel = eng
            .eval(plan, &mut ctx, &mut 0, true)
            .ok()
            .expect("completes");
        (rel.rels, rel.rows)
    }

    /// The ledger values of every `stride`-th of `plan`'s batch commits once
    /// its inputs are done — its own phases' batch boundaries — and the
    /// values just either side.
    fn own_boundaries(eng: &Engine<'_>, plan: &PlanNode, stride: usize) -> Vec<f64> {
        COMMITS.with_borrow_mut(|c| *c = Some(Vec::new()));
        eng.execute(plan, f64::INFINITY);
        let commits = COMMITS.with_borrow_mut(Option::take).unwrap_or_default();
        let inputs_done = |b: f64| {
            let out = eng.execute(plan, b);
            let nodes = &out.instr().nodes;
            nodes[..nodes.len() - 1].iter().all(|n| n.complete)
        };
        let own = commits
            .into_iter()
            .filter(|&v| inputs_done(v))
            .step_by(stride);
        own.flat_map(|v| [v.next_down(), v, v.next_up()]).collect()
    }

    /// Every join kind as the *kept* input of a root hash join over
    /// duplicated keys, with budgets at each batch boundary of its own
    /// phases and just either side: most abort inside its emitting phase,
    /// where it has recorded match runs and written no row. (Block-NL
    /// commits once per outer row, and each costs the oracle a pass over
    /// lineitem: it takes every twelfth.) Then a budget that just completes
    /// it: the checkpoint holds the oracle's rows, and a later run grafts it.
    #[test]
    fn kept_joins_equal_the_oracle_at_every_batch_boundary() {
        let (db, q, m) = setup_duplicates();
        let eng = Engine::new(&db, &q, &m.p);
        let scan = |rel| Box::new(PlanNode::SeqScan { rel });
        let parts = || Box::new(PlanNode::IndexScan { rel: 0, sel_idx: 0 });
        let children = [
            (
                "hash",
                1,
                PlanNode::HashJoin {
                    build: scan(0),
                    probe: scan(1),
                    edges: vec![0],
                },
            ),
            (
                "merge",
                1,
                PlanNode::SortMergeJoin {
                    left: scan(0),
                    right: scan(1),
                    edges: vec![0],
                    sort_left: true,
                    sort_right: true,
                },
            ),
            (
                "index-NL",
                1,
                PlanNode::IndexNLJoin {
                    outer: parts(),
                    inner_rel: 1,
                    edges: vec![0],
                },
            ),
            (
                "block-NL",
                12,
                PlanNode::BlockNLJoin {
                    outer: parts(),
                    inner: scan(1),
                    edges: vec![0],
                },
            ),
        ];
        for (name, stride, child) in children {
            let parent = PlanNode::HashJoin {
                build: Box::new(child.clone()),
                probe: scan(2),
                edges: vec![1],
            };
            let budgets = own_boundaries(&eng, &child, stride);
            // The child's op: its subtree's ops come first in post-order.
            let kept = child.size() - 1;
            let mut mid_phase = 0;
            for &b in &budgets {
                let t = eng.execute_tuple(&parent, b);
                assert_eq!(t, eng.execute(&parent, b), "{name} at budget {b}");
                let n = &t.instr().nodes;
                mid_phase += usize::from(!n[kept].complete && n[kept].output_tuples > 0);
            }
            assert!(
                mid_phase >= 3,
                "{name}: {mid_phase} of {} budgets abort in the child's emitting phase",
                budgets.len()
            );

            let done = eng.execute(&child, f64::INFINITY).cost();
            let mut book = ResumeBook::new();
            let (first, _) = eng.execute_resumable(&parent, done, &mut book);
            assert!(
                !first.completed() && first.instr().nodes[kept].complete,
                "{name}"
            );
            assert_eq!(first, eng.execute_tuple(&parent, done), "{name}");
            let want = oracle_rows(&eng, &child);
            let kept: Vec<_> = retained_rows(&eng, &book)
                .into_iter()
                .filter(|(rels, _)| *rels == want.0)
                .collect();
            assert_eq!(kept, vec![want], "{name}: checkpointed rows");
            let (grafted, reused) = eng.execute_resumable(&parent, f64::INFINITY, &mut book);
            assert_eq!(reused.to_bits(), done.to_bits(), "{name}: reused");
            assert_eq!(grafted, eng.execute_tuple(&parent, f64::INFINITY), "{name}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The vectorized engine is outcome-identical to the tuple-at-a-time
        /// oracle — same variant, cost bits, row count and per-node
        /// instrumentation — over random TPC-H plan shapes and budgets,
        /// including budgets that abort mid-operator and mid-batch.
        #[test]
        fn vectorized_equals_tuple_tpch(
            seed in 0u64..200,
            cut in 900.0f64..2100.0,
            shape in 0usize..8,
            frac in 0.005f64..1.3,
        ) {
            let (db, q, m) = setup3(seed, cut);
            let eng = Engine::new(&db, &q, &m.p);
            let plan = shape3(shape);
            let full_t = eng.execute_tuple(&plan, f64::INFINITY);
            let full_v = eng.execute(&plan, f64::INFINITY);
            prop_assert_eq!(&full_t, &full_v, "full runs diverge (shape {})", shape);
            let budget = full_t.cost() * frac;
            let t = eng.execute_tuple(&plan, budget);
            let v = eng.execute(&plan, budget);
            prop_assert_eq!(&t, &v, "budgeted runs diverge (shape {}, frac {})", shape, frac);
            prop_assert_eq!(t.completed(), frac >= 1.0);
        }

        /// Same equivalence on a TPC-DS workload (item ⋈ store_sales), over the
        /// three main join algorithms and abort-inducing budgets.
        #[test]
        fn vectorized_equals_tuple_tpcds(
            seed in 0u64..100,
            cut in 10.0f64..90.0,
            alg in 0usize..3,
            frac in 0.01f64..1.2,
        ) {
            let (db, q, m) = setup_ds(seed, cut);
            let eng = Engine::new(&db, &q, &m.p);
            let plan = plan_ds(alg);
            let full_t = eng.execute_tuple(&plan, f64::INFINITY);
            prop_assert_eq!(&full_t, &eng.execute(&plan, f64::INFINITY));
            let budget = full_t.cost() * frac;
            prop_assert_eq!(
                &eng.execute_tuple(&plan, budget),
                &eng.execute(&plan, budget),
                "budgeted TPC-DS runs diverge (alg {}, frac {})", alg, frac
            );
        }
    }
}
