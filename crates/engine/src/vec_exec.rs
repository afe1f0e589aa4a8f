//! Vectorized columnar execution engine.
//!
//! Intermediates are late-materialized [`VRel`]s: one base-table row-id
//! vector per relation, never copied column values. Predicate evaluation,
//! hash-join build/probe, merge-join group expansion and index-NL lookups
//! run as batch kernels that read the base-table columns they consume
//! through those ids. A scan's survivors are its output ids; a join records
//! one run of matches per outer row while it settles the ledger and writes
//! its output ids from the runs once, after its last commit, so a join whose
//! budget runs out writes none. Cost is charged per batch: each operator
//! phase is linear in its counters, so the batch-end ledger value is the
//! closed form [`lin2`]/[`lin3`] of the final counters — bit-identical to
//! the reference engine's last per-tuple settle (see `crate::ledger` for
//! the argument).
//!
//! Budget aborts are exact: a batch whose end value stays within budget
//! cannot have crossed it at any interior tuple (monotonicity), and a batch
//! whose end value exceeds the budget is replayed tuple-at-a-time from the
//! batch start (merge join: from the last checkpoint), reproducing the
//! reference engine's abort tuple, instrumentation and clamped cost down to
//! the bit.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::ops::Range;
use std::sync::Arc;

use pb_catalog::ColumnId;
use pb_cost::{Checkpoint, CheckpointBook};
use pb_faults::{FaultInjector, PbError};
use pb_plan::{CmpOp, JoinPredicate, PlanNode, RelIdx, SelectionPredicate};

use crate::data::eval_pred;
use crate::exec::{Engine, EngineOutcome, Instrumentation, NodeStats};
use crate::ledger::{lin2, lin3, replay_anomaly, Ctx, Halt, BATCH};
use crate::lookup::{KeyRows, KeySet};
use crate::morsel::{
    charge_linear, drive_batches, drive_items, par_group_counts, par_stable_argsort, replay_rows,
    LinPhase,
};

/// Multiply–xorshift hasher for the vectorized engine's internal hash
/// tables. Join/aggregate tables are private state — only the *outcome*
/// must match the reference engine, which uses SipHash — so the batch
/// kernels get to trade DoS resistance for raw probe throughput.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// Base-table row ids of one relation across an intermediate's rows.
enum Ids {
    /// Row `i` of the intermediate is row `i` of the base table (a
    /// predicate-free scan): nothing is allocated.
    Dense,
    Sel(Vec<u32>),
}

impl Ids {
    #[inline]
    fn get(&self, i: usize) -> u32 {
        match self {
            Ids::Dense => i as u32,
            Ids::Sel(v) => v[i],
        }
    }
}

/// Late-materialized intermediate: row `i` is the concatenation of base
/// row `ids[k].get(i)` of every `rels[k]`. Values live only in the base
/// tables; `cols` holds the one thing that is computed rather than looked
/// up, `HashAggregate`'s output. With `store == false` (plan root, spill
/// input) only `rels` is meaningful — rows are counted, not kept.
struct VRel {
    rels: Vec<RelIdx>,
    ids: Vec<Ids>,
    cols: Vec<Vec<i64>>,
    len: usize,
}

impl VRel {
    /// An operator's output over `rels` from its per-relation id vectors.
    fn new(rels: Vec<RelIdx>, ids: Vec<Vec<u32>>, len: usize) -> VRel {
        VRel {
            rels,
            ids: ids.into_iter().map(Ids::Sel).collect(),
            cols: Vec::new(),
            len,
        }
    }
}

/// Append `rows` to `sel` when the operator keeps its output; how many
/// there are either way.
#[inline]
fn keep_rows(sel: &mut Vec<u32>, store: bool, rows: impl Iterator<Item = u32>) -> u64 {
    if !store {
        return rows.count() as u64;
    }
    let before = sel.len();
    sel.extend(rows);
    (sel.len() - before) as u64
}

/// What a kept join records of an outer row's matches while it settles the
/// ledger: `(outer row, x)`. A join with nothing to check past its key
/// records one per matching outer row, `x` what its run of candidates is
/// found from again — the key's build slot (hash join), the start of the
/// right group (merge join); an index-NL join looks the row's key up
/// again. A join with residual edges or inner predicates records each
/// survivor, `x` its candidate's position. The row ids are written from the
/// runs once, after the join's last commit ([`expand`]), so a join whose
/// budget runs out writes none.
type Run = (u32, u32);

/// The emits of the outer rows `rows`, whose candidates are `cands(row) =
/// (token, span)`: all of them unless `checked`, else those that `pass(row,
/// k)`. With `runs` given they are recorded: `(row, token)` once per row
/// with candidates, or `(row, k)` per survivor. One loop per case, so a join
/// that only counts runs the plainest.
fn emit_runs(
    runs: Option<&mut Vec<Run>>,
    rows: impl Iterator<Item = usize>,
    cands: impl Fn(usize) -> (usize, Range<usize>),
    checked: bool,
    pass: impl Fn(usize, usize) -> bool,
) -> u64 {
    let run = |i: usize, x: usize| (i as u32, x as u32);
    match (runs, checked) {
        (None, false) => rows.map(|i| cands(i).1.len() as u64).sum(),
        (None, true) => rows
            .map(|i| cands(i).1.filter(|&k| pass(i, k)).count() as u64)
            .sum(),
        (Some(runs), false) => rows
            .map(|i| {
                let (x, span) = cands(i);
                if !span.is_empty() {
                    runs.push(run(i, x));
                }
                span.len() as u64
            })
            .sum(),
        (Some(runs), true) => {
            let before = runs.len();
            for i in rows {
                runs.extend(cands(i).1.filter(|&k| pass(i, k)).map(|k| run(i, k)));
            }
            (runs.len() - before) as u64
        }
    }
}

/// A join's kept ids from its runs, each vector allocated once at `n` rows
/// and `outer`'s relations first: run `(row, x)` is outer row `row` joined
/// with the inner positions `at(k)` for `k` in `span(row, x)`. The runs are
/// expanded about a batch of `(outer, inner)` position pairs at a time,
/// then every relation's ids are gathered from those pairs in one pass.
fn expand(
    outer: &VRel,
    inner: &VRel,
    runs: &[Run],
    span: impl Fn(usize, usize) -> Range<usize>,
    at: impl Fn(usize) -> usize,
    n: usize,
) -> Vec<Vec<u32>> {
    let width = outer.ids.len() + inner.ids.len();
    let mut out: Vec<Vec<u32>> = (0..width).map(|_| Vec::with_capacity(n)).collect();
    let (o, i) = out.split_at_mut(outer.ids.len());
    let mut flush = |pairs: &mut Vec<(u32, u32)>| {
        for (v, ids) in o.iter_mut().zip(&outer.ids) {
            gather(v, ids, pairs.iter().map(|p| p.0));
        }
        for (v, ids) in i.iter_mut().zip(&inner.ids) {
            gather(v, ids, pairs.iter().map(|p| p.1));
        }
        pairs.clear();
    };
    let mut pairs = Vec::with_capacity(BATCH.min(n));
    for &(row, x) in runs {
        pairs.extend(span(row as usize, x as usize).map(|k| (row, at(k) as u32)));
        if pairs.len() >= BATCH {
            flush(&mut pairs);
        }
    }
    flush(&mut pairs);
    out
}

/// Append the ids `ids` holds at positions `pos` to `v`.
fn gather(v: &mut Vec<u32>, ids: &Ids, pos: impl Iterator<Item = u32>) {
    match ids {
        Ids::Dense => v.extend(pos),
        Ids::Sel(s) => v.extend(pos.map(|p| s[p as usize])),
    }
}

/// One base-table column seen through an intermediate's row ids.
#[derive(Clone, Copy)]
struct ColRef<'a> {
    base: &'a [i64],
    ids: &'a Ids,
}

impl<'a> ColRef<'a> {
    #[inline]
    fn get(&self, i: usize) -> i64 {
        self.base[self.ids.get(i) as usize]
    }

    /// The column's first `len` values as a slice, for kernels that read it
    /// more than once (hash build, argsort): borrowed from the base table
    /// when dense, gathered otherwise.
    fn gather(&self, len: usize) -> Cow<'a, [i64]> {
        match self.ids {
            Ids::Dense => Cow::Borrowed(&self.base[..len]),
            Ids::Sel(v) => Cow::Owned(v[..len].iter().map(|&r| self.base[r as usize]).collect()),
        }
    }
}

/// One completed-subtree checkpoint: the intermediate (shared, never
/// copied), the ledger endpoint and the subtree's instrumentation slice,
/// all captured at the subtree boundary. `checksum` guards integrity — a
/// corrupted snapshot fails validation at lookup and the subtree
/// re-executes from scratch.
pub struct Snapshot {
    spent_after: f64,
    vrel: Arc<VRel>,
    stats: Vec<NodeStats>,
    checksum: u64,
}

fn snapshot_checksum(spent_after: f64, vrel: &VRel, stats: &[NodeStats]) -> u64 {
    use std::hash::Hasher;
    let mut h = FastHasher::default();
    h.write_u64(spent_after.to_bits());
    h.write_usize(vrel.len);
    h.write_usize(vrel.rels.len());
    for &r in &vrel.rels {
        h.write_usize(r);
    }
    for ids in &vrel.ids {
        match ids {
            Ids::Dense => h.write_u64(u64::MAX),
            Ids::Sel(v) => {
                h.write_usize(v.len());
                for &r in v {
                    h.write_u64(u64::from(r));
                }
            }
        }
    }
    for col in &vrel.cols {
        h.write_usize(col.len());
        for &v in col {
            h.write_i64(v);
        }
    }
    for s in stats {
        h.write_u64(s.output_tuples);
        h.write_u64(u64::from(s.complete));
    }
    h.finish()
}

/// Checkpoint book for resumable vectorized executions.
///
/// Keyed by `(subtree fingerprint, ledger value at subtree entry, store
/// flag)`: a hit means the exact same subtree previously ran to completion
/// from the exact same ledger state, so fast-forwarding the ledger to the
/// recorded endpoint and grafting the recorded intermediate is
/// bit-identical to re-executing it — same `spent` bits, same
/// instrumentation, same row ids. Keying on the entry value is what makes
/// both reuse modes fall out of one mechanism: the *same* plan re-run at
/// the next contour budget hits every completed prefix in turn (each
/// subtree re-enters at the identical ledger value), and a *different*
/// plan sharing a completed join-subtree prefix grafts it because a shared
/// first-executed prefix starts from the same ledger value too.
///
/// A hit additionally requires the recorded endpoint to fit the current
/// budget (the closed-form ledger values inside a subtree are weakly
/// monotone, so endpoint ≤ budget guarantees a restart would complete the
/// subtree without aborting) and the snapshot to pass its checksum
/// (corrupt checkpoints fall back to restart — never a double charge).
pub type ResumeBook = CheckpointBook<(u64, u64, bool), Snapshot>;

/// Prices a snapshot at the heap bytes it keeps alive: every vector at its
/// capacity, not its length (a scan's selection vector grows by doubling),
/// plus a flat allowance for the shared `VRel` itself.
impl Checkpoint for Snapshot {
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let v = &self.vrel;
        let ids: usize = v
            .ids
            .iter()
            .map(|ids| match ids {
                Ids::Dense => 0,
                Ids::Sel(x) => x.capacity() * 4,
            })
            .sum();
        let cols: usize = v.cols.iter().map(|c| c.capacity() * 8).sum();
        ids + cols
            + v.rels.capacity() * size_of::<RelIdx>()
            + v.ids.capacity() * size_of::<Ids>()
            + v.cols.capacity() * size_of::<Vec<i64>>()
            + self.stats.capacity() * size_of::<NodeStats>()
            + 128
    }

    /// Invalidate the integrity checksum: the lookup then re-executes the
    /// subtree, re-capturing a healthy snapshot as it completes.
    fn corrupt(&mut self) {
        self.checksum ^= 0x5EED_BAD0_DEAD_BEEF;
    }
}

/// A residual join edge pre-resolved to (side, rel position, column): each
/// operand is a base column seen through one side's row ids, so the probe
/// kernels never re-derive anything per tuple. `a` is always the
/// predicate's *left* column, so inequality ops keep their orientation.
struct ResCheck<'a> {
    a_left: bool,
    a: ColRef<'a>,
    b_left: bool,
    b: ColRef<'a>,
    op: CmpOp,
}

/// Does the (left row `li`, right row `ri`) pair satisfy every residual
/// join edge (equality or inequality, per its declared op)?
#[inline]
fn res_pass(res: &[ResCheck<'_>], li: usize, ri: usize) -> bool {
    res.iter().all(|rc| {
        let va = rc.a.get(if rc.a_left { li } else { ri });
        let vb = rc.b.get(if rc.b_left { li } else { ri });
        match rc.op {
            CmpOp::Lt => va < vb,
            CmpOp::Gt => va > vb,
            CmpOp::Eq | CmpOp::Between => va == vb,
        }
    })
}

/// Whether row `r` of a table with columns `cols` passes every predicate.
#[inline]
fn passes(preds: &[SelectionPredicate], cols: &[Vec<i64>], r: usize) -> bool {
    preds
        .iter()
        .all(|pr| eval_pred(pr, cols[pr.column.column as usize][r]))
}

fn unindexed(rel: RelIdx, column: u32) -> Halt {
    Halt::Fault(PbError::UnindexedColumn(format!(
        "rel {rel} column {column}"
    )))
}

impl Engine<'_> {
    /// Resumable vectorized execution: the outcome — cost bits, rows,
    /// instrumentation, abort point — is bit-identical to
    /// [`Engine::execute`] at the same budget, but subtrees checkpointed in
    /// `book` by earlier executions are fast-forwarded instead of
    /// re-executed. Returns the outcome plus the cost units reused; the
    /// reused units are *included* in the outcome's cost (restart
    /// accounting), so the caller charges `cost − reused` for the work
    /// actually performed. Checkpoints never inject faults, so this path
    /// always runs with an inert injector.
    pub fn execute_resumable(
        &self,
        plan: &PlanNode,
        budget: f64,
        book: &mut ResumeBook,
    ) -> (EngineOutcome, f64) {
        let inert = FaultInjector::none();
        self.vec_run(plan, budget, &inert, Some(book))
    }

    pub(crate) fn vec_run<'f>(
        &self,
        plan: &PlanNode,
        budget: f64,
        faults: &'f FaultInjector,
        resume: Option<&'f mut ResumeBook>,
    ) -> (EngineOutcome, f64) {
        let mut ctx = Ctx {
            spent: 0.0,
            budget,
            instr: vec![NodeStats::default(); plan.size()],
            faults,
            resume,
            reused: 0.0,
            cancel: self.cancel.as_ref(),
        };
        let res = self.veval(plan, &mut ctx, &mut 0, false);
        let reused = ctx.reused;
        let outcome = match res {
            Ok(_) => {
                // The root is the last op in post-order.
                let rows = ctx.instr[ctx.instr.len() - 1].output_tuples as usize;
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
        };
        (outcome, reused)
    }

    /// Column `col` of `rel` as seen through `v`'s row ids.
    fn col_ref<'a>(&'a self, v: &'a VRel, rel: RelIdx, col: ColumnId) -> Result<ColRef<'a>, Halt> {
        let Some(k) = v.rels.iter().position(|&r| r == rel) else {
            return Err(Halt::Fault(PbError::MissingEntity {
                kind: "relation".into(),
                name: format!("{rel} not in schema {:?}", v.rels),
            }));
        };
        let t = self.db.table(self.query.relations[rel].table);
        Ok(ColRef {
            base: &t.columns[col.column as usize],
            ids: &v.ids[k],
        })
    }

    /// The primary join key on each side.
    fn key_cols<'a>(
        &'a self,
        l: &'a VRel,
        r: &'a VRel,
        j: &JoinPredicate,
    ) -> Result<(ColRef<'a>, ColRef<'a>), Halt> {
        let ((lrel, lcol), (rrel, rcol)) = if l.rels.contains(&j.left_rel) {
            ((j.left_rel, j.left_col), (j.right_rel, j.right_col))
        } else {
            ((j.right_rel, j.right_col), (j.left_rel, j.left_col))
        };
        Ok((self.col_ref(l, lrel, lcol)?, self.col_ref(r, rrel, rcol)?))
    }

    fn resolve_residuals<'a>(
        &'a self,
        l: &'a VRel,
        r: &'a VRel,
        edges: &[usize],
    ) -> Result<Vec<ResCheck<'a>>, Halt> {
        let side = |rel: RelIdx, col: ColumnId| {
            if l.rels.contains(&rel) {
                Ok((true, self.col_ref(l, rel, col)?))
            } else {
                Ok((false, self.col_ref(r, rel, col)?))
            }
        };
        edges
            .iter()
            .map(|&e| {
                let j = &self.query.joins[e];
                let (a_left, a) = side(j.left_rel, j.left_col)?;
                let (b_left, b) = side(j.right_rel, j.right_col)?;
                Ok(ResCheck {
                    a_left,
                    a,
                    b_left,
                    b,
                    op: j.op,
                })
            })
            .collect()
    }

    /// Batched index-entry scan shared by `IndexScan` and `FullIndexScan`:
    /// walk `entries`, keep rows passing `pass`, settle once per batch.
    #[allow(clippy::too_many_arguments)]
    fn ventry_scan(
        &self,
        ctx: &mut Ctx<'_>,
        my_id: usize,
        rel: RelIdx,
        entries: &[u32],
        pass: &(dyn Fn(usize) -> bool + Sync),
        entry_rate: f64,
        store: bool,
    ) -> Result<VRel, Halt> {
        let compute = |lo: usize, hi: usize, sel: &mut Vec<u32>| {
            let rows = entries[lo..hi].iter().copied();
            keep_rows(sel, store, rows.filter(|&r| pass(r as usize)))
        };
        let par = self.mpar(entries.len());
        let ph = LinPhase {
            base: ctx.spent,
            item_rate: entry_rate,
            emit_rate: self.params.emit_tuple,
        };
        let (_, ids) = drive_batches(
            par,
            ctx,
            my_id,
            entries.len(),
            &ph,
            compute,
            |ctx, lo, hi, e| {
                replay_rows(par, ctx, my_id, lo, hi, e, &ph, |i| {
                    u64::from(pass(entries[i] as usize))
                })
            },
        )?;
        ctx.instr[my_id].complete = true;
        let n = ids.len();
        Ok(VRel::new(vec![rel], vec![ids], n))
    }

    /// Hash-probe membership kernel shared by `AntiJoin` (`keep_matched ==
    /// false`) and `SemiJoin` (`true`): build the right side's key set,
    /// keep the left rows whose key's membership equals `keep_matched`.
    #[allow(clippy::too_many_arguments)]
    fn vmember_join(
        &self,
        ctx: &mut Ctx<'_>,
        my_id: usize,
        l: &VRel,
        r: &VRel,
        edges: &[usize],
        keep_matched: bool,
        store: bool,
    ) -> Result<VRel, Halt> {
        let p = self.params;
        let (lcol, rcol) = self.key_cols(l, r, &self.query.joins[edges[0]])?;
        let base = ctx.spent;
        charge_linear(ctx, base, p.cpu_tuple + p.hash_build, r.len)?;
        let keys = KeySet::build(self.mpar(r.len), &rcol.gather(r.len));
        let survives = |i: usize| keys.contains(lcol.get(i)) == keep_matched;
        let compute = |lo: usize, hi: usize, sel: &mut Vec<u32>| {
            keep_rows(
                sel,
                store,
                (lo as u32..hi as u32).filter(|&i| survives(i as usize)),
            )
        };
        let par = self.mpar(l.len);
        let ph = LinPhase {
            base: ctx.spent,
            item_rate: p.hash_probe,
            emit_rate: p.emit_tuple,
        };
        let (_, sel) = drive_batches(par, ctx, my_id, l.len, &ph, compute, |ctx, lo, hi, e| {
            replay_rows(par, ctx, my_id, lo, hi, e, &ph, |i| u64::from(survives(i)))
        })?;
        ctx.instr[my_id].complete = true;
        let ids = l.ids.iter();
        let ids = ids.map(|ids| sel.iter().map(|&i| ids.get(i as usize)).collect());
        Ok(VRel::new(l.rels.clone(), ids.collect(), sel.len()))
    }

    /// Tuple-exact merge-join replay from the last settled checkpoint.
    /// Only called when the checkpoint's ledger value exceeds the budget,
    /// so the replay always aborts.
    #[allow(clippy::too_many_arguments)]
    fn smj_replay(
        &self,
        ctx: &mut Ctx<'_>,
        my_id: usize,
        base: f64,
        step_rate: f64,
        lk: &[i64],
        rk: &[i64],
        lperm: &[u32],
        rperm: &[u32],
        residuals: &[ResCheck<'_>],
        mut i: usize,
        mut j: usize,
        mut steps: u64,
        mut emitted: u64,
    ) -> Halt {
        let p = self.params;
        ctx.instr[my_id].output_tuples = emitted;
        while i < lk.len() && j < rk.len() {
            steps += 1;
            if let Err(h) = ctx.settle(lin2(base, steps, step_rate, emitted, p.emit_tuple)) {
                return h;
            }
            let (a, b) = (lk[i], rk[j]);
            if a < b {
                i += 1;
            } else if a > b {
                j += 1;
            } else {
                let i_end = i + lk[i..].iter().take_while(|&&x| x == a).count();
                let j_end = j + rk[j..].iter().take_while(|&&x| x == a).count();
                for &lp in &lperm[i..i_end] {
                    for &rp in &rperm[j..j_end] {
                        if res_pass(residuals, lp as usize, rp as usize) {
                            emitted += 1;
                            if let Err(h) =
                                ctx.settle(lin2(base, steps, step_rate, emitted, p.emit_tuple))
                            {
                                return h;
                            }
                            ctx.instr[my_id].output_tuples += 1;
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
        replay_anomaly()
    }

    /// Evaluate a subtree vectorized, consulting the checkpoint book when
    /// one is installed: a validated hit fast-forwards the ledger to the
    /// recorded endpoint and shares the recorded intermediate; a miss runs
    /// [`Engine::veval_inner`] and checkpoints the subtree if it completes.
    /// Intermediates are immutable once built, so capture and hit share one
    /// `Arc` — neither copies a row. With no book (or an armed injector)
    /// this is exactly `veval_inner` — the plain paths stay bit-identical.
    ///
    /// Counters are indexed by post-order op: the subtree's ops are the
    /// `node.size()` from `*next_op` on, its own op last, and `*next_op`
    /// moves past them.
    fn veval(
        &self,
        node: &PlanNode,
        ctx: &mut Ctx<'_>,
        next_op: &mut usize,
        store: bool,
    ) -> Result<Arc<VRel>, Halt> {
        let ops = *next_op..*next_op + node.size();
        let op = ops.end - 1;
        if ctx.resume.is_none() || ctx.faults.is_active() {
            let out = self.veval_inner(node, ctx, next_op, op, store)?;
            *next_op = ops.end;
            return Ok(Arc::new(out));
        }
        let key = (node.fingerprint().0, ctx.spent.to_bits(), store);
        let budget = ctx.budget;
        let hit = ctx.resume.as_deref_mut().and_then(|book| {
            book.get_valid(&key, |snap| {
                snap.spent_after <= budget
                    && snapshot_checksum(snap.spent_after, &snap.vrel, &snap.stats) == snap.checksum
            })
        });
        if let Some(snap) = hit {
            ctx.reused += snap.spent_after - ctx.spent;
            ctx.spent = snap.spent_after;
            ctx.instr[ops.clone()].clone_from_slice(&snap.stats);
            *next_op = ops.end;
            return Ok(Arc::clone(&snap.vrel));
        }
        let out = Arc::new(self.veval_inner(node, ctx, next_op, op, store)?);
        *next_op = ops.end;
        if ctx.instr[op].complete {
            let stats = ctx.instr[ops].to_vec();
            let checksum = snapshot_checksum(ctx.spent, &out, &stats);
            if let Some(book) = ctx.resume.as_deref_mut() {
                book.insert(
                    key,
                    Snapshot {
                        spent_after: ctx.spent,
                        vrel: Arc::clone(&out),
                        stats,
                        checksum,
                    },
                );
            }
        }
        Ok(out)
    }

    /// Evaluate a subtree vectorized. Mirrors `Engine::eval` operator by
    /// operator; every phase settles via the same closed forms.
    fn veval_inner(
        &self,
        node: &PlanNode,
        ctx: &mut Ctx<'_>,
        next_op: &mut usize,
        my_id: usize,
        store: bool,
    ) -> Result<VRel, Halt> {
        let p = self.params;
        // Rows kept by an operator that emitted `emitted`.
        let kept = |emitted: u64| if store { emitted as usize } else { 0 };
        match node {
            PlanNode::SeqScan { rel } => {
                let t = self.db.table(self.query.relations[*rel].table);
                let table_meta = self
                    .db
                    .catalog
                    .table_by_id(self.query.relations[*rel].table);
                let preds = &self.query.relations[*rel].selections;
                ctx.charge(table_meta.pages() * p.seq_page)?;
                // No predicates: every row qualifies in table order, so the
                // output is the dense range and no id is stored.
                let dense = preds.is_empty();
                let pass = |r: usize| passes(preds, &t.columns, r);
                // The first predicate scans its column; the rest check the
                // (usually much fewer) rows it lets through.
                let compute = |lo: usize, hi: usize, sel: &mut Vec<u32>| {
                    let Some((first, rest)) = preds.split_first() else {
                        return (hi - lo) as u64;
                    };
                    let col = &t.columns[first.column.column as usize][lo..hi];
                    let rows = (lo as u32..)
                        .zip(col)
                        .filter(|&(_, &v)| eval_pred(first, v));
                    let rows = rows.map(|(r, _)| r);
                    keep_rows(
                        sel,
                        store,
                        rows.filter(|&r| passes(rest, &t.columns, r as usize)),
                    )
                };
                let par = self.mpar(t.rows);
                let ph = LinPhase {
                    base: ctx.spent,
                    item_rate: p.cpu_tuple + preds.len() as f64 * p.cpu_operator,
                    emit_rate: p.emit_tuple,
                };
                let (emitted, ids) =
                    drive_batches(par, ctx, my_id, t.rows, &ph, compute, |ctx, lo, hi, e| {
                        replay_rows(par, ctx, my_id, lo, hi, e, &ph, |r| u64::from(pass(r)))
                    })?;
                ctx.instr[my_id].complete = true;
                Ok(VRel {
                    rels: vec![*rel],
                    ids: vec![if dense { Ids::Dense } else { Ids::Sel(ids) }],
                    cols: Vec::new(),
                    len: kept(emitted),
                })
            }
            PlanNode::IndexScan { rel, sel_idx } => {
                let t = self.db.table(self.query.relations[*rel].table);
                let preds = &self.query.relations[*rel].selections;
                let key_pred = &preds[*sel_idx];
                let Some(ix) = t.indexes.get(&key_pred.column.column) else {
                    return Err(unindexed(*rel, key_pred.column.column));
                };
                ctx.charge(3.0 * p.random_page)?;
                let entry_rate = p.cpu_index_tuple + p.random_page * p.heap_fetch_factor;
                let pass = |r: usize| {
                    preds.iter().enumerate().all(|(i, pr)| {
                        i == *sel_idx || eval_pred(pr, t.columns[pr.column.column as usize][r])
                    })
                };
                let entries = ix.range(&t.columns[key_pred.column.column as usize], key_pred);
                self.ventry_scan(ctx, my_id, *rel, entries, &pass, entry_rate, store)
            }
            PlanNode::FullIndexScan { rel, column } => {
                let t = self.db.table(self.query.relations[*rel].table);
                let preds = &self.query.relations[*rel].selections;
                let Some(ix) = t.indexes.get(&column.column) else {
                    return Err(unindexed(*rel, column.column));
                };
                ctx.charge((t.rows as f64 / 256.0).max(1.0) * p.seq_page)?;
                let entry_rate = p.cpu_index_tuple
                    + p.random_page * p.heap_fetch_factor
                    + preds.len() as f64 * p.cpu_operator;
                let pass = |r: usize| passes(preds, &t.columns, r);
                self.ventry_scan(ctx, my_id, *rel, ix.rows(), &pass, entry_rate, store)
            }
            PlanNode::HashJoin {
                build,
                probe,
                edges,
            } => {
                let b = self.veval(build, ctx, next_op, true)?;
                let pr = self.veval(probe, ctx, next_op, true)?;
                let (bkey, pkey) = self.key_cols(&b, &pr, &self.query.joins[edges[0]])?;
                let base = ctx.spent;
                // The build charge depends only on the row count, so the
                // ledger settles up front (identical event sequence — the
                // inserts emit no events) and the partitioned build runs
                // only if it fit the budget.
                charge_linear(ctx, base, p.cpu_tuple + p.hash_build, b.len)?;
                let table = KeyRows::build(self.mpar(b.len), &bkey.gather(b.len));
                let residuals = self.resolve_residuals(&b, &pr, &edges[1..])?;
                let out_rels: Vec<RelIdx> = b.rels.iter().chain(&pr.rels).copied().collect();
                let (res, build_rows, checked) =
                    (residuals.as_slice(), table.rows(), !residuals.is_empty());
                // Probe row `i`'s candidates: its key's build rows, recorded
                // by their slot.
                let cands = |i: usize| {
                    let slot = table.slot(pkey.get(i));
                    (slot.unwrap_or(0), slot.map_or(0..0, |s| table.slot_span(s)))
                };
                let pass = |i: usize, k: usize| res_pass(res, build_rows[k] as usize, i);
                let compute = |lo: usize, hi: usize, runs: &mut Vec<Run>| {
                    emit_runs(store.then_some(runs), lo..hi, cands, checked, pass)
                };
                let par = self.mpar(pr.len);
                let ph = LinPhase {
                    base: ctx.spent,
                    item_rate: p.hash_probe,
                    emit_rate: p.emit_tuple,
                };
                let (emitted, runs) =
                    drive_batches(par, ctx, my_id, pr.len, &ph, compute, |ctx, lo, hi, e| {
                        replay_rows(par, ctx, my_id, lo, hi, e, &ph, |i| {
                            emit_runs(None, [i].into_iter(), cands, checked, pass)
                        })
                    })?;
                ctx.instr[my_id].complete = true;
                let n = kept(emitted);
                let span = |_, x| {
                    if checked {
                        x..x + 1
                    } else {
                        table.slot_span(x)
                    }
                };
                let mut ids = expand(&pr, &b, &runs, span, |k| build_rows[k] as usize, n);
                ids.rotate_left(pr.rels.len());
                Ok(VRel::new(out_rels, ids, n))
            }
            PlanNode::SortMergeJoin {
                left,
                right,
                edges,
                sort_left,
                sort_right,
            } => {
                let l = self.veval(left, ctx, next_op, true)?;
                let r = self.veval(right, ctx, next_op, true)?;
                let (lkey, rkey) = self.key_cols(&l, &r, &self.query.joins[edges[0]])?;
                if *sort_left {
                    let n = l.len.max(2) as f64;
                    ctx.charge(n * n.log2() * 2.0 * p.cpu_operator)?;
                }
                if *sort_right {
                    let n = r.len.max(2) as f64;
                    ctx.charge(n * n.log2() * 2.0 * p.cpu_operator)?;
                }
                // Stable argsort over the key column: a stable sort's output
                // permutation is unique, so the (possibly parallel) argsort
                // is the exact permutation the reference engine's
                // `sort_by_key` row sort applies.
                let (lkeys, rkeys) = (lkey.gather(l.len), rkey.gather(r.len));
                let lperm = par_stable_argsort(self.mpar(l.len), &lkeys);
                let rperm = par_stable_argsort(self.mpar(r.len), &rkeys);
                let lk: Vec<i64> = lperm.iter().map(|&x| lkeys[x as usize]).collect();
                let rk: Vec<i64> = rperm.iter().map(|&x| rkeys[x as usize]).collect();
                let residuals = self.resolve_residuals(&l, &r, &edges[1..])?;
                let out_rels: Vec<RelIdx> = l.rels.iter().chain(&r.rels).copied().collect();
                let base = ctx.spent;
                let step_rate = 2.0 * p.cpu_operator;
                let (ln, rn) = (lk.len(), rk.len());
                let (mut i, mut j) = (0usize, 0usize);
                let (mut steps, mut emitted) = (0u64, 0u64);
                // Checkpoint = merge state at the last successful settle.
                let (mut ci, mut cj, mut csteps, mut cemitted) = (0usize, 0usize, 0u64, 0u64);
                // One run per left row of an equal-key group: its right run,
                // recorded by where it starts.
                let (mut runs, checked) = (Vec::new(), !residuals.is_empty());
                let pass = |lp: usize, k: usize| res_pass(&residuals, lp, rperm[k] as usize);
                while i < ln && j < rn {
                    steps += 1;
                    let (a, b) = (lk[i], rk[j]);
                    if a < b {
                        i += 1;
                    } else if a > b {
                        j += 1;
                    } else {
                        let i_end = i + lk[i..].iter().take_while(|&&x| x == a).count();
                        let j_end = j + rk[j..].iter().take_while(|&&x| x == a).count();
                        let rows = lperm[i..i_end].iter().map(|&lp| lp as usize);
                        let rec = store.then_some(&mut runs);
                        emitted += emit_runs(rec, rows, |_| (j, j..j_end), checked, pass);
                        i = i_end;
                        j = j_end;
                    }
                    // Settle at batch cadence and once more at the end.
                    let done = i >= ln || j >= rn;
                    if (steps - csteps) + (emitted - cemitted) >= BATCH as u64 || done {
                        let end = lin2(base, steps, step_rate, emitted, p.emit_tuple);
                        if end > ctx.budget {
                            return Err(self.smj_replay(
                                ctx, my_id, base, step_rate, &lk, &rk, &lperm, &rperm, &residuals,
                                ci, cj, csteps, cemitted,
                            ));
                        }
                        ctx.commit(end)?;
                        ctx.instr[my_id].output_tuples = emitted;
                        (ci, cj, csteps, cemitted) = (i, j, steps, emitted);
                    }
                }
                ctx.instr[my_id].complete = true;
                let n = kept(emitted);
                let group = |j: usize| j..j + rk[j..].iter().take_while(|&&x| x == rk[j]).count();
                let span = |_, x| if checked { x..x + 1 } else { group(x) };
                let ids = expand(&l, &r, &runs, span, |k| rperm[k] as usize, n);
                Ok(VRel::new(out_rels, ids, n))
            }
            PlanNode::IndexNLJoin {
                outer,
                inner_rel,
                edges,
            } => {
                let o = self.veval(outer, ctx, next_op, true)?;
                let j0 = &self.query.joins[edges[0]];
                let t = self.db.table(self.query.relations[*inner_rel].table);
                let inner_preds = &self.query.relations[*inner_rel].selections;
                let (okey_rel, okey_col, ikey_col) = if o.rels.contains(&j0.left_rel) {
                    (j0.left_rel, j0.left_col, j0.right_col)
                } else {
                    (j0.right_rel, j0.right_col, j0.left_col)
                };
                let okeys = self.col_ref(&o, okey_rel, okey_col)?;
                let Some(ix) = t.indexes.get(&ikey_col.column) else {
                    return Err(unindexed(*inner_rel, ikey_col.column));
                };
                // The inner side is the base table itself: a match's
                // position *is* its row id.
                let inner = VRel {
                    rels: vec![*inner_rel],
                    ids: vec![Ids::Dense],
                    cols: Vec::new(),
                    len: t.rows,
                };
                let residuals = self.resolve_residuals(&o, &inner, &edges[1..])?;
                let out_rels: Vec<RelIdx> = o.rels.iter().copied().chain([*inner_rel]).collect();
                let base = ctx.spent;
                let entry_rate = p.cpu_index_tuple + p.random_page * p.heap_fetch_factor;
                let end_value = |looks: u64, probed: u64, emitted: u64| {
                    lin3(
                        base,
                        looks,
                        p.index_lookup,
                        probed,
                        entry_rate,
                        emitted,
                        p.emit_tuple,
                    )
                };
                // Where outer row `oi`'s key sits among the index's rows, and
                // whether the inner row `r` found there joins.
                let icol = &t.columns[ikey_col.column as usize];
                let span = |oi: usize| ix.span(icol, okeys.get(oi));
                let index_rows = ix.rows();
                let checked = !(inner_preds.is_empty() && residuals.is_empty());
                let joins = |oi: usize, r: usize| {
                    passes(inner_preds, &t.columns, r) && res_pass(&residuals, oi, r)
                };
                let pass = |oi: usize, k: usize| joins(oi, index_rows[k] as usize);
                let compute = |oi: usize, runs: &mut Vec<Run>| {
                    let (s, rec) = (span(oi), store.then_some(runs));
                    let probed = s.len() as u64;
                    (
                        probed,
                        emit_runs(rec, [oi].into_iter(), |_| (0, s.clone()), checked, pass),
                    )
                };
                let (emitted, runs) = drive_items(
                    self.mpar(o.len),
                    ctx,
                    my_id,
                    o.len,
                    compute,
                    end_value,
                    |ctx, oi, mut probed, mut emitted| {
                        let looks = oi as u64 + 1;
                        ctx.settle(end_value(looks, probed, emitted))?;
                        for &r in &index_rows[span(oi)] {
                            probed += 1;
                            ctx.settle(end_value(looks, probed, emitted))?;
                            if joins(oi, r as usize) {
                                emitted += 1;
                                ctx.settle(end_value(looks, probed, emitted))?;
                                ctx.instr[my_id].output_tuples += 1;
                            }
                        }
                        Ok(())
                    },
                )?;
                ctx.instr[my_id].complete = true;
                let n = kept(emitted);
                let run = |oi, x| if checked { x..x + 1 } else { span(oi) };
                let ids = expand(&o, &inner, &runs, run, |k| index_rows[k] as usize, n);
                Ok(VRel::new(out_rels, ids, n))
            }
            PlanNode::BlockNLJoin {
                outer,
                inner,
                edges,
            } => {
                let o = self.veval(outer, ctx, next_op, true)?;
                let inn = self.veval(inner, ctx, next_op, true)?;
                let residuals = self.resolve_residuals(&o, &inn, edges)?;
                let out_rels: Vec<RelIdx> = o.rels.iter().chain(&inn.rels).copied().collect();
                let base = ctx.spent;
                let pair_rate = p.cpu_operator * edges.len().max(1) as f64;
                let inn_len = inn.len as u64;
                let pass = |oi: usize, ii: usize| res_pass(&residuals, oi, ii);
                let compute = |oi: usize, runs: &mut Vec<Run>| {
                    let rec = store.then_some(runs);
                    (
                        0,
                        emit_runs(rec, [oi].into_iter(), |_| (0, 0..inn.len), true, pass),
                    )
                };
                let (emitted, runs) = drive_items(
                    self.mpar(o.len),
                    ctx,
                    my_id,
                    o.len,
                    compute,
                    // The pairs counter advances `inn.len` per outer row, so
                    // at `items` processed rows it is `items * inn.len`.
                    |items, _c1, emitted| {
                        lin2(base, items * inn_len, pair_rate, emitted, p.emit_tuple)
                    },
                    |ctx, oi, _c1, mut emitted| {
                        let mut pairs_n = oi as u64 * inn_len;
                        for ii in 0..inn.len {
                            pairs_n += 1;
                            ctx.settle(lin2(base, pairs_n, pair_rate, emitted, p.emit_tuple))?;
                            if res_pass(&residuals, oi, ii) {
                                emitted += 1;
                                ctx.settle(lin2(base, pairs_n, pair_rate, emitted, p.emit_tuple))?;
                                ctx.instr[my_id].output_tuples += 1;
                            }
                        }
                        Ok(())
                    },
                )?;
                ctx.instr[my_id].complete = true;
                let n = kept(emitted);
                let ids = expand(&o, &inn, &runs, |_, x| x..x + 1, |k| k, n);
                Ok(VRel::new(out_rels, ids, n))
            }
            PlanNode::AntiJoin { left, right, edges }
            | PlanNode::SemiJoin { left, right, edges } => {
                let l = self.veval(left, ctx, next_op, true)?;
                let r = self.veval(right, ctx, next_op, true)?;
                let keep_matched = matches!(node, PlanNode::SemiJoin { .. });
                self.vmember_join(ctx, my_id, &l, &r, edges, keep_matched, store)
            }
            PlanNode::HashAggregate { input } => {
                let i = self.veval(input, ctx, next_op, true)?;
                let base = ctx.spent;
                let in_rate = p.cpu_tuple + p.hash_build;
                let keys: Vec<ColRef<'_>> = self
                    .query
                    .group_by
                    .iter()
                    .map(|&(r, c)| self.col_ref(&i, r, c))
                    .collect::<Result<_, _>>()?;
                // The input charge depends only on the row count: settle the
                // ledger up front (identical event sequence), then count
                // groups — in parallel when the input clears the morsel
                // gate. The merged maps replicate the serial maps' distinct-
                // key insertion sequence (global first-occurrence order), so
                // their layout and iteration order are bit-identical to a
                // serial build (see `morsel::par_group_counts`).
                charge_linear(ctx, base, in_rate, i.len)?;
                // Group keys: the general path hashes a Vec<i64> per row;
                // zero- and one-column keys (the common shapes) skip that.
                let mut groups: FastMap<Vec<i64>, i64> = FastMap::default();
                let mut groups1: FastMap<i64, i64> = FastMap::default();
                match keys.as_slice() {
                    [] => {
                        if i.len > 0 {
                            *groups.entry(Vec::new()).or_insert(0) += i.len as i64;
                        }
                    }
                    [col] => {
                        par_group_counts(self.mpar(i.len), i.len, |row| col.get(row), &mut groups1);
                    }
                    _ => {
                        par_group_counts(
                            self.mpar(i.len),
                            i.len,
                            |row| -> Vec<i64> { keys.iter().map(|c| c.get(row)).collect() },
                            &mut groups,
                        );
                    }
                }
                for (k, c) in groups1 {
                    groups.insert(vec![k], c);
                }
                let gbase = ctx.spent;
                let ng = groups.len() as u64;
                let mut emitted = 0u64;
                let mut cols = if store {
                    vec![Vec::new(); keys.len() + 1]
                } else {
                    Vec::new()
                };
                let mut giter = groups.iter();
                while emitted < ng {
                    let chunk = (ng - emitted).min(BATCH as u64);
                    let end = lin2(gbase, emitted + chunk, p.emit_tuple, 0, 0.0);
                    if end > ctx.budget {
                        for g in emitted + 1..=ng {
                            ctx.settle(lin2(gbase, g, p.emit_tuple, 0, 0.0))?;
                            ctx.instr[my_id].output_tuples += 1;
                        }
                        return Err(replay_anomaly());
                    }
                    ctx.commit(end)?;
                    if store {
                        for _ in 0..chunk {
                            let Some((key, count)) = giter.next() else {
                                return Err(Halt::Fault(PbError::Internal(
                                    "group under-count".into(),
                                )));
                            };
                            for (c, v) in cols.iter_mut().zip(key.iter().chain([count])) {
                                c.push(*v);
                            }
                        }
                    }
                    emitted += chunk;
                    ctx.instr[my_id].output_tuples = emitted;
                }
                ctx.instr[my_id].complete = true;
                Ok(VRel {
                    rels: Vec::new(),
                    ids: Vec::new(),
                    cols,
                    len: kept(ng),
                })
            }
            PlanNode::Spill { input } => {
                let i = self.veval(input, ctx, next_op, false)?;
                let discarded = ctx.instr[my_id - 1].output_tuples as f64;
                ctx.charge(discarded * p.cpu_tuple)?;
                ctx.instr[my_id].output_tuples = 0;
                ctx.instr[my_id].complete = true;
                Ok(VRel::new(i.rels.clone(), vec![Vec::new(); i.rels.len()], 0))
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::data::Database;
    use pb_catalog::tpch;
    use pb_cost::CostModel;
    use pb_plan::{CmpOp, QueryBuilder, QuerySpec, SelSpec};

    /// The relations and rows of every intermediate `book` retains, a row
    /// being every column of each relation: the oracle's layout.
    pub(crate) fn retained_rows(
        eng: &Engine<'_>,
        book: &ResumeBook,
    ) -> Vec<(Vec<RelIdx>, Vec<Vec<i64>>)> {
        let row = |v: &VRel, i: usize| -> Vec<i64> {
            let cols = v.rels.iter().zip(&v.ids).flat_map(|(&rel, ids)| {
                let t = eng.db.table(eng.query.relations[rel].table);
                t.columns.iter().map(move |c| c[ids.get(i) as usize])
            });
            cols.collect()
        };
        let rows = |v: &VRel| (0..v.len).map(|i| row(v, i)).collect();
        book.iter()
            .map(|(_, s)| (s.vrel.rels.clone(), rows(&s.vrel)))
            .collect()
    }

    fn setup() -> (Database, QuerySpec, CostModel) {
        let cat = tpch::catalog(0.005);
        let db = Database::generate(&cat, 7, &[]).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "vq");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1400.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        (db, qb.build(), CostModel::postgresish())
    }

    #[test]
    fn vectorized_merge_join_respects_store_flag() {
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
        let rel = eng.veval(&plan, &mut ctx, &mut 0, false).ok().unwrap();
        assert!(
            rel.len == 0
                && rel
                    .ids
                    .iter()
                    .all(|ids| matches!(ids, Ids::Sel(v) if v.is_empty()))
        );
        // The merge join is op 2, after its two scans.
        assert!(ctx.instr[2].output_tuples > 0);
    }
}
