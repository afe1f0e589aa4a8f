//! Morsel-driven parallel drivers for the vectorized engine.
//!
//! A morsel is one [`BATCH`]-row block of an operator phase's input. The
//! drivers here split every linear phase into two halves:
//!
//! * **compute** — a pure function of the morsel's row range (filter, probe,
//!   index walk) yielding its emit count and its records: surviving row
//!   ids, or one match run per outer row for a join; it never touches the
//!   ledger or the fault injector. These fan out over `pb-cost`'s
//!   deterministic chunked work-stealing pool ([`par_map`]), in waves, and
//!   their records are reassembled in morsel order.
//! * **account** — the coordinator walks the per-morsel results *in morsel
//!   order* and replays exactly the ledger event sequence the serial engine
//!   produces: one [`Ctx::commit`] per batch with the closed-form
//!   [`lin2`]/[`lin3`] end value, and on a budget crossing the usual
//!   tuple-at-a-time replay of the offending batch.
//!
//! Because the ledger (and therefore the fault-trigger counters, the abort
//! tuple, the clamped cost and the instrumentation) only ever advances on
//! the coordinator, in batch order, with the exact values the serial engine
//! computes, the outcome is bit-identical for every worker count — the
//! per-worker "ledgers" are the closed-form counter deltas carried by each
//! morsel result, merged in the one fixed order that exists: ascending
//! morsel order.
//!
//! Waves bound the wasted work past an abort: at most one wave of morsels
//! is in flight, and a wave is pre-trimmed against the budget using the
//! emit-free lower bound of the closed form (monotonicity: if the value at
//! batch end with zero emits already exceeds the budget, no later batch can
//! be reached).

use pb_cost::{par_map, run_chunked, Parallelism};

use crate::ledger::{lin2, replay_anomaly, Ctx, Halt, BATCH};

/// Constants of one two-counter linear phase: `base + items·item_rate +
/// emitted·emit_rate`.
pub(crate) struct LinPhase {
    pub base: f64,
    pub item_rate: f64,
    pub emit_rate: f64,
}

/// Morsels dispatched per wave: enough to keep every worker busy through
/// `run_chunked`'s ~8-chunks-per-worker stealing, small enough that an
/// abort mid-wave wastes bounded compute.
fn wave_batches(workers: usize) -> usize {
    (workers * 8).max(16)
}

/// Drive one batch-granular linear phase over `0..n_items`.
///
/// `compute(lo, hi, out)` returns how many tuples rows `lo..hi` emit and
/// appends what the operator records of them to `out`: row ids, match runs,
/// or nothing when it only counts. It must be pure in the row range. The
/// coordinator settles the ledger exactly as the serial engine does and
/// keeps node `instr_node`'s `output_tuples`; `replay(ctx, lo, hi, emitted)`
/// re-runs the crossing batch tuple-at-a-time (it is only invoked when the
/// batch-end value exceeds the budget, so it must abort — the driver
/// converts a completed replay into the typed anomaly).
///
/// Returns the total emit count and every batch's records in batch order:
/// serially `compute` appends straight to that one list, a wave's batches
/// each fill their own, appended as they commit. An aborted phase returns
/// no records, so whatever an operator writes from them is written after
/// its last commit.
pub(crate) fn drive_batches<T, C, P>(
    par: Parallelism,
    ctx: &mut Ctx<'_>,
    instr_node: usize,
    n_items: usize,
    ph: &LinPhase,
    compute: C,
    mut replay: P,
) -> Result<(u64, Vec<T>), Halt>
where
    T: Send,
    C: Fn(usize, usize, &mut Vec<T>) -> u64 + Sync,
    P: FnMut(&mut Ctx<'_>, usize, usize, u64) -> Result<(), Halt>,
{
    let (mut emitted, mut out) = (0u64, Vec::new());
    let mut account = |ctx: &mut Ctx<'_>, emitted: &mut u64, lo: usize, hi: usize, k: u64| {
        let end = lin2(ph.base, hi as u64, ph.item_rate, *emitted + k, ph.emit_rate);
        if end > ctx.budget {
            replay(ctx, lo, hi, *emitted)?;
            return Err(replay_anomaly());
        }
        ctx.commit(end)?;
        *emitted += k;
        ctx.instr[instr_node].output_tuples = *emitted;
        Ok(())
    };
    if par.workers <= 1 {
        let mut lo = 0usize;
        while lo < n_items {
            let hi = (lo + BATCH).min(n_items);
            let k = compute(lo, hi, &mut out);
            account(ctx, &mut emitted, lo, hi, k)?;
            lo = hi;
        }
        return Ok((emitted, out));
    }

    let n_batches = n_items.div_ceil(BATCH);
    let bounds = |b: usize| (b * BATCH, (b * BATCH + BATCH).min(n_items));
    let mut b0 = 0usize;
    while b0 < n_batches {
        let mut nb = wave_batches(par.workers).min(n_batches - b0);
        // Trim the wave against the emit-free lower bound: batches past the
        // first bound crossing can never be committed (monotonicity), so
        // computing them would be pure waste. The trim depends only on the
        // counters, never on worker count.
        for i in 0..nb {
            let hi = bounds(b0 + i).1;
            if lin2(ph.base, hi as u64, ph.item_rate, emitted, ph.emit_rate) > ctx.budget {
                nb = i + 1;
                break;
            }
        }
        let results = par_map(par, nb, |i| {
            let (lo, hi) = bounds(b0 + i);
            let mut recs = Vec::new();
            let k = compute(lo, hi, &mut recs);
            (k, recs)
        });
        for (i, (k, mut recs)) in results.into_iter().enumerate() {
            let (lo, hi) = bounds(b0 + i);
            account(ctx, &mut emitted, lo, hi, k)?;
            out.append(&mut recs);
        }
        b0 += nb;
    }
    Ok((emitted, out))
}

/// Tuple-exact replay of one over-budget batch for the standard two-counter
/// row phases (scan filters, index-entry walks, hash/anti-join probes):
/// row `r` advances the item counter to `r + 1` and emits `emits(r)`
/// tuples. The per-row emit counts are a pure function of the row, so they
/// are precomputed fanned over `par`; the coordinator then issues the
/// serial engine's exact ledger event sequence — one settle per row, one
/// settle per emitted tuple — so the abort tuple, the clamped cost and the
/// instrumentation are bit-identical for every worker count, including the
/// fault-trigger event ordering an armed injector observes.
///
/// Only invoked when the batch-end value exceeds the budget, so the settle
/// loop must abort; callers convert a completed replay into the typed
/// anomaly via `drive_batches`.
#[allow(clippy::too_many_arguments)] // mirrors the drive_batches replay contract
pub(crate) fn replay_rows<E>(
    par: Parallelism,
    ctx: &mut Ctx<'_>,
    instr_node: usize,
    lo: usize,
    hi: usize,
    mut emitted: u64,
    ph: &LinPhase,
    emits: E,
) -> Result<(), Halt>
where
    E: Fn(usize) -> u64 + Sync,
{
    let counts: Vec<u64> = if par.workers <= 1 || hi - lo < 2 {
        (lo..hi).map(&emits).collect()
    } else {
        run_chunked(par, hi - lo, |_, range| {
            range.map(|i| emits(lo + i)).collect::<Vec<u64>>()
        })
        .into_iter()
        .flatten()
        .collect()
    };
    for (off, &k) in counts.iter().enumerate() {
        let seen = (lo + off) as u64 + 1;
        ctx.settle(lin2(ph.base, seen, ph.item_rate, emitted, ph.emit_rate))?;
        for _ in 0..k {
            emitted += 1;
            ctx.settle(lin2(ph.base, seen, ph.item_rate, emitted, ph.emit_rate))?;
            ctx.instr[instr_node].output_tuples += 1;
        }
    }
    Ok(())
}

/// Ledger-only linear phase (hash-join build, aggregate input): the charge
/// depends only on the item count, so the coordinator settles all batches
/// up front and the (parallel) data work runs only if the phase fit the
/// budget. Identical event sequence to the serial engine's interleaved
/// loop — the data work emits no ledger events either way.
pub(crate) fn charge_linear(
    ctx: &mut Ctx<'_>,
    base: f64,
    rate: f64,
    n_items: usize,
) -> Result<(), Halt> {
    let mut lo = 0usize;
    while lo < n_items {
        let hi = (lo + BATCH).min(n_items);
        let end = lin2(base, hi as u64, rate, 0, 0.0);
        if end > ctx.budget {
            for i in lo..hi {
                ctx.settle(lin2(base, i as u64 + 1, rate, 0, 0.0))?;
            }
            return Err(replay_anomaly());
        }
        ctx.commit(end)?;
        lo = hi;
    }
    Ok(())
}

/// Drive one item-granular phase (index/block nested-loops: one ledger
/// commit per outer row).
///
/// `compute(item, out)` returns the item's secondary counter delta (probed
/// index entries; 0 when unused) and its emit count, and appends what the
/// operator records of its matches to `out`, as in [`drive_batches`].
/// `end_value(items_next, c1_next, emitted_next)` is the operator's closed
/// form at prospective counter values; `replay(ctx, item, c1, emitted)`
/// re-runs the crossing item tuple-at-a-time and must abort. Returns the
/// emit count and the records in item order, none when the phase aborts.
pub(crate) fn drive_items<T, C, E, P>(
    par: Parallelism,
    ctx: &mut Ctx<'_>,
    instr_node: usize,
    n_items: usize,
    compute: C,
    end_value: E,
    mut replay: P,
) -> Result<(u64, Vec<T>), Halt>
where
    T: Send,
    C: Fn(usize, &mut Vec<T>) -> (u64, u64) + Sync,
    E: Fn(u64, u64, u64) -> f64,
    P: FnMut(&mut Ctx<'_>, usize, u64, u64) -> Result<(), Halt>,
{
    // (c1, emitted) so far; one commit per item.
    let (mut counts, mut out) = ((0u64, 0u64), Vec::new());
    let mut account = |ctx: &mut Ctx<'_>, (c1, emitted): &mut (u64, u64), item: usize, d1, k| {
        let end = end_value(item as u64 + 1, *c1 + d1, *emitted + k);
        if end > ctx.budget {
            replay(ctx, item, *c1, *emitted)?;
            return Err(replay_anomaly());
        }
        ctx.commit(end)?;
        (*c1, *emitted) = (*c1 + d1, *emitted + k);
        ctx.instr[instr_node].output_tuples = *emitted;
        Ok(())
    };
    if par.workers <= 1 || n_items == 0 {
        for item in 0..n_items {
            let (d1, k) = compute(item, &mut out);
            account(ctx, &mut counts, item, d1, k)?;
        }
        return Ok((counts.1, out));
    }

    // Waves of items; each chunk returns (per-item counter deltas, its
    // records) reassembled in chunk order = item order.
    let wave = (par.workers * 1024).max(4096);
    let mut i0 = 0usize;
    while i0 < n_items {
        let mut nw = wave.min(n_items - i0);
        // Emit-free trim, as in `drive_batches`: c1 deltas are unknown but
        // non-negative, so the items-only bound is still a lower bound.
        for i in 0..nw {
            if end_value((i0 + i) as u64 + 1, counts.0, counts.1) > ctx.budget {
                nw = i + 1;
                break;
            }
        }
        let chunks = run_chunked(par, nw, |_, range| {
            let mut recs = Vec::new();
            let meta: Vec<(u64, u64)> = range.map(|i| compute(i0 + i, &mut recs)).collect();
            (meta, recs)
        });
        let mut item = i0;
        for (meta, mut recs) in chunks {
            for (d1, k) in meta {
                account(ctx, &mut counts, item, d1, k)?;
                item += 1;
            }
            out.append(&mut recs);
        }
        i0 += nw;
    }
    Ok((counts.1, out))
}

// ---------------------------------------------------------------------------
// Parallel stable argsort (sort-merge join)
// ---------------------------------------------------------------------------

/// Stable argsort of `keys`: chunk-local stable sorts merged pairwise with
/// left-run preference on ties. A stable sort's output permutation is
/// unique, so this equals `sort_by_key` on the identity permutation bit for
/// bit, for every worker count and chunking.
pub(crate) fn par_stable_argsort(par: Parallelism, keys: &[i64]) -> Vec<u32> {
    let n = keys.len();
    if par.workers <= 1 || n < 2 {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&x| keys[x as usize]);
        return perm;
    }
    let n_chunks = (par.workers * 2).min(n);
    let chunk = n.div_ceil(n_chunks);
    let mut runs: Vec<Vec<u32>> = par_map(par, n.div_ceil(chunk), |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        let mut perm: Vec<u32> = (lo as u32..hi as u32).collect();
        perm.sort_by_key(|&x| keys[x as usize]);
        perm
    });
    while runs.len() > 1 {
        let pairs = runs.len() / 2;
        let mut merged = par_map(par, pairs, |p| {
            merge_runs(keys, &runs[2 * p], &runs[2 * p + 1])
        });
        if runs.len() % 2 == 1 {
            // Odd run out: it holds the highest original indices, so it
            // stays last and merges next round.
            let last = runs.len() - 1;
            merged.push(std::mem::take(&mut runs[last]));
        }
        runs = merged;
    }
    runs.pop().unwrap_or_default()
}

/// Stable two-run merge: ties take from `a`, whose indices all precede
/// `b`'s in the original order.
fn merge_runs(keys: &[i64], a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if keys[a[i] as usize] <= keys[b[j] as usize] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// ---------------------------------------------------------------------------
// Parallel grouped counting (hash aggregate)
// ---------------------------------------------------------------------------

use crate::vec_exec::FastMap;

/// Per-chunk distinct-key counts in chunk-first-occurrence order, merged in
/// chunk order. The merged map's *insertion sequence of distinct keys* is
/// then the global first-occurrence order — exactly the sequence the serial
/// row-at-a-time loop produces — so the map's layout, and therefore its
/// iteration order at emission, is bit-identical to the serial engine's.
pub(crate) fn par_group_counts<K, G>(
    par: Parallelism,
    n_rows: usize,
    key_of: G,
    out: &mut FastMap<K, i64>,
) where
    K: std::hash::Hash + Eq + Clone + Send,
    G: Fn(usize) -> K + Sync,
{
    if par.workers <= 1 {
        for row in 0..n_rows {
            *out.entry(key_of(row)).or_insert(0) += 1;
        }
        return;
    }
    let chunks = run_chunked(par, n_rows, |_, range| {
        let mut order: Vec<(K, i64)> = Vec::new();
        let mut seen: FastMap<K, usize> = FastMap::default();
        for row in range {
            let key = key_of(row);
            match seen.get(&key) {
                Some(&slot) => order[slot].1 += 1,
                None => {
                    seen.insert(key.clone(), order.len());
                    order.push((key, 1));
                }
            }
        }
        order
    });
    for chunk in chunks {
        for (key, count) in chunk {
            *out.entry(key).or_insert(0) += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_faults::FaultInjector;

    fn ctx<'f>(budget: f64, faults: &'f FaultInjector, nodes: usize) -> Ctx<'f> {
        Ctx {
            spent: 0.0,
            budget,
            instr: vec![crate::exec::NodeStats::default(); nodes],
            faults,
            resume: None,
            reused: 0.0,
            cancel: None,
        }
    }

    #[test]
    fn drive_batches_matches_serial_for_any_worker_count() {
        let n = 10_000usize;
        let ph = LinPhase {
            base: 1.0,
            item_rate: 0.01,
            emit_rate: 0.002,
        };
        let compute = |lo: usize, hi: usize, sel: &mut Vec<usize>| {
            let before = sel.len();
            sel.extend((lo..hi).filter(|i| i % 3 == 0));
            (sel.len() - before) as u64
        };
        let inert = FaultInjector::none();
        let run = |workers: usize, budget: f64| {
            let mut c = ctx(budget, &inert, 1);
            let r = drive_batches(
                Parallelism::new(workers),
                &mut c,
                0,
                n,
                &ph,
                compute,
                |c, lo, hi, mut em| {
                    let mut seen = lo as u64;
                    for i in lo..hi {
                        seen += 1;
                        c.settle(lin2(ph.base, seen, ph.item_rate, em, ph.emit_rate))?;
                        if i % 3 == 0 {
                            em += 1;
                            c.settle(lin2(ph.base, seen, ph.item_rate, em, ph.emit_rate))?;
                        }
                    }
                    Ok(())
                },
            );
            (r.ok(), c.spent.to_bits(), c.instr[0].output_tuples)
        };
        for budget in [f64::INFINITY, 120.0, 60.0, 10.0, 1.5] {
            let serial = run(1, budget);
            for w in [2, 3, 8] {
                assert_eq!(serial, run(w, budget), "workers {w} budget {budget}");
            }
        }
    }

    #[test]
    fn replay_rows_is_bit_identical_across_worker_counts() {
        // Replays abort by construction (the batch-end value exceeded the
        // budget); every worker count must stop at the same ledger event
        // with the same clamped spend and the same emitted-tuple count.
        let (lo, hi) = (4096usize, 8192usize);
        let ph = LinPhase {
            base: 1.0,
            item_rate: 0.01,
            emit_rate: 0.002,
        };
        let emits = |i: usize| u64::from(i.is_multiple_of(5)) * (1 + (i % 3) as u64);
        let inert = FaultInjector::none();
        let run = |workers: usize, budget: f64| {
            let mut c = ctx(budget, &inert, 1);
            let aborted = matches!(
                replay_rows(
                    Parallelism::new(workers),
                    &mut c,
                    0,
                    lo,
                    hi,
                    900,
                    &ph,
                    emits
                ),
                Err(Halt::Abort)
            );
            (aborted, c.spent.to_bits(), c.instr[0].output_tuples)
        };
        for budget in [55.0, 70.0, 85.0] {
            let serial = run(1, budget);
            assert!(serial.0, "replay must abort at budget {budget}");
            for w in [2, 3, 8] {
                assert_eq!(serial, run(w, budget), "workers {w} budget {budget}");
            }
        }
    }

    #[test]
    fn par_stable_argsort_equals_sort_by_key() {
        let keys: Vec<i64> = (0..30_000)
            .map(|i| (i * 2654435761u64 as usize % 50) as i64)
            .collect();
        let mut expect: Vec<u32> = (0..keys.len() as u32).collect();
        expect.sort_by_key(|&x| keys[x as usize]);
        for w in [2, 3, 4, 8] {
            assert_eq!(
                expect,
                par_stable_argsort(Parallelism::new(w), &keys),
                "workers {w}"
            );
        }
    }

    #[test]
    fn par_group_counts_replicates_serial_insertion_order() {
        let rows: Vec<i64> = (0..25_000).map(|i| ((i * 31) % 113) as i64).collect();
        let mut serial: FastMap<i64, i64> = FastMap::default();
        for &v in &rows {
            *serial.entry(v).or_insert(0) += 1;
        }
        let serial_iter: Vec<(i64, i64)> = serial.iter().map(|(&k, &c)| (k, c)).collect();
        for w in [2, 4, 8] {
            let mut par: FastMap<i64, i64> = FastMap::default();
            par_group_counts(Parallelism::new(w), rows.len(), |r| rows[r], &mut par);
            let par_iter: Vec<(i64, i64)> = par.iter().map(|(&k, &c)| (k, c)).collect();
            assert_eq!(serial_iter, par_iter, "workers {w}");
        }
    }
}
