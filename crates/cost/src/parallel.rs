//! Worker-pool configuration and deterministic chunked work-stealing for
//! the identification pipeline.
//!
//! Every parallel phase in the pipeline (plan-diagram construction, the
//! POSP cost matrix, per-contour frontier scans) fans work out over linear
//! indices with [`run_chunked`]: workers claim chunks from a shared atomic
//! cursor, and the per-chunk results are reassembled in chunk order. Chunk
//! boundaries are *not* fixed — the chunk size is derived from the worker
//! count — but every caller's per-chunk result is a pure function of its
//! index range whose concatenation in index order does not depend on where
//! the range was cut, so merged output is identical for any worker count.
//! That is what lets the parallel pipeline promise byte-identical artefacts
//! to the sequential one. How many chunks there were is a scheduling detail
//! that varies with the worker count, and no caller reports it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Global worker-count override (0 = unset), set once at startup by the
/// `--jobs` CLI flag and read by [`Parallelism::auto`].
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count [`Parallelism::auto`] hands out. `0` restores
/// the hardware default. Intended for `--jobs N` style CLI flags.
pub fn set_default_workers(n: usize) {
    DEFAULT_WORKERS.store(n, Ordering::Relaxed);
}

/// Worker-count policy for the identification pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads to use (>= 1). `1` means run inline on the
    /// calling thread.
    pub workers: usize,
}

impl Parallelism {
    /// The default policy: the `--jobs` override if set, else all available
    /// cores.
    pub fn auto() -> Self {
        let override_n = DEFAULT_WORKERS.load(Ordering::Relaxed);
        if override_n > 0 {
            return Parallelism {
                workers: override_n,
            };
        }
        let cores = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        Parallelism { workers: cores }
    }

    /// Exactly one worker: the sequential reference path.
    pub fn serial() -> Self {
        Parallelism { workers: 1 }
    }

    /// A fixed worker count (clamped to >= 1).
    pub fn new(workers: usize) -> Self {
        Parallelism {
            workers: workers.max(1),
        }
    }

    /// Workers capped to the amount of work actually available.
    pub fn for_items(&self, n_items: usize) -> usize {
        self.workers.min(n_items.max(1))
    }

    /// Demote to serial for small grids, where thread spawn and chunk
    /// hand-off cost more than the work saves (see [`PARALLEL_MIN_GRID`]).
    /// The output is unchanged either way — chunked merges are
    /// deterministic — so this only moves the crossover point.
    pub fn for_grid(&self, n_points: usize) -> Parallelism {
        if n_points < PARALLEL_MIN_GRID {
            Parallelism::serial()
        } else {
            *self
        }
    }

    /// Generic per-phase gate: demote to serial when the phase's measured
    /// work volume (in whatever unit the phase counts — grid points, matrix
    /// cells) is below its crossover threshold. Each identification phase
    /// has a different per-item cost, so each gets its own threshold instead
    /// of sharing one grid-size cutoff; output is unchanged either way
    /// (chunked merges are deterministic).
    pub fn for_cells(&self, cells: usize, min_cells: usize) -> Parallelism {
        if cells < min_cells {
            Parallelism::serial()
        } else {
            *self
        }
    }
}

/// Grid sizes below this run serially even when workers are available. A
/// grid point is one DP step of a sweep over rows filled beforehand (the
/// rows' share included): 0.15–0.35 µs on the 2–3-relation queries, 0.9–1.4
/// µs on `4D_DS_Q7`, 1.2–1.7 µs on `5D_H_Q7`, 1.5–2.3 µs on `3D_H_Q5`, whose
/// three top slots depend on every dimension (2.5–4 µs at 5–6 relations
/// before the rows). Measured with the gate off on 2 vCPUs, best of 25, two
/// workers against one, three runs: on the 2-relation 2D grid 0.57× / 0.52×
/// / 0.49× at 256 points, 0.96× / 1.02× / 1.15× at 1024, 1.77× / 1.53× /
/// 1.25× at 2304, 1.93× / 1.25× / 1.32× at 4096, 2.02× / 1.71× / 1.67× at
/// 8100; on `2D_H_Q8A` 0.77× / 0.65× / 0.69× at 256, 1.32× / 1.23× / 0.99×
/// at 1024, 1.67× / 1.31× / 1.77× at 2304, 1.43× / 1.52× / 1.33× at 4096; on
/// `3D_H_Q5` 1.62× / 1.22× / 1.87× at 512, 1.21× / 1.85× / 1.17× at 1728,
/// 1.68× / 1.59× / 1.99× at 4096; on `4D_DS_Q7` 1.17× / 1.32× / 1.46× at
/// 1296, 1.38× / 1.24× / 1.32× at 4096; on `5D_H_Q7` 1.55× / 1.27× / 1.28×
/// at 1024, 1.73× / 1.51× / 1.47× at 3125. (The host's one-worker time for
/// one binary moves by a third between runs; a reading near 2× is that.)
/// Two workers win on every query in all three runs from 2304 points up;
/// at 1024 the two cheapest queries flip. A step is a half to a third of
/// what it was and the crossover did not move: below it the fan-out's fixed
/// cost — ~35 µs to start two workers and join them — is the loss, not the
/// step.
///
/// The sweep's rows are filled by the caller before the fan-out, 5–17 % of
/// a serial build (0.65 of 12.6 ms on `3D_H_Q5`, 2.4 of 14 on `4D_DS_Q7`,
/// 3.1 of 20 on `5D_H_Q7`). Sharing out one slot's rows lost to one worker
/// at every gate (2.09 → 2.27, 2.59 → 2.71, 5.44 → 5.72 ms at 4096 calls a
/// slot); sharing out a level of independent slots, a slot a worker, read
/// 2.05–2.50 → 1.38–1.69, 2.78–3.19 → 1.59–1.79 and 5.00–6.37 → 3.38–3.51
/// ms over four rounds but took `compile` `peak_rss_mb` 29.5 → 31.6 and
/// `exec_grid` 21.6 → 22.7 in ten of ten pairs with no reading of
/// `op_sum_ms` to show for it (CHANGES.md, PR 24): not done.
///
pub const PARALLEL_MIN_GRID: usize = 2048;

/// Engine phases over fewer rows than this run serially even when workers
/// are available: above the 60k-row relations of the SF 0.01 smoke suite.
/// Measured on 2 vCPUs, two workers lose to one up to SF 0.3 and win from
/// SF 0.5, and no larger value keeps that win (ROADMAP item 1(c)).
pub const PARALLEL_MIN_MORSEL_ROWS: usize = 131_072;

/// Cost-matrix builds with fewer plan×point cells than this run serially.
/// A cell is one plan's share of a block evaluation of the plan-set
/// program, 11–19 ns. Measured with the gate off on 2 vCPUs, best of 25,
/// two workers against one, two runs: three plans over the 2-relation 2D
/// grid 0.42× / 0.32× at 768 cells, 0.65× / 0.45× at 3k, 0.91× / 0.73× at
/// 7k, 1.04× / 0.91× at 12k, 1.07× / 1.14× at 24k, 1.30× / 1.23× at 49k;
/// `2D_H_Q8A` 0.96× / 0.72× at 11.5k (its registry grid), 1.07× / 1.10× at
/// 20k, 1.33× / 1.15× at 40k; `3D_H_Q5` 1.26× / 1.11× at 31k, 1.29× / 1.42×
/// at 130k, 1.75× / 1.62× at 352k; `5D_H_Q7` 1.23× / 1.29× at 44k, 1.70× /
/// 1.44× at 138k; `4D_DS_Q7` 1.40× / 1.67× at 161k, 1.85× / 1.60× at 598k.
/// Two workers lose below 12k cells, break even up to 24k and win by 1.1×
/// to 1.3× between 31k and 49k. (Third run, second vCPU away: 0.78–0.89×
/// from 12k to 49k cells, 1.2–1.6× from 130k.)
pub const PARALLEL_MIN_MATRIX_CELLS: usize = 1 << 15;

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Chunk size used by [`run_chunked`]: large enough to amortize the atomic
/// claim, small enough that stealing balances skewed per-item cost.
fn chunk_size(n_items: usize, workers: usize) -> usize {
    // Aim for ~8 chunks per worker so fast workers can steal from slow ones.
    (n_items / (workers * 8)).clamp(1, 4096)
}

/// Length of every chunk but the last that [`run_chunked`] cuts `n_items`
/// into under `par`, for callers that split an output buffer along the
/// same boundaries beforehand so that each chunk writes its own piece.
pub fn chunk_len(par: Parallelism, n_items: usize) -> usize {
    chunk_size(n_items, par.for_items(n_items))
}

/// Run `work(chunk_index, lo..hi)` over `0..n_items` with chunked
/// work-stealing, returning per-chunk results **in chunk order** (i.e.
/// ascending item order), independent of how chunks were claimed.
///
/// `work` must be a pure function of the item range; workers get no
/// identity, so output cannot depend on thread assignment. With one worker
/// (or trivially little work) everything runs inline on the caller.
pub fn run_chunked<T, F>(par: Parallelism, n_items: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
{
    if n_items == 0 {
        return Vec::new();
    }
    let workers = par.for_items(n_items);
    let chunk = chunk_len(par, n_items);
    let n_chunks = n_items.div_ceil(chunk);

    if workers <= 1 || n_chunks == 1 {
        return (0..n_chunks)
            .map(|c| work(c, c * chunk..((c + 1) * chunk).min(n_items)))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    let slots_ptr = SlotWriter {
        slots: slots.as_mut_ptr(),
        len: n_chunks,
    };

    std::thread::scope(|s| {
        for _ in 0..workers {
            let cursor = &cursor;
            let work = &work;
            let slots_ptr = &slots_ptr;
            s.spawn(move || loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let lo = c * chunk;
                let hi = ((c + 1) * chunk).min(n_items);
                let result = work(c, lo..hi);
                // SAFETY: each chunk index is claimed by exactly one worker
                // (fetch_add), so no two threads write the same slot, and
                // the scope joins all workers before `slots` is read.
                unsafe { slots_ptr.write(c, result) };
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("every chunk claimed exactly once"))
        .collect()
}

/// Shared mutable access to the result slots. Soundness argument lives at
/// the single `write` call site.
struct SlotWriter<T> {
    slots: *mut Option<T>,
    len: usize,
}

unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// # Safety
    /// `i < len` and no other thread writes slot `i`.
    unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        unsafe { *self.slots.add(i) = Some(value) };
    }
}

/// Map `f` over `0..n_items`, returning results in item order. Convenience
/// wrapper over [`run_chunked`] for per-item outputs.
pub fn par_map<T, F>(par: Parallelism, n_items: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let chunks = run_chunked(par, n_items, |_, range| range.map(&f).collect::<Vec<T>>());
    let mut out = Vec::with_capacity(n_items);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_order_is_deterministic_across_worker_counts() {
        let n = 1000;
        let serial = par_map(Parallelism::serial(), n, |i| i * 3);
        for workers in [2, 3, 4, 7] {
            let par = par_map(Parallelism::new(workers), n, |i| i * 3);
            assert_eq!(serial, par, "worker count {workers} changed output");
        }
    }

    #[test]
    fn run_chunked_covers_every_item_once() {
        let n = 777;
        let chunks = run_chunked(Parallelism::new(4), n, |_, r| r.collect::<Vec<_>>());
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn for_grid_demotes_small_grids_to_serial() {
        let par = Parallelism::new(4);
        assert_eq!(par.for_grid(PARALLEL_MIN_GRID - 1), Parallelism::serial());
        assert_eq!(par.for_grid(PARALLEL_MIN_GRID), par);
        // A 32 × 32 grid stays serial; the registry's 48 × 48 one does not.
        assert_eq!(par.for_grid(1024), Parallelism::serial());
        assert_eq!(par.for_grid(2304), par);
        assert_eq!(
            Parallelism::serial().for_grid(1 << 20),
            Parallelism::serial()
        );
    }

    #[test]
    fn for_cells_gates_on_phase_work_volume() {
        let par = Parallelism::new(4);
        assert_eq!(
            par.for_cells(PARALLEL_MIN_MATRIX_CELLS - 1, PARALLEL_MIN_MATRIX_CELLS),
            Parallelism::serial()
        );
        assert_eq!(
            par.for_cells(PARALLEL_MIN_MATRIX_CELLS, PARALLEL_MIN_MATRIX_CELLS),
            par
        );
        // 5 plans × 2304 points (the 2D grid) stays serial, while 3D-scale
        // work volumes engage the workers.
        assert_eq!(
            par.for_cells(5 * 2304, PARALLEL_MIN_MATRIX_CELLS),
            Parallelism::serial()
        );
        assert_eq!(
            par.for_cells(60 * 512, PARALLEL_MIN_MATRIX_CELLS),
            Parallelism::serial()
        );
        assert_eq!(par.for_cells(20 * 8000, PARALLEL_MIN_MATRIX_CELLS), par);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(par_map(Parallelism::new(8), 0, |i| i).is_empty());
        assert_eq!(par_map(Parallelism::new(8), 1, |i| i), vec![0]);
    }

    #[test]
    fn for_items_caps_workers() {
        assert_eq!(Parallelism::new(16).for_items(3), 3);
        assert_eq!(Parallelism::new(2).for_items(100), 2);
        assert_eq!(Parallelism::new(5).for_items(0), 1);
    }
}
