//! What the four workloads share: options, the attempt/failure ledger,
//! named sample series, repeated set-up, and the output record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::Metric;
use crate::stats::{self, Summary};
use crate::trace::{Span, Tracer};

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Timed window in seconds. A traced run spends half of it untraced
    /// (for the named timings and as the overhead baseline) and half traced.
    pub seconds: f64,
    pub trace: bool,
    /// Short windows, one set-up: same checks, numbers not comparable.
    pub quick: bool,
    pub nproc: usize,
}

impl RunOpts {
    /// Seconds a run may spend setting up again and again for a steadier
    /// `setup_s` median; `--quick` sets up once.
    pub fn setup_budget_s(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            5.0
        }
    }

    /// Length of each measured pass.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// Operations attempted, and those that failed, were refused, did not
/// complete, or failed a correctness check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one attempted operation that must satisfy `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
        ok
    }

    /// Count `attempted` operations of one kind at once, `failed` of them
    /// bad.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < 20 {
            self.messages.push(what());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(20);
    }
}

/// Named series of samples (seconds unless the name says otherwise).
#[derive(Debug, Default)]
pub struct Series(BTreeMap<String, Vec<f64>>);

impl Series {
    pub fn push(&mut self, name: impl Into<String>, v: f64) {
        self.0.entry(name.into()).or_default().push(v);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn summary(&self, name: &str) -> Summary {
        stats::summarize(self.get(name))
    }

    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        // `+ 0.0`: an empty float sum is -0.0, which prints as "-0".
        self.get(name).iter().sum::<f64>() + 0.0
    }

    pub fn absorb(&mut self, other: Series) {
        for (k, v) in other.0 {
            self.0.entry(k).or_default().extend(v);
        }
    }
}

/// What one measured pass (untraced or traced) produced.
#[derive(Default)]
pub struct Pass {
    pub series: Series,
    /// Per phase of the workload: operations in one complete pass over the
    /// phase's inputs, and the wall of every complete pass.
    pub phases: Vec<(u64, Vec<f64>)>,
}

impl Pass {
    /// Operations per second over one pass of each phase, from the median
    /// pass times: independent of how many passes fitted the window, and of
    /// the stalls of a busy host.
    pub fn ops_per_s(&self) -> f64 {
        let ops: u64 = self.phases.iter().map(|(n, _)| n).sum();
        let secs: f64 = self.phases.iter().map(|(_, t)| stats::median(t)).sum();
        ops as f64 / secs
    }
}

/// Everything one workload run reports.
pub struct Output {
    pub setup: Summary,
    /// The named end-to-end metrics of this workload, tracing off.
    pub named: Vec<Metric>,
    /// The timings that enter `op_sum_ms` and `op_geo_ms`, in milliseconds.
    pub parts: Vec<Metric>,
    pub ops_per_s: f64,
    /// Per-layer metrics; empty unless traced.
    pub layers: Vec<Metric>,
    /// `op_sum_ms` of the traced pass, for the overhead share.
    pub traced_sum_ms: Option<f64>,
    pub spans: Vec<Span>,
}

/// Set up repeatedly, keep the last state, report every duration: at least
/// twice and at most nine times while the repeats fit `budget_s` (once when
/// the budget is zero). Earlier states are torn down before the next set-up
/// starts, so peak memory is one state's.
pub fn repeat_setup<S>(
    budget_s: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Summary), String> {
    let started = Instant::now();
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    loop {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        state = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
        let next_fits = started.elapsed().as_secs_f64() + times[0] <= budget_s;
        if budget_s <= 0.0 || times.len() >= 9 || (times.len() >= 2 && !next_fits) {
            break;
        }
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, stats::summarize(&times)))
}

/// A deadline inside the timed window.
#[derive(Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(start: Instant, d: Duration) -> Deadline {
        Deadline(start + d)
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Go over `n` items again and again until `end`. The first pass always
/// completes, so every item is sampled at least once; a later pass stops at
/// the deadline. Returns the wall of each complete pass.
pub fn passes_until(end: Deadline, n: usize, mut item: impl FnMut(usize)) -> Vec<f64> {
    let mut walls = Vec::new();
    loop {
        let t0 = Instant::now();
        for i in 0..n {
            if !walls.is_empty() && end.passed() {
                return walls;
            }
            item(i);
        }
        walls.push(t0.elapsed().as_secs_f64());
        if end.passed() {
            return walls;
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory inside whichever checkout built it; all
/// files the benchmark writes go under its `out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `out/`, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A tracer for the traced pass, or an inert one.
pub fn tracer_for(traced: bool, epoch: Instant) -> Tracer {
    if traced {
        Tracer::on(epoch)
    } else {
        Tracer::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        assert!(c.expect(true, || unreachable!()));
        assert!(!c.expect(false, || "rows differ".into()));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.messages, ["rows differ"]);
    }

    #[test]
    fn repeated_setup_keeps_the_last_state_and_tears_down_the_rest() {
        let mut built = 0;
        let mut torn = Vec::new();
        // Instant set-ups: the budget never runs out, the cap of nine does.
        let (state, s) = repeat_setup(
            1.0,
            || {
                built += 1;
                Ok(built)
            },
            |old| torn.push(old),
        )
        .unwrap();
        assert_eq!(state, 9);
        assert_eq!(torn, (1..9).collect::<Vec<_>>());
        assert_eq!(s.n, 9);
        // No budget (--quick): once.
        let (_, s) = repeat_setup(0.0, || Ok(()), drop).unwrap();
        assert_eq!(s.n, 1);
    }

    #[test]
    fn passes_complete_once_then_stop_at_the_deadline() {
        let mut seen = Vec::new();
        let past = Deadline::after(Instant::now(), Duration::ZERO);
        let walls = passes_until(past, 3, |i| seen.push(i));
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!(walls.len(), 1);
    }

    #[test]
    fn throughput_is_one_pass_of_each_phase_over_their_median_times() {
        let pass = Pass {
            series: Series::default(),
            phases: vec![(7, vec![1.0, 2.0, 9.0]), (7, vec![0.5])],
        };
        assert_eq!(pass.ops_per_s(), 14.0 / 2.5);
    }

    #[test]
    fn peak_rss_reads_as_megabytes() {
        let mb = peak_rss_mb();
        assert!(mb > 0.5 && mb < 1e6, "VmHWM {mb} MB");
    }
}
