//! Server-wide counters and latency quantiles.

use std::collections::VecDeque;

use crate::protocol::ServerStats;

/// Latencies the quantiles are taken over: the most recent this many.
pub const LATENCY_WINDOW: usize = 4096;

/// Outcome counters plus a ring of the latest [`LATENCY_WINDOW`]
/// latencies. Within the window the quantiles are exact — a serving
/// benchmark's run fits in it, and exact p99 beats a sketch when the
/// numbers land in a regression gate — and a long-lived server's memory
/// does not grow with the requests it has served. The server keeps it in
/// its one locked state; a `Stats` reply clones it there and takes the
/// quantiles after the lock is released.
#[derive(Clone, Default)]
pub struct Metrics {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub degraded: u64,
    pub budget_exhausted: u64,
    pub cancelled: u64,
    pub failed: u64,
    pub worker_panics: u64,
    pub workers_replaced: u64,
    latencies_ms: VecDeque<f64>,
    max_subopt: f64,
}

impl Metrics {
    pub fn observe_latency(&mut self, ms: f64) {
        if self.latencies_ms.len() == LATENCY_WINDOW {
            self.latencies_ms.pop_front();
        }
        self.latencies_ms.push_back(ms);
    }

    /// Fold one completed run's sub-optimality into the running maximum —
    /// the server's "MSO so far".
    pub fn observe_subopt(&mut self, subopt: f64) {
        if subopt > self.max_subopt {
            self.max_subopt = subopt;
        }
    }

    /// Latency quantiles in milliseconds (nearest-rank) over the window;
    /// `0` with no data.
    pub fn latency_quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let mut v: Vec<f64> = self.latencies_ms.iter().copied().collect();
        v.sort_by(f64::total_cmp);
        qs.map(|q| match v.len() {
            0 => 0.0,
            n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        })
    }

    pub fn snapshot(
        &self,
        queue_depth: usize,
        inflight: usize,
        tenants: Vec<(String, f64, f64)>,
    ) -> ServerStats {
        let [p50_ms, p99_ms] = self.latency_quantiles([0.50, 0.99]);
        ServerStats {
            submitted: self.submitted,
            accepted: self.accepted,
            rejected: self.rejected,
            completed: self.completed,
            degraded: self.degraded,
            budget_exhausted: self.budget_exhausted,
            cancelled: self.cancelled,
            failed: self.failed,
            worker_panics: self.worker_panics,
            workers_replaced: self.workers_replaced,
            queue_depth,
            inflight,
            p50_ms,
            p99_ms,
            max_subopt: self.max_subopt,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut m = Metrics::default();
        for i in 1..=100 {
            m.observe_latency(f64::from(i));
        }
        assert_eq!(m.latency_quantiles([0.50, 0.99, 1.0]), [50.0, 99.0, 100.0]);
    }

    #[test]
    fn quantiles_cover_the_latest_window() {
        let mut m = Metrics::default();
        for i in 0..3 * LATENCY_WINDOW {
            m.observe_latency(i as f64);
        }
        let oldest_kept = (2 * LATENCY_WINDOW) as f64;
        assert_eq!(m.latency_quantiles([0.0]), [oldest_kept]);
        assert_eq!(
            m.latency_quantiles([1.0]),
            [(3 * LATENCY_WINDOW - 1) as f64]
        );
    }

    #[test]
    fn empty_metrics_snapshot_is_zero() {
        let m = Metrics::default();
        let s = m.snapshot(0, 0, Vec::new());
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.max_subopt, 0.0);
        assert_eq!(s.accepted, 0);
    }

    #[test]
    fn max_subopt_is_monotone() {
        let mut m = Metrics::default();
        m.observe_subopt(2.0);
        m.observe_subopt(1.5);
        m.observe_subopt(3.0);
        assert_eq!(m.snapshot(0, 0, Vec::new()).max_subopt, 3.0);
    }
}
