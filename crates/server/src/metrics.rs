//! Server-wide counters and latency quantiles.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::protocol::ServerStats;

/// Latencies the quantiles are taken over: the most recent this many.
pub const LATENCY_WINDOW: usize = 4096;

/// Lock-free counters plus a mutex-guarded ring of the latest
/// [`LATENCY_WINDOW`] latencies. Within the window the quantiles are exact
/// — a serving benchmark's run fits in it, and exact p99 beats a sketch
/// when the numbers land in a regression gate — and a long-lived server's
/// memory does not grow with the requests it has served.
#[derive(Default)]
pub struct Metrics {
    pub submitted: AtomicU64,
    pub accepted: AtomicU64,
    pub rejected: AtomicU64,
    pub completed: AtomicU64,
    pub degraded: AtomicU64,
    pub budget_exhausted: AtomicU64,
    pub cancelled: AtomicU64,
    pub failed: AtomicU64,
    pub worker_panics: AtomicU64,
    pub workers_replaced: AtomicU64,
    latencies_ms: Mutex<VecDeque<f64>>,
    max_subopt: Mutex<f64>,
}

impl Metrics {
    pub fn observe_latency(&self, ms: f64) {
        let mut ring = self
            .latencies_ms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.len() == LATENCY_WINDOW {
            ring.pop_front();
        }
        ring.push_back(ms);
    }

    /// Fold one completed run's sub-optimality into the running maximum —
    /// the server's "MSO so far".
    pub fn observe_subopt(&self, subopt: f64) {
        let mut m = self
            .max_subopt
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if subopt > *m {
            *m = subopt;
        }
    }

    /// Latency quantiles in milliseconds (nearest-rank) over the window;
    /// `0` with no data.
    pub fn latency_quantiles<const N: usize>(&self, qs: [f64; N]) -> [f64; N] {
        let mut v: Vec<f64> = self
            .latencies_ms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect();
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
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let [p50_ms, p99_ms] = self.latency_quantiles([0.50, 0.99]);
        ServerStats {
            submitted: g(&self.submitted),
            accepted: g(&self.accepted),
            rejected: g(&self.rejected),
            completed: g(&self.completed),
            degraded: g(&self.degraded),
            budget_exhausted: g(&self.budget_exhausted),
            cancelled: g(&self.cancelled),
            failed: g(&self.failed),
            worker_panics: g(&self.worker_panics),
            workers_replaced: g(&self.workers_replaced),
            queue_depth,
            inflight,
            p50_ms,
            p99_ms,
            max_subopt: *self
                .max_subopt
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let m = Metrics::default();
        for i in 1..=100 {
            m.observe_latency(f64::from(i));
        }
        assert_eq!(m.latency_quantiles([0.50, 0.99, 1.0]), [50.0, 99.0, 100.0]);
    }

    #[test]
    fn quantiles_cover_the_latest_window() {
        let m = Metrics::default();
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
        let m = Metrics::default();
        m.observe_subopt(2.0);
        m.observe_subopt(1.5);
        m.observe_subopt(3.0);
        assert_eq!(m.snapshot(0, 0, Vec::new()).max_subopt, 3.0);
    }
}
