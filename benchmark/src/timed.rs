//! `TimedSubstrate`: the public `ExecutionSubstrate` trait wrapped from
//! outside, so every partial execution a driver asks for is timed and, when
//! there is room, becomes a child span of the driver run.

use std::time::Instant;

use crate::api::{
    Bouquet, BouquetRun, ExecutionSubstrate, PlanId, ResumeStats, SelPoint, SubstrateOutcome,
};
use crate::trace::Tracer;

/// The two plain drivers, by the suffix their metrics carry.
pub const DRIVERS: [&str; 2] = ["basic", "opt"];

/// Run driver `di` of [`DRIVERS`] over `sub`.
pub fn drive_on(
    b: &Bouquet,
    di: usize,
    sub: &mut impl ExecutionSubstrate,
) -> Result<BouquetRun, String> {
    if di == 1 {
        b.run_optimized_on(sub)
    } else {
        b.run_basic_on(sub)
    }
    .map_err(|e| e.to_string())
}

/// Span name of a run of driver `di`.
pub fn run_span_name(di: usize) -> &'static str {
    ["bouquet.run.basic", "bouquet.run.opt"][di]
}

/// One substrate call as the driver saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecRecord {
    pub wall_ns: u64,
    pub spent: f64,
    pub completed: bool,
    pub spilled: bool,
}

pub struct TimedSubstrate<'t, S> {
    inner: S,
    tracer: &'t mut Tracer,
    /// Span name of each call; `None` keeps the totals only.
    span_name: Option<&'static str>,
    pub calls: u64,
    pub wall_ns: u64,
    /// Per-call records, kept when asked for (few runs, long executions).
    pub records: Option<Vec<ExecRecord>>,
}

impl<'t, S: ExecutionSubstrate> TimedSubstrate<'t, S> {
    pub fn new(inner: S, tracer: &'t mut Tracer, span_name: Option<&'static str>) -> Self {
        TimedSubstrate {
            inner,
            tracer,
            span_name,
            calls: 0,
            wall_ns: 0,
            records: None,
        }
    }

    pub fn keep_records(mut self) -> Self {
        self.records = Some(Vec::new());
        self
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn call(
        &mut self,
        pid: PlanId,
        budget: f64,
        spilled: bool,
        f: impl FnOnce(&mut S) -> SubstrateOutcome,
    ) -> SubstrateOutcome {
        let id = self.span_name.and_then(|n| self.tracer.open(n));
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        self.tracer.close(
            id,
            &[
                ("plan", pid as f64),
                ("budget", budget),
                ("spent", out.spent),
                ("completed", f64::from(u8::from(out.completed))),
                ("spilled", f64::from(u8::from(spilled))),
            ],
        );
        self.calls += 1;
        self.wall_ns += wall_ns;
        if let Some(r) = &mut self.records {
            r.push(ExecRecord {
                wall_ns,
                spent: out.spent,
                completed: out.completed,
                spilled,
            });
        }
        out
    }
}

impl<S: ExecutionSubstrate> ExecutionSubstrate for TimedSubstrate<'_, S> {
    fn execute_partial(&mut self, pid: PlanId, budget: f64) -> SubstrateOutcome {
        self.call(pid, budget, false, |s| s.execute_partial(pid, budget))
    }

    fn execute_monitored(
        &mut self,
        pid: PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> SubstrateOutcome {
        self.call(pid, budget, spilled, |s| {
            s.execute_monitored(pid, resolved, budget, spilled)
        })
    }

    fn run_native(&mut self, pid: PlanId) -> SubstrateOutcome {
        self.call(pid, f64::INFINITY, false, |s| s.run_native(pid))
    }

    fn run_native_at(&mut self, point: &SelPoint) -> f64 {
        self.inner.run_native_at(point)
    }

    fn faults_active(&self) -> bool {
        self.inner.faults_active()
    }

    fn enable_checkpoint_resume(&mut self) -> bool {
        self.inner.enable_checkpoint_resume()
    }

    fn resume_stats(&self) -> ResumeStats {
        self.inner.resume_stats()
    }
}

/// Stamp each execution span under `run_span` with the contour the driver
/// ran it on. The plain drivers log one `PartialExec` per substrate call, in
/// call order; when the counts differ nothing is stamped.
pub fn stamp_contours(tracer: &mut Tracer, run_span: Option<u32>, name: &str, run: &BouquetRun) {
    let Some(parent) = run_span else { return };
    let ids = tracer.children_named(parent, name);
    if ids.len() != run.trace.len() {
        return;
    }
    for (id, e) in ids.into_iter().zip(&run.trace) {
        tracer.annotate(Some(id), &[("contour", e.contour as f64)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes any plan once the budget reaches 10; spends what it gets.
    struct Fake;

    impl ExecutionSubstrate for Fake {
        fn execute_partial(&mut self, _pid: PlanId, budget: f64) -> SubstrateOutcome {
            SubstrateOutcome {
                spent: budget.min(10.0),
                reused: 0.0,
                completed: budget >= 10.0,
                spilled: false,
                observed: Vec::new(),
                resolved: Vec::new(),
                error: None,
            }
        }
        fn execute_monitored(
            &mut self,
            pid: PlanId,
            _resolved: &[bool],
            budget: f64,
            _spilled: bool,
        ) -> SubstrateOutcome {
            self.execute_partial(pid, budget)
        }
        fn run_native(&mut self, pid: PlanId) -> SubstrateOutcome {
            self.execute_partial(pid, f64::INFINITY)
        }
        fn run_native_at(&mut self, _point: &SelPoint) -> f64 {
            10.0
        }
        fn faults_active(&self) -> bool {
            false
        }
    }

    #[test]
    fn every_call_is_counted_recorded_and_spanned() {
        let mut tracer = Tracer::on(Instant::now());
        let run = tracer.open("bouquet.run.basic");
        let mut ts = TimedSubstrate::new(Fake, &mut tracer, Some("engine.exec")).keep_records();
        assert!(!ts.execute_partial(3, 4.0).completed);
        assert!(ts.execute_monitored(5, &[false], 16.0, true).completed);
        assert_eq!(ts.calls, 2);
        let recs = ts.records.take().unwrap();
        assert_eq!(recs.len(), 2);
        assert!(!recs[0].completed && recs[1].completed && recs[1].spilled);
        assert_eq!(recs[0].spent, 4.0);
        let wall = ts.wall_ns;
        tracer.close(run, &[]);
        assert_eq!(tracer.spans.len(), 3);
        assert_eq!(tracer.spans[1].parent, run);
        assert!(tracer.spans[2].counts.contains(&("plan", 5.0)));
        assert!(tracer.spans[2].counts.contains(&("spilled", 1.0)));
        let selfs = crate::trace::self_times(&tracer.spans).unwrap();
        // The run's self time is what the substrate calls do not cover.
        assert!(selfs[0] + wall <= tracer.spans[0].dur_ns() + 1);
    }

    #[test]
    fn totals_only_mode_leaves_no_spans() {
        let mut tracer = Tracer::on(Instant::now());
        let mut ts = TimedSubstrate::new(Fake, &mut tracer, None);
        ts.execute_partial(0, 1.0);
        ts.run_native(0);
        assert_eq!(ts.calls, 2);
        assert!(ts.records.is_none());
        assert!(tracer.spans.is_empty());
    }
}
