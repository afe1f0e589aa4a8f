//! Execution substrates: the runtime surface the bouquet drivers drive.
//!
//! The paper's drivers (Figures 7 and 13) only ever need two primitives
//! from the thing that executes plans — a budgeted execution with
//! selectivity monitoring (which Figure 7's plain execution is, with nothing
//! left to learn), and an unbudgeted native run for the degradation rung.
//! [`ExecutionSubstrate`] captures exactly that contract, so the same driver
//! loops run against
//!
//! * [`SimulatorSubstrate`] — the cost-unit simulator
//!   ([`pb_executor::Executor`]), which "executes" a plan by comparing its
//!   actual cost at the true location `qa` against the budget. This is the
//!   substrate every MSO/ASO number in the evaluation is computed on, and
//!   its outputs are **byte-identical** to the pre-substrate drivers
//!   (guarded by `tests/substrate_equivalence.rs` golden snapshots).
//! * [`EngineSubstrate`] — the real vectorized engine
//!   ([`pb_engine::Engine`]) running generated tuples, with budgets enforced
//!   by the engine's cost ledger and selectivities observed from node tuple
//!   counters ([`pb_engine::Instrumentation::observed_selectivity`]) at the
//!   learnable node the plan's [`pb_executor::MonitorTable`] names, read by
//!   the post-order op index the table carries.
//!
//! The drivers never see `qa` directly: everything they learn arrives
//! through [`SubstrateOutcome::observed`] (selectivity lower bounds) and
//! [`SubstrateOutcome::resolved`] (exactly-known dimensions with their
//! values), which is precisely the information a real system has at run
//! time. Layering: `pb-executor` and `pb-engine` are independent leaves;
//! `pb-bouquet` sits above both and owns the trait ([`SubstrateOutcome`] is
//! the simulator's own outcome type, re-exported here).

use std::hash::Hash;

use pb_cost::{
    Checkpoint, CheckpointBook, CostProgram, NodeCost, NodeCosts, Parallelism, SelPoint,
};
use pb_engine::{Database, Engine, EngineOutcome, Snapshot};
pub use pb_executor::SubstrateOutcome;
use pb_executor::{CostCheckpoint, Executor};
use pb_faults::{CancelToken, FaultInjector, PbError};
use pb_optimizer::PlanId;
use pb_plan::{PlanFingerprint, PlanNode, QuerySpec};
use serde::{Deserialize, Serialize};

use crate::bouquet::Bouquet;

/// Aggregate counters for a substrate's checkpoint/resume machinery, read
/// through [`ExecutionSubstrate::resume_stats`] (all-zero when resume is
/// unsupported or disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResumeStats {
    /// Total cost units fast-forwarded from checkpoints across the run.
    pub reused_cost: f64,
    /// Executions that engaged at least one checkpoint.
    pub resumed_execs: usize,
    /// Checkpoints currently retained.
    pub checkpoints: usize,
}

/// A runtime surface the bouquet drivers can discover against.
///
/// Implementations are bound to one bouquet and one true query location
/// (explicitly for the simulator, implicitly — via the generated data — for
/// the engine) at construction time; `&mut self` lets them keep scratch
/// state (evaluation stacks, result-row counters) across calls.
pub trait ExecutionSubstrate {
    /// Budget-limited execution of bouquet plan `pid` with no monitoring —
    /// the basic (Figure 7) driver's primitive: the monitored execution
    /// with nothing left to learn (every dimension resolved, unspilled).
    fn execute_partial(&mut self, pid: PlanId, budget: f64) -> SubstrateOutcome;

    /// Budget-limited execution with selectivity monitoring — the optimized
    /// (Figure 13) driver's primitive. With `spilled` the pipeline is broken
    /// above the first unresolved error node, so the whole budget works on
    /// discovery and the query cannot complete here.
    fn execute_monitored(
        &mut self,
        pid: PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> SubstrateOutcome;

    /// Unbudgeted execution of bouquet plan `pid` — the degradation rung
    /// (classical query processing: one plan, no safety net).
    fn run_native(&mut self, pid: PlanId) -> SubstrateOutcome {
        self.execute_partial(pid, f64::INFINITY)
    }

    /// Cost of the native optimizer baseline: pick the optimizer's plan at
    /// the *estimated* location `point` and run it to completion, returning
    /// the actual cost. This is the NAT row of Table 3.
    fn run_native_at(&mut self, point: &SelPoint) -> f64;

    /// Whether a fault injector is armed (drivers relax first-quadrant
    /// assertions and clamp observations when it is).
    fn faults_active(&self) -> bool;

    /// Opt in to checkpoint/resume: completed operator prefixes of partial
    /// executions are checkpointed and later executions sharing them (the
    /// same plan at the next contour budget, or a different plan sharing a
    /// completed join-subtree prefix) are fast-forwarded instead of
    /// re-executed. Observed selectivities, abort points and completion
    /// decisions stay bit-identical to restart semantics; only
    /// [`SubstrateOutcome::spent`] shrinks by the reused cost. Returns
    /// whether the substrate supports resume (the default does not).
    fn enable_checkpoint_resume(&mut self) -> bool {
        false
    }

    /// Counters for the resume machinery; all-zero when resume is
    /// unsupported or was never enabled.
    fn resume_stats(&self) -> ResumeStats {
        ResumeStats::default()
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/resume and cancellation state
// ---------------------------------------------------------------------------

/// The checkpoint/resume and cancellation state every substrate keeps: its
/// checkpoint book (`None` until
/// [`ExecutionSubstrate::enable_checkpoint_resume`]), what the book has
/// credited so far, the byte cap the book is held to, and the cooperative
/// cancellation token polled at the entry of every budgeted execution.
pub struct ResumeState<K, V> {
    book: Option<CheckpointBook<K, V>>,
    reused_cost: f64,
    resumed_execs: usize,
    /// Byte cap applied to the book (`0` = unbounded).
    byte_cap: usize,
    cancel: Option<CancelToken>,
}

impl<K, V> Default for ResumeState<K, V> {
    fn default() -> Self {
        ResumeState {
            book: None,
            reused_cost: 0.0,
            resumed_execs: 0,
            byte_cap: 0,
            cancel: None,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Checkpoint> ResumeState<K, V> {
    /// Bound the book to `cap` bytes (`0` = unbounded), evicting
    /// least-recently-used checkpoints past it. Applies to the current book
    /// immediately and to any book created or installed later.
    pub fn set_byte_cap(&mut self, cap: usize) {
        self.byte_cap = cap;
        if let Some(book) = self.book.as_mut() {
            book.set_byte_cap(cap);
        }
    }

    /// Detach the checkpoint book (e.g. to retain it across requests so a
    /// cancelled query's resubmission resumes instead of restarting).
    /// Resume is disabled until a book is installed or re-enabled.
    pub fn take_book(&mut self) -> Option<CheckpointBook<K, V>> {
        self.book.take()
    }

    /// Install a previously detached checkpoint book and enable resume.
    pub fn install_book(&mut self, mut book: CheckpointBook<K, V>) {
        book.set_byte_cap(self.byte_cap);
        self.book = Some(book);
    }

    /// Chaos hook: corrupt every retained checkpoint. Subsequent lookups
    /// fail validation and executions restart from scratch, re-capturing
    /// healthy checkpoints as they complete.
    pub fn corrupt_all(&mut self) {
        if let Some(book) = self.book.as_mut() {
            book.corrupt_all();
        }
    }

    /// Poll the cancellation token; `Some` is the outcome a cancelled
    /// execution reports (nothing spent, typed error).
    fn cancelled_outcome(&self, spilled: bool) -> Option<SubstrateOutcome> {
        let e = self.cancel.as_ref()?.cancel_error()?;
        Some(SubstrateOutcome {
            spilled,
            error: Some(e),
            ..SubstrateOutcome::default()
        })
    }

    fn enable(&mut self) -> bool {
        let cap = self.byte_cap;
        self.book
            .get_or_insert_with(|| CheckpointBook::with_byte_cap(cap));
        true
    }

    fn stats(&self) -> ResumeStats {
        ResumeStats {
            reused_cost: self.reused_cost,
            resumed_execs: self.resumed_execs,
            checkpoints: self.book.as_ref().map_or(0, CheckpointBook::len),
        }
    }

    /// The book an execution runs through: none with resume disabled or an
    /// injector armed — checkpoints must never replay or mask an injected
    /// fault, and a failed run is never checkpointed or discounted, so it
    /// cannot double-charge.
    fn book(&mut self, faults_active: bool) -> Option<&mut CheckpointBook<K, V>> {
        self.book.as_mut().filter(|_| !faults_active)
    }

    /// Account one execution's fast-forwarded cost units; returns them.
    fn note(&mut self, reused: f64) -> f64 {
        if reused > 0.0 {
            self.reused_cost += reused;
            self.resumed_execs += 1;
        }
        reused
    }
}

// ---------------------------------------------------------------------------
// Cost-unit simulator substrate
// ---------------------------------------------------------------------------

/// The cost-unit simulator as a substrate: plan executions are resolved by
/// [`pb_executor::Executor`] against the true location `qa`, using the
/// bouquet's compiled cost programs on every path — one per-node capture
/// per execution (read through the plan's monitor table and the resume
/// book's chains), and one program compiled for the native run's plan.
pub struct SimulatorSubstrate<'a> {
    b: &'a Bouquet,
    qa: SelPoint,
    ex: Executor,
    stack: Vec<NodeCost>,
    nodes: NodeCosts,
    /// Checkpoint book and cancellation token. Executions are closed-form
    /// and instantaneous here, so the token is polled only at their entry.
    pub resume: ResumeState<u64, CostCheckpoint>,
}

impl<'a> SimulatorSubstrate<'a> {
    /// Bind the simulator to `bouquet` at true location `qa` with an armed
    /// (or inert) fault injector. Fails if `qa`'s dimensionality does not
    /// match the workload's ESS.
    pub fn new(
        bouquet: &'a Bouquet,
        qa: &SelPoint,
        faults: FaultInjector,
    ) -> Result<Self, PbError> {
        let d = bouquet.workload.ess.d();
        if qa.dims() != d {
            return Err(PbError::DimensionMismatch {
                expected: d,
                got: qa.dims(),
            });
        }
        let ex = Executor::new(bouquet.config.perturbation).with_faults(faults);
        Ok(SimulatorSubstrate {
            b: bouquet,
            qa: qa.clone(),
            ex,
            stack: Vec::new(),
            nodes: NodeCosts::default(),
            resume: ResumeState::default(),
        })
    }

    /// Thread a cooperative cancellation token: a tripped token makes every
    /// subsequent budgeted execution return [`PbError::Cancelled`] without
    /// spending, so the driver stops at its next step.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.resume.cancel = Some(token);
        self
    }

    /// The first-executed chain of the tree an execution of plan `pid`
    /// runs: the whole plan's, or — for a spilled run under the mask
    /// `spilled_under` — that of its prefix below the first unresolved
    /// error node.
    fn exec_chain(
        &self,
        pid: PlanId,
        spilled_under: Option<&[bool]>,
    ) -> &'a [(usize, PlanFingerprint)] {
        self.b.driver_tables().plans[pid].exec_chain(spilled_under)
    }

    /// Credit the largest checkpointed prefix of an execution's
    /// first-executed `chain` against `spent`, then record the chain
    /// subtrees it completed, each priced off the execution's per-op
    /// capture. Returns the reused cost.
    fn discount(&mut self, chain: &[(usize, PlanFingerprint)], spent: f64, completed: bool) -> f64 {
        let Some(book) = self.resume.book(self.ex.faults.is_active()) else {
            return 0.0;
        };
        let (ex, nodes, qa) = (&self.ex, self.nodes.last(), &self.qa[..]);
        let credit = ex.resume_credit(book, chain, nodes, qa).min(spent);
        ex.resume_record(book, chain, nodes, qa, spent, completed);
        self.resume.note(credit)
    }
}

impl ExecutionSubstrate for SimulatorSubstrate<'_> {
    fn execute_partial(&mut self, pid: PlanId, budget: f64) -> SubstrateOutcome {
        self.execute_monitored(pid, &self.b.driver_tables().all_resolved, budget, false)
    }

    fn execute_monitored(
        &mut self,
        pid: PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> SubstrateOutcome {
        if let Some(o) = self.resume.cancelled_outcome(spilled) {
            return o;
        }
        let mut o = self.ex.execute_monitored(
            &self.b.programs()[pid],
            &self.b.driver_tables().plans[pid],
            &self.qa,
            resolved,
            budget,
            spilled,
            &mut self.nodes,
        );
        if !self.ex.faults.is_active() {
            for &(dim, v) in &o.observed {
                debug_assert!(
                    v <= self.qa[dim] * (1.0 + 1e-9),
                    "first-quadrant invariant violated"
                );
            }
        }
        // A spilled run executes only the prefix below the first unresolved
        // error node, so the checkpointable chain is that subtree's; the
        // prefix "completed" when the error node consumed its entire input
        // (the dimension resolved).
        let prefix_completed = if spilled {
            !o.resolved.is_empty()
        } else {
            o.completed
        };
        let chain = self.exec_chain(pid, spilled.then_some(resolved));
        o.reused = self.discount(chain, o.spent, prefix_completed);
        o.spent -= o.reused;
        o
    }

    fn run_native_at(&mut self, point: &SelPoint) -> f64 {
        let w = &self.b.workload;
        let plan = w.optimizer().optimize(point).plan;
        let prog = CostProgram::compile(&w.catalog, &w.query, &w.model, &plan.root);
        self.ex
            .actual_cost_compiled(&prog, plan.fingerprint(), &self.qa, &mut self.stack)
    }

    fn faults_active(&self) -> bool {
        self.ex.faults.is_active()
    }

    fn enable_checkpoint_resume(&mut self) -> bool {
        self.resume.enable()
    }

    fn resume_stats(&self) -> ResumeStats {
        self.resume.stats()
    }
}

// ---------------------------------------------------------------------------
// Real-engine substrate
// ---------------------------------------------------------------------------

/// The vectorized tuple engine as a substrate: budgets are enforced by the
/// engine's cost ledger and selectivities come from node tuple counters,
/// read at the learnable node of the plan's monitor table — the same node
/// the simulator's learning model reasons about.
pub struct EngineSubstrate<'a> {
    b: &'a Bouquet,
    db: &'a Database,
    engine: Engine<'a>,
    faults: FaultInjector,
    /// Result cardinality of the last completed query execution.
    last_rows: Option<usize>,
    /// Checkpoint book and cancellation token. The token is polled at
    /// execution entry here, and threaded into the engine so a trip also
    /// halts a run mid-flight at its next batch commit.
    pub resume: ResumeState<(u64, u64, bool), Snapshot>,
}

impl<'a> EngineSubstrate<'a> {
    /// Bind the engine to `bouquet`'s query over the generated `db` with an
    /// armed (or inert) fault injector.
    pub fn new(bouquet: &'a Bouquet, db: &'a Database, faults: FaultInjector) -> Self {
        let w = &bouquet.workload;
        EngineSubstrate {
            b: bouquet,
            db,
            engine: Engine::new(db, &w.query, &w.model.p),
            faults,
            last_rows: None,
            resume: ResumeState::default(),
        }
    }

    /// Thread a cooperative cancellation token. A trip surfaces as
    /// [`PbError::Cancelled`] at the next execution entry *and* — via the
    /// engine's ledger — at the next batch commit of a run already in
    /// flight, with the interrupted batch's work still charged.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.engine.cancel = Some(token.clone());
        self.resume.cancel = Some(token);
        self
    }

    /// Execute `plan` through the checkpoint book when resume is enabled
    /// and no faults are armed (checkpoints must never replay or mask an
    /// injected fault), falling back to the plain fault-aware path
    /// otherwise. Returns the outcome and the cost units fast-forwarded.
    fn run_resumable(&mut self, plan: &PlanNode, budget: f64) -> (EngineOutcome, f64) {
        match self.resume.book(self.faults.is_active()) {
            Some(book) => {
                let (out, reused) = self.engine.execute_resumable(plan, budget, book);
                (out, self.resume.note(reused))
            }
            None => (
                self.engine.execute_with_faults(plan, budget, &self.faults),
                0.0,
            ),
        }
    }

    /// Run the engine's morsel-driven kernels with `par` workers. Outcomes
    /// stay bit-identical to the serial engine for every plan × budget — the
    /// knob only changes wall-clock time.
    pub fn with_engine_parallelism(mut self, par: Parallelism) -> Self {
        self.engine = self.engine.with_parallelism(par);
        self
    }

    /// Lower the morsel-dispatch row threshold (default
    /// [`pb_cost::PARALLEL_MIN_MORSEL_ROWS`]) so parallel kernels engage on
    /// small test-scale relations.
    pub fn with_engine_morsel_threshold(mut self, rows: usize) -> Self {
        self.engine = self.engine.with_morsel_threshold(rows);
        self
    }

    /// Result cardinality of the last completed query execution, if any.
    pub fn result_rows(&self) -> Option<usize> {
        self.last_rows
    }
}

impl ExecutionSubstrate for EngineSubstrate<'_> {
    fn execute_partial(&mut self, pid: PlanId, budget: f64) -> SubstrateOutcome {
        self.execute_monitored(pid, &self.b.driver_tables().all_resolved, budget, false)
    }

    fn execute_monitored(
        &mut self,
        pid: PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> SubstrateOutcome {
        if let Some(o) = self.resume.cancelled_outcome(spilled) {
            return o;
        }
        if spilled && self.faults.is_active() {
            if let Some(error) = self.faults.spill_failure("engine:spill") {
                // The pipeline break failed before any real work; the driver
                // decides whether to retry unspilled.
                return SubstrateOutcome {
                    spilled,
                    error: Some(error),
                    ..SubstrateOutcome::default()
                };
            }
        }
        let w = &self.b.workload;
        let plan = &self.b.plan(pid).root;
        // The first node in execution order applying an unresolved error
        // dimension; for a spilled run only that node's prefix executes, so
        // its ops start at the prefix's first op.
        let learn = (self.b.driver_tables().plans[pid].learnable(resolved))
            .map(|(site, dm)| (site, dm, plan.post_order()[site.op]));
        let (out, reused) = match learn {
            Some((_, _, node)) if spilled => self.run_resumable(&node.clone().spilled(), budget),
            _ => self.run_resumable(plan, budget),
        };
        let mut o = SubstrateOutcome {
            spent: out.cost() - reused,
            reused,
            completed: out.completed() && !spilled,
            spilled,
            error: out.error().cloned(),
            ..SubstrateOutcome::default()
        };
        if let (true, EngineOutcome::Completed { rows, .. }) = (o.completed, &out) {
            self.last_rows = Some(*rows);
        }
        if let Some((site, dm, node)) = learn {
            let offset = if spilled { site.first_op() } else { 0 };
            let children: Vec<usize> = site.children.iter().map(|&(op, _)| op - offset).collect();
            let raw = out.instr().observed_selectivity(
                node,
                site.op - offset,
                &children,
                &w.query,
                self.db,
            );
            if let Some(s) = raw {
                // The engine reports a *raw* selectivity bound; map it into
                // axis coordinates (identity except on flipped axes, where
                // the raw upper bound becomes a coordinate lower bound) and
                // clamp into the ESS so qrun can never leave the space.
                let s = w
                    .query
                    .spec_for_dim(dm)
                    .map_or(s, |spec| spec.to_coordinate(s));
                let s = s.clamp(w.ess.dims[dm].lo, w.ess.dims[dm].hi);
                o.observed.push((dm, s));
                if spilled && out.completed() {
                    // The prefix consumed its entire input: the counter is
                    // final, so the observation *is* the true selectivity.
                    o.resolved.push((dm, s));
                }
            }
        }
        o
    }

    fn run_native_at(&mut self, point: &SelPoint) -> f64 {
        let plan = self.b.workload.optimizer().optimize(point).plan;
        self.engine.execute(&plan.root, f64::INFINITY).cost()
    }

    fn faults_active(&self) -> bool {
        self.faults.is_active()
    }

    fn enable_checkpoint_resume(&mut self) -> bool {
        self.resume.enable()
    }

    fn resume_stats(&self) -> ResumeStats {
        self.resume.stats()
    }
}

/// Measure the true ESS location of a query against generated data: exact
/// selection/join selectivities per dimension kind (equality via value
/// frequencies, inequality via sorted counting, anti/semi via the same
/// pair density their cost formulas consume), mapped into axis coordinates
/// (`SelSpec::to_coordinate` — identity except on flipped axes) and
/// clamped into the ESS box.
pub fn measure_qa(
    db: &Database,
    query: &QuerySpec,
    ess: &pb_cost::Ess,
) -> Result<SelPoint, PbError> {
    let mut qa = vec![f64::NAN; query.num_dims];
    for r in &query.relations {
        for s in &r.selections {
            if let Some(dm) = s.selectivity.error_dim() {
                qa[dm] = s
                    .selectivity
                    .to_coordinate(db.actual_selection_selectivity(s));
            }
        }
    }
    for (ji, j) in query.joins.iter().enumerate() {
        if let Some(dm) = j.selectivity.error_dim() {
            qa[dm] = j
                .selectivity
                .to_coordinate(db.actual_join_selectivity(query, ji));
        }
    }
    for (dm, v) in qa.iter_mut().enumerate() {
        if v.is_nan() {
            return Err(PbError::Internal(format!(
                "error dimension {dm} has no measurable predicate"
            )));
        }
        *v = v.clamp(ess.dims[dm].lo, ess.dims[dm].hi);
    }
    Ok(SelPoint(qa))
}
