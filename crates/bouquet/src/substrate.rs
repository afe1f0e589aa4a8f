//! Execution substrates: the runtime surface the bouquet drivers drive.
//!
//! The paper's drivers (Figures 7 and 13) only ever need three primitives
//! from the thing that executes plans — a budgeted execution, a budgeted
//! execution with selectivity monitoring, and an unbudgeted native run for
//! the degradation rung. [`ExecutionSubstrate`] captures exactly that
//! contract, so the same driver loops run against
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
//!   learnable node the plan's [`pb_executor::MonitorTable`] names.
//!
//! The drivers never see `qa` directly: everything they learn arrives
//! through [`SubstrateOutcome::observed`] (selectivity lower bounds) and
//! [`SubstrateOutcome::resolved`] (exactly-known dimensions with their
//! values), which is precisely the information a real system has at run
//! time. Layering: `pb-executor` and `pb-engine` are independent leaves;
//! `pb-bouquet` sits above both and owns the trait.

use pb_cost::{CostProgram, NodeCost, NodeCosts, Parallelism, SelPoint};
use pb_engine::{Database, Engine, EngineOutcome, ResumeBook};
use pb_executor::{CostResumeBook, Executor};
use pb_faults::{CancelToken, FaultInjector, PbError};
use pb_optimizer::PlanId;
use pb_plan::{DimId, PlanFingerprint, PlanNode, QuerySpec};
use serde::{Deserialize, Serialize};

use crate::bouquet::Bouquet;

/// What one partial (budget-limited) execution told the driver.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstrateOutcome {
    /// Cost units actually consumed (charged to the run unconditionally).
    /// With checkpoint/resume enabled this is the cost of the *un-executed
    /// suffix only*: the restart-identical cost minus [`Self::reused`].
    pub spent: f64,
    /// Cost units fast-forwarded from checkpoints of earlier executions
    /// instead of re-executed. Zero on the plain paths. `spent + reused`
    /// is always the restart-semantics cost — resume never changes what is
    /// learned, only what is paid.
    pub reused: f64,
    /// The *query* finished (never true for spilled executions).
    pub completed: bool,
    /// Whether this execution ran a spilled prefix (Section 5.3).
    pub spilled: bool,
    /// Selectivity lower bounds observed from the execution:
    /// `(dim, new_lower_bound)`, first-quadrant safe.
    pub observed: Vec<(DimId, f64)>,
    /// Dimensions whose error node consumed its entire input, with the now
    /// exactly-known selectivity: `(dim, true_value)`.
    pub resolved: Vec<(DimId, f64)>,
    /// Set when the execution died on a fault rather than completing or
    /// exhausting its budget.
    pub error: Option<PbError>,
}

impl SubstrateOutcome {
    fn plain(spent: f64, completed: bool, error: Option<PbError>) -> Self {
        SubstrateOutcome {
            spent,
            reused: 0.0,
            completed,
            spilled: false,
            observed: Vec::new(),
            resolved: Vec::new(),
            error,
        }
    }
}

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
    /// the basic (Figure 7) driver's primitive.
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
    resume: Resume,
    /// Byte cap applied to the resume book (`0` = unbounded).
    resume_byte_cap: usize,
    /// Cooperative cancellation token, polled at the entry of every
    /// budgeted execution (executions themselves are closed-form and
    /// instantaneous on this substrate).
    cancel: Option<CancelToken>,
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
            resume: Resume::default(),
            resume_byte_cap: 0,
            cancel: None,
        })
    }

    /// Thread a cooperative cancellation token: a tripped token makes every
    /// subsequent budgeted execution return [`PbError::Cancelled`] without
    /// spending, so the driver stops at its next step.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Bound the resume book to roughly `cap` bytes (`0` = unbounded),
    /// evicting least-recently-used checkpoints past it. Applies to the
    /// current book immediately and to any book created later.
    pub fn set_resume_byte_cap(&mut self, cap: usize) {
        self.resume_byte_cap = cap;
        if let Some(book) = self.resume.book.as_mut() {
            book.set_byte_cap(cap);
        }
    }

    /// Detach the checkpoint book (e.g. to retain it across requests so a
    /// cancelled query's resubmission resumes instead of restarting).
    /// Resume is disabled until a book is installed or re-enabled.
    pub fn take_resume_book(&mut self) -> Option<CostResumeBook> {
        self.resume.book.take()
    }

    /// Install a previously detached checkpoint book and enable resume.
    pub fn install_resume_book(&mut self, mut book: CostResumeBook) {
        book.set_byte_cap(self.resume_byte_cap);
        self.resume.book = Some(book);
    }

    /// Chaos hook: corrupt every retained checkpoint. Subsequent lookups
    /// fail bit-identity validation and executions restart from scratch.
    pub fn corrupt_checkpoints(&mut self) {
        if let Some(book) = self.resume.book.as_mut() {
            book.corrupt_all();
        }
    }

    /// Poll the cancellation token; `Some` is the outcome a cancelled
    /// execution reports (nothing spent, typed error).
    fn cancelled_outcome(&self) -> Option<SubstrateOutcome> {
        let e = self.cancel.as_ref()?.cancel_error()?;
        Some(SubstrateOutcome::plain(0.0, false, Some(e)))
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
        self.b.driver_tables().plans[pid]
            .monitor
            .exec_chain(spilled_under)
    }
}

/// The simulator's checkpoint/resume state: the book and what it has
/// credited so far.
#[derive(Default)]
struct Resume {
    /// Checkpoint book for resumable executions (`None` until
    /// [`ExecutionSubstrate::enable_checkpoint_resume`]).
    book: Option<CostResumeBook>,
    reused_cost: f64,
    resumed_execs: usize,
}

impl Resume {
    /// Credit the largest checkpointed prefix of an execution's
    /// first-executed `chain` against `spent`, then record the chain
    /// subtrees it completed, each priced off `nodes`, the execution's
    /// per-op capture. Returns the reused cost: zero with resume disabled
    /// or armed faults — only an armed injector fails a run, and a failed
    /// run is never checkpointed and never discounted, so it cannot
    /// double-charge.
    fn discount(
        &mut self,
        ex: &Executor,
        qa: &[f64],
        chain: &[(usize, PlanFingerprint)],
        nodes: &[NodeCost],
        spent: f64,
        completed: bool,
    ) -> f64 {
        if ex.faults.is_active() {
            return 0.0;
        }
        let Some(book) = self.book.as_mut() else {
            return 0.0;
        };
        let credit = book.credit(ex, chain, nodes, qa).min(spent);
        book.record(ex, chain, nodes, qa, spent, completed);
        if credit > 0.0 {
            self.reused_cost += credit;
            self.resumed_execs += 1;
        }
        credit
    }
}

impl ExecutionSubstrate for SimulatorSubstrate<'_> {
    fn execute_partial(&mut self, pid: PlanId, budget: f64) -> SubstrateOutcome {
        if let Some(o) = self.cancelled_outcome() {
            return o;
        }
        let (prog, fp) = (&self.b.programs()[pid], self.b.plan(pid).fingerprint());
        let out = self
            .ex
            .execute_compiled(prog, fp, &self.qa, budget, &mut self.nodes);
        let reused = self.resume.discount(
            &self.ex,
            &self.qa,
            self.exec_chain(pid, None),
            self.nodes.last(),
            out.spent(),
            out.completed(),
        );
        let mut o =
            SubstrateOutcome::plain(out.spent() - reused, out.completed(), out.error().cloned());
        o.reused = reused;
        o
    }

    fn execute_monitored(
        &mut self,
        pid: PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> SubstrateOutcome {
        if let Some(mut o) = self.cancelled_outcome() {
            o.spilled = spilled;
            return o;
        }
        let r = self.ex.execute_monitored(
            &self.b.programs()[pid],
            &self.b.driver_tables().plans[pid].monitor,
            &self.qa,
            resolved,
            budget,
            spilled,
            &mut self.nodes,
        );
        if !self.ex.faults.is_active() {
            if let Some((dim, v)) = r.learned {
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
            !r.resolved.is_empty()
        } else {
            r.completed
        };
        let reused = self.resume.discount(
            &self.ex,
            &self.qa,
            self.exec_chain(pid, spilled.then_some(resolved)),
            self.nodes.last(),
            r.spent,
            prefix_completed,
        );
        SubstrateOutcome {
            spent: r.spent - reused,
            reused,
            completed: r.completed,
            spilled,
            observed: r.learned.into_iter().collect(),
            // The simulator knows truth exactly: a resolved dimension's value
            // is qa's.
            resolved: r.resolved.into_iter().map(|dm| (dm, self.qa[dm])).collect(),
            error: r.error,
        }
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
        let cap = self.resume_byte_cap;
        self.resume
            .book
            .get_or_insert_with(|| CostResumeBook::with_byte_cap(cap));
        true
    }

    fn resume_stats(&self) -> ResumeStats {
        ResumeStats {
            reused_cost: self.resume.reused_cost,
            resumed_execs: self.resume.resumed_execs,
            checkpoints: self.resume.book.as_ref().map_or(0, CostResumeBook::len),
        }
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
    /// Checkpoint book for resumable executions (`None` until
    /// [`ExecutionSubstrate::enable_checkpoint_resume`]).
    resume: Option<ResumeBook>,
    reused_cost: f64,
    resumed_execs: usize,
    /// Byte cap applied to the resume book (`0` = unbounded).
    resume_byte_cap: usize,
    /// Cooperative cancellation token: polled at execution entry here, and
    /// threaded into the engine so a trip also halts a run mid-flight at
    /// its next batch commit.
    cancel: Option<CancelToken>,
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
            resume: None,
            reused_cost: 0.0,
            resumed_execs: 0,
            resume_byte_cap: 0,
            cancel: None,
        }
    }

    /// Thread a cooperative cancellation token. A trip surfaces as
    /// [`PbError::Cancelled`] at the next execution entry *and* — via the
    /// engine's ledger — at the next batch commit of a run already in
    /// flight, with the interrupted batch's work still charged.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.engine.cancel = Some(token.clone());
        self.cancel = Some(token);
        self
    }

    /// Bound the resume book to roughly `cap` bytes (`0` = unbounded),
    /// evicting least-recently-used snapshots past it. Applies to the
    /// current book immediately and to any book created later.
    pub fn set_resume_byte_cap(&mut self, cap: usize) {
        self.resume_byte_cap = cap;
        if let Some(book) = self.resume.as_mut() {
            book.set_byte_cap(cap);
        }
    }

    /// Detach the checkpoint book (e.g. to retain it across requests so a
    /// cancelled query's resubmission resumes instead of restarting).
    /// Resume is disabled until a book is installed or re-enabled.
    pub fn take_resume_book(&mut self) -> Option<ResumeBook> {
        self.resume.take()
    }

    /// Install a previously detached checkpoint book and enable resume.
    pub fn install_resume_book(&mut self, mut book: ResumeBook) {
        book.set_byte_cap(self.resume_byte_cap);
        self.resume = Some(book);
    }

    /// Poll the cancellation token; `Some` is the outcome a cancelled
    /// execution reports (nothing spent, typed error).
    fn cancelled_outcome(&self) -> Option<SubstrateOutcome> {
        let e = self.cancel.as_ref()?.cancel_error()?;
        Some(SubstrateOutcome::plain(0.0, false, Some(e)))
    }

    /// Chaos hook: corrupt every retained checkpoint's integrity checksum.
    /// Subsequent lookups fail validation and executions restart from
    /// scratch, re-capturing healthy snapshots as subtrees complete.
    pub fn corrupt_checkpoints(&mut self) {
        if let Some(book) = self.resume.as_mut() {
            book.corrupt_all();
        }
    }

    /// Execute `plan` through the checkpoint book when resume is enabled
    /// and no faults are armed (checkpoints must never replay or mask an
    /// injected fault), falling back to the plain fault-aware path
    /// otherwise. Returns the outcome and the cost units fast-forwarded.
    fn run_resumable(&mut self, plan: &PlanNode, budget: f64) -> (EngineOutcome, f64) {
        match self.resume.as_mut() {
            Some(book) if !self.faults.is_active() => {
                let (out, reused) = self.engine.execute_resumable(plan, budget, book);
                if reused > 0.0 {
                    self.reused_cost += reused;
                    self.resumed_execs += 1;
                }
                (out, reused)
            }
            _ => (
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

    /// Measure the true ESS location of the bound query against the data —
    /// the engine-side analogue of the simulator's `qa` argument, used by
    /// cross-substrate checks (`repro table3`).
    pub fn measured_qa(&self) -> Result<SelPoint, PbError> {
        measure_qa(self.db, &self.b.workload.query, &self.b.workload.ess)
    }

    fn note_completion(&mut self, out: &EngineOutcome) {
        if let EngineOutcome::Completed { rows, .. } = out {
            self.last_rows = Some(*rows);
        }
    }
}

impl ExecutionSubstrate for EngineSubstrate<'_> {
    fn execute_partial(&mut self, pid: PlanId, budget: f64) -> SubstrateOutcome {
        if let Some(o) = self.cancelled_outcome() {
            return o;
        }
        let plan = &self.b.plan(pid).root;
        let (out, reused) = self.run_resumable(plan, budget);
        self.note_completion(&out);
        let mut o =
            SubstrateOutcome::plain(out.cost() - reused, out.completed(), out.error().cloned());
        o.reused = reused;
        o
    }

    fn execute_monitored(
        &mut self,
        pid: PlanId,
        resolved: &[bool],
        budget: f64,
        spilled: bool,
    ) -> SubstrateOutcome {
        if let Some(mut o) = self.cancelled_outcome() {
            o.spilled = spilled;
            return o;
        }
        if spilled && self.faults.is_active() {
            if let Some(error) = self.faults.spill_failure("engine:spill") {
                // The pipeline break failed before any real work; the driver
                // decides whether to retry unspilled.
                return SubstrateOutcome {
                    spent: 0.0,
                    reused: 0.0,
                    completed: false,
                    spilled,
                    observed: Vec::new(),
                    resolved: Vec::new(),
                    error: Some(error),
                };
            }
        }
        let w = &self.b.workload;
        let plan = &self.b.plan(pid).root;
        // The first node in execution order applying an unresolved error
        // dimension; for a spilled run only that node's prefix executes.
        let learn = self.b.driver_tables().plans[pid]
            .monitor
            .learnable(resolved);
        let (exec_root, learn_dim): (PlanNode, Option<DimId>) = match (learn, spilled) {
            (Some((node, dim)), true) => (plan.post_order()[node.op].clone().spilled(), Some(dim)),
            (Some((_, dim)), false) => (plan.clone(), Some(dim)),
            (None, _) => (plan.clone(), None),
        };
        let (out, reused) = self.run_resumable(&exec_root, budget);
        let completed_query = out.completed() && !spilled;
        if completed_query {
            self.note_completion(&out);
        }
        let mut observed = Vec::new();
        let mut resolved_out = Vec::new();
        if let Some(dm) = learn_dim {
            if let Some(s) = out
                .instr()
                .observed_selectivity(&exec_root, &w.query, self.db, dm)
            {
                // The engine reports a *raw* selectivity bound; map it into
                // axis coordinates (identity except on flipped axes, where
                // the raw upper bound becomes a coordinate lower bound) and
                // clamp into the ESS so qrun can never leave the space.
                let s = w
                    .query
                    .spec_for_dim(dm)
                    .map_or(s, |spec| spec.to_coordinate(s));
                let s = s.clamp(w.ess.dims[dm].lo, w.ess.dims[dm].hi);
                observed.push((dm, s));
                if spilled && out.completed() {
                    // The prefix consumed its entire input: the counter is
                    // final, so the observation *is* the true selectivity.
                    resolved_out.push((dm, s));
                }
            }
        }
        SubstrateOutcome {
            spent: out.cost() - reused,
            reused,
            completed: completed_query,
            spilled,
            observed,
            resolved: resolved_out,
            error: out.error().cloned(),
        }
    }

    fn run_native_at(&mut self, point: &SelPoint) -> f64 {
        let plan = self.b.workload.optimizer().optimize(point).plan;
        self.engine.execute(&plan.root, f64::INFINITY).cost()
    }

    fn faults_active(&self) -> bool {
        self.faults.is_active()
    }

    fn enable_checkpoint_resume(&mut self) -> bool {
        let cap = self.resume_byte_cap;
        self.resume
            .get_or_insert_with(|| ResumeBook::with_byte_cap(cap));
        true
    }

    fn resume_stats(&self) -> ResumeStats {
        ResumeStats {
            reused_cost: self.reused_cost,
            resumed_execs: self.resumed_execs,
            checkpoints: self.resume.as_ref().map_or(0, ResumeBook::checkpoints),
        }
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
