//! The bouquet server: admission, dispatch, containment, drain.
//!
//! ```text
//! TCP conn ──► connection thread (NDJSON lines)
//!                │  submit: admit, or Rejected (queue full / draining)
//!                │  status / cancel / stats: read
//!                │  wait / drain: block on `settled`
//!                ▼
//! ┌─────────────── State, one Mutex ────────────────┐
//! │ requests · queued ids · metrics · tenant ledger │
//! │ retained books · faults · next id · drain flags │
//! └─────────────────────────────────────────────────┘
//!       │ dispatch (blocks on `work`)          ▲ finish (wakes `settled`)
//!       ▼                                      │
//! worker pool ── catch_unwind(`Bouquet::run`) ─┘
//!   on a SimulatorSubstrate with a per-tenant spend cap and a
//!   per-request cancellation token; a panic fails its request
//!   and the worker serves on
//! ```
//!
//! Every step of a request — admit, dispatch, finish — is one critical
//! section of the one [`State`], so a `Stats` reply is one moment of the
//! server. Nothing runs under the lock: no bouquet run, socket IO, fault
//! stall or latency sort. Everything is std: threads, one mutex, two
//! condvars, `std::net`. Catalogs, workloads and bouquets are loaded
//! **once** at startup (warm-started through [`BouquetCache`] when a cache
//! directory is given) and shared read-only across workers.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pb_bouquet::{
    Bouquet, BouquetCache, BouquetConfig, ExecutionOutcome, ExecutionSubstrate, RobustConfig,
    SimulatorSubstrate,
};
use pb_cost::{CheckpointBook, Parallelism};
use pb_executor::CostResumeBook;
use pb_faults::{CancelToken, FaultInjector, FaultPlan, PbError};

use crate::protocol::{
    read_line, write_line, QueryResult, ReqPhase, Request, Response, ServerStats,
};
use crate::tenant::{Reservation, TenantLedger};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` to let the OS pick (read it back from
    /// [`PbServer::addr`]).
    pub addr: String,
    /// Workload names to load and identify at startup (registry names).
    pub workloads: Vec<String>,
    /// Worker threads executing bouquet runs.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects with backpressure.
    pub queue_cap: usize,
    /// Per-tenant cumulative spend cap in cost units (`INFINITY` = none).
    pub tenant_cap: f64,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Server-side fault plan (slow-client, queue-stall, worker-panic,
    /// client-disconnect sites). Empty = no faults.
    pub faults: FaultPlan,
    /// Byte cap for checkpoints: each request's book, and all the books
    /// the server retains for resubmissions together, least recently
    /// retained evicted first.
    pub resume_byte_cap: usize,
    /// Warm-start identification through this [`BouquetCache`] directory.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workloads: vec!["EQ_1D".into()],
            workers: 2,
            queue_cap: 16,
            tenant_cap: f64::INFINITY,
            default_deadline_ms: None,
            faults: FaultPlan::none(),
            resume_byte_cap: 1 << 20,
            cache_dir: None,
        }
    }
}

/// One request: its submission, held once, and its lifecycle phase. The
/// state keeps it; the worker running it takes a clone.
#[derive(Clone)]
struct Req {
    tenant: String,
    workload: String,
    fractions: Vec<f64>,
    optimized: bool,
    resume: bool,
    cancel: CancelToken,
    submitted: Instant,
    phase: ReqPhase,
}

impl Req {
    fn book_key(&self) -> BookKey {
        (
            self.tenant.clone(),
            self.workload.clone(),
            self.fractions.iter().map(|f| f.to_bits()).collect(),
        )
    }
}

/// Terminal requests the server keeps answering `Status` and `Wait` for.
/// Past that the first finished is the first forgotten (its id then
/// answers `Error`); queued and running requests are never forgotten.
pub const TERMINAL_KEPT: usize = 1024;

/// Backoff hint attached to backpressure rejections.
pub const RETRY_AFTER_MS: u64 = 50;

/// Latencies the `Stats` quantiles are taken over: the most recent this
/// many. Within the window the quantiles are exact, and a long-lived
/// server's memory does not grow with the requests it has served.
pub const LATENCY_WINDOW: usize = 4096;

/// Key of a retained checkpoint book, (tenant, workload, qa bits), so a
/// cancelled request's **identical resubmission** resumes.
type BookKey = (String, String, Vec<u64>);

/// Everything the server changes after it starts, under one mutex.
struct State {
    /// Every queued and running request, and the latest terminal ones.
    reqs: HashMap<u64, Req>,
    /// Ids waiting for a worker, oldest first.
    queued: VecDeque<u64>,
    /// Terminal ids, oldest first; exactly the `Done` entries of `reqs`.
    finished: VecDeque<u64>,
    next_id: u64,
    /// The admission and outcome counters and `max_subopt`; a `Stats`
    /// reply fills in the rest.
    counts: ServerStats,
    /// The latest [`LATENCY_WINDOW`] latencies in milliseconds.
    latencies_ms: VecDeque<f64>,
    ledger: TenantLedger,
    /// Books of cancelled requests, held together under `resume_byte_cap`.
    books: CheckpointBook<BookKey, CostResumeBook>,
    faults: FaultInjector,
    /// Admission has stopped.
    draining: bool,
    /// Set once the drain has let workers exit.
    stop_workers: bool,
    /// The accept loop ends at the next connection.
    shutdown: bool,
}

/// A dispatched request: what a worker runs, the tenant budget it holds,
/// and the queue-stall fault's verdict for it.
struct Job {
    id: u64,
    req: Req,
    reservation: Reservation,
    stall_ms: Option<u64>,
}

impl State {
    /// Requests accepted but not yet terminal.
    fn pending(&self) -> usize {
        self.reqs.len() - self.finished.len()
    }

    /// Requests a worker holds: pending and no longer queued.
    fn inflight(&self) -> usize {
        self.pending() - self.queued.len()
    }

    /// Whether `id` is known and not yet terminal.
    fn is_pending(&self, id: u64) -> bool {
        self.reqs
            .get(&id)
            .is_some_and(|r| !matches!(r.phase, ReqPhase::Done(_)))
    }

    /// `id`'s phase as a `Status` reply; `Error` for an unknown id.
    fn status(&self, id: u64) -> Response {
        match self.reqs.get(&id) {
            Some(r) => Response::Status {
                id,
                phase: r.phase.clone(),
            },
            None => Response::Error {
                message: format!("unknown request id {id}"),
            },
        }
    }

    /// Hold `req` under the next id.
    fn insert(&mut self, req: Req) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.reqs.insert(id, req);
        id
    }

    /// Take the oldest queued request, mark it running, reserve its
    /// tenant's budget and consult the `server:queue-stall` fault site.
    fn dispatch(&mut self) -> Option<Job> {
        while let Some(id) = self.queued.pop_front() {
            let Some(r) = self.reqs.get_mut(&id) else {
                continue;
            };
            r.phase = ReqPhase::Running;
            let req = r.clone();
            let reservation = self.ledger.reserve(&req.tenant);
            let stall_ms = self.faults.queue_stall_ms();
            return Some(Job {
                id,
                req,
                reservation,
                stall_ms,
            });
        }
        None
    }
}

struct Shared {
    cfg: ServerConfig,
    bouquets: HashMap<String, Bouquet>,
    state: Mutex<State>,
    /// Notified when a request is queued and when workers may stop.
    work: Condvar,
    /// Notified whenever a request leaves the pending set: `Wait` and the
    /// drain block on it.
    settled: Condvar,
    addr: SocketAddr,
}

impl Shared {
    /// The state, even if a holder panicked: every critical section leaves
    /// it whole, and poisoning would otherwise take the whole server down
    /// with one faulty worker.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read under the lock; the quantiles are taken after it is released.
    fn stats(&self) -> ServerStats {
        let (mut stats, latencies) = {
            let st = self.lock();
            let stats = ServerStats {
                queue_depth: st.queued.len(),
                inflight: st.inflight(),
                tenants: st.ledger.snapshot(),
                ..st.counts.clone()
            };
            (stats, st.latencies_ms.iter().copied().collect())
        };
        [stats.p50_ms, stats.p99_ms] = quantiles(latencies, [0.50, 0.99]);
        stats
    }

    /// Keep `book` for the identical resubmission of the request keyed
    /// `key`, evicting the least recently retained books past the cap;
    /// `None` forgets the key's book.
    fn retain_book(&self, key: BookKey, book: Option<CostResumeBook>) {
        let mut st = self.lock();
        match book {
            Some(book) => st.books.insert(key, book),
            None => drop(st.books.remove(&key)),
        }
    }

    /// Record a request's terminal state: settle its reservation (a
    /// dispatched request has one), count its outcome and a contained
    /// worker panic, record its latency and sub-optimality, and mark it
    /// `Done`, forgetting the oldest terminal request past
    /// [`TERMINAL_KEPT`]; then wake every `Wait` and the drain. Every
    /// accepted request passes through here exactly once.
    fn finish(
        &self,
        id: u64,
        reservation: Option<Reservation>,
        result: QueryResult,
        panicked: bool,
    ) {
        let mut guard = self.lock();
        let st = &mut *guard;
        if let Some(r) = reservation {
            st.ledger.settle(r, result.total_cost);
        }
        let c = &mut st.counts;
        c.worker_panics += u64::from(panicked);
        *match result.outcome.as_str() {
            "completed" => &mut c.completed,
            "degraded" => &mut c.degraded,
            "budget-exhausted" => &mut c.budget_exhausted,
            "cancelled" => &mut c.cancelled,
            _ => &mut c.failed,
        } += 1;
        if let Some(subopt) = result.subopt {
            c.max_subopt = c.max_subopt.max(subopt);
        }
        if let Some(r) = st.reqs.get_mut(&id) {
            if st.latencies_ms.len() == LATENCY_WINDOW {
                st.latencies_ms.pop_front();
            }
            st.latencies_ms
                .push_back(r.submitted.elapsed().as_secs_f64() * 1e3);
            r.phase = ReqPhase::Done(result);
            st.finished.push_back(id);
            if st.finished.len() > TERMINAL_KEPT {
                if let Some(oldest) = st.finished.pop_front() {
                    st.reqs.remove(&oldest);
                }
            }
        }
        drop(guard);
        self.settled.notify_all();
    }
}

/// Nearest-rank quantiles of `ms`; `0` with no data.
fn quantiles<const N: usize>(mut ms: Vec<f64>, qs: [f64; N]) -> [f64; N] {
    ms.sort_by(f64::total_cmp);
    qs.map(|q| match ms.len() {
        0 => 0.0,
        n => ms[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    })
}

/// Payload [`FaultPlan`]-driven worker panics unwind with, so genuine bugs
/// (which unwind with other payloads) stay distinguishable in logs.
struct InjectedPanic;

/// A running server. Dropping the handle does **not** stop the server; call
/// [`PbServer::stop`] (immediate drain) or [`PbServer::wait`] (serve until
/// a client drains it).
pub struct PbServer {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl PbServer {
    /// Load + identify every configured workload, bind, and start serving.
    pub fn start(mut cfg: ServerConfig) -> Result<PbServer, PbError> {
        let mut bouquets = HashMap::new();
        let bcfg = BouquetConfig::default();
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(BouquetCache::new(dir)?),
            None => None,
        };
        for name in &cfg.workloads {
            let w = pb_workloads::by_name(name)
                .ok_or_else(|| PbError::Internal(format!("unknown workload {name}")))?;
            let bouquet = match &cache {
                Some(c) => c.get_or_identify(&w, &bcfg, Parallelism::auto())?.0,
                None => Bouquet::identify(&w, &bcfg)?,
            };
            bouquets.insert(name.clone(), bouquet);
        }

        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| PbError::Internal(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PbError::Internal(format!("local_addr: {e}")))?;

        cfg.workers = cfg.workers.max(1);
        cfg.queue_cap = cfg.queue_cap.max(1);
        let state = State {
            reqs: HashMap::new(),
            queued: VecDeque::new(),
            finished: VecDeque::new(),
            next_id: 1,
            counts: ServerStats::default(),
            latencies_ms: VecDeque::new(),
            ledger: TenantLedger::new(cfg.tenant_cap),
            books: CheckpointBook::with_byte_cap(cfg.resume_byte_cap),
            faults: FaultInjector::new(&cfg.faults),
            draining: false,
            stop_workers: false,
            shutdown: false,
        };
        let workers = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            bouquets,
            state: Mutex::new(state),
            work: Condvar::new(),
            settled: Condvar::new(),
            addr,
        });

        let workers = (0..workers)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&s))
            })
            .collect();
        let accept = {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&s, &listener))
        };
        Ok(PbServer {
            shared,
            accept,
            workers,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serve until a client issues `drain`, then join the accept thread and
    /// the workers; the final stats.
    pub fn wait(self) -> ServerStats {
        let _ = self.accept.join();
        for h in self.workers {
            let _ = h.join();
        }
        self.shared.stats()
    }

    /// Drain and shut down from the owning process: stop admitting, answer
    /// everything accepted, stop workers, close the listener.
    pub fn stop(self) -> ServerStats {
        drain_to_stop(&self.shared);
        stop_accepting(&self.shared);
        self.wait()
    }
}

/// Stop admission, wait for every accepted request to reach a terminal
/// state, then let workers exit. Bounded wait: a wedged run past its
/// deadline still ends through its cancellation token, so in practice
/// nothing stays pending; the cap is a last-resort escape.
fn drain_to_stop(s: &Shared) {
    let mut st = s.lock();
    st.draining = true;
    let waited = s
        .settled
        .wait_timeout_while(st, Duration::from_secs(120), |st| st.pending() > 0);
    let (mut st, _) = waited.unwrap_or_else(PoisonError::into_inner);
    st.stop_workers = true;
    drop(st);
    s.work.notify_all();
}

/// End the accept loop: set `shutdown`, then connect once so the blocked
/// `accept` returns and reads it.
fn stop_accepting(s: &Shared) {
    s.lock().shutdown = true;
    let _ = TcpStream::connect(s.addr);
}

fn accept_loop(s: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if s.lock().shutdown {
            break;
        }
        let Ok(stream) = stream else { continue };
        let s2 = Arc::clone(s);
        std::thread::spawn(move || serve_connection(&s2, stream));
    }
}

fn serve_connection(s: &Shared, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let req: Request = match read_line(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e) => {
                let _ = write_line(
                    &mut writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                // An over-long line is still arriving: nothing after it
                // can be read as a line, so the connection ends here.
                if matches!(e, PbError::Corrupt { .. }) {
                    return;
                }
                continue;
            }
        };
        // Fault site `server:slow-client`: the handler stalls as if the
        // client trickled its line in; workers are unaffected.
        let stall = s.lock().faults.slow_client_ms();
        if let Some(ms) = stall {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let is_drain = req == Request::Drain;
        let resp = handle_request(s, req);
        // Fault site `server:client-disconnect`: drop the connection
        // before the response is written. The request itself (if any) was
        // already admitted and will complete server-side.
        if s.lock().faults.client_disconnect() {
            return;
        }
        if write_line(&mut writer, &resp).is_err() {
            return;
        }
        if is_drain {
            stop_accepting(s);
            return;
        }
    }
}

fn handle_request(s: &Shared, req: Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Submit {
            tenant,
            workload,
            fractions,
            optimized,
            resume,
            deadline_ms,
        } => submit(
            s,
            Req {
                tenant,
                workload,
                fractions,
                optimized,
                resume,
                cancel: match deadline_ms.or(s.cfg.default_deadline_ms) {
                    Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
                    None => CancelToken::new(),
                },
                submitted: Instant::now(),
                phase: ReqPhase::Queued,
            },
        ),
        Request::Status { id } => s.lock().status(id),
        Request::Wait { id, timeout_ms } => {
            let timeout = Duration::from_millis(timeout_ms);
            let waited = s
                .settled
                .wait_timeout_while(s.lock(), timeout, |st| st.is_pending(id));
            let (st, _) = waited.unwrap_or_else(PoisonError::into_inner);
            st.status(id)
        }
        Request::Cancel { id } => {
            let st = s.lock();
            if let Some(r) = st.reqs.get(&id) {
                r.cancel.cancel();
            }
            st.status(id)
        }
        Request::Stats => Response::Stats { stats: s.stats() },
        Request::Drain => {
            drain_to_stop(s);
            Response::Drained { stats: s.stats() }
        }
    }
}

/// Admit `req` or reject it. A submission that names no loaded workload or
/// a wrong location is an `Error` and never reaches admission, so it counts
/// as neither submitted, accepted nor rejected.
fn submit(s: &Shared, req: Req) -> Response {
    let Some(b) = s.bouquets.get(&req.workload) else {
        return Response::Error {
            message: format!("unknown workload {}", req.workload),
        };
    };
    let d = b.workload.ess.d();
    if req.fractions.len() != d || req.fractions.iter().any(|f| !(0.0..=1.0).contains(f)) {
        return Response::Error {
            message: format!("fractions must be {d} values in [0,1]"),
        };
    }
    let mut st = s.lock();
    st.counts.submitted += 1;
    let refusal = if st.draining {
        Some("draining")
    } else if st.queued.len() >= s.cfg.queue_cap {
        Some("queue full")
    } else {
        None
    };
    if let Some(reason) = refusal {
        st.counts.rejected += 1;
        return Response::Rejected {
            reason: reason.into(),
            retry_after_ms: RETRY_AFTER_MS,
        };
    }
    let id = st.insert(req);
    st.queued.push_back(id);
    st.counts.accepted += 1;
    let queue_depth = st.queued.len();
    drop(st);
    s.work.notify_one();
    Response::Accepted { id, queue_depth }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// The next dispatched request, blocking while the queue is empty; `None`
/// once the queue is empty and the drain has let workers stop.
fn next_job(s: &Shared) -> Option<Job> {
    let mut st = s.lock();
    loop {
        if let Some(job) = st.dispatch() {
            return Some(job);
        }
        if st.stop_workers {
            return None;
        }
        st = s.work.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

fn worker_loop(s: &Shared) {
    while let Some(job) = next_job(s) {
        // Fault site `server:queue-stall`: dispatch hiccups, surfacing as
        // added latency of a running request — never as a dropped one.
        if let Some(ms) = job.stall_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            execute_request(s, &job.req, &job.reservation)
        }));
        let panicked = run.is_err();
        let result = run.unwrap_or_else(|_| {
            // Containment: the request gets a typed terminal error and the
            // tenant is charged its full reservation (an over- but never an
            // under-charge: the run's spend is bounded by it). Nothing the
            // run touched outlives it, and the state's lock survives a
            // poisoning, so this worker takes the next request.
            let error = PbError::Internal("worker panicked; request aborted".into());
            QueryResult {
                total_cost: if job.reservation.amount().is_finite() {
                    job.reservation.amount()
                } else {
                    0.0
                },
                ..fail_result(&error)
            }
        });
        s.finish(job.id, Some(job.reservation), result, panicked);
    }
}

/// Execute one dispatched request end to end; the caller settles the
/// reservation at the result's `total_cost`. Panics (injected or genuine)
/// unwind to the worker loop's containment.
#[allow(clippy::panic)] // the worker-panic fault site unwinds on purpose
fn execute_request(s: &Shared, req: &Req, reservation: &Reservation) -> QueryResult {
    if s.lock().faults.worker_panic() {
        // Deliberate unwind — the `server:worker-panic` fault site.
        std::panic::panic_any(InjectedPanic);
    }
    let Some(b) = s.bouquets.get(&req.workload) else {
        return fail_result(&PbError::Internal("workload vanished".into()));
    };
    let qa = b.workload.ess.point_at_fractions(&req.fractions);
    let cap = reservation.amount();
    let cfg = RobustConfig {
        optimized: req.optimized,
        spend_cap: cap.is_finite().then_some(cap),
        ..Default::default()
    };
    let mut sub = match SimulatorSubstrate::new(b, &qa, FaultInjector::none()) {
        Ok(sub) => sub.with_cancel(req.cancel.clone()),
        Err(e) => return fail_result(&e),
    };
    if req.resume {
        // A retained book (a cancelled submission's) or a fresh one.
        sub.resume.set_byte_cap(s.cfg.resume_byte_cap);
        let book = s.lock().books.remove(&req.book_key());
        sub.resume.install_book(book.unwrap_or_default());
    }

    let rr = match b.run(&mut sub, &cfg) {
        Ok(rr) => rr,
        Err(e) => return fail_result(&e),
    };
    let stats = sub.resume_stats();
    let (outcome, final_plan, cancelled) = match rr.run.outcome {
        ExecutionOutcome::Completed { final_plan, .. } => ("completed", Some(final_plan), false),
        ExecutionOutcome::Degraded { final_plan, .. } => ("degraded", Some(final_plan), false),
        ExecutionOutcome::BudgetExhausted { .. } => ("budget-exhausted", None, false),
        ExecutionOutcome::Cancelled { .. } => ("cancelled", None, true),
    };
    if req.resume {
        // Retain checkpoints for the resubmission of a cancelled request;
        // drop them once a terminal answer was produced.
        let book = sub.resume.take_book().filter(|_| cancelled);
        s.retain_book(req.book_key(), book);
    }
    let subopt = (outcome == "completed")
        .then(|| (stats.reused_cost + rr.run.total_cost) / sub.run_native_at(&qa));
    QueryResult {
        outcome: outcome.into(),
        total_cost: rr.run.total_cost,
        reused_cost: stats.reused_cost,
        final_plan,
        subopt,
        events: rr.events.len(),
        error: None,
    }
}

fn fail_result(e: &PbError) -> QueryResult {
    QueryResult {
        outcome: "failed".into(),
        total_cost: 0.0,
        reused_cost: 0.0,
        final_plan: None,
        subopt: None,
        events: 0,
        error: Some(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PbClient;
    use pb_faults::{FaultKind, Trigger};

    fn submit_req(tenant: &str, fraction: f64, resume: bool) -> Request {
        Request::Submit {
            tenant: tenant.into(),
            workload: "EQ_1D".into(),
            fractions: vec![fraction],
            optimized: false,
            resume,
            deadline_ms: None,
        }
    }

    /// A server whose first dispatch stalls `ms`, so the first request
    /// stays queued that long.
    fn stalled_server(ms: u64) -> PbServer {
        PbServer::start(ServerConfig {
            faults: FaultPlan::new(1).with(FaultKind::QueueStall { ms }, Trigger::Nth(1)),
            ..ServerConfig::default()
        })
        .unwrap()
    }

    fn accepted_id(reply: Response) -> u64 {
        match reply {
            Response::Accepted { id, .. } => id,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_queued_requests_wait_answers_its_result() {
        let server = stalled_server(100);
        let mut c = PbClient::connect(server.addr()).unwrap();
        let id = accepted_id(c.request(&submit_req("t", 0.5, false)).unwrap());
        let reply = c
            .request(&Request::Wait {
                id,
                timeout_ms: 30_000,
            })
            .unwrap();
        let Response::Status {
            id: answered,
            phase: ReqPhase::Done(result),
        } = reply
        else {
            panic!("{reply:?}");
        };
        assert_eq!(answered, id);
        assert_eq!(result.outcome, "completed");
        // A terminal request's `Wait` answers at once, as `Status` does.
        assert_eq!(
            c.request(&Request::Wait { id, timeout_ms: 0 }).unwrap(),
            c.request(&Request::Status { id }).unwrap()
        );
        server.stop();
    }

    /// Every `Stats` reply is one moment of the server: while the first
    /// dispatch stalls, each snapshot still accounts for every request —
    /// the stalled one is in flight, and a submission that failed
    /// validation counts nowhere.
    #[test]
    fn every_stats_snapshot_accounts_for_every_request() {
        let server = stalled_server(1000);
        let mut c = PbClient::connect(server.addr()).unwrap();
        let id = accepted_id(c.request(&submit_req("t", 0.5, false)).unwrap());
        let unknown = Request::Submit {
            tenant: "t".into(),
            workload: "NOPE".into(),
            fractions: vec![0.5],
            optimized: false,
            resume: false,
            deadline_ms: None,
        };
        assert!(matches!(
            c.request(&unknown).unwrap(),
            Response::Error { .. }
        ));
        let polling = Instant::now();
        let mut snapshots = 0;
        while polling.elapsed() < Duration::from_millis(400) {
            let Response::Stats { stats: s } = c.request(&Request::Stats).unwrap() else {
                panic!("Stats answered something else");
            };
            let answered = s.completed + s.degraded + s.budget_exhausted + s.cancelled + s.failed;
            assert_eq!(
                s.accepted - answered,
                (s.queue_depth + s.inflight) as u64,
                "{s:?}"
            );
            assert_eq!(s.submitted, s.accepted + s.rejected, "{s:?}");
            snapshots += 1;
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(snapshots > 0);
        let done = c.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(done.outcome, "completed");
        server.stop();
    }

    /// Under the default (uncapped) tenant budget, one tenant's requests
    /// may overlap: with two workers and every dispatch stalled, each
    /// request still holds its reservation while the other worker
    /// dispatches the next, and every one completes.
    #[test]
    fn an_uncapped_tenants_overlapping_requests_all_complete() {
        let stall = FaultKind::QueueStall { ms: 50 };
        let server = PbServer::start(ServerConfig {
            faults: FaultPlan::new(1).with(stall, Trigger::Every(1)),
            ..ServerConfig::default()
        })
        .unwrap();
        let s = &server.shared;
        assert_eq!((s.cfg.workers, s.cfg.tenant_cap), (2, f64::INFINITY));
        let ids: Vec<u64> = [0.2, 0.4, 0.6, 0.8]
            .map(|f| accepted_id(handle_request(s, submit_req("t", f, false))))
            .into();
        let mut c = PbClient::connect(server.addr()).unwrap();
        for id in ids {
            let result = c.wait(id, Duration::from_secs(30)).unwrap();
            assert_eq!(result.outcome, "completed", "{result:?}");
        }
        server.stop();
    }

    /// Register a request no worker runs: it stays queued until the test
    /// settles it with `finish`, so a wait on it cannot end early.
    fn held_request(s: &Arc<Shared>) -> u64 {
        s.lock().insert(Req {
            tenant: "t".into(),
            workload: "EQ_1D".into(),
            fractions: vec![0.5],
            optimized: false,
            resume: false,
            cancel: CancelToken::new(),
            submitted: Instant::now(),
            phase: ReqPhase::Queued,
        })
    }

    #[test]
    fn a_wait_that_times_out_answers_the_current_phase() {
        let server = PbServer::start(ServerConfig::default()).unwrap();
        let s = &server.shared;
        let id = held_request(s);
        let mut c = PbClient::connect(server.addr()).unwrap();
        assert_eq!(
            c.request(&Request::Wait { id, timeout_ms: 5 }).unwrap(),
            Response::Status {
                id,
                phase: ReqPhase::Queued
            }
        );
        let err = c.wait(id, Duration::from_millis(5)).unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
        let result = fail_result(&PbError::Internal("settled by the test".into()));
        s.finish(id, None, result.clone(), false);
        assert_eq!(c.wait(id, Duration::from_secs(30)).unwrap(), result);
        server.stop();
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let ms: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantiles(ms, [0.50, 0.99, 1.0]), [50.0, 99.0, 100.0]);
        assert_eq!(quantiles(Vec::new(), [0.50]), [0.0]);
    }

    /// `Stats` starts at zero, keeps the largest sub-optimality seen, and
    /// takes its quantiles over the latest [`LATENCY_WINDOW`] requests: once
    /// the window is full, a finish drops the oldest latency and appends its
    /// own.
    #[test]
    fn stats_keep_the_max_subopt_and_the_latest_latencies() {
        let start = Instant::now();
        let server = PbServer::start(ServerConfig::default()).unwrap();
        let s = &server.shared;
        assert_eq!(s.stats(), ServerStats::default());
        let completed = |subopt| QueryResult {
            outcome: "completed".into(),
            subopt: Some(subopt),
            ..fail_result(&PbError::Internal("settled by the test".into()))
        };
        for subopt in [2.0, 1.5, 3.0] {
            s.finish(held_request(s), None, completed(subopt), false);
        }
        assert_eq!(s.stats().max_subopt, 3.0);
        for _ in 0..LATENCY_WINDOW {
            s.finish(held_request(s), None, completed(1.0), false);
        }
        let before = s.lock().latencies_ms.clone();
        assert_eq!(before.len(), LATENCY_WINDOW);
        // Submitted before every request above, so its latency is the largest.
        let id = held_request(s);
        s.lock().reqs.get_mut(&id).unwrap().submitted = start;
        s.finish(id, None, completed(1.0), false);
        let after = s.lock().latencies_ms.clone();
        assert_eq!(after.len(), LATENCY_WINDOW);
        assert!(after.range(..LATENCY_WINDOW - 1).eq(before.range(1..)));
        let newest = *after.back().unwrap();
        assert!(before.iter().all(|&ms| ms <= newest), "{newest}");
        let stats = server.stop();
        assert_eq!(stats.completed, LATENCY_WINDOW as u64 + 4);
        assert_eq!(stats.max_subopt, 3.0);
        assert!(0.0 < stats.p99_ms && stats.p50_ms <= stats.p99_ms);
    }

    #[test]
    fn waiting_on_an_unknown_id_is_an_error() {
        let server = PbServer::start(ServerConfig::default()).unwrap();
        let mut c = PbClient::connect(server.addr()).unwrap();
        let reply = c
            .request(&Request::Wait {
                id: 999_999,
                timeout_ms: 30_000,
            })
            .unwrap();
        assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
        assert!(c.wait(999_999, Duration::from_secs(30)).is_err());
        server.stop();
    }

    #[test]
    fn drain_completes_while_a_waiter_is_blocked() {
        let server = PbServer::start(ServerConfig::default()).unwrap();
        let s = &server.shared;
        let id = held_request(s);
        // Both connect first: once the drain ends, the listener closes.
        let (mut c, mut d) = (
            PbClient::connect(server.addr()).unwrap(),
            PbClient::connect(server.addr()).unwrap(),
        );
        let waiter = std::thread::spawn(move || c.wait(id, Duration::from_secs(30)));
        let drain = std::thread::spawn(move || d.request(&Request::Drain));
        while !s.lock().draining {
            std::thread::yield_now();
        }
        // The drain waits for the held request, and so does the waiter.
        assert!(!drain.is_finished() && !waiter.is_finished());
        let result = fail_result(&PbError::Internal("settled by the test".into()));
        s.finish(id, None, result.clone(), false);
        assert!(matches!(
            drain.join().unwrap().unwrap(),
            Response::Drained { .. }
        ));
        assert_eq!(waiter.join().unwrap().unwrap(), result);
        server.wait();
    }

    #[test]
    fn the_registry_forgets_the_oldest_terminal_requests_only() {
        let server = PbServer::start(ServerConfig {
            queue_cap: 64,
            ..ServerConfig::default()
        })
        .unwrap();
        let s = &server.shared;
        let mut accepted: Vec<u64> = Vec::new();
        for _ in 0..TERMINAL_KEPT + 50 {
            let id = loop {
                match handle_request(s, submit_req("t", 0.5, false)) {
                    Response::Accepted { id, .. } => break id,
                    // The queue is full; once the newest request settles,
                    // it is empty.
                    Response::Rejected { .. } => {
                        let newest = accepted[accepted.len() - 1];
                        handle_request(
                            s,
                            Request::Wait {
                                id: newest,
                                timeout_ms: 30_000,
                            },
                        );
                    }
                    other => panic!("{other:?}"),
                }
            };
            accepted.push(id);
            let registry = s.lock();
            let in_flight = registry
                .reqs
                .values()
                .filter(|r| !matches!(r.phase, ReqPhase::Done(_)))
                .count();
            assert_eq!(registry.pending(), in_flight);
            let held = registry.reqs.len();
            assert!(
                held <= TERMINAL_KEPT + in_flight,
                "{held} held, {in_flight} in flight"
            );
        }
        drop(s.settled.wait_while(s.lock(), |r| r.pending() > 0).unwrap());
        assert_eq!(s.lock().reqs.len(), TERMINAL_KEPT);
        // The first to finish are forgotten — not necessarily the first
        // submitted, with two workers — and answer `Error`.
        let status = |id| handle_request(s, Request::Status { id });
        let forgotten = accepted
            .iter()
            .filter(|&&id| matches!(status(id), Response::Error { .. }))
            .count();
        assert_eq!(forgotten, accepted.len() - TERMINAL_KEPT);
        let newest = accepted[accepted.len() - 1];
        assert!(matches!(
            status(newest),
            Response::Status {
                phase: ReqPhase::Done(_),
                ..
            }
        ));
        server.stop();
    }

    /// Books retained for many cancelled resume requests stay within
    /// `resume_byte_cap` all together, and the newest request's identical
    /// resubmission still resumes from its book.
    #[test]
    fn retained_books_share_one_cap_and_the_newest_resumes() {
        let cap = 2 << 10;
        let server = PbServer::start(ServerConfig {
            resume_byte_cap: cap,
            ..ServerConfig::default()
        })
        .unwrap();
        let s = &server.shared;
        let b = &s.bouquets["EQ_1D"];
        let fractions: Vec<f64> = (0..40).map(|i| 0.5 + f64::from(i) / 100.0).collect();
        for &f in &fractions {
            // A resume request cancelled once its discovery had run: its
            // checkpoints are what the worker retains for it.
            let token = CancelToken::new();
            let qa = b.workload.ess.point_at_fractions(&[f]);
            let mut sub = SimulatorSubstrate::new(b, &qa, FaultInjector::none())
                .unwrap()
                .with_cancel(token.clone());
            sub.resume.set_byte_cap(cap);
            sub.enable_checkpoint_resume();
            let cfg = RobustConfig::default();
            b.run(&mut sub, &cfg).unwrap();
            token.cancel();
            let rr = b.run(&mut sub, &cfg).unwrap();
            assert!(matches!(rr.run.outcome, ExecutionOutcome::Cancelled { .. }));
            let book = sub.resume.take_book().filter(|book| !book.is_empty());
            s.retain_book(("t".into(), "EQ_1D".into(), vec![f.to_bits()]), book);
            let retained = s.lock().books.bytes();
            assert!(retained <= cap, "{retained} B retained under a {cap} B cap");
        }
        assert!(
            s.lock().books.evictions() > 0,
            "the cap never evicted a book"
        );

        // Cost units a resume request reuses; tenant "u" has no book, so
        // its requests reuse only within their own run.
        let reused = |tenant: &str, f: f64| {
            let id = accepted_id(handle_request(s, submit_req(tenant, f, true)));
            let wait = Request::Wait {
                id,
                timeout_ms: 30_000,
            };
            match handle_request(s, wait) {
                Response::Status {
                    phase: ReqPhase::Done(r),
                    ..
                } => r.reused_cost,
                other => panic!("{other:?}"),
            }
        };
        let (oldest, newest) = (fractions[0], fractions[fractions.len() - 1]);
        assert!(
            reused("t", newest) > reused("u", newest),
            "the newest book was not resumed"
        );
        // The oldest book was evicted: its resubmission starts afresh.
        assert_eq!(reused("t", oldest), reused("u", oldest));
        server.stop();
    }
}
