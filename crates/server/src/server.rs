//! The bouquet server: admission, dispatch, containment, drain.
//!
//! ```text
//!             ┌──────────── accept loop ───────────┐
//!  TCP conn ──► connection thread (NDJSON lines)   │
//!             │    submit ──► bounded queue ───────┼──► worker pool
//!             │    status/cancel/stats ─► registry │      │ per-request
//!             │    drain ──► stop + await pending  │      │ catch_unwind
//!             └────────────────────────────────────┘      ▼
//!                 supervisor respawns poisoned workers, requests run
//!                 `Bouquet::run` on a SimulatorSubstrate with a per-tenant
//!                 spend cap and a per-request cancellation token
//! ```
//!
//! Everything is std: threads, mutexes, condvars, `std::net`. Catalogs,
//! workloads and bouquets are loaded **once** at startup (warm-started
//! through [`BouquetCache`] when a cache directory is given) and shared
//! read-only across workers.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pb_bouquet::{
    Bouquet, BouquetCache, BouquetConfig, ExecutionOutcome, ExecutionSubstrate, RobustConfig,
    SimulatorSubstrate,
};
use pb_cost::{CheckpointBook, Parallelism};
use pb_executor::CostResumeBook;
use pb_faults::{CancelToken, FaultInjector, FaultPlan, PbError};

use crate::metrics::Metrics;
use crate::protocol::{
    read_line, write_line, QueryResult, ReqPhase, Request, Response, ServerStats,
};
use crate::queue::{BoundedQueue, PushError};
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
    /// Backoff hint attached to backpressure rejections.
    pub retry_after_ms: u64,
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
            retry_after_ms: 50,
            faults: FaultPlan::none(),
            resume_byte_cap: 1 << 20,
            cache_dir: None,
        }
    }
}

/// A loaded, identified workload shared read-only across workers.
struct Loaded {
    bouquet: Bouquet,
}

/// Everything a dispatched request needs outside the registry lock.
struct ReqMeta {
    tenant: String,
    workload: String,
    fractions: Vec<f64>,
    optimized: bool,
    resume: bool,
    cancel: CancelToken,
    reservation: Reservation,
}

struct ReqState {
    tenant: String,
    workload: String,
    fractions: Vec<f64>,
    optimized: bool,
    resume: bool,
    cancel: CancelToken,
    submitted: Instant,
    phase: ReqPhase,
}

/// Terminal requests the registry keeps answering `Status` for. Past that
/// the first finished is the first forgotten (its id then answers
/// `Error`); queued and running requests are never forgotten.
pub const TERMINAL_KEPT: usize = 1024;

/// Every queued and running request, and the latest terminal ones.
#[derive(Default)]
struct Registry {
    reqs: HashMap<u64, ReqState>,
    /// Terminal ids, oldest first.
    finished: VecDeque<u64>,
}

/// Key of a retained checkpoint book, (tenant, workload, qa bits), so a
/// cancelled request's **identical resubmission** resumes.
type BookKey = (String, String, Vec<u64>);

struct Shared {
    cfg: ServerConfig,
    loaded: HashMap<String, Arc<Loaded>>,
    queue: BoundedQueue<u64>,
    registry: Mutex<Registry>,
    next_id: AtomicU64,
    ledger: TenantLedger,
    metrics: Metrics,
    faults: Mutex<FaultInjector>,
    /// Books of cancelled requests, held together under `resume_byte_cap`.
    books: Mutex<CheckpointBook<BookKey, CostResumeBook>>,
    /// Requests accepted but not yet terminal.
    pending: AtomicUsize,
    inflight: AtomicUsize,
    draining: AtomicBool,
    /// Set once drain decided workers may exit; stops supervisor respawns.
    stop_workers: AtomicBool,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn stats(&self) -> ServerStats {
        self.metrics.snapshot(
            self.queue.len(),
            self.inflight.load(Ordering::Relaxed),
            self.ledger.snapshot(),
        )
    }

    fn book_key(&self, m: &ReqMeta) -> BookKey {
        (
            m.tenant.clone(),
            m.workload.clone(),
            m.fractions.iter().map(|f| f.to_bits()).collect(),
        )
    }

    /// Keep `book` for the identical resubmission of the request keyed
    /// `key`, evicting the least recently retained books past the cap;
    /// `None` forgets the key's book.
    fn retain_book(&self, key: BookKey, book: Option<CostResumeBook>) {
        let mut books = lock(&self.books);
        match book {
            Some(book) => books.insert(key, book),
            None => drop(books.remove(&key)),
        }
    }
}

/// Payload [`FaultPlan`]-driven worker panics unwind with, so genuine bugs
/// (which unwind with other payloads) stay distinguishable in logs.
struct InjectedPanic;

/// A running server. Dropping the handle does **not** stop the server; call
/// [`PbServer::stop`] (immediate drain) or [`PbServer::wait`] (serve until
/// a client drains it).
pub struct PbServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl PbServer {
    /// Load + identify every configured workload, bind, and start serving.
    pub fn start(cfg: ServerConfig) -> Result<PbServer, PbError> {
        let mut loaded = HashMap::new();
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
            loaded.insert(name.clone(), Arc::new(Loaded { bouquet }));
        }

        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| PbError::Internal(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| PbError::Internal(format!("local_addr: {e}")))?;

        let workers = cfg.workers.max(1);
        let queue_cap = cfg.queue_cap.max(1);
        let tenant_cap = cfg.tenant_cap;
        let resume_byte_cap = cfg.resume_byte_cap;
        let faults = FaultInjector::new(&cfg.faults);
        let shared = Arc::new(Shared {
            cfg,
            loaded,
            queue: BoundedQueue::new(queue_cap),
            registry: Mutex::new(Registry::default()),
            next_id: AtomicU64::new(1),
            ledger: TenantLedger::new(tenant_cap),
            metrics: Metrics::default(),
            faults: Mutex::new(faults),
            books: Mutex::new(CheckpointBook::with_byte_cap(resume_byte_cap)),
            pending: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            stop_workers: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            addr,
        });

        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&s))
            })
            .collect();
        let supervisor = {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || supervise(&s, handles))
        };
        let accept = {
            let s = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&s, &listener))
        };
        Ok(PbServer {
            shared,
            accept: Some(accept),
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serve until a client issues `drain`, then join all threads.
    pub fn wait(mut self) -> ServerStats {
        self.join_threads();
        self.shared.stats()
    }

    /// Drain and shut down from the owning process: stop admitting, answer
    /// everything accepted, stop workers, close the listener.
    pub fn stop(mut self) -> ServerStats {
        drain_to_stop(&self.shared);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        poke_accept(&self.shared);
        self.join_threads();
        self.shared.stats()
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Stop admission, wait for every accepted request to reach a terminal
/// state, then let workers exit. Bounded wait: a wedged run past its
/// deadline still counts down via its cancellation token, so in practice
/// pending always reaches zero; the cap is a last-resort escape.
fn drain_to_stop(s: &Shared) {
    s.draining.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(120);
    while s.pending.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    s.stop_workers.store(true, Ordering::SeqCst);
    s.queue.close();
}

/// Unblock the accept loop after `shutdown` is set.
fn poke_accept(s: &Shared) {
    let _ = TcpStream::connect(s.addr);
}

fn accept_loop(s: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if s.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let s2 = Arc::clone(s);
        std::thread::spawn(move || serve_connection(&s2, stream));
    }
}

fn serve_connection(s: &Arc<Shared>, stream: TcpStream) {
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
        let stall = lock(&s.faults).slow_client_ms();
        if let Some(ms) = stall {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let is_drain = req == Request::Drain;
        let resp = handle_request(s, req);
        // Fault site `server:client-disconnect`: drop the connection
        // before the response is written. The request itself (if any) was
        // already admitted and will complete server-side.
        if lock(&s.faults).client_disconnect() {
            return;
        }
        if write_line(&mut writer, &resp).is_err() {
            return;
        }
        if is_drain {
            s.shutdown.store(true, Ordering::SeqCst);
            poke_accept(s);
            return;
        }
    }
}

fn handle_request(s: &Arc<Shared>, req: Request) -> Response {
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
            tenant,
            workload,
            fractions,
            optimized,
            resume,
            deadline_ms,
        ),
        Request::Status { id } => match lock(&s.registry).reqs.get(&id) {
            Some(r) => Response::Status {
                id,
                phase: r.phase.clone(),
            },
            None => Response::Error {
                message: format!("unknown request id {id}"),
            },
        },
        Request::Cancel { id } => match lock(&s.registry).reqs.get(&id) {
            Some(r) => {
                r.cancel.cancel();
                Response::Status {
                    id,
                    phase: r.phase.clone(),
                }
            }
            None => Response::Error {
                message: format!("unknown request id {id}"),
            },
        },
        Request::Stats => Response::Stats { stats: s.stats() },
        Request::Drain => {
            drain_to_stop(s);
            Response::Drained { stats: s.stats() }
        }
    }
}

fn submit(
    s: &Arc<Shared>,
    tenant: String,
    workload: String,
    fractions: Vec<f64>,
    optimized: bool,
    resume: bool,
    deadline_ms: Option<u64>,
) -> Response {
    s.metrics.submitted.fetch_add(1, Ordering::Relaxed);
    if s.draining.load(Ordering::SeqCst) {
        s.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::Rejected {
            reason: "draining".into(),
            retry_after_ms: s.cfg.retry_after_ms,
        };
    }
    let Some(loaded) = s.loaded.get(&workload) else {
        return Response::Error {
            message: format!("unknown workload {workload}"),
        };
    };
    let d = loaded.bouquet.workload.ess.d();
    if fractions.len() != d || fractions.iter().any(|f| !(0.0..=1.0).contains(f)) {
        return Response::Error {
            message: format!("fractions must be {d} values in [0,1]"),
        };
    }
    let cancel = match deadline_ms.or(s.cfg.default_deadline_ms) {
        Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let id = s.next_id.fetch_add(1, Ordering::SeqCst);
    lock(&s.registry).reqs.insert(
        id,
        ReqState {
            tenant,
            workload,
            fractions,
            optimized,
            resume,
            cancel,
            submitted: Instant::now(),
            phase: ReqPhase::Queued,
        },
    );
    s.pending.fetch_add(1, Ordering::SeqCst);
    match s.queue.try_push(id) {
        Ok(depth) => {
            s.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            Response::Accepted {
                id,
                queue_depth: depth,
            }
        }
        Err(e) => {
            lock(&s.registry).reqs.remove(&id);
            s.pending.fetch_sub(1, Ordering::SeqCst);
            s.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            Response::Rejected {
                reason: match e {
                    PushError::Full => "queue full".into(),
                    PushError::Closed => "draining".into(),
                },
                retry_after_ms: s.cfg.retry_after_ms,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(s: &Arc<Shared>) {
    while let Some(id) = s.queue.pop() {
        // Fault site `server:queue-stall`: dispatch hiccups, surfacing as
        // added queueing latency — never as a dropped request.
        let stall = lock(&s.faults).queue_stall_ms();
        if let Some(ms) = stall {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let Some(meta) = begin_request(s, id) else {
            continue;
        };
        s.inflight.fetch_add(1, Ordering::SeqCst);
        let run = catch_unwind(AssertUnwindSafe(|| execute_request(s, id, &meta)));
        s.inflight.fetch_sub(1, Ordering::SeqCst);
        if run.is_err() {
            // Containment: the request gets a typed terminal error, the
            // tenant is charged its full reservation (an over- but never an
            // under-charge: the run's spend is bounded by it), and this
            // worker is considered poisoned — it exits and the supervisor
            // replaces it. The server never goes down.
            s.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            let charged = if meta.reservation.amount.is_finite() {
                meta.reservation.amount
            } else {
                0.0
            };
            s.ledger.settle(&meta.reservation, charged);
            finish(
                s,
                id,
                QueryResult {
                    outcome: "failed".into(),
                    total_cost: charged,
                    reused_cost: 0.0,
                    final_plan: None,
                    subopt: None,
                    events: 0,
                    error: Some(
                        PbError::Internal("worker panicked; request aborted".into()).to_string(),
                    ),
                },
            );
            return;
        }
    }
}

/// Respawn poisoned workers until the server decides they may exit.
fn supervise(s: &Arc<Shared>, mut handles: Vec<JoinHandle<()>>) {
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let stopping = s.stop_workers.load(Ordering::SeqCst);
        for h in &mut handles {
            if h.is_finished() && !stopping {
                let s2 = Arc::clone(s);
                let fresh = std::thread::spawn(move || worker_loop(&s2));
                let dead = std::mem::replace(h, fresh);
                let _ = dead.join();
                s.metrics.workers_replaced.fetch_add(1, Ordering::Relaxed);
            }
        }
        if stopping && handles.iter().all(JoinHandle::is_finished) {
            for h in handles {
                let _ = h.join();
            }
            return;
        }
    }
}

/// Mark `id` running, snapshot its fields and reserve its tenant budget.
fn begin_request(s: &Arc<Shared>, id: u64) -> Option<ReqMeta> {
    let (tenant, workload, fractions, optimized, resume, cancel) = {
        let mut registry = lock(&s.registry);
        let r = registry.reqs.get_mut(&id)?;
        r.phase = ReqPhase::Running;
        (
            r.tenant.clone(),
            r.workload.clone(),
            r.fractions.clone(),
            r.optimized,
            r.resume,
            r.cancel.clone(),
        )
    };
    let reservation = s.ledger.reserve(&tenant);
    Some(ReqMeta {
        tenant,
        workload,
        fractions,
        optimized,
        resume,
        cancel,
        reservation,
    })
}

/// Execute one admitted request end to end. Panics (injected or genuine)
/// unwind to the worker loop's containment.
#[allow(clippy::panic)] // the worker-panic fault site unwinds on purpose
fn execute_request(s: &Arc<Shared>, id: u64, meta: &ReqMeta) {
    if lock(&s.faults).worker_panic() {
        // Deliberate unwind — the `server:worker-panic` fault site.
        std::panic::panic_any(InjectedPanic);
    }
    let Some(loaded) = s.loaded.get(&meta.workload) else {
        s.ledger.settle(&meta.reservation, 0.0);
        finish(
            s,
            id,
            fail_result(&PbError::Internal("workload vanished".into())),
        );
        return;
    };
    let b = &loaded.bouquet;
    let qa = b.workload.ess.point_at_fractions(&meta.fractions);
    let cfg = RobustConfig {
        optimized: meta.optimized,
        resume: meta.resume,
        spend_cap: meta
            .reservation
            .amount
            .is_finite()
            .then_some(meta.reservation.amount),
        cancel: Some(meta.cancel.clone()),
        ..Default::default()
    };
    let mut sub = match SimulatorSubstrate::new(b, &qa, FaultInjector::none()) {
        Ok(sub) => sub.with_cancel(meta.cancel.clone()),
        Err(e) => {
            s.ledger.settle(&meta.reservation, 0.0);
            finish(s, id, fail_result(&e));
            return;
        }
    };
    if meta.resume {
        sub.resume.set_byte_cap(s.cfg.resume_byte_cap);
        let key = s.book_key(meta);
        if let Some(book) = lock(&s.books).remove(&key) {
            sub.resume.install_book(book);
        }
    }

    match b.run(&mut sub, &cfg) {
        Ok(rr) => {
            let stats = sub.resume_stats();
            let (outcome, final_plan, cancelled) = match rr.run.outcome {
                ExecutionOutcome::Completed { final_plan, .. } => {
                    ("completed", Some(final_plan), false)
                }
                ExecutionOutcome::Degraded { final_plan, .. } => {
                    ("degraded", Some(final_plan), false)
                }
                ExecutionOutcome::BudgetExhausted { .. } => ("budget-exhausted", None, false),
                ExecutionOutcome::Cancelled { .. } => ("cancelled", None, true),
            };
            if meta.resume {
                // Retain checkpoints for the resubmission of a cancelled
                // request; drop them once a terminal answer was produced.
                let book = sub.resume.take_book().filter(|_| cancelled);
                s.retain_book(s.book_key(meta), book);
            }
            let subopt = if outcome == "completed" {
                let opt = sub.run_native_at(&qa);
                let so = (stats.reused_cost + rr.run.total_cost) / opt;
                s.metrics.observe_subopt(so);
                Some(so)
            } else {
                None
            };
            s.ledger.settle(&meta.reservation, rr.run.total_cost);
            finish(
                s,
                id,
                QueryResult {
                    outcome: outcome.into(),
                    total_cost: rr.run.total_cost,
                    reused_cost: stats.reused_cost,
                    final_plan,
                    subopt,
                    events: rr.events.len(),
                    error: None,
                },
            );
        }
        Err(e) => {
            s.ledger.settle(&meta.reservation, 0.0);
            finish(s, id, fail_result(&e));
        }
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

/// Record a request's terminal state: registry phase (forgetting the
/// oldest terminal request past [`TERMINAL_KEPT`]), outcome counter,
/// latency, pending count. Every accepted request passes through here
/// exactly once.
fn finish(s: &Arc<Shared>, id: u64, result: QueryResult) {
    match result.outcome.as_str() {
        "completed" => &s.metrics.completed,
        "degraded" => &s.metrics.degraded,
        "budget-exhausted" => &s.metrics.budget_exhausted,
        "cancelled" => &s.metrics.cancelled,
        _ => &s.metrics.failed,
    }
    .fetch_add(1, Ordering::Relaxed);
    let mut registry = lock(&s.registry);
    if let Some(r) = registry.reqs.get_mut(&id) {
        s.metrics
            .observe_latency(r.submitted.elapsed().as_secs_f64() * 1e3);
        r.phase = ReqPhase::Done(result);
        registry.finished.push_back(id);
        if registry.finished.len() > TERMINAL_KEPT {
            if let Some(oldest) = registry.finished.pop_front() {
                registry.reqs.remove(&oldest);
            }
        }
    }
    drop(registry);
    s.pending.fetch_sub(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_forgets_the_oldest_terminal_requests_only() {
        let server = PbServer::start(ServerConfig {
            queue_cap: 64,
            ..ServerConfig::default()
        })
        .unwrap();
        let s = &server.shared;
        let submit = || loop {
            let req = Request::Submit {
                tenant: "t".into(),
                workload: "EQ_1D".into(),
                fractions: vec![0.5],
                optimized: false,
                resume: false,
                deadline_ms: None,
            };
            match handle_request(s, req) {
                Response::Accepted { id, .. } => return id,
                Response::Rejected { .. } => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("{other:?}"),
            }
        };
        let mut accepted = Vec::new();
        for _ in 0..TERMINAL_KEPT + 50 {
            accepted.push(submit());
            // In flight first: it only falls until the next submission.
            let in_flight = s.pending.load(Ordering::SeqCst);
            let held = lock(&s.registry).reqs.len();
            assert!(
                held <= TERMINAL_KEPT + in_flight,
                "{held} held, {in_flight} in flight"
            );
        }
        while s.pending.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(lock(&s.registry).reqs.len(), TERMINAL_KEPT);
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
        let b = &s.loaded["EQ_1D"].bouquet;
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
            let cfg = RobustConfig {
                resume: true,
                cancel: Some(token.clone()),
                ..RobustConfig::default()
            };
            b.run(&mut sub, &cfg).unwrap();
            token.cancel();
            let rr = b.run(&mut sub, &cfg).unwrap();
            assert!(matches!(rr.run.outcome, ExecutionOutcome::Cancelled { .. }));
            let book = sub.resume.take_book().filter(|book| !book.is_empty());
            s.retain_book(("t".into(), "EQ_1D".into(), vec![f.to_bits()]), book);
            let retained = lock(&s.books).bytes();
            assert!(retained <= cap, "{retained} B retained under a {cap} B cap");
        }
        assert!(
            lock(&s.books).evictions() > 0,
            "the cap never evicted a book"
        );

        let status = |id| loop {
            match handle_request(s, Request::Status { id }) {
                Response::Status {
                    phase: ReqPhase::Done(r),
                    ..
                } => return r,
                Response::Status { .. } => std::thread::sleep(Duration::from_millis(1)),
                other => panic!("{other:?}"),
            }
        };
        // Cost units a resume request reuses; tenant "u" has no book, so
        // its requests reuse only within their own run.
        let reused = |tenant: &str, f: f64| {
            let req = Request::Submit {
                tenant: tenant.into(),
                workload: "EQ_1D".into(),
                fractions: vec![f],
                optimized: false,
                resume: true,
                deadline_ms: None,
            };
            match handle_request(s, req) {
                Response::Accepted { id, .. } => status(id).reused_cost,
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
