//! Serving-layer exercises for `pb-server`: the smoke round-trip and the
//! concurrent-client sweep.
//!
//! Everything here boots real servers on `127.0.0.1:0` and talks to them
//! over TCP — no test doubles — so the numbers in `BENCH_serve.json`
//! measure the same path a deployment would.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pb_faults::{FaultKind, FaultPlan, Trigger};
use pb_server::{PbClient, PbServer, QueryResult, Request, Response, ServerConfig, ServerStats};
use serde::Serialize;

fn submit_req(tenant: &str, frac: f64, resume: bool, deadline_ms: Option<u64>) -> Request {
    Request::Submit {
        tenant: tenant.into(),
        workload: "EQ_1D".into(),
        fractions: vec![frac],
        optimized: false,
        resume,
        deadline_ms,
    }
}

/// Submit with bounded retry on backpressure; returns the id and how many
/// rejections were absorbed along the way.
fn submit_with_retry(c: &mut PbClient, req: &Request) -> Result<(u64, u64), String> {
    let mut rejects = 0u64;
    for _ in 0..500 {
        match c.submit(req).map_err(|e| e.to_string())? {
            Ok(id) => return Ok((id, rejects)),
            Err(Response::Rejected { retry_after_ms, .. }) => {
                rejects += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 50)));
            }
            Err(other) => return Err(format!("unexpected submit reply: {other:?}")),
        }
    }
    Err("submission never accepted after 500 attempts".into())
}

fn wait_done(c: &mut PbClient, id: u64) -> Result<QueryResult, String> {
    c.wait(id, Duration::from_secs(60))
        .map_err(|e| e.to_string())
}

/// Every-accepted-request-answered accounting identity.
pub(crate) fn check_accounting(stats: &ServerStats) -> Result<(), String> {
    let answered =
        stats.completed + stats.degraded + stats.budget_exhausted + stats.cancelled + stats.failed;
    if answered != stats.accepted {
        return Err(format!(
            "accepted {} but answered {answered}",
            stats.accepted
        ));
    }
    if stats.queue_depth != 0 || stats.inflight != 0 {
        return Err(format!(
            "drain left queue_depth={} inflight={}",
            stats.queue_depth, stats.inflight
        ));
    }
    for (tenant, spent, cap) in &stats.tenants {
        if *cap >= 0.0 && *spent > cap * (1.0 + 1e-9) {
            return Err(format!("tenant {tenant} over cap: {spent} > {cap}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Smoke round-trip (CI)
// ---------------------------------------------------------------------------

/// Boot a server and drive the full protocol round-trip: ping,
/// submit/status, deadline-cancel + resumed resubmission, tenant budget
/// isolation, worker-panic containment, backpressure shedding, disconnect
/// survival, graceful drain. Returns a human-readable summary; any broken
/// invariant is an `Err`.
pub fn smoke() -> Result<String, String> {
    let mut out = String::new();

    // --- clean server: lifecycle + cancel/resume identity -----------------
    let server = PbServer::start(ServerConfig::default()).map_err(|e| format!("start: {e}"))?;
    let mut c = PbClient::connect(server.addr()).map_err(|e| e.to_string())?;
    if c.request(&Request::Ping).map_err(|e| e.to_string())? != Response::Pong {
        return Err("ping did not pong".into());
    }

    let (id, _) = submit_with_retry(&mut c, &submit_req("alice", 0.63, false, None))?;
    let r = wait_done(&mut c, id)?;
    if r.outcome != "completed" {
        return Err(format!("plain submit ended {}", r.outcome));
    }
    let _ = writeln!(
        out,
        "submit/status: completed, cost {:.0}, subopt {:.2}",
        r.total_cost,
        r.subopt.unwrap_or(f64::NAN)
    );

    // Deadline 0 cancels before the first grant; identical resubmission
    // resumes and lands on the uninterrupted result with
    // spent + reused == restart cost.
    let (cid, _) = submit_with_retry(&mut c, &submit_req("t", 0.8, true, Some(0)))?;
    let rc = wait_done(&mut c, cid)?;
    if rc.outcome != "cancelled" {
        return Err(format!("deadline-0 submit ended {}", rc.outcome));
    }
    let (refid, _) = submit_with_retry(&mut c, &submit_req("ref", 0.8, false, None))?;
    let rref = wait_done(&mut c, refid)?;
    let (rid, _) = submit_with_retry(&mut c, &submit_req("t", 0.8, true, None))?;
    let rres = wait_done(&mut c, rid)?;
    if rres.outcome != "completed" || rres.final_plan != rref.final_plan {
        return Err(format!(
            "resumed resubmit diverged: {} plan {:?} vs reference plan {:?}",
            rres.outcome, rres.final_plan, rref.final_plan
        ));
    }
    let paid = rres.total_cost + rres.reused_cost;
    if (paid - rref.total_cost).abs() > 1e-9 * rref.total_cost {
        return Err(format!(
            "resume cost identity broken: spent+reused {paid} != restart {}",
            rref.total_cost
        ));
    }
    let _ = writeln!(
        out,
        "cancel/resubmit: resumed, reused {:.0} of {:.0} restart units",
        rres.reused_cost, rref.total_cost
    );
    match c.request(&Request::Drain).map_err(|e| e.to_string())? {
        Response::Drained { stats } => check_accounting(&stats)?,
        other => return Err(format!("unexpected drain reply: {other:?}")),
    }
    server.wait();

    // --- capped tenants: budget exhaustion degrades only its owner --------
    let server = PbServer::start(ServerConfig {
        tenant_cap: 1.0,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start capped: {e}"))?;
    let mut c = PbClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let (pid, _) = submit_with_retry(&mut c, &submit_req("poor", 0.6, false, None))?;
    let rp = wait_done(&mut c, pid)?;
    if rp.outcome != "budget-exhausted" && rp.outcome != "degraded" {
        return Err(format!("capped tenant got {}", rp.outcome));
    }
    if rp.total_cost > 1.0 + 1e-9 {
        return Err(format!("capped run overspent: {}", rp.total_cost));
    }
    let stats = server.stop();
    check_accounting(&stats)?;
    let _ = writeln!(out, "tenant caps: capped run landed on {}", rp.outcome);

    // --- seeded server-fault chaos block ----------------------------------
    let faults = FaultPlan::new(11)
        .with(FaultKind::WorkerPanic, Trigger::Nth(2))
        .with(FaultKind::SlowClient { ms: 10 }, Trigger::Every(5))
        .with(FaultKind::QueueStall { ms: 10 }, Trigger::Every(4))
        .with(FaultKind::ClientDisconnect, Trigger::Nth(9));
    let server = PbServer::start(ServerConfig {
        workers: 2,
        queue_cap: 4,
        faults,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start faulted: {e}"))?;
    let mut panics = 0u64;
    let mut disconnects = 0u64;
    let mut completed = 0u64;
    for i in 0..12 {
        let frac = 0.1 + 0.07 * f64::from(i);
        // Reconnect per request: the client-disconnect fault may drop any
        // connection; the server must shrug it off.
        let mut c = PbClient::connect(server.addr()).map_err(|e| e.to_string())?;
        let Ok((id, _)) = submit_with_retry(&mut c, &submit_req("chaos", frac, false, None)) else {
            disconnects += 1;
            continue;
        };
        match wait_done(&mut c, id) {
            Ok(r) if r.outcome == "completed" => completed += 1,
            Ok(r) if r.outcome == "failed" => panics += 1,
            Ok(r) => return Err(format!("chaos request ended {}", r.outcome)),
            Err(_) => disconnects += 1, // dropped mid-poll; answered server-side
        }
    }
    // The server survived everything; a fresh connection still works.
    let mut c = PbClient::connect(server.addr()).map_err(|e| e.to_string())?;
    if c.request(&Request::Ping).map_err(|e| e.to_string())? != Response::Pong {
        return Err("server unresponsive after chaos".into());
    }
    let stats = server.stop();
    check_accounting(&stats)?;
    if stats.worker_panics == 0 {
        return Err("worker-panic fault never fired".into());
    }
    if stats.workers_replaced == 0 {
        return Err("poisoned worker was never replaced".into());
    }
    let _ = writeln!(
        out,
        "chaos block: {completed} completed, {panics} contained panic(s), \
         {disconnects} dropped connection(s), {} worker(s) replaced",
        stats.workers_replaced
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// Concurrent-client sweep (BENCH_serve.json)
// ---------------------------------------------------------------------------

struct Step {
    clients: usize,
    rejects: u64,
    wall_s: f64,
    stats: ServerStats,
}

/// Run `requests` closed-loop requests from each of `n` clients against a
/// fresh server and collect the final stats.
fn run_step(n: usize, requests: usize, cfg: &ServerConfig) -> Result<Step, String> {
    let server = PbServer::start(cfg.clone()).map_err(|e| format!("start: {e}"))?;
    let addr = server.addr();
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for ci in 0..n {
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut c = PbClient::connect(addr).map_err(|e| e.to_string())?;
            let mut rejects = 0u64;
            for r in 0..requests {
                let frac = 0.05 + 0.9 * ((ci * 31 + r * 7) % 97) as f64 / 96.0;
                let req = submit_req(&format!("tenant-{ci}"), frac, false, None);
                let (id, rj) = submit_with_retry(&mut c, &req)?;
                rejects += rj;
                let res = wait_done(&mut c, id)?;
                if res.outcome != "completed" {
                    return Err(format!("sweep request ended {}", res.outcome));
                }
            }
            Ok(rejects)
        }));
    }
    let mut rejects = 0u64;
    for h in handles {
        rejects += h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = server.stop();
    check_accounting(&stats)?;
    Ok(Step {
        clients: n,
        rejects,
        wall_s,
        stats,
    })
}

/// One client count of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    pub clients: usize,
    /// Submitted in total: `clients × requests_per_client`.
    pub requests: usize,
    pub accepted: u64,
    /// Submissions shed with `retry_after_ms` (and retried by the client).
    pub rejected: u64,
    pub completed: u64,
    /// Completed requests per wall-clock second.
    pub qps: f64,
    /// Server-side request latency quantiles.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Worst SubOpt any request of the step ran at.
    pub max_subopt: f64,
    pub wall_s: f64,
}

/// The `serve` section of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    pub workload: &'static str,
    pub workers: usize,
    pub queue_cap: usize,
    pub requests_per_client: usize,
    pub sweep: Vec<SweepRow>,
}

/// The 1→N concurrent-client sweep: a small worker pool behind a small
/// bounded queue, closed-loop clients retrying on rejection. Saturation
/// must surface as *shed load* (rejects rise with the client count) while
/// the bounded queue keeps tail latency flat — never as collapse.
pub fn sweep(clients: &[usize], requests: usize) -> Result<SweepReport, String> {
    let cfg = ServerConfig {
        workers: 2,
        queue_cap: 2,
        ..ServerConfig::default()
    };
    let mut sweep = Vec::new();
    for &n in clients {
        let step = run_step(n, requests, &cfg)?;
        sweep.push(SweepRow {
            clients: step.clients,
            requests: step.clients * requests,
            accepted: step.stats.accepted,
            rejected: step.rejects,
            completed: step.stats.completed,
            qps: step.stats.completed as f64 / step.wall_s.max(1e-9),
            p50_ms: step.stats.p50_ms,
            p99_ms: step.stats.p99_ms,
            max_subopt: step.stats.max_subopt,
            wall_s: step.wall_s,
        });
    }
    Ok(SweepReport {
        workload: "EQ_1D",
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        requests_per_client: requests,
        sweep,
    })
}
