//! End-to-end server tests over real TCP on localhost.

// Helper fns sit outside `#[test]` bodies, where clippy.toml's
// allow-*-in-tests doesn't reach; tests may use all three regardless.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Duration;

use pb_faults::{FaultKind, FaultPlan, Trigger};
use pb_server::{PbClient, PbServer, QueryResult, ReqPhase, Request, Response, ServerConfig};

fn submit_req(tenant: &str, frac: f64) -> Request {
    Request::Submit {
        tenant: tenant.into(),
        workload: "EQ_1D".into(),
        fractions: vec![frac],
        optimized: false,
        resume: false,
        deadline_ms: None,
    }
}

fn wait_done(c: &mut PbClient, id: u64) -> QueryResult {
    c.wait(id, Duration::from_secs(30)).expect("terminal state")
}

#[test]
fn submit_status_cancel_drain_roundtrip() {
    let server = PbServer::start(ServerConfig::default()).expect("server starts");
    let mut c = PbClient::connect(server.addr()).expect("connect");

    assert_eq!(c.request(&Request::Ping).unwrap(), Response::Pong);

    // Plain submit completes with a bounded sub-optimality.
    let id = c
        .submit(&submit_req("alice", 0.63))
        .unwrap()
        .expect("accepted");
    let r = wait_done(&mut c, id);
    assert_eq!(r.outcome, "completed");
    assert!(r.total_cost > 0.0);
    let subopt = r.subopt.expect("completed runs report subopt");
    assert!(subopt >= 1.0 - 1e-9, "subopt {subopt} below 1");

    // Cancel an already-finished request: phase stays Done.
    match c.request(&Request::Cancel { id }).unwrap() {
        Response::Status {
            phase: ReqPhase::Done(_),
            ..
        } => {}
        other => panic!("unexpected: {other:?}"),
    }

    // Unknown ids and workloads are typed errors, not connection drops.
    assert!(matches!(
        c.request(&Request::Status { id: 999_999 }).unwrap(),
        Response::Error { .. }
    ));
    let bad = Request::Submit {
        tenant: "alice".into(),
        workload: "NOPE".into(),
        fractions: vec![0.5],
        optimized: false,
        resume: false,
        deadline_ms: None,
    };
    assert!(matches!(c.request(&bad).unwrap(), Response::Error { .. }));

    // Drain answers with final stats; every accepted request was served.
    match c.request(&Request::Drain).unwrap() {
        Response::Drained { stats } => {
            assert_eq!(stats.queue_depth, 0);
            assert_eq!(stats.inflight, 0);
            assert_eq!(
                stats.accepted,
                stats.completed
                    + stats.degraded
                    + stats.budget_exhausted
                    + stats.cancelled
                    + stats.failed
            );
        }
        other => panic!("unexpected drain reply: {other:?}"),
    }
    server.wait();
}

#[test]
fn deadline_cancels_and_identical_resubmit_resumes() {
    let server = PbServer::start(ServerConfig::default()).expect("server starts");
    let mut c = PbClient::connect(server.addr()).expect("connect");

    // Deadline 0: the token is tripped before the driver's first grant.
    let cancelled = Request::Submit {
        tenant: "t".into(),
        workload: "EQ_1D".into(),
        fractions: vec![0.8],
        optimized: false,
        resume: true,
        deadline_ms: Some(0),
    };
    let id = c.submit(&cancelled).unwrap().expect("accepted");
    let r = wait_done(&mut c, id);
    assert_eq!(r.outcome, "cancelled");

    // An uninterrupted reference run of the same submission (fresh tenant so
    // budgets do not interact; caps are infinite here anyway).
    let reference = Request::Submit {
        tenant: "ref".into(),
        workload: "EQ_1D".into(),
        fractions: vec![0.8],
        optimized: false,
        resume: false,
        deadline_ms: None,
    };
    let rid = c.submit(&reference).unwrap().expect("accepted");
    let rref = wait_done(&mut c, rid);
    assert_eq!(rref.outcome, "completed");

    // Resubmit the cancelled request without a deadline: same outcome bits,
    // and spent + reused equals the uninterrupted (restart) cost.
    let resub = Request::Submit {
        tenant: "t".into(),
        workload: "EQ_1D".into(),
        fractions: vec![0.8],
        optimized: false,
        resume: true,
        deadline_ms: None,
    };
    let id2 = c.submit(&resub).unwrap().expect("accepted");
    let r2 = wait_done(&mut c, id2);
    assert_eq!(r2.outcome, "completed");
    assert_eq!(r2.final_plan, rref.final_plan, "resume changed the result");
    let restart = rref.total_cost;
    let paid_plus_reused = r2.total_cost + r2.reused_cost;
    assert!(
        (paid_plus_reused - restart).abs() <= 1e-9 * restart,
        "spent+reused {paid_plus_reused} != restart cost {restart}"
    );
    server.stop();
}

#[test]
fn tenant_budgets_degrade_only_their_owner() {
    let cfg = ServerConfig {
        tenant_cap: 1.0, // far below any completion cost
        ..ServerConfig::default()
    };
    let server = PbServer::start(cfg).expect("server starts");
    let mut c = PbClient::connect(server.addr()).expect("connect");

    let id_poor = c
        .submit(&submit_req("poor", 0.6))
        .unwrap()
        .expect("accepted");
    let r_poor = wait_done(&mut c, id_poor);
    assert!(
        r_poor.outcome == "budget-exhausted" || r_poor.outcome == "degraded",
        "capped tenant got {}",
        r_poor.outcome
    );
    assert!(
        r_poor.total_cost <= 1.0 + 1e-9,
        "cap exceeded: {}",
        r_poor.total_cost
    );

    let stats = server.stop();
    for (tenant, spent, cap) in &stats.tenants {
        assert!(
            spent <= &(cap * (1.0 + 1e-9)),
            "{tenant} over cap: {spent} > {cap}"
        );
    }
    // Running out of budget still answers the request.
    let answered =
        stats.completed + stats.degraded + stats.budget_exhausted + stats.cancelled + stats.failed;
    assert_eq!(answered, stats.accepted);
    assert_eq!((stats.queue_depth, stats.inflight), (0, 0));
}

#[test]
fn worker_panic_is_contained_and_worker_replaced() {
    let cfg = ServerConfig {
        workers: 1, // the single worker must be replaced for later requests
        faults: FaultPlan::new(7).with(FaultKind::WorkerPanic, Trigger::Nth(1)),
        ..ServerConfig::default()
    };
    let server = PbServer::start(cfg).expect("server starts");
    let mut c = PbClient::connect(server.addr()).expect("connect");

    let id1 = c.submit(&submit_req("a", 0.5)).unwrap().expect("accepted");
    let r1 = wait_done(&mut c, id1);
    assert_eq!(r1.outcome, "failed");
    assert!(r1.error.unwrap().contains("panicked"));

    // The server survived and a fresh worker serves the next request.
    let id2 = c.submit(&submit_req("a", 0.5)).unwrap().expect("accepted");
    let r2 = wait_done(&mut c, id2);
    assert_eq!(r2.outcome, "completed");

    let stats = server.stop();
    assert_eq!(stats.worker_panics, 1);
    assert!(stats.workers_replaced >= 1);
}

#[test]
fn full_queue_rejects_with_backpressure() {
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 1,
        // Stall dispatch so submissions pile into the bounded queue.
        faults: FaultPlan::new(3).with(FaultKind::QueueStall { ms: 300 }, Trigger::Every(1)),
        ..ServerConfig::default()
    };
    let server = PbServer::start(cfg).expect("server starts");
    let mut c = PbClient::connect(server.addr()).expect("connect");

    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..8 {
        match c.submit(&submit_req("t", 0.4)).unwrap() {
            Ok(id) => accepted.push(id),
            Err(Response::Rejected { retry_after_ms, .. }) => {
                assert!(retry_after_ms > 0);
                rejected += 1;
            }
            Err(other) => panic!("unexpected: {other:?}"),
        }
    }
    assert!(rejected > 0, "bounded queue never shed load");
    for id in accepted {
        let _ = wait_done(&mut c, id); // every accepted request is answered
    }
    let stats = server.stop();
    assert_eq!(stats.rejected as usize, rejected);
    // Shedding load answered every request it accepted, and left nothing
    // queued or in flight.
    let answered =
        stats.completed + stats.degraded + stats.budget_exhausted + stats.cancelled + stats.failed;
    assert_eq!(answered, stats.accepted);
    assert_eq!((stats.queue_depth, stats.inflight), (0, 0));
}

/// More closed-loop clients than workers plus queue slots: a shed
/// submission is retried after its `retry_after_ms`, every request is
/// eventually accepted and completes, and the counters balance.
#[test]
fn concurrent_clients_past_the_queue_cap_all_complete() {
    let cfg = ServerConfig {
        workers: 2,
        queue_cap: 2,
        ..ServerConfig::default()
    };
    let server = PbServer::start(cfg).expect("server starts");
    let addr = server.addr();
    let (clients, requests) = (8usize, 3usize);
    let threads: Vec<_> = (0..clients)
        .map(|ci| {
            std::thread::spawn(move || {
                let mut c = PbClient::connect(addr).expect("connect");
                for r in 0..requests {
                    let frac = 0.05 + 0.9 * ((ci * 31 + r * 7) % 97) as f64 / 96.0;
                    let req = submit_req(&format!("tenant-{ci}"), frac);
                    let id = (0..500)
                        .find_map(|_| match c.submit(&req).unwrap() {
                            Ok(id) => Some(id),
                            Err(Response::Rejected { retry_after_ms, .. }) => {
                                let ms = retry_after_ms.clamp(1, 50);
                                std::thread::sleep(Duration::from_millis(ms));
                                None
                            }
                            Err(other) => panic!("unexpected: {other:?}"),
                        })
                        .expect("accepted within 500 attempts");
                    assert_eq!(wait_done(&mut c, id).outcome, "completed");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let stats = server.stop();
    let total = (clients * requests) as u64;
    assert_eq!((stats.accepted, stats.completed), (total, total));
    assert_eq!((stats.queue_depth, stats.inflight), (0, 0));
}
