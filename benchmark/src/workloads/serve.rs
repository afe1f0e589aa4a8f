//! `serve`: clients of `pb-server` wait for a request round trip.
//!
//! An in-process server booted from a warm cache directory, `nproc`
//! closed-loop client threads with one connection each (closed loop because
//! each caller waits for its reply before sending the next). Per-request
//! driver work is microseconds, so the wire, JSON, the queue and status
//! polling are the whole latency; nothing here moves when `optimizer` or
//! `engine` change.

use std::time::{Duration, Instant};

use crate::api::{
    by_name, BouquetCache, BouquetConfig, Parallelism, PbClient, PbServer, QueryResult, ReqPhase,
    Request, Response, ServerConfig, ServerStats,
};
use crate::gen::{Mix, MixRequest};
use crate::harness::{
    repeat_setup, tracer_for, Checks, Deadline, Output, Pass, RunOpts, Series, TempDir,
};
use crate::metrics::Metric;
use crate::stats;
use crate::trace::Tracer;

const WORKLOADS: [&str; 3] = ["EQ_1D", "2D_H_Q8A", "3D_DS_Q15"];
/// `PbClient::wait` sleeps this long between polls; the traced loop, which
/// issues each poll itself, does the same.
const POLL_SLEEP: Duration = Duration::from_millis(2);

struct State {
    _dir: TempDir,
    server: PbServer,
    clients: Vec<PbClient>,
    /// ESS dimensions and MSO bound of each loaded workload.
    dims: Vec<usize>,
    bounds: Vec<f64>,
    boot_cold_s: f64,
    boot_warm_s: f64,
}

fn config(dir: &TempDir) -> ServerConfig {
    ServerConfig {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        workers: 2,
        queue_cap: 16,
        cache_dir: Some(dir.0.clone()),
        ..ServerConfig::default()
    }
}

fn setup(o: &RunOpts, tr: &mut Tracer) -> Result<State, String> {
    let dir = TempDir::new("serve-cache")?;
    // A first boot fills the cache directory; the server under test then
    // boots from it, as a deployed one does on every start but the first.
    let (cold, boot_cold_s) = tr.timed("probe.server.boot_cold", |_| PbServer::start(config(&dir)));
    cold.map_err(|e| format!("cold boot: {e}"))?.stop();
    let (warm, boot_warm_s) = tr.timed("probe.server.boot_warm", |_| PbServer::start(config(&dir)));
    let server = warm.map_err(|e| format!("warm boot: {e}"))?;

    let cache = BouquetCache::new(&dir.0).map_err(|e| e.to_string())?;
    let (mut dims, mut bounds) = (Vec::new(), Vec::new());
    for name in WORKLOADS {
        let w = by_name(name).ok_or_else(|| format!("registry lacks {name}"))?;
        let (b, _) = cache
            .get_or_identify(&w, &BouquetConfig::default(), Parallelism::auto())
            .map_err(|e| format!("{name}: {e}"))?;
        dims.push(w.d());
        bounds.push(b.mso_bound());
    }
    let clients = (0..o.nproc)
        .map(|_| PbClient::connect(server.addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(State {
        _dir: dir,
        server,
        clients,
        dims,
        bounds,
        boot_cold_s,
        boot_warm_s,
    })
}

fn teardown(st: State) {
    drop(st.clients);
    st.server.stop();
}

fn submit_of(client: usize, r: &MixRequest) -> Request {
    Request::Submit {
        tenant: format!("tenant-{client}"),
        workload: WORKLOADS[r.workload].into(),
        fractions: r.fractions.clone(),
        optimized: r.optimized,
        resume: false,
        deadline_ms: None,
    }
}

/// `PbClient::submit` + `PbClient::wait`, with one span per wire request.
fn traced_round_trip(
    c: &mut PbClient,
    req: &Request,
    tr: &mut Tracer,
    s: &mut Series,
) -> Result<QueryResult, String> {
    let (reply, dt) = tr.timed("server.submit", |_| c.request(req));
    s.push("submit_rtt", dt);
    let id = match reply.map_err(|e| e.to_string())? {
        Response::Accepted { id, .. } => id,
        other => return Err(format!("not accepted: {other:?}")),
    };
    let give_up = Instant::now() + Duration::from_secs(60);
    let mut polls = 0.0;
    loop {
        let (reply, dt) = tr.timed("server.status", |_| c.request(&Request::Status { id }));
        s.push("status_rtt", dt);
        polls += 1.0;
        match reply.map_err(|e| e.to_string())? {
            Response::Status {
                phase: ReqPhase::Done(result),
                ..
            } => {
                s.push("polls", polls);
                return Ok(result);
            }
            Response::Status { .. } => {}
            other => return Err(format!("unexpected status reply: {other:?}")),
        }
        if Instant::now() >= give_up {
            return Err(format!("request {id} timed out"));
        }
        let ((), dt) = tr.timed("client.poll_sleep", |_| std::thread::sleep(POLL_SLEEP));
        s.push("poll_sleep", dt);
    }
}

fn plain_round_trip(
    c: &mut PbClient,
    req: &Request,
    s: &mut Series,
) -> Result<QueryResult, String> {
    let t0 = Instant::now();
    let id = match c.submit(req).map_err(|e| e.to_string())? {
        Ok(id) => id,
        Err(other) => return Err(format!("not accepted: {other:?}")),
    };
    let t1 = Instant::now();
    let result = c
        .wait(id, Duration::from_secs(60))
        .map_err(|e| e.to_string())?;
    s.push("submit", (t1 - t0).as_secs_f64());
    s.push("wait", t1.elapsed().as_secs_f64());
    Ok(result)
}

fn client_loop(
    ci: usize,
    c: &mut PbClient,
    st_bounds: &[f64],
    dims: &[usize],
    seed: u64,
    end: Deadline,
    mut tr: Tracer,
) -> (Series, Checks, u64, Tracer) {
    let (mut s, mut ck, mut done) = (Series::default(), Checks::default(), 0u64);
    for r in Mix::new(seed, ci, dims) {
        if end.passed() {
            break;
        }
        let req = submit_of(ci, &r);
        tr.next_request();
        let root = tr.open("serve.request");
        let t0 = Instant::now();
        let result = if tr.enabled() {
            traced_round_trip(c, &req, &mut tr, &mut s)
        } else {
            plain_round_trip(c, &req, &mut s)
        };
        let dt = t0.elapsed().as_secs_f64();
        tr.close(root, &[("workload", r.workload as f64)]);
        s.push("latency", dt);
        let bound = st_bounds[r.workload] * (1.0 + 1e-9);
        let ok = match &result {
            Ok(q) => q.outcome == "completed" && q.subopt.is_some_and(|so| so <= bound),
            Err(_) => false,
        };
        if ck.expect(ok, || {
            format!("client {ci} {}: {result:?}", WORKLOADS[r.workload])
        }) {
            done += 1;
        }
    }
    (s, ck, done, tr)
}

fn measure(st: &mut State, o: &RunOpts, tr: &mut Tracer, ck: &mut Checks, epoch: Instant) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let end = Deadline::after(start, o.window());
    let traced = tr.enabled();
    let (dims, bounds) = (&st.dims, &st.bounds);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = st
            .clients
            .iter_mut()
            .enumerate()
            .map(|(ci, c)| {
                let t = tracer_for(traced, epoch);
                scope.spawn(move || client_loop(ci, c, bounds, dims, o.seed, end, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut completed = 0;
    for (s, c, done, t) in results {
        pass.series.absorb(s);
        ck.merge(c);
        completed += done;
        tr.absorb(t.spans);
    }
    // Closed loop: the window is the one pass.
    pass.phases = vec![(completed, vec![window_s])];
    pass
}

fn named_and_parts(pass: &Pass, traced: bool) -> (Vec<Metric>, Vec<Metric>) {
    let s = &pass.series;
    let named = vec![
        Metric::exact("serve_qps", pass.ops_per_s()),
        Metric::timing("serve_p50_ms", &s.summary("latency"), 1e3),
    ];
    // The two things a client does per request. The traced loop issues the
    // polls itself, so there the wait is the latency less the submit.
    let parts = if traced {
        let submit = s.summary("submit_rtt");
        let wait = (s.median("latency") - submit.median).max(0.0);
        vec![
            Metric::timing("submit", &submit, 1e3),
            Metric::exact("wait", wait * 1e3),
        ]
    } else {
        vec![
            Metric::timing("submit", &s.summary("submit"), 1e3),
            Metric::timing("wait", &s.summary("wait"), 1e3),
        ]
    };
    (named, parts)
}

fn ping_probe(c: &mut PbClient, tr: &mut Tracer, ck: &mut Checks, s: &mut Series) {
    for _ in 0..20 {
        let (reply, dt) = tr.timed("probe.server.ping", |_| c.request(&Request::Ping));
        ck.expect(matches!(reply, Ok(Response::Pong)), || {
            format!("ping: {reply:?}")
        });
        s.push("ping", dt);
    }
}

fn layer_metrics(
    (boot_cold_s, boot_warm_s): (f64, f64),
    traced: &Pass,
    plain_p50_ms: f64,
    stats: &ServerStats,
    drain_s: f64,
) -> Vec<Metric> {
    let s = &traced.series;
    let lat = {
        let mut v = s.get("latency").to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    vec![
        Metric::exact("server.boot_cold_s", boot_cold_s),
        Metric::exact("server.boot_warm_s", boot_warm_s),
        Metric::timing("server.ping_rtt_ms", &s.summary("ping"), 1e3),
        Metric::timing("server.submit_rtt_ms", &s.summary("submit_rtt"), 1e3),
        Metric::timing("server.status_rtt_ms", &s.summary("status_rtt"), 1e3),
        Metric::exact(
            "server.polls_per_request",
            s.sum("polls") / s.get("polls").len() as f64,
        ),
        Metric::exact(
            "server.poll_sleep_share",
            s.sum("poll_sleep") / s.sum("latency"),
        ),
        Metric::exact("server.side_p50_ms", stats.p50_ms),
        Metric::exact("server.side_p99_ms", stats.p99_ms),
        Metric::exact("server.wire_share", 1.0 - stats.p50_ms / plain_p50_ms),
        Metric::exact("server.p90_ms", stats::percentile(&lat, 90.0) * 1e3),
        Metric::exact("server.p99_ms", stats::percentile(&lat, 99.0) * 1e3),
        Metric::exact("server.accepted", stats.accepted as f64),
        Metric::exact("server.rejected", stats.rejected as f64),
        Metric::exact("server.completed", stats.completed as f64),
        Metric::exact("server.max_subopt", stats.max_subopt),
        Metric::exact("server.drain_ms", drain_s * 1e3),
    ]
}

/// `Drain` through a client, then the accounting every accepted request
/// must satisfy. Returns the final stats and how long the drain took.
fn drain(st: State, ck: &mut Checks) -> Result<(ServerStats, f64), String> {
    let mut c = PbClient::connect(st.server.addr()).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let reply = c.request(&Request::Drain).map_err(|e| e.to_string())?;
    let drain_s = t0.elapsed().as_secs_f64();
    let Response::Drained { stats } = reply else {
        return Err(format!("unexpected drain reply: {reply:?}"));
    };
    let answered =
        stats.completed + stats.degraded + stats.budget_exhausted + stats.cancelled + stats.failed;
    ck.expect(stats.accepted == answered, || {
        format!("drain: accepted {} but answered {answered}", stats.accepted)
    });
    ck.expect(stats.accepted == stats.completed, || {
        format!(
            "drain: accepted {} but completed {}",
            stats.accepted, stats.completed
        )
    });
    let bound = st.bounds.iter().copied().fold(0.0, f64::max) * (1.0 + 1e-9);
    ck.expect(stats.max_subopt <= bound, || {
        format!(
            "server.max_subopt {} over the bound {bound}",
            stats.max_subopt
        )
    });
    drop(st.clients);
    st.server.wait();
    Ok((stats, drain_s))
}

pub fn run(o: &RunOpts, ck: &mut Checks) -> Result<Output, String> {
    let epoch = Instant::now();
    let mut tr = tracer_for(o.trace, epoch);
    let (mut st, setup) = repeat_setup(o.setup_budget_s(), || setup(o, &mut tr), teardown)?;

    tr.set_enabled(false);
    let plain = measure(&mut st, o, &mut tr, ck, epoch);
    let (named, parts) = named_and_parts(&plain, false);
    let mut out = Output {
        setup,
        ops_per_s: plain.ops_per_s(),
        named,
        parts,
        layers: Vec::new(),
        traced_sum_ms: None,
        spans: Vec::new(),
    };
    let mut traced = None;
    if o.trace {
        tr.set_enabled(true);
        let mut pass = measure(&mut st, o, &mut tr, ck, epoch);
        ping_probe(&mut st.clients[0], &mut tr, ck, &mut pass.series);
        out.traced_sum_ms = Some(named_and_parts(&pass, true).1.iter().map(|m| m.value).sum());
        traced = Some(pass);
    }
    let boots = (st.boot_cold_s, st.boot_warm_s);
    let (stats, drain_s) = drain(st, ck)?;
    if let Some(pass) = traced {
        out.layers = layer_metrics(boots, &pass, out.named[1].value, &stats, drain_s);
        out.spans = tr.spans;
    }
    Ok(out)
}
