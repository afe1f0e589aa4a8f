//! The serving layer: `serve`, `serve-bench`.

use pb_server::{PbServer, ServerConfig};

use super::{merge_json, CmdResult};
use crate::flags::Args;
use crate::table::Table;

/// Boot the multi-tenant server and block until a client drains it;
/// `--smoke` instead runs the scripted protocol round-trip and the seeded
/// server-fault chaos block, and exits.
pub fn serve(args: &Args) -> CmdResult {
    if args.switch("--smoke") {
        print!("{}", crate::serve::smoke()?);
        println!("serve smoke OK");
        return Ok(());
    }
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        addr: args.opt("--addr").unwrap_or(defaults.addr),
        workloads: args
            .opt::<String>("--workloads")
            .map(|w| w.split(',').map(|s| s.trim().to_string()).collect())
            .unwrap_or(defaults.workloads),
        workers: args.opt("--workers").unwrap_or(defaults.workers),
        queue_cap: args.opt("--queue-cap").unwrap_or(defaults.queue_cap),
        tenant_cap: args.opt("--tenant-cap").unwrap_or(defaults.tenant_cap),
        default_deadline_ms: args.opt("--deadline-ms").or(defaults.default_deadline_ms),
        ..defaults
    };
    let server = PbServer::start(cfg).map_err(|e| format!("cannot start: {e}"))?;
    println!("pb-server listening on {}", server.addr());
    println!("(newline-delimited JSON; send \"Drain\" to shut down gracefully)");
    let stats = server.wait();
    println!(
        "drained: {} accepted, {} completed, {} degraded, {} budget-exhausted, \
         {} cancelled, {} failed, {} rejected",
        stats.accepted,
        stats.completed,
        stats.degraded,
        stats.budget_exhausted,
        stats.cancelled,
        stats.failed,
        stats.rejected
    );
    Ok(())
}

/// Concurrent-client sweep: the bounded admission queue sheds load while
/// tail latency stays bounded; `--json` merges the `serve` section.
pub fn serve_bench(args: &Args) -> CmdResult {
    let clients = args.list("--clients");
    let requests: usize = args.get("--requests");
    println!("serving sweep: {clients:?} concurrent clients x {requests} requests each");
    let report = crate::serve::sweep(&clients, requests)?;
    let mut t = Table::new(vec![
        "clients",
        "accepted",
        "rejected",
        "qps",
        "p50 ms",
        "p99 ms",
        "max subopt",
    ]);
    for row in &report.sweep {
        t.row(vec![
            row.clients.to_string(),
            row.accepted.to_string(),
            row.rejected.to_string(),
            format!("{:.0}", row.qps),
            format!("{:.2}", row.p50_ms),
            format!("{:.2}", row.p99_ms),
            format!("{:.2}", row.max_subopt),
        ]);
    }
    print!("{}", t.render());
    merge_json(args, "serve", &report)
}
