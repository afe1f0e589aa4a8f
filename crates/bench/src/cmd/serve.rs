//! The serving layer: `serve`.

use pb_server::{PbServer, ServerConfig};

use super::CmdResult;
use crate::flags::Args;

/// Boot the multi-tenant server and block until a client drains it.
pub fn serve(args: &Args) -> CmdResult {
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
