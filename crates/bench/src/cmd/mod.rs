//! The `pbq` subcommands by family. Each takes its parsed [`Args`] and
//! returns `Err` with the reason `pbq` should exit 1.

pub mod gates;
pub mod inspect;
pub mod serve;

use pb_bouquet::Workload;

use crate::flags::Args;

pub type CmdResult = Result<(), String>;

/// The workload named by the first positional.
fn workload(args: &Args) -> Result<Workload, String> {
    let name = &args.pos[0];
    pb_workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}; run `pbq list`"))
}
