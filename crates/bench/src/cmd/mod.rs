//! The `pbq` subcommands by family. Each takes its parsed [`Args`] and
//! returns `Err` with the reason `pbq` should exit 1; measuring lives in
//! [`crate::regress`] and [`crate::serve`], these only read flags and print.

pub mod engine;
pub mod gates;
pub mod identify;
pub mod inspect;
pub mod serve;

use pb_bouquet::Workload;
use pb_cost::Parallelism;

use crate::flags::Args;
use crate::report::{merge_json_section, write_json};

pub type CmdResult = Result<(), String>;

/// The workload named by the first positional.
fn workload(args: &Args) -> Result<Workload, String> {
    let name = &args.pos[0];
    pb_workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}; run `pbq list`"))
}

/// Engine workers from the global `--engine-jobs` (default 1: serial).
fn engine_par(args: &Args) -> Parallelism {
    Parallelism::new(args.get("--engine-jobs"))
}

/// Merge `report` into the `--json` file, if one was named.
fn merge_json(args: &Args, key: &str, report: &impl serde::Serialize) -> CmdResult {
    match args.opt::<String>("--json") {
        Some(path) => merge_json_section(&path, key, report),
        None => Ok(()),
    }
}

/// Write `report` as the whole of the `--json` file, if one was named.
fn whole_json(args: &Args, report: &impl serde::Serialize) -> CmdResult {
    match args.opt::<String>("--json") {
        Some(path) => write_json(&path, report),
        None => Ok(()),
    }
}

/// `Err` listing every violated gate, `Ok` when there is none.
fn gate(failures: Vec<String>) -> CmdResult {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n  "))
    }
}
