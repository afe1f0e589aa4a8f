//! Engine benches: `engine-mt`, `table3`.

use super::{engine_par, gate, merge_json, whole_json, CmdResult};
use crate::experiments::{hostile, table3 as table3_exhibit};
use crate::flags::Args;
use crate::regress::engine_mt_bench;

/// Morsel-driven scaling curve: the engine suite at several worker counts,
/// gated on bit-identical `EngineOutcome`s across counts; `--json` writes
/// the `BENCH_engine_mt.json` artifact.
pub fn engine_mt(args: &Args) -> CmdResult {
    let sf: f64 = args.get("--sf");
    let workers = args.list("--workers");
    let morsel_min: Option<usize> = args.opt("--morsel-min");
    println!(
        "morsel-driven scaling curve (sf {sf}, workers {workers:?}, morsel gate {})",
        morsel_min.map_or_else(
            || format!("{} (default)", pb_cost::PARALLEL_MIN_MORSEL_ROWS),
            |rows| rows.to_string()
        ),
    );
    let r = engine_mt_bench(sf, &workers, morsel_min, args.get("--reps"))?;
    println!(
        "  {} budget-ladder outcome checks per worker count: all bit-identical",
        r.budget_checks_per_worker_count
    );
    for p in &r.curve {
        println!(
            "  {:>3} workers  {:>9.2}ms  speedup {:>5.2}x",
            p.workers,
            p.wall_s * 1e3,
            p.speedup_vs_1
        );
    }
    whole_json(args, &r)
}

/// Table 3 through the canonical drivers over the engine substrate — plain
/// and with checkpoint/resume — then the hostile typed-dimension workloads
/// through the same ladder; `--json` merges the `table3` and
/// `table3_hostile` sections. Fails if the basic driver's contour / plan /
/// budget sequence differs between engine and simulator at the measured
/// location, or a hostile workload breaks its MSO bound.
pub fn table3(args: &Args) -> CmdResult {
    let (sf, par) = (args.get("--sf"), engine_par(args));
    let (text, report) = table3_exhibit::run_at_with(sf, par);
    print!("{text}");
    let (htext, hreports) = hostile::run_at_with(sf, par);
    println!();
    print!("{htext}");
    merge_json(args, "table3", &report)?;
    merge_json(args, "table3_hostile", &hreports)?;

    let mut failures = Vec::new();
    if !report.crosscheck_ok {
        failures.push(
            "basic-driver contour/plan/budget sequence diverges between the engine \
             substrate and the simulator at the measured qa"
                .to_string(),
        );
    }
    for r in &hreports {
        if !r.crosscheck_ok {
            failures.push(format!(
                "hostile workload {} diverges between engine and simulator",
                r.workload
            ));
        }
        if !r.mso_within_bound {
            failures.push(format!(
                "hostile workload {} violates its MSO bound",
                r.workload
            ));
        }
    }
    gate(failures)
}
