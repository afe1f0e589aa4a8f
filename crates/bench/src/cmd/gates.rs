//! The pass/fail gates: `bench-check`, `chaos`.

use serde::{Serialize, Value};

use super::CmdResult;
use crate::flags::Args;
use crate::regress::bench_report;
use crate::report::{compare, to_pretty};

/// Leaves of a report: what one `bench-check` compares.
fn leaves(v: &Value) -> usize {
    match v {
        Value::Obj(pairs) => pairs.iter().map(|(_, child)| leaves(child)).sum(),
        Value::Arr(items) => items.iter().map(leaves).sum(),
        _ => 1,
    }
}

/// Re-run the gated benchmark sections and diff them against the committed
/// baseline file (`--update` rewrites it instead); fails unless every leaf
/// is equal. The baseline is read before anything runs.
pub fn bench_check(args: &Args) -> CmdResult {
    let baseline_path: String = args.get("--baseline");
    let run = || {
        println!("bench-check: re-running the resume, serve and hostile sections...");
        bench_report().map(|report| report.to_value())
    };
    if args.switch("--update") {
        std::fs::write(&baseline_path, to_pretty(&run()?))
            .map_err(|e| format!("cannot write baseline {baseline_path}: {e}"))?;
        println!("bench-check: wrote baseline {baseline_path}");
        return Ok(());
    }

    let text = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "cannot read baseline {baseline_path}: {e}\n\
             (generate one with `pbq bench-check --update`)"
        )
    })?;
    let baseline: Value = serde_json::from_str(&text)
        .map_err(|e| format!("baseline {baseline_path} is not valid JSON: {e}"))?;
    let current = run()?;
    // A whole section absent from the baseline usually means the baseline
    // predates a newer benchmark suite — diagnose it per section (instead
    // of drowning it in per-key diffs) and fail.
    if let (Value::Obj(cur), Value::Obj(base)) = (&current, &baseline) {
        let missing: Vec<String> = cur
            .iter()
            .filter(|(k, _)| serde::find(base, k).is_none())
            .map(|(k, _)| format!("baseline {baseline_path} has no `{k}` section"))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "{}\nit predates this benchmark suite; regenerate it with `pbq bench-check --update`",
                missing.join("\n")
            ));
        }
    }
    let diffs = compare(&baseline, &current);
    if diffs.is_empty() {
        println!(
            "bench-check OK: {} leaves equal to {baseline_path}",
            leaves(&current)
        );
        Ok(())
    } else {
        Err(format!(
            "against {baseline_path}:\n  {}",
            diffs.join("\n  ")
        ))
    }
}

/// Seeded fault-injection campaign over the robust bouquet driver and the
/// engine execution paths; fails on any robustness-invariant breach (panic,
/// double charging, nondeterminism, or an empty fault plan not being
/// bit-identical to the plain drivers).
pub fn chaos(args: &Args) -> CmdResult {
    let report = crate::chaos::run_campaign(args.get("--seed"));
    print!("{}", report.table);
    if !report.passed() {
        return Err(format!("{} invariant breach(es)", report.breaches.len()));
    }
    println!(
        "chaos campaign passed: {} scenarios, 0 breaches",
        report.scenarios
    );
    Ok(())
}
