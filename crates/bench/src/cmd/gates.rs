//! The pass/fail gate: `chaos`. (The exact gate over the paper's exhibits
//! is `repro --check`.)

use super::CmdResult;
use crate::flags::Args;

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
