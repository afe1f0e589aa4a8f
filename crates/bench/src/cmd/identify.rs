//! Identification benches: `speedup`, `identify-cache`.

use std::time::Duration;

use pb_bouquet::CacheOutcome;
use pb_cost::Parallelism;

use super::{gate, merge_json, workload, CmdResult};
use crate::flags::Args;
use crate::regress::{cache_bench, identify_bench, PhaseReport};

fn dur(secs: f64) -> Duration {
    Duration::from_secs_f64(secs)
}

/// Serial vs parallel identification; fails unless the two artefacts are
/// byte-identical.
pub fn speedup(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let par = args
        .opt("--workers")
        .map_or_else(Parallelism::auto, Parallelism::new);
    println!(
        "identification speedup on {} ({} grid points, {} dims)",
        w.name,
        w.ess.num_points(),
        w.d()
    );
    let r = identify_bench(&w, par)?;

    println!(
        "  {:<12} {:>12} {:>12} {:>10}",
        "phase",
        "1 worker",
        format!("{} workers", r.parallel.workers),
        "speedup"
    );
    let row = |phase: &str, pick: fn(&PhaseReport) -> f64| {
        let (seq, par) = (pick(&r.serial), pick(&r.parallel));
        println!(
            "  {phase:<12} {:>12.1?} {:>12.1?} {:>9.2}x",
            dur(seq),
            dur(par),
            seq / par.max(1e-12)
        );
    };
    row("diagram", |p| p.diagram_s);
    row("cost_matrix", |p| p.cost_matrix_s);
    row("contours", |p| p.contours_s);
    row("total", |p| p.total_s);
    println!(
        "  artefacts byte-identical: {}",
        if r.byte_identical {
            "yes"
        } else {
            "NO — DETERMINISM BUG"
        }
    );
    merge_json(args, "identify", &r)?;

    if r.byte_identical {
        Ok(())
    } else {
        Err("serial and parallel artefacts differ".to_string())
    }
}

/// Content-addressed cached identification, with the outcome kind and byte
/// identity as optional gates.
pub fn identify_cache(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let dir: String = args.get("--dir");
    let r = cache_bench(&w, &dir, args.switch("--verify"))?;

    println!(
        "cached identification of {} ({} grid points) in {dir}",
        w.name, r.grid_points
    );
    let ms = |s: Option<f64>| s.unwrap_or(f64::NAN) * 1e3;
    match &r.served {
        CacheOutcome::Hit { .. } => println!(
            "  HIT: loaded in {:.3}ms (cold build took {:.3}ms) — {:.0}x",
            ms(r.warm_load_s),
            ms(r.cold_build_s),
            r.speedup_warm_vs_cold.unwrap_or(f64::NAN)
        ),
        CacheOutcome::Miss { build_s } => {
            println!("  MISS: identified and stored in {:.3}ms", build_s * 1e3)
        }
        CacheOutcome::Refreshed {
            build_s,
            incremental,
        } => println!(
            "  REFRESH: statistics drift; cold rebuild replacing a stale sibling in {:.3}ms \
             ({}/{} points changed winner)",
            build_s * 1e3,
            incremental.diagram.points_changed,
            incremental.diagram.points_total,
        ),
    }
    println!(
        "  entry: {} bytes, cost rows for {} of {} POSP plans",
        r.entry_bytes, r.cost_rows, r.posp_plans
    );
    if let Some(identical) = r.verified_identical {
        println!(
            "  verification vs from-scratch identification: {}",
            if identical {
                "byte-identical"
            } else {
                "MISMATCH"
            }
        );
    }
    merge_json(args, &format!("cache_{}", r.outcome), &r)?;

    let mut failures = Vec::new();
    if let Some(expect) = args.opt::<String>("--expect") {
        if expect != r.outcome {
            failures.push(format!("expected outcome {expect}, got {}", r.outcome));
        }
    }
    if r.verified_identical == Some(false) {
        failures.push("cached bouquet differs from a fresh build".to_string());
    }
    gate(failures)
}
