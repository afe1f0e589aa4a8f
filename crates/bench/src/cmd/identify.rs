//! Identification benches: `speedup`, `identify-cache`, `identify-sampled`.

use std::time::Duration;

use pb_bouquet::CacheOutcome;
use pb_cost::Parallelism;
use pb_optimizer::SampledBuildConfig;

use super::{gate, merge_json, workload, CmdResult};
use crate::flags::Args;
use crate::regress::{cache_bench, identify_bench, sampled_bench, PhaseReport};

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

/// The sampled build's parameters as `identify-sampled` takes them.
pub fn sampled_config(args: &Args) -> SampledBuildConfig {
    SampledBuildConfig {
        seed: args.get("--seed"),
        epsilon: args.get("--epsilon"),
        delta: args.get("--delta"),
        initial_samples: args.get("--initial"),
        max_rounds: args.get("--rounds"),
    }
}

/// (ε,δ)-sampled identification vs the exhaustive sweep; unless
/// `--no-verify`, the realized violation mass must stay within ε and the
/// realized MSO inflation within 1+ε.
pub fn identify_sampled(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let scfg = sampled_config(args);
    let verify = !args.switch("--no-verify");
    let (n, eps) = (w.ess.num_points(), scfg.epsilon);
    println!(
        "sampled identification of {} ({n} grid points, {} dims; ε={eps}, δ={})",
        w.name,
        w.d(),
        scfg.delta
    );
    let r = sampled_bench(&w, &scfg, verify)?;

    let (ex, sa) = (&r.exact_phases, &r.sampled_phases);
    println!(
        "  exhaustive: {:>9.1?} ({n} optimizer calls; diagram {:.1?}, matrix {:.1?}, contours {:.1?})",
        dur(ex.total_s),
        dur(ex.diagram_s),
        dur(ex.cost_matrix_s),
        dur(ex.contours_s)
    );
    println!(
        "  sampled phases: diagram {:.1?}, matrix {:.1?}, contours {:.1?}",
        dur(sa.diagram_s),
        dur(sa.cost_matrix_s),
        dur(sa.contours_s)
    );
    println!(
        "  sampled:    {:>9.1?} ({} optimizer calls, {} rounds, pool {}, converged: {}{})",
        dur(sa.total_s),
        r.stats.optimizer_calls,
        r.stats.rounds,
        r.stats.pool_size,
        r.converged,
        if r.stats.exhaustive_fallback {
            "; exhaustive fallback"
        } else {
            ""
        }
    );
    println!("  identification speedup: {:.1}x", r.speedup_sampled);

    let mut failures = Vec::new();
    if let (Some(mass), Some(inflation)) = (r.violation_mass, r.mso_inflation) {
        if !r.converged {
            failures.push("refinement did not converge within the round cap".to_string());
        }
        println!(
            "  sampled-PIC violation mass: {mass:.4} ({:.0}/{n} points beyond 1+ε) — budget ε = {eps}",
            mass * n as f64
        );
        println!(
            "  realized MSO: exact {:.3}, sampled {:.3} (inflation {inflation:.3}; bound 1+ε = {:.3})",
            r.mso_exact.unwrap_or(f64::NAN),
            r.mso_sampled.unwrap_or(f64::NAN),
            1.0 + eps
        );
        if mass > eps {
            failures.push(format!("violation mass {mass:.4} exceeds ε {eps}"));
        }
        if inflation > 1.0 + eps {
            failures.push(format!(
                "MSO inflation {inflation:.3} exceeds 1+ε {:.3}",
                1.0 + eps
            ));
        }
    }
    merge_json(args, "sampled", &r)?;
    gate(failures)
}
