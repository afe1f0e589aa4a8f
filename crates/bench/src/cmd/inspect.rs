//! Looking at a workload and its bouquet: `list`, `show`, `classify`,
//! `diagram`, `optimize`, `identify`, `run`, `sql`, `sensitivity`.

use pb_bouquet::cache::{load_frame, save_frame};
use pb_bouquet::{
    dim_analysis, Bouquet, BouquetConfig, RobustConfig, SimulatorSubstrate, Workload,
};
use pb_cost::uncertainty::{classify as classify_predicates, Uncertainty};
use pb_cost::SelPoint;
use pb_faults::FaultInjector;
use pb_workloads::specs;

use super::{workload, CmdResult};
use crate::flags::Args;

/// Per-axis fractions in `[0,1]` (geometric interpolation between each
/// dimension's bounds) to a location.
fn parse_fractions(w: &Workload, s: &str) -> Result<SelPoint, String> {
    let fr: Vec<f64> = s
        .split(',')
        .map(|t| t.trim().parse().ok().filter(|f| (0.0..=1.0).contains(f)))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("`{s}` is not a comma list of fractions in [0,1]"))?;
    if fr.len() != w.d() {
        return Err(format!("need {} comma-separated fractions", w.d()));
    }
    Ok(w.ess.point_at_fractions(&fr))
}

pub fn list(_: &Args) -> CmdResult {
    println!("benchmark suite (paper Table 2):");
    for s in specs() {
        println!(
            "  {:<11} {:?}({}) dims={} paper C_max/C_min≈{}",
            s.name, s.shape, s.relations, s.dims, s.paper_cost_ratio
        );
    }
    println!("auxiliary: EQ_1D  2D_H_Q8A  3D_H_Q5B  4D_H_Q8B");
    println!("hostile:   HOSTILE_INEQ_2D  HOSTILE_ANTI_2D");
    Ok(())
}

pub fn show(args: &Args) -> CmdResult {
    let w = workload(args)?;
    println!("workload {}  (catalog {})", w.name, w.catalog.name);
    println!("relations:");
    for r in &w.query.relations {
        let t = w.catalog.table_by_id(r.table);
        println!(
            "  {:<20} {:>12} rows, {} selections",
            r.alias,
            t.rows as u64,
            r.selections.len()
        );
    }
    println!("joins:");
    for (i, j) in w.query.joins.iter().enumerate() {
        let tag = match j.selectivity.error_dim() {
            Some(d) => format!("ERROR-PRONE dim {d}"),
            None => "fixed".into(),
        };
        println!(
            "  #{i} {} ⋈ {} [{tag}]",
            w.query.relations[j.left_rel].alias, w.query.relations[j.right_rel].alias
        );
    }
    println!("ESS ({} dims, {} grid points):", w.d(), w.ess.num_points());
    for (d, dim) in w.ess.dims.iter().enumerate() {
        println!(
            "  dim {d}: {:<14} [{:.3e}, {:.3e}] x{}",
            dim.name, dim.lo, dim.hi, w.ess.res[d]
        );
    }
    println!("join graph: {:?}", w.query.join_graph().shape());
    Ok(())
}

pub fn classify(args: &Args) -> CmdResult {
    let w = workload(args)?;
    println!("predicate uncertainty classification (Section 4.1 rules):");
    let classes = classify_predicates(&w.catalog, &w.query);
    for c in &classes {
        println!(
            "  {:<34} {:?}: {}",
            format!("{:?}", c.predicate),
            c.uncertainty,
            c.reason
        );
    }
    let n_high = classes
        .iter()
        .filter(|c| c.uncertainty >= Uncertainty::High)
        .count();
    println!("suggested ESS dimensions (High+): {n_high}");
    Ok(())
}

pub fn diagram(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let d = w.diagram();
    let (cmin, cmax) = d.cost_bounds();
    println!(
        "POSP: {} plans over {} points; C_min {:.0}, C_max {:.0} ({:.0}x)",
        d.plan_count(),
        w.ess.num_points(),
        cmin,
        cmax,
        cmax / cmin
    );
    let mut sizes: Vec<(usize, usize)> = d.region_sizes().into_iter().enumerate().collect();
    sizes.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    for (pid, size) in sizes.iter().take(8) {
        println!("  P{pid:<3} owns {size:>6} points");
    }
    if w.d() == 2 {
        println!("\nplan diagram (selectivities grow up/right):");
        print!("{}", d.render_2d());
    }
    Ok(())
}

pub fn optimize(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let q = parse_fractions(&w, &args.pos[1])?;
    let best = w.optimizer().optimize(&q);
    println!("location {:?}", &q.0);
    println!(
        "optimal cost {:.1}, estimated rows {:.1}",
        best.cost, best.rows
    );
    print!("{}", best.plan.root.explain(&w.query, &w.catalog));
    Ok(())
}

/// Compile the bouquet of `w` and print its contours.
fn identify_and_print(w: &Workload) -> Result<Bouquet, String> {
    let b = Bouquet::identify(w, &BouquetConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "bouquet: {} plans on {} contours (ρ = {}), guarantee MSO ≤ {:.1}",
        b.stats.bouquet_cardinality,
        b.stats.num_contours,
        b.rho(),
        b.mso_bound()
    );
    for c in &b.contours {
        println!(
            "  IC{:<2} budget {:>14.0}  {:>4} frontier pts  plans {:?}",
            c.id,
            c.budget,
            c.points.len(),
            c.plan_set
        );
    }
    Ok(b)
}

pub fn identify(args: &Args) -> CmdResult {
    let b = identify_and_print(&workload(args)?)?;
    if let Some(path) = args.opt::<String>("--save") {
        save_frame(&b, &path).map_err(|e| format!("save {path}: {e}"))?;
        println!("saved to {path}");
    }
    Ok(())
}

/// Discover `qa` with the basic or optimized policy and print the trace.
fn run_and_print(b: &Bouquet, qa: &SelPoint, optimized: bool) -> CmdResult {
    let run = SimulatorSubstrate::new(b, qa, FaultInjector::none())
        .and_then(|mut sub| b.run(&mut sub, &RobustConfig::plain(optimized)))
        .map_err(|e| e.to_string())?
        .run;
    for e in &run.trace {
        let learned = e
            .learned
            .map(|(d, v)| format!("  learned dim{d} -> {v:.3e}"))
            .unwrap_or_default();
        println!(
            "IC{:<2} P{:<3} spent {:>14.1} / {:>14.1} {}{}{}",
            e.contour,
            e.plan,
            e.spent,
            e.budget,
            if e.spilled { "spill " } else { "" },
            if e.completed { "DONE" } else { "" },
            learned
        );
    }
    println!(
        "total {:.1}; SubOpt(∗,qa) = {:.2} (guarantee {:.1})",
        run.total_cost,
        run.suboptimality(b.pic_cost(qa)),
        b.mso_bound()
    );
    Ok(())
}

pub fn run(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let qa = parse_fractions(&w, &args.pos[1])?;
    let cfg = BouquetConfig::default();
    // A frame opens only under its own key: another workload's bouquet, or
    // this one's under drifted statistics, is refused.
    let b = match args.opt::<String>("--load") {
        Some(path) => load_frame(&path, &w, &cfg)
            .map_err(|e| format!("load {path} as the bouquet of {}: {e}", w.name))?,
        None => Bouquet::identify(&w, &cfg).map_err(|e| e.to_string())?,
    };
    run_and_print(&b, &qa, args.switch("--optimized"))
}

pub fn sql(args: &Args) -> CmdResult {
    let cat = pb_catalog::tpch::catalog(1.0);
    let w = pb_workloads::workload_from_sql(&cat, &args.pos[0], "adhoc", 4.0, 24)
        .map_err(|e| format!("parse error: {e}"))?;
    println!(
        "parsed: {} relations, {} error dims",
        w.query.num_relations(),
        w.d()
    );
    let b = identify_and_print(&w)?;
    match args.pos.get(1) {
        Some(loc) => run_and_print(&b, &parse_fractions(&w, loc)?, false),
        None => Ok(()),
    }
}

pub fn sensitivity(args: &Args) -> CmdResult {
    let w = workload(args)?;
    println!("dimension sensitivity (Section 8 low-resolution map):");
    for s in dim_analysis::sensitivities(&w, 3) {
        println!(
            "  dim {} ({:<14} {:<15}) max cost swing {:>10.1}x",
            s.dim,
            s.name,
            s.kind.label(),
            s.max_cost_ratio
        );
    }
    Ok(())
}
