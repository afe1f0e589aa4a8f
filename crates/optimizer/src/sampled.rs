//! Sampled plan-diagram construction with probabilistic optimality bounds.
//!
//! The exhaustive diagram build invokes the DP optimizer at every ESS grid
//! point — the dominant cost of bouquet identification. Following the
//! *probably approximately optimal* line of work (Trummer & Koch), this
//! module replaces the sweep with deterministic seeded sampling plus
//! refinement against the plans found so far:
//!
//! 1. **Seed**: optimize at `n₀` uniformly sampled grid points; the distinct
//!    winners (compiled to [`CostProgram`]s) form the plan *pool*.
//! 2. **Refine**: in rounds, draw `m` fresh uniform points; at each, compare
//!    the pool's cheapest plan against the true optimum (one DP call). A
//!    point where the pool is more than `(1+ε)` off is a *violation*; its
//!    true winner joins the pool. A violation-free round terminates.
//! 3. **Prune + re-validate**: the final sweep costs every surviving plan's
//!    distinct sub-plans at all `n` points, and a 3D+ diagram spreads its
//!    wins over dozens of marginally-distinct plans — so a greedy
//!    `(1+ε)`-cover over the probed points (the anorexic-reduction insight
//!    of Section 4.1, applied at diagram level) shrinks the pool to a handful of survivors, and fresh rounds
//!    (same `ε`/`m` math) certify the *pruned* set. If no clean round fits
//!    in the remaining round budget, the full pool — whose certificate
//!    already holds — is used instead.
//! 4. **Assemble**: evaluate the surviving plans, compiled into one program,
//!    over the full grid (no DP) and take the per-point argmin.
//!
//! **Confidence contract.** Suppose the assembled diagram's violation mass —
//! the fraction of grid points whose assembled optimal cost exceeds `(1+ε)`
//! times the true optimum — is greater than `ε`. A round of `m` independent
//! uniform probes misses all violations with probability at most
//! `(1−ε)^m ≤ e^(−εm)`, so with `m = ⌈ln(R/δ)/ε⌉` each round's miss
//! probability is at most `δ/R`, and a union bound over the at-most-`R`
//! rounds (refinement and validation combined) gives: **with probability
//! ≥ 1−δ, a converged build's violation mass is ≤ ε** — i.e. at least a
//! `1−ε` fraction of the grid is within `(1+ε)` of optimal. The terminating
//! round always measures exactly the plan set the diagram ships (the
//! survivor set when validation succeeds, the full pool otherwise), and
//! plan sets only grow within a phase, which only shrinks the violation
//! set. `pbq identify-sampled --verify` measures the realized violation
//! mass and MSO inflation against the exact diagram.
//!
//! Determinism: all randomness flows through [`SplitMix64`] streams derived
//! from the configured seed, DP probes run serially in sample order, and the
//! final sweep reuses the deterministic chunked machinery — the same seed
//! yields a bit-identical diagram at any worker count.

use std::collections::HashMap;

use pb_catalog::Catalog;
use pb_cost::{sample_distinct, CostMatrix, CostModel, CostProgram, Ess, Parallelism, SplitMix64};
use pb_faults::PbError;
use pb_plan::{PhysicalPlan, PlanFingerprint, QuerySpec};

use crate::diagram::{plan_set_matrix, PlanDiagram};
use crate::dp::Optimizer;

/// Tunables of the sampled build. `epsilon`/`delta` parameterize the
/// confidence contract (see the module docs); the sampling knobs default to
/// values that keep DP-call counts far below the grid size on 3D+ ESSes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SampledBuildConfig {
    /// Root seed for every sampling stream.
    pub seed: u64,
    /// Approximation slack: a point is a violation when the pool's best
    /// cost exceeds `(1+epsilon) ×` the true optimum.
    pub epsilon: f64,
    /// Failure probability budget for the whole build.
    pub delta: f64,
    /// Seed-phase sample count (`0` = auto: `max(64, n/32)`).
    pub initial_samples: usize,
    /// Refinement-round cap `R` (`0` = auto: 16).
    pub max_rounds: usize,
}

impl Default for SampledBuildConfig {
    fn default() -> Self {
        SampledBuildConfig {
            seed: 20_140_622, // the paper's publication date
            epsilon: 0.1,
            delta: 0.05,
            initial_samples: 0,
            max_rounds: 0,
        }
    }
}

/// Effort and outcome counters of one sampled build.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SampledBuildStats {
    pub grid_points: usize,
    /// DP invocations actually performed (the cost being amortized; the
    /// exhaustive build performs `grid_points` of them).
    pub optimizer_calls: usize,
    pub initial_samples: usize,
    pub samples_per_round: usize,
    /// Sampling rounds run — refinement plus pruned-set validation,
    /// including each phase's final violation-free round.
    pub rounds: usize,
    /// Plans discovered across all probes (the assembled diagram may keep
    /// fewer — pool plans that win nowhere on the grid are dropped).
    pub pool_size: usize,
    /// A refinement round completed without violations within the round cap.
    pub converged: bool,
    /// The sampling budget met or exceeded the grid size, so the build ran
    /// the exact exhaustive path instead (small grids).
    pub exhaustive_fallback: bool,
}

/// A sampled diagram plus the byproducts callers would otherwise recompute:
/// the kept-plan cost matrix over the full grid (bit-identical to
/// [`PlanDiagram::cost_matrix_with`] on the sampled diagram, since both
/// evaluate the same compiled programs) and the build stats.
#[derive(Debug, Clone)]
pub struct SampledDiagram {
    pub diagram: PlanDiagram,
    pub costs: CostMatrix,
    pub stats: SampledBuildStats,
}

impl PlanDiagram {
    /// Build a diagram by seeded sampling + refinement instead of the
    /// exhaustive grid sweep. See the module docs for the (ε, δ) contract.
    /// Small grids (where the sampling budget would meet the grid size)
    /// transparently run the exact build.
    pub fn build_sampled(
        catalog: &Catalog,
        query: &QuerySpec,
        model: &CostModel,
        ess: &Ess,
        cfg: &SampledBuildConfig,
        par: Parallelism,
    ) -> Result<SampledDiagram, PbError> {
        if !(cfg.epsilon > 0.0 && cfg.epsilon.is_finite()) {
            return Err(PbError::InvalidConfig(
                "sampled build: epsilon must be positive and finite".into(),
            ));
        }
        if !(cfg.delta > 0.0 && cfg.delta < 1.0) {
            return Err(PbError::InvalidConfig(
                "sampled build: delta must lie in (0, 1)".into(),
            ));
        }
        let n = ess.num_points();
        let max_rounds = if cfg.max_rounds == 0 {
            16
        } else {
            cfg.max_rounds
        };
        let n0 = if cfg.initial_samples == 0 {
            (n / 32).max(64)
        } else {
            cfg.initial_samples
        }
        .clamp(1, n);
        let per_round = ((max_rounds as f64 / cfg.delta).ln() / cfg.epsilon).ceil() as usize;

        // When sampling would touch most of the grid anyway the exhaustive
        // build is both cheaper and exact — use it.
        if n0 + max_rounds * per_round >= n {
            let diagram = Self::build_with(catalog, query, model, ess, par);
            let costs = diagram.cost_matrix_with(catalog, query, model, par);
            let pool_size = diagram.plans.len();
            return Ok(SampledDiagram {
                diagram,
                costs,
                stats: SampledBuildStats {
                    grid_points: n,
                    optimizer_calls: n,
                    initial_samples: n0,
                    samples_per_round: per_round,
                    rounds: 0,
                    pool_size,
                    converged: true,
                    exhaustive_fallback: true,
                },
            });
        }

        let opt = Optimizer::new(catalog, query, model);
        // Pool of discovered plans, in discovery order (ties in the final
        // argmin break toward earlier discovery — deterministic).
        let mut pool: Vec<(PhysicalPlan, CostProgram)> = Vec::new();
        let mut pool_ids: HashMap<PlanFingerprint, usize> = HashMap::new();
        let mut stats = SampledBuildStats {
            grid_points: n,
            optimizer_calls: 0,
            initial_samples: n0,
            samples_per_round: per_round,
            rounds: 0,
            pool_size: 0,
            converged: false,
            exhaustive_fallback: false,
        };

        let mut ix = Vec::new();
        let mut q = Vec::new();
        let mut stack = Vec::new();
        // Every linear index a DP probe touched, in probe order.
        let mut probed: Vec<usize> = Vec::new();
        // One DP probe at linear grid index `li`: returns (pool-best cost
        // before this probe, true optimal cost), growing the pool when the
        // true winner is new.
        let mut probe =
            |li: usize, probed: &mut Vec<usize>, stats: &mut SampledBuildStats| -> (f64, f64) {
                probed.push(li);
                ess.unlinear_into(li, &mut ix);
                ess.point_into(&ix, &mut q);
                let mut pool_best = f64::INFINITY;
                for (_, prog) in &pool {
                    let c = prog.eval_with(&q, &mut stack).cost;
                    if c < pool_best {
                        pool_best = c;
                    }
                }
                let best = opt.optimize(&q);
                stats.optimizer_calls += 1;
                let fp = best.plan.fingerprint();
                if let std::collections::hash_map::Entry::Vacant(slot) = pool_ids.entry(fp) {
                    slot.insert(pool.len());
                    let prog = CostProgram::compile(catalog, query, model, &best.plan.root);
                    pool.push((best.plan, prog));
                }
                (pool_best, best.cost)
            };

        for li in sample_distinct(n, n0, cfg.seed) {
            probe(li, &mut probed, &mut stats);
        }

        let mut rng = SplitMix64::new(cfg.seed.wrapping_add(0xC0FF_EE00_5EED_5EED));
        for _ in 0..max_rounds {
            stats.rounds += 1;
            let mut violations = 0usize;
            for _ in 0..per_round {
                let li = rng.next_index(n);
                let (pool_best, opt_cost) = probe(li, &mut probed, &mut stats);
                if pool_best > (1.0 + cfg.epsilon) * opt_cost {
                    violations += 1;
                }
            }
            if violations == 0 {
                stats.converged = true;
                break;
            }
        }

        // Prune: the full-grid sweep below costs every kept plan's distinct
        // sub-plans at all n points, and a 3D+ diagram spreads wins over
        // dozens of marginally-distinct plans — most within ε of each other
        // wherever they win. Greedy (1+ε)-cover over the probed points (in
        // probe order, so the result is deterministic): a plan joins the
        // survivor set only where no already-selected survivor is within
        // `(1+ε)` of the pool optimum.
        // This is the anorexic-reduction insight (Section 4.1) applied at
        // the diagram level. Fresh validation rounds (same ε/m/round math)
        // then certify the pruned set — the exact quantity the assembled
        // diagram ships. A violation re-adds the true winner; if no clean
        // round fits in the remaining round budget, the full pool — whose
        // certificate already holds — is used instead.
        let mut survivors: Vec<usize> = Vec::new();
        if stats.converged && !pool.is_empty() {
            let mut is_survivor = vec![false; pool.len()];
            let mut seen = vec![false; n];
            for &li in &probed {
                if std::mem::replace(&mut seen[li], true) {
                    continue;
                }
                ess.unlinear_into(li, &mut ix);
                ess.point_into(&ix, &mut q);
                let mut pool_best = f64::INFINITY;
                let mut winner = 0usize;
                let mut selected_best = f64::INFINITY;
                for (id, (_, prog)) in pool.iter().enumerate() {
                    let c = prog.eval_with(&q, &mut stack).cost;
                    if c < pool_best {
                        pool_best = c;
                        winner = id;
                    }
                    if is_survivor[id] && c < selected_best {
                        selected_best = c;
                    }
                }
                if selected_best > (1.0 + cfg.epsilon) * pool_best {
                    is_survivor[winner] = true;
                }
            }

            let mut validated = false;
            while stats.rounds < max_rounds && !validated {
                stats.rounds += 1;
                let mut violations = 0usize;
                for _ in 0..per_round {
                    let li = rng.next_index(n);
                    ess.unlinear_into(li, &mut ix);
                    ess.point_into(&ix, &mut q);
                    let mut best = f64::INFINITY;
                    for (id, (_, prog)) in pool.iter().enumerate() {
                        if is_survivor[id] {
                            let c = prog.eval_with(&q, &mut stack).cost;
                            if c < best {
                                best = c;
                            }
                        }
                    }
                    let found = opt.optimize(&q);
                    stats.optimizer_calls += 1;
                    if best > (1.0 + cfg.epsilon) * found.cost {
                        violations += 1;
                        let fp = found.plan.fingerprint();
                        let id = match pool_ids.entry(fp) {
                            std::collections::hash_map::Entry::Occupied(o) => *o.get(),
                            std::collections::hash_map::Entry::Vacant(slot) => {
                                slot.insert(pool.len());
                                let prog =
                                    CostProgram::compile(catalog, query, model, &found.plan.root);
                                pool.push((found.plan, prog));
                                pool.len() - 1
                            }
                        };
                        if id >= is_survivor.len() {
                            is_survivor.resize(pool.len(), false);
                        }
                        is_survivor[id] = true;
                    }
                }
                validated = violations == 0;
            }
            if validated {
                survivors = (0..pool.len()).filter(|&id| is_survivor[id]).collect();
            }
        }
        if survivors.is_empty() {
            survivors = (0..pool.len()).collect();
        }
        stats.pool_size = pool.len();

        // Assemble: the surviving plans, compiled into one program, swept
        // over the full grid (no DP), argmin per point, plans renumbered by
        // first appearance in grid order — the same numbering discipline as
        // the exhaustive build.
        let survivor_prog = CostProgram::compile_set(
            catalog,
            query,
            model,
            survivors.iter().map(|&sid| &pool[sid].0.root),
        );
        let pool_matrix = plan_set_matrix(&survivor_prog, ess, par);
        let winners = pool_matrix.argmin_per_point();
        let mut renumber: HashMap<u32, u32> = HashMap::new();
        let mut plans: Vec<PhysicalPlan> = Vec::new();
        let mut optimal = Vec::with_capacity(n);
        let mut opt_cost = Vec::with_capacity(n);
        for (li, &w) in winners.iter().enumerate() {
            let id = *renumber.entry(w).or_insert_with(|| {
                plans.push(pool[survivors[w as usize]].0.clone());
                (plans.len() - 1) as u32
            });
            optimal.push(id);
            opt_cost.push(pool_matrix[w as usize][li]);
        }
        // Kept-plan cost matrix: rows lifted from the pool sweep in the new
        // plan order (bit-identical to recomputing them, same programs).
        let mut kept_rows = vec![0u32; plans.len()];
        for (&pool_id, &new_id) in &renumber {
            kept_rows[new_id as usize] = pool_id;
        }
        let mut costs = CostMatrix::new(n);
        for &pool_id in &kept_rows {
            costs.push_row(pool_matrix.row(pool_id as usize));
        }

        Ok(SampledDiagram {
            diagram: PlanDiagram {
                ess: ess.clone(),
                plans,
                optimal,
                opt_cost,
            },
            costs,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;
    use pb_cost::EssDim;
    use pb_plan::{CmpOp, QueryBuilder, QuerySpec, SelSpec};

    fn setup_2d(res: usize) -> (pb_catalog::Catalog, QuerySpec, CostModel, Ess) {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "eq2");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        let o = qb.rel("orders");
        qb.select(
            p,
            "p_retailprice",
            CmpOp::Lt,
            1000.0,
            SelSpec::ErrorProne(0),
        );
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(1));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        let ess = Ess::uniform(
            vec![
                EssDim::new("p_retailprice", 1e-4, 1.0),
                EssDim::new("p⋈l", 1e-8, 5e-6),
            ],
            res,
        );
        (cat.clone(), q, CostModel::postgresish(), ess)
    }

    fn cfg_small() -> SampledBuildConfig {
        SampledBuildConfig {
            seed: 7,
            epsilon: 0.1,
            delta: 0.1,
            initial_samples: 48,
            max_rounds: 8,
            // per-round = ceil(ln(8/0.1)/0.1) = 44 ⇒ budget 48+8·44 = 400
        }
    }

    #[test]
    fn sampled_build_is_deterministic_across_workers_and_repeats() {
        let (cat, q, m, ess) = setup_2d(24); // 576 points > 400 budget
        let a = PlanDiagram::build_sampled(&cat, &q, &m, &ess, &cfg_small(), Parallelism::serial())
            .expect("sampled build");
        assert!(!a.stats.exhaustive_fallback, "budget must stay sub-grid");
        for par in [Parallelism::serial(), Parallelism::new(4)] {
            let b = PlanDiagram::build_sampled(&cat, &q, &m, &ess, &cfg_small(), par)
                .expect("sampled build");
            assert_eq!(a.diagram.optimal, b.diagram.optimal);
            assert_eq!(a.stats, b.stats);
            for (x, y) in a.diagram.opt_cost.iter().zip(&b.diagram.opt_cost) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a.costs.as_flat().iter().zip(b.costs.as_flat()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn sampled_costs_upper_bound_exact_pic_and_bound_violation_mass() {
        let (cat, q, m, ess) = setup_2d(24);
        let exact = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
        let cfg = cfg_small();
        let s = PlanDiagram::build_sampled(&cat, &q, &m, &ess, &cfg, Parallelism::serial())
            .expect("sampled build");
        assert!(s.stats.converged, "small TPC-H ESS must converge");
        let n = ess.num_points();
        let mut violations = 0usize;
        for li in 0..n {
            let sc = s.diagram.opt_cost[li];
            let ec = exact.opt_cost[li];
            // The pool is a subset of all plans: never cheaper than optimal.
            assert!(
                sc >= ec * (1.0 - 1e-9),
                "sampled PIC beats exact at {li}: {sc} < {ec}"
            );
            if sc > (1.0 + cfg.epsilon) * ec {
                violations += 1;
            }
        }
        assert!(
            (violations as f64) <= cfg.epsilon * n as f64,
            "violation mass {violations}/{n} exceeds epsilon {}",
            cfg.epsilon
        );
    }

    #[test]
    fn sampled_matrix_matches_recomputed_cost_matrix_bitwise() {
        let (cat, q, m, ess) = setup_2d(24);
        let s = PlanDiagram::build_sampled(&cat, &q, &m, &ess, &cfg_small(), Parallelism::serial())
            .expect("sampled build");
        let recomputed = s
            .diagram
            .cost_matrix_with(&cat, &q, &m, Parallelism::serial());
        assert_eq!(s.costs.len(), recomputed.len());
        for (a, b) in s.costs.as_flat().iter().zip(recomputed.as_flat()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Diagram invariants: every point's winner matches its opt_cost.
        for li in 0..ess.num_points() {
            let pid = s.diagram.optimal[li] as usize;
            assert_eq!(s.costs[pid][li].to_bits(), s.diagram.opt_cost[li].to_bits());
        }
    }

    #[test]
    fn tiny_grids_fall_back_to_the_exact_build() {
        let (cat, q, m, ess) = setup_2d(8); // 64 points, far under any budget
        let s = PlanDiagram::build_sampled(
            &cat,
            &q,
            &m,
            &ess,
            &SampledBuildConfig::default(),
            Parallelism::serial(),
        )
        .expect("sampled build");
        assert!(s.stats.exhaustive_fallback);
        let exact = PlanDiagram::build_with(&cat, &q, &m, &ess, Parallelism::serial());
        assert_eq!(s.diagram.optimal, exact.optimal);
        for (a, b) in s.diagram.opt_cost.iter().zip(&exact.opt_cost) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_sampling_configs_are_rejected() {
        let (cat, q, m, ess) = setup_2d(8);
        for bad in [
            SampledBuildConfig {
                epsilon: 0.0,
                ..Default::default()
            },
            SampledBuildConfig {
                epsilon: f64::NAN,
                ..Default::default()
            },
            SampledBuildConfig {
                delta: 0.0,
                ..Default::default()
            },
            SampledBuildConfig {
                delta: 1.0,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                PlanDiagram::build_sampled(&cat, &q, &m, &ess, &bad, Parallelism::serial()),
                Err(PbError::InvalidConfig(_))
            ));
        }
    }
}
