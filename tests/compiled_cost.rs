//! The compiled costing pipeline must be an *exact* replacement for the
//! recursive tree walk:
//!
//! 1. `CostProgram::eval` equals `Coster::plan_cost` bit-for-bit, for
//!    randomly generated plan trees (every operator, both join orders) at
//!    random off-grid ESS locations.
//! 2. A program compiled from a whole POSP plan set shares sub-plans and
//!    still emits, for every plan, the cost its own program computes —
//!    one location at a time and a block of locations at a time.

use std::sync::OnceLock;

use proptest::prelude::*;

use plan_bouquet::bouquet::Workload;
use plan_bouquet::catalog::tpch;
use plan_bouquet::cost::{CostModel, CostProgram, Coster, Ess, EssDim, Parallelism};
use plan_bouquet::optimizer::PlanDiagram;
use plan_bouquet::plan::{CmpOp, PlanNode, QueryBuilder, SelSpec};
use plan_bouquet::workloads;

/// The three-relation TPC-H workload used for random-plan generation:
/// part ⋈ lineitem ⋈ orders with an error-prone selection on part.
fn tpch_2d() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| {
        let cat = tpch::catalog(1.0);
        let mut qb = QueryBuilder::new(&cat, "CC_H_2D");
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
            20,
        );
        Workload::new("CC_H_2D", cat.clone(), q, ess, CostModel::postgresish())
    })
}

/// A scan of `part` (relation 0): all three access paths are exercised.
fn part_scan(kind: u8) -> PlanNode {
    match kind % 3 {
        0 => PlanNode::SeqScan { rel: 0 },
        1 => PlanNode::IndexScan { rel: 0, sel_idx: 0 },
        _ => {
            let cat = &tpch_2d().catalog;
            PlanNode::FullIndexScan {
                rel: 0,
                column: cat.table("part").unwrap().columns[0].id,
            }
        }
    }
}

/// A join of `left` (covering `left_rels`) with base relation `rel` on join
/// predicate `edge`, drawn from all five join operators with both operand
/// orders for the symmetric ones.
fn join(kind: u8, left: PlanNode, rel: usize, edge: usize, sorted: bool) -> PlanNode {
    let right = PlanNode::SeqScan { rel };
    match kind % 6 {
        0 => PlanNode::HashJoin {
            build: Box::new(left),
            probe: Box::new(right),
            edges: vec![edge],
        },
        1 => PlanNode::HashJoin {
            build: Box::new(right),
            probe: Box::new(left),
            edges: vec![edge],
        },
        2 => PlanNode::SortMergeJoin {
            left: Box::new(left),
            right: Box::new(right),
            edges: vec![edge],
            sort_left: sorted,
            sort_right: !sorted,
        },
        3 => PlanNode::BlockNLJoin {
            outer: Box::new(left),
            inner: Box::new(right),
            edges: vec![edge],
        },
        4 => PlanNode::IndexNLJoin {
            outer: Box::new(left),
            inner_rel: rel,
            edges: vec![edge],
        },
        _ => PlanNode::AntiJoin {
            left: Box::new(left),
            right: Box::new(right),
            edges: vec![edge],
        },
    }
}

/// Assemble a full random plan over part(0) ⋈ lineitem(1) ⋈ orders(2).
/// `order` flips the join order; `wrap` optionally roots the tree with a
/// spill directive or a hash aggregate.
fn random_plan(scan: u8, j1: u8, j2: u8, order: bool, sorted: bool, wrap: u8) -> PlanNode {
    let base = part_scan(scan);
    // Edge 0 is p⋈l, edge 1 is l⋈o.
    let joined = if order {
        join(j2, join(j1, base, 1, 0, sorted), 2, 1, sorted)
    } else {
        // Start from lineitem ⋈ orders, then bring in part.
        let lo = join(j1, PlanNode::SeqScan { rel: 1 }, 2, 1, sorted);
        join(j2, lo, 0, 0, sorted)
    };
    match wrap % 3 {
        0 => joined,
        1 => PlanNode::Spill {
            input: Box::new(joined),
        },
        _ => PlanNode::HashAggregate {
            input: Box::new(joined),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compiled program evaluation is bit-for-bit identical to the
    /// recursive tree walk — total cost AND the full NodeCost triple —
    /// for random plan shapes at random ESS locations.
    #[test]
    fn compiled_program_matches_tree_walk(
        scan in 0u8..3,
        j1 in 0u8..6,
        j2 in 0u8..6,
        order in any::<bool>(),
        sorted in any::<bool>(),
        wrap in 0u8..3,
        f in [0.0f64..=1.0, 0.0f64..=1.0],
    ) {
        let w = tpch_2d();
        let plan = random_plan(scan, j1, j2, order, sorted, wrap);
        let q = w.ess.point_at_fractions(&f);

        let coster = Coster::new(&w.catalog, &w.query, &w.model);
        let walked = coster.cost(&plan, &q);

        let prog = CostProgram::compile(&w.catalog, &w.query, &w.model, &plan);
        let compiled = prog.eval(&q);

        prop_assert_eq!(
            compiled.cost.to_bits(),
            walked.cost.to_bits(),
            "cost diverged: compiled {} vs walked {} for {:?}",
            compiled.cost,
            walked.cost,
            plan
        );
        prop_assert_eq!(compiled.rows.to_bits(), walked.rows.to_bits());
        prop_assert_eq!(
            compiled.cost.to_bits(),
            coster.plan_cost(&plan, &q).to_bits()
        );
    }
}

/// One program compiled from every POSP plan of `3D_H_Q5` emits, per plan,
/// exactly the cost its own single-plan program and the tree walk compute —
/// while evaluating each shared scan and lower join once.
#[test]
fn plan_set_program_matches_per_plan_costs_on_3d_h_q5() {
    let w = workloads::by_name("3D_H_Q5").unwrap();
    let d = PlanDiagram::build_with(&w.catalog, &w.query, &w.model, &w.ess, Parallelism::auto());
    let roots = || d.plans.iter().map(|p| &p.root);
    let set = CostProgram::compile_set(&w.catalog, &w.query, &w.model, roots());
    assert_eq!(set.num_roots(), d.plan_count());
    let nodes: usize = roots().map(PlanNode::size).sum();
    assert!(
        set.len() * 3 < nodes * 2,
        "{} ops for {nodes} plan nodes: sub-plans are not shared",
        set.len()
    );

    let coster = Coster::new(&w.catalog, &w.query, &w.model);
    let singles: Vec<CostProgram> = roots()
        .map(|r| CostProgram::compile(&w.catalog, &w.query, &w.model, r))
        .collect();
    let (mut vals, mut single_vals) = (Vec::new(), Vec::new());
    let mut costs = vec![0.0; d.plan_count()];
    for li in (0..w.ess.num_points()).step_by(37) {
        let q = w.ess.point(&w.ess.unlinear(li));
        set.eval_set_with(&q, &mut vals, |i, cost| costs[i] = cost);
        for (i, cost) in costs.iter().enumerate() {
            let single = singles[i].eval_with(&q, &mut single_vals).cost;
            assert_eq!(cost.to_bits(), single.to_bits(), "plan {i} at point {li}");
            let walked = coster.plan_cost(&d.plans[i].root, &q);
            assert_eq!(cost.to_bits(), walked.to_bits(), "plan {i} at point {li}");
        }
    }

    // By block, over runs of consecutive grid points: whatever the block
    // width is, these lengths leave single lanes, whole blocks and ragged
    // tails. Every cell is emitted once and equals the single-point
    // evaluation and the tree walk bit for bit.
    let (points, dims) = (w.ess.points_flat(), w.d());
    for (start, len) in [
        (0, 1),
        (5, 7),
        (13, 8),
        (400, 9),
        (777, 31),
        (1000, 64),
        (7867, 133),
    ] {
        let run = &points[start * dims..(start + len) * dims];
        let mut cells = vec![f64::NAN; d.plan_count() * len];
        set.eval_set_points(run, dims, |i, j, cost| {
            assert!(
                cells[i * len + j].is_nan(),
                "plan {i} point {j} emitted twice"
            );
            cells[i * len + j] = cost;
        });
        for (j, q) in run.chunks(dims).enumerate() {
            set.eval_set_with(q, &mut vals, |i, cost| costs[i] = cost);
            for (i, cost) in costs.iter().enumerate() {
                let cell = cells[i * len + j];
                assert_eq!(cell.to_bits(), cost.to_bits(), "plan {i} at {start}+{j}");
                let walked = coster.plan_cost(&d.plans[i].root, q);
                assert_eq!(cell.to_bits(), walked.to_bits(), "plan {i} at {start}+{j}");
            }
        }
    }
}
