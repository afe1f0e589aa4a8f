//! Compile-time benchmarks: plan-diagram construction (serial vs parallel),
//! contour-band exploration, anorexic reduction, and full bouquet
//! identification — the Section 6.1 cost centres.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pb_bouquet::{band, Bouquet, BouquetConfig};
use pb_cost::{CostProgram, Coster, Parallelism};
use pb_optimizer::{AnorexicReduction, PlanDiagram};
use pb_workloads::by_name;

fn bench_diagram(c: &mut Criterion) {
    let w = by_name("2D_H_Q8A").unwrap();
    let mut g = c.benchmark_group("plan_diagram_2304pts");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| {
            black_box(PlanDiagram::build_with(
                &w.catalog,
                &w.query,
                &w.model,
                &w.ess,
                Parallelism::serial(),
            ))
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| black_box(PlanDiagram::build(&w.catalog, &w.query, &w.model, &w.ess)))
    });
    g.bench_function("contour_band", |b| {
        b.iter(|| black_box(band::explore(&w, 2.0).optimizer_calls))
    });
    g.finish();
}

fn bench_anorexic(c: &mut Criterion) {
    let w = by_name("2D_H_Q8A").unwrap();
    let d = PlanDiagram::build(&w.catalog, &w.query, &w.model, &w.ess);
    let costs = d.cost_matrix(&w.catalog, &w.query, &w.model);
    c.bench_function("anorexic_reduction_full_diagram", |b| {
        b.iter(|| black_box(AnorexicReduction::reduce(&d, &costs, 0.2).plan_count()))
    });
}

/// Compiled-program evaluation vs the recursive tree walk: one POSP plan
/// re-costed at every ESS grid point of the TPC-H 2D workload.
fn bench_cost_paths(c: &mut Criterion) {
    let w = by_name("2D_H_Q8A").unwrap();
    let d = PlanDiagram::build(&w.catalog, &w.query, &w.model, &w.ess);
    let plan = &d.plans[d.optimal[0] as usize].root;
    let coster = Coster::new(&w.catalog, &w.query, &w.model);
    let prog = CostProgram::compile(&w.catalog, &w.query, &w.model, plan);
    let points = w.ess.points_flat();
    let dims = w.ess.d();
    let n = w.ess.num_points();

    let mut g = c.benchmark_group("plan_recost_grid");
    g.bench_function("tree_walk", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for li in 0..n {
                acc += coster.plan_cost(plan, &points[li * dims..(li + 1) * dims]);
            }
            black_box(acc)
        })
    });
    g.bench_function("compiled_program", |b| {
        let mut stack = Vec::new();
        b.iter(|| {
            let mut acc = 0.0;
            for li in 0..n {
                acc += prog
                    .eval_with(&points[li * dims..(li + 1) * dims], &mut stack)
                    .cost;
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_identify(c: &mut Criterion) {
    let mut g = c.benchmark_group("bouquet_identify");
    g.sample_size(10);
    for name in ["EQ_1D", "2D_H_Q8A", "3D_H_Q5"] {
        let w = by_name(name).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    Bouquet::identify(&w, &BouquetConfig::default())
                        .unwrap()
                        .rho(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_diagram,
    bench_anorexic,
    bench_cost_paths,
    bench_identify
);
criterion_main!(benches);
