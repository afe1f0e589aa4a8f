//! Scalar operator cost formulas shared by every costing path: the
//! tree-walk [`Coster`], the compiled [`CostProgram`] evaluator and the
//! optimizer's DP, which calls them directly with constants it resolved
//! once per query.
//!
//! All paths funnel through these functions, so they agree *bit-for-bit*
//! by construction: the same floating-point operations are executed in the
//! same order regardless of whether the inputs were resolved through the
//! catalog on the fly (tree walk) or ahead of time (program, DP skeleton).
//! Keep every expression textually identical to what the historical
//! `Coster` methods computed — reordering a multiplication here breaks the
//! byte-identity guarantees of the identification pipeline.
//!
//! [`Coster`]: crate::coster::Coster
//! [`CostProgram`]: crate::program::CostProgram

use crate::coster::NodeCost;
use crate::params::CostParams;

/// Sequential scan: `rows`/`pages`/`width` come from the catalog, `sel` is
/// the combined selectivity of the relation's predicates at the ESS point.
pub fn seq_scan(
    p: &CostParams,
    rows: f64,
    pages: f64,
    width: f64,
    npred: f64,
    sel: f64,
) -> NodeCost {
    let out = rows * sel;
    NodeCost {
        rows: out,
        cost: pages * p.seq_page
            + rows * (p.cpu_tuple + npred * p.cpu_operator)
            + out * p.emit_tuple,
        width,
    }
}

/// Index scan driven by one predicate (`ix_sel`); the remaining predicates
/// combine into `residual`.
#[allow(clippy::too_many_arguments)]
pub fn index_scan(
    p: &CostParams,
    rows: f64,
    width: f64,
    height: f64,
    leaf_pages: f64,
    nsels: f64,
    ix_sel: f64,
    residual: f64,
) -> NodeCost {
    let matches = rows * ix_sel;
    let out = matches * residual;
    NodeCost {
        rows: out,
        cost: height * p.random_page
            + ix_sel * leaf_pages * p.seq_page
            + matches * (p.cpu_index_tuple + p.random_page * p.heap_fetch_factor)
            + matches * (nsels - 1.0).max(0.0) * p.cpu_operator
            + out * p.emit_tuple,
        width,
    }
}

/// Ordered full scan through an index (random heap fetch per row).
pub fn full_index_scan(
    p: &CostParams,
    rows: f64,
    width: f64,
    leaf_pages: f64,
    npred: f64,
    sel: f64,
) -> NodeCost {
    let out = rows * sel;
    NodeCost {
        rows: out,
        cost: leaf_pages * p.seq_page
            + rows
                * (p.cpu_index_tuple
                    + p.random_page * p.heap_fetch_factor
                    + npred * p.cpu_operator)
            + out * p.emit_tuple,
        width,
    }
}

/// Cost of sorting `input` (in-memory quicksort, external merge when the
/// input exceeds work_mem).
pub fn sort_cost(p: &CostParams, input: &NodeCost) -> f64 {
    let n = input.rows.max(2.0);
    let mut cost = n * n.log2() * 2.0 * p.cpu_operator;
    let pages = input.pages(p.page_bytes);
    if pages > p.work_mem_pages {
        let passes = (pages / p.work_mem_pages).log2().max(1.0).ceil();
        cost += 2.0 * pages * p.seq_page * passes;
    }
    cost
}

/// Hybrid hash join; `esel` is the combined selectivity of the join edges.
pub fn hash_join(
    p: &CostParams,
    build: &NodeCost,
    probe: &NodeCost,
    esel: f64,
    nedges: f64,
) -> NodeCost {
    let rows = build.rows * probe.rows * esel;
    let mut cost = build.cost
        + probe.cost
        + build.rows * (p.cpu_tuple + p.hash_build)
        + probe.rows * p.hash_probe
        + rows * (nedges - 1.0).max(0.0) * p.cpu_operator
        + rows * p.emit_tuple;
    // Grace partitioning when the build side exceeds work_mem: both
    // inputs are written out and re-read once.
    let build_pages = build.pages(p.page_bytes);
    if build_pages > p.work_mem_pages {
        cost += 2.0 * (build_pages + probe.pages(p.page_bytes)) * p.seq_page;
    }
    NodeCost {
        rows,
        cost,
        width: build.width + probe.width,
    }
}

/// Sort-merge join; `sort_left`/`sort_right` indicate explicit sorts.
pub fn merge_join(
    p: &CostParams,
    left: &NodeCost,
    right: &NodeCost,
    esel: f64,
    nedges: f64,
    sort_left: bool,
    sort_right: bool,
) -> NodeCost {
    let rows = left.rows * right.rows * esel;
    let mut cost = left.cost + right.cost;
    if sort_left {
        cost += sort_cost(p, left);
    }
    if sort_right {
        cost += sort_cost(p, right);
    }
    cost += (left.rows + right.rows) * 2.0 * p.cpu_operator
        + rows * (nedges - 1.0).max(0.0) * p.cpu_operator
        + rows * p.emit_tuple;
    NodeCost {
        rows,
        cost,
        width: left.width + right.width,
    }
}

/// Index nested-loops join. `inner_rows`/`inner_width` are catalog constants
/// of the inner base relation; `npred` counts its residual predicates plus
/// the non-primary join edges.
#[allow(clippy::too_many_arguments)]
pub fn index_nl_join(
    p: &CostParams,
    outer: &NodeCost,
    inner_rows: f64,
    inner_width: f64,
    primary_sel: f64,
    residual_edges: f64,
    inner_sel: f64,
    npred: f64,
) -> NodeCost {
    let matches = outer.rows * inner_rows * primary_sel;
    let rows = matches * residual_edges * inner_sel;
    let cost = outer.cost
        + outer.rows * p.index_lookup
        + matches * (p.cpu_index_tuple + p.random_page * p.heap_fetch_factor)
        + matches * npred * p.cpu_operator
        + rows * p.emit_tuple;
    NodeCost {
        rows,
        cost,
        width: outer.width + inner_width,
    }
}

/// Block nested-loops join; `nedges_capped` is `edges.len().max(1)`.
pub fn block_nl_join(
    p: &CostParams,
    outer: &NodeCost,
    inner: &NodeCost,
    esel: f64,
    nedges_capped: f64,
) -> NodeCost {
    let rows = outer.rows * inner.rows * esel;
    let inner_pages = inner.pages(p.page_bytes);
    let chunk_rows = (p.work_mem_pages * p.page_bytes / outer.width.max(1.0)).max(1.0);
    let passes = (outer.rows / chunk_rows).ceil().max(1.0);
    let cost = outer.cost
        + inner.cost
        + inner_pages * p.seq_page // materialize
        + passes * inner_pages * p.seq_page // rescans
        + outer.rows * inner.rows * p.cpu_operator * nedges_capped
        + rows * p.emit_tuple;
    NodeCost {
        rows,
        cost,
        width: outer.width + inner.width,
    }
}

/// Hash anti-join; `s` is the first (lookup) edge's selectivity.
pub fn anti_join(p: &CostParams, left: &NodeCost, right: &NodeCost, s: f64) -> NodeCost {
    let survive = (1.0 - (s * right.rows).min(0.99)).max(0.01);
    let rows = left.rows * survive;
    let cost = left.cost
        + right.cost
        + right.rows * (p.cpu_tuple + p.hash_build)
        + left.rows * p.hash_probe
        + rows * p.emit_tuple;
    NodeCost {
        rows,
        cost,
        width: left.width,
    }
}

/// Hash semi-join; `s` is the first (lookup) edge's selectivity. The
/// survivor fraction `min(s · |R|, 0.99)` is the expected-match count capped
/// below saturation — the exact mirror of [`anti_join`]'s complement, so the
/// two operators partition the left input (up to the clamps) and the
/// semi-join axis is monotone *increasing* (PCM-clean, no flip needed).
pub fn semi_join(p: &CostParams, left: &NodeCost, right: &NodeCost, s: f64) -> NodeCost {
    let matched = (s * right.rows).clamp(0.01, 0.99);
    let rows = left.rows * matched;
    let cost = left.cost
        + right.cost
        + right.rows * (p.cpu_tuple + p.hash_build)
        + left.rows * p.hash_probe
        + rows * p.emit_tuple;
    NodeCost {
        rows,
        cost,
        width: left.width,
    }
}

/// Hash aggregation; `ndv_product` and `width` are statistics constants.
pub fn hash_aggregate(p: &CostParams, input: &NodeCost, ndv_product: f64, width: f64) -> NodeCost {
    let groups = ndv_product.min(input.rows).max(1.0);
    NodeCost {
        rows: groups,
        cost: input.cost + input.rows * (p.cpu_tuple + p.hash_build) + groups * p.emit_tuple,
        width,
    }
}

/// Spill directive: execute the input, count and discard its output.
pub fn spill(p: &CostParams, input: &NodeCost) -> NodeCost {
    NodeCost {
        rows: 0.0,
        cost: input.cost + input.rows * p.cpu_tuple,
        width: 0.0,
    }
}
