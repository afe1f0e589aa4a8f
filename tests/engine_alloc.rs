//! Allocation volume of the vectorized engine's intermediates, of one
//! optimizer call, of one identification and one cache hit, and of one
//! optimized-driver run.
//!
//! A `VRel` carries base-table row ids, not copied column values, so what an
//! execution allocates is bounded by its *output rows × relations × 4 B*
//! plus the hash tables it builds — never by rows × columns of the tables
//! it reads. A counting global allocator pins that: an engine that copies
//! column values into its intermediates overshoots both bounds several
//! times over on the same plans.
//!
//! The DP optimizer runs at every grid point of a query, out of a skeleton
//! and a scratch memo it keeps between calls; the same allocator pins that
//! a call requests memory for the plan it returns and for nothing else,
//! that a sweep step which finds the previous step's winner again requests
//! none at all, that a diagram build requests what its sweep does plus two
//! results a step, and that the cost matrix allocates per chunk of grid
//! points, not per point or per evaluation block.
//!
//! Identification costs POSP plans at the contour frontiers and keeps cost
//! rows for the bouquet's plans only; the allocator pins that the whole of
//! it requests less than half of one POSP × grid matrix, and that a cache
//! hit requests a small multiple of the frame it reads, which is also less
//! than half that matrix.
//!
//! The optimized driver decides out of per-bouquet tables and scratch it
//! keeps for the run; the allocator pins that a run allocates a constant
//! number of times plus a constant per *execution* — never per contour it
//! skips, per frontier point it scans or per node of a plan it weighs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use plan_bouquet::bouquet::{
    Bouquet, BouquetCache, BouquetConfig, CacheKey, CacheOutcome, Workload,
};
use plan_bouquet::catalog::tpch;
use plan_bouquet::cost::{CostModel, Ess, EssDim, Parallelism};
use plan_bouquet::engine::{ColumnOverride, Database, Engine, EngineOutcome};
use plan_bouquet::optimizer::{PlanDiagram, Sweep};
use plan_bouquet::plan::{PlanNode, QueryBuilder, SelSpec};
use plan_bouquet::workloads;

thread_local! {
    /// Bytes requested by this thread (const-initialized and without a
    /// destructor, so the allocator may touch it at any time).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    /// Allocator calls (allocations and reallocations) by this thread.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|b| b.set(b.get() + layout.size()));
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown vector may be copied whole: count the new block.
        REQUESTED.with(|b| b.set(b.get() + new_size));
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `plan` to completion on the serial engine; the outcome and the bytes
/// the execution requested from the allocator.
fn measured(engine: &Engine<'_>, plan: &PlanNode) -> (EngineOutcome, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = engine.execute(plan, f64::INFINITY);
    let bytes = REQUESTED.with(Cell::get) - before;
    assert!(out.completed(), "plan must run to completion");
    (out, bytes)
}

/// `db` with every column and index built: a column is generated on its
/// first read, and the measurements count what an execution requests, not
/// its data.
fn built(db: Database) -> Database {
    for t in db.catalog.tables() {
        let td = db.table(t.id);
        for c in 0..t.columns.len() {
            td.column(c);
            td.index(c);
        }
    }
    db
}

fn fixture() -> (Workload, Database) {
    let w = workloads::h_q8a_2d(0.01);
    let db = built(Database::generate(&w.catalog, 42, &[]).expect("generate"));
    (w, db)
}

fn scan(rel: usize) -> Box<PlanNode> {
    Box::new(PlanNode::SeqScan { rel })
}

/// Bytes of one build side per row in the flat rows-by-key layout over a
/// dense key domain: the gathered key, at most two slot starts, one row id.
/// (A sparse domain adds its dictionary, about 30 B per distinct key; this
/// plan's only such side is its 355 filtered parts.)
const BUILD_BYTES_PER_ROW: usize = 8 + 2 * 4 + 4;

#[test]
fn hash_join_chain_allocates_ids_not_columns() {
    let (w, db) = fixture();
    let engine = Engine::new(&db, &w.query, &w.model.p);
    // orders ⋈ (part ⋈ lineitem): three relations, two hash joins.
    let plan = PlanNode::HashJoin {
        build: scan(2),
        probe: Box::new(PlanNode::HashJoin {
            build: scan(0),
            probe: scan(1),
            edges: vec![0],
        }),
        edges: vec![1],
    };
    let (out, bytes) = measured(&engine, &plan);
    // Post-order ops: 0 orders, 1 part, 2 lineitem, 3 inner join, 4 top join.
    let rows: Vec<usize> = out
        .instr()
        .nodes
        .iter()
        .map(|n| n.output_tuples as usize)
        .collect();
    // The root keeps nothing: it counts its matches.
    let rels = [1usize, 1, 1, 2, 0];
    let id_bytes: usize = rows.iter().zip(rels).map(|(r, k)| r * k * 4).sum();
    let build_bytes = (rows[0] + rows[1]) * BUILD_BYTES_PER_ROW;
    // The inner join writes its ids once, at their final size, so the ids
    // count once. Measured 0.76×: its match runs (8 B a matching probe row,
    // grown while it probes), the batch of position pairs it writes the ids
    // through and the exact-size ids, the scans' selection vectors, the
    // dense build side and the sparse one's dictionary. Appending each
    // batch's pairs to growing id vectors measured 0.55× of the same,
    // against twice it as the bound; copying the columns instead takes
    // 11.7×.
    let bound = id_bytes + build_bytes;
    assert!(
        bytes <= bound,
        "join chain requested {bytes} B; ids {id_bytes} B + build sides {build_bytes} B = {bound} B"
    );
}

#[test]
fn an_aborted_kept_join_requests_per_probe_row_not_per_match() {
    // orders ⋈ lineitem, kept as the build side of a root join with part,
    // over order keys taking `ndv` values on both sides, with a budget that
    // runs out inside its probe at the same probe row whatever `ndv` is.
    let cat = tpch::catalog(0.01);
    let mut qb = QueryBuilder::new(&cat, "kept-abort");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    let o = qb.rel("orders");
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(0));
    qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::ErrorProne(1));
    let q = qb.build();
    let model = CostModel::postgresish();
    let inner = PlanNode::HashJoin {
        build: scan(o),
        probe: scan(l),
        edges: vec![1],
    };
    let plan = PlanNode::HashJoin {
        build: Box::new(inner.clone()),
        probe: scan(p),
        edges: vec![0],
    };
    // The abort falls among the matches of this probe row, so both runs
    // commit the same batches of probe rows before it.
    const ROW: usize = 20_000;
    let run = |ndv: u64| {
        let keys = |table: &str, column: &str| ColumnOverride::EffectiveNdv {
            table: table.into(),
            column: column.into(),
            ndv,
        };
        let overrides = [keys("orders", "o_orderkey"), keys("lineitem", "l_orderkey")];
        let db = built(Database::generate(&cat, 42, &overrides).expect("generate"));
        let engine = Engine::new(&db, &q, &model.p);
        let column = |rel: usize, col: u32| db.table(q.relations[rel].table).column(col as usize);
        let (lkeys, okeys) = (
            column(l, q.joins[1].left_col.column),
            column(o, q.joins[1].right_col.column),
        );
        let mut per_key: HashMap<i64, u64> = HashMap::new();
        for &k in okeys {
            *per_key.entry(k).or_insert(0) += 1;
        }
        let matches = |rows: usize| -> u64 {
            lkeys[..rows]
                .iter()
                .map(|k| per_key.get(k).copied().unwrap_or(0))
                .sum()
        };
        // The inner join runs first and its probe is its last phase: that
        // phase ends at the join's own cost and is linear in probe rows and
        // emitted matches.
        let alone = engine.execute(&inner, f64::INFINITY);
        let (probe, emit) = (model.p.hash_probe, model.p.emit_tuple);
        // Post-order ops: orders 0, lineitem 1, the join 2.
        let emitted = alone.instr().nodes[2].output_tuples as f64;
        let start = alone.cost() - (lkeys.len() as f64 * probe + emitted * emit);
        let (before, at) = (matches(ROW - 1), matches(ROW));
        let budget = start + ROW as f64 * probe + (before + at) as f64 / 2.0 * emit;
        let requested = REQUESTED.with(Cell::get);
        let out = engine.execute(&plan, budget);
        let bytes = REQUESTED.with(Cell::get) - requested;
        // Post-order ops: 0 orders, 1 lineitem, 2 inner join, 3 part, 4 root.
        let n = &out.instr().nodes;
        assert!(
            !out.completed() && n[1].complete && !n[2].complete && n[2].output_tuples > before,
            "ndv {ndv}: the budget must run out inside the inner probe's row {ROW}"
        );
        (n[2].output_tuples, bytes)
    };
    let (few, few_bytes) = run(200);
    let (many, many_bytes) = run(10);
    assert!(many >= 10 * few, "{many} vs {few} matches");
    // Only the build side's directory differs: 201 slot starts against 11.
    // A join that wrote each batch's id pairs as it probed would request
    // 8 B a match, hundreds of megabytes here.
    assert!(
        many_bytes <= few_bytes,
        "{many} matches requested {many_bytes} B, {few} requested {few_bytes} B"
    );
}

#[test]
fn predicate_free_scan_feeding_a_join_is_zero_copy() {
    let (w, db) = fixture();
    let engine = Engine::new(&db, &w.query, &w.model.p);
    // lineitem carries no selection: its scan is the dense range.
    assert!(w.query.relations[1].selections.is_empty());
    let plan = PlanNode::HashJoin {
        build: scan(0),
        probe: scan(1),
        edges: vec![0],
    };
    let (out, bytes) = measured(&engine, &plan);
    // Post-order ops: part 0, lineitem 1, the join 2.
    let lineitem_rows = out.instr().nodes[1].output_tuples as usize;
    assert_eq!(lineitem_rows, db.table(w.query.relations[1].table).rows);
    // Less than a single i64 column of the scanned table, let alone all.
    let one_column = lineitem_rows * 8;
    assert!(
        bytes < one_column,
        "scan ⋈ requested {bytes} B, more than one lineitem column ({one_column} B)"
    );
}

#[test]
fn a_root_hash_join_counts_its_matches_instead_of_keeping_them() {
    // part ⋈ lineitem with no selection, over data whose join keys take
    // `ndv` values on both sides: the same inputs, build side and probe
    // side, and 20× the output rows at the smaller `ndv`.
    let cat = tpch::catalog(0.01);
    let mut qb = QueryBuilder::new(&cat, "root-hj");
    let p = qb.rel("part");
    let l = qb.rel("lineitem");
    qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(0));
    let q = qb.build();
    let model = CostModel::postgresish();
    let plan = PlanNode::HashJoin {
        build: scan(0),
        probe: scan(1),
        edges: vec![0],
    };
    let run = |ndv: u64| {
        let keys = |table: &str, column: &str| ColumnOverride::EffectiveNdv {
            table: table.into(),
            column: column.into(),
            ndv,
        };
        let overrides = [keys("part", "p_partkey"), keys("lineitem", "l_partkey")];
        let db = built(Database::generate(&cat, 42, &overrides).expect("generate"));
        let (out, bytes) = measured(&Engine::new(&db, &q, &model.p), &plan);
        // The root join is op 2, after its two scans.
        (out.instr().nodes[2].output_tuples, bytes)
    };
    let (few_rows, few_bytes) = run(200);
    let (many_rows, many_bytes) = run(10);
    assert!(many_rows >= 10 * few_rows, "{many_rows} vs {few_rows} rows");
    // Only the directory differs: 201 slot starts against 11. A probe that
    // listed each batch's (build, probe) pairs before counting them would
    // request 8 B a match, megabytes here.
    assert!(
        many_bytes <= few_bytes,
        "{many_rows} result rows requested {many_bytes} B, {few_rows} requested {few_bytes} B"
    );
}

#[test]
fn warm_optimizer_call_allocates_only_the_winning_plan() {
    let w = workloads::by_name("4D_H_Q8").expect("registry workload");
    assert_eq!(w.query.num_relations(), 8);
    let opt = w.optimizer();
    let q = w.ess.point(&w.ess.terminus());
    let first = opt.optimize(&q); // sizes the scratch memo
    let before = REQUESTED.with(Cell::get);
    let best = opt.optimize(&q);
    let bytes = REQUESTED.with(Cell::get) - before;
    assert_eq!(best.plan.fingerprint(), first.plan.fingerprint());
    // One box per node below the root and one edge list per join. A memo
    // slot per relation subset (2⁸ of them) or an edge list per candidate
    // join would overshoot this several times over.
    let (mut nodes, mut edges) = (0, 0);
    best.plan.root.visit(&mut |n| {
        nodes += 1;
        edges += n.edges().len();
    });
    let tree = nodes * std::mem::size_of::<PlanNode>() + edges * std::mem::size_of::<usize>();
    assert!(
        bytes <= tree,
        "optimize requested {bytes} B for a {nodes}-node plan of {tree} B"
    );
}

/// Serial builds over `2 × 2 × 2 × last` grids: eight scheduler chunks of
/// `last` points whatever `last` is, so two of them differ only in how many
/// steps each chunk takes.
fn eight_chunk_grid(dims: &[EssDim], last: usize) -> Ess {
    Ess::new(dims.to_vec(), vec![2, 2, 2, last])
}

#[test]
fn sweep_step_with_an_unchanged_winner_allocates_nothing() {
    let w = workloads::by_name("4D_H_Q8").expect("registry workload");
    // A sliver in the middle of the space: one plan wins all of it.
    let mut sliver = w.ess.dims.clone();
    for d in &mut sliver {
        d.hi = (d.lo * d.hi).sqrt();
        d.lo = d.hi * (1.0 - 1e-6);
    }
    fn requested(f: impl FnOnce()) -> usize {
        let before = REQUESTED.with(Cell::get);
        f();
        REQUESTED.with(Cell::get) - before
    }
    let serial = Parallelism::serial();

    // The step itself: the first one sizes the cursor's scratch and builds
    // the sliver's one tree, and no later one requests a byte.
    let ess = eight_chunk_grid(&sliver, 16);
    let sweep = Sweep::new(&w.catalog, &w.query, &w.model, &ess);
    let mut cursor = sweep.cursor();
    let mut ix = ess.origin();
    assert!(cursor.step(&ix).0.is_some());
    let stepping = requested(|| {
        for _ in 1..ess.num_points() {
            ess.advance(&mut ix);
            assert!(cursor.step(&ix).0.is_none(), "the sliver has one winner");
        }
    });
    assert_eq!(stepping, 0, "127 steps with an unchanged winner");

    // And a build is its sweep — the axis tables and the rows, both larger
    // when the last axis is longer — plus, per step, its winner's number and
    // cost, once in the chunk's result and once in the diagram. The
    // skeleton, the chunks' cursors and their first trees are the same in
    // both builds. A step that builds its tree requests 776 B more on this
    // query.
    let sweep = |last: usize| {
        let ess = eight_chunk_grid(&sliver, last);
        requested(|| drop(Sweep::new(&w.catalog, &w.query, &w.model, &ess)))
    };
    let build = |last: usize| {
        let ess = eight_chunk_grid(&sliver, last);
        requested(|| {
            let d = PlanDiagram::build_with(&w.catalog, &w.query, &w.model, &ess, serial);
            assert_eq!(d.plan_count(), 1, "the sliver has one winner");
        })
    };
    let (steps, per_step) = (8 * (48 - 16), 2 * (4 + 8));
    let rows = sweep(48) - sweep(16);
    assert!(rows > (48 - 16) * 8, "the longer axis adds rows");
    assert_eq!(
        build(48) - build(16),
        rows + steps * per_step,
        "{steps} more steps, {per_step} B each for results, over {rows} B more of sweep"
    );
}

#[test]
fn cost_matrix_allocates_per_chunk_not_per_point() {
    let w = workloads::by_name("4D_H_Q8").expect("registry workload");
    let d = PlanDiagram::build_with(
        &w.catalog,
        &w.query,
        &w.model,
        &eight_chunk_grid(&w.ess.dims, 16),
        Parallelism::serial(),
    );
    assert!(d.plan_count() > 1);
    // The same plans over grids of 128 and 512 points, eight chunks each.
    let calls = |last: usize| {
        let mut d = d.clone();
        d.ess = eight_chunk_grid(&w.ess.dims, last);
        let before = CALLS.with(Cell::get);
        let m = d.cost_matrix_with(&w.catalog, &w.query, &w.model, Parallelism::serial());
        let calls = CALLS.with(Cell::get) - before;
        assert_eq!(m.as_flat().len(), d.plan_count() * 8 * last);
        calls
    };
    let (short, long) = (calls(16), calls(64));
    assert_eq!(
        short, long,
        "four times the points per chunk took {long} allocator calls instead of {short}"
    );
}

#[test]
fn optimized_run_allocates_per_execution_not_per_decision() {
    let w = workloads::by_name("5D_DS_Q19").expect("registry workload");
    let b = Bouquet::identify(&w, &BouquetConfig::default()).unwrap();
    let ess = &w.ess;
    // The first run compiles the programs and builds the decision tables.
    b.run_optimized(&ess.point(&ess.terminus())).unwrap();
    let mut most_execs = 0;
    for li in (0..ess.num_points()).step_by(211) {
        let qa = ess.point(&ess.unlinear(li));
        let before = CALLS.with(Cell::get);
        let run = b.run_optimized(&qa).unwrap();
        let calls = CALLS.with(Cell::get) - before;
        let execs = run.trace.len();
        most_execs = most_execs.max(execs);
        // Measured 15 + 1.2 × executions: the substrate, the run's scratch
        // vectors and its trace, then per execution what it reports as
        // learned and the trace's growth. The tree-walking driver took 71
        // calls for a run of one execution and 60–80 per execution beyond.
        assert!(
            calls <= 20 + 2 * execs,
            "location {li}: {calls} allocator calls for {execs} executions over {} contours",
            run.contours_crossed()
        );
    }
    assert!(
        most_execs >= 20,
        "sample misses the long runs: {most_execs}"
    );
}

#[test]
fn identification_never_holds_a_posp_by_grid_matrix() {
    let w = workloads::by_name("3D_H_Q5").expect("registry workload");
    let before = REQUESTED.with(Cell::get);
    let (b, _) =
        Bouquet::identify_timed(&w, &BouquetConfig::default(), Parallelism::serial()).unwrap();
    let bytes = REQUESTED.with(Cell::get) - before;
    let (plans, kept, points) = (b.diagram.plan_count(), b.costs.len(), w.ess.num_points());
    assert!(kept * 4 < plans, "{kept} of {plans} plans kept");
    // Everything identification requests against one POSP × grid buffer of
    // f64s, which alone would be twice the bound. Measured 2.64 MB of the
    // 2.66 MB allowed: the diagram build 1.77 MB (0.33 MB of it the sweep —
    // 0.17 MB of rows and the buffer they are filled through — and most of
    // the rest the trees of the 2,781 steps whose winner changed), the slab
    // 0.18 MB (the POSP program), the bouquet's rows 0.68 MB (six rows, the
    // grid's coordinates, their program).
    let matrix = plans * points * 8;
    assert!(
        bytes < matrix / 2,
        "identification requested {bytes} B; a {plans} × {points} matrix alone is {matrix} B"
    );
}

#[test]
fn cache_hit_requests_a_small_multiple_of_the_frame() {
    let w = workloads::by_name("3D_H_Q5").expect("registry workload");
    let dir = std::env::temp_dir().join(format!("pb_alloc_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = BouquetCache::new(&dir).unwrap();
    let cfg = BouquetConfig::default();
    cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    let before = REQUESTED.with(Cell::get);
    let (b, outcome) = cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    let bytes = REQUESTED.with(Cell::get) - before;
    assert!(matches!(outcome, CacheOutcome::Hit { .. }), "{outcome:?}");
    let frame = std::fs::metadata(cache.entry_path(&CacheKey::derive(&w, &cfg).unwrap()))
        .unwrap()
        .len() as usize;
    let _ = std::fs::remove_dir_all(&dir);
    // Measured 3.16×: the frame read whole (1×), the arrays decoded out of
    // it (0.95×), and what does not shrink with the rows — 83 parsed plans
    // of the header, the key's canonical JSON, the workload's clone (1.2×).
    assert!(
        2 * bytes < 7 * frame,
        "a hit on a {frame} B frame requested {bytes} B"
    );
    // And, like identification, well under one POSP × grid matrix.
    let matrix = b.diagram.plan_count() * w.ess.num_points() * 8;
    assert!(
        bytes < matrix / 2,
        "a hit requested {bytes} B; the matrix is {matrix} B"
    );
}
