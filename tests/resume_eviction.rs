//! Byte-capped checkpoint books: eviction never breaks resume ≡ restart.
//!
//! The LRU byte caps on the simulator's and the engine's checkpoint books
//! bound a long-lived process's checkpoint memory — the serving
//! layer keys a book per (tenant, workload, location) and cannot let any of
//! them grow without bound. The contract under eviction is strict:
//!
//! * a capped book only ever loses **credit** — the observable outcome of
//!   every execution stays bit-identical to both the uncapped book and a
//!   cold restart;
//! * `spent + reused` still equals the restart-semantics cost exactly
//!   (`RobustRun::audit_resumed` against a restart);
//! * the cap is actually enforced (evictions observed, retained bytes /
//!   entries bounded), and it bounds what the snapshots really hold: a
//!   counting allocator sees evicting every checkpoint free no more than
//!   the cap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use plan_bouquet::bouquet::{
    Bouquet, BouquetConfig, EngineSubstrate, ExecutionSubstrate, RobustConfig, SimulatorSubstrate,
};
use plan_bouquet::engine::{Database, Engine, ResumeBook};
use plan_bouquet::faults::FaultInjector;
use plan_bouquet::plan::PlanNode;
use plan_bouquet::workloads;

/// A tiny cap: enough bytes for a couple of checkpoints, far fewer than a
/// full discovery run captures.
const TINY_CAP: usize = 256;

thread_local! {
    /// Heap bytes this thread holds: allocated minus freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|b| b.set(b.get() + layout.size() as isize));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|b| b.set(b.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|b| b.set(b.get() + new_size as isize - layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

// ---------------------------------------------------------------------------
// Engine book (ResumeBook)
// ---------------------------------------------------------------------------

fn engine_fixture() -> &'static (plan_bouquet::bouquet::Workload, Database) {
    static F: OnceLock<(plan_bouquet::bouquet::Workload, Database)> = OnceLock::new();
    F.get_or_init(|| {
        let w = workloads::h_q8a_2d(0.01);
        let db = Database::generate(&w.catalog, 42, &[]).expect("generate");
        (w, db)
    })
}

/// The contour-style ascending budget ladder, twice over (the second pass
/// replays against whatever checkpoints survived the cap).
const LADDER: [f64; 6] = [0.1, 0.4, 0.75, 1.0, 0.4, 1.0];

/// (part ⋈ lineitem) ⋈ orders, the inner join kept as the build side.
fn chain() -> PlanNode {
    PlanNode::HashJoin {
        build: Box::new(PlanNode::HashJoin {
            build: Box::new(PlanNode::SeqScan { rel: 0 }),
            probe: Box::new(PlanNode::SeqScan { rel: 1 }),
            edges: vec![0],
        }),
        probe: Box::new(PlanNode::SeqScan { rel: 2 }),
        edges: vec![1],
    }
}

#[test]
fn engine_ladder_with_tiny_cap_is_bit_identical_and_evicts() {
    let (w, db) = engine_fixture();
    let engine = Engine::new(db, &w.query, &w.model.p);
    let plan = chain();
    let full = engine.execute(&plan, f64::INFINITY).cost();

    let mut unbounded = ResumeBook::new();
    let mut capped = ResumeBook::with_byte_cap(TINY_CAP);
    let mut reused_unbounded = 0.0;
    let mut reused_capped = 0.0;
    for frac in LADDER {
        let budget = full * frac;
        let plain = engine.execute(&plan, budget);
        let (r_unb, c_unb) = engine.execute_resumable(&plan, budget, &mut unbounded);
        let (r_cap, c_cap) = engine.execute_resumable(&plan, budget, &mut capped);
        assert_eq!(
            plain, r_unb,
            "@{frac}: unbounded book diverged from restart"
        );
        assert_eq!(plain, r_cap, "@{frac}: capped book diverged from restart");
        assert_eq!(
            plain.cost().to_bits(),
            r_cap.cost().to_bits(),
            "@{frac}: cost bits diverged under eviction"
        );
        reused_unbounded += c_unb;
        reused_capped += c_cap;
    }
    assert!(
        reused_unbounded > 0.0,
        "unbounded book never engaged — the ladder is not exercising resume"
    );
    assert!(
        reused_capped <= reused_unbounded,
        "eviction cannot create credit: capped {reused_capped} > unbounded {reused_unbounded}"
    );
    assert!(
        capped.evictions() > 0,
        "tiny cap never evicted ({} checkpoints, {} bytes retained)",
        capped.len(),
        capped.bytes()
    );
    assert!(
        capped.bytes() <= TINY_CAP,
        "cap not enforced: {} bytes retained under a {TINY_CAP}-byte cap",
        capped.bytes()
    );
    assert_eq!(unbounded.evictions(), 0, "unbounded book must never evict");
}

#[test]
fn a_capped_book_holds_no_more_than_its_cap() {
    let (w, db) = engine_fixture();
    let engine = Engine::new(db, &w.query, &w.model.p);
    let plan = chain();
    let full = engine.execute(&plan, f64::INFINITY).cost();
    let mut retained = 0;
    for cap in [
        1usize << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        96 << 10,
        128 << 10,
        256 << 10,
    ] {
        let mut book = ResumeBook::with_byte_cap(cap);
        for frac in LADDER {
            engine.execute_resumable(&plan, full * frac, &mut book);
        }
        let counted = book.bytes();
        assert!(counted <= cap, "cap {cap}: {counted} B counted");
        retained += book.len();
        // Evicting every checkpoint frees what the snapshots hold — their
        // vectors at capacity, not length — and nothing else: the book's
        // maps keep their tables.
        let live = LIVE.with(Cell::get);
        book.set_byte_cap(1);
        let freed = (live - LIVE.with(Cell::get)) as usize;
        assert!(book.is_empty());
        assert!(
            freed <= counted,
            "a book capped at {cap} B held {freed} B, counting {counted} B"
        );
    }
    assert!(retained > 0, "no cap retained a checkpoint");
}

// ---------------------------------------------------------------------------
// Simulator book through the robust driver
// ---------------------------------------------------------------------------

fn bouquet_1d() -> &'static Bouquet {
    static B: OnceLock<Bouquet> = OnceLock::new();
    B.get_or_init(|| {
        Bouquet::identify(
            &workloads::by_name("EQ_1D").unwrap(),
            &BouquetConfig::default(),
        )
        .expect("identify")
    })
}

#[test]
fn robust_driver_with_tiny_cap_matches_restart_at_every_location() {
    let b = bouquet_1d();
    // One retained entry: every additional checkpoint evicts the previous.
    let sim_cap = 48;

    let mut evictions_seen = 0u64;
    let mut reuse_seen = false;
    for (frac, optimized) in [
        (0.15, false),
        (0.35, true),
        (0.55, false),
        (0.8, true),
        (0.97, false),
    ] {
        let cfg = RobustConfig {
            optimized,
            ..Default::default()
        };
        let qa = b.workload.ess.point_at_fractions(&[frac]);
        let mk = || SimulatorSubstrate::new(b, &qa, FaultInjector::none()).expect("substrate");

        let mut plain_sub = mk();
        let plain = b.run(&mut plain_sub, &cfg).expect("plain");

        let mut unb_sub = mk();
        unb_sub.enable_checkpoint_resume();
        let unbounded = b.run(&mut unb_sub, &cfg).expect("unbounded");

        let mut cap_sub = mk();
        cap_sub.resume.set_byte_cap(sim_cap);
        cap_sub.enable_checkpoint_resume();
        let capped = b.run(&mut cap_sub, &cfg).expect("capped");

        // Decisions, observations and outcome identical to the restart;
        // spent + reused == restart cost, for both books.
        for (label, run, sub) in [
            ("unbounded", &unbounded, &unb_sub),
            ("capped", &capped, &cap_sub),
        ] {
            if let Err(e) = run.audit_resumed(sub.resume_stats().reused_cost, &plain) {
                panic!("@{frac} {label}: {e}");
            }
        }
        // Eviction only sheds credit, never creates it.
        assert!(
            cap_sub.resume_stats().reused_cost <= unb_sub.resume_stats().reused_cost + 1e-9,
            "@{frac}: capped book reused more than the unbounded book"
        );
        reuse_seen |= unb_sub.resume_stats().reused_cost > 0.0;
        evictions_seen += cap_sub
            .resume
            .take_book()
            .map(|book| book.evictions())
            .unwrap_or(0);
    }
    assert!(reuse_seen, "resume never engaged across the location sweep");
    assert!(
        evictions_seen > 0,
        "the tiny cap never evicted across the location sweep"
    );
}

/// A run on `capped` (its cap already set) with resume on against a
/// restart on `plain`: it must match the restart exactly and retain
/// nothing.
fn assert_retains_nothing<S: ExecutionSubstrate>(
    label: &str,
    b: &Bouquet,
    mut plain: S,
    capped: &mut S,
) {
    let cfg = RobustConfig::default();
    let restart = b.run(&mut plain, &cfg).expect("plain");
    capped.enable_checkpoint_resume();
    let run = b.run(capped, &cfg).expect("capped");
    let stats = capped.resume_stats();
    if let Err(e) = run.audit_resumed(stats.reused_cost, &restart) {
        panic!("{label}: {e}");
    }
    assert_eq!(stats.checkpoints, 0, "{label}: checkpoints retained");
    assert_eq!(stats.reused_cost, 0.0, "{label}: credit from an empty book");
}

/// Any nonzero cap is a cap: one smaller than a single checkpoint keeps
/// nothing on either substrate (`0` alone means unbounded), and sheds
/// every checkpoint the run records.
#[test]
fn a_cap_below_one_checkpoint_retains_nothing_on_either_substrate() {
    let b = bouquet_1d();
    let qa = b.workload.ess.point_at_fractions(&[0.97]);
    let (w, db) = engine_fixture();
    let eb = Bouquet::identify(w, &BouquetConfig::default()).expect("identify");
    for cap in [1, 20, 47] {
        let sim = || SimulatorSubstrate::new(b, &qa, FaultInjector::none()).expect("substrate");
        let mut capped = sim();
        capped.resume.set_byte_cap(cap);
        assert_retains_nothing(&format!("simulator, cap {cap} B"), b, sim(), &mut capped);
        let book = capped.resume.take_book().expect("book");
        assert!(
            book.evictions() > 0,
            "simulator, cap {cap} B: nothing recorded"
        );

        let engine = || EngineSubstrate::new(&eb, db, FaultInjector::none());
        let mut capped = engine();
        capped.resume.set_byte_cap(cap);
        assert_retains_nothing(&format!("engine, cap {cap} B"), &eb, engine(), &mut capped);
        let book = capped.resume.take_book().expect("book");
        assert!(
            book.evictions() > 0,
            "engine, cap {cap} B: nothing recorded"
        );
    }
}
