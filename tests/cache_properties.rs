//! Integration properties of the content-addressed bouquet cache, driven
//! through the public facade: a warm hit must be **byte-identical** to a
//! from-scratch identification for arbitrary (workload, λ, r) combinations
//! across both benchmark families, and damaged or stale entries must be
//! evicted and rebuilt — never trusted.

use proptest::prelude::*;

use plan_bouquet::bouquet::{
    persist, Bouquet, BouquetCache, BouquetConfig, CacheOutcome, Workload,
};
use plan_bouquet::catalog::{tpcds, tpch, Catalog};
use plan_bouquet::cost::{Ess, Parallelism, PARALLEL_MIN_GRID};
use plan_bouquet::optimizer::PlanDiagram;
use plan_bouquet::workloads;

/// Rebuild a workload on a coarser uniform grid so property cases stay
/// cheap while still exercising full identification.
fn coarse(w: Workload, res: usize) -> Workload {
    let ess = Ess::uniform(w.ess.dims.clone(), res);
    Workload::new(
        w.name.clone(),
        w.catalog.clone(),
        w.query.clone(),
        ess,
        w.model.clone(),
    )
}

/// The same query skeleton over other statistics.
fn with_catalog(w: &Workload, catalog: Catalog) -> Workload {
    Workload::new(
        w.name.clone(),
        catalog,
        w.query.clone(),
        w.ess.clone(),
        w.model.clone(),
    )
}

/// Fresh per-test cache directory; removed on drop so parallel test
/// binaries never poison each other.
struct TmpCache(std::path::PathBuf);

impl TmpCache {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pb-cache-it-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TmpCache(dir)
    }
}

impl Drop for TmpCache {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The single `.pbq` entry in a cache directory.
fn entry_file(dir: &std::path::Path) -> std::path::PathBuf {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "pbq"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry");
    entries.pop().unwrap()
}

fn workload_for(family: usize) -> Workload {
    match family {
        0 => coarse(workloads::h_q8a_2d(1.0), 12),
        _ => coarse(workloads::by_name("3D_DS_Q15").unwrap(), 6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cold miss then warm hit, across TPC-H and TPC-DS workloads and a
    /// spread of (λ, r): the served bouquet must serialize byte-for-byte
    /// identically to `Bouquet::identify` run from scratch.
    #[test]
    fn cache_hit_is_byte_identical_to_fresh_build(
        family in 0usize..2,
        lambda_ix in 0usize..4,
        r_ix in 0usize..3,
    ) {
        let lambda = [0.0f64, 0.1, 0.2, 0.3][lambda_ix];
        let r = [1.5f64, 2.0, 3.0][r_ix];
        let w = workload_for(family);
        let cfg = BouquetConfig { lambda, r };
        let tmp = TmpCache::new(&format!("prop{family}"));
        let cache = BouquetCache::new(&tmp.0).unwrap();

        let (_, first) = cache.get_or_identify(&w, &cfg, Parallelism::serial()).unwrap();
        prop_assert!(matches!(first, CacheOutcome::Miss { .. }));

        let (warm, second) = cache.get_or_identify(&w, &cfg, Parallelism::serial()).unwrap();
        prop_assert!(matches!(second, CacheOutcome::Hit { .. }));

        let fresh = Bouquet::identify(&w, &cfg).unwrap();
        prop_assert_eq!(
            persist::to_json(&warm).unwrap(),
            persist::to_json(&fresh).unwrap(),
            "cached bouquet diverged from a from-scratch identification"
        );
    }
}

/// Registry workloads at full resolution, not coarse frames: `4D_DS_Q7`
/// is the largest rung (182 POSP plans over 14,641 points). A miss stores
/// the frame, a hit serves it, and the served bouquet serializes
/// byte-for-byte like a fresh build.
#[test]
fn full_resolution_hits_are_byte_identical_to_fresh_builds() {
    let cfg = BouquetConfig::default();
    for (name, points) in [("2D_H_Q8A", 2_304), ("4D_DS_Q7", 14_641)] {
        let w = workloads::by_name(name).unwrap();
        assert_eq!(w.ess.num_points(), points, "{name}");
        let tmp = TmpCache::new(&format!("full-{name}"));
        let cache = BouquetCache::new(&tmp.0).unwrap();
        let (_, first) = cache
            .get_or_identify(&w, &cfg, Parallelism::auto())
            .unwrap();
        assert!(
            matches!(first, CacheOutcome::Miss { .. }),
            "{name}: {first:?}"
        );
        let (warm, second) = cache
            .get_or_identify(&w, &cfg, Parallelism::auto())
            .unwrap();
        assert!(
            matches!(second, CacheOutcome::Hit { .. }),
            "{name}: {second:?}"
        );
        let fresh = Bouquet::identify(&w, &cfg).unwrap();
        assert_eq!(
            persist::to_json(&warm).unwrap(),
            persist::to_json(&fresh).unwrap(),
            "{name}: cached bouquet diverged from a from-scratch identification"
        );
    }
}

#[test]
fn corrupted_and_truncated_entries_are_evicted_and_rebuilt() {
    let w = coarse(workloads::h_q8a_2d(1.0), 12);
    let cfg = BouquetConfig::default();
    let tmp = TmpCache::new("damage");
    let cache = BouquetCache::new(&tmp.0).unwrap();
    let (reference, _) = cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    let reference = persist::to_json(&reference).unwrap();

    // Bit-flip mid-payload: the checksum catches it, the entry is evicted,
    // and the rebuild matches the reference byte-for-byte.
    let path = entry_file(&tmp.0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let (rebuilt, outcome) = cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    assert!(
        matches!(outcome, CacheOutcome::Miss { .. }),
        "corrupt entry must not be served"
    );
    assert_eq!(persist::to_json(&rebuilt).unwrap(), reference);

    // Truncation, as a crashed writer would leave behind.
    let path = entry_file(&tmp.0);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    let (rebuilt, outcome) = cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    assert!(
        matches!(outcome, CacheOutcome::Miss { .. }),
        "truncated entry must not be served"
    );
    assert_eq!(persist::to_json(&rebuilt).unwrap(), reference);

    // A clean entry is back in place after the repairs.
    let (_, outcome) = cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    assert!(matches!(outcome, CacheOutcome::Hit { .. }));
}

#[test]
fn future_format_version_is_evicted_not_parsed() {
    let w = coarse(workloads::h_q8a_2d(1.0), 12);
    let cfg = BouquetConfig::default();
    let tmp = TmpCache::new("version");
    let cache = BouquetCache::new(&tmp.0).unwrap();
    cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();

    // Bump the on-disk format version (bytes 4..8 after the magic). The
    // checksum no longer matches either, but whichever check fires the
    // entry must be treated as unusable, evicted, and rebuilt.
    let path = entry_file(&tmp.0);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4] = bytes[4].wrapping_add(1);
    std::fs::write(&path, &bytes).unwrap();
    let (_, outcome) = cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    assert!(matches!(outcome, CacheOutcome::Miss { .. }));
    let (_, outcome) = cache
        .get_or_identify(&w, &cfg, Parallelism::serial())
        .unwrap();
    assert!(matches!(outcome, CacheOutcome::Hit { .. }));
}

#[test]
fn statistics_drift_invalidates_and_refreshes_incrementally() {
    let base = coarse(workloads::h_q8a_2d(1.0), 12);
    let cfg = BouquetConfig::default();
    let tmp = TmpCache::new("drift");
    let cache = BouquetCache::new(&tmp.0).unwrap();
    let (_, outcome) = cache
        .get_or_identify(&base, &cfg, Parallelism::serial())
        .unwrap();
    assert!(matches!(outcome, CacheOutcome::Miss { .. }));

    // Same query skeleton over drifted statistics: the cached entry is
    // stale, so the cache must re-identify and the result must equal a
    // fresh build on the new statistics.
    let drifted = with_catalog(&base, tpch::catalog(1.05));
    let (refreshed, outcome) = cache
        .get_or_identify(&drifted, &cfg, Parallelism::serial())
        .unwrap();
    assert!(
        matches!(outcome, CacheOutcome::Refreshed { .. }),
        "expected Refreshed after statistics drift, got {outcome:?}"
    );
    let fresh = Bouquet::identify(&drifted, &cfg).unwrap();
    assert_eq!(
        persist::to_json(&refreshed).unwrap(),
        persist::to_json(&fresh).unwrap()
    );

    // The stale sibling was evicted: exactly one entry remains, and it
    // serves the drifted workload as a plain hit.
    entry_file(&tmp.0);
    let (_, outcome) = cache
        .get_or_identify(&drifted, &cfg, Parallelism::serial())
        .unwrap();
    assert!(matches!(outcome, CacheOutcome::Hit { .. }));
}

/// A refresh is a cold build that replaces the stale sibling and reports how
/// many grid points changed winner — the same count at any worker count, on
/// grids fine enough for four workers to fan out.
#[test]
fn refresh_is_a_cold_build_that_counts_changed_winners() {
    let rungs = [
        (coarse(workloads::h_q8a_2d(1.0), 46), tpch::catalog(1.05)),
        (
            coarse(workloads::by_name("3D_H_Q5").unwrap(), 13),
            tpch::catalog(1.05),
        ),
        (
            coarse(workloads::by_name("4D_DS_Q7").unwrap(), 7),
            tpcds::catalog(105.0),
        ),
    ];
    let cfg = BouquetConfig::default();
    for (base, catalog) in rungs {
        let drifted = with_catalog(&base, catalog);
        let n = base.ess.num_points();
        assert!(n >= PARALLEL_MIN_GRID, "{}: {n} points", base.name);

        // The count, independently: two cold diagrams compared point by
        // point on their winners' fingerprints.
        let winners = |w: &Workload| {
            let d = PlanDiagram::build_with(
                &w.catalog,
                &w.query,
                &w.model,
                &w.ess,
                Parallelism::serial(),
            );
            let fp = |&id: &u32| d.plans[id as usize].fingerprint();
            d.optimal.iter().map(fp).collect::<Vec<_>>()
        };
        let (was, now) = (winners(&base), winners(&drifted));
        let changed = was.iter().zip(&now).filter(|(a, b)| a != b).count();
        assert!(changed > 0, "{}: the drift moved no winner", base.name);
        let fresh = persist::to_json(&Bouquet::identify(&drifted, &cfg).unwrap()).unwrap();

        for workers in [1, 4] {
            let par = Parallelism::new(workers);
            let tmp = TmpCache::new(&format!("refresh-{}-{workers}", base.name));
            let cache = BouquetCache::new(&tmp.0).unwrap();
            cache.get_or_identify(&base, &cfg, par).unwrap();
            let (refreshed, outcome) = cache.get_or_identify(&drifted, &cfg, par).unwrap();
            let CacheOutcome::Refreshed { incremental, .. } = outcome else {
                panic!("{}: expected Refreshed, got {outcome:?}", base.name);
            };
            assert_eq!(incremental.diagram.points_total, n);
            assert_eq!(incremental.diagram.points_changed, changed);
            assert_eq!(persist::to_json(&refreshed).unwrap(), fresh);
            entry_file(&tmp.0);
            let (_, outcome) = cache.get_or_identify(&drifted, &cfg, par).unwrap();
            assert!(matches!(outcome, CacheOutcome::Hit { .. }));
        }
    }
}
