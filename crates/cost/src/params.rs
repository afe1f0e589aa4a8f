//! Cost-model constants and engine personalities.

use serde::Serialize;

/// Tunable constants of the operator cost formulas, in units of one
/// sequential page read (PostgreSQL convention).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostParams {
    /// Cost of a sequentially-read page.
    pub seq_page: f64,
    /// Cost of a randomly-read page.
    pub random_page: f64,
    /// CPU cost of processing one tuple.
    pub cpu_tuple: f64,
    /// CPU cost of processing one index entry.
    pub cpu_index_tuple: f64,
    /// CPU cost of one predicate/comparison evaluation.
    pub cpu_operator: f64,
    /// Extra per-tuple CPU for inserting into a hash table.
    pub hash_build: f64,
    /// Extra per-tuple CPU for probing a hash table.
    pub hash_probe: f64,
    /// Memory available to a single operator, in pages (work_mem).
    pub work_mem_pages: f64,
    /// Fraction of heap fetches from an unclustered index that incur a
    /// random page read (the remainder hit cache).
    pub heap_fetch_factor: f64,
    /// Per-lookup overhead of an index probe in a nested-loops join
    /// (descent through cached upper levels plus one leaf access).
    pub index_lookup: f64,
    /// Per-output-tuple emission cost (keeps every plan cost strictly
    /// increasing in every selectivity — PCM).
    pub emit_tuple: f64,
    /// Page size in bytes, for width → pages conversions.
    pub page_bytes: f64,
}

/// A named cost-model personality. The paper evaluates on PostgreSQL and on
/// a commercial engine ("COM"); we model the latter as a second personality
/// with different trade-off constants (cheaper random I/O, pricier CPU,
/// larger memory), which shifts every plan-choice crossover point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostModel {
    pub name: String,
    pub p: CostParams,
}

impl CostModel {
    /// PostgreSQL-flavour personality (default for all experiments).
    pub fn postgresish() -> Self {
        CostModel {
            name: "postgresish".into(),
            p: CostParams {
                seq_page: 1.0,
                random_page: 4.0,
                cpu_tuple: 0.01,
                cpu_index_tuple: 0.005,
                cpu_operator: 0.0025,
                hash_build: 0.02,
                hash_probe: 0.01,
                work_mem_pages: 2048.0,
                heap_fetch_factor: 0.5,
                index_lookup: 2.0,
                emit_tuple: 0.01,
                page_bytes: 8192.0,
            },
        }
    }

    /// "COM": commercial-engine personality (Section 6.8). SSD-tuned random
    /// I/O, heavier CPU accounting, larger operator memory.
    pub fn commercialish() -> Self {
        CostModel {
            name: "commercialish".into(),
            p: CostParams {
                seq_page: 1.0,
                random_page: 2.0,
                cpu_tuple: 0.02,
                cpu_index_tuple: 0.008,
                cpu_operator: 0.004,
                hash_build: 0.03,
                hash_probe: 0.015,
                work_mem_pages: 8192.0,
                heap_fetch_factor: 0.35,
                index_lookup: 1.2,
                emit_tuple: 0.02,
                page_bytes: 8192.0,
            },
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::postgresish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn personalities_differ() {
        let pg = CostModel::postgresish();
        let com = CostModel::commercialish();
        assert_ne!(pg.name, com.name);
        assert_ne!(pg.p.random_page, com.p.random_page);
    }

    #[test]
    fn default_is_postgresish() {
        assert_eq!(CostModel::default().name, "postgresish");
    }

    #[test]
    fn all_constants_positive() {
        for m in [CostModel::postgresish(), CostModel::commercialish()] {
            let p = &m.p;
            for v in [
                p.seq_page,
                p.random_page,
                p.cpu_tuple,
                p.cpu_index_tuple,
                p.cpu_operator,
                p.hash_build,
                p.hash_probe,
                p.work_mem_pages,
                p.heap_fetch_factor,
                p.index_lookup,
                p.emit_tuple,
                p.page_bytes,
            ] {
                assert!(v > 0.0, "{} has a non-positive constant", m.name);
            }
        }
    }
}
