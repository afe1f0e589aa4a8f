//! Deterministic in-memory data conforming to catalog statistics, each
//! column generated the first time it is read.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use pb_catalog::{Catalog, Distribution};
use pb_cost::Parallelism;
use pb_faults::PbError;
use pb_plan::{CmpOp, QuerySpec, SelectionPredicate};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::lookup::{sorted_rows, Directory, KeyRows, KeySet};

/// Overrides that make the generated data deviate from what the statistics
/// (and hence the AVI estimator) suggest — the controlled source of
/// estimation error for the engine experiments.
#[derive(Debug, Clone)]
pub enum ColumnOverride {
    /// Generate the column with only `ndv` distinct values although the
    /// statistics claim more: equality/join selectivities on it come out
    /// `claimed_ndv / ndv` times larger than estimated.
    EffectiveNdv {
        table: String,
        column: String,
        ndv: u64,
    },
    /// Correlate the column with another column of the same table at
    /// strength `rho ∈ [0, 1]`: each row follows a monotone copy of the
    /// source with probability `rho` and is drawn independently (uniform
    /// over the column's range) otherwise, dialing the AVI violation from
    /// none (`rho = 0`) to total (`rho = 1`, where conjunctive predicates on
    /// the pair are fully correlated: AVI multiplies their selectivities,
    /// reality takes the minimum). The mixture draws from a
    /// column-derived RNG stream and the column takes nothing from the
    /// table's main stream, so every other column is bit-identical at every
    /// strength.
    CorrelatedWithStrength {
        table: String,
        column: String,
        with: String,
        rho: f64,
    },
}

/// One table's data: its row count, and each column and index, built the
/// first time it is read.
///
/// The table draws its columns in catalog order from one RNG stream, seeded
/// by (seed, table id); a correlated column draws from a stream of its own.
/// Column `c` is generated by replaying the table's stream from the latest
/// state recorded at or before `c`, keeping none of the columns it passes
/// and recording the state at every column boundary it crosses. A column,
/// and its index, are therefore the same in any read order and from any
/// number of threads.
#[derive(Debug)]
pub struct TableData {
    pub rows: usize,
    gens: Vec<Gen>,
    columns: Vec<OnceLock<Vec<i64>>>,
    /// `None` for a column the catalog does not index.
    indexes: Vec<Option<OnceLock<Index>>>,
    /// `marks[k]`: the table's stream at the start of column `k`. The
    /// recorded boundaries are always a prefix, since a replay starts at a
    /// recorded one and records each it crosses.
    marks: Mutex<Vec<StdRng>>,
}

impl TableData {
    /// The table's generation spec; no row data.
    fn new(
        t: &pb_catalog::Table,
        seed: u64,
        overrides: &[ColumnOverride],
    ) -> Result<TableData, PbError> {
        let stream = seed ^ (t.id.0 as u64).wrapping_mul(0x9E37);
        Ok(TableData {
            rows: t.rows.round() as usize,
            gens: gens(t, stream, overrides)?,
            columns: t.columns.iter().map(|_| OnceLock::new()).collect(),
            indexes: t
                .columns
                .iter()
                .map(|col| t.index_on(col.id).map(|_| OnceLock::new()))
                .collect(),
            marks: Mutex::new(vec![StdRng::seed_from_u64(stream)]),
        })
    }

    /// Column `c`, `column(c)[row]`, generated on its first read.
    pub fn column(&self, c: usize) -> &[i64] {
        self.columns[c].get_or_init(|| match &self.gens[c] {
            Gen::Main(draw) => {
                let mut rng = self.stream_at(c);
                let data = (0..self.rows).map(|_| draw.sample(&mut rng)).collect();
                self.mark(c + 1, &rng);
                data
            }
            Gen::Corr(corr) => corr.mix(self.column(corr.src)),
        })
    }

    /// The index on column `c`, built on its first read; `None` when the
    /// catalog declares none.
    pub fn index(&self, c: usize) -> Option<&Index> {
        let slot = self.indexes.get(c)?.as_ref()?;
        Some(slot.get_or_init(|| Index::new(self.column(c))))
    }

    /// The table's stream at the start of column `c`.
    fn stream_at(&self, c: usize) -> StdRng {
        let (mut at, mut rng) = {
            let marks = self.marks();
            let at = c.min(marks.len() - 1);
            (at, marks[at].clone())
        };
        while at < c {
            if let Gen::Main(draw) = &self.gens[at] {
                for _ in 0..self.rows {
                    draw.sample(&mut rng);
                }
            }
            at += 1;
            self.mark(at, &rng);
        }
        rng
    }

    /// Record `rng` as the stream at the start of column `at`, whose
    /// predecessor's start is recorded.
    fn mark(&self, at: usize, rng: &StdRng) {
        let mut marks = self.marks();
        if marks.len() == at {
            marks.push(rng.clone());
        }
    }

    /// Every update of the marks is one push, which leaves them whole, so a
    /// lock poisoned by a panicking reader is safe to take over.
    fn marks(&self) -> MutexGuard<'_, Vec<StdRng>> {
        self.marks.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A secondary index: its column's row ids sorted by (value, row), 4 B an
/// entry. The values stay in the column, so every search takes it.
///
/// Range predicates binary-search the rows through the column. An equality
/// lookup on a dense domain goes through a slot directory instead (see
/// `crate::lookup`), built on the first lookup — never with the index — and
/// kept with the index; on a sparse domain it binary-searches too.
#[derive(Debug, Clone)]
pub struct Index {
    rows: Vec<u32>,
    directory: OnceLock<Option<Directory>>,
}

impl Index {
    /// The index over `column`.
    fn new(column: &[i64]) -> Index {
        Index {
            rows: sorted_rows(column),
            directory: OnceLock::new(),
        }
    }

    /// Every row, in index order.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The rows whose value in `column`, the indexed column, is `key`.
    pub fn lookup(&self, column: &[i64], key: i64) -> &[u32] {
        &self.rows[self.span(column, key)]
    }

    /// Where [`Index::lookup`]'s rows sit in [`Index::rows`].
    pub(crate) fn span(&self, column: &[i64], key: i64) -> Range<usize> {
        debug_assert_eq!(column.len(), self.rows.len());
        let directory = self
            .directory
            .get_or_init(|| Directory::over_sorted(column, &self.rows));
        match directory {
            Some(d) => d.range(key),
            None => {
                let lo = self.rows.partition_point(|&r| column[r as usize] < key);
                lo..lo + self.rows[lo..].partition_point(|&r| column[r as usize] == key)
            }
        }
    }

    /// The rows whose value in `column`, the indexed column, satisfies
    /// `pred`.
    pub fn range(&self, column: &[i64], pred: &SelectionPredicate) -> &[u32] {
        debug_assert_eq!(column.len(), self.rows.len());
        let ix = &self.rows;
        let below = |c: f64| ix.partition_point(|&r| (column[r as usize] as f64) < c);
        let upto = |c: f64| ix.partition_point(|&r| (column[r as usize] as f64) <= c);
        let range = match pred.op {
            CmpOp::Lt => 0..below(pred.constant),
            CmpOp::Gt => upto(pred.constant)..ix.len(),
            CmpOp::Eq => below(pred.constant)..upto(pred.constant),
            // An inverted range holds nothing.
            CmpOp::Between => {
                let lo = below(pred.constant2);
                lo..upto(pred.constant).max(lo)
            }
        };
        &ix[range]
    }
}

/// Two indexes are equal when their rows are: the directory is derived.
impl PartialEq for Index {
    fn eq(&self, other: &Index) -> bool {
        self.rows == other.rows
    }
}

/// An in-memory database instance for a catalog.
#[derive(Debug)]
pub struct Database {
    pub catalog: Catalog,
    tables: Vec<TableData>,
}

impl Database {
    /// The data `seed` gives `catalog`, with `overrides` applied: one RNG
    /// stream per (seed, table id), a column and its index built on their
    /// first read ([`TableData::column`], [`TableData::index`]). Generating
    /// allocates no row data. Fails when an override names a correlation
    /// source column the table lacks or does not generate before the
    /// overridden column.
    pub fn generate(
        catalog: &Catalog,
        seed: u64,
        overrides: &[ColumnOverride],
    ) -> Result<Self, PbError> {
        Ok(Database {
            catalog: catalog.clone(),
            tables: catalog
                .tables()
                .map(|t| TableData::new(t, seed, overrides))
                .collect::<Result<_, PbError>>()?,
        })
    }

    pub fn table(&self, id: pb_catalog::TableId) -> &TableData {
        &self.tables[id.0 as usize]
    }

    /// Recompute catalog statistics from the actual data — the engine's
    /// `ANALYZE`. Returns a fresh catalog whose NDVs, bounds and equi-depth
    /// histograms reflect what is really stored, so the AVI estimator
    /// becomes accurate again (the counterpart of the *stale statistics*
    /// scenario used by the Table 3 experiment).
    pub fn analyze(&self, histogram_buckets: usize) -> Catalog {
        let mut cat = self.catalog.clone();
        let names: Vec<String> = self.catalog.tables().map(|t| t.name.clone()).collect();
        for tname in names {
            let Some(t) = self.catalog.table(&tname) else {
                continue;
            };
            let td = self.table(t.id);
            for col in &t.columns {
                let data = td.column(col.id.column as usize);
                let stats = cat.column_stats_mut(&tname, &col.name);
                if data.is_empty() {
                    continue;
                }
                let mut distinct: Vec<i64> = data.to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                stats.ndv = distinct.len() as f64;
                stats.min = data.iter().min().copied().unwrap_or(0) as f64;
                stats.max = data.iter().max().copied().unwrap_or(0) as f64;
                stats.histogram = pb_catalog::EquiDepthHistogram::from_values(
                    data.iter().map(|&v| v as f64).collect(),
                    histogram_buckets,
                );
            }
        }
        cat
    }

    /// Actual selectivity of a selection predicate against this data.
    pub fn actual_selection_selectivity(&self, pred: &SelectionPredicate) -> f64 {
        let col = self
            .table(pred.column.table)
            .column(pred.column.column as usize);
        if col.is_empty() {
            return 0.0;
        }
        let hits = col.iter().filter(|&&v| eval_pred(pred, v)).count();
        hits as f64 / col.len() as f64
    }

    /// Actual selectivity of a join predicate: |matching pairs| / (|L| · |R|),
    /// under the edge's comparison op (`=` by probing the engine's hash-join
    /// build of the left keys, an existential `=` its anti/semi key set,
    /// `<` / `>` via a sort + per-value partition point — O((n+m) log m),
    /// never the n·m pair product).
    pub fn actual_join_selectivity(&self, query: &QuerySpec, join_idx: usize) -> f64 {
        let j = &query.joins[join_idx];
        let lt = self.table(query.relations[j.left_rel].table);
        let rt = self.table(query.relations[j.right_rel].table);
        let lcol = lt.column(j.left_col.column as usize);
        let rcol = rt.column(j.right_col.column as usize);
        if lcol.is_empty() || rcol.is_empty() {
            return 0.0;
        }
        let matches: u64 = match j.op {
            // Existential edges consume the ≥1-match fraction per left row
            // (the anti/semi cost formulas read `s` as match-fraction /
            // |right|), not pair multiplicity: a right side with duplicate
            // keys must not inflate the density.
            CmpOp::Eq | CmpOp::Between if j.anti || j.semi => {
                let set = KeySet::build(Parallelism::serial(), rcol);
                lcol.iter().filter(|&&v| set.contains(v)).count() as u64
            }
            CmpOp::Eq | CmpOp::Between => {
                let left = KeyRows::build(Parallelism::serial(), lcol);
                rcol.iter()
                    .filter_map(|&v| left.slot(v))
                    .map(|s| left.slot_span(s).len() as u64)
                    .sum()
            }
            CmpOp::Lt | CmpOp::Gt => {
                let mut sorted = rcol.to_vec();
                sorted.sort_unstable();
                lcol.iter()
                    .map(|&l| match j.op {
                        // pairs with l < r: right values strictly above l
                        CmpOp::Lt => (sorted.len() - sorted.partition_point(|&r| r <= l)) as u64,
                        // pairs with l > r: right values strictly below l
                        _ => sorted.partition_point(|&r| r < l) as u64,
                    })
                    .sum()
            }
        };
        matches as f64 / (lcol.len() as f64 * rcol.len() as f64)
    }
}

/// How a column's values are drawn.
#[derive(Debug)]
enum Gen {
    /// From the table's stream.
    Main(Draw),
    /// From a stream of the column's own: the table's is untouched, so every
    /// other column is bit-identical at every strength.
    Corr(Corr),
}

/// One value per row from the table's stream.
#[derive(Debug)]
enum Draw {
    /// `lo + k · stride`, `k` uniform over `0..n`.
    Uniform { lo: i64, n: u64, stride: i64 },
    /// `lo + k`, `k` Zipf-distributed over `0..n`.
    Zipf { lo: i64, n: u64, skew: f64 },
}

impl Draw {
    fn sample(&self, rng: &mut StdRng) -> i64 {
        match *self {
            Draw::Uniform { lo, n, stride } => lo + rng.random_range(0..n) as i64 * stride,
            Draw::Zipf { lo, n, skew } => lo + zipf_sample(rng, n, skew) as i64,
        }
    }
}

/// A rho-mixture of a monotone copy of column `src` (scaled from the range
/// `from` to `to`) and independent uniform draws over `to`.
#[derive(Debug)]
struct Corr {
    src: usize,
    rho: f64,
    seed: u64,
    from: (f64, f64),
    to: (f64, f64),
}

impl Corr {
    fn mix(&self, source: &[i64]) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ((slo, shi), (dlo, dhi)) = (self.from, self.to);
        let span = ((dhi - dlo) as i64 + 1).max(1);
        source
            .iter()
            .map(|&v| {
                let follow: f64 = rng.random();
                let indep = dlo as i64 + rng.random_range(0..span);
                if follow < self.rho {
                    let f = (v as f64 - slo) / (shi - slo);
                    (dlo + f * (dhi - dlo)).round() as i64
                } else {
                    indep
                }
            })
            .collect()
    }
}

/// Each column's generation spec, in catalog order (the last matching
/// override wins), `stream` seeding the table's stream. A correlation source
/// must be a column the table generates before the overridden one; anything
/// else fails here, before any data exists.
fn gens(
    t: &pb_catalog::Table,
    stream: u64,
    overrides: &[ColumnOverride],
) -> Result<Vec<Gen>, PbError> {
    // The position of `with`, which must precede column `at`.
    let source = |at: usize, with: &str| match t.columns.iter().position(|c| c.name == with) {
        Some(src) if src < at => Ok(src),
        Some(_) => Err(PbError::MissingEntity {
            kind: format!("correlation source column preceding {}", t.columns[at].name),
            name: format!("{}.{with}", t.name),
        }),
        None => Err(PbError::MissingEntity {
            kind: "correlation source column".into(),
            name: format!("{}.{with}", t.name),
        }),
    };
    // A column's value range, widened to at least one unit.
    let range = |c: &pb_catalog::Column| (c.stats.min, c.stats.max.max(c.stats.min + 1.0));
    t.columns
        .iter()
        .enumerate()
        .map(|(at, col)| {
            let lo = col.stats.min as i64;
            let mut gen = None;
            for o in overrides {
                match o {
                    ColumnOverride::EffectiveNdv { table, column, ndv }
                        if *table == t.name && *column == col.name =>
                    {
                        let n = (*ndv).max(1);
                        gen = Some(Gen::Main(Draw::Uniform { lo, n, stride: 1 }));
                    }
                    ColumnOverride::CorrelatedWithStrength {
                        table,
                        column,
                        with,
                        rho,
                    } if *table == t.name && *column == col.name => {
                        let src = source(at, with)?;
                        gen = Some(Gen::Corr(Corr {
                            src,
                            rho: rho.clamp(0.0, 1.0),
                            seed: stream ^ (col.id.column as u64 + 1).wrapping_mul(0xC2B2_AE3D),
                            from: range(&t.columns[src]),
                            to: range(col),
                        }));
                    }
                    _ => {}
                }
            }
            Ok(gen.unwrap_or_else(|| Gen::Main(stats_draw(col))))
        })
        .collect()
}

/// How a column without an override follows its statistics.
fn stats_draw(col: &pb_catalog::Column) -> Draw {
    let lo = col.stats.min as i64;
    match col.stats.distribution {
        Distribution::Uniform => {
            let ndv = (col.stats.ndv.round() as i64).max(1);
            let span = ((col.stats.max - col.stats.min) as i64 + 1).max(1);
            if ndv >= span {
                Draw::Uniform {
                    lo,
                    n: span as u64,
                    stride: 1,
                }
            } else {
                // fewer distinct values than the range: use a deterministic
                // stride embedding
                Draw::Uniform {
                    lo,
                    n: ndv as u64,
                    stride: span / ndv,
                }
            }
        }
        Distribution::Zipf(skew) => Draw::Zipf {
            lo,
            n: (col.stats.ndv.round() as u64).max(1),
            skew,
        },
    }
}

/// Evaluate a selection predicate against an i64 value.
pub fn eval_pred(pred: &SelectionPredicate, v: i64) -> bool {
    let x = v as f64;
    match pred.op {
        CmpOp::Eq => x == pred.constant,
        CmpOp::Lt => x < pred.constant,
        CmpOp::Gt => x > pred.constant,
        CmpOp::Between => x >= pred.constant2 && x <= pred.constant,
    }
}

/// Rejection-free Zipf sampler via the inverse-CDF power-law approximation.
fn zipf_sample(rng: &mut StdRng, n: u64, skew: f64) -> u64 {
    let u: f64 = rng.random();
    if skew <= 0.0 {
        return (u * n as f64) as u64;
    }
    let x = ((n as f64).powf(1.0 - skew) * u + 1.0 - u).powf(1.0 / (1.0 - skew));
    (x.floor() as u64).clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::tests::{column, probes};
    use pb_catalog::{tpch, ColumnId, TableId};
    use pb_plan::{QueryBuilder, SelSpec};
    use proptest::prelude::*;

    fn db() -> Database {
        Database::generate(&tpch::catalog(0.01), 42, &[]).expect("generate")
    }

    #[test]
    fn generation_is_deterministic() {
        let cat = tpch::catalog(0.01);
        let a = Database::generate(&cat, 7, &[]).expect("generate");
        let b = Database::generate(&cat, 7, &[]).expect("generate");
        let t = cat.table("part").unwrap().id;
        let (a, b) = (a.table(t), b.table(t));
        for c in 0..cat.table("part").unwrap().columns.len() {
            assert_eq!(a.column(c), b.column(c));
        }
    }

    #[test]
    fn row_counts_match_catalog() {
        let d = db();
        let part = d.catalog.table("part").unwrap();
        assert_eq!(d.table(part.id).rows, part.rows.round() as usize);
        assert_eq!(
            d.table(part.id).column(part.columns.len() - 1).len(),
            part.rows as usize
        );
    }

    /// A column's stable argsort, read off its sorted `(value, row)` pairs:
    /// the order its index must hold.
    fn argsort(column: &[i64]) -> Vec<u32> {
        let mut pairs: Vec<(i64, u32)> = column.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn indexes_are_sorted_and_complete() {
        let cat = tpch::catalog(0.01);
        let ov = [ColumnOverride::EffectiveNdv {
            table: "lineitem".into(),
            column: "l_partkey".into(),
            ndv: 50,
        }];
        let d = Database::generate(&cat, 42, &ov).expect("generate");
        // A sparse domain (stably sorted) and an overridden dense one
        // (counted into place).
        for (table, column, dense) in [
            ("orders", "o_totalprice", false),
            ("lineitem", "l_partkey", true),
        ] {
            let t = cat.table(table).unwrap();
            let c = t.column(column).unwrap().id.column;
            let td = d.table(t.id);
            let (col, ix) = (td.column(c as usize), td.index(c as usize).unwrap());
            assert_eq!(ix.rows(), argsort(col), "{table}.{column}");
            let directory = Directory::over_sorted(col, ix.rows());
            assert_eq!(directory.is_some(), dense, "{table}.{column}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over every key shape of the join tables' tests, an index is its
        /// column's stable argsort, and its searches return what filtering
        /// the column does, in index order: `range` for every operator at
        /// constants on, between and beyond the keys (inverted `Between`s
        /// included), `lookup` over the directory and over the binary
        /// search alike.
        #[test]
        fn index_searches_match_a_filter(shape in 0usize..7, n in 0usize..400, seed in 0u64..1000) {
            let col = column(shape, n, seed);
            let order = argsort(&col);
            let ix = Index::new(&col);
            prop_assert_eq!(ix.rows(), &order[..]);
            let filter = |keep: &dyn Fn(i64) -> bool| -> Vec<u32> {
                order.iter().copied().filter(|&r| keep(col[r as usize])).collect()
            };

            let mut keys = probes(&col);
            keys.sort_unstable();
            keys.dedup();
            let searched = Index {
                rows: order.clone(),
                directory: OnceLock::from(None),
            };
            for &v in &keys {
                let want = filter(&|x| x == v);
                prop_assert_eq!(ix.lookup(&col, v), &want[..], "key {}", v);
                prop_assert_eq!(searched.lookup(&col, v), &want[..], "key {}", v);
            }
            if shape == 0 && n > 0 {
                prop_assert!(matches!(ix.directory.get(), Some(Some(_))));
            }

            let step = keys.len().div_ceil(32);
            let mut constants: Vec<f64> = keys
                .iter()
                .step_by(step)
                .flat_map(|&v| [v as f64 - 0.5, v as f64, v as f64 + 0.5])
                .collect();
            constants.extend([f64::NEG_INFINITY, -1e30, 1e30, f64::INFINITY]);
            for (i, &constant) in constants.iter().enumerate() {
                for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Eq, CmpOp::Between] {
                    let pred = SelectionPredicate {
                        column: ColumnId { table: TableId(0), column: 0 },
                        op,
                        constant,
                        constant2: constants[(7 * i + 3) % constants.len()],
                        selectivity: SelSpec::Fixed(0.5),
                    };
                    let want = filter(&|x| eval_pred(&pred, x));
                    prop_assert_eq!(ix.range(&col, &pred), &want[..], "{:?}", pred);
                }
            }
        }
    }

    #[test]
    fn selection_selectivity_tracks_stats() {
        let cat = tpch::catalog(0.01);
        let d = Database::generate(&cat, 3, &[]).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "t");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        // p_retailprice in [900, 2099]; < 1500 → ≈ 0.5.
        qb.select(p, "p_retailprice", CmpOp::Lt, 1500.0, SelSpec::Fixed(0.5));
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(0));
        let q = qb.build();
        let s = d.actual_selection_selectivity(&q.relations[0].selections[0]);
        assert!((s - 0.5).abs() < 0.05, "observed {s}");
    }

    #[test]
    fn join_selectivity_matches_fk_expectation() {
        let cat = tpch::catalog(0.01);
        let d = Database::generate(&cat, 3, &[]).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "t");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(0));
        let q = qb.build();
        // Both sides uniform over 2000 part keys: s ≈ 1/2000.
        let s = d.actual_join_selectivity(&q, 0);
        assert!((s - 1.0 / 2000.0).abs() < 0.3 / 2000.0, "observed {s}");
    }

    #[test]
    fn effective_ndv_override_inflates_join_selectivity() {
        let cat = tpch::catalog(0.01);
        let ov = vec![ColumnOverride::EffectiveNdv {
            table: "lineitem".into(),
            column: "l_partkey".into(),
            ndv: 50,
        }];
        let d = Database::generate(&cat, 3, &ov).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "t");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(0));
        let q = qb.build();
        let s = d.actual_join_selectivity(&q, 0);
        // Matching density is bounded by part's uniform density; the point
        // of the override is that the estimator's 1/200e3 is a gross
        // *underestimate* of the actual selectivity.
        assert!(s > 2.0 / 200_000.0, "override had no effect: {s}");
    }

    #[test]
    fn analyze_refreshes_stats_to_match_data() {
        let cat = tpch::catalog(0.01);
        let ov = vec![ColumnOverride::EffectiveNdv {
            table: "lineitem".into(),
            column: "l_partkey".into(),
            ndv: 70,
        }];
        let d = Database::generate(&cat, 3, &ov).expect("generate");
        let fresh = d.analyze(16);
        let stats = fresh
            .table("lineitem")
            .unwrap()
            .column("l_partkey")
            .unwrap()
            .stats
            .clone();
        // ANALYZE sees the true (overridden) NDV, not the stale claim.
        assert!((stats.ndv - 70.0).abs() < 1.0, "ndv = {}", stats.ndv);
        assert!(stats.histogram.is_some());
        // After ANALYZE the AVI join estimate is accurate again.
        let mut qb = QueryBuilder::new(&fresh, "t");
        let p = qb.rel("part");
        let l = qb.rel("lineitem");
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::ErrorProne(0));
        let q = qb.build();
        let est = pb_cost_free_estimate(&fresh, &q);
        let actual = d.actual_join_selectivity(&q, 0);
        assert!(
            est / actual < 3.0 && actual / est < 3.0,
            "post-ANALYZE estimate {est} vs actual {actual}"
        );
    }

    /// Selinger join estimate without depending on pb-cost (dev-dep cycle).
    fn pb_cost_free_estimate(cat: &Catalog, q: &QuerySpec) -> f64 {
        let j = &q.joins[0];
        let ndv = |c: pb_catalog::ColumnId| {
            cat.table_by_id(c.table).columns[c.column as usize]
                .stats
                .ndv
        };
        1.0 / ndv(j.left_col).max(ndv(j.right_col)).max(1.0)
    }

    #[test]
    fn correlation_strength_interpolates_and_preserves_other_columns() {
        let cat = tpch::catalog(0.01);
        let ov = |rho: f64| {
            vec![ColumnOverride::CorrelatedWithStrength {
                table: "part".into(),
                column: "p_size".into(),
                with: "p_retailprice".into(),
                rho,
            }]
        };
        let full = Database::generate(&cat, 3, &ov(1.0)).expect("generate");
        let none = Database::generate(&cat, 3, &ov(0.0)).expect("generate");
        let part = cat.table("part").unwrap();
        let price = part.column("p_retailprice").unwrap().id.column as usize;
        let size = part.column("p_size").unwrap().id.column as usize;

        // The mixture draws from a column-derived stream and consumes zero
        // draws from the table's main stream, so every *other* column is
        // bit-identical across all strengths.
        for c in 0..part.columns.len() {
            if c != size {
                assert_eq!(
                    full.table(part.id).column(c),
                    none.table(part.id).column(c),
                    "column {c} disturbed by the override stream"
                );
            }
        }

        // Sample Pearson correlation with the source orders by strength.
        let corr = |d: &Database| {
            let td = d.table(part.id);
            let (xs, ys) = (td.column(price), td.column(size));
            let n = xs.len() as f64;
            let (mx, my) = (
                xs.iter().sum::<i64>() as f64 / n,
                ys.iter().sum::<i64>() as f64 / n,
            );
            let cov: f64 = xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| (x as f64 - mx) * (y as f64 - my))
                .sum();
            let vx: f64 = xs.iter().map(|&x| (x as f64 - mx).powi(2)).sum();
            let vy: f64 = ys.iter().map(|&y| (y as f64 - my).powi(2)).sum();
            cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
        };
        let half = Database::generate(&cat, 3, &ov(0.5)).expect("generate");
        assert!(corr(&full) > 0.95, "rho=1: {}", corr(&full));
        assert!(corr(&none).abs() < 0.2, "rho=0: {}", corr(&none));
        let mid = corr(&half);
        assert!(
            mid > corr(&none) + 0.15 && mid < corr(&full) - 0.15,
            "rho=0.5 not between: {mid}"
        );
    }

    #[test]
    fn inequality_join_selectivity_matches_brute_force() {
        let cat = tpch::catalog(0.01);
        let d = Database::generate(&cat, 3, &[]).expect("generate");
        let mut qb = QueryBuilder::new(&cat, "t");
        let p = qb.rel("part");
        let s = qb.rel("supplier");
        qb.ineq_join(
            p,
            "p_size",
            CmpOp::Lt,
            s,
            "s_nationkey",
            SelSpec::ErrorProne(0),
        );
        let q = qb.build();
        let fast = d.actual_join_selectivity(&q, 0);
        let part = cat.table("part").unwrap();
        let supp = cat.table("supplier").unwrap();
        let lcol = d
            .table(part.id)
            .column(part.column("p_size").unwrap().id.column as usize);
        let rcol = d
            .table(supp.id)
            .column(supp.column("s_nationkey").unwrap().id.column as usize);
        let brute: u64 = lcol
            .iter()
            .map(|&l| rcol.iter().filter(|&&r| l < r).count() as u64)
            .sum();
        let expect = brute as f64 / (lcol.len() as f64 * rcol.len() as f64);
        assert!((fast - expect).abs() < 1e-12, "{fast} vs {expect}");
    }

    /// A correlation source at or after its target in catalog order, or
    /// absent, is a typed error — not an out-of-bounds panic — at any
    /// strength.
    #[test]
    fn correlation_source_must_precede_its_column() {
        let cat = tpch::catalog(0.01);
        let part = cat.table("part").unwrap();
        let at = |c: &str| part.column(c).unwrap().id.column;
        assert!(at("p_retailprice") < at("p_size"));
        for (column, with) in [
            ("p_retailprice", "p_size"),
            ("p_size", "p_size"),
            ("p_size", "p_nonexistent"),
        ] {
            for rho in [1.0, 0.5] {
                let ov = ColumnOverride::CorrelatedWithStrength {
                    table: "part".into(),
                    column: column.into(),
                    with: with.into(),
                    rho,
                };
                let err = Database::generate(&cat, 3, &[ov]).unwrap_err();
                assert!(
                    matches!(&err, PbError::MissingEntity { name, .. } if *name == format!("part.{with}")),
                    "{column} ~ {with}: {err}"
                );
            }
        }
    }

    #[test]
    fn correlated_override_tracks_source_column() {
        let cat = tpch::catalog(0.01);
        let ov = vec![ColumnOverride::CorrelatedWithStrength {
            table: "part".into(),
            column: "p_size".into(),
            with: "p_retailprice".into(),
            rho: 1.0,
        }];
        let d = Database::generate(&cat, 3, &ov).expect("generate");
        let part = cat.table("part").unwrap();
        let td = d.table(part.id);
        let price = part.column("p_retailprice").unwrap().id.column as usize;
        let size = part.column("p_size").unwrap().id.column as usize;
        // Correlated: ordering by price must order size too.
        let (price, size) = (td.column(price), td.column(size));
        for i in 1..200 {
            if price[i] >= price[i - 1] {
                assert!(size[i] >= size[i - 1] - 1);
            }
        }
    }
}
