//! Select-project-join query specifications with error-prone selectivities.

use pb_catalog::{Catalog, ColumnId, TableId};
use serde::{Deserialize, Serialize};

use crate::graph::JoinGraph;

/// Index of a relation within a [`QuerySpec`] (not a catalog table id — the
/// same table may appear under several aliases).
pub type RelIdx = usize;

/// Index of an error-prone selectivity dimension within the query's ESS.
pub type DimId = usize;

/// The *kind* of plan site an error-prone selectivity dimension is bound
/// to, read off the predicate ([`QuerySpec::dim_kind`]). The paper's ESS
/// only ever prices selection and PK–FK join selectivities; the other kinds
/// have their own cost and observation semantics:
///
/// * [`DimKind::Selection`] — a base-relation filter predicate.
/// * [`DimKind::PkFkJoin`] — an equi-join match density.
/// * [`DimKind::InequalityJoin`] — a non-equi (`<`/`>`) join pair density;
///   only nested-loop operators can evaluate it.
/// * [`DimKind::AntiJoin`] — a NOT EXISTS match density. PCM-violating in
///   raw form (output shrinks as it grows); run under the axis flip.
/// * [`DimKind::SemiJoin`] — an EXISTS match density (output saturates at
///   the left cardinality but grows monotonically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DimKind {
    #[default]
    Selection,
    PkFkJoin,
    InequalityJoin,
    AntiJoin,
    SemiJoin,
}

impl DimKind {
    /// Short lowercase label used in reports and docs.
    pub fn label(self) -> &'static str {
        match self {
            DimKind::Selection => "selection",
            DimKind::PkFkJoin => "pk-fk-join",
            DimKind::InequalityJoin => "inequality-join",
            DimKind::AntiJoin => "anti-join",
            DimKind::SemiJoin => "semi-join",
        }
    }
}

impl std::fmt::Display for DimKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a predicate's selectivity is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum SelSpec {
    /// Trusted compile-time estimate (error-free dimension).
    Fixed(f64),
    /// Error-prone: the value is an ESS coordinate, injected at run time.
    /// This is the paper's "selectivity injection" (Section 4.2).
    ErrorProne(DimId),
    /// Error-prone with a *reversed* axis: the predicate's actual
    /// selectivity is `pivot / coordinate`, so a plan cost that decreases
    /// with the raw selectivity (existential operators — paper, Section 2)
    /// becomes increasing in the ESS coordinate. This is the paper's
    /// "(1 − s) instead of s on the selectivity axes" remedy, realized
    /// geometrically (the grids are log-scale, so the reflection is
    /// multiplicative).
    Flipped { dim: DimId, pivot: f64 },
}

impl SelSpec {
    /// Resolve against an ESS location `q` (absolute selectivities per dim).
    #[inline]
    pub fn resolve(&self, q: &[f64]) -> f64 {
        match *self {
            SelSpec::Fixed(s) => s,
            SelSpec::ErrorProne(d) => q[d],
            SelSpec::Flipped { dim, pivot } => (pivot / q[dim]).clamp(0.0, 1.0),
        }
    }

    pub fn error_dim(&self) -> Option<DimId> {
        match *self {
            SelSpec::Fixed(_) => None,
            SelSpec::ErrorProne(d) => Some(d),
            SelSpec::Flipped { dim, .. } => Some(dim),
        }
    }

    /// Map a *raw* (actual) selectivity into the ESS coordinate this spec's
    /// dimension uses — the inverse of [`SelSpec::resolve`] along the
    /// error axis. Identity for plain error-prone dims; the multiplicative
    /// reflection `pivot / s` for flipped (anti-join) axes. Callers clamp
    /// the result into the dimension's `[lo, hi]` box.
    #[inline]
    pub fn to_coordinate(&self, raw: f64) -> f64 {
        match *self {
            SelSpec::Flipped { pivot, .. } => pivot / raw.max(f64::MIN_POSITIVE),
            _ => raw,
        }
    }
}

/// Comparison operator of a selection predicate (and, for `Eq`/`Lt`/`Gt`,
/// of a join predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum CmpOp {
    #[default]
    Eq,
    Lt,
    Gt,
    /// `lo <= col <= hi`; the engine uses `constant` as `hi` and
    /// `constant2` as `lo`.
    Between,
}

/// A selection predicate `column op constant` on a base relation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SelectionPredicate {
    pub column: ColumnId,
    pub op: CmpOp,
    pub constant: f64,
    pub constant2: f64,
    pub selectivity: SelSpec,
}

/// A join predicate `left.col op right.col` between two relations.
///
/// The default shape (`op == Eq`, `anti == semi == false`) is the plain
/// equi-join. With `anti == true` the edge is a NOT EXISTS (anti-join): the
/// left side keeps the tuples with *no* match on the right. The selectivity
/// parameter is still the match density `|matches| / (|L|·|R|)`, but the
/// operator's output — and hence downstream cost — *decreases* as it grows:
/// the PCM-breaking case of the paper's Section 2. With `semi == true` the
/// edge is an EXISTS (semi-join): the left side keeps the tuples with at
/// least one right match, which is monotone-increasing in the density.
/// With `op` of `Lt`/`Gt` the edge is an inequality join (`left.col op
/// right.col`); only nested-loop operators can evaluate it, and its
/// selectivity is the fraction of cross-product pairs satisfying the
/// comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JoinPredicate {
    pub left_rel: RelIdx,
    pub left_col: ColumnId,
    pub right_rel: RelIdx,
    pub right_col: ColumnId,
    pub selectivity: SelSpec,
    pub anti: bool,
    pub semi: bool,
    pub op: CmpOp,
}

impl JoinPredicate {
    /// The two relations this edge connects.
    pub fn rels(&self) -> (RelIdx, RelIdx) {
        (self.left_rel, self.right_rel)
    }

    /// The join column on relation `rel`, if the edge touches it.
    pub fn col_on(&self, rel: RelIdx) -> Option<ColumnId> {
        if self.left_rel == rel {
            Some(self.left_col)
        } else if self.right_rel == rel {
            Some(self.right_col)
        } else {
            None
        }
    }

    /// Whether the comparison is an equality (hash/merge/index operators
    /// apply). Anti/semi edges are equality membership tests, so they count.
    pub fn is_equi(&self) -> bool {
        self.op == CmpOp::Eq
    }

    /// Whether the edge is existential (anti or semi): its right relation
    /// hangs off the core join tree and is applied on top as a filter.
    pub fn existential(&self) -> bool {
        self.anti || self.semi
    }

    /// The typed dimension kind this edge binds (regardless of whether its
    /// selectivity is error-prone).
    pub fn dim_kind(&self) -> DimKind {
        if self.anti {
            DimKind::AntiJoin
        } else if self.semi {
            DimKind::SemiJoin
        } else if self.op != CmpOp::Eq {
            DimKind::InequalityJoin
        } else {
            DimKind::PkFkJoin
        }
    }
}

/// A base-relation occurrence in the query.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RelationRef {
    pub table: TableId,
    pub alias: String,
    pub selections: Vec<SelectionPredicate>,
}

/// A select-project-join query with designated error-prone selectivities,
/// optionally aggregated (`GROUP BY` + COUNT) at the top.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuerySpec {
    pub name: String,
    pub relations: Vec<RelationRef>,
    pub joins: Vec<JoinPredicate>,
    /// Number of error-prone dimensions (D of the ESS).
    pub num_dims: usize,
    /// Grouping columns; empty = no aggregation. The optimizer places a
    /// hash aggregate above the join tree when non-empty.
    pub group_by: Vec<(RelIdx, ColumnId)>,
}

impl QuerySpec {
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The join graph over relation indices.
    pub fn join_graph(&self) -> JoinGraph {
        JoinGraph::new(
            self.relations.len(),
            self.joins.iter().map(|j| j.rels()).collect(),
        )
    }

    /// The predicate bound to error dimension `d`: its kind and its
    /// selectivity spec. Selections are [`DimKind::Selection`]; join edges
    /// carry their own kind ([`JoinPredicate::dim_kind`]). If several
    /// predicates share the dimension the join edge wins (join kinds drive
    /// operator-specific observation; shared selection dims stay plain
    /// selections). `None` when no predicate references `d`.
    pub fn dim_predicate(&self, d: DimId) -> Option<(DimKind, SelSpec)> {
        let bound = |s: &SelSpec| s.error_dim() == Some(d);
        let join = self.joins.iter().find(|j| bound(&j.selectivity));
        join.map(|j| (j.dim_kind(), j.selectivity)).or_else(|| {
            self.relations
                .iter()
                .flat_map(|r| &r.selections)
                .find(|s| bound(&s.selectivity))
                .map(|s| (DimKind::Selection, s.selectivity))
        })
    }

    /// The kind of error dimension `d`: the kind of the predicate bound to
    /// it ([`dim_predicate`](Self::dim_predicate)). The one place an axis's
    /// kind is recorded.
    pub fn dim_kind(&self, d: DimId) -> Option<DimKind> {
        self.dim_predicate(d).map(|(kind, _)| kind)
    }

    /// Check internal consistency against a catalog: the first structural
    /// error, as a message. What loads a query it did not build (a saved
    /// artefact, a cache frame) reports this instead of panicking.
    pub fn check(&self, catalog: &Catalog) -> Result<(), String> {
        fn ensure(ok: bool, message: &str) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(message.to_string())
            }
        }
        let columns_of = |table: TableId| catalog.table_by_id(table).columns.len();
        ensure(!self.relations.is_empty(), "query has no relations")?;
        for (i, r) in self.relations.iter().enumerate() {
            if r.table.0 as usize >= catalog.len() {
                return Err(format!("rel {i} references unknown table {}", r.table.0));
            }
            for s in &r.selections {
                if s.column.table != r.table {
                    return Err(format!("selection on rel {i} references a foreign table"));
                }
                ensure(
                    (s.column.column as usize) < columns_of(r.table),
                    "selection column out of range",
                )?;
            }
        }
        for j in &self.joins {
            ensure(
                j.left_rel < self.relations.len() && j.right_rel < self.relations.len(),
                "join edge references an unknown relation",
            )?;
            ensure(j.left_rel != j.right_rel, "self-join edge")?;
            for (col, rel) in [(j.left_col, j.left_rel), (j.right_col, j.right_rel)] {
                let table = self.relations[rel].table;
                ensure(
                    col.table == table && (col.column as usize) < columns_of(table),
                    "join column is not a column of its relation's table",
                )?;
            }
            ensure(
                !(j.anti && j.semi),
                "a join edge cannot be both anti and semi",
            )?;
            ensure(
                !j.existential() || j.op == CmpOp::Eq,
                "anti/semi edges are equality membership tests",
            )?;
            ensure(
                matches!(j.op, CmpOp::Eq | CmpOp::Lt | CmpOp::Gt),
                "join comparison must be Eq, Lt or Gt",
            )?;
        }
        for &(rel, col) in &self.group_by {
            ensure(
                self.relations.get(rel).is_some_and(|r| {
                    col.table == r.table && (col.column as usize) < columns_of(r.table)
                }),
                "group-by column is not a column of its relation's table",
            )?;
        }
        ensure(
            self.join_graph().is_connected(),
            "join graph must be connected",
        )?;
        match (0..self.num_dims).find(|&d| self.dim_predicate(d).is_none()) {
            Some(d) => Err(format!("dimension {d} unused")),
            None => Ok(()),
        }
    }

    /// [`check`](Self::check) for queries this process built itself (workload
    /// constructors, the builder, tests): a structural error is a bug there,
    /// so it panics with the message.
    pub fn validate(&self, catalog: &Catalog) {
        if let Err(message) = self.check(catalog) {
            panic!("{message}");
        }
    }
}

/// Convenience builder used by the workload definitions.
pub struct QueryBuilder<'a> {
    catalog: &'a Catalog,
    spec: QuerySpec,
}

impl<'a> QueryBuilder<'a> {
    pub fn new(catalog: &'a Catalog, name: impl Into<String>) -> Self {
        QueryBuilder {
            catalog,
            spec: QuerySpec {
                name: name.into(),
                relations: Vec::new(),
                joins: Vec::new(),
                num_dims: 0,
                group_by: Vec::new(),
            },
        }
    }

    /// Add a base relation by table name; the alias defaults to the name.
    pub fn rel(&mut self, table: &str) -> RelIdx {
        self.rel_aliased(table, table)
    }

    pub fn rel_aliased(&mut self, table: &str, alias: &str) -> RelIdx {
        let t = self
            .catalog
            .table(table)
            .unwrap_or_else(|| panic!("unknown table {table}"));
        self.spec.relations.push(RelationRef {
            table: t.id,
            alias: alias.to_string(),
            selections: Vec::new(),
        });
        self.spec.relations.len() - 1
    }

    /// Add a selection predicate on `rel.column`.
    pub fn select(
        &mut self,
        rel: RelIdx,
        column: &str,
        op: CmpOp,
        constant: f64,
        sel: SelSpec,
    ) -> &mut Self {
        let table = self.spec.relations[rel].table;
        let col = self
            .catalog
            .table_by_id(table)
            .column(column)
            .unwrap_or_else(|| panic!("unknown column {column}"))
            .id;
        self.track_dim(sel);
        self.spec.relations[rel]
            .selections
            .push(SelectionPredicate {
                column: col,
                op,
                constant,
                // Unused except by CmpOp::Between (see `select_between`); kept
                // finite so plans serialize cleanly to JSON.
                constant2: f64::MIN,
                selectivity: sel,
            });
        self
    }

    /// Aggregate the result, grouping on `rel.column` (COUNT per group).
    pub fn group_by(&mut self, rel: RelIdx, column: &str) -> &mut Self {
        let table = self.spec.relations[rel].table;
        let col = self
            .catalog
            .table_by_id(table)
            .column(column)
            .unwrap_or_else(|| panic!("unknown column {column}"))
            .id;
        self.spec.group_by.push((rel, col));
        self
    }

    /// Add a range predicate `lo <= rel.column <= hi`.
    pub fn select_between(
        &mut self,
        rel: RelIdx,
        column: &str,
        lo: f64,
        hi: f64,
        sel: SelSpec,
    ) -> &mut Self {
        let table = self.spec.relations[rel].table;
        let col = self
            .catalog
            .table_by_id(table)
            .column(column)
            .unwrap_or_else(|| panic!("unknown column {column}"))
            .id;
        self.track_dim(sel);
        self.spec.relations[rel]
            .selections
            .push(SelectionPredicate {
                column: col,
                op: CmpOp::Between,
                constant: hi,
                constant2: lo,
                selectivity: sel,
            });
        self
    }

    /// Add an equi-join edge `l.lcol = r.rcol`.
    pub fn join(
        &mut self,
        l: RelIdx,
        lcol: &str,
        r: RelIdx,
        rcol: &str,
        sel: SelSpec,
    ) -> &mut Self {
        let lcid = self
            .catalog
            .table_by_id(self.spec.relations[l].table)
            .column(lcol)
            .unwrap_or_else(|| panic!("unknown column {lcol}"))
            .id;
        let rcid = self
            .catalog
            .table_by_id(self.spec.relations[r].table)
            .column(rcol)
            .unwrap_or_else(|| panic!("unknown column {rcol}"))
            .id;
        self.track_dim(sel);
        self.spec.joins.push(JoinPredicate {
            left_rel: l,
            left_col: lcid,
            right_rel: r,
            right_col: rcid,
            selectivity: sel,
            anti: false,
            semi: false,
            op: CmpOp::Eq,
        });
        self
    }

    /// Add an anti-join edge: keep `l` rows with no `r` match on
    /// `l.lcol = r.rcol` (NOT EXISTS). The relation `r` must hang off the
    /// query exclusively through this edge.
    pub fn anti_join(
        &mut self,
        l: RelIdx,
        lcol: &str,
        r: RelIdx,
        rcol: &str,
        sel: SelSpec,
    ) -> &mut Self {
        self.join(l, lcol, r, rcol, sel);
        self.spec.joins.last_mut().unwrap().anti = true;
        self
    }

    /// Add a semi-join edge: keep `l` rows with at least one `r` match on
    /// `l.lcol = r.rcol` (EXISTS). The relation `r` must hang off the query
    /// exclusively through this edge.
    pub fn semi_join(
        &mut self,
        l: RelIdx,
        lcol: &str,
        r: RelIdx,
        rcol: &str,
        sel: SelSpec,
    ) -> &mut Self {
        self.join(l, lcol, r, rcol, sel);
        self.spec.joins.last_mut().unwrap().semi = true;
        self
    }

    /// Add an inequality-join edge `l.lcol op r.rcol` (`op` of `Lt`/`Gt`).
    /// Only nested-loop operators can evaluate the edge, so it is always a
    /// residual or BNL predicate in physical plans.
    pub fn ineq_join(
        &mut self,
        l: RelIdx,
        lcol: &str,
        op: CmpOp,
        r: RelIdx,
        rcol: &str,
        sel: SelSpec,
    ) -> &mut Self {
        assert!(
            matches!(op, CmpOp::Lt | CmpOp::Gt),
            "inequality join requires Lt or Gt"
        );
        self.join(l, lcol, r, rcol, sel);
        self.spec.joins.last_mut().unwrap().op = op;
        self
    }

    fn track_dim(&mut self, sel: SelSpec) {
        if let Some(d) = sel.error_dim() {
            self.spec.num_dims = self.spec.num_dims.max(d + 1);
        }
    }

    /// Rewrite every predicate's selectivity spec (used by the axis-flip
    /// remedy for PCM-violating dimensions).
    pub fn rewrite_specs(spec: &mut QuerySpec, f: impl Fn(&SelSpec) -> SelSpec) {
        for r in &mut spec.relations {
            for s in &mut r.selections {
                s.selectivity = f(&s.selectivity);
            }
        }
        for j in &mut spec.joins {
            j.selectivity = f(&j.selectivity);
        }
    }

    /// The query as built so far, not yet validated.
    pub(crate) fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Finish, validating against the catalog.
    pub fn build(self) -> QuerySpec {
        self.spec.validate(self.catalog);
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;

    fn three_way() -> (Catalog, QuerySpec) {
        let cat = tpch::catalog(0.1);
        let mut qb = QueryBuilder::new(&cat, "eq");
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
        qb.join(p, "p_partkey", l, "l_partkey", SelSpec::Fixed(5e-6));
        qb.join(l, "l_orderkey", o, "o_orderkey", SelSpec::Fixed(6.7e-7));
        let q = qb.build();
        (cat, q)
    }

    #[test]
    fn builder_produces_connected_query() {
        let (_, q) = three_way();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.num_dims, 1);
        assert!(q.join_graph().is_connected());
    }

    #[test]
    fn selspec_resolution() {
        let q = [0.25, 0.5];
        assert_eq!(SelSpec::Fixed(0.1).resolve(&q), 0.1);
        assert_eq!(SelSpec::ErrorProne(1).resolve(&q), 0.5);
        assert_eq!(SelSpec::ErrorProne(0).error_dim(), Some(0));
        assert_eq!(SelSpec::Fixed(0.1).error_dim(), None);
    }

    #[test]
    fn dim_predicate_sees_selections_and_joins() {
        let (_, q) = three_way();
        assert_eq!(
            q.dim_predicate(0),
            Some((DimKind::Selection, SelSpec::ErrorProne(0)))
        );
        assert_eq!(q.dim_kind(0), Some(DimKind::Selection));
        assert_eq!(q.dim_predicate(1), None);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_join_graph_rejected() {
        let cat = tpch::catalog(0.1);
        let mut qb = QueryBuilder::new(&cat, "bad");
        let _p = qb.rel("part");
        let _l = qb.rel("lineitem");
        qb.build();
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_column_rejected() {
        let cat = tpch::catalog(0.1);
        let mut qb = QueryBuilder::new(&cat, "bad");
        let p = qb.rel("part");
        qb.select(p, "no_such_col", CmpOp::Lt, 0.0, SelSpec::Fixed(0.1));
    }

    #[test]
    fn check_reports_what_validate_panics_with() {
        let (cat, q) = three_way();
        assert_eq!(q.check(&cat), Ok(()));
        // What a tampered artefact can carry: indices past the query's
        // relations, the catalog's tables, a table's columns.
        let mut bad = q.clone();
        bad.joins[0].left_rel = 9;
        assert!(bad.check(&cat).unwrap_err().contains("unknown relation"));
        let mut bad = q.clone();
        bad.relations[1].table = TableId(99);
        assert!(bad.check(&cat).unwrap_err().contains("unknown table 99"));
        let mut bad = q.clone();
        bad.joins[0].left_col.column = 999;
        assert!(bad.check(&cat).unwrap_err().contains("join column"));
        let mut bad = q;
        bad.num_dims = 2;
        assert_eq!(bad.check(&cat), Err("dimension 1 unused".to_string()));
    }

    #[test]
    fn join_predicate_col_on() {
        let (_, q) = three_way();
        let j = &q.joins[0];
        assert!(j.col_on(j.left_rel).is_some());
        assert!(j.col_on(99).is_none());
    }
}
