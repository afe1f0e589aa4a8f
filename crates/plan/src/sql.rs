//! A small SQL front-end for SPJ(+aggregate, +NOT EXISTS) queries.
//!
//! Parses the dialect the paper's queries live in (compare Figure 1's EQ):
//!
//! ```sql
//! SELECT * FROM lineitem, orders, part
//! WHERE p_partkey = l_partkey
//!   AND l_orderkey = o_orderkey
//!   AND p_retailprice < 1000?
//! ```
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query      := SELECT (STAR | COUNT(*)) FROM from_list WHERE conj
//!               [GROUP BY colref (, colref)*]
//! from_list  := table [AS alias] (, table [AS alias])*
//! conj       := pred (AND pred)*
//! pred       := colref = colref sel              -- equi-join
//!             | colref (< | >) colref sel        -- inequality join
//!             | colref CMP number sel            -- selection
//!             | colref BETWEEN number AND number sel
//!             | NOT EXISTS '(' SELECT STAR FROM table [AS alias]
//!                              WHERE colref = colref ')' sel
//! sel        := [SELECTIVITY number]
//!             | ? [AS 'name'] [SPAN number] [CEILING number] [FLIPPED]
//! colref     := [alias .] column
//! ```
//!
//! A trailing `?` marks the predicate **error-prone**: its selectivity
//! becomes an ESS dimension (numbered in appearance order) instead of a
//! compile-time estimate. Unmarked predicates receive AVI estimates from
//! the catalog statistics — exactly the split the bouquet technique
//! prescribes — unless `SELECTIVITY` states the value. The clauses after a
//! `?` shape the dimension's axis ([`DimMark`]); `FLIPPED` is legal on a
//! NOT EXISTS only.

use std::fmt;

use pb_catalog::{Catalog, ColumnId};

use crate::query::{CmpOp, QueryBuilder, QuerySpec, SelSpec};

/// Parse error with byte position context.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub near: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (near `{}`)", self.message, self.near)
    }
}

impl std::error::Error for ParseError {}

/// What the clauses after one `?` say about its dimension's ESS axis. An
/// absent clause leaves the choice to whoever derives the ESS.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DimMark {
    /// `AS 'name'`: the axis name.
    pub name: Option<String>,
    /// `SPAN n`: the axis spans `n` decades below its upper bound.
    pub span: Option<f64>,
    /// `CEILING k`: the upper bound is `k` times the predicate's legal
    /// maximum (capped at 1).
    pub ceiling: Option<f64>,
    /// `FLIPPED`: the NOT EXISTS axis is declared reversed
    /// ([`SelSpec::Flipped`]), so plan costs increase along it.
    pub flipped: bool,
}

/// The unmarked estimate of an inequality join's pair density: System R's
/// default for an open range.
const INEQUALITY_JOIN_ESTIMATE: f64 = 1.0 / 3.0;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    /// A quoted axis name, `'…'`.
    Str(String),
    Star,
    Comma,
    Dot,
    LParen,
    RParen,
    Lt,
    Gt,
    Eq,
    Question,
}

fn lex(input: &str) -> Result<Vec<Tok>, ParseError> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '*' => {
                out.push(Tok::Star);
                chars.next();
            }
            ',' => {
                out.push(Tok::Comma);
                chars.next();
            }
            '.' => {
                out.push(Tok::Dot);
                chars.next();
            }
            '(' => {
                out.push(Tok::LParen);
                chars.next();
            }
            ')' => {
                out.push(Tok::RParen);
                chars.next();
            }
            '<' => {
                out.push(Tok::Lt);
                chars.next();
            }
            '>' => {
                out.push(Tok::Gt);
                chars.next();
            }
            '=' => {
                out.push(Tok::Eq);
                chars.next();
            }
            '?' => {
                out.push(Tok::Question);
                chars.next();
            }
            '\'' => {
                chars.next();
                let end = input[i + 1..].find('\'').ok_or_else(|| ParseError {
                    message: "unterminated string".into(),
                    near: input[i..].chars().take(12).collect(),
                })?;
                out.push(Tok::Str(input[i + 1..i + 1 + end].to_string()));
                while chars.next_if(|&(j, _)| j <= i + 1 + end).is_some() {}
            }
            c if c.is_ascii_digit() || c == '-' => {
                let start = i;
                chars.next();
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_ascii_digit()
                        || d == '.'
                        || d == 'e'
                        || d == 'E'
                        || d == '-'
                        || d == '+'
                    {
                        chars.next();
                    } else {
                        break;
                    }
                }
                let end = chars.peek().map(|&(j, _)| j).unwrap_or(input.len());
                let text = &input[start..end];
                let v: f64 = text.parse().map_err(|_| ParseError {
                    message: "bad number".into(),
                    near: text.into(),
                })?;
                out.push(Tok::Number(v));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                chars.next();
                while let Some(&(_, d)) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        chars.next();
                    } else {
                        break;
                    }
                }
                let end = chars.peek().map(|&(j, _)| j).unwrap_or(input.len());
                out.push(Tok::Ident(input[start..end].to_string()));
            }
            _ => {
                return Err(ParseError {
                    message: format!("unexpected character `{c}`"),
                    near: input[i..].chars().take(12).collect(),
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            near: format!("{:?}", self.toks.get(self.pos)),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            _ => {
                self.pos -= 1;
                Err(self.err(format!("expected {kw}")))
            }
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos -= 1;
                Err(self.err("expected identifier"))
            }
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        match self.next() {
            Some(Tok::Number(v)) => Ok(v),
            _ => {
                self.pos -= 1;
                Err(self.err("expected number"))
            }
        }
    }

    /// A finite positive number.
    fn positive(&mut self) -> Result<f64, ParseError> {
        let v = self.number()?;
        if v > 0.0 && v.is_finite() {
            Ok(v)
        } else {
            self.pos -= 1;
            Err(self.err("expected a positive number"))
        }
    }

    /// The selectivity clause that ends a predicate: `?` and its axis
    /// clauses (a new dimension, recorded in `marks`), `SELECTIVITY v`, or
    /// nothing (the catalog's `estimate`).
    fn selectivity(
        &mut self,
        marks: &mut Vec<DimMark>,
        existential: bool,
        estimate: impl FnOnce() -> f64,
    ) -> Result<SelSpec, ParseError> {
        if self.try_keyword("SELECTIVITY") {
            let v = self.positive()?;
            if v > 1.0 {
                self.pos -= 1;
                return Err(self.err("a selectivity is at most 1"));
            }
            return Ok(SelSpec::Fixed(v));
        }
        if !matches!(self.peek(), Some(Tok::Question)) {
            return Ok(SelSpec::Fixed(estimate()));
        }
        self.pos += 1;
        let mut mark = DimMark::default();
        loop {
            if self.try_keyword("AS") {
                match self.next() {
                    Some(Tok::Str(s)) => mark.name = Some(s),
                    _ => {
                        self.pos -= 1;
                        return Err(self.err("expected a quoted axis name after AS"));
                    }
                }
            } else if self.try_keyword("SPAN") {
                mark.span = Some(self.positive()?);
            } else if self.try_keyword("CEILING") {
                mark.ceiling = Some(self.positive()?);
            } else if self.try_keyword("FLIPPED") {
                if !existential {
                    return Err(self.err("FLIPPED applies to a NOT EXISTS only"));
                }
                mark.flipped = true;
            } else {
                break;
            }
        }
        marks.push(mark);
        Ok(SelSpec::ErrorProne(marks.len() - 1))
    }
}

/// A parsed column reference: optional qualifier + column name.
#[derive(Debug, Clone)]
struct ColRef {
    qualifier: Option<String>,
    column: String,
}

/// A column reference resolved against a FROM list.
struct Col {
    /// Position in the FROM list.
    rel: usize,
    name: String,
    id: ColumnId,
}

/// Resolve a column reference against the FROM list (alias, table-name).
fn resolve(catalog: &Catalog, from: &[(String, String)], c: &ColRef) -> Result<Col, ParseError> {
    let candidates: Vec<(usize, ColumnId)> = from
        .iter()
        .enumerate()
        .filter(|(_, (alias, _))| {
            c.qualifier
                .as_ref()
                .is_none_or(|q| q.eq_ignore_ascii_case(alias))
        })
        .filter_map(|(i, (_, table))| Some((i, catalog.table(table)?.column(&c.column)?.id)))
        .collect();
    match candidates[..] {
        [(rel, id)] => Ok(Col {
            rel,
            name: c.column.clone(),
            id,
        }),
        [] => Err(ParseError {
            message: format!("column `{}` not found in FROM list", c.column),
            near: c.column.clone(),
        }),
        _ => Err(ParseError {
            message: format!("column `{}` is ambiguous; qualify it", c.column),
            near: c.column.clone(),
        }),
    }
}

/// AVI estimates for unmarked predicates (the native optimizer's defaults).
fn estimate_selection(catalog: &Catalog, col: ColumnId, op: CmpOp, c1: f64, c2: f64) -> f64 {
    let stats = &catalog.table_by_id(col.table).columns[col.column as usize].stats;
    match op {
        CmpOp::Eq => stats.eq_selectivity(),
        CmpOp::Lt => stats.lt_selectivity(c1),
        CmpOp::Gt => 1.0 - stats.lt_selectivity(c1),
        CmpOp::Between => stats.range_selectivity(c2, c1),
    }
    .clamp(1e-9, 1.0)
}

/// The legal maximum of an equi-join's selectivity (Section 4.1), times
/// `multiple` and capped at 1: `multiple / max(NDV)` of the two join
/// columns. Under PK–FK containment the larger NDV is the PK relation's
/// cardinality, so the maximum is `1 / |PK relation|`. It is both the AVI
/// estimate of an unmarked equi-join and the upper bound of a `?`-join's
/// ESS axis.
pub fn join_ceiling(catalog: &Catalog, left: ColumnId, right: ColumnId, multiple: f64) -> f64 {
    let ndv = |c: ColumnId| {
        catalog.table_by_id(c.table).columns[c.column as usize]
            .stats
            .ndv
            .max(1.0)
    };
    (multiple / ndv(left).max(ndv(right))).min(1.0)
}

fn estimate_join(catalog: &Catalog, left: ColumnId, right: ColumnId) -> f64 {
    join_ceiling(catalog, left, right, 1.0).max(1e-12)
}

/// Parse `sql` into a [`QuerySpec`]; its error-prone dimensions are the
/// `?`-marked predicates, in order.
pub fn parse(catalog: &Catalog, sql: &str) -> Result<QuerySpec, ParseError> {
    parse_with_marks(catalog, sql).map(|(query, _)| query)
}

/// [`parse`], also returning each dimension's [`DimMark`] (indexed by
/// dimension).
pub fn parse_with_marks(
    catalog: &Catalog,
    sql: &str,
) -> Result<(QuerySpec, Vec<DimMark>), ParseError> {
    let toks = lex(sql)?;
    let mut p = Parser { toks, pos: 0 };

    p.keyword("SELECT")?;
    // COUNT(*) or *
    let counted = if p.try_keyword("COUNT") {
        match (p.next(), p.next(), p.next()) {
            (Some(Tok::LParen), Some(Tok::Star), Some(Tok::RParen)) => true,
            _ => return Err(p.err("expected COUNT(*)")),
        }
    } else {
        match p.next() {
            Some(Tok::Star) => false,
            _ => return Err(p.err("expected * or COUNT(*)")),
        }
    };
    let _ = counted; // COUNT(*) without GROUP BY is a single group; noted.

    p.keyword("FROM")?;
    let mut from: Vec<(String, String)> = Vec::new(); // (alias, table)
    loop {
        let table = p.ident()?;
        if catalog.table(&table).is_none() {
            return Err(ParseError {
                message: format!("unknown table `{table}`"),
                near: table,
            });
        }
        let alias = if p.try_keyword("AS") {
            p.ident()?
        } else {
            table.clone()
        };
        from.push((alias, table));
        if !matches!(p.peek(), Some(Tok::Comma)) {
            break;
        }
        p.next();
    }

    p.keyword("WHERE")?;
    let mut qb = QueryBuilder::new(catalog, "sql-query");
    let rels: Vec<usize> = from
        .iter()
        .map(|(alias, table)| qb.rel_aliased(table, alias))
        .collect();
    let mut marks = Vec::new();

    loop {
        // NOT EXISTS subquery?
        if p.try_keyword("NOT") {
            p.keyword("EXISTS")?;
            match p.next() {
                Some(Tok::LParen) => {}
                _ => return Err(p.err("expected ( after NOT EXISTS")),
            }
            p.keyword("SELECT")?;
            match p.next() {
                Some(Tok::Star) => {}
                _ => return Err(p.err("expected * in subquery")),
            }
            p.keyword("FROM")?;
            let sub_table = p.ident()?;
            if catalog.table(&sub_table).is_none() {
                return Err(ParseError {
                    message: format!("unknown table `{sub_table}`"),
                    near: sub_table,
                });
            }
            let sub_alias = if p.try_keyword("AS") {
                p.ident()?
            } else {
                sub_table.clone()
            };
            p.keyword("WHERE")?;
            let a = parse_colref(&mut p)?;
            match p.next() {
                Some(Tok::Eq) => {}
                _ => return Err(p.err("expected = in subquery predicate")),
            }
            let b = parse_colref(&mut p)?;
            match p.next() {
                Some(Tok::RParen) => {}
                _ => return Err(p.err("expected ) closing subquery")),
            }
            // One side resolves in the subquery scope, the other outside.
            let sub_scope = vec![(sub_alias.clone(), sub_table.clone())];
            let (inner_ref, outer_ref) = if resolve(catalog, &sub_scope, &a).is_ok() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            let inner = resolve(catalog, &sub_scope, inner_ref)?;
            let outer = resolve(catalog, &from, outer_ref)?;
            let sel = p.selectivity(&mut marks, true, || {
                estimate_join(catalog, outer.id, inner.id)
            })?;
            let sub_rel = qb.rel_aliased(&sub_table, &sub_alias);
            qb.anti_join(rels[outer.rel], &outer.name, sub_rel, &inner.name, sel);
        } else {
            let lhs = parse_colref(&mut p)?;
            // BETWEEN?
            if p.try_keyword("BETWEEN") {
                let lo = p.number()?;
                p.keyword("AND")?;
                let hi = p.number()?;
                let c = resolve(catalog, &from, &lhs)?;
                let sel = p.selectivity(&mut marks, false, || {
                    estimate_selection(catalog, c.id, CmpOp::Between, hi, lo)
                })?;
                qb.select_between(rels[c.rel], &c.name, lo, hi, sel);
            } else {
                let op = match p.next() {
                    Some(Tok::Lt) => CmpOp::Lt,
                    Some(Tok::Gt) => CmpOp::Gt,
                    Some(Tok::Eq) => CmpOp::Eq,
                    _ => return Err(p.err("expected comparison operator")),
                };
                match p.peek() {
                    Some(Tok::Number(_)) => {
                        let v = p.number()?;
                        let c = resolve(catalog, &from, &lhs)?;
                        let sel = p.selectivity(&mut marks, false, || {
                            estimate_selection(catalog, c.id, op, v, f64::MIN)
                        })?;
                        qb.select(rels[c.rel], &c.name, op, v, sel);
                    }
                    None => return Err(p.err("expected number or column after comparison")),
                    _ => {
                        let rhs = parse_colref(&mut p)?;
                        let l = resolve(catalog, &from, &lhs)?;
                        let r = resolve(catalog, &from, &rhs)?;
                        if l.rel == r.rel {
                            return Err(p.err("join predicate compares a relation with itself"));
                        }
                        let sel = p.selectivity(&mut marks, false, || match op {
                            CmpOp::Eq => estimate_join(catalog, l.id, r.id),
                            _ => INEQUALITY_JOIN_ESTIMATE,
                        })?;
                        let (lr, rr) = (rels[l.rel], rels[r.rel]);
                        match op {
                            CmpOp::Eq => qb.join(lr, &l.name, rr, &r.name, sel),
                            _ => qb.ineq_join(lr, &l.name, op, rr, &r.name, sel),
                        };
                    }
                }
            }
        }
        if !p.try_keyword("AND") {
            break;
        }
    }

    // Optional GROUP BY.
    if p.try_keyword("GROUP") {
        p.keyword("BY")?;
        loop {
            let c = parse_colref(&mut p)?;
            let c = resolve(catalog, &from, &c)?;
            qb.group_by(rels[c.rel], &c.name);
            if !matches!(p.peek(), Some(Tok::Comma)) {
                break;
            }
            p.next();
        }
    }

    if p.peek().is_some() {
        return Err(p.err("trailing input"));
    }
    // `build` panics on a structurally invalid query, and text is outside
    // input: what the grammar cannot rule out is rejected here.
    if qb.spec().relations.len() > 32 {
        return Err(p.err("more than 32 relations"));
    }
    if !qb.spec().join_graph().is_connected() {
        return Err(p.err(
            "join predicates do not connect the FROM list (cross products are not supported)",
        ));
    }
    Ok((qb.build(), marks))
}

fn parse_colref(p: &mut Parser) -> Result<ColRef, ParseError> {
    let first = p.ident()?;
    if matches!(p.peek(), Some(Tok::Dot)) {
        p.next();
        let column = p.ident()?;
        Ok(ColRef {
            qualifier: Some(first),
            column,
        })
    } else {
        Ok(ColRef {
            qualifier: None,
            column: first,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_catalog::tpch;

    #[test]
    fn parses_the_papers_eq_query() {
        let cat = tpch::catalog(1.0);
        let q = parse(
            &cat,
            "SELECT * FROM lineitem, orders, part \
             WHERE p_partkey = l_partkey AND l_orderkey = o_orderkey \
             AND p_retailprice < 1000?",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.num_dims, 1);
        // The marked predicate became dim 0; joins are fixed AVI estimates.
        assert!(q.joins.iter().all(|j| j.selectivity.error_dim().is_none()));
        let sel = &q.relations[2].selections[0];
        assert_eq!(sel.selectivity.error_dim(), Some(0));
        assert_eq!(sel.op, CmpOp::Lt);
    }

    #[test]
    fn marked_joins_become_dims_in_order() {
        let cat = tpch::catalog(1.0);
        let q = parse(
            &cat,
            "SELECT * FROM part, lineitem, orders \
             WHERE p_partkey = l_partkey? AND l_orderkey = o_orderkey?",
        )
        .unwrap();
        assert_eq!(q.num_dims, 2);
        assert_eq!(q.joins[0].selectivity.error_dim(), Some(0));
        assert_eq!(q.joins[1].selectivity.error_dim(), Some(1));
    }

    #[test]
    fn aliases_and_qualified_columns() {
        let cat = tpch::catalog(1.0);
        let q = parse(
            &cat,
            "SELECT * FROM nation AS n1, supplier AS s, customer AS c, nation AS n2 \
             WHERE n1.n_nationkey = s.s_nationkey AND s.s_suppkey > 10 \
             AND c.c_nationkey = n2.n_nationkey AND c.c_acctbal < 0? \
             AND s.s_nationkey = c.c_nationkey",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 4);
        assert_eq!(q.relations[0].alias, "n1");
        assert_eq!(q.relations[3].alias, "n2");
        assert_eq!(q.num_dims, 1);
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        let cat = tpch::catalog(1.0);
        let err = parse(
            &cat,
            "SELECT * FROM nation AS a, nation AS b WHERE n_nationkey = n_regionkey",
        )
        .unwrap_err();
        assert!(err.message.contains("ambiguous"), "{err}");
    }

    #[test]
    fn not_exists_becomes_anti_join() {
        let cat = tpch::catalog(1.0);
        let q = parse(
            &cat,
            "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey \
             AND NOT EXISTS (SELECT * FROM partsupp WHERE ps_partkey = p_partkey)?",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 3);
        let anti = q.joins.iter().find(|j| j.anti).expect("anti edge");
        assert_eq!(anti.selectivity.error_dim(), Some(0));
    }

    #[test]
    fn between_and_group_by() {
        let cat = tpch::catalog(1.0);
        let q = parse(
            &cat,
            "SELECT COUNT(*) FROM part, lineitem \
             WHERE p_partkey = l_partkey? AND p_size BETWEEN 5 AND 10 \
             GROUP BY p_brand",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        let between = &q.relations[0].selections[0];
        assert_eq!(between.op, CmpOp::Between);
        assert_eq!(between.constant2, 5.0);
        assert_eq!(between.constant, 10.0);
        // Fixed estimate ≈ 6/50 for p_size in [1,50].
        if let SelSpec::Fixed(v) = between.selectivity {
            assert!((v - 0.1).abs() < 0.05, "{v}");
        } else {
            panic!("unmarked BETWEEN should be fixed");
        }
    }

    #[test]
    fn axis_clauses_and_stated_selectivities() {
        let cat = tpch::catalog(1.0);
        let (q, marks) = parse_with_marks(
            &cat,
            "SELECT * FROM part, lineitem, supplier \
             WHERE p_partkey = l_partkey SELECTIVITY 1e-5 \
             AND p_size < s_acctbal ? AS 'p<s' SPAN 3 CEILING 0.5 \
             AND NOT EXISTS (SELECT * FROM partsupp WHERE ps_partkey = l_partkey) ? FLIPPED",
        )
        .unwrap();
        assert_eq!(q.joins[0].selectivity, SelSpec::Fixed(1e-5));
        assert_eq!(q.joins[1].op, CmpOp::Lt);
        assert_eq!(q.dim_kind(0), Some(crate::DimKind::InequalityJoin));
        assert_eq!(q.dim_kind(1), Some(crate::DimKind::AntiJoin));
        assert_eq!(
            marks,
            [
                DimMark {
                    name: Some("p<s".into()),
                    span: Some(3.0),
                    ceiling: Some(0.5),
                    flipped: false,
                },
                DimMark {
                    flipped: true,
                    ..DimMark::default()
                },
            ]
        );
        // Unmarked: an inequality join reads System R's default, an
        // equi-join the PK side's 1/NDV.
        let q = parse(
            &cat,
            "SELECT * FROM part, lineitem, supplier \
             WHERE p_partkey = l_partkey AND s_acctbal > p_size AND p_size < 3?",
        )
        .unwrap();
        assert_eq!(q.joins[0].selectivity, SelSpec::Fixed(1.0 / 200_000.0));
        assert_eq!(q.joins[1].selectivity, SelSpec::Fixed(1.0 / 3.0));
        assert_eq!(q.joins[1].op, CmpOp::Gt);
    }

    #[test]
    fn error_messages_are_located() {
        let cat = tpch::catalog(1.0);
        for (sql, frag) in [
            ("SELECT * FROM nosuch WHERE a = b", "unknown table"),
            ("SELECT * FROM part WHERE p_zzz < 3", "not found"),
            (
                "SELECT * FROM part WHERE p_size < ",
                "expected number or column",
            ),
            ("FROM part", "expected SELECT"),
            (
                "SELECT * FROM part WHERE p_size < 3 GROUP p_brand",
                "expected BY",
            ),
            (
                "SELECT * FROM part WHERE p_size < 3 EXTRA",
                "trailing input",
            ),
            (
                "SELECT * FROM part WHERE p_size < 3 ? FLIPPED",
                "NOT EXISTS only",
            ),
            (
                "SELECT * FROM part WHERE p_size < 3 SELECTIVITY 2",
                "at most 1",
            ),
            (
                "SELECT * FROM part WHERE p_size < 3 ? SPAN -1",
                "positive number",
            ),
            (
                "SELECT * FROM part WHERE p_size < 3 ? AS p",
                "quoted axis name",
            ),
            (
                "SELECT * FROM part WHERE p_size < 3 ? AS 'p",
                "unterminated string",
            ),
        ] {
            let err = parse(&cat, sql).unwrap_err();
            assert!(err.message.contains(frag), "{sql}: {err}");
        }
    }
}
