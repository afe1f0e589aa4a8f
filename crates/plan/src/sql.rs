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
//! pred       := colref CMP colref            -- equi-join
//!             | colref CMP number [?]        -- selection
//!             | colref BETWEEN number AND number [?]
//!             | NOT EXISTS '(' SELECT STAR FROM table [AS alias]
//!                              WHERE colref = colref ')' [?]
//! colref     := [alias .] column
//! ```
//!
//! A trailing `?` marks the predicate **error-prone**: its selectivity
//! becomes an ESS dimension (numbered in appearance order) instead of a
//! compile-time estimate. Unmarked predicates receive AVI estimates from
//! the catalog statistics — exactly the split the bouquet technique
//! prescribes.

use std::fmt;

use pb_catalog::Catalog;

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

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
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
}

/// A parsed column reference: optional qualifier + column name.
#[derive(Debug, Clone)]
struct ColRef {
    qualifier: Option<String>,
    column: String,
}

/// Resolve a column reference against the FROM list (alias, table-name).
fn resolve(
    catalog: &Catalog,
    from: &[(String, String)],
    c: &ColRef,
) -> Result<(usize, String), ParseError> {
    let candidates: Vec<usize> = from
        .iter()
        .enumerate()
        .filter(|(_, (alias, table))| {
            if let Some(q) = &c.qualifier {
                if !q.eq_ignore_ascii_case(alias) {
                    return false;
                }
            }
            catalog
                .table(table)
                .is_some_and(|t| t.column(&c.column).is_some())
        })
        .map(|(i, _)| i)
        .collect();
    match candidates.len() {
        1 => Ok((candidates[0], c.column.clone())),
        0 => Err(ParseError {
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
fn estimate_selection(
    catalog: &Catalog,
    table: &str,
    col: &str,
    op: CmpOp,
    c1: f64,
    c2: f64,
) -> f64 {
    let stats = &catalog.table(table).unwrap().column(col).unwrap().stats;
    match op {
        CmpOp::Eq => stats.eq_selectivity(),
        CmpOp::Lt => stats.lt_selectivity(c1),
        CmpOp::Gt => 1.0 - stats.lt_selectivity(c1),
        CmpOp::Between => stats.range_selectivity(c2, c1),
    }
    .clamp(1e-9, 1.0)
}

fn estimate_join(catalog: &Catalog, lt: &str, lc: &str, rt: &str, rc: &str) -> f64 {
    let ndv = |t: &str, c: &str| {
        catalog
            .table(t)
            .unwrap()
            .column(c)
            .unwrap()
            .stats
            .ndv
            .max(1.0)
    };
    (1.0 / ndv(lt, lc).max(ndv(rt, rc))).clamp(1e-12, 1.0)
}

/// Parse `sql` into a [`QuerySpec`]. Returns the spec and the number of
/// error-prone dimensions found (`?`-marked predicates, in order).
pub fn parse(catalog: &Catalog, sql: &str) -> Result<QuerySpec, ParseError> {
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
    let mut next_dim = 0usize;

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
            let marked = matches!(p.peek(), Some(Tok::Question));
            if marked {
                p.next();
            }
            // One side resolves in the subquery scope, the other outside.
            let sub_scope = vec![(sub_alias.clone(), sub_table.clone())];
            let (inner_ref, outer_ref) = if resolve(catalog, &sub_scope, &a).is_ok() {
                (&a, &b)
            } else {
                (&b, &a)
            };
            let (_, inner_col) = resolve(catalog, &sub_scope, inner_ref)?;
            let (outer_rel, outer_col) = resolve(catalog, &from, outer_ref)?;
            let sub_rel = qb.rel_aliased(&sub_table, &sub_alias);
            let sel = if marked {
                let d = next_dim;
                next_dim += 1;
                SelSpec::ErrorProne(d)
            } else {
                SelSpec::Fixed(estimate_join(
                    catalog,
                    &from[outer_rel].1,
                    &outer_col,
                    &sub_table,
                    &inner_col,
                ))
            };
            qb.anti_join(rels[outer_rel], &outer_col, sub_rel, &inner_col, sel);
        } else {
            let lhs = parse_colref(&mut p)?;
            // BETWEEN?
            if p.try_keyword("BETWEEN") {
                let lo = p.number()?;
                p.keyword("AND")?;
                let hi = p.number()?;
                let marked = matches!(p.peek(), Some(Tok::Question));
                if marked {
                    p.next();
                }
                let (rel, col) = resolve(catalog, &from, &lhs)?;
                let sel = if marked {
                    let d = next_dim;
                    next_dim += 1;
                    SelSpec::ErrorProne(d)
                } else {
                    SelSpec::Fixed(estimate_selection(
                        catalog,
                        &from[rel].1,
                        &col,
                        CmpOp::Between,
                        hi,
                        lo,
                    ))
                };
                qb.select_between(rels[rel], &col, lo, hi, sel);
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
                        let marked = matches!(p.peek(), Some(Tok::Question));
                        if marked {
                            p.next();
                        }
                        let (rel, col) = resolve(catalog, &from, &lhs)?;
                        let sel = if marked {
                            let d = next_dim;
                            next_dim += 1;
                            SelSpec::ErrorProne(d)
                        } else {
                            SelSpec::Fixed(estimate_selection(
                                catalog,
                                &from[rel].1,
                                &col,
                                op,
                                v,
                                f64::MIN,
                            ))
                        };
                        qb.select(rels[rel], &col, op, v, sel);
                    }
                    None => return Err(p.err("expected number or column after comparison")),
                    _ => {
                        if op != CmpOp::Eq {
                            return Err(p.err("join predicates must use ="));
                        }
                        let rhs = parse_colref(&mut p)?;
                        let marked = matches!(p.peek(), Some(Tok::Question));
                        if marked {
                            p.next();
                        }
                        let (lr, lc) = resolve(catalog, &from, &lhs)?;
                        let (rr, rc) = resolve(catalog, &from, &rhs)?;
                        if lr == rr {
                            return Err(p.err("join predicate compares a relation with itself"));
                        }
                        let sel = if marked {
                            let d = next_dim;
                            next_dim += 1;
                            SelSpec::ErrorProne(d)
                        } else {
                            SelSpec::Fixed(estimate_join(
                                catalog,
                                &from[lr].1,
                                &lc,
                                &from[rr].1,
                                &rc,
                            ))
                        };
                        qb.join(rels[lr], &lc, rels[rr], &rc, sel);
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
            let (rel, col) = resolve(catalog, &from, &c)?;
            qb.group_by(rels[rel], &col);
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
    Ok(qb.build())
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
        ] {
            let err = parse(&cat, sql).unwrap_err();
            assert!(err.message.contains(frag), "{sql}: {err}");
        }
    }
}
