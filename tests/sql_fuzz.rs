//! Seeded mutation of SQL text — the bytes `pbq sql` and every registry
//! space hand to `workload_from_sql`. Each case takes one input (a registry
//! space's SQL string, or one example of each syntax form the registry
//! added), mutates it (a bit flip, a truncation, a splice of another
//! input's tokens, a run of repeated `?` or axis-clause tokens, or a run of
//! `(` up to 20,000 long) and builds a workload from it against the TPC-H
//! and the TPC-DS catalog. The build must end in a workload or in a typed
//! `ParseError`: nothing may panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use proptest::prelude::*;

use plan_bouquet::catalog::{tpcds, tpch, Catalog};
use plan_bouquet::workloads::{sql_texts, workload_from_sql};

/// One example of each syntax form the registry's text needs beyond a
/// bare `?`.
const FORMS: &[&str] = &[
    // A named axis with its own span and a multiple of the PK–FK maximum.
    "SELECT * FROM part, lineitem, orders \
     WHERE p_partkey = l_partkey ? AS 'p⋈l' SPAN 3.5 CEILING 50 \
     AND l_orderkey = o_orderkey ? AS 'l⋈o' CEILING 100",
    // A stated selectivity on an unmarked predicate.
    "SELECT * FROM part, lineitem, orders WHERE p_retailprice < 1000 ? \
     AND p_partkey = l_partkey AND l_orderkey = o_orderkey SELECTIVITY 6.7e-7",
    // Inequality joins, both directions.
    "SELECT * FROM part, lineitem, supplier WHERE p_partkey = l_partkey \
     AND p_size < s_acctbal ? AS 'p<s' SPAN 3",
    "SELECT * FROM part, supplier WHERE s_acctbal > p_size SELECTIVITY 0.25 \
     AND p_retailprice < 1000 ?",
    // A flipped NOT EXISTS axis.
    "SELECT * FROM part, lineitem WHERE p_partkey = l_partkey \
     AND NOT EXISTS (SELECT * FROM partsupp WHERE ps_partkey = l_partkey) \
     ? AS 'anti l⋈ps' CEILING 100 FLIPPED",
];

/// Tokens a mutation repeats: the mark, every axis clause, and the values
/// at the edges of what the clauses accept.
const REPEATS: &[&str] = &[
    "?",
    "? AS 'x'",
    "AS",
    "'",
    "SPAN 1e308",
    "SPAN 1e-300",
    "CEILING 1e-320",
    "CEILING 1e308",
    "FLIPPED",
    "SELECTIVITY 1e-320",
    "SELECTIVITY 2",
    "NOT EXISTS",
];

fn inputs() -> &'static [String] {
    static I: OnceLock<Vec<String>> = OnceLock::new();
    I.get_or_init(|| {
        sql_texts()
            .map(|(_, sql)| sql.to_string())
            .chain(FORMS.iter().map(|s| s.to_string()))
            .collect()
    })
}

fn catalogs() -> &'static [Catalog; 2] {
    static C: OnceLock<[Catalog; 2]> = OnceLock::new();
    C.get_or_init(|| [tpch::catalog(1.0), tpcds::catalog(100.0)])
}

/// One seeded mutation of `sql`; `x` and `y` are uniform draws in [0, 1).
fn mutate(sql: &str, other: &str, kind: usize, x: f64, y: f64) -> String {
    let at = |len: usize, u: f64| ((len as f64 * u) as usize).min(len.saturating_sub(1));
    let mut bytes = sql.as_bytes().to_vec();
    let words: Vec<&str> = sql.split(' ').collect();
    let splice = |insert: &str| {
        let to = at(words.len() + 1, x);
        let mut w = words.clone();
        w.insert(to, insert);
        w.join(" ")
    };
    match kind {
        // A bit anywhere (text that is no longer UTF-8 is read lossily, as
        // a shell argument would be refused before it).
        0 => {
            bytes[at(sql.len(), x)] ^= 1 << at(8, y);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Truncation.
        1 => {
            bytes.truncate(at(sql.len(), x));
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // A run of the other input's tokens inside this one.
        2 => {
            let theirs: Vec<&str> = other.split(' ').collect();
            let len = 1 + at(8, y).min(theirs.len() - 1);
            let from = at(theirs.len() - len + 1, y);
            splice(&theirs[from..from + len].join(" "))
        }
        // A repeated mark or axis-clause token.
        3 => {
            let token = REPEATS[at(REPEATS.len(), y)];
            let times = 1 + at(6, (y * 7.0).fract());
            splice(&vec![token; times].join(" "))
        }
        // A run of `(`, from one to 20,000 long.
        _ => splice(&"(".repeat(1 + (20_000.0 * y * y * y) as usize)),
    }
}

fn build_all(sql: &str) -> Result<(), String> {
    for cat in catalogs() {
        catch_unwind(AssertUnwindSafe(|| {
            let _ = workload_from_sql(cat, sql, "FUZZ", 4.0, 4);
        }))
        .map_err(|_| format!("panicked on {sql:?} against {}", cat.name))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn mutated_sql_builds_or_is_refused(
        which in 0usize..64,
        kind in 0usize..5,
        x in 0.0f64..1.0,
        y in 0.0f64..1.0,
    ) {
        let inputs = inputs();
        let which = which % inputs.len();
        let sql = mutate(&inputs[which], &inputs[(which + 1) % inputs.len()], kind, x, y);
        let built = build_all(&sql);
        prop_assert!(built.is_ok(), "input {which}, mutation {kind} at ({x}, {y}): {built:?}");
    }
}

/// The property is not vacuous: every unmutated input builds against its
/// own catalog.
#[test]
fn the_pristine_inputs_build() {
    let [h, ds] = catalogs();
    for sql in inputs() {
        let built = [h, ds]
            .iter()
            .any(|cat| workload_from_sql(cat, sql, "SEED", 4.0, 4).is_ok());
        assert!(built, "{sql}");
    }
}
