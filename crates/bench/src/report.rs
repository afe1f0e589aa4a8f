//! What every benchmark report goes through on its way out: the 2-space
//! pretty-printer of the committed artifacts, the section merge behind
//! `--json`, and the baseline comparison behind `pbq bench-check`.
//!
//! [`compare`] diffs a current report against a committed baseline and
//! every leaf must be equal: what `bench-check` gates are facts in cost
//! units — decision sequences, MSO/ASO, counts, identity booleans — and
//! wall-clock is `benchmark/`'s to judge, over pairs of runs.

use serde::{Serialize, Value};

/// Numeric view of a leaf across the parser's `Int`/`UInt`/`Float` split.
fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Structural diff of `current` against `baseline`: same keys, same array
/// lengths, every leaf equal. Returns one line per differing path (empty ⇒
/// the reports state the same facts).
pub fn compare(baseline: &Value, current: &Value) -> Vec<String> {
    let mut diffs = Vec::new();
    compare_at(baseline, current, "", &mut diffs);
    diffs
}

fn compare_at(baseline: &Value, current: &Value, path: &str, diffs: &mut Vec<String>) {
    match (baseline, current) {
        (Value::Obj(b), Value::Obj(c)) => {
            for (k, bv) in b {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match serde::find(c, k) {
                    Some(cv) => compare_at(bv, cv, &p, diffs),
                    None => diffs.push(format!("{p}: missing from current report")),
                }
            }
            for (k, _) in c {
                if serde::find(b, k).is_none() {
                    diffs.push(format!("{path}.{k}: not in baseline (run with --update)"));
                }
            }
        }
        (Value::Arr(b), Value::Arr(c)) => {
            if b.len() != c.len() {
                diffs.push(format!(
                    "{path}: length {} vs baseline {}",
                    c.len(),
                    b.len()
                ));
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                compare_at(bv, cv, &format!("{path}[{i}]"), diffs);
            }
        }
        (b, c) => {
            // Numeric leaves compare by value so 2 == 2.0 across the
            // Int/UInt/Float split the parser introduces.
            let same = match (as_f64(b), as_f64(c)) {
                (Some(bn), Some(cn)) => bn == cn,
                _ => b == c,
            };
            if !same {
                let j = |v: &Value| serde_json::to_string(v).unwrap_or_else(|_| "null".into());
                diffs.push(format!("{path}: {} != baseline {}", j(c), j(b)));
            }
        }
    }
}

/// Render a report with 2-space indentation (the committed-artifact format;
/// the compat `serde_json::to_string` writer is compact).
pub fn to_pretty(v: &Value) -> String {
    let mut out = String::new();
    pretty_at(v, 0, &mut out);
    out.push('\n');
    out
}

fn pretty_at(v: &Value, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    match v {
        Value::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                out.push_str(&pad);
                out.push('"');
                out.push_str(k);
                out.push_str("\": ");
                pretty_at(val, depth + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty_at(item, depth + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(depth));
            out.push(']');
        }
        leaf => out.push_str(&serde_json::to_string(leaf).unwrap_or_else(|_| "null".into())),
    }
}

/// A report as a JSON section: its derived [`Serialize`] value, minus the
/// optional measurements this run did not take (`None` fields).
fn section(report: &impl Serialize) -> Value {
    match report.to_value() {
        Value::Obj(pairs) => Value::Obj(
            pairs
                .into_iter()
                .filter(|(_, v)| *v != Value::Null)
                .collect(),
        ),
        other => other,
    }
}

/// Write `report` as the whole of the JSON file at `path`.
pub fn write_json(path: &str, report: &impl Serialize) -> Result<(), String> {
    std::fs::write(path, to_pretty(&report.to_value())).map_err(|e| format!("{path}: {e}"))?;
    println!("  wrote {path}");
    Ok(())
}

/// Replace (or append) one top-level section of the JSON report at `path`,
/// keeping the other sections intact — several CI steps merge into the one
/// `BENCH_identify.json` artifact this way. A missing file starts a new
/// report; a file that is there but is not a JSON object is an error, never
/// an empty report to overwrite.
pub fn merge_json_section(path: &str, key: &str, report: &impl Serialize) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<Value>(&text) {
            Ok(Value::Obj(pairs)) => pairs,
            Ok(_) => return Err(format!("{path}: not a JSON object; left as it is")),
            Err(e) => return Err(format!("{path}: {e}; left as it is")),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let value = section(report);
    match doc.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => doc.push((key.to_string(), value)),
    }
    std::fs::write(path, to_pretty(&Value::Obj(doc))).map_err(|e| format!("{path}: {e}"))?;
    println!("  wrote {path} (section \"{key}\")");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Value {
        serde_json::from_str(text).expect("test document parses")
    }

    /// `doc` with the value of its top-level `key` replaced.
    fn with(doc: &Value, key: &str, value: Value) -> Value {
        let mut pairs = doc.as_obj().expect("object").to_vec();
        for (k, v) in &mut pairs {
            if k == key {
                *v = value.clone();
            }
        }
        Value::Obj(pairs)
    }

    #[test]
    fn compare_is_exact_and_names_the_path() {
        let base = json(
            r#"{"bou_mso": 7.340000000000001, "sheds_load": true, "execs": 7,
                "nested": {"reused_cost": 16062.342187500002}}"#,
        );
        // Equal by value across the Int/UInt/Float split: clean.
        assert!(compare(&base, &with(&base, "execs", Value::Float(7.0))).is_empty());
        // A last-digit change in a cost, a flipped bool, a changed count.
        for (key, value, path) in [
            ("bou_mso", Value::Float(7.340000000000002), "bou_mso"),
            ("sheds_load", Value::Bool(false), "sheds_load"),
            ("execs", Value::UInt(8), "execs"),
            (
                "nested",
                json(r#"{"reused_cost": 16062.342187500004}"#),
                "nested.reused_cost",
            ),
        ] {
            let diffs = compare(&base, &with(&base, key, value));
            assert_eq!(diffs.len(), 1, "{diffs:?}");
            assert!(diffs[0].starts_with(&format!("{path}: ")), "{diffs:?}");
        }
    }

    #[test]
    fn compare_flags_shape_changes() {
        let base = json(r#"{"curve": [{"workers": 1, "cost": 1.0}]}"#);
        let grown =
            json(r#"{"curve": [{"workers": 1, "cost": 1.0}, {"workers": 2, "cost": 1.0}]}"#);
        assert!(!compare(&base, &grown).is_empty());
        let renamed = json(r#"{"curve": [{"workers": 1, "price": 1.0}]}"#);
        assert_eq!(compare(&base, &renamed).len(), 2);
    }

    #[test]
    fn pretty_report_parses_back() {
        let v = json(r#"{"name": "x", "xs": [1, 2], "t_s": 0.25}"#);
        assert_eq!(json(&to_pretty(&v)), v);
    }

    #[test]
    fn merge_keeps_other_sections_and_refuses_what_it_cannot_parse() {
        let dir = std::env::temp_dir().join(format!("pb-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("report.json");
        let path = path.to_str().expect("utf-8 temp path");

        // A missing file starts a new report; a second section joins it,
        // minus the measurement it did not take.
        merge_json_section(path, "a", &json(r#"{"x": 1}"#)).expect("new report");
        merge_json_section(path, "b", &json(r#"{"y": null}"#)).expect("second section");
        let both = std::fs::read_to_string(path).expect("read");
        assert_eq!(both, "{\n  \"a\": {\n    \"x\": 1\n  },\n  \"b\": {}\n}\n");

        // Truncated mid-write, or not an object: an error naming the path,
        // and the file left byte for byte as it was.
        for damaged in [&both[..both.len() / 2], "[1, 2]"] {
            std::fs::write(path, damaged).expect("write");
            let err = merge_json_section(path, "c", &Value::UInt(3)).expect_err("must refuse");
            assert!(err.starts_with(path), "{err}");
            assert_eq!(std::fs::read_to_string(path).expect("read"), damaged);
        }
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
