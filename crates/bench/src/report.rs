//! What every benchmark report goes through on its way out: the 2-space
//! pretty-printer of the committed artifacts and the section merge behind
//! `--json`.

use serde::{Serialize, Value};

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
