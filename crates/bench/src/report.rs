//! What every benchmark report goes through on its way out: the 2-space
//! pretty-printer of the committed artifacts, the section merge behind
//! `--json`, and the baseline comparison behind `pbq bench-check`.
//!
//! [`compare`] diffs a current report against a committed baseline: numeric
//! fields that measure wall-clock time or derived ratios (keys ending in
//! `_s` or `_gain`, plus `speedup*`) are compared within a relative
//! tolerance band (one-sided for `_s`: only slower fails); every other
//! field — equality/identity booleans, check counts, shapes — must match
//! exactly. The CI `bench-regression` job fails on any diff.

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

/// Wall-clock fields (`*_s`): may not exceed the baseline by more than the
/// relative tolerance plus an absolute noise floor (faster is never a
/// failure). Everything else must match the baseline exactly, except ratio
/// fields (see [`is_ratio_key`]).
fn is_timing_key(key: &str) -> bool {
    key.ends_with("_s")
}

/// Derived-ratio fields (`speedup*`, `*_gain`): quotients of two noisy
/// timings, so they get a multiplicative factor-of-2 band — loose enough
/// for scheduler jitter on short phases, tight enough that a vectorization
/// or compilation collapse (a 4x ratio dropping to ~1x) still fails the gate.
fn is_ratio_key(key: &str) -> bool {
    key.ends_with("_gain") || key.starts_with("speedup")
}

/// Recursively diff `current` against `baseline`. Timing fields (per
/// [`is_timing_key`]) may be slower by `tol` (relative, e.g. `0.25` = +25%);
/// all other leaves — booleans, counts, names — must be equal. Returns the
/// list of human-readable violations (empty ⇒ no regression).
pub fn compare(baseline: &Value, current: &Value, tol: f64) -> Vec<String> {
    let mut diffs = Vec::new();
    compare_at(baseline, current, tol, "", &mut diffs);
    diffs
}

fn compare_at(baseline: &Value, current: &Value, tol: f64, path: &str, diffs: &mut Vec<String>) {
    match (baseline, current) {
        (Value::Obj(b), Value::Obj(c)) => {
            for (k, bv) in b {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match serde::find(c, k) {
                    Some(cv) if is_timing_key(k) || is_ratio_key(k) => {
                        let (Some(bn), Some(cn)) = (as_f64(bv), as_f64(cv)) else {
                            diffs.push(format!("{p}: timing field is not numeric"));
                            continue;
                        };
                        if is_timing_key(k) {
                            // Relative band above the baseline plus a 15ms
                            // additive noise term: scheduler jitter on
                            // phases that finish in milliseconds cannot
                            // fail the gate, while a 2x regression on the
                            // phases that dominate wall-clock still does.
                            // One-sided: a speed-up is reported, not failed.
                            let band = bn.abs() * tol + 0.015;
                            if cn - bn > band {
                                diffs.push(format!(
                                    "{p}: {cn:.6} more than {:.0}% above baseline {bn:.6}",
                                    tol * 100.0
                                ));
                            } else if bn - cn > band {
                                println!(
                                    "  {p}: {cn:.6} vs baseline {bn:.6}: improved — re-baseline with --update"
                                );
                            }
                        } else if cn < bn / 2.0 || cn > bn * 2.0 {
                            diffs.push(format!(
                                "{p}: ratio {cn:.3} outside [x0.5, x2] of baseline {bn:.3}"
                            ));
                        }
                    }
                    Some(cv) => compare_at(bv, cv, tol, &p, diffs),
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
                compare_at(bv, cv, tol, &format!("{path}[{i}]"), diffs);
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
    fn compare_bands_timing_and_pins_identity() {
        let base = json(
            r#"{"total_s": 1.0, "speedup": 4.0, "equality_ok": true, "plans": 6,
                "nested": {"wall_s": 0.5}}"#,
        );
        // Within ±25% on timings, identical elsewhere: clean.
        let ok = json(
            r#"{"total_s": 1.2, "speedup": 3.2, "equality_ok": true, "plans": 6,
                "nested": {"wall_s": 0.55}}"#,
        );
        assert!(compare(&base, &ok, 0.25).is_empty());
        // Timing outside the band.
        let slow = with(&ok, "total_s", Value::Float(1.3));
        assert_eq!(compare(&base, &slow, 0.25).len(), 1);
        // Faster than the band is an improvement, not a regression.
        let fast = with(&ok, "total_s", Value::Float(0.3));
        assert!(compare(&base, &fast, 0.25).is_empty());
        // Identity field flipped: exact comparison, no band.
        let broken = with(&ok, "equality_ok", Value::Bool(false));
        assert_eq!(compare(&base, &broken, 0.25).len(), 1);
        // Ratio collapse beyond the factor-of-2 band.
        let collapsed = with(&ok, "speedup", Value::Float(1.5));
        assert_eq!(compare(&base, &collapsed, 0.25).len(), 1);
    }

    #[test]
    fn compare_flags_shape_changes() {
        let base = json(r#"{"curve": [{"workers": 1, "wall_s": 1.0}]}"#);
        let grown =
            json(r#"{"curve": [{"workers": 1, "wall_s": 1.0}, {"workers": 2, "wall_s": 1.0}]}"#);
        assert!(!compare(&base, &grown, 0.25).is_empty());
        let renamed = json(r#"{"curve": [{"workers": 2, "wall_s": 1.0}]}"#);
        assert!(!compare(&base, &renamed, 0.25).is_empty());
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
