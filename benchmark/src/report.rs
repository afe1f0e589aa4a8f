//! Result records: what one workload run reports, how runs aggregate, the
//! result file, the line the driver reads, and the printed tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize, Value};

use crate::harness::{peak_rss_mb, Checks, Output, RunOpts};
use crate::metrics::{self, Metric, END_TO_END, NAMED, PER_LAYER};
use crate::stats::{self, geomean};
use crate::trace;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerShare {
    pub layer: String,
    /// Share of the traced pass's operation time spent in the layer itself.
    pub share: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// The metrics gated on every workload.
    pub end_to_end: Vec<Metric>,
    /// This workload's named end-to-end metrics, tracing off.
    pub named: Vec<Metric>,
    /// Traced pass only.
    pub per_layer: Vec<Metric>,
    pub profile: Vec<LayerShare>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// False for `--quick` runs: same checks, numbers not comparable.
    pub comparable: bool,
    pub nproc: usize,
    pub kernel: String,
    pub date: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub runs: usize,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    pub fn new(o: &RunOpts, workloads: Vec<WorkloadResult>) -> ResultFile {
        ResultFile {
            comparable: !o.quick,
            nproc: o.nproc,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().into()),
            date: today(),
            seed: o.seed,
            seconds: o.seconds,
            traced: o.trace,
            runs: 1,
            workloads,
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("in-memory JSON writing does not fail")
    }

    pub fn from_json(text: &str) -> Result<ResultFile, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    pub fn load(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Civil date (UTC) from the system clock.
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Howard Hinnant's days-to-civil.
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let (d, m) = (
        doy - (153 * mp + 2) / 5 + 1,
        if mp < 10 { mp + 3 } else { mp - 9 },
    );
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Turn a workload's output into its result record: the gated metrics are
/// derived here, the same way for every workload.
pub fn assemble(workload: &str, out: &Output, ck: &mut Checks) -> WorkloadResult {
    let parts = &out.parts;
    let values = |f: fn(&Metric) -> f64| parts.iter().map(f).collect::<Vec<f64>>();
    let n = parts.iter().map(|m| m.n).min().unwrap_or(0);
    let sum = Metric {
        name: "op_sum_ms".into(),
        value: values(|m| m.value).iter().sum(),
        q1: values(|m| m.q1).iter().sum(),
        q3: values(|m| m.q3).iter().sum(),
        n,
    };
    let geo = Metric {
        name: "op_geo_ms".into(),
        value: geomean(&values(|m| m.value)),
        q1: geomean(&values(|m| m.q1)),
        q3: geomean(&values(|m| m.q3)),
        n,
    };
    let end_to_end = vec![
        Metric::timing("setup_s", &out.setup, 1.0),
        sum,
        Metric::exact("ops_per_s", out.ops_per_s),
        Metric::exact("peak_rss_mb", peak_rss_mb()),
    ];

    let mut per_layer = out.layers.clone();
    let mut profile = Vec::new();
    if let Some(traced_sum) = out.traced_sum_ms {
        per_layer.push(Metric::exact(
            "trace.overhead_share",
            // Traced ÷ untraced − 1 on the same parts.
            traced_sum / end_to_end[1].value - 1.0,
        ));
        match trace::layer_profile(&out.spans) {
            Ok(p) => {
                ck.expect(true, String::new);
                profile = p
                    .self_ns
                    .iter()
                    .map(|(layer, ns)| LayerShare {
                        layer: layer.to_string(),
                        share: *ns as f64 / p.total_ns.max(1) as f64,
                    })
                    .collect();
            }
            Err(e) => {
                ck.expect(false, || format!("span tree: {e}"));
            }
        }
    }

    // Registry and emitted names stay in step: everything emitted is
    // registered for this workload, everything registered is emitted.
    let mut named = out.named.clone();
    named.push(geo);
    let mut emitted: Vec<&Metric> = end_to_end.iter().chain(&named).collect();
    if out.traced_sum_ms.is_some() {
        emitted.extend(&per_layer);
    }
    for m in &emitted {
        let known = metrics::lookup(&m.name).is_some_and(|d| d.workloads.contains(&workload));
        ck.expect(known && m.value.is_finite(), || {
            format!(
                "{workload} emitted {} = {} (registered for it: {known})",
                m.name, m.value
            )
        });
    }
    let expected = END_TO_END
        .iter()
        .chain(NAMED)
        .chain(if out.traced_sum_ms.is_some() {
            PER_LAYER
        } else {
            &[]
        })
        .filter(|d| d.workloads.contains(&workload) && d.name != "failed_share");
    for d in expected {
        ck.expect(emitted.iter().any(|m| m.name == d.name), || {
            format!("{workload} did not emit {}", d.name)
        });
    }

    named.push(Metric::exact(
        "failed_share",
        ck.failed as f64 / ck.attempted.max(1) as f64,
    ));
    WorkloadResult {
        workload: workload.into(),
        attempted: ck.attempted,
        failed: ck.failed,
        messages: ck.messages.clone(),
        end_to_end,
        named,
        per_layer,
        profile,
    }
}

/// The last line of standard output, as the driver reads it: every gated
/// metric untraced, every per-layer metric traced (0 where a layer has no
/// part in the workload).
pub fn contract_line(r: &WorkloadResult, traced: bool) -> String {
    let entry = |name: &str, unit: &str, value: f64| {
        (
            name.to_string(),
            Value::Obj(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        )
    };
    let metrics: Vec<(String, Value)> = if traced {
        NAMED
            .iter()
            .chain(PER_LAYER)
            .map(|d| {
                let v = r
                    .named
                    .iter()
                    .chain(&r.per_layer)
                    .find(|m| m.name == d.name)
                    .map_or(0.0, |m| m.value);
                entry(d.name, d.unit, v)
            })
            .collect()
    } else {
        r.end_to_end
            .iter()
            .map(|m| entry(&m.name, m.unit(), m.value))
            .collect()
    };
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(r.failed == 0)),
        ("attempted".into(), Value::UInt(r.attempted.max(1))),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("in-memory JSON writing does not fail")
}

/// Fold repeated runs of one workload: each metric becomes the median of
/// its per-run values, with the quartiles of those values (from three runs
/// up; the extremes for two) and the run count as `n`.
pub fn aggregate(runs: &[WorkloadResult]) -> WorkloadResult {
    let fold = |pick: fn(&WorkloadResult) -> &Vec<Metric>| -> Vec<Metric> {
        pick(&runs[0])
            .iter()
            .map(|first| {
                let mut values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| pick(r).iter().find(|m| m.name == first.name))
                    .map(|m| m.value)
                    .collect();
                if values.len() < 2 {
                    return first.clone();
                }
                values.sort_by(f64::total_cmp);
                let (q1, median, q3) = stats::quartiles(&values);
                let (lo, hi) = (values[0], values[values.len() - 1]);
                Metric {
                    name: first.name.clone(),
                    value: median,
                    q1: q1.clamp(lo, hi),
                    q3: q3.clamp(lo, hi),
                    n: values.len(),
                }
            })
            .collect()
    };
    let mut shares: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in runs {
        for s in &r.profile {
            shares.entry(&s.layer).or_default().push(s.share);
        }
    }
    WorkloadResult {
        workload: runs[0].workload.clone(),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        messages: runs
            .iter()
            .flat_map(|r| r.messages.clone())
            .take(20)
            .collect(),
        end_to_end: fold(|r| &r.end_to_end),
        named: fold(|r| &r.named),
        per_layer: fold(|r| &r.per_layer),
        profile: shares
            .into_iter()
            .map(|(layer, v)| LayerShare {
                layer: layer.into(),
                share: stats::median(&v),
            })
            .collect(),
    }
}

fn metric_rows(out: &mut String, title: &str, ms: &[Metric]) {
    if ms.is_empty() {
        return;
    }
    let _ = writeln!(out, "  {title}");
    for m in ms {
        let _ = write!(out, "    {:<40} {:>16.6} {:<7}", m.name, m.value, m.unit());
        if m.n > 1 {
            let _ = write!(out, " [q1 {:.6}, q3 {:.6}, n {}]", m.q1, m.q3, m.n);
        }
        out.push('\n');
    }
}

/// Every metric by name, with its unit.
pub fn render(r: &WorkloadResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}: {} operations attempted, {} failed",
        r.workload, r.attempted, r.failed
    );
    for m in &r.messages {
        let _ = writeln!(out, "  FAILED: {m}");
    }
    metric_rows(
        &mut out,
        "end to end (gated on every workload)",
        &r.end_to_end,
    );
    metric_rows(&mut out, "end to end (named, tracing off)", &r.named);
    metric_rows(&mut out, "per layer (traced pass)", &r.per_layer);
    out
}

/// The exhibit: layer × workload share of end-to-end time, as markdown.
pub fn profile_table(workloads: &[WorkloadResult]) -> String {
    let traced: Vec<&WorkloadResult> = workloads.iter().filter(|w| !w.profile.is_empty()).collect();
    if traced.is_empty() {
        return String::new();
    }
    let mut layers: Vec<&str> = traced
        .iter()
        .flat_map(|w| w.profile.iter().map(|s| s.layer.as_str()))
        .collect();
    layers.sort_unstable();
    layers.dedup();
    let mut out = String::from("| layer |");
    for w in &traced {
        let _ = write!(out, " {} |", w.workload);
    }
    out.push_str("\n|---|");
    out.push_str(&"---:|".repeat(traced.len()));
    out.push('\n');
    for layer in layers {
        let _ = write!(out, "| `{layer}` |");
        for w in &traced {
            match w.profile.iter().find(|s| s.layer == layer) {
                Some(s) => {
                    let _ = write!(out, " {:.1} % |", s.share * 100.0);
                }
                None => out.push_str(" – |"),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn result(workload: &str, sum: f64) -> WorkloadResult {
        WorkloadResult {
            workload: workload.into(),
            attempted: 10,
            failed: 0,
            messages: Vec::new(),
            end_to_end: vec![
                Metric::exact("setup_s", 1.0),
                Metric::exact("op_sum_ms", sum),
                Metric::exact("ops_per_s", 100.0),
                Metric::exact("peak_rss_mb", 50.0),
            ],
            named: vec![Metric::exact("serve_p50_ms", sum)],
            per_layer: vec![Metric::exact("server.ping_rtt_ms", 0.04)],
            profile: vec![LayerShare {
                layer: "server".into(),
                share: 0.9,
            }],
        }
    }

    #[test]
    fn contract_line_carries_exactly_the_registered_names() {
        let r = result("serve", 4.0);
        let plain: Value = serde_json::from_str(&contract_line(&r, false)).unwrap();
        let obj = plain.as_obj().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = serde::find(obj, "metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());

        let traced: Value = serde_json::from_str(&contract_line(&r, true)).unwrap();
        let ms = serde::find(traced.as_obj().unwrap(), "metrics")
            .and_then(Value::as_obj)
            .unwrap();
        let names: Vec<&str> = ms.iter().map(|(k, _)| k.as_str()).collect();
        let registered: Vec<&str> = NAMED.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert_eq!(names, registered);
        // A layer with no part in the workload reads 0; one with a part
        // reads its value.
        let value = |name: &str| {
            let m = serde::find(ms, name).and_then(Value::as_obj).unwrap();
            match serde::find(m, "value").unwrap() {
                Value::Float(f) => *f,
                Value::UInt(u) => *u as f64,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(value("optimizer.diagram_s"), 0.0);
        assert_eq!(value("server.ping_rtt_ms"), 0.04);
        assert_eq!(value("serve_p50_ms"), 4.0);
    }

    #[test]
    fn assembling_checks_names_against_the_registry() {
        let out = Output {
            setup: Summary {
                n: 3,
                median: 0.5,
                q1: 0.4,
                q3: 0.6,
                tail: None,
            },
            named: vec![
                Metric::exact("serve_qps", 10.0),
                // Registered, but not for `serve`.
                Metric::exact("identify_cold_s", 1.0),
            ],
            parts: vec![Metric::exact("submit", 1.0), Metric::exact("wait", 4.0)],
            ops_per_s: 10.0,
            layers: Vec::new(),
            traced_sum_ms: None,
            spans: Vec::new(),
        };
        let mut ck = Checks::default();
        let r = assemble("serve", &out, &mut ck);
        assert_eq!(r.end_to_end[1].value, 5.0);
        let geo = r.named.iter().find(|m| m.name == "op_geo_ms").unwrap();
        assert_eq!(geo.value, 2.0);
        // One foreign name, one missing name (serve_p50_ms).
        assert_eq!(ck.failed, 2, "{:?}", ck.messages);
        assert!(ck.messages.iter().any(|m| m.contains("identify_cold_s")));
        assert!(ck
            .messages
            .iter()
            .any(|m| m.contains("did not emit serve_p50_ms")));
    }

    #[test]
    fn aggregation_takes_the_median_run_and_its_quartiles() {
        let runs = [
            result("serve", 4.0),
            result("serve", 6.0),
            result("serve", 5.0),
        ];
        let a = aggregate(&runs);
        let m = &a.end_to_end[1];
        assert_eq!((m.value, m.q1, m.q3, m.n), (5.0, 4.0, 6.0, 3));
        assert_eq!(a.attempted, 30);
        assert_eq!(a.profile[0].share, 0.9);
        assert_eq!(aggregate(&runs[..1]), runs[0]);
    }

    #[test]
    fn result_files_round_trip() {
        let o = RunOpts {
            seed: 7,
            seconds: 2.0,
            trace: true,
            quick: true,
            nproc: 2,
        };
        let f = ResultFile::new(&o, vec![result("serve", 4.0)]);
        assert!(!f.comparable);
        assert_eq!(ResultFile::from_json(&f.to_json()).unwrap(), f);
        assert_eq!(f.date.len(), 10);
    }

    #[test]
    fn profile_table_has_a_column_per_traced_workload() {
        let mut untraced = result("compile", 1.0);
        untraced.profile.clear();
        let t = profile_table(&[result("serve", 4.0), untraced]);
        assert!(t.starts_with("| layer | serve |\n"));
        assert!(t.contains("| `server` | 90.0 % |"));
        assert!(!t.contains("compile"));
    }
}
