//! `pb-benchmark compare A.json B.json`: one verdict per (end-to-end
//! metric, workload), from the medians, the metric's bound and the two
//! results' quartiles.

use std::fmt::Write as _;

use crate::metrics::{self, Better, Metric};
use crate::report::ResultFile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The medians differ by more than the bound but the quartile ranges
    /// overlap, or they agree but either side spreads wider than the bound:
    /// the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B against A for one metric.
pub fn verdict(a: &Metric, b: &Metric, better: Better, bound: f64) -> Verdict {
    // Orient everything so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    if bound == 0.0 {
        // Exact counts: any difference is a change.
        return match (sign * (b.value - a.value)).partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let base = a.value.abs().max(f64::MIN_POSITIVE);
    let worse_by = sign * (b.value - a.value) / base;
    let overlap = a.q1.min(a.q3) <= b.q1.max(b.q3) && b.q1.min(b.q3) <= a.q1.max(a.q3);
    let spread = ((a.q3 - a.q1).abs() / base)
        .max((b.q3 - b.q1).abs() / b.value.abs().max(f64::MIN_POSITIVE));
    if worse_by > bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse_by < -bound {
        if overlap {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Every end-to-end metric, gated or named, of every workload both files
/// hold.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            continue;
        };
        for ma in wa.end_to_end.iter().chain(&wa.named) {
            let found = wb
                .end_to_end
                .iter()
                .chain(&wb.named)
                .find(|m| m.name == ma.name);
            let (Some(mb), Some(def)) = (found, metrics::lookup(&ma.name)) else {
                continue;
            };
            rows.push(Row {
                workload: wa.workload.clone(),
                metric: ma.name.clone(),
                a: ma.value,
                b: mb.value,
                verdict: verdict(ma, mb, def.better, def.bound),
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<24} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "B/A"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<24} {:>16.6} {:>16.6} {:>9.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a != 0.0 { r.b / r.a } else { 1.0 },
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} same, {} better, {} worse, {} unresolved",
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, q1: f64, q3: f64) -> Metric {
        Metric {
            name: "op_sum_ms".into(),
            value,
            q1,
            q3,
            n: 3,
        }
    }

    #[test]
    fn within_the_bound_and_tight_is_same() {
        let v = verdict(
            &m(100.0, 99.0, 101.0),
            &m(104.0, 103.0, 105.0),
            Better::Lower,
            0.10,
        );
        assert_eq!(v, Verdict::Same);
    }

    #[test]
    fn beyond_the_bound_with_separate_quartiles_is_worse_or_better() {
        let (a, b) = (m(100.0, 98.0, 102.0), m(120.0, 117.0, 123.0));
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&b, &a, Better::Lower, 0.10), Verdict::Better);
        // For a rate the directions swap.
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&b, &a, Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn beyond_the_bound_with_overlapping_quartiles_is_unresolved() {
        let (a, b) = (m(100.0, 90.0, 125.0), m(120.0, 95.0, 130.0));
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&b, &a, Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn agreeing_medians_with_a_spread_wider_than_the_bound_are_unresolved() {
        let v = verdict(
            &m(100.0, 80.0, 120.0),
            &m(101.0, 99.0, 103.0),
            Better::Lower,
            0.10,
        );
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_must_repeat_exactly() {
        let (a, b) = (m(0.5, 0.5, 0.5), m(0.5000001, 0.5, 0.5));
        assert_eq!(verdict(&a, &a, Better::Lower, 0.0), Verdict::Same);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(verdict(&b, &a, Better::Lower, 0.0), Verdict::Better);
    }

    #[test]
    fn compare_walks_gated_and_named_metrics_of_shared_workloads() {
        use crate::report::WorkloadResult;
        let w = |sum: f64| WorkloadResult {
            workload: "serve".into(),
            attempted: 1,
            failed: 0,
            messages: Vec::new(),
            end_to_end: vec![m(sum, sum, sum)],
            named: vec![Metric::exact("serve_qps", 1000.0 / sum)],
            per_layer: Vec::new(),
            profile: Vec::new(),
        };
        let o = crate::harness::RunOpts {
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: false,
            nproc: 1,
        };
        let a = ResultFile::new(&o, vec![w(100.0)]);
        let b = ResultFile::new(&o, vec![w(150.0)]);
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Worse));
        assert!(render(&rows).contains("0 same, 0 better, 2 worse, 0 unresolved"));
    }
}
