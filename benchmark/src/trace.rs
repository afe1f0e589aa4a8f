//! Benchmark-side spans: opened around calls into the product's public
//! functions, kept in memory, written out when the workload ends.
//!
//! A span's layer is its name up to the first `.` (`optimizer.diagram` →
//! `optimizer`). Names starting with `probe.` are one-off measurements that
//! feed a per-layer metric but are not part of any user-visible operation;
//! they are left out of the layer profile.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one user-visible operation share this.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. Disabled, every call is a branch and nothing else, so the
/// same workload code serves the untraced and the traced pass.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
    cap: usize,
}

/// Spans kept per workload; beyond it whole operations go unrecorded
/// (`exec_grid` makes millions of substrate calls).
pub const SPAN_CAP: usize = 60_000;

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            cap: 0,
        }
    }

    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            enabled: true,
            cap: SPAN_CAP,
            epoch,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause or resume a tracer that was created on; one created off stays
    /// off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on && self.cap > 0;
    }

    /// Whether a whole operation of up to `n` spans still fits.
    pub fn has_room(&self, n: usize) -> bool {
        self.enabled && self.spans.len() + n <= self.cap
    }

    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Option<u32> {
        if !self.has_room(1) {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<u32>, counts: &[(&'static str, f64)]) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        // Closing a parent closes whatever was left open under it.
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        self.spans[id as usize].counts.extend_from_slice(counts);
    }

    /// Run `f` inside a span; always returns the wall-clock seconds `f`
    /// took, traced or not.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let id = self.open(name);
        let t0 = Instant::now();
        let r = f(self);
        let dt = t0.elapsed().as_secs_f64();
        self.close(id, &[]);
        (r, dt)
    }

    /// Attach counts to a span after the fact.
    pub fn annotate(&mut self, id: Option<u32>, counts: &[(&'static str, f64)]) {
        if let Some(id) = id {
            self.spans[id as usize].counts.extend_from_slice(counts);
        }
    }

    /// A child interval reported by the product through a public return
    /// value (`PhaseTimings`), laid out from `offset_ns` inside `parent`.
    pub fn derived_child(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        offset_ns: u64,
        dur_ns: u64,
    ) {
        let Some(parent) = parent else { return };
        if !self.has_room(1) {
            return;
        }
        let p = &self.spans[parent as usize];
        let start_ns = (p.start_ns + offset_ns).min(p.end_ns);
        let span = Span {
            id: self.spans.len() as u32,
            parent: Some(parent),
            request: p.request,
            name,
            start_ns,
            end_ns: (start_ns + dur_ns).min(p.end_ns),
            counts: vec![("derived", 1.0)],
        };
        self.spans.push(span);
    }

    /// Ids of `parent`'s direct children named `name`, in start order.
    pub fn children_named(&self, parent: u32, name: &str) -> Vec<u32> {
        self.spans[parent as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.id)
            .collect()
    }

    /// Fold another thread's spans in (ids and parents shifted).
    pub fn absorb(&mut self, other: Vec<Span>) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.into_iter().map(|mut s| {
            s.id += shift;
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }
}

/// Self time per span: its duration minus the part of that interval its
/// children cover. `Err` when a child reaches outside its parent or the
/// children of one parent together last longer than it does.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut kids: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let p = p as usize;
            if p >= spans.len() {
                return Err(format!(
                    "span {} names a parent {p} that does not exist",
                    s.id
                ));
            }
            let ps = &spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {} ({}) [{}, {}] reaches outside its parent {} ({}) [{}, {}]",
                    s.id, s.name, s.start_ns, s.end_ns, ps.id, ps.name, ps.start_ns, ps.end_ns
                ));
            }
            kids[p].push(i);
        }
    }
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let sum: u64 = kids[i].iter().map(|&k| spans[k].dur_ns()).sum();
        if sum > s.dur_ns() {
            return Err(format!(
                "children of span {} ({}) last {sum} ns, the span itself {} ns",
                s.id,
                s.name,
                s.dur_ns()
            ));
        }
        // Covered part = union of the child intervals.
        let mut iv: Vec<(u64, u64)> = kids[i]
            .iter()
            .map(|&k| (spans[k].start_ns, spans[k].end_ns))
            .collect();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        out.push(s.dur_ns() - covered);
    }
    Ok(out)
}

/// Self time summed per layer, and the total of the root spans they share.
pub struct LayerProfile {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub total_ns: u64,
}

pub fn layer_profile(spans: &[Span]) -> Result<LayerProfile, String> {
    let selfs = self_times(spans)?;
    // A probe's whole subtree stays out of the profile.
    let mut probe = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        probe[i] = s.name.starts_with("probe.") || s.parent.is_some_and(|p| probe[p as usize]);
    }
    let mut self_ns = BTreeMap::new();
    let mut total_ns = 0;
    for (i, s) in spans.iter().enumerate() {
        if probe[i] {
            continue;
        }
        *self_ns.entry(s.layer()).or_insert(0) += selfs[i];
        if s.parent.is_none() {
            total_ns += s.dur_ns();
        }
    }
    Ok(LayerProfile { self_ns, total_ns })
}

/// One JSON object per line: `{id, parent, request, name, start_ns, end_ns,
/// counts}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        );
        for (i, (k, v)) in s.counts.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{k}\":{v}");
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(0, None, "bouquet.run", 0, 100),
            span(1, Some(0), "engine.exec", 10, 40),
            span(2, Some(0), "engine.exec", 50, 90),
            span(3, Some(2), "engine.kernel", 60, 70),
        ];
        assert_eq!(self_times(&spans).unwrap(), vec![30, 30, 30, 10]);
        let p = layer_profile(&spans).unwrap();
        assert_eq!(p.total_ns, 100);
        assert_eq!(p.self_ns["bouquet"], 30);
        assert_eq!(p.self_ns["engine"], 70);
    }

    #[test]
    fn a_child_outside_its_parent_fails_the_check() {
        let spans = vec![
            span(0, None, "bouquet.run", 10, 100),
            span(1, Some(0), "engine.exec", 5, 40),
        ];
        assert!(self_times(&spans)
            .unwrap_err()
            .contains("outside its parent"));
        let spans = vec![
            span(0, None, "bouquet.run", 10, 100),
            span(1, Some(0), "engine.exec", 50, 140),
        ];
        assert!(self_times(&spans).is_err());
    }

    #[test]
    fn children_longer_than_their_parent_fail_the_check() {
        // Two overlapping children, each inside the parent, 120 ns together.
        let spans = vec![
            span(0, None, "server.request", 0, 100),
            span(1, Some(0), "server.submit", 0, 60),
            span(2, Some(0), "server.status", 40, 100),
        ];
        assert!(self_times(&spans)
            .unwrap_err()
            .contains("children of span 0"));
    }

    #[test]
    fn probes_stay_out_of_the_profile() {
        let spans = vec![
            span(0, None, "bouquet.identify", 0, 100),
            span(1, None, "probe.optimizer.diagram_serial", 100, 400),
            span(2, Some(1), "optimizer.diagram", 100, 300),
        ];
        let p = layer_profile(&spans).unwrap();
        assert_eq!(p.total_ns, 100);
        assert_eq!(p.self_ns.len(), 1);
    }

    #[test]
    fn tracer_nests_closes_and_respects_off() {
        let mut off = Tracer::off();
        let (v, dt) = off.timed("bouquet.identify", |_| 7);
        assert_eq!(v, 7);
        assert!(dt >= 0.0 && off.spans.is_empty());

        let mut t = Tracer::on(Instant::now());
        t.next_request();
        t.timed("bouquet.run", |t| {
            t.timed("engine.exec", |_| ());
            t.timed("engine.exec", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[0].request, 1);
        assert_eq!(t.children_named(0, "engine.exec"), vec![1, 2]);
        self_times(&t.spans).unwrap();
    }

    #[test]
    fn derived_children_are_clipped_into_their_parent() {
        let mut t = Tracer::on(Instant::now());
        let id = t.open("bouquet.identify");
        t.close(id, &[]);
        let dur = t.spans[0].dur_ns();
        t.derived_child(id, "optimizer.diagram", 0, dur + 1_000_000);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        self_times(&t.spans).unwrap();
    }

    #[test]
    fn absorbed_spans_keep_their_tree() {
        let mut a = Tracer::on(Instant::now());
        a.timed("server.request", |_| ());
        let other = vec![
            span(0, None, "server.request", 0, 10),
            span(1, Some(0), "server.submit", 1, 5),
        ];
        a.absorb(other);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].id, 2);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut s = span(0, None, "engine.exec", 1, 2);
        s.counts = vec![("plan", 3.0), ("completed", 1.0)];
        let text = to_jsonl(&[s, span(1, Some(0), "engine.kernel", 1, 2)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[0].contains("\"counts\":{\"plan\":3,\"completed\":1}"));
        assert!(lines[1].contains("\"parent\":0"));
    }
}
