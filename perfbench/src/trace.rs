//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a name, start, end, its parent span and the request or
//! epoch id it served, plus counts taken at the same boundary. Spans stay
//! in memory while the workload runs and are written out once, at exit.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.
//!
//! Tracing is switched per unit of work (a scatter round, a multiply, an
//! epoch), so a traced run interleaves traced and untraced units and can
//! report its own overhead from the two sets of unit times.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Thread that recorded it.
    pub thread: &'static str,
    /// Layer call the span covers, e.g. `bin_parallel`.
    pub name: &'static str,
    /// Request or epoch id the call served.
    pub id: u64,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Counts recorded at this boundary.
    pub counts: Vec<(&'static str, f64)>,
}

/// Handle of an open span; `NONE` when tracing was off at `begin`.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    thread: &'static str,
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `thread`, timing from `origin`.
    pub fn new(thread: &'static str, origin: Instant, enabled: bool) -> Self {
        Tracer {
            thread,
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans begun now are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            thread: self.thread,
            name,
            id,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: SpanId) {
        if span.0 == SpanId::NONE.0 {
            return;
        }
        assert_eq!(self.open.pop(), Some(span.0), "spans must nest");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Attaches a count to `span`.
    pub fn count(&mut self, span: SpanId, name: &'static str, value: f64) {
        if let Some(s) = self.spans.get_mut(span.0) {
            s.counts.push((name, value));
        }
    }

    /// Self times, in seconds, of the spans named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Whether unit `i` of a traced run is traced: two of every three. The
/// period is 3 so that a power-of-two rhythm in the workload (a
/// checkpoint every 8 epochs, say) falls evenly on both sets.
pub fn traced_unit(i: u64) -> bool {
    i % 3 != 2
}

/// Tracing overhead in percent: how much longer the median traced unit
/// took than the median untraced one. `None` without both kinds.
pub fn overhead_pct(traced_s: &[f64], untraced_s: &[f64]) -> Option<f64> {
    let t = crate::stats::median(traced_s)?;
    let u = crate::stats::median(untraced_s)?;
    Some((t / u - 1.0) * 100.0)
}

/// Writes every span as one JSON object per line, followed by one summary
/// line per span name (count, total and self seconds).
pub fn write_jsonl(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = String::new();
    let mut summary: Vec<(&'static str, &'static str, u64, u64, u64)> = Vec::new();
    for tr in tracers {
        let selfs = self_times_ns(&tr.spans);
        for (s, self_ns) in tr.spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"thread\":\"{}\",\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{},\"counts\":{{",
                s.thread, s.name, s.id, s.start_ns, s.end_ns, parent, self_ns
            );
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{}", crate::json_number(*v));
            }
            out.push_str("}}\n");
            match summary
                .iter_mut()
                .find(|e| e.0 == s.thread && e.1 == s.name)
            {
                Some(e) => {
                    e.2 += 1;
                    e.3 += s.end_ns - s.start_ns;
                    e.4 += self_ns;
                }
                None => summary.push((s.thread, s.name, 1, s.end_ns - s.start_ns, self_ns)),
            }
        }
    }
    for (thread, name, n, total, selfns) in summary {
        let _ = writeln!(
            out,
            "{{\"summary\":\"{name}\",\"thread\":\"{thread}\",\"spans\":{n},\"total_s\":{},\"self_s\":{}}}",
            total as f64 / 1e9,
            selfns as f64 / 1e9
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            thread: "t",
            name,
            id: 0,
            start_ns: start,
            end_ns: end,
            parent,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("epoch", 0, 100, None),
            span("update_all", 10, 40, Some(0)),
            span("seal", 50, 60, Some(0)),
            // Overlaps the previous child; covered once.
            span("wait_epoch", 55, 90, Some(0)),
            span("inner", 60, 70, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 40, 30, 10, 25, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nests_when_on() {
        let mut tr = Tracer::new("t", Instant::now(), false);
        let s = tr.begin("round", 0);
        tr.count(s, "n", 1.0);
        tr.end(s);
        assert!(tr.spans.is_empty());
        tr.set_enabled(true);
        let root = tr.begin("round", 1);
        let child = tr.begin("bin_parallel", 1);
        tr.count(child, "tuples", 8.0);
        tr.end(child);
        tr.end(root);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].counts, vec![("tuples", 8.0)]);
        assert_eq!(tr.self_times("round").len(), 1);
    }

    #[test]
    fn overhead_compares_medians() {
        let o = overhead_pct(&[1.1, 1.1, 5.0], &[1.0, 0.5, 1.0]).expect("both sides");
        assert!((o - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[], &[1.0]), None);
    }
}
