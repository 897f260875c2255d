//! Spans recorded by the benchmark's own code around each call into the
//! system, kept in memory and written out when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The step the span belongs to: every span of one step shares it.
    pub step: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one origin. An untraced run records nothing and
/// its `time` is a bare call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, step: u64) -> Option<usize> {
        let start_ns = self.now_ns();
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            step,
        });
        Some(spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        let end_ns = self.now_ns();
        if let (Some(id), Some(spans)) = (id, self.spans.as_mut()) {
            spans[id].end_ns = end_ns;
        }
    }

    /// Runs `call` inside a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        step: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, step);
        let value = call();
        self.end(id);
        value
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// Nanoseconds of `spans[id]` covered by its direct children (the union of
/// their intervals, clipped to the parent: overlapping children are not
/// counted twice).
fn child_cover_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A span's duration minus the part of it its child spans cover.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    spans[id].duration_ns() - child_cover_ns(spans, id)
}

/// Where the step time went: every span's self time, summed by layer (the
/// part of the span's name before the dot; top-level spans are `step`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// Summed duration of the top-level spans.
    pub step_ns: u64,
    self_ns: Vec<(&'static str, u64)>,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Attribution {
        let mut attribution = Attribution {
            step_ns: spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(Span::duration_ns)
                .sum(),
            self_ns: Vec::new(),
        };
        for (id, span) in spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let self_ns = self_time_ns(spans, id);
            match attribution.self_ns.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += self_ns,
                None => attribution.self_ns.push((layer, self_ns)),
            }
        }
        attribution
    }

    /// A layer's self time as a share of the step time; 0 for a layer with
    /// no spans.
    pub fn share_pct(&self, layer: &str) -> f64 {
        let ns = self
            .self_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns);
        ns as f64 * 100.0 / self.step_ns as f64
    }

    /// The share of the step time its child spans account for.
    pub fn coverage_pct(&self) -> f64 {
        100.0 - self.share_pct("step")
    }
}

/// The spans as a Chrome trace-event document (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> Json {
    let events = spans.iter().enumerate().map(|(id, span)| {
        let mut args = Json::obj();
        args.set("id", id).set("step", span.step);
        args.set("parent", span.parent.map_or(Json::Null, Json::from));
        let mut event = Json::obj();
        event
            .set("name", span.name)
            .set("cat", span.name.split('.').next().unwrap_or(span.name))
            .set("ph", "X")
            .set("ts", span.start_ns as f64 / 1e3)
            .set("dur", span.duration_ns() as f64 / 1e3)
            .set("pid", 1usize)
            .set("tid", 1usize)
            .set("args", args);
        event
    });
    let events = Json::array(events);
    let mut doc = Json::obj();
    doc.set("displayTimeUnit", "ms")
        .set("otherData", {
            let mut other = Json::obj();
            other.set("workload", workload);
            other
        })
        .set("traceEvents", events);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = [
            span("step", 0, 100, None),
            span("core.ingest", 5, 40, Some(0)),
            span("persist.append", 40, 70, Some(0)),
            span("serve.round", 75, 95, Some(0)),
        ];
        assert_eq!(child_cover_ns(&spans, 0), 35 + 30 + 20);
        assert_eq!(self_time_ns(&spans, 0), 15);
        assert_eq!(self_time_ns(&spans, 1), 35, "a leaf is all self time");
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let spans = [
            span("step", 0, 100, None),
            span("core.ingest", 10, 90, Some(0)),
            span("core.iterate", 20, 50, Some(1)),
            span("core.iterate", 50, 60, Some(1)),
        ];
        assert_eq!(
            self_time_ns(&spans, 0),
            20,
            "grandchildren do not count twice"
        );
        assert_eq!(self_time_ns(&spans, 1), 80 - 40);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("step", 10, 110, None),
            span("a", 0, 50, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 100, 200, Some(0)),
            span("d", 55, 60, Some(0)),
        ];
        // [10,50) + [50,70) + [100,110): b's overlap, d inside b, and the
        // parts outside the parent add nothing.
        assert_eq!(child_cover_ns(&spans, 0), 40 + 20 + 10);
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn attribution_sums_self_time_by_layer() {
        let mut spans = vec![
            span("step", 0, 100, None),
            span("core.ingest", 0, 50, Some(0)),
            span("persist.append", 50, 60, Some(0)),
            span("persist.install", 60, 90, Some(0)),
            span("step", 200, 300, None),
            span("core.ingest", 200, 299, Some(4)),
        ];
        spans[4].step = 1;
        let a = Attribution::of(&spans);
        assert_eq!(a.step_ns, 200);
        assert_eq!(a.share_pct("core"), 149.0 / 2.0);
        assert_eq!(a.share_pct("persist"), 20.0);
        assert_eq!(a.share_pct("serve"), 0.0);
        assert_eq!(a.coverage_pct(), 100.0 - 11.0 / 2.0);
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let step = t.begin("step", None, 0);
        assert_eq!(step, None);
        assert_eq!(t.time("core.ingest", step, 0, || 7), 7);
        t.end(step);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_traced_tracer_nests_spans_and_writes_chrome_events() {
        let mut t = Tracer::new(true);
        let step = t.begin("step", None, 3);
        t.time("core.ingest", step, 3, || std::hint::black_box(1 + 1));
        t.end(step);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = chrome_trace("growth_ingest", spans);
        let parsed = Json::parse(&doc.pretty()).unwrap();
        let events = parsed.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("core.ingest"));
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("core"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            events[1].get("args").unwrap().get("step").unwrap().as_f64(),
            Some(3.0)
        );
    }
}
