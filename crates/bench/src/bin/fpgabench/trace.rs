//! Spans the benchmark records around its calls into each layer's public
//! functions. Spans stay in memory and are written out once, when the
//! traced run ends; nothing inside the measured program is instrumented.

use fpgatest::telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `name` is the layer, named after the module whose
/// public function was called (`nenya.compile`, `sim.level`, ...).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The serve job id or the fuzz case index the call served.
    pub request: Option<u64>,
    /// Work counts measured at the same boundary (cycles, evals, lanes).
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; [`close`](Self::close) ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, parent, request, start, end)
    }

    /// Times `call` as a leaf span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        call: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = call();
        (
            self.record(name, parent, request, start, Instant::now()),
            out,
        )
    }

    pub fn attr(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].attrs.push((key, value));
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            request,
            attrs: Vec::new(),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of one layer, in recording order.
    pub fn layer<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Each span's self time: its duration minus the union of the
    /// intervals its children cover inside it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered.min(span.duration_ns())
            })
            .collect()
    }

    /// Per-layer totals, ordered by name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += span.duration_ns();
            layer.self_ns += self_ns;
        }
        layers
    }

    /// The trace file: every span, in recording order.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut pairs = vec![
                    ("name", Json::from(s.name)),
                    ("id", Json::from(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("request", s.request.map_or(Json::Null, Json::from)),
                ];
                pairs.extend(s.attrs.iter().map(|&(k, v)| (k, Json::from(v))));
                Json::obj(pairs)
            })
            .collect();
        Json::obj([
            ("schema", Json::from("fpgabench-trace-v1")),
            ("workload", Json::from(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(Option<usize>, u64, u64)]) -> Tracer {
        let mut tracer = Tracer::new();
        for &(parent, start, end) in spans {
            tracer.push("layer", parent, None, start, end);
        }
        tracer
    }

    #[test]
    fn self_time_is_the_span_minus_the_union_of_its_children() {
        // Parent [0, 100]; children overlap ([10, 30] and [20, 40]), one
        // is nested in another ([12, 18]) and one pokes past the end.
        let tracer = tracer_with(&[
            (None, 0, 100),
            (Some(0), 10, 30),
            (Some(0), 20, 40),
            (Some(0), 12, 18),
            (Some(0), 90, 120),
            (Some(1), 15, 25),
        ]);
        let selfs = tracer.self_times();
        // Union inside the parent: [10, 40] + [90, 100] = 40.
        assert_eq!(selfs[0], 60);
        // Child [10, 30] has its own child [15, 25].
        assert_eq!(selfs[1], 10);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[5], 10);
    }

    #[test]
    fn a_span_fully_covered_by_children_has_no_self_time() {
        let tracer = tracer_with(&[(None, 0, 10), (Some(0), 0, 6), (Some(0), 6, 10)]);
        assert_eq!(tracer.self_times()[0], 0);
        assert_eq!(tracer.layers()["layer"].calls, 3);
    }
}
