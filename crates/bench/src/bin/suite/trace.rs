//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is `{name, layer, start_ns, end_ns, parent, op_id}`; spans of
//! one operation share its `op_id`. They stay in memory and are written
//! out when the workload ends. A layer's self time is its spans' time
//! minus the part of each span its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// Records spans when enabled; when disabled every [`Tracer::span`] is a
/// plain call, so untraced runs pay nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// An empty tracer for another thread, sharing this one's clock so
    /// the two can be [absorbed](Tracer::absorb) into one timeline.
    pub fn fork(&self) -> Tracer {
        Tracer { on: self.on, epoch: self.epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span of `layer`. Spans opened inside `f` (through
    /// the tracer it receives) become its children.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, layer, start_ns, end_ns: start_ns, parent, op_id });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Moves another tracer's spans (from a thread forked off this one)
    /// into this one, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON: a layer/name table plus one compact array per
    /// span, `[name, layer, start_ns, end_ns, parent (-1 = none), op_id]`.
    pub fn to_json(&self) -> Json {
        fn index(s: &'static str, names: &mut Vec<&'static str>) -> usize {
            names.iter().position(|n| *n == s).unwrap_or_else(|| {
                names.push(s);
                names.len() - 1
            })
        }
        let mut names: Vec<&'static str> = Vec::new();
        let rows: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                let name = index(s.name, &mut names);
                let layer = index(s.layer, &mut names);
                Json::Arr(vec![
                    name.into(),
                    layer.into(),
                    s.start_ns.into(),
                    s.end_ns.into(),
                    Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                    s.op_id.into(),
                ])
            })
            .collect();
        Json::obj([
            (
                "fields",
                Json::Arr(vec![
                    Json::str("name"),
                    Json::str("layer"),
                    Json::str("start_ns"),
                    Json::str("end_ns"),
                    Json::str("parent"),
                    Json::str("op_id"),
                ]),
            ),
            ("strings", Json::Arr(names.into_iter().map(Json::str).collect())),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Per layer: total span time and self time (span time minus the union
/// of the intervals its direct children cover), in nanoseconds.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let entry = out.entry(s.layer).or_default();
        entry.0 += total;
        entry.1 += total - covered.min(total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "x", layer, start_ns, end_ns, parent, op_id: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("matcher", 0, 100, None),
            // Two overlapping children cover 10..50 (40 ns) together…
            span("core", 10, 40, Some(0)),
            span("core", 30, 50, Some(0)),
            // …and a third one 60..70; a grandchild does not count twice.
            span("automata", 60, 70, Some(0)),
            span("core", 62, 68, Some(3)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["matcher"], (100, 50));
        assert_eq!(t["core"], (30 + 20 + 6, 30 + 20 + 6));
        assert_eq!(t["automata"], (10, 4));
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_absorb_rebases() {
        let mut tracer = Tracer::new(true);
        tracer.span("bench", "outer", 1, |t| {
            t.span("core", "inner", 1, |_| ());
        });
        let mut other = tracer.fork();
        other.span("server", "a", 2, |t| t.span("matcher", "b", 2, |_| ()));
        tracer.absorb(other);
        let s = tracer.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[2].parent, s[3].parent), (None, Some(2)));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        let json = tracer.to_json();
        assert_eq!(json.get("spans").and_then(Json::as_array).map(<[Json]>::len), Some(4));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("core", "x", 0, |_| 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
