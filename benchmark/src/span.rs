//! In-memory spans around calls into each layer.
//!
//! A span is ⟨name, start, end, parent, request id⟩. Spans nest by
//! call order on one thread: [`Tracer::span`] pushes a span, runs the
//! closure, pops. Stage times that only reach the harness as
//! `(name, seconds)` pairs on the pipeline's `timings` side channel are
//! added afterwards as child spans laid end to end from their parent's
//! start ([`Tracer::add_stage_children`]) — their durations are the
//! layer's own measurement, their start offsets are synthetic. Spans
//! live in memory until the run ends, then print as Chrome-trace JSON.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request (sweep iteration) this span belongs to.
    pub request: u32,
    /// Start offset reconstructed from a duration, not measured.
    pub synthetic: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; time 0 is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on spans opened from here on.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index for [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request: self.request,
            synthetic: false,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Adds `(stage, seconds)` pairs as children of the closed span
    /// `parent`, end to end from its start and clipped to its end.
    pub fn add_stage_children(&mut self, parent: usize, prefix: &str, stages: &[(String, f64)]) {
        let (mut cursor, end, request) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.request)
        };
        for (stage, seconds) in stages {
            let stop = (cursor + (seconds * 1e9) as u64).min(end);
            self.spans.push(Span {
                name: format!("{prefix}{stage}"),
                start_ns: cursor,
                end_ns: stop,
                parent: Some(parent),
                request,
                synthetic: true,
            });
            cursor = stop;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Indexes of the direct children of span `idx`.
    pub fn children(&self, idx: usize) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(idx))
            .collect()
    }

    /// Self time of span `idx` in seconds: its duration minus the part
    /// of its interval its direct children cover (overlapping children
    /// count once; parts of a child outside the parent do not count).
    pub fn self_seconds(&self, idx: usize) -> f64 {
        let p = &self.spans[idx];
        let mut cover: Vec<(u64, u64)> = self
            .children(idx)
            .into_iter()
            .map(|c| {
                let c = &self.spans[c];
                (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        cover.sort_unstable();
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        ((p.end_ns - p.start_ns) - covered) as f64 / 1e9
    }

    /// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) JSON
    /// document: one complete (`"ph":"X"`) event per span, µs units,
    /// one track per request.
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(f64::from(s.request))),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(i as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("synthetic_start".into(), Json::Bool(s.synthetic)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-placed spans: (name, start, end, parent).
    fn fixed(spans: &[(&str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for (name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name: (*name).to_string(),
                start_ns: *start_ns,
                end_ns: *end_ns,
                parent: *parent,
                request: 0,
                synthetic: false,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let s = 1_000_000_000;
        let t = fixed(&[
            ("iter", 0, 10 * s, None),
            ("a", s, 3 * s, Some(0)),       // covers 2 s
            ("b", 2 * s, 5 * s, Some(0)),   // overlaps a: adds 2 s
            ("c", 9 * s, 12 * s, Some(0)),  // overhangs the parent: 1 s
            ("a.inner", s, 2 * s, Some(1)), // grandchild: not the parent's
            ("other", 0, 10 * s, None),     // unrelated root
        ]);
        assert_eq!(t.self_seconds(0), 5.0);
        assert_eq!(t.self_seconds(1), 1.0);
        assert_eq!(t.self_seconds(5), 10.0);
        assert_eq!(t.children(0), vec![1, 2, 3]);
    }

    #[test]
    fn nesting_follows_call_order() {
        let mut t = Tracer::new();
        t.set_request(7);
        let got = t.span("outer", || 41) + 1;
        assert_eq!(got, 42);
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.exit(outer);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[1].parent, None);
        assert_eq!(t.spans()[2].request, 7);
        assert!(t.spans()[1].end_ns >= t.spans()[2].end_ns);
    }

    #[test]
    fn stage_children_lie_end_to_end_and_clip() {
        let mut t = fixed(&[("prepare", 1_000, 4_000, None)]);
        t.add_stage_children(
            0,
            "cacheprobe.",
            &[("scope_scan".into(), 1e-6), ("calibration".into(), 5e-6)],
        );
        let kids = t.children(0);
        assert_eq!(kids.len(), 2);
        assert_eq!(t.spans()[kids[0]].name, "cacheprobe.scope_scan");
        assert_eq!(
            (t.spans()[kids[0]].start_ns, t.spans()[kids[0]].end_ns),
            (1_000, 2_000)
        );
        assert_eq!(
            (t.spans()[kids[1]].start_ns, t.spans()[kids[1]].end_ns),
            (2_000, 4_000)
        );
        assert!(t.spans()[kids[1]].synthetic);
        assert_eq!(t.self_seconds(0), 0.0);
    }

    #[test]
    fn chrome_trace_lists_every_span() {
        let t = fixed(&[("iter", 0, 2_000, None), ("a", 500, 1_500, Some(0))]);
        let doc = t.to_chrome_trace();
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(Json::parse(&doc.render()).is_ok());
    }
}
