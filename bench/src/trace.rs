//! Spans recorded from outside the program, around each call into a layer.
//!
//! Measured reps run with no tracer; the layer pass hands one in. Spans
//! stay in memory until the run ends and are then written as a Chrome
//! trace (Perfetto loads it).

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    /// `layer.what`; the layer is the crate name without `ocas-`.
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Which rep of the run the span belongs to.
    pub rep: u32,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub rep: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn enter(&mut self, name: &'static str) {
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Self time per layer: each span's duration minus what its child
    /// spans cover, summed by the layer prefix of the span name.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        let mut by = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by.entry(layer).or_insert(0.0) += t;
        }
        by
    }

    /// For the rep span at `root`: the share of its duration its direct
    /// children cover, and its own uncovered seconds.
    pub fn coverage(&self, root: usize) -> (f64, f64) {
        let total = self.spans[root].end - self.spans[root].start;
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.end - s.start)
            .sum();
        (covered / total.max(f64::MIN_POSITIVE), total - covered)
    }

    pub fn to_chrome_json(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    (
                        "cat".into(),
                        Json::Str(s.name.split('.').next().unwrap_or(s.name).into()),
                    ),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start * 1e6)),
                    ("dur".into(), Json::Num((s.end - s.start) * 1e6)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(i as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("rep".into(), Json::Num(f64::from(s.rep))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
        .to_string()
    }
}

/// Runs `f`, returning its result and wall seconds; records a span when a
/// tracer is present. The tracer is handed to `f` so that calls nest.
pub fn timed<T>(
    tr: &mut Option<Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<Tracer>) -> T,
) -> (T, f64) {
    if let Some(t) = tr {
        t.enter(name);
    }
    let t0 = Instant::now();
    let out = f(tr);
    let dt = t0.elapsed().as_secs_f64();
    if let Some(t) = tr {
        t.exit();
    }
    (out, dt)
}
