//! The traced repetition's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (the world build, the job call, every probe), never inside the program
//! under test. They are kept in memory and written out as JSON lines when
//! the run ends. A disabled tracer still times, because callers need the
//! durations, but records nothing.

use serde_json::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub name: String,
    /// Which repetition of the run the span belongs to.
    pub rep: u32,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Counts taken at this span's boundaries (work done, bytes, ...).
    pub counts: BTreeMap<String, f64>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    workload: String,
    rep: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, outermost first.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            workload: workload.to_string(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts recording, labelling every span from here on with `rep`.
    pub fn enable(&mut self, rep: u32) {
        self.enabled = true;
        self.rep = rep;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span called `name`; returns its result and how
    /// many seconds it took. Spans opened by `f` become children.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let slot = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id: id as u32,
                parent: self.open.last().map(|&i| i as u32),
                name: name.to_string(),
                rep: self.rep,
                start_us: 0.0,
                end_us: 0.0,
                counts: BTreeMap::new(),
            });
            self.open.push(id);
            id
        });
        let started = Instant::now();
        let out = f(self);
        let ended = Instant::now();
        if let Some(id) = slot {
            self.open.pop();
            let span = &mut self.spans[id];
            span.start_us = started.duration_since(self.epoch).as_secs_f64() * 1e6;
            span.end_us = ended.duration_since(self.epoch).as_secs_f64() * 1e6;
        }
        (out, ended.duration_since(started).as_secs_f64())
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.insert(key.to_string(), value);
        }
    }

    /// The span with the largest self time among those named `prefix*`.
    pub fn largest_self(&self, prefix: &str) -> Option<(&str, f64)> {
        self.spans
            .iter()
            .zip(self_times_us(&self.spans))
            .filter(|(s, _)| s.name.starts_with(prefix))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(s, own)| (s.name.as_str(), own))
    }

    /// Writes every span, with its self time, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        for (span, self_us) in self.spans.iter().zip(self_times_us(&self.spans)) {
            let line = json!({
                "id": span.id,
                "parent": span.parent,
                "name": span.name,
                "workload": self.workload,
                "rep": span.rep,
                "start_us": span.start_us,
                "end_us": span.end_us,
                "self_us": self_us,
                "counts": span.counts,
            });
            writeln!(out, "{line}").map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

/// Self time of every span, in `spans` order: the span's duration minus the
/// part of it that its direct children cover. Children that overlap one
/// another are subtracted once, and a child counts only where it lies
/// inside its parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        let Some(parent) = s.parent.and_then(|p| spans.get(p as usize)) else {
            continue;
        };
        let clipped = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
        if clipped.0 < clipped.1 {
            children.entry(parent.id).or_default().push(clipped);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = f64::NEG_INFINITY;
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            rep: 0,
            start_us,
            end_us,
            counts: BTreeMap::new(),
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(0, None, 0.0, 100.0),
            // Two children overlapping on [30, 40], one nested in the first,
            // one sticking out past the parent's end.
            span(1, Some(0), 10.0, 40.0),
            span(2, Some(0), 30.0, 60.0),
            span(3, Some(1), 15.0, 20.0),
            span(4, Some(0), 90.0, 130.0),
        ];
        // Parent: 100 - ([10,60] U [90,100]) = 40; child 1 loses its child.
        assert_eq!(self_times_us(&spans), [40.0, 25.0, 30.0, 5.0, 40.0]);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new("w");
        assert_eq!(t.timed("x", |_| 1).0, 1);
        assert!(t.spans.is_empty());
        t.enable(3);
        let (v, secs) = t.timed("outer", |t| {
            t.count("items", 2.0);
            t.timed("inner", |_| 7).0
        });
        assert_eq!((v, secs >= 0.0), (7, true));
        assert_eq!(
            (t.spans[0].name.as_str(), t.spans[0].parent),
            ("outer", None)
        );
        assert_eq!(
            (t.spans[1].name.as_str(), t.spans[1].parent),
            ("inner", Some(0))
        );
        assert_eq!((t.spans[0].counts["items"], t.spans[1].rep), (2.0, 3));
        assert_eq!(t.largest_self("inn").unwrap().0, "inner");
    }
}
