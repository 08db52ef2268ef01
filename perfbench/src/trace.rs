//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public API (nothing inside the program is instrumented). Each span has
//! a name, start and end (seconds since the recorder started), the span
//! that caused it, and the workload repetition it belongs to. Spans stay
//! in memory and are written out once, when the run ends.

use std::collections::HashMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call or phase, e.g. `core.factor`.
    pub name: &'static str,
    /// Seconds since the recorder started.
    pub start: f64,
    /// Seconds since the recorder started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Wall-clock length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans when enabled; when disabled every call is a pass-through.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
    /// Open scoped spans per thread, innermost last.
    open: Mutex<HashMap<ThreadId, Vec<usize>>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(HashMap::new()),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, whose parent is the innermost
    /// span this thread has open. Returns `f`'s result and its wall-clock
    /// seconds, which are measured whether or not tracing is on.
    pub fn scope<T>(&self, name: &'static str, rep: u32, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_secs_f64());
        }
        let tid = std::thread::current().id();
        let parent = self.current();
        let start = Instant::now();
        let id = self.push(Span { name, start: self.secs(start), end: f64::NAN, parent, rep });
        self.open.lock().expect("trace lock").entry(tid).or_default().push(id);
        let out = f();
        let end = Instant::now();
        self.open.lock().expect("trace lock").get_mut(&tid).and_then(Vec::pop);
        self.spans.lock().expect("trace lock")[id].end = self.secs(end);
        (out, (end - start).as_secs_f64())
    }

    /// Index of the innermost span this thread has open, if any.
    pub fn current(&self) -> Option<usize> {
        let tid = std::thread::current().id();
        self.open.lock().expect("trace lock").get(&tid).and_then(|s| s.last().copied())
    }

    /// Records a span measured elsewhere (e.g. a request timed across two
    /// threads). Returns its index, or `None` when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        rep: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.on.then(|| {
            self.push(Span { name, start: self.secs(start), end: self.secs(end), parent, rep })
        })
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("trace lock");
        spans.push(span);
        spans.len() - 1
    }

    /// Snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace lock").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once; a child that
/// runs past its parent counts only inside the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Self times of all spans named `name`.
pub fn self_times_of(spans: &[Span], selfs: &[f64], name: &str) -> Vec<f64> {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, &t)| t).collect()
}

/// Renders spans as a JSON array (one object per line).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(i, (s, st))| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \
                 \"self\": {st:.9}, \"parent\": {parent}, \"rep\": {}}}",
                s.name, s.start, s.end, s.rep
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, rep: 0 }
    }

    #[test]
    fn nested_children_are_subtracted() {
        let spans = vec![
            span("rep", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("b.inner", 5.0, 6.0, Some(2)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 4.0).abs() < 1e-12);
        assert!((st[1] - 2.0).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((st[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("serve", 0.0, 10.0, None),
            span("req", 1.0, 4.0, Some(0)),
            span("req", 2.0, 5.0, Some(0)),
            span("req", 3.0, 3.5, Some(0)),
            // Runs past the parent's end: only [9, 10] is covered.
            span("req", 9.0, 12.0, Some(0)),
        ];
        let st = self_times(&spans);
        // Covered: [1, 5] and [9, 10] = 5 seconds.
        assert!((st[0] - 5.0).abs() < 1e-12);
        assert_eq!(self_times_of(&spans, &st, "req").len(), 4);
    }

    #[test]
    fn scopes_nest_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        let (v, secs) = t.scope("outer", 1, || t.scope("inner", 1, || 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
        assert!(to_json(&spans).contains("\"name\": \"inner\""));

        let off = Tracer::new(false);
        let (v, _) = off.scope("outer", 0, || 3);
        assert_eq!(v, 3);
        assert_eq!(off.record("x", 0, None, Instant::now(), Instant::now()), None);
        assert!(off.spans().is_empty());
    }
}
