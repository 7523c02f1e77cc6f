//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a layer's
//! public API.  Spans live in memory until the run ends; nothing is
//! written while a pass is being timed.  When tracing is off, `span`
//! calls the closure and records nothing.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.  Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Counts taken at the same boundary (events, runs, bytes, ...).
    pub counts: Vec<(&'static str, u64)>,
    /// An aggregate stands for work done on other threads (the layout
    /// generator closure, the server's store calls): its length is the
    /// measured total, placed at the start of its parent.
    pub aggregate: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: Cell::new(false),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                counts: Vec::new(),
                aggregate: false,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let value = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        value
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&self, name: &'static str, value: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(&id) = self.open.borrow().last() {
            self.spans.borrow_mut()[id].counts.push((name, value));
        }
    }

    /// Records work measured elsewhere as a child of the innermost open
    /// span (see [`Span::aggregate`]).
    pub fn aggregate(&self, name: &str, busy: Duration, counts: Vec<(&'static str, u64)>) {
        if !self.enabled() {
            return;
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let start_ns = parent.map_or(0, |p| spans[p].start_ns);
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + busy.as_nanos() as u64,
            parent,
            counts,
            aggregate: true,
        });
    }

    /// Moves the recorded spans out, leaving the tracer empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span: its length minus the part of it that its
/// children cover (children never overlap one another here, because
/// every span is opened on the benchmark's single driving thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(span, &c)| span.duration_ns().saturating_sub(c))
        .collect()
}

/// Renders spans as a JSON array (the trace file's `spans` field).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"aggregate\":{},\"counts\":{{",
            span.name, span.start_ns, span.end_ns, span.aggregate
        );
        for (j, (name, value)) in span.counts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new();
        assert_eq!(tracer.span("a", || 7), 7);
        tracer.count("n", 1);
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(Duration::from_millis(2)));
            tracer.count("events", 5);
            tracer.aggregate("elsewhere", Duration::from_micros(10), vec![]);
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[2].aggregate);
        assert_eq!(spans[0].counts, vec![("events", 5)]);
        let own = self_times_ns(&spans);
        assert!(own[0] < spans[0].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns());
        assert!(to_json(&spans).contains("\"name\":\"inner\""));
    }
}
