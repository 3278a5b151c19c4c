//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into a layer's public functions. Each span keeps its name, start and
//! end (nanoseconds since the tracer was created), the index of the span
//! that was open when it started, and the pass it belongs to. Spans stay
//! in memory until [`write_jsonl`] writes them out at exit.
//!
//! A disabled tracer records nothing: [`span`] just calls the closure, so
//! untraced passes run the same code with no recording cost. The tracer is
//! per thread; the benchmark's client side is one thread.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    pass: usize,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Sum of span durations.
    pub total_s: f64,
    /// Sum of span durations minus the time covered by their children.
    pub self_s: f64,
    /// Number of spans.
    pub calls: u64,
}

/// Records nested spans from one thread.
struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    pass: Cell<usize>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(false),
            pass: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off for the spans that start from now on.
    fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags the spans that start from now on with pass `pass`.
    fn set_pass(&self, pass: usize) {
        self.pass.set(pass);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` when recording is on.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                pass: self.pass.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval (e.g. a socket round trip
    /// whose end is known only to the caller) as a child of the open span.
    fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled.get() {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let parent = self.open.borrow().last().copied();
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            pass: self.pass.get(),
        });
    }

    /// Totals per span name over the spans of `pass`.
    fn totals(&self, pass: usize) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0f64; spans.len()];
        for span in spans.iter() {
            if let Some(p) = span.parent {
                child_s[p] += span.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            if span.pass != pass {
                continue;
            }
            let t = out.entry(span.name).or_default();
            t.total_s += span.seconds();
            t.self_s += span.seconds() - child_s[i];
            t.calls += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        out.flush()
    }
}

thread_local! {
    static TRACER: Tracer = Tracer::new();
}

/// Turns recording on or off for the spans that start from now on.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.set_enabled(on));
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    TRACER.with(|t| t.enabled.get())
}

/// Tags the spans that start from now on with pass `pass`.
pub fn set_pass(pass: usize) {
    TRACER.with(|t| t.set_pass(pass));
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    TRACER.with(|t| t.span(name, f))
}

/// Records an already-measured interval as a child of the open span.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    TRACER.with(|t| t.record(name, start, end));
}

/// Totals per span name over the spans of `pass`.
pub fn totals(pass: usize) -> BTreeMap<&'static str, Totals> {
    TRACER.with(|t| t.totals(pass))
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    TRACER.with(|t| t.write_jsonl(path))
}
