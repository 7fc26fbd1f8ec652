//! The benchmark's span recorder.
//!
//! A traced run wraps every call the benchmark makes into a layer's
//! public function in a span: name, start, end, parent span and the id
//! of the unit or query that caused it. Spans stay in memory and are
//! written out once, at exit. Replays are sequential, so one stack of
//! open spans gives every span its parent; layers that fan out
//! internally (a 2-thread enumeration) are one span.
//!
//! A disabled tracer still runs the wrapped call, and records nothing:
//! the traced and untraced replays execute the same code, so their wall
//! ratio is the tracing overhead.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
    pub max_s: f64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    unit: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            unit: Cell::new(0),
        }
    }

    /// Tags the spans that follow with the unit or query id `id`.
    pub fn set_unit(&self, id: u64) {
        self.unit.set(id);
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                unit: self.unit.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of each span: its duration minus the time its children
/// cover (children of one sequential parent never overlap).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_s();
        }
    }
    own
}

/// Calls, total, self and longest single duration per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<String, Totals> {
    let own = self_times(spans);
    let mut out: BTreeMap<String, Totals> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(own) {
        let t = out.entry(s.name.clone()).or_default();
        t.calls += 1;
        t.total_s += s.dur_s();
        t.self_s += self_s;
        t.max_s = t.max_s.max(s.dur_s());
    }
    out
}

/// Writes the spans as JSON lines to `path`, one span per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.unit
        )?;
    }
    out.flush()
}
