//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), start, end, parent span and op id.
//! Each thread owns a [`Tracer`]; the spans of all threads are merged when
//! the run ends, written out, and reduced to per-call medians and to each
//! layer's self time (its spans' duration minus what their children cover).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    Setup,
    Window,
    /// Calls the workload's correctness checks make on the window's
    /// repositories, outside the measured time.
    Check,
    /// Calls made after the window to reach layers the ops do not call.
    Probe,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Window => "window",
            Phase::Check => "check",
            Phase::Probe => "probe",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub op: u64,
    pub phase: Phase,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Spans kept per run; beyond this the run stops recording (and says so).
const SPAN_CAP: usize = 2_000_000;

/// One thread's span recorder. Disabled tracers record nothing and add
/// only a branch per call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    /// High bits of every span id this tracer issues, so ids stay unique
    /// when threads' spans are merged.
    tag: u64,
    next: Cell<u64>,
    current: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    dropped: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant, tag: u64) -> Tracer {
        Tracer {
            on,
            t0,
            tag: tag << 48,
            next: Cell::new(1),
            current: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            dropped: Cell::new(0),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    /// Begin op `op`; `traced` selects whether its spans are recorded.
    pub fn op(&self, phase: Phase, op: u64, traced: bool) -> OpScope<'_> {
        let traced = traced && self.on;
        let root = if traced { self.issue() } else { 0 };
        if traced {
            self.current.set(root);
        }
        OpScope {
            tracer: self,
            phase,
            op,
            root,
            traced,
            start: Instant::now(),
        }
    }

    fn issue(&self) -> u64 {
        let id = self.next.get();
        self.next.set(id + 1);
        self.tag | id
    }

    fn record(&self, span: Span) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() < SPAN_CAP {
            spans.push(span);
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    /// Take over spans another thread recorded.
    pub fn adopt(&self, spans: Vec<Span>) {
        self.spans.borrow_mut().extend(spans);
    }

    pub fn into_spans(self) -> (Vec<Span>, u64) {
        (self.spans.into_inner(), self.dropped.get())
    }
}

/// An op in progress. Calls made through [`OpScope::call`] become child
/// spans of the op (or of the enclosing call).
pub struct OpScope<'a> {
    tracer: &'a Tracer,
    phase: Phase,
    op: u64,
    root: u64,
    traced: bool,
    start: Instant,
}

impl OpScope<'_> {
    /// Run `f` inside a span named `name`.
    pub fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t = self.tracer;
        let id = t.issue();
        let parent = t.current.replace(id);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        t.current.set(parent);
        t.record(Span {
            id,
            parent,
            op: self.op,
            phase: self.phase,
            name,
            start_ns: t.ns(start),
            end_ns: t.ns(end),
        });
        out
    }

    /// Record a span measured elsewhere (for example a wait that ended on
    /// another call), as a child of this op.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.traced {
            return;
        }
        let t = self.tracer;
        t.record(Span {
            id: t.issue(),
            parent: self.root,
            op: self.op,
            phase: self.phase,
            name,
            start_ns: t.ns(start),
            end_ns: t.ns(end),
        });
    }

    /// End the op; returns its latency in milliseconds.
    pub fn finish(self) -> f64 {
        let end = Instant::now();
        if self.traced {
            let t = self.tracer;
            t.current.set(0);
            t.record(Span {
                id: self.root,
                parent: 0,
                op: self.op,
                phase: self.phase,
                name: "op",
                start_ns: t.ns(self.start),
                end_ns: t.ns(end),
            });
        }
        crate::common::ms(end.duration_since(self.start))
    }
}

/// Durations (ms) of every span named `name` in `phase`.
pub fn durations(spans: &[Span], name: &str, phase: Phase) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.phase == phase && s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time per layer (the span name up to its first `.`; root op spans
/// count as the benchmark's own `op` layer), summed over window spans and
/// divided by the number of traced window ops.
pub fn self_time_per_op(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child_ms: HashMap<u64, f64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.phase == Phase::Window && s.parent != 0)
    {
        *child_ms.entry(s.parent).or_default() += s.ms();
    }
    let mut per_layer: HashMap<&str, f64> = HashMap::new();
    let mut ops = 0usize;
    for s in spans.iter().filter(|s| s.phase == Phase::Window) {
        if s.parent == 0 {
            ops += 1;
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let own = (s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        *per_layer.entry(layer).or_default() += own;
    }
    let mut out: Vec<(String, f64)> = per_layer
        .into_iter()
        .map(|(k, v)| (k.to_string(), crate::common::ratio(v, ops as f64)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Write every span as tab-separated text.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tphase\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.op,
            s.phase.name(),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
