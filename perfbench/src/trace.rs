//! In-memory span recorder for traced runs.
//!
//! A span is `(name, start, end, parent)`, timed from outside the program:
//! each workload wraps every call into a library module's public
//! function in [`Tracer::span`]. Nothing is written while a workload runs;
//! [`Tracer::write`] dumps every span as JSON once the run is over. With
//! tracing off, [`Tracer::span`] only calls the closure.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Marks the end of the span list; pair with [`Tracer::since`] to read
    /// the spans of a window (e.g. one timed pass).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[SpanRec] {
        &self.spans[mark..]
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Seconds one span adds to the code it wraps: the mean over many empty
/// spans recorded by a scratch tracer.
pub fn span_cost_s() -> f64 {
    const SPANS: u32 = 100_000;
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    for _ in 0..SPANS {
        tracer.span("probe", |_| ());
    }
    started.elapsed().as_secs_f64() / f64::from(SPANS)
}

/// Total seconds of the spans named `name` in `spans`.
pub fn total_s(spans: &[SpanRec], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::secs)
        .sum()
}

/// Self time of the spans named `name`: their duration minus the part
/// their direct children cover. `spans` must be a window that holds every
/// child of the spans it holds.
pub fn self_s(spans: &[SpanRec], base: usize, name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| {
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(base + i))
                .map(SpanRec::secs)
                .sum();
            s.secs() - children
        })
        .sum()
}

/// Seconds of `wall_s` that no top-level span in `spans` covers. Top-level
/// spans never overlap (the tracer is single-threaded), so their sum is
/// the covered time.
pub fn unattributed_s(spans: &[SpanRec], base: usize, wall_s: f64) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| p < base))
        .map(SpanRec::secs)
        .sum();
    wall_s - covered
}
