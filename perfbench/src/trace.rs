//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded in the benchmark's own code around calls into each
//! layer's public functions (the simulator itself is not instrumented).
//! They stay in memory until the run ends and are then written out once.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `pipeline.functional_run`.
    pub name: &'static str,
    /// Execution of a unit this span belongs to (shared by all its spans).
    pub unit: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and counter recorder. Every span opened with [`Tracer::begin`]
/// must be closed with [`Tracer::end`] in LIFO order.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
    labels: Vec<String>,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            labels: Vec::new(),
            counters: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Starts a new unit execution: later spans carry its id.
    pub fn start_unit(&mut self, label: &str) {
        self.labels.push(label.to_string());
        self.unit = (self.labels.len() - 1) as u32;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push((self.spans.len() - 1) as u32);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let i = self.open.pop().expect("end without begin") as usize;
        self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Adds `n` to a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// A counter's total (0 if never touched).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Median duration of the spans named `name`, in nanoseconds (0 when
    /// there are none).
    pub fn median_ns(&self, name: &str) -> f64 {
        median(&self.durations(name)).unwrap_or(0.0)
    }

    /// Summed duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span (and the unit labels) as one JSON document.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"units\":[")?;
        for (i, l) in self.labels.iter().enumerate() {
            let sep = if i + 1 < self.labels.len() { "," } else { "" };
            writeln!(w, "{{\"id\":{i},\"label\":{l:?}}}{sep}")?;
        }
        writeln!(w, "],\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut t = Tracer::default();
        t.start_unit("u0");
        t.begin("outer");
        t.leaf("inner", || std::hint::black_box(1 + 1));
        t.leaf("inner", || ());
        t.end();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.total_ns("outer") >= t.total_ns("inner"));
        t.count("n", 2);
        t.count("n", 3);
        assert_eq!(t.counter("n"), 5);
        assert_eq!(t.counter("missing"), 0);
        assert_eq!(t.median_ns("missing"), 0.0);
    }
}
