//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public function: its name, start, end, the span that caused it and the
//! request it belongs to. Spans stay in memory and are written out as CSV
//! when the run ends. A span's duration has the cost of one clock read
//! subtracted, calibrated when the recorder is built.

use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; `ROOT` means "no parent".
pub type SpanId = u32;

/// Parent id of a top-level span.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// What the benchmark calls at each layer boundary: the [`Tracer`] in the
/// traced run and [`Off`] in the end-to-end runs, where it compiles away.
pub trait Probe {
    /// Whether spans are recorded.
    const ON: bool;

    /// Opens a span and returns its id.
    fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId;

    /// Closes a span opened by [`Probe::open`].
    fn close(&mut self, id: SpanId);
}

/// The probe of the untraced runs: records nothing.
#[derive(Debug, Default)]
pub struct Off;

impl Probe for Off {
    const ON: bool = false;

    #[inline(always)]
    fn open(&mut self, _name: &'static str, _parent: SpanId, _request: u64) -> SpanId {
        ROOT
    }

    #[inline(always)]
    fn close(&mut self, _id: SpanId) {}
}

impl Probe for Tracer {
    const ON: bool = true;

    fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        // Push first, so the span does not time its own bookkeeping.
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: 0,
            end_ns: 0,
        });
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start_ns;
        span.end_ns = start_ns;
        id
    }

    fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize - 1].end_ns = end_ns;
    }
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    clock_cost_ns: f64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates.
    /// The buffer is touched up front, so recording takes no page faults.
    pub fn new(capacity: usize) -> Self {
        let origin = Instant::now();
        let blank = Span {
            name: "",
            parent: ROOT,
            request: 0,
            start_ns: 0,
            end_ns: 0,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        let mut gaps: Vec<f64> = (0..4096)
            .map(|_| {
                let start = origin.elapsed();
                (origin.elapsed() - start).as_nanos() as f64
            })
            .collect();
        Self {
            origin,
            spans,
            clock_cost_ns: crate::stats::median(&mut gaps),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of every span named `name`, clock cost removed, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| self.duration_of(span))
            .collect()
    }

    fn duration_of(&self, span: &Span) -> f64 {
        ((span.end_ns - span.start_ns) as f64 - self.clock_cost_ns).max(0.0)
    }

    /// For every span named `parent`, the summed durations of its direct
    /// children whose names are in `children`, in ns.
    pub fn child_sums(&self, parent: &str, children: &[&str]) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT && children.contains(&span.name) {
                sums[span.parent as usize - 1] += self.duration_of(span);
            }
        }
        self.spans
            .iter()
            .zip(sums)
            .filter(|(span, _)| span.name == parent)
            .map(|(_, sum)| sum)
            .collect()
    }

    /// Duration of every span named `child` whose parent is named
    /// `parent`, in ns.
    pub fn child_durations(&self, parent: &str, child: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| {
                span.name == child
                    && span.parent != ROOT
                    && self.spans[span.parent as usize - 1].name == parent
            })
            .map(|span| self.duration_of(span))
            .collect()
    }

    /// Writes every span as CSV (`id,parent,request,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 48 + 64);
        text.push_str("id,parent,request,name,start_ns,end_ns\n");
        for (index, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                text,
                "{},{},{},{},{},{}",
                index + 1,
                span.parent,
                span.request,
                span.name,
                span.start_ns,
                span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
