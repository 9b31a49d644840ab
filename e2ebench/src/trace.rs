//! In-memory spans recorded around calls into the repository's public
//! functions, and their aggregation into per-layer metrics.
//!
//! A span has a name, start, end, parent and request id.  Self time is a
//! span's duration minus its children's.  Some children are measured on a
//! replica that repeats the parent's work with the layer boundary exposed
//! (the service replica, the shadow `EditView`), so self time subtracts
//! durations rather than covered intervals.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn start(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `work` inside a span and returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        work: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.start(name, parent, request);
        let result = work();
        self.end(id);
        (result, id)
    }

    /// Writes every span as one tab-separated line: id, name, request,
    /// parent, start and end in ns.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "id\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    /// Calls and summed self time (µs) per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns) as f64 - children as f64;
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += own / 1e3;
        }
        totals
    }

    /// Summed whole duration (µs) of the spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e3)
            .sum()
    }
}
