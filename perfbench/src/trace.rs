//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the run began), the
//! span it ran inside, and the id of the request (statement or arrival) it
//! belongs to. Spans named `bench.*` are the harness's own work (capturing
//! intermediates for the isolated layer timings); their time is taken out
//! of every enclosing span, so a layer's reported time is the layer's
//! alone.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Harness time inside this span, its own or its descendants'.
    harness_ns: u64,
    /// Time of non-harness direct children, net of their harness time.
    child_ns: u64,
}

/// Handle of an open span; `None` when the request is not traced.
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Whether the current request records spans.
    pub active: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            active: false,
        }
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn fork(&self) -> Self {
        Tracer {
            t0: self.t0,
            spans: Vec::new(),
            open: Vec::new(),
            active: false,
        }
    }

    /// Appends the spans another thread recorded on a forked tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.active {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            harness_ns: 0,
            child_ns: 0,
        });
        self.open.push(id);
        // Stamped last so the bookkeeping above is not inside the span.
        self.spans[id].start_ns = self.now_ns();
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        let gross = end - span.start_ns;
        let harness = span.name.starts_with("bench.");
        let (own_harness, net) = if harness {
            (gross, 0)
        } else {
            (span.harness_ns, gross - span.harness_ns)
        };
        if let Some(p) = span.parent {
            let parent = &mut self.spans[p];
            parent.harness_ns += own_harness;
            parent.child_ns += net;
        }
    }

    /// Duration of a closed span with harness time taken out.
    pub fn net_ns(&self, id: SpanId) -> u64 {
        id.map_or(0, |i| {
            let s = &self.spans[i];
            (s.end_ns - s.start_ns) - s.harness_ns
        })
    }

    /// Duration of a closed span including harness time.
    pub fn gross_ns(&self, id: SpanId) -> u64 {
        id.map_or(0, |i| self.spans[i].end_ns - self.spans[i].start_ns)
    }

    /// Net time of a closed span not covered by its child spans.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        id.map_or(0, |i| {
            self.net_ns(id).saturating_sub(self.spans[i].child_ns)
        })
    }

    /// Net durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.net_ns(Some(i)) as f64 / 1e3)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one tab-separated line:
    /// `req name start_ns end_ns parent self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "req\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                self.self_ns(Some(i))
            )?;
        }
        out.flush()
    }
}

/// Where a traced run leaves its spans: inside the build directory, which
/// lies in the checkout and is ignored by git.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Path::new(&dir)
        .join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.tsv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_time_leaves_enclosing_spans() {
        let mut t = Tracer::new();
        t.active = true;
        let root = t.begin("stmt", 1);
        let cap = t.begin("bench.capture", 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(cap);
        let child = t.begin("layer", 1);
        t.end(child);
        t.end(root);
        assert!(t.gross_ns(root) >= 5_000_000);
        assert!(t.net_ns(root) < t.gross_ns(root) - 4_000_000);
        assert!(t.self_ns(root) <= t.net_ns(root) - t.net_ns(child));
    }

    #[test]
    fn inactive_requests_record_nothing() {
        let mut t = Tracer::new();
        let s = t.begin("stmt", 1);
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
