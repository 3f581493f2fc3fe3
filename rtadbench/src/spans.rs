//! Span recording for the traced run: `(layer, start, end, parent)`
//! around the benchmark's calls into each layer, kept in memory and
//! written out when the run ends.

use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span log with an implicit parent stack.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span).
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer);
        let r = f();
        self.end(id);
        r
    }

    /// Total nanoseconds of every span of `layer`.
    pub fn total_ns(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold(0.0, |acc, s| acc + (s.end_ns - s.start_ns) as f64)
    }

    /// Total seconds of every span of `layer`.
    pub fn total_s(&self, layer: &str) -> f64 {
        self.total_ns(layer) * 1e-9
    }

    /// Mean seconds of the spans of `layer`; 0 when there are none.
    pub fn mean_s(&self, layer: &str) -> f64 {
        let n = self.spans.iter().filter(|s| s.layer == layer).count();
        self.total_s(layer) / n.max(1) as f64
    }

    /// Writes every span as one JSON object per line to
    /// `rtadbench/out/spans-<workload>-<seed>.jsonl` under the current
    /// directory and returns the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = std::path::Path::new("rtadbench").join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.layer, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(path.display().to_string())
    }
}
