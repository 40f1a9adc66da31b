//! The traced run's span recorder: one span per call into a layer,
//! kept in memory and written out when the run ends.

use std::io::{self, Write};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use crate::report::Totals;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Layer name (`pairsearch`, `kernel`, ...).
    pub name: &'static str,
    /// Host ns since the recorder started.
    pub start_ns: u64,
    /// Host ns since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which replica run (MD: 0; serve: the job index) it belongs to.
    pub run: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// In-memory span sink.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Run id stamped on new spans.
    pub run: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Empty recorder; times count from now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span named `name` under `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name call count and total ms of the spans in `ranges` (of
    /// span indices).
    pub fn totals_of(&self, ranges: impl IntoIterator<Item = Range<usize>>) -> Totals {
        let mut t = Totals::new();
        for s in ranges.into_iter().flat_map(|r| &self.spans[r]) {
            let e = t.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
        }
        t
    }

    /// Write every span as a Chrome trace (`chrome://tracing`).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"run\":{}}}}}{}",
                s.name,
                s.run,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                i,
                parent,
                s.run,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
