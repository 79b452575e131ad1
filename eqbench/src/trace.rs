//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and op id. Spans stay
//! in memory while the run measures and are written out as JSON lines when
//! it ends. A disabled tracer records nothing and costs one branch per
//! call, which is how the untraced runs use it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub op: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer for another thread sharing this one's epoch and setting.
    pub fn child(&self, thread: u32) -> Tracer {
        Tracer::new(self.enabled, self.epoch, thread)
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32,
            parent: self.stack.last().map(|&p| p as u32),
            name,
            op,
            thread: self.thread,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let r = f();
        self.end(open);
        r
    }

    /// Move another thread's spans into this tracer, renumbering ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Total and self time (duration minus the part covered by direct
    /// children) and count, per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(*kids);
        }
        out
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, sum), s| (n + 1, sum + s.dur_ns()));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Write the first `limit` spans as one JSON object per line, then a
    /// line with the number left out, then one summary line per span name
    /// computed over all spans.
    pub fn write(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.op, s.thread, s.start_ns, s.end_ns
            )?;
        }
        writeln!(
            w,
            "{{\"spans\":{},\"written\":{}}}",
            self.spans.len(),
            self.spans.len().min(limit)
        )?;
        for (name, st) in self.summary() {
            writeln!(
                w,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                st.count, st.total_ns, st.self_ns
            )?;
        }
        w.flush()
    }
}

#[derive(Default, Clone, Copy)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}
