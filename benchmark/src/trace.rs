//! Spans recorded by the harness around its own calls into the layers.
//!
//! Each thread appends to its own [`SpanBuf`] (no shared writes while a
//! rep runs); the main thread splices the buffers into one [`Trace`]
//! after the workers have returned, and writes it out when the run ends.

use std::fmt::Write as _;
use std::path::Path;

use growt_repro::growt_workloads::Clock;

/// One span as recorded on a thread: clock readings, and the index of the
/// enclosing span in the same buffer.
#[derive(Clone, Debug)]
pub struct RawSpan {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u32>,
    ops: u64,
    migrations: Option<(u64, u64)>,
}

/// A thread's span buffer for one job.
#[derive(Debug, Default)]
pub struct SpanBuf {
    spans: Vec<RawSpan>,
    open: Vec<u32>,
}

impl SpanBuf {
    /// An empty buffer with room for one rep's spans.
    pub fn new() -> Self {
        SpanBuf {
            spans: Vec::with_capacity(1 << 12),
            open: Vec::with_capacity(8),
        }
    }

    /// Open a span at clock reading `now`, nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, now: u64) {
        let parent = self.open.last().copied();
        self.open.push(self.spans.len() as u32);
        self.spans.push(RawSpan {
            name,
            start: now,
            end: now,
            parent,
            ops: 0,
            migrations: None,
        });
    }

    /// Close the innermost open span, recording how many operations it
    /// covered.
    pub fn end(&mut self, now: u64, ops: u64) {
        let index = self.open.pop().expect("span end without begin") as usize;
        self.spans[index].end = now;
        self.spans[index].ops = ops;
    }

    /// Record a finished span of one stalled operation, with the map's
    /// completed-migration count before and after it.
    pub fn stalled_op(&mut self, start: u64, end: u64, migrations: (u64, u64)) {
        self.spans.push(RawSpan {
            name: "op.stalled",
            start,
            end,
            parent: self.open.last().copied(),
            ops: 1,
            migrations: Some(migrations),
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// A span of the merged trace.
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier, unique in the trace.
    pub id: u32,
    /// What was running.
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// 0 for the main thread, `1 + worker index` for workers.
    pub thread: u32,
    /// Operations covered.
    pub ops: u64,
    /// Completed migrations before and after (stalled-op spans only).
    pub migrations: Option<(u64, u64)>,
}

/// The run's trace: main-thread spans and the workers' spliced buffers.
pub struct Trace {
    clock: Clock,
    origin: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Trace {
    /// Start a trace now.
    pub fn new(clock: Clock) -> Self {
        Trace {
            clock,
            origin: clock.now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn rel_ns(&self, reading: u64) -> u64 {
        self.clock.delta_ns(self.origin, reading)
    }

    /// Open a main-thread span.
    pub fn begin(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let now = self.rel_ns(self.clock.now());
        self.spans.push(Span {
            id,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            thread: 0,
            ops: 0,
            migrations: None,
        });
        self.open.push(id);
    }

    /// Close the innermost open main-thread span.
    pub fn end(&mut self, ops: u64) {
        let id = self.open.pop().expect("span end without begin") as usize;
        self.spans[id].end_ns = self.rel_ns(self.clock.now());
        self.spans[id].ops = ops;
    }

    /// Splice a worker's buffer in: its top-level spans become children of
    /// the innermost open main-thread span.
    pub fn splice(&mut self, worker: usize, buf: SpanBuf) {
        let base = self.spans.len() as u32;
        let outer = self.open.last().copied();
        for (offset, raw) in buf.spans.into_iter().enumerate() {
            self.spans.push(Span {
                id: base + offset as u32,
                name: raw.name,
                start_ns: self.rel_ns(raw.start),
                end_ns: self.rel_ns(raw.end),
                parent: raw.parent.map(|p| base + p).or(outer),
                thread: worker as u32 + 1,
                ops: raw.ops,
                migrations: raw.migrations,
            });
        }
    }

    /// All spans, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                s.id, s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"thread\":{},\"ops\":{}", s.thread, s.ops);
            if let Some((before, after)) = s.migrations {
                let _ = write!(
                    out,
                    ",\"migrations_before\":{before},\"migrations_after\":{after}"
                );
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the trace to `path`, creating the directory if needed.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed))
    }
}
