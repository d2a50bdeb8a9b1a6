//! Spans recorded from the benchmark's own files, around each call into a
//! layer. They are kept in memory and written out as JSON lines when the run
//! ends. End-to-end metrics never come from a traced run: the client loop is
//! generic over [`Spans`] and the untraced instantiation, [`NoSpans`],
//! compiles to nothing.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Every span name the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    OpGet,
    OpPut,
    OpScan,
    DbGet,
    DbPut,
    DbScanOpen,
    IteratorDrain,
    Verify,
    DbOpen,
    DbReopen,
    DbFlush,
    DbCompactionDrain,
    DbClose,
}

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::OpGet => "op.get",
            SpanName::OpPut => "op.put",
            SpanName::OpScan => "op.scan",
            SpanName::DbGet => "core.db.get",
            SpanName::DbPut => "core.db.put",
            SpanName::DbScanOpen => "core.db.scan_open",
            SpanName::IteratorDrain => "core.iterator.drain",
            SpanName::Verify => "bench.verify",
            SpanName::DbOpen => "core.db.open",
            SpanName::DbReopen => "core.db.reopen",
            SpanName::DbFlush => "core.db.flush",
            SpanName::DbCompactionDrain => "core.db.compaction_drain",
            SpanName::DbClose => "core.db.close",
        }
    }

    /// Whether the span covers a call into the engine (as opposed to the
    /// harness's own work or a root span around both).
    pub fn is_engine_call(self) -> bool {
        self.as_str().starts_with("core.")
    }
}

/// Handle of an open span; [`NO_PARENT`] marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

pub trait Spans {
    /// Opens a span. A root span (`parent == NO_PARENT`) starts a new request.
    fn open(&mut self, name: SpanName, parent: SpanId) -> SpanId;
    fn close(&mut self, id: SpanId);
}

/// Tracing off.
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn open(&mut self, _name: SpanName, _parent: SpanId) -> SpanId {
        0
    }

    #[inline(always)]
    fn close(&mut self, _id: SpanId) {}
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub parent: SpanId,
    /// Request the span belongs to: spans of one op share it.
    pub req: u32,
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans; ids index into `spans`.
pub struct Recorder {
    /// All recorders of a run share one epoch so their clocks line up.
    epoch: Instant,
    req: u32,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Recorder { epoch, req: 0, spans: Vec::with_capacity(capacity) }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sorted durations of every span called `name`, in nanoseconds.
    pub fn durations(recorders: &[Recorder], name: SpanName) -> Vec<u64> {
        let mut nanos: Vec<u64> = recorders
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect();
        nanos.sort_unstable();
        nanos
    }
}

impl Spans for Recorder {
    fn open(&mut self, name: SpanName, parent: SpanId) -> SpanId {
        if parent == NO_PARENT {
            self.req += 1;
        }
        let start_ns = self.now();
        self.spans.push(Span { parent, req: self.req, name, start_ns, end_ns: start_ns });
        (self.spans.len() - 1) as SpanId
    }

    fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now();
    }
}

/// How root-span time splits between engine calls, other child spans, and the
/// roots' own time (generator, timers, loop).
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    pub root_ns: u64,
    pub engine_ns: u64,
    pub other_child_ns: u64,
}

impl Coverage {
    pub fn of(recorders: &[Recorder]) -> Coverage {
        let mut coverage = Coverage::default();
        for span in recorders.iter().flat_map(|r| &r.spans) {
            if span.parent == NO_PARENT {
                coverage.root_ns += span.nanos();
            } else if span.name.is_engine_call() {
                coverage.engine_ns += span.nanos();
            } else {
                coverage.other_child_ns += span.nanos();
            }
        }
        coverage
    }
}

/// Writes every span as one JSON object per line:
/// `{id, parent, req, thread, name, start_ns, end_ns}`. Ids are unique within
/// a thread (one recorder each); `parent` is `null` for a root.
pub fn write_jsonl<'a>(
    path: &Path,
    recorders: impl IntoIterator<Item = &'a Recorder>,
) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (thread, recorder) in recorders.into_iter().enumerate() {
        for (id, span) in recorder.spans.iter().enumerate() {
            write!(out, "{{\"id\":{id},\"parent\":")?;
            match span.parent {
                NO_PARENT => write!(out, "null")?,
                parent => write!(out, "{parent}")?,
            }
            writeln!(
                out,
                ",\"req\":{},\"thread\":{thread},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.req,
                span.name.as_str(),
                span.start_ns,
                span.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_share_the_request_of_their_root() {
        let mut recorder = Recorder::new(Instant::now(), 8);
        let root = recorder.open(SpanName::OpGet, NO_PARENT);
        let call = recorder.open(SpanName::DbGet, root);
        recorder.close(call);
        let check = recorder.open(SpanName::Verify, root);
        recorder.close(check);
        recorder.close(root);
        let next = recorder.open(SpanName::OpPut, NO_PARENT);
        recorder.close(next);

        let spans = &recorder.spans;
        assert_eq!(spans[call as usize].parent, root);
        assert_eq!(spans[call as usize].req, spans[root as usize].req);
        assert_ne!(spans[next as usize].req, spans[root as usize].req);
        assert!(spans[root as usize].end_ns >= spans[check as usize].end_ns);

        let coverage = Coverage::of(std::slice::from_ref(&recorder));
        assert_eq!(coverage.engine_ns, spans[call as usize].nanos());
        assert_eq!(coverage.other_child_ns, spans[check as usize].nanos());
        assert_eq!(coverage.root_ns, spans[root as usize].nanos() + spans[next as usize].nanos());
    }
}
