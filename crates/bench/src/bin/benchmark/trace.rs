//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans stay in memory while a workload runs and are written as JSON lines
//! when it ends.  A span's self time is its duration minus the part of it
//! that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  `parent` is the index of the span that caused it;
/// spans of one operation share `op`.  `count` is the work counted at the
/// same boundary (values, bytes or messages, as the span's name implies).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// An in-memory span log of one thread.
pub struct Recorder {
    epoch: Instant,
    next_op: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts at `epoch`; recorders of several threads
    /// share one epoch so that [`Recorder::absorb`] keeps their order.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            // Above every operation index a timed section uses as its id.
            next_op: 1 << 32,
            spans: Vec::new(),
        }
    }

    /// A fresh operation id for spans that belong to no timed operation.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Duration of a closed span in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Runs `f` under a span of its own operation; returns what it returned
    /// and how long it took.
    pub fn time<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let op = self.next_op();
        let id = self.open(name, op, None);
        let out = f();
        self.close(id, count);
        (out, self.seconds(id))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index, to close it and to parent others.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording the work counted at its boundary.
    pub fn close(&mut self, id: usize, count: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Whether operation `i` of a traced run gets a root span.  Every second
/// operation does, and the parity flips after each `period` operations, so
/// that inputs reused with that period are seen equally often with and
/// without a span.
pub fn under_span(i: usize, period: usize) -> bool {
    (i + i / period) % 2 == 1
}

/// Self time of every span, in nanoseconds: its duration minus the union of
/// its children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Calls and total self time (ns) per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += self_ns;
    }
    by_name
}

/// Prints calls and self time per span name, then writes the spans to `path`.
pub fn report(path: &Path, spans: &[Span]) -> Result<(), String> {
    println!("self time by span (span minus what its children cover):");
    for (name, (calls, self_ns)) in self_time_by_name(spans) {
        let self_ms = self_ns as f64 * 1e-6;
        println!("  {name:<24} calls {calls:>7}  self {self_ms:>11.3} ms");
    }
    write_jsonl(path, spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} spans in {}", spans.len(), path.display());
    Ok(())
}

/// Writes one JSON object per span.
fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a` and runs past the root: only 30..100 is new cover.
            span("b", Some(0), 20, 120),
            span("leaf", Some(1), 12, 18),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 14, 100, 6]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], (1, 10));
        assert_eq!(by_name["leaf"], (1, 6));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut main = Recorder::new(epoch);
        let root = main.open("root", 1, None);
        main.close(root, 0);
        let mut other = Recorder::new(epoch);
        let parent = other.open("root", 2, None);
        let child = other.open("child", 2, Some(parent));
        other.close(child, 3);
        other.close(parent, 0);
        main.absorb(other);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].count, 3);
        assert!(main.spans[1].end_ns >= main.spans[2].end_ns);
    }
}
