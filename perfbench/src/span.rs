//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer name, its start and end (nanoseconds since the
//! tracer was made), the span open around it, how many items (accesses or
//! chunks) it handled, and how many allocation calls the calling thread
//! made inside it. Spans stay in memory until the run ends, then are
//! written out as JSON lines and folded into per-layer totals.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// Upper bound on spans kept per run. Storage is reserved up front, so
/// recording never allocates inside a measured call.
const CAPACITY: usize = 1 << 16;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `session.run_chunk`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Accesses (or chunks) the call handled.
    pub count: u64,
    /// Allocation calls the thread made between start and end.
    pub allocs: u64,
}

/// A span begun by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records spans while enabled; does nothing, not even read the clock,
/// while disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer, recording from the start when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            stack: Vec::with_capacity(64),
            dropped: 0,
        }
    }

    /// Turns recording on or off; call between spans, not inside one.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled && self.spans.capacity() < CAPACITY {
            self.spans.reserve_exact(CAPACITY - self.spans.len());
        }
        self.enabled = enabled;
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            count: 0,
            allocs: alloc::this_thread(),
        });
        self.stack.push(id);
        // Read the clock last so the bookkeeping above falls outside.
        self.spans[id].start_ns = self.now_ns();
        Open(Some(id))
    }

    /// Closes `open`, recording that it handled `count` items.
    pub fn end(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let allocs = alloc::this_thread();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.count = count;
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                }
                reach = reach.max(end);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Each span's own allocation calls: its count minus its children's.
pub fn self_allocs(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.allocs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.allocs);
        }
    }
    own
}

/// Self time, items and allocation calls summed over every span of one
/// layer name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    /// Spans of this name.
    pub calls: u64,
    /// Summed self time in nanoseconds.
    pub self_ns: u64,
    /// Summed items handled.
    pub count: u64,
    /// Summed own allocation calls.
    pub allocs: u64,
}

/// Per-layer totals keyed by span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let times = self_times(spans);
    let allocs = self_allocs(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_ns += times[i];
        layer.count += s.count;
        layer.allocs += allocs[i];
    }
    out
}

/// Writes `spans` as JSON lines (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`, `self_ns`, `count`, `allocs`) to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let times = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {}, \"count\": {}, \"allocs\": {}}}",
            s.name, s.start_ns, s.end_ns, times[i], s.count, s.allocs
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            count: 1,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps the first child: [10, 50) is covered once.
            span("b", Some(0), 20, 50),
            // Runs past the parent's end: only [90, 100) counts.
            span("c", Some(0), 90, 120),
            span("leaf", Some(1), 12, 18),
        ];
        let times = self_times(&spans);
        assert_eq!(times, vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn self_allocs_and_layer_totals() {
        let mut spans = vec![
            span("pass", None, 0, 100),
            span("decode", Some(0), 0, 40),
            span("decode", Some(0), 50, 60),
        ];
        spans[0].allocs = 10;
        spans[1].allocs = 3;
        spans[2].allocs = 4;
        spans[1].count = 30;
        spans[2].count = 70;
        assert_eq!(self_allocs(&spans), vec![3, 3, 4]);
        let by = layers(&spans);
        assert_eq!(
            by["decode"],
            Layer {
                calls: 2,
                self_ns: 50,
                count: 100,
                allocs: 7
            }
        );
        assert_eq!(by["pass"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_spans_and_skips_when_disabled() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        let b = std::hint::black_box(Box::new(1u8));
        tr.end(inner, 5);
        tr.end(outer, 9);
        drop(b);
        tr.set_enabled(false);
        let skipped = tr.begin("skipped");
        tr.end(skipped, 1);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].count, spans[1].count), (9, 5));
        assert_eq!(spans[1].allocs, 1);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(self_allocs(spans), vec![0, 1]);
    }
}
