//! In-memory spans around the benchmark's calls into walshcheck's layers.
//!
//! A span records a name, its start and end, the span that was open when
//! it began (its parent), and a group id shared by every span of one check
//! or job. Spans stay in memory until the run ends; [`Tracer::write_jsonl`]
//! then writes them out. A disabled tracer records nothing and never reads
//! the clock, so untraced runs execute the same code path without the cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps (e.g. `"circuit.parse"`).
    pub name: &'static str,
    /// Start, in seconds since the tracer's epoch.
    pub start: f64,
    /// End, in seconds since the tracer's epoch.
    pub end: f64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The check or job this span belongs to.
    pub group: u64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`, with times relative to
    /// `epoch` (share one epoch between the tracers of one run).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` in `group`, nested in the innermost open
    /// span.
    pub fn begin(&mut self, name: &'static str, group: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start = self.now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            group,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, and any span opened after it that is still open.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = end;
            if top == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, group);
        let value = f();
        self.end(open);
        value
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends every span of `other` (a tracer of another thread) as
    /// top-level spans of their own subtrees.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Writes the spans as JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start, s.end, s.group
            )?;
        }
        out.flush()
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| s.duration() - union_length(&mut iv))
        .collect()
}

fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    covered + current.map_or(0.0, |(a, b)| b - a)
}

/// Per span name: `(calls, total seconds, self seconds)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += own;
    }
    out
}
