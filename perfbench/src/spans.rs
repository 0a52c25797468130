//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and the id of the query it
//! serves. Spans stay in memory during the run and are written out as a
//! TSV file when it ends. A layer's self time is a span's duration minus
//! the part of its interval that its children cover.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Parent span id; `0` for a root.
    pub parent: u64,
    /// Id of the query this span serves (the id of its root span).
    pub query: u64,
    /// Per-thread tag of the thread that recorded the span.
    pub thread: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Opens a query on the calling thread: returns the id its root span
    /// will carry, which the wrapper's spans on this thread inherit.
    pub fn begin(&self) -> u64 {
        let id = self.next_id();
        set_current_query(id);
        id
    }

    /// Records the root span of a query opened with [`Recorder::begin`]
    /// or of a request whose calls are attributed later.
    pub fn root(&self, id: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        set_current_query(0);
        self.push(Span {
            id,
            parent: 0,
            query: id,
            thread: thread_tag(),
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

thread_local! {
    static CURRENT_QUERY: Cell<u64> = const { Cell::new(0) };
    static THREAD_TAG: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);

/// A small integer naming the calling thread, unique for the process.
pub fn thread_tag() -> u64 {
    THREAD_TAG.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Declares which query the calling thread works for (`0`: unknown).
pub fn set_current_query(id: u64) {
    CURRENT_QUERY.with(|c| c.set(id));
}

pub fn current_query() -> u64 {
    CURRENT_QUERY.with(|c| c.get())
}

/// Self time of every span, by span id, in nanoseconds.
pub fn self_time_by_id(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let by_id = self_time_by_id(spans);
    let mut out: HashMap<&'static str, u64> = HashMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += by_id[&s.id];
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Gives every endpoint span recorded on a server worker thread the
/// client-side request span it served. The server runs each `/sparql`
/// request on a thread of its own, so a thread's spans belong to the
/// latest request sent before the thread's first call.
pub fn attribute_by_thread(spans: &mut [Span], request_name: &'static str) {
    let mut requests: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == request_name)
        .map(|s| (s.start_ns, s.id))
        .collect();
    requests.sort_unstable();
    let mut first_call: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.query == 0) {
        let e = first_call.entry(s.thread).or_insert(u64::MAX);
        *e = (*e).min(s.start_ns);
    }
    let owner: HashMap<u64, u64> = first_call
        .into_iter()
        .filter_map(|(thread, first)| {
            let i = requests.partition_point(|&(start, _)| start <= first);
            (i > 0).then(|| (thread, requests[i - 1].1))
        })
        .collect();
    for s in spans.iter_mut().filter(|s| s.query == 0) {
        if let Some(&q) = owner.get(&s.thread) {
            s.query = q;
            if s.parent == 0 {
                s.parent = q;
            }
        }
    }
}

/// Writes spans as TSV: id, parent, query, thread, name, start, end (ns).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tquery\tthread\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.query, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            thread: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(1, 0, "q", 0, 100),
            span(2, 1, "e", 10, 40),
            span(3, 1, "e", 30, 50),
            span(4, 2, "s", 10, 35),
        ];
        let st = self_time_by_name(&spans);
        assert_eq!(st["q"], 60);
        assert_eq!(st["e"], 30 - 25 + 20);
        assert_eq!(st["s"], 25);
    }
}
