//! In-memory span recorder.
//!
//! A span is one timed call across a layer boundary: its name, the query it
//! belongs to, the span that was open when it began (its parent), and its
//! start and end on a monotonic clock. Spans stay in memory while the
//! workload runs and are written out once it ends, so the hot path pays a
//! lock, two clock reads and a vector push per span.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Interned name (see [`Recorder::name`]).
    pub name: u32,
    /// Query (or batch) the span belongs to.
    pub query: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store plus the stack of spans open right now.
pub struct Recorder {
    origin: Instant,
    names: Vec<String>,
    ids: HashMap<String, u32>,
    spans: Vec<Span>,
    open: Vec<u32>,
    query: u64,
    on: bool,
    bytes: BTreeMap<u32, u64>,
    /// Ends that did not match the innermost open span.
    pub nesting_errors: u64,
}

/// The recorder shared by the benchmark loop and the device wrappers.
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<Recorder>>);

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Interns `name`, returning its id.
    pub fn name(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// The name behind an interned id.
    pub fn name_of(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Adds `n` bytes to the byte counter kept for the name `name` (while
    /// recording is on).
    pub fn add_bytes(&mut self, name: u32, n: u64) {
        if self.on {
            *self.bytes.entry(name).or_default() += n;
        }
    }

    /// Bytes counted under `name`.
    pub fn bytes_of(&mut self, name: &str) -> u64 {
        let id = self.name(name);
        self.bytes.get(&id).copied().unwrap_or(0)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span under the innermost open one. `None` while recording is
    /// off.
    pub fn begin(&mut self, name: u32) -> Option<u32> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            query: self.query,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, idx: Option<u32>) {
        let Some(idx) = idx else { return };
        let end_ns = self.now();
        self.spans[idx as usize].end_ns = end_ns;
        if self.open.pop() != Some(idx) {
            self.nesting_errors += 1;
        }
    }
}

impl Tracer {
    /// A recorder that starts switched off.
    pub fn new() -> Self {
        Tracer(Arc::new(Mutex::new(Recorder {
            origin: Instant::now(),
            names: Vec::new(),
            ids: HashMap::new(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
            on: false,
            bytes: BTreeMap::new(),
            nesting_errors: 0,
        })))
    }

    /// Locks the recorder.
    pub fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.0
            .lock()
            .expect("span recorder poisoned by a panic while recording")
    }

    /// Switches recording on or off.
    pub fn set_on(&self, on: bool) {
        self.lock().on = on;
    }

    /// Sets the query id later spans are tagged with.
    pub fn set_query(&self, query: u64) {
        self.lock().query = query;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut r = self.lock();
            let id = r.name(name);
            r.begin(id)
        };
        let out = f();
        self.lock().end(idx);
        out
    }

    /// Writes every span as tab-separated text: index, name, query, parent
    /// index (`-` for a root), start and end in ns.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        let r = self.lock();
        writeln!(out, "span\tname\tquery\tparent\tstart_ns\tend_ns")?;
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                r.name_of(s.name),
                s.query,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            query: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with children 10..30 and 20..50 (overlapping) and a
        // grandchild 12..18 inside the first child.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 50),
            span(Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 30, 6]);
    }

    #[test]
    fn recorder_nests_spans_and_counts_mismatched_ends() {
        let tracer = Tracer::new();
        tracer.set_on(true);
        tracer.set_query(7);
        tracer.span("outer", || tracer.span("inner", || ()));
        let mut r = tracer.lock();
        let (outer, inner) = (r.spans()[0], r.spans()[1]);
        assert_eq!((outer.parent, inner.parent), (None, Some(0)));
        assert_eq!((outer.query, inner.query), (7, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let a = r.begin(0);
        let _b = r.begin(0);
        r.end(a);
        assert_eq!(r.nesting_errors, 1);
    }
}
