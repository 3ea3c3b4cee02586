//! The span recorder behind the traced run.
//!
//! Spans are recorded only by the benchmark's own traced path, around calls
//! into the stack's public functions, and kept in memory until the
//! iteration ends. A span's *self time* is its duration minus the part
//! of that interval its child spans cover; children may run on other
//! threads (the park's lease threads), so the covered part is the union
//! of the children's intervals, not their sum.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans of the client thread, innermost last.
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

/// Records the spans and counts of one traced iteration.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), inner: Mutex::new(Inner::default()) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a thread panicked while recording a span")
    }

    /// Run `f` inside a span named `name`, nested under the client
    /// thread's innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut g = self.lock();
            let parent = g.stack.last().copied();
            let start_ns = self.ns(Instant::now());
            g.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
            let id = g.spans.len() - 1;
            g.stack.push(id);
            id
        };
        let out = f();
        let end_ns = self.ns(Instant::now());
        let mut g = self.lock();
        g.spans[id].end_ns = end_ns;
        let top = g.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
        out
    }

    /// The client thread's innermost open span, for spans recorded on
    /// other threads.
    pub fn current(&self) -> Option<usize> {
        self.lock().stack.last().copied()
    }

    /// Record a span that ran on another thread under an explicit parent.
    pub fn record(&self, name: &'static str, parent: Option<usize>, start: Instant, end: Instant) {
        let span = Span { name, parent, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.lock().spans.push(span);
    }

    /// Add `n` to the named count.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_insert(0) += n;
    }

    /// The iteration's layer profile.
    pub fn profile(&self) -> Profile {
        let g = self.lock();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); g.spans.len()];
        for (i, s) in g.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut layers: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        let mut top_ns = 0u64;
        for (i, s) in g.spans.iter().enumerate() {
            let covered = union_ns(children[i].iter().map(|&c| &g.spans[c]));
            let l = layers.entry(s.name).or_default();
            l.calls += 1;
            l.total_ns += s.dur_ns();
            l.self_ns += s.dur_ns().saturating_sub(covered);
            if s.parent.is_none() {
                top_ns += s.dur_ns();
            }
        }
        Profile { layers, counts: g.counts.clone(), top_ns }
    }
}

/// Length of the union of the spans' intervals.
fn union_ns<'a>(spans: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = spans.map(|s| (s.start_ns, s.end_ns)).collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((s, e)) if a <= e => cur = Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-layer totals of one traced iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    pub calls: u64,
    /// Summed span durations, children included.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// The layer profile of one traced iteration.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub layers: BTreeMap<&'static str, LayerStat>,
    pub counts: BTreeMap<&'static str, u64>,
    /// Summed durations of the top-level spans.
    pub top_ns: u64,
}

impl Profile {
    pub fn layer(&self, name: &str) -> LayerStat {
        self.layers.get(name).copied().unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlapping_intervals() {
        let s = |a, b| Span { name: "x", parent: None, start_ns: a, end_ns: b };
        let spans = [s(0, 10), s(5, 15), s(20, 30)];
        assert_eq!(union_ns(spans.iter()), 25);
        assert_eq!(union_ns([].iter()), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new();
        tr.span("outer", || {
            tr.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let p = tr.profile();
        let outer = p.layer("outer");
        let inner = p.layer("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(p.top_ns, outer.total_ns);
    }
}
