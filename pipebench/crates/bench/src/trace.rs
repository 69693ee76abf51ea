//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`<layer>.<call>`), wall-clock start and end
//! relative to a shared origin, its parent, and — for serve requests — the
//! request id that ties a client round trip to its in-process handling.
//! A disabled tracer records nothing and costs one branch per call, so the
//! untraced and traced runs execute the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer origin.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub req: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. Spans from other threads are
/// recorded by their own tracers (sharing the origin) and folded in with
/// [`Tracer::absorb`].
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Added to every span index to form its id; non-zero for per-thread
    /// tracers so their ids stay apart from the parent tracer's.
    id_base: usize,
    inner: RefCell<Inner>,
}

/// Id base of per-thread tracers (see [`Tracer::for_thread`]).
const FOREIGN_BASE: usize = 1 << 40;

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tr: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tr.now_ns();
            let mut inner = self.tr.inner.borrow_mut();
            if let Some(span) = inner.spans.get_mut(idx) {
                span.end_ns = end;
            }
            inner.stack.pop();
        }
    }
}

impl Tracer {
    /// A tracer whose clock starts now; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            id_base: 0,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// A tracer for another thread, sharing this one's origin. Its spans
    /// may name this tracer's spans as parents (through
    /// [`Tracer::enter_req`]) and are folded back with [`Tracer::absorb`].
    pub fn for_thread(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            id_base: FOREIGN_BASE,
            ..Tracer::new(self.on)
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        self.open(name, None, None)
    }

    /// Opens a span for one serve request under an explicit parent (the
    /// parent may live on another thread's tracer).
    pub fn enter_req(&self, name: &'static str, req: u64, parent: Option<usize>) -> Guard<'_> {
        self.open(name, Some(req), parent)
    }

    fn open(&self, name: &'static str, req: Option<u64>, parent: Option<usize>) -> Guard<'_> {
        if !self.on {
            return Guard {
                tr: self,
                idx: None,
            };
        }
        let start = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let idx = inner.spans.len();
        let parent = parent.or_else(|| inner.stack.last().map(|&i| inner.spans[i].id));
        inner.spans.push(Span {
            id: self.id_base + idx,
            name,
            parent,
            req,
            start_ns: start,
            end_ns: start,
        });
        inner.stack.push(idx);
        Guard {
            tr: self,
            idx: Some(idx),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name);
        f()
    }

    /// Id of the innermost open span, if any.
    pub fn current(&self) -> Option<usize> {
        let inner = self.inner.borrow();
        inner.stack.last().map(|&i| inner.spans[i].id)
    }

    /// Moves the spans of a [`Tracer::for_thread`] tracer into this one,
    /// renumbering their ids past ours; parents that point at our spans
    /// keep their ids.
    pub fn absorb(&self, other: Tracer) {
        let mut inner = self.inner.borrow_mut();
        let base = self.id_base + inner.spans.len();
        let remap = |id: usize| {
            if id >= other.id_base {
                id - other.id_base + base
            } else {
                id
            }
        };
        for mut s in other.inner.into_inner().spans {
            s.id = remap(s.id);
            s.parent = s.parent.map(remap);
            inner.spans.push(s);
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest or overlap one another
/// (requests from concurrent clients under one parent); covered time is
/// the union of their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            s.dur_ns() - covered(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Self time summed per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Total duration per span name, in milliseconds.
pub fn total_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.dur_ns() as f64 / 1e6;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let req = s.req.map_or("null".to_string(), |r| r.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"req\":{req},\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            id,
            name,
            parent,
            req: None,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = vec![
            span(0, "bench.pass", None, 0, 100),
            span(1, "verify.reach", Some(0), 10, 40),
            span(2, "verify.inner", Some(1), 15, 25),
            span(3, "verify.loops", Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let ns = |ms: f64| (ms * 1e6).round() as u64;
        let by_layer = layer_self_ms(&spans);
        assert_eq!(ns(by_layer["bench"]), 50);
        assert_eq!(ns(by_layer["verify"]), 50);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent requests under one parent overlap on [30, 40];
        // a third pokes past the parent's end and is clipped.
        let spans = vec![
            span(0, "serve.stream", None, 0, 100),
            span(1, "serve.request", Some(0), 10, 40),
            span(2, "serve.request", Some(0), 30, 60),
            span(3, "serve.request", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn guards_nest_and_disabled_tracer_records_nothing() {
        let tr = Tracer::new(true);
        tr.time("bench.pass", || {
            tr.time("emulator.converge", || {});
            assert_eq!(tr.current(), Some(0));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        off.time("bench.pass", || {});
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let main = Tracer::new(true);
        let _pass = main.enter("bench.pass");
        let client = main.for_thread();
        {
            let _r = client.enter_req("serve.request", 7, main.current());
            let _inner = client.enter("serve.read");
        }
        drop(_pass);
        main.absorb(client);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, Some(7));
        assert_eq!(spans[2].parent, Some(1));
    }
}
