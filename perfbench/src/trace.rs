//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span has a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and the id of the request it belongs
//! to. Spans are appended to a per-thread [`Tracer`] while the run goes,
//! merged and written out as JSON lines when it ends. A span's self time
//! is its duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use hecmix_obs::json::Object;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span brackets, e.g. `http.parse`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub rid: u64,
    /// Unique within its tracer.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    /// Ids are `base + index`, so tracers on different threads never clash.
    base: u32,
    open: Vec<(u32, &'static str, u64, Option<u32>, u64)>,
    /// Finished spans, in completion order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span ids start at `base`.
    #[must_use]
    pub fn new(epoch: Instant, base: u32) -> Self {
        Self {
            epoch,
            base,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it is the child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, rid: u64) -> u32 {
        let id = self.base + (self.spans.len() + self.open.len()) as u32;
        let parent = self.open.last().map(|o| o.0);
        let start = self.now_ns();
        self.open.push((id, name, rid, parent, start));
        id
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    /// If no span is open (a bug in the caller's nesting).
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let (id, name, rid, parent, start_ns) = self.open.pop().expect("exit without enter");
        self.spans.push(Span {
            name,
            rid,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        self.enter(name, rid);
        let out = f(self);
        self.exit();
        out
    }
}

/// Self time of every span, keyed by span id: its duration minus the union
/// of its children's intervals (clipped to its own).
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|k| {
                    k.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Durations (ns) of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Write `spans` as JSON lines (with self time) to `path`.
///
/// # Errors
/// File creation or write failures.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut o = Object::new();
        o.str("name", s.name);
        o.u64("rid", s.rid);
        o.u64("id", u64::from(s.id));
        match s.parent {
            Some(p) => o.u64("parent", u64::from(p)),
            None => o.raw("parent", "null"),
        }
        o.u64("start_ns", s.start_ns);
        o.u64("end_ns", s.end_ns);
        o.u64("self_ns", selfs.get(&s.id).copied().unwrap_or(0));
        writeln!(out, "{}", o.finish())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            rid: 1,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100) has children [10,30), [20,50) (overlapping: union
        // [10,50) = 40) and [60,70) = 10, so 50 ns are its own. Child 2
        // has a grandchild [25,35) = 10 of its 30 ns.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 60, 70),
            span(4, Some(2), 25, 35),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 50);
        assert_eq!(st[&1], 20);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent (clock skew across threads)
        // only covers the overlap.
        let spans = vec![span(0, None, 100, 200), span(1, Some(0), 150, 260)];
        assert_eq!(self_times(&spans)[&0], 50);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new(Instant::now(), 100);
        t.span("root", 7, |t| {
            t.span("a", 7, |_| ());
            t.span("b", 7, |t| t.span("c", 7, |_| ()));
        });
        let by_name = |n: &str| t.spans.iter().find(|s| s.name == n).cloned().expect(n);
        let (root, a, b, c) = (by_name("root"), by_name("a"), by_name("b"), by_name("c"));
        assert_eq!(root.parent, None);
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(root.id));
        assert_eq!(c.parent, Some(b.id));
        assert!(t.spans.iter().all(|s| s.rid == 7 && s.id >= 100));
        let mut ids: Vec<u32> = t.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "span ids are unique");
    }
}
