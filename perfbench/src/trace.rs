//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is bracketed by a span
//! (name, start, end, parent); spans of one timed request share a
//! request id. Spans stay in memory while the workload runs and are
//! written out as JSON lines when it ends. With tracing off every
//! method is a no-op, so the untraced run pays one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `shard.process_slot`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one timed request (0 = none).
    pub req: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.ns(Instant::now());
        self.spans[idx].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Records an interval timed elsewhere (another thread, or a call
    /// whose start is a due time rather than a clock read), nested in
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent: self.stack.last().copied(),
            req,
        };
        self.spans.push(span);
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let outer = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(outer);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Sum of durations of every span called `name`, in nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time of each span: its duration minus the part of that
    /// interval its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Total self time per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let selfs = self.self_times();
        let mut by: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            match by.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += t;
                    e.2 += 1;
                }
                None => by.push((s.name, t, 1)),
            }
        }
        by.sort_by_key(|&(_, ns, _)| std::cmp::Reverse(ns));
        by
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let outer = t.enter("outer", 1);
        let a = epoch + Duration::from_micros(10);
        let b = epoch + Duration::from_micros(30);
        t.record("child", 1, a, b);
        t.record(
            "child",
            1,
            a + Duration::from_micros(5),
            b + Duration::from_micros(5),
        );
        t.exit(outer);
        // Force a known outer interval.
        let mut t2 = t;
        t2.spans[0].start_ns = 0;
        t2.spans[0].end_ns = 100_000;
        let selfs = t2.self_times();
        // Children cover [10, 35) µs: 25 µs.
        assert_eq!(selfs[0], 75_000);
        assert_eq!(selfs[1], 20_000);
        assert_eq!(t2.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let o = t.enter("x", 0);
        t.exit(o);
        t.record("y", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        let o = main.enter("run", 0);
        let mut worker = Tracer::new(true, epoch);
        let w = worker.enter("conn", 0);
        let i = worker.enter("call", 3);
        worker.exit(i);
        worker.exit(w);
        main.absorb(worker);
        main.exit(o);
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert!(main.to_jsonl().lines().count() == 3);
    }
}
