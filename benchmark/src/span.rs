//! The benchmark's own tracer: one span around every call into a layer.
//!
//! Spans are recorded from the benchmark's files only; the program is not
//! instrumented. A span has a name, start and end (ns since the tracer was
//! made), the span that was open when it started, and the id of the work
//! unit it belongs to. Every span feeds the per-name totals; the spans of
//! the first [`KEPT_OPS`] work units also stay in memory and are written
//! out when the run ends, so the file is bounded whatever the lap size.

use crate::alloc;
use crate::stats::percentile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Work units whose spans are kept for the trace file.
pub const KEPT_OPS: u64 = 4096;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Work unit (register op, round, lap) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Totals for one span name.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
    durations: Vec<u32>,
}

impl Totals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_allocs(&self) -> f64 {
        self.allocs as f64 / self.count.max(1) as f64
    }

    /// Nearest-rank percentile of the span durations.
    pub fn percentile_ns(&self, p: f64) -> u32 {
        percentile(&mut self.durations.clone(), p)
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    allocs_at_start: u64,
    kept: Option<usize>,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[must_use]
pub struct Entered(bool);

/// Records spans, or does nothing when made with [`Tracer::off`].
pub struct Tracer {
    on: bool,
    keeping: bool,
    t0: Instant,
    op: u64,
    open: Vec<Open>,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A tracer that records nothing: `enter`/`exit` cost one branch.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            keeping: true,
            t0: Instant::now(),
            op: 0,
            open: Vec::new(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// From now on spans only feed the totals. A traced run calls this
    /// after the first lap: later laps repeat the same work units.
    pub fn keep_no_more(&mut self) {
        self.keeping = false;
    }

    /// Sets the work-unit id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.on {
            return Entered(false);
        }
        let kept = (self.keeping && self.op < KEPT_OPS).then(|| {
            let parent = self.open.last().and_then(|o| o.kept);
            self.kept.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op,
            });
            self.kept.len() - 1
        });
        let allocs_at_start = alloc::allocs();
        // The clock is read last on entry and first on exit, so the
        // tracer's own bookkeeping lands outside the span.
        let start_ns = self.now_ns();
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            allocs_at_start,
            kept,
        });
        Entered(true)
    }

    pub fn exit(&mut self, entered: Entered) {
        if !entered.0 {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit pairs with enter");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(i) = open.kept {
            self.kept[i].start_ns = open.start_ns;
            self.kept[i].end_ns = end_ns;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(open.child_ns);
        t.allocs += alloc::allocs().saturating_sub(open.allocs_at_start);
        t.durations.push(duration.min(u64::from(u32::MAX)) as u32);
    }

    /// Totals for `name`; all zero if no such span was recorded.
    pub fn totals(&self, name: &str) -> &Totals {
        static NONE: Totals = Totals {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            allocs: 0,
            durations: Vec::new(),
        };
        self.totals.get(name).unwrap_or(&NONE)
    }

    /// Every name recorded, with its totals, in name order.
    pub fn all_totals(&self) -> impl Iterator<Item = (&'static str, &Totals)> {
        self.totals.iter().map(|(k, v)| (*k, v))
    }

    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// The kept spans as a JSON array, one object per span; `parent` is an
    /// index into the same array or null.
    pub fn to_json(&self) -> String {
        let own = self_times(&self.kept);
        let mut out = String::from("[\n");
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, own[i], parent, s.op
            );
            out.push_str(if i + 1 < self.kept.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ request [10,30), packet [30,80) ⊃ mac [40,50), mac [60,65)
        let tree = [
            span("op", 0, 100, None),
            span("request", 10, 30, Some(0)),
            span("packet", 30, 80, Some(0)),
            span("mac", 40, 50, Some(2)),
            span("mac", 60, 65, Some(2)),
        ];
        assert_eq!(self_times(&tree), [30, 20, 35, 10, 5]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let tree = [span("a", 0, 10, None), span("b", 0, 25, Some(0))];
        assert_eq!(self_times(&tree), [0, 25]);
    }

    #[test]
    fn tracer_links_parents_and_ops_and_totals_agree_with_the_kept_tree() {
        let mut t = Tracer::on();
        for op in 0..3 {
            t.set_op(op);
            let outer = t.enter("outer");
            let inner = t.enter("inner");
            t.exit(inner);
            let inner = t.enter("inner");
            t.exit(inner);
            t.exit(outer);
        }
        let kept = t.kept();
        assert_eq!(kept.len(), 9);
        assert_eq!(kept[3].name, "outer");
        assert_eq!(kept[3].parent, None);
        assert_eq!(kept[4].parent, Some(3));
        assert_eq!(kept[5].parent, Some(3));
        assert_eq!(kept[5].op, 1);
        assert!(kept.iter().all(|s| s.end_ns >= s.start_ns));

        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!((outer.count, inner.count), (3, 6));
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        let own = self_times(kept);
        let outer_self: u64 = kept
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "outer")
            .map(|(_, o)| o)
            .sum();
        assert_eq!(outer_self, outer.self_ns);
        assert_eq!(t.totals("missing").count, 0);
    }

    #[test]
    fn spans_past_the_kept_ops_still_count() {
        let mut t = Tracer::on();
        t.set_op(KEPT_OPS);
        let e = t.enter("late");
        t.exit(e);
        assert!(t.kept().is_empty());
        assert_eq!(t.totals("late").count, 1);
    }

    #[test]
    fn keep_no_more_stops_keeping_but_not_counting() {
        let mut t = Tracer::on();
        let e = t.enter("lap");
        t.exit(e);
        t.keep_no_more();
        let e = t.enter("lap");
        t.exit(e);
        assert_eq!(t.kept().len(), 1);
        assert_eq!(t.totals("lap").count, 2);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let e = t.enter("x");
        t.exit(e);
        assert_eq!(t.totals("x").count, 0);
        assert_eq!(t.to_json(), "[\n]");
    }

    #[test]
    fn json_has_parent_links_and_op_ids() {
        let mut t = Tracer::on();
        t.set_op(7);
        let a = t.enter("a");
        let b = t.enter("b");
        t.exit(b);
        t.exit(a);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"parent\":null,\"op\":7"));
        assert!(json.contains("\"parent\":0,\"op\":7"));
    }
}
