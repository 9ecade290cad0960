//! The [`Registry`]: labeled metric families plus the event log, with
//! [`Registry::snapshot`] producing a serializable report.

use crate::delta::SnapshotDelta;
use crate::events::{Event, EventLog};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};
use crate::trace::TraceLog;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A `(metric name, label)` family key. The empty label is the unlabeled
/// series of the family.
type FamilyKey = (String, String);

#[derive(Default)]
struct Families {
    counters: BTreeMap<FamilyKey, Arc<Counter>>,
    gauges: BTreeMap<FamilyKey, Arc<Gauge>>,
    histograms: BTreeMap<FamilyKey, Arc<Histogram>>,
}

/// The central metric registry.
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with` labeled
/// variants) takes a lock and should happen once at setup; callers keep
/// the returned `Arc` so hot-path updates are plain relaxed atomics.
/// Registering the same `(name, label)` twice returns the same instance,
/// so independent subsystems can share a series safely.
///
/// The registry also owns an [`EventLog`], disabled unless constructed
/// via [`Registry::with_event_capacity`], and a [`TraceLog`], disabled
/// unless constructed via [`Registry::with_capacities`].
#[derive(Default)]
pub struct Registry {
    families: Mutex<Families>,
    events: EventLog,
    trace: TraceLog,
}

impl Registry {
    /// A registry with event logging and tracing disabled.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry whose event log keeps the most recent `capacity`
    /// events (tracing stays disabled).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Registry::with_capacities(capacity, 0)
    }

    /// A registry with both bounded logs configured: the event log keeps
    /// `event_capacity` records and the trace log `trace_capacity` spans
    /// (0 disables either).
    pub fn with_capacities(event_capacity: usize, trace_capacity: usize) -> Self {
        Registry {
            families: Mutex::default(),
            events: EventLog::with_capacity(event_capacity),
            trace: TraceLog::with_capacity(trace_capacity),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Families> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, "")
    }

    /// The counter `name{label}`.
    pub fn counter_with(&self, name: &str, label: &str) -> Arc<Counter> {
        self.lock()
            .counters
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// The unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, "")
    }

    /// The gauge `name{label}`.
    pub fn gauge_with(&self, name: &str, label: &str) -> Arc<Gauge> {
        self.lock()
            .gauges
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// Sets the labeled gauge `name{label}` in one call — the idiom for
    /// per-entity series (per-aggregate user counts, per-replica
    /// partition sizes) where the caller has a value to publish rather
    /// than a handle to keep.
    pub fn set_gauge_with(&self, name: &str, label: &str, value: i64) {
        self.gauge_with(name, label).set(value);
    }

    /// The unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, "")
    }

    /// The histogram `name{label}`.
    pub fn histogram_with(&self, name: &str, label: &str) -> Arc<Histogram> {
        self.lock()
            .histograms
            .entry((name.to_string(), label.to_string()))
            .or_default()
            .clone()
    }

    /// The event log (possibly disabled).
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The trace log (possibly disabled).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Records `event` at simulated time `t_ns` (no-op when the log is
    /// disabled).
    #[inline]
    pub fn record(&self, t_ns: u64, event: Event) {
        self.events.record(t_ns, event);
    }

    /// Sums the values of every series of counter family `name` (handy in
    /// tests and reports; labeled families are otherwise read per-series).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.lock()
            .counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// A point-in-time copy of every metric series and the event log,
    /// deterministically ordered by `(name, label)`.
    ///
    /// When the event log is enabled, its eviction count is also surfaced
    /// as a synthesized `events_dropped` counter so overflow is visible to
    /// anything that only reads metric series (rate rings, dashboards)
    /// and not the raw `events_overflowed` field.
    pub fn snapshot(&self) -> Snapshot {
        let families = self.lock();
        let mut counters: Vec<CounterSample> = families
            .counters
            .iter()
            .map(|((name, label), c)| CounterSample {
                name: name.clone(),
                label: label.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = families
            .gauges
            .iter()
            .map(|((name, label), g)| GaugeSample {
                name: name.clone(),
                label: label.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = families
            .histograms
            .iter()
            .map(|((name, label), h)| HistogramSample::from_histogram(name, label, h))
            .collect();
        drop(families);
        let events_overflowed = self.events.overflowed();
        let mut synthesize = |name: &str, value: u64| {
            let key = (name, "");
            match counters.binary_search_by(|c| (c.name.as_str(), c.label.as_str()).cmp(&key)) {
                Ok(i) => counters[i].value = value,
                Err(i) => counters.insert(
                    i,
                    CounterSample {
                        name: name.to_string(),
                        label: String::new(),
                        value,
                    },
                ),
            }
        };
        if self.events.enabled() {
            synthesize("events_dropped", events_overflowed);
        }
        if self.trace.enabled() {
            synthesize("trace_spans_dropped", self.trace.dropped());
        }
        Snapshot {
            counters,
            gauges,
            histograms,
            events_overflowed,
            events: self.events.to_vec(),
        }
    }

    /// The changes since `baseline` (an earlier [`Registry::snapshot`] of
    /// this registry): equivalent to `self.snapshot().delta_from(baseline)`.
    pub fn delta_since(&self, baseline: &Snapshot) -> SnapshotDelta {
        self.snapshot().delta_from(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RejectKind;

    #[test]
    fn families_are_shared_by_key() {
        let r = Registry::new();
        let a = r.counter_with("verify_ok", "s1");
        let b = r.counter_with("verify_ok", "s1");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let other = r.counter_with("verify_ok", "s2");
        other.add(5);
        assert_eq!(other.get(), 5);
        assert_eq!(r.counter_total("verify_ok"), 7);
    }

    #[test]
    fn snapshot_is_ordered_and_complete() {
        let r = Registry::with_event_capacity(8);
        r.counter_with("z", "").inc();
        r.counter_with("a", "x").add(3);
        r.gauge("depth").set(-2);
        r.histogram_with("lat_ns", "s1").record(100);
        r.record(
            42,
            Event::AlertEmitted {
                source: 1,
                reason: RejectKind::BadDigest,
            },
        );
        let snap = r.snapshot();
        // "a", the synthesized "events_dropped", and "z".
        assert_eq!(snap.counters.len(), 3);
        assert_eq!(snap.counters[0].name, "a"); // BTreeMap order
        assert_eq!(snap.counters[0].value, 3);
        assert_eq!(snap.counters[1].name, "events_dropped");
        assert_eq!(snap.gauges[0].value, -2);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].t_ns, 42);
    }

    #[test]
    fn disabled_events_by_default() {
        let r = Registry::new();
        r.record(1, Event::AlertSuppressed { source: 9 });
        let snap = r.snapshot();
        assert!(snap.events.is_empty());
        // No event log, no synthesized drop counter.
        assert_eq!(snap.counter("events_dropped", ""), None);
    }

    #[test]
    fn overflow_increments_events_dropped_counter() {
        let r = Registry::with_event_capacity(2);
        assert_eq!(r.snapshot().counter("events_dropped", ""), Some(0));
        for t in 0..5 {
            r.record(t, Event::AlertSuppressed { source: t as u16 });
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("events_dropped", ""), Some(3));
        assert_eq!(snap.events_overflowed, 3);
        assert_eq!(snap.events.len(), 2);
    }
}
