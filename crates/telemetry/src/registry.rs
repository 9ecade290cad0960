//! The [`Registry`]: labeled metric families plus the event log, with
//! [`Registry::snapshot`] producing a serializable report.

use crate::delta::SnapshotDelta;
use crate::events::{Event, EventLog};
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};
use crate::trace::TraceLog;
use std::sync::{Arc, Mutex, MutexGuard};

/// The FxHash multiplier (odd, high-entropy upper bits).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Folds `bytes` into `hash` a word at a time (the FxHash recurrence),
/// then their length, so `("ab", "c")` and `("a", "bc")` differ. Not
/// collision-resistant against chosen keys: names and labels come from
/// the program and its topology, not from a frame (DESIGN §4j).
fn fold_str(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut fold = |word: u64| hash = (hash.rotate_left(5) ^ word).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        fold(u64::from_le_bytes(word));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        fold(tail.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b)));
    }
    fold(bytes.len() as u64);
    hash
}

/// Marks a slot of [`Slots`] that holds no item.
const VACANT: u32 = u32::MAX;

/// An open-addressed, linearly probed table of indices into a list the
/// caller owns, kept at most half full. It holds no keys: the caller
/// hashes and compares, so a lookup by borrowed strings builds none. Items
/// are only ever appended, so the table always holds `0..len` of the list.
#[derive(Default)]
struct Slots(Vec<u32>);

impl Slots {
    /// The slot `hash` starts probing at: the product's upper bits, which
    /// every input bit reaches.
    fn start(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.0.len() - 1)
    }

    /// The item on `hash`'s probe that `is_key` accepts, else the vacant
    /// slot the probe ended on (`None` while the table is empty).
    fn find(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> Result<u32, Option<usize>> {
        if self.0.is_empty() {
            return Err(None);
        }
        let mut slot = self.start(hash);
        loop {
            match self.0[slot] {
                VACANT => return Err(Some(slot)),
                item if is_key(item) => return Ok(item),
                _ => slot = (slot + 1) & (self.0.len() - 1),
            }
        }
    }

    /// Files `item`, the list's newest, at the vacant `slot` that
    /// [`Slots::find`] ended on; past half full, rebuilds at twice the
    /// size from `hash_of` instead.
    fn insert(&mut self, slot: Option<usize>, item: u32, hash_of: impl Fn(u32) -> u64) {
        let len = item as usize + 1;
        match slot {
            Some(slot) if len * 2 <= self.0.len() => self.0[slot] = item,
            _ => {
                self.0.clear();
                self.0.resize((len * 2).next_power_of_two().max(16), VACANT);
                for item in 0..len as u32 {
                    let mut slot = self.start(hash_of(item));
                    while self.0[slot] != VACANT {
                        slot = (slot + 1) & (self.0.len() - 1);
                    }
                    self.0[slot] = item;
                }
            }
        }
    }
}

/// One series: its family (an index into [`Series::names`]), its label
/// and the shared handle.
struct Entry<T> {
    hash: u64,
    name: u32,
    label: Box<str>,
    handle: Arc<T>,
}

/// Every series of one metric kind, found by hashing `(name, label)`.
///
/// A new series keeps its handle, its label, and its family's name if the
/// family is new; a repeat registration allocates nothing. The
/// `(name, label)` listing order is an index sorted when a listing finds
/// series it does not cover yet, not on every listing.
struct Series<T> {
    /// Family names, each stored once, with their hashes.
    names: Vec<(u64, Box<str>)>,
    /// Finds a family by name.
    name_slots: Slots,
    /// Every series, in registration order.
    entries: Vec<Entry<T>>,
    /// Finds a series by `(name, label)`.
    entry_slots: Slots,
    /// Indices into `entries` in `(name, label)` order, once
    /// [`Series::ordered`] has caught up with registration.
    order: Vec<u32>,
}

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series {
            names: Vec::new(),
            name_slots: Slots::default(),
            entries: Vec::new(),
            entry_slots: Slots::default(),
            order: Vec::new(),
        }
    }
}

impl<T: Default> Series<T> {
    /// The handle of `name{label}`, registering it if new.
    fn get(&mut self, name: &str, label: &str) -> Arc<T> {
        let name_hash = fold_str(0, name.as_bytes());
        let hash = fold_str(name_hash, label.as_bytes());
        let Series {
            names,
            entries,
            entry_slots,
            ..
        } = self;
        let found = entry_slots.find(hash, |i| {
            let e = &entries[i as usize];
            e.hash == hash && *e.label == *label && *names[e.name as usize].1 == *name
        });
        let slot = match found {
            Ok(i) => return self.entries[i as usize].handle.clone(),
            Err(slot) => slot,
        };
        let family = self.family(name_hash, name);
        let handle = Arc::new(T::default());
        let item = self.entries.len() as u32;
        self.entries.push(Entry {
            hash,
            name: family,
            label: label.into(),
            handle: handle.clone(),
        });
        let entries = &self.entries;
        self.entry_slots
            .insert(slot, item, |i| entries[i as usize].hash);
        handle
    }
}

impl<T> Series<T> {
    /// The index of family `name` (hashing to `name_hash`), added if new.
    fn family(&mut self, name_hash: u64, name: &str) -> u32 {
        let names = &self.names;
        let found = self.name_slots.find(name_hash, |i| {
            let (h, n) = &names[i as usize];
            *h == name_hash && **n == *name
        });
        match found {
            Ok(i) => i,
            Err(slot) => {
                let item = self.names.len() as u32;
                self.names.push((name_hash, name.into()));
                let names = &self.names;
                self.name_slots.insert(slot, item, |i| names[i as usize].0);
                item
            }
        }
    }

    /// The index of family `name`, if registered.
    fn find_family(&self, name: &str) -> Option<u32> {
        let name_hash = fold_str(0, name.as_bytes());
        self.name_slots
            .find(name_hash, |i| *self.names[i as usize].1 == *name)
            .ok()
    }

    /// Every series as `(name, label, handle)`, in `(name, label)` order.
    /// Sorts the order index only when series arrived since the last
    /// listing.
    fn ordered(&mut self) -> impl Iterator<Item = (&str, &str, &T)> {
        if self.order.len() < self.entries.len() {
            self.order
                .extend(self.order.len() as u32..self.entries.len() as u32);
            let (names, entries) = (&self.names, &self.entries);
            let key = |i: &u32| {
                let e = &entries[*i as usize];
                (&*names[e.name as usize].1, &*e.label)
            };
            self.order.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        }
        let (names, entries) = (&self.names, &self.entries);
        self.order.iter().map(move |&i| {
            let e = &entries[i as usize];
            (&*names[e.name as usize].1, &*e.label, &*e.handle)
        })
    }
}

#[derive(Default)]
struct Families {
    counters: Series<Counter>,
    gauges: Series<Gauge>,
    histograms: Series<Histogram>,
}

/// The central metric registry.
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with` labeled
/// variants) takes a lock and should happen once at setup; callers keep
/// the returned `Arc` so hot-path updates are plain relaxed atomics.
/// Registering the same `(name, label)` twice returns the same instance,
/// so independent subsystems can share a series safely. A series is found
/// by hashing `(name, label)`: registration allocates only what a new
/// series keeps, and a repeat registration nothing.
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
        self.lock().counters.get(name, label)
    }

    /// The unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, "")
    }

    /// The gauge `name{label}`.
    pub fn gauge_with(&self, name: &str, label: &str) -> Arc<Gauge> {
        self.lock().gauges.get(name, label)
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
        self.lock().histograms.get(name, label)
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
        let families = self.lock();
        let counters = &families.counters;
        let Some(family) = counters.find_family(name) else {
            return 0;
        };
        counters
            .entries
            .iter()
            .filter(|e| e.name == family)
            .map(|e| e.handle.get())
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
        let mut families = self.lock();
        let mut counters: Vec<CounterSample> = families
            .counters
            .ordered()
            .map(|(name, label, c)| CounterSample {
                name: name.to_string(),
                label: label.to_string(),
                value: c.get(),
            })
            .collect();
        let gauges = families
            .gauges
            .ordered()
            .map(|(name, label, g)| GaugeSample {
                name: name.to_string(),
                label: label.to_string(),
                value: g.get(),
            })
            .collect();
        let histograms = families
            .histograms
            .ordered()
            .map(|(name, label, h)| HistogramSample::from_histogram(name, label, h))
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
        assert_eq!(snap.counters[0].name, "a"); // (name, label) order
        assert_eq!(snap.counters[0].value, 3);
        assert_eq!(snap.counters[1].name, "events_dropped");
        assert_eq!(snap.gauges[0].value, -2);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].t_ns, 42);
    }

    #[test]
    fn series_registered_after_a_snapshot_join_its_order() {
        let r = Registry::new();
        r.counter_with("m", "b").inc();
        assert_eq!(r.snapshot().counters.len(), 1);
        r.counter_with("m", "a").add(2);
        r.counter_with("l", "z").add(3);
        let order: Vec<(String, String)> = r
            .snapshot()
            .counters
            .into_iter()
            .map(|c| (c.name, c.label))
            .collect();
        let expect = [("l", "z"), ("m", "a"), ("m", "b")];
        assert_eq!(order, expect.map(|(n, l)| (n.to_string(), l.to_string())));
        assert_eq!(r.counter_total("m"), 3);
        assert_eq!(r.counter_total("absent"), 0);
    }

    #[test]
    fn many_series_are_found_again_and_listed_in_key_order() {
        let r = Registry::new();
        let mut keys = Vec::new();
        // Names that differ only in where a byte sits, and labels whose
        // split against the name is ambiguous when concatenated.
        for f in 0..40 {
            for s in 0..60 {
                keys.push((format!("fam{f}"), format!("{s}")));
                keys.push((format!("fam{f}{s}"), String::new()));
            }
        }
        // Some keys repeat (`fam110{}` comes from f = 1 and from f = 11):
        // the last write to a key wins.
        let mut last = std::collections::BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            r.gauge_with(&key.0, &key.1).set(i as i64);
            last.insert(key.clone(), i as i64);
        }
        for ((name, label), i) in &last {
            assert_eq!(r.gauge_with(name, label).get(), *i, "{name}{{{label}}}");
        }
        keys.sort();
        keys.dedup();
        let listed: Vec<(String, String)> = r
            .snapshot()
            .gauges
            .into_iter()
            .map(|g| (g.name, g.label))
            .collect();
        assert_eq!(listed, keys);
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
