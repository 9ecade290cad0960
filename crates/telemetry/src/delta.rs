//! Delta snapshots: the difference between two [`Snapshot`]s of the same
//! registry, and the machinery to apply and merge them.
//!
//! A [`SnapshotDelta`] carries only what changed since a baseline —
//! counter increases, gauge restatements, per-bucket histogram
//! increments, events appended to the log — so periodic exporters ship
//! O(changed series) instead of O(all series) per window. The contract,
//! enforced by a property test below, is exact reconstruction:
//!
//! ```text
//! baseline.apply(delta_1).apply(delta_2)...  ==  final full snapshot
//! ```
//!
//! Reconstruction recomputes derived histogram percentiles with the
//! rank-walk the live [`crate::Histogram`] uses (the same function), so a
//! reconstructed snapshot is byte-identical to one taken live.

use crate::codec::JsonWriter;
use crate::events::EventRecord;
use crate::metrics::rank_walk;
use crate::snapshot::{CounterSample, GaugeSample, HistRow, HistogramSample, Sections, Snapshot};
use serde::Serialize;
use std::collections::BTreeMap;

/// Changes to one histogram series since a baseline snapshot.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct HistogramDelta {
    /// Family name.
    pub name: String,
    /// Series label (empty for the unlabeled series).
    pub label: String,
    /// Samples recorded since the baseline.
    pub count: u64,
    /// Sum increase since the baseline (wrapping, like the live sum).
    pub sum: u64,
    /// Absolute minimum at delta time (min only ever decreases, so the
    /// receiver takes `min(baseline.min, delta.min)`).
    pub min: u64,
    /// Absolute maximum at delta time (receiver takes the max).
    pub max: u64,
    /// Bucket count increases as `(inclusive upper bound, added)`,
    /// ascending, only buckets that grew.
    pub buckets: Vec<(u64, u64)>,
}

/// The difference between two snapshots of one registry: `current -
/// baseline`. Produced by [`Snapshot::delta_from`] /
/// [`crate::Registry::delta_since`], applied by
/// [`SnapshotDelta::apply_to`].
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct SnapshotDelta {
    /// Counter increases, sorted by `(name, label)`. A series absent from
    /// the baseline appears with its full value (0-valued registrations
    /// included: appearing *is* the change).
    pub counters: Vec<CounterSample>,
    /// Changed gauges restated as absolute values (gauges move both ways,
    /// so increments would be ambiguous), sorted by `(name, label)`.
    pub gauges: Vec<GaugeSample>,
    /// Changed histogram series, sorted by `(name, label)`.
    pub histograms: Vec<HistogramDelta>,
    /// Increase of the event-log eviction count.
    pub events_overflowed: u64,
    /// Events appended since the baseline that are still buffered,
    /// oldest first.
    pub events: Vec<EventRecord>,
    /// Event-log buffer length at delta time (what reconstruction must
    /// truncate the concatenated log down to).
    pub events_len: u64,
}

impl SnapshotDelta {
    /// Whether nothing changed between the baseline and the snapshot this
    /// delta was computed from. Empty deltas can be skipped by exporters
    /// without affecting reconstruction.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.events_overflowed == 0
    }

    /// Applies this delta to the snapshot it was computed against,
    /// reproducing the later full snapshot exactly (including recomputed
    /// histogram percentiles).
    pub fn apply_to(&self, baseline: &Snapshot) -> Snapshot {
        let mut counters: BTreeMap<(String, String), u64> = baseline
            .counters
            .iter()
            .map(|c| ((c.name.clone(), c.label.clone()), c.value))
            .collect();
        for c in &self.counters {
            let slot = counters
                .entry((c.name.clone(), c.label.clone()))
                .or_insert(0);
            *slot = slot.wrapping_add(c.value);
        }
        let mut gauges: BTreeMap<(String, String), i64> = baseline
            .gauges
            .iter()
            .map(|g| ((g.name.clone(), g.label.clone()), g.value))
            .collect();
        for g in &self.gauges {
            gauges.insert((g.name.clone(), g.label.clone()), g.value);
        }
        let mut hists: BTreeMap<(String, String), HistParts> = baseline
            .histograms
            .iter()
            .map(|h| ((h.name.clone(), h.label.clone()), HistParts::from_sample(h)))
            .collect();
        for d in &self.histograms {
            let slot = hists
                .entry((d.name.clone(), d.label.clone()))
                .or_insert_with(HistParts::empty);
            slot.add_delta(d);
        }
        let mut events = baseline.events.clone();
        events.extend(self.events.iter().cloned());
        let keep = self.events_len as usize;
        if events.len() > keep {
            events.drain(..events.len() - keep);
        }
        Snapshot {
            counters: counters
                .into_iter()
                .map(|((name, label), value)| CounterSample { name, label, value })
                .collect(),
            gauges: gauges
                .into_iter()
                .map(|((name, label), value)| GaugeSample { name, label, value })
                .collect(),
            histograms: hists
                .into_iter()
                .map(|((name, label), parts)| parts.into_sample(name, label))
                .collect(),
            events_overflowed: baseline.events_overflowed + self.events_overflowed,
            events,
        }
    }

    /// The borrowed view both encoders (JSON and `P4TS`) walk.
    pub(crate) fn sections(&self) -> Sections<'_> {
        Sections {
            counters: &self.counters,
            gauges: &self.gauges,
            histograms: self
                .histograms
                .iter()
                .map(|h| HistRow {
                    name: &h.name,
                    label: &h.label,
                    stats: [h.count, h.sum, h.min, h.max, 0, 0, 0],
                    width: 4,
                    buckets: &h.buckets,
                })
                .collect(),
            events_overflowed: self.events_overflowed,
            events_len: Some(self.events_len),
            events: &self.events,
        }
    }

    /// Writes the delta as the next value of `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        self.sections().write_json(w);
    }

    /// Serializes the delta to a JSON object string (same deterministic
    /// encoding as [`Snapshot::to_json`]).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(": ");
        self.write_json(&mut w);
        w.finish()
    }
}

/// Accumulator for one histogram series while applying a delta.
struct HistParts {
    count: u64,
    sum: u64,
    /// `None` until a non-empty contribution arrives (an empty histogram
    /// reports `min = 0`, which must not poison the true minimum).
    min: Option<u64>,
    max: u64,
    buckets: BTreeMap<u64, u64>,
}

impl HistParts {
    fn empty() -> Self {
        HistParts {
            count: 0,
            sum: 0,
            min: None,
            max: 0,
            buckets: BTreeMap::new(),
        }
    }

    fn from_sample(h: &HistogramSample) -> Self {
        HistParts {
            count: h.count,
            sum: h.sum,
            min: (h.count > 0).then_some(h.min),
            max: h.max,
            buckets: h.buckets.iter().copied().collect(),
        }
    }

    fn add_delta(&mut self, d: &HistogramDelta) {
        self.count += d.count;
        self.sum = self.sum.wrapping_add(d.sum);
        // Delta min/max are absolutes at delta time; a changed histogram
        // always has samples, so both are meaningful.
        self.min = Some(self.min.map_or(d.min, |m| m.min(d.min)));
        self.max = self.max.max(d.max);
        for &(bound, n) in &d.buckets {
            *self.buckets.entry(bound).or_insert(0) += n;
        }
    }

    /// Builds the [`HistogramSample`], recomputing the percentile fields
    /// with [`crate::Histogram::quantile`]'s rank-walk, so a reconstructed
    /// sample is byte-identical to one taken live.
    fn into_sample(self, name: String, label: String) -> HistogramSample {
        let buckets: Vec<(u64, u64)> = self.buckets.into_iter().collect();
        let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
        let max = self.max;
        let quantile = |q| rank_walk(buckets.iter().copied(), total, max, q).unwrap_or(0);
        HistogramSample {
            name,
            label,
            count: self.count,
            sum: self.sum,
            min: self.min.unwrap_or(0),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets,
        }
    }
}

impl Snapshot {
    /// The changes in `self` relative to `baseline`.
    ///
    /// `baseline` must be an earlier snapshot of the same registry (series
    /// never disappear and counters only grow); with mismatched inputs the
    /// arithmetic wraps rather than panicking, and reconstruction is still
    /// exact because [`SnapshotDelta::apply_to`] wraps the same way.
    pub fn delta_from(&self, baseline: &Snapshot) -> SnapshotDelta {
        let base_counters: BTreeMap<(&str, &str), u64> = baseline
            .counters
            .iter()
            .map(|c| ((c.name.as_str(), c.label.as_str()), c.value))
            .collect();
        let mut counters = Vec::new();
        for c in &self.counters {
            match base_counters.get(&(c.name.as_str(), c.label.as_str())) {
                Some(&b) if b == c.value => {}
                Some(&b) => counters.push(CounterSample {
                    name: c.name.clone(),
                    label: c.label.clone(),
                    value: c.value.wrapping_sub(b),
                }),
                None => counters.push(c.clone()),
            }
        }
        let base_gauges: BTreeMap<(&str, &str), i64> = baseline
            .gauges
            .iter()
            .map(|g| ((g.name.as_str(), g.label.as_str()), g.value))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .filter(|g| base_gauges.get(&(g.name.as_str(), g.label.as_str())) != Some(&g.value))
            .cloned()
            .collect();
        let base_hists: BTreeMap<(&str, &str), &HistogramSample> = baseline
            .histograms
            .iter()
            .map(|h| ((h.name.as_str(), h.label.as_str()), h))
            .collect();
        let mut histograms = Vec::new();
        for h in &self.histograms {
            match base_hists.get(&(h.name.as_str(), h.label.as_str())) {
                Some(b) if *b == h => {}
                Some(b) => {
                    let base_buckets: BTreeMap<u64, u64> = b.buckets.iter().copied().collect();
                    let buckets = h
                        .buckets
                        .iter()
                        .filter_map(|&(bound, n)| {
                            let grew = n - base_buckets.get(&bound).copied().unwrap_or(0);
                            (grew > 0).then_some((bound, grew))
                        })
                        .collect();
                    histograms.push(HistogramDelta {
                        name: h.name.clone(),
                        label: h.label.clone(),
                        count: h.count.wrapping_sub(b.count),
                        sum: h.sum.wrapping_sub(b.sum),
                        min: h.min,
                        max: h.max,
                        buckets,
                    });
                }
                None => histograms.push(HistogramDelta {
                    name: h.name.clone(),
                    label: h.label.clone(),
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    buckets: h.buckets.clone(),
                }),
            }
        }
        // Events appended since the baseline: everything recorded past the
        // baseline's total (evicted + buffered), capped at what is still
        // in the buffer.
        let base_total = baseline.events_overflowed + baseline.events.len() as u64;
        let cur_total = self.events_overflowed + self.events.len() as u64;
        let appended = (cur_total.saturating_sub(base_total)) as usize;
        let keep = appended.min(self.events.len());
        SnapshotDelta {
            counters,
            gauges,
            histograms,
            events_overflowed: self.events_overflowed - baseline.events_overflowed,
            events: self.events[self.events.len() - keep..].to_vec(),
            events_len: self.events.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Event, RejectKind};
    use crate::registry::Registry;
    use proptest::prelude::*;

    #[test]
    fn empty_baseline_yields_the_full_snapshot_as_delta() {
        let r = Registry::new();
        let baseline = r.snapshot();
        r.counter_with("x", "a").add(3);
        r.histogram("h").record(100);
        let delta = r.delta_since(&baseline);
        assert_eq!(delta.counters.len(), 1);
        assert_eq!(delta.counters[0].value, 3);
        assert_eq!(delta.histograms.len(), 1);
        assert_eq!(delta.histograms[0].count, 1);
        assert_eq!(delta.apply_to(&baseline), r.snapshot());
    }

    #[test]
    fn identical_snapshots_give_an_empty_delta() {
        let r = Registry::with_event_capacity(4);
        r.counter("c").add(7);
        r.gauge("g").set(-2);
        r.histogram("h").record(9);
        r.record(1, Event::AlertSuppressed { source: 3 });
        let snap = r.snapshot();
        let delta = snap.delta_from(&snap);
        assert!(delta.is_empty());
        assert_eq!(delta.apply_to(&snap), snap);
    }

    #[test]
    fn new_zero_valued_series_still_appears_in_the_delta() {
        // Registering a series is itself observable state: reconstruction
        // must produce it even though its value is 0.
        let r = Registry::new();
        let baseline = r.snapshot();
        let _handle = r.counter("registered_but_untouched");
        let delta = r.delta_since(&baseline);
        assert!(!delta.is_empty());
        assert_eq!(delta.apply_to(&baseline), r.snapshot());
    }

    #[test]
    fn histogram_delta_straddling_a_reobserved_max() {
        // Baseline max 8 sits mid-bucket (bucket bound 15). New samples
        // re-observe the bucket boundary value 15 (same bucket, new max)
        // and then cross into the next bucket with 16. The reconstructed
        // percentiles must match a live snapshot exactly, including the
        // observed-max clamp.
        let r = Registry::new();
        let h = r.histogram("lat");
        h.record(8);
        let baseline = r.snapshot();
        assert_eq!(baseline.histogram("lat", "").unwrap().max, 8);
        assert_eq!(baseline.histogram("lat", "").unwrap().p99, 8); // clamped
        h.record(15);
        let mid = r.snapshot();
        let d1 = mid.delta_from(&baseline);
        assert_eq!(d1.histograms[0].buckets, vec![(15, 1)]);
        assert_eq!(d1.histograms[0].max, 15);
        assert_eq!(d1.apply_to(&baseline), mid);
        h.record(16);
        let fin = r.snapshot();
        let d2 = fin.delta_from(&mid);
        assert_eq!(d2.histograms[0].buckets, vec![(31, 1)]);
        assert_eq!(d2.apply_to(&mid), fin);
        // Chain from the empty baseline too.
        assert_eq!(d2.apply_to(&d1.apply_to(&baseline)), fin);
    }

    #[test]
    fn event_log_delta_survives_ring_eviction() {
        let r = Registry::with_event_capacity(3);
        for t in 0..2 {
            r.record(t, Event::AlertSuppressed { source: t as u16 });
        }
        let baseline = r.snapshot();
        for t in 2..7 {
            r.record(t, Event::AlertSuppressed { source: t as u16 });
        }
        let cur = r.snapshot();
        let delta = cur.delta_from(&baseline);
        // 5 appended, only the last 3 still buffered.
        assert_eq!(delta.events.len(), 3);
        assert_eq!(delta.events_overflowed, 4);
        assert_eq!(delta.apply_to(&baseline), cur);
    }

    #[test]
    fn event_ring_wrap_past_capacity_between_baseline_and_delta() {
        // The baseline is itself taken after the ring already wrapped,
        // and more than a full capacity's worth of events lands before
        // the delta: the delta carries only the surviving tail, the
        // overflow accounting bridges the gap, and reconstruction is
        // exact.
        let r = Registry::with_event_capacity(4);
        for t in 0..6 {
            r.record(t, Event::AlertSuppressed { source: t as u16 });
        }
        let baseline = r.snapshot();
        assert_eq!(baseline.events_overflowed, 2, "baseline already wrapped");
        for t in 6..20 {
            r.record(t, Event::AlertSuppressed { source: t as u16 });
        }
        let cur = r.snapshot();
        let delta = cur.delta_from(&baseline);
        // 14 appended, capacity 4: only the last 4 survive in the buffer.
        assert_eq!(delta.events.len(), 4);
        assert_eq!(delta.events[0].t_ns, 16);
        assert_eq!(delta.events_overflowed, 14);
        assert_eq!(delta.events_len, 4);
        let rebuilt = delta.apply_to(&baseline);
        assert_eq!(rebuilt, cur);
        assert_eq!(rebuilt.to_json(), cur.to_json());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Same reconstruction contract as the main proptest, but with a
        /// tiny ring (capacity 2) and event-heavy op streams so the ring
        /// is forced to wrap — usually several times — between every
        /// checkpoint pair.
        #[test]
        fn delta_survives_forced_ring_wraps(
            times in proptest::collection::vec(0u64..1_000_000, 5..80),
            cut in 1usize..4,
        ) {
            let r = Registry::with_event_capacity(2);
            let baseline = r.snapshot();
            let mut checkpoints: Vec<Snapshot> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                r.record(i as u64, Event::AlertSuppressed { source: (t % 5) as u16 });
                if i % cut == 0 {
                    checkpoints.push(r.snapshot());
                }
            }
            let fin = r.snapshot();
            prop_assert!(
                fin.events_overflowed as usize >= times.len().saturating_sub(2),
                "the ring must actually wrap for this test to mean anything"
            );
            let mut state = baseline.clone();
            let mut prev = baseline;
            for cp in checkpoints {
                let delta = cp.delta_from(&prev);
                state = delta.apply_to(&state);
                prop_assert_eq!(&state, &cp);
                prev = cp;
            }
            let last = fin.delta_from(&prev);
            state = last.apply_to(&state);
            prop_assert_eq!(&state, &fin);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn baseline_plus_deltas_reconstructs_the_full_snapshot(
            ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..120),
            cuts in proptest::collection::vec(0usize..120, 0..4),
        ) {
            let r = Registry::with_event_capacity(8);
            let baseline = r.snapshot();
            let mut cuts = cuts;
            cuts.sort_unstable();
            let mut checkpoints: Vec<Snapshot> = Vec::new();
            for (i, &(sel, v)) in ops.iter().enumerate() {
                match sel {
                    0 => r.counter_with("c", "a").add(v),
                    1 => r.counter_with("c", "b").inc(),
                    2 => r.gauge("g").set(v as i64 - 500_000),
                    3 => r.histogram_with("h", "x").record(v),
                    4 => r.histogram_with("h", "y").record(v % 17),
                    _ => r.record(v, Event::DigestRejected {
                        peer: (v % 7) as u16,
                        channel: (v % 3) as u8,
                        reason: RejectKind::BadDigest,
                    }),
                }
                if cuts.contains(&i) {
                    checkpoints.push(r.snapshot());
                }
            }
            let fin = r.snapshot();
            // Reconstruct through every checkpoint chain: baseline +
            // Σ deltas == final full snapshot, exactly.
            let mut state = baseline.clone();
            let mut prev = baseline;
            for cp in checkpoints {
                let delta = cp.delta_from(&prev);
                state = delta.apply_to(&state);
                prop_assert_eq!(&state, &cp);
                prev = cp;
            }
            let last = fin.delta_from(&prev);
            state = last.apply_to(&state);
            prop_assert_eq!(&state, &fin);
            prop_assert_eq!(state.to_json(), fin.to_json());
        }
    }
}
