//! Point-in-time snapshots of a [`crate::Registry`] and their JSON
//! encoding.
//!
//! The JSON goes through [`crate::codec::JsonWriter`]; the output is
//! deterministic — series sorted by `(name, label)`, events oldest-first
//! — so snapshots diff cleanly across runs.

use crate::codec::{JsonWriter, Layout};
use crate::events::{EventRecord, Field};
use crate::metrics::{rank_walk, Histogram};
use serde::Serialize;

pub mod bin;

/// One counter series.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct CounterSample {
    /// Family name.
    pub name: String,
    /// Series label (empty for the unlabeled series).
    pub label: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge series.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct GaugeSample {
    /// Family name.
    pub name: String,
    /// Series label (empty for the unlabeled series).
    pub label: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One histogram series, with pre-computed summary statistics and the
/// non-empty buckets as `(inclusive upper bound, count)` pairs.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct HistogramSample {
    /// Family name.
    pub name: String,
    /// Series label (empty for the unlabeled series).
    pub label: String,
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSample {
    /// Captures `h` as a sample.
    pub fn from_histogram(name: &str, label: &str, h: &Histogram) -> Self {
        let buckets: Vec<(u64, u64)> = h
            .buckets()
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Histogram::bucket_upper_bound(i), n))
            .collect();
        let count = buckets.iter().map(|&(_, n)| n).sum();
        let max = h.max().unwrap_or(0);
        let quantile = |q| rank_walk(buckets.iter().copied(), count, max, q).unwrap_or(0);
        HistogramSample {
            name: name.to_string(),
            label: label.to_string(),
            count,
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            buckets,
        }
    }
}

/// A complete registry snapshot: every metric series plus the event log
/// contents.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub struct Snapshot {
    /// All counter series, sorted by `(name, label)`.
    pub counters: Vec<CounterSample>,
    /// All gauge series, sorted by `(name, label)`.
    pub gauges: Vec<GaugeSample>,
    /// All histogram series, sorted by `(name, label)`.
    pub histograms: Vec<HistogramSample>,
    /// Events evicted from the ring buffer before this snapshot.
    pub events_overflowed: u64,
    /// Event log contents, oldest first.
    pub events: Vec<EventRecord>,
}

impl Snapshot {
    /// The value of counter series `name{label}`, or `None` if absent.
    pub fn counter(&self, name: &str, label: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && c.label == label)
            .map(|c| c.value)
    }

    /// Sum of every series of counter family `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The histogram series `name{label}`, or `None` if absent.
    pub fn histogram(&self, name: &str, label: &str) -> Option<&HistogramSample> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.label == label)
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
                    stats: [h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99],
                    width: 7,
                    buckets: &h.buckets,
                })
                .collect(),
            events_overflowed: self.events_overflowed,
            events_len: None,
            events: &self.events,
        }
    }

    /// Writes the snapshot as the next value of `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        self.sections().write_json(w);
    }

    /// Serializes the snapshot to a JSON object string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new(": ");
        self.write_json(&mut w);
        w.finish()
    }
}

/// One histogram series as the encoders see it.
pub(crate) struct HistRow<'a> {
    pub name: &'a str,
    pub label: &'a str,
    /// `count, sum, min, max, p50, p90, p99`.
    pub stats: [u64; 7],
    /// How many of `stats` are on the wire: snapshots carry all 7, deltas
    /// stop before the percentiles.
    pub width: usize,
    pub buckets: &'a [(u64, u64)],
}

/// What a [`Snapshot`] and a [`crate::SnapshotDelta`] have in common, so
/// each encoder spells the sections once for both.
pub(crate) struct Sections<'a> {
    pub counters: &'a [CounterSample],
    pub gauges: &'a [GaugeSample],
    pub histograms: Vec<HistRow<'a>>,
    pub events_overflowed: u64,
    /// `Some` exactly for deltas.
    pub events_len: Option<u64>,
    pub events: &'a [EventRecord],
}

impl Sections<'_> {
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        const ROWS: Layout = Layout::lines("\n    ", "\n  ");
        let series = |w: &mut JsonWriter, name: &str, label: &str| {
            w.obj(Layout::INLINE);
            w.field_str("name", name);
            w.field_str("label", label);
        };
        w.obj(Layout::lines("\n  ", "\n"));
        w.key("counters");
        w.arr(ROWS);
        for c in self.counters {
            series(w, &c.name, &c.label);
            w.field("value", c.value);
            w.end();
        }
        w.end();
        w.key("gauges");
        w.arr(ROWS);
        for g in self.gauges {
            series(w, &g.name, &g.label);
            w.field("value", g.value);
            w.end();
        }
        w.end();
        w.key("histograms");
        w.arr(ROWS);
        for h in &self.histograms {
            series(w, h.name, h.label);
            let keys = ["count", "sum", "min", "max", "p50", "p90", "p99"];
            for (key, v) in keys.into_iter().zip(h.stats).take(h.width) {
                w.field(key, v);
            }
            w.key("buckets");
            w.arr(Layout::INLINE);
            for &(bound, n) in h.buckets {
                w.vals(Layout::INLINE, [bound, n]);
            }
            w.end();
            w.end();
        }
        w.end();
        w.field("events_overflowed", self.events_overflowed);
        if let Some(len) = self.events_len {
            w.field("events_len", len);
        }
        w.key("events");
        w.arr(ROWS);
        for record in self.events {
            // Every string — including the `&'static str` kex steps and
            // defence actions — is escaped by the writer, so hostile
            // content can never break the document.
            w.obj(Layout::INLINE);
            w.field("t_ns", record.t_ns);
            record.event.for_each_field(|key, v| {
                w.key(key);
                match v {
                    Field::U8(n) => w.val(n),
                    Field::U16(n) => w.val(n),
                    Field::U32(n) => w.val(n),
                    Field::U64(n) => w.val(n),
                    Field::Str(s) | Field::Enum(_, s) => w.str(s),
                }
            });
            w.end();
        }
        w.end();
        w.end();
    }
}

#[cfg(test)]
mod tests {
    use crate::events::{Event, RejectKind};
    use crate::registry::Registry;

    #[test]
    fn snapshot_json_contains_all_sections() {
        let r = Registry::with_event_capacity(4);
        r.counter_with("verify_ok", "s1").add(7);
        r.gauge("outstanding").set(2);
        r.histogram("lat_ns").record(1000);
        r.record(
            5,
            Event::DigestRejected {
                peer: 2,
                channel: 0,
                reason: RejectKind::BadDigest,
            },
        );
        let json = r.snapshot().to_json();
        assert!(json.contains("\"name\": \"verify_ok\""));
        assert!(json.contains("\"label\": \"s1\""));
        assert!(json.contains("\"value\": 7"));
        assert!(json.contains("\"outstanding\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"type\": \"digest_rejected\""));
        assert!(json.contains("\"reason\": \"bad_digest\""));
        // Structural sanity: balanced braces and brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn hostile_names_and_event_strings_stay_valid_json() {
        let hostile = "evil\"name\\with\nnewline\tand\u{1}ctl";
        let r = Registry::with_event_capacity(8);
        r.counter_with(hostile, "lab\"el\\").add(1);
        r.gauge(hostile).set(-3);
        r.histogram_with("h", hostile).record(9);
        r.record(
            1,
            Event::KexStep {
                node: 4,
                step: "adhkd_offer",
            },
        );
        r.record(
            2,
            Event::DefenceAction {
                peer: 1,
                channel: 0,
                action: "key_rollover",
            },
        );
        let json = r.snapshot().to_json();
        crate::codec::parse_json(&json).expect("hostile content stays inside its strings");
        // The hostile name round-trips escaped, never raw.
        assert!(json.contains("evil\\\"name\\\\with\\nnewline\\tand\\u0001ctl"));
        assert!(!json.contains("evil\"name"));
        // Event strings go through the same escaper.
        assert!(json.contains("\"step\": \"adhkd_offer\""));
        assert!(json.contains("\"action\": \"key_rollover\""));
    }

    #[test]
    fn snapshot_accessors() {
        let r = Registry::new();
        r.counter_with("x", "a").add(1);
        r.counter_with("x", "b").add(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x", "a"), Some(1));
        assert_eq!(snap.counter("x", "missing"), None);
        assert_eq!(snap.counter_total("x"), 3);
    }
}
