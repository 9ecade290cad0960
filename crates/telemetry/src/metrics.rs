//! The metric primitives: [`Counter`], [`Gauge`] and [`Histogram`].
//!
//! All three are lock-free, use relaxed atomics only and never allocate
//! after construction. What an update costs in atomic read-modify-writes
//! (each a lock-prefixed instruction, uncontended here): a [`Counter`] or
//! [`Gauge`] update is one, and adding zero to a counter is none; a
//! [`Histogram`] sample is two — its bucket and the sum — plus one more
//! only when the sample is a new minimum or maximum.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
///
/// Increments are relaxed atomic adds; reads are relaxed loads. The value
/// never decreases (there is deliberately no `dec`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Adding zero touches nothing: callers add per-packet
    /// tallies that are usually zero (recirculations).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. outstanding-request depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per bit
/// width of a `u64` value.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (power-of-two) histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i` (1..=64) holds values whose bit
/// length is `i`, i.e. the range `[2^(i-1), 2^i - 1]`. This gives ~1 bit
/// of relative precision over the full `u64` range with no configuration,
/// which is plenty for latency distributions in simulated nanoseconds.
///
/// The sample count is not stored: it is the sum of the buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    /// Minimum sample; `u64::MAX` until the first record.
    min: AtomicU64,
    /// Maximum sample; 0 until the first record.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    #[inline]
    fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The inclusive upper bound of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // The extrema settle after a few samples; from then on these are
        // two plain loads. `fetch_min`/`fetch_max` keep a racing writer's
        // better value.
        if value < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, or `None` if empty. `u64::MAX` is the empty
    /// mark and also a legal sample, which the top bucket tells apart.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (v != u64::MAX || self.buckets[HISTOGRAM_BUCKETS - 1].load(Ordering::Relaxed) > 0)
            .then_some(v)
    }

    /// Largest sample, or `None` if empty (0 likewise: the empty mark,
    /// or a sample in the zero bucket).
    pub fn max(&self) -> Option<u64> {
        let v = self.max.load(Ordering::Relaxed);
        (v != 0 || self.buckets[0].load(Ordering::Relaxed) > 0).then_some(v)
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// A copy of the raw bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in out.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        out
    }

    /// Estimates quantile `q` (0.0..=1.0) as the upper bound of the
    /// bucket containing the rank, or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let buckets = self.buckets();
        let pairs = buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| (Self::bucket_upper_bound(i), n));
        rank_walk(
            pairs,
            buckets.iter().sum(),
            self.max.load(Ordering::Relaxed),
            q,
        )
    }
}

/// The one percentile estimate the crate reports — live
/// ([`Histogram::quantile`]), in a snapshot and in a snapshot rebuilt from
/// deltas — so all three agree to the bit. `buckets` are ascending
/// `(inclusive upper bound, count)` pairs summing to `total`; the result
/// is the bound of the bucket holding rank `ceil(q * total)`, clamped to
/// the observed maximum `max` so a tail quantile never exceeds it, or
/// `None` when `total` is 0.
pub(crate) fn rank_walk(
    buckets: impl IntoIterator<Item = (u64, u64)>,
    total: u64,
    max: u64,
    q: f64,
) -> Option<u64> {
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (bound, n) in buckets {
        seen += n;
        if seen >= rank {
            return Some(bound.min(max));
        }
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(3), 7);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= 3, "p50 {p50}");
        // Tail quantile is clamped to the observed max, not the bucket
        // bound (1023).
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn histogram_mean() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.mean(), Some(15.0));
    }
}
