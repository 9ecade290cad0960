//! The metric primitives: [`Counter`], [`Gauge`] and [`Histogram`].
//!
//! All three are lock-free and use relaxed atomics only: a metric is a
//! statistic and publishes no other data. Each handle keeps its value in
//! two cells, and every read sums them:
//!
//! - the *owner cell*, written only by the handle's owner — the first
//!   thread that updates it — with a relaxed load and a relaxed store,
//!   which is no lock-prefixed instruction;
//! - the *shared cell*, which every other thread updates with an atomic
//!   read-modify-write (`fetch_add`, one lock-prefixed instruction).
//!
//! A handle is claimed once, by a compare-and-swap from 0 to the caller's
//! thread id: a `thread_local!` number drawn from a global counter the
//! first time the thread claims a handle, and never reused, so the cell
//! of a thread that ends is written by no one again. Each cell has exactly one kind of
//! writer — one thread, or read-modify-writes only — so no update is lost
//! however many threads write, and the handles stay `Send + Sync`.
//!
//! What an update costs on the owner thread: a [`Counter`] or [`Gauge`]
//! update is one load and one store, and adding zero to a counter is
//! nothing; a [`Histogram`] sample is two — its bucket and the sum — plus
//! one read-modify-write only when the sample is a new minimum or
//! maximum. Nothing allocates after construction except a histogram's
//! shared buckets, once, on the first sample from a thread that is not
//! its owner.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The next thread id to hand out. 0 is never one: it marks a handle
/// that no thread owns yet.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// A thread's id before its first claim draws one. No handle's owner
/// ever reads this value, so the owner test needs no "drawn yet?" branch.
const UNDRAWN: u64 = u64::MAX;

thread_local! {
    /// This thread's id: a plain cell with no destructor, so reading it is
    /// one thread-local load.
    static THREAD_ID: Cell<u64> = const { Cell::new(UNDRAWN) };
}

/// The thread that writes a handle's owner cell: 0 until the first update
/// claims the handle, that thread's id from then on.
#[derive(Debug, Default)]
struct Owner(AtomicU64);

impl Owner {
    /// Whether the calling thread owns the handle. This is the whole test
    /// an update inlines; the claim and the shared cell are out of line,
    /// in each type's `#[cold]` path, to keep every call site small.
    #[inline]
    fn is_caller(&self) -> bool {
        self.0.load(Ordering::Relaxed) == THREAD_ID.with(Cell::get)
    }

    /// Claims the handle for the calling thread if no thread owns it yet;
    /// whether the caller owns it now. The claim is one compare-and-swap
    /// on one location, so every thread agrees on the winner.
    fn claim(&self) -> bool {
        let me = THREAD_ID.with(|id| {
            if id.get() == UNDRAWN {
                id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
            }
            id.get()
        });
        self.0
            .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

/// Adds `n` to an owner cell. Only the owner thread stores to it, so no
/// other store can fall between the load and the store.
#[inline]
fn owner_add(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// A monotonically increasing counter.
///
/// The value never decreases (there is deliberately no `dec`) and wraps
/// at `u64::MAX`.
#[derive(Debug, Default)]
pub struct Counter {
    owner: Owner,
    owned: AtomicU64,
    shared: AtomicU64,
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
        if n == 0 {
            return;
        }
        if self.owner.is_caller() {
            owner_add(&self.owned, n);
        } else {
            self.add_unowned(n);
        }
    }

    /// An add from a thread that does not own the counter (yet).
    #[cold]
    #[inline(never)]
    fn add_unowned(&self, n: u64) {
        if self.owner.claim() {
            owner_add(&self.owned, n);
        } else {
            self.shared.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.owned
            .load(Ordering::Relaxed)
            .wrapping_add(self.shared.load(Ordering::Relaxed))
    }
}

/// A signed instantaneous value (e.g. outstanding-request depth).
#[derive(Debug, Default)]
pub struct Gauge {
    owner: Owner,
    owned: AtomicI64,
    shared: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`: the caller's cell takes `v` minus the other
    /// cell. An add that races with it lands before or after the set, as
    /// it would against a single cell.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.owner.is_caller() {
            self.owned.store(
                v.wrapping_sub(self.shared.load(Ordering::Relaxed)),
                Ordering::Relaxed,
            );
        } else {
            self.set_unowned(v);
        }
    }

    /// A set from a thread that does not own the gauge (yet).
    #[cold]
    #[inline(never)]
    fn set_unowned(&self, v: i64) {
        let (mine, other) = if self.owner.claim() {
            (&self.owned, &self.shared)
        } else {
            (&self.shared, &self.owned)
        };
        mine.store(
            v.wrapping_sub(other.load(Ordering::Relaxed)),
            Ordering::Relaxed,
        );
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        if self.owner.is_caller() {
            self.owner_add(n);
        } else {
            self.add_unowned(n);
        }
    }

    /// An add from a thread that does not own the gauge (yet).
    #[cold]
    #[inline(never)]
    fn add_unowned(&self, n: i64) {
        if self.owner.claim() {
            self.owner_add(n);
        } else {
            self.shared.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` to the owner cell; the owner thread is its one writer.
    #[inline]
    fn owner_add(&self, n: i64) {
        let v = self.owned.load(Ordering::Relaxed).wrapping_add(n);
        self.owned.store(v, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(n.wrapping_neg());
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.owned
            .load(Ordering::Relaxed)
            .wrapping_add(self.shared.load(Ordering::Relaxed))
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per bit
/// width of a `u64` value.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One writer kind's bucket counts and sample sum.
#[derive(Debug)]
struct Cells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Cells {
    /// Adds a sample in bucket `i` to the owner's cells.
    #[inline]
    fn owner_add(&self, i: usize, value: u64) {
        owner_add(&self.buckets[i], 1);
        owner_add(&self.sum, value);
    }
}

impl Default for Cells {
    fn default() -> Self {
        Cells {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

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
    owner: Owner,
    /// The owner thread's buckets and sum.
    owned: Cells,
    /// Every other thread's, allocated by the first such sample.
    shared: OnceLock<Box<Cells>>,
    /// Minimum sample; `u64::MAX` until the first record.
    min: AtomicU64,
    /// Maximum sample; 0 until the first record.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            owner: Owner::default(),
            owned: Cells::default(),
            shared: OnceLock::new(),
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
        let i = Self::bucket_index(value);
        if self.owner.is_caller() {
            self.owned.owner_add(i, value);
        } else {
            self.record_unowned(i, value);
        }
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

    /// A sample from a thread that does not own the histogram (yet).
    #[cold]
    #[inline(never)]
    fn record_unowned(&self, i: usize, value: u64) {
        if self.owner.claim() {
            self.owned.owner_add(i, value);
        } else {
            let shared = self.shared.get_or_init(Box::default);
            shared.buckets[i].fetch_add(1, Ordering::Relaxed);
            shared.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// The owner's cells, then the shared ones if any thread wrote them.
    fn cells(&self) -> impl Iterator<Item = &Cells> {
        std::iter::once(&self.owned).chain(self.shared.get().map(|b| &**b))
    }

    /// Samples in bucket `i`.
    fn bucket(&self, i: usize) -> u64 {
        self.cells()
            .map(|c| c.buckets[i].load(Ordering::Relaxed))
            .sum()
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.cells()
            .map(|c| c.sum.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// Smallest sample, or `None` if empty. `u64::MAX` is the empty
    /// mark and also a legal sample, which the top bucket tells apart.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (v != u64::MAX || self.bucket(HISTOGRAM_BUCKETS - 1) > 0).then_some(v)
    }

    /// Largest sample, or `None` if empty (0 likewise: the empty mark,
    /// or a sample in the zero bucket).
    pub fn max(&self) -> Option<u64> {
        let v = self.max.load(Ordering::Relaxed);
        (v != 0 || self.bucket(0) > 0).then_some(v)
    }

    /// Mean of all samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.sum() as f64 / n as f64)
    }

    /// A copy of the raw bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for cells in self.cells() {
            for (dst, src) in out.iter_mut().zip(&cells.buckets) {
                *dst += src.load(Ordering::Relaxed);
            }
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

    /// The work an update does on its owner thread, counted: nothing is
    /// written to a shared cell and no shared buckets are allocated.
    #[test]
    fn updates_from_the_owner_thread_leave_the_shared_cells_alone() {
        let (c, g, h) = (Counter::new(), Gauge::new(), Histogram::new());
        c.inc();
        c.add(41);
        g.add(5);
        g.sub(2);
        g.set(-7);
        for v in [0u64, 1, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!((c.shared.load(Ordering::Relaxed), c.get()), (0, 42));
        assert_eq!((g.shared.load(Ordering::Relaxed), g.get()), (0, -7));
        assert!(h.shared.get().is_none());
        assert_eq!(h.count(), 4);
    }

    /// A second thread writes the shared cells and leaves the owner's as
    /// they were; reads sum both.
    #[test]
    fn another_thread_writes_only_the_shared_cells() {
        let (c, g, h) = (Counter::new(), Gauge::new(), Histogram::new());
        c.add(3);
        g.add(3);
        h.record(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                c.add(4);
                g.sub(10);
                h.record(4);
                g.set(100);
            });
        });
        assert_eq!(c.owned.load(Ordering::Relaxed), 3);
        assert_eq!(c.get(), 7);
        assert_eq!(g.owned.load(Ordering::Relaxed), 3);
        assert_eq!(g.get(), 100);
        assert_eq!(
            h.owned.buckets[Histogram::bucket_index(4)].load(Ordering::Relaxed),
            0
        );
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max()),
            (2, 7, Some(3), Some(4))
        );
    }

    #[test]
    fn histogram_mean() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.mean(), Some(15.0));
    }
}
