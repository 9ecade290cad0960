//! The simulator's two event schedulers, behind one [`Scheduler`] trait
//! (the simulator holds the pair as a concrete enum, so its calls are
//! statically dispatched; the trait is what tests and probes drive).
//!
//! The simulator used to drive everything through one
//! `BinaryHeap<Reverse<Event>>`, paying `O(log n)` per push/pop. Event
//! lead times in our workloads cluster in a narrow band (links have fixed
//! latency floors — the `sim_event_lead_ns` histogram quantifies this), so
//! a calendar queue (bucketed timing wheel) gets amortized `O(1)` per
//! event instead. Both implementations order events by `(time, seq)` with
//! `seq` as a stable tiebreaker, so they drain any schedule in exactly
//! the same order and simulation results are bit-identical regardless of
//! which scheduler is selected.
//!
//! `seq` values only have to be *unique*, not monotone: the simulator
//! packs `(source node, per-source count)` into them (see
//! [`crate::sim::Simulator`]). The key stays per-source because every
//! checked-in artefact's same-instant drain order depends on it.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which scheduler implementation a [`crate::sim::Simulator`] runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// The original `BinaryHeap` scheduler: `O(log n)` per operation,
    /// no tuning knobs. Kept as the reference implementation.
    Heap,
    /// The calendar-queue scheduler: amortized `O(1)` per operation,
    /// buckets sized from the topology's minimum link latency.
    #[default]
    Calendar,
}

impl SchedulerKind {
    /// Short name for reports and bench labels.
    pub const fn label(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Calendar => "calendar",
        }
    }
}

/// An event queued for `at`, with the FIFO-stable `seq` tiebreaker.
#[derive(Debug)]
pub struct Scheduled<T> {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling order tiebreaker (unique; ties at equal `at` drain in
    /// ascending `seq`).
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> Scheduled<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A priority queue of [`Scheduled`] events, drained in `(at, seq)` order.
///
/// `next_at` takes `&mut self` because the calendar queue advances its
/// bucket cursor while locating the minimum; the observable state (the
/// set of pending events and their drain order) never changes under it.
pub trait Scheduler<T> {
    /// Enqueues an event. `seq` values must be unique (they need not be
    /// monotone — the simulator packs `(source, per-source count)` keys),
    /// and `at` must be `>=` the timestamp of the last popped event.
    fn schedule(&mut self, at: SimTime, seq: u64, payload: T);

    /// Timestamp of the earliest pending event, without removing it.
    fn next_at(&mut self) -> Option<SimTime>;

    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<Scheduled<T>>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which implementation this is.
    fn kind(&self) -> SchedulerKind;
}

/// Wrapper giving heap entries a total order on `(at, seq)` only.
struct Entry<T>(Scheduled<T>);

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// The reference scheduler: a binary min-heap over `(at, seq)`.
pub struct HeapScheduler<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> HeapScheduler<T> {
    /// Creates an empty heap scheduler.
    pub fn new() -> Self {
        HeapScheduler {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Default for HeapScheduler<T> {
    fn default() -> Self {
        HeapScheduler::new()
    }
}

impl<T> Scheduler<T> for HeapScheduler<T> {
    fn schedule(&mut self, at: SimTime, seq: u64, payload: T) {
        self.heap
            .push(Reverse(Entry(Scheduled { at, seq, payload })));
    }

    fn next_at(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.0.at)
    }

    fn pop(&mut self) -> Option<Scheduled<T>> {
        self.heap.pop().map(|Reverse(e)| e.0)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Heap
    }
}

/// Ceiling on the bucket count the lazy resize will grow to. A bucket is
/// eight bytes with nothing behind it, so the ceiling follows the deepest
/// population the ring should still hold at `O(1)` events per bucket: a
/// million resident events re-tune to two million days, 16 MB of ring.
const MAX_BUCKETS: usize = 1 << 21;
/// Initial bucket count.
const INITIAL_BUCKETS: usize = 1 << 10;
/// Bucketed population at which the first re-tune fires. Small, so any
/// workload dense enough for the initial min-link-latency width to
/// matter re-derives its bucket width from the live population early;
/// the threshold doubles from there, keeping re-tunes amortized `O(1)`.
const FIRST_RETUNE_AT: usize = 32;

/// Free-map words allocated with a slab's first slot, enough for 65,536
/// slots (8 KB); a deeper slab grows the map as it goes.
const FIRST_MAP_WORDS: usize = 1 << 10;

/// End-of-list marker of the slab's intrusive lists.
const NIL: u32 = u32::MAX;
/// A day bucket with nothing filed under it.
const EMPTY: (u32, u32) = (NIL, NIL);

/// One slab cell: a pending event and the slot filed after it in the same
/// day bucket, or a free cell (`ev` is `None`; `next` is then stale).
/// (`pub(crate)` so `sim`'s tests can pin its size.)
pub(crate) struct Slot<T> {
    ev: Option<Scheduled<T>>,
    next: u32,
}

/// Which slab slots are free, and where the next push looks for one.
///
/// One bit per slot (set = free) plus one summary bit per bitmap word
/// (set = the word has a free bit), so finding the first free slot at or
/// after any index reads the word there and then jumps through summary
/// words: `O(len / 4096)` at worst, not a scan of the slab.
#[derive(Default)]
struct SlotMap {
    /// Free bits, one per slab slot.
    free: Vec<u64>,
    /// Bit `w` of summary word `w / 64` is set when `free[w] != 0`.
    summary: Vec<u64>,
    /// Where the next allocation starts its search: one past the slot the
    /// last one took.
    cursor: usize,
}

impl SlotMap {
    /// Covers the slot a push just appended, occupied, at index `len - 1`
    /// of a slab now `len` slots long, and moves the cursor past it.
    ///
    /// The map takes its room in one piece when the slab takes its first
    /// slot. Grown a word at a time, its small blocks landed behind the
    /// slab's, so the slab could not grow in place and moved to fresh
    /// heap on some `fabric_deep` laps: peak RSS read 9.2 MB, not 8.1.
    fn grow(&mut self, len: usize) {
        if self.free.capacity() == 0 {
            self.free.reserve_exact(FIRST_MAP_WORDS);
            self.summary.reserve_exact(FIRST_MAP_WORDS / 64);
        }
        if len > self.free.len() * 64 {
            self.free.push(0);
            if self.free.len() > self.summary.len() * 64 {
                self.summary.push(0);
            }
        }
        self.cursor = len;
    }

    /// Marks `slot` free.
    #[inline]
    fn release(&mut self, slot: usize) {
        let w = slot / 64;
        self.free[w] |= 1u64 << (slot % 64);
        self.summary[w / 64] |= 1u64 << (w % 64);
    }

    /// Marks the free `slot` taken and moves the cursor past it.
    #[inline]
    fn take(&mut self, slot: usize) {
        let w = slot / 64;
        self.free[w] &= !(1u64 << (slot % 64));
        if self.free[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
        self.cursor = slot + 1;
    }

    /// The first free slot at or after `from`.
    #[inline]
    fn first_free_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = self.free.get(w)? & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        // Summary bits of the words after `w`.
        let (mut s, after) = ((w + 1) / 64, (w + 1) % 64);
        let mut words = self.summary.get(s)? & (!0u64 << after);
        while words == 0 {
            s += 1;
            words = *self.summary.get(s)?;
        }
        let w = s * 64 + words.trailing_zeros() as usize;
        Some(w * 64 + self.free[w].trailing_zeros() as usize)
    }

    /// The free slot the next push takes: the first at or after the
    /// cursor, else the first from the slab's start; `None` when every
    /// slot is occupied. The cursor goes back to the start once it is
    /// past twice the `occupied` count, so a population that shrank
    /// sweeps a compact prefix instead of the slab its peak left.
    #[inline]
    fn next_free(&mut self, occupied: usize) -> Option<usize> {
        if self.cursor > 2 * occupied {
            self.cursor = 0;
        }
        self.first_free_from(self.cursor)
            .or_else(|| self.first_free_from(0))
    }
}

/// A calendar queue: a power-of-two ring of day buckets over one slab of
/// pending events, plus a far-future overflow heap.
///
/// * **Storage**: every bucketed event lives in one `Vec` of slots; a day
///   bucket is the `(head, tail)` slot indices of an intrusive list
///   through `Slot::next`, so the ring costs eight bytes a day and owns no
///   buffer. The slab grows only when no slot is free, so it stays as
///   large as the deepest population the queue has held, not the widest
///   ring.
/// * **Slot order**: a push takes the first free slot at or after a
///   cursor that sweeps the slab (a free bitmap with one summary bit per
///   word finds it), not the slot a pop last vacated. Events pushed in
///   order then sit in ascending slots, and when their leads are equal
///   (the fabric's constant link lead) they pop in that order too: pops
///   walk the slab forwards, which the hardware prefetcher follows. The
///   cursor wraps to the start once it is past twice the bucketed
///   population, so a shrunken population reuses a compact prefix.
/// * **Bucket sizing**: one bucket ("day") spans `bucket_width_ns`
///   nanoseconds, rounded up to a power of two so the bucket index is a
///   shift and a mask. The simulator sizes this from the topology's
///   minimum link latency — the floor on how far apart causally related
///   events can be.
/// * **Window**: the ring covers `nbuckets` consecutive days. Events due
///   inside the window are linked into their day's list (kept sorted by
///   `(at, seq)`; pushes are almost always appends behind the tail
///   because event times increase). Events past the window land in an
///   overflow `BinaryHeap` and are refilled into the ring when the window
///   advances.
/// * **Lazy resize**: when the bucketed population exceeds a threshold,
///   the queue re-tunes itself to the live population: the bucket width
///   becomes the population's average inter-event gap (so buckets hold
///   `O(1)` events regardless of density) and the ring grows to hold the
///   population (up to `MAX_BUCKETS`). Events are relinked where they
///   lie; nothing is copied. The threshold doubles with each re-tune,
///   keeping the re-bucketing amortized `O(1)`.
/// * **Determinism**: pops always yield the globally smallest `(at, seq)`
///   key, so the drain order is identical to [`HeapScheduler`]'s.
pub struct CalendarQueue<T> {
    /// log2 of the bucket width in ns.
    day_shift: u32,
    /// `buckets.len() - 1`; bucket index = `day & mask`.
    mask: u64,
    /// Every bucketed event, and the free cells between them.
    slab: Vec<Slot<T>>,
    /// The slab's free cells and the allocation cursor.
    slots: SlotMap,
    /// Ring of day buckets: first and last slot of the day's list, which
    /// ascends by `(at, seq)`; [`EMPTY`] when nothing is filed.
    buckets: Vec<(u32, u32)>,
    /// Absolute day number the drain cursor is on.
    current_day: u64,
    /// First absolute day covered by the ring window.
    window_first_day: u64,
    /// Events currently in buckets (excludes the overflow heap).
    in_buckets: usize,
    /// Events at or past the window end.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Bucketed population that triggers the next re-tune.
    retune_threshold: usize,
}

impl<T> CalendarQueue<T> {
    /// Creates a calendar queue with buckets spanning `bucket_width_ns`
    /// (rounded up to a power of two, clamped to `[64, 2^30]` ns).
    pub fn with_bucket_width(bucket_width_ns: u64) -> Self {
        let width = bucket_width_ns.clamp(64, 1 << 30).next_power_of_two();
        CalendarQueue {
            day_shift: width.trailing_zeros(),
            mask: (INITIAL_BUCKETS - 1) as u64,
            slab: Vec::new(),
            slots: SlotMap::default(),
            buckets: vec![EMPTY; INITIAL_BUCKETS],
            current_day: 0,
            window_first_day: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            retune_threshold: FIRST_RETUNE_AT,
        }
    }

    /// The bucket width in nanoseconds.
    pub fn bucket_width_ns(&self) -> u64 {
        1u64 << self.day_shift
    }

    /// Current number of day buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn day_of(&self, at: SimTime) -> u64 {
        at.as_ns() >> self.day_shift
    }

    /// First day *not* covered by the ring window.
    fn window_end_day(&self) -> u64 {
        self.window_first_day
            .saturating_add(self.buckets.len() as u64)
    }

    /// The event in an occupied slot.
    fn event(&self, slot: u32) -> &Scheduled<T> {
        self.slab[slot as usize]
            .ev
            .as_ref()
            .expect("a linked slot holds an event")
    }

    /// Takes the event out of `slot` and marks the slot free.
    #[inline]
    fn vacate(&mut self, slot: u32) -> Scheduled<T> {
        let ev = self.slab[slot as usize]
            .ev
            .take()
            .expect("a linked slot holds an event");
        self.slots.release(slot as usize);
        ev
    }

    /// Inserts into the day bucket, keeping it sorted by `(at, seq)`. A
    /// reused cell has only its `ev` written here; `link` sets `next`.
    #[inline]
    fn insert_bucket(&mut self, ev: Scheduled<T>) {
        let key = ev.key();
        let slot = match self.slots.next_free(self.in_buckets) {
            None => {
                assert!(self.slab.len() < NIL as usize, "slot indices must fit u32");
                self.slab.push(Slot {
                    ev: Some(ev),
                    next: NIL,
                });
                self.slots.grow(self.slab.len());
                (self.slab.len() - 1) as u32
            }
            Some(slot) => {
                self.slots.take(slot);
                self.slab[slot].ev = Some(ev);
                slot as u32
            }
        };
        self.link(slot, key);
    }

    /// Links an occupied slot into its day's list: behind the tail when
    /// its key is the day's largest (the common case), else in front of
    /// the first event with a larger key, found by walking from the head.
    #[inline]
    fn link(&mut self, slot: u32, key: (SimTime, u64)) {
        let idx = (self.day_of(key.0) & self.mask) as usize;
        let (head, tail) = self.buckets[idx];
        // The slot this one goes behind; `NIL` for the front of the list.
        let mut after = tail;
        if tail != NIL && self.event(tail).key() > key {
            after = NIL;
            let mut next = head;
            let mut steps = 0usize;
            while self.event(next).key() < key {
                after = next;
                next = self.slab[next as usize].next;
                steps += 1;
                debug_assert!(
                    steps <= self.in_buckets,
                    "calendar queue: a day list walk took more steps than the {} bucketed \
                     events (a slot linked twice makes a cycle)",
                    self.in_buckets
                );
            }
        }
        let link = match after {
            NIL => &mut self.buckets[idx].0,
            _ => &mut self.slab[after as usize].next,
        };
        let next = std::mem::replace(link, slot);
        if next == NIL {
            self.buckets[idx].1 = slot;
        }
        self.slab[slot as usize].next = next;
        self.in_buckets += 1;
    }

    /// Moves overflow events that now fall inside the window into buckets.
    fn refill_from_overflow(&mut self) {
        let end = self.window_end_day();
        while let Some(Reverse(top)) = self.overflow.peek() {
            if self.day_of(top.0.at) >= end {
                break;
            }
            let Reverse(Entry(ev)) = self.overflow.pop().expect("peeked");
            self.insert_bucket(ev);
        }
    }

    /// Empties the ring into one chain through `Slot::next`, ascending by
    /// `(at, seq)`: every bucketed event's day is in `[current_day,
    /// window_end_day())`, so one lap from the cursor meets the days in
    /// order. Returns the chain's first and last slot.
    fn unlink_all(&mut self) -> (u32, u32) {
        let mut chain = EMPTY;
        for lap in 0..self.buckets.len() as u64 {
            let idx = (self.current_day.wrapping_add(lap) & self.mask) as usize;
            let (head, tail) = std::mem::replace(&mut self.buckets[idx], EMPTY);
            if head == NIL {
                continue;
            }
            if chain.1 == NIL {
                chain.0 = head;
            } else {
                self.slab[chain.1 as usize].next = head;
            }
            chain.1 = tail;
        }
        self.in_buckets = 0;
        chain
    }

    /// Files a chain from [`Self::unlink_all`] under the current geometry:
    /// events inside the window are relinked where they lie (each an
    /// append, the chain being sorted), the rest move to the overflow
    /// heap.
    fn refile(&mut self, mut slot: u32) {
        let end = self.window_end_day();
        let mut steps = 0usize;
        while slot != NIL {
            steps += 1;
            debug_assert!(
                steps <= self.slab.len(),
                "calendar queue: the unlinked chain is longer than the {}-slot slab \
                 (a slot linked twice makes a cycle)",
                self.slab.len()
            );
            let next = self.slab[slot as usize].next;
            let key = self.event(slot).key();
            if self.day_of(key.0) < end {
                self.link(slot, key);
            } else {
                let ev = self.vacate(slot);
                self.overflow.push(Reverse(Entry(ev)));
            }
            slot = next;
        }
        self.refill_from_overflow();
    }

    /// Re-tunes bucket width and count to the live population (the lazy
    /// resize). The initial min-link-latency width is only a prior: under
    /// load (many hosts, many in-flight events per latency window) a
    /// latency-wide bucket holds thousands of events and sorted insertion
    /// degenerates to an `O(bucket)` list walk. Re-deriving the width from
    /// the population's average inter-event gap restores `O(1)` occupancy.
    /// The trigger threshold doubles each time, so re-bucketing stays
    /// amortized `O(1)` per event.
    fn retune(&mut self) {
        let n = self.in_buckets as u64;
        let (first, last) = self.unlink_all();
        // The chain is sorted, so its two ends span the population (never
        // empty: `schedule` re-tunes right after an insert).
        let (min_ns, max_ns) = (self.event(first).at.as_ns(), self.event(last).at.as_ns());
        // A population whose bucketed events all share one timestamp has no
        // meaningful inter-event gap. Re-deriving a width from it would
        // collapse to the 1ns floor (a degenerate geometry the next real
        // burst then pays for), so keep the current layout and just push
        // the next re-tune out.
        if min_ns != max_ns {
            let width = ((max_ns - min_ns) / n)
                .clamp(1, 1 << 30)
                .next_power_of_two();
            // Keep the cursor anchored at the same instant across the width
            // change (its day start is <= every pending event's timestamp).
            let anchor_ns = self.current_day << self.day_shift;
            self.day_shift = width.trailing_zeros();
            // Size the ring from the population's day span, not its count:
            // when density exceeds one event per ns the 1ns width floor
            // stacks events per bucket, and a count-sized ring would be days
            // nothing is ever filed under. 2x slack keeps steady-state
            // arrivals (lead <= observed span) inside the window.
            let span_days = ((max_ns - min_ns) >> self.day_shift).saturating_add(1) as usize;
            let nbuckets = (span_days * 2)
                .next_power_of_two()
                .clamp(INITIAL_BUCKETS, MAX_BUCKETS);
            // The new ring is allocated while the old one is live. Freeing
            // the old one first, or growing it in place, moved
            // `fabric_deep`'s median peak RSS up, not down (DESIGN §4b,
            // "The re-tune's ring").
            self.buckets = vec![EMPTY; nbuckets];
            self.mask = (nbuckets - 1) as u64;
            self.current_day = anchor_ns >> self.day_shift;
            self.window_first_day = self.current_day;
        }
        self.refile(first);
        self.retune_threshold = self.len().max(self.retune_threshold) * 2;
    }

    /// Rebuilds the window so it starts at `day` (cold path: only reached
    /// when an event is pushed for a day before the current window, which
    /// the simulator's `at >= now` discipline makes unreachable — kept as
    /// a correctness backstop rather than an assert).
    #[cold]
    fn rehome(&mut self, day: u64) {
        let (first, _) = self.unlink_all();
        self.window_first_day = day;
        self.current_day = day;
        self.refile(first);
    }

    /// Advances `current_day` to the first non-empty bucket. Requires
    /// `in_buckets > 0`; terminates within the window because every
    /// bucketed event's day is in `[current_day, window_end_day())`.
    fn advance_to_nonempty(&mut self) {
        debug_assert!(self.in_buckets > 0);
        while self.buckets[(self.current_day & self.mask) as usize].0 == NIL {
            self.current_day += 1;
        }
    }
}

impl<T> Scheduler<T> for CalendarQueue<T> {
    #[inline]
    fn schedule(&mut self, at: SimTime, seq: u64, payload: T) {
        let ev = Scheduled { at, seq, payload };
        let day = self.day_of(at);
        if day >= self.window_end_day() {
            self.overflow.push(Reverse(Entry(ev)));
            return;
        }
        if day < self.current_day {
            if day < self.window_first_day {
                self.rehome(day);
            } else {
                // The cursor skidded past this day while scanning empty
                // buckets (it can sit ahead of simulated `now` after a
                // peek); pull it back so the new event is still seen.
                self.current_day = day;
            }
        }
        self.insert_bucket(ev);
        if self.in_buckets > self.retune_threshold {
            self.retune();
        }
    }

    fn next_at(&mut self) -> Option<SimTime> {
        if self.in_buckets == 0 {
            // Answer straight from the overflow heap without committing a
            // window jump: a caller may stop here (deadline passed) and
            // later push events earlier than the overflow minimum.
            return self.overflow.peek().map(|Reverse(e)| e.0.at);
        }
        self.advance_to_nonempty();
        let (head, _) = self.buckets[(self.current_day & self.mask) as usize];
        Some(self.event(head).at)
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled<T>> {
        if self.in_buckets == 0 {
            // Jump the window to the overflow minimum. Safe here (unlike
            // in `next_at`): the popped event becomes the caller's `now`,
            // and every future push is at or after it.
            let day = {
                let Reverse(top) = self.overflow.peek()?;
                self.day_of(top.0.at)
            };
            self.window_first_day = day;
            self.current_day = day;
            self.refill_from_overflow();
        }
        self.advance_to_nonempty();
        // Slide the window forward with the cursor. A pop commits
        // simulated time (every future push is at or after the popped
        // event), so the window start is monotone and the ring's slots
        // ahead of the cursor stay uniquely owned by one day each. This is
        // what keeps steady-state pushes out of the overflow heap: the
        // window end stays `nbuckets` days ahead of the drain point.
        if self.current_day > self.window_first_day {
            self.window_first_day = self.current_day;
            if !self.overflow.is_empty() {
                self.refill_from_overflow();
            }
        }
        let idx = (self.current_day & self.mask) as usize;
        let (head, tail) = self.buckets[idx];
        let next = self.slab[head as usize].next;
        self.buckets[idx] = if next == NIL { EMPTY } else { (next, tail) };
        self.in_buckets -= 1;
        Some(self.vacate(head))
    }

    fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Calendar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(s: &mut dyn Scheduler<T>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = s.pop() {
            out.push((ev.at.as_ns(), ev.seq));
        }
        out
    }

    fn push_all(s: &mut dyn Scheduler<()>, times: &[u64]) {
        for (i, &t) in times.iter().enumerate() {
            s.schedule(SimTime::from_ns(t), i as u64 + 1, ());
        }
    }

    #[test]
    fn heap_pops_in_time_then_seq_order() {
        let mut s = HeapScheduler::new();
        push_all(&mut s, &[300, 100, 100, 200]);
        assert_eq!(drain(&mut s), vec![(100, 2), (100, 3), (200, 4), (300, 1)]);
    }

    #[test]
    fn calendar_matches_heap_on_bursts_and_outliers() {
        // Same-timestamp bursts, in-window spread, and a far-future
        // outlier beyond the initial window.
        let times = [
            5,
            5,
            5,
            70_000,
            64,
            64,
            1_000_000_000_000,
            128,
            4_096,
            4_096,
        ];
        let mut h = HeapScheduler::new();
        let mut c = CalendarQueue::with_bucket_width(64);
        push_all(&mut h, &times);
        push_all(&mut c, &times);
        assert_eq!(drain(&mut c), drain(&mut h));
    }

    #[test]
    fn calendar_interleaves_pushes_with_pops() {
        let mut c = CalendarQueue::with_bucket_width(64);
        let mut h = HeapScheduler::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..200u64 {
            for lead in [0, 1, 63, 64, 65, 1_000, 100_000] {
                seq += 1;
                let at = SimTime::from_ns(now + lead);
                c.schedule(at, seq, ());
                h.schedule(at, seq, ());
            }
            let a = c.pop().unwrap();
            let b = h.pop().unwrap();
            assert_eq!((a.at, a.seq), (b.at, b.seq), "round {round}");
            now = a.at.as_ns();
        }
        assert_eq!(c.len(), h.len());
        assert_eq!(drain(&mut c), drain(&mut h));
    }

    #[test]
    fn calendar_grows_under_load() {
        let mut c = CalendarQueue::with_bucket_width(64);
        let before = c.bucket_count();
        let n = (before * 2 + 2) as u64;
        for i in 0..n {
            c.schedule(SimTime::from_ns(i * 7 % 60_000), i, ());
        }
        assert!(c.bucket_count() > before, "ring must have grown");
        let drained = drain(&mut c);
        assert_eq!(drained.len(), n as usize);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]), "sorted drain");
    }

    #[test]
    fn calendar_peek_does_not_commit_a_window_jump() {
        let mut c = CalendarQueue::with_bucket_width(64);
        c.schedule(SimTime::from_ns(1_000_000_000), 1, ());
        // Peeking the far-future minimum must not stop an earlier push
        // (e.g. run_until hit its deadline and the caller injected more
        // traffic) from draining first.
        assert_eq!(c.next_at(), Some(SimTime::from_ns(1_000_000_000)));
        c.schedule(SimTime::from_ns(500), 2, ());
        assert_eq!(drain(&mut c), vec![(500, 2), (1_000_000_000, 1)]);
    }

    #[test]
    fn calendar_pull_back_after_peek_scan() {
        let mut c = CalendarQueue::with_bucket_width(64);
        // Event far ahead but inside the window: peek scans the cursor
        // forward to its day.
        c.schedule(SimTime::from_ns(60_000), 1, ());
        assert_eq!(c.next_at(), Some(SimTime::from_ns(60_000)));
        // A later push for an earlier (but still future) time must pull
        // the cursor back.
        c.schedule(SimTime::from_ns(128), 2, ());
        assert_eq!(drain(&mut c), vec![(128, 2), (60_000, 1)]);
    }

    #[test]
    fn calendar_rehome_backstop() {
        let mut c = CalendarQueue::with_bucket_width(64);
        c.schedule(SimTime::from_ns(1 << 40), 1, ());
        assert_eq!(c.pop().map(|e| e.seq), Some(1));
        // The window now starts at day(1<<40); a push before it exercises
        // the rehome backstop (the simulator never does this, but the
        // scheduler must stay correct if a caller does).
        c.schedule(SimTime::from_ns(3), 2, ());
        c.schedule(SimTime::from_ns(1 << 41), 3, ());
        assert_eq!(drain(&mut c), vec![(3, 2), (1 << 41, 3)]);
    }

    #[test]
    fn retune_keeps_width_on_same_timestamp_burst() {
        // A burst of equal timestamps crossing the re-tune threshold has a
        // zero average inter-event gap; re-deriving the width from it would
        // collapse the geometry to the 1ns floor. The guard keeps the
        // current width instead.
        let mut c = CalendarQueue::with_bucket_width(1_000);
        let width = c.bucket_width_ns();
        let mut h = HeapScheduler::new();
        for i in 0..(FIRST_RETUNE_AT as u64 * 2) {
            c.schedule(SimTime::from_ns(5_000), i + 1, ());
            h.schedule(SimTime::from_ns(5_000), i + 1, ());
        }
        assert_eq!(
            c.bucket_width_ns(),
            width,
            "degenerate gap must not re-derive the width"
        );
        assert_eq!(drain(&mut c), drain(&mut h));
    }

    #[test]
    fn retune_after_drain_to_empty_and_refill() {
        let mut c = CalendarQueue::with_bucket_width(64);
        let mut h = HeapScheduler::new();
        let mut seq = 0u64;
        // A spread population triggers genuine re-tunes, then drains to
        // empty.
        for i in 0..200u64 {
            seq += 1;
            c.schedule(SimTime::from_ns(i * 97), seq, ());
            h.schedule(SimTime::from_ns(i * 97), seq, ());
        }
        assert_eq!(drain(&mut c), drain(&mut h));
        assert!(c.is_empty());
        let width = c.bucket_width_ns();
        // Refill with a same-timestamp flood big enough to cross the
        // (doubled) threshold: the re-tune must hit the degenerate-gap
        // guard, keep the geometry, and still drain correctly.
        for _ in 0..600u64 {
            seq += 1;
            c.schedule(SimTime::from_ns(1 << 20), seq, ());
            h.schedule(SimTime::from_ns(1 << 20), seq, ());
        }
        assert_eq!(c.bucket_width_ns(), width);
        assert_eq!(drain(&mut c), drain(&mut h));
        assert!(c.is_empty() && c.next_at().is_none());
    }

    #[test]
    fn refill_after_drain_reuses_the_freed_slots() {
        let mut c = CalendarQueue::with_bucket_width(64);
        let mut h = HeapScheduler::new();
        let mut seq = 0u64;
        let mut fill = |c: &mut CalendarQueue<()>, h: &mut HeapScheduler<()>, from_ns: u64| {
            for i in 0..500u64 {
                seq += 1;
                c.schedule(SimTime::from_ns(from_ns + i * 97), seq, ());
                h.schedule(SimTime::from_ns(from_ns + i * 97), seq, ());
            }
        };
        // Crosses four re-tunes; every event stays inside the window, so
        // each one occupies a slot.
        fill(&mut c, &mut h, 0);
        assert!(c.overflow.is_empty());
        assert_eq!(c.slab.len(), 500);
        assert_eq!(drain(&mut c), drain(&mut h));
        // The same population again, from where the drain stopped: every
        // push lands in a slot the drain vacated.
        fill(&mut c, &mut h, 499 * 97);
        assert!(c.overflow.is_empty());
        assert_eq!(c.slab.len(), 500, "a refill must not grow the slab");
        // Past the doubled threshold: the re-tune relinks reused and fresh
        // slots alike.
        fill(&mut c, &mut h, 499 * 97);
        assert_eq!(c.slab.len(), 1_000);
        assert_eq!(drain(&mut c), drain(&mut h));
    }

    /// Share of the pops of a fixed constant-lead trace whose event sits
    /// in the slot right after the previous pop's: how far pops walk the
    /// slab forwards. The trace holds 4,096 events at the fabric's
    /// constant 2,000 ns lead for 100 laps; each pop pushes 1, 2, 0, 1,
    /// 2, 0, … events (a frame forwarded; forwarded with a timer armed;
    /// delivered), so freed slots and pushes do not pair up one to one.
    fn adjacent_pop_share() -> f64 {
        const RESIDENT: u64 = 4_096;
        const LEAD_NS: u64 = 2_000;
        let mut c = CalendarQueue::with_bucket_width(1_000);
        let mut seq = 0u64;
        for i in 0..RESIDENT {
            seq += 1;
            c.schedule(SimTime::from_ns(i / 64 * LEAD_NS), seq, ());
        }
        let (mut adjacent, mut pops, mut last) = (0u64, 0u64, None::<u32>);
        for i in 0..RESIDENT * 100 {
            c.next_at();
            let head = c.buckets[(c.current_day & c.mask) as usize].0;
            let ev = c.pop().expect("the trace keeps the queue non-empty");
            adjacent += u64::from(last.is_some_and(|prev| head == prev + 1));
            pops += 1;
            last = Some(head);
            for _ in 0..[1, 2, 0][(i % 3) as usize] {
                seq += 1;
                c.schedule(ev.at + LEAD_NS, seq, ());
            }
        }
        assert_eq!(c.len() as u64, RESIDENT);
        adjacent as f64 / pops as f64
    }

    #[test]
    fn constant_lead_pops_read_ascending_adjacent_slots() {
        // Last-freed-first reuse reads 3.4 % here: the slot a push takes
        // is whichever a pop freed last, so slot order drifts from pop
        // order lap by lap. The sweeping cursor hands slots out in push
        // order and reads 96.9 %.
        let share = adjacent_pop_share();
        assert!(
            share >= 0.9,
            "{:.1} % of pops read the next slot",
            share * 100.0
        );
    }

    /// A slot linked into its day twice makes the day's list a cycle; the
    /// next walk of that list fails by name instead of spinning forever.
    /// (Debug builds only: release builds carry no step bound.)
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "calendar queue: a day list walk took more steps")]
    fn a_slot_linked_twice_fails_the_next_walk() {
        let mut c = CalendarQueue::with_bucket_width(1_024);
        c.schedule(SimTime::from_ns(100), 1, ());
        c.schedule(SimTime::from_ns(200), 2, ());
        // Slot 0 heads day 0; filing it again points it at itself.
        let key = c.event(0).key();
        c.link(0, key);
        // Lands between the two: the walk from the head meets the cycle.
        c.schedule(SimTime::from_ns(150), 3, ());
    }

    #[test]
    fn kinds_and_labels() {
        let mut h: HeapScheduler<()> = HeapScheduler::default();
        let mut c: CalendarQueue<()> = CalendarQueue::with_bucket_width(1_000);
        assert_eq!(h.kind().label(), "heap");
        assert_eq!(c.kind().label(), "calendar");
        assert_eq!(c.bucket_width_ns(), 1_024);
        assert!(h.is_empty());
        assert_eq!(h.next_at(), None);
        assert_eq!(c.next_at(), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
    }
}
