//! The bounded drop-oldest buffer behind [`crate::EventLog`] and
//! [`crate::TraceLog`]: fixed-size chunks, each allocated the first time
//! the ring reaches it and then overwritten in place once the ring is
//! full. No item is ever copied to grow the ring, and a full ring holds
//! exactly `capacity` slots.
//!
//! Why chunks and not one buffer. A ring that doubles its way up copies
//! half its bound on the last growth, so its peak is 1.5× what it holds.
//! One buffer allocated at the bound avoids the copy but not the other
//! cost of a multi-megabyte block: the allocator serves it from the main
//! heap once an earlier one has been freed, and when a later allocation
//! lands in the hole it left, the next one goes above and the hole stays
//! resident. With `ctrl_fleet`'s 4 MiB trace ring that read 8.9 MB or
//! 13.0 MB peak RSS depending only on the length of the executable's
//! path. A chunk of `CHUNK` slots fits any hole an earlier chunk left,
//! and a log that never fills costs only the chunks it reached.

/// Slots per chunk: 64 KiB of 64-byte trace spans.
const CHUNK: usize = 1024;

/// A drop-oldest ring of at most `capacity` items, where `capacity` is
/// the owner's constant and comes in with every [`Ring::push`] (the logs
/// read it outside their mutex to stay a branch-and-return when
/// disabled).
#[derive(Debug)]
pub(crate) struct Ring<T> {
    /// Item `i` is `chunks[i / CHUNK][i % CHUNK]`; every chunk but the
    /// last holds `CHUNK` items.
    chunks: Vec<Vec<T>>,
    len: usize,
    /// Index of the oldest item; nonzero only once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring {
            chunks: Vec::new(),
            len: 0,
            head: 0,
            dropped: 0,
        }
    }
}

impl<T> Ring<T> {
    /// Appends `item`; at `capacity` (which must be nonzero) it replaces
    /// the oldest item instead and counts the drop. Allocates only on
    /// reaching a new chunk: `capacity.div_ceil(CHUNK)` chunks and the
    /// table that holds them, once each, however often the ring wraps.
    ///
    /// Inlined into the logs' record paths: through a call the record is
    /// assembled on the stack and copied into its slot, and one event
    /// costs 22 ns instead of 16. For the same reason the chunk is added
    /// out of line and the full ring's slot is found with `get_mut`, not
    /// an index that can panic: with either one undone, a span costs
    /// about 58 ns to record instead of 42.
    #[inline]
    pub(crate) fn push(&mut self, capacity: usize, item: T) {
        if self.len < capacity {
            if self.len.is_multiple_of(CHUNK) {
                self.add_chunk(capacity);
            }
            if let Some(chunk) = self.chunks.last_mut() {
                chunk.push(item);
            }
            self.len += 1;
        } else {
            // The slot exists: a full ring holds `capacity` items.
            if let Some(slot) = self
                .chunks
                .get_mut(self.head / CHUNK)
                .and_then(|chunk| chunk.get_mut(self.head % CHUNK))
            {
                *slot = item;
            }
            self.head = if self.head + 1 == capacity {
                0
            } else {
                self.head + 1
            };
            self.dropped += 1;
        }
    }

    /// Starts the chunk that item `self.len` goes in; the first one also
    /// sizes the chunk table.
    #[cold]
    #[inline(never)]
    fn add_chunk(&mut self, capacity: usize) {
        if self.chunks.capacity() == 0 {
            self.chunks.reserve_exact(capacity.div_ceil(CHUNK));
        }
        let room = capacity - self.len;
        self.chunks.push(Vec::with_capacity(room.min(CHUNK)));
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Items replaced because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The items, oldest first, as one slice more than there are chunks.
    /// Callers copy slice by slice: an item-by-item iterator over
    /// the chunks takes about 13 µs to copy a full 4,096-event log, the
    /// slices 5 µs, as the one flat buffer did.
    pub(crate) fn slices(&self) -> impl Iterator<Item = &[T]> {
        // `head` is 0 until the ring is full, and from then on every
        // chunk exists, so the chunk it points into does too.
        let (chunk, offset) = (self.head / CHUNK, self.head % CHUNK);
        let at = |c: usize| self.chunks.get(c).map_or(&[][..], Vec::as_slice);
        let (newer, older) = at(chunk).split_at(offset);
        std::iter::once(older)
            .chain((chunk + 1..self.chunks.len()).chain(0..chunk).map(at))
            .chain(std::iter::once(newer))
    }

    /// Removes and returns the items, oldest first, and frees the chunks.
    /// The drop count stays.
    pub(crate) fn drain(&mut self) -> Vec<T> {
        let mut items = Vec::with_capacity(self.len);
        for chunk in self.chunks.drain(..) {
            items.extend(chunk);
        }
        items.rotate_left(self.head);
        self.head = 0;
        self.len = 0;
        items
    }
}
