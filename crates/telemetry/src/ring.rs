//! The bounded drop-oldest buffer behind [`crate::EventLog`] and
//! [`crate::TraceLog`]: one flat `Vec` that grows to the bound and is
//! then overwritten in place.

/// A drop-oldest ring of at most `capacity` items, where `capacity` is
/// the owner's constant and comes in with every [`Ring::push`] (the logs
/// read it outside their mutex to stay a branch-and-return when
/// disabled).
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    /// Index of the oldest item; nonzero only once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }
}

impl<T> Ring<T> {
    /// Appends `item`; at `capacity` (which must be nonzero) it replaces
    /// the oldest item instead and counts the drop.
    ///
    /// Inlined into the logs' record paths: through a call the record is
    /// assembled on the stack and copied into its slot, and one event
    /// costs 22 ns instead of 16.
    #[inline]
    pub(crate) fn push(&mut self, capacity: usize, item: T) {
        if self.buf.len() < capacity {
            if self.buf.len() == self.buf.capacity() {
                // Double, but never past the bound: a full ring owns
                // `capacity` slots, not the next power of two.
                let room = capacity - self.buf.len();
                self.buf.reserve_exact(self.buf.len().max(4).min(room));
            }
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = if self.head + 1 == capacity {
                0
            } else {
                self.head + 1
            };
            self.dropped += 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Items replaced because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The items, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }

    /// Removes and returns the items, oldest first. The drop count stays.
    pub(crate) fn drain(&mut self) -> Vec<T> {
        self.buf.rotate_left(self.head);
        self.head = 0;
        std::mem::take(&mut self.buf)
    }
}
