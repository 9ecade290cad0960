//! The register requests a controller has sent one switch and not yet
//! seen answered.

use p4auth_wire::ids::{RegId, SeqNum};
use std::collections::VecDeque;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PendingRequest {
    pub(crate) reg: RegId,
    pub(crate) index: u32,
    pub(crate) is_write: bool,
    /// Sim time (ns) the request left the controller, per the clock last
    /// pushed via `Controller::set_now`. Used for the register-op latency
    /// histogram.
    pub(crate) sent_at_ns: u64,
}

/// Unanswered requests in send order.
///
/// A channel mints its sequence numbers in increasing order, wrapping at
/// `u32::MAX`, and a request is pushed as it is sent. So the entries are
/// sorted by their distance from the front entry's number, modulo 2³²,
/// and an answer finds its request by binary search on that distance:
/// no hashing, and one contiguous buffer instead of a table. DESIGN §4j
/// says why this is not a `seq mod W` ring.
#[derive(Default)]
pub(crate) struct Outstanding(VecDeque<(SeqNum, PendingRequest)>);

impl Outstanding {
    /// Distance of `seq` from `front`, modulo 2³².
    fn offset(front: SeqNum, seq: SeqNum) -> u32 {
        seq.value().wrapping_sub(front.value())
    }

    /// Records `request`, sent as `seq`: a number this channel minted after
    /// every one already held.
    pub(crate) fn push(&mut self, seq: SeqNum, request: PendingRequest) {
        // A request still unanswered 2³² numbers later has been lapped:
        // its number now names the new request. Dropping it keeps the
        // entries sorted.
        while let (Some(&(front, _)), Some(&(back, _))) = (self.0.front(), self.0.back()) {
            if Self::offset(front, seq) > Self::offset(front, back) {
                break;
            }
            self.0.pop_front();
        }
        self.0.push_back((seq, request));
    }

    /// Takes the request sent as `seq`, if it is still unanswered.
    pub(crate) fn remove(&mut self, seq: SeqNum) -> Option<PendingRequest> {
        let &(front, _) = self.0.front()?;
        let i = self
            .0
            .binary_search_by_key(&Self::offset(front, seq), |&(s, _)| Self::offset(front, s))
            .ok()?;
        self.0.remove(i).map(|(_, request)| request)
    }

    /// Requests still unanswered.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn request(step: usize) -> PendingRequest {
        PendingRequest {
            reg: RegId::new(step as u32 % 7),
            index: step as u32,
            is_write: step.is_multiple_of(3),
            sent_at_ns: step as u64,
        }
    }

    proptest! {
        /// `Outstanding` against the plain model of it, a map keyed by
        /// sequence number. Steps: a request sent (0, 1), a number
        /// minted for something else (2, as a key exchange does), the
        /// oldest unanswered request answered (3), any number minted so far
        /// answered — out of order, a duplicate or a number never sent as
        /// a request (4) — and a number not yet minted answered (5).
        /// Requests are left unanswered throughout, and the counter starts
        /// just short of `u32::MAX`, so the wrap falls inside the run.
        #[test]
        fn outstanding_matches_a_seq_keyed_map(
            steps in proptest::collection::vec((0u8..6, any::<u32>()), 1..400),
            start in 0u32..64,
        ) {
            let mut seq_out = SeqNum::new(u32::MAX - start);
            let mut minted: Vec<SeqNum> = Vec::new();
            let mut queue = Outstanding::default();
            let mut oracle: BTreeMap<SeqNum, PendingRequest> = BTreeMap::new();
            for (step, &(kind, pick)) in steps.iter().enumerate() {
                let answer = match kind {
                    0..=2 => {
                        seq_out = seq_out.next();
                        minted.push(seq_out);
                        if kind < 2 {
                            queue.push(seq_out, request(step));
                            oracle.insert(seq_out, request(step));
                        }
                        None
                    }
                    3 => minted.iter().copied().find(|s| oracle.contains_key(s)),
                    4 if !minted.is_empty() => Some(minted[pick as usize % minted.len()]),
                    _ => Some(SeqNum::new(seq_out.value().wrapping_add(1 + pick % 1_000))),
                };
                if let Some(seq) = answer {
                    prop_assert_eq!(queue.remove(seq), oracle.remove(&seq), "seq {}", seq);
                }
                prop_assert_eq!(queue.len(), oracle.len());
            }
        }
    }

    #[test]
    fn an_answer_across_the_wrap_finds_its_request() {
        let mut queue = Outstanding::default();
        let seqs = [u32::MAX - 1, u32::MAX, 0, 1].map(SeqNum::new);
        for (i, &seq) in seqs.iter().enumerate() {
            queue.push(seq, request(i));
        }
        assert_eq!(queue.remove(SeqNum::new(0)), Some(request(2)));
        assert_eq!(queue.remove(SeqNum::new(u32::MAX)), Some(request(1)));
        assert_eq!(queue.remove(SeqNum::new(u32::MAX)), None);
        assert_eq!(queue.remove(SeqNum::new(1)), Some(request(3)));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn a_lapped_request_is_dropped() {
        let mut queue = Outstanding::default();
        queue.push(SeqNum::new(5), request(0));
        queue.push(SeqNum::new(9), request(1));
        // 2³² numbers after 5, the counter is at 5 again.
        queue.push(SeqNum::new(5), request(2));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.remove(SeqNum::new(9)), Some(request(1)));
        assert_eq!(queue.remove(SeqNum::new(5)), Some(request(2)));
    }
}
