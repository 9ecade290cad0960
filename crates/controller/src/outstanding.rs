//! The register requests a controller has sent one switch and not yet
//! seen answered.

use p4auth_wire::ids::{KeyVersion, RegId, SeqNum};
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

/// Unanswered requests in send order, by the key version and sequence
/// number they were sent under (an answer echoes both). A request lives
/// as long as its generation ([`Outstanding::retire`]), so the entries
/// span at most two versions, older first, each numbered upwards from 1:
/// an answer finds its request by binary search on (newest version?,
/// seq). DESIGN §4j says why this is not a `seq mod W` ring.
#[derive(Default)]
pub(crate) struct Outstanding(VecDeque<(KeyVersion, SeqNum, PendingRequest)>);

impl Outstanding {
    /// Records `request`, sent as `seq` under `version`: the newest
    /// generation's next number.
    pub(crate) fn push(&mut self, version: KeyVersion, seq: SeqNum, request: PendingRequest) {
        self.0.push_back((version, seq, request));
    }

    /// Takes the request sent as `seq` under `version`, if it is still
    /// unanswered.
    pub(crate) fn remove(&mut self, version: KeyVersion, seq: SeqNum) -> Option<PendingRequest> {
        let &(newest, _, _) = self.0.back()?;
        let i = self
            .0
            .binary_search_by_key(&(version == newest, seq), |&(v, s, _)| (v == newest, s))
            .ok()
            .filter(|&i| self.0[i].0 == version)?;
        self.0.remove(i).map(|(_, _, request)| request)
    }

    /// Drops every request not sent under `live`, the one generation that
    /// outlives a rekey (the old current one after a rollover, none after
    /// an install): the switch can no longer answer them. Returns how many
    /// went.
    pub(crate) fn retire(&mut self, live: Option<KeyVersion>) -> usize {
        let before = self.0.len();
        self.0.retain(|&(v, _, _)| Some(v) == live);
        before - self.0.len()
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
        /// (version, sequence number). Steps: a request sent (0, 1), a
        /// number drawn for something else (2, as an alert does), the
        /// oldest unanswered request answered (3), any (version, number)
        /// drawn so far answered — out of order, a duplicate, one never
        /// sent as a request or one of a retired generation (4), a number
        /// not yet drawn answered (5), a rollover (6) and an install (7),
        /// each of which retires what the switch can no longer answer.
        /// Versions wrap at 255 and an install goes back to the initial
        /// one, so numbers repeat across generations.
        #[test]
        fn outstanding_matches_a_version_and_seq_keyed_map(
            steps in proptest::collection::vec((0u8..8, any::<u32>()), 1..400),
            start in any::<u8>(),
        ) {
            let mut version = KeyVersion::new(start);
            let mut sent = 0u32;
            let mut drawn: Vec<(KeyVersion, SeqNum)> = Vec::new();
            let mut queue = Outstanding::default();
            let mut oracle: BTreeMap<(u8, u32), PendingRequest> = BTreeMap::new();
            for (step, &(kind, pick)) in steps.iter().enumerate() {
                let answer = match kind {
                    0..=2 => {
                        sent += 1;
                        drawn.push((version, SeqNum::new(sent)));
                        if kind < 2 {
                            queue.push(version, SeqNum::new(sent), request(step));
                            oracle.insert((version.value(), sent), request(step));
                        }
                        None
                    }
                    3 => drawn
                        .iter()
                        .copied()
                        .find(|(v, s)| oracle.contains_key(&(v.value(), s.value()))),
                    4 if !drawn.is_empty() => Some(drawn[pick as usize % drawn.len()]),
                    5 => Some((version, SeqNum::new(sent + 1 + pick % 1_000))),
                    6 | 7 => {
                        let live = (kind == 6).then_some(version);
                        version = if kind == 6 { version.next() } else { KeyVersion::INITIAL };
                        sent = 0;
                        let gone = oracle.len();
                        oracle.retain(|&(v, _), _| Some(KeyVersion::new(v)) == live);
                        prop_assert_eq!(queue.retire(live), gone - oracle.len());
                        None
                    }
                    _ => None,
                };
                if let Some((v, seq)) = answer {
                    let want = oracle.remove(&(v.value(), seq.value()));
                    prop_assert_eq!(queue.remove(v, seq), want, "{} {}", v, seq);
                }
                prop_assert_eq!(queue.len(), oracle.len());
            }
        }
    }

    #[test]
    fn the_same_number_under_two_versions_finds_each_request() {
        let (v0, v1) = (KeyVersion::INITIAL, KeyVersion::INITIAL.next());
        let mut queue = Outstanding::default();
        queue.push(v0, SeqNum::new(5), request(0));
        queue.push(v0, SeqNum::new(6), request(1));
        queue.push(v1, SeqNum::new(5), request(2));
        assert_eq!(queue.remove(KeyVersion::new(9), SeqNum::new(5)), None);
        assert_eq!(queue.remove(v1, SeqNum::new(5)), Some(request(2)));
        assert_eq!(queue.remove(v0, SeqNum::new(5)), Some(request(0)));
        assert_eq!(queue.remove(v0, SeqNum::new(5)), None);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn a_rekey_retires_what_the_switch_cannot_answer() {
        let (v0, v1) = (KeyVersion::INITIAL, KeyVersion::INITIAL.next());
        let mut queue = Outstanding::default();
        queue.push(v0, SeqNum::new(1), request(0));
        queue.push(v1, SeqNum::new(1), request(1));
        // A second rollover: only v1 stays live, as the previous generation.
        assert_eq!(queue.retire(Some(v1)), 1);
        assert_eq!(queue.remove(v1, SeqNum::new(1)), Some(request(1)));
        queue.push(v1, SeqNum::new(2), request(2));
        // An install: nothing stays.
        assert_eq!(queue.retire(None), 1);
        assert_eq!(queue.len(), 0);
    }
}
