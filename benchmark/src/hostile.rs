//! Hostile frames for `auth_flood`.
//!
//! Two kinds, alternating: a forgery (one byte of the header digest field
//! flipped) and an exact replay. Both are derived only from a request that
//! the same agent has already answered and the controller has already
//! matched, for two reasons:
//!
//! * The agent answers a rejected request with a Nack that echoes the
//!   request's sequence number. Were that number still outstanding at the
//!   controller, the Nack would complete (cancel) the honest request.
//! * A forgery must fail because of its digest. Flipping a body byte is
//!   not a reliable forgery: `ReadReq` drops its 8-byte value field on
//!   decode, so a flip there still verifies (see README, Observations).

use crate::adapt::DIGEST_BYTES;

/// `frame` with one byte of its digest field changed; `choice` picks which
/// byte and what to XOR it with (never zero). `None` if the frame is too
/// short to have a digest field.
pub fn forge(frame: &[u8], choice: u64) -> Option<Vec<u8>> {
    if frame.len() < DIGEST_BYTES.end {
        return None;
    }
    let at = DIGEST_BYTES.start + (choice % DIGEST_BYTES.len() as u64) as usize;
    let flip = 1 + ((choice >> 8) % 255) as u8;
    let mut forged = frame.to_vec();
    forged[at] ^= flip;
    Some(forged)
}

/// Per-agent source of hostile frames.
pub struct Hostile {
    completed: Vec<Option<Vec<u8>>>,
    sent: u64,
}

impl Hostile {
    pub fn new(agents: usize) -> Hostile {
        Hostile {
            completed: vec![None; agents],
            sent: 0,
        }
    }

    /// Records that `request` to `agent` has been answered and matched.
    pub fn completed(&mut self, agent: usize, request: Vec<u8>) {
        self.completed[agent] = Some(request);
    }

    /// The next hostile frame for `agent`: forgeries and replays alternate.
    /// `None` until a request to that agent has completed.
    pub fn next(&mut self, agent: usize, choice: u64) -> Option<Vec<u8>> {
        let base = self.completed[agent].as_deref()?;
        let frame = if self.sent.is_multiple_of(2) {
            forge(base, choice)?
        } else {
            base.to_vec()
        };
        self.sent += 1;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Vec<u8> {
        (0u8..30).collect()
    }

    #[test]
    fn forgery_changes_exactly_one_digest_byte() {
        for choice in 0..2_000u64 {
            let base = request();
            let forged = forge(&base, choice.wrapping_mul(0x9e37_79b9)).unwrap();
            assert_eq!(forged.len(), base.len());
            let changed: Vec<usize> = (0..base.len()).filter(|&i| base[i] != forged[i]).collect();
            assert_eq!(changed.len(), 1, "choice {choice}");
            assert!(DIGEST_BYTES.contains(&changed[0]), "body byte touched");
        }
    }

    #[test]
    fn forgery_reaches_every_digest_byte() {
        let base = request();
        let hit: std::collections::BTreeSet<usize> = (0..4u64)
            .map(|c| {
                let f = forge(&base, c).unwrap();
                (0..base.len()).find(|&i| base[i] != f[i]).unwrap()
            })
            .collect();
        assert_eq!(hit.into_iter().collect::<Vec<_>>(), [10, 11, 12, 13]);
    }

    #[test]
    fn short_frames_are_not_forged() {
        assert_eq!(forge(&[0; 13], 5), None);
        assert!(forge(&[0; 14], 5).is_some());
    }

    #[test]
    fn nothing_hostile_before_a_request_completed() {
        let mut h = Hostile::new(2);
        assert_eq!(h.next(0, 1), None);
        h.completed(1, request());
        assert_eq!(h.next(0, 1), None, "other agents' requests do not count");
        assert!(h.next(1, 1).is_some());
    }

    #[test]
    fn forgeries_and_replays_alternate_and_track_the_latest_completion() {
        let mut h = Hostile::new(1);
        h.completed(0, request());
        assert_ne!(h.next(0, 9).unwrap(), request());
        assert_eq!(h.next(0, 9).unwrap(), request());
        let newer: Vec<u8> = (100u8..130).collect();
        h.completed(0, newer.clone());
        let forged = h.next(0, 9).unwrap();
        assert_ne!(forged, newer);
        assert_eq!(forged[..10], newer[..10]);
        assert_eq!(forged[14..], newer[14..]);
        assert_eq!(h.next(0, 9).unwrap(), newer);
    }
}
