//! One end of an authenticated channel, written once for both sides.
//!
//! Both endpoints of every P4Auth channel keep the same state: a versioned
//! key for consistent updates (§VI-C), an outbound sequence counter, and a
//! replay window per sender (§V, §VIII). A [`ChannelEnd`] is that state.
//! The controller holds one per switch; the agent holds one per
//! key-register slot (the CPU channel and each port).
//!
//! The `seal` methods and [`ChannelEnd::open`] are the only code that
//! advances a counter or a window, and [`ChannelEnd::rekey`] the only code
//! that moves a key version. One key rule picks the key for sealing and
//! for opening: an EAK leg uses `K_seed`, an ADHKD `LocalInit` leg uses
//! `K_auth`, and everything else uses the slot generation its
//! `keyVersion` names (sealing stamps the current one).

use crate::auth::RejectReason;
use crate::keys::KeySlot;
use p4auth_primitives::idhash::IdMap;
use p4auth_primitives::{Digest32, Key64};
use p4auth_wire::body::{Body, KexContext, KeyExchange};
use p4auth_wire::ids::{KeyVersion, SeqNum, SwitchId};
use p4auth_wire::Message;
use std::collections::hash_map::Entry;

/// Which key a frame's body is sealed and opened under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum KeyUse {
    /// EAK salts: the pre-shared boot secret.
    Seed,
    /// The local-key initialization ADHKD legs: `K_auth`.
    Auth,
    /// Everything else: the key slot, by version.
    Slot,
}

impl KeyUse {
    fn of(body: &Body) -> KeyUse {
        match body {
            Body::KeyExchange(KeyExchange::EakSalt { .. }) => KeyUse::Seed,
            Body::KeyExchange(KeyExchange::Adhkd {
                context: KexContext::LocalInit,
                ..
            }) => KeyUse::Auth,
            _ => KeyUse::Slot,
        }
    }
}

/// One endpoint's state for one authenticated channel.
#[derive(Clone, Debug, Default)]
pub struct ChannelEnd {
    seed: Option<Key64>,
    auth: Option<Key64>,
    keys: KeySlot,
    seq_out: SeqNum,
    /// Last accepted sequence number per sender (the header's sender on
    /// the agent, the transport peer on the controller). Only a frame
    /// whose digest verified inserts, so the map is bounded by genuine
    /// peers, not by what arrives.
    last_in: IdMap<SwitchId, SeqNum>,
}

impl ChannelEnd {
    /// An endpoint with no keys; `seed` is the pre-shared `K_seed` on the
    /// channel that runs EAK (none on port channels).
    pub fn new(seed: Option<Key64>) -> Self {
        ChannelEnd {
            seed,
            ..ChannelEnd::default()
        }
    }

    /// The key slot (current and previous generation).
    pub fn keys(&self) -> &KeySlot {
        &self.keys
    }

    /// The pre-shared `K_seed` EAK runs under, if this channel has one.
    pub fn seed_key(&self) -> Option<Key64> {
        self.seed
    }

    /// Whether `K_auth` has been derived on this channel.
    pub fn has_auth_key(&self) -> bool {
        self.auth.is_some()
    }

    /// Records the `K_auth` an EAK exchange derived.
    pub fn set_auth_key(&mut self, key: Key64) {
        self.auth = Some(key);
    }

    /// Installs the channel's first key (`rolled = false`) or rolls to
    /// `key`, keeping the previous generation for frames in flight.
    ///
    /// # Panics
    ///
    /// Panics on a roll before any install.
    pub fn rekey(&mut self, key: Key64, rolled: bool) {
        if rolled {
            assert!(self.keys.is_installed(), "rollover on empty slot");
            self.keys.rollover(key);
        } else {
            self.keys.install(key);
        }
    }

    /// Overwrites the slot with a key derived elsewhere, at the publisher's
    /// version (a switch owned by a peer controller replica).
    pub fn mirror(&mut self, key: Key64, version: KeyVersion) {
        self.keys.force(key, version);
    }

    /// The last sequence number this end sent.
    pub fn last_sent(&self) -> SeqNum {
        self.seq_out
    }

    /// The last sequence number accepted from `peer`.
    pub fn last_accepted(&self, peer: SwitchId) -> Option<SeqNum> {
        self.last_in.get(&peer).copied()
    }

    /// The key rule, for opening `msg`: a slot-keyed frame opens under
    /// the generation its own `keyVersion` names.
    fn open_key(&self, msg: &Message) -> Option<Key64> {
        match KeyUse::of(msg.body()) {
            KeyUse::Seed => self.seed,
            KeyUse::Auth => self.auth,
            KeyUse::Slot => self.keys.select(msg.header().key_version),
        }
    }

    /// Opens a received frame, decoded as `msg`, from `peer`: picks the
    /// key by the key rule, checks the digest with `verify`, then, if
    /// `windowed`, advances `peer`'s replay window. Returns the key that
    /// verified the frame.
    ///
    /// The digest is checked before the window, so a forged frame never
    /// learns or moves sequence state. A rejected frame changes nothing.
    ///
    /// # Errors
    ///
    /// [`RejectReason::NoKey`] if the rule names no installed key,
    /// [`RejectReason::BadDigest`] if `verify` fails, and
    /// [`RejectReason::Replayed`] if the sequence number does not advance
    /// past the last one accepted from `peer`.
    pub fn open(
        &mut self,
        peer: SwitchId,
        msg: &Message,
        windowed: bool,
        verify: impl FnOnce(Key64) -> bool,
    ) -> Result<Key64, RejectReason> {
        let key = self.open_key(msg).ok_or(RejectReason::NoKey)?;
        if !verify(key) {
            return Err(RejectReason::BadDigest);
        }
        if windowed {
            let seq = msg.header().seq_num;
            match self.last_in.entry(peer) {
                Entry::Occupied(e) if seq.value() <= e.get().value() => {
                    return Err(RejectReason::Replayed {
                        last_accepted: *e.get(),
                    });
                }
                Entry::Occupied(mut e) => {
                    e.insert(seq);
                }
                Entry::Vacant(e) => {
                    e.insert(seq);
                }
            }
        }
        Ok(key)
    }

    /// Builds the next outbound frame with `build` from the next sequence
    /// number and seals it under the key rule's key, stamping the current
    /// key version on slot-keyed frames; `digest` computes the digest.
    ///
    /// # Errors
    ///
    /// Returns the built message, unsealed, if the rule names no installed
    /// key; the counter has advanced either way.
    pub fn seal(
        &mut self,
        build: impl FnOnce(SeqNum) -> Message,
        digest: impl FnOnce(Key64, &[&[u8]]) -> Digest32,
    ) -> Result<Vec<u8>, Message> {
        self.seq_out = self.seq_out.next();
        self.seal_reply(build(self.seq_out), digest)
    }

    /// [`ChannelEnd::seal`] for a frame that carries a sequence number it
    /// was given (a response echoing its request's, a redirected leg
    /// keeping its origin's): the counter does not move.
    ///
    /// # Errors
    ///
    /// Returns `msg`, unsealed, if the rule names no installed key.
    pub fn seal_reply(
        &self,
        msg: Message,
        digest: impl FnOnce(Key64, &[&[u8]]) -> Digest32,
    ) -> Result<Vec<u8>, Message> {
        let (key, msg) = match KeyUse::of(msg.body()) {
            KeyUse::Seed => (self.seed, msg),
            KeyUse::Auth => (self.auth, msg),
            KeyUse::Slot => match self.keys.current() {
                Some(key) => (Some(key), msg.with_key_version(self.keys.version())),
                None => (None, msg),
            },
        };
        match key {
            Some(key) => Ok(msg.encode_sealed_with(|parts| digest(key, parts))),
            None => Err(msg),
        }
    }

    /// Builds the next outbound frame with `build` and seals it under
    /// `key`, keeping the version `build` set: an ADHKD answer goes back
    /// under the key, and with the tag, that opened its offer, even when
    /// answering installed a newer generation.
    pub fn seal_answer(
        &mut self,
        build: impl FnOnce(SeqNum) -> Message,
        key: Key64,
        digest: impl FnOnce(Key64, &[&[u8]]) -> Digest32,
    ) -> Vec<u8> {
        self.seq_out = self.seq_out.next();
        build(self.seq_out).encode_sealed_with(|parts| digest(key, parts))
    }

    /// Builds the next outbound frame with `build` and encodes it without
    /// a digest (the unauthenticated baselines).
    pub fn seal_plain(&mut self, build: impl FnOnce(SeqNum) -> Message) -> Vec<u8> {
        self.seq_out = self.seq_out.next();
        build(self.seq_out).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_primitives::mac::{HalfSipHashMac, Mac};
    use p4auth_wire::body::{EakStep, RegisterOp};
    use p4auth_wire::ids::{PortId, RegId};
    use p4auth_wire::verify_frame;

    const PEER: SwitchId = SwitchId::CONTROLLER;

    fn mac() -> HalfSipHashMac {
        HalfSipHashMac::default()
    }

    fn request(seq: u32) -> Message {
        Message::register_request(
            PEER,
            SeqNum::new(seq),
            RegisterOp::read_req(RegId::new(1), 0),
        )
    }

    fn open(end: &mut ChannelEnd, frame: &[u8]) -> Result<Key64, RejectReason> {
        let msg = Message::decode(frame).unwrap();
        end.open(PEER, &msg, true, |key| verify_frame(&mac(), key, frame))
    }

    fn keyed(key: Key64) -> ChannelEnd {
        let mut end = ChannelEnd::new(None);
        end.rekey(key, false);
        end
    }

    #[test]
    fn accepts_increasing_sequences_with_gaps() {
        let key = Key64::new(5);
        let mut end = keyed(key);
        for seq in [1, 2, 10] {
            let frame = request(seq).sealed(&mac(), key).encode();
            assert_eq!(open(&mut end, &frame), Ok(key));
        }
        assert_eq!(end.last_accepted(PEER), Some(SeqNum::new(10)));
    }

    #[test]
    fn rejects_replays_and_older_sequences() {
        let key = Key64::new(5);
        let mut end = keyed(key);
        let frame = request(3).sealed(&mac(), key).encode();
        open(&mut end, &frame).unwrap();
        let last_accepted = SeqNum::new(3);
        assert_eq!(
            open(&mut end, &frame),
            Err(RejectReason::Replayed { last_accepted })
        );
        let older = request(2).sealed(&mac(), key).encode();
        assert_eq!(
            open(&mut end, &older),
            Err(RejectReason::Replayed { last_accepted })
        );
    }

    #[test]
    fn a_forged_stale_frame_is_bad_digest_and_moves_nothing() {
        let key = Key64::new(5);
        let mut end = keyed(key);
        open(&mut end, &request(4).sealed(&mac(), key).encode()).unwrap();
        let forged = request(4).sealed(&mac(), Key64::new(6)).encode();
        assert_eq!(open(&mut end, &forged), Err(RejectReason::BadDigest));
        assert_eq!(end.last_accepted(PEER), Some(SeqNum::new(4)));
    }

    #[test]
    fn no_key_is_a_no_key_reject() {
        let mut end = ChannelEnd::new(None);
        let frame = request(1).sealed(&mac(), Key64::new(1)).encode();
        assert_eq!(open(&mut end, &frame), Err(RejectReason::NoKey));
        assert_eq!(end.last_accepted(PEER), None);
    }

    #[test]
    #[should_panic(expected = "rollover on empty slot")]
    fn rollover_before_install_panics() {
        ChannelEnd::new(None).rekey(Key64::new(9), true);
    }

    #[test]
    fn windows_are_per_sender() {
        let key = Key64::new(5);
        let mut end = keyed(key);
        open(&mut end, &request(5).sealed(&mac(), key).encode()).unwrap();
        let other = Message::register_request(
            SwitchId::new(2),
            SeqNum::new(1),
            RegisterOp::read_req(RegId::new(1), 0),
        )
        .sealed(&mac(), key);
        let frame = other.encode();
        end.open(SwitchId::new(2), &other, true, |k| {
            verify_frame(&mac(), k, &frame)
        })
        .unwrap();
        assert_eq!(end.last_accepted(SwitchId::new(2)), Some(SeqNum::new(1)));
        assert_eq!(end.last_accepted(PEER), Some(SeqNum::new(5)));
    }

    #[test]
    fn seal_numbers_from_one_and_stamps_the_current_version() {
        let (k0, k1) = (Key64::new(1), Key64::new(2));
        let mut end = keyed(k0);
        end.rekey(k1, true);
        let build =
            |seq| Message::register_request(PEER, seq, RegisterOp::read_req(RegId::new(1), 0));
        let frame = end.seal(build, |k, p| mac().compute(k, p)).unwrap();
        let msg = Message::decode(&frame).unwrap();
        assert_eq!(msg.header().seq_num, SeqNum::new(1));
        assert_eq!(msg.header().key_version, KeyVersion::INITIAL.next());
        assert!(verify_frame(&mac(), k1, &frame));
        assert_eq!(end.last_sent(), SeqNum::new(1));
    }

    #[test]
    fn bootstrap_legs_use_the_seed_and_auth_keys_without_a_version_stamp() {
        let (seed, auth) = (Key64::new(7), Key64::new(8));
        let mut end = ChannelEnd::new(Some(seed));
        let salt = |seq| {
            Message::key_exchange(
                PEER,
                PortId::CPU,
                seq,
                KeyExchange::EakSalt {
                    step: EakStep::Salt1,
                    salt: 9,
                },
            )
        };
        let frame = end.seal(salt, |k, p| mac().compute(k, p)).unwrap();
        assert!(verify_frame(&mac(), seed, &frame));
        assert_eq!(open(&mut end, &frame), Ok(seed));

        let offer = |seq| {
            Message::key_exchange(
                PEER,
                PortId::CPU,
                seq,
                KeyExchange::Adhkd {
                    role: p4auth_wire::body::AdhkdRole::Offer,
                    context: KexContext::LocalInit,
                    public_key: 1,
                    salt: 2,
                },
            )
        };
        let err = end.seal(offer, |k, p| mac().compute(k, p)).unwrap_err();
        assert_eq!(err.header().seq_num, SeqNum::new(2), "the counter moved");
        end.set_auth_key(auth);
        let frame = end.seal(offer, |k, p| mac().compute(k, p)).unwrap();
        assert!(verify_frame(&mac(), auth, &frame));
        let msg = Message::decode(&frame).unwrap();
        assert_eq!(msg.header().key_version, KeyVersion::INITIAL);
    }
}
