//! One end of an authenticated channel, written once for both sides: the
//! controller holds one [`ChannelEnd`] per switch, the agent one per
//! key-register slot. Every key is a [`Generation`] with its own outbound
//! counter and a replay window per sender (§V, §VI-C, §VIII), and one key
//! rule picks the key, and with it the sequence space (DESIGN §2).

use crate::auth::RejectReason;
use crate::keys::{Generation, KeySlot};
use p4auth_primitives::{Digest32, Key64};
use p4auth_wire::body::{Body, KexContext, KeyExchange, RegisterOp};
use p4auth_wire::ids::{KeyVersion, SeqNum};
use p4auth_wire::Message;
use std::collections::hash_map::Entry;

/// The key rule: EAK salts use `K_seed` and are outside every window
/// (number 0; `Salt2`'s digest covers `Salt1` instead), the ADHKD
/// `LocalInit` legs `K_auth`, everything else the slot generation their
/// `keyVersion` names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum KeyUse {
    Seed,
    Auth,
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

/// The generation [`ChannelEnd::open`] accepted a frame under, so a reply
/// can be sealed under it ([`ChannelEnd::seal`]).
#[derive(Clone, Copy, Debug)]
pub struct Opened {
    /// The key that verified the frame.
    pub key: Key64,
    using: KeyUse,
    version: KeyVersion,
}

/// One endpoint's state for one authenticated channel.
#[derive(Clone, Debug, Default)]
pub struct ChannelEnd {
    /// `K_seed` as a generation that never draws a number.
    seed: Option<Generation>,
    auth: KeySlot,
    keys: KeySlot,
    /// The unauthenticated baselines' counter: no key, no window.
    plain: SeqNum,
}

impl ChannelEnd {
    /// An endpoint with no keys; `seed` is the pre-shared `K_seed` on the
    /// channel that runs EAK (none on port channels).
    pub fn new(seed: Option<Key64>) -> Self {
        ChannelEnd {
            seed: seed.map(|key| Generation::new(key, KeyVersion::INITIAL)),
            ..ChannelEnd::default()
        }
    }

    /// The key slot (current and previous generation).
    pub fn keys(&self) -> &KeySlot {
        &self.keys
    }

    /// The pre-shared `K_seed` EAK runs under, if this channel has one.
    pub fn seed_key(&self) -> Option<Key64> {
        self.seed.as_ref().map(|g| g.key)
    }

    /// Whether `K_auth` has been derived on this channel.
    pub fn has_auth_key(&self) -> bool {
        self.auth.is_installed()
    }

    /// Starts a `K_auth` generation; the one it displaces stays for legs
    /// still in flight under it (a replayed `Salt1` cannot strand an init).
    pub fn set_auth_key(&mut self, key: Key64) {
        self.auth.rollover(key);
    }

    /// Installs the channel's first key (`rolled = false`, at
    /// [`KeyVersion::INITIAL`]) or rolls to `key`: a fresh generation.
    /// Panics on a roll before any install.
    pub fn rekey(&mut self, key: Key64, rolled: bool) {
        if rolled {
            assert!(self.keys.is_installed(), "rollover on empty slot");
            self.keys.rollover(key);
        } else {
            self.keys.install(key);
        }
    }

    /// The version and number of the last frame sealed under the current
    /// slot generation or, with no key, numbered by `seal_plain`.
    pub fn last_sent(&self) -> (KeyVersion, SeqNum) {
        match &self.keys.current {
            Some(g) => (g.version, g.sent),
            None => (KeyVersion::INITIAL, self.plain),
        }
    }

    /// Moves the current slot generation's counter to `sent`, as if frames
    /// up to it had been sealed: counter exhaustion without 2³² seals.
    #[doc(hidden)]
    pub fn fast_forward(&mut self, sent: SeqNum) {
        if let Some(g) = &mut self.keys.current {
            g.sent = sent;
        }
    }

    /// Opens a received frame, decoded as `msg`: picks the generation by
    /// the key rule (a `K_auth` leg carries no version: the current
    /// `K_auth`, then the previous one), checks the digest with `verify`,
    /// then advances the header sender's window in that generation, unless
    /// the frame is a register response (it echoes its request's number
    /// and is matched to it instead). A rejected frame changes nothing.
    ///
    /// # Errors
    ///
    /// [`RejectReason::NoKey`], [`RejectReason::BadDigest`] if `verify`
    /// fails, or [`RejectReason::Replayed`].
    pub fn open(
        &mut self,
        msg: &Message,
        mut verify: impl FnMut(Key64) -> bool,
    ) -> Result<Opened, RejectReason> {
        let (header, using) = (msg.header(), KeyUse::of(msg.body()));
        let candidates = match using {
            KeyUse::Seed => [self.seed.as_mut(), None],
            KeyUse::Auth => [self.auth.current.as_mut(), self.auth.previous.as_mut()],
            KeyUse::Slot => [self.keys.generation_mut(header.key_version), None],
        };
        let mut candidates = candidates.into_iter().flatten().peekable();
        candidates.peek().ok_or(RejectReason::NoKey)?;
        let g = candidates
            .find(|g| verify(g.key))
            .ok_or(RejectReason::BadDigest)?;
        let response = matches!(
            msg.body(),
            Body::Register(RegisterOp::Ack { .. } | RegisterOp::Nack { .. })
        );
        if using != KeyUse::Seed && !response {
            let window = g.last_in.entry(header.sender);
            let last = match &window {
                Entry::Occupied(last) => *last.get(),
                Entry::Vacant(_) => SeqNum::default(),
            };
            if header.seq_num <= last {
                return Err(RejectReason::Replayed {
                    last_accepted: last,
                });
            }
            window.insert_entry(header.seq_num);
        }
        Ok(Opened {
            key: g.key,
            using,
            version: g.version,
        })
    }

    /// Seals `msg` as the next frame of a generation, stamping its number
    /// (and, slot-keyed, its version): the current one the key rule picks
    /// or, for a reply, the one that opened its request, even if the
    /// request installed a newer one. An EAK leg is stamped 0.
    ///
    /// # Errors
    ///
    /// `msg`, unsealed and as built, with no such key (no number is drawn:
    /// there is no sequence space) or a counter at `u32::MAX`.
    pub fn seal(
        &mut self,
        reply_to: Option<Opened>,
        msg: Message,
        digest: impl FnOnce(Key64, &[&[u8]]) -> Digest32,
    ) -> Result<Vec<u8>, Message> {
        let using = reply_to.map_or_else(|| KeyUse::of(msg.body()), |o| o.using);
        let version = |slot: &KeySlot| reply_to.map_or(slot.version(), |o| o.version);
        let g = match using {
            KeyUse::Seed => self.seed.as_mut(),
            KeyUse::Auth => self.auth.generation_mut(version(&self.auth)),
            KeyUse::Slot => self.keys.generation_mut(version(&self.keys)),
        };
        let Some(g) = g else { return Err(msg) };
        let seq = match using {
            KeyUse::Seed => Some(SeqNum::default()),
            _ => g.sent.next(),
        };
        let Some(seq) = seq else { return Err(msg) };
        g.sent = seq;
        let mut msg = msg.with_seq_num(seq);
        if using == KeyUse::Slot {
            msg = msg.with_key_version(g.version);
        }
        Ok(msg.encode_sealed_with(|parts| digest(g.key, parts)))
    }

    /// Numbers `msg` from the baselines' counter (no window checks it, so
    /// it goes round from `u32::MAX` to 1) and encodes it without a digest.
    pub fn seal_plain(&mut self, msg: Message) -> Vec<u8> {
        self.plain = self.plain.next().unwrap_or(SeqNum::new(1));
        msg.with_seq_num(self.plain).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_primitives::mac::{HalfSipHashMac, Mac};
    use p4auth_wire::body::{AdhkdRole, EakStep};
    use p4auth_wire::ids::{PortId, RegId, SwitchId};
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
        end.open(&msg, |key| verify_frame(&mac(), key, frame))
            .map(|opened| opened.key)
    }

    fn last_accepted(end: &ChannelEnd, peer: SwitchId) -> Option<SeqNum> {
        end.keys().generations().next()?.last_accepted(peer)
    }

    fn keyed(key: Key64) -> ChannelEnd {
        let mut end = ChannelEnd::new(None);
        end.rekey(key, false);
        end
    }

    fn salt1() -> Message {
        let salt = KeyExchange::EakSalt {
            step: EakStep::Salt1,
            salt: 9,
        };
        Message::key_exchange(PEER, PortId::CPU, SeqNum::new(5), salt)
    }

    fn local_init_offer() -> Message {
        let offer = KeyExchange::Adhkd {
            role: AdhkdRole::Offer,
            context: KexContext::LocalInit,
            public_key: 1,
            salt: 2,
        };
        Message::key_exchange(PEER, PortId::CPU, SeqNum::default(), offer)
    }

    #[test]
    fn accepts_increasing_sequences_with_gaps() {
        let key = Key64::new(5);
        let mut end = keyed(key);
        for seq in [1, 2, 10] {
            let frame = request(seq).sealed(&mac(), key).encode();
            assert_eq!(open(&mut end, &frame), Ok(key));
        }
        assert_eq!(last_accepted(&end, PEER), Some(SeqNum::new(10)));
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
    fn number_zero_is_before_every_window() {
        let key = Key64::new(5);
        let mut end = keyed(key);
        let frame = request(0).sealed(&mac(), key).encode();
        let last_accepted = SeqNum::new(0);
        assert_eq!(
            open(&mut end, &frame),
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
        assert_eq!(last_accepted(&end, PEER), Some(SeqNum::new(4)));
    }

    #[test]
    fn no_key_is_a_no_key_reject() {
        let mut end = ChannelEnd::new(None);
        let frame = request(1).sealed(&mac(), Key64::new(1)).encode();
        assert_eq!(open(&mut end, &frame), Err(RejectReason::NoKey));
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
        open(&mut end, &other.encode()).unwrap();
        assert_eq!(last_accepted(&end, SwitchId::new(2)), Some(SeqNum::new(1)));
        assert_eq!(last_accepted(&end, PEER), Some(SeqNum::new(5)));
    }

    #[test]
    fn an_install_restarts_both_counter_and_window() {
        let (k0, k1) = (Key64::new(1), Key64::new(2));
        let mut end = keyed(k0);
        open(&mut end, &request(900).sealed(&mac(), k0).encode()).unwrap();
        end.fast_forward(SeqNum::new(700));
        // A peer that restarted numbers from 1 under the key it installed.
        end.rekey(k1, false);
        assert_eq!(
            open(&mut end, &request(1).sealed(&mac(), k1).encode()),
            Ok(k1)
        );
        let frame = end
            .seal(None, request(0), |k, p| mac().compute(k, p))
            .unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap().header().seq_num,
            SeqNum::new(1)
        );
        // The old key's frames are gone with it.
        let stale = request(901).sealed(&mac(), k0).encode();
        assert_eq!(open(&mut end, &stale), Err(RejectReason::BadDigest));
    }

    #[test]
    fn seal_numbers_each_generation_from_one_and_stamps_its_version() {
        let (k0, k1) = (Key64::new(1), Key64::new(2));
        let mut end = keyed(k0);
        end.seal(None, request(0), |k, p| mac().compute(k, p))
            .unwrap();
        end.rekey(k1, true);
        let frame = end
            .seal(None, request(0), |k, p| mac().compute(k, p))
            .unwrap();
        let msg = Message::decode(&frame).unwrap();
        assert_eq!(msg.header().seq_num, SeqNum::new(1));
        assert_eq!(msg.header().key_version, KeyVersion::INITIAL.next());
        assert!(verify_frame(&mac(), k1, &frame));
        assert_eq!(
            end.last_sent(),
            (KeyVersion::INITIAL.next(), SeqNum::new(1))
        );
        // The previous generation's window still takes its frames in flight.
        let in_flight = request(7).sealed(&mac(), k0).encode();
        assert_eq!(open(&mut end, &in_flight), Ok(k0));
    }

    #[test]
    fn sealing_with_no_key_draws_no_number() {
        let mut end = ChannelEnd::new(None);
        let unsealed = end
            .seal(None, request(3), |k, p| mac().compute(k, p))
            .unwrap_err();
        assert_eq!(unsealed.header().seq_num, SeqNum::new(3), "left as built");
        end.rekey(Key64::new(1), false);
        let frame = end
            .seal(None, request(0), |k, p| mac().compute(k, p))
            .unwrap();
        assert_eq!(
            Message::decode(&frame).unwrap().header().seq_num,
            SeqNum::new(1)
        );
    }

    #[test]
    fn a_spent_counter_fails_closed() {
        let mut end = keyed(Key64::new(1));
        end.fast_forward(SeqNum::new(u32::MAX));
        assert!(end
            .seal(None, request(0), |k, p| mac().compute(k, p))
            .is_err());
        assert_eq!(end.last_sent().1, SeqNum::new(u32::MAX));
        end.rekey(Key64::new(2), true);
        assert!(end
            .seal(None, request(0), |k, p| mac().compute(k, p))
            .is_ok());
    }

    #[test]
    fn responses_are_matched_not_windowed() {
        let key = Key64::new(5);
        let mut end = keyed(key);
        let ack = Message::new(
            SwitchId::new(2),
            PortId::CPU,
            SeqNum::new(4),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(1),
                index: 0,
                value: 0,
            }),
        )
        .sealed(&mac(), key)
        .encode();
        assert_eq!(open(&mut end, &ack), Ok(key));
        assert_eq!(open(&mut end, &ack), Ok(key));
        assert_eq!(last_accepted(&end, SwitchId::new(2)), None);
    }

    #[test]
    fn eak_legs_use_the_seed_at_number_zero_outside_every_window() {
        let seed = Key64::new(7);
        let mut end = ChannelEnd::new(Some(seed));
        let frame = end.seal(None, salt1(), |k, p| mac().compute(k, p)).unwrap();
        assert!(verify_frame(&mac(), seed, &frame));
        let msg = Message::decode(&frame).unwrap();
        assert_eq!(msg.header().seq_num, SeqNum::default());
        // A restarted peer's Salt1 at any number opens, again and again.
        assert_eq!(open(&mut end, &frame), Ok(seed));
        assert_eq!(open(&mut end, &frame), Ok(seed));
        assert_eq!(end.last_sent(), (KeyVersion::INITIAL, SeqNum::default()));
    }

    #[test]
    fn k_auth_legs_have_their_own_space_and_keep_the_displaced_key() {
        let (seed, a1, a2) = (Key64::new(7), Key64::new(8), Key64::new(9));
        let mut initiator = ChannelEnd::new(Some(seed));
        assert!(initiator
            .seal(None, local_init_offer(), |k, p| mac().compute(k, p))
            .is_err());
        initiator.set_auth_key(a1);
        let offer = initiator
            .seal(None, local_init_offer(), |k, p| mac().compute(k, p))
            .unwrap();
        let msg = Message::decode(&offer).unwrap();
        assert_eq!(msg.header().seq_num, SeqNum::new(1));
        assert_eq!(msg.header().key_version, KeyVersion::INITIAL);
        // The responder derived a1, then a second Salt1 (a replay, or a
        // restarted controller) displaced it: a leg under a1 still opens,
        // once.
        let mut responder = ChannelEnd::new(Some(seed));
        responder.set_auth_key(a1);
        responder.set_auth_key(a2);
        let opened = responder
            .open(&msg, |k| verify_frame(&mac(), k, &offer))
            .unwrap();
        assert_eq!(opened.key, a1);
        assert_eq!(
            open(&mut responder, &offer),
            Err(RejectReason::Replayed {
                last_accepted: SeqNum::new(1)
            })
        );
        // The answer goes back under the generation that opened the offer.
        let answer = responder
            .seal(Some(opened), local_init_offer(), |k, p| mac().compute(k, p))
            .unwrap();
        assert!(verify_frame(&mac(), a1, &answer));
        let forged = local_init_offer().sealed(&mac(), Key64::new(3)).encode();
        assert_eq!(open(&mut responder, &forged), Err(RejectReason::BadDigest));
    }
}
