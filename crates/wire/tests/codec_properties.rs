//! Property-based tests for the wire codec: arbitrary messages roundtrip,
//! arbitrary bytes never panic the decoder, and sealing/tampering behave.

use p4auth_primitives::mac::{Crc32Mac, HalfSipHashMac, Mac};
use p4auth_primitives::Key64;
use p4auth_wire::body::{
    AdhkdRole, Alert, AlertKind, Body, EakStep, InNetwork, KexContext, KeyExchange, NackReason,
    RegisterOp,
};
use p4auth_wire::ids::{KeyVersion, PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::{verify_frame, Message};
use proptest::prelude::*;

fn arb_register_op() -> impl Strategy<Value = RegisterOp> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(r, i)| RegisterOp::read_req(RegId::new(r), i)),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(r, i, v)| RegisterOp::write_req(
            RegId::new(r),
            i,
            v
        )),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(r, i, v)| RegisterOp::Ack {
            reg: RegId::new(r),
            index: i,
            value: v
        }),
        (any::<u32>(), any::<u32>(), 0usize..5).prop_map(|(r, i, k)| RegisterOp::Nack {
            reg: RegId::new(r),
            index: i,
            reason: [
                NackReason::DigestMismatch,
                NackReason::UnknownRegister,
                NackReason::SeqMismatch,
                NackReason::IndexOutOfRange,
                NackReason::Quarantined,
            ][k],
        }),
    ]
}

fn arb_alert() -> impl Strategy<Value = Alert> {
    (0usize..4, any::<u32>(), any::<u32>()).prop_map(|(k, s, d)| Alert {
        kind: [
            AlertKind::DigestMismatch,
            AlertKind::SeqMismatch,
            AlertKind::RateLimited,
            AlertKind::KeyExchangeFailure,
        ][k],
        offending_seq: SeqNum::new(s),
        detail: d,
    })
}

fn arb_kex() -> impl Strategy<Value = KeyExchange> {
    let contexts = [
        KexContext::LocalInit,
        KexContext::LocalUpdate,
        KexContext::PortInitRedirect,
        KexContext::PortUpdateDirect,
    ];
    prop_oneof![
        (any::<bool>(), any::<u32>()).prop_map(|(s, salt)| KeyExchange::EakSalt {
            step: if s { EakStep::Salt1 } else { EakStep::Salt2 },
            salt,
        }),
        (any::<bool>(), 0usize..4, any::<u64>(), any::<u32>()).prop_map(
            move |(role, c, pk, salt)| KeyExchange::Adhkd {
                role: if role {
                    AdhkdRole::Offer
                } else {
                    AdhkdRole::Answer
                },
                context: contexts[c],
                public_key: pk,
                salt,
            }
        ),
        (any::<u16>(), any::<u8>()).prop_map(|(p, q)| KeyExchange::PortKeyInit {
            peer: SwitchId::new(p),
            peer_port: PortId::new(q),
        }),
        (any::<u16>(), any::<u8>()).prop_map(|(p, q)| KeyExchange::PortKeyUpdate {
            peer: SwitchId::new(p),
            peer_port: PortId::new(q),
        }),
    ]
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        arb_register_op().prop_map(Body::Register),
        arb_alert().prop_map(Body::Alert),
        arb_kex().prop_map(Body::KeyExchange),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(sys, p)| Body::InNetwork(InNetwork::new(sys, p))),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<u8>(),
        any::<u32>(),
        any::<u8>(),
        arb_body(),
    )
        .prop_map(|(sender, port, seq, kv, body)| {
            Message::new(
                SwitchId::new(sender),
                PortId::new(port),
                SeqNum::new(seq),
                body,
            )
            .with_key_version(KeyVersion::new(kv))
        })
}

/// The pre-frame-bytes sealing rule, spelled from the typed fields:
/// `digest = MAC(header-without-digest || payload)` over
/// [`Message::digest_input`], installed in the header, then encoded. Kept
/// as the oracle the frame-bytes implementation is held to.
fn structural_seal(msg: &Message, mac: &dyn Mac, key: Key64) -> Vec<u8> {
    let mut sealed = msg.clone();
    sealed.header_mut().digest = mac.compute(key, &[&sealed.digest_input()]);
    sealed.encode()
}

/// The pre-frame-bytes receive rule: decode, then check the digest over
/// the *re-derived* input — blind to any byte decoding normalises away.
fn structural_verify(frame: &[u8], mac: &dyn Mac, key: Key64) -> bool {
    Message::decode(frame).is_ok_and(|m| mac.verify(key, &[&m.digest_input()], m.digest()))
}

/// What a receiver does now: decode, then check the bytes that arrived.
fn received_ok(frame: &[u8], mac: &dyn Mac, key: Key64) -> bool {
    Message::decode(frame).is_ok() && verify_frame(mac, key, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every well-formed message roundtrips byte-exactly.
    #[test]
    fn roundtrip(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.wire_len());
        let decoded = Message::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Sealed messages verify under the sealing key and MAC, with both
    /// MAC profiles, and survive an encode/decode cycle.
    #[test]
    fn seal_survives_wire(msg in arb_message(), key: u64) {
        let k = Key64::new(key);
        for mac in [&HalfSipHashMac::default() as &dyn Mac, &Crc32Mac] {
            let sealed = msg.clone().sealed(mac, k);
            let decoded = Message::decode(&sealed.encode()).unwrap();
            prop_assert!(decoded.verify(mac, k));
        }
    }

    /// Any single flipped bit anywhere in a sealed frame — reserved
    /// padding and the value field a `ReadReq` carries but ignores
    /// included — makes decoding fail or makes the receiver's check over
    /// the arrived bytes fail. (Before digests covered the received bytes
    /// this held only up to "or decodes to the same message".)
    #[test]
    fn any_bitflip_detected(msg in arb_message(), key: u64, bit in 0usize..4096) {
        let k = Key64::new(key);
        let mac = HalfSipHashMac::default();
        let mut bytes = msg.encode_sealed(&mac, k);
        prop_assert!(received_ok(&bytes, &mac, k));
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(!received_ok(&bytes, &mac, k));
    }

    /// Strictness oracle (a): sealing over the encoded bytes produces
    /// exactly the frames the field-by-field rule did.
    #[test]
    fn seal_is_byte_identical_to_the_structural_rule(msg in arb_message(), key: u64) {
        let k = Key64::new(key);
        for mac in [&HalfSipHashMac::default() as &dyn Mac, &Crc32Mac] {
            let expected = structural_seal(&msg, mac, k);
            prop_assert_eq!(&msg.encode_sealed(mac, k), &expected);
            prop_assert_eq!(&msg.clone().sealed(mac, k).encode(), &expected);
        }
    }

    /// Strictness oracle (b): on canonical encodings — whatever the key,
    /// whatever digest the frame carries — checking the received bytes and
    /// checking the decoded fields agree.
    #[test]
    fn bytes_verify_equals_structural_verify_on_canonical_frames(
        msg in arb_message(),
        sealed_under: u64,
        checked_under: u64,
        same_key: bool,
        overwrite_digest: bool,
        digest: u32,
    ) {
        let mac = HalfSipHashMac::default();
        let checked_under = if same_key { sealed_under } else { checked_under };
        let mut sealed = msg.sealed(&mac, Key64::new(sealed_under));
        if overwrite_digest {
            sealed.header_mut().digest = p4auth_primitives::Digest32::new(digest);
        }
        let frame = sealed.encode();
        let k = Key64::new(checked_under);
        prop_assert_eq!(received_ok(&frame, &mac, k), structural_verify(&frame, &mac, k));
        prop_assert_eq!(sealed.verify(&mac, k), structural_verify(&frame, &mac, k));
    }

    /// Strictness oracle (c): under bit flips, truncation and appended
    /// bytes the new check never accepts what the old one rejected.
    #[test]
    fn bytes_verify_implies_structural_verify_under_mutation(
        msg in arb_message(),
        key: u64,
        flips in proptest::collection::vec(0usize..4096, 0..4),
        truncate: bool,
        keep in 0usize..80,
        appended in proptest::collection::vec(any::<u8>(), 0..6),
    ) {
        let k = Key64::new(key);
        let mac = HalfSipHashMac::default();
        let mut frame = msg.encode_sealed(&mac, k);
        for bit in flips {
            let bit = bit % (frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
        if truncate {
            frame.truncate(keep);
        }
        frame.extend_from_slice(&appended);
        if received_ok(&frame, &mac, k) {
            prop_assert!(structural_verify(&frame, &mac, k));
        }
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::decode(&bytes);
    }

    /// Messages sealed under one key never verify under a different key.
    #[test]
    fn cross_key_rejection(msg in arb_message(), k1: u64, k2: u64) {
        prop_assume!(k1 != k2);
        let mac = HalfSipHashMac::default();
        let sealed = msg.sealed(&mac, Key64::new(k1));
        prop_assert!(!sealed.verify(&mac, Key64::new(k2)));
    }

    /// digest_input is exactly the encoded bytes minus the digest field.
    #[test]
    fn digest_input_matches_encoding(msg in arb_message()) {
        let bytes = msg.encode();
        let input = msg.digest_input();
        // Header layout: bytes 0..10 then 4-byte digest then payload.
        prop_assert_eq!(&input[..10], &bytes[..10]);
        prop_assert_eq!(&input[10..], &bytes[14..]);
    }
}
