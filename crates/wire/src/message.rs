//! Complete P4Auth messages: header + body, with digest plumbing.

use crate::body::{Alert, Body, InNetwork, KeyExchange, RegisterOp};
use crate::error::DecodeError;
use crate::header::{Header, DIGEST_OFFSET, HEADER_LEN};
use crate::ids::{KeyVersion, PortId, SeqNum, SwitchId};
use bytes::BufMut;
use p4auth_primitives::mac::Mac;
use p4auth_primitives::{Digest32, Key64};
use serde::{Deserialize, Serialize};

/// The two runs of an encoded frame its digest covers (Eqn. 4): the
/// header up to the digest field, and everything after the header. They
/// borrow from the frame, so what is authenticated is what is on the wire,
/// reserved bytes and ignored fields included. (Total: a frame shorter
/// than a header never decodes, so no receiver gets here with one.)
pub fn digest_parts(frame: &[u8]) -> [&[u8]; 2] {
    let (head, rest) = frame.split_at(frame.len().min(DIGEST_OFFSET));
    [head, rest.get(HEADER_LEN - DIGEST_OFFSET..).unwrap_or(&[])]
}

/// Checks the digest a received frame carries against the bytes that
/// arrived, under `key` (constant-time compare).
pub fn verify_frame(mac: &dyn Mac, key: Key64, frame: &[u8]) -> bool {
    let Some(carried) = frame.get(DIGEST_OFFSET..HEADER_LEN) else {
        return false;
    };
    let carried = u32::from_be_bytes(carried.try_into().expect("4-byte range"));
    mac.verify(key, &digest_parts(frame), Digest32::new(carried))
}

/// A complete P4Auth protocol message.
///
/// The digest field starts zeroed; [`Message::seal`] /
/// [`Message::encode_sealed`] compute and install it under a key, and
/// [`verify_frame`] checks it on the receiving side (Eqn. 4: the digest
/// covers every header field except the digest itself, plus the payload).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Message {
    header: Header,
    body: Body,
}

impl Message {
    /// Builds a message; the header's `msgType`/`hdrType` are derived from
    /// the body and the digest is zeroed.
    pub fn new(sender: SwitchId, port: PortId, seq_num: SeqNum, body: Body) -> Self {
        let header = Header::new(body.hdr_type(), body.msg_type(), seq_num, sender, port);
        Message { header, body }
    }

    /// Convenience: a C-DP register request on the CPU port.
    pub fn register_request(sender: SwitchId, seq_num: SeqNum, op: RegisterOp) -> Self {
        Message::new(sender, PortId::CPU, seq_num, Body::Register(op))
    }

    /// Convenience: an alert from `sender` toward the controller.
    pub fn alert(sender: SwitchId, seq_num: SeqNum, alert: Alert) -> Self {
        Message::new(sender, PortId::CPU, seq_num, Body::Alert(alert))
    }

    /// Convenience: a key-exchange message.
    pub fn key_exchange(sender: SwitchId, port: PortId, seq_num: SeqNum, kex: KeyExchange) -> Self {
        Message::new(sender, port, seq_num, Body::KeyExchange(kex))
    }

    /// Convenience: an in-network DP-DP control message on `port`.
    pub fn in_network(sender: SwitchId, port: PortId, seq_num: SeqNum, inner: InNetwork) -> Self {
        Message::new(sender, port, seq_num, Body::InNetwork(inner))
    }

    /// The message header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The typed body.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Mutable body access — exists so adversary models can tamper with
    /// in-flight messages exactly like a MitM would.
    pub fn body_mut(&mut self) -> &mut Body {
        &mut self.body
    }

    /// Mutable header access (adversary models; key-version tagging).
    pub fn header_mut(&mut self) -> &mut Header {
        &mut self.header
    }

    /// Sets the key-version tag (§VI-C consistent updates).
    #[must_use]
    pub fn with_key_version(mut self, version: KeyVersion) -> Self {
        self.header.key_version = version;
        self
    }

    /// The byte string the digest covers, built from the typed fields:
    /// `header-without-digest || payload`. Sealing and verifying work on
    /// encoded frames ([`digest_parts`]); this is the independent statement
    /// of Eqn. 4 the codec proptests hold them to.
    pub fn digest_input(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(DIGEST_OFFSET + self.body.wire_len());
        out.extend_from_slice(&self.header.digest_input());
        self.body.encode_into(&mut out);
        out
    }

    /// Encodes the message once and installs the digest `digest_of`
    /// computes over the covered bytes of that buffer (a pipeline context
    /// meters the hash pass there).
    pub fn encode_sealed_with(&self, digest_of: impl FnOnce(&[&[u8]]) -> Digest32) -> Vec<u8> {
        let mut frame = self.encode();
        let digest = digest_of(&digest_parts(&frame));
        frame[DIGEST_OFFSET..HEADER_LEN].copy_from_slice(&digest.value().to_be_bytes());
        frame
    }

    /// The frame to transmit: encoded and sealed under `key`.
    pub fn encode_sealed(&self, mac: &dyn Mac, key: Key64) -> Vec<u8> {
        self.encode_sealed_with(|parts| mac.compute(key, parts))
    }

    /// Computes the digest under `key` and installs it in the header.
    pub fn seal(&mut self, mac: &dyn Mac, key: Key64) {
        self.header.digest = mac.compute(key, &digest_parts(&self.encode()));
    }

    /// Sealed copy of this message.
    #[must_use]
    pub fn sealed(mut self, mac: &dyn Mac, key: Key64) -> Self {
        self.seal(mac, key);
        self
    }

    /// Verifies the installed digest over this message's own (canonical)
    /// encoding. A receiver must check the bytes that arrived instead
    /// ([`verify_frame`]): decoding discards reserved and ignored bytes.
    pub fn verify(&self, mac: &dyn Mac, key: Key64) -> bool {
        verify_frame(mac, key, &self.encode())
    }

    /// The digest currently installed in the header.
    pub fn digest(&self) -> Digest32 {
        self.header.digest
    }

    /// Total encoded size in bytes.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.body.wire_len()
    }

    /// Encodes the full message.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.header.encode_into(&mut buf);
        self.body.encode_into(&mut buf);
        buf
    }

    /// Encodes into an existing buffer.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        self.header.encode_into(buf);
        self.body.encode_into(buf);
    }

    /// Decodes a full message; the entire buffer must be consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation, unknown types, invalid
    /// fields, or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut buf = bytes;
        let header = Header::decode_from(&mut buf)?;
        let body = Body::decode_from(header.hdr_type, header.msg_type, &mut buf)?;
        if !buf.is_empty() {
            return Err(DecodeError::TrailingBytes(buf.len()));
        }
        Ok(Message { header, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{AlertKind, EakStep};
    use crate::ids::RegId;
    use p4auth_primitives::mac::HalfSipHashMac;

    fn mac() -> HalfSipHashMac {
        HalfSipHashMac::default()
    }

    fn key() -> Key64 {
        Key64::new(0x1234_5678_9abc_def0)
    }

    /// `verify_frame`'s one `expect` cannot fire: a frame too short to
    /// carry a digest is `false`, at every length, before it is reached.
    #[test]
    fn verify_frame_rejects_every_truncation() {
        let frame = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::read_req(RegId::new(1), 0),
        )
        .encode_sealed(&mac(), key());
        assert!(verify_frame(&mac(), key(), &frame));
        for len in 0..frame.len() {
            assert!(!verify_frame(&mac(), key(), &frame[..len]), "{len} bytes");
        }
    }

    #[test]
    fn seal_then_verify() {
        let mut m = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::read_req(RegId::new(1234), 0),
        );
        m.seal(&mac(), key());
        assert!(m.verify(&mac(), key()));
        assert!(!m.verify(&mac(), Key64::new(0)));
    }

    #[test]
    fn tampered_payload_fails_verification() {
        let m = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::write_req(RegId::new(1), 0, 10),
        )
        .sealed(&mac(), key());
        let mut tampered = m.clone();
        *tampered.body_mut() = Body::Register(RegisterOp::write_req(RegId::new(1), 0, 999));
        assert!(!tampered.verify(&mac(), key()));
    }

    #[test]
    fn tampered_header_fails_verification() {
        let m = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(5),
            RegisterOp::read_req(RegId::new(1), 0),
        )
        .sealed(&mac(), key());
        let mut replayed = m.clone();
        replayed.header_mut().seq_num = SeqNum::new(6);
        assert!(!replayed.verify(&mac(), key()));
    }

    #[test]
    fn encode_decode_roundtrip_preserves_digest() {
        let m = Message::key_exchange(
            SwitchId::new(2),
            PortId::new(3),
            SeqNum::new(9),
            KeyExchange::EakSalt {
                step: EakStep::Salt2,
                salt: 0xfeed,
            },
        )
        .with_key_version(KeyVersion::new(1))
        .sealed(&mac(), key());
        let decoded = Message::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert!(decoded.verify(&mac(), key()));
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let m = Message::alert(
            SwitchId::new(1),
            SeqNum::new(2),
            Alert {
                kind: AlertKind::DigestMismatch,
                offending_seq: SeqNum::new(1),
                detail: 0,
            },
        );
        let mut bytes = m.encode();
        bytes.push(0);
        assert_eq!(Message::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn on_wire_tampering_detected_after_decode() {
        // Flip one payload byte on the wire; decoding succeeds (bytes are
        // well-formed) but verification must fail.
        let m = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(3),
            RegisterOp::write_req(RegId::new(7), 1, 42),
        )
        .sealed(&mac(), key());
        let mut bytes = m.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let decoded = Message::decode(&bytes).unwrap();
        assert!(!decoded.verify(&mac(), key()));
    }

    #[test]
    fn table_iii_total_message_sizes() {
        // EAK 22 B, ADHKD 30 B, KMP control 18 B (Table III calibration).
        let eak = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(0),
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: 0,
            },
        );
        assert_eq!(eak.wire_len(), 22);
        assert_eq!(eak.encode().len(), 22);

        let adhkd = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(0),
            KeyExchange::Adhkd {
                role: crate::body::AdhkdRole::Offer,
                context: crate::body::KexContext::LocalInit,
                public_key: 0,
                salt: 0,
            },
        );
        assert_eq!(adhkd.wire_len(), 30);

        let ctl = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(0),
            KeyExchange::PortKeyInit {
                peer: SwitchId::new(1),
                peer_port: PortId::new(1),
            },
        );
        assert_eq!(ctl.wire_len(), 18);
    }

    #[test]
    fn key_version_affects_digest() {
        let m0 = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::read_req(RegId::new(1), 0),
        );
        let m1 = m0.clone().with_key_version(KeyVersion::new(1));
        assert_ne!(
            m0.sealed(&mac(), key()).digest(),
            m1.sealed(&mac(), key()).digest()
        );
    }
}
