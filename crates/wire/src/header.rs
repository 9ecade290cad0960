//! The fixed P4Auth header (`p4Auth_h` in Fig. 7).

use crate::error::DecodeError;
use crate::ids::{KeyVersion, PortId, SeqNum, SwitchId};
use bytes::{Buf, BufMut};
use p4auth_primitives::Digest32;
use serde::{Deserialize, Serialize};

/// Discriminates the three message families (`hdrType` field).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum HdrType {
    /// Register read/write request-response traffic (C-DP).
    RegisterOp = 1,
    /// Alert raised on failed verification or rate limiting.
    Alert = 2,
    /// Key-management protocol traffic (EAK / ADHKD / KMP control).
    KeyExchange = 3,
    /// In-network DP-DP control message (e.g. a HULA probe) wrapped with a
    /// P4Auth digest.
    InNetwork = 4,
}

impl HdrType {
    /// Parses the wire byte.
    pub fn from_wire(raw: u8) -> Result<Self, DecodeError> {
        match raw {
            1 => Ok(HdrType::RegisterOp),
            2 => Ok(HdrType::Alert),
            3 => Ok(HdrType::KeyExchange),
            4 => Ok(HdrType::InNetwork),
            other => Err(DecodeError::UnknownHdrType(other)),
        }
    }
}

/// The P4Auth header. All fields except `digest` are covered by the digest
/// computation (Eqn. 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Header {
    /// Message family.
    pub hdr_type: HdrType,
    /// Family-specific message type (the body supplies this on encode).
    pub msg_type: u8,
    /// Request/response matching and replay defence.
    pub seq_num: SeqNum,
    /// Which key version authenticated this message (§VI-C consistent
    /// updates).
    pub key_version: KeyVersion,
    /// Originating endpoint (controller is [`SwitchId::CONTROLLER`]).
    pub sender: SwitchId,
    /// Ingress/egress port the message's key is bound to; [`PortId::CPU`]
    /// for C-DP traffic authenticated with `K_local`.
    pub port: PortId,
    /// `HMAC_K(header-without-digest || payload)`.
    pub digest: Digest32,
}

/// Size of the encoded header in bytes.
pub const HEADER_LEN: usize = 14;

/// Where the 4-byte digest sits in the encoded header: last, so the
/// digest covers `frame[..DIGEST_OFFSET]` and `frame[HEADER_LEN..]`.
pub const DIGEST_OFFSET: usize = HEADER_LEN - 4;

impl Header {
    /// Builds a header with a zeroed digest (filled in by the auth engine).
    pub fn new(
        hdr_type: HdrType,
        msg_type: u8,
        seq_num: SeqNum,
        sender: SwitchId,
        port: PortId,
    ) -> Self {
        Header {
            hdr_type,
            msg_type,
            seq_num,
            key_version: KeyVersion::INITIAL,
            sender,
            port,
            digest: Digest32::default(),
        }
    }

    /// The header as it goes on the wire.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0] = self.hdr_type as u8;
        out[1] = self.msg_type;
        out[2..6].copy_from_slice(&self.seq_num.value().to_be_bytes());
        out[6] = self.key_version.value();
        out[7..9].copy_from_slice(&self.sender.value().to_be_bytes());
        out[9] = self.port.value();
        out[DIGEST_OFFSET..].copy_from_slice(&self.digest.value().to_be_bytes());
        out
    }

    /// Encodes the header into `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_slice(&self.to_bytes());
    }

    /// The bytes covered by the digest: every header field *except* the
    /// digest itself, in wire order.
    pub fn digest_input(&self) -> [u8; DIGEST_OFFSET] {
        let mut out = [0u8; DIGEST_OFFSET];
        out.copy_from_slice(&self.to_bytes()[..DIGEST_OFFSET]);
        out
    }

    /// Decodes a header from `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if fewer than [`HEADER_LEN`] bytes
    /// remain, or [`DecodeError::UnknownHdrType`] for an unrecognized
    /// `hdrType` byte.
    pub fn decode_from(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        if buf.remaining() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN,
                available: buf.remaining(),
            });
        }
        let mut raw = [0u8; HEADER_LEN];
        buf.copy_to_slice(&mut raw);
        let word = |at: usize| u32::from_be_bytes([raw[at], raw[at + 1], raw[at + 2], raw[at + 3]]);
        Ok(Header {
            hdr_type: HdrType::from_wire(raw[0])?,
            msg_type: raw[1],
            seq_num: SeqNum::new(word(2)),
            key_version: KeyVersion::new(raw[6]),
            sender: SwitchId::new(u16::from_be_bytes([raw[7], raw[8]])),
            port: PortId::new(raw[9]),
            digest: Digest32::new(word(DIGEST_OFFSET)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Header {
        Header {
            hdr_type: HdrType::RegisterOp,
            msg_type: 2,
            seq_num: SeqNum::new(0xdead_beef),
            key_version: KeyVersion::new(3),
            sender: SwitchId::new(7),
            port: PortId::new(5),
            digest: Digest32::new(0x0102_0304),
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let decoded = Header::decode_from(&mut buf.as_slice()).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn digest_input_excludes_digest() {
        let mut a = sample();
        let mut b = sample();
        a.digest = Digest32::new(1);
        b.digest = Digest32::new(2);
        assert_eq!(a.digest_input(), b.digest_input());
    }

    #[test]
    fn digest_input_covers_every_other_field() {
        let base = sample();
        let variants = [
            Header {
                hdr_type: HdrType::Alert,
                ..base
            },
            Header {
                msg_type: 99,
                ..base
            },
            Header {
                seq_num: SeqNum::new(1),
                ..base
            },
            Header {
                key_version: KeyVersion::new(9),
                ..base
            },
            Header {
                sender: SwitchId::new(1),
                ..base
            },
            Header {
                port: PortId::new(1),
                ..base
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(
                v.digest_input(),
                base.digest_input(),
                "field {i} not covered"
            );
        }
    }

    #[test]
    fn truncated_rejected() {
        let h = sample();
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        let err = Header::decode_from(&mut &buf[..HEADER_LEN - 1]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn unknown_hdr_type_rejected() {
        let mut buf = vec![0u8; HEADER_LEN];
        buf[0] = 200;
        let err = Header::decode_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err, DecodeError::UnknownHdrType(200));
    }

    #[test]
    fn all_hdr_types_roundtrip() {
        for t in [
            HdrType::RegisterOp,
            HdrType::Alert,
            HdrType::KeyExchange,
            HdrType::InNetwork,
        ] {
            assert_eq!(HdrType::from_wire(t as u8).unwrap(), t);
        }
    }
}
