//! Typed message bodies for each header family.

use crate::error::DecodeError;
use crate::header::HdrType;
use crate::ids::{PortId, RegId, SeqNum, SwitchId};
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

/// Why a request that *verified* was refused with a `nAck`. A request
/// that fails verification gets no reply at all, only the agent's
/// rate-limited alert, so no code reports a digest, replay or quarantine
/// verdict; codes other than 2 and 4 fail to decode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum NackReason {
    /// No `reg_id_to_name_mapping` entry for the register id (§VII).
    UnknownRegister = 2,
    /// The register index was out of bounds.
    IndexOutOfRange = 4,
}

impl NackReason {
    fn from_wire(raw: u8) -> Result<Self, DecodeError> {
        match raw {
            2 => Ok(NackReason::UnknownRegister),
            4 => Ok(NackReason::IndexOutOfRange),
            _ => Err(DecodeError::InvalidField("nack reason")),
        }
    }
}

/// Register read/write request-response messages (`readReq`, `writeReq`,
/// `ack`, `nAck` — Fig. 7/8). Fixed 16-byte payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RegisterOp {
    /// Controller asks the data plane to read `reg[index]`.
    ReadReq {
        /// Target register id (from the p4Info file).
        reg: RegId,
        /// Register index to read.
        index: u32,
    },
    /// Controller asks the data plane to write `value` to `reg[index]`.
    WriteReq {
        /// Target register id.
        reg: RegId,
        /// Register index to write.
        index: u32,
        /// Value to store.
        value: u64,
    },
    /// Positive response: for reads, `value` carries the register content.
    Ack {
        /// Register the response refers to.
        reg: RegId,
        /// Index the response refers to.
        index: u32,
        /// Read value (0 for write acks).
        value: u64,
    },
    /// Negative response.
    Nack {
        /// Register the response refers to.
        reg: RegId,
        /// Index the response refers to.
        index: u32,
        /// Rejection reason.
        reason: NackReason,
    },
}

impl RegisterOp {
    /// Payload length on the wire.
    pub const WIRE_LEN: usize = 16;

    /// Convenience constructor for a read request.
    pub fn read_req(reg: RegId, index: u32) -> Self {
        RegisterOp::ReadReq { reg, index }
    }

    /// Convenience constructor for a write request.
    pub fn write_req(reg: RegId, index: u32, value: u64) -> Self {
        RegisterOp::WriteReq { reg, index, value }
    }

    /// `msgType` byte for the header.
    pub fn msg_type(&self) -> u8 {
        match self {
            RegisterOp::ReadReq { .. } => 1,
            RegisterOp::WriteReq { .. } => 2,
            RegisterOp::Ack { .. } => 3,
            RegisterOp::Nack { .. } => 4,
        }
    }

    fn encode_into(&self, buf: &mut impl BufMut) {
        let (reg, index, value) = match *self {
            RegisterOp::ReadReq { reg, index } => (reg, index, 0),
            RegisterOp::WriteReq { reg, index, value } | RegisterOp::Ack { reg, index, value } => {
                (reg, index, value)
            }
            RegisterOp::Nack { reg, index, reason } => (reg, index, reason as u64),
        };
        let mut out = [0u8; Self::WIRE_LEN];
        out[..4].copy_from_slice(&reg.value().to_be_bytes());
        out[4..8].copy_from_slice(&index.to_be_bytes());
        out[8..].copy_from_slice(&value.to_be_bytes());
        buf.put_slice(&out);
    }

    fn decode_from(msg_type: u8, buf: &mut impl Buf) -> Result<Self, DecodeError> {
        if buf.remaining() < Self::WIRE_LEN {
            return Err(DecodeError::Truncated {
                needed: Self::WIRE_LEN,
                available: buf.remaining(),
            });
        }
        let reg = RegId::new(buf.get_u32());
        let index = buf.get_u32();
        let value = buf.get_u64();
        match msg_type {
            1 => Ok(RegisterOp::ReadReq { reg, index }),
            2 => Ok(RegisterOp::WriteReq { reg, index, value }),
            3 => Ok(RegisterOp::Ack { reg, index, value }),
            4 => Ok(RegisterOp::Nack {
                reg,
                index,
                reason: NackReason::from_wire(value as u8)?,
            }),
            other => Err(DecodeError::UnknownMsgType {
                hdr_type: HdrType::RegisterOp as u8,
                msg_type: other,
            }),
        }
    }
}

/// What triggered an alert.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum AlertKind {
    /// Digest verification failed — possible MitM tampering.
    DigestMismatch = 1,
    /// Replay suspected: sequence number outside the expected window.
    SeqMismatch = 2,
    /// The data plane suppressed further alerts this period (DoS defence,
    /// §VIII).
    RateLimited = 3,
    /// A key-exchange message failed authentication.
    KeyExchangeFailure = 4,
}

impl AlertKind {
    fn from_wire(raw: u8) -> Result<Self, DecodeError> {
        match raw {
            1 => Ok(AlertKind::DigestMismatch),
            2 => Ok(AlertKind::SeqMismatch),
            3 => Ok(AlertKind::RateLimited),
            4 => Ok(AlertKind::KeyExchangeFailure),
            _ => Err(DecodeError::InvalidField("alert kind")),
        }
    }
}

/// An alert message raised toward the controller (PacketIn in the
/// prototype). 8-byte payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Alert {
    /// What went wrong.
    pub kind: AlertKind,
    /// Sequence number of the offending message.
    pub offending_seq: SeqNum,
    /// Kind-specific detail (e.g. the port a tampered probe arrived on).
    pub detail: u32,
}

impl Alert {
    /// Payload length on the wire.
    pub const WIRE_LEN: usize = 8;

    /// `msgType` byte for the header.
    pub fn msg_type(&self) -> u8 {
        self.kind as u8
    }

    fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.offending_seq.value());
        buf.put_u32(self.detail);
    }

    fn decode_from(msg_type: u8, buf: &mut impl Buf) -> Result<Self, DecodeError> {
        if buf.remaining() < Self::WIRE_LEN {
            return Err(DecodeError::Truncated {
                needed: Self::WIRE_LEN,
                available: buf.remaining(),
            });
        }
        let kind = AlertKind::from_wire(msg_type).map_err(|_| DecodeError::UnknownMsgType {
            hdr_type: HdrType::Alert as u8,
            msg_type,
        })?;
        Ok(Alert {
            kind,
            offending_seq: SeqNum::new(buf.get_u32()),
            detail: buf.get_u32(),
        })
    }
}

/// Which EAK step a salt message carries (Fig. 11).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum EakStep {
    /// Controller → DP: random salt `S1`.
    Salt1,
    /// DP → controller: random salt `S2`.
    Salt2,
}

/// Whether an ADHKD message opens or answers the exchange (Fig. 12).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AdhkdRole {
    /// Step 2: carries `PK1`, `S1`.
    Offer,
    /// Step 4: carries `PK2`, `S2`.
    Answer,
}

/// Which key an ADHKD exchange is establishing, and over which path
/// (Fig. 14 a–d).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[repr(u8)]
pub enum KexContext {
    /// Local-key initialization after boot (authenticated with `K_auth`).
    LocalInit = 1,
    /// Local-key rollover (authenticated with current `K_local`).
    LocalUpdate = 2,
    /// Port-key initialization, redirected DP1→C→DP2 (`initKeyExch`,
    /// authenticated per-leg with each `K_local`).
    PortInitRedirect = 3,
    /// Port-key rollover, direct DP-DP (authenticated with current
    /// `K_port`).
    PortUpdateDirect = 4,
}

impl KexContext {
    /// Whether the exchange rolls an installed key over (an update) rather
    /// than installing the first one.
    pub const fn rolls(self) -> bool {
        matches!(self, KexContext::LocalUpdate | KexContext::PortUpdateDirect)
    }

    fn from_wire(raw: u8) -> Result<Self, DecodeError> {
        match raw {
            1 => Ok(KexContext::LocalInit),
            2 => Ok(KexContext::LocalUpdate),
            3 => Ok(KexContext::PortInitRedirect),
            4 => Ok(KexContext::PortUpdateDirect),
            _ => Err(DecodeError::InvalidField("kex context")),
        }
    }
}

/// Key-management protocol messages (the five message types of Fig. 14).
///
/// Wire sizes are chosen to reproduce Table III exactly: EAK = 22 B total,
/// ADHKD = 30 B, KMP control = 18 B.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum KeyExchange {
    /// EAK salt exchange (`eakExch`): 8-byte payload.
    EakSalt {
        /// Which step of Fig. 11.
        step: EakStep,
        /// The 32-bit half-salt.
        salt: u32,
    },
    /// An ADHKD half-exchange (`initKeyExch` / `updKeyExch`): 16-byte
    /// payload.
    Adhkd {
        /// Offer or answer.
        role: AdhkdRole,
        /// Which key is being established and over which path.
        context: KexContext,
        /// The modified-DH public key (`PK1` or `PK2`).
        public_key: u64,
        /// The 32-bit half-salt (`S1` or `S2`).
        salt: u32,
    },
    /// `portKeyInit`: controller tells a DP to start a port-key exchange
    /// with `peer` via the controller. 4-byte payload.
    PortKeyInit {
        /// The neighbour switch to establish a key with.
        peer: SwitchId,
        /// The local port facing that neighbour.
        peer_port: PortId,
    },
    /// `portKeyUpdate`: controller tells a DP to roll the key it shares
    /// with `peer`, directly DP-DP. 4-byte payload.
    PortKeyUpdate {
        /// The neighbour switch whose shared key rolls over.
        peer: SwitchId,
        /// The local port facing that neighbour.
        peer_port: PortId,
    },
}

impl KeyExchange {
    /// `msgType` byte for the header.
    pub fn msg_type(&self) -> u8 {
        match self {
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                ..
            } => 1,
            KeyExchange::EakSalt {
                step: EakStep::Salt2,
                ..
            } => 2,
            KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                ..
            } => 3,
            KeyExchange::Adhkd {
                role: AdhkdRole::Answer,
                ..
            } => 4,
            KeyExchange::PortKeyInit { .. } => 5,
            KeyExchange::PortKeyUpdate { .. } => 6,
        }
    }

    /// Payload length on the wire for this variant.
    pub const fn wire_len(&self) -> usize {
        match self {
            KeyExchange::EakSalt { .. } => 8,
            KeyExchange::Adhkd { .. } => 16,
            KeyExchange::PortKeyInit { .. } | KeyExchange::PortKeyUpdate { .. } => 4,
        }
    }

    fn encode_into(&self, buf: &mut impl BufMut) {
        match *self {
            KeyExchange::EakSalt { salt, .. } => {
                buf.put_u32(salt);
                buf.put_u32(0); // reserved
            }
            KeyExchange::Adhkd {
                context,
                public_key,
                salt,
                ..
            } => {
                buf.put_u64(public_key);
                buf.put_u32(salt);
                buf.put_u8(context as u8);
                buf.put_u8(0);
                buf.put_u16(0); // reserved
            }
            KeyExchange::PortKeyInit { peer, peer_port }
            | KeyExchange::PortKeyUpdate { peer, peer_port } => {
                buf.put_u16(peer.value());
                buf.put_u8(peer_port.value());
                buf.put_u8(0); // reserved
            }
        }
    }

    fn decode_from(msg_type: u8, buf: &mut impl Buf) -> Result<Self, DecodeError> {
        let need = match msg_type {
            1 | 2 => 8,
            3 | 4 => 16,
            5 | 6 => 4,
            other => {
                return Err(DecodeError::UnknownMsgType {
                    hdr_type: HdrType::KeyExchange as u8,
                    msg_type: other,
                })
            }
        };
        if buf.remaining() < need {
            return Err(DecodeError::Truncated {
                needed: need,
                available: buf.remaining(),
            });
        }
        match msg_type {
            1 | 2 => {
                let salt = buf.get_u32();
                let _reserved = buf.get_u32();
                let step = if msg_type == 1 {
                    EakStep::Salt1
                } else {
                    EakStep::Salt2
                };
                Ok(KeyExchange::EakSalt { step, salt })
            }
            3 | 4 => {
                let public_key = buf.get_u64();
                let salt = buf.get_u32();
                let context = KexContext::from_wire(buf.get_u8())?;
                let _pad = buf.get_u8();
                let _reserved = buf.get_u16();
                let role = if msg_type == 3 {
                    AdhkdRole::Offer
                } else {
                    AdhkdRole::Answer
                };
                Ok(KeyExchange::Adhkd {
                    role,
                    context,
                    public_key,
                    salt,
                })
            }
            _ => {
                let peer = SwitchId::new(buf.get_u16());
                let peer_port = PortId::new(buf.get_u8());
                let _reserved = buf.get_u8();
                if msg_type == 5 {
                    Ok(KeyExchange::PortKeyInit { peer, peer_port })
                } else {
                    Ok(KeyExchange::PortKeyUpdate { peer, peer_port })
                }
            }
        }
    }
}

/// An in-network DP-DP control message (e.g. a HULA probe) wrapped in a
/// P4Auth header so its content is digest-protected hop by hop (§V,
/// "Authentication of DP-DP control messages").
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct InNetwork {
    /// Identifies the in-network system the payload belongs to (e.g. HULA).
    pub system: u8,
    /// The system-specific probe/feedback payload.
    pub payload: Vec<u8>,
}

impl InNetwork {
    /// Maximum payload bytes (length is a 16-bit field).
    pub const MAX_PAYLOAD: usize = u16::MAX as usize;

    /// Creates an in-network message.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`Self::MAX_PAYLOAD`] bytes.
    pub fn new(system: u8, payload: Vec<u8>) -> Self {
        assert!(
            payload.len() <= Self::MAX_PAYLOAD,
            "in-network payload too large"
        );
        InNetwork { system, payload }
    }

    /// `msgType` byte for the header (the system id).
    pub fn msg_type(&self) -> u8 {
        self.system
    }

    /// Payload length on the wire (2-byte length prefix + payload).
    pub fn wire_len(&self) -> usize {
        2 + self.payload.len()
    }

    fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u16(self.payload.len() as u16);
        buf.put_slice(&self.payload);
    }

    fn decode_from(msg_type: u8, buf: &mut impl Buf) -> Result<Self, DecodeError> {
        if buf.remaining() < 2 {
            return Err(DecodeError::Truncated {
                needed: 2,
                available: buf.remaining(),
            });
        }
        let len = buf.get_u16() as usize;
        if buf.remaining() < len {
            return Err(DecodeError::Truncated {
                needed: len,
                available: buf.remaining(),
            });
        }
        let mut payload = vec![0u8; len];
        buf.copy_to_slice(&mut payload);
        Ok(InNetwork {
            system: msg_type,
            payload,
        })
    }
}

/// A typed message body; the variant implies the header's `hdrType`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Body {
    /// Register read/write traffic.
    Register(RegisterOp),
    /// Alert toward the controller.
    Alert(Alert),
    /// Key-management traffic.
    KeyExchange(KeyExchange),
    /// In-network DP-DP control message.
    InNetwork(InNetwork),
}

impl Body {
    /// The header family this body belongs to.
    pub fn hdr_type(&self) -> HdrType {
        match self {
            Body::Register(_) => HdrType::RegisterOp,
            Body::Alert(_) => HdrType::Alert,
            Body::KeyExchange(_) => HdrType::KeyExchange,
            Body::InNetwork(_) => HdrType::InNetwork,
        }
    }

    /// The header `msgType` byte this body encodes as.
    pub fn msg_type(&self) -> u8 {
        match self {
            Body::Register(op) => op.msg_type(),
            Body::Alert(a) => a.msg_type(),
            Body::KeyExchange(k) => k.msg_type(),
            Body::InNetwork(p) => p.msg_type(),
        }
    }

    /// Payload length on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            Body::Register(_) => RegisterOp::WIRE_LEN,
            Body::Alert(_) => Alert::WIRE_LEN,
            Body::KeyExchange(k) => k.wire_len(),
            Body::InNetwork(p) => p.wire_len(),
        }
    }

    /// Encodes the payload (excluding the header) into `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        match self {
            Body::Register(op) => op.encode_into(buf),
            Body::Alert(a) => a.encode_into(buf),
            Body::KeyExchange(k) => k.encode_into(buf),
            Body::InNetwork(p) => p.encode_into(buf),
        }
    }

    /// Decodes a payload of family `hdr_type` / type `msg_type` from `buf`.
    ///
    /// # Errors
    ///
    /// Propagates truncation and unknown-type errors from the family
    /// decoders.
    pub fn decode_from(
        hdr_type: HdrType,
        msg_type: u8,
        buf: &mut impl Buf,
    ) -> Result<Self, DecodeError> {
        match hdr_type {
            HdrType::RegisterOp => Ok(Body::Register(RegisterOp::decode_from(msg_type, buf)?)),
            HdrType::Alert => Ok(Body::Alert(Alert::decode_from(msg_type, buf)?)),
            HdrType::KeyExchange => Ok(Body::KeyExchange(KeyExchange::decode_from(msg_type, buf)?)),
            HdrType::InNetwork => Ok(Body::InNetwork(InNetwork::decode_from(msg_type, buf)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(body: Body) {
        let mut buf = Vec::new();
        body.encode_into(&mut buf);
        assert_eq!(buf.len(), body.wire_len(), "wire_len mismatch for {body:?}");
        let decoded =
            Body::decode_from(body.hdr_type(), body.msg_type(), &mut buf.as_slice()).unwrap();
        assert_eq!(decoded, body);
    }

    #[test]
    fn register_ops_roundtrip() {
        roundtrip(Body::Register(RegisterOp::read_req(RegId::new(1234), 5)));
        roundtrip(Body::Register(RegisterOp::write_req(
            RegId::new(9),
            0,
            u64::MAX,
        )));
        roundtrip(Body::Register(RegisterOp::Ack {
            reg: RegId::new(1),
            index: 2,
            value: 3,
        }));
        for reason in [NackReason::UnknownRegister, NackReason::IndexOutOfRange] {
            roundtrip(Body::Register(RegisterOp::Nack {
                reg: RegId::new(4),
                index: 1,
                reason,
            }));
        }
    }

    #[test]
    fn alerts_roundtrip() {
        for kind in [
            AlertKind::DigestMismatch,
            AlertKind::SeqMismatch,
            AlertKind::RateLimited,
            AlertKind::KeyExchangeFailure,
        ] {
            roundtrip(Body::Alert(Alert {
                kind,
                offending_seq: SeqNum::new(77),
                detail: 3,
            }));
        }
    }

    #[test]
    fn key_exchange_roundtrip() {
        roundtrip(Body::KeyExchange(KeyExchange::EakSalt {
            step: EakStep::Salt1,
            salt: 42,
        }));
        roundtrip(Body::KeyExchange(KeyExchange::EakSalt {
            step: EakStep::Salt2,
            salt: 43,
        }));
        for context in [
            KexContext::LocalInit,
            KexContext::LocalUpdate,
            KexContext::PortInitRedirect,
            KexContext::PortUpdateDirect,
        ] {
            roundtrip(Body::KeyExchange(KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context,
                public_key: 0xdead_beef,
                salt: 7,
            }));
            roundtrip(Body::KeyExchange(KeyExchange::Adhkd {
                role: AdhkdRole::Answer,
                context,
                public_key: 1,
                salt: 2,
            }));
        }
        roundtrip(Body::KeyExchange(KeyExchange::PortKeyInit {
            peer: SwitchId::new(3),
            peer_port: PortId::new(2),
        }));
        roundtrip(Body::KeyExchange(KeyExchange::PortKeyUpdate {
            peer: SwitchId::new(4),
            peer_port: PortId::new(9),
        }));
    }

    #[test]
    fn in_network_roundtrip() {
        roundtrip(Body::InNetwork(InNetwork::new(1, vec![1, 2, 3, 4, 5])));
        roundtrip(Body::InNetwork(InNetwork::new(9, vec![])));
    }

    #[test]
    fn msg_types_distinct_within_family() {
        let kex = [
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: 0,
            }
            .msg_type(),
            KeyExchange::EakSalt {
                step: EakStep::Salt2,
                salt: 0,
            }
            .msg_type(),
            KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context: KexContext::LocalInit,
                public_key: 0,
                salt: 0,
            }
            .msg_type(),
            KeyExchange::Adhkd {
                role: AdhkdRole::Answer,
                context: KexContext::LocalInit,
                public_key: 0,
                salt: 0,
            }
            .msg_type(),
            KeyExchange::PortKeyInit {
                peer: SwitchId::new(0),
                peer_port: PortId::new(0),
            }
            .msg_type(),
            KeyExchange::PortKeyUpdate {
                peer: SwitchId::new(0),
                peer_port: PortId::new(0),
            }
            .msg_type(),
        ];
        let mut sorted = kex.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kex.len());
    }

    #[test]
    fn nack_with_bad_reason_rejected() {
        let mut buf = Vec::new();
        RegisterOp::Nack {
            reg: RegId::new(1),
            index: 0,
            reason: NackReason::UnknownRegister,
        }
        .encode_into(&mut buf);
        buf[15] = 200; // corrupt the reason byte
        let err = RegisterOp::decode_from(4, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err, DecodeError::InvalidField("nack reason"));
    }

    #[test]
    fn unknown_msg_types_rejected() {
        let buf = vec![0u8; 32];
        assert!(matches!(
            RegisterOp::decode_from(99, &mut buf.as_slice()),
            Err(DecodeError::UnknownMsgType { .. })
        ));
        assert!(matches!(
            KeyExchange::decode_from(99, &mut buf.as_slice()),
            Err(DecodeError::UnknownMsgType { .. })
        ));
        assert!(matches!(
            Alert::decode_from(99, &mut buf.as_slice()),
            Err(DecodeError::UnknownMsgType { .. })
        ));
    }

    #[test]
    fn truncated_payloads_rejected() {
        let buf = [0u8; 3];
        assert!(matches!(
            RegisterOp::decode_from(1, &mut &buf[..]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            Alert::decode_from(1, &mut &buf[..]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            KeyExchange::decode_from(3, &mut &buf[..]),
            Err(DecodeError::Truncated { .. })
        ));
        // In-network message claiming more bytes than present.
        let bad = [0u8, 10u8, 1, 2];
        assert!(matches!(
            InNetwork::decode_from(1, &mut &bad[..]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn table_iii_wire_sizes() {
        // EAK payload 8 B, ADHKD 16 B, KMP control 4 B; with the 14-byte
        // header: 22, 30 and 18 bytes — the Table III message sizes.
        assert_eq!(
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: 0
            }
            .wire_len(),
            8
        );
        assert_eq!(
            KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context: KexContext::LocalInit,
                public_key: 0,
                salt: 0
            }
            .wire_len(),
            16
        );
        assert_eq!(
            KeyExchange::PortKeyInit {
                peer: SwitchId::new(1),
                peer_port: PortId::new(1)
            }
            .wire_len(),
            4
        );
    }
}
