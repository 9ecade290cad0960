//! # p4auth-wire
//!
//! The P4Auth wire protocol (paper §V, Fig. 7): message headers, typed
//! bodies and byte-exact codecs for everything exchanged between a
//! controller and a switch data plane (C-DP) or between two data planes
//! (DP-DP).
//!
//! A P4Auth message is a fixed 14-byte header followed by a typed payload:
//!
//! ```text
//! +---------+---------+----------+------------+----------+------+--------+
//! | hdrType | msgType | seqNum   | keyVersion | switchId | port | digest |
//! |  1 B    |  1 B    |  4 B     |  1 B       |  2 B     | 1 B  |  4 B   |
//! +---------+---------+----------+------------+----------+------+--------+
//! ```
//!
//! * `hdrType` selects register operation / alert / key exchange.
//! * `msgType`'s meaning depends on `hdrType` (readReq, writeReq, ack, nAck;
//!   alert kinds; the five key-management messages of Fig. 14).
//! * `seqNum` maps responses to requests and defends against replay (§VIII).
//! * `keyVersion` implements consistent key updates (§VI-C): the receiver
//!   validates with the tagged version (old or new key).
//! * `digest` = `HMAC_K(header-without-digest || payload)` (Eqn. 4).
//!
//! Message sizes reproduce the paper's Table III accounting exactly:
//! EAK messages are 22 bytes, ADHKD messages 30 bytes, KMP control messages
//! 18 bytes — so local-key initialization exchanges 104 bytes over 4
//! messages and a port-key update 78 bytes over 3 messages, as published.
//!
//! ```
//! use p4auth_wire::{Message, header::HdrType};
//! use p4auth_wire::body::RegisterOp;
//! use p4auth_wire::ids::{RegId, SeqNum, SwitchId};
//!
//! let msg = Message::register_request(
//!     SwitchId::new(3),
//!     SeqNum::new(7),
//!     RegisterOp::write_req(RegId::new(1234), 0, 99),
//! );
//! let bytes = msg.encode();
//! let decoded = Message::decode(&bytes)?;
//! assert_eq!(decoded, msg);
//! assert_eq!(decoded.header().hdr_type, HdrType::RegisterOp);
//! # Ok::<(), p4auth_wire::error::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod body;
pub mod error;
pub mod header;
pub mod ids;
pub mod message;

pub use message::{digest_parts, verify_bound_frame, verify_frame, Message};
