//! # p4auth-controller
//!
//! The controller half of P4Auth: the trusted endpoint that reads and
//! writes switch data-plane state over authenticated C-DP messages and
//! drives the key management protocol (paper §V–§VI).
//!
//! The controller:
//!
//! * issues sealed register read/write requests and verifies `ack`/`nAck`
//!   responses against the per-switch local key, matching responses to
//!   requests by sequence number;
//! * runs EAK + ADHKD as the initiator to establish and roll `K_local` for
//!   every switch (Fig. 14 a–b);
//! * orchestrates port-key initialization by *redirecting* ADHKD messages
//!   between two data planes (Fig. 14 c) — verifying the digest on each leg
//!   but never learning the derived `K_port` (it only ever sees public keys
//!   and salts);
//! * triggers direct DP-DP port-key rollover (Fig. 14 d);
//! * collects alerts (into a bounded ring) and applies the §VIII DoS
//!   accounting (outstanding request threshold);
//! * optionally runs the adaptive [`defence`] loop: sliding-window reject
//!   tracking per `(peer, channel)` that automatically rolls keys or
//!   quarantines a channel when forged digests or replays flood it.
//!
//! On top of the protocol core, the crate provides the *split* control
//! plane (sonic-swss shape): a deterministic [`statedb`] holding the
//! orchestration state a restarted daemon re-reads, one key-manager
//! daemon per replica ([`daemons`]) that keeps its progress there, and a
//! [`replica`] layer that partitions switches across N
//! [`ControllerReplica`]s by a deterministic hash, with versioned bulk
//! key rollover that is KMP-retry- and replica-restart-safe.
//!
//! ```
//! use p4auth_controller::{Controller, ControllerConfig};
//! use p4auth_primitives::Key64;
//! use p4auth_wire::ids::SwitchId;
//!
//! let mut c = Controller::new(ControllerConfig::default());
//! c.register_switch(SwitchId::new(1), Key64::new(0x5eed));
//! // Boot: start local-key initialization (EAK salt #1 goes on the wire).
//! let out = c.local_key_init(SwitchId::new(1));
//! assert_eq!(out.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
pub mod daemons;
pub mod defence;
mod outstanding;
pub mod replica;
pub mod statedb;

pub use controller::{Controller, ControllerConfig, ControllerEvent, ControllerStats, Outgoing};
pub use defence::{
    CompletedMitigation, DefenceConfig, DefenceState, MitigationAction, MitigationKind,
};
pub use replica::{ControllerReplica, ReplicaSet};
