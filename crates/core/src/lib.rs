//! # p4auth-core
//!
//! The paper's primary contribution: P4Auth's authentication protocol (§V)
//! and key management protocol (§VI), engineered to run *entirely in the
//! switch data plane* so that a compromised switch OS / SDK / driver cannot
//! tamper with the messages that update or report data-plane state.
//!
//! ## Components
//!
//! * [`channel`] — one end of an authenticated channel, for both sides:
//!   the versioned key slot, the outbound sequence counter and the
//!   per-sender replay windows (§V, §VI-C, §VIII); its `seal` and `open`
//!   are every digest sealing and verification (Eqn. 4).
//! * [`keys`] — one slot of the emulated `N+1`-entry key register
//!   (`K_local` at index 0, `K_port` at the port index, §VII) with
//!   versioned old/new keys for consistent updates (§VI-C).
//! * [`auth`] — reject reasons, alert rate limiting (DoS defence, §VIII)
//!   and the auth counters.
//! * [`eak`] — Exchange of Authentication Key (Fig. 11): derives `K_auth`
//!   from the pre-shared `K_seed` and two exchanged salts.
//! * [`adhkd`] — Authenticated DH exchange and Key Derivation (Fig. 12):
//!   modified-DH handshake followed by the custom KDF, yielding the master
//!   secret (`K_local` or `K_port`).
//! * [`kmp`] — the key management protocol (Fig. 14): local/port key
//!   initialization and rollover workflows, plus the Table III scalability
//!   model.
//! * [`secure_channel`] — the §XI extension: encrypt-then-MAC channels
//!   with authentication and encryption sub-keys derived from the master
//!   secret via labelled KDF invocations.
//! * [`agent`] — the P4Auth data-plane agent: the "P4 program" that parses
//!   P4Auth messages on the emulated chassis, verifies digests, executes
//!   authenticated register reads/writes through the
//!   `reg_id_to_name_mapping` table (Fig. 15), answers key exchanges, and
//!   wraps/checks in-network (DP-DP) control messages.
//!
//! The controller-side halves of these protocols live in
//! `p4auth-controller`; target systems protected by P4Auth (HULA,
//! RouteScout) live in `p4auth-systems`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adhkd;
pub mod agent;
pub mod auth;
pub mod channel;
pub mod eak;
pub mod keys;
pub mod kmp;
pub mod secure_channel;

pub use agent::{AgentConfig, P4AuthSwitch};
pub use channel::ChannelEnd;
