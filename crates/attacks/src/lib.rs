//! # p4auth-attacks
//!
//! Adversary models from the paper's threat model (§II-A) and security
//! analysis (§VIII), implemented as network-simulator taps and message
//! rewriters:
//!
//! * [`ctrl_mitm`] — the compromised-switch-OS adversary: intercepts C-DP
//!   messages between the control-plane agent and the driver (modelled as a
//!   tap on the C-DP link) and rewrites register read responses or write
//!   requests (the Fig. 2 / Fig. 16 attack on RouteScout).
//! * [`link_mitm`] — the on-path network adversary: rewrites `probeUtil`
//!   inside DP-DP in-network control messages (the Fig. 3 / Fig. 17 attack
//!   on HULA).
//! * [`kex_mitm`] — the key-exchange MitM of §III-B \[A3\]: key substitution
//!   against unauthenticated modified DH (the DH-AES-P4 baseline), and the
//!   passive pre-master-secret recovery the bare primitive admits.
//! * [`replay`] — records sealed `writeReq` messages and replays them
//!   (§VIII, "Replay attack").
//! * [`bruteforce`] — digest- and key-guessing adversaries with the §VIII
//!   success-probability analysis.
//! * [`dos`] — request/alert flooding toward the controller (§VIII,
//!   "Denial-of-service attack").
//! * [`digest_flood`] — forged-digest flood on one C-DP channel versus the
//!   controller's adaptive defence: the reject stream crosses the defence
//!   threshold, the victim channel's key is rolled automatically (with
//!   hysteresis — one crossing, one mitigation), and untouched channels
//!   keep flowing.
//! * [`tls_gap`] — why TLS-protected P4Runtime is insufficient (§III-B
//!   \[A1\]): the backdoor shim rewrites call arguments below the TLS
//!   termination point; P4Auth's end-to-end digest survives it.
//!
//! Table I mounts these adversaries on the systems it names in
//! `p4auth_systems::table1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bruteforce;
pub mod ctrl_mitm;
pub mod digest_flood;
pub mod dos;
pub mod kex_mitm;
pub mod link_mitm;
pub mod replay;
pub mod tls_gap;
