//! # p4auth
//!
//! A from-scratch Rust reproduction of **P4Auth** (*Securing In-Network
//! Traffic Control Systems with P4Auth*, DSN 2025): a key-based protection
//! mechanism that authenticates and integrity-protects the messages that
//! update or report programmable-switch data-plane state — both
//! controller↔data-plane (C-DP) and data-plane↔data-plane (DP-DP) — with
//! all checks running *in the data plane* itself.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`primitives`] | modified Diffie-Hellman, Extract-and-Expand KDF, HalfSipHash / keyed-CRC32 MACs |
//! | [`wire`] | the P4Auth message formats and codecs |
//! | [`dataplane`] | the PISA switch emulator (registers, tables, hash units, resource & timing models) |
//! | [`netsim`] | the discrete-event network simulator with MitM taps |
//! | [`core`] | the P4Auth protocol: authentication engine, EAK/ADHKD, key management, the data-plane agent |
//! | [`controller`] | the controller runtime: authenticated register access, key orchestration, alerts |
//! | [`systems`] | the seven protected target systems (HULA, RouteScout, Blink, SilkRoad, NetWarden, NetCache, FlowRadar), Table I on them, and the simulation harness |
//! | [`attacks`] | the §II-A adversaries: control-plane MitM, link MitM, replay, brute force, DoS |
//! | [`workloads`] | synthetic CAIDA-like traffic and latency processes |
//! | [`telemetry`] | dependency-free metrics registry and structured event log spanning sim, auth, agent and controller |
//!
//! ## Quickstart
//!
//! ```
//! use p4auth::core::agent::{AgentConfig, P4AuthSwitch};
//! use p4auth::dataplane::register::RegisterArray;
//! use p4auth::primitives::mac::HalfSipHashMac;
//! use p4auth::primitives::Key64;
//! use p4auth::wire::body::RegisterOp;
//! use p4auth::wire::ids::{PortId, RegId, SeqNum, SwitchId};
//! use p4auth::wire::Message;
//!
//! // A switch with one protected register.
//! let config = AgentConfig::new(SwitchId::new(1), 4, Key64::new(0x5eed))
//!     .map_register(RegId::new(1234), "path_latency");
//! let mut switch = P4AuthSwitch::new(config, None);
//! switch.chassis_mut().declare_register(RegisterArray::new("path_latency", 8, 64));
//! let k_local = Key64::new(42);
//! switch.install_key(PortId::CPU, k_local);
//!
//! // An authenticated controller write lands...
//! let write = Message::register_request(
//!     SwitchId::CONTROLLER,
//!     SeqNum::new(1),
//!     RegisterOp::write_req(RegId::new(1234), 0, 99),
//! )
//! .sealed(&HalfSipHashMac::default(), k_local);
//! switch.on_packet(0, PortId::CPU, &write.encode());
//! assert_eq!(switch.chassis().register("path_latency")?.read(0)?, 99);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios (HULA under a link MitM,
//! RouteScout under a control-plane MitM, key lifecycle) and
//! `crates/bench` for the harnesses that regenerate every table and figure
//! of the paper's evaluation.

#![forbid(unsafe_code)]

pub use p4auth_attacks as attacks;
pub use p4auth_controller as controller;
pub use p4auth_core as core;
pub use p4auth_dataplane as dataplane;
pub use p4auth_netsim as netsim;
pub use p4auth_primitives as primitives;
pub use p4auth_systems as systems;
pub use p4auth_telemetry as telemetry;
pub use p4auth_wire as wire;
pub use p4auth_workloads as workloads;
