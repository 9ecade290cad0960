//! # p4auth-dataplane
//!
//! A PISA-style programmable switch data-plane emulator — the substrate the
//! paper's prototype runs on (BMv2 and Intel Tofino, §VII), rebuilt in
//! software.
//!
//! The emulator models the properties of a real switch pipeline that
//! P4Auth's design is shaped by. PISA's restricted per-packet ALU (no
//! multiply, divide, modulo or exponentiation — the reason the paper
//! replaces classic DH and signatures with its modified DH and HMAC) is
//! *modelled*, not enforced: programs are ordinary Rust run inside
//! [`Chassis::process`], and what the restriction costs is priced by
//! [`cost`] (time) and [`resources`] (Table II's hash units, SRAM, PHV
//! and stages).
//!
//! * **Match-action tables** ([`table`]): exact-match tables with bounded
//!   capacity, including the `reg_id_to_name_mapping` table that translates
//!   controller register ids to data-plane registers (§VII, Fig. 15).
//! * **Register arrays** ([`register`]): the stateful memory whose
//!   unauthorized modification is the paper's entire threat model.
//! * **Hash units** ([`hash`]): metered keyed-hash invocations; digest
//!   computation and the KDF consume these, which is where P4Auth's Table II
//!   hash-unit overhead comes from.
//! * **A resource model** ([`resources`]): TCAM / SRAM / hash-unit / PHV
//!   arithmetic calibrated against Table II — a model of what a compiler
//!   would allocate, not a count taken from a compiled program.
//! * **A timing model** ([`cost`]): per-packet processing latency with
//!   per-stage, per-hash-pass and per-recirculation costs for both targets
//!   (Tofino and BMv2), driving Figs. 18, 19 and 21.
//! * **A chassis** ([`chassis`]): ports, a CPU port (PacketOut/PacketIn),
//!   the register file, tables and budget-enforced packet contexts that
//!   data-plane programs (P4Auth itself, HULA, RouteScout) run on.
//!
//! ```
//! use p4auth_dataplane::chassis::{Chassis, ChassisConfig};
//! use p4auth_dataplane::packet::Packet;
//! use p4auth_dataplane::register::RegisterArray;
//! use p4auth_wire::ids::{PortId, SwitchId};
//!
//! let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 4));
//! chassis.declare_register(RegisterArray::new("counter", 8, 64));
//!
//! // Run a tiny "P4 program" over one packet: bump a counter, forward.
//! let pkt = Packet::from_bytes(PortId::new(1), vec![1, 2, 3]);
//! let outcome = chassis.process(0, &pkt, |ctx, p| {
//!     ctx.update_register("counter", 0, |v| v + 1)?;
//!     Ok(vec![(PortId::new(2), p.clone())])
//! })?;
//! assert_eq!(outcome.stages_used, 1);
//! assert_eq!(chassis.register("counter")?.read(0)?, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chassis;
pub mod cost;
pub mod hash;
pub mod packet;
pub mod register;
pub mod resources;
pub mod table;

pub use chassis::{Chassis, ChassisConfig, PacketContext, TargetProfile};
pub use packet::Packet;
