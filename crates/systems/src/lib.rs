//! # p4auth-systems
//!
//! The in-network traffic-control systems the paper attacks and then
//! protects with P4Auth, plus the simulation harness that wires agents and
//! the controller into the network simulator:
//!
//! * [`harness`] — [`SimNode`](p4auth_netsim::SimNode) adapters for
//!   [`P4AuthSwitch`](p4auth_core::P4AuthSwitch) and
//!   [`Controller`](p4auth_controller::Controller), and a network builder
//!   that boots a topology and drives the key-management bootstrap
//!   (local keys for every switch, port keys for every link).
//! * [`hula`] — HULA (Katta et al., SOSR 2016): probe-driven, hop-by-hop
//!   utilization-aware load balancing entirely in the data plane. The
//!   paper's Fig. 3 / Fig. 17 / Fig. 21 target system.
//! * [`routescout`] — RouteScout (Apostolaki et al., SOSR 2021):
//!   performance-aware path selection with per-path latency aggregated in
//!   data-plane registers and a controller computing traffic split ratios.
//!   The paper's Fig. 2 / Fig. 16 target system (implemented, as in the
//!   paper itself, as a software simulation).
//! * [`blink`] — a Blink-style fast-reroute system (the Table I "FRR" row
//!   as a working system).
//! * [`netcache`] — a NetCache-style in-network key-value cache (the
//!   Table I "in-network cache" row as a working system).
//! * [`netwarden`] — a NetWarden-style covert-channel mitigator (the
//!   Table I "IDS/IPS" row as a working system).
//! * [`silkroad`] — a SilkRoad-style stateful L4 load balancer (the
//!   Table I "LB" row as a working system).
//! * [`flowradar`] — a FlowRadar-style IBLT measurement system (the
//!   Table I "Measurement" row as a working system).
//! * [`scaleload`] — the fat-tree scale workload behind `repro --
//!   timeline` and the engine differentials: one sender per host slot,
//!   bit-identical on the calendar queue and its heap oracle.
//! * [`userscale`] — host aggregation: one [`SimNode`](p4auth_netsim::SimNode)
//!   modelling thousands of edge users in flat per-user arrays, scaling
//!   `repro -- users` to millions of modelled users at near-constant
//!   per-user cost while an aggregate of one user stays bit-identical to
//!   an individual [`scaleload`] host.
//! * [`table1`] — Table I on these systems: each of HULA, RouteScout,
//!   Blink, SilkRoad, NetWarden, NetCache and FlowRadar under the attack
//!   the table cites, with P4Auth off and on, judged by a system-level
//!   invariant (`repro -- table1`).
//! * [`campaigns`] — scenario campaigns composing deterministic fault
//!   injection (link flaps, pod/switch failure, boot storms) with attack
//!   overlays, each judged by explicit defence invariants and reported by
//!   `repro -- scenarios` as `BENCH_scenarios.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blink;
pub mod campaigns;
pub mod experiments;
pub mod flowradar;
pub mod harness;
pub mod hula;
pub mod netcache;
pub mod netwarden;
pub mod replicated;
pub mod routescout;
pub mod scaleload;
pub mod silkroad;
pub mod table1;
pub mod userscale;
