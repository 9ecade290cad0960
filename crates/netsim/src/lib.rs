//! # p4auth-netsim
//!
//! A deterministic discrete-event network simulator: the testbed substitute
//! for the paper's Tofino switch + BMv2 Mininet environments.
//!
//! The simulator provides exactly the machinery the P4Auth evaluation
//! needs:
//!
//! * **Simulated time** ([`time`]): nanosecond-resolution virtual clock; all
//!   latency figures (Figs. 18–21) are measured in it.
//! * **Topology** ([`topology`]): switches, a controller, links with
//!   latencies, port mappings, and link up/down events (which trigger key
//!   initialization in the paper's KMP, §VI-C).
//! * **Event-driven execution** ([`sim`]): nodes implement [`sim::SimNode`];
//!   frames are delivered after link latency plus sender-declared
//!   processing delay. Everything is deterministic given the same inputs.
//! * **MitM interception** ([`sim::TapAction`], [`sim::Simulator::install_tap`]):
//!   per-link, per-direction taps that can observe, modify or drop frames in
//!   flight — the §II-A adversary at a compromised switch OS (tap on the
//!   C-DP link) or on a network link (tap on a DP-DP link).
//! * **Bandwidth & queueing**: links may carry a capacity
//!   ([`topology::Topology::set_bandwidth`]); frames then experience
//!   serialization delay and per-direction FIFO queueing, which is what
//!   turns a traffic-concentration attack into measurable FCT damage.
//!
//! * **Scale** ([`fattree`], [`sched`]): `Topology::fat_tree(k)` builds
//!   k-ary Clos networks (hundreds of switches), and the event queue is
//!   chosen by [`sched::SchedulerKind`] — a calendar queue by default, with
//!   the reference binary heap available for differential testing. Both
//!   drain events in the identical `(time, seq)` order.
//! * **One front door** ([`engine`]): a [`Workload`] — nodes, boot timers,
//!   registry, export interval, fault plan — is described once and run on
//!   any [`Engine`] (one event loop on the calling thread, calendar queue
//!   or its heap oracle); set-up order is the same on both.
//! * **Fault injection** ([`fault`]): deterministic churn schedules — link
//!   flaps, correlated groups, switch/pod failure and recovery, boot-storm
//!   stagger — installed as first-class sim events so fault-injected runs
//!   drain identically on every engine.
//!
//! ```
//! use p4auth_netsim::frame::FrameBytes;
//! use p4auth_netsim::sim::{Outbox, SimNode, Simulator};
//! use p4auth_netsim::time::SimTime;
//! use p4auth_netsim::topology::{Endpoint, Topology};
//! use p4auth_wire::ids::{PortId, SwitchId};
//!
//! struct Echo;
//! impl SimNode for Echo {
//!     fn on_frame(&mut self, _t: SimTime, port: PortId, frame: FrameBytes, out: &mut Outbox) {
//!         out.send_delayed(port, frame, 10); // bounce back after 10ns
//!     }
//! }
//!
//! let mut topo = Topology::new();
//! topo.add_node(SwitchId::new(1))?;
//! topo.add_node(SwitchId::new(2))?;
//! topo.add_link(
//!     Endpoint::new(SwitchId::new(1), PortId::new(1)),
//!     Endpoint::new(SwitchId::new(2), PortId::new(1)),
//!     1_000, // 1µs one-way
//! )?;
//! let mut sim = Simulator::new(topo);
//! sim.register_node(SwitchId::new(1), Box::new(Echo));
//! sim.register_node(SwitchId::new(2), Box::new(Echo));
//! sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![0xab]);
//! sim.run_until(SimTime::from_us(3));
//! assert!(sim.stats().frames_delivered >= 2); // there and back
//! # Ok::<(), p4auth_netsim::topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fattree;
pub mod fault;
pub mod frame;
pub mod sched;
pub mod sim;
pub mod time;
pub mod timeline;
pub mod topology;

pub use engine::{Engine, RunReport, Workload};
pub use fattree::FatTree;
pub use fault::{BootStorm, FaultPlan};
pub use frame::FrameBytes;
pub use sched::SchedulerKind;
pub use sim::{Outbox, SimNode, Simulator, TapAction, TapFrame};
pub use time::SimTime;
pub use timeline::{Timeline, TimelineEntry};
pub use topology::{LinkId, Topology};
