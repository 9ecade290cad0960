//! Fat-tree scale workload: a loaded fabric with one sender per host slot
//! (`repro -- timeline`, the `timeline_export` bench and the engine
//! differentials).
//!
//! Hundreds of switches forward a fig19-style register traffic mix (two
//! 34-byte reads per 58-byte write) between random host pairs over
//! `Topology::fat_tree(k)`. Forwarding is deterministic ECMP: one route
//! table per fabric, built from [`FatTree`]'s layout arithmetic and
//! checked against [`FatTree::next_hop_avoiding`], so the run is
//! bit-identical on every [`Engine`], and the work is the event queue
//! plus the simulator's dense hot path. A frame with no route (its
//! destination is no host of the tree) goes out of port 0, which has no
//! link, so the simulator counts it undeliverable.
//!
//! The workload is *defined* as the users workload at one user per host
//! slot: [`run_scale_engine`] and [`run_scale_timeline`] run
//! [`UserScaleConfig::mirror_scale`] of their [`ScaleConfig`] through the
//! one fabric runner in [`crate::userscale`] and map its result. There
//! is no second host model here; what this module owns is the
//! configuration, the result shape, the frame layout and the fabric
//! switch every host model sends through. `tests/aggregate_diff.rs`
//! keeps an individual per-host node as the oracle the definition is
//! checked against.

use crate::userscale::{run_fabric, FabricRun, UserScaleConfig};
pub use p4auth_netsim::engine::Engine;
use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sim::{Outbox, SimNode, TopologyEvent};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::timeline::Timeline;
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{PortId, SwitchId};
use std::rc::Rc;
use std::sync::Arc;

/// Fig19-style request sizes: header + digest + read body / write body.
/// (Shared with `userscale`, whose aggregates emit the same mix.)
pub(crate) const READ_FRAME_BYTES: usize = 34;
pub(crate) const WRITE_FRAME_BYTES: usize = 58;

/// One scale-workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScaleConfig {
    /// Fat-tree arity (even, ≤ 16).
    pub k: u16,
    /// Uniform one-way link latency in ns.
    pub latency_ns: u64,
    /// Per-hop switch processing delay in ns.
    pub proc_ns: u64,
    /// Frames each host transmits.
    pub frames_per_host: u32,
    /// Inter-frame gap per host in ns (smaller = more events in flight).
    pub interval_ns: u64,
    /// Traffic seed (destinations and ECMP flow labels).
    pub seed: u64,
}

impl ScaleConfig {
    /// The standard configuration for arity `k`: 1.5µs links, 500ns hop
    /// processing, one frame per host every 25ns — a loaded fabric that
    /// keeps tens of in-flight events per host outstanding, the regime
    /// the calendar queue is built for.
    pub fn for_k(k: u16, frames_per_host: u32) -> Self {
        ScaleConfig {
            k,
            latency_ns: 1_500,
            proc_ns: 500,
            frames_per_host,
            interval_ns: 25,
            seed: 0x5ca1_e000 ^ k as u64,
        }
    }
}

/// Result of one scale run.
#[derive(Clone, Copy, Debug)]
pub struct ScaleRun {
    /// Events processed (pops).
    pub events: u64,
    /// Frames that reached their destination host.
    pub frames_delivered: u64,
    /// Final simulated clock in ns.
    pub sim_ns: u64,
}

impl ScaleRun {
    fn of(run: &FabricRun) -> Self {
        ScaleRun {
            events: run.report.events,
            frames_delivered: run.frames_delivered,
            sim_ns: run.report.now.as_ns(),
        }
    }

    /// The run's counts and final clock — must be identical on every
    /// engine.
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        (self.events, self.frames_delivered, self.sim_ns)
    }
}

/// Table entry of a leg that goes up an ECMP uplink fan; no fabric port
/// is 0.
const UPLINK: u8 = 0;

/// Where a frame goes that has no route: a port with no link, so the
/// simulator counts the frame undeliverable instead of losing it.
const NO_ROUTE: PortId = PortId::new(0);

/// Every route of one fat tree with no port down, built once per fabric
/// from [`FatTree`]'s layout arithmetic and shared by all its forwarders.
/// Row `switch − 1`, column host index: the egress port, or [`UPLINK`]
/// where the flow label picks the uplink. [`FatTree::next_hop_avoiding`]
/// stays the routing oracle; a forwarder asks it instead while one of its
/// own ports is down, and the unit tests check the table against it.
pub(crate) struct RouteTable {
    ft: FatTree,
    hosts: usize,
    ports: Box<[u8]>,
    /// The uplink each flow label hashes to: `k/2 + 1 + flow mod k/2`.
    uplink: [u8; 256],
}

impl RouteTable {
    pub(crate) fn new(ft: FatTree) -> Self {
        let (k, half) = (ft.k(), ft.k() / 2);
        let hosts = ft.host_count() as usize;
        let per_pod = (half * half) as usize;
        let mut ports = vec![UPLINK; ft.switch_count() as usize * hosts];
        let row = |id: SwitchId| (id.value() as usize - 1) * hosts..id.value() as usize * hosts;
        for i in 0..ft.core_count() {
            let row = &mut ports[row(ft.core(i))];
            for pod in 0..k {
                row[pod as usize * per_pod..][..per_pod].fill(pod as u8 + 1);
            }
        }
        for pod in 0..k {
            let pod_hosts = pod as usize * per_pod;
            for i in 0..half {
                let row = &mut ports[row(ft.agg(pod, i))];
                for e in 0..half {
                    row[pod_hosts + (e * half) as usize..][..half as usize].fill(e as u8 + 1);
                }
            }
            for e in 0..half {
                let row = &mut ports[row(ft.edge(pod, e))];
                let below = &mut row[pod_hosts + (e * half) as usize..][..half as usize];
                for (h, port) in below.iter_mut().enumerate() {
                    *port = h as u8 + 1;
                }
            }
        }
        let mut uplink = [0u8; 256];
        for (flow, port) in uplink.iter_mut().enumerate() {
            *port = (half as usize + 1 + flow % half as usize) as u8;
        }
        RouteTable {
            ft,
            hosts,
            ports: ports.into(),
            uplink,
        }
    }

    /// The egress port of switch `at` towards `dst` for flow label `flow`
    /// when the ports in `down` (bit `p` = port `p`) are dead, or `None`
    /// if `dst` is not a host of the tree.
    #[inline]
    pub(crate) fn next_hop(
        &self,
        at: SwitchId,
        dst: SwitchId,
        flow: u8,
        down: u64,
    ) -> Option<PortId> {
        if down != 0 {
            let is_down = |p: PortId| down & (1u64 << (p.value() & 63)) != 0;
            return self.ft.next_hop_avoiding(at, dst, u64::from(flow), is_down);
        }
        let h = self.ft.host_index(dst)? as usize;
        let port = self.ports[(at.value() as usize - 1) * self.hosts + h];
        Some(PortId::new(if port == UPLINK {
            self.uplink[flow as usize]
        } else {
            port
        }))
    }
}

/// A fat-tree switch: forwards by its fabric's shared [`RouteTable`].
struct Forwarder {
    routes: Rc<RouteTable>,
    id: SwitchId,
    proc_ns: u64,
    /// Local ports with a dead link, tracked from topology notifications
    /// (bit `p` = port `p`; fat-tree data ports are `1..=k`, far below
    /// 64). ECMP uplink choices rotate around these.
    down: u64,
}

/// Destination host id lives in payload bytes `[0..2]` (LE), the ECMP flow
/// label in byte `[2]`.
pub(crate) fn frame_dst(payload: &[u8]) -> SwitchId {
    SwitchId::new(u16::from_le_bytes([payload[0], payload[1]]))
}

impl SimNode for Forwarder {
    fn on_frame(&mut self, _now: SimTime, _ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        let dst = frame_dst(&payload);
        let port = self.routes.next_hop(self.id, dst, payload[2], self.down);
        out.send_delayed(port.unwrap_or(NO_ROUTE), payload, self.proc_ns);
    }

    fn on_topology(&mut self, _now: SimTime, event: TopologyEvent, _out: &mut Outbox) {
        let (up, a, b) = match event {
            TopologyEvent::LinkUp { a, b, .. } => (true, a, b),
            TopologyEvent::LinkDown { a, b, .. } => (false, a, b),
        };
        for ep in [a, b] {
            if ep.node == self.id {
                let bit = 1u64 << (ep.port.value() & 63);
                if up {
                    self.down &= !bit;
                } else {
                    self.down |= bit;
                }
            }
        }
    }
}

pub(crate) const SEND_TIMER: u64 = 1;

/// A fabric forwarder (`userscale` builds the fabric every host model
/// sends through from these, all on one [`RouteTable`]).
pub(crate) fn fabric_forwarder(
    routes: Rc<RouteTable>,
    id: SwitchId,
    proc_ns: u64,
) -> Box<dyn SimNode> {
    Box::new(Forwarder {
        routes,
        id,
        proc_ns,
        down: 0,
    })
}

/// Runs the workload on the given engine. Pass a registry to collect
/// `sim_event_lead_ns` and the simulator's other instrumentation.
pub fn run_scale_engine(
    cfg: ScaleConfig,
    engine: Engine,
    registry: Option<Arc<Registry>>,
) -> ScaleRun {
    let mirror = UserScaleConfig::mirror_scale(&cfg);
    ScaleRun::of(&run_fabric(&mirror, engine, registry, None))
}

/// Runs the workload with periodic telemetry export every `interval_ns`
/// of sim-time, returning the run result and the recorded [`Timeline`].
///
/// The timeline is bit-identical on every engine because capture is
/// driven by the sim clock, not by how the queue is drained (asserted by
/// `timeline_is_bit_identical_across_engines` below and by the CI
/// determinism step via `repro -- timeline`).
pub fn run_scale_timeline(
    cfg: ScaleConfig,
    engine: Engine,
    interval_ns: u64,
) -> (ScaleRun, Timeline) {
    let mirror = UserScaleConfig::mirror_scale(&cfg);
    let mut run = run_fabric(&mirror, engine, None, Some(interval_ns));
    let timeline = run.report.timeline.take().expect("export interval was set");
    (ScaleRun::of(&run), timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_netsim::topology::HOST_ID_BASE;
    use proptest::prelude::*;

    /// The oracle's answer for a forwarder whose down set is `down`.
    fn oracle(ft: FatTree, at: SwitchId, dst: SwitchId, flow: u8, down: u64) -> Option<PortId> {
        let is_down = |p: PortId| down & (1u64 << (p.value() & 63)) != 0;
        ft.next_hop_avoiding(at, dst, u64::from(flow), is_down)
    }

    /// Every (switch, host) pair of `ft` under `flow` with `down` dead.
    fn assert_grid_matches(table: &RouteTable, ft: FatTree, flow: u8, down: u64) {
        for s in 1..=ft.switch_count() {
            let at = SwitchId::new(s);
            for h in 0..ft.host_count() {
                let dst = ft.host(h);
                assert_eq!(
                    table.next_hop(at, dst, flow, down),
                    oracle(ft, at, dst, flow, down),
                    "k={} {at} -> {dst} flow {flow} down {down:#x}",
                    ft.k()
                );
            }
        }
    }

    /// With nothing down the shared table routes exactly as
    /// `FatTree::next_hop_avoiding`: every switch to every host under
    /// every flow label (k = 16 under three labels; the property below
    /// draws the rest).
    #[test]
    fn route_table_equals_the_oracle_with_nothing_down() {
        for k in [2, 4, 6, 8, 16] {
            let ft = FatTree::new(k);
            let table = RouteTable::new(ft);
            let flows: Vec<u8> = if k < 16 {
                (0..=u8::MAX).collect()
            } else {
                vec![0, 7, u8::MAX]
            };
            for flow in flows {
                assert_grid_matches(&table, ft, flow, 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The table with its oracle fallback routes exactly as
        /// `FatTree::next_hop_avoiding`, with and without a random set of
        /// dead ports: every switch to every host under one drawn flow
        /// label, and every label between one drawn switch and host. A
        /// destination that is no host of the tree has no route.
        #[test]
        fn route_table_equals_the_oracle(
            arity in 0usize..5,
            flow in any::<u8>(),
            (pick_switch, pick_host) in (any::<u16>(), any::<u16>()),
            (a, b) in (any::<u64>(), any::<u64>()),
        ) {
            let ft = FatTree::new([2, 4, 6, 8, 16][arity]);
            let table = RouteTable::new(ft);
            // Data ports are 1..=k; two words ANDed kill a quarter of them.
            let down = a & b & ((1u64 << (ft.k() + 1)) - 1) & !1;
            assert_grid_matches(&table, ft, flow, down);
            let at = SwitchId::new(1 + pick_switch % ft.switch_count());
            let dst = ft.host(pick_host % ft.host_count());
            for down in [0, down] {
                for flow in 0..=u8::MAX {
                    prop_assert_eq!(
                        table.next_hop(at, dst, flow, down),
                        oracle(ft, at, dst, flow, down)
                    );
                }
                for dst in [0, 1, ft.switch_count(), HOST_ID_BASE + ft.host_count()] {
                    prop_assert_eq!(table.next_hop(at, SwitchId::new(dst), flow, down), None);
                }
            }
        }
    }

    #[test]
    fn every_engine_agrees_on_the_scale_workload() {
        let cfg = ScaleConfig::for_k(4, 20);
        let cal = run_scale_engine(cfg, Engine::REFERENCE, None);
        // Every transmitted frame must arrive (ECMP routing is loop-free
        // and complete).
        assert_eq!(cal.frames_delivered, 16 * 20);
        assert!(cal.events > cal.frames_delivered);
        for engine in Engine::DIFFERENTIAL {
            assert_eq!(
                run_scale_engine(cfg, engine, None).fingerprint(),
                cal.fingerprint(),
                "{} diverged from calendar",
                engine.label()
            );
        }
    }

    #[test]
    fn timeline_is_bit_identical_across_engines() {
        let cfg = ScaleConfig::for_k(4, 30);
        let interval_ns = 2_000;
        let (cal_run, cal_tl) = run_scale_timeline(cfg, Engine::REFERENCE, interval_ns);
        // The serialized timelines are byte-identical across engines.
        let (json, bin) = (cal_tl.to_json(), cal_tl.to_bin());
        for engine in Engine::DIFFERENTIAL {
            let label = engine.label();
            let (run, tl) = run_scale_timeline(cfg, engine, interval_ns);
            assert_eq!(run.fingerprint(), cal_run.fingerprint(), "{label}");
            assert_eq!(tl.to_json(), json, "{label} timeline diverged");
            assert_eq!(tl.to_bin(), bin, "{label} timeline diverged");
        }
        // The run spans many boundaries and actually emits deltas.
        assert!(
            cal_tl.entries.len() >= 3,
            "expected several non-empty windows, got {}",
            cal_tl.entries.len()
        );
        // baseline + Σdeltas reconstructs the final full snapshot.
        assert_eq!(cal_tl.reconstruct(), cal_tl.final_snapshot);
        // And the binary stream decodes back exactly.
        assert_eq!(Timeline::from_bin(&bin).unwrap(), cal_tl);
    }

    #[test]
    fn instrumented_run_records_event_leads() {
        let registry = Arc::new(Registry::new());
        let cfg = ScaleConfig::for_k(4, 5);
        run_scale_engine(cfg, Engine::REFERENCE, Some(registry.clone()));
        let snap = registry.snapshot();
        assert!(
            snap.gauges.is_empty(),
            "the userscale_* gauges belong to run_users_engine alone"
        );
        let lead = snap.histogram("sim_event_lead_ns", "").unwrap();
        assert!(lead.count > 0);
        // Leads cluster at proc + latency = 2µs; the p99 stays in the
        // narrow band the calendar queue exploits.
        assert!(
            lead.p50 >= 1_000 && lead.p99 <= 16_384,
            "p50={} p99={}",
            lead.p50,
            lead.p99
        );
    }
}
