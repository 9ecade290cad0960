//! Fat-tree scale workload: a loaded fabric with one sender per host slot
//! (`repro -- timeline`, the `timeline_export` bench and the engine
//! differentials).
//!
//! Hundreds of switches forward a fig19-style register traffic mix (two
//! 34-byte reads per 58-byte write) between random host pairs over
//! `Topology::fat_tree(k)`. Forwarding is deterministic-ECMP arithmetic
//! ([`FatTree::next_hop`]) so the run is bit-identical on every
//! [`Engine`], and the work is the event queue plus the simulator's dense
//! hot path.
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

/// A fat-tree switch: pure arithmetic forwarding via [`FatTree::next_hop`].
struct Forwarder {
    ft: FatTree,
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
        let flow = payload[2] as u64;
        let down = self.down;
        let is_down = |p: PortId| down & (1u64 << (p.value() & 63)) != 0;
        if let Some(port) = self.ft.next_hop_avoiding(self.id, dst, flow, is_down) {
            out.send_delayed(port, payload, self.proc_ns);
        }
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
/// sends through from these).
pub(crate) fn fabric_forwarder(ft: FatTree, id: SwitchId, proc_ns: u64) -> Box<dyn SimNode> {
    Box::new(Forwarder {
        ft,
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
