//! No-silent-loss property over random fault plans.
//!
//! Random link churn — a failing-and-recovering pod plus arbitrary
//! individual flaps — on a random fat-tree never strands a frame: at the
//! horizon every injected frame is either delivered, dead at a downed
//! link and counted in `frames_undeliverable`, or still queued (and then
//! drained by running to completion). The accounting identity
//! `injected == delivered + undeliverable` must hold exactly, every
//! scheduled fault must apply exactly once, and heap and calendar
//! schedulers must agree on all of it.

use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::fault::FaultPlan;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sched::SchedulerKind;
use p4auth_netsim::sim::{Outbox, SimNode, Simulator, TopologyEvent};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::topology::HOST_ID_BASE;
use p4auth_wire::ids::{PortId, SwitchId};

/// ECMP forwarder with fail-over: routes by the fat tree's next-hop
/// function, steering around ports it has seen go down (the same shape
/// as the scale workload's fabric forwarder).
struct Fwd {
    id: SwitchId,
    ft: FatTree,
    down: u64,
}

impl SimNode for Fwd {
    fn on_frame(&mut self, _now: SimTime, _ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        let dst = SwitchId::new(u16::from_le_bytes([payload[0], payload[1]]));
        let flow = payload[2] as u64;
        let down = self.down;
        let is_down = |p: PortId| down & (1u64 << (p.value() & 63)) != 0;
        if let Some(port) = self.ft.next_hop_avoiding(self.id, dst, flow, is_down) {
            out.send(port, payload);
        }
    }

    fn on_topology(&mut self, _now: SimTime, event: TopologyEvent, _out: &mut Outbox) {
        let (up, a, b) = match event {
            TopologyEvent::LinkUp { a, b, .. } => (true, a, b),
            TopologyEvent::LinkDown { a, b, .. } => (false, a, b),
            TopologyEvent::NodeRebooted { .. } => return,
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

/// Host endpoint: injects its schedule one timer per frame, and counts
/// arrivals into a shared cell.
struct Host {
    /// `(dst host id, flow)` per local frame index (the timer id).
    sends: Vec<(SwitchId, u8)>,
    delivered: Rc<Cell<u64>>,
}

impl SimNode for Host {
    fn on_frame(&mut self, _now: SimTime, _ingress: PortId, _payload: FrameBytes, _: &mut Outbox) {
        self.delivered.set(self.delivered.get() + 1);
    }

    fn on_timer(&mut self, _now: SimTime, timer_id: u64, out: &mut Outbox) {
        let (dst, flow) = self.sends[timer_id as usize];
        let mut buf = [0u8; 3];
        buf[..2].copy_from_slice(&dst.value().to_le_bytes());
        buf[2] = flow;
        out.send(PortId::new(1), FrameBytes::from_slice(&buf));
    }
}

/// One generated scenario: which pod fails and when, extra individual
/// flaps, and the injected traffic.
#[derive(Clone, Debug)]
struct Scenario {
    pod: u16,
    pod_down_at: u64,
    pod_dur: u64,
    /// `(link seed, down_at, duration)` — the seed picks a live link.
    flaps: Vec<(u32, u64, u64)>,
    /// `(src seed, dst seed, inject_at, flow)`.
    frames: Vec<(u16, u16, u64, u8)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u16..4,
        1_000u64..400_000,
        1_000u64..400_000,
        proptest::collection::vec((any::<u32>(), 1_000u64..600_000, 1_000u64..200_000), 0..6),
        proptest::collection::vec(
            (any::<u16>(), any::<u16>(), 0u64..500_000, any::<u8>()),
            1..40,
        ),
    )
        .prop_map(|(pod, pod_down_at, pod_dur, flaps, frames)| Scenario {
            pod,
            pod_down_at,
            pod_dur,
            flaps,
            frames,
        })
}

/// Builds the sim, runs the scenario, and returns the deterministic
/// outcome `(stats, delivered, final now_ns)`.
fn run_scenario(s: &Scenario, kind: SchedulerKind) -> (p4auth_netsim::sim::SimStats, u64, u64) {
    let ft = FatTree::new(4);
    let topo = ft.build(1_500);
    let nlinks = topo.links().len() as u32;

    let mut plan = FaultPlan::new();
    plan.pod_failure(&topo, &ft, s.pod, s.pod_down_at, s.pod_down_at + s.pod_dur);
    for &(seed, down_at, dur) in &s.flaps {
        let link = p4auth_netsim::topology::LinkId(seed % nlinks);
        // Skip instants the pod plan already owns; FaultPlan dedups exact
        // duplicates but opposite transitions at one instant would make
        // the final link state order-defined rather than plan-defined.
        if plan
            .events()
            .iter()
            .any(|e| e.link == link && (e.at_ns == down_at || e.at_ns == down_at + dur))
        {
            continue;
        }
        plan.flap(link, down_at, down_at + dur);
    }
    let planned = plan.len() as u64;

    let mut sim = Simulator::with_scheduler(topo, kind);
    for sw in 0..ft.switch_count() {
        let id = SwitchId::new(sw + 1);
        sim.register_node(id, Box::new(Fwd { id, ft, down: 0 }));
    }
    let delivered = Rc::new(Cell::new(0u64));
    let hosts = ft.host_count();
    let mut sends: Vec<Vec<(SwitchId, u8)>> = vec![Vec::new(); hosts as usize];
    let mut schedule: Vec<(u16, u64, u64)> = Vec::new();
    let mut injected = 0u64;
    for &(src_seed, dst_seed, at, flow) in &s.frames {
        let src = src_seed % hosts;
        let mut dst = dst_seed % (hosts - 1);
        if dst >= src {
            dst += 1;
        }
        let idx = sends[src as usize].len() as u64;
        sends[src as usize].push((ft.host(dst), flow));
        schedule.push((src, idx, at));
        injected += 1;
    }
    for (h, host_sends) in sends.into_iter().enumerate() {
        sim.register_node(
            SwitchId::new(HOST_ID_BASE + h as u16),
            Box::new(Host {
                sends: host_sends,
                delivered: delivered.clone(),
            }),
        );
    }
    for (src, idx, at) in schedule {
        sim.schedule_timer(ft.host(src), idx, at);
    }
    sim.install_fault_plan(&plan);

    // At the horizon nothing is lost silently: every frame is delivered,
    // counted dead, or still in flight.
    let horizon = 700_000 + s.pod_down_at + s.pod_dur;
    sim.run_until(SimTime::from_ns(horizon));
    let mid = delivered.get() + sim.stats().frames_undeliverable;
    assert!(
        mid <= injected,
        "over-accounted at horizon: {mid} > {injected}"
    );

    sim.run_to_completion();
    let stats = sim.stats();
    assert_eq!(
        delivered.get() + stats.frames_undeliverable,
        injected,
        "silent loss: {} delivered + {} undeliverable != {injected} injected",
        delivered.get(),
        stats.frames_undeliverable,
    );
    assert_eq!(
        stats.faults_applied, planned,
        "fault schedule did not apply exactly"
    );
    (stats, delivered.get(), sim.now().as_ns())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_fault_plans_never_strand_a_frame(s in scenario_strategy()) {
        let heap = run_scenario(&s, SchedulerKind::Heap);
        let cal = run_scenario(&s, SchedulerKind::Calendar);
        prop_assert_eq!(heap, cal, "schedulers diverged under faults");
    }
}
