//! Deterministic fault-injection plans: scheduled link-state changes
//! (flaps, correlated groups, switch and pod failure with recovery),
//! node reboots that lose all state, plus boot-storm stagger descriptors.
//!
//! A [`FaultPlan`] is pure data — a normalized, time-sorted schedule of
//! `(at_ns, link, up)` changes and `(at_ns, node)` reboots — installed
//! into a simulator with
//! [`crate::sim::Simulator::install_fault_plan`] (or, for any engine,
//! [`crate::engine::Workload::set_fault_plan`]). Each change
//! becomes a first-class sim event with its own tiebreak key, so a
//! fault-injected run drains in exactly the same `(time, seq)` order on
//! every engine. Faults are *not* side-channel calls into
//! [`crate::sim::Simulator::set_link_state`] mid-run — that would tie the
//! flip to wherever the driving loop happens to pause (`run_until`
//! deadlines), not to the simulated instant.
//!
//! Boot storms need no simulator mechanism at all: a [`BootStorm`] is
//! just a deterministic per-slot start offset that workload runners add
//! to their boot timers, carried here so a campaign's churn description
//! lives in one place.

use crate::fattree::FatTree;
use crate::topology::{LinkId, Topology};
use p4auth_wire::ids::SwitchId;

/// One scheduled link-state change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute simulated time of the change, in ns from t=0.
    pub at_ns: u64,
    /// The link whose state changes.
    pub link: LinkId,
    /// New state: `true` brings the link up, `false` takes it down.
    pub up: bool,
}

/// A boot storm: workload slots start in `waves` staggered waves,
/// `stagger_ns` apart, instead of (nearly) simultaneously. Slot `s`
/// belongs to wave `s % waves`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootStorm {
    /// Number of boot waves (0 behaves as 1: no stagger).
    pub waves: u32,
    /// Delay between consecutive waves in ns.
    pub stagger_ns: u64,
}

impl BootStorm {
    /// The boot-time offset for workload slot `slot`.
    pub fn offset_for(&self, slot: u16) -> u64 {
        (slot as u64 % self.waves.max(1) as u64) * self.stagger_ns
    }
}

/// A deterministic fault schedule: time-sorted link-state changes and
/// reboots plus an optional boot-storm descriptor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sorted by `(at_ns, link, up)`, exact duplicates removed.
    events: Vec<FaultEvent>,
    /// Sorted by `(at_ns, node)`, exact duplicates removed.
    reboots: Vec<(u64, SwitchId)>,
    boot_storm: Option<BootStorm>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules taking `link` down at `at_ns`.
    pub fn down(&mut self, link: LinkId, at_ns: u64) -> &mut Self {
        self.insert(FaultEvent {
            at_ns,
            link,
            up: false,
        });
        self
    }

    /// Schedules bringing `link` up at `at_ns`.
    pub fn up(&mut self, link: LinkId, at_ns: u64) -> &mut Self {
        self.insert(FaultEvent {
            at_ns,
            link,
            up: true,
        });
        self
    }

    /// Schedules one down/up flap of `link`.
    ///
    /// # Panics
    ///
    /// Panics unless `up_at_ns > down_at_ns`.
    pub fn flap(&mut self, link: LinkId, down_at_ns: u64, up_at_ns: u64) -> &mut Self {
        assert!(up_at_ns > down_at_ns, "flap must recover after it fails");
        self.down(link, down_at_ns).up(link, up_at_ns)
    }

    /// Schedules a correlated group flap: every link in `links` fails and
    /// recovers at the same two instants (a shared conduit or line card).
    pub fn correlated_flap(
        &mut self,
        links: &[LinkId],
        down_at_ns: u64,
        up_at_ns: u64,
    ) -> &mut Self {
        for &link in links {
            self.flap(link, down_at_ns, up_at_ns);
        }
        self
    }

    /// Schedules the failure and recovery of every link terminating at
    /// `sw` — whole-switch failure as the network sees it (fail-stop: the
    /// switch's own state is untouched, its links just go dark).
    pub fn switch_failure(
        &mut self,
        topology: &Topology,
        sw: SwitchId,
        down_at_ns: u64,
        recover_at_ns: u64,
    ) -> &mut Self {
        let links: Vec<LinkId> = links_of(topology, sw).collect();
        assert!(!links.is_empty(), "switch {sw} has no links to fail");
        self.correlated_flap(&links, down_at_ns, recover_at_ns)
    }

    /// Schedules the failure and recovery of fat-tree pod `pod`: every
    /// link terminating at one of the pod's aggregation or edge switches
    /// (host links and core uplinks included) goes down together.
    pub fn pod_failure(
        &mut self,
        topology: &Topology,
        ft: &FatTree,
        pod: u16,
        down_at_ns: u64,
        recover_at_ns: u64,
    ) -> &mut Self {
        for i in 0..ft.k() / 2 {
            self.switch_failure(topology, ft.agg(pod, i), down_at_ns, recover_at_ns);
            self.switch_failure(topology, ft.edge(pod, i), down_at_ns, recover_at_ns);
        }
        self
    }

    /// Schedules a reboot of `node` at `at_ns`: the node comes back at once
    /// with nothing it held — a switch's registers, keys, sequence
    /// counters and replay windows start empty — and every node hears of
    /// it ([`crate::sim::TopologyEvent::NodeRebooted`]). Its links stay as
    /// they are; pair it with [`FaultPlan::switch_failure`] for a reboot
    /// that also takes them dark.
    pub fn reboot(&mut self, node: SwitchId, at_ns: u64) -> &mut Self {
        let idx = self.reboots.partition_point(|&r| r <= (at_ns, node));
        if idx == 0 || self.reboots[idx - 1] != (at_ns, node) {
            self.reboots.insert(idx, (at_ns, node));
        }
        self
    }

    /// The scheduled reboots as `(at_ns, node)`, time-sorted.
    pub fn reboots(&self) -> &[(u64, SwitchId)] {
        &self.reboots
    }

    /// Attaches a boot-storm descriptor (staggered workload start).
    pub fn with_boot_storm(&mut self, waves: u32, stagger_ns: u64) -> &mut Self {
        self.boot_storm = Some(BootStorm { waves, stagger_ns });
        self
    }

    /// The boot-storm descriptor, if any.
    pub fn boot_storm(&self) -> Option<BootStorm> {
        self.boot_storm
    }

    /// The normalized schedule: sorted by `(at_ns, link, up)` with exact
    /// duplicates removed (a pod failure and a correlated flap may name
    /// the same link at the same instant).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no link-state change and no reboot.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.reboots.is_empty()
    }

    /// Number of scheduled link-state changes and reboots.
    pub fn len(&self) -> usize {
        self.events.len() + self.reboots.len()
    }

    /// Time of the last scheduled change or reboot, if any.
    pub fn horizon_ns(&self) -> Option<u64> {
        let last_change = self.events.last().map(|e| e.at_ns);
        let last_reboot = self.reboots.last().map(|&(at, _)| at);
        last_change.max(last_reboot)
    }

    /// Sorted-insert keeping `(at_ns, link, up)` order, dropping exact
    /// duplicates — so the schedule is independent of builder call order.
    fn insert(&mut self, ev: FaultEvent) {
        let key = |e: &FaultEvent| (e.at_ns, e.link.0, e.up);
        let idx = self.events.partition_point(|e| key(e) <= key(&ev));
        if idx > 0 && self.events[idx - 1] == ev {
            return;
        }
        self.events.insert(idx, ev);
    }
}

/// Every link terminating at `sw`.
fn links_of(topology: &Topology, sw: SwitchId) -> impl Iterator<Item = LinkId> + '_ {
    topology
        .links()
        .iter()
        .enumerate()
        .filter(move |(_, l)| l.a.node == sw || l.b.node == sw)
        .map(|(i, _)| LinkId(i as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_sorted_and_deduped() {
        let ft = FatTree::new(4);
        let t = ft.build(1_000);
        let mut plan = FaultPlan::new();
        plan.flap(LinkId(5), 2_000, 9_000)
            .flap(LinkId(1), 1_000, 4_000)
            .flap(LinkId(5), 2_000, 9_000); // exact duplicate
        assert_eq!(plan.len(), 4);
        let ats: Vec<u64> = plan.events().iter().map(|e| e.at_ns).collect();
        assert_eq!(ats, vec![1_000, 2_000, 4_000, 9_000]);
        assert_eq!(plan.horizon_ns(), Some(9_000));

        // Pod failure covers agg + edge links exactly once each.
        let mut pod = FaultPlan::new();
        pod.pod_failure(&t, &ft, 0, 10_000, 20_000);
        // Pod 0 at k=4: 2 edges × (2 host + 2 agg links) + 2 aggs × 2 core
        // uplinks = 12 links, two events each.
        assert_eq!(pod.len(), 24);
        assert!(pod
            .events()
            .windows(2)
            .all(|w| { (w[0].at_ns, w[0].link.0, w[0].up) <= (w[1].at_ns, w[1].link.0, w[1].up) }));
    }

    #[test]
    fn switch_failure_touches_every_incident_link() {
        let ft = FatTree::new(4);
        let t = ft.build(1_000);
        let mut plan = FaultPlan::new();
        plan.switch_failure(&t, ft.edge(1, 0), 5_000, 6_000);
        // An edge switch has k = 4 links (2 hosts below, 2 aggs above).
        assert_eq!(plan.len(), 8);
        for ev in plan.events() {
            let l = t.link(ev.link).unwrap();
            assert!(l.a.node == ft.edge(1, 0) || l.b.node == ft.edge(1, 0));
        }
    }

    #[test]
    fn boot_storm_offsets_cycle_through_waves() {
        let storm = BootStorm {
            waves: 4,
            stagger_ns: 1_000_000,
        };
        assert_eq!(storm.offset_for(0), 0);
        assert_eq!(storm.offset_for(1), 1_000_000);
        assert_eq!(storm.offset_for(5), 1_000_000);
        assert_eq!(storm.offset_for(7), 3_000_000);
        // Degenerate wave count never divides by zero.
        let one = BootStorm {
            waves: 0,
            stagger_ns: 500,
        };
        assert_eq!(one.offset_for(9), 0);
    }
}
