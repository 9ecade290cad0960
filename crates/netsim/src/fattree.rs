//! k-ary fat-tree (Clos) topology layout and deterministic ECMP routing.
//!
//! This is the scale path for the simulator: the paper's threat model is
//! about fleets of programmable switches, and a fat-tree is the standard
//! way to get hundreds of them with realistic path diversity. The layout
//! is purely arithmetic — every switch id, port number and next hop is
//! computable from `k` — so forwarding nodes need no routing tables and
//! the whole construction stays deterministic.
//!
//! # Layout
//!
//! For even `k`, the tree has `(k/2)²` core switches, `k` pods of `k/2`
//! aggregation and `k/2` edge switches, and `k/2` hosts per edge switch
//! (`k³/4` hosts). Switch ids are assigned contiguously from 1 (cores,
//! then aggregation pod-major, then edge pod-major); hosts start at
//! [`HOST_ID_BASE`], which is why `k` is capped at 16 (320 switches).
//!
//! Port conventions (1-based, fits `PortId`'s `u8` for all supported `k`):
//!
//! * edge switch: ports `1..=k/2` face hosts, ports `k/2+1..=k` face the
//!   pod's aggregation switches
//! * aggregation switch: ports `1..=k/2` face the pod's edge switches,
//!   ports `k/2+1..=k` face its core group
//! * core switch: port `p+1` faces pod `p`
//! * host: port 1 faces its edge switch

use crate::topology::{Endpoint, Topology, HOST_ID_BASE};
use p4auth_wire::ids::{PortId, SwitchId};

/// A `k`-ary fat-tree layout: pure arithmetic over `k`, cheap to copy
/// around (traffic generators and forwarding nodes each keep one).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FatTree {
    k: u16,
}

/// Where a node sits in the tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Core(u16),
    /// `(pod, index within pod)`.
    Agg(u16, u16),
    /// `(pod, index within pod)`.
    Edge(u16, u16),
    Host(u16),
}

impl FatTree {
    /// Creates the layout for arity `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and `2 ≤ k ≤ 16` (the cap keeps every
    /// switch id below [`HOST_ID_BASE`] and every port in `u8`).
    pub fn new(k: u16) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and >= 2"
        );
        assert!(k <= 16, "fat-tree arity capped at 16");
        FatTree { k }
    }

    /// The arity.
    pub fn k(&self) -> u16 {
        self.k
    }

    fn half(&self) -> u16 {
        self.k / 2
    }

    /// Number of core switches: `(k/2)²`.
    pub fn core_count(&self) -> u16 {
        self.half() * self.half()
    }

    /// Number of aggregation switches: `k²/2`.
    pub fn agg_count(&self) -> u16 {
        self.k * self.half()
    }

    /// Number of edge switches: `k²/2`.
    pub fn edge_count(&self) -> u16 {
        self.k * self.half()
    }

    /// Total switches: `5k²/4`.
    pub fn switch_count(&self) -> u16 {
        self.core_count() + self.agg_count() + self.edge_count()
    }

    /// Number of hosts: `k³/4`.
    pub fn host_count(&self) -> u16 {
        self.k * self.half() * self.half()
    }

    /// Hosts attached below one pod: `(k/2)²`.
    fn hosts_per_pod(&self) -> u16 {
        self.half() * self.half()
    }

    /// The `i`-th core switch.
    pub fn core(&self, i: u16) -> SwitchId {
        debug_assert!(i < self.core_count());
        SwitchId::new(1 + i)
    }

    /// Aggregation switch `i` of `pod`.
    pub fn agg(&self, pod: u16, i: u16) -> SwitchId {
        debug_assert!(pod < self.k && i < self.half());
        SwitchId::new(1 + self.core_count() + pod * self.half() + i)
    }

    /// Edge switch `i` of `pod`.
    pub fn edge(&self, pod: u16, i: u16) -> SwitchId {
        debug_assert!(pod < self.k && i < self.half());
        SwitchId::new(1 + self.core_count() + self.agg_count() + pod * self.half() + i)
    }

    /// The `h`-th host (`h < k³/4`).
    pub fn host(&self, h: u16) -> SwitchId {
        debug_assert!(h < self.host_count());
        SwitchId::new(HOST_ID_BASE + h)
    }

    /// The host index of `id`, if it is a host of this tree.
    pub fn host_index(&self, id: SwitchId) -> Option<u16> {
        let v = id.value();
        (HOST_ID_BASE..HOST_ID_BASE + self.host_count())
            .contains(&v)
            .then(|| v - HOST_ID_BASE)
    }

    fn classify(&self, id: SwitchId) -> Option<Role> {
        if let Some(h) = self.host_index(id) {
            return Some(Role::Host(h));
        }
        let v = id.value();
        if v == 0 || v > self.switch_count() {
            return None;
        }
        let mut i = v - 1;
        if i < self.core_count() {
            return Some(Role::Core(i));
        }
        i -= self.core_count();
        if i < self.agg_count() {
            return Some(Role::Agg(i / self.half(), i % self.half()));
        }
        i -= self.agg_count();
        Some(Role::Edge(i / self.half(), i % self.half()))
    }

    /// Builds the topology with uniform one-way `latency_ns` on every
    /// link.
    pub fn build(&self, latency_ns: u64) -> Topology {
        let (k, half) = (self.k, self.half());
        let mut t = Topology::new();
        let links = self.host_count() as usize + (self.agg_count() as usize * half as usize) * 2;
        t.reserve(
            self.host(self.host_count() - 1),
            self.switch_count() as usize + self.host_count() as usize,
            links,
        );
        for i in 0..self.core_count() {
            t.add_node(self.core(i)).unwrap();
        }
        for pod in 0..k {
            for i in 0..half {
                t.add_node(self.agg(pod, i)).unwrap();
            }
        }
        for pod in 0..k {
            for i in 0..half {
                t.add_node(self.edge(pod, i)).unwrap();
            }
        }
        for h in 0..self.host_count() {
            t.add_node(self.host(h)).unwrap();
        }
        for pod in 0..k {
            for e in 0..half {
                let edge = self.edge(pod, e);
                // Hosts below this edge switch.
                for h in 0..half {
                    let host = self.host(pod * self.hosts_per_pod() + e * half + h);
                    t.add_link(
                        Endpoint::new(edge, PortId::new((h + 1) as u8)),
                        Endpoint::new(host, PortId::new(1)),
                        latency_ns,
                    )
                    .unwrap();
                }
                // Full mesh to the pod's aggregation layer.
                for a in 0..half {
                    t.add_link(
                        Endpoint::new(edge, PortId::new((half + 1 + a) as u8)),
                        Endpoint::new(self.agg(pod, a), PortId::new((e + 1) as u8)),
                        latency_ns,
                    )
                    .unwrap();
                }
            }
            // Aggregation switch `a` owns core group `a*k/2 .. (a+1)*k/2`.
            for a in 0..half {
                for j in 0..half {
                    t.add_link(
                        Endpoint::new(self.agg(pod, a), PortId::new((half + 1 + j) as u8)),
                        Endpoint::new(self.core(a * half + j), PortId::new((pod + 1) as u8)),
                        latency_ns,
                    )
                    .unwrap();
                }
            }
        }
        t
    }

    /// The egress port `at` should use to move a frame towards `dst_host`,
    /// or `None` if either id is not part of the tree (or `dst_host` is
    /// not a host). `flow` seeds the deterministic ECMP choice on the
    /// upward legs — equal `flow` values always take the same path.
    pub fn next_hop(&self, at: SwitchId, dst_host: SwitchId, flow: u64) -> Option<PortId> {
        self.next_hop_avoiding(at, dst_host, flow, |_| false)
    }

    /// [`FatTree::next_hop`] with failure awareness: `is_down` reports
    /// ports whose link the caller believes is dead. On the upward ECMP
    /// legs (edge and aggregation towards a remote pod) the flow's
    /// primary choice rotates through the other uplinks until a live one
    /// is found — re-routing around link and switch failures while
    /// staying deterministic (the detour depends only on `flow` and the
    /// down set). Single-path legs (downward, host access) have no
    /// alternative; those and a fully-dead uplink fan return the primary
    /// port, leaving the frame to die at the link as a counted loss.
    #[inline]
    pub fn next_hop_avoiding(
        &self,
        at: SwitchId,
        dst_host: SwitchId,
        flow: u64,
        is_down: impl Fn(PortId) -> bool,
    ) -> Option<PortId> {
        let half = self.half();
        let d = self.host_index(dst_host)?;
        let pod_d = d / self.hosts_per_pod();
        let in_pod = d % self.hosts_per_pod();
        let edge_d = in_pod / half;
        let host_d = in_pod % half;
        let upward = |flow: u64| {
            let primary = (flow % half as u64) as u16;
            (0..half)
                .map(|i| PortId::new((half + 1 + (primary + i) % half) as u8))
                .find(|&p| !is_down(p))
                .unwrap_or(PortId::new((half + 1 + primary) as u8))
        };
        let port = match self.classify(at)? {
            Role::Host(_) => PortId::new(1),
            Role::Edge(pod, e) if pod == pod_d && e == edge_d => PortId::new((host_d + 1) as u8),
            Role::Edge(..) => upward(flow),
            Role::Agg(pod, _) if pod == pod_d => PortId::new((edge_d + 1) as u8),
            Role::Agg(..) => upward(flow),
            Role::Core(_) => PortId::new((pod_d + 1) as u8),
        };
        Some(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_shape() {
        let ft = FatTree::new(4);
        assert_eq!(ft.core_count(), 4);
        assert_eq!(ft.agg_count(), 8);
        assert_eq!(ft.edge_count(), 8);
        assert_eq!(ft.switch_count(), 20);
        assert_eq!(ft.host_count(), 16);
        let t = ft.build(1_000);
        assert_eq!(t.nodes().len(), 36);
        // 16 host links + 16 edge–agg + 16 agg–core.
        assert_eq!(t.links().len(), 48);
        assert_eq!(t.min_link_latency_ns(), Some(1_000));
        // Every switch uses exactly k ports, every host exactly one.
        for pod in 0..4 {
            for i in 0..2 {
                assert_eq!(t.neighbors(ft.edge(pod, i)).len(), 4);
                assert_eq!(t.neighbors(ft.agg(pod, i)).len(), 4);
            }
        }
        for c in 0..4 {
            assert_eq!(t.neighbors(ft.core(c)).len(), 4);
        }
        for h in 0..16 {
            assert_eq!(t.neighbors(ft.host(h)).len(), 1);
        }
    }

    #[test]
    fn k16_ids_stay_below_host_base() {
        let ft = FatTree::new(16);
        assert_eq!(ft.switch_count(), 320);
        assert_eq!(ft.host_count(), 1_024);
        assert!(ft.edge(15, 7).value() < HOST_ID_BASE);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_arity_rejected() {
        FatTree::new(3);
    }

    /// Walk next_hop from every host to every other host and check the
    /// frame arrives in a bounded number of hops, for several flow seeds.
    #[test]
    fn routing_reaches_every_host_pair() {
        let ft = FatTree::new(4);
        let t = ft.build(100);
        for flow in [0u64, 1, 7] {
            for src in 0..ft.host_count() {
                for dst in 0..ft.host_count() {
                    if src == dst {
                        continue;
                    }
                    let target = ft.host(dst);
                    let mut at = ft.host(src);
                    let mut hops = 0;
                    while at != target {
                        let port = ft.next_hop(at, target, flow).unwrap();
                        let (_, next) = t
                            .deliver_target(at, port)
                            .unwrap_or_else(|| panic!("no link out of {at}:{port} (dst {target})"));
                        at = next.node;
                        hops += 1;
                        assert!(hops <= 6, "{} -> {} looped", ft.host(src), target);
                    }
                }
            }
        }
    }

    #[test]
    fn ecmp_reroutes_around_down_uplinks() {
        let ft = FatTree::new(4);
        let edge = ft.edge(0, 0);
        let far = ft.host(15);
        // Flow 0's primary uplink is port 3 (half+1); declare it dead and
        // the rotation must pick the other uplink, port 4.
        let primary = ft.next_hop(edge, far, 0).unwrap();
        assert_eq!(primary, PortId::new(3));
        let detour = ft
            .next_hop_avoiding(edge, far, 0, |p| p == PortId::new(3))
            .unwrap();
        assert_eq!(detour, PortId::new(4));
        // Every uplink dead: fall back to the primary (a counted loss at
        // the link, not a panic or a loop downward).
        let stuck = ft.next_hop_avoiding(edge, far, 0, |_| true).unwrap();
        assert_eq!(stuck, primary);
        // Downward legs are single-path: the dead set cannot change them.
        let agg = ft.agg(3, 1);
        let down = ft.next_hop(agg, far, 0).unwrap();
        assert_eq!(ft.next_hop_avoiding(agg, far, 0, |_| true).unwrap(), down);
    }

    #[test]
    fn ecmp_spreads_by_flow() {
        let ft = FatTree::new(4);
        // From an edge switch going up, different flows should hit
        // different aggregation ports.
        let edge = ft.edge(0, 0);
        let far = ft.host(15);
        let p0 = ft.next_hop(edge, far, 0).unwrap();
        let p1 = ft.next_hop(edge, far, 1).unwrap();
        assert_ne!(p0, p1);
        // Unknown destinations and foreign nodes are rejected.
        assert!(ft.next_hop(edge, SwitchId::new(999), 0).is_none());
        assert!(ft.next_hop(SwitchId::new(999), far, 0).is_none());
    }
}
