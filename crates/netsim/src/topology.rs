//! Network topology: nodes, links and port mappings.

use p4auth_wire::ids::{PortId, SwitchId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// First node id used for hosts in generated topologies (see
/// [`Topology::fat_tree`]); ids below this are switches or the controller.
pub const HOST_ID_BASE: u16 = 1000;

/// Identifies a link (index into the topology's link list).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// One endpoint of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Endpoint {
    /// The node.
    pub node: SwitchId,
    /// The node's port on this link.
    pub port: PortId,
}

impl Endpoint {
    /// Creates an endpoint.
    pub const fn new(node: SwitchId, port: PortId) -> Self {
        Endpoint { node, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

/// A bidirectional link between two endpoints.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Link {
    /// First endpoint.
    pub a: Endpoint,
    /// Second endpoint.
    pub b: Endpoint,
    /// One-way propagation latency in nanoseconds.
    pub latency_ns: u64,
    /// Link capacity in bits per second; `None` models an infinitely fast
    /// link (no serialization delay or queueing).
    pub bandwidth_bps: Option<u64>,
    /// Whether the link is currently up.
    pub up: bool,
}

impl Link {
    /// Serialization time of a frame of `bytes` on this link (0 for
    /// unconstrained links).
    pub fn serialization_ns(&self, bytes: usize) -> u64 {
        match self.bandwidth_bps {
            Some(bps) if bps > 0 => (bytes as u64 * 8).saturating_mul(1_000_000_000) / bps,
            _ => 0,
        }
    }
}

/// A connected port's entry in the port table: its link, the endpoint a
/// frame sent from it arrives at, and the link direction it sends on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PortLink {
    pub(crate) link: LinkId,
    pub(crate) far: Endpoint,
    /// Whether this port is the link's `b` end.
    from_b: bool,
}

impl PortLink {
    /// The index of this port's sending direction in per-direction
    /// tables: `link * 2`, plus 1 from the link's `b` end.
    pub(crate) fn slot(self) -> usize {
        self.link.0 as usize * 2 + usize::from(self.from_b)
    }
}

/// Error when topology construction is inconsistent.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// Node added twice.
    DuplicateNode(SwitchId),
    /// Link endpoint references an unknown node.
    UnknownNode(SwitchId),
    /// Port already connected to a different link.
    PortInUse(Endpoint),
    /// Both ends of a link on one node.
    SelfLink(SwitchId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateNode(n) => write!(f, "node {n} added twice"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::PortInUse(e) => write!(f, "port {e} already connected"),
            TopologyError::SelfLink(n) => write!(f, "link from {n} to itself"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The network graph.
///
/// Nodes and links are lists; a port table, one row per node, answers
/// "is this a node", "which link is on this port, and where does it
/// lead" and "who are this node's neighbours" by indexing, without a
/// hash or a scan of either list. The simulator routes every frame by
/// the same table.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<SwitchId>,
    links: Vec<Link>,
    /// `ports[raw node id][port]`, with `None` for an id no node has and
    /// each row as long as its highest connected port.
    ports: Vec<Option<Vec<Option<PortLink>>>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Whether `node` is in the topology.
    pub fn contains(&self, node: SwitchId) -> bool {
        self.row(node).is_some()
    }

    /// `node`'s port row, if it is a node.
    fn row(&self, node: SwitchId) -> Option<&[Option<PortLink>]> {
        self.ports.get(node.value() as usize)?.as_deref()
    }

    /// The link on `node`:`port` and where it leads, up or down.
    pub(crate) fn port_link(&self, node: SwitchId, port: PortId) -> Option<PortLink> {
        *self.row(node)?.get(port.value() as usize)?
    }

    /// Adds a node.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateNode`] if already present.
    pub fn add_node(&mut self, node: SwitchId) -> Result<(), TopologyError> {
        let raw = node.value() as usize;
        if self.ports.len() <= raw {
            self.ports.resize(raw + 1, None);
        }
        if self.ports[raw].is_some() {
            return Err(TopologyError::DuplicateNode(node));
        }
        self.ports[raw] = Some(Vec::new());
        self.nodes.push(node);
        Ok(())
    }

    /// Adds a link between two node ports with one-way latency.
    ///
    /// # Errors
    ///
    /// Returns an error for a link from a node to itself, unknown nodes
    /// or ports already in use.
    pub fn add_link(
        &mut self,
        a: Endpoint,
        b: Endpoint,
        latency_ns: u64,
    ) -> Result<LinkId, TopologyError> {
        if a.node == b.node {
            return Err(TopologyError::SelfLink(a.node));
        }
        for ep in [a, b] {
            if !self.contains(ep.node) {
                return Err(TopologyError::UnknownNode(ep.node));
            }
            if self.port_link(ep.node, ep.port).is_some() {
                return Err(TopologyError::PortInUse(ep));
            }
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            latency_ns,
            bandwidth_bps: None,
            up: true,
        });
        for (near, far, from_b) in [(a, b, false), (b, a, true)] {
            // Both rows exist: the nodes were checked above.
            if let Some(row) = &mut self.ports[near.node.value() as usize] {
                let port = near.port.value() as usize;
                if row.len() <= port {
                    row.resize(port + 1, None);
                }
                row[port] = Some(PortLink {
                    link: id,
                    far,
                    from_b,
                });
            }
        }
        Ok(id)
    }

    /// Sets a link's capacity (bits/s). Frames then experience
    /// serialization delay and FIFO queueing per direction.
    ///
    /// # Panics
    ///
    /// Panics on an unknown link id or zero bandwidth.
    pub fn set_bandwidth(&mut self, id: LinkId, bits_per_second: u64) {
        assert!(bits_per_second > 0, "bandwidth must be positive");
        self.links[id.0 as usize].bandwidth_bps = Some(bits_per_second);
    }

    /// Pre-sizes the port table for node ids up to `last_node`, and the
    /// node and link lists for `nodes` more nodes and `links` more links
    /// (generated topologies know their final shape up front).
    pub fn reserve(&mut self, last_node: SwitchId, nodes: usize, links: usize) {
        let ids = last_node.value() as usize + 1;
        self.ports
            .reserve_exact(ids.saturating_sub(self.ports.len()));
        self.nodes.reserve(nodes);
        self.links.reserve(links);
    }

    /// All nodes.
    pub fn nodes(&self) -> &[SwitchId] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of switch nodes (excluding the controller).
    pub fn switch_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_controller()).count()
    }

    /// A link by id.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.0 as usize)
    }

    /// The link attached to `node`:`port`, if any.
    pub fn link_at(&self, node: SwitchId, port: PortId) -> Option<(LinkId, &Link)> {
        let id = self.port_link(node, port)?.link;
        Some((id, &self.links[id.0 as usize]))
    }

    /// Where a frame sent from `node`:`port` arrives: the opposite
    /// endpoint, if the link exists and is up.
    pub fn deliver_target(&self, node: SwitchId, port: PortId) -> Option<(LinkId, Endpoint)> {
        let p = self.port_link(node, port)?;
        self.links[p.link.0 as usize].up.then_some((p.link, p.far))
    }

    /// Marks a link up or down. Returns the previous state.
    ///
    /// # Panics
    ///
    /// Panics on an unknown link id.
    pub fn set_link_state(&mut self, id: LinkId, up: bool) -> bool {
        let link = &mut self.links[id.0 as usize];
        std::mem::replace(&mut link.up, up)
    }

    /// The smallest positive one-way link latency, if any link has one.
    /// This is the floor on how far apart causally related events can be,
    /// which makes it the natural calendar-queue bucket width.
    pub fn min_link_latency_ns(&self) -> Option<u64> {
        self.links
            .iter()
            .map(|l| l.latency_ns)
            .filter(|&l| l > 0)
            .min()
    }

    /// The neighbours of `node` over up links: `(local port, neighbour)`,
    /// in port order.
    pub fn neighbors(&self, node: SwitchId) -> Vec<(PortId, Endpoint)> {
        self.row(node)
            .unwrap_or_default()
            .iter()
            .enumerate()
            .filter_map(|(port, p)| {
                let p = (*p)?;
                self.links[p.link.0 as usize]
                    .up
                    .then_some((PortId::new(port as u8), p.far))
            })
            .collect()
    }

    /// Builds a chain `S1 – S2 – … – Sn` with the controller attached to
    /// every switch (the Fig. 21 scalability topology). Switch ports:
    /// port 1 faces the previous switch, port 2 the next.
    ///
    /// `dp_latency_ns` applies to DP-DP links, `cp_latency_ns` to C-DP
    /// links.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `n > 256`: the controller has one port
    /// per switch, and switch 257 would reuse switch 1's.
    pub fn chain(n: u16, dp_latency_ns: u64, cp_latency_ns: u64) -> Self {
        assert!(n > 0, "chain needs at least one switch");
        let mut t = Topology::new();
        t.reserve(SwitchId::new(n), n as usize + 1, 2 * n as usize - 1);
        t.add_node(SwitchId::CONTROLLER).unwrap();
        for i in 1..=n {
            t.add_node(SwitchId::new(i)).unwrap();
        }
        for i in 1..n {
            t.add_link(
                Endpoint::new(SwitchId::new(i), PortId::new(2)),
                Endpoint::new(SwitchId::new(i + 1), PortId::new(1)),
                dp_latency_ns,
            )
            .unwrap();
        }
        for i in 1..=n {
            // C-DP control channel modelled as port 63.
            t.add_link(
                Endpoint::new(SwitchId::new(i), PortId::new(63)),
                Endpoint::new(SwitchId::CONTROLLER, PortId::new((i - 1) as u8)),
                cp_latency_ns,
            )
            .unwrap();
        }
        t
    }

    /// Builds a `k`-ary fat-tree (Clos) data-plane topology with uniform
    /// link latency: `(k/2)²` core switches, `k` pods of `k/2` aggregation
    /// and `k/2` edge switches each, and `k/2` hosts per edge switch
    /// (`k³/4` hosts total, ids starting at [`HOST_ID_BASE`]). See
    /// [`crate::fattree::FatTree`] for the id/port layout and the
    /// deterministic ECMP routing helper.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and `2 ≤ k ≤ 16`.
    pub fn fat_tree(k: u16, latency_ns: u64) -> Self {
        crate::fattree::FatTree::new(k).build(latency_ns)
    }

    /// A [`Topology::fat_tree`] with the controller attached to every
    /// switch, the same way [`Topology::chain`] does it: switch port 63
    /// is the C-DP control channel, landing on controller port `i − 1`
    /// for switch `i`. `latency_ns` applies to the data-plane links,
    /// `cp_latency_ns` to the control channels.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and `2 ≤ k ≤ 14` (the controller has
    /// at most 256 ports, one per switch; `k = 16` has 320 switches).
    pub fn fat_tree_with_controller(k: u16, latency_ns: u64, cp_latency_ns: u64) -> Self {
        let mut t = Topology::fat_tree(k, latency_ns);
        // Hosts are nodes too, but only switches get a control channel.
        let switches = crate::fattree::FatTree::new(k).switch_count();
        assert!(
            switches <= 256,
            "fat_tree({k}) has {switches} switches; the controller has 256 ports"
        );
        t.add_node(SwitchId::CONTROLLER).unwrap();
        for i in 1..=switches {
            t.add_link(
                Endpoint::new(SwitchId::new(i), PortId::new(63)),
                Endpoint::new(SwitchId::CONTROLLER, PortId::new((i - 1) as u8)),
                cp_latency_ns,
            )
            .unwrap();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switches() -> (Topology, LinkId) {
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        t.add_node(SwitchId::new(2)).unwrap();
        let l = t
            .add_link(
                Endpoint::new(SwitchId::new(1), PortId::new(1)),
                Endpoint::new(SwitchId::new(2), PortId::new(1)),
                1_000,
            )
            .unwrap();
        (t, l)
    }

    #[test]
    fn link_delivery_target() {
        let (t, id) = two_switches();
        let (lid, ep) = t.deliver_target(SwitchId::new(1), PortId::new(1)).unwrap();
        assert_eq!(lid, id);
        assert_eq!(ep, Endpoint::new(SwitchId::new(2), PortId::new(1)));
        assert!(t.deliver_target(SwitchId::new(1), PortId::new(9)).is_none());
    }

    #[test]
    fn down_links_do_not_deliver() {
        let (mut t, id) = two_switches();
        assert!(t.set_link_state(id, false));
        assert!(t.deliver_target(SwitchId::new(1), PortId::new(1)).is_none());
        assert!(!t.set_link_state(id, true));
        assert!(t.deliver_target(SwitchId::new(1), PortId::new(1)).is_some());
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        assert_eq!(
            t.add_node(SwitchId::new(1)).unwrap_err(),
            TopologyError::DuplicateNode(SwitchId::new(1))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        let err = t
            .add_link(
                Endpoint::new(SwitchId::new(1), PortId::new(1)),
                Endpoint::new(SwitchId::new(9), PortId::new(1)),
                10,
            )
            .unwrap_err();
        assert_eq!(err, TopologyError::UnknownNode(SwitchId::new(9)));
    }

    #[test]
    fn port_reuse_rejected() {
        let (mut t, _) = two_switches();
        t.add_node(SwitchId::new(3)).unwrap();
        let err = t
            .add_link(
                Endpoint::new(SwitchId::new(1), PortId::new(1)),
                Endpoint::new(SwitchId::new(3), PortId::new(1)),
                10,
            )
            .unwrap_err();
        assert!(matches!(err, TopologyError::PortInUse(_)));
        assert_eq!(err.to_string(), "port S1:p1 already connected");
    }

    /// A link from a node to itself has no far end to deliver to, and
    /// its two directions would share one tap and transmitter slot.
    #[test]
    fn self_link_rejected() {
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        for (pa, pb) in [(1, 2), (3, 3)] {
            let err = t
                .add_link(
                    Endpoint::new(SwitchId::new(1), PortId::new(pa)),
                    Endpoint::new(SwitchId::new(1), PortId::new(pb)),
                    10,
                )
                .unwrap_err();
            assert_eq!(err.to_string(), "link from S1 to itself");
        }
        assert!(t.links().is_empty());
        assert!(t.link_at(SwitchId::new(1), PortId::new(1)).is_none());
    }

    #[test]
    fn neighbors_sorted_by_port() {
        let mut t = Topology::new();
        for i in 1..=4 {
            t.add_node(SwitchId::new(i)).unwrap();
        }
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(3)),
            Endpoint::new(SwitchId::new(4), PortId::new(1)),
            10,
        )
        .unwrap();
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(1)),
            Endpoint::new(SwitchId::new(2), PortId::new(1)),
            10,
        )
        .unwrap();
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(2)),
            Endpoint::new(SwitchId::new(3), PortId::new(1)),
            10,
        )
        .unwrap();
        let n = t.neighbors(SwitchId::new(1));
        assert_eq!(n.len(), 3);
        assert_eq!(n[0].0, PortId::new(1));
        assert_eq!(n[0].1.node, SwitchId::new(2));
        assert_eq!(n[2].1.node, SwitchId::new(4));
    }

    #[test]
    fn chain_topology_shape() {
        let t = Topology::chain(5, 1_000, 50_000);
        assert_eq!(t.switch_count(), 5);
        // 4 DP-DP links + 5 C-DP links.
        assert_eq!(t.links().len(), 9);
        // S3 sees S2 on port 1 and S4 on port 2.
        let n = t.neighbors(SwitchId::new(3));
        let dp: Vec<_> = n.iter().filter(|(_, e)| !e.node.is_controller()).collect();
        assert_eq!(dp.len(), 2);
        assert_eq!(dp[0].1.node, SwitchId::new(2));
        assert_eq!(dp[1].1.node, SwitchId::new(4));
    }

    #[test]
    #[should_panic(expected = "at least one switch")]
    fn empty_chain_rejected() {
        let _ = Topology::chain(0, 1, 1);
    }

    #[test]
    fn fat_tree_with_controller_wires_every_switch_but_no_host() {
        let plain = Topology::fat_tree(4, 1_000);
        let t = Topology::fat_tree_with_controller(4, 1_000, 50_000);
        // 20 switches gain one C-DP link each; 16 hosts gain none.
        assert_eq!(t.links().len(), plain.links().len() + 20);
        assert_eq!(t.nodes().len(), plain.nodes().len() + 1);
        for i in 1..=20u16 {
            let (_, link) = t
                .link_at(SwitchId::new(i), PortId::new(63))
                .expect("C-DP link");
            let (_, ctrl) = t.deliver_target(SwitchId::new(i), PortId::new(63)).unwrap();
            assert_eq!(ctrl.node, SwitchId::CONTROLLER);
            assert_eq!(ctrl.port, PortId::new((i - 1) as u8));
            assert_eq!(link.latency_ns, 50_000);
        }
        assert!(t
            .link_at(SwitchId::new(HOST_ID_BASE), PortId::new(63))
            .is_none());
    }
}
