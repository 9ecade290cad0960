//! Differential property test: [`Topology`]'s dense port table against a
//! test-local copy of the lists-and-hash-map topology it replaced.
//!
//! Random `add_node` / `add_link` sequences with duplicate nodes, links to
//! unknown nodes, ports already in use and links from a node to itself
//! (on one port or two, refused by both), interleaved with links going
//! down and up, must give the same `Result`s, and then the same
//! `link_at`, `deliver_target` and `neighbors` answers for every
//! endpoint, known or not.
//!
//! The file also counts what building a controller-attached fat tree
//! allocates: each port row is sized once from the builder's port count.
//! The allocation counter is per process, so the file's two tests take
//! one lock and run one at a time.

use p4auth_netsim::topology::{Endpoint, Link, LinkId, Topology, TopologyError};
use p4auth_telemetry::alloc::{allocations, CountingAlloc};
use p4auth_wire::ids::{PortId, SwitchId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by each test of this file for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// The model: the node list searched by `Vec::contains`, a
/// `HashMap<Endpoint, LinkId>` for ports, and `neighbors` as a scan of
/// every link sorted by port.
#[derive(Default)]
struct ListTopology {
    nodes: Vec<SwitchId>,
    links: Vec<Link>,
    port_map: HashMap<Endpoint, LinkId>,
}

impl ListTopology {
    fn add_node(&mut self, node: SwitchId) -> Result<(), TopologyError> {
        if self.nodes.contains(&node) {
            return Err(TopologyError::DuplicateNode(node));
        }
        self.nodes.push(node);
        Ok(())
    }

    fn add_link(
        &mut self,
        a: Endpoint,
        b: Endpoint,
        latency_ns: u64,
    ) -> Result<LinkId, TopologyError> {
        if a.node == b.node {
            return Err(TopologyError::SelfLink(a.node));
        }
        for ep in [a, b] {
            if !self.nodes.contains(&ep.node) {
                return Err(TopologyError::UnknownNode(ep.node));
            }
            if self.port_map.contains_key(&ep) {
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
        self.port_map.insert(a, id);
        self.port_map.insert(b, id);
        Ok(id)
    }

    fn link_at(&self, node: SwitchId, port: PortId) -> Option<(LinkId, &Link)> {
        let id = *self.port_map.get(&Endpoint::new(node, port))?;
        Some((id, &self.links[id.0 as usize]))
    }

    fn deliver_target(&self, node: SwitchId, port: PortId) -> Option<(LinkId, Endpoint)> {
        let (id, link) = self.link_at(node, port)?;
        if !link.up {
            return None;
        }
        Some((id, if link.a.node == node { link.b } else { link.a }))
    }

    fn neighbors(&self, node: SwitchId) -> Vec<(PortId, Endpoint)> {
        let mut out: Vec<(PortId, Endpoint)> = self
            .links
            .iter()
            .filter(|l| l.up)
            .filter_map(|l| {
                if l.a.node == node {
                    Some((l.a.port, l.b))
                } else if l.b.node == node {
                    Some((l.b.port, l.a))
                } else {
                    None
                }
            })
            .collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

#[derive(Clone, Debug)]
enum Op {
    AddNode(u16),
    AddLink(Endpoint, Endpoint, u64),
    /// Flips link `n % links` (nothing while there are none).
    Toggle(u32),
}

/// Mostly a small id range so that duplicates, reused ports and
/// self-links are common; now and then a host-range id.
fn node_id() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..10, 0u16..10, 0u16..10, 0u16..10, 1000u16..1004]
}

fn endpoint() -> impl Strategy<Value = Endpoint> {
    let port = prop_oneof![0u8..6, 0u8..6, 0u8..6, Just(63u8), Just(255u8)];
    (node_id(), port).prop_map(|(n, p)| Endpoint::new(SwitchId::new(n), PortId::new(p)))
}

fn op() -> impl Strategy<Value = Op> {
    let link = || (endpoint(), endpoint(), 0u64..2_000).prop_map(|(a, b, l)| Op::AddLink(a, b, l));
    prop_oneof![
        node_id().prop_map(Op::AddNode),
        node_id().prop_map(Op::AddNode),
        link(),
        link(),
        link(),
        link(),
        any::<u32>().prop_map(Op::Toggle),
    ]
}

fn same_answers(table: &Topology, model: &ListTopology) {
    prop_assert_eq!(table.nodes(), &model.nodes[..]);
    prop_assert_eq!(table.links(), &model.links[..]);
    for raw in (0u16..11).chain(999..1005) {
        let node = SwitchId::new(raw);
        prop_assert_eq!(table.contains(node), model.nodes.contains(&node));
        prop_assert_eq!(
            table.neighbors(node),
            model.neighbors(node),
            "node {}",
            node
        );
        for port in (0u8..7).chain([63, 64, 255]) {
            let port = PortId::new(port);
            let ep = Endpoint::new(node, port);
            prop_assert_eq!(
                table.link_at(node, port),
                model.link_at(node, port),
                "{}",
                ep
            );
            prop_assert_eq!(
                table.deliver_target(node, port),
                model.deliver_target(node, port),
                "{}",
                ep
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn port_table_cases(ops in proptest::collection::vec(op(), 1..60)) {
        let mut table = Topology::new();
        let mut model = ListTopology::default();
        for op in ops {
            match op {
                Op::AddNode(n) => {
                    let n = SwitchId::new(n);
                    prop_assert_eq!(table.add_node(n), model.add_node(n));
                }
                Op::AddLink(a, b, l) => {
                    prop_assert_eq!(table.add_link(a, b, l), model.add_link(a, b, l));
                }
                Op::Toggle(n) => {
                    if !model.links.is_empty() {
                        let i = n as usize % model.links.len();
                        let up = !model.links[i].up;
                        model.links[i].up = up;
                        prop_assert_eq!(table.set_link_state(LinkId(i as u32), up), !up);
                    }
                }
            }
            same_answers(&table, &model);
        }
    }
}

#[test]
fn port_table_answers_as_the_lists_did() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    port_table_cases();
}

/// `fat_tree_with_controller(8, ..)`: 209 nodes (80 switches, 128 hosts
/// and the controller) and 464 links. One allocation per port row, plus
/// the node list, the link list and the row table. Growing each row on
/// demand took 460: a switch row reached 64 entries (port 63 is the C-DP
/// link) through two or three reallocations, the controller's row through
/// about eight.
const FAT_TREE_8_ALLOCS: u64 = 215;

#[test]
fn a_controller_attached_fat_tree_sizes_each_port_row_once() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let before = allocations();
    let topology = Topology::fat_tree_with_controller(8, 1_000, 200_000);
    let made = allocations() - before;
    assert_eq!(topology.nodes().len(), 209);
    assert_eq!(topology.links().len(), 464);
    assert!(
        made <= FAT_TREE_8_ALLOCS,
        "{made} allocations, bound {FAT_TREE_8_ALLOCS}"
    );
}
