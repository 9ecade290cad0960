//! ROADMAP 5's cruder non-interference check: no live key's bits show up
//! in anything a run lets an observer see. A three-switch chain with the
//! event log and trace on bootstraps its keys, serves five register ops
//! and rolls every local key once, with a tap copying every frame on
//! every link direction. Then the snapshot JSON and its `P4TS` bytes, the
//! trace's Chrome JSON and its `P4TR` bytes, and every captured frame are
//! scanned for each slot's current and previous key: its 8 bytes in
//! either byte order, its 4-byte halves in either byte order, and its
//! decimal string.

use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::core::agent::AgentConfig;
use p4auth::dataplane::register::RegisterArray;
use p4auth::netsim::sim::TapAction;
use p4auth::netsim::topology::{LinkId, Topology};
use p4auth::primitives::Key64;
use p4auth::systems::harness::Network;
use p4auth::telemetry::snapshot::bin::encode_snapshot;
use p4auth::telemetry::trace::{chrome_trace_json, encode_trace};
use p4auth::telemetry::Registry;
use p4auth::wire::ids::{KeyVersion, PortId, RegId, SwitchId};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const REG: RegId = RegId::new(5);
const SWITCHES: u16 = 3;

/// Every slot's current key and, after a rollover, its previous one.
fn live_keys(net: &Network) -> Vec<Key64> {
    let mut keys = Vec::new();
    for id in 1..=SWITCHES {
        let agent = net.switches[&SwitchId::new(id)].borrow();
        for port in [0, 1, 2] {
            let slot = agent.keys(PortId::new(port));
            let previous = KeyVersion::new(slot.version().value().wrapping_sub(1));
            keys.extend(slot.current());
            if slot.version() != KeyVersion::INITIAL {
                keys.extend(slot.select(previous));
            }
        }
    }
    keys
}

/// The byte strings that would give `key` away.
fn patterns(key: Key64) -> Vec<Vec<u8>> {
    let raw = key.expose();
    vec![
        raw.to_be_bytes().to_vec(),
        raw.to_le_bytes().to_vec(),
        key.hi().to_be_bytes().to_vec(),
        key.hi().to_le_bytes().to_vec(),
        key.lo().to_be_bytes().to_vec(),
        key.lo().to_le_bytes().to_vec(),
        raw.to_string().into_bytes(),
    ]
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[test]
fn no_live_key_appears_in_an_artefact_or_on_the_wire() {
    let mut net = Network::build(
        Topology::chain(SWITCHES, 50_000, 200_000),
        1,
        ControllerConfig::default(),
        0x05ec_2e75,
        |_| None,
        |_, config: AgentConfig| config.map_register(REG, "r"),
    );
    for agent in net.switches.values() {
        agent
            .borrow_mut()
            .chassis_mut()
            .declare_register(RegisterArray::new("r", 8, 64));
    }
    let registry = Arc::new(Registry::with_capacities(4096, 4096));
    net.enable_telemetry(registry.clone());
    let frames: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
    let links: Vec<_> = net.sim.topology().links().to_vec();
    for (i, link) in links.iter().enumerate() {
        for from in [link.a.node, link.b.node] {
            let frames = frames.clone();
            net.sim.install_tap(
                LinkId(i as u32),
                from,
                Box::new(move |_, _, _, frame| {
                    frames.borrow_mut().push(frame.to_vec());
                    TapAction::Forward
                }),
            );
        }
    }

    net.bootstrap_keys();
    for op in 0..5u16 {
        let switch = SwitchId::new(op % SWITCHES + 1);
        if op % 2 == 0 {
            net.controller_write(switch, REG, u32::from(op), 0x00c0_ffee + u64::from(op));
        } else {
            net.controller_read(switch, REG, u32::from(op - 1));
        }
        net.sim.run_to_completion();
    }
    assert_eq!(net.start_bulk_rollover(), Some(1));
    net.sim.run_to_completion();
    assert!(net.set.borrow().rollover_complete());
    let events = net.take_events();
    let acked = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                ControllerEvent::WriteAcked { .. } | ControllerEvent::ValueRead { .. }
            )
        })
        .count();
    assert_eq!(acked, 5, "every register op completed");

    let snapshot = registry.snapshot();
    let spans = registry.trace().sorted_records();
    assert!(!snapshot.events.is_empty() && !spans.is_empty());
    let mut artefacts = vec![
        ("snapshot JSON", snapshot.to_json().into_bytes()),
        ("P4TS", encode_snapshot(&snapshot)),
        ("Chrome trace JSON", chrome_trace_json(&spans).into_bytes()),
        ("P4TR", encode_trace(&spans, registry.trace().dropped())),
    ];
    let frames = frames.take();
    artefacts.extend(frames.into_iter().map(|f| ("frame", f)));

    let keys = live_keys(&net);
    // Three local keys, each with its pre-rollover generation, and the
    // two port keys held at both ends of their link.
    assert_eq!(keys.len(), 10);
    assert_eq!(artefacts.len(), 4 + 38, "four artefacts and 38 frames");
    for key in keys {
        for pattern in patterns(key) {
            for (name, bytes) in &artefacts {
                assert!(
                    !contains(bytes, &pattern),
                    "a live key's bytes {pattern:02x?} appear in a {name}"
                );
            }
        }
    }
}
