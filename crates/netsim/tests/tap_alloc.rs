//! Micro-asserts on the tap hot path's allocation behaviour.
//!
//! The tap path used to clone every tapped frame up front to detect
//! modification; `TapFrame` snapshots the pristine bytes lazily instead.
//! These tests pin that down with a counting global allocator: delivering
//! frames with no tap (or a read-only tap) must not allocate the pristine
//! copy, while a mutating tap pays for exactly the frames it touches.

use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sim::{Outbox, SimNode, Simulator, TapAction};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::topology::{Endpoint, Topology};
use p4auth_telemetry::alloc::{allocations, CountingAlloc};
use p4auth_wire::ids::{PortId, SwitchId};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Swallows every frame.
struct Sink;

impl SimNode for Sink {
    fn on_frame(&mut self, _: SimTime, _: PortId, _: FrameBytes, _: &mut Outbox) {}
}

const FRAMES: u64 = 64;
/// Heap-backed payloads (beyond the FrameBytes inline cap), so the tap
/// path's Vec round-trip adopts the buffer without allocating and the only
/// possible per-frame allocation is the pristine snapshot.
const PAYLOAD_LEN: usize = 100;

enum TapMode {
    None,
    ReadOnly,
    Mutating,
}

/// Delivers `FRAMES` frames across one link and returns the number of
/// allocator calls made during the run itself (setup excluded).
fn allocs_during_run(mode: TapMode) -> u64 {
    let mut t = Topology::new();
    t.add_node(SwitchId::new(1)).unwrap();
    t.add_node(SwitchId::new(2)).unwrap();
    let link = t
        .add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(1)),
            Endpoint::new(SwitchId::new(2), PortId::new(1)),
            1_000,
        )
        .unwrap();
    let mut sim = Simulator::new(t);
    sim.register_node(SwitchId::new(1), Box::new(Sink));
    sim.register_node(SwitchId::new(2), Box::new(Sink));
    match mode {
        TapMode::None => {}
        TapMode::ReadOnly => sim.install_tap(
            link,
            SwitchId::new(1),
            Box::new(|_, _, _, frame| {
                // Reads the bytes without taking a mutable borrow.
                assert_eq!(frame.len(), PAYLOAD_LEN);
                std::hint::black_box(frame[0]);
                TapAction::Forward
            }),
        ),
        TapMode::Mutating => sim.install_tap(
            link,
            SwitchId::new(1),
            Box::new(|_, _, _, frame| {
                frame[0] ^= 0xff;
                TapAction::Forward
            }),
        ),
    }
    // Injection flushes each frame through the tap immediately, so the
    // counting window opens before the inject loop.
    let before = allocations();
    for i in 0..FRAMES {
        sim.inject_frame_delayed(
            SwitchId::new(1),
            PortId::new(1),
            vec![i as u8; PAYLOAD_LEN],
            i * 10_000,
        );
    }
    sim.run_to_completion();
    let during = allocations() - before;
    assert_eq!(sim.stats().frames_delivered, FRAMES);
    during
}

#[test]
fn untapped_and_readonly_delivery_skip_the_pristine_copy() {
    let untapped = allocs_during_run(TapMode::None);
    let readonly = allocs_during_run(TapMode::ReadOnly);
    let mutating = allocs_during_run(TapMode::Mutating);

    // A read-only tap allocates nothing beyond an untapped run: heap
    // payloads round-trip through the tap by adopting the buffer, and no
    // pristine snapshot is taken.
    assert_eq!(
        readonly, untapped,
        "read-only tap must not clone tapped frames"
    );
    // A mutating tap pays exactly one pristine snapshot per frame.
    assert_eq!(
        mutating,
        untapped + FRAMES,
        "mutating tap should cost one clone per touched frame"
    );
}
