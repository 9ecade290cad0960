//! Differential test for the engines: the fig19-mix fat-tree workload,
//! populated once through the front door, must be bit-identical —
//! per-node delivery streams, aggregate stats, final clock and telemetry
//! fingerprints, plus timeline and trace bytes when those observers are
//! on — on the reference engine and every engine of
//! [`Engine::DIFFERENTIAL`]. The same helper proves that the order the
//! front door's setters are called in changes nothing, and that a
//! panicking node fails every engine the same way.
//!
//! Every node records each frame it receives as `(time, ingress port,
//! payload bytes)`. Comparing those streams per node is exactly the
//! bit-identity claim: each node must observe the identical sequence of
//! deliveries at identical simulated instants.

use p4auth_netsim::engine::{Engine, Workload};
use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::fault::FaultPlan;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sched::SchedulerKind;
use p4auth_netsim::sim::{Outbox, SimNode, SimStats};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::timeline::Timeline;
use p4auth_netsim::topology::LinkId;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_telemetry::trace::encode_trace;
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{PortId, SwitchId};
use proptest::prelude::*;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

const READ_FRAME_BYTES: usize = 34;
const WRITE_FRAME_BYTES: usize = 58;
const SEND_TIMER: u64 = 1;
const LATENCY_NS: u64 = 1_500;
const PROC_NS: u64 = 500;
const INTERVAL_NS: u64 = 25;

/// One recorded delivery: `(sim time ns, ingress port, payload)`.
type Delivery = (u64, u8, Vec<u8>);
/// Per-node delivery streams, dense by stream index (switches then hosts).
type Streams = Rc<Vec<RefCell<Vec<Delivery>>>>;

struct Forwarder {
    ft: FatTree,
    id: SwitchId,
    stream: usize,
    streams: Streams,
}

fn frame_dst(payload: &[u8]) -> SwitchId {
    SwitchId::new(u16::from_le_bytes([payload[0], payload[1]]))
}

impl SimNode for Forwarder {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        self.streams[self.stream].borrow_mut().push((
            now.as_ns(),
            ingress.value(),
            payload.to_vec(),
        ));
        let dst = frame_dst(&payload);
        let flow = payload[2] as u64;
        if let Some(port) = self.ft.next_hop(self.id, dst, flow) {
            out.send_delayed(port, payload, PROC_NS);
        }
    }
}

struct Host {
    index: u16,
    /// Panic on the first delivery (the engine-failure test).
    bomb: bool,
    remaining: u32,
    sent: u32,
    rng: SplitMix64,
    ft: FatTree,
    stream: usize,
    streams: Streams,
}

impl SimNode for Host {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, _: &mut Outbox) {
        self.streams[self.stream].borrow_mut().push((
            now.as_ns(),
            ingress.value(),
            payload.to_vec(),
        ));
        assert!(!self.bomb, "bomb on host {}", self.index);
    }

    fn on_timer(&mut self, _now: SimTime, _timer_id: u64, out: &mut Outbox) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let hosts = self.ft.host_count();
        let mut dst = (self.rng.next_u64() % (hosts as u64 - 1)) as u16;
        if dst >= self.index {
            dst += 1;
        }
        let len = if self.sent % 3 == 2 {
            WRITE_FRAME_BYTES
        } else {
            READ_FRAME_BYTES
        };
        self.sent += 1;
        let mut buf = [0u8; WRITE_FRAME_BYTES];
        buf[..2].copy_from_slice(&self.ft.host(dst).value().to_le_bytes());
        buf[2] = (self.rng.next_u64() & 0xff) as u8;
        out.send(PortId::new(1), FrameBytes::from_slice(&buf[..len]));
        if self.remaining > 0 {
            out.set_timer(SEND_TIMER, INTERVAL_NS);
        }
    }
}

fn host_rng(k: u16, h: u16) -> SplitMix64 {
    let seed = 0x5ca1_e000 ^ k as u64;
    SplitMix64::new(seed ^ (h as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn make_streams(ft: &FatTree) -> Streams {
    let n = ft.switch_count() as usize + ft.host_count() as usize;
    Rc::new((0..n).map(|_| RefCell::new(Vec::new())).collect())
}

fn forwarder(ft: FatTree, id: SwitchId, streams: &Streams) -> Box<Forwarder> {
    Box::new(Forwarder {
        ft,
        id,
        stream: id.value() as usize - 1,
        streams: streams.clone(),
    })
}

fn host(ft: FatTree, h: u16, case: &Case, streams: &Streams) -> Box<Host> {
    Box::new(Host {
        index: h,
        bomb: case.bomb == Some(h),
        remaining: case.frames,
        sent: 0,
        rng: host_rng(case.k, h),
        ft,
        stream: ft.switch_count() as usize + h as usize,
        streams: streams.clone(),
    })
}

/// One call of a front-door setter group.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Registry,
    NodesAndTimers,
    Faults,
    ExportInterval,
}

/// The order the engines apply them in, whatever order they were called.
const CANONICAL: [Step; 4] = [
    Step::Registry,
    Step::NodesAndTimers,
    Step::Faults,
    Step::ExportInterval,
];

/// One run of the workload: its size, what observes it besides the
/// per-node streams and the registry's metrics, and how it is set up.
#[derive(Clone)]
struct Case {
    k: u16,
    frames: u32,
    event_capacity: usize,
    trace_capacity: usize,
    export_interval_ns: Option<u64>,
    faults: Option<FaultPlan>,
    /// Index of the host that panics on its first delivery.
    bomb: Option<u16>,
    /// The order the front door's setters are called in.
    order: [Step; 4],
}

impl Case {
    /// Metrics only, no faults, canonical setter order.
    fn new(k: u16, frames: u32) -> Self {
        Case {
            k,
            frames,
            event_capacity: 0,
            trace_capacity: 0,
            export_interval_ns: None,
            faults: None,
            bomb: None,
            order: CANONICAL,
        }
    }

    /// Every observer at once: trace ring, export interval, fault plan.
    fn observed(k: u16, frames: u32, interval_ns: u64, faults: FaultPlan) -> Self {
        Case {
            trace_capacity: 1 << 14,
            export_interval_ns: Some(interval_ns),
            faults: Some(faults),
            ..Case::new(k, frames)
        }
    }
}

/// Everything a run produces that must be engine-invariant.
#[derive(PartialEq, Debug)]
struct RunResult {
    streams: Vec<Vec<Delivery>>,
    events: u64,
    stats: SimStats,
    now_ns: u64,
    telemetry_json: String,
    timeline_bin: Option<Vec<u8>>,
    trace_bin: Vec<u8>,
}

/// Populates the workload once and runs it on `engine`.
fn run(case: &Case, engine: Engine) -> RunResult {
    let ft = FatTree::new(case.k);
    let streams = make_streams(&ft);
    let registry = Arc::new(Registry::with_capacities(
        case.event_capacity,
        case.trace_capacity,
    ));
    let mut w = Workload::new(ft.build(LATENCY_NS));
    for step in case.order {
        match step {
            Step::Registry => w.set_telemetry(registry.clone()),
            Step::NodesAndTimers => {
                for id in 1..=ft.switch_count() {
                    let id = SwitchId::new(id);
                    w.register_node(id, forwarder(ft, id, &streams));
                }
                for h in 0..ft.host_count() {
                    w.register_node(ft.host(h), host(ft, h, case, &streams));
                    w.schedule_timer(ft.host(h), SEND_TIMER, 1 + (h as u64 % 97) * 11);
                }
            }
            Step::Faults => {
                if let Some(plan) = &case.faults {
                    w.set_fault_plan(plan.clone());
                }
            }
            Step::ExportInterval => {
                if let Some(interval_ns) = case.export_interval_ns {
                    w.set_export_interval(interval_ns);
                }
            }
        }
    }
    let report = w.run(engine);
    let trace = registry.trace();
    RunResult {
        streams: unwrap_streams(streams),
        events: report.events,
        stats: report.stats,
        now_ns: report.now.as_ns(),
        telemetry_json: registry.snapshot().to_json(),
        timeline_bin: report.timeline.map(|tl| tl.to_bin()),
        trace_bin: encode_trace(&trace.sorted_records(), trace.dropped()),
    }
}

fn unwrap_streams(streams: Streams) -> Vec<Vec<Delivery>> {
    Rc::try_unwrap(streams)
        .expect("all nodes dropped")
        .into_iter()
        .map(RefCell::into_inner)
        .collect()
}

fn assert_runs_match(ctx: &str, reference: &RunResult, other: &RunResult) {
    assert_eq!(reference.events, other.events, "{ctx}: event count");
    assert_eq!(reference.stats, other.stats, "{ctx}: stats");
    assert_eq!(reference.now_ns, other.now_ns, "{ctx}: final clock");
    assert_eq!(
        reference.streams.len(),
        other.streams.len(),
        "{ctx}: stream count"
    );
    for (i, (a, b)) in reference.streams.iter().zip(&other.streams).enumerate() {
        assert_eq!(a, b, "{ctx}: delivery stream of node index {i}");
    }
    assert_eq!(
        reference.telemetry_json, other.telemetry_json,
        "{ctx}: telemetry fingerprint"
    );
    assert_eq!(
        reference.timeline_bin, other.timeline_bin,
        "{ctx}: timeline bytes"
    );
    assert_eq!(reference.trace_bin, other.trace_bin, "{ctx}: trace bytes");
}

/// The reference engine first, then the canonical differential list.
fn every_engine() -> impl Iterator<Item = Engine> {
    [Engine::REFERENCE].into_iter().chain(Engine::DIFFERENTIAL)
}

/// Runs `case` on the reference engine, then on every engine of the
/// differential list, and asserts each reproduces it.
fn assert_bit_identical(case: &Case) -> RunResult {
    let reference = run(case, Engine::REFERENCE);
    assert!(
        reference.stats.frames_delivered > 0,
        "workload must generate traffic"
    );
    for engine in Engine::DIFFERENTIAL {
        let ctx = format!("k={}: {}", case.k, engine.label());
        assert_runs_match(&ctx, &reference, &run(case, engine));
    }
    reference
}

/// A scheduler on neither list would have no differential. The match is
/// exhaustive on purpose: a third `SchedulerKind` stops this file
/// compiling until it has a slot here, and the test then fails until an
/// engine on one of the two lists runs it.
#[test]
fn reference_and_differential_cover_every_scheduler() {
    let mut covered = [false; 2];
    for Engine::Sequential(kind) in every_engine() {
        let slot = match kind {
            SchedulerKind::Calendar => 0,
            SchedulerKind::Heap => 1,
        };
        covered[slot] = true;
    }
    assert_eq!(covered, [true; 2], "a scheduler no differential runs");
}

#[test]
fn fat_tree_4_bit_identical_across_engines() {
    assert_bit_identical(&Case::new(4, 30));
}

#[test]
fn fat_tree_8_bit_identical_across_engines() {
    assert_bit_identical(&Case::new(8, 8));
}

/// The order trap, closed: whatever order the front door's setters are
/// called in — registry or export interval before or after the nodes and
/// boot timers, fault plan first or last — every engine applies them in
/// the canonical order, so every output equals the canonically populated
/// reference. (A bare `Simulator` is order-sensitive: starting the export
/// before the boot timers moves their 16 `sim_events_scheduled` out of
/// the recording's baseline.)
#[test]
fn setter_order_changes_nothing_on_any_engine() {
    let mut faults = FaultPlan::new();
    faults.flap(LinkId(5), 900, 4_000);
    let canonical = Case::observed(4, 6, 1_000, faults);
    let reference = run(&canonical, Engine::REFERENCE);
    let baseline = Timeline::from_bin(reference.timeline_bin.as_ref().unwrap()).unwrap();
    assert_eq!(
        baseline.baseline.counter("sim_events_scheduled", ""),
        Some(16),
        "the boot timers belong to the baseline"
    );
    let mut orders = vec![CANONICAL];
    for rotation in 1..4 {
        let mut order = CANONICAL;
        order.rotate_left(rotation);
        orders.push(order);
        order.reverse();
        orders.push(order);
    }
    for order in orders {
        let case = Case {
            order,
            ..canonical.clone()
        };
        for engine in every_engine() {
            let ctx = format!("{order:?} on {}", engine.label());
            assert_runs_match(&ctx, &reference, &run(&case, engine));
        }
    }
}

/// Every engine fails the same way: a node's panic reaches the caller
/// with the node's own message.
#[test]
fn a_node_panic_reaches_the_caller_on_every_engine() {
    for engine in every_engine() {
        for bomb in [0u16, 4, 8, 12] {
            let case = Case {
                bomb: Some(bomb),
                ..Case::new(4, 20)
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&case, engine))).map(|_| ());
            let payload = outcome.expect_err("the bomb must go off");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("bomb on host {bomb}").as_str()),
                "{}: not the node's own panic",
                engine.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// All observers at once — fault plan, registry, export interval and
    /// trace ring on the same run — on random small fat-trees: every
    /// output is equal on every engine.
    #[test]
    fn all_observers_at_once_are_engine_invariant(
        k in prop_oneof![Just(2u16), Just(4u16)],
        frames in 2u32..10,
        interval_ns in 700u64..6_000,
        flaps in proptest::collection::vec((0u32..64, 1u64..9_000, 1u64..6_000), 1..4),
    ) {
        let links = FatTree::new(k).build(LATENCY_NS).links().len() as u32;
        let mut plan = FaultPlan::new();
        for (link, down_at_ns, outage_ns) in flaps {
            plan.flap(LinkId(link % links), down_at_ns, down_at_ns + outage_ns);
        }
        let reference = assert_bit_identical(&Case::observed(k, frames, interval_ns, plan));
        prop_assert!(reference.stats.faults_applied >= 2, "the plan must fire");
        prop_assert!(reference.trace_bin.len() > 16, "the ring must hold spans");
        prop_assert!(reference.timeline_bin.is_some());
    }
}
