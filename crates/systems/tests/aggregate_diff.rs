//! Differential test for host aggregation: an aggregate modelling exactly
//! one user per host slot must be bit-identical to individual host nodes —
//! per-node delivery streams, aggregate stats, final clock and telemetry
//! fingerprints — on the reference engine and on every engine of
//! [`Engine::DIFFERENTIAL`]. This is what lets `scaleload` *define* the scale workload as
//! `UserScaleConfig::mirror_scale` instead of keeping a host node of its
//! own.
//!
//! The reference column implements the per-host node locally (the same
//! fig19 mix `netsim`'s `engine_diff` pins) — it is the oracle, and the
//! only individual host left; the aggregate columns wrap
//! [`AggregateHostNode`] in a recording shim. Every node records each
//! frame it receives as `(time, ingress port, payload bytes)`, so
//! comparing per-node streams is exactly the "the fabric cannot tell
//! users were aggregated" claim.

use p4auth_netsim::engine::{Engine, Workload};
use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sim::{Outbox, SimNode, SimStats};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_systems::scaleload::ScaleConfig;
use p4auth_systems::userscale::{AggregateHostNode, UserScaleConfig};
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{PortId, SwitchId};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const READ_FRAME_BYTES: usize = 34;
const WRITE_FRAME_BYTES: usize = 58;
const SEND_TIMER: u64 = 1;

/// One recorded delivery: `(sim time ns, ingress port, payload)`.
type Delivery = (u64, u8, Vec<u8>);
/// Per-node delivery streams, dense by stream index (switches then hosts).
type Streams = Rc<Vec<RefCell<Vec<Delivery>>>>;

fn frame_dst(payload: &[u8]) -> SwitchId {
    SwitchId::new(u16::from_le_bytes([payload[0], payload[1]]))
}

struct Forwarder {
    ft: FatTree,
    id: SwitchId,
    proc_ns: u64,
    stream: usize,
    streams: Streams,
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
            out.send_delayed(port, payload, self.proc_ns);
        }
    }
}

/// The reference: one individual host per slot — what the scale workload
/// ran before it was defined as one-user aggregates.
struct RefHost {
    index: u16,
    remaining: u32,
    sent: u32,
    interval_ns: u64,
    rng: SplitMix64,
    ft: FatTree,
    stream: usize,
    streams: Streams,
}

impl SimNode for RefHost {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, _: &mut Outbox) {
        self.streams[self.stream].borrow_mut().push((
            now.as_ns(),
            ingress.value(),
            payload.to_vec(),
        ));
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
            out.set_timer(SEND_TIMER, self.interval_ns);
        }
    }
}

/// Records deliveries, then delegates to the wrapped aggregate.
struct RecordingAggregate {
    inner: AggregateHostNode,
    stream: usize,
    streams: Streams,
}

impl SimNode for RecordingAggregate {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        self.streams[self.stream].borrow_mut().push((
            now.as_ns(),
            ingress.value(),
            payload.to_vec(),
        ));
        self.inner.on_frame(now, ingress, payload, out);
    }

    fn on_timer(&mut self, now: SimTime, timer_id: u64, out: &mut Outbox) {
        self.inner.on_timer(now, timer_id, out);
    }
}

fn make_streams(ft: &FatTree) -> Streams {
    let n = ft.switch_count() as usize + ft.host_count() as usize;
    Rc::new((0..n).map(|_| RefCell::new(Vec::new())).collect())
}

fn forwarder(cfg: &ScaleConfig, ft: FatTree, id: SwitchId, streams: &Streams) -> Box<Forwarder> {
    Box::new(Forwarder {
        ft,
        id,
        proc_ns: cfg.proc_ns,
        stream: id.value() as usize - 1,
        streams: streams.clone(),
    })
}

#[derive(Clone, Copy, Debug)]
enum Column {
    Individual,
    Aggregate,
}

/// Builds the host-slot node for `column`: the individual reference host,
/// or a one-user aggregate wrapped for recording. Returns the node plus
/// the boot delay its timer must be armed with.
fn slot_node(
    column: Column,
    cfg: &ScaleConfig,
    ft: FatTree,
    h: u16,
    streams: &Streams,
) -> (Box<dyn SimNode>, u64) {
    let stream = ft.switch_count() as usize + h as usize;
    let boot = 1 + (h as u64 % 97) * 11;
    match column {
        Column::Individual => (
            Box::new(RefHost {
                index: h,
                remaining: cfg.frames_per_host,
                sent: 0,
                interval_ns: cfg.interval_ns,
                rng: SplitMix64::new(cfg.seed ^ (h as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                ft,
                stream,
                streams: streams.clone(),
            }),
            boot,
        ),
        Column::Aggregate => {
            let ucfg = UserScaleConfig::mirror_scale(cfg);
            let inner =
                AggregateHostNode::new(&ucfg, ft, h, h as u64, 1, Rc::default(), Rc::default());
            let first = inner.first_due_ns().expect("one active user");
            assert_eq!(first, boot, "aggregate must boot like the host");
            (
                Box::new(RecordingAggregate {
                    inner,
                    stream,
                    streams: streams.clone(),
                }),
                first,
            )
        }
    }
}

/// Everything a run produces that must be column- and engine-invariant.
struct RunResult {
    label: String,
    streams: Vec<Vec<Delivery>>,
    events: u64,
    stats: SimStats,
    now_ns: u64,
    telemetry_json: String,
}

/// Populates the fabric once — forwarders plus `column`'s host-slot
/// nodes — and runs it on `engine`.
fn run(cfg: &ScaleConfig, column: Column, engine: Engine) -> RunResult {
    let ft = FatTree::new(cfg.k);
    let streams = make_streams(&ft);
    let registry = Arc::new(Registry::new());
    let mut w = Workload::new(ft.build(cfg.latency_ns));
    w.set_telemetry(registry.clone());
    for id in 1..=ft.switch_count() {
        let id = SwitchId::new(id);
        w.register_node(id, forwarder(cfg, ft, id, &streams));
    }
    for h in 0..ft.host_count() {
        let (node, boot) = slot_node(column, cfg, ft, h, &streams);
        w.register_node(ft.host(h), node);
        w.schedule_timer(ft.host(h), SEND_TIMER, boot);
    }
    let report = w.run(engine);
    RunResult {
        label: format!("{column:?} on {}", engine.label()),
        streams: unwrap_streams(streams),
        events: report.events,
        stats: report.stats,
        now_ns: report.now.as_ns(),
        telemetry_json: registry.snapshot().to_json(),
    }
}

fn unwrap_streams(streams: Streams) -> Vec<Vec<Delivery>> {
    Rc::try_unwrap(streams)
        .expect("all nodes dropped")
        .into_iter()
        .map(RefCell::into_inner)
        .collect()
}

fn assert_runs_match(reference: &RunResult, other: &RunResult) {
    let ctx = format!("{} vs {}", reference.label, other.label);
    assert_eq!(reference.events, other.events, "{ctx}: event count");
    assert_eq!(reference.stats, other.stats, "{ctx}: stats");
    assert_eq!(reference.now_ns, other.now_ns, "{ctx}: final clock");
    for (i, (a, b)) in reference.streams.iter().zip(&other.streams).enumerate() {
        assert_eq!(a, b, "{ctx}: delivery stream of node index {i}");
    }
    assert_eq!(
        reference.telemetry_json, other.telemetry_json,
        "{ctx}: telemetry fingerprint"
    );
}

#[test]
fn one_user_aggregates_match_individual_hosts_across_engines() {
    // k = 8 has 128 hosts, so the boot stagger (period 97) wraps.
    for cfg in [ScaleConfig::for_k(4, 30), ScaleConfig::for_k(8, 4)] {
        let reference = run(&cfg, Column::Individual, Engine::REFERENCE);
        assert!(
            reference.stats.frames_delivered > 0,
            "workload must generate traffic"
        );
        for engine in [Engine::REFERENCE].into_iter().chain(Engine::DIFFERENTIAL) {
            assert_runs_match(&reference, &run(&cfg, Column::Aggregate, engine));
        }
    }
}
