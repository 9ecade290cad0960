//! The discrete-event simulator core.

use crate::frame::FrameBytes;
use crate::sched::{CalendarQueue, HeapScheduler, Scheduled, Scheduler, SchedulerKind};
use crate::time::SimTime;
use crate::timeline::{ExportRecorder, Timeline};
use crate::topology::{Endpoint, LinkId, PortLink, Topology};
use p4auth_telemetry::{Counter, DropCause, Event as TelemetryEvent, Histogram, Registry};
use p4auth_wire::ids::{PortId, SwitchId};
use std::sync::Arc;

/// What a MitM tap does to an intercepted frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TapAction {
    /// Let the (possibly modified) frame through.
    Forward,
    /// Drop the frame.
    Drop,
}

/// The payload view handed to a [`Tap`].
///
/// Dereferences to the frame bytes, so read-only taps (eavesdroppers,
/// filters) cost nothing beyond the dereference. The pristine content is
/// snapshotted lazily on the first *mutable* access, which is how the
/// simulator knows whether a tap actually modified the frame without
/// cloning every tapped payload up front.
#[derive(Debug)]
pub struct TapFrame {
    bytes: Vec<u8>,
    pristine: Option<Vec<u8>>,
}

impl TapFrame {
    /// Wraps raw frame bytes (used by the simulator and by unit tests that
    /// drive taps directly).
    pub fn new(bytes: Vec<u8>) -> Self {
        TapFrame {
            bytes,
            pristine: None,
        }
    }

    /// Replaces the entire payload (the common "re-encode the tampered
    /// message" move in attack taps).
    pub fn replace(&mut self, bytes: Vec<u8>) {
        self.snapshot();
        self.bytes = bytes;
    }

    /// Whether a tap changed the content relative to what arrived.
    pub fn modified(&self) -> bool {
        self.pristine.as_ref().is_some_and(|p| *p != self.bytes)
    }

    /// Unwraps the (possibly rewritten) payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    fn snapshot(&mut self) {
        if self.pristine.is_none() {
            self.pristine = Some(self.bytes.clone());
        }
    }
}

impl From<Vec<u8>> for TapFrame {
    fn from(bytes: Vec<u8>) -> Self {
        TapFrame::new(bytes)
    }
}

impl std::ops::Deref for TapFrame {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

impl std::ops::DerefMut for TapFrame {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.snapshot();
        &mut self.bytes
    }
}

/// A frame interception hook: sees the payload (mutable — the adversary can
/// rewrite it) and the direction `(from, to)` endpoints.
pub type Tap = Box<dyn FnMut(SimTime, Endpoint, Endpoint, &mut TapFrame) -> TapAction>;

/// Messages a node wants to send / timers it wants set, collected during a
/// callback.
#[derive(Default)]
pub struct Outbox {
    frames: Vec<(PortId, FrameBytes, u64)>,
    timers: Vec<(u64, u64)>,
}

impl Outbox {
    /// Sends `payload` out of `port` after `processing_ns` of local
    /// processing delay.
    pub fn send_delayed(
        &mut self,
        port: PortId,
        payload: impl Into<FrameBytes>,
        processing_ns: u64,
    ) {
        self.frames.push((port, payload.into(), processing_ns));
    }

    /// Sends `payload` out of `port` immediately.
    pub fn send(&mut self, port: PortId, payload: impl Into<FrameBytes>) {
        self.send_delayed(port, payload, 0);
    }

    /// Requests a timer callback `delay_ns` from now with identifier `id`.
    pub fn set_timer(&mut self, id: u64, delay_ns: u64) {
        self.timers.push((id, delay_ns));
    }

    /// The queued sends as `(port, payload, processing_ns)`, in send
    /// order (for tests that drive a node directly).
    pub fn frames(&self) -> &[(PortId, FrameBytes, u64)] {
        &self.frames
    }

    /// The requested timers as `(id, delay_ns)` (for tests).
    pub fn timers(&self) -> &[(u64, u64)] {
        &self.timers
    }

    fn is_clear(&self) -> bool {
        self.frames.is_empty() && self.timers.is_empty()
    }
}

/// A topology-change notification delivered to nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyEvent {
    /// A link came up (the paper's "port active" event, detected via LLDP).
    LinkUp {
        /// The link that changed.
        link: LinkId,
        /// First endpoint.
        a: Endpoint,
        /// Second endpoint.
        b: Endpoint,
    },
    /// A link went down.
    LinkDown {
        /// The link that changed.
        link: LinkId,
        /// First endpoint.
        a: Endpoint,
        /// Second endpoint.
        b: Endpoint,
    },
    /// A node rebooted ([`crate::fault::FaultPlan::reboot`]): it holds
    /// nothing from before, and whoever manages its keys starts again.
    NodeRebooted {
        /// The node that rebooted.
        node: SwitchId,
    },
}

/// Behaviour of a simulated node (switch, controller or host).
pub trait SimNode {
    /// A frame arrived on `ingress`.
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox);

    /// A timer set earlier fired.
    fn on_timer(&mut self, _now: SimTime, _timer_id: u64, _out: &mut Outbox) {}

    /// The topology changed (delivered to every node; most ignore it, the
    /// controller reacts by driving key initialization).
    fn on_topology(&mut self, _now: SimTime, _event: TopologyEvent, _out: &mut Outbox) {}
}

#[derive(Debug)]
enum EventKind {
    FrameArrival {
        dst: Endpoint,
        payload: FrameBytes,
    },
    Timer {
        node: SwitchId,
        timer_id: u64,
    },
    /// A scheduled link-state change from a [`crate::fault::FaultPlan`].
    Fault {
        link: LinkId,
        up: bool,
    },
    /// A scheduled reboot from a [`crate::fault::FaultPlan`].
    Reboot {
        node: SwitchId,
    },
}

/// The simulator's event queue: the calendar queue, or the heap oracle
/// `Engine::DIFFERENTIAL` runs against. A concrete enum, not a
/// `Box<dyn Scheduler>`, so push and pop inline into the event loop
/// (DESIGN §4b, "static dispatch").
enum Queue {
    Calendar(CalendarQueue<EventKind>),
    Heap(HeapScheduler<EventKind>),
}

impl Queue {
    #[inline]
    fn schedule(&mut self, at: SimTime, seq: u64, kind: EventKind) {
        match self {
            Queue::Calendar(q) => q.schedule(at, seq, kind),
            Queue::Heap(q) => q.schedule(at, seq, kind),
        }
    }

    #[inline]
    fn next_at(&mut self) -> Option<SimTime> {
        match self {
            Queue::Calendar(q) => q.next_at(),
            Queue::Heap(q) => q.next_at(),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled<EventKind>> {
        match self {
            Queue::Calendar(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
        }
    }

    fn kind(&self) -> SchedulerKind {
        match self {
            Queue::Calendar(q) => q.kind(),
            Queue::Heap(q) => q.kind(),
        }
    }
}

/// Bits of the tiebreak key reserved for the per-source event count; the
/// top 16 bits carry the source's raw switch id (see [`crate::sched`] on
/// why the key is per source rather than one global counter).
const SRC_SEQ_BITS: u32 = 48;

/// The pseudo-source id fault events carry in their tiebreak keys: above
/// every real node id, so a fault scheduled at the same instant as node
/// events sorts after them — identically on every engine, because the
/// fault sequence counter advances in plan order on each of them.
const FAULT_SRC_ID: u64 = u16::MAX as u64;

/// Simulation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Frames delivered to nodes.
    pub frames_delivered: u64,
    /// Frames dropped by taps.
    pub frames_tapped_dropped: u64,
    /// Frames modified by taps (payload changed).
    pub frames_tapped_modified: u64,
    /// Frames lost to down/unconnected ports.
    pub frames_undeliverable: u64,
    /// Timer callbacks fired.
    pub timers_fired: u64,
    /// Scheduled fault events (link-state changes and reboots) applied.
    pub faults_applied: u64,
}

/// Pre-registered telemetry handles, built once when a registry is
/// attached so hot-path updates are plain relaxed atomics.
struct SimTelemetry {
    registry: Arc<Registry>,
    /// Cached `registry.trace().enabled()` so the hot path pays one
    /// branch, not a lock, when tracing is off (the default).
    trace_enabled: bool,
    events_scheduled: Arc<Counter>,
    frames_delivered: Arc<Counter>,
    frames_tap_dropped: Arc<Counter>,
    frames_tap_modified: Arc<Counter>,
    frames_undeliverable: Arc<Counter>,
    timers_fired: Arc<Counter>,
    /// Distribution of how far into the simulated future events are
    /// scheduled (ns between enqueue and fire time).
    event_lead_ns: Arc<Histogram>,
    /// Lazily created per-(link, direction) frame counters, dense by
    /// `link * 2 + direction`.
    link_frames: Vec<Option<Arc<Counter>>>,
    /// Lazily created on the first applied fault, so fault-free runs keep
    /// their snapshots byte-identical to before fault injection existed.
    faults_applied: Option<Arc<Counter>>,
}

impl SimTelemetry {
    fn new(registry: Arc<Registry>, link_count: usize) -> Self {
        SimTelemetry {
            trace_enabled: registry.trace().enabled(),
            events_scheduled: registry.counter("sim_events_scheduled"),
            frames_delivered: registry.counter("sim_frames_delivered"),
            frames_tap_dropped: registry.counter("sim_frames_tap_dropped"),
            frames_tap_modified: registry.counter("sim_frames_tap_modified"),
            frames_undeliverable: registry.counter("sim_frames_undeliverable"),
            timers_fired: registry.counter("sim_timers_fired"),
            event_lead_ns: registry.histogram("sim_event_lead_ns"),
            link_frames: vec![None; link_count * 2],
            faults_applied: None,
            registry,
        }
    }

    // The recording helpers below are `#[cold]` and never inlined, so the
    // event loop's code is laid out for the untraced run and does not
    // depend on how much of the recording the optimiser would inline.

    #[cold]
    #[inline(never)]
    fn fault_applied(&mut self) {
        self.faults_applied
            .get_or_insert_with(|| self.registry.counter("sim_faults_applied"))
            .inc();
    }

    #[cold]
    #[inline(never)]
    fn link_frame(&mut self, sent: PortLink, from: SwitchId) {
        self.link_frames[sent.slot()]
            .get_or_insert_with(|| {
                self.registry.counter_with(
                    "sim_link_frames",
                    &format!("link{}:from_{from}", sent.link.0),
                )
            })
            .inc();
    }

    #[cold]
    #[inline(never)]
    fn scheduled(&self, lead_ns: u64) {
        self.events_scheduled.inc();
        self.event_lead_ns.record(lead_ns);
    }

    #[cold]
    #[inline(never)]
    fn tap_modified(&self, now: SimTime, from: SwitchId, dst: Endpoint) {
        self.frames_tap_modified.inc();
        if self.trace_enabled {
            self.registry.trace().instant(
                p4auth_telemetry::SpanKind::FrameTap,
                now.as_ns(),
                from.value(),
                u64::from(dst.node.value()),
                0,
            );
        }
    }

    #[cold]
    #[inline(never)]
    fn tap_dropped(&self, now: SimTime, from: SwitchId, dst: Endpoint) {
        self.frames_tap_dropped.inc();
        self.registry.record(
            now.as_ns(),
            TelemetryEvent::FrameDropped {
                node: from.value(),
                cause: DropCause::Tap,
            },
        );
        if self.trace_enabled {
            self.registry.trace().instant(
                p4auth_telemetry::SpanKind::FrameTap,
                now.as_ns(),
                from.value(),
                u64::from(dst.node.value()),
                1,
            );
        }
    }

    /// A frame sent out of a port with no live link behind it.
    #[cold]
    #[inline(never)]
    fn unsendable(&self, now: SimTime, from: SwitchId) {
        self.frames_undeliverable.inc();
        self.registry.record(
            now.as_ns(),
            TelemetryEvent::FrameDropped {
                node: from.value(),
                cause: DropCause::Undeliverable,
            },
        );
    }

    /// A frame that arrived at a node with no behaviour registered.
    #[cold]
    #[inline(never)]
    fn unreceivable(&self) {
        self.frames_undeliverable.inc();
    }

    #[cold]
    #[inline(never)]
    fn delivered(&self, now: SimTime, dst: Endpoint, bytes: usize) {
        self.frames_delivered.inc();
        self.registry.record(
            now.as_ns(),
            TelemetryEvent::FrameDelivered {
                node: dst.node.value(),
                port: dst.port.value(),
                bytes: bytes as u32,
            },
        );
        if self.trace_enabled {
            self.registry.trace().instant(
                p4auth_telemetry::SpanKind::FrameDeliver,
                now.as_ns(),
                dst.node.value(),
                u64::from(dst.port.value()),
                bytes as u64,
            );
        }
    }

    #[cold]
    #[inline(never)]
    fn timer_fired(&self) {
        self.timers_fired.inc();
    }
}

/// The event-driven simulator.
///
/// Owns the topology and the nodes; runs events in timestamp order. Frames
/// experience sender processing delay plus link latency; taps installed on
/// a link see (and may rewrite or drop) every frame crossing it in the
/// tapped direction.
///
/// Hot-path state is dense: nodes, taps and per-direction transmitter
/// occupancy are flat vectors indexed by node id and link direction,
/// sized once from the topology, and a frame is routed by the topology's
/// port table. The event queue is chosen per simulator
/// ([`SchedulerKind`]): the default calendar queue and the reference
/// binary heap drain events in exactly the same `(time, seq)` order, so
/// results are bit-identical either way. Tiebreak keys pack
/// `(source node, per-source count)`.
pub struct Simulator {
    topology: Topology,
    /// Node behaviours, dense by raw switch id.
    nodes: Vec<Option<Box<dyn SimNode>>>,
    queue: Queue,
    now: SimTime,
    /// Per-source event counts, dense by raw switch id: the low
    /// [`SRC_SEQ_BITS`] of each event's tiebreak key.
    src_seq: Vec<u64>,
    /// Event count for the fault pseudo-source ([`FAULT_SRC_ID`]):
    /// advances in plan-installation order, so every engine assigns each
    /// fault the identical tiebreak key.
    fault_seq: u64,
    /// Installed taps, dense by `link * 2 + direction`.
    taps: Vec<Option<Tap>>,
    /// Number of installed taps (skips tap bookkeeping when zero).
    tap_count: usize,
    /// Per (link, direction) FIFO state: when the link's transmitter is
    /// next free (bandwidth-constrained links only), dense by
    /// `link * 2 + direction`.
    tx_free_at: Vec<SimTime>,
    /// Reusable outbox so per-event delivery does not allocate.
    spare_outbox: Outbox,
    stats: SimStats,
    telemetry: Option<SimTelemetry>,
    /// Periodic delta-capture state (see [`crate::timeline`]).
    recorder: Option<ExportRecorder>,
}

impl Simulator {
    /// Creates a simulator over `topology` with the default scheduler.
    pub fn new(topology: Topology) -> Self {
        Simulator::with_scheduler(topology, SchedulerKind::default())
    }

    /// Creates a simulator over `topology` running on the given event
    /// scheduler. Calendar-queue buckets are sized from the topology's
    /// minimum link latency (the floor on how far apart causally related
    /// events can be).
    pub fn with_scheduler(topology: Topology, kind: SchedulerKind) -> Self {
        let queue = match kind {
            SchedulerKind::Heap => Queue::Heap(HeapScheduler::new()),
            SchedulerKind::Calendar => {
                let width = topology.min_link_latency_ns().unwrap_or(1_024);
                Queue::Calendar(CalendarQueue::with_bucket_width(width))
            }
        };
        let max_id = topology
            .nodes()
            .iter()
            .map(|n| n.value() as usize)
            .max()
            .unwrap_or(0);
        let link_slots = topology.links().len() * 2;
        Simulator {
            nodes: (0..=max_id).map(|_| None).collect(),
            queue,
            now: SimTime::ZERO,
            src_seq: vec![0; max_id + 1],
            fault_seq: 0,
            taps: (0..link_slots).map(|_| None).collect(),
            tap_count: 0,
            tx_free_at: vec![SimTime::ZERO; link_slots],
            spare_outbox: Outbox::default(),
            stats: SimStats::default(),
            telemetry: None,
            recorder: None,
            topology,
        }
    }

    /// Attaches a telemetry registry: from now on the simulator mirrors
    /// its statistics into metric counters, records scheduling-lead
    /// histograms and (if the registry's event log is enabled) emits
    /// `FrameDelivered`/`FrameDropped` events.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = Some(SimTelemetry::new(registry, self.topology.links().len()));
    }

    /// Starts periodic telemetry export: every `interval_ns` of simulated
    /// time, the attached registry is snapshotted just before the first
    /// event at or past the grid boundary, and the changes are emitted as
    /// a delta (see [`crate::timeline`]). The recording baseline is the
    /// registry's state *now*, so call this after topology bootstrap.
    ///
    /// Collect the result with [`Simulator::take_timeline`].
    ///
    /// # Panics
    ///
    /// Panics if no telemetry registry is attached or `interval_ns == 0`.
    pub fn set_export_interval(&mut self, interval_ns: u64) {
        let registry = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.clone())
            .expect("set_telemetry must be called before set_export_interval");
        self.recorder = Some(ExportRecorder::new(registry, interval_ns));
    }

    /// Stops recording and returns the finished [`Timeline`] (flushed to
    /// the current sim clock), or `None` when no export interval was set.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        let mut rec = self.recorder.take()?;
        rec.flush(self.now.as_ns());
        Some(rec.into_timeline())
    }

    /// The scheduler implementation this simulator runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Registers the behaviour for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the node is not in the topology or already registered.
    pub fn register_node(&mut self, id: SwitchId, node: Box<dyn SimNode>) {
        assert!(self.topology.contains(id), "node {id} not in topology");
        let slot = &mut self.nodes[id.value() as usize];
        assert!(slot.is_none(), "node {id} registered twice");
        *slot = Some(node);
    }

    /// The tap and transmitter slot of `link` for frames sent by `from`,
    /// read from `from`'s port row, if `from` terminates the link.
    fn tap_slot(&self, link: LinkId, from: SwitchId) -> Option<usize> {
        let l = self.topology.link(link)?;
        let near = [l.a, l.b].into_iter().find(|ep| ep.node == from)?;
        self.topology
            .port_link(near.node, near.port)
            .map(PortLink::slot)
    }

    /// Installs a MitM tap on `link` for frames *sent by* `from_node`.
    ///
    /// Models the §II-A adversaries: a tap on a C-DP link is the
    /// compromised switch OS rewriting driver calls; a tap on a DP-DP link
    /// is the in-network MitM rerouting probes through an attacker host.
    ///
    /// # Panics
    ///
    /// Panics on an unknown link or a `from_node` that does not terminate
    /// it.
    pub fn install_tap(&mut self, link: LinkId, from_node: SwitchId, tap: Tap) {
        let slot = self
            .tap_slot(link, from_node)
            .expect("a link that `from_node` terminates");
        if self.taps[slot].replace(tap).is_none() {
            self.tap_count += 1;
        }
    }

    /// Removes a tap, returning whether one was present.
    pub fn remove_tap(&mut self, link: LinkId, from_node: SwitchId) -> bool {
        let Some(slot) = self.tap_slot(link, from_node) else {
            return false;
        };
        let removed = self.taps[slot].take().is_some();
        if removed {
            self.tap_count -= 1;
        }
        removed
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The topology (read-only).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a registered node (downcasting is the caller's
    /// business via `as_any`-style patterns in higher layers).
    pub fn node(&self, id: SwitchId) -> Option<&dyn SimNode> {
        self.nodes
            .get(id.value() as usize)?
            .as_ref()
            .map(|n| n.as_ref())
    }

    fn take_node(&mut self, id: SwitchId) -> Option<Box<dyn SimNode>> {
        self.nodes.get_mut(id.value() as usize)?.take()
    }

    fn put_node(&mut self, id: SwitchId, node: Box<dyn SimNode>) {
        self.nodes[id.value() as usize] = Some(node);
    }

    /// Takes the spare outbox (empty, but with retained capacity).
    fn checkout_outbox(&mut self) -> Outbox {
        std::mem::take(&mut self.spare_outbox)
    }

    /// Flushes and returns an outbox to the spare slot for reuse.
    fn flush_and_return(&mut self, from: SwitchId, mut out: Outbox) {
        self.flush_outbox(from, &mut out);
        debug_assert!(out.is_clear());
        self.spare_outbox = out;
    }

    /// Runs `f` against a registered node, with outbox plumbing, outside a
    /// frame delivery (used to inject work, e.g. "controller: read this
    /// register now").
    ///
    /// # Panics
    ///
    /// Panics if the node is unknown.
    pub fn with_node<R>(
        &mut self,
        id: SwitchId,
        f: impl FnOnce(&mut dyn SimNode, &mut Outbox) -> R,
    ) -> R {
        let mut node = self
            .take_node(id)
            .unwrap_or_else(|| panic!("unknown node {id}"));
        let mut out = self.checkout_outbox();
        let r = f(node.as_mut(), &mut out);
        self.put_node(id, node);
        self.flush_and_return(id, out);
        r
    }

    /// Injects a frame transmission from `src`:`port` at the current time.
    pub fn inject_frame(&mut self, src: SwitchId, port: PortId, payload: impl Into<FrameBytes>) {
        self.inject_frame_delayed(src, port, payload, 0);
    }

    /// Injects a frame transmission from `src`:`port` after `delay_ns` of
    /// sender-side processing (keeps injected traffic ordered with frames
    /// the node itself emits with a processing delay).
    pub fn inject_frame_delayed(
        &mut self,
        src: SwitchId,
        port: PortId,
        payload: impl Into<FrameBytes>,
        delay_ns: u64,
    ) {
        let mut out = self.checkout_outbox();
        out.send_delayed(port, payload, delay_ns);
        self.flush_and_return(src, out);
    }

    /// Schedules a timer for `node` `delay_ns` from now.
    pub fn schedule_timer(&mut self, node: SwitchId, timer_id: u64, delay_ns: u64) {
        let at = self.now + delay_ns;
        self.push(node, at, EventKind::Timer { node, timer_id });
    }

    /// Changes a link's state and notifies every registered node.
    ///
    /// This is the *immediate* operator action ("pull the cable now");
    /// for deterministic mid-run churn use a [`crate::fault::FaultPlan`]
    /// via [`Simulator::install_fault_plan`], which schedules the change
    /// as a first-class sim event instead of tying it to wherever the
    /// driving loop happens to pause.
    pub fn set_link_state(&mut self, link: LinkId, up: bool) {
        self.apply_link_state(link, up);
    }

    /// Shared body of [`Simulator::set_link_state`] and the
    /// [`EventKind::Fault`] arm of the event loop: flips the topology
    /// state (no-op if already there — a deduplicated fault schedule keeps
    /// this unreachable for faults) and notifies every registered node.
    fn apply_link_state(&mut self, link: LinkId, up: bool) {
        let was_up = self.topology.set_link_state(link, up);
        if was_up == up {
            return;
        }
        let l = *self.topology.link(link).expect("valid link id");
        let event = if up {
            TopologyEvent::LinkUp {
                link,
                a: l.a,
                b: l.b,
            }
        } else {
            TopologyEvent::LinkDown {
                link,
                a: l.a,
                b: l.b,
            }
        };
        self.notify_topology(event);
    }

    /// Delivers `event` to every registered node, in id order.
    fn notify_topology(&mut self, event: TopologyEvent) {
        for raw in 0..self.nodes.len() {
            let id = SwitchId::new(raw as u16);
            let Some(mut node) = self.take_node(id) else {
                continue;
            };
            let mut out = self.checkout_outbox();
            node.on_topology(self.now, event, &mut out);
            self.put_node(id, node);
            self.flush_and_return(id, out);
        }
    }

    /// Installs a [`crate::fault::FaultPlan`]: every scheduled link-state
    /// change and reboot becomes a first-class sim event, applied between
    /// the other events of its instant in a fixed drain position — so
    /// fault-injected runs stay bit-identical across schedulers.
    ///
    /// # Panics
    ///
    /// Panics on an unknown link or node, or a fault scheduled before
    /// `now`.
    pub fn install_fault_plan(&mut self, plan: &crate::fault::FaultPlan) {
        for ev in plan.events() {
            assert!(
                self.topology.link(ev.link).is_some(),
                "fault on unknown link"
            );
            let (link, up) = (ev.link, ev.up);
            self.push_fault(SimTime::from_ns(ev.at_ns), EventKind::Fault { link, up });
        }
        for &(at_ns, node) in plan.reboots() {
            assert!(
                self.topology.contains(node),
                "reboot of unknown node {node}"
            );
            self.push_fault(SimTime::from_ns(at_ns), EventKind::Reboot { node });
        }
    }

    /// Schedules one fault. Fault keys use the pseudo-source
    /// [`FAULT_SRC_ID`] with their own sequence counter, so every engine
    /// assigns identical keys. Scheduling a fault records **no** telemetry
    /// (`sim_events_scheduled` counts what nodes and callers schedule, and
    /// every recorded artefact depends on that).
    fn push_fault(&mut self, at: SimTime, kind: EventKind) {
        assert!(at >= self.now, "fault scheduled in the past");
        self.fault_seq += 1;
        assert!(
            self.fault_seq < (1u64 << SRC_SEQ_BITS),
            "fault event sequence counter overflowed"
        );
        let seq = (FAULT_SRC_ID << SRC_SEQ_BITS) | self.fault_seq;
        self.queue.schedule(at, seq, kind);
    }

    fn push(&mut self, src: SwitchId, at: SimTime, kind: EventKind) {
        if let Some(t) = &self.telemetry {
            t.scheduled(at.since(self.now));
        }
        let count = &mut self.src_seq[src.value() as usize];
        *count += 1;
        assert!(
            *count < (1u64 << SRC_SEQ_BITS),
            "per-source event sequence counter overflowed"
        );
        let seq = ((src.value() as u64) << SRC_SEQ_BITS) | *count;
        self.queue.schedule(at, seq, kind);
    }

    fn flush_outbox(&mut self, from: SwitchId, out: &mut Outbox) {
        for (port, mut payload, processing_ns) in out.frames.drain(..) {
            let target = self.topology.port_link(from, port);
            let live = target.filter(|p| self.topology.links()[p.link.0 as usize].up);
            match live {
                Some(sent) => {
                    let link = self.topology.links()[sent.link.0 as usize];
                    let (slot, dst) = (sent.slot(), sent.far);
                    let src = Endpoint::new(from, port);
                    let mut dropped = false;
                    if self.tap_count > 0 {
                        if let Some(tap) = self.taps[slot].as_mut() {
                            // Taps operate on a TapFrame view; the pristine
                            // copy is only snapshotted if the tap takes a
                            // mutable borrow of the bytes, so read-only taps
                            // never clone the payload.
                            let mut frame = TapFrame::new(payload.into_vec());
                            match tap(self.now, src, dst, &mut frame) {
                                TapAction::Forward => {
                                    if frame.modified() {
                                        self.stats.frames_tapped_modified += 1;
                                        if let Some(t) = &self.telemetry {
                                            t.tap_modified(self.now, from, dst);
                                        }
                                    }
                                }
                                TapAction::Drop => {
                                    dropped = true;
                                    self.stats.frames_tapped_dropped += 1;
                                    if let Some(t) = &self.telemetry {
                                        t.tap_dropped(self.now, from, dst);
                                    }
                                }
                            }
                            payload = FrameBytes::from(frame.into_bytes());
                        }
                    }
                    if !dropped {
                        let ready = self.now + processing_ns;
                        // Bandwidth model: the frame starts serializing when
                        // the transmitter frees up (FIFO per direction),
                        // then propagates.
                        let ser = link.serialization_ns(payload.len());
                        let tx_start = if ser > 0 {
                            let free = self.tx_free_at[slot];
                            if free > ready {
                                free
                            } else {
                                ready
                            }
                        } else {
                            ready
                        };
                        let tx_end = tx_start + ser;
                        if ser > 0 {
                            self.tx_free_at[slot] = tx_end;
                        }
                        let at = tx_end + link.latency_ns;
                        if let Some(t) = &mut self.telemetry {
                            t.link_frame(sent, from);
                        }
                        self.push(from, at, EventKind::FrameArrival { dst, payload });
                    }
                }
                None => {
                    self.stats.frames_undeliverable += 1;
                    if let Some(t) = &self.telemetry {
                        t.unsendable(self.now, from);
                    }
                }
            }
        }
        for (timer_id, delay_ns) in out.timers.drain(..) {
            let at = self.now + delay_ns;
            self.push(
                from,
                at,
                EventKind::Timer {
                    node: from,
                    timer_id,
                },
            );
        }
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "time went backwards");
        if let Some(rec) = &mut self.recorder {
            // Capture any export-grid boundaries this event is about to
            // carry the clock across, *before* its effects apply.
            rec.advance_to(event.at.as_ns());
        }
        self.now = event.at;
        match event.payload {
            EventKind::FrameArrival { dst, payload } => {
                if let Some(mut node) = self.take_node(dst.node) {
                    if let Some(t) = &self.telemetry {
                        t.delivered(self.now, dst, payload.len());
                    }
                    let mut out = self.checkout_outbox();
                    node.on_frame(self.now, dst.port, payload, &mut out);
                    self.stats.frames_delivered += 1;
                    self.put_node(dst.node, node);
                    self.flush_and_return(dst.node, out);
                } else {
                    self.stats.frames_undeliverable += 1;
                    if let Some(t) = &self.telemetry {
                        t.unreceivable();
                    }
                }
            }
            EventKind::Timer { node: id, timer_id } => {
                if let Some(mut node) = self.take_node(id) {
                    if let Some(t) = &self.telemetry {
                        t.timer_fired();
                    }
                    let mut out = self.checkout_outbox();
                    node.on_timer(self.now, timer_id, &mut out);
                    self.stats.timers_fired += 1;
                    self.put_node(id, node);
                    self.flush_and_return(id, out);
                }
            }
            EventKind::Fault { link, up } => {
                self.stats.faults_applied += 1;
                if let Some(t) = &mut self.telemetry {
                    t.fault_applied();
                }
                self.apply_link_state(link, up);
            }
            EventKind::Reboot { node } => {
                self.stats.faults_applied += 1;
                if let Some(t) = &mut self.telemetry {
                    t.fault_applied();
                }
                self.notify_topology(TopologyEvent::NodeRebooted { node });
            }
        }
        true
    }

    /// Runs until the queue drains or `deadline` passes. Events scheduled
    /// exactly at `deadline` are processed. Returns the number of events
    /// processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(at) = self.queue.next_at() {
            if at > deadline || !self.step() {
                break;
            }
            processed += 1;
        }
        if self.now < deadline {
            self.now = deadline;
        }
        processed
    }

    /// Runs until the event queue is empty. Returns events processed.
    pub fn run_to_completion(&mut self) -> u64 {
        let mut processed = 0;
        while self.step() {
            processed += 1;
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Endpoint;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Echoes every frame back out the ingress port after 10ns, and counts
    /// arrivals.
    struct Echo {
        arrivals: Arc<AtomicU64>,
        reply: bool,
    }

    impl SimNode for Echo {
        fn on_frame(
            &mut self,
            _now: SimTime,
            ingress: PortId,
            payload: FrameBytes,
            out: &mut Outbox,
        ) {
            self.arrivals.fetch_add(1, Ordering::Relaxed);
            if self.reply {
                out.send_delayed(ingress, payload, 10);
            }
        }
    }

    fn pair_with(kind: SchedulerKind) -> (Simulator, Arc<AtomicU64>, Arc<AtomicU64>) {
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        t.add_node(SwitchId::new(2)).unwrap();
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(1)),
            Endpoint::new(SwitchId::new(2), PortId::new(1)),
            1_000,
        )
        .unwrap();
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let mut sim = Simulator::with_scheduler(t, kind);
        sim.register_node(
            SwitchId::new(1),
            Box::new(Echo {
                arrivals: a.clone(),
                reply: false,
            }),
        );
        sim.register_node(
            SwitchId::new(2),
            Box::new(Echo {
                arrivals: b.clone(),
                reply: true,
            }),
        );
        (sim, a, b)
    }

    fn pair() -> (Simulator, Arc<AtomicU64>, Arc<AtomicU64>) {
        pair_with(SchedulerKind::default())
    }

    #[test]
    fn frame_delivery_with_latency() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let (mut sim, a, b) = pair_with(kind);
            sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![1, 2, 3]);
            sim.run_to_completion();
            // S2 received it, replied; S1 received the echo.
            assert_eq!(b.load(Ordering::Relaxed), 1);
            assert_eq!(a.load(Ordering::Relaxed), 1);
            // 1000ns there + 10ns processing + 1000ns back.
            assert_eq!(sim.now().as_ns(), 2_010);
            assert_eq!(sim.stats().frames_delivered, 2);
            assert_eq!(sim.scheduler_kind(), kind);
        }
    }

    #[test]
    fn tap_can_modify_frames() {
        let (mut sim, _a, _b) = pair();
        let (link, _) = sim
            .topology()
            .link_at(SwitchId::new(1), PortId::new(1))
            .unwrap();
        sim.install_tap(
            link,
            SwitchId::new(1),
            Box::new(|_, _, _, payload| {
                payload[0] = 0xff;
                TapAction::Forward
            }),
        );
        sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![0, 0]);
        sim.run_to_completion();
        assert_eq!(sim.stats().frames_tapped_modified, 1);
    }

    #[test]
    fn tap_direction_is_respected() {
        let (mut sim, a, _b) = pair();
        let (link, _) = sim
            .topology()
            .link_at(SwitchId::new(1), PortId::new(1))
            .unwrap();
        // Tap only S2→S1 frames; the initial S1→S2 frame is untouched.
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        sim.install_tap(
            link,
            SwitchId::new(2),
            Box::new(move |_, _, _, _payload| {
                seen2.fetch_add(1, Ordering::Relaxed);
                TapAction::Forward
            }),
        );
        sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![9]);
        sim.run_to_completion();
        assert_eq!(seen.load(Ordering::Relaxed), 1); // only the echo
        assert_eq!(a.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tap_can_drop_frames() {
        let (mut sim, _a, b) = pair();
        let (link, _) = sim
            .topology()
            .link_at(SwitchId::new(1), PortId::new(1))
            .unwrap();
        sim.install_tap(
            link,
            SwitchId::new(1),
            Box::new(|_, _, _, _| TapAction::Drop),
        );
        sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![7]);
        sim.run_to_completion();
        assert_eq!(b.load(Ordering::Relaxed), 0);
        assert_eq!(sim.stats().frames_tapped_dropped, 1);
        assert!(sim.remove_tap(link, SwitchId::new(1)));
        assert!(!sim.remove_tap(link, SwitchId::new(1)));
        // Unknown direction / link are a no-op, not a panic.
        assert!(!sim.remove_tap(link, SwitchId::new(9)));
        assert!(!sim.remove_tap(LinkId(99), SwitchId::new(1)));
    }

    #[test]
    fn frames_to_down_links_are_lost() {
        let (mut sim, _a, b) = pair();
        let (link, _) = sim
            .topology()
            .link_at(SwitchId::new(1), PortId::new(1))
            .unwrap();
        sim.set_link_state(link, false);
        sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![1]);
        sim.run_to_completion();
        assert_eq!(b.load(Ordering::Relaxed), 0);
        assert_eq!(sim.stats().frames_undeliverable, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Recorder {
            fired: Arc<std::sync::Mutex<Vec<u64>>>,
        }
        impl SimNode for Recorder {
            fn on_frame(&mut self, _: SimTime, _: PortId, _: FrameBytes, _: &mut Outbox) {}
            fn on_timer(&mut self, _now: SimTime, id: u64, _out: &mut Outbox) {
                self.fired.lock().unwrap().push(id);
            }
        }
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulator::new(t);
        sim.register_node(
            SwitchId::new(1),
            Box::new(Recorder {
                fired: fired.clone(),
            }),
        );
        sim.schedule_timer(SwitchId::new(1), 3, 300);
        sim.schedule_timer(SwitchId::new(1), 1, 100);
        sim.schedule_timer(SwitchId::new(1), 2, 200);
        sim.run_to_completion();
        assert_eq!(*fired.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(sim.stats().timers_fired, 3);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, _a, b) = pair();
        sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![1]);
        // Frame arrives at t=1000; deadline at 500 must not deliver it.
        let n = sim.run_until(SimTime::from_ns(500));
        assert_eq!(n, 0);
        assert_eq!(b.load(Ordering::Relaxed), 0);
        assert_eq!(sim.now().as_ns(), 500);
        sim.run_until(SimTime::from_ns(5_000));
        assert_eq!(b.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_until_honours_deadline_at_bucket_boundaries() {
        // Regression for the calendar queue: deadlines that land exactly
        // on a bucket boundary (the link latency is the bucket width,
        // 1000 → 1024ns here) must process events at the boundary and
        // nothing after it.
        struct Recorder {
            fired: Arc<std::sync::Mutex<Vec<u64>>>,
        }
        impl SimNode for Recorder {
            fn on_frame(&mut self, _: SimTime, _: PortId, _: FrameBytes, _: &mut Outbox) {}
            fn on_timer(&mut self, now: SimTime, _: u64, _: &mut Outbox) {
                self.fired.lock().unwrap().push(now.as_ns());
            }
        }
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        t.add_node(SwitchId::new(2)).unwrap();
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(1)),
            Endpoint::new(SwitchId::new(2), PortId::new(1)),
            1_000,
        )
        .unwrap();
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulator::with_scheduler(t, SchedulerKind::Calendar);
        sim.register_node(
            SwitchId::new(1),
            Box::new(Recorder {
                fired: fired.clone(),
            }),
        );
        // Timers exactly at bucket boundaries (multiples of 1024) and one
        // just past the deadline boundary.
        for delay in [1_024, 2_048, 2_049, 4_096] {
            sim.schedule_timer(SwitchId::new(1), delay, delay);
        }
        let n = sim.run_until(SimTime::from_ns(2_048));
        assert_eq!(n, 2, "boundary event at the deadline must fire");
        assert_eq!(*fired.lock().unwrap(), vec![1_024, 2_048]);
        assert_eq!(sim.now().as_ns(), 2_048);
        sim.run_to_completion();
        assert_eq!(*fired.lock().unwrap(), vec![1_024, 2_048, 2_049, 4_096]);
    }

    #[test]
    fn injection_after_deadline_pause_stays_ordered() {
        // run_until parks `now` beyond the drained events; a frame
        // injected afterwards must not be reordered against the pending
        // far-future timer (exercises the calendar queue's peek-no-jump
        // rule).
        let (mut sim, _a, b) = pair();
        sim.schedule_timer(SwitchId::new(1), 7, 1_000_000_000);
        sim.run_until(SimTime::from_ns(10_000));
        assert_eq!(sim.now().as_ns(), 10_000);
        sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![1]);
        sim.run_until(SimTime::from_ns(20_000));
        assert_eq!(b.load(Ordering::Relaxed), 1);
        assert!(sim.now().as_ns() <= 20_000);
        sim.run_to_completion();
        assert_eq!(sim.stats().timers_fired, 1);
    }

    #[test]
    fn link_state_change_notifies_nodes() {
        struct TopoWatcher {
            events: Arc<AtomicU64>,
        }
        impl SimNode for TopoWatcher {
            fn on_frame(&mut self, _: SimTime, _: PortId, _: FrameBytes, _: &mut Outbox) {}
            fn on_topology(&mut self, _: SimTime, _: TopologyEvent, _: &mut Outbox) {
                self.events.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        t.add_node(SwitchId::new(2)).unwrap();
        let link = t
            .add_link(
                Endpoint::new(SwitchId::new(1), PortId::new(1)),
                Endpoint::new(SwitchId::new(2), PortId::new(1)),
                10,
            )
            .unwrap();
        let events = Arc::new(AtomicU64::new(0));
        let mut sim = Simulator::new(t);
        sim.register_node(
            SwitchId::new(1),
            Box::new(TopoWatcher {
                events: events.clone(),
            }),
        );
        sim.register_node(
            SwitchId::new(2),
            Box::new(TopoWatcher {
                events: events.clone(),
            }),
        );
        sim.set_link_state(link, false);
        assert_eq!(events.load(Ordering::Relaxed), 2);
        // No-op change does not notify.
        sim.set_link_state(link, false);
        assert_eq!(events.load(Ordering::Relaxed), 2);
        sim.set_link_state(link, true);
        assert_eq!(events.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn telemetry_mirrors_stats_and_logs_events() {
        let (mut sim, _a, _b) = pair();
        let registry = Arc::new(p4auth_telemetry::Registry::with_event_capacity(64));
        sim.set_telemetry(registry.clone());
        let (link, _) = sim
            .topology()
            .link_at(SwitchId::new(1), PortId::new(1))
            .unwrap();
        sim.install_tap(
            link,
            SwitchId::new(2),
            Box::new(|_, _, _, _| TapAction::Drop),
        );
        sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![1, 2, 3]);
        sim.run_to_completion();
        let snap = registry.snapshot();
        // One frame delivered (to S2); its echo was tap-dropped.
        assert_eq!(snap.counter("sim_frames_delivered", ""), Some(1));
        assert_eq!(snap.counter("sim_frames_tap_dropped", ""), Some(1));
        assert_eq!(
            snap.counter("sim_link_frames", "link0:from_S1"),
            Some(1),
            "per-link counter tracks the S1->S2 frame"
        );
        let lead = snap.histogram("sim_event_lead_ns", "").unwrap();
        assert_eq!(lead.count, 1);
        assert_eq!(lead.max, 1_000);
        let kinds: Vec<&str> = snap.events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, vec!["frame_delivered", "frame_dropped"]);
    }

    /// Pins the event and queue-slot layout. A prototype that moved frame
    /// payloads into a side slab (events 16 B, `Scheduled` 32 B) read
    /// *slower*: `fabric_deep` ≈ 7.2 → 6.4 M events/s (3 of 3 pairs), and
    /// `peak_rss_bytes` rose 9.4 → 14.1 MB. An inline payload shares the
    /// event's cache line, and that wins — so a change to
    /// `FrameBytes::INLINE_CAP` or `EventKind` must be a deliberate one,
    /// made here (DESIGN §4b).
    #[test]
    fn event_and_slot_layout_is_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<EventKind>(), 72);
        assert_eq!(size_of::<Scheduled<EventKind>>(), 88);
        assert_eq!(size_of::<crate::sched::Slot<EventKind>>(), 96);
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn registering_unknown_node_panics() {
        let t = Topology::new();
        let mut sim = Simulator::new(t);
        sim.register_node(
            SwitchId::new(1),
            Box::new(Echo {
                arrivals: Arc::new(AtomicU64::new(0)),
                reply: false,
            }),
        );
    }

    #[test]
    fn fault_plan_flap_applies_at_scheduled_instants() {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            let (mut sim, a, b) = pair_with(kind);
            let registry = Arc::new(p4auth_telemetry::Registry::new());
            sim.set_telemetry(registry.clone());
            let (link, _) = sim
                .topology()
                .link_at(SwitchId::new(1), PortId::new(1))
                .unwrap();
            let mut plan = crate::fault::FaultPlan::new();
            plan.flap(link, 2_000, 3_000);
            sim.install_fault_plan(&plan);

            // Before the fault: frame and echo both cross the link.
            sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![1]);
            sim.run_until(SimTime::from_ns(2_500));
            assert_eq!(
                (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
                (1, 1)
            );
            assert!(!sim.topology().link(link).unwrap().up, "link is mid-flap");

            // During the outage: sends fail at ingress, counted as lost.
            sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![2]);
            sim.run_until(SimTime::from_ns(2_900));
            assert_eq!(b.load(Ordering::Relaxed), 1);
            assert_eq!(sim.stats().frames_undeliverable, 1);

            // After recovery: traffic flows again.
            sim.run_until(SimTime::from_ns(3_500));
            assert!(sim.topology().link(link).unwrap().up);
            sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![3]);
            sim.run_to_completion();
            assert_eq!(
                (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)),
                (2, 2)
            );
            assert_eq!(sim.stats().faults_applied, 2);
            assert_eq!(
                registry.snapshot().counter("sim_faults_applied", ""),
                Some(2)
            );
        }
    }

    #[test]
    fn fault_sorts_after_node_events_at_the_same_instant() {
        // The frame arrives at t=1000 and its echo is sent during the same
        // processing instant. A fault at exactly t=1000 pops *after* the
        // arrival (its pseudo-source id is above every real node id), so
        // the echo still escapes; a fault one tick earlier pops first and
        // the echo dies at the downed link. Both orders must be identical
        // on every engine.
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            for (down_at, echo_escapes) in [(1_000u64, true), (999, false)] {
                let (mut sim, a, b) = pair_with(kind);
                let (link, _) = sim
                    .topology()
                    .link_at(SwitchId::new(1), PortId::new(1))
                    .unwrap();
                let mut plan = crate::fault::FaultPlan::new();
                plan.down(link, down_at);
                sim.install_fault_plan(&plan);
                sim.inject_frame(SwitchId::new(1), PortId::new(1), vec![7]);
                sim.run_to_completion();
                // The original frame was in flight before the fault either
                // way: faults are fail-stop at the sender, not in-flight
                // frame killers.
                assert_eq!(b.load(Ordering::Relaxed), 1, "arrival survives");
                assert_eq!(a.load(Ordering::Relaxed), echo_escapes as u64);
                assert_eq!(sim.stats().frames_undeliverable, 1 - echo_escapes as u64);
                assert_eq!(sim.stats().faults_applied, 1);
            }
        }
    }

    #[test]
    fn fault_notifies_nodes_like_an_operator_action() {
        struct TopoLog {
            changes: Arc<std::sync::Mutex<Vec<(u64, bool)>>>,
        }
        impl SimNode for TopoLog {
            fn on_frame(&mut self, _: SimTime, _: PortId, _: FrameBytes, _: &mut Outbox) {}
            fn on_topology(&mut self, now: SimTime, event: TopologyEvent, _: &mut Outbox) {
                let up = matches!(event, TopologyEvent::LinkUp { .. });
                self.changes.lock().unwrap().push((now.as_ns(), up));
            }
        }
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        t.add_node(SwitchId::new(2)).unwrap();
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(1)),
            Endpoint::new(SwitchId::new(2), PortId::new(1)),
            1_000,
        )
        .unwrap();
        let changes = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut sim = Simulator::new(t);
        sim.register_node(
            SwitchId::new(1),
            Box::new(TopoLog {
                changes: changes.clone(),
            }),
        );
        let mut plan = crate::fault::FaultPlan::new();
        plan.flap(LinkId(0), 5_000, 8_000);
        sim.install_fault_plan(&plan);
        sim.run_to_completion();
        assert_eq!(
            *changes.lock().unwrap(),
            vec![(5_000, false), (8_000, true)]
        );
        assert_eq!(sim.now().as_ns(), 8_000);
    }
}
