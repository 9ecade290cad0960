//! Simulation harness: adapters that mount P4Auth agents and the control
//! plane (a [`ReplicaSet`]; one replica is the paper's single controller)
//! on the network simulator, plus a network builder that runs the
//! key-management bootstrap.

use p4auth_controller::{
    ControllerConfig, ControllerEvent, DefenceConfig, MitigationKind, Outgoing, ReplicaSet,
};
use p4auth_core::agent::{AgentConfig, AgentEvent, InNetworkApp, P4AuthSwitch};
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sim::{Outbox, SimNode, Simulator, TopologyEvent};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::topology::{Endpoint, Link, LinkId, Topology};

pub use p4auth_netsim::sched::SchedulerKind;
pub use p4auth_netsim::topology::HOST_ID_BASE;
use p4auth_primitives::idhash::IdMap;
use p4auth_primitives::Key64;
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Whether `id` is a switch data plane (not the controller, not a host).
fn is_switch(id: SwitchId) -> bool {
    !id.is_controller() && id.value() < HOST_ID_BASE
}

/// Every link between two switch data planes (none touching the
/// controller or a host), with its id, in topology order: the links that
/// carry port keys.
pub(crate) fn dp_dp_links(topology: &Topology) -> impl Iterator<Item = (LinkId, &Link)> {
    (topology.links().iter().enumerate())
        .filter(|(_, l)| is_switch(l.a.node) && is_switch(l.b.node))
        .map(|(i, l)| (LinkId(i as u32), l))
}

/// Shared handle to a switch agent (the harness keeps one, the sim node
/// keeps the other).
pub type SharedSwitch = Rc<RefCell<P4AuthSwitch>>;

/// Extra controller-side processing delay per message (the Python agent of
/// the prototype); applied by the controller node when transmitting.
pub const CONTROLLER_PROC_NS: u64 = 150_000;

/// Callback a [`SwitchNode`] invokes when a DP-DP port key lands:
/// `(sim-ns, switch, port)`. The control plane only redirects port-key
/// legs and never sees them finish; the defence loop needs the
/// completion for its detection-to-mitigation latency accounting.
pub type PortKeyNotifier = Rc<RefCell<dyn FnMut(u64, SwitchId, PortId)>>;

/// A [`SimNode`] wrapping a [`P4AuthSwitch`]. Frames are processed by the
/// agent; outputs are transmitted after the agent's modelled processing
/// cost.
///
/// The agent addresses the control plane through its logical CPU port
/// (port 0, a PCIe channel on real hardware); in the simulated topology the
/// C-DP link hangs off a front-panel port (`cpu_netport`). The node
/// translates between the two.
pub struct SwitchNode {
    id: SwitchId,
    agent: SharedSwitch,
    cpu_netport: Option<PortId>,
    notify: Option<PortKeyNotifier>,
    /// §II-A compromised-switch-OS model (default off; see
    /// [`Network::compromise_switch_os`]): when set, frames arriving from
    /// data ports that impersonate this switch's own C-DP traffic are
    /// relayed out the control uplink unauthenticated.
    compromised: Rc<Cell<bool>>,
}

impl SwitchNode {
    /// Wraps a shared agent; `cpu_netport` is the topology port carrying
    /// the C-DP channel (if any). DP-DP port-key completions are reported
    /// through `notify` (the network routes them to the owner replica).
    pub fn new(
        id: SwitchId,
        agent: SharedSwitch,
        cpu_netport: Option<PortId>,
        notify: Option<PortKeyNotifier>,
    ) -> Self {
        SwitchNode {
            id,
            agent,
            cpu_netport,
            notify,
            compromised: Rc::new(Cell::new(false)),
        }
    }
}

impl SimNode for SwitchNode {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        let logical_ingress = if Some(ingress) == self.cpu_netport {
            PortId::CPU
        } else {
            ingress
        };
        // §II-A compromised switch OS (modelled, default off): an attacker
        // foothold in the switch's OS hijacks frames arriving from data
        // ports that impersonate the switch's own control-plane traffic and
        // relays them out the C-DP uplink without authentication — the path
        // by which a digest flood sourced at an edge user reaches the
        // controller. Legitimate DP-DP traffic is untouched (peers never
        // claim *this* switch as sender).
        if self.compromised.get() && logical_ingress != PortId::CPU {
            if let (Some(cpu), Ok(msg)) = (self.cpu_netport, p4auth_wire::Message::decode(&payload))
            {
                if msg.header().sender == self.id && msg.header().port.is_cpu() {
                    out.send_delayed(cpu, payload, 1_000);
                    return;
                }
            }
        }
        let output = self
            .agent
            .borrow_mut()
            .on_packet(now.as_ns(), logical_ingress, &payload);
        if let Some(notify) = &self.notify {
            for ev in &output.events {
                if let AgentEvent::KeyInstalled { port } | AgentEvent::KeyRolled { port } = ev {
                    if !port.is_cpu() {
                        (notify.borrow_mut())(now.as_ns(), self.id, *port);
                    }
                }
            }
        }
        for (port, bytes) in output.outputs {
            let physical = if port.is_cpu() {
                match self.cpu_netport {
                    Some(p) => p,
                    None => continue, // no control channel attached
                }
            } else {
                port
            };
            out.send_delayed(physical, bytes, output.cost_ns);
        }
    }

    fn on_topology(&mut self, _now: SimTime, event: TopologyEvent, _out: &mut Outbox) {
        if event == (TopologyEvent::NodeRebooted { node: self.id }) {
            self.agent.borrow_mut().reboot();
        }
    }
}

/// A scheduled periodic key-rollover plan (§VI-C: keys are updated
/// "automatically ... at regular intervals").
#[derive(Clone, Debug, Default)]
pub struct RolloverPlan {
    /// Rollover period in nanoseconds of simulated time.
    pub period_ns: u64,
    /// Switches whose local keys roll.
    pub switches: Vec<SwitchId>,
    /// DP-DP links whose port keys roll: `(initiator, initiator port,
    /// responder)`.
    pub links: Vec<(SwitchId, PortId, SwitchId)>,
}

/// Shared handle to the (optional) rollover plan.
pub type SharedRollover = Rc<RefCell<Option<RolloverPlan>>>;

/// Timer id the [`ControllerNode`] uses for periodic rollover.
pub const ROLLOVER_TIMER: u64 = 0x5011;

/// Timer id used by [`TrafficSource`].
const TRAFFIC_TIMER: u64 = 0x7a1c;

/// A host that transmits a pre-computed schedule of frames at their
/// timestamps (the simulator-side equivalent of a packet replay tool).
pub struct TrafficSource {
    /// `(transmit time ns, egress port, frame)` sorted by time.
    schedule: std::collections::VecDeque<(u64, PortId, Vec<u8>)>,
}

impl TrafficSource {
    /// Creates a source from a schedule (sorted by the caller).
    pub fn new(schedule: Vec<(u64, PortId, Vec<u8>)>) -> Self {
        TrafficSource {
            schedule: schedule.into(),
        }
    }

    fn arm_next(&self, now: SimTime, out: &mut Outbox) {
        if let Some(&(at, _, _)) = self.schedule.front() {
            out.set_timer(TRAFFIC_TIMER, at.saturating_sub(now.as_ns()).max(1));
        }
    }
}

/// Callback invoked by a [`SinkHost`] for every arriving frame.
pub type ArrivalCallback = Box<dyn FnMut(SimTime, PortId, &[u8])>;

/// A host that records every arriving frame via a callback (e.g. for
/// flow-completion measurements at the receiver side of a bottleneck).
pub struct SinkHost {
    on_arrival: ArrivalCallback,
}

impl SinkHost {
    /// Creates a sink with an arrival callback.
    pub fn new(on_arrival: ArrivalCallback) -> Self {
        SinkHost { on_arrival }
    }
}

impl SimNode for SinkHost {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, _out: &mut Outbox) {
        (self.on_arrival)(now, ingress, &payload);
    }
}

impl SimNode for TrafficSource {
    fn on_frame(
        &mut self,
        _now: SimTime,
        _ingress: PortId,
        _payload: FrameBytes,
        _out: &mut Outbox,
    ) {
        // Hosts sink whatever comes back.
    }

    fn on_timer(&mut self, now: SimTime, timer_id: u64, out: &mut Outbox) {
        if timer_id != TRAFFIC_TIMER {
            return;
        }
        while let Some(&(at, port, _)) = self.schedule.front() {
            if at > now.as_ns() {
                break;
            }
            let (_, _, frame) = self.schedule.pop_front().expect("peeked");
            out.send(port, frame);
        }
        self.arm_next(now, out);
    }
}

/// Shared handle to a [`ReplicaSet`].
pub type SharedReplicaSet = Rc<RefCell<ReplicaSet>>;

/// Timer id driving the control plane's orchestration tick.
pub const ORCH_TIMER: u64 = 0x0c4e;

/// Orchestration tick period: every tick steps every replica's key
/// manager (which re-drives stalled exchanges with capped backoff).
pub const ORCH_PERIOD_NS: u64 = 5_000_000;

/// The control plane's [`SimNode`]: a [`ReplicaSet`] mounted at the
/// controller's topology position. Externally the replicas share one
/// network identity (`SwitchId::CONTROLLER` and its per-switch ports) —
/// which replica handles a frame is decided by the set's partition hash,
/// not by the wire; the paper's single controller is a set of one. The
/// node reaches switch `i` through its own port `i - 1` (matching
/// [`Topology::chain`] and the builder below).
pub struct ControllerNode {
    set: SharedReplicaSet,
    events: Rc<RefCell<Vec<ControllerEvent>>>,
    rollover: SharedRollover,
    /// Every DP-DP link as its `(a, b)` endpoints, in topology order: a
    /// rebooted switch's links get their port keys again, each started
    /// from `a` as at link-up.
    dp_links: Vec<(Endpoint, Endpoint)>,
    /// Rebooted switches whose local key is being initialised again;
    /// their port keys follow once it is installed.
    rejoining: Vec<SwitchId>,
    /// Agent handles, for enforcing a port channel's quarantine at the
    /// agent.
    switches: IdMap<SwitchId, SharedSwitch>,
    /// Whether an ORCH timer chain is live (shared with the network so
    /// arming is idempotent).
    armed: Rc<Cell<bool>>,
}

impl ControllerNode {
    /// Enforces each port-channel quarantine among `events` at the agent
    /// on that port: it drops the channel's traffic until the port-key
    /// update the owning core already sent installs a fresh key.
    fn quarantine_ports(&self, events: &[ControllerEvent]) {
        let ports = events.iter().filter_map(|e| match *e {
            ControllerEvent::DefenceMitigated {
                switch,
                channel,
                kind: MitigationKind::Quarantine,
            } if !channel.is_cpu() => Some((switch, channel)),
            _ => None,
        });
        for (switch, port) in ports {
            if let Some(agent) = self.switches.get(&switch) {
                agent.borrow_mut().set_channel_quarantine(port, true);
            }
        }
    }

    /// Once a rebooted `switch` holds a local key again, initialises the
    /// port key of each of its DP-DP links: the neighbours still hold keys
    /// the switch lost.
    fn port_keys_after_reboot(
        dp_links: &[(Endpoint, Endpoint)],
        set: &mut ReplicaSet,
        now_ns: u64,
        switch: SwitchId,
        outgoing: &mut Vec<Outgoing>,
    ) {
        for &(a, b) in dp_links {
            if a.node == switch || b.node == switch {
                outgoing.extend(set.port_key_init(now_ns, a.node, a.port, b.node, b.port));
            }
        }
    }

    /// The controller-side port used to reach `switch`.
    pub fn port_for(switch: SwitchId) -> PortId {
        PortId::new((switch.value() - 1) as u8)
    }

    /// The switch reached through controller port `port`.
    pub fn switch_for(port: PortId) -> SwitchId {
        SwitchId::new(port.value() as u16 + 1)
    }

    fn transmit(out: &mut Outbox, outgoing: Vec<Outgoing>) {
        for o in outgoing {
            out.send_delayed(Self::port_for(o.to), o.bytes, CONTROLLER_PROC_NS);
        }
    }

    /// Periodic rollover (§VI-C): re-drive anything a lost message
    /// stalled last period, then roll every local key and every port key
    /// on the owning cores.
    fn rollover_tick(&mut self, now_ns: u64, out: &mut Outbox) {
        let Some(plan) = self.rollover.borrow().clone() else {
            return;
        };
        let mut set = self.set.borrow_mut();
        let mut outgoing = set.retry_stalled(now_ns);
        for &sw in &plan.switches {
            let core = set.core_mut(sw);
            if core.has_local_key(sw) {
                outgoing.extend(core.local_key_update(sw));
            }
        }
        for &(sw1, port1, sw2) in &plan.links {
            outgoing.extend(set.port_key_update(now_ns, sw1, port1, sw2));
        }
        drop(set);
        Self::transmit(out, outgoing);
        out.set_timer(ROLLOVER_TIMER, plan.period_ns);
    }

    /// Orchestration tick: step every replica, and keep ticking while a
    /// bulk-rollover epoch is unfinished.
    fn orchestration_tick(&mut self, now_ns: u64, out: &mut Outbox) {
        let mut set = self.set.borrow_mut();
        let outgoing = set.step(now_ns);
        if !set.rollover_complete() {
            out.set_timer(ORCH_TIMER, ORCH_PERIOD_NS);
        } else {
            self.armed.set(false);
        }
        drop(set);
        Self::transmit(out, outgoing);
    }
}

impl SimNode for ControllerNode {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        let now_ns = now.as_ns();
        let from = Self::switch_for(ingress);
        let outgoing = {
            let mut set = self.set.borrow_mut();
            let (mut outgoing, events) = set.on_message(now_ns, from, &payload);
            self.quarantine_ports(&events);
            if events.contains(&ControllerEvent::LocalKeyInstalled(from)) {
                if let Some(i) = self.rejoining.iter().position(|&s| s == from) {
                    self.rejoining.swap_remove(i);
                    Self::port_keys_after_reboot(
                        &self.dp_links,
                        &mut set,
                        now_ns,
                        from,
                        &mut outgoing,
                    );
                }
            }
            self.events.borrow_mut().extend(events);
            outgoing
        };
        Self::transmit(out, outgoing);
    }

    fn on_timer(&mut self, now: SimTime, timer_id: u64, out: &mut Outbox) {
        match timer_id {
            ROLLOVER_TIMER => self.rollover_tick(now.as_ns(), out),
            ORCH_TIMER => self.orchestration_tick(now.as_ns(), out),
            _ => {}
        }
    }

    fn on_topology(&mut self, now: SimTime, event: TopologyEvent, out: &mut Outbox) {
        // §VI: a switch boots with no keys, so a rebooted one runs the
        // local-key initialization again (its port keys follow).
        if let TopologyEvent::NodeRebooted { node } = event {
            if self.switches.contains_key(&node) {
                self.rejoining.push(node);
                let outgoing = self.set.borrow_mut().local_key_init(now.as_ns(), node);
                Self::transmit(out, outgoing);
            }
            return;
        }
        // §VI-C: a link-up event (LLDP-detected "port active") triggers
        // port-key initialization between the two data planes, routed
        // through (and possibly redirected across) the owning replicas.
        if let TopologyEvent::LinkUp { a, b, .. } = event {
            if !is_switch(a.node) || !is_switch(b.node) {
                return;
            }
            // A flapping link can come back up while the previous
            // recovery's exchange is still in flight (the legs travel the
            // control channel, which the flap does not touch); the home
            // core then starts nothing and the pending exchange completes.
            let outgoing =
                self.set
                    .borrow_mut()
                    .port_key_init(now.as_ns(), a.node, a.port, b.node, b.port);
            Self::transmit(out, outgoing);
        }
    }
}

/// A built P4Auth network: simulator + shared handles. The control plane
/// is a [`ReplicaSet`] of `n_replicas` partitioned controller replicas;
/// `n_replicas = 1` is the paper's single controller.
pub struct Network {
    /// The simulator (topology, taps, clock).
    pub sim: Simulator,
    /// Shared agent handles by switch id. An [`IdMap`], not a `HashMap`
    /// under `std`'s per-process random key: a loop over the agents
    /// (declaring registers, attaching telemetry, dropping the network)
    /// then allocates and frees in the same order in every process, and
    /// so does one build's heap layout and peak RSS.
    pub switches: IdMap<SwitchId, SharedSwitch>,
    /// Shared replica-set handle.
    pub set: SharedReplicaSet,
    /// Controller events accumulated during the run (all replicas).
    pub events: Rc<RefCell<Vec<ControllerEvent>>>,
    rollover: SharedRollover,
    orch_armed: Rc<Cell<bool>>,
    /// Per-switch compromised-OS relay flags (see
    /// [`Network::compromise_switch_os`]).
    relay_flags: IdMap<SwitchId, Rc<Cell<bool>>>,
}

/// The name `benchmark/` builds through.
pub type ReplicatedNetwork = Network;

impl Network {
    /// Builds a network over `topology` with `n_replicas` controller
    /// replicas partitioning the switches. `make_app` produces the
    /// in-network app for each switch (or `None`); `configure` lets the
    /// caller adjust each agent's config (e.g. disable auth for
    /// baselines).
    ///
    /// Every switch is registered with its owner replica using a
    /// per-switch `K_seed` derived from `seed_base`.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn build(
        topology: Topology,
        n_replicas: usize,
        controller_config: ControllerConfig,
        seed_base: u64,
        make_app: impl FnMut(SwitchId) -> Option<Box<dyn InNetworkApp>>,
        configure: impl FnMut(SwitchId, AgentConfig) -> AgentConfig,
    ) -> Network {
        Network::build_with_scheduler(
            topology,
            SchedulerKind::default(),
            n_replicas,
            controller_config,
            seed_base,
            make_app,
            configure,
        )
    }

    /// Like [`Network::build`] but with an explicit event-scheduler choice
    /// (the calendar queue and the reference heap produce bit-identical
    /// runs; the heap exists for differential testing).
    pub fn build_with_scheduler(
        topology: Topology,
        scheduler: SchedulerKind,
        n_replicas: usize,
        controller_config: ControllerConfig,
        seed_base: u64,
        mut make_app: impl FnMut(SwitchId) -> Option<Box<dyn InNetworkApp>>,
        mut configure: impl FnMut(SwitchId, AgentConfig) -> AgentConfig,
    ) -> Network {
        assert!(n_replicas > 0, "at least one controller replica");
        let mut sim = Simulator::with_scheduler(topology, scheduler);
        let events: Rc<RefCell<Vec<ControllerEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let rollover: SharedRollover = Rc::new(RefCell::new(None));
        let orch_armed = Rc::new(Cell::new(false));

        // Seeds sorted by id so replica registration order (and with it
        // every per-replica RNG stream) is identical run to run. Hosts
        // (ids ≥ HOST_ID_BASE) get their behaviour attached separately.
        let mut switch_ids: Vec<SwitchId> = sim
            .topology()
            .nodes()
            .iter()
            .copied()
            .filter(|&id| is_switch(id))
            .collect();
        switch_ids.sort();
        let seeds: Vec<(SwitchId, Key64)> = switch_ids
            .iter()
            .map(|&id| {
                let k =
                    Key64::new(seed_base ^ (id.value() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                (id, k)
            })
            .collect();
        let set: SharedReplicaSet = Rc::new(RefCell::new(ReplicaSet::new(
            n_replicas,
            controller_config,
            &seeds,
        )));

        // One shared notifier: completions go to whichever replica owns
        // the reporting switch.
        let notify: PortKeyNotifier = Rc::new(RefCell::new({
            let set = set.clone();
            move |now_ns: u64, peer: SwitchId, channel: PortId| {
                set.borrow_mut()
                    .notify_port_key_installed(now_ns, peer, channel);
            }
        }));

        let mut switches = IdMap::default();
        let mut relay_flags = IdMap::default();
        for &(id, k_seed) in &seeds {
            let neighbors = sim.topology().neighbors(id);
            // The front-panel port carrying the C-DP channel, if any.
            let cpu_netport = neighbors
                .iter()
                .find(|(_, ep)| ep.node.is_controller())
                .map(|(p, _)| *p);
            // Port count: highest *data* port number used in the topology.
            let max_port = neighbors
                .iter()
                .filter(|(_, ep)| !ep.node.is_controller())
                .map(|(p, _)| p.value())
                .max()
                .unwrap_or(1);
            let config = configure(id, AgentConfig::new(id, max_port, k_seed));
            let agent = Rc::new(RefCell::new(P4AuthSwitch::new(config, make_app(id))));
            switches.insert(id, agent.clone());
            let node = SwitchNode::new(id, agent, cpu_netport, Some(notify.clone()));
            relay_flags.insert(id, node.compromised.clone());
            sim.register_node(id, Box::new(node));
        }
        if sim.topology().nodes().iter().any(|id| id.is_controller()) {
            let dp_links = dp_dp_links(sim.topology())
                .map(|(_, l)| (l.a, l.b))
                .collect();
            sim.register_node(
                SwitchId::CONTROLLER,
                Box::new(ControllerNode {
                    set: set.clone(),
                    events: events.clone(),
                    rollover: rollover.clone(),
                    dp_links,
                    rejoining: Vec::new(),
                    switches: switches.clone(),
                    armed: orch_armed.clone(),
                }),
            );
        }

        Network {
            sim,
            switches,
            set,
            events,
            rollover,
            orch_armed,
            relay_flags,
        }
    }

    /// Arms the §II-A compromised-switch-OS model on `switch` (see the
    /// relay logic in [`SwitchNode`]): from now on, frames arriving from
    /// the switch's data ports that impersonate its own C-DP traffic are
    /// relayed to the controller unauthenticated. The defence tests use
    /// this to let a digest flood sourced at an aggregated edge user reach
    /// the control channel, exactly the foothold the paper defends
    /// against.
    pub fn compromise_switch_os(&mut self, switch: SwitchId) {
        self.relay_flags[&switch].set(true);
    }

    /// Arms the adaptive defence loop on every replica:
    /// forged-digest / replay floods on one `(peer, channel)` trigger an
    /// automatic key rollover, escalating to channel quarantine if the
    /// rollover does not stop the flood. The core owning the channel
    /// applies every mitigation itself: a local-key update for a CPU
    /// channel, a `portKeyUpdate` toward the peer its port-key init named
    /// for a DP-DP one; the [`ControllerNode`] only enforces a port
    /// channel's quarantine at the agent, from the core's
    /// `DefenceMitigated` event. Detection-to-mitigation latency lands in
    /// the `defence_mitigation_latency_ns` telemetry histogram when a
    /// registry is attached; the loop itself needs none.
    pub fn enable_defence(&mut self, config: DefenceConfig) {
        self.set.borrow_mut().enable_defence(config);
    }

    /// Enables automatic periodic key rollover (§VI-C): every `period_ns`
    /// of simulated time the control plane rolls every local key and
    /// every port key, retrying anything a lost message stalled. Call
    /// after [`Network::bootstrap_keys`].
    pub fn enable_periodic_rollover(&mut self, period_ns: u64) {
        let switches = self.sorted_switch_ids();
        let links = dp_dp_links(self.sim.topology())
            .map(|(_, l)| (l.a.node, l.a.port, l.b.node))
            .collect();
        *self.rollover.borrow_mut() = Some(RolloverPlan {
            period_ns,
            switches,
            links,
        });
        self.sim
            .schedule_timer(SwitchId::CONTROLLER, ROLLOVER_TIMER, period_ns);
    }

    /// Stops periodic rollover: the pending timer fires once more as a
    /// no-op and the chain ends (after which `run_to_completion` drains).
    pub fn disable_periodic_rollover(&mut self) {
        *self.rollover.borrow_mut() = None;
    }

    /// Starts the next versioned bulk key-rollover epoch and the
    /// orchestration tick that fans it out. Returns the epoch, or `None`
    /// while a previous epoch is still incomplete.
    pub fn start_bulk_rollover(&mut self) -> Option<u64> {
        let now_ns = self.sim.now().as_ns();
        let epoch = self.set.borrow_mut().start_bulk_rollover(now_ns);
        if epoch.is_some() {
            self.arm_orchestrator();
        }
        epoch
    }

    /// Schedules the ORCH timer if no chain is already live (the chain
    /// re-arms itself while there is work; double-arming would
    /// double-step every replica each period).
    fn arm_orchestrator(&mut self) {
        if !self.orch_armed.get() {
            self.orch_armed.set(true);
            self.sim
                .schedule_timer(SwitchId::CONTROLLER, ORCH_TIMER, ORCH_PERIOD_NS);
        }
    }

    /// Registers a [`SinkHost`] on host node `host`.
    ///
    /// # Panics
    ///
    /// Panics if the node is missing from the topology or already
    /// registered.
    pub fn attach_sink(&mut self, host: SwitchId, on_arrival: ArrivalCallback) {
        assert!(host.value() >= HOST_ID_BASE, "sinks live on host ids");
        self.sim
            .register_node(host, Box::new(SinkHost::new(on_arrival)));
    }

    /// Registers a [`TrafficSource`] on host node `host` (id ≥
    /// [`HOST_ID_BASE`], present in the topology) and arms its first
    /// transmission.
    ///
    /// # Panics
    ///
    /// Panics if the node is missing from the topology or already
    /// registered.
    pub fn attach_traffic_source(&mut self, host: SwitchId, schedule: Vec<(u64, PortId, Vec<u8>)>) {
        assert!(
            host.value() >= HOST_ID_BASE,
            "traffic sources live on host ids"
        );
        let first = schedule.first().map(|&(at, _, _)| at);
        self.sim
            .register_node(host, Box::new(TrafficSource::new(schedule)));
        if let Some(at) = first {
            let delay = at.saturating_sub(self.sim.now().as_ns()).max(1);
            self.sim.schedule_timer(host, TRAFFIC_TIMER, delay);
        }
    }

    /// Switch ids in ascending order, so exchange order (and any attached
    /// telemetry event log) follows the ids, not the map's hash order.
    fn sorted_switch_ids(&self) -> Vec<SwitchId> {
        let mut s: Vec<SwitchId> = self.switches.keys().copied().collect();
        s.sort();
        s
    }

    /// Runs the key-management bootstrap: local-key initialization for
    /// every switch (each driven by its owner replica), then port-key
    /// initialization for every DP-DP link (redirected across partitions
    /// where the endpoints hash to different replicas), driving the
    /// simulator until all exchanges complete. Returns the simulated time
    /// the bootstrap took.
    ///
    /// # Panics
    ///
    /// Panics if any key fails to establish (a protocol bug or an active
    /// adversary during bootstrap).
    pub fn bootstrap_keys(&mut self) -> SimTime {
        let start = self.sim.now();
        let switch_ids = self.sorted_switch_ids();
        for &id in &switch_ids {
            let now_ns = self.sim.now().as_ns();
            let outgoing = self.set.borrow_mut().local_key_init(now_ns, id);
            self.send_from_controller(outgoing);
        }
        self.sim.run_to_completion();
        for &id in &switch_ids {
            assert!(
                self.set.borrow().has_local_key(id),
                "local key init failed for {id}"
            );
        }

        // Port keys for every DP-DP link (host attachment links are not
        // switch-to-switch and carry no port keys).
        let links: Vec<Link> = dp_dp_links(self.sim.topology()).map(|(_, l)| *l).collect();
        for link in &links {
            let now_ns = self.sim.now().as_ns();
            let outgoing = self.set.borrow_mut().port_key_init(
                now_ns,
                link.a.node,
                link.a.port,
                link.b.node,
                link.b.port,
            );
            self.send_from_controller(outgoing);
            self.sim.run_to_completion();
        }

        for link in &links {
            for (node, port) in [(link.a.node, link.a.port), (link.b.node, link.b.port)] {
                assert!(
                    self.switches[&node].borrow().keys(port).is_installed(),
                    "port key init failed for {node}:{port}"
                );
            }
        }
        SimTime::from_ns(self.sim.now().since(start))
    }

    /// Transmits controller-originated messages with the controller's
    /// processing delay, so injected traffic never overtakes frames the
    /// controller node emitted in the same instant (sequence numbers are
    /// per channel and FIFO).
    pub fn send_from_controller(&mut self, outgoing: Vec<Outgoing>) {
        for o in outgoing {
            self.sim.inject_frame_delayed(
                SwitchId::CONTROLLER,
                ControllerNode::port_for(o.to),
                o.bytes,
                CONTROLLER_PROC_NS,
            );
        }
    }

    /// Sends a register read toward `switch` via its owner replica.
    pub fn controller_read(&mut self, switch: SwitchId, reg: RegId, index: u32) {
        let now_ns = self.sim.now().as_ns();
        let o = self
            .set
            .borrow_mut()
            .read_register(now_ns, switch, reg, index);
        self.send_from_controller(vec![o]);
    }

    /// Sends a register write toward `switch` via its owner replica.
    pub fn controller_write(&mut self, switch: SwitchId, reg: RegId, index: u32, value: u64) {
        let now_ns = self.sim.now().as_ns();
        let o = self
            .set
            .borrow_mut()
            .write_register(now_ns, switch, reg, index, value);
        self.send_from_controller(vec![o]);
    }

    /// Delivers `frames` to `switch` as if each arrived from a host on port
    /// 9, then runs the simulator until it drains.
    pub fn deliver(&mut self, switch: SwitchId, frames: impl IntoIterator<Item = Vec<u8>>) {
        for bytes in frames {
            let now = self.sim.now();
            self.sim.with_node(switch, |node, out| {
                node.on_frame(now, PortId::new(9), bytes.into(), out);
            });
        }
        self.sim.run_to_completion();
    }

    /// Reads cell `index` of register `name` straight from `switch`'s
    /// chassis: the driver's view, no C-DP message is sent.
    ///
    /// # Panics
    ///
    /// Panics if `switch` declares no such register or `index` is out of
    /// range.
    pub fn read_register(&self, switch: SwitchId, name: &str, index: u32) -> u64 {
        let agent = self.switches[&switch].borrow();
        let register = agent.chassis().register(name).expect("declared register");
        register.read(index).expect("index in range")
    }

    /// Injects an in-network control message (e.g. a HULA probe) originated
    /// by `switch` out of `port`, sealed with that port's key.
    ///
    /// # Panics
    ///
    /// Panics if sealing fails (no port key while auth is enabled).
    pub fn originate_probe(
        &mut self,
        switch: SwitchId,
        port: PortId,
        system: u8,
        payload: Vec<u8>,
    ) {
        let bytes = self.switches[&switch]
            .borrow_mut()
            .seal_probe(port, system, payload)
            .expect("probe sealing requires an installed port key");
        self.sim.inject_frame(switch, port, bytes);
    }

    /// Drains accumulated controller events (all replicas, in arrival
    /// order).
    pub fn take_events(&mut self) -> Vec<ControllerEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Attaches one telemetry registry to the whole network: the simulator,
    /// every replica, and every agent (which forwards to its chassis).
    /// Metrics are labeled by component (`"replica0"`, `"replica1"`, …,
    /// `"S1"`, …) so one [`p4auth_telemetry::Snapshot`] covers the full
    /// system and distinguishes the partitions.
    pub fn enable_telemetry(&mut self, registry: std::sync::Arc<p4auth_telemetry::Registry>) {
        self.sim.set_telemetry(registry.clone());
        self.set.borrow_mut().set_telemetry(registry.clone());
        for agent in self.switches.values() {
            agent.borrow_mut().set_telemetry(registry.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_netsim::topology::Topology;

    fn network(n: u16) -> Network {
        Network::build(
            Topology::chain(n, 1_000, 200_000),
            1,
            ControllerConfig::default(),
            0xb007_5eed,
            |_| None,
            |_, c| c,
        )
    }

    #[test]
    fn bootstrap_establishes_all_keys_on_one_and_two_replicas() {
        for n_replicas in [1, 2] {
            let mut net = Network::build(
                Topology::chain(4, 1_000, 200_000),
                n_replicas,
                ControllerConfig::default(),
                0xb007_5eed,
                |_| None,
                |_, c| c,
            );
            net.bootstrap_keys();
            for (id, sw) in &net.switches {
                assert!(
                    sw.borrow().keys(PortId::CPU).is_installed(),
                    "local key missing on {id}"
                );
            }
            // Chain DP-DP links: S1:p2<->S2:p1, S2:p2<->S3:p1, S3:p2<->S4:p1.
            for sw in [1u16, 2, 3] {
                assert!(net.switches[&SwitchId::new(sw)]
                    .borrow()
                    .keys(PortId::new(2))
                    .is_installed());
                assert!(net.switches[&SwitchId::new(sw + 1)]
                    .borrow()
                    .keys(PortId::new(1))
                    .is_installed());
            }
            if n_replicas == 2 {
                // The partition hash must actually split the fleet and at
                // least one link must cross the boundary (4 switches, 2
                // non-empty partitions), or the redirect + seq-handoff
                // path never ran.
                let set = net.set.borrow();
                assert!(set.replicas().iter().all(|r| !r.owned().is_empty()));
                let crossings = [(1u16, 2u16), (2, 3), (3, 4)]
                    .iter()
                    .filter(|&&(a, b)| set.owner(SwitchId::new(a)) != set.owner(SwitchId::new(b)))
                    .count();
                assert!(crossings > 0, "chain never crossed a partition");
            }
        }
    }

    #[test]
    fn replicated_bulk_rollover_converges_and_records_fanout() {
        let registry = std::sync::Arc::new(p4auth_telemetry::Registry::new());
        let mut net = Network::build(
            Topology::chain(4, 1_000, 200_000),
            2,
            ControllerConfig::default(),
            0xb007_5eed,
            |_| None,
            |_, c| c,
        );
        net.enable_telemetry(registry.clone());
        net.bootstrap_keys();

        let epoch = net.start_bulk_rollover().expect("first epoch starts");
        assert_eq!(epoch, 1);
        // A second epoch must be refused while the first is in flight.
        assert_eq!(net.start_bulk_rollover(), None);
        net.sim.run_to_completion();

        let set = net.set.borrow();
        assert!(set.rollover_complete(), "epoch 1 must converge");
        // Every local key moved exactly one version past INITIAL.
        for r in set.replicas() {
            for &sw in r.owned() {
                let (_, v) = r.core.local_key_material(sw).expect("key established");
                assert_eq!(v.value(), 1, "exactly one rollover for {sw}");
            }
        }
        drop(set);
        // Fan-out latency landed in telemetry, labeled per replica.
        let snap = registry.snapshot();
        let fanouts: usize = (0..2)
            .filter(|i| {
                snap.histogram("ctrl_rollover_fanout_ns", &format!("replica{i}"))
                    .map(|h| h.count > 0)
                    .unwrap_or(false)
            })
            .count();
        assert_eq!(fanouts, 2, "both partitions record fan-out latency");
    }

    #[test]
    fn schedulers_produce_identical_bootstraps() {
        // The full key-management bootstrap — timers, retries,
        // bidirectional exchanges — must land on the same simulated
        // timeline under both schedulers.
        let run = |kind: SchedulerKind| {
            let mut net = Network::build_with_scheduler(
                Topology::chain(4, 1_000, 200_000),
                kind,
                1,
                ControllerConfig::default(),
                0xb007_5eed,
                |_| None,
                |_, c| c,
            );
            assert_eq!(net.sim.scheduler_kind(), kind);
            let took = net.bootstrap_keys();
            net.controller_write(SwitchId::new(2), RegId::new(5), 0, 9);
            net.sim.run_to_completion();
            (took, net.sim.now(), net.sim.stats())
        };
        assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Calendar));
    }

    #[test]
    fn telemetry_spans_sim_controller_and_agents() {
        let registry = std::sync::Arc::new(p4auth_telemetry::Registry::with_event_capacity(1024));
        let mut net = network(2);
        net.enable_telemetry(registry.clone());
        net.bootstrap_keys();

        // One authenticated write over the C-DP channel. The fixture maps no
        // registers, so the switch nacks it as UnknownRegister — but the
        // request and response still authenticate end to end, which is what
        // the latency histogram measures.
        net.controller_write(SwitchId::new(1), RegId::new(1234), 0, 7);
        net.sim.run_until(SimTime::from_ns(10_000_000));

        let snap = registry.snapshot();
        // The bootstrap plus the write exercised every layer.
        assert!(snap.counter_total("sim_frames_delivered") > 0);
        assert!(snap.counter_total("auth_verify_ok") > 0);
        assert!(snap.counter("auth_verify_ok", "S1").unwrap_or(0) > 0);
        assert!(snap.counter("auth_verify_ok", "replica0").unwrap_or(0) > 0);
        assert_eq!(snap.counter("ctrl_requests_sent", "replica0"), Some(1));
        assert_eq!(snap.counter("ctrl_responses_ok", "replica0"), Some(1));
        let hist = snap.histogram("ctrl_register_op_ns", "replica0").unwrap();
        assert_eq!(hist.count, 1);
        // RTT includes two link crossings plus processing; strictly positive
        // sim-ns.
        assert!(hist.min > 0);
        // Key bootstrap emitted KeyDerived events on both sides.
        let kinds: Vec<&'static str> = registry
            .events()
            .to_vec()
            .iter()
            .map(|r| r.event.kind())
            .collect();
        assert!(kinds.contains(&"key_derived"));
        assert!(kinds.contains(&"kex_step"));
        assert!(kinds.contains(&"frame_delivered"));
    }

    /// The two promises of the adaptive defence, at every layer the
    /// harness mounts: below the threshold nothing happens, and one
    /// crossing — however large the flood — is exactly one key rollover.
    /// Holds on one and two replicas, and with no registry attached (the
    /// loop reads the core's own verdicts, not telemetry).
    #[test]
    fn defence_rolls_key_under_forged_flood_and_spares_clean_channel() {
        use p4auth_attacks::digest_flood::forged_acks;
        use p4auth_primitives::rng::SplitMix64;

        let threshold = DefenceConfig::default().reject_threshold;
        let case = |n_replicas: usize, frames: u32, with_registry: bool| {
            let what = format!("{n_replicas} replica(s), {frames} frame(s)");
            let registry =
                std::sync::Arc::new(p4auth_telemetry::Registry::with_event_capacity(2048));
            let mut net = Network::build(
                Topology::chain(2, 1_000, 200_000),
                n_replicas,
                ControllerConfig::default(),
                0xb007_5eed,
                |_| None,
                |_, c| c,
            );
            if with_registry {
                net.enable_telemetry(registry.clone());
            }
            net.bootstrap_keys();
            net.enable_defence(DefenceConfig::default());
            let _ = net.take_events();

            // Forged responses claiming to come from S1, injected on its
            // C-DP front-panel port (63 in Topology::chain).
            let s1 = SwitchId::new(1);
            let mut rng = SplitMix64::new(0xf100d);
            for frame in forged_acks(frames, s1, 40_000, &mut rng) {
                net.sim.inject_frame(s1, PortId::new(63), frame);
            }
            net.sim
                .run_until(SimTime::from_ns(net.sim.now().as_ns() + 200_000_000));

            let events = net.take_events();
            let mitigations: Vec<MitigationKind> = events
                .iter()
                .filter_map(|e| match e {
                    ControllerEvent::DefenceMitigated { kind, .. } => Some(*kind),
                    _ => None,
                })
                .collect();
            let rolled = events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::LocalKeyRolled(sw) if *sw == s1))
                .count();
            let expected = usize::from(frames >= threshold);
            assert_eq!(
                mitigations,
                vec![MitigationKind::KeyRollover; expected],
                "{what}: one crossing is one rollover, never a quarantine"
            );
            assert_eq!(rolled, expected, "{what}: victim key rolls");
            let owner = {
                let set = net.set.borrow();
                assert_eq!(set.stats().defence_mitigations, expected as u64, "{what}");
                assert!(!set.core(s1).defence_quarantined(s1, PortId::CPU), "{what}");
                assert!(!set.core(s1).defence_in_flight(s1, PortId::CPU), "{what}");
                format!("replica{}", set.owner(s1))
            };
            if with_registry {
                let snap = registry.snapshot();
                assert_eq!(
                    snap.counter("ctrl_defence_mitigations", &owner)
                        .unwrap_or(0),
                    expected as u64,
                    "{what}"
                );
                let latency = snap.histogram("defence_mitigation_latency_ns", &owner);
                let completed = latency.map_or(0, |h| h.count);
                assert_eq!(completed, expected as u64, "{what}: latency recorded once");
                assert!(
                    latency.is_none_or(|h| h.count == 0 || h.min > 0),
                    "{what}: latency measured in sim-ns"
                );
            }

            // The untouched channel (S2) keeps flowing: a controller
            // request still round-trips (the fixture maps no registers, so
            // the answer is an UnknownRegister nack — but it authenticates
            // end to end).
            let responses_before = net.set.borrow().stats().responses_ok;
            net.controller_write(SwitchId::new(2), RegId::new(1), 0, 7);
            net.sim
                .run_until(SimTime::from_ns(net.sim.now().as_ns() + 50_000_000));
            assert_eq!(
                net.set.borrow().stats().responses_ok,
                responses_before + 1,
                "{what}: clean channel answers"
            );
        };

        for n_replicas in [1, 2] {
            for frames in [1, 2, 3, 4, 8, 24] {
                case(n_replicas, frames, true);
            }
        }
        case(1, 8, false);
    }

    /// One end of a DP-DP link under a forged flood, in a defended,
    /// bootstrapped 4-switch chain with a registry attached.
    struct PortFlood {
        net: Network,
        registry: std::sync::Arc<p4auth_telemetry::Registry>,
        /// The flooded end: the responder (`b`) end of the first link
        /// whose ends two replicas own (any link, with one replica), so
        /// its owner never started an exchange on it and knows the peer
        /// only because the set told it.
        victim: Endpoint,
        /// The far end, which the forged frames claim to come from.
        peer: Endpoint,
        /// While set, the victim's C-DP link loses every `portKeyUpdate`
        /// the controller sends.
        lose_updates: Rc<Cell<bool>>,
        /// `portKeyUpdate`s the controller sent toward the victim.
        updates_sent: Rc<Cell<u32>>,
    }

    impl PortFlood {
        fn new(n_replicas: usize) -> PortFlood {
            let registry = std::sync::Arc::new(p4auth_telemetry::Registry::new());
            let mut net = Network::build(
                Topology::chain(4, 1_000, 200_000),
                n_replicas,
                ControllerConfig::default(),
                0xb007_5eed,
                |_| None,
                |_, c| c,
            );
            net.enable_telemetry(registry.clone());
            net.bootstrap_keys();
            net.enable_defence(DefenceConfig::default());
            let _ = net.take_events();
            let (peer, victim) = {
                let set = net.set.borrow();
                let split =
                    |l: &&Link| n_replicas == 1 || set.owner(l.a.node) != set.owner(l.b.node);
                let (_, l) = dp_dp_links(net.sim.topology())
                    .find(|(_, l)| split(l))
                    .expect("a link the replicas split");
                (l.a, l.b)
            };
            let (lose_updates, updates_sent) = (Rc::new(Cell::new(false)), Rc::new(Cell::new(0)));
            let (lose, sent) = (lose_updates.clone(), updates_sent.clone());
            let (cpu_link, _) = net
                .sim
                .topology()
                .link_at(victim.node, PortId::new(63))
                .expect("C-DP link");
            let tap = Box::new(
                move |_now, _from, _to, frame: &mut p4auth_netsim::sim::TapFrame| {
                    let update = p4auth_wire::Message::decode(frame).is_ok_and(|m| {
                        matches!(
                            m.body(),
                            p4auth_wire::body::Body::KeyExchange(
                                p4auth_wire::body::KeyExchange::PortKeyUpdate { .. }
                            )
                        )
                    });
                    sent.set(sent.get() + u32::from(update));
                    match update && lose.get() {
                        true => p4auth_netsim::sim::TapAction::Drop,
                        false => p4auth_netsim::sim::TapAction::Forward,
                    }
                },
            );
            net.sim.install_tap(cpu_link, SwitchId::CONTROLLER, tap);
            PortFlood {
                net,
                registry,
                victim,
                peer,
                lose_updates,
                updates_sent,
            }
        }

        /// Sends a threshold's worth of forged `PortUpdateDirect` offers
        /// over the link into the victim's port, each failing its digest
        /// there, and runs 10 ms on. Each rejected offer raises an
        /// authenticated alert naming the port, a defence signal on the
        /// victim's port channel. Returns the mitigations it caused.
        fn flood(&mut self) -> Vec<MitigationKind> {
            use p4auth_wire::body::{AdhkdRole, KexContext, KeyExchange};
            let Endpoint { node, port } = self.peer;
            for i in 0..DefenceConfig::default().reject_threshold {
                let offer = KeyExchange::Adhkd {
                    role: AdhkdRole::Offer,
                    context: KexContext::PortUpdateDirect,
                    public_key: 0xf0f0 + u64::from(i),
                    salt: i,
                };
                let seq = p4auth_wire::ids::SeqNum::new(1_000 + i);
                let forged = p4auth_wire::Message::key_exchange(node, port, seq, offer);
                self.net.sim.inject_frame(node, port, forged.encode());
            }
            self.run_for(10_000_000);
            (self.net.take_events().iter())
                .filter_map(|e| match *e {
                    ControllerEvent::DefenceMitigated {
                        switch,
                        channel,
                        kind,
                    } if (switch, channel) == (self.victim.node, self.victim.port) => Some(kind),
                    _ => None,
                })
                .collect()
        }

        fn run_for(&mut self, ns: u64) {
            let until = SimTime::from_ns(self.net.sim.now().as_ns() + ns);
            self.net.sim.run_until(until);
        }

        /// Lets one orchestration period pass, then sends what the
        /// control plane's retry pass re-drives.
        fn retry_one_period_later(&mut self) {
            self.run_for(ORCH_PERIOD_NS);
            let now_ns = self.net.sim.now().as_ns();
            let retries = self.net.set.borrow_mut().retry_stalled(now_ns);
            self.net.send_from_controller(retries);
        }

        /// Both ends' current port key.
        fn keys(&self) -> [Option<Key64>; 2] {
            [self.victim, self.peer]
                .map(|e| self.net.switches[&e.node].borrow().keys(e.port).current())
        }

        /// `(controller, agent)`: whether each side quarantines the
        /// victim's port channel.
        fn quarantined(&self) -> (bool, bool) {
            let Endpoint { node, port } = self.victim;
            let controller = self
                .net
                .set
                .borrow()
                .core(node)
                .defence_quarantined(node, port);
            (
                controller,
                self.net.switches[&node].borrow().is_quarantined(port),
            )
        }

        /// Completed mitigations in the owning core's latency histogram.
        fn latency_samples(&self) -> u64 {
            let owner = format!("replica{}", self.net.set.borrow().owner(self.victim.node));
            (self.registry.snapshot())
                .histogram("defence_mitigation_latency_ns", &owner)
                .map_or(0, |h| h.count)
        }
    }

    /// A forged DP-DP flood, end to end: the victim's alerts reach the
    /// core that owns it, whose `on_message` sends the Fig. 14 d
    /// `portKeyUpdate` toward the peer a port-key init named; both ends
    /// roll and the mitigation records one latency sample. A second
    /// crossing inside the escalation window quarantines the channel at
    /// the agent too, and the next fresh key lifts it on both sides.
    #[test]
    fn a_forged_dp_dp_flood_rolls_the_port_key_then_quarantines_the_port() {
        for n_replicas in [1, 2] {
            let mut f = PortFlood::new(n_replicas);
            let bootstrapped = f.keys();

            assert_eq!(f.flood(), [MitigationKind::KeyRollover], "{n_replicas}");
            assert_eq!(f.updates_sent.get(), 1, "{n_replicas}: one portKeyUpdate");
            let rolled = f.keys();
            assert!(
                rolled[0].is_some() && rolled[0] == rolled[1],
                "{n_replicas}"
            );
            assert_ne!(rolled, bootstrapped, "{n_replicas}: both ends rolled");
            assert_eq!(f.latency_samples(), 1, "{n_replicas}");
            assert_eq!(f.quarantined(), (false, false), "{n_replicas}");

            f.lose_updates.set(true);
            assert_eq!(f.flood(), [MitigationKind::Quarantine], "{n_replicas}");
            assert_eq!(f.quarantined(), (true, true), "{n_replicas}");
            assert_eq!(f.keys(), rolled, "{n_replicas}: update lost");

            f.lose_updates.set(false);
            f.retry_one_period_later();
            f.run_for(10_000_000);
            let fresh = f.keys();
            assert!(fresh[0].is_some() && fresh[0] == fresh[1], "{n_replicas}");
            assert_ne!(fresh, rolled, "{n_replicas}: the retried update rolled");
            assert_eq!(f.quarantined(), (false, false), "{n_replicas}: lifted");
            assert_eq!(f.latency_samples(), 2, "{n_replicas}");
        }
    }

    /// A quarantine lifts only when a fresh key lands. A port channel's
    /// quarantine whose `portKeyUpdate` is lost until the controller
    /// abandons it stays in force on both sides, agent and controller
    /// agreeing, and a port-key init on the link clears both.
    #[test]
    fn an_abandoned_port_quarantine_holds_on_both_sides_until_a_fresh_key() {
        for n_replicas in [1, 2] {
            let mut f = PortFlood::new(n_replicas);
            assert_eq!(f.flood(), [MitigationKind::KeyRollover], "{n_replicas}");
            f.lose_updates.set(true);
            assert_eq!(f.flood(), [MitigationKind::Quarantine], "{n_replicas}");
            // Eight retries back off over about 100 ms.
            for _ in 0..40 {
                f.retry_one_period_later();
            }
            assert_eq!(f.net.set.borrow().stats().kex_abandoned, 1);
            let Endpoint { node, port } = f.victim;
            assert!(!f.net.set.borrow().core(node).defence_in_flight(node, port));
            assert_eq!(
                f.quarantined(),
                (true, true),
                "{n_replicas}: both fail closed"
            );

            f.lose_updates.set(false);
            let (a, b) = (f.peer, f.victim);
            let now_ns = f.net.sim.now().as_ns();
            let init =
                (f.net.set.borrow_mut()).port_key_init(now_ns, a.node, a.port, b.node, b.port);
            f.net.send_from_controller(init);
            f.run_for(10_000_000);
            assert_eq!(
                f.quarantined(),
                (false, false),
                "{n_replicas}: fresh key lifts both"
            );
        }
    }
}
