//! The front door: a [`Workload`] is described once and run on any
//! [`Engine`].
//!
//! An engine is one [`Simulator`] on the calling thread, on one of the two
//! schedulers; which one runs a simulation is decided here and nowhere
//! else. A caller collects nodes, boot timers, a telemetry registry, an
//! export interval and a fault plan in any order; [`Workload::run`]
//! applies them in the one canonical order (`populate`) on whichever
//! engine it is given, so every engine sees the same set-up and no call
//! site has an arm per engine.

use crate::fault::FaultPlan;
use crate::sched::SchedulerKind;
use crate::sim::{SimNode, SimStats, Simulator};
use crate::time::SimTime;
use crate::timeline::Timeline;
use crate::topology::Topology;
use p4auth_telemetry::Registry;
use p4auth_wire::ids::SwitchId;
use std::sync::Arc;
use std::time::Instant;

/// Which execution engine runs a [`Workload`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// One [`Simulator`] on the calling thread, on the given scheduler.
    Sequential(SchedulerKind),
}

impl Engine {
    /// The engine every differential takes as its reference.
    pub const REFERENCE: Engine = Engine::Sequential(SchedulerKind::Calendar);

    /// The canonical differential list: every engine that must reproduce
    /// [`Engine::REFERENCE`] bit for bit.
    pub const DIFFERENTIAL: [Engine; 1] = [Engine::Sequential(SchedulerKind::Heap)];

    /// Short human-readable label (`heap`, `calendar`).
    pub fn label(&self) -> String {
        let Engine::Sequential(kind) = self;
        kind.label().to_string()
    }
}

/// Outcome of [`Workload::run`].
///
/// The simulation fields (`events`, `stats`, `now`, `timeline`) are
/// deterministic and equal on every engine. `wall_ns` is wall-clock and
/// therefore **not** deterministic; keep it out of anything diffed for
/// bit-identity.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Events processed.
    pub events: u64,
    /// Simulator statistics.
    pub stats: SimStats,
    /// Final simulated time: the time of the last event.
    pub now: SimTime,
    /// Wall-clock duration of the event loop alone: set-up (`populate`)
    /// and the timeline flush are outside it.
    pub wall_ns: u64,
    /// The recorded telemetry timeline, when
    /// [`Workload::set_export_interval`] was called.
    pub timeline: Option<Timeline>,
}

/// A simulation described once — topology, nodes, boot timers, observers
/// and fault plan — and run to completion on any [`Engine`].
///
/// Setter order does not matter: nothing is applied until
/// [`Workload::run`].
pub struct Workload {
    topology: Topology,
    /// Node behaviours in registration order.
    nodes: Vec<(SwitchId, Box<dyn SimNode>)>,
    /// Boot timers `(node, timer_id, delay_ns)` in registration order.
    timers: Vec<(SwitchId, u64, u64)>,
    telemetry: Option<Arc<Registry>>,
    export_interval_ns: Option<u64>,
    fault_plan: Option<FaultPlan>,
}

impl Workload {
    /// Starts an empty workload over `topology`.
    pub fn new(topology: Topology) -> Self {
        Workload {
            topology,
            nodes: Vec::new(),
            timers: Vec::new(),
            telemetry: None,
            export_interval_ns: None,
            fault_plan: None,
        }
    }

    /// Registers the behaviour for `id`. A node outside the topology or
    /// registered twice panics in [`Workload::run`], where
    /// [`Simulator::register_node`] checks both.
    pub fn register_node(&mut self, id: SwitchId, node: Box<dyn SimNode>) {
        self.nodes.push((id, node));
    }

    /// Schedules a boot timer for `node`, `delay_ns` after t=0.
    pub fn schedule_timer(&mut self, node: SwitchId, timer_id: u64, delay_ns: u64) {
        self.timers.push((node, timer_id, delay_ns));
    }

    /// Attaches a telemetry registry; the run records straight into it.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = Some(registry);
    }

    /// Starts periodic telemetry export (see
    /// [`Simulator::set_export_interval`]); the recording comes back as
    /// [`RunReport::timeline`], bit-identical on every engine. Works with
    /// or without [`Workload::set_telemetry`].
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns == 0`.
    pub fn set_export_interval(&mut self, interval_ns: u64) {
        assert!(interval_ns > 0, "export interval must be positive");
        self.export_interval_ns = Some(interval_ns);
    }

    /// Installs a [`FaultPlan`]: every scheduled link-state change becomes
    /// a first-class sim event.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Runs to completion on `engine`. A panic inside a node unwinds to
    /// the caller with the node's own payload.
    pub fn run(self, engine: Engine) -> RunReport {
        let Engine::Sequential(kind) = engine;
        let mut sim = Simulator::with_scheduler(self.topology, kind);
        // An export-only run still needs something to snapshot.
        let registry = self
            .telemetry
            .or_else(|| self.export_interval_ns.map(|_| Arc::new(Registry::new())));
        populate(
            &mut sim,
            registry,
            self.nodes,
            &self.timers,
            self.fault_plan.as_ref(),
            self.export_interval_ns,
        );
        let start = Instant::now();
        let events = sim.run_to_completion();
        let wall_ns = start.elapsed().as_nanos() as u64;
        RunReport {
            events,
            stats: sim.stats(),
            now: sim.now(),
            wall_ns,
            timeline: sim.take_timeline(),
        }
    }
}

/// The canonical set-up order, applied to the [`Simulator`] an engine
/// builds: telemetry → nodes → boot timers → fault plan → export interval.
/// The interval goes last because a recording's baseline is the
/// registry's state at the moment it starts: the boot timers' own
/// `sim_events_scheduled` / `sim_event_lead_ns` updates belong to the
/// baseline, not to the first delta.
fn populate(
    sim: &mut Simulator,
    registry: Option<Arc<Registry>>,
    nodes: Vec<(SwitchId, Box<dyn SimNode>)>,
    timers: &[(SwitchId, u64, u64)],
    fault_plan: Option<&FaultPlan>,
    export_interval_ns: Option<u64>,
) {
    if let Some(r) = registry {
        sim.set_telemetry(r);
    }
    for (id, node) in nodes {
        sim.register_node(id, node);
    }
    for &(node, timer_id, delay_ns) in timers {
        sim.schedule_timer(node, timer_id, delay_ns);
    }
    if let Some(plan) = fault_plan {
        sim.install_fault_plan(plan);
    }
    if let Some(interval) = export_interval_ns {
        sim.set_export_interval(interval);
    }
}
