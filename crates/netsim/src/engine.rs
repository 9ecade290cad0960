//! The front door: a [`Workload`] is described once and run on any
//! [`Engine`].
//!
//! Which engine executes a simulation — one [`Simulator`] on the calling
//! thread, on either scheduler, or the sharded coordinator of
//! [`crate::shard`] — is decided here and nowhere else. A caller collects
//! nodes, boot timers, a telemetry registry, an export interval and a
//! fault plan in any order; [`Workload::run`] applies them in the one
//! canonical order (`populate`) on whichever engine it is given, so
//! every engine sees the same set-up and no call site has an arm per
//! engine.

use crate::fault::FaultPlan;
use crate::sched::SchedulerKind;
use crate::shard::{self, RoundAudit, ShardPlan, ShardTuning};
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
    /// Sharded run: pod-aligned partition, conservative safe-window
    /// rounds, always on the calendar scheduler per shard.
    Sharded {
        /// Worker shard count.
        shards: usize,
    },
}

impl Engine {
    /// The engine every differential takes as its reference.
    pub const REFERENCE: Engine = Engine::Sequential(SchedulerKind::Calendar);

    /// The canonical differential list: every engine that must reproduce
    /// [`Engine::REFERENCE`] bit for bit.
    pub const DIFFERENTIAL: [Engine; 4] = [
        Engine::Sequential(SchedulerKind::Heap),
        Engine::Sharded { shards: 1 },
        Engine::Sharded { shards: 2 },
        Engine::Sharded { shards: 4 },
    ];

    /// Short human-readable label (`heap`, `calendar`, `sharded-4`).
    pub fn label(&self) -> String {
        match self {
            Engine::Sequential(kind) => kind.label().to_string(),
            Engine::Sharded { shards } => format!("sharded-{shards}"),
        }
    }
}

/// Outcome of [`Workload::run`].
///
/// The simulation fields (`events`, `stats`, `now`, `timeline`) are
/// deterministic and equal on every engine. The coordination fields
/// (`rounds`, `windows`, `frames_exchanged`) are determined by the shard
/// protocol and the workload alone, so they too are reproducible — and 0
/// on a sequential engine. `wall_ns` and `barrier_wait_ns` are wall-clock
/// and therefore **not** deterministic; keep them out of anything diffed
/// for bit-identity.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Events processed (across all shards when sharded).
    pub events: u64,
    /// Simulator statistics (field-wise sum over shards when sharded).
    pub stats: SimStats,
    /// Final simulated time: the time of the globally last event.
    pub now: SimTime,
    /// Wall-clock duration of the run. Sequential: the event loop alone.
    /// Sharded: worker spawn, per-shard set-up, the rounds and the
    /// telemetry/timeline merge.
    pub wall_ns: u64,
    /// Coordinator rendezvous executed (each grants a chain of windows).
    pub rounds: u64,
    /// Safe windows processed across all rounds (`>= rounds`; the ratio
    /// is the chaining amortization factor).
    pub windows: u64,
    /// Cross-shard frames exchanged through the peer mailboxes.
    pub frames_exchanged: u64,
    /// Wall-clock nanoseconds the coordinator spent blocked waiting for
    /// chain replies — the rendezvous cost made visible.
    pub barrier_wait_ns: u64,
    /// The recorded telemetry timeline, when
    /// [`Workload::set_export_interval`] was called.
    pub timeline: Option<Timeline>,
    /// Per-rendezvous synchronization records, only when
    /// [`ShardTuning::audit`] asked for them.
    pub audits: Vec<RoundAudit>,
}

/// A simulation described once — topology, nodes, boot timers, observers
/// and fault plan — and run to completion on any [`Engine`].
///
/// Setter order does not matter: nothing is applied until
/// [`Workload::run`]. Nodes must be `Send` because a sharded engine ships
/// them to worker threads; a sequential engine runs them on the calling
/// thread.
pub struct Workload {
    pub(crate) topology: Topology,
    /// Node behaviours in registration order.
    pub(crate) nodes: Vec<(SwitchId, Box<dyn SimNode + Send>)>,
    /// Boot timers `(node, timer_id, delay_ns)` in registration order.
    pub(crate) timers: Vec<(SwitchId, u64, u64)>,
    pub(crate) telemetry: Option<Arc<Registry>>,
    pub(crate) export_interval_ns: Option<u64>,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) tuning: ShardTuning,
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
            tuning: ShardTuning::default(),
        }
    }

    /// Registers the behaviour for `id`. A node outside the topology or
    /// registered twice panics in [`Workload::run`], where
    /// [`Simulator::register_node`] checks both.
    pub fn register_node(&mut self, id: SwitchId, node: Box<dyn SimNode + Send>) {
        self.nodes.push((id, node));
    }

    /// Schedules a boot timer for `node`, `delay_ns` after t=0.
    pub fn schedule_timer(&mut self, node: SwitchId, timer_id: u64, delay_ns: u64) {
        self.timers.push((node, timer_id, delay_ns));
    }

    /// Attaches a telemetry registry. A sequential engine records straight
    /// into it. A sharded engine **never** shares it with the workers:
    /// each shard records into a private registry (capacities cloned from
    /// this one) and the coordinator merges the per-shard snapshots in
    /// shard-index order and absorbs the result here
    /// ([`Registry::absorb`]), so counters, histograms, the event log and
    /// the trace ring come out byte-identical on every engine.
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
    /// a first-class sim event. In a sharded run every worker installs the
    /// full plan — each shard must flip its own topology copy and notify
    /// its own nodes at exactly the scheduled instants — but only the
    /// shard owning a link's `a` endpoint tallies the event, so event
    /// counts and `faults_applied` are the same on every engine.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Replaces the sharded engine's test and CI controls (custom plan,
    /// chain depth, stagger, audit). No effect on a sequential engine,
    /// and none on any engine's simulation output.
    pub fn set_shard_tuning(&mut self, tuning: ShardTuning) {
        self.tuning = tuning;
    }

    /// Runs to completion on `engine`.
    ///
    /// A panic inside a node reaches the caller with the node's own
    /// payload on every engine (see [`crate::shard`] on how a dying
    /// worker is propagated).
    ///
    /// # Panics
    ///
    /// Panics if a custom [`ShardTuning::plan`] disagrees with the
    /// engine's shard count.
    pub fn run(mut self, engine: Engine) -> RunReport {
        match engine {
            Engine::Sequential(kind) => {
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
                    ..RunReport::default()
                }
            }
            Engine::Sharded { shards } => {
                let plan = self
                    .tuning
                    .plan
                    .take()
                    .unwrap_or_else(|| ShardPlan::pod_aligned(&self.topology, shards));
                assert_eq!(plan.nshards(), shards, "shard plan disagrees with engine");
                shard::run(self, plan)
            }
        }
    }
}

/// The canonical set-up order, applied to each [`Simulator`] an engine
/// builds: telemetry → nodes → boot timers → fault plan → export interval.
/// The interval goes last because a recording's baseline is the
/// registry's state at the moment it starts: the boot timers' own
/// `sim_events_scheduled` / `sim_event_lead_ns` updates belong to the
/// baseline, not to the first delta. The fault plan goes after shard
/// routing (the caller's job) so owner tallying is right.
pub(crate) fn populate(
    sim: &mut Simulator,
    registry: Option<Arc<Registry>>,
    nodes: Vec<(SwitchId, Box<dyn SimNode + Send>)>,
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
