//! Scenario campaigns: deterministic fault injection composed with attack
//! overlays, each judged by explicit defence invariants.
//!
//! The security surveys in PAPERS.md stress that dataplane defences must
//! hold under *combined* failure-plus-attack conditions, not single-threat
//! microbenchmarks. A campaign here is exactly that composition, in two
//! phases sharing one [`CampaignVerdict`]:
//!
//! * **Fabric phase** — the user-scale workload ([`crate::userscale`]) on
//!   a fat tree with a [`FaultPlan`] installed: link flaps, correlated
//!   groups, pod/switch failure and recovery, boot storms. It proves the
//!   transport story (ECMP re-route, counted losses, no silent loss) and
//!   produces the benchmarked row (events, drop taxonomy, events/s).
//! * **Defence phase** — the full P4Auth harness ([`crate::harness`])
//!   under the same churn class with an attack overlay (digest flood,
//!   replay, compromised-user flood), asserting the paper's defence
//!   invariants: the defence mitigates within a latency bound, clean
//!   channels stay un-quarantined, no forged frame is ever accepted, and
//!   post-recovery key agreement converges.
//!
//! Defence-phase fault plans touch only DP-DP links: the C-DP control
//! channel models an out-of-band management network (the common
//! deployment), so recovery-time `portKeyUpdate` traffic always has a
//! path — see DESIGN §4g for the in-band discussion.
//!
//! Every phase is deterministic, so two runs of [`run_campaigns`] produce
//! byte-identical verdicts — the property `repro -- scenarios` gates in
//! CI against `BENCH_scenarios.json`.

use crate::harness::{is_dp_dp_link, Network};
use crate::scaleload::{Engine, SEND_TIMER};
use crate::userscale::{
    run_users_engine, AggregateHostNode, AggregateMode, CompromisedUser, UserScaleConfig,
};
use p4auth_attacks::replay;
use p4auth_controller::{ControllerConfig, ControllerEvent, DefenceConfig};
use p4auth_core::agent::AgentConfig;
use p4auth_dataplane::register::RegisterArray;
use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::fault::FaultPlan;
use p4auth_netsim::sched::SchedulerKind;
use p4auth_netsim::time::SimTime;
use p4auth_netsim::topology::{LinkId, Topology};
use p4auth_telemetry::{HistogramSample, Registry, Snapshot, SpanKind};
use p4auth_wire::body::AlertKind;
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use std::rc::Rc;
use std::sync::Arc;

/// Campaign sizing knobs (the invariants themselves never change).
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Modelled users in each campaign's fabric phase.
    pub users: u64,
    /// Frames each user transmits in the fabric phase.
    pub frames_per_user: u32,
}

impl CampaignConfig {
    /// The report configuration: 100k modelled users per campaign.
    pub fn standard() -> Self {
        CampaignConfig {
            users: 100_000,
            frames_per_user: 2,
        }
    }

    /// The CI smoke configuration: same campaigns, 10k users.
    pub fn short() -> Self {
        CampaignConfig {
            users: 10_000,
            frames_per_user: 1,
        }
    }
}

/// One asserted invariant.
#[derive(Clone, Debug)]
pub struct CheckResult {
    /// Stable invariant name.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable evidence (counts, values).
    pub detail: String,
}

/// Deterministic fabric-phase summary (the benchmarked row's stable
/// part; wall-clock throughput is reported separately since it is not
/// diffable).
#[derive(Clone, Copy, Debug)]
pub struct FabricSummary {
    /// Modelled users.
    pub users: u64,
    /// Events processed.
    pub events: u64,
    /// Frames the aggregates transmitted.
    pub frames_sent: u64,
    /// Frames delivered to an aggregate.
    pub frames_delivered: u64,
    /// Frames that died at a downed link (counted loss).
    pub frames_undeliverable: u64,
    /// Fault events applied.
    pub faults_applied: u64,
    /// Final simulated clock in ns.
    pub sim_ns: u64,
    /// Events per wall-clock second (nondeterministic; excluded from the
    /// determinism diff).
    pub events_per_sec: f64,
}

/// The verdict of one campaign: its invariant checks plus the fabric row.
#[derive(Clone, Debug)]
pub struct CampaignVerdict {
    /// Stable campaign name.
    pub name: &'static str,
    /// Whether the campaign combines a fault with an attack overlay
    /// (as opposed to fault-only churn).
    pub fault_attack: bool,
    /// Every invariant the campaign asserted.
    pub checks: Vec<CheckResult>,
    /// Detection-to-mitigation latency in sim-ns, when the campaign's
    /// attack tripped the defence.
    pub mitigation_latency_ns: Option<u64>,
    /// p50 of the `defence_mitigation_latency_ns` histogram over the
    /// defence phase (absent when the defence never fired).
    pub mitigation_latency_p50_ns: Option<u64>,
    /// p99 of the `defence_mitigation_latency_ns` histogram.
    pub mitigation_latency_p99_ns: Option<u64>,
    /// p50 of the `ctrl_rollover_fanout_ns` histogram (absent unless the
    /// campaign ran a bulk rollover epoch).
    pub rollover_fanout_p50_ns: Option<u64>,
    /// p99 of the `ctrl_rollover_fanout_ns` histogram.
    pub rollover_fanout_p99_ns: Option<u64>,
    /// The fabric phase's benchmarked row.
    pub fabric: FabricSummary,
}

impl CampaignVerdict {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Accumulates [`CheckResult`]s.
#[derive(Default)]
struct Checks(Vec<CheckResult>);

impl Checks {
    fn require(&mut self, name: &'static str, passed: bool, detail: String) {
        self.0.push(CheckResult {
            name,
            passed,
            detail,
        });
    }
}

/// Runs every campaign. The order (and everything inside each verdict
/// except `events_per_sec`) is deterministic.
pub fn run_campaigns(cfg: &CampaignConfig) -> Vec<CampaignVerdict> {
    vec![
        boot_storm_digest_flood(cfg),
        reroute_replay(cfg),
        pod_failure_compromised_flood(cfg),
        correlated_flap_churn(cfg),
        switch_failure_recovery(cfg),
    ]
}

/// The five campaigns' fabric-phase fault plans, keyed by campaign name.
/// Exposed so the engine-differential tests drive exactly the plans the
/// report runs (heap and calendar — same fingerprint).
pub fn fabric_plans() -> Vec<(&'static str, FaultPlan)> {
    let ft = FatTree::new(K);
    let topo = ft.build(1_500);

    let mut boot = FaultPlan::new();
    boot.with_boot_storm(4, 1_000_000);

    let (uplink, _) = topo
        .link_at(ft.edge(0, 0), PortId::new(3))
        .expect("edge uplink exists");
    let mut reroute = FaultPlan::new();
    reroute.flap(uplink, 50_000, 2_000_000);

    let mut pod = FaultPlan::new();
    pod.pod_failure(&topo, &ft, 1, 100_000, 3_000_000);

    let group = dp_links_of_plain(&topo, ft.agg(0, 0));
    let mut flap = FaultPlan::new();
    flap.correlated_flap(&group, 50_000, 600_000)
        .correlated_flap(&group, 1_200_000, 1_800_000);

    let mut swf = FaultPlan::new();
    swf.switch_failure(&topo, ft.agg(1, 0), 100_000, 1_000_000);

    vec![
        ("boot_storm_digest_flood", boot),
        ("reroute_replay", reroute),
        ("pod_failure_compromised_flood", pod),
        ("correlated_flap_churn", flap),
        ("switch_failure_recovery", swf),
    ]
}

/// The fabric plan for campaign `name`.
fn plan_for(name: &str) -> FaultPlan {
    fabric_plans()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("known campaign name")
        .1
}

/// Fat-tree arity every campaign runs at.
const K: u16 = 4;
/// Defence-phase observation window in sim-ns (matches the §VII defence
/// anchor test).
const DEFENCE_WINDOW_NS: u64 = 200_000_000;
/// Trace-span buffer capacity for defence phases. Sized so the default
/// campaign configurations never drop a span (asserted by the
/// `trace_no_spans_dropped` invariant below) — zero drops is what makes
/// the exported trace bit-identical across engines.
const CAMPAIGN_TRACE_CAPACITY: usize = 16_384;
/// Trace-span source id for the campaign harness itself (phase root
/// spans); above the controller's reserved `0xFE..` range and any node.
const CAMPAIGN_TRACE_SOURCE: u16 = 0xFFFF;

/// Fabric phase: the user-scale workload with `plan` installed, plus the
/// two accounting invariants every campaign shares — no silent loss, and
/// the full fault schedule applied.
fn fabric_phase(cfg: &CampaignConfig, plan: FaultPlan, checks: &mut Checks) -> FabricSummary {
    let mut ucfg = UserScaleConfig::for_k(K, cfg.users, cfg.frames_per_user);
    let planned = plan.len() as u64;
    ucfg.faults = Some(plan);
    let run = run_users_engine(&ucfg, Engine::Sequential(SchedulerKind::Calendar), None);
    let accounted =
        run.frames_delivered + run.stats.frames_undeliverable + run.stats.frames_tapped_dropped;
    checks.require(
        "fabric_no_silent_loss",
        run.frames_sent == accounted,
        format!(
            "{} sent = {} delivered + {} undeliverable + {} tapped",
            run.frames_sent,
            run.frames_delivered,
            run.stats.frames_undeliverable,
            run.stats.frames_tapped_dropped
        ),
    );
    checks.require(
        "fabric_faults_applied",
        run.stats.faults_applied == planned,
        format!(
            "{} of {planned} scheduled faults applied",
            run.stats.faults_applied
        ),
    );
    FabricSummary {
        users: run.users,
        events: run.events,
        frames_sent: run.frames_sent,
        frames_delivered: run.frames_delivered,
        frames_undeliverable: run.stats.frames_undeliverable,
        faults_applied: run.stats.faults_applied,
        sim_ns: run.sim_ns,
        events_per_sec: run.events_per_sec(),
    }
}

/// A defence-phase network: the §VII harness on `n_replicas` controller
/// replicas with telemetry, booted keys and the adaptive defence armed.
fn defence_net(
    seed: u64,
    n_replicas: usize,
    configure: impl FnMut(SwitchId, AgentConfig) -> AgentConfig,
) -> (Network, Arc<Registry>) {
    let registry = Arc::new(Registry::with_capacities(2048, CAMPAIGN_TRACE_CAPACITY));
    let mut net = Network::build(
        Topology::fat_tree_with_controller(K, 1_000, 200_000),
        n_replicas,
        ControllerConfig::default(),
        seed,
        |_| None,
        configure,
    );
    net.enable_telemetry(registry.clone());
    net.bootstrap_keys();
    net.enable_defence(DefenceConfig::default());
    let _ = net.take_events();
    (net, registry)
}

/// Stamps a defence phase's extent as a `campaign_phase` root span, so
/// the exported trace carries the phase boundary every other span falls
/// inside. `idx` is the campaign's position in [`run_campaigns`] order.
fn campaign_phase_span(registry: &Registry, idx: u64, start_ns: u64, end_ns: u64) {
    let trace = registry.trace();
    if let Some(span) = trace.start(SpanKind::CampaignPhase, start_ns, CAMPAIGN_TRACE_SOURCE) {
        trace.end(span, end_ns.max(start_ns), idx, 0);
    }
}

/// The first non-empty series of histogram family `name`, whatever its
/// label: control-plane series live under whichever replica owns the
/// channel they measure.
fn recorded_histogram<'a>(snap: &'a Snapshot, name: &str) -> Option<&'a HistogramSample> {
    snap.histograms
        .iter()
        .find(|h| h.name == name && h.count > 0)
}

/// Shared per-campaign telemetry wrap-up: asserts the bounded trace
/// buffer dropped nothing at the default campaign configuration (the
/// zero-drop property is what keeps traces bit-identical across
/// engines) and extracts the mitigation / rollover latency percentiles
/// the scenarios report surfaces. Returns
/// `[mitigation_p50, mitigation_p99, rollover_p50, rollover_p99]`.
fn finish_telemetry(registry: &Registry, checks: &mut Checks) -> [Option<u64>; 4] {
    let trace = registry.trace();
    checks.require(
        "trace_no_spans_dropped",
        trace.dropped() == 0,
        format!(
            "{} spans buffered, {} dropped (capacity {})",
            trace.len(),
            trace.dropped(),
            trace.capacity()
        ),
    );
    let snap = registry.snapshot();
    let pick = |name: &str| recorded_histogram(&snap, name).map(|h| (h.p50, h.p99));
    let mitigation = pick("defence_mitigation_latency_ns");
    let rollover = pick("ctrl_rollover_fanout_ns");
    [
        mitigation.map(|p| p.0),
        mitigation.map(|p| p.1),
        rollover.map(|p| p.0),
        rollover.map(|p| p.1),
    ]
}

/// The flight-recorder workload behind `repro -- trace`: campaign 1's
/// defence phase (digest flood on a booted, defended fat tree) with
/// tracing enabled, on a sequential engine of the given scheduler kind.
/// Returns the registry holding the recorded spans — deterministic, and
/// identical between the heap and calendar schedulers, so callers can
/// byte-diff the encoded trace across engines.
pub fn traced_defence_probe(kind: SchedulerKind, trace_capacity: usize) -> Arc<Registry> {
    let registry = Arc::new(Registry::with_capacities(2048, trace_capacity));
    let mut net = Network::build_with_scheduler(
        Topology::fat_tree_with_controller(K, 1_000, 200_000),
        kind,
        1,
        ControllerConfig::default(),
        0xb007,
        |_| None,
        |_, c| c,
    );
    net.enable_telemetry(registry.clone());
    net.bootstrap_keys();
    net.enable_defence(DefenceConfig::default());
    let _ = net.take_events();
    let _victim = arm_flood(&mut net, FatTree::new(K), 0);
    let start = net.sim.now().as_ns();
    net.sim
        .run_until(SimTime::from_ns(start + DEFENCE_WINDOW_NS));
    campaign_phase_span(&registry, 0, start, net.sim.now().as_ns());
    registry
}

/// DP-DP links terminating at `sw` (the out-of-band fault set for
/// defence-phase switch/pod failures).
fn dp_links_of(topo: &Topology, sw: SwitchId) -> Vec<LinkId> {
    topo.links()
        .iter()
        .enumerate()
        .filter(|(_, l)| is_dp_dp_link(l) && (l.a.node == sw || l.b.node == sw))
        .map(|(i, _)| LinkId(i as u32))
        .collect()
}

/// Arms the §II-A in-aggregate digest flood: host slot 0's access switch
/// gets the compromised-OS foothold and a 50-user aggregate (user 7
/// compromised) floods forged C-DP ACKs claiming to be that switch.
/// Returns the victim switch. `boot_offset_ns` delays the aggregate's
/// first timer (a boot-storm wave position).
fn arm_flood(net: &mut Network, ft: FatTree, boot_offset_ns: u64) -> SwitchId {
    let host = ft.host(0);
    let (_, victim_ep) = net
        .sim
        .topology()
        .deliver_target(host, PortId::new(1))
        .expect("host uplink exists");
    let victim = victim_ep.node;
    net.compromise_switch_os(victim);

    let mut ucfg = UserScaleConfig::for_k(K, 50, 0);
    ucfg.mode = AggregateMode::Exact;
    ucfg.compromised = Some(CompromisedUser {
        user: 7,
        victim,
        frames: 8,
        gap_ns: 10_000,
    });
    let agg = AggregateHostNode::new(&ucfg, ft, 0, 0, 50, Rc::default(), Rc::default());
    let first = agg.first_due_ns().expect("the compromised user is active");
    net.sim.register_node(host, Box::new(agg));
    net.sim
        .schedule_timer(host, SEND_TIMER, first + boot_offset_ns);
    victim
}

/// The shared defence-invariant block for flood campaigns: exactly one
/// mitigation, the victim's local key rolled, the latency within bound,
/// no forged frame accepted, and every clean channel un-quarantined.
fn check_flood_defence(
    net: &mut Network,
    registry: &Registry,
    victim: SwitchId,
    baseline_ok: u64,
    checks: &mut Checks,
) -> Option<u64> {
    let events = net.take_events();
    let mitigations = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. }))
        .count();
    checks.require(
        "one_mitigation",
        mitigations == 1,
        format!("{mitigations} DefenceMitigated events (want exactly 1)"),
    );
    checks.require(
        "victim_key_rolled",
        events
            .iter()
            .any(|e| matches!(e, ControllerEvent::LocalKeyRolled(sw) if *sw == victim)),
        format!("LocalKeyRolled({victim}) present"),
    );

    let stats = net.set.borrow().stats();
    checks.require(
        "no_forged_frame_accepted",
        stats.responses_ok == baseline_ok && stats.rejected > 0,
        format!(
            "responses_ok {} (baseline {baseline_ok}), rejected {}",
            stats.responses_ok, stats.rejected
        ),
    );
    check_clean_channels(net, checks);

    let snap = registry.snapshot();
    let latency = recorded_histogram(&snap, "defence_mitigation_latency_ns")
        .filter(|h| h.count == 1)
        .map(|h| h.max);
    checks.require(
        "mitigation_within_bound",
        latency.is_some_and(|ns| ns > 0 && ns <= DEFENCE_WINDOW_NS),
        format!("detection-to-mitigation latency {latency:?} ns (bound {DEFENCE_WINDOW_NS})"),
    );
    latency
}

/// No channel is quarantined on any switch — a flood's victim included,
/// because one rollover stops every modelled flood before escalation.
fn check_clean_channels(net: &Network, checks: &mut Checks) {
    let set = net.set.borrow();
    let quarantined: Vec<String> = net
        .switches
        .keys()
        .filter(|sw| set.core(**sw).defence_quarantined(**sw, PortId::CPU))
        .map(|sw| sw.to_string())
        .collect();
    checks.require(
        "clean_channels_unquarantined",
        quarantined.is_empty(),
        format!("quarantined channels: {quarantined:?}"),
    );
}

/// Post-recovery key agreement: every DP-DP link's port keys are
/// installed on both endpoints once the run drains, and the two ends
/// hold the same key.
fn check_port_keys_converged(net: &Network, checks: &mut Checks) {
    let mut bad = Vec::new();
    for l in net.sim.topology().links() {
        if !is_dp_dp_link(l) {
            continue;
        }
        let ka = net.switches[&l.a.node].borrow().keys(l.a.port).current();
        let kb = net.switches[&l.b.node].borrow().keys(l.b.port).current();
        match (ka, kb) {
            (Some(a), Some(b)) if a == b => {}
            (None, _) | (_, None) => bad.push(format!("{}-{} missing", l.a.node, l.b.node)),
            _ => bad.push(format!("{}-{} disagree", l.a.node, l.b.node)),
        }
    }
    checks.require(
        "post_recovery_keys_converged",
        bad.is_empty(),
        format!("port keys not converged: {bad:?}"),
    );
}

/// Campaign 1 — digest flood during a boot storm. Fabric: aggregates
/// boot in 4 staggered waves. Defence: the in-aggregate flood begins one
/// wave into the storm; the adaptive defence must still isolate it.
fn boot_storm_digest_flood(cfg: &CampaignConfig) -> CampaignVerdict {
    let mut checks = Checks::default();
    let plan = plan_for("boot_storm_digest_flood");
    let storm_offset = plan.boot_storm().expect("storm configured").offset_for(1);
    let fabric = fabric_phase(cfg, plan, &mut checks);

    let (mut net, registry) = defence_net(0xb007, 1, |_, c| c);
    let baseline_ok = net.set.borrow().stats().responses_ok;
    let victim = arm_flood(&mut net, FatTree::new(K), storm_offset);
    let start = net.sim.now().as_ns();
    net.sim
        .run_until(SimTime::from_ns(start + DEFENCE_WINDOW_NS));
    let latency = check_flood_defence(&mut net, &registry, victim, baseline_ok, &mut checks);
    campaign_phase_span(&registry, 0, start, net.sim.now().as_ns());
    let [mp50, mp99, rp50, rp99] = finish_telemetry(&registry, &mut checks);

    CampaignVerdict {
        name: "boot_storm_digest_flood",
        fault_attack: true,
        checks: checks.0,
        mitigation_latency_ns: latency,
        mitigation_latency_p50_ns: mp50,
        mitigation_latency_p99_ns: mp99,
        rollover_fanout_p50_ns: rp50,
        rollover_fanout_p99_ns: rp99,
        fabric,
    }
}

/// Campaign 2 — replay during re-route. Fabric: an edge uplink flaps and
/// ECMP detours around it. Defence: a sealed `writeReq` recorded on the
/// C-DP channel is replayed while the victim's uplink is down; sequence
/// numbers must reject it, and recovery must re-agree the port keys.
fn reroute_replay(cfg: &CampaignConfig) -> CampaignVerdict {
    const REG: RegId = RegId::new(77);
    let mut checks = Checks::default();
    let ft = FatTree::new(K);

    let fabric = fabric_phase(cfg, plan_for("reroute_replay"), &mut checks);

    let victim = ft.edge(0, 0);
    let (mut net, registry) = defence_net(0x3e91a7, 1, move |id, c: AgentConfig| {
        if id == victim {
            c.map_register(REG, "stats")
        } else {
            c
        }
    });
    net.switches[&victim]
        .borrow_mut()
        .chassis_mut()
        .declare_register(RegisterArray::new("stats", 8, 64));

    // Record the sealed writes crossing the victim's control channel.
    let capture = replay::capture_buffer();
    let (cdp_link, _) = net
        .sim
        .topology()
        .link_at(victim, PortId::new(63))
        .expect("C-DP link exists");
    net.sim.install_tap(
        cdp_link,
        SwitchId::CONTROLLER,
        replay::record_write_requests(capture.clone()),
    );
    net.controller_write(victim, REG, 2, 7);
    net.sim.run_to_completion();
    net.controller_write(victim, REG, 2, 8);
    net.sim.run_to_completion();
    net.sim.remove_tap(cdp_link, SwitchId::CONTROLLER);
    let _ = net.take_events();
    let baseline_ok = net.set.borrow().stats().responses_ok;

    // Flap the victim's first aggregation uplink; replay the stale write
    // mid-outage, while traffic is re-routing around the failure.
    let now = net.sim.now().as_ns();
    let (dp_link, _) = net
        .sim
        .topology()
        .link_at(victim, PortId::new(3))
        .expect("edge uplink exists");
    let mut churn = FaultPlan::new();
    churn.flap(dp_link, now + 10_000, now + 5_000_000);
    net.sim.install_fault_plan(&churn);
    net.sim.run_until(SimTime::from_ns(now + 1_000_000));

    let frames = replay::drain(&capture);
    checks.require(
        "replay_capture_recorded",
        frames.len() == 2,
        format!("{} sealed writeReqs captured (want 2)", frames.len()),
    );
    if let Some(stale) = frames.first() {
        net.sim.inject_frame(
            SwitchId::CONTROLLER,
            crate::harness::ControllerNode::port_for(victim),
            stale.clone(),
        );
    }
    net.sim.run_to_completion();

    let value = net.switches[&victim]
        .borrow()
        .chassis()
        .register("stats")
        .unwrap()
        .read(2)
        .unwrap();
    checks.require(
        "replay_did_not_regress_state",
        value == 8,
        format!("register value {value} (want the newer write, 8)"),
    );
    let events = net.take_events();
    checks.require(
        "replay_rejected_with_alert",
        events.contains(&ControllerEvent::AlertReceived {
            switch: victim,
            kind: AlertKind::SeqMismatch,
        }),
        "SeqMismatch alert from the victim".to_string(),
    );
    let stats = net.set.borrow().stats();
    checks.require(
        "no_forged_frame_accepted",
        stats.responses_ok == baseline_ok,
        format!(
            "responses_ok {} (baseline {baseline_ok})",
            stats.responses_ok
        ),
    );
    check_clean_channels(&net, &mut checks);
    check_port_keys_converged(&net, &mut checks);
    campaign_phase_span(&registry, 1, now, net.sim.now().as_ns());
    let [mp50, mp99, rp50, rp99] = finish_telemetry(&registry, &mut checks);

    CampaignVerdict {
        name: "reroute_replay",
        fault_attack: true,
        checks: checks.0,
        mitigation_latency_ns: None,
        mitigation_latency_p50_ns: mp50,
        mitigation_latency_p99_ns: mp99,
        rollover_fanout_p50_ns: rp50,
        rollover_fanout_p99_ns: rp99,
        fabric,
    }
}

/// Campaign 3 — compromised-user flood during a pod failure. Fabric: pod
/// 1 fails outright (hosts included) and recovers. Defence: the flood
/// runs while pod 1's DP-DP links are dark; the defence must still
/// mitigate, and pod 1's keys must re-agree on recovery.
fn pod_failure_compromised_flood(cfg: &CampaignConfig) -> CampaignVerdict {
    let mut checks = Checks::default();
    let ft = FatTree::new(K);

    let fabric = fabric_phase(cfg, plan_for("pod_failure_compromised_flood"), &mut checks);

    let (mut net, registry) = defence_net(0xf1003, 1, |_, c| c);
    let baseline_ok = net.set.borrow().stats().responses_ok;
    let victim = arm_flood(&mut net, ft, 0);

    let now = net.sim.now().as_ns();
    let mut churn = FaultPlan::new();
    let mut pod_links: Vec<LinkId> = Vec::new();
    for i in 0..K / 2 {
        pod_links.extend(dp_links_of(net.sim.topology(), ft.agg(1, i)));
        pod_links.extend(dp_links_of(net.sim.topology(), ft.edge(1, i)));
    }
    pod_links.sort_by_key(|l| l.0);
    pod_links.dedup();
    churn.correlated_flap(&pod_links, now + 50_000, now + 100_000_000);
    net.sim.install_fault_plan(&churn);

    net.sim.run_until(SimTime::from_ns(now + DEFENCE_WINDOW_NS));
    net.sim.run_to_completion();
    let latency = check_flood_defence(&mut net, &registry, victim, baseline_ok, &mut checks);
    check_port_keys_converged(&net, &mut checks);
    campaign_phase_span(&registry, 2, now, net.sim.now().as_ns());
    let [mp50, mp99, rp50, rp99] = finish_telemetry(&registry, &mut checks);

    CampaignVerdict {
        name: "pod_failure_compromised_flood",
        fault_attack: true,
        checks: checks.0,
        mitigation_latency_ns: latency,
        mitigation_latency_p50_ns: mp50,
        mitigation_latency_p99_ns: mp99,
        rollover_fanout_p50_ns: rp50,
        rollover_fanout_p99_ns: rp99,
        fabric,
    }
}

/// Campaign 4 — correlated flap churn, no attack. A shared-conduit group
/// (every DP-DP link of one aggregation switch) flaps twice while the
/// controller keeps doing legitimate work. Churn alone must produce zero
/// mitigations, zero quarantines, and a converged key state.
fn correlated_flap_churn(cfg: &CampaignConfig) -> CampaignVerdict {
    let mut checks = Checks::default();
    let fabric = fabric_phase(cfg, plan_for("correlated_flap_churn"), &mut checks);
    let [mp50, mp99, rp50, rp99] = correlated_flap_churn_defence(1, &mut checks);

    CampaignVerdict {
        name: "correlated_flap_churn",
        fault_attack: false,
        checks: checks.0,
        mitigation_latency_ns: None,
        mitigation_latency_p50_ns: mp50,
        mitigation_latency_p99_ns: mp99,
        rollover_fanout_p50_ns: rp50,
        rollover_fanout_p99_ns: rp99,
        fabric,
    }
}

fn correlated_flap_churn_defence(n_replicas: usize, checks: &mut Checks) -> [Option<u64>; 4] {
    let ft = FatTree::new(K);
    let (mut net, registry) = defence_net(0xc0991, n_replicas, |_, c| c);
    let baseline_ok = net.set.borrow().stats().responses_ok;
    let now = net.sim.now().as_ns();
    let dp_group = dp_links_of(net.sim.topology(), ft.agg(0, 0));
    let mut churn = FaultPlan::new();
    churn
        .correlated_flap(&dp_group, now + 10_000, now + 300_000)
        .correlated_flap(&dp_group, now + 600_000, now + 900_000);
    net.sim.install_fault_plan(&churn);

    // Legitimate control traffic rides through the churn: reads of a
    // built-in register on switches in and out of the flapping group.
    let ops: Vec<SwitchId> = vec![ft.agg(0, 0), ft.edge(0, 0), ft.edge(1, 1), ft.core(0)];
    for &sw in &ops {
        net.controller_read(sw, RegId::new(0), 0);
    }
    net.sim.run_to_completion();

    let events = net.take_events();
    let mitigations = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. }))
        .count();
    checks.require(
        "churn_no_false_mitigation",
        mitigations == 0,
        format!("{mitigations} mitigations from pure churn (want 0)"),
    );
    let stats = net.set.borrow().stats();
    checks.require(
        "control_ops_survive_churn",
        stats.responses_ok >= baseline_ok + ops.len() as u64,
        format!(
            "responses_ok {} (baseline {baseline_ok} + {} ops)",
            stats.responses_ok,
            ops.len()
        ),
    );
    check_clean_channels(&net, checks);
    check_port_keys_converged(&net, checks);
    campaign_phase_span(&registry, 3, now, net.sim.now().as_ns());
    finish_telemetry(&registry, checks)
}

/// Campaign 5 — whole-switch failure and recovery, no attack. An
/// aggregation switch goes dark and returns; recovery must re-agree the
/// port keys on every incident link with no defence false positives, and
/// the recovered switch must answer both a register read and a bulk
/// rollover of every local key (the campaign that fills the
/// `rollover_fanout_*` gates). Then the same switch reboots, losing every
/// key, counter and window, and must rejoin.
fn switch_failure_recovery(cfg: &CampaignConfig) -> CampaignVerdict {
    let mut checks = Checks::default();
    let fabric = fabric_phase(cfg, plan_for("switch_failure_recovery"), &mut checks);
    let [mp50, mp99, rp50, rp99] = switch_failure_recovery_defence(1, &mut checks);

    CampaignVerdict {
        name: "switch_failure_recovery",
        fault_attack: false,
        checks: checks.0,
        mitigation_latency_ns: None,
        mitigation_latency_p50_ns: mp50,
        mitigation_latency_p99_ns: mp99,
        rollover_fanout_p50_ns: rp50,
        rollover_fanout_p99_ns: rp99,
        fabric,
    }
}

fn switch_failure_recovery_defence(n_replicas: usize, checks: &mut Checks) -> [Option<u64>; 4] {
    let ft = FatTree::new(K);
    let (mut net, registry) = defence_net(0x5f41e, n_replicas, |_, c| c);
    let now = net.sim.now().as_ns();
    let dead = dp_links_of(net.sim.topology(), ft.agg(1, 0));
    let mut churn = FaultPlan::new();
    churn.correlated_flap(&dead, now + 10_000, now + 500_000);
    net.sim.install_fault_plan(&churn);
    net.sim.run_to_completion();

    // Post-recovery the switch answers legitimate requests again, and a
    // bulk key rollover reaches every switch, the recovered one included.
    let baseline_ok = net.set.borrow().stats().responses_ok;
    net.controller_read(ft.agg(1, 0), RegId::new(0), 0);
    net.sim.run_to_completion();
    let answered = net.set.borrow().stats().responses_ok - baseline_ok;
    let epoch = net.start_bulk_rollover();
    net.sim.run_to_completion();
    let rolled = epoch.is_some() && net.set.borrow().rollover_complete();

    // The switch reboots: its keys, sequence counters and replay windows
    // are gone, while the controller remembers the numbers it accepted
    // before. It must get its local and port keys again and answer a read.
    let rebooted = ft.agg(1, 0);
    let mut reboot = FaultPlan::new();
    reboot.reboot(rebooted, net.sim.now().as_ns() + 10_000);
    net.sim.install_fault_plan(&reboot);
    net.sim.run_to_completion();
    let before_reboot_read = net.set.borrow().stats().responses_ok;
    net.controller_read(rebooted, RegId::new(0), 0);
    net.sim.run_to_completion();
    let reread = net.set.borrow().stats().responses_ok - before_reboot_read;
    let agent_key = {
        let agent = net.switches[&rebooted].borrow();
        let slot = agent.keys(PortId::CPU);
        slot.current().map(|k| (k, slot.version()))
    };
    let controller_key = net.set.borrow().core(rebooted).local_key_material(rebooted);

    let events = net.take_events();
    let mitigations = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. }))
        .count();
    checks.require(
        "failure_no_false_mitigation",
        mitigations == 0,
        format!("{mitigations} mitigations from switch failure (want 0)"),
    );
    checks.require(
        "recovered_switch_answers",
        answered == 1,
        format!("{answered} of 1 reads answered"),
    );
    checks.require(
        "bulk_rollover_completes",
        rolled,
        format!("bulk rollover {epoch:?} complete: {rolled}"),
    );
    checks.require(
        "rebooted_switch_rejoins",
        agent_key.is_some() && agent_key == controller_key && reread == 1,
        format!(
            "local key agreed: {}, {reread} of 1 reads answered",
            agent_key.is_some() && agent_key == controller_key
        ),
    );
    check_clean_channels(&net, checks);
    check_port_keys_converged(&net, checks);
    campaign_phase_span(&registry, 4, now, net.sim.now().as_ns());
    finish_telemetry(&registry, checks)
}

/// The defence phases of the two fault-only campaigns on `n_replicas`
/// controller replicas, keyed by campaign name — the same checks
/// [`run_campaigns`] asserts at one replica, so a test can hold the
/// replicated control plane to them.
pub fn churn_defence_phases(n_replicas: usize) -> Vec<(&'static str, Vec<CheckResult>)> {
    let mut flap = Checks::default();
    correlated_flap_churn_defence(n_replicas, &mut flap);
    let mut failure = Checks::default();
    switch_failure_recovery_defence(n_replicas, &mut failure);
    vec![
        ("correlated_flap_churn", flap.0),
        ("switch_failure_recovery", failure.0),
    ]
}

/// Every DP-DP link of `sw` in a plain (controller-less, host-ful) fat
/// tree: host attachment links excluded so the flap group models a
/// shared switch-to-switch conduit.
fn dp_links_of_plain(topo: &Topology, sw: SwitchId) -> Vec<LinkId> {
    use p4auth_netsim::topology::HOST_ID_BASE;
    topo.links()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            (l.a.node == sw || l.b.node == sw)
                && l.a.node.value() < HOST_ID_BASE
                && l.b.node.value() < HOST_ID_BASE
        })
        .map(|(i, _)| LinkId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full suite at smoke scale: every campaign's invariants hold.
    /// (The `repro -- scenarios` report runs the same campaigns at
    /// [`CampaignConfig::standard`] — 100k users.)
    #[test]
    fn all_campaigns_pass_at_smoke_scale() {
        let verdicts = run_campaigns(&CampaignConfig::short());
        assert_eq!(verdicts.len(), 5);
        assert_eq!(
            verdicts.iter().filter(|v| v.fault_attack).count(),
            3,
            "three campaigns must combine a fault with an attack"
        );
        for v in &verdicts {
            for c in &v.checks {
                assert!(c.passed, "{}/{}: {}", v.name, c.name, c.detail);
            }
            assert!(v.passed());
            assert!(v.fabric.frames_sent > 0, "{}: fabric ran", v.name);
        }
        // Names are stable (the baseline gate keys on them).
        let names: Vec<&str> = verdicts.iter().map(|v| v.name).collect();
        assert_eq!(
            names,
            vec![
                "boot_storm_digest_flood",
                "reroute_replay",
                "pod_failure_compromised_flood",
                "correlated_flap_churn",
                "switch_failure_recovery",
            ]
        );
    }

    /// The standard report configuration models ≥100k users per campaign.
    #[test]
    fn standard_config_is_user_scale() {
        assert!(CampaignConfig::standard().users >= 100_000);
    }

    /// The flight-recorder probe: heap and calendar schedulers produce
    /// byte-identical encoded traces, the trace is well-formed, nothing
    /// was dropped, and the mitigation critical path decomposes the
    /// recorded latency into stages that sum exactly to the total.
    #[test]
    fn traced_probe_is_engine_invariant_and_well_formed() {
        use p4auth_telemetry::trace::{encode_trace, validate_well_formed};

        let heap = traced_defence_probe(SchedulerKind::Heap, CAMPAIGN_TRACE_CAPACITY);
        let calendar = traced_defence_probe(SchedulerKind::Calendar, CAMPAIGN_TRACE_CAPACITY);
        assert_eq!(heap.trace().dropped(), 0, "probe must not drop spans");
        let a = heap.trace().sorted_records();
        let b = calendar.trace().sorted_records();
        assert_eq!(
            encode_trace(&a, 0),
            encode_trace(&b, 0),
            "heap and calendar traces must be byte-identical"
        );
        validate_well_formed(&a).expect("trace is well-formed");
        assert!(!a.is_empty(), "the probe records spans");

        // The mitigation root's stage children partition its interval.
        let root = a
            .iter()
            .find(|r| r.kind == SpanKind::Mitigation)
            .expect("the flood trips a mitigation");
        let stages: Vec<_> = a.iter().filter(|r| r.parent_id == root.span_id).collect();
        assert!(
            stages.len() >= 4,
            "want >= 4 critical-path stages, got {}",
            stages.len()
        );
        let total: u64 = stages.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            total,
            root.end_ns - root.start_ns,
            "stage widths must sum to the mitigation latency"
        );

        // The recorded latency matches the histogram the campaigns gate.
        let snap = heap.snapshot();
        let hist = snap
            .histogram("defence_mitigation_latency_ns", "replica0")
            .expect("latency histogram present");
        assert_eq!(hist.count, 1);
        assert_eq!(root.end_ns - root.start_ns, hist.max);
    }

    /// Two runs produce identical deterministic fields — the property the
    /// CI two-run diff of `BENCH_scenarios.json` depends on.
    #[test]
    fn campaign_verdicts_are_deterministic() {
        let cfg = CampaignConfig {
            users: 2_000,
            frames_per_user: 1,
        };
        let a = run_campaigns(&cfg);
        let b = run_campaigns(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.passed(), y.passed());
            assert_eq!(x.mitigation_latency_ns, y.mitigation_latency_ns);
            assert_eq!(x.mitigation_latency_p50_ns, y.mitigation_latency_p50_ns);
            assert_eq!(x.mitigation_latency_p99_ns, y.mitigation_latency_p99_ns);
            assert_eq!(x.rollover_fanout_p50_ns, y.rollover_fanout_p50_ns);
            assert_eq!(x.rollover_fanout_p99_ns, y.rollover_fanout_p99_ns);
            assert_eq!(x.fabric.events, y.fabric.events);
            assert_eq!(x.fabric.frames_sent, y.fabric.frames_sent);
            assert_eq!(x.fabric.frames_delivered, y.fabric.frames_delivered);
            assert_eq!(x.fabric.frames_undeliverable, y.fabric.frames_undeliverable);
            assert_eq!(x.fabric.faults_applied, y.fabric.faults_applied);
            assert_eq!(x.fabric.sim_ns, y.fabric.sim_ns);
            for (cx, cy) in x.checks.iter().zip(&y.checks) {
                assert_eq!(cx.name, cy.name);
                assert_eq!(cx.passed, cy.passed);
                assert_eq!(cx.detail, cy.detail);
            }
        }
    }
}
