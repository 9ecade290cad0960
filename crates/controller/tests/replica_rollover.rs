//! Property test: replica-partitioned bulk rollover consistency.
//!
//! For any interleaving of replica steps, message losses (KMP retries),
//! cross-partition port-key exchanges and one mid-rollover replica
//! restart, the versioned rollover protocol
//! must converge every switch to the same epoch with *exactly one* key
//! derivation per switch — never a skipped epoch (a switch left on the
//! old key) and never a doubled one (two derivations aliased into one
//! epoch, which would desynchronize controller and data plane) — no
//! replica's core may ever hold the key of a switch another replica owns,
//! cross-partition port-key exchanges included, and both ends of every
//! port a port-key init named must end on one key.
//!
//! The test runs the real protocol: a [`ReplicaSet`] of one or two
//! replicas against real [`P4AuthSwitch`] agents over a lossy in-memory
//! message queue, driven by a proptest-generated operation schedule, then
//! a deterministic drain with geometrically growing time steps (so every
//! capped-backoff retry eventually fires).

use p4auth_controller::replica::partition_of;
use p4auth_controller::{ControllerConfig, ReplicaSet};
use p4auth_core::agent::{AgentConfig, AgentEvent, P4AuthSwitch};
use p4auth_primitives::Key64;
use p4auth_wire::ids::{PortId, SwitchId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const N_SWITCHES: u16 = 6;

/// The longest retry backoff, the controller's 200 µs first backoff
/// doubled once per attempt up to its 8-attempt budget: a step at least
/// this long finds every exchange still in flight due for a retry or its
/// abandon.
const LONGEST_BACKOFF_NS: u64 = 200_000 << 8;

/// One step of the adversarial schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Deliver the oldest in-flight controller→switch frame (responses
    /// re-enter the queue).
    Deliver,
    /// Drop the oldest in-flight frame (the lossy-KMP case the capped
    /// backoff retries exist for).
    Lose,
    /// Advance time and step one replica's daemons (the index modulo the
    /// replica count).
    Step(usize),
    /// Start a port-key exchange on the link between [`Fixture::link`]'s
    /// switches, both ends on this port; its legs travel the same lossy
    /// queue.
    PortInit(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Uniform arms; `Deliver` repeated so progress outweighs loss.
    prop_oneof![
        Just(Op::Deliver),
        Just(Op::Deliver),
        Just(Op::Deliver),
        Just(Op::Lose),
        (0..2usize).prop_map(Op::Step),
        (0..2usize).prop_map(Op::Step),
        (1..=2u8).prop_map(Op::PortInit),
    ]
}

struct Fixture {
    set: ReplicaSet,
    agents: BTreeMap<SwitchId, P4AuthSwitch>,
    /// In-flight controller→switch frames, FIFO (per-channel order is
    /// preserved because the queue never reorders).
    queue: VecDeque<(SwitchId, Vec<u8>)>,
    now: u64,
    /// An initiator and a responder, owned by different replicas when
    /// there are two.
    link: (SwitchId, SwitchId),
    /// The ports a port-key init named.
    initialised: BTreeSet<PortId>,
}

impl Fixture {
    fn new(n: usize) -> Fixture {
        let seeds: Vec<(SwitchId, Key64)> = (1..=N_SWITCHES)
            .map(|i| (SwitchId::new(i), Key64::new(0x5eed ^ u64::from(i))))
            .collect();
        let set = ReplicaSet::new(n, ControllerConfig::default(), &seeds);
        let first_of = |owner: usize| {
            seeds
                .iter()
                .map(|&(id, _)| id)
                .find(|&id| partition_of(id, n) == owner)
                .expect("every partition owns a switch")
        };
        let link = match n {
            1 => (SwitchId::new(1), SwitchId::new(2)),
            _ => (first_of(0), first_of(1)),
        };
        let agents = seeds
            .iter()
            .map(|&(id, k)| (id, P4AuthSwitch::new(AgentConfig::new(id, 2, k), None)))
            .collect();
        Fixture {
            set,
            agents,
            queue: VecDeque::new(),
            now: 1_000,
            link,
            initialised: BTreeSet::new(),
        }
    }

    fn port_init(&mut self, port: u8) {
        let ((a, r), port) = (self.link, PortId::new(port));
        self.initialised.insert(port);
        let out = self.set.port_key_init(self.now, a, port, r, port);
        self.enqueue(out);
    }

    /// The switch whose key a core other than its owner holds, if any:
    /// every key must live on the one core that computes with it.
    fn key_outside_its_owner(&self) -> Option<SwitchId> {
        self.agents.keys().copied().find(|&id| {
            let owner = self.set.owner(id);
            let others = self.set.replicas().iter().enumerate();
            others
                .filter(|&(i, _)| i != owner)
                .any(|(_, r)| r.core.local_key_material(id).is_some())
        })
    }

    /// The first initialised port whose two ends do not hold one key.
    fn port_ends_disagree(&self) -> Option<PortId> {
        let (a, r) = self.link;
        self.initialised.iter().copied().find(|&port| {
            let key = self.agents[&a].keys(port).current();
            key.is_none() || key != self.agents[&r].keys(port).current()
        })
    }

    fn enqueue(&mut self, out: Vec<p4auth_controller::Outgoing>) {
        self.queue.extend(out.into_iter().map(|o| (o.to, o.bytes)));
    }

    /// Delivers the oldest frame to its agent; the agent's port-key
    /// installs are reported to the set, as the harness's switch node
    /// reports them, its responses go back through the set, and any
    /// follow-up frames re-enter the queue.
    fn deliver_oldest(&mut self) {
        let Some((to, bytes)) = self.queue.pop_front() else {
            return;
        };
        let output = self
            .agents
            .get_mut(&to)
            .expect("frame addressed to a known switch")
            .on_packet(self.now, PortId::CPU, &bytes);
        for e in &output.events {
            if let AgentEvent::KeyInstalled { port } | AgentEvent::KeyRolled { port } = *e {
                if !port.is_cpu() {
                    self.set.notify_port_key_installed(self.now, to, port);
                }
            }
        }
        for (_, resp) in output.outputs {
            let (more, _) = self.set.on_message(self.now, to, &resp);
            self.enqueue(more);
        }
    }

    fn drain_queue(&mut self) {
        while !self.queue.is_empty() {
            self.deliver_oldest();
        }
    }

    fn step_replica(&mut self, i: usize, dt: u64) {
        self.now += dt;
        let out = self.set.step_replica(i % self.set.len(), self.now);
        self.enqueue(out);
    }

    /// Establishes every local key (the pre-rollover state): step both
    /// replicas and drain the queue until all switches report a key.
    fn bootstrap(&mut self) {
        for round in 0..64 {
            let ids: Vec<SwitchId> = self.agents.keys().copied().collect();
            for id in ids {
                if !self.set.has_local_key(id) && !self.set.core(id).kex_in_flight(id) {
                    let out = self.set.local_key_init(self.now, id);
                    self.enqueue(out);
                }
            }
            self.drain_queue();
            if self.agents.keys().all(|&id| self.set.has_local_key(id)) {
                return;
            }
            assert!(round < 63, "bootstrap did not converge");
        }
    }

    /// Deterministic drain: geometrically growing time steps guarantee
    /// every capped-backoff retry (and every re-issued exchange after an
    /// abandon) eventually fires, whatever state the schedule left. It
    /// ends once the epoch is complete and a step that outlasts every
    /// backoff sends nothing: no exchange, local or port, is in flight.
    fn drain_to_convergence(&mut self) {
        for round in 0..64u32 {
            let dt = 200_000u64 << round.min(22);
            let sent = self.step_all(dt);
            self.drain_queue();
            // One more pass so the daemons observe the completions they
            // just delivered (marking switches done is a table write).
            self.step_all(1);
            self.drain_queue();
            if dt >= LONGEST_BACKOFF_NS && sent == 0 && self.set.rollover_complete() {
                return;
            }
        }
        panic!("rollover did not converge, or an exchange never ended");
    }

    /// Steps every replica `dt` on; the number of frames they sent.
    fn step_all(&mut self, dt: u64) -> usize {
        self.now += dt;
        let queued = self.queue.len();
        for i in 0..self.set.len() {
            let out = self.set.step_replica(i, self.now);
            self.enqueue(out);
        }
        self.queue.len() - queued
    }
}

/// Any op interleaving + one mid-rollover restart with `n` replicas:
/// every switch ends exactly one version past its epoch baseline, on both
/// sides of the wire, and both ends of every initialised port agree.
fn rollover_converges(n: usize, ops: &[Op], restart_at: usize, restart_replica: usize) {
    let mut fx = Fixture::new(n);
    fx.bootstrap();

    // Baselines at epoch start (bootstrap leaves version 0).
    let baselines: BTreeMap<SwitchId, u8> = fx
        .agents
        .keys()
        .map(|&id| {
            let (_, v) = fx
                .set
                .core(id)
                .local_key_material(id)
                .expect("bootstrapped");
            (id, v.value())
        })
        .collect();

    let epoch = fx.set.start_bulk_rollover(fx.now).expect("first epoch");
    prop_assert_eq!(epoch, 1);

    for (i, op) in ops.iter().enumerate() {
        if i == restart_at {
            // A replica crash mid-rollover: daemons are rebuilt from
            // the shared table, never re-baselining pending entries.
            fx.set.restart_replica(restart_replica % n);
        }
        match *op {
            Op::Deliver => fx.deliver_oldest(),
            Op::Lose => {
                fx.queue.pop_front();
            }
            Op::Step(i) => fx.step_replica(i, 300_000),
            Op::PortInit(port) => fx.port_init(port),
        }
        prop_assert_eq!(
            fx.key_outside_its_owner(),
            None,
            "after op {} ({:?})",
            i,
            op
        );
    }

    fx.drain_to_convergence();
    prop_assert_eq!(fx.key_outside_its_owner(), None);
    prop_assert_eq!(fx.port_ends_disagree(), None, "N = {}", n);

    // Starting the next epoch is legal again — the previous one is
    // fully accounted for in the table.
    prop_assert!(fx.set.rollover_complete());
    for (&id, &baseline) in &baselines {
        let (ctrl_key, v) = fx
            .set
            .core(id)
            .local_key_material(id)
            .expect("key survives the epoch");
        // Exactly one derivation: no switch skipped (version stuck at
        // the baseline) and none doubled (version advanced twice).
        prop_assert_eq!(
            v.value(),
            baseline.wrapping_add(1),
            "switch {} derived a wrong number of times",
            id
        );
        // Controller and data plane agree on the new key material.
        let agent_keys = fx.agents[&id].keys(PortId::CPU);
        prop_assert_eq!(agent_keys.version(), v);
        prop_assert_eq!(agent_keys.current(), Some(ctrl_key));
    }
    prop_assert!(fx.set.start_bulk_rollover(fx.now + 1).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rollover_converges_exactly_once_per_switch_with_one_replica(
        ops in proptest::collection::vec(op_strategy(), 0..48),
        restart_at in 0usize..48,
    ) {
        rollover_converges(1, &ops, restart_at, 0);
    }

    #[test]
    fn rollover_converges_exactly_once_per_switch(
        ops in proptest::collection::vec(op_strategy(), 0..48),
        restart_at in 0usize..48,
        restart_replica in 0usize..2,
    ) {
        rollover_converges(2, &ops, restart_at, restart_replica);
    }
}
