//! Replicated control plane: N [`ControllerReplica`]s partitioning the
//! switches by a deterministic hash, coordinating through one shared
//! [`StateDb`].
//!
//! Each replica is a protocol [`Controller`] core plus its key-manager
//! [daemon](crate::daemons). The [`ReplicaSet`] owns the shared state
//! table, routes incoming frames to the replica responsible for the
//! sending switch, and implements the two places where replicas must
//! cooperate:
//!
//! * **Versioned bulk key rollover** — [`ReplicaSet::start_bulk_rollover`]
//!   bumps the `kmp/epoch` target in the table; every replica's
//!   key-manager daemon then rolls its own partition independently,
//!   recording per-switch progress (with the baseline key version) in
//!   the table. The epoch cannot start while the previous one is
//!   incomplete, a restarted replica resumes from the table without
//!   re-baselining, and completion is judged by key-version movement —
//!   together these make the rollover KMP-retry-safe and
//!   restart-safe (no skipped or doubled derivation; proptested in
//!   `tests/replica_rollover.rs`).
//!
//! * **Cross-partition port-key redirects** — Fig. 14(c) relays both
//!   ADHKD legs of a port-key init through the controller, but the two
//!   switches may hash to different replicas. One rule keeps every key on
//!   one core: every frame from a switch goes to that switch's owner, and
//!   every frame to a switch is sealed by that switch's owner. The
//!   initiator's owner, the redirect's *home*, starts the exchange and
//!   holds its one record. The offer leg arrives there and is verified
//!   there; the responder's owner seals it toward the responder. The
//!   answer leg arrives at the responder's owner and is verified there,
//!   in that owner's window; the set hands the verified leg to the core
//!   whose redirect awaits it, which ends the redirect and seals the leg
//!   toward the initiator. The hand-off is a value that one
//!   [`ReplicaSet::on_message`] call passes from core to core and drops;
//!   nothing is queued. A forged leg is rejected by its sender's owner and
//!   moves nothing. A redirected leg keeps its origin switch as sender
//!   and is numbered afresh in the receiver's current generation, from
//!   the one counter its owner seals every frame to that switch with, so
//!   an owner may roll its switch's key at any time: the next leg goes
//!   out under the new key, and the ±1 rule covers a leg already in
//!   flight. With one replica the home owns both ends and finishes both
//!   legs itself.
//!
//! Determinism: replicas step in index order, partitions iterate in
//! switch-id order, the state table is `BTreeMap`-backed, and each
//! replica's RNG seed derives from the base seed and its index — so a
//! run with the same topology and seeds is bit-identical, which the
//! pinned artefacts (`ARTEFACTS.txt`) check end to end.

use crate::controller::{
    Controller, ControllerConfig, ControllerEvent, ControllerStats, Handoff, Outgoing,
};
use crate::daemons::KeyManagerDaemon;
use crate::defence::DefenceConfig;
use crate::statedb::StateDb;
use p4auth_primitives::Key64;
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use std::sync::Arc;

/// SplitMix64 finalizer — the partition hash. Deterministic across
/// processes and runs (no hash-seed randomness), well-mixed enough that
/// consecutive switch ids spread over the replicas.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which of `n` replicas owns `switch`. Pure function of the id, so
/// every component (and every run) agrees without coordination.
pub fn partition_of(switch: SwitchId, n: usize) -> usize {
    (mix(switch.value() as u64) % n.max(1) as u64) as usize
}

/// One replica: a protocol core plus its orchestration daemon. Build
/// via [`ReplicaSet::new`]; the set owns the shared state table.
pub struct ControllerReplica {
    /// The protocol core (sealing, verifying, exchanges).
    pub core: Controller,
    km: KeyManagerDaemon,
}

impl ControllerReplica {
    /// The switches this replica owns (sorted).
    pub fn owned(&self) -> &[SwitchId] {
        self.km.owned()
    }
}

/// A set of controller replicas sharing one state table. See the
/// module docs for the coordination protocol.
pub struct ReplicaSet {
    db: StateDb,
    replicas: Vec<ControllerReplica>,
}

impl ReplicaSet {
    /// Builds `n` replicas over `switches`, each switch registered (with
    /// its `K_seed`) on the replica [`partition_of`] assigns it to. Each
    /// replica's RNG seed derives from `config.rng_seed` and its index.
    pub fn new(n: usize, config: ControllerConfig, switches: &[(SwitchId, Key64)]) -> Self {
        assert!(n >= 1, "a replica set needs at least one replica");
        let db = StateDb::new();
        let mut replicas = Vec::with_capacity(n);
        for index in 0..n {
            let replica_config = ControllerConfig {
                rng_seed: mix(config.rng_seed ^ index as u64),
                ..config
            };
            let mut core = Controller::new(replica_config);
            let mut owned = Vec::new();
            for (id, seed) in switches {
                if partition_of(*id, n) == index {
                    core.register_switch(*id, *seed);
                    owned.push(*id);
                }
            }
            let km = KeyManagerDaemon::new(&db, owned, index);
            replicas.push(ControllerReplica { core, km });
        }
        ReplicaSet { db, replicas }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never: `new` asserts `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica index owning `switch`.
    pub fn owner(&self, switch: SwitchId) -> usize {
        partition_of(switch, self.replicas.len())
    }

    /// The replicas, in index order.
    pub fn replicas(&self) -> &[ControllerReplica] {
        &self.replicas
    }

    /// The shared state table (read-only).
    pub fn db(&self) -> &StateDb {
        &self.db
    }

    /// The core owning `switch`.
    pub fn core(&self, switch: SwitchId) -> &Controller {
        &self.replicas[self.owner(switch)].core
    }

    /// Mutable access to the core owning `switch`.
    pub fn core_mut(&mut self, switch: SwitchId) -> &mut Controller {
        let i = self.owner(switch);
        &mut self.replicas[i].core
    }

    /// The core owning `switch`, with its clock at `now_ns`: every
    /// request and exchange the set forwards starts here.
    fn core_at(&mut self, now_ns: u64, switch: SwitchId) -> &mut Controller {
        let core = self.core_mut(switch);
        core.set_now(now_ns);
        core
    }

    /// Attaches one registry to every replica's core, each labeled
    /// `replica{i}` so their series stay distinguishable; the per-channel
    /// reject counters are labeled by channel, not replica, and read as
    /// one set-wide series.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        for (i, r) in self.replicas.iter_mut().enumerate() {
            r.core.set_replica_telemetry(registry.clone(), i);
        }
    }

    /// Pushes the simulation clock to every core.
    pub fn set_now(&mut self, now_ns: u64) {
        for r in &mut self.replicas {
            r.core.set_now(now_ns);
        }
    }

    /// Arms the defence loop on every replica's core: each core's own
    /// sliding reject window detects a flood on the channels it owns and
    /// mitigates (the §VII single-controller behaviour, per partition).
    pub fn enable_defence(&mut self, config: DefenceConfig) {
        for r in &mut self.replicas {
            r.core.enable_defence(config);
        }
    }

    /// Routes one frame from `from` to its owner, which verifies it. A
    /// verified port-key redirect leg that the owner cannot finish alone
    /// goes on within this call: to the core whose redirect awaits it, then
    /// to the core that owns its receiver, which seals it (module docs).
    pub fn on_message(
        &mut self,
        now_ns: u64,
        from: SwitchId,
        bytes: &[u8],
    ) -> (Vec<Outgoing>, Vec<ControllerEvent>) {
        let (mut out, mut events, handoff) = self.core_at(now_ns, from).receive(from, bytes);
        if let Some(handoff) = handoff {
            self.hand_off(now_ns, handoff, &mut out, &mut events);
        }
        (out, events)
    }

    /// Finishes a verified redirect leg that its sender's owner handed
    /// back: the core whose redirect awaits it forwards it, and the
    /// receiver's owner seals it.
    fn hand_off(
        &mut self,
        now_ns: u64,
        mut handoff: Handoff,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<ControllerEvent>,
    ) {
        if let Handoff::Unclaimed(leg) = handoff {
            let Some(r) = self.replicas.iter_mut().find(|r| r.core.awaits(&leg)) else {
                return;
            };
            r.core.set_now(now_ns);
            match r.core.redirect(leg, out, events) {
                Some(next) => handoff = next,
                None => return,
            }
        }
        if let Handoff::Seal(leg, to) = handoff {
            out.extend(self.core_mut(to.0).seal_leg(leg, to));
        }
    }

    /// Starts port-key initialization between `(sw1, port1)` and
    /// `(sw2, port2)` on the initiator's owner, which holds the redirect
    /// (see [`Controller::port_key_init`]). `sw2`'s owner learns the link
    /// too, for a mitigation on `sw2`'s port.
    pub fn port_key_init(
        &mut self,
        now_ns: u64,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
        port2: PortId,
    ) -> Vec<Outgoing> {
        self.core_mut(sw2).learn_link((sw1, port1), (sw2, port2));
        self.core_at(now_ns, sw1)
            .port_key_init(sw1, port1, sw2, port2)
    }

    /// Whether `switch`'s owner has its local key established.
    pub fn has_local_key(&self, switch: SwitchId) -> bool {
        self.core(switch).has_local_key(switch)
    }

    /// Starts local-key initialization for `switch` on its owner.
    pub fn local_key_init(&mut self, now_ns: u64, switch: SwitchId) -> Vec<Outgoing> {
        self.core_at(now_ns, switch).local_key_init(switch)
    }

    /// Triggers a direct DP-DP port-key rollover via `sw1`'s owner.
    pub fn port_key_update(
        &mut self,
        now_ns: u64,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
    ) -> Vec<Outgoing> {
        self.core_at(now_ns, sw1).port_key_update(sw1, port1, sw2)
    }

    /// Re-drives stalled key exchanges on every replica, in index order
    /// (see [`Controller::retry_stalled`]).
    pub fn retry_stalled(&mut self, now_ns: u64) -> Vec<Outgoing> {
        (self.replicas.iter_mut())
            .flat_map(|r| {
                r.core.set_now(now_ns);
                r.core.retry_stalled()
            })
            .collect()
    }

    /// Reports a DP-DP port-key install to the owner's defence
    /// accounting (see [`Controller::notify_port_key_installed`]).
    pub fn notify_port_key_installed(&mut self, now_ns: u64, peer: SwitchId, channel: PortId) {
        self.core_at(now_ns, peer)
            .notify_port_key_installed(peer, channel);
    }

    /// Issues an authenticated register read toward `switch` via its
    /// owner replica.
    pub fn read_register(
        &mut self,
        now_ns: u64,
        switch: SwitchId,
        reg: RegId,
        index: u32,
    ) -> Outgoing {
        self.core_at(now_ns, switch)
            .read_register(switch, reg, index)
    }

    /// Issues an authenticated register write toward `switch` via its
    /// owner replica.
    pub fn write_register(
        &mut self,
        now_ns: u64,
        switch: SwitchId,
        reg: RegId,
        index: u32,
        value: u64,
    ) -> Outgoing {
        self.core_at(now_ns, switch)
            .write_register(switch, reg, index, value)
    }

    /// One orchestration step: every replica (in index order) runs its
    /// key-manager daemon against the shared table, then re-drives its
    /// stalled exchanges.
    pub fn step(&mut self, now_ns: u64) -> Vec<Outgoing> {
        (0..self.replicas.len())
            .flat_map(|i| self.step_replica(i, now_ns))
            .collect()
    }

    /// Steps only replica `i` — the proptest uses this to interleave
    /// replica progress arbitrarily.
    pub fn step_replica(&mut self, i: usize, now_ns: u64) -> Vec<Outgoing> {
        let r = &mut self.replicas[i];
        r.core.set_now(now_ns);
        let mut out = r.km.step(&mut self.db, &mut r.core, now_ns);
        out.extend(r.core.retry_stalled());
        out
    }

    /// Starts the next bulk key-rollover epoch across *all* partitions.
    /// Refuses (returns `None`) while a previous epoch is incomplete —
    /// overlapping epochs could alias two rollovers into one derivation,
    /// which is exactly the "skipped derivation" the versioned protocol
    /// rules out. Returns the new epoch number on success.
    pub fn start_bulk_rollover(&mut self, now_ns: u64) -> Option<u64> {
        let current = self.db.epoch();
        if current > 0 && !self.rollover_complete() {
            return None;
        }
        let epoch = current + 1;
        self.db.start_epoch(epoch, now_ns);
        Some(epoch)
    }

    /// The current bulk-rollover epoch target (0 = never started).
    pub fn rollover_epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// Whether every switch on every replica has finished the current
    /// epoch.
    pub fn rollover_complete(&self) -> bool {
        let epoch = self.rollover_epoch();
        epoch == 0
            || self
                .replicas
                .iter()
                .all(|r| KeyManagerDaemon::partition_done(&self.db, r.owned(), epoch))
    }

    /// Simulates a crash/restart of replica `i`'s orchestration only: the
    /// key manager is rebuilt from scratch, knowing only its partition and
    /// the table as it stands, as a respawned daemon would come up. All
    /// orchestration progress must therefore be recoverable from the
    /// table — the mid-rollover restart proptest pins this down.
    ///
    /// This is not a controller restart: the protocol core (keys,
    /// sequence counters and replay windows, pending exchanges and
    /// redirects, the defence loop's windows and in-flight mitigations)
    /// is kept as it was. A controller that loses that state too is a
    /// fresh [`Controller`] with the same `K_seed`s, which must run
    /// `local_key_init` toward every switch it owns (`controller::tests::a_restarted_controller_rejoins_after_20_rollovers`).
    pub fn restart_replica(&mut self, i: usize) {
        let r = &mut self.replicas[i];
        r.km = KeyManagerDaemon::new(&self.db, r.owned().to_vec(), i);
    }

    /// Lifetime counters summed over the replicas.
    pub fn stats(&self) -> ControllerStats {
        self.replicas
            .iter()
            .fold(ControllerStats::default(), |acc, r| acc + r.core.stats())
    }

    /// All alerts collected across the replicas, in replica order.
    pub fn alerts(&self) -> Vec<(SwitchId, p4auth_wire::body::AlertKind)> {
        self.replicas
            .iter()
            .flat_map(|r| r.core.alerts().iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::daemons::KexStatus;
    use p4auth_core::agent::{AgentConfig, P4AuthSwitch};
    use p4auth_core::auth::RejectReason;
    use p4auth_dataplane::register::RegisterArray;
    use p4auth_wire::Message;
    use std::collections::BTreeMap;

    type Agents = BTreeMap<SwitchId, P4AuthSwitch>;

    /// The register every [`fleet`] agent serves (8 entries).
    const REG: RegId = RegId::new(1);
    /// Mapped by every [`fleet`] agent, declared by none: a nAck.
    const UNDECLARED: RegId = RegId::new(2);

    fn seeds_for(ids: impl IntoIterator<Item = SwitchId>) -> Vec<(SwitchId, Key64)> {
        ids.into_iter()
            .map(|id| (id, Key64::new(0x5eed_0000 + u64::from(id.value()))))
            .collect()
    }

    fn seeds(n: u16) -> Vec<(SwitchId, Key64)> {
        seeds_for((1..=n).map(SwitchId::new))
    }

    /// The smallest switch id that partition `owner` of `n` owns.
    fn pick(n: usize, owner: usize) -> SwitchId {
        (1..64u16)
            .map(SwitchId::new)
            .find(|&s| partition_of(s, n) == owner)
            .expect("every partition owns some small id")
    }

    /// `n` replicas over `seeds` and one agent per switch, every local
    /// key established (EAK + ADHKD run to quiescence at t = 1000).
    fn fleet(n: usize, seeds: &[(SwitchId, Key64)]) -> (ReplicaSet, Agents) {
        let mut set = ReplicaSet::new(n, ControllerConfig::default(), seeds);
        let mut agents: Agents = seeds
            .iter()
            .map(|&(id, k)| {
                let config = AgentConfig::new(id, 2, k)
                    .map_register(REG, "r")
                    .map_register(UNDECLARED, "gone");
                let mut agent = P4AuthSwitch::new(config, None);
                agent
                    .chassis_mut()
                    .declare_register(RegisterArray::new("r", 8, 64));
                (id, agent)
            })
            .collect();
        for &(id, _) in seeds {
            let init = set.local_key_init(1_000, id);
            pump(&mut set, &mut agents, 1_000, init);
        }
        assert!(seeds.iter().all(|&(id, _)| set.has_local_key(id)));
        (set, agents)
    }

    /// Runs controller frames to quiescence at `t`; returns the events
    /// the set reported along the way.
    fn pump(
        set: &mut ReplicaSet,
        agents: &mut Agents,
        t: u64,
        mut pending: Vec<Outgoing>,
    ) -> Vec<ControllerEvent> {
        let mut seen = Vec::new();
        while let Some(o) = pending.pop() {
            let agent = agents.get_mut(&o.to).expect("known switch");
            for (_, bytes) in agent.on_packet(t, PortId::CPU, &o.bytes).outputs {
                let (out, events) = set.on_message(t, o.to, &bytes);
                pending.extend(out);
                seen.extend(events);
            }
        }
        seen
    }

    /// Delivers one controller frame to its agent; the single frame the
    /// agent answers with.
    fn reply(agents: &mut Agents, t: u64, o: Outgoing) -> Vec<u8> {
        let agent = agents.get_mut(&o.to).expect("known switch");
        let mut outputs = agent.on_packet(t, PortId::CPU, &o.bytes).outputs;
        assert_eq!(outputs.len(), 1, "one frame back from {}", o.to);
        outputs.remove(0).1
    }

    #[test]
    fn partition_is_deterministic_and_total() {
        for n in 1..5 {
            for s in 1..40u16 {
                let a = partition_of(SwitchId::new(s), n);
                let b = partition_of(SwitchId::new(s), n);
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
    }

    #[test]
    fn two_replicas_split_a_fat_tree_sized_fleet() {
        // fat_tree(4) has 20 switches; both replicas must own a
        // non-trivial share or "replicated" is a fiction.
        let set = ReplicaSet::new(2, ControllerConfig::default(), &seeds(20));
        assert!(set.replicas()[0].owned().len() >= 5);
        assert!(set.replicas()[1].owned().len() >= 5);
        let total: usize = set.replicas().iter().map(|r| r.owned().len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn rollover_refuses_to_overlap_epochs() {
        let mut set = ReplicaSet::new(2, ControllerConfig::default(), &seeds(4));
        assert_eq!(set.start_bulk_rollover(0), Some(1));
        // Nothing has completed: a second epoch must be refused.
        set.step(0);
        assert_eq!(set.start_bulk_rollover(10), None);
        assert_eq!(set.rollover_epoch(), 1);
    }

    /// Two cross-partition port-key exchanges sharing responder `r` with
    /// different homes, in flight at once — what any correlated link
    /// recovery produces. Legs match redirects by `(switch, port)`, so
    /// whichever answer leg arrives first completes only its own
    /// redirect.
    #[test]
    fn concurrent_redirects_sharing_a_responder_both_complete() {
        const N: usize = 3;
        // One switch per partition: initiators `a`, `b` (the two homes)
        // and the shared responder `r`.
        let (a, b, r) = (pick(N, 0), pick(N, 1), pick(N, 2));
        let (p1, p2) = (PortId::new(1), PortId::new(2));

        for a_answers_first in [true, false] {
            let (mut set, mut agents) = fleet(N, &seeds_for([a, b, r]));
            // Hands controller frames to their agents and returns what the
            // agents send back, as `(from, bytes)`.
            let mut deliver = |out: Vec<Outgoing>| -> Vec<(SwitchId, Vec<u8>)> {
                out.into_iter()
                    .flat_map(|o| {
                        let output = agents.get_mut(&o.to).expect("known switch").on_packet(
                            1_000,
                            PortId::CPU,
                            &o.bytes,
                        );
                        output
                            .outputs
                            .into_iter()
                            .map(move |(_, bytes)| (o.to, bytes))
                    })
                    .collect()
            };

            // Both exchanges run up to (not including) their answer leg:
            // portKeyInit -> initiator's offer -> redirected to `r` -> answer.
            let mut answer_of = |set: &mut ReplicaSet, init: SwitchId, r_port: PortId| {
                let offers = deliver(set.port_key_init(1_000, init, p1, r, r_port));
                assert_eq!(offers.len(), 1, "one offer leg from {init}");
                let (redirected, _) = set.on_message(1_000, init, &offers[0].1);
                let mut answers = deliver(redirected);
                assert_eq!(answers.len(), 1, "one answer leg from {r}");
                answers.remove(0).1
            };
            // `r` answers in the order its answers reach the set: its owner
            // keeps one window on `r`'s frames, where a leg that arrives
            // behind a later one from `r` is a replay.
            let order = match a_answers_first {
                true => [(a, p1), (b, p2)],
                false => [(b, p2), (a, p1)],
            };
            let [first, second] = order.map(|(init, r_port)| answer_of(&mut set, init, r_port));
            let (out, _) = set.on_message(1_000, r, &first);
            assert_eq!(out.len(), 1, "first answer leg redirected to its initiator");
            deliver(out);
            let (out, _) = set.on_message(1_000, r, &second);
            assert_eq!(
                out.len(),
                1,
                "second answer leg redirected to its initiator"
            );
            deliver(out);

            for (init, r_port) in [(a, p1), (b, p2)] {
                let k_init = agents[&init].keys(p1).current();
                let k_resp = agents[&r].keys(r_port).current();
                assert!(k_init.is_some(), "{init} installed its port key");
                assert_eq!(k_init, k_resp, "{init}:{p1} and {r}:{r_port} agree");
            }
        }
    }

    /// Two links between `x` and `y` (in different partitions when there
    /// are several), one initialised from each end, so the two redirects
    /// have different homes and each switch receives a redirected leg of
    /// each. Every frame toward a switch is sealed by its owner from one
    /// counter, so neither receiver sees a genuine leg behind another one:
    /// both links agree with no retry, no replay and no alert.
    #[test]
    fn links_started_from_opposite_ends_complete_without_a_retry() {
        let (p1, p2) = (PortId::new(1), PortId::new(2));
        for n in 1..=3 {
            let x = pick(n, 0);
            let y = match n {
                1 => SwitchId::new(x.value() + 1),
                _ => pick(n, 1),
            };
            let (mut set, mut agents) = fleet(n, &seeds_for([x, y]));
            let from_y = set.port_key_init(2_000, y, p2, x, p2);
            pump(&mut set, &mut agents, 2_000, from_y);
            let from_x = set.port_key_init(2_000, x, p1, y, p1);
            pump(&mut set, &mut agents, 2_000, from_x);

            for port in [p1, p2] {
                let key = agents[&x].keys(port).current();
                assert!(key.is_some(), "N = {n}: {x}:{port} has its port key");
                assert_eq!(key, agents[&y].keys(port).current(), "N = {n}: {port}");
            }
            for id in [x, y] {
                let stats = agents[&id].stats();
                assert_eq!((stats.replays, stats.alerts_sent), (0, 0), "N = {n}: {id}");
            }
            assert_eq!(set.stats().kex_abandoned, 0, "N = {n}");
        }
    }

    /// The responder's owner rolls its key between two copies of one
    /// redirected offer (the original and the home's retry): the responder
    /// answers the copy under the new key from its dedupe cache rather
    /// than deriving a second port key, so whichever answer completes the
    /// redirect, both ends hold one key.
    #[test]
    fn an_offer_copy_sealed_after_a_responder_rollover_derives_nothing_new() {
        let (a, r, port) = (pick(2, 0), pick(2, 1), PortId::new(1));
        let (mut set, mut agents) = fleet(2, &seeds_for([a, r]));
        let t = 2_000;
        let mut kicks = set.port_key_init(t, a, port, r, port);
        kicks.extend(set.retry_stalled(t + 200_000));
        assert_eq!(kicks.len(), 2, "portKeyInit and its retry");
        let offers: Vec<Vec<u8>> = kicks
            .into_iter()
            .map(|o| reply(&mut agents, t, o))
            .collect();
        let body = |frame: &[u8]| Message::decode(frame).expect("a frame").body().clone();
        assert_eq!(
            body(&offers[0]),
            body(&offers[1]),
            "the retry re-sends the offer"
        );

        let mut answers = Vec::new();
        for (i, offer) in offers.iter().enumerate() {
            if i == 1 {
                let update = set.core_at(t, r).local_key_update(r);
                pump(&mut set, &mut agents, t, update);
            }
            let (mut copy, _) = set.on_message(t, a, offer);
            answers.push(reply(&mut agents, t, copy.remove(0)));
        }
        assert_eq!(
            body(&answers[0]),
            body(&answers[1]),
            "one answer, from the cache"
        );
        for answer in answers {
            let (out, _) = set.on_message(t, r, &answer);
            pump(&mut set, &mut agents, t, out);
        }
        let key = agents[&a].keys(port).current();
        assert!(key.is_some(), "{a} installed its port key");
        assert_eq!(key, agents[&r].keys(port).current());
    }

    /// The responder's owner may roll its key while a redirect naming it is
    /// pending (a defence rollover, say): the redirected offer must go out
    /// under the owner's current key, or the responder rejects every copy
    /// until the home abandons the exchange. One rollover is covered by the
    /// previous generation (±1), two are not. `retry` is the path under
    /// test, called at each retry instant.
    fn retried_redirect_carries_the_responders_current_key(
        retry: fn(&mut ReplicaSet, u64) -> Vec<Outgoing>,
    ) {
        let (i, r, p1) = (pick(2, 0), pick(2, 1), PortId::new(1));
        for rollovers in 0..=2 {
            let (mut set, mut agents) = fleet(2, &seeds_for([i, r]));
            let init = set.port_key_init(1_000, i, p1, r, p1);
            assert_eq!(init.len(), 1, "one portKeyInit");
            for _ in 0..rollovers {
                let update = set.core_at(1_000, r).local_key_update(r);
                pump(&mut set, &mut agents, 1_000, update);
            }
            pump(&mut set, &mut agents, 2_000, init);
            // Retry until the budget would be spent twice over.
            for step in 1..=16u64 {
                let t = 2_000 + step * 100_000_000;
                let retries = retry(&mut set, t);
                pump(&mut set, &mut agents, t, retries);
            }
            let (k_init, k_resp) = (agents[&i].keys(p1).current(), agents[&r].keys(p1).current());
            assert!(
                k_init.is_some(),
                "{rollovers} rollovers: {i} has its port key"
            );
            assert_eq!(k_init, k_resp, "{rollovers} rollovers: both ends agree");
            assert_eq!(set.stats().kex_abandoned, 0, "{rollovers} rollovers");
        }
    }

    #[test]
    fn a_retried_redirect_carries_the_responders_current_key() {
        retried_redirect_carries_the_responders_current_key(ReplicaSet::retry_stalled);
    }

    /// The orchestration tick's path (`step`: each daemon, then its
    /// replica's retries) behaves as `retry_stalled` does.
    #[test]
    fn a_redirect_retried_by_the_orchestration_step_carries_the_responders_current_key() {
        retried_redirect_carries_the_responders_current_key(ReplicaSet::step);
    }

    #[test]
    fn restart_rebuilds_daemons_without_losing_table_state() {
        let mut set = ReplicaSet::new(2, ControllerConfig::default(), &seeds(4));
        set.start_bulk_rollover(0);
        set.step(0);
        let before = set.db().clone();
        set.restart_replica(0);
        set.restart_replica(1);
        assert!(*set.db() == before, "restart must not write");
    }

    /// A replica restart rebuilds orchestration, not the protocol core:
    /// the defence ladder's in-flight mitigation and quarantine flag live
    /// in the core and must survive it, or a restart mid-mitigation would
    /// lose the latency record, lift a quarantine nobody earned, and make
    /// the next flood look like a first offence.
    #[test]
    fn restart_mid_mitigation_keeps_the_defence_ladder() {
        use crate::defence::MitigationKind;

        let seeds = seeds(2);
        let registry = Arc::new(Registry::new());
        let (mut set, mut agents) = fleet(2, &seeds);
        set.set_telemetry(registry.clone());
        set.enable_defence(DefenceConfig {
            reject_threshold: 3,
            ..DefenceConfig::default()
        });
        let victim = seeds[0].0;
        let owner = set.owner(victim);
        let label = format!("replica{owner}");
        let completed = |registry: &Registry| {
            registry
                .snapshot()
                .histogram("defence_mitigation_latency_ns", &label)
                .map_or(0, |h| h.count)
        };

        // Delivers `n` copies of a genuine reply with one digest bit
        // flipped — each a counted `BadDigest` reject on the victim's C-DP
        // channel — and returns the frames and mitigations they provoked.
        let flood = |set: &mut ReplicaSet, agents: &mut Agents, t: u64, n: usize| {
            let request = set.read_register(t, victim, REG, 0);
            let agent = agents.get_mut(&victim).expect("known switch");
            let reply = agent
                .on_packet(t, PortId::CPU, &request.bytes)
                .outputs
                .remove(0)
                .1;
            set.on_message(t, victim, &reply);
            let mut forged = reply;
            forged[11] ^= 0x10; // inside the digest
            let (mut out, mut fired) = (Vec::new(), Vec::new());
            for _ in 0..n {
                let (o, events) = set.on_message(t, victim, &forged);
                out.extend(o);
                fired.extend(events.into_iter().filter_map(|e| match e {
                    ControllerEvent::DefenceMitigated { kind, .. } => Some(kind),
                    _ => None,
                }));
            }
            (out, fired)
        };

        // First crossing: a key rollover goes out; the replica restarts
        // before the agent's answer arrives.
        let (rollover, fired) = flood(&mut set, &mut agents, 2_000, 3);
        assert_eq!(fired, [MitigationKind::KeyRollover]);
        assert!(set.core(victim).defence_in_flight(victim, PortId::CPU));
        set.restart_replica(owner);
        assert!(set.core(victim).defence_in_flight(victim, PortId::CPU));
        let events = pump(&mut set, &mut agents, 3_000, rollover);
        assert!(events.contains(&ControllerEvent::LocalKeyRolled(victim)));
        assert_eq!(completed(&registry), 1, "the mitigation completes once");
        assert!(!set.core(victim).defence_in_flight(victim, PortId::CPU));

        // The flood continues inside the escalation window: quarantine.
        // It is set before the restart, still set after it, and lifts on
        // the install.
        let (rollover, fired) = flood(&mut set, &mut agents, 4_000, 3);
        assert_eq!(fired, [MitigationKind::Quarantine], "the ladder remembered");
        assert!(set.core(victim).defence_quarantined(victim, PortId::CPU));
        set.restart_replica(owner);
        assert!(set.core(victim).defence_quarantined(victim, PortId::CPU));
        assert!(set.core(victim).defence_in_flight(victim, PortId::CPU));
        pump(&mut set, &mut agents, 5_000, rollover);
        assert!(!set.core(victim).defence_quarantined(victim, PortId::CPU));
        assert!(!set.core(victim).defence_in_flight(victim, PortId::CPU));
        assert_eq!(completed(&registry), 2);

        // A following sub-threshold reject fires nothing.
        let (out, fired) = flood(&mut set, &mut agents, 6_000, 1);
        assert!(out.is_empty() && fired.is_empty(), "{fired:?}");
        assert_eq!(set.stats().defence_mitigations, 2);
    }

    /// What the state table holds after a scripted run — bootstrap, 4,600
    /// register ops with nacks and forged responses mixed in, one bulk
    /// rollover: the rollover's progress and nothing else. No register op
    /// writes to it, whatever its outcome.
    #[test]
    fn scripted_run_reproduces_the_recorded_state_table() {
        let seeds = seeds(4);
        let (mut set, mut agents) = fleet(2, &seeds);
        let out = set.step(2_000);
        pump(&mut set, &mut agents, 2_000, out);

        for i in 0..4_600u64 {
            let t = 10_000 + i * 100;
            let sw = seeds[(i % 4) as usize].0;
            let index = (i % 8) as u32;
            let request = if i % 50 == 49 {
                set.read_register(t, sw, UNDECLARED, 0) // nAck: unknown register
            } else if i % 50 == 24 {
                set.write_register(t, sw, REG, 99, i) // nAck: index out of range
            } else if i % 3 == 0 {
                set.write_register(t, sw, REG, index, i)
            } else {
                set.read_register(t, sw, REG, index)
            };
            let agent = agents.get_mut(&sw).expect("known switch");
            let reply = agent
                .on_packet(t, PortId::CPU, &request.bytes)
                .outputs
                .remove(0)
                .1;
            if i % 70 == 69 {
                let mut forged = reply.clone();
                forged[11] ^= 0x10; // inside the digest: a counted reject
                set.on_message(t, sw, &forged);
            }
            set.on_message(t, sw, &reply);
            if i == 2_300 {
                assert_eq!(set.db().writes(), 0, "no epoch yet: nothing to hold");
                assert_eq!(set.start_bulk_rollover(t), Some(1));
                for round in 0..8 {
                    let out = set.step(t + round);
                    pump(&mut set, &mut agents, t + round, out);
                }
                assert!(set.rollover_complete());
            }
        }

        // The epoch and its start, then pending, done and fan-out per
        // partition: every write accounted for below.
        assert_eq!(set.db().writes(), 2 + 4 + 4 + 2);
        let stats = set.stats();
        assert_eq!((stats.responses_ok, stats.rejected), (4_600, 65));
        let db = set.db();
        assert_eq!((db.epoch(), db.started(1)), (1, Some(240_000)));
        for &(sw, _) in &seeds {
            assert_eq!(db.status(sw), Some(KexStatus::Done { epoch: 1 }), "{sw}");
        }
        assert_eq!((db.fanout(0, 1), db.fanout(1, 1)), (Some(1), Some(1)));
    }

    /// A cross-partition redirect leaves the responder's channel with its
    /// owner: the owner keeps sending on it while the redirect is open,
    /// seals the redirected legs from the same counter, and closing the
    /// redirect must not touch what the owner counted meanwhile
    /// (`INV-ACC-MONOTONIC`).
    #[test]
    fn redirect_never_rewinds_the_owners_sequence_counter() {
        // Initiator `a` (its owner is the redirect home) and responder `r`.
        let (a, r) = (pick(2, 0), pick(2, 1));
        let port = PortId::new(1);
        let (mut set, mut agents) = fleet(2, &seeds_for([a, r]));
        // One read of `r` through its owner, to completion.
        let read = |set: &mut ReplicaSet, agents: &mut Agents| {
            let request = set.read_register(2_000, r, REG, 0);
            pump(set, agents, 2_000, vec![request])
        };
        let value_read = [ControllerEvent::ValueRead {
            switch: r,
            reg: REG,
            index: 0,
            value: 0,
        }];

        // portKeyInit -> `a`'s offer -> redirected to `r` -> `r`'s answer,
        // which stays in flight.
        let mut init = set.port_key_init(2_000, a, port, r, port);
        assert_eq!(init.len(), 1);
        let offer = reply(&mut agents, 2_000, init.remove(0));
        let (mut redirected, _) = set.on_message(2_000, a, &offer);
        assert_eq!(redirected.len(), 1);
        let answer_leg = reply(&mut agents, 2_000, redirected.remove(0));

        // The owner uses the channel while the redirect is open.
        for _ in 0..5 {
            assert_eq!(read(&mut set, &mut agents), value_read);
        }

        // The answer leg closes the redirect...
        let (redirected, _) = set.on_message(2_000, r, &answer_leg);
        assert_eq!(redirected.len(), 1);
        pump(&mut set, &mut agents, 2_000, redirected);
        let key = agents[&a].keys(port).current();
        assert!(key.is_some(), "{a} installed its port key");
        assert_eq!(key, agents[&r].keys(port).current());

        // ...and the owner's next request is still the next in sequence:
        // not a replay to the agent, not a reject signal for the defence.
        assert_eq!(read(&mut set, &mut agents), value_read);
        assert!(set.alerts().is_empty(), "{:?}", set.alerts());
    }

    /// A cross-partition redirect whose every frame is lost ends when its
    /// home core abandons it, and a bulk epoch started afterwards rolls
    /// the responder too and completes.
    #[test]
    fn abandoned_redirect_releases_its_responder() {
        let (a, r) = (pick(2, 0), pick(2, 1));
        let port = PortId::new(1);
        let (mut set, mut agents) = fleet(2, &seeds_for([a, r]));
        let mut t = 2_000;
        assert_eq!(set.port_key_init(t, a, port, r, port).len(), 1, "lost");
        // Geometric steps outrun any backoff; every re-drive is lost too.
        for round in 0..40 {
            if set.stats().kex_abandoned > 0 {
                break;
            }
            t += 200_000 << round;
            set.retry_stalled(t);
        }
        assert_eq!(set.stats().kex_abandoned, 1);

        assert_eq!(set.start_bulk_rollover(t), Some(1));
        for round in 0..4 {
            let out = set.step(t + round);
            pump(&mut set, &mut agents, t + round, out);
        }
        assert!(set.rollover_complete(), "{:?}", set.db().status(r));
        assert_eq!(set.db().status(r), Some(KexStatus::Done { epoch: 1 }));
    }

    /// A forged copy of a redirect's answer leg is rejected by the
    /// responder's owner, not the home, and moves nothing: the genuine
    /// leg, arriving after it, completes the exchange.
    #[test]
    fn forged_answer_leg_leaves_the_redirect_pending() {
        let (a, r) = (pick(2, 0), pick(2, 1));
        let port = PortId::new(1);
        let (mut set, mut agents) = fleet(2, &seeds_for([a, r]));
        let mut init = set.port_key_init(2_000, a, port, r, port);
        let offer = reply(&mut agents, 2_000, init.remove(0));
        let (mut redirected, _) = set.on_message(2_000, a, &offer);
        let answer_leg = reply(&mut agents, 2_000, redirected.remove(0));

        let mut forged = answer_leg.clone();
        forged[11] ^= 0x10; // inside the digest
        let (out, events) = set.on_message(2_000, r, &forged);
        assert!(out.is_empty());
        assert_eq!(
            events,
            [ControllerEvent::Rejected {
                switch: r,
                reason: RejectReason::BadDigest
            }]
        );
        let rejected = |i: usize| set.replicas()[i].core.stats().rejected;
        assert_eq!((rejected(set.owner(r)), rejected(set.owner(a))), (1, 0));

        let (redirected, events) = set.on_message(2_000, r, &answer_leg);
        assert_eq!(redirected.len(), 1, "the genuine leg is redirected");
        assert_eq!(
            events,
            [ControllerEvent::PortExchangeRedirected { from: r, to: a }]
        );
        pump(&mut set, &mut agents, 2_000, redirected);
        let key = agents[&a].keys(port).current();
        assert!(key.is_some(), "{a} installed its port key");
        assert_eq!(key, agents[&r].keys(port).current());
    }

    /// A copy of an in-flight write with one digest byte flipped is
    /// reported by its alert and nothing else, so it cannot retire the
    /// genuine write: that one is still outstanding when it arrives, and
    /// its `Ack` completes it.
    #[test]
    fn forged_copy_of_an_in_flight_write_does_not_cancel_it() {
        let sw = SwitchId::new(1);
        let (mut set, mut agents) = fleet(1, &seeds(1));
        let write = set.write_register(2_000, sw, REG, 3, 77);
        let mut forged = write.clone();
        forged.bytes[12] ^= 0x40; // inside the header's digest field
        let mut events = pump(&mut set, &mut agents, 2_000, vec![forged]);
        assert_eq!(set.core(sw).outstanding(sw), 1, "{events:?}");
        events.extend(pump(&mut set, &mut agents, 2_000, vec![write]));

        assert!(events.contains(&ControllerEvent::WriteAcked {
            switch: sw,
            reg: REG,
            index: 3
        }));
        let cancelled = |e: &ControllerEvent| {
            matches!(
                e,
                ControllerEvent::Nacked { .. } | ControllerEvent::UnmatchedResponse(_)
            )
        };
        assert!(!events.iter().any(cancelled), "{events:?}");
        assert_eq!(set.core(sw).outstanding(sw), 0);
        let r = agents[&sw].chassis().register("r").expect("declared");
        assert_eq!(r.read(3), Ok(77));
    }
}
