//! The five workloads: what each sets up, what one lap of it does, and how
//! its outputs are checked.
//!
//! A *lap* is a fixed amount of work drawn from the seed; a run repeats
//! laps until its time is up and reports the median lap. Every workload
//! generates its load from this one thread, closed loop: the next request
//! is issued only after the previous one (or round) has completed.
//!
//! A failed output check adds to `failed`; nothing here panics on a wrong
//! answer from the program.

use crate::adapt::{self, AuthStack, Completion, FabricInput, Fleet};
use crate::hostile::Hostile;
use crate::span::Tracer;
use crate::stats::Rng;
use std::collections::BTreeMap;

/// `--quick` divides every lap by this.
pub const QUICK_DIVISOR: u64 = 50;

/// Register ops issued per simulated second in the register workloads
/// (each op advances the agents' clock by this many ns).
const OP_GAP_NS: u64 = 1_000;

/// Hostile frames sent ahead of every honest op in `auth_flood`.
const HOSTILE_PER_OP: u64 = 4;

/// `ctrl_fleet` starts a bulk key rollover after every this many rounds.
const ROUNDS_PER_ROLLOVER: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    FabricWide,
    FabricDeep,
    AuthRw,
    AuthFlood,
    CtrlFleet,
}

pub const ALL: [Workload; 5] = [
    Workload::FabricWide,
    Workload::FabricDeep,
    Workload::AuthRw,
    Workload::AuthFlood,
    Workload::CtrlFleet,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricWide => "fabric_wide",
            Workload::FabricDeep => "fabric_deep",
            Workload::AuthRw => "auth_rw",
            Workload::AuthFlood => "auth_flood",
            Workload::CtrlFleet => "ctrl_fleet",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; also the `why` in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::FabricWide => "1M users x 1 frame on fat-tree k=8: a 50 MB per-user sweep that misses cache; netsim+systems only, where events/s falls off with users",
            Workload::FabricDeep => "10k users x 100 frames, same event count, cache-resident: a per-event win shows on both fabric workloads, a sweep or cache win only on fabric_wide",
            Workload::AuthRw => "closed-loop register ops (2 reads : 1 write) ReplicaSet -> 64 agents with no simulator: controller, wire, core, dataplane and primitives do all the work",
            Workload::AuthFlood => "auth_rw with 4 forged or replayed frames ahead of each op: the reject, replay-window and alert-limiter paths, so a fast path for accepted frames cannot hide a slow reject",
            Workload::CtrlFleet => "80 switches under one replica inside the simulator with registry and trace on, bulk key rollover every 64 rounds: every layer at once",
        }
    }

    /// What `units_per_s` counts.
    pub fn units(self) -> &'static str {
        match self {
            Workload::FabricWide | Workload::FabricDeep => "sim events",
            Workload::AuthRw | Workload::CtrlFleet => "register ops",
            Workload::AuthFlood => "frames processed",
        }
    }

    /// Set-ups a run makes before each lap (the last one runs the lap):
    /// more for the cheap ones, so that a run collects enough samples.
    pub fn setups_per_lap(self, quick: bool) -> usize {
        match (quick, self) {
            (true, _) => 1,
            (_, Workload::FabricWide) => 2,
            (_, Workload::FabricDeep) => 16,
            (_, Workload::AuthRw | Workload::AuthFlood) => 32,
            (_, Workload::CtrlFleet) => 8,
        }
    }
}

/// Exact counts of one lap: functions of the seed alone.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one lap did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lap {
    /// Work units completed (the numerator of `units_per_s`).
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    pub counts: Counts,
}

/// A workload that has been set up and can run laps.
pub trait Instance {
    fn lap(&mut self, t: &mut Tracer) -> Lap;
}

/// Sets `w` up from `seed`. Everything before the first lap happens here:
/// building the stack, establishing keys, generating the input.
pub fn setup(
    w: Workload,
    quick: bool,
    seed: u64,
    t: &mut Tracer,
) -> Result<Box<dyn Instance>, String> {
    let div = if quick { QUICK_DIVISOR } else { 1 };
    Ok(match w {
        Workload::FabricWide => Box::new(Fabric::setup(1_000_000 / div, 1, seed, t)?),
        Workload::FabricDeep => Box::new(Fabric::setup(10_000 / div, 100, seed, t)?),
        Workload::AuthRw => Box::new(Auth::setup(seed, 600_000 / div, false)?),
        Workload::AuthFlood => Box::new(Auth::setup(seed, 200_000 / div, true)?),
        Workload::CtrlFleet => Box::new(FleetRounds::setup(seed, 3_200 / div, true)),
    })
}

// ------------------------------------------------------------------ fabric

/// Users the default pacing is meant for; more users stretch their idle
/// gaps so the aggregate offered load stays the same (as `repro -- users`).
const FABRIC_BASE_USERS: u64 = 10_000;

struct Fabric {
    input: FabricInput,
    users: u64,
    frames_per_user: u32,
}

impl Fabric {
    /// `run_users_engine` builds its own fabric on every call, so set-up
    /// is measured by a call with zero frames per user: the same fat tree,
    /// forwarders and per-user columns, and nothing to simulate.
    fn setup(
        users: u64,
        frames_per_user: u32,
        seed: u64,
        t: &mut Tracer,
    ) -> Result<Fabric, String> {
        let load_scale = (users / FABRIC_BASE_USERS).max(1);
        let e = t.enter("systems.build");
        let empty = adapt::fabric_run(&adapt::fabric_input(users, 0, load_scale, seed));
        t.exit(e);
        if empty.events != 0 {
            return Err(format!("empty fabric ran {} events", empty.events));
        }
        Ok(Fabric {
            input: adapt::fabric_input(users, frames_per_user, load_scale, seed),
            users,
            frames_per_user,
        })
    }
}

impl Instance for Fabric {
    fn lap(&mut self, t: &mut Tracer) -> Lap {
        t.set_op(0);
        let e = t.enter("systems.fabric_run");
        let c = adapt::fabric_run(&self.input);
        t.exit(e);

        // Every frame injected is delivered or counted as lost, and every
        // user sent its whole budget.
        let accounted = c.frames_delivered + c.frames_undeliverable + c.frames_tap_dropped;
        let expected = self.users * u64::from(self.frames_per_user);
        let failed = c.frames_sent.abs_diff(accounted) + c.frames_sent.abs_diff(expected);
        Lap {
            units: c.events,
            attempted: c.events,
            failed: failed.min(c.events),
            counts: BTreeMap::from([
                ("users", self.users),
                ("events", c.events),
                ("timers_fired", c.timers_fired),
                ("frames_sent", c.frames_sent),
                ("frames_delivered", c.frames_delivered),
                ("sim_ns", c.sim_ns),
            ]),
        }
    }
}

// --------------------------------------------------------- register stream

const SWITCHES: usize = 64;
const REG_LEN: u32 = 64;

/// One register op of the seeded stream: 2 reads : 1 write (the Fig. 19
/// mix), uniform switch and index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegOp {
    pub switch: usize,
    pub index: u32,
    /// `Some(value)` for a write.
    pub write: Option<u64>,
}

/// Draws op number `n` of a stream over `switches` switches.
pub fn reg_op(rng: &mut Rng, n: u64, switches: usize) -> RegOp {
    let switch = rng.below(switches as u64) as usize;
    let index = rng.below(u64::from(REG_LEN)) as u32;
    let value = rng.next();
    RegOp {
        switch,
        index,
        write: (n % 3 == 2).then_some(value),
    }
}

/// What every register holds according to the acknowledged writes.
struct Shadow(Vec<u64>);

impl Shadow {
    fn new(switches: usize) -> Shadow {
        Shadow(vec![0; switches * REG_LEN as usize])
    }

    /// Whether `done` is the one correct completion of `op`; an
    /// acknowledged write updates the shadow.
    fn settles(&mut self, op: RegOp, done: &[Completion]) -> bool {
        let slot = &mut self.0[op.switch * REG_LEN as usize + op.index as usize];
        match (op.write, done) {
            (
                None,
                [Completion::Value {
                    switch,
                    index,
                    value,
                }],
            ) => (*switch, *index, *value) == (op.switch, op.index, *slot),
            (Some(v), [Completion::WriteAck { switch, index }]) => {
                let ok = (*switch, *index) == (op.switch, op.index);
                if ok {
                    *slot = v;
                }
                ok
            }
            _ => false,
        }
    }
}

// -------------------------------------------------------------------- auth

struct Auth {
    stack: AuthStack,
    shadow: Shadow,
    rng: Rng,
    hostile: Option<Hostile>,
    ops_per_lap: u64,
    next_op: u64,
    now_ns: u64,
}

impl Auth {
    fn setup(seed: u64, ops_per_lap: u64, flood: bool) -> Result<Auth, String> {
        let mut auth = Auth {
            stack: AuthStack::build(seed, SWITCHES, REG_LEN)?,
            shadow: Shadow::new(SWITCHES),
            rng: Rng::new(seed ^ 0x0a57_4ea3),
            hostile: None,
            ops_per_lap,
            next_op: 0,
            now_ns: OP_GAP_NS,
        };
        if flood {
            // One honest read per agent, so that a completed request exists
            // to derive hostile frames from before the first timed op.
            let mut hostile = Hostile::new(SWITCHES);
            for switch in 0..SWITCHES {
                let op = RegOp {
                    switch,
                    index: 0,
                    write: None,
                };
                let (request, ok, _) = auth.honest(op, &mut Tracer::off());
                if !ok {
                    return Err(format!("warm-up read to agent {switch} failed"));
                }
                hostile.completed(switch, request);
            }
            auth.hostile = Some(hostile);
        }
        Ok(auth)
    }

    /// One honest op through request → agent → controller. Returns the
    /// request frame, whether it completed correctly, and the agent's
    /// (hash passes, recirculations).
    fn honest(&mut self, op: RegOp, t: &mut Tracer) -> (Vec<u8>, bool, (u32, u32)) {
        let e = t.enter("controller.request");
        let request = match op.write {
            Some(v) => self.stack.write(self.now_ns, op.switch, op.index, v),
            None => self.stack.read(self.now_ns, op.switch, op.index),
        };
        t.exit(e);

        let e = t.enter("core.on_packet");
        let reply = self.stack.deliver(self.now_ns, op.switch, &request);
        t.exit(e);

        let mut done = Vec::new();
        for frame in &reply.frames {
            let e = t.enter("controller.on_message");
            let response = self.stack.respond(self.now_ns, op.switch, frame);
            t.exit(e);
            done.extend(response.completions);
        }
        let ok = reply.verified && self.shadow.settles(op, &done);
        (request, ok, (reply.hash_passes, reply.recirculations))
    }

    /// One hostile frame at `agent`, its Nack and alert fed back to the
    /// controller. Returns (accepted anywhere, frames the agent sent back).
    fn hostile(&mut self, agent: usize, frame: &[u8], t: &mut Tracer) -> (bool, u64) {
        let e = t.enter("core.on_packet_reject");
        let reply = self.stack.deliver(self.now_ns, agent, frame);
        t.exit(e);
        let mut accepted = reply.verified;
        for back in &reply.frames {
            let e = t.enter("controller.on_message_reject");
            let response = self.stack.respond(self.now_ns, agent, back);
            t.exit(e);
            accepted |= !response.completions.is_empty();
        }
        (accepted, reply.frames.len() as u64)
    }
}

impl Instance for Auth {
    fn lap(&mut self, t: &mut Tracer) -> Lap {
        let mut lap = Lap::default();
        let (mut passes, mut recirc, mut hostile_sent, mut reject_outputs) = (0u64, 0u64, 0, 0);
        for _ in 0..self.ops_per_lap {
            let op = reg_op(&mut self.rng, self.next_op, SWITCHES);
            t.set_op(self.next_op);
            let e_op = t.enter("op");
            if let Some(mut hostile) = self.hostile.take() {
                for _ in 0..HOSTILE_PER_OP {
                    let choice = self.rng.next();
                    let Some(frame) = hostile.next(op.switch, choice) else {
                        continue;
                    };
                    let (accepted, outputs) = self.hostile(op.switch, &frame, t);
                    hostile_sent += 1;
                    reject_outputs += outputs;
                    lap.failed += u64::from(accepted);
                }
                self.hostile = Some(hostile);
            }
            let (request, ok, (p, r)) = self.honest(op, t);
            t.exit(e_op);
            passes += u64::from(p);
            recirc += u64::from(r);
            lap.failed += u64::from(!ok);
            if let (true, Some(hostile)) = (ok, &mut self.hostile) {
                hostile.completed(op.switch, request);
            }
            self.next_op += 1;
            self.now_ns += OP_GAP_NS;
        }
        lap.units = self.ops_per_lap + hostile_sent;
        lap.attempted = lap.units;
        lap.counts = BTreeMap::from([
            ("ops", self.ops_per_lap),
            ("hash_passes", passes),
            ("recirculations", recirc),
            ("hostile_frames", hostile_sent),
            ("reject_outputs", reject_outputs),
        ]);
        lap
    }
}

// ------------------------------------------------------------------- fleet

struct FleetRounds {
    fleet: Fleet,
    shadow: Shadow,
    rng: Rng,
    rounds_per_lap: u64,
    next_round: u64,
    next_op: u64,
}

impl FleetRounds {
    fn setup(seed: u64, rounds_per_lap: u64, registry: bool) -> FleetRounds {
        let fleet = Fleet::build(seed, 8, REG_LEN, registry);
        FleetRounds {
            shadow: Shadow::new(fleet.switches()),
            fleet,
            rng: Rng::new(seed ^ 0xf1ee_7000),
            rounds_per_lap,
            next_round: 0,
            next_op: 0,
        }
    }
}

impl Instance for FleetRounds {
    fn lap(&mut self, t: &mut Tracer) -> Lap {
        let n = self.fleet.switches();
        let mut lap = Lap::default();
        let (mut events, mut rollovers, mut rollover_sim_ns) = (0u64, 0u64, 0u64);
        let writes_before = self.fleet.statedb_writes();
        let sim_before = self.fleet.sim_ns();
        let tel_before = self.fleet.telemetry();
        let mut issued: Vec<RegOp> = Vec::with_capacity(n);
        for _ in 0..self.rounds_per_lap {
            t.set_op(self.next_round);
            let e_round = t.enter("systems.round");
            issued.clear();
            let e = t.enter("systems.issue");
            for switch in 0..n {
                let mut op = reg_op(&mut self.rng, self.next_op, n);
                op.switch = switch;
                match op.write {
                    Some(v) => self.fleet.write(switch, op.index, v),
                    None => self.fleet.read(switch, op.index),
                }
                issued.push(op);
                self.next_op += 1;
            }
            t.exit(e);
            let e = t.enter("netsim.run");
            events += self.fleet.run();
            t.exit(e);
            t.exit(e_round);

            // One completion per op, each with the value last written.
            let mut done = self.fleet.drain();
            done.sort_by_key(Completion::switch);
            for &op in &issued {
                let from = done.partition_point(|c| c.switch() < op.switch);
                let to = done.partition_point(|c| c.switch() <= op.switch);
                lap.failed += u64::from(!self.shadow.settles(op, &done[from..to]));
            }
            lap.units += n as u64;

            self.next_round += 1;
            if self.next_round.is_multiple_of(ROUNDS_PER_ROLLOVER) {
                let e = t.enter("controller.rollover_epoch");
                let sim_at_start = self.fleet.sim_ns();
                let started = self.fleet.start_rollover();
                self.fleet.run();
                t.exit(e);
                rollovers += 1;
                rollover_sim_ns += self.fleet.sim_ns() - sim_at_start;
                if !(started && self.fleet.rollover_complete()) {
                    // The round that triggered the epoch takes the blame.
                    lap.failed += n as u64;
                }
                self.fleet.drain();
            }
        }
        lap.attempted = lap.units;
        lap.failed = lap.failed.min(lap.attempted);
        let tel = self.fleet.telemetry();
        lap.counts = BTreeMap::from([
            ("ops", lap.units),
            ("events", events),
            ("rollovers", rollovers),
            ("rollover_sim_ns", rollover_sim_ns),
            ("sim_ns", self.fleet.sim_ns() - sim_before),
            (
                "statedb_writes",
                self.fleet.statedb_writes() - writes_before,
            ),
            ("telemetry_spans", tel.spans - tel_before.spans),
            ("telemetry_events", tel.events - tel_before.events),
            (
                "trace_dropped",
                tel.spans_dropped - tel_before.spans_dropped,
            ),
            (
                "events_overflowed",
                tel.events_overflowed - tel_before.events_overflowed,
            ),
        ]);
        lap
    }
}

/// A quarter-length `ctrl_fleet` lap with or without the registry, for
/// `telemetry.overhead_share`.
pub fn fleet_quarter(seed: u64, quick: bool, registry: bool) -> Box<dyn Instance> {
    let div = if quick { QUICK_DIVISOR } else { 1 };
    Box::new(FleetRounds::setup(seed, 3_200 / div / 4, registry))
}

/// The request frames of the first `n` ops of the `auth_rw` stream for
/// `seed`, with the key-independent facts the probes need. The probes
/// measure the codec, MAC and chassis on the workload's own inputs.
pub fn auth_rw_frames(seed: u64, n: u64) -> Result<Vec<Vec<u8>>, String> {
    let mut auth = Auth::setup(seed, n, false)?;
    let mut frames = Vec::with_capacity(n as usize);
    for i in 0..n {
        let op = reg_op(&mut auth.rng, i, SWITCHES);
        let (request, ok, _) = auth.honest(op, &mut Tracer::off());
        if !ok {
            return Err(format!("op {i} of the probe stream failed"));
        }
        frames.push(request);
        auth.now_ns += OP_GAP_NS;
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_lap(w: Workload, seed: u64) -> Lap {
        setup(w, true, seed, &mut Tracer::off())
            .unwrap()
            .lap(&mut Tracer::off())
    }

    #[test]
    fn same_seed_same_counts_and_no_failures_on_every_workload() {
        for w in ALL {
            let a = first_lap(w, 11);
            let b = first_lap(w, 11);
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(a.failed, 0, "{}", w.name());
            assert!(a.attempted > 0 && a.units > 0, "{}", w.name());
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        // The register stream itself...
        let ops = |seed| {
            let mut rng = Rng::new(seed);
            (0..8)
                .map(|n| reg_op(&mut rng, n, SWITCHES))
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(1), ops(1));
        assert_ne!(ops(1), ops(2));
        // ...and what the program makes of it. (ctrl_fleet's simulated
        // counts do not depend on which index an op touches.)
        for w in [Workload::FabricWide, Workload::FabricDeep] {
            assert_ne!(
                first_lap(w, 1).counts,
                first_lap(w, 2).counts,
                "{}",
                w.name()
            );
        }
        let a = auth_rw_frames(1, 16).unwrap();
        assert_ne!(a, auth_rw_frames(2, 16).unwrap());
        assert_eq!(a, auth_rw_frames(1, 16).unwrap());
    }

    #[test]
    fn register_stream_is_two_reads_to_one_write() {
        let mut rng = Rng::new(5);
        let writes = (0..300)
            .filter(|&n| reg_op(&mut rng, n, SWITCHES).write.is_some())
            .count();
        assert_eq!(writes, 100);
    }

    #[test]
    fn shadow_catches_a_stale_read_and_a_misdirected_ack() {
        let mut shadow = Shadow::new(2);
        let write = RegOp {
            switch: 1,
            index: 3,
            write: Some(9),
        };
        let read = RegOp {
            write: None,
            ..write
        };
        assert!(!shadow.settles(
            write,
            &[Completion::WriteAck {
                switch: 0,
                index: 3
            }]
        ));
        assert!(shadow.settles(
            write,
            &[Completion::WriteAck {
                switch: 1,
                index: 3
            }]
        ));
        let value = |value| Completion::Value {
            switch: 1,
            index: 3,
            value,
        };
        assert!(shadow.settles(read, &[value(9)]));
        assert!(!shadow.settles(read, &[value(0)]));
        assert!(!shadow.settles(read, &[]));
        assert!(!shadow.settles(read, &[value(9), value(9)]));
    }

    #[test]
    fn flood_sends_four_hostile_frames_per_op_and_accepts_none() {
        let lap = first_lap(Workload::AuthFlood, 3);
        let ops = lap.counts["ops"];
        assert_eq!(lap.counts["hostile_frames"], ops * HOSTILE_PER_OP);
        assert_eq!(lap.units, ops * (1 + HOSTILE_PER_OP));
        assert!(lap.counts["reject_outputs"] >= lap.counts["hostile_frames"]);
        assert_eq!(lap.failed, 0);
    }

    #[test]
    fn quick_fleet_lap_rolls_keys_once() {
        let lap = first_lap(Workload::CtrlFleet, 3);
        assert_eq!(lap.counts["rollovers"], 1);
        assert!(lap.counts["rollover_sim_ns"] > 0);
        assert!(lap.counts["statedb_writes"] > 0);
        assert!(lap.counts["telemetry_spans"] > 0);
    }
}
