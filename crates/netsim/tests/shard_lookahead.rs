//! Property test for the conservative-lookahead invariant: on random
//! topologies with random shard assignments and random wall-clock
//! stagger schedules, no shard ever pops an event at or beyond a granted
//! horizon — neither its own window bound (chained windows included) nor
//! a neighbour's first-window horizon (`neighbour's earliest pending
//! event + min cross link latency`) — and the sharded drain — observed
//! through per-node delivery streams — equals the sequential reference
//! exactly.
//!
//! Topologies are rings with random chords; link latencies collide on a
//! small set {1, 2, 5} and boot timers collide on small delays, so
//! same-timestamp events regularly straddle shard boundaries (the case
//! the packed per-source tiebreak keys exist for).

use p4auth_netsim::engine::{Engine, RunReport, Workload};
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::shard::{ShardPlan, ShardTuning};
use p4auth_netsim::sim::{Outbox, SimNode};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::topology::{Endpoint, Topology};
use p4auth_wire::ids::{PortId, SwitchId};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

type Delivery = (u64, u8, Vec<u8>);
type Streams = Arc<Vec<Mutex<Vec<Delivery>>>>;

/// A relay node: records every arrival; while the frame's TTL (byte 0)
/// is positive it forwards a decremented copy out a port chosen by the
/// TTL, with a processing delay driven by the flow byte. Everything is a
/// function of payload + topology, so runs are engine-independent.
struct Relay {
    index: usize,
    ports: Vec<PortId>,
    streams: Streams,
}

impl Relay {
    fn egress(&self, selector: usize) -> PortId {
        self.ports[selector % self.ports.len()]
    }
}

impl SimNode for Relay {
    fn on_frame(&mut self, now: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        self.streams[self.index].lock().unwrap().push((
            now.as_ns(),
            ingress.value(),
            payload.to_vec(),
        ));
        let ttl = payload[0];
        if ttl > 0 {
            let flow = payload[1];
            let port = self.egress(ttl as usize + flow as usize);
            out.send_delayed(port, vec![ttl - 1, flow], (flow % 3) as u64);
        }
    }

    fn on_timer(&mut self, _now: SimTime, timer_id: u64, out: &mut Outbox) {
        // timer_id packs (ttl << 8) | flow.
        let ttl = (timer_id >> 8) as u8;
        let flow = (timer_id & 0xff) as u8;
        out.send(self.egress(flow as usize), vec![ttl, flow]);
    }
}

/// Builds a ring of `n` nodes (ids 1..=n, port 1 = previous, port 2 =
/// next) plus chords on fresh ports, with latencies from {1, 2, 5}.
fn build_topology(n: usize, chords: &[(usize, usize)], lat_picks: &[usize]) -> Topology {
    const LATS: [u64; 3] = [1, 2, 5];
    let mut t = Topology::new();
    for i in 1..=n {
        t.add_node(SwitchId::new(i as u16)).unwrap();
    }
    let mut lat_idx = 0usize;
    let next_lat = |lat_idx: &mut usize| {
        let l = LATS[lat_picks[*lat_idx % lat_picks.len()] % LATS.len()];
        *lat_idx += 1;
        l
    };
    for i in 0..n {
        let a = SwitchId::new(i as u16 + 1);
        let b = SwitchId::new(((i + 1) % n) as u16 + 1);
        t.add_link(
            Endpoint::new(a, PortId::new(2)),
            Endpoint::new(b, PortId::new(1)),
            next_lat(&mut lat_idx),
        )
        .unwrap();
    }
    let mut next_port = vec![3u8; n + 1];
    for &(a, b) in chords {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        let (pa, pb) = (next_port[a + 1], next_port[b + 1]);
        next_port[a + 1] += 1;
        next_port[b + 1] += 1;
        t.add_link(
            Endpoint::new(SwitchId::new(a as u16 + 1), PortId::new(pa)),
            Endpoint::new(SwitchId::new(b as u16 + 1), PortId::new(pb)),
            next_lat(&mut lat_idx),
        )
        .unwrap();
    }
    t
}

fn unwrap_streams(streams: Streams) -> Vec<Vec<Delivery>> {
    Arc::try_unwrap(streams)
        .expect("all nodes dropped")
        .into_iter()
        .map(|m| m.into_inner().unwrap())
        .collect()
}

/// Populates the relay workload once and runs it on `engine` under
/// `tuning`, returning the report and the per-node delivery streams.
fn run_relays(
    topo: &Topology,
    n: usize,
    timers: &[(usize, u64, u8)],
    engine: Engine,
    tuning: ShardTuning,
) -> (RunReport, Vec<Vec<Delivery>>) {
    let streams: Streams = Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
    let mut w = Workload::new(topo.clone());
    w.set_shard_tuning(tuning);
    for i in 0..n {
        let id = SwitchId::new(i as u16 + 1);
        let relay = Relay {
            index: i,
            ports: topo.neighbors(id).into_iter().map(|(p, _)| p).collect(),
            streams: streams.clone(),
        };
        w.register_node(id, Box::new(relay));
    }
    for (i, &(node, delay, ttl)) in timers.iter().enumerate() {
        let node = SwitchId::new((node % n) as u16 + 1);
        let timer_id = ((ttl as u64) << 8) | (i as u64 & 0xff);
        w.schedule_timer(node, timer_id, delay);
    }
    let report = w.run(engine);
    (report, unwrap_streams(streams))
}

#[allow(clippy::type_complexity)]
fn run_case(
    n: usize,
    nshards: usize,
    assign: &[usize],
    chords: &[(usize, usize)],
    lat_picks: &[usize],
    timers: &[(usize, u64, u8)],
    stagger_ns: &[u64],
) {
    let topo = build_topology(n, chords, lat_picks);
    let (seq, seq_streams) =
        run_relays(&topo, n, timers, Engine::REFERENCE, ShardTuning::default());

    // Sharded run under a random assignment and a random wall-clock
    // stagger: worker scheduling must never matter.
    let plan = ShardPlan::custom(&topo, nshards, |id| {
        assign[(id.value() as usize - 1) % assign.len()] % nshards
    });
    let tuning = ShardTuning {
        plan: Some(plan.clone()),
        stagger_ns: stagger_ns.to_vec(),
        audit: true,
        ..ShardTuning::default()
    };
    let sharded = Engine::Sharded { shards: nshards };
    let (report, shard_streams) = run_relays(&topo, n, timers, sharded, tuning);
    let audits = &report.audits;

    // Drain order equals the sequential reference.
    assert_eq!(report.events, seq.events, "event count");
    assert_eq!(report.stats, seq.stats, "stats");
    assert_eq!(report.now, seq.now, "final clock");
    assert_eq!(shard_streams, seq_streams, "per-node delivery streams");

    // Lookahead invariants, checked from the raw per-rendezvous records.
    for (round, audit) in audits.iter().enumerate() {
        assert!(!audit.windows.is_empty(), "round {round} granted no window");
        for i in 0..nshards {
            // Granted horizons never move backwards along a chain, and no
            // window's pops ever reach its granted bound.
            let mut prev_bound = 0u64;
            for (w, win) in audit.windows.iter().enumerate() {
                assert!(
                    win.bound_ns[i] >= prev_bound,
                    "round {round} window {w}: shard {i}'s bound regressed \
                     ({} < {prev_bound})",
                    win.bound_ns[i]
                );
                prev_bound = win.bound_ns[i];
                if let Some(popped) = win.max_popped_ns[i] {
                    assert!(
                        popped < win.bound_ns[i],
                        "round {round} window {w}: shard {i} popped {popped} \
                         at/past its bound {}",
                        win.bound_ns[i]
                    );
                }
            }
            // The chain's first window is granted from the true horizons:
            // its pops must lie strictly below every neighbour's earliest
            // pending event plus the minimum crossing latency.
            let Some(popped) = audit.windows[0].max_popped_ns[i] else {
                continue;
            };
            for j in 0..nshards {
                if j == i {
                    continue;
                }
                let Some(lat) = plan.min_cross_latency_ns(&topo, j, i) else {
                    continue;
                };
                if let Some(neighbor_next) = audit.next_at_ns[j] {
                    assert!(
                        popped < neighbor_next + lat,
                        "round {round}: shard {i} popped {popped}, but neighbour \
                         {j}'s horizon was {neighbor_next} + {lat}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_drain_respects_lookahead_and_matches_sequential(
        n in 3usize..7,
        nshards in 1usize..5,
        assign in proptest::collection::vec(0usize..4, 8),
        chords in proptest::collection::vec((0usize..8, 0usize..8), 0..3),
        lat_picks in proptest::collection::vec(0usize..3, 16),
        timers in proptest::collection::vec((0usize..8, 1u64..5, 1u8..4), 1..6),
        // Random wall-clock stagger schedules (ns, scaled below): output
        // must be identical whatever the worker interleaving.
        stagger in proptest::collection::vec(0u64..4, 0..5),
    ) {
        let stagger_ns: Vec<u64> = stagger.iter().map(|&v| v * 600).collect();
        run_case(n, nshards, &assign, &chords, &lat_picks, &timers, &stagger_ns);
    }
}
