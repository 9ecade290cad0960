//! Sharded simulation with conservative lookahead.
//!
//! The node set is partitioned into shards, each driven by its own
//! [`Simulator`] (own calendar queue, own clock) on a worker thread. The
//! shards synchronize with a barrier-based variant of conservative
//! (Chandy–Misra–Bryant) lookahead: every link latency is a floor on how
//! soon one shard's events can influence another, so each round the
//! coordinator grants every shard a *safe window* it may process without
//! hearing from anyone else.
//!
//! # The horizon rule
//!
//! Let `next[i]` be shard `i`'s earliest pending event (queued or already
//! in its inbox) and `L(j, i)` the minimum latency over links crossing
//! from shard `j` to shard `i`. A naive per-neighbour window
//! `min_j(next[j] + L(j, i))` is **unsafe**: an idle intermediate shard
//! has `next = ∞` but can still relay traffic (A→B→C with B idle must not
//! unblock C past A's reach). The coordinator therefore first computes
//! each shard's *earliest possible action*
//!
//! ```text
//! ea[i] = min( next[i], min over links j→i of ea[j] + L(j, i) )
//! ```
//!
//! by relaxing to a fixpoint (a Bellman–Ford pass over the shard graph;
//! intra-shard transit is conservatively treated as free). `ea[i]` is a
//! true lower bound on the timestamp of any event that can *ever* occur
//! on shard `i` given current global state. The granted window is then
//!
//! ```text
//! bound[i] = min over links j→i of ea[j] + L(j, i)    (∞ if no such link)
//! ```
//!
//! and shard `i` processes events with `at < bound[i]`. Any frame another
//! shard ever sends it arrives at `≥ ea[j] + L(j, i) ≥ bound[i]`, so
//! nothing processed this round can be invalidated later. Because every
//! cross-shard link has `L ≥ 1` (enforced at plan time), the shard
//! holding the globally earliest event always has `next < bound` — each
//! round makes progress and the protocol cannot deadlock.
//!
//! # Round amortization: chained windows and peer mailboxes
//!
//! One window per coordinator rendezvous would make the rendezvous the
//! dominant cost (it once was: a command/reply channel pair per shard
//! per window, with cross-shard frames routed one `RemoteEvent` at a
//! time through the coordinator). Instead the coordinator grants each
//! rendezvous a *chain* of windows `b_1 .. b_m` computed pessimistically
//! up front: `b_1` comes from the true per-shard `next` values, and each
//! later step substitutes the previous bounds for `next` (a shard that
//! processed window `k` has nothing left below `b_k[i]`, and the
//! relaxation accounts for anything still in flight), so
//! `b_{k+1} = bound(relax(b_k))`. Every finite bound advances by at
//! least the minimum cross-link latency per step, and frames produced in
//! window `k` are exchanged **directly between workers** at the window
//! boundary: one batched buffer per (sender, receiver) linked pair,
//! through a mutex-and-condvar mailbox with a monotone publish counter.
//! A worker waits only for its in-neighbours to finish the previous
//! window — not for the whole fleet — then drains, injects, and keeps
//! going. The coordinator is only consulted every `m` windows
//! ([`ShardTuning::chain_depth`], default [`DEFAULT_CHAIN_DEPTH`]), and a
//! final boundary exchange before each reply leaves the mailboxes empty
//! so replies carry plain queue heads.
//!
//! # Why bit-identity holds
//!
//! Event tiebreak keys pack `(source node, per-source count)`
//! ([`crate::sched`]), so a shard assigns a frame exactly the key the
//! sequential run would have assigned — no global counter needed. Within
//! a round, same-timestamp events on different shards are causally
//! independent (any cross influence lands `≥ L ≥ 1` ns later), and
//! per-link transmitter state lives entirely on the sending shard, so
//! each shard's pop sequence is precisely the sequential `(time, seq)`
//! drain order restricted to its own nodes. Merging per-node streams back
//! together therefore reproduces the sequential execution bit for bit;
//! `tests/shard_diff.rs` and the CI smoke step enforce this.
//!
//! Telemetry follows the same discipline: workers never share a
//! registry. Each shard records into a **private** registry (event
//! capacity cloned from the caller's), and after the run the coordinator
//! merges the per-shard final snapshots in shard-index order
//! ([`Snapshot::merged`]) and absorbs the result into the caller's
//! registry — so the observable output is a pure function of the
//! simulated execution, never of how the worker threads were scheduled.
//! The `P4AUTH_SHARD_STAGGER` knob (and [`ShardTuning::stagger_ns`])
//! injects deterministic per-worker sleeps before each window publish and
//! each reply, so scheduling-dependence bugs surface even on a
//! single-core runner.
//!
//! # A dying worker
//!
//! A node that panics unwinds its worker thread while its peers wait on
//! its mailboxes and the coordinator waits on a reply. The worker's
//! `CloseOnExit` guard therefore closes its out-mailboxes on the way
//! out; a peer that finds a mailbox closed short of the publish it needs
//! stops too (closing its own, so the stop cascades through the shard
//! graph), every stopped worker drops its reply channel, and the
//! coordinator — on the first channel error — hangs up on the rest, joins
//! all workers and resumes the unwind with the payload of the first
//! panicked worker by shard index. The caller sees the node's own panic
//! message, exactly as on a sequential engine, and never a hang.

use crate::engine::{populate, RunReport, Workload};
use crate::sched::SchedulerKind;
use crate::sim::{RemoteEvent, SimNode, SimStats, Simulator};
use crate::time::SimTime;
use crate::timeline::Timeline;
use crate::topology::Topology;
use p4auth_telemetry::{Registry, Snapshot};
use p4auth_wire::ids::SwitchId;
use std::collections::BTreeSet;
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Default number of safe windows granted per coordinator rendezvous
/// (see [`ShardTuning::chain_depth`]).
pub const DEFAULT_CHAIN_DEPTH: usize = 8;

/// An assignment of every topology node to a shard.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    nshards: usize,
    /// Shard index dense by raw switch id; `u32::MAX` for ids that are not
    /// topology nodes.
    assign: Vec<u32>,
}

impl ShardPlan {
    fn from_fn(topology: &Topology, nshards: usize, f: impl Fn(SwitchId) -> usize) -> Self {
        assert!(nshards >= 1, "need at least one shard");
        let max_id = topology
            .nodes()
            .iter()
            .map(|n| n.value() as usize)
            .max()
            .unwrap_or(0);
        let mut assign = vec![u32::MAX; max_id + 1];
        for &node in topology.nodes() {
            let s = f(node);
            assert!(s < nshards, "shard index {s} out of range for {node}");
            assign[node.value() as usize] = s as u32;
        }
        let plan = ShardPlan { nshards, assign };
        plan.validate_cross_latencies(topology);
        plan
    }

    /// Partitions along the topology's partition hints (fat-tree pods and
    /// core groups): community `c` lands on shard `c % nshards`, so pods
    /// stay whole and only the sparse agg–core cut crosses shards. Nodes
    /// without a hint — and hint-free topologies entirely — fall back to
    /// round-robin in node order.
    ///
    /// # Panics
    ///
    /// Panics if `nshards == 0` or a cross-shard link has zero latency
    /// (zero lookahead would livelock the safe-window protocol).
    pub fn pod_aligned(topology: &Topology, nshards: usize) -> Self {
        let mut fallback = 0usize;
        let nodes = topology.nodes().to_vec();
        let mut by_node = std::collections::HashMap::new();
        for &node in &nodes {
            let s = match topology.partition_hint(node) {
                Some(c) => c as usize % nshards,
                None => {
                    let s = fallback % nshards;
                    fallback += 1;
                    s
                }
            };
            by_node.insert(node, s);
        }
        Self::from_fn(topology, nshards, |n| by_node[&n])
    }

    /// Partitions nodes round-robin in node order — the fallback for
    /// arbitrary topologies with no locality to exploit.
    ///
    /// # Panics
    ///
    /// Panics if `nshards == 0` or a cross-shard link has zero latency.
    pub fn round_robin(topology: &Topology, nshards: usize) -> Self {
        let nodes = topology.nodes().to_vec();
        let mut by_node = std::collections::HashMap::new();
        for (i, &node) in nodes.iter().enumerate() {
            by_node.insert(node, i % nshards);
        }
        Self::from_fn(topology, nshards, |n| by_node[&n])
    }

    /// Partitions with an explicit assignment function (tests and custom
    /// planners).
    ///
    /// # Panics
    ///
    /// Panics if `nshards == 0`, `f` returns an out-of-range shard, or a
    /// cross-shard link has zero latency.
    pub fn custom(topology: &Topology, nshards: usize, f: impl Fn(SwitchId) -> usize) -> Self {
        Self::from_fn(topology, nshards, f)
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not part of the planned topology.
    pub fn shard_of(&self, node: SwitchId) -> usize {
        let s = self
            .assign
            .get(node.value() as usize)
            .copied()
            .unwrap_or(u32::MAX);
        assert!(s != u32::MAX, "node {node} is not in the shard plan");
        s as usize
    }

    /// Minimum latency over links crossing from shard `from` to shard
    /// `to`, or `None` when no link crosses that pair. Symmetric (links
    /// are bidirectional).
    pub fn min_cross_latency_ns(&self, topology: &Topology, from: usize, to: usize) -> Option<u64> {
        topology
            .links()
            .iter()
            .filter(|l| {
                let (sa, sb) = (self.shard_of(l.a.node), self.shard_of(l.b.node));
                (sa == from && sb == to) || (sa == to && sb == from)
            })
            .map(|l| l.latency_ns)
            .min()
    }

    /// Pairwise cross-shard minimum latencies: `lat[j][i]` bounds how soon
    /// shard `j` can influence shard `i` directly.
    fn cross_latency_matrix(&self, topology: &Topology) -> Vec<Vec<Option<u64>>> {
        let n = self.nshards;
        let mut lat = vec![vec![None; n]; n];
        for link in topology.links() {
            let (sa, sb) = (self.shard_of(link.a.node), self.shard_of(link.b.node));
            if sa == sb {
                continue;
            }
            for (j, i) in [(sa, sb), (sb, sa)] {
                let slot: &mut Option<u64> = &mut lat[j][i];
                *slot = Some(slot.map_or(link.latency_ns, |v| v.min(link.latency_ns)));
            }
        }
        lat
    }

    fn validate_cross_latencies(&self, topology: &Topology) {
        for link in topology.links() {
            let (sa, sb) = (self.shard_of(link.a.node), self.shard_of(link.b.node));
            assert!(
                sa == sb || link.latency_ns >= 1,
                "cross-shard link {} -- {} has zero latency: zero lookahead \
                 would livelock the safe-window protocol",
                link.a,
                link.b
            );
        }
    }
}

/// The sharded engine's test and CI controls
/// ([`Workload::set_shard_tuning`]). None of them changes any simulation
/// output — that is what the tests using them prove.
#[derive(Clone, Debug)]
pub struct ShardTuning {
    /// A custom partition; `None` means [`ShardPlan::pod_aligned`] at the
    /// engine's shard count.
    pub plan: Option<ShardPlan>,
    /// Safe windows granted per coordinator rendezvous (≥ 1). Depth 1
    /// reproduces the unchained one-window-per-round protocol; deeper
    /// chains amortize the rendezvous over more work at the cost of
    /// pessimistic (but still safe) later windows.
    pub chain_depth: usize,
    /// Deterministic stagger schedule: before publishing each window
    /// boundary and before each reply, worker `s` at window `w` sleeps
    /// `stagger_ns[(7·s + 13·w) mod len]` wall-clock nanoseconds. This
    /// perturbs thread interleaving adversarially — exactly what a
    /// multi-core scheduler would do — without touching simulated time,
    /// so any output difference it provokes is a determinism bug. Empty
    /// disables staggering.
    pub stagger_ns: Vec<u64>,
    /// Record every synchronization round into [`RunReport::audits`].
    pub audit: bool,
}

impl Default for ShardTuning {
    /// Pod-aligned plan, [`DEFAULT_CHAIN_DEPTH`], no audit, and the
    /// stagger schedule the `P4AUTH_SHARD_STAGGER` environment variable
    /// asks for (a base delay in ns; unset, unparsable or 0 disables).
    /// Tests set `stagger_ns` explicitly — that needs no process-global
    /// state.
    fn default() -> Self {
        ShardTuning {
            plan: None,
            chain_depth: DEFAULT_CHAIN_DEPTH,
            stagger_ns: stagger_from_env(),
            audit: false,
        }
    }
}

/// Per-rendezvous synchronization record ([`ShardTuning::audit`]), for
/// invariant checking in tests.
#[derive(Clone, Debug)]
pub struct RoundAudit {
    /// Each shard's earliest pending event at the rendezvous, `None`
    /// when idle. The first window's bounds derive from these; later
    /// windows in the chain derive from the previous window's bounds.
    pub next_at_ns: Vec<Option<u64>>,
    /// The chain of granted windows, in execution order.
    pub windows: Vec<WindowAudit>,
}

/// One granted safe window within a rendezvous chain.
#[derive(Clone, Debug)]
pub struct WindowAudit {
    /// The bound granted to each shard (exclusive; `u64::MAX` means
    /// unbounded).
    pub bound_ns: Vec<u64>,
    /// Timestamp of the latest event each shard popped in this window,
    /// `None` when it processed nothing.
    pub max_popped_ns: Vec<Option<u64>>,
}

enum ToWorker {
    /// Process a chain of safe windows (bounds in execution order),
    /// exchanging frames with linked peers at every window boundary, and
    /// reply once at the end of the chain.
    Chain { bounds_ns: Vec<u64> },
    /// End of run. Workers with a timeline recorder flush it to
    /// `flush_to_ns` — the *global* final clock, so every shard's tail
    /// capture carries the same stamp a sequential recorder would use.
    Finish { flush_to_ns: u64 },
}

struct ChainReply {
    /// Queue head after the chain. The final boundary exchange already
    /// pulled every in-flight frame into the queue, so this alone is the
    /// shard's true horizon — the coordinator routes no frames.
    next_at_ns: Option<u64>,
    processed: u64,
    /// Per-window `(processed, latest pop)` in chain order, for audits.
    windows: Vec<(u64, Option<u64>)>,
    /// Frames this shard pushed to peer mailboxes during the chain.
    frames_sent: u64,
    /// The shard's clock after the chain (moves only on pops).
    now_ns: u64,
}

/// A single-producer batched frame channel for one directed linked shard
/// pair. The sender pushes its whole per-peer outbound buffer once per
/// window boundary and bumps `published`; the receiver waits until the
/// counter covers the windows it needs, then drains. Counters are
/// level-triggered, so an early drain (the chain-end exchange) and the
/// next window's drain overlap harmlessly.
#[derive(Default)]
struct Mailbox {
    state: Mutex<MailboxState>,
    ready: Condvar,
}

#[derive(Default)]
struct MailboxState {
    /// Publish count: 1 after the pre-run publish, `w + 1` after the
    /// sender finishes window `w`.
    published: u64,
    frames: Vec<RemoteEvent>,
    /// The sender stopped: `published` will never grow again.
    closed: bool,
}

impl Mailbox {
    fn publish(&self, frames: Vec<RemoteEvent>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.frames.extend(frames);
        st.published += 1;
        self.ready.notify_all();
    }

    /// Waits for the sender's `published_at_least`-th publish and takes
    /// what has arrived; `None` when the sender stopped short of it.
    fn drain_when(&self, published_at_least: u64) -> Option<Vec<RemoteEvent>> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.published < published_at_least {
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        Some(std::mem::take(&mut st.frames))
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        self.ready.notify_all();
    }
}

/// A worker's out-mailboxes, by ascending peer index, closed when the
/// worker stops for whatever reason — above all a node's panic — so no
/// peer waits on a publish that will never come.
struct CloseOnExit(Vec<(usize, Arc<Mailbox>)>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        for (_, mailbox) in &self.0 {
            mailbox.close();
        }
    }
}

/// Raw per-shard timeline capture: `(baseline, boundary snapshots,
/// final)` of the shard's private registry.
type ShardCaptures = (Snapshot, Vec<(u64, Snapshot)>, Snapshot);

/// A worker stopped before the run was over: it panicked, or a peer it
/// waits on did.
struct WorkerStopped;

/// Runs `workload` partitioned by `plan`: one [`Simulator`] per shard on
/// its own worker thread, driven in chained safe-window rounds (see the
/// module docs). Workers record into per-shard private registries that
/// the coordinator merges in shard-index order, so an attached registry
/// ends up byte-identical regardless of thread scheduling — including its
/// event log.
pub(crate) fn run(workload: Workload, plan: ShardPlan) -> RunReport {
    let start = Instant::now();
    let Workload {
        topology,
        nodes,
        timers,
        telemetry,
        export_interval_ns,
        fault_plan,
        tuning,
    } = workload;
    assert!(tuning.chain_depth >= 1, "chain depth must be at least 1");
    let n = plan.nshards();
    let lat = plan.cross_latency_matrix(&topology);
    let stagger = Arc::new(tuning.stagger_ns);

    // Split registered nodes and boot timers by owning shard.
    let mut shard_nodes: Vec<Vec<(SwitchId, Box<dyn SimNode + Send>)>> =
        (0..n).map(|_| Vec::new()).collect();
    for (id, node) in nodes {
        shard_nodes[plan.shard_of(id)].push((id, node));
    }
    let mut shard_timers: Vec<Vec<(SwitchId, u64, u64)>> = (0..n).map(|_| Vec::new()).collect();
    for (node, timer_id, delay_ns) in timers {
        shard_timers[plan.shard_of(node)].push((node, timer_id, delay_ns));
    }

    // One private registry per shard whenever anything observes this
    // run: both the telemetry merge and the timeline merge read from it.
    // Never the caller's registry (see the module docs), but with its
    // event-log and trace-ring capacities.
    let observed = telemetry.is_some() || export_interval_ns.is_some();
    let (event_capacity, trace_capacity) = telemetry
        .as_ref()
        .map_or((0, 0), |r| (r.event_capacity(), r.trace_capacity()));
    let registries: Vec<Arc<Registry>> = (0..if observed { n } else { 0 })
        .map(|_| Arc::new(Registry::with_capacities(event_capacity, trace_capacity)))
        .collect();

    // One mailbox per directed linked shard pair: frames flow between
    // workers directly, never through the coordinator.
    let mailboxes: Vec<Vec<Option<Arc<Mailbox>>>> = (0..n)
        .map(|j| {
            (0..n)
                .map(|i| lat[j][i].map(|_| Arc::new(Mailbox::default())))
                .collect()
        })
        .collect();

    // Spawn one worker per shard. Each builds its own Simulator from
    // the shared topology, routing by the plan's owner assignment.
    let mut cmd_txs: Vec<SyncSender<ToWorker>> = Vec::with_capacity(n);
    let mut reply_rxs: Vec<Receiver<ChainReply>> = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for s in 0..n {
        let (cmd_tx, cmd_rx) = sync_channel::<ToWorker>(1);
        let (reply_tx, reply_rx) = sync_channel::<ChainReply>(1);
        let setup = WorkerSetup {
            shard: s,
            nshards: n,
            topology: topology.clone(),
            assign: plan.assign.clone(),
            nodes: std::mem::take(&mut shard_nodes[s]),
            timers: std::mem::take(&mut shard_timers[s]),
            registry: registries.get(s).cloned(),
            export_interval_ns,
            stagger_ns: stagger.clone(),
            fault_plan: fault_plan.clone(),
            out_links: CloseOnExit(
                (0..n)
                    .filter_map(|i| mailboxes[s][i].clone().map(|mb| (i, mb)))
                    .collect(),
            ),
            in_links: (0..n).filter_map(|j| mailboxes[j][s].clone()).collect(),
            cmd_rx,
            reply_tx,
        };
        handles.push(thread::spawn(move || worker(setup)));
        cmd_txs.push(cmd_tx);
        reply_rxs.push(reply_rx);
    }

    let mut report = RunReport::default();
    let finished = coordinate(
        &lat,
        tuning.chain_depth,
        tuning.audit,
        &cmd_txs,
        &reply_rxs,
        &mut report,
    );
    // Hang up, so a worker still waiting for a command after its peers
    // stopped leaves too; then every worker can be joined.
    drop(cmd_txs);
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    let mut captures = Vec::with_capacity(n);
    for outcome in joined {
        // The first panicked worker by shard index: its own payload is
        // what a sequential run of the same workload would have raised.
        let (stats, shard_captures) = outcome.unwrap_or_else(|payload| resume_unwind(payload));
        report.stats.frames_delivered += stats.frames_delivered;
        report.stats.frames_tapped_dropped += stats.frames_tapped_dropped;
        report.stats.frames_tapped_modified += stats.frames_tapped_modified;
        report.stats.frames_undeliverable += stats.frames_undeliverable;
        report.stats.timers_fired += stats.timers_fired;
        report.stats.faults_applied += stats.faults_applied;
        captures.extend(shard_captures);
    }
    assert!(
        finished.is_ok(),
        "a shard worker stopped mid-run without panicking"
    );
    // Deterministic telemetry hand-back: merge the per-shard final
    // snapshots in shard-index order, then absorb into the caller's
    // registry. Trace rings follow the same discipline — absorbed in
    // shard-index order, drop counts carried along — so the caller's
    // canonical (sorted) span stream is engine-invariant.
    if let Some(user) = &telemetry {
        let parts: Vec<Snapshot> = registries.iter().map(|r| r.snapshot()).collect();
        user.absorb(&Snapshot::merged(&parts));
        for trace in registries.iter().map(|r| r.trace()) {
            user.trace().absorb(&trace.records(), trace.dropped());
        }
    }
    report.timeline = export_interval_ns.map(|interval| merge_timelines(interval, captures));
    report.wall_ns = start.elapsed().as_nanos() as u64;
    report
}

/// The coordinator's side of the run: grants window chains until every
/// shard is idle, then tells the workers to finish, tallying into
/// `total`. Any channel error means a worker stopped early; the caller
/// finds out why at the join.
fn coordinate(
    lat: &[Vec<Option<u64>>],
    depth: usize,
    audit: bool,
    cmd_txs: &[SyncSender<ToWorker>],
    reply_rxs: &[Receiver<ChainReply>],
    total: &mut RunReport,
) -> Result<(), WorkerStopped> {
    let n = lat.len();
    // Initial replies carry each shard's boot-timer horizon.
    let mut replies: Vec<ChainReply> = reply_rxs
        .iter()
        .map(|rx| rx.recv().map_err(|_| WorkerStopped))
        .collect::<Result<_, _>>()?;

    // The earliest-possible-action fixpoint over the shard graph
    // (Bellman–Ford relaxation), from any per-shard horizon vector.
    let relax = |mut ea: Vec<u64>| {
        loop {
            let mut changed = false;
            for i in 0..n {
                for j in 0..n {
                    if let Some(l) = lat[j][i] {
                        let via = ea[j].saturating_add(l);
                        if via < ea[i] {
                            ea[i] = via;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        ea
    };
    let bound_of = |ea: &[u64]| -> Vec<u64> {
        (0..n)
            .map(|i| {
                (0..n)
                    .filter_map(|j| lat[j][i].map(|l| ea[j].saturating_add(l)))
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect()
    };

    loop {
        // The chain-end exchange pulled every in-flight frame into
        // the owning shard's queue, so the reply horizons are the
        // whole story.
        let next: Vec<u64> = replies
            .iter()
            .map(|r| r.next_at_ns.unwrap_or(u64::MAX))
            .collect();
        if next.iter().all(|&v| v == u64::MAX) {
            break;
        }

        // Build the chain of granted windows: the first from the true
        // horizons, each later one by substituting the previous
        // bounds (a shard that processed window k has nothing left
        // below b_k, and the relaxation covers frames still in
        // flight). Finite bounds advance ≥ L_min per step; stop early
        // if a step grants nothing new.
        let mut chain: Vec<Vec<u64>> = Vec::with_capacity(depth);
        let mut cur = next.clone();
        for _ in 0..depth {
            let b = bound_of(&relax(cur));
            if chain.last() == Some(&b) {
                break;
            }
            cur = b.clone();
            chain.push(b);
        }

        total.rounds += 1;
        total.windows += chain.len() as u64;
        for (i, tx) in cmd_txs.iter().enumerate() {
            tx.send(ToWorker::Chain {
                bounds_ns: chain.iter().map(|w| w[i]).collect(),
            })
            .map_err(|_| WorkerStopped)?;
        }
        let wait_start = Instant::now();
        let mut processed_this_round = 0u64;
        for (i, rx) in reply_rxs.iter().enumerate() {
            let reply = rx.recv().map_err(|_| WorkerStopped)?;
            processed_this_round += reply.processed;
            total.frames_exchanged += reply.frames_sent;
            replies[i] = reply;
        }
        total.barrier_wait_ns += wait_start.elapsed().as_nanos() as u64;
        total.events += processed_this_round;
        assert!(
            processed_this_round > 0,
            "safe-window round made no progress (lookahead bug)"
        );
        if audit {
            total.audits.push(RoundAudit {
                next_at_ns: next.iter().map(|&v| (v != u64::MAX).then_some(v)).collect(),
                windows: chain
                    .iter()
                    .enumerate()
                    .map(|(w, bound_ns)| WindowAudit {
                        bound_ns: bound_ns.clone(),
                        max_popped_ns: replies.iter().map(|r| r.windows[w].1).collect(),
                    })
                    .collect(),
            });
        }
    }

    // The global final clock: the time of the last event popped
    // anywhere — exactly the sequential final `now`. Every recorder
    // flushes to it so tail captures are stamped as a sequential run's
    // would be.
    let global_end_ns = replies.iter().map(|r| r.now_ns).max().unwrap_or(0);
    total.now = SimTime::from_ns(global_end_ns);
    for tx in cmd_txs {
        tx.send(ToWorker::Finish {
            flush_to_ns: global_end_ns,
        })
        .map_err(|_| WorkerStopped)?;
    }
    Ok(())
}

/// The stagger schedule `P4AUTH_SHARD_STAGGER` asks for: multiples of
/// `base / 2` scattered so different (shard, window) pairs land on
/// different delays.
fn stagger_from_env() -> Vec<u64> {
    let Ok(v) = std::env::var("P4AUTH_SHARD_STAGGER") else {
        return Vec::new();
    };
    let base: u64 = v.trim().parse().unwrap_or(0);
    if base == 0 {
        return Vec::new();
    }
    (0..8).map(|i| base / 2 * ((5 * i + 3) % 8)).collect()
}

/// The deterministic stagger sleep for worker `shard` at window
/// `window` (no-op on an empty schedule).
fn stagger_sleep(schedule: &[u64], shard: usize, window: u64) {
    if schedule.is_empty() {
        return;
    }
    let idx = (shard as u64)
        .wrapping_mul(7)
        .wrapping_add(window.wrapping_mul(13)) as usize
        % schedule.len();
    if schedule[idx] > 0 {
        thread::sleep(Duration::from_nanos(schedule[idx]));
    }
}

/// Merges per-shard capture streams into the timeline a sequential
/// recording would have produced.
///
/// Shards capture full snapshots of their private registries; metric
/// updates are attributed to the shard that pops the causing event
/// (frame telemetry is recorded sender-side at divert time), so the
/// per-shard registries partition the sequential one. At every grid
/// boundary any shard captured, each shard's latest capture at or before
/// it is carried forward (an uncaptured boundary means that shard's
/// state did not change) and the full states are merged in shard-index
/// order — giving exactly the sequential state before that boundary,
/// including histogram min/max. Deltas then come from
/// [`Timeline::from_captures`], the same code path the sequential
/// recorder uses, so the result is structurally bit-identical.
fn merge_timelines(interval_ns: u64, parts: Vec<ShardCaptures>) -> Timeline {
    let baselines: Vec<Snapshot> = parts.iter().map(|(b, _, _)| b.clone()).collect();
    let finals: Vec<Snapshot> = parts.iter().map(|(_, _, f)| f.clone()).collect();
    let boundaries: BTreeSet<u64> = parts
        .iter()
        .flat_map(|(_, caps, _)| caps.iter().map(|(t, _)| *t))
        .collect();
    // Carried-forward state per shard, advanced through each shard's
    // captures as the boundary cursor moves.
    let mut cur: Vec<Snapshot> = baselines.clone();
    let mut idx = vec![0usize; parts.len()];
    let mut merged_captures = Vec::with_capacity(boundaries.len());
    for t in boundaries {
        for (s, (_, caps, _)) in parts.iter().enumerate() {
            while idx[s] < caps.len() && caps[idx[s]].0 <= t {
                cur[s] = caps[idx[s]].1.clone();
                idx[s] += 1;
            }
        }
        merged_captures.push((t, Snapshot::merged(&cur)));
    }
    Timeline::from_captures(
        interval_ns,
        Snapshot::merged(&baselines),
        merged_captures,
        Snapshot::merged(&finals),
    )
}

/// Everything a worker thread needs, bundled at spawn time.
struct WorkerSetup {
    shard: usize,
    nshards: usize,
    topology: Topology,
    /// Owning shard per node, dense by raw id (the plan's assignment).
    assign: Vec<u32>,
    nodes: Vec<(SwitchId, Box<dyn SimNode + Send>)>,
    timers: Vec<(SwitchId, u64, u64)>,
    /// This shard's private registry, when anything observes the run.
    registry: Option<Arc<Registry>>,
    export_interval_ns: Option<u64>,
    stagger_ns: Arc<Vec<u64>>,
    /// Fault schedule to install after shard routing (owner tallying
    /// depends on the route being set first).
    fault_plan: Option<crate::fault::FaultPlan>,
    /// Mailboxes this worker publishes to.
    out_links: CloseOnExit,
    /// Mailboxes this worker drains, by ascending peer index.
    in_links: Vec<Arc<Mailbox>>,
    cmd_rx: Receiver<ToWorker>,
    reply_tx: SyncSender<ChainReply>,
}

/// Pushes the per-peer outbound buffers to the peer mailboxes (one
/// publish per out-link, empty or not — the counters must advance
/// uniformly). Returns the number of frames sent.
fn publish_boundary(sim: &mut Simulator, out_links: &[(usize, Arc<Mailbox>)]) -> u64 {
    let mut sent = 0u64;
    for (peer, mb) in out_links {
        let frames = sim.take_outbound_for(*peer);
        sent += frames.len() as u64;
        mb.publish(frames);
    }
    debug_assert_eq!(
        sim.outbound_pending(),
        0,
        "a frame crossed shards without a link to its owner"
    );
    sent
}

/// Worker-thread body: owns one shard's [`Simulator`], processes granted
/// window chains — exchanging frames with linked peers at every window
/// boundary — and answers the coordinator once per chain until told to
/// finish.
fn worker(setup: WorkerSetup) -> (SimStats, Option<ShardCaptures>) {
    let (shard, out_links) = (setup.shard, &setup.out_links.0);
    let mut sim = Simulator::with_scheduler(setup.topology, SchedulerKind::Calendar);
    sim.set_shard_route(setup.assign, setup.nshards, shard as u32);
    populate(
        &mut sim,
        setup.registry,
        setup.nodes,
        &setup.timers,
        setup.fault_plan.as_ref(),
        setup.export_interval_ns,
    );
    // Pre-run publish (#1): peers' first drains must see a defined
    // state; nothing can be outbound yet (boot timers are local).
    publish_boundary(&mut sim, out_links);
    let first = ChainReply {
        next_at_ns: sim.next_event_at().map(|t| t.as_ns()),
        processed: 0,
        windows: Vec::new(),
        frames_sent: 0,
        now_ns: sim.now().as_ns(),
    };
    // Injects what every in-neighbour has published through its
    // `through`-th publish; `None` when one of them stopped short of it.
    let drain = |sim: &mut Simulator, through: u64| -> Option<()> {
        for mailbox in &setup.in_links {
            for ev in mailbox.drain_when(through)? {
                sim.inject_remote(ev);
            }
        }
        Some(())
    };
    // Serves window chains until told to finish: `Some(flush_to_ns)` on
    // Finish, `None` when the coordinator hung up or a peer stopped.
    let serve = || -> Option<u64> {
        setup.reply_tx.send(first).ok()?;
        // Completed windows, global across rounds: after window `w` this
        // worker has published `w + 1` times and needs `published >= w`
        // from each in-neighbour before processing window `w`.
        let mut window = 0u64;
        loop {
            let bounds_ns = match setup.cmd_rx.recv().ok()? {
                ToWorker::Chain { bounds_ns } => bounds_ns,
                ToWorker::Finish { flush_to_ns } => return Some(flush_to_ns),
            };
            let mut processed_total = 0u64;
            let mut frames_sent = 0u64;
            let mut per_window = Vec::with_capacity(bounds_ns.len());
            for bound_ns in bounds_ns {
                window += 1;
                drain(&mut sim, window)?;
                let processed = sim.run_window(SimTime::from_ns(bound_ns));
                let max_popped_ns = (processed > 0).then(|| sim.now().as_ns());
                stagger_sleep(&setup.stagger_ns, shard, window);
                frames_sent += publish_boundary(&mut sim, out_links);
                processed_total += processed;
                per_window.push((processed, max_popped_ns));
            }
            // Chain-end exchange: pull everything the peers sent
            // through their last window, so the reply's horizon
            // covers every in-flight frame and the mailboxes are
            // empty at the rendezvous.
            drain(&mut sim, window + 1)?;
            stagger_sleep(&setup.stagger_ns, shard, window);
            let reply = ChainReply {
                next_at_ns: sim.next_event_at().map(|t| t.as_ns()),
                processed: processed_total,
                windows: per_window,
                frames_sent,
                now_ns: sim.now().as_ns(),
            };
            setup.reply_tx.send(reply).ok()?;
        }
    };
    if let Some(to_ns) = serve() {
        sim.flush_timeline(SimTime::from_ns(to_ns));
    }
    let captures = sim
        .take_timeline_parts()
        .map(|(_, baseline, caps, fin)| (baseline, caps, fin));
    (sim.stats(), captures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::frame::FrameBytes;
    use crate::sim::Outbox;
    use crate::topology::{Endpoint, LinkId};
    use p4auth_wire::ids::PortId;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Echo {
        arrivals: Arc<AtomicU64>,
        reply: bool,
    }

    impl SimNode for Echo {
        fn on_frame(&mut self, _: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
            self.arrivals.fetch_add(1, Ordering::Relaxed);
            if self.reply {
                out.send_delayed(ingress, payload, 10);
            }
        }
        fn on_timer(&mut self, _: SimTime, _: u64, out: &mut Outbox) {
            out.send(PortId::new(1), vec![0xab]);
        }
    }

    fn two_node_topology() -> Topology {
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        t.add_node(SwitchId::new(2)).unwrap();
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(1)),
            Endpoint::new(SwitchId::new(2), PortId::new(1)),
            1_000,
        )
        .unwrap();
        t
    }

    #[test]
    fn round_robin_plan_covers_every_node() {
        let t = two_node_topology();
        let plan = ShardPlan::round_robin(&t, 2);
        assert_eq!(plan.nshards(), 2);
        assert_ne!(
            plan.shard_of(SwitchId::new(1)),
            plan.shard_of(SwitchId::new(2))
        );
        assert_eq!(plan.min_cross_latency_ns(&t, 0, 1), Some(1_000));
    }

    #[test]
    fn pod_aligned_plan_keeps_pods_whole() {
        let ft = crate::fattree::FatTree::new(4);
        let t = ft.build(1_500);
        let plan = ShardPlan::pod_aligned(&t, 4);
        for pod in 0..4u16 {
            let home = plan.shard_of(ft.edge(pod, 0));
            for i in 0..2 {
                assert_eq!(plan.shard_of(ft.edge(pod, i)), home);
                assert_eq!(plan.shard_of(ft.agg(pod, i)), home);
            }
            for h in 0..4 {
                assert_eq!(plan.shard_of(ft.host(pod * 4 + h)), home);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero latency")]
    fn zero_latency_cross_shard_link_rejected() {
        let mut t = Topology::new();
        t.add_node(SwitchId::new(1)).unwrap();
        t.add_node(SwitchId::new(2)).unwrap();
        t.add_link(
            Endpoint::new(SwitchId::new(1), PortId::new(1)),
            Endpoint::new(SwitchId::new(2), PortId::new(1)),
            0,
        )
        .unwrap();
        let _ = ShardPlan::round_robin(&t, 2);
    }

    const TWO_SHARDS: Engine = Engine::Sharded { shards: 2 };

    /// The standard ping-pong, populated once for whichever engine runs
    /// it: node 1 sends on each boot timer, node 2 echoes. On two shards
    /// the hint-free topology falls back to round-robin, one node per
    /// shard. Isolated from the ambient stagger knob; callers tweak the
    /// rest before running.
    fn ping_pong(boot_delays: &[u64]) -> (Workload, [Arc<AtomicU64>; 2]) {
        let arrivals = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
        let mut w = Workload::new(two_node_topology());
        w.set_shard_tuning(staggered(Vec::new()));
        for (i, reply) in [(0, false), (1, true)] {
            let arrivals = arrivals[i].clone();
            w.register_node(
                SwitchId::new(i as u16 + 1),
                Box::new(Echo { arrivals, reply }),
            );
        }
        for &delay in boot_delays {
            w.schedule_timer(SwitchId::new(1), 7, delay);
        }
        (w, arrivals)
    }

    fn staggered(stagger_ns: Vec<u64>) -> ShardTuning {
        ShardTuning {
            stagger_ns,
            ..ShardTuning::default()
        }
    }

    fn loads(arrivals: &[Arc<AtomicU64>; 2]) -> [u64; 2] {
        [0, 1].map(|i| arrivals[i].load(Ordering::Relaxed))
    }

    #[test]
    fn sharded_ping_pong_matches_sequential() {
        let (seq, seq_arrivals) = ping_pong(&[50]);
        let seq = seq.run(Engine::REFERENCE);
        let (sharded, arrivals) = ping_pong(&[50]);
        let report = sharded.run(TWO_SHARDS);

        assert_eq!(report.events, seq.events);
        assert_eq!(report.stats, seq.stats);
        assert_eq!(report.now, seq.now);
        assert_eq!(loads(&arrivals), loads(&seq_arrivals));
        assert_eq!((seq.rounds, seq.windows, seq.frames_exchanged), (0, 0, 0));
        assert!(report.rounds >= 1, "ping-pong needs at least one round");
        assert!(report.windows >= report.rounds, "chains grant ≥1 window");
        assert_eq!(report.frames_exchanged, 2, "one frame over, one echo back");
    }

    #[test]
    fn sharded_timeline_is_bit_identical_to_sequential() {
        let timeline = |engine| {
            let (mut w, _) = ping_pong(&[50]);
            w.set_export_interval(400);
            w.run(engine).timeline.expect("export interval was set")
        };
        let (seq_tl, sharded_tl) = (timeline(Engine::REFERENCE), timeline(TWO_SHARDS));
        assert!(
            !seq_tl.entries.is_empty(),
            "the run must cross at least one boundary with changes"
        );
        assert_eq!(sharded_tl, seq_tl);
        assert_eq!(sharded_tl.to_json(), seq_tl.to_json());
        assert_eq!(sharded_tl.to_bin(), seq_tl.to_bin());
        assert_eq!(sharded_tl.reconstruct(), sharded_tl.final_snapshot);
    }

    #[test]
    fn sharded_telemetry_merges_into_the_callers_registry() {
        // Sequential records straight into the caller's registry; sharded
        // uses it as the merge sink for the per-shard private ones.
        let snapshot_json = |engine| {
            let registry = Arc::new(Registry::with_event_capacity(64));
            let (mut w, _) = ping_pong(&[50]);
            w.set_telemetry(registry.clone());
            w.run(engine);
            registry.snapshot().to_json()
        };
        assert_eq!(snapshot_json(TWO_SHARDS), snapshot_json(Engine::REFERENCE));
    }

    #[test]
    fn sharded_trace_is_bit_identical_to_sequential_under_stagger() {
        let traced = |engine, schedule| {
            let registry = Arc::new(Registry::with_capacities(64, 64));
            let (mut w, _) = ping_pong(&[50]);
            w.set_telemetry(registry.clone());
            w.set_shard_tuning(staggered(schedule));
            w.run(engine);
            assert_eq!(registry.trace().dropped(), 0);
            registry.trace().sorted_records()
        };
        let reference = traced(Engine::REFERENCE, Vec::new());
        assert!(!reference.is_empty(), "the ping-pong must emit frame spans");
        for schedule in [Vec::new(), vec![120_000, 0, 40_000]] {
            let records = traced(TWO_SHARDS, schedule);
            assert_eq!(records, reference);
            assert_eq!(
                p4auth_telemetry::trace::encode_trace(&records, 0),
                p4auth_telemetry::trace::encode_trace(&reference, 0),
                "P4TR bytes engine-invariant"
            );
        }
    }

    #[test]
    fn telemetry_and_timeline_export_combine() {
        // Both an attached registry and an export interval: the same
        // private per-shard registries serve the timeline merge and the
        // final telemetry merge.
        let registry = Arc::new(Registry::new());
        let (mut w, _) = ping_pong(&[50]);
        w.set_telemetry(registry.clone());
        w.set_export_interval(400);
        let report = w.run(TWO_SHARDS);
        let timeline = report.timeline.expect("export interval was set");
        assert_eq!(report.stats.frames_delivered, 2);
        assert!(!timeline.entries.is_empty());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim_frames_delivered", ""), Some(2));
        assert_eq!(timeline.reconstruct(), timeline.final_snapshot);
    }

    #[test]
    fn stagger_does_not_change_any_output() {
        let run = |schedule| {
            let registry = Arc::new(Registry::with_event_capacity(64));
            let (mut w, _) = ping_pong(&[50]);
            w.set_telemetry(registry.clone());
            w.set_shard_tuning(staggered(schedule));
            let report = w.run(TWO_SHARDS);
            (registry.snapshot().to_json(), report)
        };
        let reference = run(Vec::new());
        for schedule in [vec![120_000, 0, 40_000], vec![5_000]] {
            let (json, report) = run(schedule);
            assert_eq!(json, reference.0);
            assert_eq!(report.events, reference.1.events);
            assert_eq!(report.stats, reference.1.stats);
            assert_eq!(report.now, reference.1.now);
            assert_eq!(report.rounds, reference.1.rounds);
            assert_eq!(report.windows, reference.1.windows);
            assert_eq!(report.frames_exchanged, reference.1.frames_exchanged);
        }
    }

    /// Bounces a TTL-carrying frame back out its ingress port until the
    /// TTL hits zero — a long cross-shard conversation for round
    /// accounting.
    struct Bouncer;

    impl SimNode for Bouncer {
        fn on_frame(&mut self, _: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
            let ttl = payload.as_slice()[0];
            if ttl > 0 {
                out.send_delayed(ingress, vec![ttl - 1], 10);
            }
        }
        fn on_timer(&mut self, _: SimTime, _: u64, out: &mut Outbox) {
            out.send(PortId::new(1), vec![40]);
        }
    }

    #[test]
    fn chained_windows_amortize_rounds_bit_identically() {
        let run_at_depth = |chain_depth: usize| {
            let mut w = Workload::new(two_node_topology());
            w.set_shard_tuning(ShardTuning {
                chain_depth,
                ..staggered(Vec::new())
            });
            w.register_node(SwitchId::new(1), Box::new(Bouncer));
            w.register_node(SwitchId::new(2), Box::new(Bouncer));
            w.schedule_timer(SwitchId::new(1), 1, 50);
            w.run(TWO_SHARDS)
        };
        let unchained = run_at_depth(1);
        let chained = run_at_depth(DEFAULT_CHAIN_DEPTH);
        // Same simulation either way...
        assert_eq!(chained.events, unchained.events);
        assert_eq!(chained.stats, unchained.stats);
        assert_eq!(chained.now, unchained.now);
        assert_eq!(chained.frames_exchanged, unchained.frames_exchanged);
        assert_eq!(chained.frames_exchanged, 41, "40-hop TTL conversation");
        // ...but the rendezvous count collapses by (almost) the depth.
        assert_eq!(unchained.windows, unchained.rounds);
        assert!(
            chained.rounds * 5 <= unchained.rounds,
            "chaining must amortize rendezvous ≥5×: {} vs {}",
            chained.rounds,
            unchained.rounds
        );
    }

    #[test]
    fn single_shard_run_is_the_sequential_run() {
        let (mut w, _) = ping_pong(&[50]);
        w.set_shard_tuning(ShardTuning {
            audit: true,
            ..staggered(Vec::new())
        });
        let report = w.run(Engine::Sharded { shards: 1 });
        let audits = &report.audits;
        assert_eq!(report.stats.timers_fired, 1);
        assert_eq!(report.events, 3, "timer + arrival + echoed arrival");
        assert_eq!(audits.len() as u64, report.rounds);
        // One shard has no incoming cross links: unbounded window, one
        // productive round of one window.
        assert_eq!(report.windows, 1);
        assert_eq!(audits[0].windows.len(), 1);
        assert_eq!(audits[0].windows[0].bound_ns, vec![u64::MAX]);
    }

    #[test]
    fn sharded_fault_plan_matches_sequential() {
        // A link flap mid-conversation: the t=1500 send dies during the
        // outage, the t=3500 send flows after recovery. Both engines must
        // agree on every count, and the fault must be tallied exactly
        // once (by the owner shard) even though both workers pop it.
        let run = |engine| {
            let mut plan = crate::fault::FaultPlan::new();
            plan.flap(LinkId(0), 1_100, 3_000);
            let (mut w, arrivals) = ping_pong(&[50, 1_500, 3_500]);
            w.set_fault_plan(plan);
            (w.run(engine), loads(&arrivals))
        };
        let (seq, seq_arrivals) = run(Engine::REFERENCE);
        let (report, arrivals) = run(TWO_SHARDS);

        assert_eq!(report.events, seq.events);
        assert_eq!(report.stats, seq.stats);
        assert_eq!(report.now, seq.now);
        assert_eq!(report.stats.faults_applied, 2, "down + up, counted once");
        assert_eq!(report.stats.frames_undeliverable, 1, "the mid-outage send");
        assert_eq!(arrivals, seq_arrivals);
    }
}
