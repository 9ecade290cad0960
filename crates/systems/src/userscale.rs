//! Host aggregation: millions of modelled users at near-constant per-user
//! cost (`repro -- users` and `BENCH_users.json`).
//!
//! One [`SimNode`] per modelled endpoint caps a run at tens of thousands of
//! them: every host costs a boxed node, a timer chain and per-event
//! dispatch. This module is the repo's one host model: each access port
//! gets one [`AggregateHostNode`] modelling *N* edge users behind it, and
//! the scale workload ([`crate::scaleload`]) is this module at *N* = 1
//! ([`UserScaleConfig::mirror_scale`]). Everything a frame touches for
//! one user (RNG draw count, due offset, remaining frames, arrival
//! cursor) is one packed 16-byte record, so emitting a frame and
//! advancing its user touches 16 bytes; with the due-wheel's 4-byte slot
//! per user a million users are 20 MB of flat buffers (16 MB of records,
//! 4 MB of wheel) rather than a million boxed nodes. The record holds
//! nothing the aggregate can rebuild: a user's RNG word is its
//! [`user_seed`] plus `draws·γ`, and its due time is the start of the
//! wheel window that files it plus its offset.
//!
//! Every user stream is deterministic from `(seed, global user index)`
//! alone via [`p4auth_workloads::flows::user_seed`], independent of aggregate
//! boundaries and emission order. Two execution modes share the same
//! per-user state machine and the same due-window wheel: live users are
//! filed under the window their next frame falls in, and a wake drains
//! only the contiguous bucket of the window it opens, in ascending user
//! order, and refiles each user that is still live. Cost: `O(users due)`
//! per wake, not `O(users)` — an idle user costs nothing until its
//! window comes up.
//!
//! * [`AggregateMode::Exact`] is the wheel at 1-ns windows: one timer at
//!   a time, armed for the next non-empty window, and each frame emitted
//!   at exactly its due instant. With one user per aggregate this
//!   reproduces an individual per-host node *bit for bit* — same RNG
//!   draws, same timer chain, same frame bytes — which
//!   `tests/aggregate_diff.rs` pins against its own reference host.
//!   Cost: one timer event per distinct due instant.
//! * [`AggregateMode::Amortized`] wakes once per window and batch-emits
//!   every frame due inside it with per-frame processing offsets, so each
//!   frame still *arrives* at exactly the instant the exact mode would
//!   deliver it (host links are latency-only). The two modes may
//!   interleave same-instant events differently, so `Amortized` is
//!   deterministic but not event-count-identical to `Exact`.
//!
//! The fabric is untouched: aggregates send the same fig19 read/write mix
//! through the same [`crate::scaleload`] forwarders, so everything
//! upstream of the access port is oblivious to how many users an
//! aggregate models.
//!
//! Every entry point — [`run_users_engine`] here,
//! `scaleload::run_scale_engine` and `scaleload::run_scale_timeline` —
//! is a map over one private runner, `run_fabric`, which populates one
//! [`Workload`] and hands it to whichever [`Engine`] was asked for.
//!
//! [`SimNode`]: p4auth_netsim::SimNode

use crate::scaleload::{
    fabric_forwarder, Engine, RouteTable, ScaleConfig, READ_FRAME_BYTES, SEND_TIMER,
    WRITE_FRAME_BYTES,
};
use p4auth_attacks::digest_flood;
use p4auth_netsim::engine::{RunReport, Workload};
use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::fault::FaultPlan;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sim::{Outbox, SimNode, SimStats};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::SplitMix64;
use p4auth_telemetry::Registry;
use p4auth_wire::ids::{PortId, SwitchId};
use p4auth_workloads::flows::{
    splitmix_draws, splitmix_next, splitmix_state, user_seed, ArrivalGaps, ArrivalMix,
};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// How an aggregate turns per-user due times into simulator events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateMode {
    /// One timer at the earliest due time; frames are emitted at exactly
    /// their due instants. Bit-identical to individual hosts at one user
    /// per aggregate; `O(users due)` per frame event.
    Exact,
    /// One timer per window; frames due inside the window are batch-sent
    /// with per-frame processing offsets so arrival times match `Exact`.
    Amortized {
        /// Window length in ns of simulated time, at most 2^31: a user's
        /// due is an `i32` offset into its window.
        window_ns: u64,
    },
}

/// One compromised user inside an aggregate: instead of the fig19 mix it
/// emits forged control-plane ACKs claiming to come from `victim` (the
/// digest-flood of §VII), paced at `gap_ns`. The frames are deterministic
/// from the user's own seed, so the attack is part of the reproducible
/// run, not a side channel.
#[derive(Clone, Copy, Debug)]
pub struct CompromisedUser {
    /// Global index of the compromised user.
    pub user: u64,
    /// Switch whose identity the forged frames claim.
    pub victim: SwitchId,
    /// Number of forged frames the user emits.
    pub frames: u32,
    /// Fixed gap between forged frames in ns.
    pub gap_ns: u64,
}

/// One user-scale configuration.
#[derive(Clone, Debug)]
pub struct UserScaleConfig {
    /// Fat-tree arity (even, ≤ 16).
    pub k: u16,
    /// Uniform one-way link latency in ns.
    pub latency_ns: u64,
    /// Per-hop switch processing delay in ns.
    pub proc_ns: u64,
    /// Total modelled users, spread across the fat tree's host slots
    /// (first `users % slots` slots get the extra user).
    pub users: u64,
    /// Frames each user transmits, at most 2^30 − 1: a user keeps its
    /// RNG draws (up to four a frame) in a `u32`.
    pub frames_per_user: u32,
    /// Per-user arrival process.
    pub mix: ArrivalMix,
    /// Traffic seed (destinations, flow labels, arrival draws).
    pub seed: u64,
    /// Timer strategy.
    pub mode: AggregateMode,
    /// Per-user frame budget per amortized window (uplink backpressure:
    /// a user whose window emission hits this cap has the rest of its
    /// stream deferred to the next window). Ignored by `Exact`.
    pub credits_per_window: u16,
    /// Optional compromised user (see [`CompromisedUser`]).
    pub compromised: Option<CompromisedUser>,
    /// Optional deterministic fault schedule: link churn installed as
    /// first-class sim events, plus a boot-storm stagger applied to the
    /// aggregates' first timers.
    pub faults: Option<FaultPlan>,
}

impl UserScaleConfig {
    /// The standard user-scale configuration for arity `k`: the scale
    /// workload's fabric timings with a heavy-tailed elephant/mice
    /// arrival mix and 10 µs amortized windows.
    pub fn for_k(k: u16, users: u64, frames_per_user: u32) -> Self {
        UserScaleConfig {
            k,
            latency_ns: 1_500,
            proc_ns: 500,
            users,
            frames_per_user,
            mix: ArrivalMix::HeavyTailed(Default::default()),
            seed: 0x05e7_5ca1 ^ k as u64,
            mode: AggregateMode::Amortized { window_ns: 10_000 },
            credits_per_window: 64,
            compromised: None,
            faults: None,
        }
    }

    /// What a [`ScaleConfig`] means: one user per host slot, the same
    /// seed, the same fixed send interval, exact timers. This is the
    /// scale workload's definition, not a twin of it — `scaleload` runs
    /// nothing else — and `tests/aggregate_diff.rs` proves it
    /// bit-identical to one individual node per host.
    pub fn mirror_scale(scale: &ScaleConfig) -> Self {
        UserScaleConfig {
            k: scale.k,
            latency_ns: scale.latency_ns,
            proc_ns: scale.proc_ns,
            users: FatTree::new(scale.k).host_count() as u64,
            frames_per_user: scale.frames_per_host,
            mix: ArrivalMix::Uniform {
                gap_ns: scale.interval_ns,
            },
            seed: scale.seed,
            mode: AggregateMode::Exact,
            credits_per_window: u16::MAX,
            compromised: None,
            faults: None,
        }
    }
}

/// Per-user boot delay: staggered so transmissions interleave instead of
/// phasing (the start an individual host `h` uses, extended to global
/// user indices beyond `u16`).
fn user_boot(g: u64) -> u64 {
    1 + (g % 97) * 11
}

/// The forged-frame queue of a compromised user (precomputed at node
/// construction so emission stays allocation-free).
struct CompromisedState {
    local: usize,
    gap_ns: u64,
    frames: VecDeque<Vec<u8>>,
}

/// Everything one frame touches for one user: 16 bytes, and nothing in
/// it that another field, the aggregate or the wheel already says.
///
/// There is no RNG word: the user's SplitMix64 word is
/// `user_seed(seed, g) + draws·γ`, rebuilt before each turn
/// ([`splitmix_state`]) and counted back after it ([`splitmix_draws`]).
/// There is no absolute due time: the [`DueWheel`] bucket that files the
/// user says which window it falls in, and `due` is the offset into it.
/// There is no frame counter: a user's frames so far are
/// `frames_per_user − remaining`, which is all the read/write mix needs.
/// There is one arrival `cursor`, not a burst counter next to a trace
/// position: the mix uses at most one of the two (see [`ArrivalGaps`]).
struct UserState {
    /// SplitMix64 steps the user has drawn since its [`user_seed`].
    draws: u32,
    /// Until the first wake files the user: its first due instant in ns.
    /// After: its due's offset in ns from the start of the window that
    /// files it, negative only for a boot-storm backlog in window 0.
    due: i32,
    remaining: u32,
    cursor: u32,
}

/// The most SplitMix64 steps one frame costs a user: two for the frame
/// (destination and flow label) and two for the gap after it (a
/// heavy-tailed burst start draws its length and the idle before it).
const MAX_DRAWS_PER_FRAME: u64 = 4;

/// The most steps a user draws before its first frame: a trace start, or
/// a heavy-tailed first burst's length and idle.
const MAX_FIRST_DRAWS: u64 = 2;

/// The range of a due offset (`i32`): a window, a first due and a
/// boot-storm wave offset must each stay below it.
const OFFSET_RANGE_NS: u64 = 1 << 31;

/// Fails closed, where an aggregate reads its configuration, on any value
/// a 16-byte [`UserState`] cannot hold (DESIGN §4i). A user's first due
/// is checked as it is drawn.
fn check_record_ranges(cfg: &UserScaleConfig, slot: u16) {
    if let AggregateMode::Amortized { window_ns } = cfg.mode {
        assert!(
            window_ns <= OFFSET_RANGE_NS,
            "userscale: a {window_ns} ns window is over 2^31 ns, the range of a due offset"
        );
    }
    let draws = MAX_FIRST_DRAWS + MAX_DRAWS_PER_FRAME * u64::from(cfg.frames_per_user);
    assert!(
        draws <= u64::from(u32::MAX),
        "userscale: {} frames per user may draw {draws} times, past a u32 draw count",
        cfg.frames_per_user
    );
    let storm = cfg.faults.as_ref().and_then(FaultPlan::boot_storm);
    let storm_ns = storm.map_or(0, |st| st.offset_for(slot));
    assert!(
        storm_ns < OFFSET_RANGE_NS,
        "userscale: a {storm_ns} ns boot-storm offset is 2^31 ns or more, the range of a backlog's due offset"
    );
}

/// `due_ns − start_ns` as a record's due offset. Every caller in a run
/// stays in range by [`check_record_ranges`]; only an aggregate woken by
/// hand more than 2^31 ns from a due it drains can leave it.
fn offset(due_ns: u64, start_ns: u64) -> i32 {
    i32::try_from(due_ns.wrapping_sub(start_ns) as i64)
        .expect("userscale: a wake within 2^31 ns of every due it drains")
}

/// The instant `offset` ns from `start_ns`.
fn due_at(start_ns: u64, offset: i32) -> u64 {
    start_ns.wrapping_add_signed(i64::from(offset))
}

/// One non-empty window of a [`DueWheel`]: its users are the next `len`
/// slots after those of the windows before it.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    window: u64,
    len: u32,
    /// Scratch while users are filed: how many the wake adds to this
    /// window, then the slot the next one goes to.
    fill: u32,
}

/// The due-window wheel of an aggregate: every live user is filed under
/// the index of the window its next due falls in, so a wake visits the
/// users that are due instead of every user. The user's record keeps
/// only the offset into that window: its due is `t0 + w·window + due`.
///
/// All of it is one exactly sized buffer of user indices, grouped by
/// window in ascending order, plus one 16-byte [`Bucket`] per non-empty
/// window: a wake drains a contiguous run from the front, and the users
/// it refiles go back into the slots that run freed. The buffer never
/// grows — users only ever leave the wheel — so a wake allocates only
/// when more windows are non-empty, or more users are due, at once than
/// ever before.
struct DueWheel {
    /// Start of window 0: the aggregate's first wake. It includes the
    /// boot-storm offset, which is why the wheel is filed on that wake
    /// and not at construction.
    t0: u64,
    window: u64,
    /// User indices; `slots[head..]` are the filed ones, by window.
    slots: Box<[u32]>,
    head: usize,
    /// The non-empty windows, ascending.
    buckets: VecDeque<Bucket>,
    /// The users drained for the current wake, reused across wakes.
    due: Vec<u32>,
    /// The drained users still live after the wake, each with the window
    /// its next due falls in, in user order; reused across wakes.
    refiled: Vec<(u64, u32)>,
}

impl DueWheel {
    /// Files every live user of an aggregate whose first wake is `t0`:
    /// one pass counts each window's users, a second writes them to their
    /// window's slots in ascending order and turns each first due into
    /// its offset.
    fn filed(t0: u64, window: u64, users: &mut [UserState]) -> Self {
        assert!(
            users.len() <= u32::MAX as usize,
            "user indices must fit u32"
        );
        // Before filing, a record's `due` is its first due instant, which
        // construction checked is non-negative.
        let first_window = |state: &UserState| window_index(t0, window, state.due as u64);
        let mut counts = BTreeMap::new();
        for state in users.iter().filter(|state| state.remaining > 0) {
            *counts.entry(first_window(state)).or_insert(0u32) += 1;
        }
        let mut buckets = VecDeque::with_capacity(counts.len());
        let mut filed = 0;
        for (&window, &len) in &counts {
            buckets.push_back(Bucket {
                window,
                len,
                fill: filed,
            });
            filed += len;
        }
        drop(counts);
        let mut slots = vec![0; filed as usize].into_boxed_slice();
        for (u, state) in users.iter_mut().enumerate() {
            if state.remaining == 0 {
                continue;
            }
            let w = first_window(state);
            let i = bucket_of(&mut buckets, w);
            slots[buckets[i].fill as usize] = u as u32;
            buckets[i].fill += 1;
            state.due = offset(state.due as u64, t0 + w * window);
        }
        for bucket in &mut buckets {
            bucket.fill = 0;
        }
        DueWheel {
            t0,
            window,
            slots,
            head: 0,
            buckets,
            due: Vec::new(),
            refiled: Vec::new(),
        }
    }

    /// The instant window `w` starts.
    fn start(&self, w: u64) -> u64 {
        self.t0 + w * self.window
    }

    /// Unfiles every user whose window starts before `now_ns + window`
    /// into `due`, ascending by user index, with each one's `due` offset
    /// rebased onto `now_ns`. Emission order decides every frame's
    /// tiebreak `seq`, so it must not depend on filing order
    /// (`tests/wheel_oracle.rs` pins it against a scan over all users).
    ///
    /// An aggregate wakes only where it armed its timer, which is the
    /// start of the one window it drains, so the rebase writes nothing.
    fn drain(&mut self, now_ns: u64, users: &mut [UserState]) {
        let last = (now_ns + self.window - 1 - self.t0) / self.window;
        self.due.clear();
        while let Some(bucket) = self.buckets.front().copied().filter(|b| b.window <= last) {
            self.buckets.pop_front();
            let start = self.start(bucket.window);
            let filed = &self.slots[self.head..self.head + bucket.len as usize];
            self.head += bucket.len as usize;
            if start != now_ns {
                for &u in filed {
                    let state = &mut users[u as usize];
                    state.due = offset(due_at(start, state.due), now_ns);
                }
            }
            self.due.extend_from_slice(filed);
        }
        self.due.sort_unstable();
    }

    /// Queues user `u`, next due at `due_ns`, for [`DueWheel::refile`];
    /// returns the offset its record keeps.
    fn requeue(&mut self, u: u32, due_ns: u64) -> i32 {
        let w = window_index(self.t0, self.window, due_ns);
        self.refiled.push((w, u));
        offset(due_ns, self.start(w))
    }

    /// Files every requeued user under its window. They are a subset of
    /// what the drain took, so they fit in the slots it freed: the
    /// windows up to the last one that grows slide down into that gap,
    /// each leaving room for its new users, and the rest of the buffer
    /// stays where it is.
    fn refile(&mut self) {
        let added = self.refiled.len();
        if added == 0 {
            return;
        }
        for &(w, _) in &self.refiled {
            let i = bucket_of(&mut self.buckets, w);
            self.buckets[i].fill += 1;
        }
        let (mut from, mut to) = (self.head, self.head - added);
        self.head = to;
        let mut grown = 0;
        for bucket in self.buckets.iter_mut() {
            if to == from {
                break;
            }
            grown += 1;
            let len = bucket.len as usize;
            self.slots.copy_within(from..from + len, to);
            (from, to) = (from + len, to + len);
            let room = bucket.fill as usize;
            bucket.len += bucket.fill;
            bucket.fill = to as u32;
            to += room;
        }
        for &(w, u) in &self.refiled {
            let i = bucket_of(&mut self.buckets, w);
            let bucket = &mut self.buckets[i];
            self.slots[bucket.fill as usize] = u;
            bucket.fill += 1;
        }
        for bucket in self.buckets.range_mut(..grown) {
            bucket.fill = 0;
        }
        self.refiled.clear();
    }

    /// The windows still holding users, ascending.
    #[cfg(test)]
    fn pending_windows(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.window).collect()
    }
}

/// The position of `window`'s bucket, inserting an empty one if it has
/// none. The list grows by an eighth when full, not by doubling: the
/// first filing sizes it exactly, and at 16 bytes a window, doubling it
/// would cost a large aggregate more than its users' slots save.
fn bucket_of(buckets: &mut VecDeque<Bucket>, window: u64) -> usize {
    buckets
        .binary_search_by_key(&window, |b| b.window)
        .unwrap_or_else(|i| {
            if buckets.len() == buckets.capacity() {
                buckets.reserve_exact(buckets.len() / 8 + 1);
            }
            let empty = Bucket {
                window,
                len: 0,
                fill: 0,
            };
            buckets.insert(i, empty);
            i
        })
}

/// The index of the window of length `window` starting at `t0` that
/// `due_ns` falls in. A due time before `t0` (a boot-storm backlog) lands
/// in window 0.
fn window_index(t0: u64, window: u64, due_ns: u64) -> u64 {
    due_ns.saturating_sub(t0) / window
}

/// N modelled users behind one access port, as a single [`SimNode`].
///
/// The node owns no per-user allocations beyond the flat record column
/// and the wheel's filing buffer (plus the forged-frame queue of an
/// optional compromised user).
pub struct AggregateHostNode {
    slot: u16,
    base_user: u64,
    /// The traffic seed every user's RNG word is rebuilt from.
    seed: u64,
    gaps: ArrivalGaps,
    mode: AggregateMode,
    ft: FatTree,
    credit_max: u16,
    /// Every user's starting budget; `frames_per_user − remaining` is
    /// how many frames an uncompromised user has sent.
    frames_per_user: u32,
    users: Vec<UserState>,
    /// Modelled anti-replay windows, indexed by flow label (one byte, so
    /// at most 256 are reachable however many users there are).
    replay_win: Vec<u64>,
    /// Filed on the first wake.
    wheel: Option<DueWheel>,
    /// When the runner must arm the first timer (see
    /// [`AggregateHostNode::first_due_ns`]).
    first_wake_ns: Option<u64>,
    active: u64,
    arrivals: Rc<Cell<u64>>,
    sent_total: Rc<Cell<u64>>,
    compromised: Option<CompromisedState>,
}

impl AggregateHostNode {
    /// Builds the aggregate for host slot `slot`, modelling `users` users
    /// with global indices `base_user..base_user + users`. `arrivals` and
    /// `sent_total` are tallies the runner reads after the run (nodes
    /// live on the simulator's one thread, so a plain `Cell` serves).
    ///
    /// # Panics
    ///
    /// On a configuration a 16-byte user record cannot hold: an amortized
    /// window over 2^31 ns, a frame budget whose draws could pass `u32`,
    /// a boot-storm offset of 2^31 ns or more, or a user whose first
    /// frame is due at 2^31 ns or later (DESIGN §4i).
    pub fn new(
        cfg: &UserScaleConfig,
        ft: FatTree,
        slot: u16,
        base_user: u64,
        users: u64,
        arrivals: Rc<Cell<u64>>,
        sent_total: Rc<Cell<u64>>,
    ) -> Self {
        check_record_ranges(cfg, slot);
        let n = users as usize;
        let gaps = cfg.mix.gaps();
        let mut states = Vec::with_capacity(n);
        for u in 0..users {
            let g = base_user + u;
            let (mut rng, mut cursor) = cfg.mix.init_state(cfg.seed, g);
            // First frame at boot + the mix's initial offset: uniform
            // users start at boot (bit-identity with individual hosts),
            // heavy-tailed users idle before their first burst — without
            // the offset a million users' first frames would all land
            // inside the ~1.1 µs boot stagger and the event queue would
            // hold O(users) in-flight frames at once.
            let first = user_boot(g) + gaps.initial_gap_ns(&mut rng, &mut cursor);
            assert!(
                first < OFFSET_RANGE_NS,
                "userscale: user {g}'s first frame is due at {first} ns, past 2^31 ns, the range of a due offset"
            );
            states.push(UserState {
                draws: splitmix_draws(user_seed(cfg.seed, g), rng) as u32,
                due: first as i32,
                remaining: cfg.frames_per_user,
                cursor,
            });
        }
        let compromised = cfg.compromised.as_ref().and_then(|c| {
            if c.user < base_user || c.user >= base_user + users {
                return None;
            }
            let local = (c.user - base_user) as usize;
            states[local].remaining = c.frames;
            let mut flood_rng = SplitMix64::new(user_seed(cfg.seed, c.user) ^ 0xf100d);
            Some(CompromisedState {
                local,
                gap_ns: c.gap_ns,
                frames: digest_flood::forged_acks(c.frames, c.victim, 40_000, &mut flood_rng)
                    .into(),
            })
        });
        let live = || states.iter().filter(|s| s.remaining > 0);
        let active = live().count() as u64;
        // `Exact` first wakes at the earliest user's first due,
        // `Amortized` at once.
        let first_wake_ns = match cfg.mode {
            AggregateMode::Exact => live().map(|s| s.due as u64).min(),
            AggregateMode::Amortized { .. } => (active > 0).then_some(0),
        };
        AggregateHostNode {
            slot,
            base_user,
            seed: cfg.seed,
            gaps,
            mode: cfg.mode,
            ft,
            credit_max: cfg.credits_per_window.max(1),
            frames_per_user: cfg.frames_per_user,
            users: states,
            replay_win: vec![0; n.min(256)],
            wheel: None,
            first_wake_ns,
            active,
            arrivals,
            sent_total,
            compromised,
        }
    }

    /// Users this aggregate models.
    pub fn users(&self) -> u64 {
        self.users.len() as u64
    }

    /// Global index of this aggregate's first user (user `u` of the
    /// aggregate has global index `base_user() + u`).
    pub fn base_user(&self) -> u64 {
        self.base_user
    }

    /// Users that still hold unsent frames; the amortized timer re-arms
    /// while this is non-zero.
    pub fn active_users(&self) -> u64 {
        self.active
    }

    /// Delay (from sim start) of the first timer the runner must arm, or
    /// `None` when no user will ever transmit. `Exact` wakes at the
    /// earliest user's first due; `Amortized` wakes immediately. Either
    /// files its wheel on that wake.
    pub fn first_due_ns(&self) -> Option<u64> {
        self.first_wake_ns
    }

    /// Total set bits across the modelled per-user replay windows (tests
    /// use this to pin that delivery attribution really updates per-user
    /// flowlet state).
    pub fn replay_window_occupancy(&self) -> u64 {
        self.replay_win.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Where user `u`'s RNG word starts: it is `draws` steps past this.
    fn rng_start(&self, u: usize) -> u64 {
        user_seed(self.seed, self.base_user + u as u64)
    }

    /// Builds user `u`'s next frame: the fig19 2-reads-1-write register mix
    /// with the destination and flow label drawn from the user's own RNG
    /// word `rng` — the same draws, in the same order, as an individual
    /// per-host node. A compromised user pops its next forged control
    /// frame instead, before the mix reads its budget (which the attack
    /// set, not `frames_per_user`).
    fn build_frame(&mut self, u: usize, rng: &mut u64) -> FrameBytes {
        if let Some(c) = &mut self.compromised {
            if c.local == u {
                return FrameBytes::from(c.frames.pop_front().unwrap_or_default());
            }
        }
        let slots = self.ft.host_count();
        let mut dst = (splitmix_next(rng) % (slots as u64 - 1)) as u16;
        if dst >= self.slot {
            dst += 1;
        }
        let sent = self.frames_per_user - self.users[u].remaining;
        let len = if sent % 3 == 2 {
            WRITE_FRAME_BYTES
        } else {
            READ_FRAME_BYTES
        };
        let mut buf = [0u8; WRITE_FRAME_BYTES];
        buf[..2].copy_from_slice(&self.ft.host(dst).value().to_le_bytes());
        buf[2] = (splitmix_next(rng) & 0xff) as u8;
        FrameBytes::from_slice(&buf[..len])
    }

    /// Consumes one frame of user `u`'s budget and returns its next due:
    /// `from_ns` plus the user's next arrival gap, or `from_ns` itself
    /// once the budget is spent.
    fn advance(&mut self, u: usize, rng: &mut u64, from_ns: u64) -> u64 {
        let state = &mut self.users[u];
        state.remaining -= 1;
        if state.remaining == 0 {
            self.active -= 1;
            return from_ns;
        }
        let gap = match &self.compromised {
            Some(c) if c.local == u => c.gap_ns.max(1),
            _ => self.gaps.next_gap(rng, &mut state.cursor),
        };
        from_ns + gap
    }

    /// One wake, in either mode: drain the windows that start before the
    /// next wake, emit what is due in them, refile the users still live
    /// and re-arm.
    ///
    /// `Exact` is the wheel at 1-ns windows: each due user sends one frame
    /// at the wake instant, its next due counts from the wake, and the
    /// timer re-arms at the next non-empty window. `Amortized` sends
    /// every frame due inside the window, up to the credit cap, each with
    /// the delay that makes it arrive at its own due instant, and re-arms
    /// one window on while any user is live.
    fn wake(&mut self, now_ns: u64, out: &mut Outbox) {
        let (window, credit_max, exact) = match self.mode {
            AggregateMode::Exact => (1, 1, true),
            AggregateMode::Amortized { window_ns } => (window_ns.max(1), self.credit_max, false),
        };
        let window_end = now_ns + window;
        let mut wheel = self
            .wheel
            .take()
            .unwrap_or_else(|| DueWheel::filed(now_ns, window, &mut self.users));
        wheel.drain(now_ns, &mut self.users);
        // One pass of independent loads over the due users' records before
        // the emit loop, whose every step depends on the last: the cache
        // misses of a large aggregate overlap here instead of stalling
        // the emits one by one.
        let mut touched = 0;
        for &u in &wheel.due {
            touched ^= self.users[u as usize].due;
        }
        std::hint::black_box(touched);
        let mut sent = 0u64;
        for i in 0..wheel.due.len() {
            let u = wheel.due[i] as usize;
            let start = self.rng_start(u);
            let mut rng = splitmix_state(start, self.users[u].draws.into());
            let mut due = due_at(now_ns, self.users[u].due);
            let mut credits = credit_max;
            while self.users[u].remaining > 0 && due < window_end {
                if credits == 0 {
                    // Uplink backpressure: the rest of this user's stream
                    // is deferred to the next window.
                    due = window_end;
                    break;
                }
                credits -= 1;
                // A boot-storm wave starts the aggregate after some users'
                // first arrivals; that backlog drains at boot (delay 0) —
                // the burst a real staggered boot produces.
                let frame = self.build_frame(u, &mut rng);
                out.send_delayed(PortId::new(1), frame, due.saturating_sub(now_ns));
                sent += 1;
                due = self.advance(u, &mut rng, if exact { now_ns } else { due });
            }
            // `check_record_ranges` bounds a user's draws to u32.
            self.users[u].draws = splitmix_draws(start, rng) as u32;
            if self.users[u].remaining > 0 {
                self.users[u].due = wheel.requeue(u as u32, due);
            }
        }
        wheel.refile();
        let rearm = if exact {
            let next = wheel.buckets.front().map(|b| wheel.start(b.window));
            next.map(|at| at - now_ns)
        } else {
            (self.active > 0).then_some(window)
        };
        self.wheel = Some(wheel);
        self.sent_total.set(self.sent_total.get() + sent);
        if let Some(delay) = rearm {
            out.set_timer(SEND_TIMER, delay);
        }
    }
}

impl SimNode for AggregateHostNode {
    fn on_frame(&mut self, _now: SimTime, _ingress: PortId, payload: FrameBytes, _: &mut Outbox) {
        self.arrivals.set(self.arrivals.get() + 1);
        // Modelled per-user anti-replay window: attribute the delivery by
        // flow label and slide that user's 64-frame bitmap. (Delivered
        // scale frames carry no user field — attribution is a model, and
        // documented as such in DESIGN.md §4f.)
        let n = self.replay_win.len();
        if n > 0 && payload.len() >= 3 {
            let u = payload[2] as usize % n;
            self.replay_win[u] = (self.replay_win[u] << 1) | 1;
        }
    }

    fn on_timer(&mut self, now: SimTime, timer_id: u64, out: &mut Outbox) {
        if timer_id == SEND_TIMER {
            self.wake(now.as_ns(), out);
        }
    }
}

/// Result of one user-scale run.
#[derive(Clone, Copy, Debug)]
pub struct UserScaleRun {
    /// Total modelled users.
    pub users: u64,
    /// Aggregate nodes (one per host slot).
    pub aggregates: u16,
    /// Events processed (pops).
    pub events: u64,
    /// Frames the aggregates transmitted.
    pub frames_sent: u64,
    /// Frames that reached a destination aggregate.
    pub frames_delivered: u64,
    /// Final simulated clock in ns.
    pub sim_ns: u64,
    /// Wall-clock duration of the run in ns.
    pub wall_ns: u64,
    /// The simulator's drop taxonomy and event tallies (deterministic;
    /// identical across engines). `frames_sent == frames_delivered +
    /// stats.frames_undeliverable + stats.frames_tapped_dropped` accounts
    /// for every frame a completed run injected — no silent loss.
    pub stats: SimStats,
}

impl UserScaleRun {
    /// The deterministic portion of the run — identical across engines
    /// for a given mode.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (
            self.events,
            self.frames_sent,
            self.frames_delivered,
            self.sim_ns,
        )
    }

    /// Simulator throughput: events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Wall-clock cost per modelled user in ns — the number the bench
    /// tracks for near-constancy as `users` grows.
    pub fn ns_per_user(&self) -> f64 {
        self.wall_ns as f64 / self.users.max(1) as f64
    }

    /// Per-user cost normalized by simulated duration: ns of wall clock
    /// per modelled user per second of simulated time.
    pub fn ns_per_user_per_sim_sec(&self) -> f64 {
        self.ns_per_user() / (self.sim_ns.max(1) as f64 / 1e9)
    }
}

/// Distributes `users` over `slots` host slots: slot `s` models
/// `ceil` users when `s < users % slots`, else `floor`.
fn slot_span(users: u64, slots: u16, s: u16) -> (u64, u64) {
    let q = users / slots as u64;
    let rem = users % slots as u64;
    let s64 = s as u64;
    if s64 < rem {
        (s64 * (q + 1), q + 1)
    } else {
        (rem * (q + 1) + (s64 - rem) * q, q)
    }
}

/// What one run of the fabric produced, before an entry point shapes it.
pub(crate) struct FabricRun {
    pub(crate) report: RunReport,
    /// Per host slot: users modelled and frames transmitted.
    pub(crate) slots: Vec<(u64, u64)>,
    pub(crate) frames_delivered: u64,
}

/// The one fabric runner: forwarders plus one aggregate per host slot,
/// populated once and run on `engine`, with an optional registry and an
/// optional timeline export (back in `report.timeline`).
pub(crate) fn run_fabric(
    cfg: &UserScaleConfig,
    engine: Engine,
    registry: Option<Arc<Registry>>,
    export_interval_ns: Option<u64>,
) -> FabricRun {
    let ft = FatTree::new(cfg.k);
    let slots = ft.host_count();
    let arrivals = Rc::new(Cell::new(0));
    let sent: Vec<Rc<Cell<u64>>> = (0..slots).map(|_| Rc::new(Cell::new(0))).collect();
    let spans: Vec<(u64, u64)> = (0..slots).map(|s| slot_span(cfg.users, slots, s)).collect();
    // Boot-storm stagger: wave offsets added to each aggregate's first
    // timer.
    let storm = cfg.faults.as_ref().and_then(|p| p.boot_storm());

    let mut fabric = Workload::new(ft.build(cfg.latency_ns));
    if let Some(r) = registry {
        fabric.set_telemetry(r);
    }
    let routes = Rc::new(RouteTable::new(ft));
    for id in 1..=ft.switch_count() {
        let id = SwitchId::new(id);
        fabric.register_node(id, fabric_forwarder(routes.clone(), id, cfg.proc_ns));
    }
    for s in 0..slots {
        let (base, n) = spans[s as usize];
        let (arrivals, sent) = (arrivals.clone(), sent[s as usize].clone());
        let agg = AggregateHostNode::new(cfg, ft, s, base, n, arrivals, sent);
        if let Some(first) = agg.first_due_ns() {
            let boot_at = first + storm.map_or(0, |st| st.offset_for(s));
            fabric.schedule_timer(ft.host(s), SEND_TIMER, boot_at);
        }
        fabric.register_node(ft.host(s), Box::new(agg));
    }
    if let Some(plan) = &cfg.faults {
        fabric.set_fault_plan(plan.clone());
    }
    if let Some(interval_ns) = export_interval_ns {
        fabric.set_export_interval(interval_ns);
    }
    let report = fabric.run(engine);
    let sent = sent.iter().map(|c| c.get());
    FabricRun {
        report,
        slots: spans.iter().map(|&(_, n)| n).zip(sent).collect(),
        frames_delivered: arrivals.get(),
    }
}

/// Runs the user-scale workload on the given engine. With a registry the
/// run also publishes per-aggregate `userscale_users` / `userscale_frames_sent`
/// gauges (labelled `agg<slot>`) after completion, plus the simulator's own
/// instrumentation during it.
pub fn run_users_engine(
    cfg: &UserScaleConfig,
    engine: Engine,
    registry: Option<Arc<Registry>>,
) -> UserScaleRun {
    let run = run_fabric(cfg, engine, registry.clone(), None);
    if let Some(r) = &registry {
        for (s, &(users, sent)) in run.slots.iter().enumerate() {
            let label = format!("agg{s}");
            r.set_gauge_with("userscale_users", &label, users as i64);
            r.set_gauge_with("userscale_frames_sent", &label, sent as i64);
        }
    }
    UserScaleRun {
        users: cfg.users,
        aggregates: run.slots.len() as u16,
        events: run.report.events,
        frames_sent: run.slots.iter().map(|&(_, sent)| sent).sum(),
        frames_delivered: run.frames_delivered,
        sim_ns: run.report.now.as_ns(),
        wall_ns: run.report.wall_ns,
        stats: run.report.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaleload::frame_dst;
    use p4auth_netsim::sched::SchedulerKind;

    /// The aggregate of host slot 0 holding users `0..users`.
    fn test_aggregate(cfg: &UserScaleConfig, users: u64) -> AggregateHostNode {
        AggregateHostNode::new(
            cfg,
            FatTree::new(cfg.k),
            0,
            0,
            users,
            Rc::default(),
            Rc::default(),
        )
    }

    /// A million users are a million of these: 4 more bytes here are
    /// 4 MB more peak RSS on `fabric_wide`.
    #[test]
    fn a_user_record_is_16_bytes() {
        assert_eq!(size_of::<UserState>(), 16);
        assert_eq!(align_of::<UserState>(), 4);
    }

    #[test]
    fn emitted_frames_decode_with_the_scale_header_layout() {
        let cfg = UserScaleConfig::for_k(4, 16, 1);
        let ft = FatTree::new(4);
        let mut agg = AggregateHostNode::new(&cfg, ft, 3, 3, 1, Rc::default(), Rc::default());
        let mut rng = splitmix_state(agg.rng_start(0), agg.users[0].draws.into());
        let frame = agg.build_frame(0, &mut rng);
        let dst = frame_dst(&frame);
        assert_ne!(dst, ft.host(3), "a user never sends to its own slot");
        assert!((0..ft.host_count()).any(|h| ft.host(h) == dst));
        assert_eq!(frame.len(), READ_FRAME_BYTES);
    }

    #[test]
    fn amortized_mode_delivers_the_same_frames() {
        let scale_cfg = ScaleConfig::for_k(4, 12);
        let exact_cfg = UserScaleConfig::mirror_scale(&scale_cfg);
        let mut amortized_cfg = exact_cfg.clone();
        amortized_cfg.mode = AggregateMode::Amortized { window_ns: 1_000 };

        let exact = run_users_engine(
            &exact_cfg,
            Engine::Sequential(SchedulerKind::Calendar),
            None,
        );
        let amortized = run_users_engine(
            &amortized_cfg,
            Engine::Sequential(SchedulerKind::Calendar),
            None,
        );
        // Frames still *arrive* at their exact-mode instants (send_delayed
        // preserves due times), so deliveries and the final clock agree;
        // only the timer/event accounting differs.
        assert_eq!(amortized.frames_sent, exact.frames_sent);
        assert_eq!(amortized.frames_delivered, exact.frames_delivered);
        assert_eq!(amortized.sim_ns, exact.sim_ns);
        assert!(
            amortized.events < exact.events,
            "amortization must shed events"
        );
    }

    #[test]
    fn amortized_runs_are_deterministic_across_schedulers() {
        let cfg = UserScaleConfig::for_k(4, 1_000, 3);
        let heap = run_users_engine(&cfg, Engine::Sequential(SchedulerKind::Heap), None);
        let cal = run_users_engine(&cfg, Engine::Sequential(SchedulerKind::Calendar), None);
        assert_eq!(heap.fingerprint(), cal.fingerprint());
        assert_eq!(cal.frames_sent, 3_000);
        assert_eq!(cal.frames_delivered, 3_000);
        assert!(cal.users > cal.aggregates as u64, "users share aggregates");
    }

    #[test]
    fn credits_throttle_but_never_lose_frames() {
        let mut cfg = UserScaleConfig::for_k(4, 64, 8);
        cfg.mix = ArrivalMix::Uniform { gap_ns: 10 };
        cfg.mode = AggregateMode::Amortized { window_ns: 100 };
        let free = run_users_engine(&cfg, Engine::Sequential(SchedulerKind::Calendar), None);
        cfg.credits_per_window = 2;
        let throttled = run_users_engine(&cfg, Engine::Sequential(SchedulerKind::Calendar), None);
        assert_eq!(free.frames_sent, 64 * 8);
        assert_eq!(throttled.frames_sent, 64 * 8);
        assert_eq!(throttled.frames_delivered, 64 * 8);
        // Backpressure stretches the schedule out in sim time.
        assert!(throttled.sim_ns > free.sim_ns);

        // Window by window: 8 users all boot inside window 0 and have all
        // 8 frames due in it, so each wake emits exactly the 2 credits per
        // user, and every deferred user is refiled into exactly the next
        // window, until the fourth wake drains the last frames.
        let mut agg = test_aggregate(&cfg, 8);
        for wake in 0..4u64 {
            let mut out = Outbox::default();
            agg.on_timer(SimTime::from_ns(wake * 100), SEND_TIMER, &mut out);
            assert_eq!(out.frames().len(), 8 * 2, "wake {wake}");
            let wheel = agg.wheel.as_ref().expect("filed on the first wake");
            let filed = wheel.pending_windows();
            if wake < 3 {
                assert_eq!(filed, [wake + 1], "wake {wake}");
                assert_eq!(out.timers(), [(SEND_TIMER, 100)]);
            } else {
                assert!(filed.is_empty());
                assert!(out.timers().is_empty(), "nobody left to wake for");
            }
        }
        assert_eq!(agg.active_users(), 0);
    }

    #[test]
    fn timer_stops_when_the_last_live_user_finishes() {
        // One user, three frames 250 ns apart from boot at 1 ns, 100 ns
        // windows: frames in windows 0, 2 and 5, a wake in each of
        // 0..=5, none after.
        let mut cfg = UserScaleConfig::for_k(4, 1, 3);
        cfg.mix = ArrivalMix::Uniform { gap_ns: 250 };
        cfg.mode = AggregateMode::Amortized { window_ns: 100 };
        let mut agg = test_aggregate(&cfg, 1);
        let mut sent = Vec::new();
        for wake in 0..=5u64 {
            let mut out = Outbox::default();
            agg.on_timer(SimTime::from_ns(wake * 100), SEND_TIMER, &mut out);
            sent.push(out.frames().len());
            assert_eq!(out.timers().is_empty(), wake == 5, "wake {wake}");
        }
        assert_eq!(sent, [1, 0, 1, 0, 0, 1]);

        // The same through the simulator: aggregate 0 (user 0) fires
        // exactly those six timers and the run ends.
        let run = run_users_engine(&cfg, Engine::Sequential(SchedulerKind::Calendar), None);
        assert_eq!(run.frames_sent, 3);
        assert_eq!(run.stats.timers_fired, 6);
    }

    #[test]
    fn idle_aggregates_never_wake_or_file() {
        let silent = UserScaleConfig::for_k(4, 16, 0);
        for (cfg, users) in [(&silent, 5), (&UserScaleConfig::for_k(4, 16, 3), 0)] {
            let agg = test_aggregate(cfg, users);
            assert_eq!(agg.users(), users);
            assert_eq!(agg.active_users(), 0);
            assert_eq!(agg.first_due_ns(), None);
            assert!(agg.wheel.is_none());
        }
        let run = run_users_engine(&silent, Engine::Sequential(SchedulerKind::Calendar), None);
        assert_eq!((run.events, run.stats.timers_fired), (0, 0));
    }

    #[test]
    fn user_streams_ignore_aggregate_boundaries() {
        // The same 40 users run as 16 aggregates (fat-tree slots) and the
        // per-slot frame counts depend only on the ceil/floor split, while
        // totals are invariant across modes.
        let cfg = UserScaleConfig::for_k(4, 40, 4);
        let run = run_users_engine(&cfg, Engine::Sequential(SchedulerKind::Calendar), None);
        assert_eq!(run.frames_sent, 160);
        assert_eq!(run.aggregates, 16);
        // 40 users over 16 slots: 8 slots of 3, 8 slots of 2.
        let spans: Vec<u64> = (0..16).map(|s| slot_span(40, 16, s).1).collect();
        assert_eq!(spans.iter().sum::<u64>(), 40);
        assert_eq!(spans.iter().filter(|&&n| n == 3).count(), 8);
        // Spans tile the user range contiguously.
        let mut next = 0;
        for s in 0..16 {
            let (base, n) = slot_span(40, 16, s);
            assert_eq!(base, next);
            next = base + n;
        }
        assert_eq!(next, 40);
    }

    /// The §VII anchor: a digest flood sourced by ONE compromised user
    /// inside an aggregate — relayed onto the C-DP channel by the victim
    /// switch's compromised OS (§II-A) — still trips the controller's
    /// adaptive defence: one mitigation, the victim's local key rolls,
    /// and the detection-to-mitigation latency lands in telemetry.
    #[test]
    fn in_aggregate_digest_flood_still_trips_the_defence() {
        use crate::harness::Network;
        use p4auth_controller::{ControllerConfig, ControllerEvent, DefenceConfig};
        use p4auth_netsim::topology::Topology;

        let registry = Arc::new(Registry::with_event_capacity(2048));
        let mut net = Network::build(
            Topology::fat_tree_with_controller(4, 1_000, 200_000),
            1,
            ControllerConfig::default(),
            0xa66,
            |_| None,
            |_, c| c,
        );
        net.enable_telemetry(registry.clone());
        net.bootstrap_keys();
        net.enable_defence(DefenceConfig::default());
        let _ = net.take_events();

        // Host slot 0's access switch is the victim; its OS has the
        // modelled §II-A foothold.
        let ft = FatTree::new(4);
        let host = ft.host(0);
        let (_, victim_ep) = net
            .sim
            .topology()
            .deliver_target(host, PortId::new(1))
            .expect("host uplink exists");
        let victim = victim_ep.node;
        net.compromise_switch_os(victim);

        // 50 users behind the port; user 7 is compromised and floods
        // forged C-DP ACKs claiming to be the victim switch. The other 49
        // stay idle (frames_per_user = 0) so every reject the controller
        // counts is attributable to the flood.
        let mut cfg = UserScaleConfig::for_k(4, 50, 0);
        cfg.mode = AggregateMode::Exact;
        cfg.compromised = Some(CompromisedUser {
            user: 7,
            victim,
            frames: 8,
            gap_ns: 10_000,
        });
        let agg = AggregateHostNode::new(&cfg, ft, 0, 0, 50, Rc::default(), Rc::default());
        let first = agg.first_due_ns().expect("the compromised user is active");
        net.sim.register_node(host, Box::new(agg));
        net.sim.schedule_timer(host, SEND_TIMER, first);

        let start_ns = net.sim.now().as_ns();
        net.sim.run_until(SimTime::from_ns(start_ns + 200_000_000));

        let events = net.take_events();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. }))
                .count(),
            1,
            "one threshold crossing, one mitigation"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ControllerEvent::LocalKeyRolled(sw) if *sw == victim)),
            "the victim's local key must roll automatically"
        );
        let snap = registry.snapshot();
        let hist = snap
            .histogram("defence_mitigation_latency_ns", "replica0")
            .expect("detection latency recorded");
        assert_eq!(hist.count, 1);
        assert!(hist.min > 0, "latency measured in sim-ns");
    }

    /// A forged frame names no host of the tree, so the fabric cannot
    /// route it. It must still be accounted for: sent = delivered +
    /// undeliverable + tapped, with the eight forged frames undeliverable.
    #[test]
    fn unroutable_frames_are_counted_not_lost() {
        let mut cfg = UserScaleConfig::for_k(4, 50, 1);
        cfg.compromised = Some(CompromisedUser {
            user: 7,
            victim: FatTree::new(4).edge(0, 0),
            frames: 8,
            gap_ns: 10_000,
        });
        let run = run_users_engine(&cfg, Engine::REFERENCE, None);
        assert_eq!(run.frames_sent, 49 + 8);
        assert_eq!(run.frames_delivered, 49);
        assert_eq!(run.stats.frames_undeliverable, 8);
        assert_eq!(
            run.frames_sent,
            run.frames_delivered + run.stats.frames_undeliverable + run.stats.frames_tapped_dropped
        );
    }

    #[test]
    fn replay_windows_track_deliveries() {
        let cfg = UserScaleConfig::for_k(4, 8, 2);
        let mut agg = test_aggregate(&cfg, 8);
        assert_eq!(agg.replay_window_occupancy(), 0);
        for flow in [0u8, 0, 7] {
            let mut sim_out = Outbox::default();
            let frame = FrameBytes::from_slice(&[1, 0, flow, 9]);
            agg.on_frame(SimTime::from_ns(10), PortId::new(1), frame, &mut sim_out);
        }
        // Two deliveries attributed to user 0 (three window bits would mean
        // mis-attribution), one to user 7.
        assert_eq!(agg.replay_window_occupancy(), 3);

        // A flow label is one byte, so only 256 windows are reachable
        // however many users the aggregate models.
        let mut big = test_aggregate(&UserScaleConfig::for_k(4, 1_000, 1), 1_000);
        assert_eq!(big.replay_win.len(), 256);
        for flow in [0u8, 255, 255] {
            let frame = FrameBytes::from_slice(&[1, 0, flow, 9]);
            let mut sim_out = Outbox::default();
            big.on_frame(SimTime::from_ns(10), PortId::new(1), frame, &mut sim_out);
        }
        assert_eq!(big.replay_window_occupancy(), 3);
    }
}
