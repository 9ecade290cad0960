//! Differential oracle for the aggregate's due-window wheel, in both
//! modes.
//!
//! [`ScanAggregate`] is the pair of sweeps the wheel replaced, kept here as
//! the reference: flat per-user columns (a full RNG word and an absolute
//! due time per user) and a scan over *every* user on every wake, emitting
//! in ascending user order. `on_timer_amortized` is the amortized sweep;
//! `on_timer_exact` is the `Exact` sweep, which emitted one frame per due
//! user and re-armed at the earliest due (`min_due`). The wheel visits only
//! the users filed under the waking window and keeps a draw count and a
//! window offset per user, so the property is that nobody can tell: for
//! random arrival mixes, window lengths, credit caps, late first wakes and
//! an optional compromised user, both emit the identical
//! `(frame bytes, delay)` sequence on every wake, re-arm the timer with the
//! same delay and finish with the same number of live users.
//!
//! A second test pins the run-level consequence: a 100k-user amortized run
//! has the same fingerprint and [`SimStats`] on every engine.
//!
//! [`SimStats`]: p4auth_netsim::sim::SimStats

use p4auth_attacks::digest_flood;
use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::sim::{Outbox, SimNode};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::SplitMix64;
use p4auth_systems::scaleload::Engine;
use p4auth_systems::userscale::{
    run_users_engine, AggregateHostNode, AggregateMode, CompromisedUser, UserScaleConfig,
};
use p4auth_wire::ids::{PortId, SwitchId};
use p4auth_workloads::flows::{splitmix_next, user_seed, ArrivalGaps, ArrivalMix, HeavyTailed};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::rc::Rc;

const READ_FRAME_BYTES: usize = 34;
const WRITE_FRAME_BYTES: usize = 58;
const SEND_TIMER: u64 = 1;

/// One wake's emissions as `(frame bytes, processing delay)`, plus the
/// delay the aggregate re-armed its timer with, if it did.
type Wake = (Vec<(Vec<u8>, u64)>, Option<u64>);

/// The full-scan sweeps of both modes, structure-of-arrays, as they were
/// before the wheel.
struct ScanAggregate {
    slot: u16,
    gaps: ArrivalGaps,
    ft: FatTree,
    credit_max: u16,
    rng: Vec<u64>,
    next_due: Vec<u64>,
    remaining: Vec<u32>,
    seq: Vec<u32>,
    cursor: Vec<u32>,
    active: u64,
    /// `(local user, gap, forged frames)` of a compromised user.
    compromised: Option<(usize, u64, VecDeque<Vec<u8>>)>,
}

impl ScanAggregate {
    fn new(cfg: &UserScaleConfig, ft: FatTree, slot: u16, base_user: u64, users: u64) -> Self {
        let n = users as usize;
        let (mut rng, mut next_due) = (Vec::new(), Vec::new());
        let mut cursor = Vec::new();
        let gaps = cfg.mix.gaps();
        for g in base_user..base_user + users {
            let (mut word, mut pos) = cfg.mix.init_state(cfg.seed, g);
            let boot = 1 + (g % 97) * 11;
            next_due.push(boot + gaps.initial_gap_ns(&mut word, &mut pos));
            rng.push(word);
            cursor.push(pos);
        }
        let mut remaining = vec![cfg.frames_per_user; n];
        let compromised = cfg
            .compromised
            .filter(|c| (base_user..base_user + users).contains(&c.user))
            .map(|c| {
                let local = (c.user - base_user) as usize;
                remaining[local] = c.frames;
                let mut flood_rng = SplitMix64::new(user_seed(cfg.seed, c.user) ^ 0xf100d);
                let frames = digest_flood::forged_acks(c.frames, c.victim, 40_000, &mut flood_rng);
                (local, c.gap_ns, frames.into())
            });
        ScanAggregate {
            slot,
            gaps,
            ft,
            credit_max: cfg.credits_per_window.max(1),
            rng,
            next_due,
            active: remaining.iter().filter(|&&r| r > 0).count() as u64,
            remaining,
            seq: vec![0; n],
            cursor,
            compromised,
        }
    }

    fn build_frame(&mut self, u: usize) -> Vec<u8> {
        if let Some((local, _, frames)) = &mut self.compromised {
            if *local == u {
                return frames.pop_front().unwrap_or_default();
            }
        }
        let slots = self.ft.host_count();
        let mut dst = (splitmix_next(&mut self.rng[u]) % (slots as u64 - 1)) as u16;
        if dst >= self.slot {
            dst += 1;
        }
        let len = if self.seq[u] % 3 == 2 {
            WRITE_FRAME_BYTES
        } else {
            READ_FRAME_BYTES
        };
        self.seq[u] += 1;
        let mut buf = [0u8; WRITE_FRAME_BYTES];
        buf[..2].copy_from_slice(&self.ft.host(dst).value().to_le_bytes());
        buf[2] = (splitmix_next(&mut self.rng[u]) & 0xff) as u8;
        buf[..len].to_vec()
    }

    fn advance(&mut self, u: usize, from_ns: u64) {
        self.remaining[u] -= 1;
        if self.remaining[u] == 0 {
            self.active -= 1;
            return;
        }
        let gap = match &self.compromised {
            Some((local, gap_ns, _)) if *local == u => (*gap_ns).max(1),
            _ => self.gaps.next_gap(&mut self.rng[u], &mut self.cursor[u]),
        };
        self.next_due[u] = from_ns + gap;
    }

    fn on_timer_amortized(&mut self, now_ns: u64, window_ns: u64) -> Wake {
        let window_end = now_ns + window_ns.max(1);
        let mut batch = Vec::new();
        for u in 0..self.rng.len() {
            let mut credits = self.credit_max;
            while self.remaining[u] > 0 && self.next_due[u] < window_end {
                if credits == 0 {
                    self.next_due[u] = window_end;
                    break;
                }
                credits -= 1;
                let due = self.next_due[u];
                let frame = self.build_frame(u);
                batch.push((frame, due.saturating_sub(now_ns)));
                self.advance(u, due);
            }
        }
        (batch, (self.active > 0).then_some(window_ns.max(1)))
    }

    fn min_due(&self) -> Option<u64> {
        (0..self.rng.len())
            .filter(|&u| self.remaining[u] > 0)
            .map(|u| self.next_due[u])
            .min()
    }

    fn on_timer_exact(&mut self, now_ns: u64) -> Wake {
        let mut batch = Vec::new();
        for u in 0..self.rng.len() {
            if self.remaining[u] > 0 && self.next_due[u] <= now_ns {
                let frame = self.build_frame(u);
                batch.push((frame, 0));
                self.advance(u, now_ns);
            }
        }
        (batch, self.min_due().map(|min| min - now_ns))
    }
}

/// Wakes the production aggregate once and returns what it queued.
fn wake(agg: &mut AggregateHostNode, now_ns: u64) -> Wake {
    let mut out = Outbox::default();
    agg.on_timer(SimTime::from_ns(now_ns), SEND_TIMER, &mut out);
    let frames = out
        .frames()
        .iter()
        .map(|(port, payload, delay)| {
            assert_eq!(*port, PortId::new(1), "aggregates send on the uplink");
            (payload.to_vec(), *delay)
        })
        .collect();
    assert!(out.timers().len() <= 1, "an aggregate arms one timer");
    let rearm = out.timers().first().map(|&(id, delay)| {
        assert_eq!(id, SEND_TIMER);
        delay
    });
    (frames, rearm)
}

fn aggregate(cfg: &UserScaleConfig, slot: u16, base_user: u64, users: u64) -> AggregateHostNode {
    AggregateHostNode::new(
        cfg,
        FatTree::new(cfg.k),
        slot,
        base_user,
        users,
        Rc::default(),
        Rc::default(),
    )
}

/// Drives both implementations wake by wake from `first_wake_ns` until the
/// reference stops re-arming; returns the total frames emitted.
fn assert_wheel_matches_scan(
    cfg: &UserScaleConfig,
    slot: u16,
    base_user: u64,
    users: u64,
    first_wake_ns: u64,
) -> u64 {
    let AggregateMode::Amortized { window_ns } = cfg.mode else {
        panic!("the wheel only serves amortized aggregates");
    };
    let mut scan = ScanAggregate::new(cfg, FatTree::new(cfg.k), slot, base_user, users);
    let mut wheel = aggregate(cfg, slot, base_user, users);
    assert_eq!(wheel.active_users(), scan.active);
    let mut now = first_wake_ns;
    let mut emitted = 0u64;
    for n in 0u64.. {
        assert!(n < 5_000_000, "aggregate never drained");
        let want = scan.on_timer_amortized(now, window_ns);
        let got = wake(&mut wheel, now);
        assert_eq!(got, want, "wake {n} at {now} ns");
        assert_eq!(wheel.active_users(), scan.active, "wake {n} at {now} ns");
        emitted += want.0.len() as u64;
        let Some(delay) = want.1 else { break };
        now += delay;
    }
    assert_eq!(wheel.active_users(), 0);
    emitted
}

/// Drives both `Exact` implementations from a first wake `late_ns` after
/// the earliest first due (a boot-storm wave), then at every instant the
/// reference re-arms for, until it stops; returns the total frames
/// emitted.
fn assert_exact_matches_scan(
    cfg: &UserScaleConfig,
    slot: u16,
    base_user: u64,
    users: u64,
    late_ns: u64,
) -> u64 {
    assert_eq!(cfg.mode, AggregateMode::Exact);
    let mut scan = ScanAggregate::new(cfg, FatTree::new(cfg.k), slot, base_user, users);
    let mut wheel = aggregate(cfg, slot, base_user, users);
    assert_eq!(wheel.active_users(), scan.active);
    assert_eq!(wheel.first_due_ns(), scan.min_due());
    let Some(first) = scan.min_due() else {
        return 0;
    };
    let mut now = first + late_ns;
    let mut emitted = 0u64;
    for n in 0u64.. {
        assert!(n < 5_000_000, "aggregate never drained");
        let want = scan.on_timer_exact(now);
        let got = wake(&mut wheel, now);
        assert_eq!(got, want, "wake {n} at {now} ns");
        assert_eq!(wheel.active_users(), scan.active, "wake {n} at {now} ns");
        emitted += want.0.len() as u64;
        let Some(delay) = want.1 else { break };
        now += delay;
    }
    assert_eq!(wheel.active_users(), 0);
    emitted
}

/// One of the three arrival mixes, shaped by `shape` and `window_ns`.
fn mix(kind: u8, window_ns: u64, shape: &[u64]) -> ArrivalMix {
    match kind {
        0 => ArrivalMix::Uniform {
            gap_ns: 1 + window_ns / (8 + shape[0]),
        },
        1 => ArrivalMix::HeavyTailed(HeavyTailed {
            burst_max: 64,
            idle_mean_ns: shape[0] * 40,
            ..HeavyTailed::default()
        }),
        // Gaps of thousands of windows: the wheel must carry far future
        // windows without visiting the empty ones between.
        _ => ArrivalMix::Trace(
            shape
                .iter()
                .map(|g| window_ns * (1_000 + g))
                .collect::<Vec<_>>()
                .into(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wheel_emits_exactly_what_the_full_scan_emits(
        mix_kind in 0u8..3,
        window_ns in 20u64..20_000,
        shape in proptest::collection::vec(1u64..5_000, 1..6),
        credits in 1u16..4,
        (users, frames_per_user) in (1u64..70, 1u32..7),
        (slot, base_user) in (0u16..16, 0u64..1_000),
        // Users boot within 1.1 µs, so a first wake up to 3 µs in leaves
        // some, all or none of them with a backlog.
        first_wake_ns in 0u64..3_000,
        seed: u64,
        compromised in (any::<bool>(), any::<u64>(), 1u32..6, 1u64..30_000),
    ) {
        let mut cfg = UserScaleConfig::for_k(4, users, frames_per_user);
        cfg.seed = seed;
        cfg.mode = AggregateMode::Amortized { window_ns };
        cfg.mix = mix(mix_kind, window_ns, &shape);
        if mix_kind == 0 {
            // Gap far below the window: only the credit cap ends a
            // user's turn, so every window defers users to the next.
            cfg.credits_per_window = credits;
        }
        let (is_compromised, pick, frames, gap_ns) = compromised;
        if is_compromised {
            cfg.compromised = Some(CompromisedUser {
                user: base_user + pick % users,
                victim: SwitchId::new(1),
                frames,
                gap_ns,
            });
        }
        let emitted = assert_wheel_matches_scan(&cfg, slot, base_user, users, first_wake_ns);
        let honest = users - u64::from(is_compromised);
        prop_assert_eq!(
            emitted,
            honest * u64::from(frames_per_user) + if is_compromised { u64::from(frames) } else { 0 }
        );
    }

    /// `Exact` is the wheel at 1-ns windows: one frame per due user per
    /// wake, the next due counted from the wake, the timer re-armed at
    /// the earliest live due. Idle users (a zero budget) and a late first
    /// wake, whose backlog files at negative offsets, are both drawn.
    #[test]
    fn exact_wheel_emits_exactly_what_the_full_scan_emits(
        mix_kind in 0u8..3,
        gap_scale in 20u64..20_000,
        shape in proptest::collection::vec(1u64..5_000, 1..6),
        (users, frames_per_user) in (1u64..70, 0u32..7),
        (slot, base_user) in (0u16..16, 0u64..1_000),
        late_ns in prop_oneof![Just(0u64), 0u64..3_000],
        seed: u64,
        compromised in (any::<bool>(), any::<u64>(), 1u32..6, 1u64..30_000),
    ) {
        let mut cfg = UserScaleConfig::for_k(4, users, frames_per_user);
        cfg.seed = seed;
        cfg.mode = AggregateMode::Exact;
        cfg.mix = mix(mix_kind, gap_scale, &shape);
        let (is_compromised, pick, frames, gap_ns) = compromised;
        if is_compromised {
            cfg.compromised = Some(CompromisedUser {
                user: base_user + pick % users,
                victim: SwitchId::new(1),
                frames,
                gap_ns,
            });
        }
        let emitted = assert_exact_matches_scan(&cfg, slot, base_user, users, late_ns);
        let honest = users - u64::from(is_compromised);
        prop_assert_eq!(
            emitted,
            honest * u64::from(frames_per_user) + if is_compromised { u64::from(frames) } else { 0 }
        );
    }
}

#[test]
fn boot_storm_backlog_drains_at_delay_zero_in_user_order() {
    // Uniform users are due at their boot instants (1..=1057 ns); an
    // aggregate first woken at 2 µs owes every one of them a frame.
    let mut cfg = UserScaleConfig::for_k(4, 120, 1);
    cfg.mix = ArrivalMix::Uniform { gap_ns: 500 };
    cfg.mode = AggregateMode::Amortized { window_ns: 1_000 };
    let mut agg = aggregate(&cfg, 2, 40, 120);
    let (frames, rearm) = wake(&mut agg, 2_000);
    assert_eq!(frames.len(), 120);
    assert!(frames.iter().all(|(_, delay)| *delay == 0));
    assert_eq!(rearm, None, "every user had one frame");

    // Ascending user order: the scan emits the same bytes in the same order.
    let mut scan = ScanAggregate::new(&cfg, FatTree::new(4), 2, 40, 120);
    assert_eq!(scan.on_timer_amortized(2_000, 1_000).0, frames);
}

#[test]
fn amortized_100k_users_are_engine_invariant() {
    let mut cfg = UserScaleConfig::for_k(4, 100_000, 1);
    if let ArrivalMix::HeavyTailed(ht) = &mut cfg.mix {
        ht.idle_mean_ns *= 10;
    }
    cfg.mode = AggregateMode::Amortized { window_ns: 30_000 };
    let reference = run_users_engine(&cfg, Engine::REFERENCE, None);
    assert_eq!(reference.frames_sent, 100_000);
    assert_eq!(reference.frames_delivered, 100_000);
    for engine in Engine::DIFFERENTIAL {
        let run = run_users_engine(&cfg, engine, None);
        let label = engine.label();
        assert_eq!(run.fingerprint(), reference.fingerprint(), "{label}");
        assert_eq!(run.stats, reference.stats, "{label}");
    }
}
