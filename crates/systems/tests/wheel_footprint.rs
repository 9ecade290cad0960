//! The amortized aggregate costs what it holds: its user records and its
//! due-window wheel.
//!
//! A counting global allocator measures both through the aggregate's own
//! construction and wakes. Building an aggregate of N users may allocate
//! at most one 16-byte record per user beside its fixed parts: the record
//! is the `fabric_wide` workload's largest buffer, so a byte added to it
//! is a megabyte of peak RSS there. Filing N users on the first wake may
//! keep at most 4 bytes per user, 16 per non-empty window and the drain
//! buffer, and may hold no per-user scratch on the way: a million users'
//! wheel must stay as compact as a 4-byte link per user, and each user's
//! first due becomes its window offset in place, in the record. A wheel
//! with growable per-window buffers breaks that bound, since each
//! buffer's spare capacity and header are paid for every window. Then a
//! refile-heavy loop of wakes may allocate nothing once it has warmed up:
//! refiled users go back into the slots their drain freed.

use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sim::{Outbox, SimNode};
use p4auth_netsim::time::SimTime;
use p4auth_systems::userscale::{AggregateHostNode, AggregateMode, UserScaleConfig};
use p4auth_telemetry::alloc::{allocations, live_bytes, peak_bytes, reset_peak, CountingAlloc};
use p4auth_wire::ids::PortId;
use p4auth_workloads::flows::{ArrivalMix, HeavyTailed};
use std::collections::BTreeMap;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEND_TIMER: u64 = 1;

fn aggregate(cfg: &UserScaleConfig) -> AggregateHostNode {
    AggregateHostNode::new(
        cfg,
        FatTree::new(cfg.k),
        0,
        0,
        cfg.users,
        Default::default(),
        Default::default(),
    )
}

/// Users per non-empty window of a first wake at 0 ns, from the same
/// draws the aggregate makes (boot stagger plus the mix's first gap).
fn first_windows(cfg: &UserScaleConfig, window_ns: u64) -> BTreeMap<u64, u64> {
    let gaps = cfg.mix.gaps();
    let mut windows = BTreeMap::new();
    for g in 0..cfg.users {
        let (mut rng, mut cursor) = cfg.mix.init_state(cfg.seed, g);
        let first = 1 + (g % 97) * 11 + gaps.initial_gap_ns(&mut rng, &mut cursor);
        *windows.entry(first / window_ns).or_insert(0) += 1;
    }
    windows
}

/// Wakes `agg` at `now_ns`; returns the allocations the wake made beyond
/// those of the outbox it filled (measured by refilling a fresh outbox
/// with the same sends and timers).
fn wheel_allocations(agg: &mut AggregateHostNode, now_ns: u64) -> u64 {
    let before = allocations();
    let mut out = Outbox::default();
    agg.on_timer(SimTime::from_ns(now_ns), SEND_TIMER, &mut out);
    let wake = allocations() - before;
    let frames = out.frames().to_vec();
    let timers = out.timers().to_vec();
    drop(out);
    let before = allocations();
    let mut replay = Outbox::default();
    for (port, frame, delay) in frames {
        replay.send_delayed(port, frame, delay);
    }
    for (id, delay) in timers {
        replay.set_timer(id, delay);
    }
    let outbox = allocations() - before;
    drop(replay);
    wake - outbox
}

/// The 64,000-user aggregate both bounds below measure.
fn wide_config(window_ns: u64) -> UserScaleConfig {
    let mut cfg = UserScaleConfig::for_k(8, 64_000, 1);
    cfg.mode = AggregateMode::Amortized { window_ns };
    if let ArrivalMix::HeavyTailed(ht) = &mut cfg.mix {
        ht.idle_mean_ns = 4_000_000;
    }
    cfg
}

fn construction_bound() {
    let cfg = wide_config(10_000);
    let before = live_bytes();
    reset_peak();
    let agg = aggregate(&cfg);
    let peak = peak_bytes() - before;
    let kept = live_bytes() - before;
    // The fixed parts: one 8-byte replay window per flow label (at most
    // 256 of them), the two tally cells `aggregate` hands in, and slack.
    let users = cfg.users;
    let bound = 16 * users + 8 * 256 + 2 * 24 + 64;
    println!("built {users} users: kept {kept} B, peak {peak} B (bound {bound} B)");
    assert!(
        peak <= bound,
        "building {users} users peaked at {peak} B > {bound} B"
    );
    drop(agg);
}

fn filing_bound() {
    let window_ns = 10_000;
    let cfg = wide_config(window_ns);
    let windows = first_windows(&cfg, window_ns);
    let due = windows.get(&0).copied().unwrap_or(0).max(4);
    let mut agg = aggregate(&cfg);

    let before = live_bytes();
    reset_peak();
    let mut out = Outbox::default();
    agg.on_timer(SimTime::from_ns(0), SEND_TIMER, &mut out);
    let peak = peak_bytes() - before;
    // What the wake's outbox may hold: its two lists at no more than
    // twice their length.
    let outbox = 2 * out.frames().len().max(4) * size_of::<(PortId, FrameBytes, u64)>()
        + 2 * out.timers().len().max(4) * size_of::<(u64, u64)>();
    drop(out);
    let kept = live_bytes() - before;

    let (users, buckets) = (cfg.users, windows.len() as u64);
    let bound = 4 * users + 16 * buckets + 4 * due + 64;
    println!(
        "filed {users} users in {buckets} windows: kept {kept} B (bound {bound} B), peak {peak} B"
    );
    assert!(
        kept <= bound,
        "filing {users} users in {buckets} windows kept {kept} B > {bound} B"
    );
    // On the way, filing may hold per-window scratch, but nothing per user
    // beyond what it keeps (a sort of 16-byte keys would add 1 MB here).
    assert!(
        peak <= bound + 64 * buckets + outbox as u64,
        "filing {users} users in {buckets} windows peaked at {peak} B"
    );
}

fn refiles_stop_allocating() {
    // Fabric-deep pacing: bursts 200 ns apart, 40 µs idle, 10 µs windows,
    // so every wake drains users and refiles most of them.
    let heavy = {
        let mut cfg = UserScaleConfig::for_k(4, 500, 5_000);
        cfg.mix = ArrivalMix::HeavyTailed(HeavyTailed::default());
        cfg
    };
    // A gap far below the window and a 2-frame credit cap: every user is
    // due in every window and deferred to the next.
    let deferred = {
        let mut cfg = UserScaleConfig::for_k(4, 500, 5_000);
        cfg.mix = ArrivalMix::Uniform { gap_ns: 100 };
        cfg.credits_per_window = 2;
        cfg
    };
    for (name, cfg) in [("heavy-tailed", heavy), ("credit-deferred", deferred)] {
        let AggregateMode::Amortized { window_ns } = cfg.mode else {
            unreachable!("for_k is amortized");
        };
        let mut agg = aggregate(&cfg);
        let (warm_up, measured) = (300u64, 1_000u64);
        for wake in 0..warm_up {
            wheel_allocations(&mut agg, wake * window_ns);
        }
        let allocated: u64 = (warm_up..warm_up + measured)
            .map(|wake| wheel_allocations(&mut agg, wake * window_ns))
            .sum();
        assert!(agg.active_users() > 0, "{name}: the loop ran out of users");
        assert_eq!(
            allocated, 0,
            "{name}: {measured} wakes after warm-up allocated {allocated} times"
        );
    }
}

// One test, so no other thread of this binary allocates while it counts.
#[test]
fn a_user_keeps_16_bytes_of_record_and_4_of_wheel_and_stops_allocating() {
    construction_bound();
    filing_bound();
    refiles_stop_allocating();
}
