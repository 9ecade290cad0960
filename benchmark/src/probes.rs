//! Per-layer probes: one public call of one layer in a loop, mean ns per
//! call. They run inside the traced run, on inputs drawn from the run's
//! seed (the wire, MAC and chassis probes use the first
//! [`PROBE_INPUTS`] request frames of the `auth_rw` stream).

use crate::adapt::{
    self, ChassisProbe, FatTreeProbe, KdfProbe, MacProbe, SchedProbe, TelemetryProbe,
};
use crate::alloc;
use crate::stats::Rng;
use crate::workloads;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const PROBE_INPUTS: u64 = 4096;

/// Calls `f(0..batch)` over and over until `min` has passed; mean ns per
/// call.
fn ns_per_call(min: Duration, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for i in 0..batch {
            f(i);
        }
        calls += batch as u64;
        let elapsed = start.elapsed();
        if elapsed >= min {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Runs every probe and adds its metric to `out`.
pub fn run(seed: u64, quick: bool, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let min = Duration::from_millis(if quick { 5 } else { 200 });
    let mut rng = Rng::new(seed ^ 0x00b5_0be5);

    // ---- wire, primitives (MAC), dataplane: auth_rw's own frames
    let frames = workloads::auth_rw_frames(seed, PROBE_INPUTS)?;
    let n = frames.len();
    let msgs: Vec<_> = frames
        .iter()
        .map(|f| adapt::wire_decode(f).ok_or("a request frame did not decode"))
        .collect::<Result<_, _>>()?;
    out.insert(
        "wire.decode_ns",
        ns_per_call(min, n, |i| {
            black_box(adapt::wire_decode(black_box(&frames[i])));
        }),
    );
    out.insert(
        "wire.encode_ns",
        ns_per_call(min, n, |i| {
            black_box(adapt::wire_encode(black_box(&msgs[i])));
        }),
    );
    let allocs_before = alloc::allocs();
    for (frame, msg) in frames.iter().zip(&msgs) {
        black_box(adapt::wire_decode(frame));
        black_box(adapt::wire_encode(msg));
    }
    out.insert(
        "wire.codec_allocs",
        (alloc::allocs() - allocs_before) as f64 / n as f64,
    );

    let inputs: Vec<Vec<u8>> = msgs.iter().map(adapt::digest_input).collect();
    let digests: Vec<u32> = msgs.iter().map(adapt::wire_digest).collect();
    let key = rng.next();
    let mac = MacProbe::new();
    out.insert(
        "primitives.mac_ns",
        ns_per_call(min, n, |i| {
            black_box(mac.compute(key, black_box(&inputs[i])));
        }),
    );
    let mut chassis = ChassisProbe::new(64);
    let mut refused = 0u64;
    out.insert(
        "dataplane.process_ns",
        ns_per_call(min, n, |i| {
            let read = chassis.process(key, &frames[i], &inputs[i], digests[i]);
            refused += u64::from(read.is_none());
        }),
    );
    if refused > 0 {
        return Err(format!("the chassis refused {refused} probe programs"));
    }

    // ---- primitives (key management)
    let kdf = KdfProbe::new();
    let salts: Vec<u64> = (0..n).map(|_| rng.next()).collect();
    out.insert(
        "primitives.kdf_ns",
        ns_per_call(min, n, |i| {
            black_box(kdf.derive(key, black_box(salts[i])));
        }),
    );
    let mut disagreed = 0u64;
    out.insert(
        "primitives.dh_exchange_ns",
        ns_per_call(min, 64, |i| {
            disagreed += u64::from(!kdf.dh_exchange(salts[i]));
        }),
    );
    if disagreed > 0 {
        return Err(format!(
            "{disagreed} ADHKD exchanges derived different keys"
        ));
    }

    // ---- telemetry
    let tel = TelemetryProbe::new();
    out.insert(
        "telemetry.counter_inc_ns",
        ns_per_call(min, n, |_| tel.counter_inc()),
    );
    out.insert(
        "telemetry.histogram_record_ns",
        ns_per_call(min, n, |i| tel.histogram_record(salts[i] >> 40)),
    );
    out.insert(
        "telemetry.event_record_ns",
        ns_per_call(min, n, |i| tel.event_record(i as u64)),
    );
    out.insert(
        "telemetry.span_ns",
        ns_per_call(min, n, |i| tel.span(i as u64)),
    );
    out.insert(
        "telemetry.snapshot_ns",
        ns_per_call(min, 8, |_| {
            black_box(tel.snapshot());
        }),
    );

    // ---- netsim
    // Event density is the same at every depth (one event per 16 ns of
    // simulated time, ~64 per calendar bucket): a deeper queue reaches
    // further into the future, as more users at a fixed offered load do.
    let depths: [(&str, usize); 3] = [
        ("netsim.sched_hold_ns_1k", 1_000),
        ("netsim.sched_hold_ns_100k", 100_000),
        ("netsim.sched_hold_ns_1m", 1_000_000),
    ];
    for (name, depth) in depths {
        let depth = if quick { depth / 50 + 1 } else { depth };
        let horizon = 32 * depth as u64;
        let mut fill = rng.clone();
        let mut sched = SchedProbe::new(depth, || fill.below(horizon));
        let leads: Vec<u64> = (0..n).map(|_| 1_000 + rng.below(horizon)).collect();
        out.insert(
            name,
            ns_per_call(min, n, |i| {
                black_box(sched.hold(leads[i]));
            }),
        );
        if sched.len() != depth {
            return Err(format!("{name}: resident depth drifted to {}", sched.len()));
        }
    }
    let bounces = if quick { 20_000 } else { 1_000_000 };
    let mut events = 0u64;
    let per_run = ns_per_call(min, 1, |_| events = adapt::ping_pong(bounces));
    if events < bounces {
        return Err(format!(
            "ping-pong ran {events} events for {bounces} bounces"
        ));
    }
    out.insert("netsim.dispatch_ns", per_run / events as f64);

    let tree = FatTreeProbe::new();
    let hops: Vec<(u16, u16, u64)> = (0..n)
        .map(|_| {
            (
                rng.below(u64::from(tree.switches())) as u16,
                rng.below(u64::from(tree.hosts())) as u16,
                rng.next(),
            )
        })
        .collect();
    out.insert(
        "netsim.next_hop_ns",
        ns_per_call(min, n, |i| {
            let (switch, host, flow) = hops[i];
            black_box(tree.next_hop(switch, host, flow));
        }),
    );
    let wire_sized = [[0x5au8; 34].as_slice(), [0xa5u8; 58].as_slice()];
    out.insert(
        "netsim.framebytes_ns",
        ns_per_call(min, n, |i| {
            black_box(adapt::frame_bytes(black_box(wire_sized[i % 2])));
        }),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_number() {
        let mut out = BTreeMap::new();
        run(3, true, &mut out).unwrap();
        assert_eq!(out.len(), 18);
        for (name, v) in out {
            // No allocation counting in tests: that one may be zero.
            assert!(v > 0.0 || name == "wire.codec_allocs", "{name} = {v}");
        }
    }

    #[test]
    fn ns_per_call_divides_by_the_calls_made() {
        let mut calls = 0u64;
        let ns = ns_per_call(Duration::from_millis(2), 10, |_| calls += 1);
        assert!(calls >= 10 && calls.is_multiple_of(10));
        assert!(ns > 0.0 && ns * calls as f64 >= 2e6);
    }
}
