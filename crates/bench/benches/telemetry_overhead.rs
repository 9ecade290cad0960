//! Telemetry overhead — the cost the metrics registry adds to the hot
//! data-plane request path.
//!
//! Runs the Fig. 18 register read/write loop three times: on a bare
//! agent, with a registry attached whose event log is on (`instrumented`:
//! every packet bumps counters, records two histogram samples and typed
//! events), and with the trace log on as well (`traced`: every verify
//! also leaves a span). The deltas are what one agent pays per request
//! to be observed.
//!
//! Measured on the 2-core reference box (`P4AUTH_BENCH_MS=1500`; the
//! median over every read and write reading of three runs before and
//! five after — it is a shared machine and single readings swing 10 %):
//!
//! | arm            | before PR 24    | since PR 24     |
//! |----------------|-----------------|-----------------|
//! | `bare`         | 472 ns          | 479 ns          |
//! | `instrumented` | 575 ns (+22 %)  | 521 ns (+9 %)   |
//! | `traced`       | 630 ns (+33 %)  | 551 ns (+15 %)  |
//!
//! Not "low single-digit percent", and not free: a request that costs
//! ≈ 480 ns pays ≈ 40 ns for its counters, histogram samples and events
//! and ≈ 30 ns more for its span. DESIGN §4h has the per-record prices.

use std::sync::Arc;

use criterion::{criterion_group, Criterion};
use p4auth_core::agent::{AgentConfig, P4AuthSwitch};
use p4auth_dataplane::register::RegisterArray;
use p4auth_primitives::mac::HalfSipHashMac;
use p4auth_primitives::Key64;
use p4auth_telemetry::Registry;
use p4auth_wire::body::RegisterOp;
use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;

fn print_figure() {
    println!("================================================================");
    println!("  telemetry overhead — fig18 register-RW loop, bare vs. instrumented vs. traced");
    println!("  reproduces: observability-cost check (ROADMAP telemetry item)");
    println!("================================================================");
}

/// An agent observed by a registry with these `(event, trace)`
/// capacities, or by nothing.
fn build(telemetry: Option<(usize, usize)>) -> P4AuthSwitch {
    let reg = RegId::new(7);
    let config = AgentConfig::new(SwitchId::new(1), 2, Key64::new(1)).map_register(reg, "r");
    let mut sw = P4AuthSwitch::new(config, None);
    sw.chassis_mut()
        .declare_register(RegisterArray::new("r", 4, 64));
    if let Some((events, spans)) = telemetry {
        // Bounded buffers, same shape the systems harness uses; both
        // rings wrap during the run, which is exactly the steady state we
        // want to price.
        sw.set_telemetry(Arc::new(Registry::with_capacities(events, spans)));
    }
    sw.install_key(PortId::CPU, Key64::new(0xbe4c_4e11));
    sw
}

/// Times the authenticated register read/write path with and without the
/// telemetry registry attached.
fn bench(c: &mut Criterion) {
    let reg = RegId::new(7);
    let key = Key64::new(0xbe4c_4e11);
    let mac = HalfSipHashMac::default();

    let mut group = c.benchmark_group("telemetry_overhead");
    for (name, telemetry) in [
        ("bare", None),
        ("instrumented", Some((1024, 0))),
        ("traced", Some((1024, 65536))),
    ] {
        for (dir, op) in [
            ("read", RegisterOp::read_req(reg, 0)),
            ("write", RegisterOp::write_req(reg, 0, 42)),
        ] {
            let mut sw = build(telemetry);
            let mut seq = 0u32;
            group.bench_function(format!("{name}/{dir}"), |b| {
                b.iter(|| {
                    seq += 1;
                    let msg = Message::register_request(SwitchId::CONTROLLER, SeqNum::new(seq), op)
                        .sealed(&mac, key);
                    sw.on_packet(0, PortId::CPU, &msg.encode())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_figure();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
