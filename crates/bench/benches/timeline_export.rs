//! Timeline-export overhead: the fat-tree scale workload uninstrumented
//! vs. with periodic sim-clock delta capture at 1 ms and 10 ms export
//! intervals.
//!
//! The workload spans ~12.5 ms of sim-time (500 frames/host, one every
//! 25 µs), so the 1 ms grid captures ~12 boundaries and the 10 ms grid
//! one — bracketing the recorder's cost from "snapshots every window"
//! down to "almost never". The recorder only touches the hot path via
//! one branch per pop plus a registry snapshot per crossed boundary, so
//! the instrumented runs should stay within a few percent of baseline.
//!
//! Run `cargo run -p p4auth-bench --bin repro -- timeline` for the
//! deterministic timeline report itself.

use criterion::{criterion_group, Criterion};
use p4auth_bench::scale::{run_scale_engine, run_scale_timeline, Engine, ScaleConfig};

fn config() -> ScaleConfig {
    ScaleConfig {
        k: 4,
        latency_ns: 1_500,
        proc_ns: 500,
        frames_per_host: 500,
        interval_ns: 25_000,
        seed: 0x7e1e_5c0e,
    }
}

fn bench(c: &mut Criterion) {
    let cfg = config();
    let engine = Engine::REFERENCE;
    let mut group = c.benchmark_group("timeline_export");
    group.bench_function("uninstrumented", |b| {
        b.iter(|| run_scale_engine(cfg, engine, None).events)
    });
    for (label, interval_ns) in [("export_1ms", 1_000_000u64), ("export_10ms", 10_000_000)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (run, timeline) = run_scale_timeline(cfg, engine, interval_ns);
                (run.events, timeline.entries.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
