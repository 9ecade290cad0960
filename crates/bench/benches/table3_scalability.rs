//! Table III — P4Auth key-management scalability: per-operation message
//! and byte counts, the aggregate `4m+5n` / `2m+3n` controller load, and
//! the §XI ONOS example — cross-checked against the *simulated* message
//! counts of an actual bootstrap.

use criterion::{criterion_group, Criterion};
use p4auth_controller::ControllerConfig;
use p4auth_netsim::topology::Topology;
use p4auth_systems::harness::Network;

fn print_table() {
    p4auth_bench::report::table3();
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3");
    group.sample_size(10);
    group.bench_function("bootstrap_chain4", |b| {
        b.iter(|| {
            let mut net = Network::build(
                Topology::chain(4, 50_000, 200_000),
                1,
                ControllerConfig::default(),
                0x7ab3,
                |_| None,
                |_, c| c,
            );
            net.bootstrap_keys()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_table();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
