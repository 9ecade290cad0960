//! Registration costs what a series keeps.
//!
//! A fleet set-up registers a couple of thousand `(name, label)` series,
//! most of them per switch, and several subsystems register the same
//! series again to share it. A counting global allocator holds
//! [`Registry`] to this:
//!
//! * registering a `(name, label)` that exists allocates nothing;
//! * a new series allocates its `Arc` handle and its label (none for the
//!   empty label), and its family's name once, when the family is new;
//! * the lookup tables grow by doubling, so all the rest is a few
//!   allocations per doubling of the series count.
//!
//! A registry that keys series by owned `(String, String)` pairs allocates
//! both strings on every call, repeat or not, and fails here.

use p4auth_telemetry::alloc::{allocations, CountingAlloc};
use p4auth_telemetry::Registry;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

/// Allocations a handful of doubling tables may make while `n` items
/// arrive: one per doubling each, up to `2n` slots.
fn growth(tables: u64, n: u64) -> u64 {
    tables * (u64::BITS - (2 * n).leading_zeros()) as u64
}

#[test]
fn registration_allocates_only_what_a_new_series_keeps() {
    let r = Registry::new();
    let labels: Vec<String> = (1..=1_000).map(|i| format!("s{i}")).collect();

    // New series of one family: handle and label each, the name once.
    let n = labels.len() as u64;
    let new_labeled = allocs(|| {
        for label in &labels {
            r.counter_with("auth_verify_ok", label);
        }
    });
    // Series, series index and family tables, plus the family name.
    assert!(
        (2 * n + 1..=2 * n + 1 + growth(3, n)).contains(&new_labeled),
        "{n} new labeled series made {new_labeled} allocations"
    );

    // New families, unlabeled: handle and name each.
    let names: Vec<String> = (0..200).map(|i| format!("family_{i}")).collect();
    let f = names.len() as u64;
    let new_families = allocs(|| {
        for name in &names {
            r.gauge(name);
        }
    });
    assert!(
        (2 * f..=2 * f + growth(4, f)).contains(&new_families),
        "{f} new families made {new_families} allocations"
    );

    // Repeats, of every kind: nothing.
    r.histogram_with("register_op_ns", "s1");
    let repeats = allocs(|| {
        for label in &labels {
            r.counter_with("auth_verify_ok", label).inc();
            r.set_gauge_with("family_7", "", 3);
            r.histogram_with("register_op_ns", "s1").record(5);
        }
        for name in &names {
            r.gauge(name);
        }
    });
    assert_eq!(repeats, 0, "repeat registrations allocated");
    assert_eq!(r.counter_total("auth_verify_ok"), n);
}
