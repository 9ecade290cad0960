//! A child with a known profile for the sampler's test: `hot` does four
//! times the work of `cool`, in alternating calls.

use std::hint::black_box;

#[inline(never)]
fn hot(n: u64) -> u64 {
    let mut x = 0u64;
    for i in 0..n {
        x = black_box(x.wrapping_mul(31).wrapping_add(i));
    }
    x
}

#[inline(never)]
fn cool(n: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..n {
        x = black_box(x.wrapping_mul(17) ^ i);
    }
    x
}

fn main() {
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let mut acc = 0u64;
    for _ in 0..rounds {
        acc ^= hot(4_000_000) ^ cool(1_000_000);
    }
    println!("{acc}");
}
