#!/usr/bin/env bash
# Checks the benchmark package itself (CI files stay untouched):
#
#   check.sh         fmt --check, clippy -D warnings, tests, then a --quick
#                    smoke of all five workloads at 1/50 size, traced too
#   check.sh agree   two full sets of runs; fails if any end-to-end metric
#                    disagrees by more than its bound, if a set's spread
#                    exceeds it, or if an exact count differs (~30 min)
#
# Builds into the repository's git-ignored target/ directory.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo_() { cargo "$1" --offline --manifest-path "$manifest" "${@:2}"; }
bench() { cargo_ run --release --quiet --target-dir target -- "$@"; }

if [ "${1:-}" = agree ]; then
    bench agree "${@:2}"
    exit
fi

cargo fmt --manifest-path "$manifest" -- --check
cargo_ clippy --release --target-dir target --all-targets -- -D warnings
cargo_ test --release --target-dir target
bench run --quick --reps 1 --seconds 0.2 --traced
ls -l benchmark/out/
