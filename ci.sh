#!/usr/bin/env bash
# Pre-merge gate for the pathix workspace. Run from the repository root:
#
#   ./ci.sh
#
# Stages, in order (each must pass before the next runs):
#   1. cargo fmt --check      — formatting is canonical
#   2. cargo build --release  — the workspace compiles with optimizations
#   3. cargo test -q          — the tier-1 test suite: the root package and
#      every first-party crate (`default-members` in Cargo.toml); only
#      the vendored stand-ins under vendor/ stay out
#   4. pathix-lint check      — the R1-R7 architectural invariants
#      (I/O confinement, determinism, panic-freedom, layering,
#      concurrency confinement, fault containment, governor
#      confinement; see DESIGN.md "Statically enforced invariants")
#   5. cargo bench --no-run   — criterion benches stay compiling
#   6. report throughput --fast — throughput smoke (instant disk profile,
#      small document; does not overwrite BENCH_PR2.json)
#   7. report scaling --fast  — parallel batch smoke (2 workers, instant
#      profile; cross-checks parallel == sequential and zero page copies;
#      does not overwrite BENCH_PR3.json)
#   8. report chaos --fast    — fault-injection smoke (every chaos
#      scenario at reduced scale: transient storms heal, permanent
#      faults abort cleanly, zero wrong answers; does not overwrite
#      BENCH_PR4.json)
#   9. report overload --fast — admission-control smoke (open-loop
#      ramp at reduced scale: deterministic shedding, zero wrong
#      answers, p99 sim-latency bounded by the hard deadline; does
#      not overwrite BENCH_PR5.json)
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> pathix-lint check"
cargo run -q -p pathix-lint -- check

echo "==> cargo bench --no-run (compile gate)"
cargo bench --no-run --workspace

echo "==> throughput smoke (fast mode)"
cargo run -q --release -p pathix-bench --bin report -- throughput --fast

echo "==> parallel batch smoke (fast mode)"
cargo run -q --release -p pathix-bench --bin report -- scaling --fast

echo "==> chaos smoke (fast mode)"
cargo run -q --release -p pathix-bench --bin report -- chaos --fast

echo "==> overload smoke (fast mode)"
cargo run -q --release -p pathix-bench --bin report -- overload --fast

echo "ci: all gates passed"
