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
#   6. perfbench self-tests   — the benchmark (own package under
#      perfbench/) builds against this tree and passes its tiny-scale
#      self-tests, so a change to `Device` or the core exports that
#      breaks the benchmark fails the gate
#   7. report --fast throughput scaling chaos overload — one smoke of
#      the four substrate harnesses (BENCH_PR2-5) at their small
#      configurations (engines on an instant disk profile, no pacing,
#      the same `run(true)` their unit tests run); fails if any harness
#      check fails (reference and indexed queues agree, zero page copies,
#      parallel == sequential, zero wrong answers, chaos scenarios pass,
#      deterministic shedding, p99 bounded); writes no artifact
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

echo "==> perfbench self-tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> substrate harness smoke (fast mode)"
cargo run -q --release -p pathix-bench --bin report -- --fast throughput scaling chaos overload

echo "ci: all gates passed"
