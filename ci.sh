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
#   5. cargo clippy -D warnings — every target of every workspace crate
#      is clippy-clean, including the `[workspace.lints]` deny-set
#      (`unwrap_used`, `dbg_macro`, `todo`, `unsafe_code`)
#   6. cargo bench --no-run   — criterion benches stay compiling
#   7. perfbench self-tests   — the benchmark (own package under
#      perfbench/) builds against this tree and passes its tiny-scale
#      self-tests, so a change to `Device` or the core exports that
#      breaks the benchmark fails the gate
#   8. report --fast paper ablations extensions throughput scaling
#      chaos overload — one smoke of every report artifact at its small
#      configuration: the paper's evaluation, ablations and extensions
#      at SF 0.1, and the four substrate harnesses (BENCH_PR2-5) with
#      engines on an instant disk profile and no pacing (the same
#      `run(true)` their unit tests run); fails if any check fails
#      (plans agree, Example 1's scan reads in physical order and Simple
#      seeks more, shared scan == independent plans, export walk ==
#      scan, reference and indexed queues agree, zero page copies,
#      parallel == sequential, zero wrong answers, chaos scenarios pass,
#      deterministic shedding, p99 bounded); writes no artifact
#   9. report all, simulated identity — the full paper evaluation, run in
#      a fresh temporary directory, must write PAPER.json, ABLATIONS.json
#      and EXTENSIONS.json byte for byte equal to the committed files
#      (every cell is simulated, so any drift is a cost-model change that
#      must regenerate them on purpose)
set -euo pipefail
cd "$(dirname "$0")"
root=$(pwd)

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> pathix-lint check"
cargo run -q -p pathix-lint -- check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run (compile gate)"
cargo bench --no-run --workspace

echo "==> perfbench self-tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> report artifact smoke (fast mode)"
cargo run -q --release -p pathix-bench --bin report -- --fast paper ablations extensions throughput scaling chaos overload

echo "==> report all: simulated artifacts reproduce byte for byte"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
(cd "$out" && cargo run -q --release --manifest-path "$root/Cargo.toml" -p pathix-bench --bin report -- all >/dev/null)
for name in PAPER ABLATIONS EXTENSIONS; do
  cmp "$out/$name.json" "$root/$name.json"
done

echo "ci: all gates passed"
