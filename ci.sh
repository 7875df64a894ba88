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
#      the vendored stand-ins under vendor/ stay out. It includes
#      pathix-bench's `fast_goldens` test, which runs every report artifact
#      at its small configuration (the paper's evaluation, ablations and
#      extensions at SF 0.1, CHAOS and OVERLOAD on an instant disk
#      profile), fails if any of its checks fails, and diffs it cell by
#      cell against its committed golden under crates/bench/golden/
#   4. the oracle, deep       — tests/oracle.rs's random cases at 10,000
#      (PROPTEST_CASES) in release: every execution path against the
#      reference evaluator, far past tier-1's 48 cases
#   5. pathix-lint check      — the R1-R9 architectural invariants
#      (I/O confinement, determinism, panic-freedom, layering,
#      concurrency confinement, fault containment, governor
#      confinement, `unsafe` only in storage's checksum.rs, `_NS` cost
#      constants only in storage's cost.rs; see
#      DESIGN.md "Statically enforced invariants")
#   6. cargo clippy -D warnings — every target of every workspace crate
#      is clippy-clean, including the `[workspace.lints]` deny-set
#      (`unwrap_used`, `dbg_macro`, `todo`, `unsafe_code`,
#      `undocumented_unsafe_blocks`)
#   7. cargo doc -D warnings  — the API docs of every workspace crate build
#      without warnings: no broken or private intra-doc links
#   8. perfbench self-tests   — the benchmark (own package under
#      perfbench/) builds against this tree and passes its tiny-scale
#      self-tests, so a change to `Device` or the core exports that
#      breaks the benchmark fails the gate
#   9. examples and the CLI   — every program under examples/ is built in
#      release and runs to exit 0 (`cargo test` only compiles them); the
#      release `pathix` CLI stops quietly (exit 0, nothing on stderr) when
#      its reader closes the pipe early (`gen --scale 0.1 | head -c 100`),
#      and `info --scale 1` imports SF 1 and prints its known page count,
#      border edges and record bytes
#  10. report all chaos overload, simulated identity — every artifact in
#      full mode, run in a fresh temporary directory, must write
#      PAPER.json, ABLATIONS.json, EXTENSIONS.json, CHAOS.json and
#      OVERLOAD.json byte for byte equal to the committed files (every
#      cell is simulated time, a count or an outcome, so any drift is a
#      cost-model change that must regenerate them on purpose); on a
#      mismatch, `report diff` first names every moved cell
#  11. the tree as found      — `git status --porcelain` and a hash of
#      `git diff`, taken before stage 1, are unchanged: no stage may write
#      into the tree (a blessed golden, an artifact written in place)
set -euo pipefail
cd "$(dirname "$0")"
root=$(pwd)

# perfbench/Cargo.lock is left out by name: every benchmark build rewrites
# it (stage 8), because it still lists the deleted vendored parking_lot
# (the FOUND note on perfbench/Cargo.lock in CHANGES.md), until the
# benchmark's next change commits the pruned lock.
tree_state() {
  git status --porcelain -- . ':(exclude)perfbench/Cargo.lock'
  git diff -- . ':(exclude)perfbench/Cargo.lock' | sha256sum
}
tree_before=$(tree_state)

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> the oracle at 10,000 random cases (release)"
PROPTEST_CASES=10000 cargo test --release --offline --test oracle

echo "==> pathix-lint check"
cargo run -q -p pathix-lint -- check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> perfbench self-tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> examples and the CLI: each runs to exit 0"
cargo build -q --release --examples
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "--> $name"
  "./target/release/examples/$name" >/dev/null
done
echo "--> pathix gen --scale 0.1 | head -c 100"
gen_err=$( { ./target/release/pathix gen --scale 0.1 | head -c 100 >/dev/null; } 2>&1 )
if [ -n "$gen_err" ]; then
  echo "$gen_err"
  exit 1
fi
echo "--> pathix info --scale 1"
info=$(./target/release/pathix info --scale 1 2>&1)
for want in "pages:        1092" "border edges: 3844" "record bytes: 7848603 "; do
  if ! grep -qF "$want" <<<"$info" || grep -q panicked <<<"$info"; then
    echo "$info"
    echo "pathix info --scale 1: expected \`$want\`"
    exit 1
  fi
done

echo "==> report all chaos overload: every artifact reproduces byte for byte"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
(cd "$out" && cargo run -q --release --manifest-path "$root/Cargo.toml" -p pathix-bench --bin report -- all chaos overload >/dev/null)
for name in PAPER ABLATIONS EXTENSIONS CHAOS OVERLOAD; do
  if ! cmp -s "$out/$name.json" "$root/$name.json"; then
    echo "$name.json moved (committed → this tree):"
    cargo run -q --release --manifest-path "$root/Cargo.toml" -p pathix-bench --bin report -- \
      diff "$root/$name.json" "$out/$name.json" || true
  fi
  cmp "$out/$name.json" "$root/$name.json"
done

echo "==> the gate left the tree as it found it"
tree_after=$(tree_state)
if [ "$tree_after" != "$tree_before" ]; then
  echo "the tree changed during the gate (before → after):"
  diff <(echo "$tree_before") <(echo "$tree_after") || true
  exit 1
fi

echo "ci: all gates passed"
