#!/usr/bin/env bash
# Tier-1 verification: formatting, lints, release build, full test suite.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release build, the example runs and the scale gate
#
# Scope notes: fmt/clippy run only on the fedsched crates and the exp_perf
# benchmark package — vendor/ holds minimal offline stand-ins for external
# crates (see vendor/README.md) and is exempt from style enforcement.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

FEDSCHED_CRATES=(
  -p fedsched
  -p fedsched-core
  -p fedsched-profiler
  -p fedsched-device
  -p fedsched-net
  -p fedsched-faults
  -p fedsched-bandit
  -p fedsched-robust
  -p fedsched-data
  -p fedsched-nn
  -p fedsched-fl
  -p fedsched-parallel
  -p fedsched-telemetry
  -p fedsched-bench
  -p fedsched-serve
)

echo "==> cargo fmt --check (fedsched crates)"
cargo fmt --check "${FEDSCHED_CRATES[@]}"

echo "==> cargo clippy -D warnings (fedsched crates, all targets)"
cargo clippy -q "${FEDSCHED_CRATES[@]}" --all-targets -- -D warnings

# --lib: the root package's `fedsched-serve` binary would collide with the
# `fedsched-serve` library's doc output.
echo "==> cargo doc -D warnings (fedsched crates, libraries)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --lib "${FEDSCHED_CRATES[@]}"

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

# Tier-1: the root package plus every fedsched crate in the workspace's
# default-members (all but fedsched-bench, whose suite runs below).
echo "==> cargo test -q"
cargo test -q

# The tier-1 run checks Fed-LBAP's heap-merge threshold against the paper's
# sorted binary search on 512 instances; this runs the same oracle deeper.
echo "==> Fed-LBAP threshold oracle at 3,000 cases (release)"
PROPTEST_CASES=3000 cargo test -q --release -p fedsched-core threshold_matches_sorted_search_oracle

# The tier-1 run checks the round core against its lockstep oracle (every
# legacy fault family, drift, deadlines) on 32 instances; this runs it deeper.
echo "==> round core vs lockstep oracle at 1,000 cases (release)"
PROPTEST_CASES=1000 cargo test -q --release -p fedsched-fl --lib event_core_matches_lockstep_oracle

# golden_trace replays the table-1 goldens through `Host::Hier` and
# `Host::Coordinator` on the default pool, so the width reaches it too.
echo "==> differential and golden suites at forced pool widths"
for threads in 4 8; do
  for suite in parallel_identity builder_identity coordinator_identity \
               robust_identity event_identity hier_identity bandit_identity \
               golden_trace; do
    FEDSCHED_THREADS=$threads cargo test -q -p fedsched --test "$suite"
  done
  FEDSCHED_THREADS=$threads cargo test -q -p fedsched-serve --test resume_identity
done

echo "==> experiment smoke tests (fedsched-bench)"
cargo test -q -p fedsched-bench

echo "==> benchmark package (exp_perf): fmt --check, clippy -D warnings, tests incl. the all-workload smoke"
cargo fmt --check --manifest-path exp_perf/Cargo.toml
cargo clippy -q --manifest-path exp_perf/Cargo.toml --all-targets -- -D warnings
cargo test -q --manifest-path exp_perf/Cargo.toml

if [[ "$QUICK" -eq 0 ]]; then
  # Every example is seeded, so two runs must print the same bytes.
  echo "==> examples: release build, each run twice, captures compared byte for byte"
  cargo build -q --release --examples
  runs=target/example-runs
  mkdir -p "$runs"
  for src in examples/*.rs; do
    name=$(basename "$src" .rs)
    for pass in 1 2; do
      "./target/release/examples/$name" > "$runs/$name.$pass"
    done
    cmp "$runs/$name.1" "$runs/$name.2"
  done

  echo "==> hierarchy scale smoke (thread invariance at 1k; arena-vs-scalar at 100k; 1M through HierEngine; budgets)"
  cargo run -q --release -p fedsched-bench --bin exp_scale -- --hier-check
fi

echo "==> verify OK"
