#!/usr/bin/env bash
# Workspace gate: formatting, lints, tests. Run before every push.
#
# Usage: scripts/check.sh [--offline]
#
# Any argument is forwarded to cargo (the CI container builds with
# --offline against the vendored shims).

set -euo pipefail
cd "$(dirname "$0")/.."
CARGO_ARGS=("$@")

# timed_gate LABEL BUDGET_SECS FAILURE PACKAGE TARGET [ARG...]
#
# Build one release target of PACKAGE and run it with ARGs under a
# wall-clock budget, stdout where the caller sends it (stderr discarded
# with GATE_STDERR set to /dev/null). TARGET is a binary's name, or
# `test:NAME` for the
# integration test `tests/NAME.rs`. `timeout` enforces the budget, so a
# throughput regression fails the gate instead of silently slowing CI
# down: exit 124 is reported as a blown budget, any other failure as
# "LABEL FAILURE", and either ends the script with that status.
timed_gate() {
  local label=$1 budget=$2 failure=$3 package=$4 target=$5 status=0
  local -a run
  shift 5
  case $target in
    test:*)
      run=(cargo test "${CARGO_ARGS[@]}" --release -q -p "$package" --test "${target#test:}")
      "${run[@]}" --no-run
      ;;
    *)
      cargo build "${CARGO_ARGS[@]}" --release -q -p "$package" --bin "$target"
      run=("./target/release/$target")
      ;;
  esac
  timeout "$budget" "${run[@]}" "$@" 2>"${GATE_STDERR:-/dev/stderr}" || status=$?
  if [ "$status" -eq 124 ]; then
    echo "$label exceeded the ${budget}s wall-clock budget" >&2
  elif [ "$status" -ne 0 ]; then
    echo "$label $failure (exit $status)" >&2
  fi
  [ "$status" -eq 0 ] || exit "$status"
}

echo "== cargo fmt --check" >&2
cargo fmt --all -- --check

echo "== cargo clippy -D warnings" >&2
cargo clippy "${CARGO_ARGS[@]}" --workspace --all-targets -- -D warnings

echo "== cargo doc (broken intra-doc links are errors)" >&2
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc "${CARGO_ARGS[@]}" --workspace --no-deps

echo "== cargo test" >&2
cargo test "${CARGO_ARGS[@]}" --workspace -q

echo "== examples (each one runs to a zero exit, debug build)" >&2
# `cargo test` builds the examples but runs none of them, and
# `tcp_call` is the only run of a caller and a relay over real TCP
# outside the tests. Each takes a few milliseconds; `verify` is left out:
# it takes over two minutes in a debug build, and the campaign gate below
# runs its checker.
for src in examples/*.rs; do
  name=$(basename "$src" .rs)
  [ "$name" = verify ] && continue
  status=0
  timeout 60 "./target/debug/examples/$name" >/dev/null || status=$?
  if [ "$status" -ne 0 ]; then
    echo "example $name failed (exit $status)" >&2
    exit "$status"
  fi
done

echo "== benchmark self-test (unit tests + --quick smoke of every workload)" >&2
# The benchmark is a package of its own and the instrument every
# performance claim is judged by: its smoke run applies each workload's
# output checks (zero frames shed or retransmitted among them), so a
# change that breaks it fails here rather than in the measurement.
# Building it rewrites a stale entry of its lock file (the benchmark-only
# re-baseline commits the fix): the copy set aside here goes back after
# the run, pass or fail, so a check leaves the tree as it found it.
mkdir -p target
cp benchmark/Cargo.lock target/benchmark-Cargo.lock
status=0
cargo test "${CARGO_ARGS[@]}" --release --manifest-path benchmark/Cargo.toml || status=$?
cp target/benchmark-Cargo.lock benchmark/Cargo.lock
[ "$status" -eq 0 ] || exit "$status"

echo "== storm allocation budget (exact-repeat counts, optimized build)" >&2
# Allocations per storm and bytes per built box are counts, not timings:
# the debug run above and this release run must both land on the pinned
# values, so a layout regression fails here whatever the host's speed.
timed_gate "storm allocation budget" "${ALLOC_BUDGET_SECS:-120}" "was exceeded" \
  ipmedia-bench test:storm_allocs >/dev/null

echo "== exploration memory budget (exact-repeat counts, optimized build)" >&2
# The checker's peak bytes per state, allocations per transition, the
# bytes its graph keeps and the states it rebuilds from rows, pinned the
# same way: a state rebuilt that no step needed, or a successor copied into
# fresh buffers, fails here.
timed_gate "exploration memory budget" "${ALLOC_BUDGET_SECS:-120}" "was exceeded" \
  ipmedia-mck test:footprint >/dev/null

echo "== publish cost (bytes per round trip at 8 and at 512 slots, optimized build)" >&2
# What an `rt` node allocates for one mid-call round trip, pinned the same
# way: a snapshot publish that scales with the slots a node holds rather
# than the slots an event touched fails here by an order of magnitude.
timed_gate "publish cost" "${ALLOC_BUDGET_SECS:-120}" "was exceeded" \
  ipmedia-rt test:publish_cost >/dev/null

echo "== rt socket tests (optimized build)" >&2
# `cargo test` runs these in debug only, and deployments and the benchmark
# run this code optimized: the shared transport, the slot cap, connection
# recovery and the dial budgets over real sockets, each file under a
# 120 s budget.
for test in transport slot_cap recovery tcp_stack; do
  timed_gate "rt $test" 120 "failed" ipmedia-rt "test:$test" >/dev/null
done

echo "== executor handoffs (the tokio stand-in's lost-wake tests, optimized build)" >&2
# A push that reaches no worker, or readiness that no worker polls, makes
# `shims/tokio/tests/executor.rs` hang rather than fail: under a 60 s
# budget (the tests take about 2 s) that hang is a failure, not a stuck CI.
timed_gate "executor handoffs" 60 "failed" tokio test:executor >/dev/null

echo "== socket readiness (the tokio stand-in's lost-edge tests, optimized build)" >&2
# Each socket is armed once, edge-triggered: an edge the reactor drops is
# never reported again, so `shims/tokio/tests/readiness.rs` hangs rather
# than fails on one. Its tests time themselves out at 5-60 s; the 60 s
# budget (the file takes well under a second) catches what they miss.
timed_gate "socket readiness" 60 "failed" tokio test:readiness >/dev/null

echo "== ipmedia-lint (static analysis over all example models)" >&2
# All passes (AZ1xx–AZ6xx) at deny level, parallel with deterministic
# output: any finding fails the gate.
cargo run "${CARGO_ARGS[@]}" -q -p ipmedia-analyze --bin ipmedia-lint -- \
  --all-examples --deny warnings --threads "$(nproc)"

echo "== verified manifest round trip (lint fingerprints -> live monitor)" >&2
# The registry lints clean, so its emitted manifest marks every scenario
# verified: the monitor must accept the whole registry under it, and must
# flag the same stream as IM401 under an empty manifest — proving the
# unverified-model path can actually fire.
MONITOR_BUDGET_SECS="${MONITOR_BUDGET_SECS:-120}"
mkdir -p target/lint_gate
cargo run "${CARGO_ARGS[@]}" -q -p ipmedia-analyze --bin ipmedia-lint -- \
  --all-examples --emit-manifest target/lint_gate/verified-manifest.txt
timed_gate "monitor" "$MONITOR_BUDGET_SECS" "rejected the freshly verified manifest" \
  ipmedia-bench ipmedia-monitor --verified-manifest target/lint_gate/verified-manifest.txt >/dev/null
if timeout "$MONITOR_BUDGET_SECS" ./target/release/ipmedia-monitor \
  --verified-manifest /dev/null >/dev/null 2>/dev/null; then
  echo "monitor accepted an unverified model stream (IM401 did not fire)" >&2
  exit 1
fi

# The two committed artifacts hold only what their step decides (verdicts,
# counts, virtual-time latencies), nothing read from a clock or the host:
# each step below rewrites its file, and the last step demands the bytes
# that were committed.
DECIDED=(BENCH_fuzz.json BENCH_chaos.json)
rm -rf target/bench_committed
mkdir -p target/bench_committed
cp "${DECIDED[@]}" target/bench_committed/

echo "== differential fuzz (registry + generator -> analyzer <-> checker oracle)" >&2
# The registry scenarios, then a fixed-seed slice of generated ones,
# through the round-trip, soundness (analyzer clean => no mck
# counterexample) and completeness oracles. Any divergence prints its
# delta-minimized .ipm reproducer on stderr; the JSONL records are
# BENCH_fuzz.json.
timed_gate "fuzz campaign" "${FUZZ_BUDGET_SECS:-300}" \
  "found analyzer<->checker divergences" \
  ipmedia-analyze ipmedia-lint --fuzz 2000 --jsonl --threads "$(nproc)" >BENCH_fuzz.json

echo "== verification campaign (parallel, wall-clock budget)" >&2
# The 12-model §VIII-A campaign at CI budgets plus extension X1 — the six
# two-flowlink rows the paper priced at 900 GB and 300 hours — spread
# over all cores; the largest configuration holds about 110 MB. The
# budget is over ten times the 1.8 s the campaign takes on the 2-vCPU
# host: it catches a hang or a state space that blew up, not a slower
# transition — that shows as a changed count in
# `crates/mck/tests/footprint.rs` above.
timed_gate "campaign" "${CAMPAIGN_BUDGET_SECS:-30}" "failed" \
  ipmedia-mck campaign 0 2 3000000 --threads "$(nproc)" >/dev/null

echo "== runtime invariant monitor (all scenarios clean + mutant self-test)" >&2
# Every registry scenario must run clean under the live monitor, and the
# planted closed-slot mutant must be flagged as IM102 — proving the gate
# can actually fail.
timed_gate "monitor" "$MONITOR_BUDGET_SECS" "found invariant violations" \
  ipmedia-bench ipmedia-monitor >/dev/null
GATE_STDERR=/dev/null timed_gate "monitor mutant self-test" "$MONITOR_BUDGET_SECS" \
  "failed to catch the planted closed-slot mutant" \
  ipmedia-bench ipmedia-monitor --mutant closed-slot >/dev/null

echo "== chaos campaign (seeded schedules, monitor-verified recovery)" >&2
# Seeded fault schedules across every registry scenario and schedule
# family on the simulator plus a compressed sweep on the live runtime;
# any post-heal invariant violation fails the gate and the bin prints
# the failing seed with its delta-debugged minimal schedule on stderr.
# Rewrites BENCH_chaos.json.
timed_gate "chaos campaign" "${CHAOS_BUDGET_SECS:-240}" "found recovery violations" \
  ipmedia-bench chaos_campaign --threads "$(nproc)" >/dev/null

echo "== committed artifacts (every BENCH_* file reproduced byte for byte)" >&2
for f in "${DECIDED[@]}"; do
  cmp "target/bench_committed/$f" "$f" || {
    echo "$f: this run decided something other than the committed copy" >&2
    exit 1
  }
done

echo "all checks passed" >&2
