#!/usr/bin/env bash
# Alternating parent/head pairs of one benchmark workload, the way a
# performance claim is judged: `BENCHMARK.json`'s command with
# `--seconds 18 --trace 0`, on two prebuilt `ipmedia-benchmark` binaries,
# one fresh seed per pair, the side that runs first alternating. Prints
# every run's four end-to-end metrics with `correct` / `failed`, then per
# metric each side's median and quartiles and the pairs head won (ties
# count for neither).
#
# Usage: scripts/pairs.sh WORKLOAD PARENT_BIN HEAD_BIN [PAIRS=10] [FIRST_SEED]
#
# Build each binary once, into its own target directory, and copy it out:
#   CARGO_TARGET_DIR=/root/scratch/t-head cargo build --release --offline \
#     --manifest-path benchmark/Cargo.toml
# FIRST_SEED defaults to the clock, so a claim is never measured at the
# seeds the change was written against; it is printed for a re-run.
set -euo pipefail

[ "$#" -ge 3 ] || { sed -n '2,16p' "$0" >&2; exit 2; }
workload=$1 parent=$(realpath "$2") head=$(realpath "$3")
pairs=${4:-10} first=${5:-$(($(date +%s) % 1000000))}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "# $workload: $pairs pairs, seeds $first..$((first + pairs - 1))"
for ((i = 0; i < pairs; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then order="parent head"; else order="head parent"; fi
    for side in $order; do
        echo "  running $side at seed $seed" >&2
        result=$("${!side}" --workload "$workload" --seed "$seed" \
            --seconds 18 --trace 0 --out "$work/out" 2>stderr | tail -n 1) ||
            { cat stderr >&2; exit 1; }
        echo "$side $seed $result" >>runs
    done
done

python3 - "$work/runs" <<'EOF'
import json, statistics, sys

LOWER_IS_BETTER = {"ops_per_s": False, "rep_ms_p50": True, "peak_rss_mb": True, "setup_s": True}
runs = {}  # seed -> side -> result
for line in open(sys.argv[1]):
    side, seed, result = line.split(" ", 2)
    runs.setdefault(int(seed), {})[side] = json.loads(result)

print(f"{'seed':>8} {'side':<6} " + " ".join(f"{m:>12}" for m in LOWER_IS_BETTER) + "  correct failed")
for seed, sides in runs.items():
    for side, r in sides.items():
        values = " ".join(f"{r['metrics'][m]['value']:12.4f}" for m in LOWER_IS_BETTER)
        print(f"{seed:>8} {side:<6} {values}  {str(r['correct']).lower():>7} {r['failed']:>6}")

def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs * 2 if len(xs) == 1 else xs, n=4, method="inclusive")
    return f"{median:.4f} [{q1:.4f}-{q3:.4f}]"

print()
for metric, lower in LOWER_IS_BETTER.items():
    value = lambda side: [s[side]["metrics"][metric]["value"] for s in runs.values()]
    parent, head = value("parent"), value("head")
    wins = sum((h < p) if lower else (h > p) for p, h in zip(parent, head))
    ties = sum(h == p for p, h in zip(parent, head))
    ratio = statistics.median(head) / statistics.median(parent)
    print(f"{metric:<12} parent {quartiles(parent)}  head {quartiles(head)}  "
          f"x{ratio:.3f}  head ahead in {wins} of {len(parent)}" + (f", {ties} tied" if ties else ""))
bad = [(seed, side) for seed, sides in runs.items() for side, r in sides.items()
       if not r["correct"] or r["failed"]]
print("every run correct:true failed:0" if not bad else f"NOT CORRECT: {bad}")
sys.exit(1 if bad else 0)
EOF
