#!/usr/bin/env bash
# Alternating parent/head pairs of one benchmark workload, the way a
# performance claim is judged: `BENCHMARK.json`'s command with
# `--seconds 18 --trace 0`, on two prebuilt `ipmedia-benchmark` binaries,
# one fresh seed per pair, the side that runs first alternating. Prints
# every run's four end-to-end metrics with `correct` / `failed`, then per
# metric each side's median and quartiles, the pairs head won (ties count
# for neither) and a verdict by the rule the pairs exist for:
#   gain        head ahead in at least nine tenths of the pairs and the
#               medians further apart than the parent's interquartile range
#   worse       head's median past the metric's bound in `BENCHMARK.json`
#   unresolved  neither, and the parent's interquartile range is wider than
#               that bound (unless every head run beats every parent run)
#   level       neither, within the bound
#
# Usage: scripts/pairs.sh WORKLOAD|all PARENT_BIN HEAD_BIN [PAIRS=10] [FIRST_SEED]
#
# `all` runs every workload `BENCHMARK.json` declares, one after another at
# the same seeds, so the rows that must not move come from the same script.
# Build each binary once, into its own target directory, and copy it out:
#   CARGO_TARGET_DIR=/root/scratch/t-head cargo build --release --offline \
#     --manifest-path benchmark/Cargo.toml
# FIRST_SEED defaults to the clock, so a claim is never measured at the
# seeds the change was written against; it is printed for a re-run.
set -euo pipefail

[ "$#" -ge 3 ] || { sed -n '2,26p' "$0" >&2; exit 2; }
declared=$(realpath "$(dirname "$0")/../BENCHMARK.json")
workloads=$1 parent=$(realpath "$2") head=$(realpath "$3")
pairs=${4:-10} first=${5:-$(($(date +%s) % 1000000))}
if [ "$workloads" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(*(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$declared")
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

for workload in $workloads; do
    echo "# $workload: $pairs pairs, seeds $first..$((first + pairs - 1))"
    for ((i = 0; i < pairs; i++)); do
        seed=$((first + i))
        if ((i % 2 == 0)); then order="parent head"; else order="head parent"; fi
        for side in $order; do
            echo "  running $workload $side at seed $seed" >&2
            result=$("${!side}" --workload "$workload" --seed "$seed" \
                --seconds 18 --trace 0 --out "$work/out" 2>stderr | tail -n 1) ||
                { cat stderr >&2; exit 1; }
            echo "$workload $side $seed $result" >>runs
        done
    done
done

python3 - "$work/runs" "$declared" <<'EOF'
import json, statistics, sys

declared = {m["name"]: m for m in json.load(open(sys.argv[2]))["end_to_end"]}
runs = {}  # workload -> seed -> side -> result
for line in open(sys.argv[1]):
    workload, side, seed, result = line.split(" ", 3)
    runs.setdefault(workload, {}).setdefault(int(seed), {})[side] = json.loads(result)

def quartiles(xs):
    return statistics.quantiles(xs * 2 if len(xs) == 1 else xs, n=4, method="inclusive")

def verdict(parent, head, wins, better, bound):
    """The rule of the header, on one metric's runs."""
    (q1, p_median, q3), h_median = quartiles(parent), statistics.median(head)
    if 10 * wins >= 9 * len(parent) and better(h_median, p_median) \
            and abs(h_median - p_median) > q3 - q1:
        return "gain"
    if better(p_median, h_median) and abs(h_median - p_median) > bound * abs(p_median):
        return "worse"
    clear = all(better(h, p) for h in head for p in parent)
    return "unresolved" if q3 - q1 > bound * abs(p_median) and not clear else "level"

bad = []
for workload, seeds in runs.items():
    print(f"\n## {workload}")
    print(f"{'seed':>8} {'side':<6} " + " ".join(f"{m:>12}" for m in declared) + "  correct failed")
    for seed, sides in seeds.items():
        for side, r in sides.items():
            values = " ".join(f"{r['metrics'][m]['value']:12.4f}" for m in declared)
            print(f"{seed:>8} {side:<6} {values}  {str(r['correct']).lower():>7} {r['failed']:>6}")
            if not r["correct"] or r["failed"]:
                bad.append((workload, seed, side))
    print()
    for metric, m in declared.items():
        better = (lambda h, p: h < p) if m["better"] == "lower" else (lambda h, p: h > p)
        value = lambda side: [s[side]["metrics"][metric]["value"] for s in seeds.values()]
        parent, head = value("parent"), value("head")
        wins = sum(better(h, p) for p, h in zip(parent, head))
        ties = sum(h == p for p, h in zip(parent, head))
        show = lambda xs: "{1:.4f} [{0:.4f}-{2:.4f}]".format(*quartiles(xs))
        ratio = statistics.median(head) / statistics.median(parent)
        print(f"{metric:<12} parent {show(parent)}  head {show(head)}  x{ratio:.3f}  "
              f"head ahead in {wins} of {len(parent)}" + (f", {ties} tied" if ties else "")
              + f"  -> {verdict(parent, head, wins, better, m['bound'])}")
print("\nevery run correct:true failed:0" if not bad else f"\nNOT CORRECT: {bad}")
sys.exit(1 if bad else 0)
EOF
