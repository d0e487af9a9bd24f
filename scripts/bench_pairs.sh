#!/usr/bin/env bash
# Alternating parent/change pairs of the end-to-end benchmark.
#
# Usage: scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [--trace]
#
# Exports <parent-rev> and HEAD (committed files only, `git archive`)
# into a temporary directory, builds each side's perfbench there, and
# runs the BENCHMARK.json command on both for <pairs> pairs. Pair i uses
# seed BENCH_PAIRS_SEED0+i (default 101) on both sides and alternates
# which side runs first. Both sides get the same `--seconds`
# (BENCHMARK.json's run_seconds). The repository's own tree, perfbench/
# and BENCHMARK.json are never written.
#
# Prints one line per pair, then, for every end-to-end metric in
# BENCHMARK.json, each side's median and quartiles, the change's wins
# (ties count for neither side) and a verdict:
#   gain    — the change wins >= 9/10 of the pairs and the medians differ
#             by more than the parent's interquartile range;
#   worse   — the change's median is worse than the parent's by more
#             than the metric's bound;
#   unresolved — the spread (the larger side's interquartile range over
#             the parent's median) is wider than the bound, and not
#             every change run beats every parent run, so the runs
#             cannot show the metric held;
#   within  — none of these.
# With --trace, every run is a `--trace 1` run and the table lists the
# per_layer metrics of BENCHMARK.json that either side reports as
# nonzero: each side's median and quartiles, and the change's wins,
# with no verdict, then each metric's per-pair values.
# Each pair line quotes both runs' host steal_pct. Every run's full
# output stays in the temporary directory while the script runs; set
# BENCH_PAIRS_KEEP=1 to keep it afterwards.

set -euo pipefail

TRACE=0
if [ $# -eq 4 ] && [ "$4" = --trace ]; then
    TRACE=1
elif [ $# -ne 3 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> [--trace]" >&2
    exit 2
fi
PARENT_REV=$1
WORKLOAD=$2
PAIRS=$3
SEED0=${BENCH_PAIRS_SEED0:-101}
case "$PAIRS" in
    '' | *[!0-9]*) echo "pairs must be a positive integer" >&2; exit 2 ;;
esac

cd "$(git rev-parse --show-toplevel)"
PARENT_SHA=$(git rev-parse --verify "$PARENT_REV^{commit}")
HEAD_SHA=$(git rev-parse --verify HEAD)
SECONDS_ARG=$(jq -r '.run_seconds' BENCHMARK.json)
mapfile -t COMMAND < <(jq -r '.command[]' BENCHMARK.json)
jq -e --arg w "$WORKLOAD" '.workloads | any(.name == $w)' BENCHMARK.json >/dev/null \
    || { echo "workload $WORKLOAD is not in BENCHMARK.json" >&2; exit 2; }
git show HEAD:BENCHMARK.json >/dev/null \
    || { echo "HEAD has no committed BENCHMARK.json" >&2; exit 2; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
if [ "${BENCH_PAIRS_KEEP:-0}" = 1 ]; then
    echo "keeping $WORK"
else
    trap 'rm -rf "$WORK"' EXIT
fi
mkdir -p "$WORK/runs"

for side in parent change; do
    sha=$PARENT_SHA
    [ "$side" = change ] && sha=$HEAD_SHA
    mkdir -p "$WORK/$side"
    git archive "$sha" | tar -x -C "$WORK/$side"
    echo "==> building $side ($sha)"
    (cd "$WORK/$side" && cargo build --quiet --release --offline \
        --manifest-path perfbench/Cargo.toml)
done

run() { # side seed
    local out="$WORK/runs/$1-$2.txt"
    (cd "$WORK/$1" && "${COMMAND[@]}" --workload "$WORKLOAD" --seed "$2" \
        --seconds "$SECONDS_ARG" --trace "$TRACE") >"$out" 2>"$out.err" || true
    tail -n 1 "$out" >"$WORK/runs/$1-$2.json"
}

steal() { # side seed: the run's host steal_pct
    grep -o 'steal_pct=[0-9.]*' "$WORK/runs/$1-$2.txt" | cut -d= -f2 || true
}

for ((i = 0; i < PAIRS; i++)); do
    seed=$((SEED0 + i))
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do run "$side" "$seed"; done
    echo "pair $((i + 1))/$PAIRS seed $seed (${order[0]} first) done," \
        "steal_pct parent $(steal parent "$seed") change $(steal change "$seed")"
done

python3 - "$WORK/runs" "$SEED0" "$PAIRS" "$WORKLOAD" "$TRACE" <<'EOF'
import json, statistics, sys

runs, seed0, pairs, workload = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
trace = sys.argv[5] == "1"
spec = json.load(open("BENCHMARK.json"))
metrics = spec["per_layer" if trace else "end_to_end"]

def load(side, seed):
    try:
        return json.load(open(f"{runs}/{side}-{seed}.json"))
    except (OSError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}

seeds = range(seed0, seed0 + pairs)
res = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}
for side, rs in res.items():
    bad = [s for s, r in zip(seeds, rs) if not r.get("correct") or r.get("failed", 0)]
    att = sum(r.get("attempted", 0) for r in rs)
    fail = sum(r.get("failed", 0) for r in rs)
    print(f"{side}: {att} operations, {fail} failed, runs not correct: {bad or 'none'}")

def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0]) if v else (float("nan"), float("nan"))
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[2]

def value(run, name):
    return run["metrics"].get(name, {}).get("value")

width = 36 if trace else 14
print(f"\n{workload}: {pairs} pairs, seeds {seed0}..{seed0 + pairs - 1}"
      + (", traced" if trace else ""))
print(f"{'metric':<{width}} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
      f"{'wins':>7}" + ("" if trace else f" {'bound':>6}  verdict"))
reported = []
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [value(r, name) for r in res["parent"]]
    c = [value(r, name) for r in res["change"]]
    both = [(a, b) for a, b in zip(p, c) if a is not None and b is not None]
    if trace and all(not v for v in p + c):
        continue  # a layer this workload does not run (absent or 0)
    if not both:
        print(f"{name:<{width}} no complete pair")
        continue
    reported.append(name)
    pv, cv = [a for a, _ in both], [b for _, b in both]
    wins = sum((b < a) if lower else (b > a) for a, b in both)
    pm, cm = statistics.median(pv), statistics.median(cv)
    pq, cq = quartiles(pv), quartiles(cv)
    gap = (pm - cm) if lower else (cm - pm)
    worse = -gap / abs(pm) if pm else 0.0
    spread = max(pq[1] - pq[0], cq[1] - cq[0]) / abs(pm) if pm else 0.0
    every_run_better = max(cv) < min(pv) if lower else min(cv) > max(pv)
    fmt = lambda med, q: f"{med:.6g} [{q[0]:.6g}, {q[1]:.6g}]"
    if trace:
        print(f"{name:<{width}} {fmt(pm, pq):>30} {fmt(cm, cq):>30} {wins:>3}/{len(both):<3}")
        continue
    if wins * 10 >= 9 * len(both) and gap > pq[1] - pq[0]:
        verdict = "gain"
    elif worse > m["bound"]:
        verdict = f"worse by {worse:.1%}"
    elif spread > m["bound"] and not every_run_better:
        verdict = f"unresolved (spread {spread:.1%})"
    else:
        verdict = "within"
    print(f"{name:<14} {fmt(pm, pq):>30} {fmt(cm, cq):>30} {wins:>3}/{len(both):<3} "
          f"{m['bound']:>6}  {verdict}")
print("\nper pair (parent -> change):")
nan = float("nan")
show = lambda v: f"{nan if v is None else v:.6g}"
if trace:
    for name in reported:
        vals = " ".join(
            f"{show(value(a, name))}->{show(value(b, name))}"
            for a, b in zip(res["parent"], res["change"]))
        print(f"{name}: {vals}")
else:
    for s, a, b in zip(seeds, res["parent"], res["change"]):
        vals = " ".join(
            f"{m['name']}={show(value(a, m['name']))}->{show(value(b, m['name']))}"
            for m in metrics)
        print(f"seed {s}: {vals}")
EOF
