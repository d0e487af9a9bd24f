#!/usr/bin/env bash
# Alternating parent/change passes of a benchmark, judged by bench_gate.
#
# Usage: scripts/bench_pairs.sh <parent-rev> <workload|benches> <pairs> [--trace]
#
# Exports <parent-rev> and HEAD (committed files only, `git archive`)
# into a temporary directory, builds each side in its own tree (one tree
# when both are the same commit), and runs <pairs> pairs, alternating
# which side runs first. A <workload> pair runs the BENCHMARK.json
# command (its run_seconds, seed BENCH_PAIRS_SEED0+i, default 101, and
# `--trace 1` with --trace) and quotes both runs' host steal_pct; a
# `benches` pair runs `cargo bench -p alba-bench`. Then the change's
# bench_gate judges the runs dir, and its status is the script's. The
# repository's own tree is never written. BENCH_PAIRS_KEEP=1 keeps the
# temporary directory, with every run's output.

set -euo pipefail

TRACE=0
if [ $# -eq 4 ] && [ "$4" = --trace ] && [ "$2" != benches ]; then
    TRACE=1
elif [ $# -ne 3 ]; then
    echo "usage: $0 <parent-rev> <workload|benches> <pairs> [--trace]" >&2
    exit 2
fi
PARENT_REV=$1
WORKLOAD=$2
PAIRS=$3
SEED0=${BENCH_PAIRS_SEED0:-101}
case "$PAIRS" in
    '' | *[!0-9]* | 0*) echo "pairs must be a positive integer" >&2; exit 2 ;;
esac

cd "$(git rev-parse --show-toplevel)"
PARENT_SHA=$(git rev-parse --verify "$PARENT_REV^{commit}")
HEAD_SHA=$(git rev-parse --verify HEAD)
if [ "$WORKLOAD" != benches ]; then
    SECONDS_ARG=$(jq -r '.run_seconds' BENCHMARK.json)
    mapfile -t COMMAND < <(jq -r '.command[]' BENCHMARK.json)
    jq -e --arg w "$WORKLOAD" '.workloads | any(.name == $w)' BENCHMARK.json >/dev/null \
        || { echo "workload $WORKLOAD is not in BENCHMARK.json" >&2; exit 2; }
    git show HEAD:BENCHMARK.json >/dev/null \
        || { echo "HEAD has no committed BENCHMARK.json" >&2; exit 2; }
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
if [ "${BENCH_PAIRS_KEEP:-0}" = 1 ]; then
    echo "keeping $WORK"
else
    trap 'rm -rf "$WORK"' EXIT
fi
mkdir -p "$WORK/runs" "$WORK/out"

for side in parent change; do
    sha=$PARENT_SHA
    [ "$side" = change ] && sha=$HEAD_SHA
    if [ "$side" = change ] && [ "$sha" = "$PARENT_SHA" ]; then
        ln -s parent "$WORK/change"
        continue
    fi
    mkdir -p "$WORK/$side"
    git archive "$sha" | tar -x -C "$WORK/$side"
    echo "==> building $side ($sha)"
    if [ "$WORKLOAD" = benches ]; then
        (cd "$WORK/$side" && cargo bench --offline --no-run -q -p alba-bench)
    else
        (cd "$WORK/$side" && cargo build --quiet --release --offline \
            --manifest-path perfbench/Cargo.toml)
    fi
done

run() { # side n
    local tree="$WORK/$1" out="$WORK/out/$1-$2.txt"
    if [ "$WORKLOAD" = benches ]; then
        rm -f "$tree"/results/BENCH_*.json
        (cd "$tree" && cargo bench --offline --no-fail-fast -q -p alba-bench) >"$out" 2>&1 || true
        mkdir -p "$WORK/runs/$1-$2"
        cp "$tree"/results/BENCH_*.json "$WORK/runs/$1-$2/" 2>/dev/null || true
    else
        (cd "$tree" && "${COMMAND[@]}" --workload "$WORKLOAD" --seed "$2" \
            --seconds "$SECONDS_ARG" --trace "$TRACE") >"$out" 2>"$out.err" || true
        tail -n 1 "$out" >"$WORK/runs/$1-$2.json"
    fi
}

steal() { # side n: the run's host steal_pct
    grep -o 'steal_pct=[0-9.]*' "$WORK/out/$1-$2.txt" | cut -d= -f2 || true
}

for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    if [ "$WORKLOAD" = benches ]; then
        n=$((i + 1)) label=pass note=
    else
        n=$((SEED0 + i)) label=seed
    fi
    for side in "${order[@]}"; do run "$side" "$n"; done
    [ "$WORKLOAD" = benches ] || note=", steal_pct parent $(steal parent "$n") change $(steal change "$n")"
    echo "pair $((i + 1))/$PAIRS $label $n (${order[0]} first) done$note"
done

GATE=("$WORK/runs")
[ "$TRACE" = 1 ] && GATE=(--trace "$WORK/runs")
echo "==> $WORKLOAD: bench_gate ${GATE[*]}"
(cd "$WORK/change" && cargo run --release --offline -q -p alba-bench --bin bench_gate -- "${GATE[@]}")
