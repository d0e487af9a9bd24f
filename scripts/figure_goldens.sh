#!/usr/bin/env bash
# Byte-compares freshly generated figure artifacts with the committed ones.
#
# Usage: scripts/figure_goldens.sh <scale> <seed> <exps>
#
# Runs `repro --exp <exps> --scale <scale> --seed <seed>` into a temporary
# directory, then `cmp`s every JSON and SVG it wrote against the file of
# the same name under results/. Stage timings are wall-clock and are
# skipped; everything else is seeded. The grid reports (`grid_<spec>.json`)
# carry no scale in their names, and results/ holds the smoke-scale ones,
# so they are compared at smoke scale only. Exits non-zero on the first
# difference, on a written artifact that results/ lacks, and on a
# committed artifact of the requested experiments and scale
# (`results/<exp>_..<scale>..{json,svg}`, plus `grid_<exp>.json` at
# smoke scale) that repro did not write.
#
#   scripts/figure_goldens.sh smoke 7 fig3,fig4,fig5,fig6,fig8,table4,table5
#       CI's check (about four minutes on 2 vCPUs, two of them table4).
#   scripts/figure_goldens.sh default 42 fig3,fig4,fig5,fig6,fig7,fig8,table5,ablations
#       Every committed default-scale artifact; run it by hand after
#       changing any figure's code path (about 16 minutes on 2 vCPUs).

set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <scale> <seed> <exps>" >&2
    exit 2
fi
SCALE=$1
SEED=$2
EXPS=$3

cd "$(dirname "$0")/.."
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
cargo run --release -p alba-bench --bin repro -- \
    --exp "$EXPS" --scale "$SCALE" --seed "$SEED" --out "$OUT" >/dev/null
N=0
for f in "$OUT"/*.json "$OUT"/*.svg; do
    [ -e "$f" ] || continue # an unmatched glob; missing artifacts are caught below
    name=$(basename "$f")
    case "$name" in
        stage_timings_*) continue ;;
        grid_*) [ "$SCALE" = smoke ] || continue ;;
    esac
    cmp "$f" "results/$name" \
        || { echo "$name differs from the committed results/$name" >&2; exit 1; }
    N=$((N + 1))
done
IFS=, read -ra EXP_LIST <<<"$EXPS"
for exp in "${EXP_LIST[@]}"; do
    [ "$exp" = all ] && exp='*'
    # `$exp` stays unquoted so that `all` globs over every experiment.
    committed=(results/${exp}_"$SCALE".json results/${exp}_"$SCALE"_*.svg
        results/${exp}_*_"$SCALE".json)
    [ "$SCALE" = smoke ] && committed+=(results/grid_${exp}.json)
    for g in "${committed[@]}"; do
        name=$(basename "$g")
        case "$name" in stage_timings_*) continue ;; esac
        if [ -e "$g" ] && [ ! -e "$OUT/$name" ]; then
            echo "repro did not regenerate the committed $g" >&2
            exit 1
        fi
    done
done
if [ "$N" -eq 0 ]; then
    echo "repro wrote no figure artifacts to compare" >&2
    exit 1
fi
echo "  $N figure artifacts byte-identical to results/: OK"
