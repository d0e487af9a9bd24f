#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests.
#
# Usage: scripts/ci.sh [--full]
# Runs everything the tree must pass before a merge; exits non-zero on
# the first failure. --full additionally runs the #[ignore]d slow
# suites (exhaustive store byte-flip sweep, long chaos cases, the
# 24-cell parallel determinism stress matrix) and the sanitizer jobs
# (tsan over the threaded crates, miri over the linter), each skipped
# with a notice when the toolchain lacks the component.

set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
for arg in "$@"; do
    case "$arg" in
        --full) FULL=1 ;;
        *) echo "unknown argument: $arg (usage: scripts/ci.sh [--full])" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> one parallel runtime (only alba-par and alba-chaos spawn threads; no rayon)"
# alba-par's pool and `map` are the workspace's only parallel runtime;
# alba-chaos's fault injectors are the only other code that spawns.
SPAWNS=$(grep -rnE 'thread::(scope|spawn|Builder)' crates/*/src | grep -vE '^crates/(par|chaos)/' || true)
if [ -n "$SPAWNS" ]; then
    echo "threads spawned outside alba-par/alba-chaos (use alba_par::map):" >&2
    echo "$SPAWNS" >&2
    exit 1
fi
RAYON=$(find . -name Cargo.toml -not -path '*/target/*' -exec grep -l 'rayon' {} + || true)
if [ -n "$RAYON" ]; then
    echo "Cargo.toml names rayon (use alba_par::map): $RAYON" >&2
    exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: broken and private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> alba-lint (determinism & robustness rules)"
cargo run --release -q -p alba-lint

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench tests (outside the workspace: schedule and stats)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

if [ "$FULL" = "1" ]; then
    echo "==> slow suites (--full: #[ignore]d tests)"
    cargo test --workspace -q -- --ignored

    echo "==> ThreadSanitizer (--full: par + chaos suites under tsan)"
    # alba-par (shard pool and `map`) and the chaos supervisor are the
    # only crates that spawn threads (guarded above); tsan re-runs
    # their suites with full happens-before tracking. Needs nightly (-Zsanitizer) AND rust-src: std must be
    # rebuilt instrumented (-Zbuild-std), because a prebuilt std hides
    # Mutex/futex edges from tsan and every critical section then
    # reports as a false race. --target keeps the sanitizer flags off
    # host build units (the vendored proc macros). A separate target
    # dir keeps instrumented artifacts out of the normal cache.
    if cargo +nightly --version >/dev/null 2>&1 \
        && [ -d "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library/std" ]; then
        HOST=$(rustc +nightly -vV | sed -n 's/^host: //p')
        RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
            cargo +nightly test -q -Zbuild-std -p alba-par -p alba-chaos --target "$HOST"
    else
        echo "  nightly rust-src unavailable — skipped (tsan needs an instrumented std)"
    fi

    echo "==> Miri (--full: alba-lint analysis passes under miri)"
    # The linter's parser/rules/call-graph/dataflow stack is pure in-memory
    # code — exactly what miri checks well. Gated on the component
    # actually being installed (offline images often lack it).
    if cargo +nightly miri --version >/dev/null 2>&1; then
        CARGO_TARGET_DIR=target/miri \
            cargo +nightly miri test -q -p alba-lint --lib -- \
            lexer suppress parse rules callgraph dataflow
    else
        echo "  miri unavailable on this toolchain — skipped"
    fi
fi

echo "==> observability smoke (fleet_monitor example + artifact checks)"
# The example writes into a temporary directory, so CI leaves results/
# as committed; its event log must match the committed one byte for byte.
OUT_MON=$(mktemp -d)
trap 'rm -rf "$OUT_MON"' EXIT
ALBA_MONITOR_OUT="$OUT_MON" cargo run --release --example fleet_monitor >/dev/null
cmp "$OUT_MON/fleet_monitor_events.jsonl" results/fleet_monitor_events.jsonl \
    || { echo "fleet_monitor events diverged from results/fleet_monitor_events.jsonl" >&2; exit 1; }
python3 - "$OUT_MON" <<'EOF'
import json
import pathlib
import sys

out = pathlib.Path(sys.argv[1])

# Every event line must be a JSON object with ts and kind.
kinds = set()
with open(out / "fleet_monitor_events.jsonl") as f:
    lines = [line.rstrip("\n") for line in f]
assert lines, "the observed example must emit events"
for line in lines:
    ev = json.loads(line)
    assert isinstance(ev["ts"], int), line
    kinds.add(ev["kind"])
assert "label_request" in kinds and "model_swap" in kinds, kinds

# The exposition dump must parse: TYPE headers, then name{labels} value.
with open(out / "fleet_monitor_metrics.prom") as f:
    metrics = [line.rstrip("\n") for line in f if line.strip()]
names = set()
for line in metrics:
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        assert kind in ("counter", "gauge", "histogram"), line
        names.add(name)
        continue
    name, value = line.rsplit(" ", 1)
    float(value)
    assert any(name.startswith(n) for n in names), f"sample before TYPE: {line}"
for expected in ("stage_ns", "shard_busy_ns", "ingest_accepted_total"):
    assert expected in names, f"missing metric family {expected}"
print(f"  {len(lines)} events, {len(names)} metric families: OK")
EOF

echo "==> figure goldens (smoke seed-7 figures and tables byte-identical to results/)"
scripts/figure_goldens.sh smoke 7 fig3,fig4,fig5,fig6,fig8,table4,table5

echo "==> store smoke (cold run populates, warm run hits, results identical)"
STORE_DIR=$(mktemp -d)
OUT_COLD=$(mktemp -d)
OUT_WARM=$(mktemp -d)
trap 'rm -rf "$OUT_MON" "$STORE_DIR" "$OUT_COLD" "$OUT_WARM"' EXIT
cargo run --release -p alba-bench --bin repro -- \
    --exp fig3 --scale smoke --store "$STORE_DIR" --out "$OUT_COLD" >/dev/null
cargo run --release -p alba-bench --bin repro -- \
    --exp fig3 --scale smoke --store "$STORE_DIR" --out "$OUT_WARM" >/dev/null
python3 - "$OUT_COLD" "$OUT_WARM" <<'EOF'
import json
import pathlib
import sys

cold, warm = (pathlib.Path(p) for p in sys.argv[1:3])
a = (cold / "fig3_smoke.json").read_bytes()
b = (warm / "fig3_smoke.json").read_bytes()
assert a == b, "warm-store run must reproduce fig3 byte-identically"

for run, expect_hits in (("cold", False), ("warm", True)):
    stats = json.loads(((cold if run == "cold" else warm) / "store_stats_smoke.json").read_text())
    hits = sum(k["cache_hits"] for k in stats["kinds"])
    misses = sum(k["cache_misses"] for k in stats["kinds"])
    if expect_hits:
        assert hits > 0, f"warm run must hit the store cache: {stats}"
        assert all(k["corrupt_entries"] == 0 for k in stats["kinds"]), stats
    else:
        assert misses > 0, f"cold run must populate the store: {stats}"
print(f"  fig3 byte-identical across cold/warm store runs, {hits} warm cache hits: OK")
EOF

echo "==> chaos smoke (seeded drill: recovery counters > 0, log replay byte-identical)"
OUT_CHAOS_A=$(mktemp -d)
OUT_CHAOS_B=$(mktemp -d)
trap 'rm -rf "$OUT_MON" "$STORE_DIR" "$OUT_COLD" "$OUT_WARM" "$OUT_CHAOS_A" "$OUT_CHAOS_B"' EXIT
# The drill itself exits non-zero unless faults were injected *and*
# recovered from; two runs of one seeded plan must log identically.
cargo run --release -p alba-bench --bin repro -- \
    --chaos --seed 42 --out "$OUT_CHAOS_A" >/dev/null
cargo run --release -p alba-bench --bin repro -- \
    --chaos --seed 42 --chaos-plan "$OUT_CHAOS_A/chaos_plan_42.json" \
    --out "$OUT_CHAOS_B" >/dev/null
cmp "$OUT_CHAOS_A/chaos_events_42.jsonl" "$OUT_CHAOS_B/chaos_events_42.jsonl" \
    || { echo "chaos event logs diverged across an identical plan" >&2; exit 1; }
python3 - "$OUT_CHAOS_A" <<'EOF'
import json
import pathlib
import sys

out = pathlib.Path(sys.argv[1])
stats = json.loads((out / "chaos_stats_42.json").read_text())
chaos = stats["chaos"]
assert chaos is not None, "chaotic run must export chaos stats"
injected = (
    sum(chaos["injected"].values()) + chaos["store_faults_fired"] + chaos["shard_restarts"]
)
recovered = (
    chaos["quarantines_released"]
    + chaos["shard_restarts"]
    + chaos["oracle_recoveries"]
    + chaos["journal_recoveries"]
)
assert chaos["faults_started"] > 0, chaos
assert injected > 0, f"no faults injected: {chaos}"
assert recovered > 0, f"nothing recovered: {chaos}"
plan = json.loads((out / "chaos_plan_42.json").read_text())
assert plan["events"], "the saved plan must be replayable"
events = (out / "chaos_events_42.jsonl").read_text().splitlines()
kinds = {json.loads(line)["kind"] for line in events}
assert "fault_injected" in kinds, kinds
print(f"  {injected} injected, {recovered} recoveries, {len(events)} events: OK")
EOF

echo "==> gateway smoke (two equal-seed TCP runs byte-identical and equal to results/, Prometheus scrape parses)"
OUT_GW_A=$(mktemp -d)
OUT_GW_B=$(mktemp -d)
trap 'rm -rf "$OUT_MON" "$STORE_DIR" "$OUT_COLD" "$OUT_WARM" "$OUT_CHAOS_A" "$OUT_CHAOS_B" "$OUT_GW_A" "$OUT_GW_B"' EXIT
# The example itself asserts that the captured wire session replays
# byte-identically offline (and that /trace/0 + /flightrec scrape
# cleanly); CI additionally pins down that two independent live TCP
# runs with equal seeds agree byte-for-byte — event log, ingest
# journal, causal trace log, and flight-recorder dump alike.
ALBA_GATEWAY_OUT="$OUT_GW_A" cargo run --release --example fleet_gateway >/dev/null
ALBA_GATEWAY_OUT="$OUT_GW_B" cargo run --release --example fleet_gateway >/dev/null
cmp "$OUT_GW_A/fleet_gateway_events.jsonl" "$OUT_GW_B/fleet_gateway_events.jsonl" \
    || { echo "gateway event logs diverged across equal-seed runs" >&2; exit 1; }
cmp "$OUT_GW_A/fleet_gateway_capture.bin" "$OUT_GW_B/fleet_gateway_capture.bin" \
    || { echo "gateway ingest journals diverged across equal-seed runs" >&2; exit 1; }
cmp "$OUT_GW_A/fleet_gateway_trace.jsonl" "$OUT_GW_B/fleet_gateway_trace.jsonl" \
    || { echo "gateway trace logs diverged across equal-seed runs" >&2; exit 1; }
cmp "$OUT_GW_A/flightrec_shutdown.jsonl" "$OUT_GW_B/flightrec_shutdown.jsonl" \
    || { echo "flight-recorder dumps diverged across equal-seed runs" >&2; exit 1; }
# The run retrains twice (two model_swap events), so the committed event
# log and trace also pin the served refit path; the committed .prom file
# holds wall-clock values and is not compared.
for f in fleet_gateway_events.jsonl fleet_gateway_trace.jsonl; do
    cmp "$OUT_GW_A/$f" "results/$f" \
        || { echo "$f diverged from results/$f" >&2; exit 1; }
done
python3 - "$OUT_GW_A" <<'EOF'
import json
import pathlib
import sys

out = pathlib.Path(sys.argv[1])
# The scrape came over the gateway's own HTTP control plane; it must be
# well-formed text exposition with the frontier's metric families.
names = set()
for line in (out / "fleet_gateway_metrics.prom").read_text().splitlines():
    if not line.strip():
        continue
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        assert kind in ("counter", "gauge", "histogram"), line
        names.add(name)
        continue
    name, value = line.rsplit(" ", 1)
    float(value)
    assert any(name.startswith(n) for n in names), f"sample before TYPE: {line}"
for expected in (
    "net_frames_total",
    "net_samples_delivered_total",
    "ingest_accepted_total",
    "net_tenant_frames_accepted_total",
):
    assert expected in names, f"missing metric family {expected}: {sorted(names)}"
events = (out / "fleet_gateway_events.jsonl").read_text().splitlines()
assert events and all(json.loads(e)["ts"] >= 0 for e in events)
assert (out / "fleet_gateway_capture.bin").stat().st_size > 0

# The causal trace log: every hop line is JSON with the trace-id tuple,
# and the chain spans the net lane, at least one shard lane, and the
# service lane (decode -> pipeline -> stage timings joined up).
lanes = set()
hops = (out / "fleet_gateway_trace.jsonl").read_text().splitlines()
assert hops, "a traced run must record hops"
for line in hops:
    hop = json.loads(line)
    for key in ("ts", "trace", "lane", "tick", "stage"):
        assert key in hop, f"hop missing {key}: {line}"
    int(hop["trace"], 16)
    lanes.add(hop["lane"])
assert "net" in lanes and "service" in lanes, lanes
assert any(l.startswith("shard") for l in lanes), lanes
header = json.loads((out / "flightrec_shutdown.jsonl").read_text().splitlines()[0])
assert header["kind"] == "flightrec" and header["reason"] == "shutdown", header
print(f"  {len(events)} events, {len(names)} metric families, capture present,")
print(f"  {len(hops)} trace hops across {len(lanes)} lanes, shutdown dump present: OK")
EOF
if [ "$FULL" = "1" ]; then
    echo "==> gateway chaos smoke (--full: reconnect storm, replay identity must hold)"
    # The example itself asserts the storm run's capture replays
    # byte-identically; CI pins down that the storm is deterministic
    # too — two equal-seed storm runs agree byte-for-byte. (The storm
    # capture legitimately differs from the clean one: reconnect pauses
    # shift sample *arrival* ticks, which the journal records.)
    OUT_GW_S1=$(mktemp -d)
    OUT_GW_S2=$(mktemp -d)
    ALBA_GATEWAY_OUT="$OUT_GW_S1" ALBA_GATEWAY_CHAOS=storm \
        cargo run --release --example fleet_gateway >/dev/null
    ALBA_GATEWAY_OUT="$OUT_GW_S2" ALBA_GATEWAY_CHAOS=storm \
        cargo run --release --example fleet_gateway >/dev/null
    cmp "$OUT_GW_S1/fleet_gateway_events.jsonl" "$OUT_GW_S2/fleet_gateway_events.jsonl" \
        || { echo "storm event logs diverged across equal-seed runs" >&2; exit 1; }
    cmp "$OUT_GW_S1/fleet_gateway_capture.bin" "$OUT_GW_S2/fleet_gateway_capture.bin" \
        || { echo "storm ingest journals diverged across equal-seed runs" >&2; exit 1; }
    cmp "$OUT_GW_S1/fleet_gateway_trace.jsonl" "$OUT_GW_S2/fleet_gateway_trace.jsonl" \
        || { echo "storm trace logs diverged across equal-seed runs" >&2; exit 1; }
    cmp "$OUT_GW_S1/flightrec_shutdown.jsonl" "$OUT_GW_S2/flightrec_shutdown.jsonl" \
        || { echo "storm flight-recorder dumps diverged across equal-seed runs" >&2; exit 1; }
    rm -rf "$OUT_GW_S1" "$OUT_GW_S2"
    echo "  equal-seed storm runs byte-identical (events + capture + trace + flightrec): OK"

    echo "==> chaos flight recorder (--full: fault firings dump the rings)"
    # chaos_drill writes its artifacts into results/ directly; every
    # fault kind that fired must have dumped a bounded flight record.
    rm -f results/flightrec_fault_*.jsonl
    cargo run --release --example chaos_drill >/dev/null
    ls results/flightrec_fault_*.jsonl >/dev/null 2>&1 \
        || { echo "chaos drill produced no flight-recorder fault dumps" >&2; exit 1; }
    python3 - <<'EOF'
import json
import pathlib

dumps = sorted(pathlib.Path("results").glob("flightrec_fault_*.jsonl"))
assert dumps, "fault dumps must exist"
for dump in dumps:
    lines = dump.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "flightrec", f"{dump}: {lines[0]}"
    assert header["reason"].startswith("fault_"), f"{dump}: {lines[0]}"
    assert header["events"] == len(lines) - 1, f"{dump}: ring body must match header"
print(f"  {len(dumps)} fault-kind flight-recorder dumps, headers consistent: OK")
EOF
fi

echo "==> grid smoke (resume from a partial store byte-identical, memo hits asserted;"
echo "    fig6 holdout figure: cold vs warm store and 1 vs 2 workers byte-identical)"
GRID_STORE=$(mktemp -d)
OUT_GRID_COLD=$(mktemp -d)
OUT_GRID_PART=$(mktemp -d)
OUT_GRID_RES=$(mktemp -d)
trap 'rm -rf "$OUT_MON" "$STORE_DIR" "$OUT_COLD" "$OUT_WARM" "$OUT_CHAOS_A" "$OUT_CHAOS_B" "$OUT_GW_A" "$OUT_GW_B" "$GRID_STORE" "$OUT_GRID_COLD" "$OUT_GRID_PART" "$OUT_GRID_RES"' EXIT
# Reference: the full CI spec, storeless — every cell computed fresh.
cargo run --release -p alba-bench --bin repro -- \
    --grid specs/grid_ci.json --grid-workers 2 --out "$OUT_GRID_COLD" >/dev/null
# Prime the store with the partial spec (the first seed only — what a
# sweep killed mid-flight leaves behind), then resume the full spec.
cargo run --release -p alba-bench --bin repro -- \
    --grid specs/grid_ci_partial.json --grid-workers 2 \
    --store "$GRID_STORE" --out "$OUT_GRID_PART" >/dev/null
cargo run --release -p alba-bench --bin repro -- \
    --grid specs/grid_ci.json --grid-workers 2 \
    --store "$GRID_STORE" --out "$OUT_GRID_RES" >/dev/null
cmp "$OUT_GRID_COLD/grid_ci.json" "$OUT_GRID_RES/grid_ci.json" \
    || { echo "resumed grid report diverged from the storeless run" >&2; exit 1; }
cmp "$OUT_GRID_COLD/grid_ci_leaderboard.md" "$OUT_GRID_RES/grid_ci_leaderboard.md" \
    || { echo "resumed grid leaderboard diverged from the storeless run" >&2; exit 1; }
python3 - "$OUT_GRID_PART" "$OUT_GRID_RES" <<'EOF'
import json
import pathlib
import sys

part, res = (pathlib.Path(p) for p in sys.argv[1:3])

def cell_row(out):
    stats = json.loads((out / "store_stats_grid_ci.json").read_text())
    (row,) = [k for k in stats["kinds"] if k["kind"] == "cell"]
    return row

primed = cell_row(part)
assert primed["cache_misses"] == 3 and primed["cache_hits"] == 0, primed
resumed = cell_row(res)
assert resumed["cache_hits"] == 3, f"resume must memo-hit the primed cells: {resumed}"
assert resumed["cache_misses"] == 3, f"resume must compute only the new seed: {resumed}"
assert resumed["corrupt_entries"] == 0, resumed
print(f"  6 cells: 3 primed, resume hit {resumed['cache_hits']} + computed "
      f"{resumed['cache_misses']}, report byte-identical to storeless run: OK")
EOF
# The fig6 spec at smoke scale: a cold 1-worker run fills the store, a
# warm 2-worker run must hit every cell, and a storeless 2-worker run
# must agree with both byte for byte.
FIG6_STORE=$(mktemp -d)
OUT_FIG6_COLD=$(mktemp -d)
OUT_FIG6_WARM=$(mktemp -d)
OUT_FIG6_W2=$(mktemp -d)
trap 'rm -rf "$OUT_MON" "$STORE_DIR" "$OUT_COLD" "$OUT_WARM" "$OUT_CHAOS_A" "$OUT_CHAOS_B" "$OUT_GW_A" "$OUT_GW_B" "$GRID_STORE" "$OUT_GRID_COLD" "$OUT_GRID_PART" "$OUT_GRID_RES" "$FIG6_STORE" "$OUT_FIG6_COLD" "$OUT_FIG6_WARM" "$OUT_FIG6_W2"' EXIT
FIG6=(cargo run --release -p alba-bench --bin repro -- --grid specs/fig6.json --scale smoke --seed 7)
"${FIG6[@]}" --grid-workers 1 --store "$FIG6_STORE" --out "$OUT_FIG6_COLD" >/dev/null
"${FIG6[@]}" --grid-workers 2 --store "$FIG6_STORE" --out "$OUT_FIG6_WARM" >/dev/null
"${FIG6[@]}" --grid-workers 2 --out "$OUT_FIG6_W2" >/dev/null
for out in "$OUT_FIG6_WARM" "$OUT_FIG6_W2"; do
    for f in grid_fig6.json grid_fig6_leaderboard.md; do
        cmp "$OUT_FIG6_COLD/$f" "$out/$f" \
            || { echo "fig6 grid $f diverged across store state or worker count" >&2; exit 1; }
    done
done
python3 - "$OUT_FIG6_COLD" "$OUT_FIG6_WARM" <<'EOF'
import json
import pathlib
import sys

cold, warm = (pathlib.Path(p) for p in sys.argv[1:3])

def cell_row(out):
    stats = json.loads((out / "store_stats_grid_fig6.json").read_text())
    (row,) = [k for k in stats["kinds"] if k["kind"] == "cell"]
    return row

cells = len(json.loads((cold / "grid_fig6.json").read_text())["cells"])
first = cell_row(cold)
assert first["cache_misses"] == cells and first["cache_hits"] == 0, first
again = cell_row(warm)
assert again["cache_hits"] == cells and again["cache_misses"] == 0, again
assert again["corrupt_entries"] == 0, again
print(f"  fig6: {cells} cells, warm store hit every one; cold, warm and "
      f"2-worker reports byte-identical: OK")
EOF

echo "==> parallel smoke (fleet_monitor at 1 vs 4 workers: artifacts byte-identical)"
OUT_PAR_1=$(mktemp -d)
OUT_PAR_4=$(mktemp -d)
trap 'rm -rf "$OUT_MON" "$STORE_DIR" "$OUT_COLD" "$OUT_WARM" "$OUT_CHAOS_A" "$OUT_CHAOS_B" "$OUT_GW_A" "$OUT_GW_B" "$GRID_STORE" "$OUT_GRID_COLD" "$OUT_GRID_PART" "$OUT_GRID_RES" "$FIG6_STORE" "$OUT_FIG6_COLD" "$OUT_FIG6_WARM" "$OUT_FIG6_W2" "$OUT_PAR_1" "$OUT_PAR_4"' EXIT
ALBA_WORKERS=1 ALBA_MONITOR_OUT="$OUT_PAR_1" \
    cargo run --release --example fleet_monitor >/dev/null
ALBA_WORKERS=4 ALBA_MONITOR_OUT="$OUT_PAR_4" \
    cargo run --release --example fleet_monitor >/dev/null
cmp "$OUT_PAR_1/fleet_monitor_events.jsonl" "$OUT_PAR_4/fleet_monitor_events.jsonl" \
    || { echo "event logs diverged between 1-worker and 4-worker runs" >&2; exit 1; }
# The per-worker pool gauges (par_worker_*) legitimately depend on the
# worker count; every other exposition line must agree exactly.
diff <(grep -v 'par_worker' "$OUT_PAR_1/fleet_monitor_metrics.prom") \
     <(grep -v 'par_worker' "$OUT_PAR_4/fleet_monitor_metrics.prom") \
    || { echo "metric expositions diverged beyond par_worker_* across worker counts" >&2; exit 1; }
echo "  1-worker and 4-worker artifacts identical (modulo par_worker_* gauges): OK"

echo "==> benches (all six; each writes results/BENCH_*.json and fails on an unmet requirement)"
cargo bench -p alba-bench

echo "==> bench gate (no key declared higher/lower regressed >20% vs HEAD's points)"
cargo run --release -q -p alba-bench --bin bench_gate

echo "CI green."
