//! Causal-tracing overhead: the full serve pipeline with the tracer
//! disabled versus enabled.
//!
//! One measured region, two configurations: a complete
//! [`FleetService`] run at smoke scale (replay → ingest → shards →
//! alarms → AL gate), first with [`Tracer::disabled`] (the default
//! every non-traced deployment gets) and then with an enabled tracer
//! recording every hop into a memory sink and the per-lane flight
//! rings. Runs alternate base/traced in adjacent pairs; the overhead
//! is the median per-pair wall ratio, so one scheduler hiccup cannot
//! fake a regression. A loud co-tenant can, on one pass; the bench gate
//! judges the requirement on the median of its alternating passes.
//!
//! Requirement: enabled tracing costs at most [`MAX_OVERHEAD_PCT`] of
//! the untraced wall time. The bound is relative to the untraced
//! pipeline, so it tightens whenever the pipeline itself speeds up; the
//! absolute cost (`ns_per_window_traced`) is compared by the gate.
//!
//! Writes `results/BENCH_trace.json` through [`alba_bench::Report`].
//!
//! Run with: `cargo bench -p alba-bench --bench trace_overhead`

use std::sync::Arc;
use std::time::Instant;

use alba_bench::{Better, Op, Report};
use alba_obs::{MemorySink, Obs, TickClock};
use alba_serve::{FleetService, ServeConfig, Tracer};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

/// Largest accepted tracing overhead, percent of the untraced wall time.
const MAX_OVERHEAD_PCT: f64 = 10.0;

fn config() -> ServeConfig {
    // The sim session is long on purpose: the measured region must
    // dwarf scheduler noise, or the overhead ratio measures the
    // machine's mood instead of the tracer.
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, 42);
    cfg.fleet.duration_override_s = Some(1200);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    // Keep the measured region pure ingest + diagnosis: no retraining.
    cfg.max_retrains = 0;
    cfg
}

struct RunResult {
    wall_s: f64,
    windows: u64,
    hops: u64,
}

/// One full service run; `traced` decides whether a live tracer (memory
/// sink + flight rings) rides along.
fn run_once(traced: bool) -> RunResult {
    let tracer = if traced {
        Tracer::new(42, Arc::new(TickClock::new()), Some(Arc::new(MemorySink::new())), None)
    } else {
        Tracer::disabled()
    };
    let mut svc = FleetService::with_tracer(config(), Obs::disabled(), tracer.clone());
    let t = Instant::now();
    let stats = svc.run_to_completion();
    let wall_s = t.elapsed().as_secs_f64().max(1e-9);
    assert!(stats.windows > 0, "bench session must diagnose windows");
    if traced {
        assert!(tracer.hops_recorded() > 0, "traced run must record hops");
    }
    RunResult { wall_s, windows: stats.windows, hops: tracer.hops_recorded() }
}

/// A discarded warmup pair, then 7 alternating base/traced pairs.
/// Adjacent pair members share whatever drift (thermal, cache, a
/// neighbour stealing cores) the machine has at that moment, so the
/// per-pair wall ratio cancels it; the median ratio then shrugs off the
/// odd pair that caught a scheduler hiccup. Throughput is reported from
/// each side's median run.
fn main() {
    run_once(false);
    run_once(true);
    let (mut base, mut traced): (Vec<RunResult>, Vec<RunResult>) =
        (0..7).map(|_| (run_once(false), run_once(true))).unzip();
    let mut ratios: Vec<f64> = base.iter().zip(&traced).map(|(b, t)| t.wall_s / b.wall_s).collect();
    ratios.sort_by(f64::total_cmp);
    let median_run = |runs: &mut Vec<RunResult>| {
        runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        runs.swap_remove(runs.len() / 2)
    };
    let (base, traced, median_ratio) =
        (median_run(&mut base), median_run(&mut traced), ratios[ratios.len() / 2]);
    let ns_base = base.wall_s * 1e9 / base.windows as f64;
    let ns_traced = traced.wall_s * 1e9 / traced.windows as f64;
    Report::new("trace_overhead")
        .metric("ns_per_window_base", ns_base, "ns", Better::Lower)
        .metric("ns_per_window_traced", ns_traced, "ns", Better::Lower)
        .metric("trace_overhead_pct", (median_ratio - 1.0) * 100.0, "%", Better::Info)
        .metric("trace_hops_recorded", traced.hops as f64, "hops", Better::Info)
        .metric("trace_hops_per_s", traced.hops as f64 / traced.wall_s, "hops/s", Better::Higher)
        .require("trace_hops_recorded", Op::Above, 0.0)
        .require("trace_overhead_pct", Op::AtMost, MAX_OVERHEAD_PCT)
        .finish("BENCH_trace.json");
}
