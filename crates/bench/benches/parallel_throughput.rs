//! Parallel shard runtime and zero-copy extraction throughput.
//!
//! Three measured regions:
//!
//! * `extract` — one unscaled model-input row from a 34-metric,
//!   60-sample window with NaN gaps, through the **materialised** path
//!   (`FeatureView::unscaled_row`: clone + full preprocess + extract
//!   every metric, then select) versus the **zero-copy** path
//!   (`FeatureView::unscaled_row_into`: per-metric sub-slice preprocess
//!   in a reusable scratch, only the metrics the [`ExtractPlan`]
//!   touches). The selected set mirrors the production Volta profile:
//!   300 features clustered on 18 of the 34 metrics, so the plan skips
//!   roughly half the catalog. The zero-copy path must be at least 2x
//!   the materialised one.
//! * `serve` — a full `FleetService` replay at 1/2/4/8 pool workers,
//!   node-metric readings per wall second (on a 1–2 core host, worker
//!   counts beyond the core count measure barrier overhead, not
//!   parallel speedup).
//! * `merge barrier` — p50/p99 of `par_epoch_ns` (dispatch → last
//!   shard joined) from a wall-clock `Obs` over the 4-worker run.
//!
//! Writes `results/BENCH_parallel.json` through [`alba_bench::Report`].
//!
//! Run with: `cargo bench -p alba-bench --bench parallel_throughput`

use std::hint::black_box;
use std::time::Instant;

use alba_bench::{Better, Op, Report};
use alba_data::{Matrix, MetricDef, MetricKind, MultiSeries};
use alba_features::{FeatureExtractor, FeatureView, MinMaxScaler, Mvts, PreprocessConfig};
use alba_obs::Obs;
use alba_serve::{FleetService, ServeConfig};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

const WINDOW: usize = 60;
const N_METRICS: usize = 34;
const SELECTED_METRICS: usize = 18;
const TOP_K: usize = 300;

/// A Volta-shaped window: 34 metrics (gauge/counter mix), 60 samples,
/// a NaN gap stripe so the interpolation path is on the measured clock.
fn window() -> MultiSeries {
    let metrics: Vec<MetricDef> = (0..N_METRICS)
        .map(|m| MetricDef {
            name: format!("m{m}"),
            subsystem: "bench".to_string(),
            kind: if m % 4 == 0 { MetricKind::Counter } else { MetricKind::Gauge },
        })
        .collect();
    let mut s = MultiSeries::new(metrics);
    for t in 0..WINDOW {
        let row: Vec<f64> = (0..N_METRICS)
            .map(|m| {
                if t % 13 == 5 && m % 7 == 2 {
                    f64::NAN // sensor gap
                } else {
                    (t as f64 * 0.31 + m as f64).sin() * 12.0 + (m * t) as f64 * 0.01 + 50.0
                }
            })
            .collect();
        s.push_sample(&row);
    }
    s
}

/// The production selection profile: `TOP_K` features clustered on
/// `SELECTED_METRICS` of the `N_METRICS` metrics (chi-square selection
/// concentrates on the informative subsystems), spread deterministically
/// over each chosen metric's per-metric features.
fn production_view(npm: usize) -> FeatureView {
    let mut selected = Vec::with_capacity(TOP_K);
    let mut slot = 0usize;
    'outer: loop {
        for m in 0..SELECTED_METRICS {
            let metric = m * (N_METRICS / SELECTED_METRICS); // every other metric
            let f = metric * npm + (slot % npm);
            if !selected.contains(&f) {
                selected.push(f);
                if selected.len() == TOP_K {
                    break 'outer;
                }
            }
        }
        slot += 1;
    }
    selected.sort_unstable();
    let k = selected.len();
    let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[vec![0.0; k], vec![1.0; k]]));
    FeatureView::new(selected, scaler)
}

struct ExtractRun {
    materialized_rows_per_sec: f64,
    zero_copy_rows_per_sec: f64,
    speedup: f64,
}

fn bench_extract(reps: usize) -> ExtractRun {
    let ex = Mvts;
    let view = production_view(ex.n_features_per_metric());
    let pre = PreprocessConfig { trim_frac: 0.0, diff_counters: true, interpolate: true };
    let w = window();

    let plan = view.plan(&ex);
    let mut scratch = alba_features::ExtractScratch::default();
    let mut out = vec![0.0; view.n_features()];

    // Warm-up + the bit-identity check the whole refactor rests on.
    let golden = view.unscaled_row(&ex, &w, &pre);
    view.unscaled_row_into(&ex, &w, &pre, &plan, &mut scratch, &mut out);
    assert_eq!(
        golden.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the measured paths must be bit-identical"
    );

    // Interleaved rounds, best rate per path: the container is a shared
    // single core, so any one timed region can absorb a scheduler
    // stall — the per-path *maximum* over alternating chunks is the
    // stable statistic (criterion's min-time idea, by hand).
    const ROUNDS: usize = 5;
    let chunk = (reps / ROUNDS).max(1);
    let mut mat: f64 = 0.0;
    let mut zc: f64 = 0.0;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..chunk {
            // Materialised: clone + full preprocess + all 34 metrics.
            black_box(view.unscaled_row(&ex, black_box(&w), &pre));
        }
        mat = mat.max(chunk as f64 / t.elapsed().as_secs_f64().max(1e-9));

        let t = Instant::now();
        for _ in 0..chunk {
            // Zero-copy: planned extraction, reusable scratch, no clone.
            view.unscaled_row_into(&ex, black_box(&w), &pre, &plan, &mut scratch, &mut out);
            black_box(&out);
        }
        zc = zc.max(chunk as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }

    ExtractRun {
        materialized_rows_per_sec: mat,
        zero_copy_rows_per_sec: zc,
        speedup: zc / mat.max(1e-9),
    }
}

struct ServeRun {
    node_metrics_per_sec: f64,
    epoch_p50_ns: u64,
    epoch_p99_ns: u64,
}

/// One full replay at `workers` pool workers against a wall clock.
fn bench_serve(workers: usize) -> ServeRun {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, 42);
    cfg.fleet.duration_override_s = Some(120);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.max_retrains = 0; // pure ingest + diagnosis in the measured region
    cfg.n_workers = workers;
    let obs = Obs::wall();
    let mut svc = FleetService::with_obs(cfg, obs.clone());
    let readings_per_sample =
        svc.fleet_batches().first().and_then(|b| b.first()).map_or(0, |s| s.values.len());

    let t = Instant::now();
    let stats = svc.run_to_completion();
    let elapsed = t.elapsed().as_secs_f64().max(1e-9);
    assert!(stats.windows > 0, "bench replay must diagnose windows");

    let epochs = obs.histogram("par_epoch_ns", &[]).snapshot();
    ServeRun {
        node_metrics_per_sec: stats.samples_emitted as f64 * readings_per_sample as f64 / elapsed,
        epoch_p50_ns: epochs.as_ref().and_then(|h| h.quantile(0.50)).unwrap_or(0),
        epoch_p99_ns: epochs.as_ref().and_then(|h| h.quantile(0.99)).unwrap_or(0),
    }
}

fn main() {
    let extract = bench_extract(2_000);
    let workers = [1, 2, 4, 8];
    let runs: Vec<ServeRun> = workers.into_iter().map(bench_serve).collect();
    let barrier = &runs[2]; // the 4-worker run

    let mut report = Report::new("parallel_throughput");
    report
        .metric(
            "extract_rows_per_s_materialized",
            extract.materialized_rows_per_sec,
            "rows/s",
            Better::Higher,
        )
        .metric(
            "extract_rows_per_s_zero_copy",
            extract.zero_copy_rows_per_sec,
            "rows/s",
            Better::Higher,
        )
        .metric("extract_zero_copy_speedup", extract.speedup, "x", Better::Info);
    for (w, run) in workers.iter().zip(&runs) {
        let key = format!("serve_node_metrics_per_s_w{w}");
        report.metric(&key, run.node_metrics_per_sec, "node-metrics/s", Better::Higher);
    }
    report
        .metric("merge_barrier_p50_ns", barrier.epoch_p50_ns as f64, "ns", Better::Lower)
        .metric("merge_barrier_p99_ns", barrier.epoch_p99_ns as f64, "ns", Better::Lower)
        .require("extract_rows_per_s_materialized", Op::Above, 0.0)
        .require("extract_rows_per_s_zero_copy", Op::Above, 0.0)
        .require("serve_node_metrics_per_s_w1", Op::Above, 0.0)
        .require("serve_node_metrics_per_s_w4", Op::Above, 0.0)
        .require("merge_barrier_p99_ns", Op::Above, 0.0)
        .require("extract_zero_copy_speedup", Op::AtLeast, 2.0)
        .finish("BENCH_parallel.json");
}
