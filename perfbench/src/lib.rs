//! The ALBADross performance benchmark: workloads, input generator,
//! per-layer tracing and result reporting. `src/main.rs` is the command.

pub mod schedule;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod sysinfo;

/// Per-layer metrics of the traced run, with their units, in the order
/// `BENCHMARK.json` lists them. A layer that runs no code on a workload
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.push_ns_per_sample", "ns"),
    ("features.extract_us_per_window", "us"),
    ("features.scale_ns_per_window", "ns"),
    ("ml.predict_us_per_window", "us"),
    ("ml.predict_rows_per_call", "rows"),
    ("core.hysteresis_ns_per_window", "ns"),
    ("serve.ingest_ns_per_sample", "ns"),
    ("serve.retrain_ms_per_round", "ms"),
    ("serve.swap_ms_p50", "ms"),
    ("store.journal_append_us", "us"),
    ("net.gateway_us_per_tick", "us"),
    ("par.epoch_ms_p50", "ms"),
    ("par.epoch_ms_p99", "ms"),
    ("serve.orchestration_ms_per_tick", "ms"),
    ("proc.ctx_switches_per_tick", "count"),
    ("proc.cpu_util", "cores"),
    ("store.features_read_ms", "ms"),
    ("store.fleet_read_ms", "ms"),
    ("features.select_ms", "ms"),
    ("ml.initial_fit_ms", "ms"),
    ("serve.shard_build_ms", "ms"),
    ("active.query_ms_per_round", "ms"),
    ("active.eval_ms_per_round", "ms"),
    ("ml.fit_ms.rf", "ms"),
    ("ml.fit_ms.lgbm", "ms"),
    ("ml.predict_ms.rf", "ms"),
    ("ml.predict_ms.lgbm", "ms"),
    ("grid.cell_s_p50", "s"),
    ("grid.worker_balance", "ratio"),
    ("obs.overhead_pct", "%"),
    ("bench.input_mb", "MiB"),
];

/// Unit of a per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// Orders a traced report's metrics as [`PER_LAYER`] lists them, adding
/// a 0 for every layer the workload did not exercise.
pub fn complete_layers(r: &mut stats::Report) {
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        match r.metrics.iter().position(|m| m.name == *name) {
            Some(i) => ordered.push(r.metrics.swap_remove(i)),
            None => {
                ordered.push(stats::Metric { name: name.to_string(), value: 0.0, unit, samples: 0 })
            }
        }
    }
    assert!(
        r.metrics.is_empty(),
        "unlisted per-layer metrics: {:?}",
        r.metrics.iter().map(|m| &m.name).collect::<Vec<_>>()
    );
    r.metrics = ordered;
}
