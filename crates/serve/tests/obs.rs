//! Observability integration: deterministic JSONL event logs across
//! equally-seeded runs, misrouted-sample resilience, and the
//! Prometheus-style exposition of an observed service run.

use std::sync::Arc;

use alba_features::Mvts;
use alba_obs::{MemorySink, Obs, TickClock};
use alba_serve::{FleetService, ServeConfig, Shard, TelemetrySample};
use alba_telemetry::Scale;
use albadross::{prepare_split, MonitorConfig, SplitConfig, System, SystemData};

fn test_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, seed);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    cfg
}

/// Runs one observed service to completion, returning its event log.
fn observed_run(seed: u64) -> Vec<String> {
    let clock = Arc::new(TickClock::new());
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_clock(clock, Some(sink.clone()));
    FleetService::with_obs(test_config(seed), obs).run_to_completion();
    sink.lines()
}

/// The acceptance bar for deterministic observability: two runs with
/// the same seed and a tick clock emit *identical* JSONL event logs.
#[test]
fn event_logs_are_identical_across_equal_seeds() {
    let a = observed_run(42);
    let b = observed_run(42);
    assert!(!a.is_empty(), "an observed run must emit events");
    assert_eq!(a, b, "equally-seeded runs must log identically");
    // The log is genuinely structured: every line parses as an object
    // with ts and kind, and the expected kinds all occur.
    for line in &a {
        assert!(line.starts_with("{\"ts\":") && line.ends_with('}'), "malformed line: {line}");
    }
    for kind in ["alarm", "label_request", "model_swap"] {
        assert!(
            a.iter().any(|l| l.contains(&format!("\"kind\":\"{kind}\""))),
            "expected at least one {kind} event"
        );
    }
    // A different seed produces a different log (the assertion above is
    // not vacuous).
    let c = observed_run(43);
    assert_ne!(a, c, "different seeds should diverge");
}

/// The Prometheus exposition is part of the replay contract too: two
/// equally-seeded runs on a tick clock must expose *byte-identical*
/// metric pages, which fails if any map iteration order leaks through.
#[test]
fn exposition_is_identical_across_equal_seeds() {
    let expose = |seed| {
        let clock = Arc::new(TickClock::new());
        let obs = Obs::with_clock(clock, None);
        FleetService::with_obs(test_config(seed), obs.clone()).run_to_completion();
        obs.expose()
    };
    let a = expose(77);
    let b = expose(77);
    assert!(!a.is_empty(), "an observed run must expose metrics");
    assert_eq!(a, b, "equally-seeded runs must expose byte-identical metric pages");
}

#[test]
fn misrouted_sample_is_counted_not_fatal() {
    let sd = SystemData::generate(System::Volta, albadross::FeatureMethod::Mvts, Scale::Smoke, 61);
    let split =
        prepare_split(&sd.dataset, &SplitConfig { train_fraction: 0.6, top_k_features: 300 }, 61);
    let mut f = alba_ml::RandomForest::new(alba_ml::ForestParams {
        n_estimators: 5,
        seed: 61,
        ..alba_ml::ForestParams::default()
    });
    use alba_ml::Classifier;
    f.fit(&split.train.x, &split.train.y, split.train.n_classes());
    let model = Arc::new(alba_ml::DiagnosisModel::new(
        alba_ml::FittedModel::Forest(f),
        split.train.encoder.names().to_vec(),
    ));
    // A monitor ingests raw metric rows; reuse the campaign's metric defs.
    let replay = alba_serve::ReplaySource::build(&alba_serve::FleetConfig::new(
        System::Volta,
        Scale::Smoke,
        2,
        61,
    ));
    let metric_defs = replay.metrics().to_vec();

    let obs = Obs::wall();
    // The shard owns node 0 only; node 7 is someone else's.
    let mut shard = Shard::new(
        0,
        vec![0],
        model,
        Arc::new(Mvts),
        &metric_defs,
        split.feature_view(),
        &MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 },
        true,
        obs.clone(),
    );
    let good = TelemetrySample { node: 0, at: 0, values: vec![0.0; metric_defs.len()] };
    let bad = TelemetrySample { node: 7, at: 0, values: vec![0.0; metric_defs.len()] };
    let report = shard.process(&[good, bad.clone(), bad], 0);
    assert!(report.alarms.is_empty());
    assert_eq!(shard.stats().samples, 1, "only the owned node's sample lands");
    assert_eq!(shard.stats().misrouted, 2, "foreign samples are counted, not fatal");
    assert_eq!(obs.counter("shard_misrouted_total", &[("shard", "0")]).get(), 2);
}

#[test]
fn exposition_covers_stages_shards_and_events() {
    let obs = Obs::wall();
    let mut svc = FleetService::with_obs(test_config(42), obs.clone());
    let stats = svc.run_to_completion();
    let text = svc.prometheus();

    // Registry metrics: service stages, shard stages, ingest counters.
    for needle in [
        "# TYPE stage_ns histogram",
        "stage_ns_bucket{stage=\"process\"",
        "stage_ns_count{stage=\"feedback\"}",
        "shard_stage_ns_count{shard=\"0\",stage=\"infer\"}",
        "# TYPE ingest_accepted_total counter",
        "# TYPE retrain_ns histogram",
    ] {
        assert!(text.contains(needle), "exposition missing {needle:?}:\n{text}");
    }
    // Appended per-shard histograms, mergeable into the fleet summary.
    for shard in 0..stats.shards.len() {
        assert!(text.contains(&format!("shard_busy_ns_count{{shard=\"{shard}\"}}")));
        assert!(text.contains(&format!("shard_latency_ticks_count{{shard=\"{shard}\"}}")));
    }
    // The stats snapshot agrees with the histograms it was derived from.
    let total_latency: u64 = stats.shards.iter().map(|s| s.latency.count).sum();
    assert_eq!(total_latency, stats.windows, "one latency record per window");
    assert_eq!(stats.latency.count, stats.windows, "fleet merge covers all shards");
    assert!(stats.latency.p50 <= stats.latency.p99);
    assert!(stats.latency.p99 <= stats.latency.max);
    // The stage spans fired once per tick.
    let snap = obs.histogram("stage_ns", &[("stage", "process")]).snapshot().unwrap();
    assert_eq!(snap.count as usize, stats.ticks);
}
