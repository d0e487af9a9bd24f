//! Integration tests for the fleet service: end-to-end behaviour,
//! seeded determinism (bit-identical replay, identical service runs),
//! batched/unbatched equivalence and hot-swap boundary semantics.

use std::sync::Arc;

use alba_data::Matrix;
use alba_features::{ExtractScratch, Mvts};
use alba_ml::{Classifier, DiagnosisModel, FittedModel, ForestParams, RandomForest};
use alba_serve::{FleetConfig, FleetService, ReplaySource, ServeConfig};
use alba_telemetry::Scale;
use albadross::{prepare_split, MonitorConfig, NodeMonitor, SplitConfig, System, SystemData};

/// A small but non-trivial fleet configuration for the tests.
fn test_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, seed);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    cfg
}

#[test]
fn end_to_end_smoke_fleet() {
    let mut svc = FleetService::new(test_config(42));
    assert_eq!(svc.n_nodes(), 16);
    let stats = svc.run_to_completion();

    // Every stream sample was emitted and (absent overflow) ingested.
    assert!(stats.samples_emitted > 16 * 150, "full streams were replayed");
    assert_eq!(stats.ingest.pushed + stats.ingest.dropped, stats.samples_emitted);

    // Windows were diagnosed on every node.
    assert!(stats.windows > 0);
    for node in 0..svc.n_nodes() {
        assert!(!svc.monitor(node).verdicts().is_empty(), "node {node} was never diagnosed");
    }

    // Shard accounting adds up.
    assert_eq!(stats.shards.len(), 4);
    let shard_windows: u64 = stats.shards.iter().map(|s| s.counters.windows).sum();
    assert_eq!(shard_windows, stats.windows);
    let assigned: usize = stats.shards.iter().map(|s| s.nodes).sum();
    assert_eq!(assigned, 16);

    // The stats export round-trips through JSON.
    let json = stats.to_json().expect("stats serialise");
    let back: alba_serve::ServiceStats = serde_json::from_str(&json).unwrap();
    assert_eq!(back, stats);
}

#[test]
fn alarms_land_on_anomalous_nodes() {
    let mut svc = FleetService::new(test_config(42));
    let anomalous: Vec<usize> = (0..svc.n_nodes()).filter(|&n| svc.truth(n) != "healthy").collect();
    assert!(!anomalous.is_empty(), "the smoke fleet should include injected anomalies");
    svc.run_to_completion();

    assert!(!svc.alarms().is_empty(), "injected anomalies must raise alarms");
    // Confirmed alarms overwhelmingly come from truly anomalous nodes.
    let (mut hits, mut total) = (0u32, 0u32);
    for na in svc.alarms() {
        total += 1;
        if svc.truth(na.node) != "healthy" {
            hits += 1;
            assert_eq!(na.alarm.label, svc.truth(na.node), "node {} alarm mislabelled", na.node);
        }
    }
    assert!(hits * 2 > total, "most alarms should hit anomalous nodes ({hits}/{total})");
}

#[test]
fn feedback_loop_retrains_and_swaps() {
    let mut svc = FleetService::new(test_config(42));
    let stats = svc.run_to_completion();
    assert!(stats.feedback.requested > 0, "uncertain windows must request labels");
    assert!(stats.feedback.serviced > 0, "requests must be serviced by the oracle");
    assert!(stats.feedback.retrains >= 1, "at least one retrain round must run");
    assert_eq!(stats.feedback.retrains as usize, stats.swap_ticks.len());
    assert!(stats.feedback.retrains as usize <= svc.config().max_retrains);
}

#[test]
fn replay_is_bit_identical_across_builds() {
    let cfg = FleetConfig::new(System::Volta, Scale::Smoke, 8, 17);
    let mut a = ReplaySource::build(&cfg);
    let mut b = ReplaySource::build(&cfg);
    while !a.is_exhausted() {
        for (x, y) in a.tick().iter().zip(&b.tick()) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.at, y.at);
            for (u, v) in x.values.iter().zip(&y.values) {
                assert_eq!(u.to_bits(), v.to_bits(), "replay must be bit-identical");
            }
        }
    }
}

#[test]
fn service_runs_are_deterministic() {
    let sa = FleetService::new(test_config(7)).run_to_completion();
    let sb = FleetService::new(test_config(7)).run_to_completion();
    assert_eq!(sa.windows, sb.windows);
    assert_eq!(sa.alarms, sb.alarms);
    assert_eq!(sa.alarms_by_label, sb.alarms_by_label);
    assert_eq!(sa.swap_ticks, sb.swap_ticks);
    assert_eq!(sa.feedback.requested, sb.feedback.requested);
    assert_eq!(sa.feedback.serviced, sb.feedback.serviced);
    assert_eq!(sa.ingest, sb.ingest);
}

#[test]
fn unbatched_baseline_matches_batched_service() {
    let mut batched = FleetService::new(test_config(11));
    let mut unbatched = FleetService::new(ServeConfig { batched: false, ..test_config(11) });
    let sa = batched.run_to_completion();
    let sb = unbatched.run_to_completion();
    // Batching changes *how* inference runs, never *what* it computes.
    assert_eq!(sa.windows, sb.windows);
    assert_eq!(sa.alarms, sb.alarms);
    assert_eq!(sa.alarms_by_label, sb.alarms_by_label);
    assert_eq!(sa.swap_ticks, sb.swap_ticks);
    assert_eq!(batched.alarms(), unbatched.alarms());
    // The unbatched baseline pays one model call per window.
    let calls_b: u64 = sa.shards.iter().map(|s| s.counters.batches).sum();
    let calls_u: u64 = sb.shards.iter().map(|s| s.counters.batches).sum();
    assert_eq!(calls_u, sb.windows);
    assert!(calls_b < calls_u, "batching must amortise model calls");
}

/// One sample through a lone monitor's hooks: push, extract, scale,
/// diagnose, apply.
fn ingest(monitor: &mut NodeMonitor, scratch: &mut ExtractScratch, readings: &[f64]) {
    if monitor.push(readings) {
        let mut row = Vec::new();
        monitor.window_row_into(scratch, &mut row);
        let mut x = Matrix::from_rows(&[row]);
        monitor.view().scale_inplace(&mut x);
        let diagnosis = monitor.model().diagnose(&x).remove(0);
        monitor.apply_diagnosis(diagnosis);
    }
}

/// Predictions change exactly at the swap boundary: verdicts before the
/// swap match a model-A-only run, verdicts after match a model-B-only
/// run (the buffered telemetry and streak survive the swap untouched).
#[test]
fn hot_swap_changes_predictions_only_at_the_boundary() {
    let sd = SystemData::generate(System::Volta, albadross::FeatureMethod::Mvts, Scale::Smoke, 61);
    let split =
        prepare_split(&sd.dataset, &SplitConfig { train_fraction: 0.6, top_k_features: 300 }, 61);
    let fit = |seed: u64| {
        let mut f =
            RandomForest::new(ForestParams { n_estimators: 9, seed, ..ForestParams::default() });
        f.fit(&split.train.x, &split.train.y, split.train.n_classes());
        Arc::new(DiagnosisModel::new(FittedModel::Forest(f), split.train.encoder.names().to_vec()))
    };
    let (model_a, model_b) = (fit(1), fit(2));

    let replay = ReplaySource::build(&FleetConfig {
        duration_override_s: Some(200),
        ..FleetConfig::new(System::Volta, Scale::Smoke, 1, 23)
    });
    let stream = &replay.streams()[0].telemetry.series;
    let cfg = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    let mk = |model: &Arc<DiagnosisModel>| {
        NodeMonitor::new(
            Arc::clone(model),
            Arc::new(Mvts),
            stream.metrics.clone(),
            split.feature_view(),
            cfg.clone(),
        )
    };
    let mut only_a = mk(&model_a);
    let mut only_b = mk(&model_b);
    let mut swapped = mk(&model_a);

    let swap_at_window = 4;
    let mut scratch = ExtractScratch::default();
    let mut row = vec![0.0; stream.n_metrics()];
    for t in 0..stream.len() {
        for (m, r) in row.iter_mut().enumerate() {
            *r = stream.metric(m)[t];
        }
        if swapped.verdicts().len() == swap_at_window {
            swapped.set_model(Arc::clone(&model_b));
        }
        ingest(&mut only_a, &mut scratch, &row);
        ingest(&mut only_b, &mut scratch, &row);
        ingest(&mut swapped, &mut scratch, &row);
    }
    assert!(only_a.verdicts().len() > swap_at_window + 2, "stream long enough to straddle");
    // Models genuinely disagree somewhere (otherwise the test is vacuous).
    assert!(
        only_a.verdicts().iter().zip(only_b.verdicts()).any(|(x, y)| x.diagnosis != y.diagnosis),
        "seeds 1 and 2 should yield distinguishable forests"
    );
    for (i, v) in swapped.verdicts().iter().enumerate() {
        let expect = if i < swap_at_window {
            &only_a.verdicts()[i].diagnosis
        } else {
            &only_b.verdicts()[i].diagnosis
        };
        assert_eq!(
            &v.diagnosis,
            expect,
            "verdict {i} must follow model {} (swap at {swap_at_window})",
            if i < swap_at_window { "A" } else { "B" }
        );
    }
}

#[test]
fn eclipse_fleet_also_serves() {
    let mut cfg = ServeConfig::new(System::Eclipse, Scale::Smoke, 12, 5);
    cfg.fleet.duration_override_s = Some(120);
    cfg.n_shards = 3;
    let mut svc = FleetService::new(cfg);
    let stats = svc.run_to_completion();
    assert!(stats.windows > 0);
    assert_eq!(stats.shards.len(), 3);
}
