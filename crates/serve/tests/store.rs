//! Store-backed serving: replay determinism against the in-memory path
//! and warm restart from the write-ahead label journal.

use std::path::PathBuf;
use std::sync::Arc;

use alba_obs::{MemorySink, Obs, TickClock};
use alba_serve::{FleetService, ServeConfig};
use alba_telemetry::Scale;
use albadross::{prepare_split, MonitorConfig, System, SystemData};

fn test_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, seed);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    cfg
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alba-serve-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs one observed service to completion; returns its event log and
/// the obs registry (for counter assertions).
fn observed_run(seed: u64, store_dir: Option<&PathBuf>) -> (Vec<String>, Obs) {
    let clock = Arc::new(TickClock::new());
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_clock(clock, Some(sink.clone()));
    let mut cfg = test_config(seed);
    cfg.store_dir = store_dir.map(|d| d.display().to_string());
    FleetService::with_obs(cfg, obs.clone()).run_to_completion();
    (sink.lines(), obs)
}

/// The tentpole determinism bar: a store-backed service — cold (streams
/// generated then persisted) *and* warm (streams decoded back out of
/// segment files) — emits an event log byte-identical to the in-memory
/// service's.
#[test]
fn store_backed_replay_logs_identically_to_in_memory() {
    let dir = tmpdir("replay-determinism");
    let (memory, _) = observed_run(42, None);
    assert!(!memory.is_empty(), "an observed run must emit events");

    let (cold, cold_obs) = observed_run(42, Some(&dir));
    assert_eq!(memory, cold, "cold store-backed run must log byte-identically");
    assert_eq!(
        cold_obs.counter("store_cache_misses_total", &[("kind", "fleet")]).get(),
        1,
        "cold run generates and persists the fleet"
    );

    // The journal now holds the cold run's rounds; clear it so the warm
    // run exercises the stream cache alone.
    std::fs::remove_dir_all(dir.join("journals")).unwrap();
    let (warm, warm_obs) = observed_run(42, Some(&dir));
    assert_eq!(memory, warm, "warm store-backed run must log byte-identically");
    assert!(
        warm_obs.counter("store_cache_hits_total", &[("kind", "fleet")]).get() >= 1,
        "warm run must read the fleet back from the store"
    );
    assert!(
        warm_obs.counter("store_cache_hits_total", &[("kind", "features")]).get() >= 1,
        "warm run must read the training features back from the store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A k-round warm restart fits once, after absorbing every journalled
/// round, and serializes the same model as the k sequential `fold_in`
/// refits the journalled run deployed.
#[test]
fn warm_restart_fits_once() {
    let dir = tmpdir("fits-once");
    let mut cfg = test_config(42);
    cfg.store_dir = Some(dir.display().to_string());

    let mut first = FleetService::with_obs(cfg.clone(), Obs::disabled());
    let rounds = first.run_to_completion().swap_ticks.len() as u64;
    assert!(rounds >= 2, "the journal must hold several rounds");
    assert_eq!(first.retrainer().fits(), 1 + rounds, "an initial fit, then one per round");

    let second = FleetService::with_obs(cfg, Obs::disabled());
    assert_eq!(second.swap_ticks().len() as u64, rounds, "every round is restored");
    assert_eq!(second.retrainer().fits(), 1, "a warm restart fits exactly once");
    assert_eq!(second.retrainer().n_samples(), first.retrainer().n_samples());
    assert_eq!(second.model().to_json(), first.model().to_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// Warm restart: a second service over the same store replays the label
/// journal and comes up with the first service's *final* model —
/// bit-identical predictions, restored retrain budget — without asking
/// the oracle for a single label.
#[test]
fn journal_replay_restores_the_model_and_budget() {
    let dir = tmpdir("warm-restart");
    let cfg = {
        let mut c = test_config(42);
        c.store_dir = Some(dir.display().to_string());
        c
    };

    let mut first = FleetService::with_obs(cfg.clone(), Obs::disabled());
    let stats = first.run_to_completion();
    assert_eq!(stats.swap_ticks.len(), 2, "the run must exhaust its retrain budget");

    // Rows to compare models on: the held-out side of the offline split.
    let sd = SystemData::generate(cfg.fleet.system, cfg.method, cfg.fleet.scale, cfg.fleet.seed);
    let split = prepare_split(&sd.dataset, &cfg.split, cfg.fleet.seed);
    let reference = first.model().probabilities(&split.test.x);

    let second = FleetService::with_obs(cfg.clone(), Obs::disabled());
    assert_eq!(
        second.swap_ticks(),
        &stats.swap_ticks[..],
        "restored rounds must land at the journalled ticks"
    );
    let restored = second.model().probabilities(&split.test.x);
    assert_eq!(reference.shape(), restored.shape());
    for (a, b) in reference.as_slice().iter().zip(restored.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "restored model must predict bit-identically");
    }

    // The restored budget is spent: running the second service performs
    // no further retrains.
    let mut second = second;
    let second_stats = second.run_to_completion();
    assert_eq!(
        second_stats.swap_ticks, stats.swap_ticks,
        "a warm-restarted service must not re-spend the labelling budget"
    );
    std::fs::remove_dir_all(&dir).ok();
}
