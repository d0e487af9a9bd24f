//! Fault-injection integration: for each fault class a seeded 52-node
//! fleet runs under a chaos plan, the service stays live, the recovery
//! counters match the plan, and equally-seeded chaotic runs emit
//! byte-identical event logs.

use std::path::PathBuf;
use std::sync::Arc;

use alba_chaos::{ChaosConfig, FaultEvent, FaultKind, FaultPlan};
use alba_obs::{MemorySink, Obs, TickClock};
use alba_serve::{FleetService, ServeConfig, ServiceStats};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

const NODES: usize = 52;
const DURATION: usize = 150;

fn test_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, NODES, seed);
    cfg.fleet.duration_override_s = Some(DURATION);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    cfg
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alba-chaos-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A plan holding exactly `events`, shaped for the test fleet.
fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
    FaultPlan { seed: 0, horizon: DURATION + 60, n_nodes: NODES, n_shards: 4, events }
}

fn event(kind: FaultKind, tick: usize, duration: usize, target: usize) -> FaultEvent {
    FaultEvent { kind, tick, duration, target, metric: 0, magnitude: 1 }
}

/// Runs one observed service under an explicit plan; returns the event
/// log and the final stats.
fn chaotic_run(
    seed: u64,
    plan: FaultPlan,
    store_dir: Option<&PathBuf>,
) -> (Vec<String>, ServiceStats) {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_clock(Arc::new(TickClock::new()), Some(sink.clone()));
    let mut cfg = test_config(seed);
    cfg.store_dir = store_dir.map(|d| d.display().to_string());
    let mut svc = FleetService::with_chaos_plan(cfg, plan, obs);
    let stats = svc.run_to_completion();
    (sink.lines(), stats)
}

/// Node blackouts: every sample inside a blackout window is dropped —
/// exactly as many as the plan covers — and the service stays live.
#[test]
fn blackouts_drop_exactly_the_planned_samples() {
    let plan = plan_with(vec![
        event(FaultKind::NodeBlackout, 30, 30, 5),
        event(FaultKind::NodeBlackout, 50, 40, 7),
    ]);
    let (lines, stats) = chaotic_run(42, plan, None);
    let chaos = stats.chaos.as_ref().expect("chaotic run exports chaos stats");
    // One sample per node per tick: the windows cover 30 + 40 ticks.
    assert_eq!(chaos.injected.blackout_drops, 70, "drops must match the plan exactly");
    assert_eq!(chaos.faults_started, 2, "both windows opened");
    assert!(stats.windows > 0, "the fleet keeps diagnosing around the dark nodes");
    assert!(stats.ticks >= DURATION, "the service ran to replay exhaustion");
    assert_eq!(
        lines.iter().filter(|l| l.contains(r#""kind":"fault_injected""#)).count(),
        2,
        "each window opening is a structured event"
    );
}

/// Shard panics: the supervisor catches each injected panic, restarts
/// the shard, and the fleet finishes the run with every shard serving.
#[test]
fn shard_panics_are_supervised_and_restarted() {
    let plan = plan_with(vec![
        event(FaultKind::ShardPanic, 20, 1, 0),
        event(FaultKind::ShardPanic, 60, 1, 2),
        event(FaultKind::ShardPanic, 90, 1, 0),
    ]);
    let (lines, stats) = chaotic_run(42, plan, None);
    let chaos = stats.chaos.as_ref().unwrap();
    assert_eq!(chaos.shard_restarts, 3, "one restart per planned panic");
    assert_eq!(
        lines.iter().filter(|l| l.contains(r#""kind":"shard_restart""#)).count(),
        3,
        "each restart is a structured event"
    );
    assert!(stats.ticks >= DURATION, "the service survives every panic");
    // The restarted shards kept serving: windows were diagnosed after
    // the last panic (the fleet-wide count well exceeds what 90 ticks
    // could produce alone).
    assert!(stats.windows > 0);
    for sh in &stats.shards {
        assert!(sh.counters.samples > 0, "shard {} served after restart", sh.id);
    }
    assert!(chaos.total_recoveries() >= 3);
}

/// Oracle outage: retrain rounds defer with bounded backoff while the
/// oracle is dark, nothing is lost from the label queue, and the first
/// round after the window closes succeeds and counts a recovery.
#[test]
fn oracle_outage_defers_retraining_then_recovers() {
    // One wide outage covering the whole first phase of the run: the
    // first retrain-ready tick is guaranteed to land inside it.
    let plan = plan_with(vec![event(FaultKind::OracleOutage, 0, 120, 0)]);
    let (lines, stats) = chaotic_run(42, plan, None);
    let chaos = stats.chaos.as_ref().unwrap();
    assert!(chaos.oracle_timeouts > 0, "retrain rounds must defer during the outage");
    assert_eq!(chaos.oracle_recoveries, 1, "the first post-outage round recovers once");
    assert!(chaos.backoff_waits >= chaos.oracle_timeouts, "every deferral charges backoff");
    assert!(chaos.backoff_ns > 0);
    assert!(!stats.swap_ticks.is_empty(), "retraining resumes after the outage");
    assert!(
        stats.swap_ticks.iter().all(|&t| t >= 120),
        "no model swap can land inside the outage window: {:?}",
        stats.swap_ticks
    );
    let timeouts = lines.iter().filter(|l| l.contains(r#""kind":"oracle_timeout""#)).count() as u64;
    assert_eq!(timeouts, chaos.oracle_timeouts, "one event per deferral");
    assert!(lines.iter().any(|l| l.contains(r#""kind":"oracle_recovery""#)));
}

/// Store I/O errors: a failed journal append retries under backoff, a
/// torn append heals by reopening, no label is lost to the fault, and
/// the journal replays to the chaotic run's exact final model.
#[test]
fn store_faults_heal_and_the_journal_stays_replayable() {
    let dir = tmpdir("store-faults");
    // Armed early so the first retrain round's first append hits both:
    // an outright write error, then a torn (half-flushed) record.
    let plan = plan_with(vec![
        event(FaultKind::StoreWriteError, 2, 1, 0),
        event(FaultKind::FsyncFailure, 3, 1, 0),
    ]);
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_clock(Arc::new(TickClock::new()), Some(sink.clone()));
    let chaotic_cfg = {
        let mut c = test_config(42);
        c.store_dir = Some(dir.display().to_string());
        c
    };
    let mut chaotic = FleetService::with_chaos_plan(chaotic_cfg.clone(), plan, obs);
    let stats = chaotic.run_to_completion();
    let lines = sink.lines();
    let chaos = stats.chaos.as_ref().unwrap();
    assert!(chaos.store_faults_fired >= 2, "both journal failpoints fired");
    assert!(chaos.journal_recoveries >= 1, "the failed append was retried to success");
    assert_eq!(stats.errors.journal_reopens, 1, "the torn append healed by reopening");
    assert_eq!(stats.errors.journal_failures, 0, "no label was abandoned");
    assert!(lines.iter().any(|l| l.contains(r#""kind":"journal_error""#)));
    assert_eq!(stats.swap_ticks.len(), 2, "the run still exhausts its retrain budget");

    // Journal integrity: a *fault-free* warm restart over the same
    // store (the journal identity excludes the chaos config) replays to
    // the chaotic run's in-memory final model, bit for bit.
    let mut restored_cfg = chaotic_cfg;
    restored_cfg.chaos = None;
    let restored = FleetService::with_obs(restored_cfg, Obs::disabled());
    assert_eq!(
        restored.swap_ticks(),
        &stats.swap_ticks[..],
        "restored rounds land at the chaotic run's swap ticks"
    );
    let probe = {
        let sd = albadross::SystemData::generate(
            System::Volta,
            albadross::FeatureMethod::Mvts,
            Scale::Smoke,
            42,
        );
        let split = albadross::prepare_split(
            &sd.dataset,
            &albadross::SplitConfig { train_fraction: 0.6, top_k_features: 300 },
            42,
        );
        split.test.x
    };
    let a = restored.model().probabilities(&probe);
    let b = chaotic.model().probabilities(&probe);
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "journal must replay to the same model");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Garbage sensors: the quarantine gate fences the spewing node off
/// after its hysteresis threshold and readmits it after the window.
#[test]
fn garbage_nodes_are_quarantined_and_released() {
    let plan = plan_with(vec![event(FaultKind::GarbageSensor, 20, 40, 9)]);
    let (lines, stats) = chaotic_run(42, plan, None);
    let chaos = stats.chaos.as_ref().unwrap();
    assert!(chaos.injected.garbage_readings > 0, "garbage was injected");
    assert_eq!(chaos.quarantines_entered, 1, "the spewing node is fenced off once");
    assert_eq!(chaos.quarantines_released, 1, "clean telemetry readmits it");
    // Enter after 3 bad samples, release after 5 good ones: the fence
    // holds for the garbage window minus the enter lag, plus the lag.
    assert_eq!(chaos.quarantine_drops, 40 - 3 + 5, "drops match the hysteresis bounds");
    assert!(lines.iter().any(|l| l.contains(r#""kind":"quarantine_enter""#)));
    assert!(lines.iter().any(|l| l.contains(r#""kind":"quarantine_release""#)));
}

/// The determinism bar: two chaotic runs with equal seeds (and a tick
/// clock) emit byte-identical event logs — across the full default
/// fault taxonomy, and again when the plan is replayed from JSON.
#[test]
fn equal_seeds_give_byte_identical_chaotic_event_logs() {
    let cfg = ChaosConfig::default();
    let plan = FaultPlan::generate(&cfg, 42, DURATION + 60, NODES, 4);
    assert_eq!(plan.len(), 20);
    let (a, stats) = chaotic_run(42, plan.clone(), None);
    let (b, _) = chaotic_run(42, plan.clone(), None);
    assert!(!a.is_empty());
    assert_eq!(a, b, "equally-seeded chaotic runs must log identically");

    let chaos = stats.chaos.as_ref().unwrap();
    assert!(chaos.total_injected() > 0, "the default taxonomy injects");
    assert!(chaos.faults_started > 0);

    // JSON replay: a plan round-tripped through its serialised form
    // drives an identical run.
    let replayed = FaultPlan::from_json(&plan.to_json().unwrap()).unwrap();
    let (c, _) = chaotic_run(42, replayed, None);
    assert_eq!(a, c, "a JSON-replayed plan must reproduce the run exactly");

    // And the assertion is not vacuous: a different plan seed diverges.
    let other = FaultPlan::generate(&cfg, 43, DURATION + 60, NODES, 4);
    let (d, _) = chaotic_run(42, other, None);
    assert_ne!(a, d, "different plans must diverge");
}
