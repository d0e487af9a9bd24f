//! Determinism under concurrency — the parallel shard runtime's
//! acceptance suite. Equal seeds must produce **byte-identical** event
//! logs, trace logs, metric expositions and models at *any* worker
//! count (1/2/4/8), including under a chaos shard-panic plan and across
//! a kill/warm-restart boundary where the two halves of the run use
//! different worker counts.

use std::path::PathBuf;
use std::sync::Arc;

use alba_chaos::{FaultEvent, FaultKind, FaultPlan};
use alba_obs::{MemorySink, Obs, TickClock};
use alba_serve::{FleetService, ServeConfig};
use alba_telemetry::Scale;
use alba_trace::Tracer;
use albadross::{MonitorConfig, System};

const NODES: usize = 16;
const DURATION: usize = 150;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn test_config(seed: u64, workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, NODES, seed);
    cfg.fleet.duration_override_s = Some(DURATION);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    cfg.n_workers = workers;
    cfg
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alba-parallel-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything the byte-identity assertions are judged on.
struct RunArtifacts {
    events: Vec<String>,
    traces: Vec<String>,
    /// `obs.expose()` with the per-worker pool counters stripped: a
    /// worker's job/busy tally legitimately depends on the worker
    /// count; nothing else may.
    exposition: String,
    model_json: String,
}

/// Strips the only worker-count-dependent metric family (`par_worker_*`,
/// one counter per worker thread) from an exposition page. Everything
/// left must be byte-identical across worker counts.
fn strip_worker_counters(exposition: &str) -> String {
    exposition.lines().filter(|l| !l.contains("par_worker")).map(|l| format!("{l}\n")).collect()
}

/// One fully observed + traced run at the given worker count.
fn observed_run(seed: u64, workers: usize) -> RunArtifacts {
    let clock = Arc::new(TickClock::new());
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_clock(clock.clone(), Some(sink.clone()));
    let trace_sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(seed, clock, Some(trace_sink.clone()), None);

    let mut svc = FleetService::with_tracer(test_config(seed, workers), obs.clone(), tracer);
    svc.run_to_completion();
    RunArtifacts {
        events: sink.lines(),
        traces: trace_sink.lines(),
        exposition: strip_worker_counters(&obs.expose()),
        model_json: svc.model().to_json(),
    }
}

/// The tentpole invariant: 1, 2, 4 and 8 workers produce byte-identical
/// event logs, traces, expositions and models for an equal seed.
#[test]
fn artifacts_are_byte_identical_at_any_worker_count() {
    let baseline = observed_run(42, 1);
    assert!(!baseline.events.is_empty(), "an observed run must emit events");
    assert!(!baseline.traces.is_empty(), "a traced run must record hops");
    for kind in ["alarm", "label_request", "model_swap"] {
        assert!(
            baseline.events.iter().any(|l| l.contains(&format!("\"kind\":\"{kind}\""))),
            "expected at least one {kind} event"
        );
    }
    for workers in &WORKER_COUNTS[1..] {
        let run = observed_run(42, *workers);
        assert_eq!(baseline.events, run.events, "event log diverged at {workers} workers");
        assert_eq!(baseline.traces, run.traces, "trace log diverged at {workers} workers");
        assert_eq!(baseline.exposition, run.exposition, "exposition diverged at {workers} workers");
        assert_eq!(
            baseline.model_json, run.model_json,
            "deployed model diverged at {workers} workers"
        );
    }
    // Not vacuous: a different seed diverges.
    let other = observed_run(43, 1);
    assert_ne!(baseline.events, other.events, "different seeds should diverge");
}

/// A plan holding exactly `events`, shaped for the test fleet.
fn plan_with(events: Vec<FaultEvent>) -> FaultPlan {
    FaultPlan { seed: 0, horizon: DURATION + 60, n_nodes: NODES, n_shards: 4, events }
}

fn event(kind: FaultKind, tick: usize, duration: usize, target: usize) -> FaultEvent {
    FaultEvent { kind, tick, duration, target, metric: 0, magnitude: 1 }
}

/// One observed chaotic run (explicit plan) at the given worker count.
fn chaotic_run(seed: u64, workers: usize, plan: FaultPlan) -> (RunArtifacts, u64) {
    let sink = Arc::new(MemorySink::new());
    let obs = Obs::with_clock(Arc::new(TickClock::new()), Some(sink.clone()));
    let mut svc = FleetService::with_chaos_plan(test_config(seed, workers), plan, obs.clone());
    let stats = svc.run_to_completion();
    let restarts = stats.chaos.as_ref().map_or(0, |c| c.shard_restarts);
    (
        RunArtifacts {
            events: sink.lines(),
            traces: Vec::new(),
            exposition: strip_worker_counters(&obs.expose()),
            model_json: svc.model().to_json(),
        },
        restarts,
    )
}

/// Shard panics on pool workers must not cost determinism: the panic is
/// caught on the worker, the supervisor respawns the shard on the tick
/// thread, and the whole run stays byte-identical at every worker
/// count.
#[test]
fn chaos_shard_panics_stay_deterministic_across_worker_counts() {
    let plan = || {
        plan_with(vec![
            event(FaultKind::ShardPanic, 20, 1, 0),
            event(FaultKind::ShardPanic, 60, 1, 2),
            event(FaultKind::ShardPanic, 90, 1, 0),
        ])
    };
    let (baseline, restarts) = chaotic_run(42, 1, plan());
    assert_eq!(restarts, 3, "every planned panic fired and was supervised");
    assert!(
        baseline.events.iter().filter(|l| l.contains(r#""kind":"shard_restart""#)).count() == 3,
        "each restart is a structured event"
    );
    for workers in &WORKER_COUNTS[1..] {
        let (run, r) = chaotic_run(42, *workers, plan());
        assert_eq!(r, 3, "restart count diverged at {workers} workers");
        assert_eq!(baseline.events, run.events, "chaotic event log diverged at {workers} workers");
        assert_eq!(
            baseline.exposition, run.exposition,
            "chaotic exposition diverged at {workers} workers"
        );
        assert_eq!(
            baseline.model_json, run.model_json,
            "chaotic model diverged at {workers} workers"
        );
    }
}

/// Kill/warm-restart across a worker-count change: a run journalled at
/// 4 workers restores bit-identically into a 1-worker service (and vice
/// versa) — the worker count is excluded from the journal identity.
#[test]
fn warm_restart_is_identical_across_worker_counts() {
    let dir = tmpdir("restart");
    let cfg_at = |workers: usize| {
        let mut c = test_config(42, workers);
        c.store_dir = Some(dir.display().to_string());
        c
    };

    let mut first = FleetService::with_obs(cfg_at(4), Obs::disabled());
    let stats = first.run_to_completion();
    assert_eq!(stats.swap_ticks.len(), 2, "the run must exhaust its retrain budget");
    let reference = first.model().to_json();

    // Restart at a *different* worker count: same journal, same model,
    // same restored budget.
    let mut second = FleetService::with_obs(cfg_at(1), Obs::disabled());
    assert_eq!(second.swap_ticks(), &stats.swap_ticks[..], "journal is shared across counts");
    assert_eq!(second.model().to_json(), reference, "restored model is bit-identical");
    let second_stats = second.run_to_completion();
    assert_eq!(
        second_stats.swap_ticks, stats.swap_ticks,
        "a warm-restarted service must not re-spend the labelling budget"
    );

    // And the other direction: a 1-worker journal restores into 8.
    let third = FleetService::with_obs(cfg_at(8), Obs::disabled());
    assert_eq!(third.model().to_json(), reference);
    std::fs::remove_dir_all(&dir).ok();
}
