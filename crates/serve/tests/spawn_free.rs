//! Steady ticks spawn no threads: once the shard pool is up, diagnosis
//! runs entirely on `alba-par`'s persistent workers — extraction and
//! forest inference stay in the worker's own thread. `alba-par` counts
//! every OS thread it spawns, so a steady run must leave that count
//! where warm-up left it.
//!
//! This file holds a single test on purpose: integration-test binaries
//! run their tests concurrently, and any other test fitting a forest
//! alongside would move the process-wide count.

use alba_serve::{FleetService, ServeConfig};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

const WARMUP_TICKS: usize = 70;
const STEADY_TICKS: usize = 120;

#[test]
fn steady_ticks_spawn_no_threads() {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, 23);
    cfg.fleet.duration_override_s = Some(WARMUP_TICKS + STEADY_TICKS + 20);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.max_retrains = 0;
    cfg.n_shards = 4;
    cfg.n_workers = 2;
    let mut svc = FleetService::new(cfg);

    // Warm-up: the pool starts on the first tick and every node fills
    // its first window.
    assert_eq!(svc.run(WARMUP_TICKS), WARMUP_TICKS);
    let windows_before = svc.stats().windows;
    assert!(windows_before > 0, "warm-up must already diagnose windows");
    let spawned_before = alba_par::threads_spawned();

    assert_eq!(svc.run(STEADY_TICKS), STEADY_TICKS, "the replay must outlast the steady phase");
    let stats = svc.stats();
    assert!(
        stats.windows > windows_before + STEADY_TICKS as u64,
        "steady ticks must keep diagnosing ({} -> {} windows)",
        windows_before,
        stats.windows
    );
    assert!(stats.swap_ticks.is_empty(), "feedback is off: no refit, no swap");
    assert_eq!(alba_par::threads_spawned(), spawned_before, "a steady tick spawned OS threads");
}
