//! Fleet-scale online monitoring: the full 52-node Volta testbed served
//! end to end by `alba-serve`.
//!
//! The service trains an initial forest on an offline campaign, then
//! streams a *held-out* campaign as 52 concurrent 1 Hz node feeds:
//! bounded ingest queues, sharded batched inference, hysteresis alarms,
//! and the online active-learning loop — uncertain windows become label
//! requests, the oracle (ground truth) answers them, and the refreshed
//! forest is hot-swapped into every monitor mid-run.
//!
//! The run is fully observed through `alba-obs`: a tick clock advances
//! one second per service tick (so timestamps are deterministic),
//! structured events stream to `results/fleet_monitor_events.jsonl`,
//! and the metric registry plus the per-shard histograms are dumped to
//! `results/fleet_monitor_metrics.prom` in text-exposition format.
//!
//! Run with: `cargo run --release --example fleet_monitor`
//!
//! Environment knobs (used by `scripts/ci.sh`'s parallel smoke, which
//! byte-compares the artifacts of a 1-worker and a 4-worker run):
//!
//! * `ALBA_WORKERS=<n>` — shard pool worker threads (default: auto).
//! * `ALBA_MONITOR_OUT=<dir>` — output directory (default: `results`).

use std::sync::Arc;

use albadross_repro::framework::{MonitorConfig, System};
use albadross_repro::obs::{FileSink, Obs, TickClock};
use albadross_repro::serve::{FleetService, ServeConfig};
use albadross_repro::telemetry::Scale;

fn main() {
    // The Volta testbed: 52 nodes. Smoke-scale runs keep this example
    // fast; the same code serves Eclipse fleets up to 1488 nodes.
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 52, 42);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.n_shards = 4;
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 12;
    cfg.max_retrains = 2;
    cfg.n_workers = std::env::var("ALBA_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);

    // Observe the run on a deterministic tick clock, with structured
    // events streaming to a JSONL file.
    let clock = Arc::new(TickClock::new());
    let out_dir = std::env::var("ALBA_MONITOR_OUT").unwrap_or_else(|_| "results".to_string());
    std::fs::create_dir_all(&out_dir).expect("create results directory");
    let events_path = std::path::Path::new(&out_dir).join("fleet_monitor_events.jsonl");
    let events_path = events_path.as_path();
    let sink = Arc::new(FileSink::create(events_path).expect("create event log"));
    let obs = Obs::with_clock(clock.clone(), Some(sink));

    println!("training the initial model and building the 52-node fleet...");
    let mut svc = FleetService::with_obs(cfg, obs.clone());
    let anomalous: Vec<usize> = (0..svc.n_nodes()).filter(|&n| svc.truth(n) != "healthy").collect();
    println!(
        "  {} nodes streaming ({} carry injected anomalies), {} shards",
        svc.n_nodes(),
        anomalous.len(),
        svc.config().n_shards
    );

    println!("serving...");
    // Drive the ticks by hand so the obs clock tracks stream time (1 s
    // per tick); run_to_completion then settles any leftover feedback.
    while svc.tick() {
        clock.advance(1_000_000_000);
    }
    let stats = svc.run_to_completion();

    println!(
        "  {} ticks, {} samples in ({} dropped), {} windows diagnosed ({:.0}/s wall)",
        stats.ticks,
        stats.samples_emitted,
        stats.ingest.dropped,
        stats.windows,
        stats.windows_per_s
    );
    println!(
        "  feedback: {} label requests, {} serviced, {} retrain(s), hot-swaps at ticks {:?}",
        stats.feedback.requested,
        stats.feedback.serviced,
        stats.feedback.retrains,
        stats.swap_ticks
    );

    println!("alarms:");
    for na in svc.alarms() {
        let truth = svc.truth(na.node);
        println!(
            "  t={:>4}  node {:>2}  {:<12} conf {:.2}  (truth: {}{})",
            na.alarm.at,
            na.node,
            na.alarm.label,
            na.alarm.confidence,
            truth,
            if na.alarm.label == truth { ", correct" } else { "" }
        );
    }

    let correct = svc.alarms().iter().filter(|na| na.alarm.label == svc.truth(na.node)).count();
    println!("  {}/{} alarms match the injected ground truth", correct, svc.alarms().len());

    println!("\nservice stats (JSON):\n{}", stats.to_json_pretty().expect("stats serialise"));

    // Dump everything the registry saw: counters, stage histograms and
    // the per-shard busy/latency histograms.
    let metrics_path = std::path::Path::new(&out_dir).join("fleet_monitor_metrics.prom");
    let metrics_path = metrics_path.as_path();
    std::fs::write(metrics_path, svc.prometheus()).expect("write metrics dump");
    println!(
        "observability: {} events -> {}, metrics -> {}",
        svc.obs().events_emitted(),
        events_path.display(),
        metrics_path.display()
    );

    // The acceptance bar for this scenario: confirmed alarms that match
    // the injections, a serviced label request, and a completed hot-swap
    // with no window lost (every emitted sample was either diagnosed
    // into windows or accounted as dropped).
    assert!(!svc.alarms().is_empty(), "fleet must raise confirmed alarms");
    assert!(correct * 2 > svc.alarms().len(), "alarms must mostly match injections");
    assert!(stats.feedback.serviced >= 1, "the AL loop must service a label request");
    assert!(stats.feedback.retrains >= 1, "the model must be hot-swapped at least once");
    assert_eq!(stats.ingest.pushed + stats.ingest.dropped, stats.samples_emitted);
    assert!(svc.obs().events_emitted() > 0, "the observed run must log events");
    println!("\nall fleet-monitoring acceptance checks passed");
}
