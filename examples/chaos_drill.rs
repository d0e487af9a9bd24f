//! Chaos drill: the 52-node Volta fleet served end to end *while a
//! seeded fault plan attacks every layer of the pipeline*.
//!
//! A `FaultPlan` (generated deterministically from the seed) schedules
//! node blackouts, stuck and garbage sensors, clock skew, burst sample
//! loss, retransmission storms, worker-shard panics, oracle outages and
//! store/journal I/O failures. The service self-heals through all of
//! it: a supervisor catches shard panics and respawns the shard with
//! the last journaled model, garbage-spewing nodes are quarantined with
//! hysteresis, oracle and journal operations retry under bounded seeded
//! backoff, and a torn journal append heals by reopening.
//!
//! Everything is deterministic — the plan is a pure function of the
//! seed, injection decisions are hash-derived, and events are stamped
//! by a tick clock — so re-running this example produces an identical
//! `results/chaos_drill_events.jsonl`, and the saved
//! `results/chaos_drill_plan.json` replays the exact same faults
//! through `repro --chaos-plan`.
//!
//! A causal [`Tracer`] rides along: every fault firing and shard panic
//! dumps the bounded flight recorder into
//! `results/flightrec_fault_<kind>.jsonl` /
//! `results/flightrec_panic_shard<id>.jsonl` — the last moments of
//! every lane, captured at the instant the fault hit.
//!
//! Run with: `cargo run --release --example chaos_drill`

use std::sync::Arc;

use albadross_repro::chaos::{ChaosConfig, FaultKind};
use albadross_repro::framework::{MonitorConfig, System};
use albadross_repro::obs::{FileSink, Obs, TickClock};
use albadross_repro::serve::{FleetService, ServeConfig, Tracer};
use albadross_repro::telemetry::Scale;

fn main() {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 52, 42);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.n_shards = 4;
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    // The default taxonomy: every fault class represented, nothing so
    // hot the fleet cannot stay live.
    cfg.chaos = Some(ChaosConfig::default());

    let clock = Arc::new(TickClock::new());
    std::fs::create_dir_all("results").expect("create results directory");
    let events_path = std::path::Path::new("results/chaos_drill_events.jsonl");
    let sink = Arc::new(FileSink::create(events_path).expect("create event log"));
    let obs = Obs::with_clock(clock.clone(), Some(sink));

    // Flight recorder only (no JSONL sink): fault firings and shard
    // panics dump the per-lane rings into results/flightrec_*.jsonl.
    let tracer = Tracer::new(42, clock.clone(), None, Some("results".into()));

    println!("training the initial model and building the 52-node fleet...");
    let mut svc = FleetService::with_tracer(cfg, obs.clone(), tracer.clone());
    let plan = svc.chaos_plan().expect("chaotic service carries a plan").clone();
    std::fs::write("results/chaos_drill_plan.json", plan.to_json().expect("serialise plan"))
        .expect("write plan");
    println!(
        "  fault plan: {} events over {} ticks (seed {})",
        plan.len(),
        plan.horizon,
        plan.seed
    );
    for kind in [
        FaultKind::NodeBlackout,
        FaultKind::GarbageSensor,
        FaultKind::ShardPanic,
        FaultKind::OracleOutage,
    ] {
        let n = plan.events.iter().filter(|e| e.kind == kind).count();
        println!("    {:<16} x{}", kind.name(), n);
    }

    println!("serving under fault injection...");
    while svc.tick() {
        clock.advance(1_000_000_000);
    }
    let stats = svc.run_to_completion();
    let chaos = stats.chaos.clone().expect("chaotic run exports chaos stats");

    println!(
        "  {} ticks, {} windows diagnosed, {} alarms, hot-swaps at {:?}",
        stats.ticks, stats.windows, stats.alarms, stats.swap_ticks
    );
    println!(
        "  injected: {} total ({} blackout drops, {} garbage readings, {} storm duplicates)",
        chaos.total_injected(),
        chaos.injected.blackout_drops,
        chaos.injected.garbage_readings,
        chaos.injected.storm_duplicates
    );
    println!(
        "  recovered: {} total ({} shard restarts, {} quarantines entered / {} released, \
         {} oracle recoveries, {} journal recoveries)",
        chaos.total_recoveries(),
        chaos.shard_restarts,
        chaos.quarantines_entered,
        chaos.quarantines_released,
        chaos.oracle_recoveries,
        chaos.journal_recoveries
    );
    println!(
        "  backoff: {} simulated waits totalling {:.3} ms",
        chaos.backoff_waits,
        chaos.backoff_ns as f64 / 1e6
    );
    println!(
        "observability: {} events -> {}, plan -> results/chaos_drill_plan.json",
        svc.obs().events_emitted(),
        events_path.display()
    );
    println!(
        "flight recorder: {} hops, {} dumps ({} failed) -> results/flightrec_*.jsonl",
        tracer.hops_recorded(),
        tracer.dumps_taken(),
        tracer.dump_failures()
    );

    // The acceptance bar: faults were injected at multiple layers, the
    // self-healing machinery recovered from them, and the service still
    // did its job (diagnosed windows, raised alarms, swapped models).
    assert!(chaos.faults_started > 0, "fault windows must open");
    assert!(chaos.total_injected() > 0, "faults must be injected");
    assert!(chaos.total_recoveries() > 0, "the service must self-heal");
    assert!(stats.windows > 0, "the fleet must keep diagnosing under chaos");
    assert!(!stats.swap_ticks.is_empty(), "the AL loop must survive the chaos");
    assert_eq!(stats.errors.journal_failures, 0, "no label may be abandoned");
    assert!(tracer.dumps_taken() > 0, "faults must trip the flight recorder");
    println!("\nall chaos-drill acceptance checks passed");
}
