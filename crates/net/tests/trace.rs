//! The tracing acceptance bar (ISSUE 7): two equally-seeded live wire
//! sessions — gateway and service sharing one tracer, with a reconnect
//! storm battering the client — must produce byte-identical trace
//! JSONL and byte-identical flight-recorder dumps. Trace ids are pure
//! functions of `(seed, node, tick)` and hop order is fixed by the
//! lockstep pump, so any divergence means ambient entropy leaked into
//! the causal record.

use std::sync::Arc;

use alba_chaos::{NetChaosConfig, NetFaultPlan};
use alba_net::{Gateway, GatewayConfig, Lockstep, MemListener, TenantConfig, WireClient};
use alba_obs::{MemorySink, Obs, TickClock};
use alba_serve::{FleetService, ServeConfig, Tracer};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

fn test_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, seed);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    cfg
}

/// Everything the identity assertions are judged on.
struct TracedRun {
    trace_log: Vec<String>,
    flightrec: String,
    hops: u64,
    reconnects: u64,
}

/// One live session: a traced gateway + traced service in lockstep,
/// the wire client riding through a deterministic reconnect storm.
fn traced_run(seed: u64) -> TracedRun {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(seed, Arc::new(TickClock::new()), Some(sink.clone()), None);

    let mut svc = FleetService::with_tracer(test_config(seed), Obs::disabled(), tracer.clone());
    let batches = svc.fleet_batches();
    let storm = NetFaultPlan::generate(&NetChaosConfig::reconnect_storm(4), seed, batches.len());

    let (listener, dialer) = MemListener::new(1 << 20);
    let gateway = Gateway::with_tracer(
        GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]),
        Box::new(listener),
        Obs::disabled(),
        tracer.clone(),
    );
    let client =
        WireClient::new(Box::new(move || Box::new(dialer.dial())), "volta", "tok", batches)
            .with_faults(storm);
    let mut harness = Lockstep { client, gateway };

    let max_ticks = svc.fleet_batches().len() + 60;
    svc.run_frontier(&mut harness, max_ticks);
    assert!(!harness.client.is_failed(), "storm-battered session must still complete");
    TracedRun {
        trace_log: sink.lines(),
        flightrec: svc.tracer().flightrec("test"),
        hops: svc.tracer().hops_recorded(),
        reconnects: harness.client.stats().reconnects,
    }
}

#[test]
fn equal_seeds_yield_byte_identical_traces_under_a_reconnect_storm() {
    let a = traced_run(42);
    assert!(a.hops > 0, "a traced run must record hops");
    assert!(a.reconnects > 0, "the storm must actually churn sessions");

    // The causal chain spans every layer: gateway decode on the net
    // lane, per-shard pipeline hops, and service-wide stage timings.
    for lane in ["\"lane\":\"net\"", "\"lane\":\"shard0\"", "\"lane\":\"service\""] {
        assert!(
            a.trace_log.iter().any(|l| l.contains(lane)),
            "trace log must contain a {lane} hop"
        );
    }
    assert!(a.flightrec.starts_with("{\"ts\":"), "flightrec leads with its header line");

    // The bar itself: equal seeds, equal bytes — trace log and flight
    // recorder both, even with the reconnect storm in the loop.
    let b = traced_run(42);
    assert_eq!(b.trace_log, a.trace_log, "equal seeds -> byte-identical trace JSONL");
    assert_eq!(b.flightrec, a.flightrec, "equal seeds -> byte-identical flight recorder");
    assert_eq!(b.hops, a.hops);

    // And the assertions are not vacuous: a different seed diverges.
    let c = traced_run(43);
    assert_ne!(c.trace_log, a.trace_log, "different seeds must diverge");
}
