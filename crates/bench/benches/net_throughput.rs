//! Network frontier throughput: wire-codec decode rate and a full
//! lockstep gateway session, ingest to diagnosis.
//!
//! Two measured regions:
//!
//! * `codec` — [`alba_net::frame::decode_frame`] over a representative
//!   telemetry frame (24 readings): the per-frame floor of the wire
//!   path, no I/O, one thread.
//! * `gateway` — a complete live session at smoke scale: deterministic
//!   wire client → gateway (MemPipe transport) → admission → credits →
//!   ingest journal → `FleetService` diagnosis. Frames/s is accepted
//!   telemetry frames over wall time; ingest→diagnosis latency is read
//!   back from the gateway's `net_ingest_latency_ticks` histogram
//!   (service ticks between a sample's source tick and its delivery
//!   into the diagnosis pipeline).
//!
//! Writes `results/BENCH_net.json` through [`alba_bench::Report`].
//!
//! Run with: `cargo bench -p alba-bench --bench net_throughput`

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use alba_bench::{Better, Op, Report};
use alba_net::frame::decode_frame;
use alba_net::{Frame, Gateway, GatewayConfig, Lockstep, MemListener, TenantConfig, WireClient};
use alba_obs::{Obs, TickClock};
use alba_serve::{FleetService, ServeConfig};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

fn bench_codec(reps: usize) -> f64 {
    let frame =
        Frame::Telemetry { node: 7, at: 99, values: (0..24).map(|i| i as f64 * 0.37).collect() };
    let encoded = frame.encode();
    let t = Instant::now();
    for _ in 0..reps {
        let decoded = decode_frame(black_box(&encoded)).expect("bench frame is valid");
        black_box(decoded);
    }
    reps as f64 / t.elapsed().as_secs_f64().max(1e-9)
}

struct GatewayRun {
    frames_per_sec: f64,
    frames_accepted: u64,
    samples_delivered: u64,
    latency_p50_ticks: u64,
    latency_p99_ticks: u64,
}

fn bench_gateway() -> GatewayRun {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, 42);
    cfg.fleet.duration_override_s = Some(120);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    // Keep the measured region pure ingest + diagnosis: no retraining.
    cfg.max_retrains = 0;
    let mut svc = FleetService::new(cfg);

    let obs = Obs::with_clock(Arc::new(TickClock::new()), None);
    let (listener, dialer) = MemListener::new(1 << 20);
    let gateway = Gateway::with_obs(
        GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]),
        Box::new(listener),
        obs.clone(),
    );
    let client = WireClient::new(
        Box::new(move || Box::new(dialer.dial())),
        "volta",
        "tok",
        svc.fleet_batches(),
    );
    let mut harness = Lockstep { client, gateway };

    let max_ticks = svc.fleet_batches().len() + 60;
    let t = Instant::now();
    let stats = svc.run_frontier(&mut harness, max_ticks);
    let elapsed = t.elapsed().as_secs_f64().max(1e-9);

    let tenant = stats.tenants.first().expect("gateway run reports tenant stats");
    assert!(tenant.samples_delivered > 0, "bench session must deliver samples");
    let latency = obs
        .histogram("net_ingest_latency_ticks", &[])
        .snapshot()
        .expect("gateway records ingest latency");
    GatewayRun {
        frames_per_sec: tenant.frames_accepted as f64 / elapsed,
        frames_accepted: tenant.frames_accepted,
        samples_delivered: tenant.samples_delivered,
        latency_p50_ticks: latency.quantile(0.50).unwrap_or(0),
        latency_p99_ticks: latency.quantile(0.99).unwrap_or(0),
    }
}

fn main() {
    let codec_fps = bench_codec(50_000);
    let run = bench_gateway();

    Report::new("net_throughput")
        .metric("codec_decode_frames_per_s", codec_fps, "frames/s", Better::Higher)
        .metric("gateway_frames_per_s", run.frames_per_sec, "frames/s", Better::Higher)
        .metric("gateway_frames_accepted", run.frames_accepted as f64, "frames", Better::Info)
        .metric("gateway_samples_delivered", run.samples_delivered as f64, "samples", Better::Info)
        .metric(
            "ingest_to_diagnosis_latency_p50_ticks",
            run.latency_p50_ticks as f64,
            "ticks",
            Better::Info,
        )
        .metric(
            "ingest_to_diagnosis_latency_p99_ticks",
            run.latency_p99_ticks as f64,
            "ticks",
            Better::Info,
        )
        .require("gateway_frames_accepted", Op::Above, 0.0)
        .require("codec_decode_frames_per_s", Op::AtLeast, 0.0)
        .require("gateway_frames_per_s", Op::AtLeast, 0.0)
        .require("ingest_to_diagnosis_latency_p99_ticks", Op::AtLeast, 0.0)
        .finish("BENCH_net.json");
}
