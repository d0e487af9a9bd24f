//! Fleet-service throughput: sharded *batched* diagnosis versus the
//! 1-shard node-at-a-time baseline.
//!
//! Each benchmark builds the service once (offline training + replay
//! generation are setup, not the measured region) and measures a full
//! replay-to-completion run on a clone: ingest, windowing, batched
//! feature extraction, batched inference, hysteresis and the feedback
//! loop. Shard counts {1, 2, 4, 8} show the `alba-par` pool scaling; the
//! `baseline` case pays one model call per window on a single shard.
//!
//! Run with: `cargo bench -p alba-bench --bench serve_throughput`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alba_serve::{FleetService, ServeConfig};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

/// A 32-node Volta fleet with enough stream length to produce a steady
/// diet of windows per shard per stride.
fn service(n_shards: usize, batched: bool) -> FleetService {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 32, 42);
    cfg.fleet.duration_override_s = Some(120);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.n_shards = n_shards;
    cfg.batched = batched;
    // Keep the measured region pure diagnosis: no retraining mid-run.
    cfg.max_retrains = 0;
    FleetService::new(cfg)
}

fn bench_serve(c: &mut Criterion) {
    for &shards in &[1usize, 2, 4, 8] {
        let prototype = service(shards, true);
        c.bench_function(&format!("serve/batched/{shards}-shards"), |b| {
            b.iter(|| {
                let mut svc = prototype.clone();
                let stats = svc.run_to_completion();
                assert!(stats.windows > 0);
                black_box(stats.windows)
            })
        });
    }

    let prototype = service(1, false);
    c.bench_function("serve/baseline/1-shard-node-at-a-time", |b| {
        b.iter(|| {
            let mut svc = prototype.clone();
            let stats = svc.run_to_completion();
            assert!(stats.windows > 0);
            black_box(stats.windows)
        })
    });
}

criterion_group! {
    name = serve;
    config = Criterion::default().sample_size(10);
    targets = bench_serve
}
criterion_main!(serve);
