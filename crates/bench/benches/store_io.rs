//! Store I/O: cold `generate + extract` versus warm feature-cache reads.
//!
//! The store's reason to exist is that re-deriving a dataset (campaign
//! generation + TSFRESH/MVTS extraction) costs seconds to hours while
//! reading the memoised matrix back costs milliseconds. This bench pins
//! that claim down at smoke scale:
//!
//! * `cold`  — [`SystemData::generate_uncached`]: the full pipeline,
//!   nothing persisted,
//! * `warm`  — [`SystemData::generate_stored`] against a pre-populated
//!   [`TelemetryStore`]: two checksummed reads (telemetry entry skipped,
//!   feature matrix decoded straight into a dataset),
//! * `telemetry` — [`TelemetryStore::get_or_generate_campaign`] warm:
//!   segment decode alone, isolating the column-codec cost.
//!
//! Requirement: warm reads are at least 10x faster than the cold
//! pipeline. Every key is informational (not compared by the gate).
//! Writes `results/BENCH_store.json` through [`alba_bench::Report`].
//!
//! Run with: `cargo bench -p alba-bench --bench store_io`

use alba_bench::{Better, Op, Report};
use alba_store::TelemetryStore;
use alba_telemetry::Scale;
use albadross::{FeatureMethod, System, SystemData};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed());
    }
    best
}

fn main() {
    let (cold_reps, warm_reps) = (1, 3);
    let (system, method, scale, seed) = (System::Volta, FeatureMethod::Mvts, Scale::Smoke, 71);

    let dir = std::env::temp_dir().join(format!("alba-store-io-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = TelemetryStore::open(&dir).expect("open bench store");

    // Populate the store once (not measured) and sanity-check warm == cold.
    let reference = SystemData::generate_stored(&store, system, method, scale, seed)
        .expect("populate bench store");
    let warm_data =
        SystemData::generate_stored(&store, system, method, scale, seed).expect("warm read");
    assert_eq!(reference.dataset.x.as_slice(), warm_data.dataset.x.as_slice());

    let cold = best_of(cold_reps, || SystemData::generate_uncached(system, method, scale, seed));
    let warm = best_of(warm_reps, || {
        SystemData::generate_stored(&store, system, method, scale, seed).expect("warm read")
    });
    let campaign = system.campaign(scale, seed);
    let telemetry = best_of(warm_reps, || {
        store.get_or_generate_campaign(&campaign).expect("warm telemetry read")
    });

    std::fs::remove_dir_all(&dir).ok();

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Report::new("store_io")
        .metric("cold_generate_extract_ms", ms(cold), "ms", Better::Info)
        .metric("warm_feature_read_ms", ms(warm), "ms", Better::Info)
        .metric("warm_telemetry_decode_ms", ms(telemetry), "ms", Better::Info)
        .metric(
            "warm_speedup",
            cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
            "x",
            Better::Info,
        )
        .require("warm_speedup", Op::AtLeast, 10.0)
        .finish("BENCH_store.json");
}
