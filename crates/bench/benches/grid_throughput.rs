//! Grid throughput: cold compute rate, warm memo replay, resume cost.
//!
//! Three measured configurations of the same sweep spec, all at one
//! worker:
//!
//! * **cold** — a fresh store, every cell computed and persisted; the
//!   headline cells/minute number.
//! * **warm** — the same store again, every cell a memo hit; measures
//!   the pure replay path (lookup → CRC → parse → merge).
//! * **resume** — a store primed with the first seed's cells only, as a
//!   sweep killed mid-flight would leave it; the overhead is the wall
//!   time beyond the cold-rate cost of just the missing cells, i.e.
//!   what the pre-scan and replay add to a restart.
//!
//! A discarded storeless warmup run populates the in-process dataset
//! and split caches first, so cold timings measure session compute, not
//! one-off data generation. Each configuration reports its best of
//! `reps` runs.
//!
//! Writes `results/BENCH_grid.json` through [`alba_bench::Report`].
//!
//! Run with: `cargo bench -p alba-bench --bench grid_throughput`

use std::path::PathBuf;
use std::time::Instant;

use alba_bench::{Better, Op, Report};
use alba_grid::{run_grid, GridOutcome, GridSpec, RunOptions};
use alba_obs::Obs;
use alba_store::TelemetryStore;
use alba_trace::Tracer;

fn spec_json(seeds: &[u64], strategies: &[&str], budget: u64) -> String {
    let seeds: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    let strategies: Vec<String> = strategies.iter().map(|s| format!("\"{s}\"")).collect();
    format!(
        "{{\"name\": \"bench\", \"mode\": \"sweep\", \"system\": \"volta\", \
         \"campaign\": \"smoke\", \"extractors\": [\"mvts\"], \
         \"strategies\": [{}], \"budgets\": [{}], \"seeds\": [{}], \
         \"top_k_features\": 120}}",
        strategies.join(", "),
        budget,
        seeds.join(", "),
    )
}

fn parse(src: &str) -> GridSpec {
    GridSpec::parse(src, None).expect("bench spec parses")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alba_grid_bench_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(store: Option<TelemetryStore>) -> RunOptions {
    RunOptions { workers: 1, store, obs: Obs::disabled(), tracer: Tracer::disabled() }
}

/// One timed run against `dir` (fresh store handle each time, like a
/// restarted process would open).
fn timed_run(spec: &GridSpec, dir: &PathBuf) -> (f64, GridOutcome) {
    let store = TelemetryStore::open(dir).expect("open bench store");
    let t = Instant::now();
    let out = run_grid(spec, &opts(Some(store))).expect("grid run");
    (t.elapsed().as_secs_f64().max(1e-9), out)
}

fn main() {
    let (seeds, strategies, budget, reps) = ([31, 32], ["uncertainty", "margin", "random"], 5, 3);
    let full = parse(&spec_json(&seeds, &strategies, budget));
    let partial = parse(&spec_json(&seeds[..1], &strategies, budget));

    // Discarded warmup: storeless, fills the dataset/split caches.
    let warmup = run_grid(&full, &opts(None)).expect("warmup run");
    let n = warmup.stats.cells;

    // Cold: fresh store per rep, every cell computed. The first rep's
    // store is kept as the fully-primed store for the warm passes.
    let mut cold_best = f64::MAX;
    let warm_dir = fresh_dir("cold0");
    for rep in 0..reps {
        let dir = if rep == 0 { warm_dir.clone() } else { fresh_dir(&format!("cold{rep}")) };
        let (wall, out) = timed_run(&full, &dir);
        assert_eq!(out.stats.computed, n, "cold rep must compute every cell");
        cold_best = cold_best.min(wall);
        if rep > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Warm: the primed store, every cell replayed from the memo.
    let mut warm_best = f64::MAX;
    let mut warm_hits = 0usize;
    for _ in 0..reps {
        let (wall, out) = timed_run(&full, &warm_dir);
        assert_eq!(out.stats.memo_hits, n, "warm rep must hit every cell");
        warm_hits = out.stats.memo_hits;
        warm_best = warm_best.min(wall);
    }
    let _ = std::fs::remove_dir_all(&warm_dir);

    // Resume: prime with the first seed only (untimed), then time the
    // full sweep picking up from that partial store.
    let mut resume_best = f64::MAX;
    let mut resume_computed = 0usize;
    for rep in 0..reps {
        let dir = fresh_dir(&format!("resume{rep}"));
        let (_, primed) = timed_run(&partial, &dir);
        assert_eq!(primed.stats.computed, primed.stats.cells);
        let (wall, out) = timed_run(&full, &dir);
        assert!(out.stats.memo_hits > 0 && out.stats.computed > 0, "resume must mix hits+misses");
        resume_computed = out.stats.computed;
        resume_best = resume_best.min(wall);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let warm_ns_per_cell = warm_best * 1e9 / n as f64;
    let hit_rate_pct = 100.0 * warm_hits as f64 / n as f64;
    // Cost of resuming beyond recomputing just the missing cells at the
    // cold rate: pre-scan, lookups, and replay of the surviving cells.
    let expected = cold_best * resume_computed as f64 / n as f64;
    let resume_overhead_pct = (resume_best / expected.max(1e-9) - 1.0) * 100.0;

    Report::new("grid_throughput")
        .metric("cells", n as f64, "cells", Better::Info)
        .metric("cells_per_min", n as f64 * 60.0 / cold_best, "cells/min", Better::Higher)
        .metric("memo_hit_rate_pct", hit_rate_pct, "%", Better::Info)
        .metric("warm_replay_ns_per_cell", warm_ns_per_cell, "ns", Better::Lower)
        .metric("resume_overhead_pct", resume_overhead_pct, "%", Better::Info)
        .require("cells", Op::Above, 0.0)
        .require("memo_hit_rate_pct", Op::Exactly, 100.0)
        .require("cells_per_min", Op::Above, 0.0)
        .require("warm_replay_ns_per_cell", Op::Above, 0.0)
        .finish("BENCH_grid.json");
}
