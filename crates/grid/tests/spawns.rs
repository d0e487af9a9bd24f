//! A grid run spawns exactly one thread per worker: the fan-outs inside
//! each cell (campaign generation, forest fit) run inline on the lane's
//! worker, so a cell's cost is its own thread's time.
//!
//! This file holds a single test on purpose: integration-test binaries
//! run their tests concurrently, and any other test spawning threads
//! alongside would move the process-wide count.

use alba_grid::{run_grid, GridSpec, RunOptions};

/// The unit sweep of `determinism.rs`: 6 cells.
const SWEEP: &str = r#"{
    "name": "sweep",
    "mode": "sweep",
    "system": "volta",
    "campaign": "smoke",
    "extractors": ["mvts"],
    "strategies": ["uncertainty", "margin", "random"],
    "models": ["rf"],
    "budgets": [5],
    "seeds": [21, 22],
    "top_k_features": 120
}"#;

#[test]
fn two_worker_sweep_spawns_two_threads() {
    let spec = GridSpec::parse(SWEEP, None).expect("parse");
    let before = alba_par::threads_spawned();
    let out = run_grid(&spec, &RunOptions { workers: 2, ..RunOptions::default() }).expect("grid");
    assert_eq!(out.stats.computed, 6);
    assert_eq!(alba_par::threads_spawned() - before, 2, "nested fan-outs must run inline");
}
