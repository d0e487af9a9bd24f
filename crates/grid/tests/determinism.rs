//! Integration tests pinning the grid's determinism contracts:
//! figure-mode equivalence with the committed smoke artifacts,
//! worker-count invariance, cross-spec memoisation, and byte-identical
//! resume after a mid-sweep crash.

use alba_chaos::Failpoints;
use alba_grid::{run_grid, GridSpec, RunOptions};
use alba_store::TelemetryStore;
use albadross::experiments::{
    table5_row, DrilldownResult, Table5, UnseenAppsResult, UnseenInputsResult,
};
use albadross::RunScale;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alba_grid_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// The partial spec shares seed 21's cells with SWEEP — a grid of a
/// different name and shape, hitting the same content-addressed memo.
const SWEEP_PARTIAL: &str = r#"{
    "name": "partial",
    "mode": "sweep",
    "system": "volta",
    "campaign": "smoke",
    "extractors": ["mvts"],
    "strategies": ["uncertainty", "margin", "random"],
    "models": ["rf"],
    "budgets": [5],
    "seeds": [21],
    "top_k_features": 120
}"#;

/// Reads a file relative to the workspace root.
fn workspace_file(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn pretty<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serialise")
}

/// Figure mode reproduces the committed smoke artifacts byte for byte.
/// `repro --exp fig3,fig4,fig5,fig6,fig8,table5 --scale smoke --seed 7`
/// wrote `results/*_smoke.json` with the same serialiser, so these files
/// are the golden oracle for every figure spec.
#[test]
fn figure_grids_match_committed_smoke_artifacts() {
    let scale = RunScale::smoke(7);
    let run = |name: &str| {
        let src = workspace_file(&format!("specs/{name}.json"));
        let spec = GridSpec::parse(&src, Some(&scale)).expect("parse");
        run_grid(&spec, &RunOptions::default()).expect("grid").panels
    };
    let golden = |name: &str, json: String| {
        assert!(
            json == workspace_file(&format!("results/{name}_smoke.json")),
            "{name}: grid output differs from results/{name}_smoke.json"
        );
    };
    let fig3 = run("fig3").remove(0);
    let fig5 = run("fig5").remove(0);
    golden("fig3", pretty(&fig3.curves));
    golden("fig5", pretty(&fig5.curves));
    let fig4 = DrilldownResult::from_curves(&fig3, "uncertainty", 50.min(scale.budget));
    golden("fig4", pretty(&fig4));
    let rows = vec![table5_row(&fig3, &scale), table5_row(&fig5, &scale)];
    golden("table5", pretty(&Table5 { rows }));
    golden("fig6", pretty(&UnseenAppsResult::from_panels(&[2, 4, 6], run("fig6"))));
    golden("fig8", pretty(&UnseenInputsResult::from_curves(run("fig8").remove(0))));
}

/// Same spec at 1, 2, and 4 workers: byte-identical reports and
/// leaderboards — assignment is positional, the merge is ordered.
#[test]
fn worker_count_invariance() {
    let spec = GridSpec::parse(SWEEP, None).expect("parse");
    let base = run_grid(&spec, &RunOptions::default()).expect("1 worker");
    for workers in [2, 4] {
        let out = run_grid(&spec, &RunOptions { workers, ..RunOptions::default() }).expect("grid");
        assert_eq!(out.json, base.json, "{workers}-worker report diverged");
        assert_eq!(out.leaderboard_md, base.leaderboard_md);
    }
}

/// A sweep killed after N cell writes resumes to a byte-identical
/// report, recomputing only what was never persisted.
#[test]
fn kill_mid_sweep_then_resume_is_byte_identical() {
    let spec = GridSpec::parse(SWEEP, None).expect("parse");
    let total = spec.expand().len();
    assert_eq!(total, 6);

    // Uninterrupted reference, no store.
    let reference = run_grid(&spec, &RunOptions::default()).expect("reference");

    // Crash run: the 4th cell write fails (3 survive). Workers = 1 so
    // "cells persisted before the crash" is exactly the first 3.
    let dir = tmp_dir("kill");
    let fp = Failpoints::new();
    fp.arm_after("cell.write", 3, 1);
    let mut store = TelemetryStore::open(&dir).expect("open");
    store.set_fault_hook(std::sync::Arc::new(fp.io_hook("grid")));
    let crashed = run_grid(&spec, &RunOptions { store: Some(store), ..RunOptions::default() });
    assert!(crashed.is_err(), "armed failpoint must abort the sweep");
    let persisted = std::fs::read_dir(dir.join("cells")).expect("cells dir").count();
    assert_eq!(persisted, 3, "exactly the pre-crash cells are on disk");

    // Resume against the same store, with a clean hook and more workers.
    let store = TelemetryStore::open(&dir).expect("reopen");
    let resumed =
        run_grid(&spec, &RunOptions { workers: 2, store: Some(store), ..RunOptions::default() })
            .expect("resume");
    assert_eq!(resumed.stats.memo_hits, 3, "resume must reuse every persisted cell");
    assert_eq!(resumed.stats.computed, total - 3);
    assert_eq!(
        resumed.json, reference.json,
        "killed-and-resumed sweep must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cells are content-addressed, not grid-addressed: a differently-named
/// partial sweep warms the memo for the full sweep.
#[test]
fn memoisation_is_shared_across_specs() {
    let dir = tmp_dir("xspec");
    let partial = GridSpec::parse(SWEEP_PARTIAL, None).expect("parse");
    let opts = || RunOptions {
        store: Some(TelemetryStore::open(&dir).expect("open")),
        ..RunOptions::default()
    };
    let first = run_grid(&partial, &opts()).expect("partial");
    assert_eq!(first.stats.computed, 3);

    let full = GridSpec::parse(SWEEP, None).expect("parse");
    let second = run_grid(&full, &opts()).expect("full");
    assert_eq!(second.stats.memo_hits, 3, "seed-21 cells come from the partial run");
    assert_eq!(second.stats.computed, 3, "only seed-22 cells are new");

    // And the memoised result matches a from-scratch run byte-for-byte.
    let fresh = run_grid(&full, &RunOptions::default()).expect("fresh");
    assert_eq!(second.json, fresh.json);
    let _ = std::fs::remove_dir_all(&dir);
}
